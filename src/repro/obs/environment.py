"""Environment fingerprinting: git state, interpreter, platform.

Perf and reproduction claims are only attributable when the artifact
records *which code* produced them — a timestamp alone cannot be
diffed against a commit. These helpers are deliberately tolerant:
outside a git checkout (or without a ``git`` binary) the git fields
come back ``None`` and everything else still works, so library users
installing from a wheel are unaffected.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from typing import Any, Dict, Optional

from repro.errors import ReproError

#: Bound on how long a git subprocess may take before we give up and
#: report "unknown" — observability must never hang the workload.
_GIT_TIMEOUT_SECONDS = 5.0


def _run_git(args, cwd: Optional[str]) -> Optional[str]:
    """Run ``git <args>`` and return stripped stdout, or ``None`` on
    any failure (no repo, no binary, timeout)."""
    try:
        completed = subprocess.run(
            ["git", *args],
            cwd=cwd,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            timeout=_GIT_TIMEOUT_SECONDS,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.decode("utf-8", "replace").strip()


def git_info(cwd: Optional[str] = None) -> Dict[str, Any]:
    """``{"sha": str | None, "dirty": bool | None}`` for the checkout
    containing ``cwd`` (default: the process working directory).

    ``sha`` is the full HEAD commit; ``dirty`` is whether the working
    tree has uncommitted changes (``git status --porcelain`` non-empty,
    untracked files included). Both are ``None`` when the answer cannot
    be determined — callers must treat *unknown* differently from
    *clean* (the bench recorder allows unknown, refuses dirty).
    """
    sha = _run_git(["rev-parse", "HEAD"], cwd)
    if sha is None:
        return {"sha": None, "dirty": None}
    status = _run_git(["status", "--porcelain"], cwd)
    dirty = None if status is None else bool(status)
    return {"sha": sha, "dirty": dirty}


def working_tree_dirty(cwd: Optional[str] = None) -> Optional[bool]:
    """Whether the enclosing git working tree has uncommitted changes.

    ``None`` when unknown (not a checkout / no git binary).
    """
    return git_info(cwd)["dirty"]


def require_clean_tree(allow_dirty: bool = False,
                       cwd: Optional[str] = None) -> None:
    """Raise :class:`~repro.errors.ReproError` when the working tree is
    dirty and ``allow_dirty`` is not set.

    Used by the end-to-end benchmark's ``--record`` (``e2ebench/``): a
    perf-trajectory entry stamped with a commit SHA is a lie if the
    tree it ran on differs from that commit. An *unknown* state (no git) is allowed — the entry simply
    records no SHA.
    """
    if allow_dirty:
        return
    if working_tree_dirty(cwd):
        raise ReproError(
            "refusing to record a benchmark entry from a dirty working "
            "tree (the stamped git SHA would not describe the measured "
            "code); commit your changes or pass --allow-dirty"
        )


def environment_fingerprint(cwd: Optional[str] = None) -> Dict[str, Any]:
    """One JSON-ready dict identifying code + interpreter + machine.

    Keys: ``git_sha``, ``git_dirty``, ``python``, ``implementation``,
    ``platform``, ``machine``, ``cpu_count``. This is the block stamped
    into recorded benchmark entries and run manifests.
    """
    git = git_info(cwd)
    return {
        "git_sha": git["sha"],
        "git_dirty": git["dirty"],
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }
