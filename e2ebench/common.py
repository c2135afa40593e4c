"""Measurement logic shared by the end-to-end benchmark's workloads.

Everything here is pure bookkeeping over numbers the workloads collect
from outside the program: the percentile rule, nested self-time
accounting, ``Server-Timing`` parsing, operation tallies and the
provenance stamp. The unit tests in ``tests/`` exercise it directly.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: A percentile is reported only when at least this many samples lie
#: strictly beyond it; with fewer, the tail is one or two outliers.
MIN_BEYOND = 10


def tail_percentile(
    values: Sequence[float], q: float, min_beyond: int = MIN_BEYOND
) -> Tuple[Optional[float], int]:
    """``(value, n)`` of the nearest-rank ``q``-th percentile.

    ``value`` is ``None`` when fewer than ``min_beyond`` of the ``n``
    samples lie beyond the percentile's rank, so a caller cannot
    report a p95 that rests on a handful of requests.
    """
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be within (0, 100], got {q}")
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return None, 0
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < min_beyond:
        return None, n
    return ordered[rank - 1], n


def median(values: Sequence[float]) -> float:
    """Median of ``values``, or 0.0 when there are none."""
    return statistics.median(values) if values else 0.0


def parse_server_timing(header: Optional[str]) -> Dict[str, float]:
    """``{"parse": 0.01, "total": 3.2, "router": 4.1}`` in milliseconds.

    Parses the ``Server-Timing`` header the replicas and the router
    send (``name;dur=1.234, name;dur=...``). Entries without a ``dur``
    parameter, or with one that is not a number, are skipped; a name
    that repeats keeps its last value.
    """
    timings: Dict[str, float] = {}
    if not header:
        return timings
    for entry in header.split(","):
        parts = [part.strip() for part in entry.split(";")]
        name = parts[0]
        if not name:
            continue
        for param in parts[1:]:
            key, _, value = param.partition("=")
            if key.strip().lower() != "dur":
                continue
            try:
                timings[name] = float(value.strip().strip('"'))
            except ValueError:
                pass
    return timings


class OpTally:
    """Attempted and failed operations, with the reason for each failure.

    A failed operation is a non-zero exit, a non-200 response, a
    transport error or a wrong answer; all count the same towards the
    error rate.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.reasons.append(reason)

    def check(self, good: bool, reason: str) -> None:
        """Record one operation, failed for ``reason`` unless ``good``."""
        if good:
            self.attempted += 1
        else:
            self.fail(reason)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


class LayerClock:
    """Self time and call counts per layer, for wrapped callables.

    :meth:`wrap` returns a timed version of a function. Timed calls may
    nest; a call's self time is its duration minus the durations of the
    timed calls made inside it, so the self times of all layers sum to
    the time spent inside outermost timed calls. A call nested directly
    in a call of the same layer (``grow_to`` calling ``grow``, ``MB``
    calling its ``BT`` arm) adds self time but not a call: ``calls``
    counts entries into the layer from outside it.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self._stack: List[list] = []

    def wrap(self, layer: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = self._stack
            outer = stack[-1][0] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = self.clock() - start
                stack.pop()
                self.self_s[layer] = (
                    self.self_s.get(layer, 0.0) + duration - frame[1]
                )
                if outer != layer:
                    self.calls[layer] = self.calls.get(layer, 0) + 1
                if stack:
                    stack[-1][1] += duration

        return timed

    def total(self) -> float:
        """Sum of every layer's self time."""
        return sum(self.self_s.values())


def patch(owner, name: str, clock: LayerClock, layer: str) -> None:
    """Replace ``owner.name`` with its timed version."""
    setattr(owner, name, clock.wrap(layer, getattr(owner, name)))


@contextlib.contextmanager
def _git_confined_to(root: str):
    """Stop ``git`` from looking above ``root`` for a repository.

    A checkout that is not itself a repository then reports an unknown
    SHA rather than the SHA of whatever repository encloses it.
    """
    previous = os.environ.get("GIT_CEILING_DIRECTORIES")
    os.environ["GIT_CEILING_DIRECTORIES"] = os.path.dirname(
        os.path.abspath(root)
    )
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop("GIT_CEILING_DIRECTORIES", None)
        else:
            os.environ["GIT_CEILING_DIRECTORIES"] = previous


def nproc() -> int:
    """Processors this process may run on (what ``nproc`` prints)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def provenance(root: str, seed: int) -> Dict[str, object]:
    """Seed, code and machine stamp for one result."""
    from repro.obs.environment import environment_fingerprint

    with _git_confined_to(root):
        fingerprint = environment_fingerprint(root)
    return {"workload_seed": seed, "environment": fingerprint, "nproc": nproc()}


def refuse_dirty_tree(root: str, allow_dirty: bool) -> None:
    """Raise ``ReproError`` when ``root`` is a dirty git tree, unless
    ``allow_dirty``: a recorded SHA would not describe the measured
    code. Same rule as ``python -m repro bench --record``."""
    from repro.obs.environment import require_clean_tree

    with _git_confined_to(root):
        require_clean_tree(allow_dirty=allow_dirty, cwd=root)
