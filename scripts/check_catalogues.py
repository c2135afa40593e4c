#!/usr/bin/env python
"""Lint: metric, span and event names must match their catalogues.

Three closed vocabularies back the observability layer, and each is
checked in both directions — every literal name used under ``src/``
must be catalogued, and every catalogued name must be used somewhere
(no stale rows):

- ``repro.obs.metrics.CATALOG`` — ``metrics.inc(`` / ``set_gauge(`` /
  ``observe(`` call sites. The catalogue backs the ``HELP`` text of the
  Prometheus export and the metric table in ``docs/observability.md``.
- ``repro.obs.tracer.SPAN_CATALOG`` — ``trace.span("name", ...)`` call
  sites; the catalogue backs the span table in the same doc.
- ``repro.obs.events.EVENT_TYPES`` — literal ``journal.emit(`` /
  ``self._emit(`` event types. :class:`~repro.obs.events.EventJournal`
  enforces the same vocabulary at runtime; the lint catches drift at
  review time, before a cluster run has to crash on it.

Only literal names are matched: registry metrics and spans
deliberately use no dynamic names. Multi-line calls are handled by
scanning whole-file text; the reported line is where the call opens.
Deleting a name means deleting its catalogue row and doc row in the
same change.

Usage::

    python scripts/check_catalogues.py          # lint, exit 1 on drift
    python scripts/check_catalogues.py --list   # dump call sites

Importable pieces (used by ``tests/test_docs_consistency.py``): the
patterns :data:`METRIC_SITE`, :data:`SPAN_SITE`, :data:`EVENT_SITE`,
the scanner :func:`_scan` and :func:`check_names`.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Iterable, List, NamedTuple, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_ROOT = os.path.join(REPO_ROOT, "src")

#: ``metrics.inc("name"``, ``metrics.set_gauge('name'``,
#: ``metrics.observe("name"``.
METRIC_SITE = re.compile(
    r"metrics\.(?:inc|set_gauge|observe)\(\s*"
    r"(?P<quote>['\"])(?P<name>[^'\"]+)(?P=quote)"
)

#: ``trace.span("name"`` / ``trace.span('name'``.
SPAN_SITE = re.compile(
    r"trace\.span\(\s*(?P<quote>['\"])(?P<name>[^'\"]+)(?P=quote)"
)

#: ``journal.emit("type"`` (any receiver ending in ``.emit``) and the
#: supervisor's ``self._emit(`` helper.
EVENT_SITE = re.compile(
    r"(?:\.emit|_emit)\(\s*(?P<quote>['\"])(?P<name>[^'\"]+)(?P=quote)"
)


class CallSite(NamedTuple):
    path: str
    line: int
    name: str


def _scan(pattern: re.Pattern, root: str = SRC_ROOT) -> List[CallSite]:
    """Every literal-name match of ``pattern`` in ``.py`` files under
    ``root``, in path order."""
    sites: List[CallSite] = []
    for dirpath, _dirnames, filenames in sorted(os.walk(root)):
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
            for match in pattern.finditer(text):
                sites.append(
                    CallSite(
                        path=os.path.relpath(path, REPO_ROOT),
                        line=text.count("\n", 0, match.start()) + 1,
                        name=match.group("name"),
                    )
                )
    return sites


def check_names(
    known: Iterable[str], sites: List[CallSite]
) -> Tuple[List[CallSite], List[str]]:
    """Returns ``(uncatalogued call sites, stale catalogued names)``."""
    known = set(known)
    used = {site.name for site in sites}
    unknown = [site for site in sites if site.name not in known]
    stale = sorted(name for name in known if name not in used)
    return unknown, stale


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--list", action="store_true", help="dump every call site found"
    )
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC_ROOT)
    from repro.obs.events import EVENT_TYPES
    from repro.obs.metrics import CATALOG
    from repro.obs.tracer import SPAN_CATALOG

    failed = False
    for label, catalog, catalog_name, pattern in (
        ("metric", CATALOG, "metrics.CATALOG", METRIC_SITE),
        ("span", SPAN_CATALOG, "tracer.SPAN_CATALOG", SPAN_SITE),
        ("event", EVENT_TYPES, "events.EVENT_TYPES", EVENT_SITE),
    ):
        sites = _scan(pattern)
        if args.list:
            for site in sites:
                print(f"{site.path}:{site.line}: {label} {site.name!r}")
        unknown, stale = check_names(catalog, sites)
        for site in unknown:
            print(
                f"{site.path}:{site.line}: {label} name {site.name!r} is "
                f"not in repro.obs.{catalog_name}",
                file=sys.stderr,
            )
        for name in stale:
            print(
                f"repro.obs.{catalog_name} entry {name!r} has no call "
                "site under src/ (stale — remove it and its "
                "docs/observability.md row)",
                file=sys.stderr,
            )
        if not sites:
            print(
                f"no {label} call sites found under src/ — lint broken?",
                file=sys.stderr,
            )
        if unknown or stale or not sites:
            failed = True
        else:
            print(
                f"ok: {len(sites)} {label} sites, "
                f"{len(catalog)} catalogued, no drift"
            )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
