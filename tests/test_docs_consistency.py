"""Documentation completeness checks.

The docs promise a full paper↔code map and an API overview; these tests
keep both honest: every source module appears in the paper mapping or
the API reference, every benchmark module appears in DESIGN.md's
ablation index or the README table, and the deliverable documents
exist and are non-trivial.
"""

from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "repro"


def _doc_text(*names):
    return "\n".join((ROOT / name).read_text() for name in names)


def test_required_documents_exist_and_substantial():
    for name, minimum_lines in (
        ("README.md", 100),
        ("DESIGN.md", 80),
        ("EXPERIMENTS.md", 100),
        ("CONTRIBUTING.md", 30),
        ("docs/paper_mapping.md", 60),
        ("docs/algorithms.md", 60),
        ("docs/api.md", 60),
        ("docs/observability.md", 60),
    ):
        path = ROOT / name
        assert path.exists(), name
        assert len(path.read_text().splitlines()) >= minimum_lines, name


def test_every_module_documented_somewhere():
    docs = _doc_text(
        "docs/paper_mapping.md", "docs/api.md", "DESIGN.md", "README.md"
    )
    undocumented = []
    for path in SRC.rglob("*.py"):
        name = path.stem
        if name.startswith("_"):
            continue
        # A module counts as documented if its module name or its
        # subpackage is referenced in the docs.
        subpackage = path.parent.name
        if name not in docs and f"repro.{subpackage}" not in docs:
            undocumented.append(str(path.relative_to(SRC)))
    assert not undocumented, f"modules absent from docs: {undocumented}"


def test_every_benchmark_indexed():
    docs = _doc_text("DESIGN.md", "README.md")
    missing = []
    for path in (ROOT / "benchmarks").glob("bench_*.py"):
        stem = path.stem
        # Either named directly or covered by the bench_ablation_* and
        # per-figure groups README/DESIGN enumerate.
        if stem in docs or stem.replace("bench_", "") in docs:
            continue
        if stem.startswith("bench_ablation_") and "bench_ablation_*" in docs:
            continue
        missing.append(stem)
    assert not missing, f"benchmarks absent from DESIGN/README: {missing}"


def test_experiments_md_covers_every_paper_artifact():
    text = (ROOT / "EXPERIMENTS.md").read_text()
    for artifact in ("Table I", "Fig. 4", "Fig. 5", "Fig. 6", "Fig. 7", "Fig. 8"):
        assert artifact in text, artifact


def test_design_md_flags_paper_match():
    text = (ROOT / "DESIGN.md").read_text()
    assert "Paper check" in text
    assert "IMC" in text


# ---------------------------------------------------------------------
# Metric-name catalogue: code ↔ CATALOG ↔ docs can never drift
# ---------------------------------------------------------------------


def _load_lint():
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "check_catalogues", ROOT / "scripts" / "check_catalogues.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_lint_script():
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "check_catalogues.py")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr or result.stdout
    return result.stdout


def test_every_emitted_metric_name_is_catalogued():
    from repro.obs.metrics import CATALOG

    lint = _load_lint()
    sites = lint._scan(lint.METRIC_SITE)
    assert sites, "no metric call sites found under src/ — lint broken?"
    missing, stale = lint.check_names(CATALOG, sites)
    assert not missing, (
        "metric names emitted but missing from CATALOG: "
        f"{sorted({site.name for site in missing})}"
    )
    assert not stale, f"CATALOG entries with no call site: {stale}"


def test_every_catalogued_metric_is_documented():
    from repro.obs.metrics import CATALOG

    text = (ROOT / "docs" / "observability.md").read_text()
    undocumented = sorted(
        name for name in CATALOG if f"`{name}`" not in text
    )
    assert not undocumented, (
        "CATALOG names absent from docs/observability.md's metric "
        f"table: {undocumented}"
    )


def test_metric_lint_script_passes_as_a_script():
    assert "metric sites" in _run_lint_script()


# ---------------------------------------------------------------------
# Span-name and event-type catalogues: code ↔ catalogue ↔ docs
# ---------------------------------------------------------------------


def test_every_emitted_span_name_is_catalogued():
    from repro.obs.tracer import SPAN_CATALOG

    lint = _load_lint()
    sites = lint._scan(lint.SPAN_SITE)
    assert sites, "no span call sites found under src/ — lint broken?"
    unknown, stale = lint.check_names(SPAN_CATALOG, sites)
    assert not unknown, (
        "span names emitted but missing from SPAN_CATALOG: "
        f"{sorted({site.name for site in unknown})}"
    )
    assert not stale, f"SPAN_CATALOG entries with no call site: {stale}"


def test_every_emitted_event_type_is_catalogued():
    from repro.obs.events import EVENT_TYPES

    lint = _load_lint()
    sites = lint._scan(lint.EVENT_SITE)
    assert sites, "no event emit sites found under src/ — lint broken?"
    unknown, stale = lint.check_names(EVENT_TYPES, sites)
    assert not unknown, (
        "event types emitted but missing from EVENT_TYPES: "
        f"{sorted({site.name for site in unknown})}"
    )
    assert not stale, f"EVENT_TYPES entries with no emit site: {stale}"


def test_every_span_and_event_name_is_documented():
    from repro.obs.events import EVENT_TYPES
    from repro.obs.tracer import SPAN_CATALOG

    text = (ROOT / "docs" / "observability.md").read_text()
    undocumented = sorted(
        name
        for catalog in (SPAN_CATALOG, EVENT_TYPES)
        for name in catalog
        if f"`{name}`" not in text
    )
    assert not undocumented, (
        "span/event names absent from docs/observability.md: "
        f"{undocumented}"
    )


def test_span_lint_script_passes_as_a_script():
    out = _run_lint_script()
    assert "span sites" in out and "event sites" in out
