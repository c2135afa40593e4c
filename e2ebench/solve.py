"""The two solve workloads: ``python -m repro solve`` as users run it.

Untraced runs time whole child processes of the default CLI (no
``--freeze``, no ``--coverage-engine``), repeated until the run's
seconds are spent. The traced run starts ``traced_solve.py`` instead,
which times each layer's public calls from outside and reports their
self times; whatever those calls do not cover is ``unattributed_s``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from common import OpTally, median

HERE = os.path.dirname(os.path.abspath(__file__))

#: Workload seed whose answers are pinned in ``goldens.json`` (the CLI's
#: own default ``--seed``).
DEFAULT_SEED = 7
#: Every run repeats the solve at least this often, so the answer can be
#: compared across repetitions and set-up time is a median.
MIN_REPS = 2
#: A child that takes longer than this has hung.
CHILD_TIMEOUT_S = 150.0
#: ``peak_rss_mb`` unit: ``ru_maxrss`` is in KiB on Linux.
KIB_PER_MB = 1024.0


@dataclass(frozen=True)
class SolveSpec:
    dataset: str
    scale: float
    solver: str
    k: int = 10

    def argv(self, seed: int) -> List[str]:
        return [
            "solve",
            "--dataset", self.dataset,
            "--scale", str(self.scale),
            "--solver", self.solver,
            "--k", str(self.k),
            "--seed", str(seed),
        ]


WORKLOADS: Dict[str, SolveSpec] = {
    "solve-dense": SolveSpec("facebook", 0.3, "UBG"),
    "solve-communities": SolveSpec("dblp", 0.3, "MB"),
}


@dataclass
class ChildRun:
    returncode: int
    wall_s: float
    setup_s: Optional[float]
    rss_mb: float
    lines: List[str]


def child_env(root: str) -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    return env


def run_child(root: str, argv: List[str]) -> ChildRun:
    """Run one child with unbuffered output; time it from outside.

    ``setup_s`` is the time from start until the ``instance:`` line
    (interpreter start, imports, dataset, Louvain, thresholds);
    ``rss_mb`` is the child's own peak RSS from ``wait4``.
    """
    began = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-u", *argv],
        cwd=root,
        env=child_env(root),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    setup_s = None
    lines = []
    try:
        for line in proc.stdout:
            if setup_s is None and line.startswith("instance:"):
                setup_s = time.perf_counter() - began
            lines.append(line.rstrip("\n"))
        _, status, usage = os.wait4(proc.pid, 0)
        wall_s = time.perf_counter() - began
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        watchdog.cancel()
        proc.stdout.close()
    return ChildRun(
        returncode=proc.returncode,
        wall_s=wall_s,
        setup_s=setup_s,
        rss_mb=usage.ru_maxrss / KIB_PER_MB,
        lines=lines,
    )


_PATTERNS = {
    "b": re.compile(r"^instance: .* b=(\S+)"),
    "seeds": re.compile(r"^seeds: (\[.*\])$"),
    "stopped": re.compile(
        r"^stopped_by=(\S+) samples=(\d+) iterations=(\d+)"
    ),
    "c_R": re.compile(r"^pool objective c_R\(S\) = (\S+)$"),
    "mc": re.compile(r"^Monte-Carlo c\(S\) = (\S+) "),
}


def parse_answer(lines: List[str]) -> Optional[Dict[str, object]]:
    """The answer a ``solve`` printed, or ``None`` if a line is missing."""
    found = {}
    for line in lines:
        for key, pattern in _PATTERNS.items():
            match = pattern.match(line)
            if match and key not in found:
                found[key] = match.groups()
    if len(found) != len(_PATTERNS):
        return None
    stopped_by, samples, stages = found["stopped"]
    return {
        "b": float(found["b"][0]),
        "seeds": json.loads(found["seeds"][0]),
        "stopped_by": stopped_by,
        "samples": int(samples),
        "stages": int(stages),
        "c_R": found["c_R"][0],
        "mc": found["mc"][0],
    }


def load_golden(workload: str) -> Dict[str, object]:
    with open(os.path.join(HERE, "goldens.json"), encoding="utf-8") as handle:
        return json.load(handle)[workload]


def answer_problem(
    answer: Optional[Dict[str, object]],
    spec: SolveSpec,
    first: Optional[Dict[str, object]],
    golden: Optional[Dict[str, object]],
) -> Optional[str]:
    """Why ``answer`` is wrong, or ``None`` when it passes every check.

    Any seed: ``|S| = k``, ``0 < c_R(S) <= b`` and the same answer as the
    run's first repetition. The default seed also matches the goldens.
    """
    if answer is None:
        return "output is missing a result line"
    if len(answer["seeds"]) != spec.k:
        return f"|S| = {len(answer['seeds'])}, expected {spec.k}"
    if not 0.0 < float(answer["c_R"]) <= answer["b"]:
        return f"c_R(S) = {answer['c_R']} outside (0, {answer['b']:g}]"
    if first is not None and answer != first:
        return "answer differs from the run's first repetition"
    if golden is not None:
        for key in ("seeds", "c_R", "samples", "stages"):
            if answer[key] != golden[key]:
                return f"{key} = {answer[key]!r}, golden {golden[key]!r}"
    return None


def run_untraced(
    root: str, workload: str, seed: int, seconds: float, tally: OpTally
) -> Dict[str, float]:
    """Repeat the default CLI solve for ``seconds``; end-to-end metrics."""
    spec = WORKLOADS[workload]
    golden = load_golden(workload) if seed == DEFAULT_SEED else None
    argv = ["-m", "repro", *spec.argv(seed)]
    runs: List[ChildRun] = []
    first = None
    deadline = time.perf_counter() + seconds
    while len(runs) < MIN_REPS or time.perf_counter() < deadline:
        run = run_child(root, argv)
        runs.append(run)
        if run.returncode != 0:
            tally.fail(f"exit code {run.returncode}: {run.lines[-3:]}")
            continue
        answer = parse_answer(run.lines)
        problem = answer_problem(answer, spec, first, golden)
        if first is None and answer is not None:
            first = answer
        if problem is None and run.setup_s is None:
            problem = "no instance: line"
        tally.check(problem is None, f"wrong answer: {problem}")
    good = [run for run in runs if run.returncode == 0 and run.setup_s]
    if not good:
        return {}
    walls = [run.wall_s for run in good]
    print(
        f"{workload}: {len(good)} solves, walls "
        + ", ".join(f"{wall:.3f}" for wall in walls)
        + " s"
    )
    return {
        "setup_s": median([run.setup_s for run in good]),
        "latency_p50_ms": median(walls) * 1e3,
        "latency_tail_ms": max(walls) * 1e3,
        "throughput_rps": len(walls) / sum(walls),
        "peak_rss_mb": median([run.rss_mb for run in good]),
    }


def _traced_layers(
    root: str, spec: SolveSpec, seed: int, tally: OpTally, first, golden
) -> Optional[Dict[str, object]]:
    argv = [os.path.join(HERE, "traced_solve.py"), *spec.argv(seed)]
    run = run_child(root, argv)
    layers = None
    for line in run.lines:
        if line.startswith("LAYERS "):
            layers = json.loads(line[len("LAYERS "):])
    if run.returncode != 0 or layers is None:
        tally.fail(f"traced solve failed ({run.returncode}): {run.lines[-3:]}")
        return None
    answer = parse_answer(run.lines)
    problem = answer_problem(answer, spec, first, golden)
    tally.check(problem is None, f"wrong traced answer: {problem}")
    layers["answer"] = answer
    layers["stages"] = answer["stages"] if answer else None
    layers["wall_s"] = run.wall_s
    return layers


#: Counts that a deterministic solve must repeat exactly.
EXACT_COUNTS = ("samples", "stages", "select_calls", "estimate_trials")


def run_traced(
    root: str, workload: str, seed: int, seconds: float, tally: OpTally
) -> Dict[str, float]:
    """Two traced solves (their exact counts must agree) and, on
    ``solve-dense``, the ``--trace-out`` overhead pair: a fixed amount of
    work, whatever ``seconds`` says."""
    spec = WORKLOADS[workload]
    golden = load_golden(workload) if seed == DEFAULT_SEED else None
    traced = []
    for _ in range(2):
        first = traced[0]["answer"] if traced else None
        layers = _traced_layers(root, spec, seed, tally, first, golden)
        if layers is not None:
            traced.append(layers)
    if not traced:
        return {}
    counts = [{key: layers[key] for key in EXACT_COUNTS} for layers in traced]
    if golden is not None:
        counts.append({key: golden[key] for key in EXACT_COUNTS})
    exact = all(c == counts[0] for c in counts)
    if not exact:
        print(f"EXACT-COUNT MISMATCH on {workload}: {counts}", file=sys.stderr)
    tally.check(exact, f"exact counts changed between runs: {counts}")

    wall = sum(layers["wall_s"] for layers in traced) / len(traced)
    layer_self = {
        name: sum(l["self_s"][name] for l in traced) / len(traced)
        for name in traced[0]["self_s"]
    }
    attributed = sum(layer_self.values())
    grow_s = layer_self["sampling.grow"]
    estimate_s = layer_self["core.estimate"]
    metrics = {
        "solve_s": wall,
        "datasets.load_s": layer_self["datasets.load"],
        "communities.detect_s": layer_self["communities.detect"],
        "sampling.grow_s": grow_s,
        "sampling.samples": counts[0]["samples"],
        "sampling.samples_per_s": (
            counts[0]["samples"] / grow_s if grow_s > 0 else 0.0
        ),
        "sampling.influenced_count_s": layer_self["sampling.influenced_count"],
        "core.select_s": layer_self["core.select"],
        "core.select_calls": counts[0]["select_calls"],
        "core.estimate_s": estimate_s,
        "core.estimate_trials": counts[0]["estimate_trials"],
        "core.estimate_share": estimate_s / wall,
        "diffusion.evaluate_s": layer_self["diffusion.evaluate"],
        "imc.stages": counts[0]["stages"],
        "unattributed_s": wall - attributed,
        "unattributed_share": (wall - attributed) / wall,
        "obs.trace_overhead": 0.0,
    }
    if workload == "solve-dense":
        metrics["obs.trace_overhead"] = _trace_overhead(root, spec, seed, tally)
    return metrics


def _trace_overhead(
    root: str, spec: SolveSpec, seed: int, tally: OpTally
) -> float:
    """Wall with ``--trace-out`` over wall without, one solve each."""
    out_dir = os.path.join(root, ".e2ebench_run")
    os.makedirs(out_dir, exist_ok=True)
    base = ["-m", "repro", *spec.argv(seed)]
    plain = run_child(root, base)
    traced = run_child(
        root, base + ["--trace-out", os.path.join(out_dir, "solve.trace.jsonl")]
    )
    answers = [parse_answer(plain.lines), parse_answer(traced.lines)]
    good = (
        plain.returncode == 0
        and traced.returncode == 0
        and answers[0] is not None
        and answers[0] == answers[1]
    )
    tally.check(good, "--trace-out changed the answer or failed")
    return traced.wall_s / plain.wall_s if good else 0.0
