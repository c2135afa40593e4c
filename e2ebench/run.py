"""End-to-end benchmark entry point.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload solve-dense --seed 7 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics on untraced runs of what
users run; ``--trace 1`` is the separate traced run that splits the
workload's time layer by layer. The metric names, units and workloads
come from ``BENCHMARK.json`` at the checkout root. The human-readable
report goes first; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. ``--record PATH``
also appends the result, stamped with the seed, the environment
fingerprint and ``nproc``, to ``PATH`` (refused on a dirty git tree
unless ``--allow-dirty``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _fail(message: str) -> int:
    print(f"e2ebench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="PATH", default=None)
    parser.add_argument("--allow-dirty", action="store_true")
    args = parser.parse_args(argv)

    config_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        return _fail(f"no repro sources under {ROOT}; run from a checkout")
    with open(config_path, encoding="utf-8") as handle:
        config = json.load(handle)
    workloads = [w["name"] for w in config["workloads"]]
    if args.workload not in workloads:
        return _fail(f"unknown workload {args.workload!r} ({workloads})")
    wanted = config["per_layer" if args.trace else "end_to_end"]

    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import serve
    import solve
    from common import OpTally, provenance, refuse_dirty_tree
    from repro.errors import ReproError

    if args.record:
        try:
            refuse_dirty_tree(ROOT, args.allow_dirty)
        except ReproError as exc:
            return _fail(str(exc))
    stamp = provenance(ROOT, args.seed)
    print("provenance: " + json.dumps(stamp, sort_keys=True))
    tally = OpTally()
    if args.workload in solve.WORKLOADS:
        run = solve.run_traced if args.trace else solve.run_untraced
        measured = run(ROOT, args.workload, args.seed, args.seconds, tally)
    else:
        run = serve.run_traced if args.trace else serve.run_untraced
        measured = run(ROOT, args.seed, args.seconds, tally)
        # Spawning the replicas started multiprocessing's resource
        # tracker; stop and reap it so the run leaves no process behind.
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()

    metrics = {}
    missing = []
    for spec in wanted:
        name, unit = spec["name"], spec["unit"]
        value = measured.get(name)
        if value is None and args.trace:
            # A layer this workload never reaches did no work.
            value = 0.0
        if value is None or not math.isfinite(value):
            missing.append(name)
            continue
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<28} {value:>14.6g} {unit}")
    print(
        f"  {'error_rate':<28} {tally.error_rate:>14.6g} "
        f"({tally.failed} failed of {tally.attempted} attempted)"
    )
    for reason in tally.reasons[:10]:
        print(f"  failed: {reason}", file=sys.stderr)
    if missing:
        print(f"  not measured: {', '.join(missing)}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0 and not missing and tally.attempted > 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": metrics,
    }
    if args.record:
        entry = dict(
            result, workload=args.workload, trace=args.trace, provenance=stamp
        )
        with open(args.record, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
