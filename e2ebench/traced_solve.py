"""Run ``python -m repro solve ARGS`` with each layer's public calls timed.

Usage (from the root of a checkout)::

    PYTHONPATH=src python e2ebench/traced_solve.py solve --dataset facebook ...

The wrappers are installed from here, around the functions and methods
the CLI reaches; nothing in ``src/`` changes. After the CLI's own output
the script prints one ``LAYERS {...}`` line: self seconds per layer,
outermost selection calls, the final pool size and the Alg. 6 trial
total.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import LayerClock, patch  # noqa: E402


def install(clock: LayerClock) -> dict:
    """Wrap the layers' public calls; returns the live tallies."""
    import repro.cli as cli
    import repro.core.framework as framework
    from repro.core.bt import BT, MB
    from repro.core.maf import MAF
    from repro.core.ubg import UBG, GreedyC
    from repro.diffusion.simulator import BenefitEvaluator
    from repro.sampling.pool import RICSamplePool

    tallies = {"estimate_trials": 0, "pool": None}
    patch(cli, "load_dataset", clock, "datasets.load")
    patch(cli, "louvain_communities", clock, "communities.detect")
    patch(cli, "build_structure", clock, "communities.detect")
    timed_grow = clock.wrap("sampling.grow", RICSamplePool.grow)

    def grow(pool, count):
        tallies["pool"] = pool
        return timed_grow(pool, count)

    RICSamplePool.grow = grow
    patch(RICSamplePool, "grow_to", clock, "sampling.grow")
    patch(RICSamplePool, "influenced_count", clock, "sampling.influenced_count")
    for solver in (UBG, GreedyC, MAF, BT, MB):
        patch(solver, "solve", clock, "core.select")
    timed_estimate = clock.wrap("core.estimate", framework.estimate_benefit)

    def estimate_benefit(*args, **kwargs):
        result = timed_estimate(*args, **kwargs)
        tallies["estimate_trials"] += result.trials
        return result

    framework.estimate_benefit = estimate_benefit
    patch(BenefitEvaluator, "__call__", clock, "diffusion.evaluate")
    return tallies


def main(argv) -> int:
    from repro.cli import main as cli_main

    clock = LayerClock()
    tallies = install(clock)
    for layer in (
        "datasets.load",
        "communities.detect",
        "sampling.grow",
        "sampling.influenced_count",
        "core.select",
        "core.estimate",
        "diffusion.evaluate",
    ):
        clock.self_s.setdefault(layer, 0.0)
    code = cli_main(argv)
    pool = tallies["pool"]
    print(
        "LAYERS "
        + json.dumps(
            {
                "self_s": clock.self_s,
                "select_calls": clock.calls.get("core.select", 0),
                "samples": len(pool) if pool is not None else 0,
                "estimate_trials": tallies["estimate_trials"],
            },
            sort_keys=True,
        )
    )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
