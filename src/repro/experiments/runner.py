"""Experiment runner: build instances, run algorithms, measure quality.

The comparison protocol mirrors the paper's: every algorithm returns a
seed set for the same instance and budget; quality is the Monte-Carlo
estimate of the expected benefit ``c(S)``; runtime is the wall-clock of
the selection step (sampling included for the RIC-based methods, since
sample generation is part of those algorithms).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.baselines import (
    hbc_seeds,
    high_degree_seeds,
    im_seeds,
    ks_seeds,
    random_seeds,
)
from repro.communities.label_propagation import label_propagation_communities
from repro.communities.louvain import louvain_communities
from repro.communities.random_partition import random_partition
from repro.communities.structure import CommunityStructure
from repro.communities.thresholds import (
    build_structure,
    constant_thresholds,
    fractional_thresholds,
)
from repro.core.bt import BT, MB
from repro.core.maf import MAF
from repro.core.ubg import UBG, GreedyC
from repro.datasets.registry import load_dataset
from repro.diffusion.simulator import BenefitEvaluator
from repro.errors import ExperimentError
from repro.experiments.checkpoint import CheckpointStore, as_checkpoint
from repro.experiments.config import ExperimentConfig
from repro.graph.csr import FrozenDiGraph
from repro.graph.digraph import DiGraph
from repro.obs import (
    build_manifest,
    enabled as obs_enabled,
    manifest_path_for,
    metrics,
    observe_pool,
    trace,
    write_manifest,
)
from repro.rng import derive_seed
from repro.sampling.parallel import ParallelRICSampler
from repro.sampling.pool import RICSamplePool
from repro.sampling.ric import RICSampler
from repro.utils.timing import Stopwatch


@dataclass(frozen=True)
class AlgorithmRun:
    """Outcome of one algorithm on one instance: seeds, quality, time."""

    algorithm: str
    k: int
    seeds: Tuple[int, ...]
    benefit: float
    runtime_seconds: float


def build_instance(
    config: ExperimentConfig,
) -> Tuple[FrozenDiGraph, CommunityStructure]:
    """Materialise the (graph, communities) pair a config describes.

    Communities are detected on the generated graph; the graph is then
    frozen once and the CSR snapshot returned, since that is the only
    representation the sampling and cascade kernels read.
    """
    dataset = load_dataset(
        config.dataset,
        scale=config.scale,
        seed=derive_seed(config.seed, "dataset", config.dataset),
    )
    graph = dataset.graph
    if config.formation == "louvain":
        blocks = louvain_communities(
            graph, seed=derive_seed(config.seed, "louvain")
        )
    elif config.formation == "label-propagation":
        blocks = label_propagation_communities(
            graph, seed=derive_seed(config.seed, "label-prop")
        )
    elif config.formation == "greedy-modularity":
        from repro.communities.greedy_modularity import (
            greedy_modularity_communities,
        )

        blocks = greedy_modularity_communities(graph)
    else:
        count = config.random_communities
        if count is None:
            # Match the Louvain community count so formations compare
            # at equal granularity (the paper fixes the count).
            count = max(
                1,
                len(
                    louvain_communities(
                        graph, seed=derive_seed(config.seed, "louvain")
                    )
                ),
            )
        blocks = random_partition(
            graph.num_nodes, count, seed=derive_seed(config.seed, "random-part")
        )
    if config.threshold == "bounded":
        policy = constant_thresholds(config.bounded_value)
    else:
        policy = fractional_thresholds(0.5)
    communities = build_structure(
        blocks, size_cap=config.size_cap, threshold_policy=policy
    )
    return graph.freeze(), communities


def make_pool(
    graph: DiGraph,
    communities: CommunityStructure,
    config: ExperimentConfig,
    size: Optional[int] = None,
) -> RICSamplePool:
    """A RIC pool of ``size`` (default ``config.pool_size``) samples.

    ``config.engine`` selects serial or parallel generation; either way
    the pool contents are identical for a fixed ``config.seed``.
    """
    seed = derive_seed(config.seed, "ric-pool")
    if config.engine == "parallel":
        sampler = ParallelRICSampler(
            graph, communities, seed=seed, workers=config.workers
        )
    else:
        sampler = RICSampler(graph, communities, seed=seed)
    pool = RICSamplePool(sampler)
    pool.grow(size if size is not None else config.pool_size)
    if config.engine == "parallel":
        sampler.close()
    if obs_enabled():
        # Instrumented suites get the pool-composition diagnostics
        # (reach-size/source histograms, dedup ratio, footprint gauge)
        # for free; computing them only under an active session keeps
        # the uninstrumented path untouched.
        observe_pool(pool)
    return pool


def _maxr_solver(name: str, config: ExperimentConfig, candidate_limit: Optional[int]):
    seed = derive_seed(config.seed, "solver", name)
    if name == "UBG":
        return UBG()
    if name == "MAF":
        return MAF(seed=seed)
    if name == "BT":
        return BT(
            threshold_bound=max(2, config.bounded_value),
            candidate_limit=candidate_limit,
        )
    if name == "MB":
        return MB(
            threshold_bound=max(2, config.bounded_value),
            candidate_limit=candidate_limit,
            seed=seed,
        )
    if name == "GreedyC":
        return GreedyC()
    raise ExperimentError(f"{name!r} is not a MAXR solver")


def run_algorithm(
    name: str,
    graph: DiGraph,
    communities: CommunityStructure,
    k: int,
    config: ExperimentConfig,
    pool: Optional[RICSamplePool] = None,
    evaluator: Optional[BenefitEvaluator] = None,
    candidate_limit: Optional[int] = 50,
) -> AlgorithmRun:
    """Run one algorithm and evaluate its seed set's benefit.

    For the RIC-based solvers a shared ``pool`` may be passed so a k-
    sweep on one instance samples once; when absent, sampling time is
    charged to the algorithm (it is part of the method).
    """
    if evaluator is None:
        evaluator = BenefitEvaluator(
            graph,
            communities,
            num_trials=config.eval_trials,
            seed=derive_seed(config.seed, "evaluator", name, k),
        )
    timer = Stopwatch()
    with trace.span("experiment/run_algorithm", algorithm=name, k=k):
        if name in ("UBG", "MAF", "BT", "MB", "GreedyC"):
            solver = _maxr_solver(name, config, candidate_limit)
            with timer:
                local_pool = pool if pool is not None else make_pool(
                    graph, communities, config
                )
                selection = solver.solve(local_pool, k)
            seeds: Sequence[int] = selection.seeds
        elif name == "HBC":
            with timer:
                seeds = hbc_seeds(graph, communities, k)
        elif name == "KS":
            with timer:
                seeds = ks_seeds(communities, k)
        elif name == "IM":
            with timer:
                seeds = im_seeds(
                    graph,
                    k,
                    epsilon=config.epsilon,
                    delta=config.delta,
                    seed=derive_seed(config.seed, "im", k),
                    max_samples=20_000,
                )
        elif name == "Degree":
            with timer:
                seeds = high_degree_seeds(graph, k)
        elif name == "Random":
            with timer:
                seeds = random_seeds(
                    graph, k, seed=derive_seed(config.seed, "rand", k)
                )
        else:
            raise ExperimentError(f"unknown algorithm {name!r}")
        with trace.span("experiment/evaluate", algorithm=name, k=k):
            benefit = evaluator(seeds) if seeds else 0.0
        metrics.inc("experiment.runs.completed")
    return AlgorithmRun(
        algorithm=name,
        k=k,
        seeds=tuple(seeds),
        benefit=benefit,
        runtime_seconds=timer.elapsed,
    )


def _run_key(algorithm: str, k: int) -> str:
    """Checkpoint key for one algorithm × budget unit of a suite."""
    return f"{algorithm}|k={k}"


def _run_to_payload(run: AlgorithmRun) -> dict:
    return {
        "algorithm": run.algorithm,
        "k": run.k,
        "seeds": list(run.seeds),
        "benefit": run.benefit,
        "runtime_seconds": run.runtime_seconds,
    }


def _run_from_payload(payload: dict, path: str) -> AlgorithmRun:
    try:
        return AlgorithmRun(
            algorithm=payload["algorithm"],
            k=int(payload["k"]),
            seeds=tuple(payload["seeds"]),
            benefit=float(payload["benefit"]),
            runtime_seconds=float(payload["runtime_seconds"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ExperimentError(
            f"malformed run payload in checkpoint {path!r}: {payload!r}"
        ) from exc


def run_suite(
    config: ExperimentConfig,
    algorithms: Sequence[str],
    k_values: Sequence[int],
    candidate_limit: Optional[int] = 50,
    checkpoint: Union[None, str, CheckpointStore] = None,
    resume: bool = True,
) -> Dict[str, List[AlgorithmRun]]:
    """Run ``algorithms`` over ``k_values`` on one instance.

    RIC-based solvers share one pool per instance (sampled once at
    ``config.pool_size``); the benefit evaluator is shared per ``k`` so
    every algorithm is scored by the same Monte-Carlo stream count.
    Returns ``{algorithm: [AlgorithmRun per k]}``.

    ``checkpoint`` (a path or a
    :class:`~repro.experiments.checkpoint.CheckpointStore`; defaults to
    ``config.checkpoint_path``) makes the suite crash-safe: every
    completed algorithm × k run is recorded atomically, and a rerun
    against the same checkpoint skips completed runs entirely. Each run
    derives its RNG streams from ``config.seed`` alone, so a resumed
    suite is identical to an uninterrupted one. Set ``resume=False`` to
    discard an existing checkpoint file instead of resuming from it.
    """
    if checkpoint is None and config.checkpoint_path is not None:
        checkpoint = config.checkpoint_path
    store = as_checkpoint(checkpoint, resume=resume)
    todo = [
        (name, k)
        for k in k_values
        for name in algorithms
        if store is None or _run_key(name, k) not in store
    ]
    graph = communities = pool = None
    if todo:
        graph, communities = build_instance(config)
        needs_pool = any(
            name in ("UBG", "MAF", "BT", "MB", "GreedyC")
            for name, _ in todo
        )
        pool = make_pool(graph, communities, config) if needs_pool else None
    results: Dict[str, List[AlgorithmRun]] = {name: [] for name in algorithms}
    for k in k_values:
        pending = [
            name
            for name in algorithms
            if store is None or _run_key(name, k) not in store
        ]
        evaluator = None
        if pending:
            evaluator = BenefitEvaluator(
                graph,
                communities,
                num_trials=config.eval_trials,
                seed=derive_seed(config.seed, "evaluator", k),
            )
        for name in algorithms:
            key = _run_key(name, k)
            if store is not None and key in store:
                metrics.inc("experiment.runs.skipped")
                run = _run_from_payload(store.get(key), store.path)
                if evaluator is not None and run.seeds:
                    # The evaluator hands each evaluation the next child
                    # RNG stream; burn the restored run's stream so the
                    # recomputed runs below see exactly the streams an
                    # uninterrupted session would have given them.
                    evaluator.advance()
                results[name].append(run)
                continue
            run = run_algorithm(
                name,
                graph,
                communities,
                k,
                config,
                pool=pool,
                evaluator=evaluator,
                candidate_limit=candidate_limit,
            )
            if store is not None:
                store.record(key, _run_to_payload(run))
            results[name].append(run)
    if store is not None and obs_enabled():
        # Bind the suite's provenance to its checkpoint: a manifest
        # sibling records code version, seeds and config hash, so a
        # resumed suite can be audited against the run that started it.
        write_manifest(
            build_manifest(
                "run_suite",
                config=asdict(config),
                seeds={"seed": config.seed},
                artifacts={"checkpoint": store.path},
            ),
            manifest_path_for(store.path),
        )
    return results
