"""repro — Influence Maximization at the Community level (IMC).

A complete, from-scratch reproduction of *"Influence Maximization at
Community Level: A New Challenge with Non-submodularity"* (ICDCS 2019):
the IMC problem, RIC sampling (Algorithm 1), the UBG / MAF / BT / MB
MAXR solvers, the IMCAF stop-and-stare framework (Algorithm 5), the
paper's baselines, and every substrate they depend on (probabilistic
graphs, IC/LT diffusion, Louvain community detection, synthetic
datasets, estimators).

Quickstart::

    from repro import (
        load_dataset, louvain_communities, build_structure,
        constant_thresholds, UBG, solve_imc, BenefitEvaluator,
    )

    dataset = load_dataset("facebook", scale=0.4, seed=1)
    blocks = louvain_communities(dataset.graph, seed=1)
    communities = build_structure(
        blocks, size_cap=8, threshold_policy=constant_thresholds(2)
    )
    result = solve_imc(dataset.graph, communities, k=10, solver=UBG(), seed=1)
    evaluate = BenefitEvaluator(dataset.graph, communities, seed=1)
    print(result.selection.seeds, evaluate(result.selection.seeds))
"""

from repro.baselines import (
    hbc_seeds,
    high_degree_seeds,
    im_seeds,
    ks_seeds,
    random_seeds,
)
from repro.communities import (
    Community,
    CommunityStructure,
    apply_size_cap,
    build_structure,
    constant_thresholds,
    fractional_thresholds,
    label_propagation_communities,
    load_structure,
    louvain_communities,
    modularity,
    population_benefits,
    random_partition,
    save_structure,
    unit_benefits,
)
from repro.core import (
    BT,
    MAF,
    MB,
    UBG,
    BitsetCoverage,
    CoverageState,
    DkSReduction,
    GreedyC,
    IMCResult,
    SeedSelection,
    StaticIMCResult,
    dks_to_imc,
    estimate_benefit,
    greedy_maxr,
    induced_edge_count,
    lazy_greedy_nu,
    solve_imc,
    solve_imc_static,
)
from repro.datasets import dataset_names, dataset_statistics, load_dataset
from repro.diffusion import (
    BenefitEvaluator,
    community_benefit_exact,
    community_benefit_monte_carlo,
    sample_live_edge_graph,
    simulate_ic,
    simulate_lt,
    spread_monte_carlo,
)
from repro.errors import (
    CommunityError,
    DatasetError,
    DeadlineExceededError,
    EstimationError,
    GraphError,
    ReproError,
    SamplingError,
    SolverError,
    WorkerCrashError,
)
from repro.graph import (
    DiGraph,
    FrozenDiGraph,
    assign_uniform_weights,
    assign_weighted_cascade,
    barabasi_albert_graph,
    erdos_renyi_graph,
    forest_fire_graph,
    from_edge_list,
    from_undirected_edge_list,
    planted_partition_graph,
    read_edge_list,
    watts_strogatz_graph,
    write_edge_list,
)
from repro.im import celf_im, ris_im
from repro.sampling import (
    ParallelRICSampler,
    RICSample,
    RICSamplePool,
    RICSampler,
    RRSampler,
)
from repro.utils.faults import Fault, FaultInjected, FaultInjector
from repro.utils.retry import Deadline, RetryPolicy, TimeBudget

__version__ = "1.0.0"

__all__ = [
    # graph
    "DiGraph",
    "FrozenDiGraph",
    "from_edge_list",
    "from_undirected_edge_list",
    "assign_weighted_cascade",
    "assign_uniform_weights",
    "erdos_renyi_graph",
    "barabasi_albert_graph",
    "watts_strogatz_graph",
    "planted_partition_graph",
    "forest_fire_graph",
    "read_edge_list",
    "write_edge_list",
    # communities
    "Community",
    "CommunityStructure",
    "louvain_communities",
    "label_propagation_communities",
    "random_partition",
    "save_structure",
    "load_structure",
    "modularity",
    "apply_size_cap",
    "build_structure",
    "constant_thresholds",
    "fractional_thresholds",
    "population_benefits",
    "unit_benefits",
    # diffusion
    "simulate_ic",
    "simulate_lt",
    "sample_live_edge_graph",
    "BenefitEvaluator",
    "community_benefit_monte_carlo",
    "community_benefit_exact",
    "spread_monte_carlo",
    # sampling
    "RICSample",
    "RICSampler",
    "ParallelRICSampler",
    "RICSamplePool",
    "RRSampler",
    # core
    "BitsetCoverage",
    "CoverageState",
    "SeedSelection",
    "greedy_maxr",
    "lazy_greedy_nu",
    "UBG",
    "GreedyC",
    "MAF",
    "BT",
    "MB",
    "solve_imc",
    "solve_imc_static",
    "StaticIMCResult",
    "estimate_benefit",
    "IMCResult",
    "DkSReduction",
    "dks_to_imc",
    "induced_edge_count",
    # im + baselines
    "ris_im",
    "celf_im",
    "hbc_seeds",
    "ks_seeds",
    "im_seeds",
    "high_degree_seeds",
    "random_seeds",
    # datasets
    "load_dataset",
    "dataset_names",
    "dataset_statistics",
    # errors
    "ReproError",
    "GraphError",
    "CommunityError",
    "SamplingError",
    "SolverError",
    "EstimationError",
    "DatasetError",
    "WorkerCrashError",
    "DeadlineExceededError",
    # robustness
    "RetryPolicy",
    "Deadline",
    "TimeBudget",
    "Fault",
    "FaultInjected",
    "FaultInjector",
    "__version__",
]
