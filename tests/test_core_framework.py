"""IMCAF framework tests (Alg. 5 + Alg. 6)."""

import math

import pytest

from repro.communities.structure import Community, CommunityStructure
from repro.core.framework import (
    estimate_benefit,
    lambda_stop_threshold,
    optimal_benefit_lower_bound,
    psi_sample_bound,
    solve_imc,
)
from repro.core.bt import MB
from repro.core.maf import MAF
from repro.core.ubg import UBG
from repro.diffusion.simulator import community_benefit_exact
from repro.errors import SolverError
from repro.graph.builders import from_edge_list
from repro.graph.generators import planted_partition_graph
from repro.graph.weights import assign_weighted_cascade
from repro.sampling.pool import RICSamplePool
from repro.sampling.ric import RICSampler


@pytest.fixture
def small_imc_instance():
    graph, blocks = planted_partition_graph(
        [4] * 5, p_in=0.7, p_out=0.05, directed=True, seed=13
    )
    assign_weighted_cascade(graph)
    communities = CommunityStructure(
        [
            Community(members=tuple(b), threshold=2, benefit=float(len(b)))
            for b in blocks
        ]
    )
    return graph, communities


# ------------------------------------------------------------- bounds


def test_lower_bound_formula(two_communities):
    # beta=1, h=2 -> beta*k/h.
    assert optimal_benefit_lower_bound(two_communities, 4) == pytest.approx(2.0)


def test_lower_bound_skips_zero_benefits():
    structure = CommunityStructure(
        [
            Community(members=(0,), threshold=1, benefit=0.0),
            Community(members=(1,), threshold=1, benefit=2.0),
        ]
    )
    assert optimal_benefit_lower_bound(structure, 2) == pytest.approx(4.0)


def test_lower_bound_all_zero_raises():
    structure = CommunityStructure(
        [Community(members=(0,), threshold=1, benefit=0.0)]
    )
    with pytest.raises(SolverError):
        optimal_benefit_lower_bound(structure, 1)


def test_psi_decreasing_in_alpha_epsilon(two_communities):
    graph = from_edge_list(6, [])
    base = psi_sample_bound(graph, two_communities, 2, 0.5, 0.2, 0.2)
    assert psi_sample_bound(graph, two_communities, 2, 0.9, 0.2, 0.2) <= base
    assert psi_sample_bound(graph, two_communities, 2, 0.5, 0.4, 0.2) < base
    with pytest.raises(SolverError):
        psi_sample_bound(graph, two_communities, 2, 0.0, 0.2, 0.2)


def test_psi_grows_with_n(two_communities):
    small = from_edge_list(6, [])
    big = from_edge_list(600, [])
    assert psi_sample_bound(
        big, two_communities, 2, 0.5, 0.2, 0.2
    ) > psi_sample_bound(small, two_communities, 2, 0.5, 0.2, 0.2)


def test_lambda_threshold_positive_and_decreasing_in_epsilon():
    lam = lambda_stop_threshold(0.2, 0.2)
    assert lam > 100  # substantial for the paper's parameters
    assert lambda_stop_threshold(0.4, 0.2) < lam
    with pytest.raises(SolverError):
        lambda_stop_threshold(1.5, 0.2)


# ------------------------------------------------------ Estimate (Alg 6)


def test_estimate_benefit_converges_to_exact():
    graph = from_edge_list(4, [(0, 2, 0.5), (1, 3, 0.5), (2, 3, 0.5)])
    communities = CommunityStructure(
        [Community(members=(2, 3), threshold=2, benefit=1.0)]
    )
    sampler = RICSampler(graph, communities, seed=21)
    exact = community_benefit_exact(graph, communities, [0, 1])
    result = estimate_benefit(sampler, [0, 1], epsilon=0.1, delta=0.1)
    assert result.converged
    assert result.value == pytest.approx(exact, rel=0.15)


def test_estimate_benefit_budget_exhaustion_returns_none():
    graph = from_edge_list(3, [(0, 1, 0.01)])
    communities = CommunityStructure(
        [Community(members=(1, 2), threshold=2, benefit=1.0)]
    )
    sampler = RICSampler(graph, communities, seed=22)
    # Seeds {0} can never influence (node 2 unreachable): zero mean.
    result = estimate_benefit(
        sampler, [0], epsilon=0.2, delta=0.2, max_trials=100
    )
    assert not result.converged
    assert result.value is None


def test_estimate_benefit_rejects_empty_seed_set():
    graph = from_edge_list(2, [(0, 1, 0.5)])
    communities = CommunityStructure(
        [Community(members=(1,), threshold=1, benefit=1.0)]
    )
    sampler = RICSampler(graph, communities, seed=23)
    with pytest.raises(SolverError):
        estimate_benefit(sampler, [], epsilon=0.2, delta=0.2)


# ---------------------------------------------------------------- IMCAF


def test_solve_imc_returns_valid_result(small_imc_instance):
    graph, communities = small_imc_instance
    result = solve_imc(
        graph, communities, k=4, solver=UBG(), seed=31, max_samples=8000
    )
    assert 1 <= len(result.selection.seeds) <= 4
    assert result.stopped_by in ("estimate", "psi", "max_samples")
    assert result.num_samples >= math.ceil(result.lambda_threshold)
    assert result.alpha > 0
    assert result.psi > result.lambda_threshold


def test_solve_imc_quality_near_exhaustive(small_imc_instance):
    """IMCAF+UBG solution close to Monte-Carlo-scored brute force on a
    tiny budget."""
    graph, communities = small_imc_instance
    result = solve_imc(
        graph, communities, k=2, solver=UBG(), seed=32, max_samples=8000
    )
    from repro.diffusion.simulator import community_benefit_monte_carlo

    ours = community_benefit_monte_carlo(
        graph, communities, result.selection.seeds, num_trials=2000, seed=1
    )
    # Compare against each community's threshold-pair (the natural
    # candidate optima for k=2).
    best_pair = max(
        community_benefit_monte_carlo(
            graph, communities, communities[i].members[:2], num_trials=2000, seed=1
        )
        for i in range(communities.r)
    )
    assert ours >= 0.8 * best_pair


def test_solve_imc_estimate_stop_on_generous_budget(small_imc_instance):
    graph, communities = small_imc_instance
    result = solve_imc(
        graph, communities, k=6, solver=MAF(seed=5), seed=33, max_samples=60_000
    )
    if result.stopped_by == "estimate":
        assert result.benefit_estimate is not None
        assert result.selection.objective <= (
            1 + result.metadata["epsilon"] / 4
        ) * result.benefit_estimate + 1e-9


def test_solve_imc_validates_k(small_imc_instance):
    graph, communities = small_imc_instance
    with pytest.raises(SolverError):
        solve_imc(graph, communities, k=0, solver=UBG())
    with pytest.raises(SolverError):
        solve_imc(graph, communities, k=graph.num_nodes + 1, solver=UBG())


def test_solve_imc_rejects_foreign_pool(small_imc_instance):
    graph, communities = small_imc_instance
    other_graph = from_edge_list(3, [(0, 1, 0.5)])
    other_com = CommunityStructure(
        [Community(members=(1,), threshold=1, benefit=1.0)]
    )
    foreign = RICSamplePool(RICSampler(other_graph, other_com, seed=1))
    with pytest.raises(SolverError):
        solve_imc(graph, communities, k=2, solver=UBG(), pool=foreign)


def test_solve_imc_reuses_supplied_pool(small_imc_instance):
    graph, communities = small_imc_instance
    pool = RICSamplePool(RICSampler(graph, communities, seed=44))
    pool.grow(100)
    result = solve_imc(
        graph,
        communities,
        k=3,
        solver=MAF(seed=2),
        seed=45,
        max_samples=4000,
        pool=pool,
    )
    assert result.num_samples == len(pool)
    assert len(pool) >= 100


@pytest.mark.parametrize(
    "make_solver", [UBG, lambda: MB(seed=3)], ids=["UBG", "MB"]
)
def test_solve_imc_freeze_boundary(small_imc_instance, make_solver):
    """A DiGraph and its freeze() give identical results, with or
    without a caller-built pool over either representation."""
    graph, communities = small_imc_instance
    frozen = graph.freeze()
    kwargs = dict(k=4, seed=21, max_samples=3000)
    on_graph = solve_imc(graph, communities, solver=make_solver(), **kwargs)
    on_frozen = solve_imc(frozen, communities, solver=make_solver(), **kwargs)
    assert on_graph == on_frozen
    assert on_graph.selection.seeds

    pooled = []
    for pool_graph, solve_graph in [
        (graph, graph), (graph, frozen), (frozen, graph), (frozen, frozen)
    ]:
        pool = RICSamplePool(RICSampler(pool_graph, communities, seed=44))
        pooled.append(
            solve_imc(
                solve_graph,
                communities,
                solver=make_solver(),
                pool=pool,
                **kwargs,
            )
        )
    assert all(result == pooled[0] for result in pooled)

    # A pool over a snapshot the graph has since outgrown is foreign.
    stale = RICSamplePool(RICSampler(graph, communities, seed=44))
    graph.add_edge(0, graph.num_nodes - 1, 0.1)
    with pytest.raises(SolverError, match="different graph"):
        solve_imc(graph, communities, solver=make_solver(), pool=stale, **kwargs)


def test_solve_imc_deterministic_given_seed(small_imc_instance):
    graph, communities = small_imc_instance
    a = solve_imc(
        graph, communities, k=3, solver=MAF(seed=1), seed=77, max_samples=3000
    )
    b = solve_imc(
        graph, communities, k=3, solver=MAF(seed=1), seed=77, max_samples=3000
    )
    assert a.selection.seeds == b.selection.seeds
    assert a.num_samples == b.num_samples


def test_solve_imc_progress_callback(small_imc_instance):
    graph, communities = small_imc_instance
    events = []
    solve_imc(
        graph,
        communities,
        k=3,
        solver=MAF(seed=4),
        seed=55,
        max_samples=2000,
        progress=events.append,
    )
    assert events, "progress hook never fired"
    for event in events:
        assert set(event) == {
            "stage",
            "num_samples",
            "coverage",
            "objective",
            "lambda",
            "psi",
            "sampling_profile",
        }
        # Serial engine: unified profile schema with trivial fan-out.
        profile = event["sampling_profile"]
        from repro.sampling.profile import PROFILE_KEYS

        assert tuple(profile) == PROFILE_KEYS
        assert profile["mode"] == "serial"
        assert profile["workers"] == 1
        assert profile["worker_utilization"] is None
        assert profile["retries"] == 0
    stages = [e["stage"] for e in events]
    assert stages == list(range(1, len(events) + 1))
    sizes = [e["num_samples"] for e in events]
    assert sizes == sorted(sizes)
