"""Bitset engine tests: exact equivalence with the reference engine.

``BitsetCoverage`` is the one coverage engine the solvers run, so the
engine-specific mechanics are pinned here: exact agreement with
``CoverageState`` on hand-built and sampled pools, the stale-pool
guard, resync after (interleaved) growth, and the empty pool. The
concurrent-resync guard is covered per engine in
``test_concurrency_fixes.py``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.communities.structure import Community, CommunityStructure
from repro.core.bitset_engine import BitsetCoverage
from repro.core.objective import CoverageState
from repro.errors import SolverError
from repro.graph.digraph import DiGraph
from repro.graph.generators import planted_partition_graph
from repro.graph.weights import assign_weighted_cascade
from repro.sampling.pool import RICSamplePool
from repro.sampling.ric import RICSample, RICSampler

NUM_NODES = 10


def _manual_pool():
    communities = CommunityStructure(
        [
            Community(members=(0, 1), threshold=2, benefit=1.0),
            Community(members=(2,), threshold=1, benefit=1.0),
        ]
    )
    pool = RICSamplePool(RICSampler(DiGraph(NUM_NODES), communities, seed=1))
    pool.add(RICSample(0, 2, (0, 1), (frozenset({0, 4}), frozenset({1, 5}))))
    pool.add(RICSample(1, 1, (2,), (frozenset({2, 4}),)))
    return pool


def _sampled_pool(samples=120, seed=3):
    graph, blocks = planted_partition_graph(
        [8] * 4, p_in=0.4, p_out=0.03, directed=True, seed=13
    )
    assign_weighted_cascade(graph)
    communities = CommunityStructure(
        [
            Community(members=tuple(b), threshold=2, benefit=float(len(b)))
            for b in blocks
        ]
    )
    pool = RICSamplePool(RICSampler(graph, communities, seed=seed))
    pool.grow(samples)
    return pool


def test_matches_reference_step_by_step():
    pool = _manual_pool()
    ref = CoverageState(pool)
    fast = BitsetCoverage(pool)
    for node in (4, 5, 0, 2, 1):
        assert fast.gain_pair(node) == (
            ref.gain_influenced(node),
            pytest.approx(ref.gain_fractional(node)),
        )
        ref.add_seed(node)
        fast.add_seed(node)
        assert fast.influenced_count == ref.influenced_count
        assert fast.fractional_count == pytest.approx(ref.fractional_count)
        assert fast.estimate_benefit() == pytest.approx(ref.estimate_benefit())
        assert fast.estimate_upper_bound() == pytest.approx(
            ref.estimate_upper_bound()
        )


def test_duplicate_seed_rejected():
    fast = BitsetCoverage(_manual_pool())
    fast.add_seed(4)
    with pytest.raises(SolverError):
        fast.add_seed(4)


def test_gain_of_seed_is_zero():
    fast = BitsetCoverage(_manual_pool())
    fast.add_seed(4)
    assert fast.gain_pair(4) == (0, 0.0)


def test_unknown_node_gains_nothing():
    fast = BitsetCoverage(_manual_pool())
    assert fast.gain_pair(99) == (0, 0.0)
    fast.add_seed(99)  # harmless: touches nothing
    assert fast.influenced_count == 0


def test_matches_reference_on_every_gain_of_a_sampled_pool():
    pool = _sampled_pool()
    reference = CoverageState(pool)
    fast = BitsetCoverage(pool)
    nodes = pool.touching_nodes()
    for _ in range(4):
        for v in nodes:
            assert fast.gain_pair(v) == reference.gain_pair(v)
        best = max(
            (v for v in nodes if v not in reference.seeds),
            key=lambda v: reference.gain_pair(v),
        )
        reference.add_seed(best)
        fast.add_seed(best)
        assert fast.influenced_count == reference.influenced_count
        assert fast.fractional_count == pytest.approx(
            reference.fractional_count
        )
        assert fast.estimate_benefit() == reference.estimate_benefit()
        assert fast.estimate_upper_bound() == pytest.approx(
            reference.estimate_upper_bound()
        )


def test_estimate_benefit_identical_across_engines_and_pool():
    pool = _sampled_pool(samples=100)
    seeds = pool.touching_nodes()[:5]
    expected = pool.estimate_benefit(seeds)
    reference = CoverageState(pool)
    fast = BitsetCoverage(pool)
    for v in seeds:
        reference.add_seed(v)
        fast.add_seed(v)
    assert reference.estimate_benefit() == expected
    assert fast.estimate_benefit() == expected
    assert pool.estimate_benefit([]) == 0.0
    assert BitsetCoverage(pool).estimate_benefit() == 0.0


def test_stale_pool_guard_and_resync():
    pool = _sampled_pool(samples=60)
    fast = BitsetCoverage(pool)
    node = pool.touching_nodes()[0]
    fast.add_seed(node)
    pool.grow(40)
    with pytest.raises(SolverError, match="pool grew"):
        fast.gain_pair(node)
    with pytest.raises(SolverError, match="pool grew"):
        fast.estimate_benefit()
    with pytest.raises(SolverError, match="pool grew"):
        fast.add_seed(pool.touching_nodes()[1])
    fast.resync()
    fresh = CoverageState(pool)
    fresh.add_seed(node)
    assert fast.influenced_count == fresh.influenced_count
    for v in pool.touching_nodes():
        assert fast.gain_pair(v) == fresh.gain_pair(v)
    fast.resync()  # no-op when already synced
    assert fast.influenced_count == fresh.influenced_count


def test_resync_after_interleaved_growth_matches_fresh_engine():
    pool = _sampled_pool(samples=80)
    fast = BitsetCoverage(pool)
    for round_idx in range(3):
        pool.grow(30)
        fast.resync()
        fresh = BitsetCoverage(pool)
        for v in fast.seeds:
            fresh.add_seed(v)
        for v in pool.touching_nodes():
            assert fast.gain_pair(v) == fresh.gain_pair(v)
        assert fast.influenced_count == fresh.influenced_count
        seed = pool.touching_nodes()[round_idx * 3]
        if seed not in fast.seeds:
            fast.add_seed(seed)
    reference = CoverageState(pool)
    for v in fast.seeds:
        reference.add_seed(v)
    assert fast.influenced_count == reference.influenced_count


def test_empty_pool():
    communities = CommunityStructure(
        [Community(members=(0,), threshold=1, benefit=1.0)]
    )
    pool = RICSamplePool(RICSampler(DiGraph(2), communities, seed=0))
    fast = BitsetCoverage(pool)
    assert fast.estimate_benefit() == 0.0
    assert fast.estimate_upper_bound() == 0.0
    assert fast.gain_pair(0) == (0, 0.0)


@st.composite
def random_pool_and_seed_order(draw):
    num_communities = draw(st.integers(1, 3))
    communities = []
    next_node = 0
    for _ in range(num_communities):
        size = draw(st.integers(1, 3))
        members = tuple(range(next_node, next_node + size))
        next_node += size
        communities.append(
            Community(
                members=members,
                threshold=draw(st.integers(1, size)),
                benefit=1.0,
            )
        )
    structure = CommunityStructure(communities)
    pool = RICSamplePool(RICSampler(DiGraph(NUM_NODES), structure, seed=0))
    for _ in range(draw(st.integers(1, 6))):
        idx = draw(st.integers(0, num_communities - 1))
        community = structure[idx]
        reaches = tuple(
            frozenset(
                draw(st.sets(st.integers(0, NUM_NODES - 1), max_size=4))
                | {member}
            )
            for member in community.members
        )
        pool.add(
            RICSample(idx, community.threshold, community.members, reaches)
        )
    order = draw(
        st.lists(
            st.integers(0, NUM_NODES - 1), unique=True, min_size=1, max_size=6
        )
    )
    return pool, order


@given(random_pool_and_seed_order())
@settings(max_examples=150, deadline=None)
def test_property_equivalence_with_reference(args):
    pool, order = args
    ref = CoverageState(pool)
    fast = BitsetCoverage(pool)
    for node in order:
        assert fast.gain_pair(node)[0] == ref.gain_pair(node)[0]
        assert fast.gain_pair(node)[1] == pytest.approx(ref.gain_pair(node)[1])
        ref.add_seed(node)
        fast.add_seed(node)
    assert fast.influenced_count == ref.influenced_count
    assert fast.fractional_count == pytest.approx(ref.fractional_count)
