"""Sample-pool tests: inverted indexes and objective estimates."""

import pytest

from repro.communities.structure import Community, CommunityStructure
from repro.errors import SamplingError
from repro.graph.builders import from_edge_list
from repro.sampling.pool import RICSamplePool, RRSamplePool
from repro.sampling.ric import RICSample, RICSampler
from repro.sampling.rr import RRSampler


def _manual_pool():
    """Pool over a trivial instance, filled with hand-built samples."""
    graph = from_edge_list(6, [])
    communities = CommunityStructure(
        [
            Community(members=(0, 1), threshold=2, benefit=1.0),
            Community(members=(2,), threshold=1, benefit=1.0),
        ]
    )
    pool = RICSamplePool(RICSampler(graph, communities, seed=1))
    pool.add(
        RICSample(0, 2, (0, 1), (frozenset({0, 4}), frozenset({1, 5})))
    )
    pool.add(RICSample(1, 1, (2,), (frozenset({2, 4}),)))
    pool.add(
        RICSample(0, 2, (0, 1), (frozenset({0}), frozenset({1})))
    )
    return pool


def test_coverage_index():
    pool = _manual_pool()
    assert list(pool.coverage_of(4)) == [(0, 0), (1, 0)]
    assert list(pool.coverage_of(0)) == [(0, 0), (2, 0)]
    assert list(pool.coverage_of(99)) == []


def test_touch_counts_distinct_samples():
    pool = _manual_pool()
    assert pool.touch_count(4) == 2
    assert pool.touch_count(0) == 2
    assert pool.touch_count(5) == 1
    assert pool.touch_count(99) == 0
    assert set(pool.touching_nodes()) == {0, 1, 2, 4, 5}


def test_community_counts():
    pool = _manual_pool()
    assert pool.community_count(0) == 2
    assert pool.community_count(1) == 1
    assert pool.community_counts() == {0: 2, 1: 1}


def test_samples_touched_by():
    pool = _manual_pool()
    assert pool.samples_touched_by(4) == [0, 1]
    assert pool.samples_touched_by(1) == [0, 2]


def test_influenced_count_threshold_semantics():
    pool = _manual_pool()
    # Node 4 covers one member of sample 0 (h=2) and the member of
    # sample 1 (h=1) -> influences only sample 1.
    assert pool.influenced_count([4]) == 1
    # 4 + 5 cover both members of sample 0.
    assert pool.influenced_count([4, 5]) == 2
    # 0 + 1 influence samples 0 and 2.
    assert pool.influenced_count([0, 1]) == 2
    assert pool.influenced_count([]) == 0


def test_estimate_benefit_formula():
    pool = _manual_pool()
    b = pool.total_benefit
    assert b == 2.0
    assert pool.estimate_benefit([4, 5]) == pytest.approx(b * 2 / 3)
    assert pool.estimate_benefit([]) == 0.0


def test_fractional_count_and_upper_bound():
    pool = _manual_pool()
    # Seeds {4}: sample 0 -> 1/2, sample 1 -> 1/1.
    assert pool.fractional_count([4]) == pytest.approx(1.5)
    assert pool.estimate_upper_bound([4]) == pytest.approx(2.0 * 1.5 / 3)
    # nu >= c-hat everywhere (Lemma 3).
    for seeds in ([4], [0], [0, 1], [4, 5], [2]):
        assert (
            pool.estimate_upper_bound(seeds)
            >= pool.estimate_benefit(seeds) - 1e-12
        )


def test_empty_pool_estimates_zero():
    graph = from_edge_list(2, [])
    communities = CommunityStructure(
        [Community(members=(0,), threshold=1, benefit=1.0)]
    )
    pool = RICSamplePool(RICSampler(graph, communities, seed=1))
    assert pool.estimate_benefit([0]) == 0.0
    assert pool.estimate_upper_bound([0]) == 0.0


def test_grow_and_grow_to():
    graph = from_edge_list(3, [(0, 1, 0.5)])
    communities = CommunityStructure(
        [Community(members=(1, 2), threshold=1, benefit=1.0)]
    )
    pool = RICSamplePool(RICSampler(graph, communities, seed=2))
    pool.grow(10)
    assert len(pool) == 10
    pool.grow_to(25)
    assert len(pool) == 25
    pool.grow_to(5)  # never shrinks
    assert len(pool) == 25
    with pytest.raises(SamplingError):
        pool.grow(-1)


def test_pool_estimates_converge_to_exact():
    from repro.diffusion.simulator import community_benefit_exact

    graph = from_edge_list(4, [(0, 2, 0.5), (1, 3, 0.5), (2, 3, 0.5)])
    communities = CommunityStructure(
        [Community(members=(2, 3), threshold=2, benefit=1.0)]
    )
    pool = RICSamplePool(RICSampler(graph, communities, seed=3))
    pool.grow(30_000)
    exact = community_benefit_exact(graph, communities, [0, 1])
    assert pool.estimate_benefit([0, 1]) == pytest.approx(exact, abs=0.02)


# ------------------------------------------------------------- RR pool


def test_rr_pool_membership_and_coverage():
    graph = from_edge_list(3, [(0, 1, 1.0), (1, 2, 1.0)])
    pool = RRSamplePool(RRSampler(graph, seed=4))
    pool.add(frozenset({0, 1}))
    pool.add(frozenset({2}))
    assert list(pool.sets_containing(0)) == [0]
    assert pool.coverage([0]) == 1
    assert pool.coverage([0, 2]) == 2
    assert pool.coverage([]) == 0
    assert pool.estimate_spread([0, 2]) == pytest.approx(3 * 2 / 2)


def test_rr_pool_grow_and_empty_estimate():
    graph = from_edge_list(3, [(0, 1, 0.5)])
    pool = RRSamplePool(RRSampler(graph, seed=5))
    assert pool.estimate_spread([0]) == 0.0
    pool.grow(12)
    assert len(pool) == 12
    with pytest.raises(SamplingError):
        pool.grow(-3)


def test_pool_stats_empty():
    graph = from_edge_list(2, [])
    communities = CommunityStructure(
        [Community(members=(0,), threshold=1, benefit=1.0)]
    )
    pool = RICSamplePool(RICSampler(graph, communities, seed=9))
    stats = pool.stats()
    assert stats["num_samples"] == 0.0
    assert stats["mean_reach_size"] == 0.0


def test_pool_stats_manual():
    pool = _manual_pool()
    stats = pool.stats()
    assert stats["num_samples"] == 3.0
    # Reach sizes: 2,2 | 2 | 1,1 -> mean 8/5.
    assert stats["mean_reach_size"] == pytest.approx(8 / 5)
    assert stats["max_reach_size"] == 2.0
    assert stats["mean_members"] == pytest.approx(5 / 3)
    assert stats["touching_nodes"] == 5.0
    assert stats["top_source_share"] == pytest.approx(2 / 3)


# ----------------------------------------------------------------------
# Compaction: reach-set interning and index sealing
# ----------------------------------------------------------------------


def _duplicate_pool():
    communities = CommunityStructure(
        [Community(members=(0, 1), threshold=2, benefit=3.0)]
    )
    pool = RICSamplePool(
        RICSampler(from_edge_list(6, []), communities, seed=0)
    )
    for _ in range(2):
        pool.add(
            RICSample(0, 2, (0, 1), (frozenset({0, 4}), frozenset({1, 4})))
        )
    return pool


def test_compact_interns_duplicate_reach_sets():
    pool = _duplicate_pool()
    first, second = pool.samples
    assert first.reach_sets[0] is not second.reach_sets[0]
    stats = pool.compact()
    assert stats["reach_sets"] == 4
    assert stats["unique_reach_sets"] == 2
    assert stats["interned_duplicates"] == 2
    first, second = pool.samples
    assert first.reach_sets[0] is second.reach_sets[0]
    assert first.reach_sets[1] is second.reach_sets[1]
    # Idempotent: a second pass finds nothing left to intern.
    again = pool.compact()
    assert again["interned_duplicates"] == 0


def test_compact_seals_coverage_then_add_thaws():
    pool = _duplicate_pool()
    pool.compact()
    assert isinstance(pool.coverage_of(0), tuple)
    snapshot = pool.influenced_count([0, 1])
    pool.add(RICSample(0, 2, (0, 1), (frozenset({0}), frozenset({1}))))
    assert pool.influenced_count([0, 1]) == snapshot + 1
    # The thawed entry is a list again and indexes the new sample.
    assert pool.coverage_of(0)[-1] == (2, 0)


def test_compact_preserves_objectives_and_selection():
    from repro.core.ubg import UBG
    from repro.graph.generators import planted_partition_graph
    from repro.graph.weights import assign_weighted_cascade

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
    pool = RICSamplePool(RICSampler(graph, communities, seed=3))
    pool.grow(150)
    seeds_before = UBG().solve(pool, 4).seeds
    benefit_before = pool.estimate_benefit(seeds_before)
    pool.compact()
    assert UBG().solve(pool, 4).seeds == seeds_before
    assert pool.estimate_benefit(seeds_before) == benefit_before
