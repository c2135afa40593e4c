"""Property-based coverage-engine equivalence.

``BitsetCoverage`` (packed member masks) is the one engine the solvers
run; ``CoverageState`` (per-sample member sets) is its readable
reference. Both implement the same incremental ĉ/ν state with
different storage, so on any random pool and seed sequence they must
agree — on every marginal, every running count, the pool's own one-shot
objectives, and after resyncing past pool growth. The strategies here
deliberately generate degenerate shapes (empty reaches, duplicate reach
sets, saturated samples) because mask packing is the kind of code where
off-by-one member indices hide.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.communities.structure import Community, CommunityStructure
from repro.core.bitset_engine import BitsetCoverage
from repro.core.objective import CoverageState
from repro.graph.digraph import DiGraph
from repro.sampling.pool import RICSamplePool
from repro.sampling.ric import RICSample, RICSampler

NUM_NODES = 12


def _make_structure(draw):
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
                benefit=float(draw(st.integers(1, 5))),
            )
        )
    return CommunityStructure(communities)


def _draw_samples(draw, structure, count):
    samples = []
    for _ in range(count):
        idx = draw(st.integers(0, len(structure) - 1))
        community = structure[idx]
        reaches = tuple(
            frozenset(
                draw(st.sets(st.integers(0, NUM_NODES - 1), max_size=4))
                | {member}
            )
            for member in community.members
        )
        samples.append(
            RICSample(idx, community.threshold, community.members, reaches)
        )
    return samples


@st.composite
def pool_seeds_growth(draw):
    structure = _make_structure(draw)
    pool = RICSamplePool(RICSampler(DiGraph(NUM_NODES), structure, seed=0))
    pool.add_many(_draw_samples(draw, structure, draw(st.integers(1, 6))))
    seeds = draw(
        st.lists(
            st.integers(0, NUM_NODES - 1), unique=True, min_size=0, max_size=5
        )
    )
    growth = _draw_samples(draw, structure, draw(st.integers(0, 4)))
    late_seeds = draw(
        st.lists(
            st.integers(0, NUM_NODES - 1), unique=True, min_size=0, max_size=3
        )
    )
    return pool, seeds, growth, late_seeds


def _assert_same_state(bitset, reference):
    assert bitset.seeds == reference.seeds
    assert bitset.influenced_count == reference.influenced_count
    assert bitset.fractional_count == pytest.approx(reference.fractional_count)
    assert bitset.estimate_benefit() == reference.estimate_benefit()
    assert bitset.estimate_upper_bound() == pytest.approx(
        reference.estimate_upper_bound()
    )


@given(pool_seeds_growth())
@settings(max_examples=150, deadline=None)
def test_bitset_agrees_with_reference_on_state_and_marginals(args):
    pool, seeds, _, _ = args
    reference = CoverageState(pool)
    bitset = BitsetCoverage(pool)
    for v in seeds:
        # Marginal of v must agree *before* it becomes a seed...
        expected = reference.gain_pair(v)
        assert bitset.gain_pair(v) == expected
        assert bitset.gain_influenced(v) == reference.gain_influenced(v)
        assert bitset.gain_fractional(v) == reference.gain_fractional(v)
        reference.add_seed(v)
        bitset.add_seed(v)
        # ... and the running state after.
        _assert_same_state(bitset, reference)
    for v in range(NUM_NODES):
        assert bitset.gain_pair(v) == reference.gain_pair(v)
    # The pool's one-shot objectives (what MAF, BT and the shard server
    # report) agree with the incremental engines.
    assert pool.estimate_benefit(seeds) == bitset.estimate_benefit()
    assert pool.estimate_upper_bound(seeds) == pytest.approx(
        bitset.estimate_upper_bound()
    )


@given(pool_seeds_growth())
@settings(max_examples=100, deadline=None)
def test_engines_agree_after_resync_growth(args):
    pool, seeds, growth, late_seeds = args
    reference = CoverageState(pool)
    bitset = BitsetCoverage(pool)
    for v in seeds:
        reference.add_seed(v)
        bitset.add_seed(v)
    pool.add_many(growth)
    reference.resync()
    bitset.resync()
    _assert_same_state(bitset, reference)
    for v in late_seeds:
        if v in bitset.seeds:
            continue
        assert bitset.gain_pair(v) == reference.gain_pair(v)
        reference.add_seed(v)
        bitset.add_seed(v)
    _assert_same_state(bitset, reference)
    # A fresh build over the final pool+seeds agrees with the resynced
    # engine — resync is not a distinct state machine.
    fresh = BitsetCoverage(pool)
    for v in bitset.seeds:
        fresh.add_seed(v)
    assert fresh.influenced_count == bitset.influenced_count
    assert fresh.fractional_count == pytest.approx(bitset.fractional_count)
    for v in range(NUM_NODES):
        assert fresh.gain_pair(v) == bitset.gain_pair(v)
