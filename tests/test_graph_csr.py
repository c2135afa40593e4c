"""FrozenDiGraph: CSR snapshot correctness and kernel equivalence.

The sampling and cascade kernels read only the CSR snapshot. The
contract under test is strong: for a fixed seed each kernel must be
*byte-identical* to the literal mutable-graph reference in
``tests/oracles.py`` — same RNG draw order, same samples, same
cascades — not merely equal in distribution. The suite therefore
compares kernel and oracle outputs exactly, never statistically.
"""

import pickle

import pytest

from repro.communities.structure import Community, CommunityStructure
from repro.diffusion.independent_cascade import simulate_ic
from repro.diffusion.linear_threshold import simulate_lt
from repro.errors import GraphError
from repro.graph.csr import FrozenDiGraph
from repro.graph.digraph import DiGraph
from repro.graph.generators import planted_partition_graph
from repro.graph.weights import assign_weighted_cascade
from repro.sampling.ric import RICSampler
from repro.sampling.rr import RRSampler
from tests import oracles


@pytest.fixture(scope="module")
def instance():
    graph, blocks = planted_partition_graph(
        [10] * 5, p_in=0.35, p_out=0.03, directed=True, seed=23
    )
    assign_weighted_cascade(graph)
    communities = CommunityStructure(
        [
            Community(members=tuple(b), threshold=2, benefit=float(len(b)))
            for b in blocks
        ]
    )
    return graph, communities


def small_graph():
    graph = DiGraph(5)
    graph.add_edge(0, 1, 0.5)
    graph.add_edge(0, 2, 0.25)
    graph.add_edge(2, 1, 0.75)
    graph.add_edge(3, 4, 1.0)
    graph.add_edge(4, 0, 0.1)
    return graph


def test_frozen_matches_mutable_read_surface():
    graph = small_graph()
    frozen = graph.freeze()
    assert isinstance(frozen, FrozenDiGraph)
    assert frozen.num_nodes == graph.num_nodes
    assert frozen.num_edges == graph.num_edges
    assert len(frozen) == len(graph)
    assert list(frozen.nodes()) == list(graph.nodes())
    for u in graph.nodes():
        assert frozen.out_degree(u) == graph.out_degree(u)
        assert frozen.in_degree(u) == graph.in_degree(u)
        assert frozen.out_neighbors(u) == tuple(graph.out_neighbors(u))
        assert frozen.in_neighbors(u) == tuple(graph.in_neighbors(u))
        out_ids, out_ws = frozen.out_adjacency(u)
        mut_ids, mut_ws = graph.out_adjacency(u)
        assert list(out_ids) == list(mut_ids)
        assert list(out_ws) == pytest.approx(list(mut_ws))
        assert list(frozen.out_edges(u)) == list(graph.out_edges(u))
        assert list(frozen.in_edges(u)) == list(graph.in_edges(u))
    assert list(frozen.edges()) == list(graph.edges())
    assert frozen.has_edge(0, 1) and not frozen.has_edge(1, 0)
    assert frozen.weight(0, 2) == pytest.approx(0.25)
    assert frozen.weight(2, 0) == 0.0
    assert frozen == graph


def test_edge_ranks_are_insertion_order_ids():
    graph = small_graph()
    frozen = graph.freeze()
    for u, v, _ in graph.edges():
        assert frozen.edge_id(u, v) == graph.edge_id(u, v)
    with pytest.raises(GraphError):
        frozen.edge_id(1, 0)


def test_freeze_is_idempotent_and_construction_guarded():
    frozen = small_graph().freeze()
    assert frozen.freeze() is frozen
    with pytest.raises(GraphError):
        FrozenDiGraph()


def test_thaw_round_trip_preserves_edge_ids():
    graph = small_graph()
    thawed = graph.freeze().thaw()
    assert thawed == graph
    for u, v, _ in graph.edges():
        assert thawed.edge_id(u, v) == graph.edge_id(u, v)
    # A re-freeze of the thawed graph is CSR-identical.
    refrozen = thawed.freeze()
    original = graph.freeze()
    assert refrozen.in_neighbor_ids == original.in_neighbor_ids
    assert refrozen.in_edge_ranks == original.in_edge_ranks


def test_pickle_round_trip_matches_and_rebuilds_caches():
    frozen = small_graph().freeze()
    frozen.in_pairs()  # populate the lazy cache on the original
    clone = pickle.loads(pickle.dumps(frozen))
    assert clone == frozen
    assert clone.in_pairs() == frozen.in_pairs()
    assert clone.out_pairs() == frozen.out_pairs()


def test_pair_caches_match_adjacency_order():
    graph = small_graph()
    frozen = graph.freeze()
    in_pairs = frozen.in_pairs()
    out_pairs = frozen.out_pairs()
    assert frozen.in_pairs() is in_pairs  # cached, built once
    for u in graph.nodes():
        sources, weights = graph.in_adjacency(u)
        assert in_pairs[u] == tuple(zip(sources, weights))
        targets, weights = graph.out_adjacency(u)
        assert out_pairs[u] == tuple(zip(targets, weights))


def test_ric_sampling_byte_identical_ic(instance):
    graph, communities = instance
    expected = oracles.ric_samples(graph, communities, seed=5, count=300)
    assert RICSampler(graph, communities, seed=5).sample_many(300) == expected
    frozen = RICSampler(graph.freeze(), communities, seed=5)
    assert frozen.sample_many(300) == expected


def test_ric_sampling_byte_identical_lt(instance):
    graph, communities = instance
    expected = oracles.ric_samples(
        graph, communities, seed=5, count=200, model="lt"
    )
    sampler = RICSampler(graph, communities, seed=5, model="lt")
    assert sampler.sample_many(200) == expected


def test_ric_forced_source_matches_oracle(instance):
    graph, communities = instance
    sampler = RICSampler(graph, communities, seed=0)
    for index in range(len(communities)):
        for sample_seed in (3, 17):
            assert sampler.sample_from_seed(
                sample_seed, community_index=index
            ) == oracles.ric_sample(
                graph, communities, sample_seed, community_index=index
            )


def test_rr_sampling_byte_identical(instance):
    graph, _ = instance
    sampler = RRSampler(graph, seed=9)
    assert sampler.sample_many(200) == oracles.rr_sets(graph, seed=9, count=200)


def test_simulations_byte_identical(instance):
    graph, _ = instance
    frozen = graph.freeze()
    for seed in range(20):
        expected_ic = oracles.simulate_ic(graph, [seed], seed=seed)
        assert simulate_ic(graph, [seed], seed=seed) == expected_ic
        assert simulate_ic(frozen, [seed], seed=seed) == expected_ic
        expected_lt = oracles.simulate_lt(graph, [seed], seed=seed)
        assert simulate_lt(graph, [seed], seed=seed) == expected_lt
        assert simulate_lt(frozen, [seed], seed=seed) == expected_lt


def test_kernels_read_the_memoised_snapshot():
    graph = small_graph()
    frozen = graph.freeze()
    assert graph.freeze() is frozen
    assert RRSampler(graph, seed=1).graph is frozen
    communities = CommunityStructure(
        [Community(members=(0, 1), threshold=1, benefit=1.0)]
    )
    assert RICSampler(graph, communities, seed=1).graph is frozen
    # Any mutation drops the memo; the old snapshot is left untouched.
    graph.add_edge(1, 3, 0.5)
    refrozen = graph.freeze()
    assert refrozen is not frozen
    assert refrozen.has_edge(1, 3) and not frozen.has_edge(1, 3)
    graph.add_node()
    assert graph.freeze().num_nodes == 6 and refrozen.num_nodes == 5


def test_frozen_rejects_out_of_range_nodes():
    frozen = small_graph().freeze()
    for bad in (-1, 5):
        with pytest.raises(GraphError):
            frozen.out_degree(bad)
        with pytest.raises(GraphError):
            frozen.in_adjacency(bad)
