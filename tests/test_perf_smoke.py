"""Fast performance smoke tests (tier-1; heavier runs are marked slow).

These are sanity floors, not benchmarks: they catch order-of-magnitude
regressions (e.g. accidentally quadratic sampling, per-sample process
dispatch) while staying fast enough for the default test run. The real
serial-vs-parallel comparison lives in
``benchmarks/bench_ric_throughput.py``.
"""

import os
import time

import pytest

from repro.communities.structure import Community, CommunityStructure
from repro.graph.generators import planted_partition_graph
from repro.graph.weights import assign_weighted_cascade
from repro.sampling.parallel import ParallelRICSampler
from repro.sampling.pool import RICSamplePool
from repro.sampling.ric import RICSampler


@pytest.fixture(scope="module")
def smoke_instance():
    graph, blocks = planted_partition_graph(
        [8] * 6, p_in=0.4, p_out=0.02, directed=True, seed=31
    )
    assign_weighted_cascade(graph)
    communities = CommunityStructure(
        [
            Community(members=tuple(b), threshold=2, benefit=float(len(b)))
            for b in blocks
        ]
    )
    return graph, communities


def test_serial_sampling_throughput_floor(smoke_instance):
    graph, communities = smoke_instance
    pool = RICSamplePool(RICSampler(graph, communities, seed=3))
    start = time.perf_counter()
    pool.grow(300)
    elapsed = time.perf_counter() - start
    assert 300 / elapsed > 50  # laptop-scale sanity floor


def test_parallel_engine_dispatch_overhead_bounded(smoke_instance):
    """Batched dispatch: a modest request must not take worker-per-sample
    time (the failure mode batching exists to prevent)."""
    graph, communities = smoke_instance
    with ParallelRICSampler(
        graph, communities, seed=3, workers=2
    ) as sampler:
        start = time.perf_counter()
        samples = sampler.sample_many(200)
        elapsed = time.perf_counter() - start
    assert len(samples) == 200
    assert elapsed < 30.0
    profile = sampler.last_profile()
    assert profile["mode"] == "parallel"
    assert profile["batches"] <= 2 * 4 + 1  # ~4 batches per worker


@pytest.mark.slow
def test_parallel_speedup_on_multicore():
    """Excluded from tier-1 (slow): asserts real speedup, which needs
    actual cores; run explicitly with ``-m slow`` on multicore hosts."""
    if (os.cpu_count() or 1) < 4:
        pytest.skip("needs >= 4 physical cores for a meaningful speedup")
    graph, blocks = planted_partition_graph(
        [40] * 25, p_in=0.25, p_out=0.004, directed=True, seed=11
    )
    assign_weighted_cascade(graph)
    communities = CommunityStructure(
        [
            Community(members=tuple(b), threshold=2, benefit=float(len(b)))
            for b in blocks
        ]
    )
    count = 2000
    start = time.perf_counter()
    RICSampler(graph, communities, seed=9).sample_many(count)
    serial_elapsed = time.perf_counter() - start
    with ParallelRICSampler(
        graph, communities, seed=9, workers=4
    ) as sampler:
        sampler.sample_many(8)  # warm the worker pool
        start = time.perf_counter()
        sampler.sample_many(count)
        parallel_elapsed = time.perf_counter() - start
    assert serial_elapsed / parallel_elapsed >= 2.0


@pytest.mark.slow
@pytest.mark.obs
def test_disabled_instrumentation_overhead_bounded(smoke_instance):
    """Excluded from tier-1 (slow, timing-sensitive): the permanent
    span/counter call sites must be near-free while no session is
    active. Budget: the instrumented sampling path stays within a loose
    multiple of a bare loop over the same sampler — the real <3% budget
    is asserted at benchmark scale in the kernel bench workload (see
    docs/observability.md); this floor catches accidental per-sample
    work behind the gate."""
    from repro.obs import enabled
    from repro.sampling.ric import RICSampler as Sampler

    graph, communities = smoke_instance
    assert not enabled()

    # Warm up both samplers (lazy caches, allocator).
    Sampler(graph, communities, seed=5).sample_many(200)

    bare = Sampler(graph, communities, seed=5)
    start = time.perf_counter()
    for _ in range(1000):
        bare.sample()  # no span/counter call sites on this path
    bare_elapsed = time.perf_counter() - start

    instrumented = Sampler(graph, communities, seed=5)
    start = time.perf_counter()
    for _ in range(10):
        instrumented.sample_many(100)  # gated span + counter per call
    instrumented_elapsed = time.perf_counter() - start

    # Identical work; generous 1.5x ceiling absorbs scheduler noise.
    assert instrumented_elapsed < bare_elapsed * 1.5 + 0.05
