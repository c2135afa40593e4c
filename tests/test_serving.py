"""Shard-server tests: scenarios, batching, shards, eviction, HTTP.

Synthetic instances are injected through ``ShardStore(instances=...)``
so no dataset building happens; pools are kept small. The crash test
(``fault`` marker) kills a real shard worker mid-request and proves the
answer is byte-identical to a fault-free run; the 200-client load floor
lives under the ``slow`` marker.
"""

from __future__ import annotations

import http.client
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.communities.structure import Community, CommunityStructure
from repro.errors import ServingError
from repro.graph.generators import planted_partition_graph
from repro.graph.weights import assign_weighted_cascade
from repro.obs.sinks import JsonlSink
from repro.serving import (
    RequestBatcher,
    ScenarioSpec,
    ShardApp,
    ShardStore,
    WarmShard,
    start_http_server,
)
from repro.utils.faults import Fault, FaultInjector

pytestmark = pytest.mark.serve


def _instance(seed: int = 17):
    graph, blocks = planted_partition_graph(
        [5] * 6, p_in=0.6, p_out=0.03, directed=True, seed=seed
    )
    assign_weighted_cascade(graph)
    communities = CommunityStructure(
        [
            Community(members=tuple(b), threshold=2, benefit=float(len(b)))
            for b in blocks
        ]
    )
    return graph.freeze(), communities


def _spec(name: str = "planted", **kwargs) -> ScenarioSpec:
    defaults = dict(dataset="facebook", seed=99, pool_size=120)
    defaults.update(kwargs)
    return ScenarioSpec(name=name, **defaults)


def _store(**kwargs) -> ShardStore:
    spec = _spec()
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("round_size", 60)
    return ShardStore(
        {spec.name: spec},
        instances={spec.name: _instance()},
        **kwargs,
    )


# ----------------------------------------------------------------------
# Scenario specs
# ----------------------------------------------------------------------


class TestScenarioSpec:
    def test_unknown_dataset_rejected(self):
        with pytest.raises(ServingError, match="unknown dataset"):
            ScenarioSpec(name="x", dataset="not-a-dataset")

    def test_bad_threshold_rejected(self):
        with pytest.raises(ServingError, match="threshold"):
            ScenarioSpec(name="x", dataset="facebook", threshold="huge")

    def test_describe_is_json_ready(self):
        spec = _spec()
        assert json.loads(json.dumps(spec.describe()))["name"] == "planted"


# ----------------------------------------------------------------------
# Request batching
# ----------------------------------------------------------------------


class TestRequestBatcher:
    def test_concurrent_identical_requests_share_one_compute(self):
        batcher = RequestBatcher()
        gate = threading.Event()
        computes = []
        results = []

        def compute():
            gate.wait(timeout=10)
            computes.append(1)
            return "answer"

        def client():
            results.append(batcher.run("key", compute))

        threads = [threading.Thread(target=client) for _ in range(8)]
        for t in threads:
            t.start()
        # Wait until every thread has joined the flight, then open it.
        deadline = threading.Event()
        for _ in range(200):
            if batcher.in_flight() == 1:
                break
            deadline.wait(0.01)
        gate.set()
        for t in threads:
            t.join(timeout=10)
        assert len(computes) == 1
        assert all(value == "answer" for value, _ in results)
        leaders = [leader for _, leader in results]
        assert leaders.count(True) == 1
        assert leaders.count(False) == 7

    def test_distinct_keys_do_not_batch(self):
        batcher = RequestBatcher()
        a, leader_a = batcher.run("a", lambda: 1)
        b, leader_b = batcher.run("b", lambda: 2)
        assert (a, b) == (1, 2)
        assert leader_a and leader_b

    def test_sequential_requests_recompute(self):
        batcher = RequestBatcher()
        calls = []
        for _ in range(3):
            _, leader = batcher.run("k", lambda: calls.append(1))
            assert leader
        assert len(calls) == 3

    def test_leader_error_propagates_to_followers(self):
        batcher = RequestBatcher()
        gate = threading.Event()
        errors = []

        def compute():
            gate.wait(timeout=10)
            raise ValueError("boom")

        def client():
            try:
                batcher.run("key", compute)
            except ValueError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=client) for _ in range(4)]
        for t in threads:
            t.start()
        for _ in range(200):
            if batcher.in_flight() == 1:
                break
            threading.Event().wait(0.01)
        gate.set()
        for t in threads:
            t.join(timeout=10)
        assert len(errors) == 4
        assert batcher.in_flight() == 0


# ----------------------------------------------------------------------
# Warm shards
# ----------------------------------------------------------------------


class TestWarmShard:
    def test_merge_rounds_bump_version_and_bound_growth(self):
        graph, communities = _instance()
        shard = WarmShard(
            _spec(), graph, communities, workers=1, round_size=50
        )
        with shard.lock:
            shard.ensure_target(120)
        assert len(shard.pool) == 120
        assert shard.version == 3  # ceil(120 / 50) synchronous rounds
        assert shard.bytes > 0
        shard.close()

    def test_solve_caches_per_version(self):
        graph, communities = _instance()
        shard = WarmShard(
            _spec(), graph, communities, workers=1, round_size=60
        )
        with shard.lock:
            shard.warm()
            first, hit_first = shard.solve(4)
            second, hit_second = shard.solve(4)
            assert not hit_first and hit_second
            assert second == first
            # Growth invalidates: same query recomputes on new version.
            shard.ensure_target(len(shard.pool) + 30)
            third, hit_third = shard.solve(4)
            assert not hit_third
            assert third["pool_version"] > first["pool_version"]
        shard.close()

    def test_solve_matches_offline_pipeline(self):
        from repro.core.ubg import UBG
        from repro.sampling.parallel import ParallelRICSampler
        from repro.sampling.pool import RICSamplePool

        spec = _spec()
        graph, communities = _instance()
        shard = WarmShard(spec, graph, communities, workers=1, round_size=60)
        with shard.lock:
            shard.warm()
            served, _ = shard.solve(5)
        shard.close()
        pool = RICSamplePool(
            ParallelRICSampler(
                graph, communities, seed=spec.seed, model=spec.model, workers=1
            )
        )
        pool.grow(spec.pool_size)
        selection = UBG().solve(pool, 5)
        assert served["seeds"] == sorted(selection.seeds)
        assert served["objective"] == pool.estimate_benefit(selection.seeds)
        assert served["num_samples"] == spec.pool_size

    def test_bad_requests_rejected(self):
        graph, communities = _instance()
        shard = WarmShard(_spec(), graph, communities, workers=1)
        with shard.lock:
            shard.ensure_target(20)
            with pytest.raises(ServingError, match="budget"):
                shard.solve(0)
            with pytest.raises(ServingError, match="unknown solver"):
                shard.solve(2, solver_name="Oracle")
        shard.close()

    def test_ci_width_tops_up_the_pool(self):
        graph, communities = _instance()
        shard = WarmShard(
            _spec(pool_size=40), graph, communities, workers=1, round_size=40
        )
        with shard.lock:
            shard.warm()
            loose, _ = shard.solve(3)
            tight, _ = shard.solve(3, ci_width=0.04)
        shard.close()
        assert tight["num_samples"] > loose["num_samples"]
        assert tight["num_samples"] <= 40 * 4
        if tight["ci_relative_width"] is not None:
            assert (
                tight["ci_relative_width"] <= 0.04
                or tight["num_samples"] == 40 * 4
            )


# ----------------------------------------------------------------------
# Shard store: accounting and eviction
# ----------------------------------------------------------------------


class TestShardStore:
    def test_hit_miss_accounting(self):
        store = _store()
        try:
            store.get("planted")
            store.get("planted")
            assert store.counters == {"hits": 1, "misses": 1, "evictions": 0}
            with pytest.raises(ServingError, match="unknown scenario"):
                store.get("nope")
        finally:
            store.close()

    def test_eviction_under_byte_budget(self):
        specs = {
            name: _spec(name, pool_size=60) for name in ("a", "b", "c")
        }
        instance = _instance()
        store = ShardStore(
            specs,
            instances={name: instance for name in specs},
            workers=1,
            round_size=60,
            memory_budget_bytes=1,  # everything evictable is over budget
        )
        try:
            for name in ("a", "b", "c"):
                shard = store.get(name)
                with shard.lock:
                    shard.warm()
            evicted = store.evict_to_budget(protect="c")
            assert set(evicted) == {"a", "b"}  # oldest first, c protected
            assert store.counters["evictions"] == 2
            # Re-requesting an evicted shard rebuilds it (a miss).
            misses = store.counters["misses"]
            store.get("a")
            assert store.counters["misses"] == misses + 1
        finally:
            store.close()

    def test_busy_shards_skipped_by_evictor(self):
        specs = {name: _spec(name, pool_size=40) for name in ("a", "b")}
        instance = _instance()
        store = ShardStore(
            specs,
            instances={name: instance for name in specs},
            workers=1,
            round_size=40,
            memory_budget_bytes=1,
        )
        try:
            for name in ("a", "b"):
                shard = store.get(name)
                with shard.lock:
                    shard.warm()
            busy = store.get("a")
            held = threading.Event()
            release = threading.Event()

            def hold_lock():
                with busy.lock:
                    held.set()
                    release.wait(timeout=10)

            holder = threading.Thread(target=hold_lock)
            holder.start()
            held.wait(timeout=10)
            evicted = store.evict_to_budget()
            release.set()
            holder.join(timeout=10)
            assert evicted == ["b"]  # "a" was mid-request: skipped
        finally:
            store.close()

    def test_closed_store_refuses_requests(self):
        store = _store()
        store.close()
        with pytest.raises(ServingError, match="closed"):
            store.get("planted")


# ----------------------------------------------------------------------
# HTTP round trips
# ----------------------------------------------------------------------


def _post(port: int, path: str, payload: dict):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _get(port: int, path: str):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=60
    ) as response:
        return response.status, response.read()


class TestHTTPServer:
    @pytest.fixture
    def served(self, tmp_path):
        store = _store()
        trace_path = tmp_path / "trace.jsonl"
        app = ShardApp(store, trace_path=str(trace_path))
        server = start_http_server(app)
        port = server.server_address[1]
        yield app, port, trace_path
        server.shutdown()
        server.server_close()
        app.close()

    def test_healthz_and_metrics(self, served):
        _, port, _ = served
        status, body = _get(port, "/healthz")
        assert status == 200
        assert json.loads(body) == {"status": "ok"}
        status, _ = _get(port, "/metrics")
        assert status == 200

    def test_solve_roundtrip_and_cache(self, served):
        _, port, _ = served
        status, first = _post(
            port, "/solve", {"scenario": "planted", "budget": 4}
        )
        assert status == 200
        assert first["num_samples"] == 120
        assert first["seeds"] == sorted(first["seeds"])
        assert not first["cache_hit"]
        status, second = _post(
            port, "/solve", {"scenario": "planted", "budget": 4}
        )
        assert status == 200
        assert second["cache_hit"]
        for field in ("seeds", "objective", "num_samples"):
            assert second[field] == first[field]

    def test_error_mapping(self, served):
        _, port, _ = served
        assert _post(port, "/solve", {"scenario": "nope", "budget": 2})[0] == 404
        assert _post(port, "/solve", {"scenario": "planted"})[0] == 400
        assert _post(port, "/solve", {"scenario": "planted", "budget": 0})[0] == 400
        assert (
            _post(
                port,
                "/solve",
                {"scenario": "planted", "budget": 2, "solver": "Oracle"},
            )[0]
            == 400
        )
        assert _get(port, "/healthz")[0] == 200  # server still alive

    def test_missing_content_length_is_411(self, served):
        _, port, _ = served
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            conn.putrequest("POST", "/solve", skip_accept_encoding=True)
            conn.endheaders()
            response = conn.getresponse()
            body = json.loads(response.read())
            assert response.status == 411
            assert "Content-Length" in body["error"]
        finally:
            conn.close()

    def test_oversized_content_length_is_413_without_reading(self, served):
        from repro.serving.server import MAX_BODY_BYTES

        _, port, _ = served
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            conn.putrequest("POST", "/solve", skip_accept_encoding=True)
            # Declare a giant body but never send it: the server must
            # reject on the header alone, not block reading the body.
            conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            conn.endheaders()
            response = conn.getresponse()
            body = json.loads(response.read())
            assert response.status == 413
            assert "exceeds" in body["error"]
        finally:
            conn.close()

    def test_malformed_content_length_is_400(self, served):
        _, port, _ = served
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            conn.putrequest("POST", "/solve", skip_accept_encoding=True)
            conn.putheader("Content-Length", "banana")
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 400
        finally:
            conn.close()

    def test_invalid_json_body_is_400_and_server_survives(self, served):
        _, port, _ = served
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            conn.request("POST", "/solve", body=b"{not json")
            response = conn.getresponse()
            assert response.status == 400
        finally:
            conn.close()
        assert _get(port, "/healthz")[0] == 200

    def test_status_reads_live_trace_tail(self, served):
        app, port, trace_path = served
        with JsonlSink(str(trace_path)) as sink:
            sink.write({"name": "span-1"})
            # A torn in-flight record must not break /status.
            sink._handle.write('{"name": "half')
            sink._handle.flush()
            status, body = _get(port, "/status")
        assert status == 200
        payload = json.loads(body)
        assert payload["trace_tail"] == [{"name": "span-1"}]
        assert payload["scenarios"] == ["planted"]
        assert payload["requests"]["total"] == 0


# ----------------------------------------------------------------------
# Crash mid-request: byte-identical answers
# ----------------------------------------------------------------------


@pytest.mark.fault
def test_worker_kill_mid_request_is_byte_identical():
    """A shard worker hard-killed during pool growth must not change
    the solve answer: the failed batch is re-dispatched with the same
    pre-drawn child seeds, so the rebuilt pool — and therefore seeds,
    objective and sample count — is byte-identical to a fault-free run.
    """
    spec = _spec(pool_size=48)
    instance = _instance()

    def serve_one(fault_injector):
        store = ShardStore(
            {spec.name: spec},
            instances={spec.name: instance},
            workers=2,
            round_size=48,
            fault_injector=fault_injector,
        )
        app = ShardApp(store)
        try:
            return app.solve({"scenario": spec.name, "budget": 4})
        finally:
            app.close()

    golden = serve_one(None)
    injector = FaultInjector(
        [Fault.kill_on("generate_batch", start=0, attempt=0)]
    )
    survived = serve_one(injector)
    for field in ("seeds", "objective", "num_samples"):
        assert survived[field] == golden[field], field


# ----------------------------------------------------------------------
# Load floor (slow lane)
# ----------------------------------------------------------------------


@pytest.mark.slow
def test_load_floor_200_concurrent_clients():
    """The acceptance floor: >= 200 concurrent clients, zero dropped
    requests, every response deterministic-field-identical."""
    store = _store()
    app = ShardApp(store)
    server = start_http_server(app)
    port = server.server_address[1]
    results = []
    errors = []

    def client():
        try:
            results.append(
                _post(port, "/solve", {"scenario": "planted", "budget": 4})
            )
        except Exception as exc:  # noqa: BLE001 - counted as a drop
            errors.append(exc)

    try:
        threads = [threading.Thread(target=client) for _ in range(200)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        assert not errors
        assert len(results) == 200
        assert all(status == 200 for status, _ in results)
        golden = results[0][1]
        for _, body in results:
            for field in ("seeds", "objective", "num_samples"):
                assert body[field] == golden[field]
    finally:
        server.shutdown()
        server.server_close()
        app.close()


# ----------------------------------------------------------------------
# Cross-width coalescing
# ----------------------------------------------------------------------


class TestWidthCoalescing:
    def test_tightest_width_tracks_the_in_flight_minimum(self):
        batcher = RequestBatcher()
        gate = threading.Event()
        observed = []

        def leader_compute():
            gate.wait(timeout=10)
            observed.append(batcher.tightest_width("key"))
            return "done"

        def client(width):
            batcher.run("key", leader_compute, width=width)

        threads = [
            threading.Thread(target=client, args=(w,))
            for w in (0.2, 0.05, None, 0.1)
        ]
        for t in threads:
            t.start()
        for _ in range(200):
            if batcher.in_flight() == 1:
                break
            threading.Event().wait(0.01)
        # Give followers a beat to register their widths on the flight.
        for _ in range(200):
            with batcher._lock:
                registered = len(batcher._flights["key"].widths)
            if registered == 4:
                break
            threading.Event().wait(0.01)
        gate.set()
        for t in threads:
            t.join(timeout=10)
        assert observed == [0.05]  # min of registered, None ignored
        assert batcher.tightest_width("key") is None  # flight done

    def test_width_provider_tightens_the_top_up(self):
        graph, communities = _instance()
        shard = WarmShard(
            _spec(pool_size=40), graph, communities, workers=1, round_size=40
        )
        with shard.lock:
            shard.warm()
            loose, _ = shard.solve(3, ci_width=0.5)
            # Same loose request, but a follower registered 0.04 on the
            # flight: the provider must drive the shared top-up.
            tight, _ = shard.solve(
                3, ci_width=0.45, width_provider=lambda: 0.04
            )
        shard.close()
        assert loose["num_samples"] == 40  # 0.5 already satisfied warm
        assert tight["num_samples"] > 40
        if tight["ci_relative_width"] is not None:
            assert (
                tight["ci_relative_width"] <= 0.04 or tight["pool_capped"]
            )

    def test_width_provider_none_falls_back_to_own_width(self):
        graph, communities = _instance()
        shard = WarmShard(
            _spec(pool_size=40), graph, communities, workers=1, round_size=40
        )
        with shard.lock:
            shard.warm()
            via_provider, _ = shard.solve(
                5, ci_width=0.04, width_provider=lambda: None
            )
            shard_b = WarmShard(
                _spec(pool_size=40),
                graph,
                communities,
                workers=1,
                round_size=40,
            )
        with shard_b.lock:
            shard_b.warm()
            direct, _ = shard_b.solve(5, ci_width=0.04)
        shard.close()
        shard_b.close()
        for field in ("seeds", "objective", "num_samples"):
            assert via_provider[field] == direct[field]

    def test_plain_and_ci_width_requests_use_separate_flights(self):
        store = _store()
        app = ShardApp(store)
        keys = []
        original = app.batcher.run

        def spy(key, compute, **kwargs):
            keys.append(key)
            return original(key, compute, **kwargs)

        app.batcher.run = spy
        try:
            app.solve({"scenario": "planted", "budget": 4})
            app.solve(
                {"scenario": "planted", "budget": 4, "ci_width": 0.3}
            )
        finally:
            app.close()
        # Same query shape, but the group key splits on "has a width"
        # — a plain query can never be stretched by a ci_width flight.
        assert keys == [
            ("planted", 4, "UBG", False),
            ("planted", 4, "UBG", True),
        ]

    def test_concurrent_mixed_widths_each_answered_at_own_precision(self):
        store = _store()
        app = ShardApp(store)
        widths = [None, 0.3, 0.05, None, 0.05, 0.3]
        responses = [None] * len(widths)
        barrier = threading.Barrier(len(widths))

        def client(index, width):
            payload = {"scenario": "planted", "budget": 4}
            if width is not None:
                payload["ci_width"] = width
            barrier.wait(timeout=10)
            responses[index] = app.solve(payload)

        try:
            threads = [
                threading.Thread(target=client, args=(i, w))
                for i, w in enumerate(widths)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert all(r is not None for r in responses)
            for width, response in zip(widths, responses):
                # Pool growth stays within the adaptive ceiling.
                assert 120 <= response["num_samples"] <= 120 * 4
                if width is not None and (
                    response["ci_relative_width"] is not None
                ):
                    # The coalescing contract: every ci_width request
                    # is answered at its *own* precision (or the pool
                    # hit the cap, where no answer could do better).
                    assert (
                        response["ci_relative_width"] <= width
                        or response["pool_capped"]
                    )
        finally:
            app.close()
