"""The ``serve-cluster`` workload: routed ``/solve`` through a live cluster.

An in-process :class:`~repro.serving.cluster.ServingCluster` (router
here, two replica subprocesses with one sampler worker each) serves two
warmed scenarios. Two client threads form a closed loop: each sends its
next query only after the previous reply arrived, on one keep-alive
connection, as SDK callers do. Everything is timed from the client side
and from the ``Server-Timing`` header the router and replicas send.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import resource
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from common import (
    LayerClock,
    OpTally,
    median,
    parse_server_timing,
    patch,
    tail_percentile,
)

SCENARIOS = ("facebook", "wikivote")
SCALE = 0.2
POOL_SIZE = 600
REPLICAS = 2
CLIENTS = 2
SOLVERS = ("UBG", "MAF", "GreedyC", "MB")
MAX_BUDGET = 12
CI_WIDTHS = (0.2, 0.1, 0.05)
#: Queries per epoch; one query in each block of ``CI_BLOCK`` carries a
#: ``ci_width`` (5%).
EPOCH = 200
CI_BLOCK = 20
#: Plain budgets follow Zipf weights ``1 / rank**ZIPF_S`` over a
#: popularity order fixed for the workload: a few queries are popular
#: and many are rare, so the solve cache answers most requests while
#: rare ones keep missing.
ZIPF_S = 1.7
#: Cluster starts per untraced run, at least; ``setup_s`` is their median.
SETUP_REPS = 3
REQUEST_TIMEOUT_S = 120.0
KIB_PER_MB = 1024.0


def _largest_remainder(weights: List[float], total: int) -> List[int]:
    """Integer counts summing to ``total``, proportional to ``weights``."""
    scale = total / sum(weights)
    counts = [int(w * scale) for w in weights]
    order = sorted(
        range(len(weights)),
        key=lambda i: counts[i] - weights[i] * scale,
    )
    for i in order[: total - sum(counts)]:
        counts[i] += 1
    return counts


def _epoch_multiset() -> Tuple[List[Dict], List[Dict]]:
    """The fixed queries of every epoch: ``(plain, ci_width)``."""
    # Scenario and solver are uniform; budgets follow Zipf weights over a
    # fixed shuffle of 1..MAX_BUDGET.
    budgets = list(range(1, MAX_BUDGET + 1))
    random.Random(0).shuffle(budgets)
    pairs = [(scenario, solver) for scenario in SCENARIOS for solver in SOLVERS]
    keys = [(scenario, budget, solver)
            for budget in budgets for scenario, solver in pairs]
    weights = [
        1.0 / rank ** ZIPF_S
        for rank in range(1, len(budgets) + 1)
        for _ in pairs
    ]
    blocks = EPOCH // CI_BLOCK
    plain = [
        {"scenario": scenario, "budget": budget, "solver": solver}
        for (scenario, budget, solver), count in zip(
            keys, _largest_remainder(weights, EPOCH - blocks)
        )
        for _ in range(count)
    ]
    # Each scenario is asked for every width in turn, narrowest first.
    # For budget 4 the first ask (0.05) grows each pool from 600 to 1200
    # samples and the wider asks need no more, so later plain misses all
    # solve on pools of one size and p95 does not hinge on how many
    # rare queries the seed happens to place before the top-ups.
    widths = sorted(CI_WIDTHS)
    ci = [
        {
            "scenario": SCENARIOS[i % len(SCENARIOS)],
            "budget": 4,
            "solver": "UBG",
            "ci_width": widths[(i // len(SCENARIOS)) % len(widths)],
        }
        for i in range(blocks)
    ]
    return plain, ci


PLAIN_QUERIES, CI_QUERIES = _epoch_multiset()


def epoch_queries(seed: int, epoch: int) -> List[Dict]:
    """One epoch: the fixed multiset in an order drawn from the seed.

    Every seed asks the same queries, so the set of distinct queries
    (cache misses) and the top-ups are the same; the seed draws the
    order of the plain queries and where in its block each ``ci_width``
    query falls.
    """
    rng = random.Random(seed * 1_000_003 + epoch)
    plain = list(PLAIN_QUERIES)
    rng.shuffle(plain)
    per_block = CI_BLOCK - 1
    queries: List[Dict] = []
    for block, ci in enumerate(CI_QUERIES):
        chunk = plain[block * per_block:(block + 1) * per_block]
        chunk.insert(rng.randrange(CI_BLOCK), ci)
        queries.extend(chunk)
    return queries


@dataclass
class Reply:
    query: Dict
    status: int
    body: Optional[Dict]
    latency_s: float
    timing: Dict[str, float]
    error: Optional[str] = None


def cluster_config(run_dir: Optional[str] = None):
    from repro.serving import ClusterConfig, default_scenarios

    return ClusterConfig(
        default_scenarios(SCENARIOS, scale=SCALE, pool_size=POOL_SIZE),
        replicas=REPLICAS,
        workers=1,
        warm=True,
        run_dir=run_dir,
    )


def start_cluster(run_dir: Optional[str] = None):
    """``(cluster, seconds from start() until every replica is warm)``.

    Replicas warm every scenario before they answer ``/healthz``, and
    ``start()`` returns once all of them answer it.
    """
    from repro.serving import ServingCluster

    cluster = ServingCluster(cluster_config(run_dir))
    began = time.perf_counter()
    cluster.start()
    return cluster, time.perf_counter() - began


def _get_json(host: str, port: int, path: str) -> Dict:
    conn = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return json.loads(response.read())
    finally:
        conn.close()


def drive(cluster, queries: List[Dict]) -> Tuple[List[Reply], float]:
    """Closed loop of :data:`CLIENTS` keep-alive clients over ``queries``
    (taken in order); returns the replies and the load phase's wall."""
    host, port = cluster.router_address
    pending = iter(queries)
    replies: List[Reply] = []
    lock = threading.Lock()
    began = time.perf_counter()

    def take() -> Optional[Dict]:
        with lock:
            return next(pending, None)

    def client() -> None:
        conn = http.client.HTTPConnection(
            host, port, timeout=REQUEST_TIMEOUT_S
        )
        try:
            while True:
                query = take()
                if query is None:
                    break
                body = json.dumps(query).encode("utf-8")
                sent = time.perf_counter()
                try:
                    conn.request(
                        "POST",
                        "/solve",
                        body=body,
                        headers={"Content-Type": "application/json"},
                    )
                    response = conn.getresponse()
                    raw = response.read()
                    latency = time.perf_counter() - sent
                    reply = Reply(
                        query,
                        response.status,
                        json.loads(raw) if response.status == 200 else None,
                        latency,
                        parse_server_timing(
                            response.getheader("Server-Timing")
                        ),
                    )
                except (OSError, http.client.HTTPException, ValueError) as exc:
                    conn.close()
                    reply = Reply(
                        query, 0, None, time.perf_counter() - sent, {},
                        error=f"{type(exc).__name__}: {exc}",
                    )
                with lock:
                    replies.append(reply)
        finally:
            conn.close()

    threads = [
        threading.Thread(target=client, name=f"e2ebench-client-{i}")
        for i in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return replies, time.perf_counter() - began


def check_replies(replies: List[Reply], tally: OpTally) -> None:
    """Every reply is a 200 with a consistent, adequate answer.

    Plain answers must agree per ``(scenario, budget, solver,
    num_samples)``: the pool size is part of the key because a top-up
    changes later plain answers (see README). A ``ci_width`` answer must
    meet its width or report ``pool_capped``.
    """
    plain: Dict[Tuple, Tuple] = {}
    for reply in replies:
        query, body = reply.query, reply.body
        if reply.status != 200 or body is None:
            tally.fail(
                f"{query}: status {reply.status} {reply.error or ''}".strip()
            )
            continue
        echoed = all(body.get(key) == query[key] for key in
                     ("scenario", "budget", "solver"))
        seeds = body.get("seeds")
        if not echoed or not isinstance(seeds, list) or len(seeds) > query[
            "budget"
        ]:
            tally.fail(f"{query}: malformed answer {body}")
            continue
        width = query.get("ci_width")
        if width is not None:
            relative = body.get("ci_relative_width")
            met = relative is not None and relative <= width
            tally.check(
                met or bool(body.get("pool_capped")),
                f"{query}: width {relative} above {width}, pool not capped",
            )
            continue
        key = (query["scenario"], query["budget"], query["solver"],
               body.get("num_samples"))
        answer = (seeds, body.get("objective"))
        tally.check(
            plain.setdefault(key, answer) == answer,
            f"{query}: answer {answer} disagrees with {plain[key]} "
            f"at {key[3]} samples",
        )


def _peak_child_rss_mb() -> float:
    """Largest peak RSS of any reaped child (replica or sampler worker)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / KIB_PER_MB


def run_untraced(
    root: str, seed: int, seconds: float, tally: OpTally
) -> Dict[str, float]:
    """Whole epochs, each on a freshly started cluster, until ``seconds``
    have passed; then cluster starts alone until there are
    :data:`SETUP_REPS` set-up times. One epoch of :data:`EPOCH` queries
    leaves ten samples beyond p95."""
    setups: List[float] = []
    replies: List[Reply] = []
    topups: List[int] = []
    load_s = 0.0
    began = time.perf_counter()
    epoch = 0
    while epoch == 0 or time.perf_counter() - began < seconds:
        cluster, setup_s = start_cluster()
        setups.append(setup_s)
        try:
            epoch_replies, wall = drive(cluster, epoch_queries(seed, epoch))
            topups.append(_shard_state(cluster)[0])
        finally:
            cluster.stop()
        replies += epoch_replies
        load_s += wall
        epoch += 1
    while len(setups) < SETUP_REPS:
        cluster, setup_s = start_cluster()
        cluster.stop()
        setups.append(setup_s)
    check_replies(replies, tally)
    answered = [r for r in replies if r.status == 200]
    latencies = [r.latency_s * 1e3 for r in answered]
    p95, n = tail_percentile(latencies, 95)
    hits = sum(1 for r in answered if r.body.get("cache_hit"))
    followers = sum(1 for r in answered if r.body.get("batched"))
    print(
        f"serve-cluster: {epoch} epochs, {len(replies)} requests in "
        f"{load_s:.2f} s, {hits} hits / {len(answered) - hits} misses, "
        f"{followers} batched followers, top-up rounds per epoch {topups}, "
        f"setups " + ", ".join(f"{s:.3f}" for s in setups) + " s"
    )
    print(f"latency_tail_ms is the p95 of n={n} round trips")
    if p95 is None:
        return {}
    return {
        "setup_s": median(setups),
        "latency_p50_ms": median(latencies),
        "latency_tail_ms": p95,
        "throughput_rps": len(answered) / load_s,
        "peak_rss_mb": _peak_child_rss_mb(),
    }


def _shard_state(cluster) -> Tuple[int, float]:
    """``(top-up merge rounds, pool MB)`` over every replica's shards."""
    rounds = 0
    total_bytes = 0
    warm_rounds = -(-POOL_SIZE // cluster.config.round_size)
    for endpoint in cluster.supervisor.endpoints():
        status = _get_json(endpoint.host, endpoint.port, "/status")
        for shard in status["shards"]:
            rounds += max(0, shard["version"] - warm_rounds)
            total_bytes += shard["bytes"]
    return rounds, total_bytes / (1024.0 * 1024.0)


def _layer_split(replies: List[Reply]) -> Dict[str, float]:
    answered = [r for r in replies if r.status == 200 and r.timing]

    def p50(values: List[float]) -> float:
        return median(values)

    def p95(values: List[float]) -> float:
        value, _ = tail_percentile(values, 95)
        return value if value is not None else 0.0

    total = [r.timing.get("total", 0.0) for r in answered]
    router = [r.timing.get("router", 0.0) for r in answered]
    hits = [r for r in answered if r.body.get("cache_hit")]
    misses = [r for r in answered if not r.body.get("cache_hit")]
    return {
        "serve.requests": len(replies),
        "router.self_ms": p50([r - t for r, t in zip(router, total)]),
        "transport.client_ms": p50(
            [r.latency_s * 1e3 - rt for r, rt in zip(answered, router)]
        ),
        "replica.parse_ms": p50([r.timing.get("parse", 0.0) for r in answered]),
        "replica.batch_p95_ms": p95(
            [r.timing.get("batch", 0.0) for r in answered]
        ),
        "replica.total_p50_ms": p50(total),
        "replica.total_p95_ms": p95(total),
        "replica.hit_ms": p50([r.timing.get("total", 0.0) for r in hits]),
        "replica.miss_ms": p50([r.timing.get("total", 0.0) for r in misses]),
        "cache.hits": len(hits),
        "cache.misses": len(misses),
        "cache.hit_ratio": len(hits) / len(answered) if answered else 0.0,
        "batching.followers": sum(
            1 for r in answered if r.body.get("batched")
        ),
        "batching.resolves": sum(1 for r in answered if "resolve" in r.timing),
    }


def _time_instance_build() -> Tuple[float, float]:
    """``(load_dataset s, Louvain + thresholds s)`` for both scenarios:
    ``build_instance`` as each replica runs it before it warms."""
    from repro.serving import scenarios

    clock = LayerClock()
    names = ("load_dataset", "louvain_communities", "build_structure")
    originals = {name: getattr(scenarios, name) for name in names}
    patch(scenarios, "load_dataset", clock, "datasets.load")
    patch(scenarios, "louvain_communities", clock, "communities.detect")
    patch(scenarios, "build_structure", clock, "communities.detect")
    try:
        for spec in cluster_config().scenarios.values():
            scenarios.build_instance(spec)
    finally:
        for name, original in originals.items():
            setattr(scenarios, name, original)
    return clock.self_s["datasets.load"], clock.self_s["communities.detect"]


def run_traced(
    root: str, seed: int, seconds: float, tally: OpTally
) -> Dict[str, float]:
    """One epoch split per hop from ``Server-Timing``, with shard state
    from ``/status``; then the same epoch with the observability plane
    on (``ClusterConfig.run_dir`` set)."""
    load_s, detect_s = _time_instance_build()
    cluster, _ = start_cluster()
    try:
        replies, _ = drive(cluster, epoch_queries(seed, 0))
        topups, pool_mb = _shard_state(cluster)
        host, port = cluster.router_address
        failovers = _get_json(host, port, "/status")["requests"]["failovers"]
    finally:
        cluster.stop()
    check_replies(replies, tally)
    metrics = _layer_split(replies)
    run_dir = os.path.join(root, ".e2ebench_run", "cluster")
    cluster, _ = start_cluster(run_dir)
    try:
        plane_replies, _ = drive(cluster, epoch_queries(seed, 0))
    finally:
        cluster.stop()
    check_replies(plane_replies, tally)
    plain_p50 = median([r.latency_s for r in replies if r.status == 200])
    plane_p50 = median([r.latency_s for r in plane_replies if r.status == 200])
    metrics.update(
        {
            "datasets.load_s": load_s,
            "communities.detect_s": detect_s,
            "shards.topups": topups,
            "shards.pool_mb": pool_mb,
            "router.failovers": failovers,
            "obs.plane_overhead": plane_p50 / plain_p50 if plain_p50 else 0.0,
        }
    )
    tally.check(failovers == 0, f"{failovers} failovers in a fault-free run")
    return metrics
