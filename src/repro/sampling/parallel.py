"""Process-pool RIC sampling engine with self-healing workers.

Serial RIC generation (:class:`~repro.sampling.ric.RICSampler`) runs one
reverse BFS at a time on a single core, and it dominates the wall-clock
of every solver in this package — IMCAF's exponential-doubling loop is
essentially a sample-generation loop. This module fans batches of
samples out to ``N`` worker processes while preserving *exact*
determinism:

1. The master draws one child-stream seed per sample from its RNG (via
   :meth:`RICSampler.next_sample_seed`), in sample order — the same
   master-stream consumption as serial generation.
2. Child seeds are split into contiguous batches and shipped to workers;
   each worker holds a fork/pickle copy of the (graph, communities)
   instance and materialises each sample purely from its child seed.
3. Workers return *compact tuples* (ints and tuples, not pickled
   ``frozenset``-of-``frozenset`` objects) which the master expands back
   into :class:`RICSample` objects in sample order.

Because a RIC sample is a pure function of ``(instance, child seed)``
and child seeds are drawn identically in both modes,
``ParallelRICSampler(seed=s, workers=n).sample_many(c)`` equals
``RICSampler(seed=s).sample_many(c)`` element-for-element, for every
worker count ``n`` and batch size.

**Fault tolerance.** Worker processes die in production — OOM kills,
segfaults in native extensions, operator mistakes. ``sample_many``
treats that as routine: a crashed pool (``BrokenProcessPool``), a
worker-raised exception, or a batch exceeding ``batch_timeout`` marks
only the *failed* batches for re-dispatch; completed batches are kept,
the executor is rebuilt when broken, and the retry schedule follows a
:class:`~repro.utils.retry.RetryPolicy` (bounded attempts, seeded
backoff jitter). Re-dispatched batches carry the *same* pre-drawn child
seeds, so a run that survived a crash is byte-identical to a crash-free
(or serial) run — determinism is never traded for recovery. When the
same work keeps failing for every allowed attempt the sampler raises
:class:`~repro.errors.WorkerCrashError` with the attempt count.

The engine records a sampling profile (samples/sec, batch sizes, worker
utilisation, plus ``retries`` / ``worker_restarts`` /
``failed_batches``) after each ``sample_many`` call, surfaced by
``solve_imc``'s ``progress`` hook. Deterministic failure testing hooks
in via :class:`~repro.utils.faults.FaultInjector` (see
``fault_injector=``), which ships into workers and can raise, delay or
hard-kill at planned batch coordinates.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import CancelledError, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.communities.structure import CommunityStructure
from repro.errors import SamplingError, WorkerCrashError
from repro.graph.csr import FrozenDiGraph
from repro.graph.digraph import DiGraph
from repro.obs import metrics, trace
from repro.obs.session import enabled as _obs_enabled
from repro.rng import SeedLike
from repro.sampling.profile import make_profile
from repro.sampling.ric import RICSample, RICSampler
from repro.utils.faults import FaultInjector
from repro.utils.retry import RetryPolicy

#: Compact wire format for one sample:
#: ``(community_index, threshold, members, reach_sets_as_sorted_tuples)``.
CompactSample = Tuple[int, int, Tuple[int, ...], Tuple[Tuple[int, ...], ...]]

#: One unit of worker work: ``(start_index, child_seeds, attempt)``.
BatchTask = Tuple[int, Sequence[int], int]

#: Default retry schedule for worker recovery: three total attempts
#: with fast, deterministically-jittered backoff.
DEFAULT_RETRY = RetryPolicy(max_attempts=3, base_delay=0.05, max_delay=1.0)


def compact_sample(sample: RICSample) -> CompactSample:
    """Flatten a :class:`RICSample` into the compact tuple wire format.

    Reach sets are sorted so the encoding is canonical: two equal
    samples always serialise to identical bytes.
    """
    return (
        sample.community_index,
        sample.threshold,
        sample.members,
        tuple(tuple(sorted(reach)) for reach in sample.reach_sets),
    )


def expand_sample(compact: CompactSample) -> RICSample:
    """Rebuild a :class:`RICSample` from its compact tuple encoding."""
    community_index, threshold, members, reach_tuples = compact
    return RICSample(
        community_index=community_index,
        threshold=threshold,
        members=tuple(members),
        reach_sets=tuple(frozenset(reach) for reach in reach_tuples),
    )


# ----------------------------------------------------------------------
# Worker-side state. Each worker process builds one template sampler at
# pool start-up (initializer) and reuses it for every batch; the
# template's own RNG stream is never used — every sample is generated
# from an explicit child seed shipped with the batch. The optional
# fault injector is test/benchmark instrumentation: it fires at the
# "generate_batch" site (per batch) and the "sample" site (per sample),
# both with ``start``/``attempt`` coordinates, so crashes can be
# planned deterministically.
# ----------------------------------------------------------------------

_WORKER_SAMPLER: Optional[RICSampler] = None
_WORKER_INJECTOR: Optional[FaultInjector] = None
_WORKER_CAPTURE: bool = False


def _init_worker(
    graph: FrozenDiGraph,
    communities: CommunityStructure,
    model: str,
    injector: Optional[FaultInjector] = None,
    capture_spans: bool = False,
) -> None:
    """Process-pool initializer: build this worker's template sampler.

    ``capture_spans`` is the master's instrumentation state at pool
    creation: when true, each batch records a ``ric/worker_batch`` span
    locally and ships it back with the batch result for the master to
    :meth:`~repro.obs.tracer.Tracer.ingest`.
    """
    global _WORKER_SAMPLER, _WORKER_INJECTOR, _WORKER_CAPTURE
    _WORKER_SAMPLER = RICSampler(graph, communities, seed=0, model=model)
    _WORKER_INJECTOR = injector
    _WORKER_CAPTURE = capture_spans


def _materialise_batch(
    sampler: RICSampler,
    injector: Optional[FaultInjector],
    seeds: Sequence[int],
    start: int,
    attempt: int,
) -> List[CompactSample]:
    """Materialise one batch's samples from their child seeds."""
    out: List[CompactSample] = []
    for index, seed in enumerate(seeds):
        if injector is not None:
            injector.fire("sample", start=start, attempt=attempt, index=index)
        out.append(compact_sample(sampler.sample_from_seed(seed)))
    return out


def _generate_batch(
    task: BatchTask,
) -> Tuple[int, float, List[CompactSample], List[Dict[str, Any]]]:
    """Generate one batch of samples from child seeds.

    Returns ``(start_index, worker_seconds, compact_samples, spans)`` so
    the master can reassemble results in order, compute utilisation, and
    merge any worker-side spans into its trace (``spans`` is empty when
    the pool was created without instrumentation).
    """
    start, seeds, attempt = task
    sampler = _WORKER_SAMPLER
    injector = _WORKER_INJECTOR
    if sampler is None:  # pragma: no cover - initializer always ran
        raise SamplingError("parallel sampling worker was not initialised")
    if injector is not None:
        injector.fire("generate_batch", start=start, attempt=attempt)
    spans: List[Dict[str, Any]] = []
    began = time.perf_counter()
    if _WORKER_CAPTURE:
        with trace.capture() as buffer:
            with trace.span(
                "ric/worker_batch",
                start=start, samples=len(seeds), attempt=attempt,
            ):
                out = _materialise_batch(sampler, injector, seeds, start, attempt)
            spans = list(buffer)
    else:
        out = _materialise_batch(sampler, injector, seeds, start, attempt)
    return start, time.perf_counter() - began, out, spans


class ParallelRICSampler:
    """Deterministic, self-healing multi-process drop-in for
    :class:`RICSampler`.

    Exposes the same ``graph`` / ``communities`` / ``model`` attributes
    and the same ``sample`` / ``sample_many`` surface, so
    :class:`~repro.sampling.pool.RICSamplePool` and ``solve_imc`` accept
    it unchanged. ``sample_many`` fans out to a lazily created process
    pool; single samples and small batches are generated inline (the
    dispatch overhead would dwarf the work).

    ``workers=None`` uses ``os.cpu_count()``. For any fixed ``seed`` the
    produced sample sequence is identical across *all* worker counts and
    batch sizes, identical to the serial sampler's, and identical
    whether or not workers crashed along the way (failed batches are
    re-dispatched with the same pre-drawn child seeds).

    ``retry`` bounds crash recovery (default :data:`DEFAULT_RETRY`:
    3 attempts); ``batch_timeout`` (seconds) bounds the wait for any
    single batch result before the batch is declared lost and the pool
    rebuilt; ``fault_injector`` ships a deterministic
    :class:`~repro.utils.faults.FaultInjector` into workers for tests
    and benchmarks.

    The instance owns OS processes: call :meth:`close` (or use it as a
    context manager) when done; the executor is also shut down by
    ``__del__`` as a safety net.
    """

    #: Below this many samples a ``sample_many`` call stays inline.
    MIN_DISPATCH = 16

    def __init__(
        self,
        graph: Union[DiGraph, FrozenDiGraph],
        communities: CommunityStructure,
        seed: SeedLike = None,
        model: str = "ic",
        workers: Optional[int] = None,
        batch_size: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        batch_timeout: Optional[float] = None,
        fault_injector: Optional[FaultInjector] = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise SamplingError(f"workers must be >= 1, got {workers}")
        if batch_size is not None and batch_size < 1:
            raise SamplingError(f"batch_size must be >= 1, got {batch_size}")
        if batch_timeout is not None and batch_timeout <= 0:
            raise SamplingError(
                f"batch_timeout must be positive, got {batch_timeout}"
            )
        self._serial = RICSampler(graph, communities, seed=seed, model=model)
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        self.batch_size = batch_size
        self.retry = retry if retry is not None else DEFAULT_RETRY
        self.batch_timeout = batch_timeout
        self.fault_injector = fault_injector
        self._executor: Optional[ProcessPoolExecutor] = None
        self._profile: Optional[Dict[str, Any]] = None

    # -- RICSampler-compatible surface ---------------------------------

    @property
    def graph(self) -> FrozenDiGraph:
        """The sampled CSR snapshot (shared with the serial template)."""
        return self._serial.graph

    @property
    def communities(self) -> CommunityStructure:
        """The community structure defining sources and thresholds."""
        return self._serial.communities

    @property
    def model(self) -> str:
        """Diffusion model the samples realise (``"ic"`` or ``"lt"``)."""
        return self._serial.model

    def sample(self, community_index: Optional[int] = None) -> RICSample:
        """Generate one sample inline (no dispatch for single draws)."""
        return self._serial.sample(community_index)

    def sample_from_seed(
        self, sample_seed: int, community_index: Optional[int] = None
    ) -> RICSample:
        """Materialise the sample determined by ``sample_seed`` inline."""
        return self._serial.sample_from_seed(sample_seed, community_index)

    def next_sample_seed(self) -> int:
        """Advance the master stream and return the next child seed."""
        return self._serial.next_sample_seed()

    def sample_many(self, count: int) -> List[RICSample]:
        """Generate ``count`` samples, fanning out to worker processes.

        Identical output to ``RICSampler(seed).sample_many(count)`` —
        the master pre-draws the child seed of every sample in order,
        then only the (deterministic) materialisation is parallelised.
        Worker crashes, batch timeouts and worker-raised exceptions are
        healed transparently within the ``retry`` budget; exhaustion
        raises :class:`~repro.errors.WorkerCrashError`.
        """
        if count < 0:
            raise SamplingError(f"count must be non-negative, got {count}")
        if count == 0:
            return []
        with trace.span(
            "ric/sample_many", samples=count, workers=self.workers
        ) as span:
            began = time.perf_counter()
            seeds = [self._serial.next_sample_seed() for _ in range(count)]
            if self.workers <= 1 or count < self.MIN_DISPATCH:
                span.set(mode="inline")
                samples = [self._serial.sample_from_seed(s) for s in seeds]
                self._record_profile(
                    count, time.perf_counter() - began, mode="inline",
                    batches=1, batch_size=count, busy=None,
                )
                return samples
            batch = self.batch_size or max(1, -(-count // (self.workers * 4)))
            pending: Dict[int, Sequence[int]] = {
                start: seeds[start:start + batch]
                for start in range(0, count, batch)
            }
            num_batches = len(pending)
            span.set(mode="parallel", batches=num_batches, batch_size=batch)
            completed, health = self._dispatch(pending)
            samples: List[RICSample] = []
            busy = 0.0
            for start in sorted(completed):
                worker_seconds, compacts = completed[start]
                busy += worker_seconds
                samples.extend(expand_sample(c) for c in compacts)
            self._record_profile(
                count, time.perf_counter() - began, mode="parallel",
                batches=num_batches, batch_size=batch, busy=busy, **health,
            )
            return samples

    # -- self-healing dispatch -----------------------------------------

    def _dispatch(
        self, pending: Dict[int, Sequence[int]]
    ) -> Tuple[Dict[int, Tuple[float, List[CompactSample]]], Dict[str, Any]]:
        """Run all batches to completion, healing worker failures.

        Returns ``(completed, health)`` where ``completed`` maps batch
        start index to ``(worker_seconds, compact_samples)`` and
        ``health`` carries the retry/restart counters for the profile.
        Batches that fail (crash, timeout, worker exception) are
        re-dispatched with their original child seeds — byte-identical
        results regardless of how many failures were healed.
        """
        policy = self.retry
        delays = policy.delays()
        completed: Dict[int, Tuple[float, List[CompactSample]]] = {}
        failed_batches: Set[int] = set()
        retries = 0
        restarts = 0
        attempt = 0
        last_error: Optional[BaseException] = None
        while pending:
            if attempt > 0:
                retries += len(pending)
                delay = next(delays, 0.0)
                if delay > 0:
                    policy.sleep(delay)
            executor = self._ensure_executor()
            try:
                futures = {
                    executor.submit(
                        _generate_batch, (start, pending[start], attempt)
                    ): start
                    for start in sorted(pending)
                }
            except RuntimeError as exc:
                # close() ran concurrently and shut the executor down.
                raise SamplingError(
                    "parallel sampler was closed while sampling"
                ) from exc
            broken = False
            for future, start in futures.items():
                if broken:
                    # The pool is gone or a worker is wedged: harvest
                    # batches that did finish, fail the rest fast.
                    if future.done() and not future.cancelled():
                        try:
                            s, secs, out, spans = future.result(timeout=0)
                            completed[s] = (secs, out)
                            pending.pop(s, None)
                            trace.ingest(spans)
                        except BaseException as exc:  # noqa: BLE001
                            last_error = exc
                            failed_batches.add(start)
                    else:
                        future.cancel()
                        failed_batches.add(start)
                    continue
                try:
                    s, secs, out, spans = future.result(
                        timeout=self.batch_timeout
                    )
                    completed[s] = (secs, out)
                    pending.pop(s, None)
                    trace.ingest(spans)
                except (BrokenProcessPool, OSError, FuturesTimeoutError) as exc:
                    # Crashed pool, dead pipe, or a batch overrunning its
                    # timeout (still hogging a worker): the executor can
                    # no longer be trusted — rebuild it.
                    last_error = exc
                    failed_batches.add(start)
                    broken = True
                except CancelledError as exc:
                    raise SamplingError(
                        "parallel sampler was closed while sampling"
                    ) from exc
                except BaseException as exc:  # noqa: BLE001 - filtered
                    if not policy.retryable(exc):
                        raise
                    # Worker-raised exception: the pool itself is fine,
                    # only this batch needs another attempt.
                    last_error = exc
                    failed_batches.add(start)
            if broken:
                self._restart_executor()
                restarts += 1
            attempt += 1
            if pending and attempt >= policy.max_attempts:
                raise WorkerCrashError(
                    f"parallel sampling gave up on batches "
                    f"{sorted(pending)} after {attempt} attempts "
                    f"(last error: {last_error!r})",
                    attempts=attempt,
                )
        health = {
            "retries": retries,
            "worker_restarts": restarts,
            "failed_batches": sorted(failed_batches),
            "attempts": attempt,
        }
        return completed, health

    # -- profile -------------------------------------------------------

    def _record_profile(
        self,
        count: int,
        elapsed: float,
        mode: str,
        batches: int,
        batch_size: int,
        busy: Optional[float],
        retries: int = 0,
        worker_restarts: int = 0,
        failed_batches: Optional[List[int]] = None,
        attempts: int = 1,
    ) -> None:
        utilization = None
        if busy is not None and elapsed > 0:
            utilization = min(1.0, busy / (self.workers * elapsed))
        self._profile = make_profile(
            mode,
            count,
            elapsed,
            workers=self.workers,
            batches=batches,
            batch_size=batch_size,
            worker_utilization=utilization,
            retries=retries,
            worker_restarts=worker_restarts,
            failed_batches=failed_batches,
            attempts=attempts,
        )
        metrics.inc("ric.samples.generated", count)
        if retries:
            metrics.inc("parallel.batches.redispatched", retries)
        if worker_restarts:
            metrics.inc("parallel.worker.restarts", worker_restarts)

    def last_profile(self) -> Optional[Dict[str, Any]]:
        """Profile of the most recent ``sample_many`` call.

        The dict has the unified sampling-profile schema
        (:data:`repro.sampling.profile.PROFILE_KEYS`) — the same key set
        the serial sampler emits. Here ``mode`` is ``"parallel"`` or
        ``"inline"``, ``worker_utilization`` is the fraction of worker
        wall-clock spent generating (``None`` inline), and the
        self-healing counters are live: ``retries`` (batch
        re-dispatches), ``worker_restarts`` (executor rebuilds),
        ``failed_batches`` (start indices that failed at least once) and
        ``attempts`` (dispatch rounds). ``None`` before the first call.
        """
        return self._profile

    # -- lifecycle -----------------------------------------------------

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_worker,
                initargs=(
                    self.graph,
                    self.communities,
                    self.model,
                    self.fault_injector,
                    _obs_enabled(),
                ),
            )
        return self._executor

    def _restart_executor(self) -> None:
        """Tear down a broken pool so the next round starts fresh."""
        executor, self._executor = self._executor, None
        if executor is not None:
            try:
                executor.shutdown(wait=False, cancel_futures=True)
            except Exception:  # pragma: no cover - best-effort teardown
                pass

    def close(self) -> None:
        """Shut the worker pool down (idempotent).

        Queued batches are cancelled (``cancel_futures=True``) so a
        mid-flight ``sample_many`` — e.g. on another thread during
        interpreter shutdown — fails fast with ``SamplingError`` instead
        of blocking exit behind unstarted work.
        """
        if self._executor is not None:
            self._executor.shutdown(cancel_futures=True)
            self._executor = None

    def __enter__(self) -> "ParallelRICSampler":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass
