"""Span-based tracer: nested, exception-safe, process-portable.

A *span* is one named, timed phase of work::

    from repro.obs import trace

    with trace.span("imc/select", k=k) as span:
        seeds = run_selection()
        span.set(num_seeds=len(seeds))

Spans nest: each thread keeps a stack of open spans, and a span opened
while another is active records it as its parent, so the finished
records form a tree (``parent_id`` links). Durations come from
``time.perf_counter()`` (monotonic); a wall-clock stamp is kept per
span purely for human correlation. Span IDs embed the process id plus a
process-global counter, so IDs minted concurrently in several threads —
or in parallel-sampling worker *processes* — never collide and worker
spans can be shipped back to the master and :meth:`Tracer.ingest`-ed
into its trace.

When instrumentation is disabled (the default), :meth:`Tracer.span`
returns a shared no-op span: no allocation beyond the kwargs dict, no
locking, no recording — cheap enough to leave in hot paths.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
import uuid
from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, List, NamedTuple, Optional

from repro.obs import _gate

#: HTTP header carrying the trace id across the router -> replica hop.
TRACE_HEADER = "X-Repro-Trace-Id"

#: HTTP header carrying the sender's open span id, which becomes the
#: parent of the receiver's root span.
PARENT_HEADER = "X-Repro-Parent-Span"

#: Every span name the codebase may emit, with a one-line meaning.
#: ``scripts/check_catalogues.py`` lints literal-name span call sites
#: against this catalogue (both directions), and
#: ``tests/test_docs_consistency.py`` checks each name is documented.
SPAN_CATALOG: Dict[str, str] = {
    "ric/sample_many": "draw a batch of RIC samples (serial or fan-out)",
    "ric/worker_batch": "one parallel-sampling worker's slice of a batch",
    "imc/select": "IMC seed selection (solver dispatch)",
    "imc/evaluate": "IMC objective evaluation of a fixed seed set",
    "imc/estimate": "sample-average objective estimate",
    "ubg/nu_arm": "UBG nu-greedy arm (node-greedy candidate)",
    "ubg/c_arm": "UBG c-greedy arm (community-greedy candidate)",
    "greedyc/select": "community-greedy baseline selection",
    "maf/s1_communities": "MAF stage 1: community budget allocation",
    "maf/s2_nodes": "MAF stage 2: in-community node selection",
    "bt/select": "BT (benefit-threshold) baseline selection",
    "mb/maf_arm": "MB arm running MAF",
    "mb/bt_arm": "MB arm running BT",
    "experiment/run_algorithm": "one algorithm run inside an experiment",
    "experiment/evaluate": "common-pool evaluation of one algorithm's seeds",
    "campaign/cell": "one (dataset, scale, algorithm) campaign cell",
    "checkpoint/record": "campaign checkpoint write",
    "router/solve": "router-side request span (one client /solve)",
    "router/forward": "one forward attempt to a replica (failover = siblings)",
    "serving/request": "replica-side request span (adopted trace context)",
    "serving/compute": "batch leader's shard solve (warm + solve + cache)",
    "serving/resolve": "follower re-solve after an unsatisfying coalesced width",
    "serving/topup": "shard pool top-up merge rounds toward a CI-width target",
}

#: Process-global span-id counter (``itertools.count`` increments
#: atomically under the GIL, so no lock is needed).
_SPAN_IDS = itertools.count(1)

_STACKS = threading.local()


class TraceContext(NamedTuple):
    """Cross-process trace context adopted by a thread.

    ``trace_id`` groups every span of one client request across the
    router and replica processes; ``parent_span_id`` is the sender's
    open span, which re-parents the receiver's root spans.
    """

    trace_id: str
    parent_span_id: Optional[str]


def new_trace_id() -> str:
    """Mint a fleet-unique trace id (32 hex chars)."""
    return uuid.uuid4().hex


def _context() -> Optional[TraceContext]:
    return getattr(_STACKS, "context", None)


def _stack() -> List[str]:
    """This thread's stack of open span ids."""
    stack = getattr(_STACKS, "stack", None)
    if stack is None:
        stack = []
        _STACKS.stack = stack
    return stack


def _new_span_id() -> str:
    """A span id unique across threads *and* processes.

    Format ``"<pid-hex>.<counter-hex>"`` — the pid component is what
    keeps ids from parallel-sampling workers distinct from the
    master's, so shipped-back spans can be merged without collisions.
    """
    return f"{os.getpid():x}.{next(_SPAN_IDS):x}"


class Span:
    """One live span; use as a context manager (``with trace.span(...)``).

    On exit the span appends a finished-span record (a plain dict, JSON
    serialisable) to its tracer. Exceptions propagate unchanged — the
    record's ``status`` becomes ``"error"`` and ``error`` holds the
    exception's type and message, so a trace of a failed run shows
    exactly which phase died.
    """

    __slots__ = ("name", "attrs", "span_id", "parent_id", "_tracer",
                 "_t0", "_wall")

    def __init__(self, tracer: "Tracer", name: str,
                 attrs: Dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs
        self.span_id = _new_span_id()
        self.parent_id: Optional[str] = None
        self._tracer = tracer
        self._t0 = 0.0
        self._wall = 0.0

    def set(self, **attrs: Any) -> "Span":
        """Merge extra attributes into the span (chainable)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        stack = _stack()
        if stack:
            self.parent_id = stack[-1]
        else:
            # A thread-root span re-parents under an adopted remote
            # context, so replica spans hang off the router's forward
            # span exactly like ingested worker spans hang off the
            # dispatch span.
            context = _context()
            self.parent_id = context.parent_span_id if context else None
        stack.append(self.span_id)
        self._wall = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self._t0
        stack = _stack()
        # Exception-safe unwind: pop our own id even if inner spans
        # leaked (they cannot via the context-manager protocol, but a
        # defensive pop keeps one bug from corrupting the whole stack).
        while stack and stack[-1] != self.span_id:
            stack.pop()
        if stack:
            stack.pop()
        record: Dict[str, Any] = {
            "type": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "pid": os.getpid(),
            "thread": threading.get_ident(),
            "wall_start": self._wall,
            "duration_seconds": duration,
            "status": "ok" if exc_type is None else "error",
            "attrs": self.attrs,
        }
        context = _context()
        if context is not None:
            record["trace_id"] = context.trace_id
        if exc_type is not None:
            record["error"] = f"{exc_type.__name__}: {exc}"
        self._tracer._record(record)
        return False  # never swallow exceptions


class _NoopSpan:
    """Shared do-nothing span returned while instrumentation is off."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NoopSpan":
        """Ignore attributes (chainable, like :meth:`Span.set`)."""
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Collects finished-span records; the module exposes one instance
    as :data:`repro.obs.trace`.

    Records accumulate in memory (thread-safe) and, when a sink is
    attached by the session layer, stream to a JSONL file as each span
    closes — so a crashed run still leaves a readable trace prefix.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: List[Dict[str, Any]] = []
        self._sink = None  # duck-typed: needs .write(record)

    # -- recording -----------------------------------------------------

    def span(self, name: str, **attrs: Any):
        """Open a span named ``name`` with initial attributes ``attrs``.

        Returns the shared no-op span when instrumentation is disabled;
        use as ``with trace.span("ric/sample_many", samples=n):``.
        """
        if not _gate.active:
            return NOOP_SPAN
        return Span(self, name, attrs)

    def current_span_id(self) -> Optional[str]:
        """Id of this thread's innermost open span (``None`` outside)."""
        stack = _stack()
        return stack[-1] if stack else None

    # -- cross-process trace context -----------------------------------

    @contextmanager
    def context(self, trace_id: Optional[str],
                parent_span_id: Optional[str] = None) -> Iterator[None]:
        """Adopt a cross-process trace context on this thread.

        While active, every finished span records ``trace_id`` and
        thread-root spans parent under ``parent_span_id`` — the HTTP
        analogue of :meth:`ingest`'s re-parenting. Contexts nest
        (restored on exit) and ``trace_id=None`` is a no-op, so call
        sites can pass an optional inbound header straight through.
        Adoption itself is not gated: it only changes what spans record,
        and spans are already no-ops while instrumentation is off.
        """
        if trace_id is None:
            yield
            return
        previous = _context()
        _STACKS.context = TraceContext(trace_id, parent_span_id)
        try:
            yield
        finally:
            _STACKS.context = previous

    def current_context(self) -> Optional[TraceContext]:
        """This thread's adopted trace context, if any."""
        return _context()

    def propagation_headers(self) -> Dict[str, str]:
        """Headers to attach to an outbound hop from this thread.

        Carries the adopted trace id plus the innermost open span id as
        the remote parent. Empty when no context is adopted.
        """
        context = _context()
        if context is None:
            return {}
        headers = {TRACE_HEADER: context.trace_id}
        span_id = self.current_span_id()
        if span_id is None:
            span_id = context.parent_span_id
        if span_id is not None:
            headers[PARENT_HEADER] = span_id
        return headers

    def _record(self, record: Dict[str, Any]) -> None:
        with self._lock:
            self._records.append(record)
            if self._sink is not None:
                self._sink.write(record)

    def ingest(self, records: Iterable[Dict[str, Any]],
               parent_id: Optional[str] = None) -> None:
        """Merge finished-span records produced elsewhere (e.g. shipped
        back from a parallel-sampling worker with its batch results).

        Root records (``parent_id is None``) are re-parented under
        ``parent_id`` — defaulting to the ingesting thread's current
        open span — so worker spans hang off the dispatch span that
        shipped their batch. No-op while instrumentation is disabled.
        """
        if not _gate.active:
            return
        if parent_id is None:
            parent_id = self.current_span_id()
        context = _context()
        for record in records:
            if record.get("parent_id") is None and parent_id is not None:
                record = dict(record)
                record["parent_id"] = parent_id
            if context is not None and "trace_id" not in record:
                record = dict(record)
                record["trace_id"] = context.trace_id
            self._record(record)

    # -- capture (worker-side) -----------------------------------------

    @contextmanager
    def capture(self) -> Iterator[List[Dict[str, Any]]]:
        """Record spans into a private buffer, regardless of the global
        enabled flag, and yield that buffer.

        Used inside parallel-sampling worker processes: the worker has
        no session of its own, so it captures its batch spans locally
        and returns them with the batch for the master to
        :meth:`ingest`. Restores the previous recording state on exit.
        """
        with self._lock:
            previous_records, self._records = self._records, []
            previous_sink, self._sink = self._sink, None
        previous_active = _gate.active
        _gate.active = True
        try:
            yield self._records
        finally:
            _gate.active = previous_active
            with self._lock:
                self._records = previous_records
                self._sink = previous_sink

    # -- inspection / lifecycle ----------------------------------------

    def snapshot(self) -> List[Dict[str, Any]]:
        """Copy of all finished-span records collected so far."""
        with self._lock:
            return list(self._records)

    def reset(self) -> None:
        """Drop all collected records (sinks are left attached)."""
        with self._lock:
            self._records.clear()

    def attach_sink(self, sink) -> None:
        """Stream every subsequently finished span to ``sink.write``."""
        with self._lock:
            self._sink = sink

    def detach_sink(self) -> None:
        """Stop streaming spans to the attached sink, if any."""
        with self._lock:
            self._sink = None


def phase_timings(
    records: Iterable[Dict[str, Any]],
) -> Dict[str, Dict[str, Any]]:
    """Aggregate finished-span records into per-name phase timings.

    Returns ``{span_name: {count, total_seconds, min_seconds,
    max_seconds, errors}}`` — the summary embedded in run manifests and
    printed by ``python -m repro report``.
    """
    phases: Dict[str, Dict[str, Any]] = {}
    for record in records:
        if record.get("type") != "span":
            continue
        name = record["name"]
        duration = float(record.get("duration_seconds", 0.0))
        entry = phases.get(name)
        if entry is None:
            entry = phases[name] = {
                "count": 0,
                "total_seconds": 0.0,
                "min_seconds": duration,
                "max_seconds": duration,
                "errors": 0,
            }
        entry["count"] += 1
        entry["total_seconds"] += duration
        entry["min_seconds"] = min(entry["min_seconds"], duration)
        entry["max_seconds"] = max(entry["max_seconds"], duration)
        if record.get("status") == "error":
            entry["errors"] += 1
    return phases


#: The process-wide tracer instance every instrumented module imports.
trace = Tracer()
