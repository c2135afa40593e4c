"""HTTP front end: the always-on shard server.

Stdlib only — ``http.server.ThreadingHTTPServer`` with one handler
thread per connection. The request logic lives in :class:`ShardApp`
(plain methods over dicts) so tests can drive it without sockets; the
handler is a thin JSON adapter.

Endpoints:

- ``GET /healthz`` — liveness probe (``{"status": "ok"}``).
- ``GET /status`` — scenarios, per-shard state, hit/miss/eviction and
  request counters, uptime; when the server was started inside an
  instrumentation session with a trace sink, the tail of its *own*
  live trace file (read back torn-tail-safely via
  :func:`~repro.obs.sinks.read_jsonl`).
- ``GET /metrics`` — Prometheus text exposition of the process
  registry (empty outside an instrumentation session).
- ``GET /metrics.json`` — the raw registry snapshot; the form the
  router's fleet aggregator scrapes and merges.
- ``POST /solve`` — body ``{"scenario", "budget", "solver"?,
  "ci_width"?}``; concurrent identical requests are batched onto one
  solve. Deterministic fields (``seeds``, ``objective``,
  ``num_samples``) are a function of the scenario spec, the query and
  the pool size ``num_samples``, which ``ci_width`` top-ups may grow.
  Adopts the inbound ``X-Repro-Trace-Id``/``X-Repro-Parent-Span``
  trace context (minting a trace id when absent) and answers with the
  trace id plus a ``Server-Timing`` per-phase breakdown — headers
  only, never the body, preserving byte-identity.
- ``POST /shutdown`` — graceful stop: responds, then stops accepting
  connections and closes every shard.

Error mapping: a :class:`~repro.errors.ServingError` on an unknown
scenario is ``404`` and any other ``ServingError`` (a bad request) is
``400``; server-side faults — :class:`~repro.errors.SamplingError`
(including :class:`~repro.errors.WorkerCrashError`) and
:class:`~repro.errors.DeadlineExceededError` — are ``503``, so the
cluster router fails over to the next replica instead of passing the
fault to the client; any other :class:`~repro.errors.ReproError` is
``400``; unexpected exceptions are ``500`` — a request is answered in
all cases, never dropped. Malformed framing is rejected *before* the
body is read: a missing ``Content-Length`` is ``411``, a declared
length above :data:`MAX_BODY_BYTES` is ``413`` — so a malicious or
broken client can neither hang a handler thread on an unbounded read
nor balloon a replica's memory with one giant body.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Optional, Tuple

from repro.errors import (
    DeadlineExceededError,
    ReproError,
    SamplingError,
    ServingError,
)
from repro.obs import metrics, trace
from repro.obs.metrics import to_prometheus_text
from repro.obs.sinks import read_jsonl
from repro.obs.tracer import PARENT_HEADER, TRACE_HEADER, new_trace_id
from repro.serving.batching import RequestBatcher
from repro.serving.shards import ShardStore

#: Hard cap on request-body size. Solve payloads are a few hundred
#: bytes; anything past this is a broken or hostile client and is
#: rejected with ``413`` before a single body byte is read.
MAX_BODY_BYTES = 1 << 20


class RequestRejected(Exception):
    """An HTTP request refused before dispatch, with a specific status.

    Raised by :func:`read_json_body` for framing-level problems (missing
    ``Content-Length`` → 411, oversized body → 413, malformed length or
    JSON → 400). Handlers map it straight to a response; it never
    escapes the HTTP layer.
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def read_json_body(headers, rfile, max_bytes: int = MAX_BODY_BYTES) -> Dict:
    """Read and parse one JSON request body, defensively.

    Validates the ``Content-Length`` header *before* touching the
    stream: missing → :class:`RequestRejected` 411 (Length Required),
    non-integer or negative → 400, above ``max_bytes`` → 413 (Payload
    Too Large). Only then reads exactly the declared bytes and parses
    them as JSON (bad encoding/JSON → 400). Shared by the shard-server
    and router handlers so both front doors reject malformed framing
    identically.
    """
    declared = headers.get("Content-Length")
    if declared is None:
        raise RequestRejected(
            411, "Content-Length header is required for this request"
        )
    try:
        length = int(declared)
    except (TypeError, ValueError):
        raise RequestRejected(
            400, f"Content-Length is not an integer: {declared!r}"
        )
    if length < 0:
        raise RequestRejected(
            400, f"Content-Length cannot be negative: {length}"
        )
    if length > max_bytes:
        raise RequestRejected(
            413,
            f"request body of {length} bytes exceeds the "
            f"{max_bytes}-byte limit",
        )
    raw = rfile.read(length) if length else b""
    if not raw:
        raise RequestRejected(400, "request needs a JSON body")
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise RequestRejected(400, f"request body is not valid JSON: {exc}")


class ShardApp:
    """Transport-independent request logic over a :class:`ShardStore`."""

    def __init__(
        self,
        store: ShardStore,
        *,
        default_solver: str = "UBG",
        trace_path: Optional[str] = None,
    ) -> None:
        self.store = store
        self.default_solver = default_solver
        #: Live trace sink to read back for ``/status`` (optional).
        self.trace_path = trace_path
        self.batcher = RequestBatcher()
        self.started = time.monotonic()
        self._req_lock = threading.Lock()
        self.requests = {"total": 0, "batched": 0, "failed": 0}

    # -- request counting ----------------------------------------------

    def _count(self, field: str) -> None:
        with self._req_lock:
            self.requests[field] += 1

    # -- endpoints ------------------------------------------------------

    def healthz(self) -> Dict[str, str]:
        """Liveness payload."""
        return {"status": "ok"}

    def status(self) -> Dict[str, object]:
        """Full server snapshot (shards, counters, live trace tail)."""
        payload = self.store.status()
        with self._req_lock:
            payload["requests"] = dict(self.requests)
        payload["in_flight"] = self.batcher.in_flight()
        payload["uptime_seconds"] = time.monotonic() - self.started
        if self.trace_path:
            try:
                spans = read_jsonl(self.trace_path)
            except OSError:
                spans = []
            payload["trace_tail"] = spans[-5:]
        return payload

    def prometheus(self) -> str:
        """Prometheus text exposition of the metrics registry."""
        return to_prometheus_text(metrics.snapshot())

    def metrics_json(self) -> Dict:
        """Raw registry snapshot (``GET /metrics.json``) — the form the
        router's fleet aggregator scrapes and merges."""
        return metrics.snapshot()

    def handle_solve(
        self, payload: Dict, inbound_headers=None
    ) -> Tuple[Dict, Dict[str, str]]:
        """HTTP-facing solve: adopt trace context, answer with headers.

        Returns ``(response, headers)``. The inbound
        ``X-Repro-Trace-Id`` / ``X-Repro-Parent-Span`` headers (minted
        locally when absent, so a standalone replica's answers stay
        traceable) become the adopted context for every span the solve
        opens, and the response headers echo the trace id plus a
        ``Server-Timing`` per-phase breakdown. Both ride as *headers*
        so the JSON body — and its byte-identity contract — is
        untouched by observability.
        """
        inbound = inbound_headers or {}
        trace_id = inbound.get(TRACE_HEADER) or None
        parent_span = inbound.get(PARENT_HEADER) or None
        if trace_id is None:
            trace_id = new_trace_id()
            parent_span = None
        else:
            metrics.inc("serving.trace.adopted")
        timings: Dict[str, float] = {}
        response = self.solve(
            payload,
            trace_id=trace_id,
            parent_span=parent_span,
            timings=timings,
        )
        headers = {TRACE_HEADER: trace_id}
        if timings:
            headers["Server-Timing"] = ", ".join(
                f"{name};dur={seconds * 1e3:.3f}"
                for name, seconds in timings.items()
            )
        return response, headers

    def solve(
        self,
        payload: Dict,
        *,
        trace_id: Optional[str] = None,
        parent_span: Optional[str] = None,
        timings: Optional[Dict[str, float]] = None,
    ) -> Dict:
        """Answer one ``/solve`` request, batching concurrent twins.

        Concurrent requests coalesce on ``(scenario, budget, solver,
        has_ci_width)`` — so requests for *different* ``ci_width``
        targets on the same shard share one pool top-up, driven by the
        tightest width registered on the flight (plain queries never
        coalesce with ``ci_width`` ones, keeping their ``num_samples``
        a pure function of the spec). A follower whose own width the
        shared solve did not reach re-solves directly — the pool was
        already grown, so that re-solve is one cheap extra round at
        most — and every follower is answered at its own precision.

        ``trace_id``/``parent_span`` adopt a cross-process trace
        context for the duration (see :meth:`handle_solve`); ``timings``
        — when a dict is passed — receives per-phase wall durations
        (``parse``, ``batch``, ``resolve`` when taken, ``total``).
        """
        began = time.perf_counter()
        t = timings if timings is not None else {}
        with trace.context(trace_id, parent_span):
            with trace.span("serving/request") as root:
                try:
                    mark = time.perf_counter()
                    scenario, k, solver, ci_width = self._parse_solve(
                        payload
                    )
                    t["parse"] = time.perf_counter() - mark
                    root.set(scenario=scenario, budget=k, solver=solver)
                    group = (scenario, k, solver, ci_width is not None)
                    mark = time.perf_counter()
                    result, leader = self.batcher.run(
                        group,
                        lambda: self._compute(
                            scenario,
                            k,
                            solver,
                            ci_width,
                            width_provider=lambda: (
                                self.batcher.tightest_width(group)
                            ),
                        ),
                        width=ci_width,
                    )
                    t["batch"] = time.perf_counter() - mark
                    if not leader and not self._width_satisfied(
                        result, ci_width
                    ):
                        mark = time.perf_counter()
                        with trace.span(
                            "serving/resolve", scenario=scenario
                        ):
                            result = self._compute(
                                scenario, k, solver, ci_width
                            )
                        t["resolve"] = time.perf_counter() - mark
                except BaseException:
                    self._count("failed")
                    metrics.inc("serving.requests.failed")
                    raise
                finally:
                    self._count("total")
                    metrics.inc("serving.requests.total")
                    elapsed = time.perf_counter() - began
                    t["total"] = elapsed
                    metrics.observe("serving.request.seconds", elapsed)
        if not leader:
            self._count("batched")
            metrics.inc("serving.requests.batched")
            if ci_width is not None:
                metrics.inc("serving.requests.width_coalesced")
        response = dict(result)
        response["batched"] = not leader
        return response

    @staticmethod
    def _width_satisfied(result: Dict, ci_width: Optional[float]) -> bool:
        """Whether a shared flight's answer meets this request's width.

        ``True`` for plain queries, for answers whose relative CI width
        reached the target, and for pools already grown to the adaptive
        ceiling (where a direct solve could do no better either).
        """
        if ci_width is None:
            return True
        relative = result.get("ci_relative_width")
        if relative is not None and relative <= ci_width:
            return True
        return bool(result.get("pool_capped"))

    def _parse_solve(
        self, payload: Dict
    ) -> Tuple[str, int, str, Optional[float]]:
        if not isinstance(payload, dict):
            raise ServingError("solve payload must be a JSON object")
        scenario = payload.get("scenario")
        if not isinstance(scenario, str) or not scenario:
            raise ServingError("solve payload needs a 'scenario' string")
        budget = payload.get("budget")
        if not isinstance(budget, int) or isinstance(budget, bool):
            raise ServingError(
                f"solve payload needs an integer 'budget', got "
                f"{budget!r}"
            )
        solver = payload.get("solver", self.default_solver)
        if not isinstance(solver, str):
            raise ServingError(f"'solver' must be a string, got {solver!r}")
        ci_width = payload.get("ci_width")
        if ci_width is not None:
            if not isinstance(ci_width, (int, float)) or ci_width <= 0:
                raise ServingError(
                    f"'ci_width' must be a positive number, got "
                    f"{ci_width!r}"
                )
            ci_width = float(ci_width)
        return scenario, budget, solver, ci_width

    def _compute(
        self,
        scenario: str,
        k: int,
        solver: str,
        ci_width: Optional[float],
        width_provider: Optional[Callable[[], Optional[float]]] = None,
    ) -> Dict:
        with trace.span("serving/compute", scenario=scenario, solver=solver):
            shard = self.store.get(scenario)
            with shard.lock:
                shard.touch()
                shard.warm()
                response, cache_hit = shard.solve(
                    k,
                    solver_name=solver,
                    ci_width=ci_width,
                    width_provider=width_provider,
                )
            # Evict *after* releasing the shard lock; the just-used shard
            # is protected so a tight budget cannot thrash it.
            self.store.evict_to_budget(protect=scenario)
        response = dict(response)
        response["cache_hit"] = cache_hit
        return response

    def close(self) -> None:
        """Shut the underlying store down."""
        self.store.close()


class GracefulHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server with in-flight tracking and graceful drain.

    Base for the shard-server and router front doors. :meth:`drain`
    implements the SIGTERM protocol both use: stop accepting new
    connections, let every in-flight handler finish (bounded by a
    timeout), then close the listening socket — so a rolling restart
    never cuts a request mid-solve.
    """

    daemon_threads = True
    allow_reuse_address = True
    #: Listen backlog. The stdlib default (5) resets connections under
    #: a burst of hundreds of simultaneous clients before accept() can
    #: drain them; the load floor needs the kernel to queue the burst.
    request_queue_size = 1024

    def __init__(self, address: Tuple[str, int], handler_class) -> None:
        super().__init__(address, handler_class)
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._idle = threading.Event()
        self._idle.set()
        self._socket_closed = False

    def finish_request(self, request, client_address) -> None:
        """Dispatch one connection, counted against the drain barrier."""
        with self._inflight_lock:
            self._inflight += 1
            self._idle.clear()
        try:
            super().finish_request(request, client_address)
        finally:
            with self._inflight_lock:
                self._inflight -= 1
                if self._inflight == 0:
                    self._idle.set()

    def in_flight(self) -> int:
        """Connections currently being handled."""
        with self._inflight_lock:
            return self._inflight

    def server_close(self) -> None:
        """Close the listening socket (idempotent — drain also closes)."""
        if self._socket_closed:
            return
        self._socket_closed = True
        super().server_close()

    def drain(self, timeout: float = 10.0) -> bool:
        """Graceful stop: stop accepting, finish in-flight, then close.

        Blocks until ``serve_forever`` has exited and every in-flight
        handler completed (or ``timeout`` seconds passed). Returns
        whether the drain was clean — ``False`` means handlers were
        still running when the timeout expired; their daemon threads
        die with the process.
        """
        self.shutdown()
        drained = self._idle.wait(timeout)
        self.server_close()
        return drained


class ShardHTTPServer(GracefulHTTPServer):
    """Threaded HTTP server bound to a :class:`ShardApp`."""

    def __init__(self, address: Tuple[str, int], app: ShardApp) -> None:
        super().__init__(address, _Handler)
        self.app = app


class _Handler(BaseHTTPRequestHandler):
    """JSON adapter between HTTP and :class:`ShardApp`."""

    server_version = "repro-imc-serve/1.0"
    protocol_version = "HTTP/1.1"
    #: Socket timeout while reading a request, so a client that stalls
    #: mid-headers or sends fewer body bytes than it declared cannot
    #: pin a handler thread forever.
    timeout = 60

    def log_message(self, *args) -> None:  # noqa: D102 - silence stderr
        pass

    @property
    def app(self) -> ShardApp:
        return self.server.app  # type: ignore[attr-defined]

    def _send(
        self,
        code: int,
        body: bytes,
        content_type: str,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, code: int, payload: Dict) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._send(code, body, "application/json")

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        try:
            if self.path == "/healthz":
                self._send_json(200, self.app.healthz())
            elif self.path == "/status":
                self._send_json(200, self.app.status())
            elif self.path == "/metrics":
                self._send(
                    200,
                    self.app.prometheus().encode("utf-8"),
                    "text/plain; version=0.0.4",
                )
            elif self.path == "/metrics.json":
                self._send_json(200, self.app.metrics_json())
            else:
                self._send_json(404, {"error": f"no such path {self.path}"})
        except Exception as exc:  # noqa: BLE001 - answer, never drop
            self._send_json(500, {"error": str(exc)})

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        try:
            if self.path == "/solve":
                response, headers = self.app.handle_solve(
                    self._read_body(), self.headers
                )
                body = json.dumps(response, sort_keys=True).encode("utf-8")
                self._send(200, body, "application/json", headers)
            elif self.path == "/shutdown":
                self._send_json(200, {"status": "shutting down"})
                threading.Thread(
                    target=self.server.shutdown, daemon=True
                ).start()
            else:
                self._send_json(404, {"error": f"no such path {self.path}"})
        except RequestRejected as exc:
            # Framing was rejected before the body was (fully) read, so
            # the connection may hold unread bytes — close it rather
            # than desynchronise the next keep-alive request.
            self.close_connection = True
            self._send_json(exc.status, {"error": exc.message})
        except ServingError as exc:
            code = 404 if "unknown scenario" in str(exc) else 400
            self._send_json(code, {"error": str(exc)})
        except (SamplingError, DeadlineExceededError) as exc:
            # The replica's fault, not the client's: 503 makes the
            # router fail over rather than return the error as-is.
            self._send_json(503, {"error": str(exc)})
        except ReproError as exc:
            self._send_json(400, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 - answer, never drop
            self._send_json(500, {"error": str(exc)})

    def _read_body(self) -> Dict:
        return read_json_body(self.headers, self.rfile)


def start_http_server(
    app: ShardApp, host: str = "127.0.0.1", port: int = 0
) -> ShardHTTPServer:
    """Start serving ``app`` on a daemon thread; returns the server.

    ``port=0`` binds an ephemeral port — read the actual one from
    ``server.server_address[1]``. The caller owns shutdown:
    ``server.shutdown(); server.server_close(); app.close()``.
    """
    server = ShardHTTPServer((host, port), app)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-serve", daemon=True
    )
    thread.start()
    server._serve_thread = thread  # type: ignore[attr-defined]
    return server


def run_server(app: ShardApp, host: str, port: int) -> int:
    """Serve ``app`` until ``/shutdown`` or Ctrl-C; returns exit code."""
    server = ShardHTTPServer((host, port), app)
    bound = server.server_address
    print(f"serving on http://{bound[0]}:{bound[1]} "
          f"(scenarios: {', '.join(app.store.scenario_names())})")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        app.close()
    return 0
