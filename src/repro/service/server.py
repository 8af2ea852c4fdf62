"""Kremlin-as-a-service: the asyncio session server.

``KremlinServer`` is a stdlib-only (``asyncio`` streams) front end over
the pipeline: concurrent connections send the versioned request
envelopes of :mod:`repro.service.protocol` carrying the typed payloads
of :mod:`repro.api_types`, and the server answers with typed results —
``compile``, ``check``, ``profile-submit``, ``plan``, and
``query-summary``, plus a ``ping`` liveness probe.

Architecture::

    asyncio event loop (connection handling, envelope codec)
        │  run_in_executor
        ▼
    ThreadPoolExecutor workers — one KremlinSession per worker thread
        │                        (bounded LRU compile cache: code objects)
        ├── shared LRU result cache (compile/check payloads, source-hash keyed)
        └── sharded ProfileStore (append logs + canonical-merge compaction)

The event loop never runs pipeline work: CPU-bound handlers execute on
the worker pool, each thread reusing its own :class:`KremlinSession`
so repeat compiles of hot sources hit the session's code-object cache.
Requests on one connection are answered in order; concurrency comes
from many connections (the load harness drives 32+ at once).

Every request is observed: per-endpoint request counters and latency
histograms in the server's :class:`MetricsRegistry`, and one
``service.request`` span per call in its tracer (a :class:`NullTracer`
by default — a real tracer would grow without bound on a long-running
server; inject one to trace a bounded window).
"""

from __future__ import annotations

import asyncio
import dataclasses
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.api import KremlinSession
from repro.api_types import (
    ApiPayloadError,
    CheckRequest,
    CompileRequest,
    PlanRequest,
    PlanResponse,
    ProfileAck,
    ProfileSubmit,
    ProgramSummary,
    SchemaVersionError,
    SummaryRequest,
    SummaryResponse,
    plan_entries,
    request_type,
    source_digest,
)
from repro.frontend.errors import MiniCError
from repro.hcpa.aggregate import aggregate_profile
from repro.hcpa.serialize import ProfileFormatError, ProfileVersionError
from repro.interp.errors import InterpreterError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.planner.registry import available_personalities, create_planner
from repro.lru import LRUCache
from repro.service.protocol import (
    MAX_REQUEST_BYTES,
    ProtocolError,
    decode_request,
    encode_error,
    encode_response,
)
from repro.service.store import ProfileStore

DEFAULT_WORKERS = 4
DEFAULT_CACHE_CAPACITY = 128


class KremlinServer:
    """One serving process: store + caches + sessions behind a socket."""

    def __init__(
        self,
        store: ProfileStore | str,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = DEFAULT_WORKERS,
        cache_capacity: int = DEFAULT_CACHE_CAPACITY,
        max_request_bytes: int = MAX_REQUEST_BYTES,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ):
        self.store = (
            store if isinstance(store, ProfileStore) else ProfileStore(store)
        )
        self.host = host
        self.port = port
        self.workers = max(1, workers)
        self.max_request_bytes = max_request_bytes
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: shared across workers: typed compile/check results by source hash
        self.cache = LRUCache(cache_capacity, metric_prefix="service.cache")
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="kremlin-svc"
        )
        self._local = threading.local()
        self._metrics_lock = threading.Lock()
        self._server: asyncio.AbstractServer | None = None
        self._handlers = {
            "compile": self._handle_compile,
            "check": self._handle_check,
            "profile-submit": self._handle_submit,
            "plan": self._handle_plan,
            "query-summary": self._handle_summary,
        }

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=self.max_request_bytes + 1024,
        )
        return self.address

    @property
    def address(self) -> tuple[str, int]:
        assert self._server is not None, "server is not started"
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def serve_forever(self) -> None:
        assert self._server is not None, "server is not started"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._pool.shutdown(wait=True)

    def _session(self) -> KremlinSession:
        """This worker thread's session (created once, then reused)."""
        session = getattr(self._local, "session", None)
        if session is None:
            session = KremlinSession()
            self._local.session = session
            with self._metrics_lock:
                self.metrics.counter("service.sessions").inc()
        return session

    # -- connection handling --------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        with self._metrics_lock:
            self.metrics.counter("service.connections").inc()
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # line exceeded the stream limit; the framing is lost,
                    # so answer with a structured error and hang up
                    error = ProtocolError(
                        "oversize-request",
                        f"request line exceeds "
                        f"{self.max_request_bytes} bytes; closing connection",
                    )
                    writer.write(encode_error(None, error.reply()))
                    await writer.drain()
                    self._observe("oversize", 0.0, ok=False)
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                response = await self._respond(line)
                writer.write(response)
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (
                asyncio.CancelledError,  # server torn down mid-connection
                ConnectionResetError,
                BrokenPipeError,
            ):
                pass

    async def _respond(self, line: bytes) -> bytes:
        """Decode, dispatch, and encode one request line."""
        started = time.perf_counter()
        request_id = None
        method = "?"
        try:
            request_id, method, params = decode_request(
                line, self.max_request_bytes
            )
            if method == "ping":
                self._observe("ping", time.perf_counter() - started, ok=True)
                # pong is an (empty) store summary: typed, and doubles as
                # a liveness + shard-layout probe
                return encode_response(
                    request_id, SummaryResponse(shards=self.store.shards)
                )
            request_cls = request_type(method)
            if request_cls is None:
                raise ProtocolError(
                    "unknown-method",
                    f"unknown method {method!r}; this server speaks "
                    f"{', '.join(sorted(self._handlers))}, ping",
                )
            request = request_cls.from_json(params)
            loop = asyncio.get_running_loop()
            result = await loop.run_in_executor(
                self._pool, self._handlers[method], request
            )
            elapsed = time.perf_counter() - started
            self._observe(method, elapsed, ok=True)
            self.tracer.record_span(
                "service.request", started, started + elapsed, method=method
            )
            return encode_response(request_id, result)
        except Exception as exc:
            error = self._classify(exc)
            if request_id is None:
                request_id = getattr(exc, "request_id", None)
            elapsed = time.perf_counter() - started
            self._observe(method, elapsed, ok=False, code=error.code)
            self.tracer.record_span(
                "service.request",
                started,
                started + elapsed,
                method=method,
                error=error.code,
            )
            return encode_error(request_id, error.reply())

    @staticmethod
    def _classify(exc: Exception) -> ProtocolError:
        """Map an exception to the structured error code clients see."""
        if isinstance(exc, ProtocolError):
            return exc
        if isinstance(exc, SchemaVersionError):
            return ProtocolError("unsupported-schema", str(exc))
        if isinstance(exc, ApiPayloadError):
            return ProtocolError("bad-request", str(exc))
        if isinstance(exc, ProfileVersionError):
            return ProtocolError("profile-version", str(exc))
        if isinstance(exc, ProfileFormatError):
            return ProtocolError("bad-profile", str(exc))
        if isinstance(exc, (MiniCError, InterpreterError)):
            return ProtocolError("compile-error", str(exc))
        if isinstance(exc, KeyError):
            return ProtocolError(
                "not-found", f"no profiles stored for program {exc}"
            )
        return ProtocolError("internal", f"{type(exc).__name__}: {exc}")

    def _observe(
        self, method: str, seconds: float, ok: bool, code: str | None = None
    ) -> None:
        with self._metrics_lock:
            self.metrics.counter(f"service.requests.{method}").inc()
            self.metrics.histogram(f"service.latency_ms.{method}").record(
                seconds * 1000.0
            )
            if not ok:
                self.metrics.counter("service.errors").inc()
                if code is not None:
                    self.metrics.counter(f"service.errors.{code}").inc()

    # -- handlers (worker threads) --------------------------------------

    def _handle_compile(self, request: CompileRequest):
        key = ("compile", source_digest(request.source), request.filename)
        cached = self.cache.get(key)
        if cached is not None:
            return dataclasses.replace(cached, cached=True)
        result = self._session().serve(request)
        self.cache.put(key, result)
        return result

    def _handle_check(self, request: CheckRequest):
        key = ("check", source_digest(request.source), request.filename)
        cached = self.cache.get(key)
        if cached is not None:
            return dataclasses.replace(cached, cached=True)
        result = self._session().serve(request)
        self.cache.put(key, result)
        return result

    def _handle_submit(self, request: ProfileSubmit) -> ProfileAck:
        receipt = self.store.submit(request.profile)
        return ProfileAck(
            program_key=receipt.program_key,
            program_name=receipt.program_name,
            shard=receipt.shard,
            sequence=receipt.sequence,
            runs=receipt.runs,
        )

    def _handle_plan(self, request: PlanRequest) -> PlanResponse:
        if request.personality not in available_personalities():
            raise ProtocolError(
                "bad-request",
                f"unknown personality {request.personality!r}; choose from "
                f"{', '.join(available_personalities())}",
            )
        merged = self.store.merged(request.program_key)
        aggregated = aggregate_profile(merged)
        excluded = frozenset(int(x) for x in request.exclude)
        plan = create_planner(request.personality).plan(aggregated, excluded)
        items = plan_entries(plan)
        if request.limit is not None:
            items = items[: max(0, request.limit)]
        return PlanResponse(
            program_key=request.program_key,
            program_name=merged.program_name,
            personality=request.personality,
            runs=self.store.runs(request.program_key),
            items=items,
        )

    def _handle_summary(self, request: SummaryRequest) -> SummaryResponse:
        if request.program_key is not None:
            stored = [self.store.describe(request.program_key)]
        else:
            stored = self.store.programs()
        return SummaryResponse(
            shards=self.store.shards,
            programs=tuple(
                ProgramSummary(
                    program_key=entry.program_key,
                    program_name=entry.program_name,
                    shard=entry.shard,
                    runs=entry.runs,
                    total_work=entry.total_work,
                    instructions_retired=entry.instructions_retired,
                )
                for entry in stored
            ),
        )


class ServerThread:
    """Run a :class:`KremlinServer` on a background thread's event loop.

    For tests, the bench sweep's service lane, and anything else that
    wants a live server inside the current process::

        with ServerThread(KremlinServer(store_dir)) as (host, port):
            client = KremlinClient(host, port)
    """

    def __init__(self, server: KremlinServer):
        self.server = server
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._started = threading.Event()
        self._address: tuple[str, int] | None = None
        self._error: BaseException | None = None

    def start(self) -> tuple[str, int]:
        self._thread = threading.Thread(
            target=self._run, name="kremlin-server", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=30.0)
        if self._error is not None:
            raise self._error
        assert self._address is not None, "server failed to start"
        return self._address

    def _run(self) -> None:
        async def main() -> None:
            try:
                self._address = await self.server.start()
            except BaseException as exc:
                self._error = exc
                self._started.set()
                return
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            self._started.set()
            await self._stop.wait()
            await self.server.stop()

        asyncio.run(main())

    def stop(self) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=30.0)
            self._thread = None

    def __enter__(self) -> tuple[str, int]:
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


__all__ = [
    "DEFAULT_CACHE_CAPACITY",
    "DEFAULT_WORKERS",
    "KremlinServer",
    "ServerThread",
]
