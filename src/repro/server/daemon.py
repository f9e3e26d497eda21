"""``repro serve``: the persistent async repair-checking daemon.

The batch CLI pays interpreter start-up, schema classification, and a
cold result cache on every invocation.  :class:`RepairServer` keeps one
warm :class:`~repro.service.RepairService` alive behind a socket so all
of that amortizes across requests: the LRU result cache, the memoized
schema classification, the parsed-problem cache, and the per-problem
circuit breaker persist for the life of the process.

Architecture (one asyncio event loop, jobs on a bounded thread pool):

* **accept** — ``asyncio.start_server`` / ``start_unix_server``; each
  connection runs a readline loop over the newline-delimited JSON
  protocol of :mod:`repro.server.protocol`.
* **admit** — every job-bearing request (``check``, ``repair``,
  ``count``) passes the
  :class:`~repro.server.admission.AdmissionController` *before* any
  parsing or queueing.  At capacity the client gets an ``overloaded``
  error immediately; nothing is buffered, nothing hangs.
* **execute** — admitted jobs run on a dedicated
  ``ThreadPoolExecutor`` of ``max_inflight`` threads, each calling the
  reentrant :meth:`~repro.service.RepairService.run_job` (checks) or
  :meth:`~repro.service.RepairService.run_compute` (repair
  construction and entailment counting); the admission capacity bounds
  the executor's queue, so queue depth is ``queue_limit`` at most.
  Per-request ``timeout`` / ``budget`` fields plumb straight into the
  node-budget/deadline machinery of the improvement search.
* **observe** — server counters (``server.accepted``,
  ``server.rejected_overload``, ...), the ``server.active_connections``
  gauge, and the ``server.request`` latency histogram land in the *same*
  metrics registry as the service's job counters, so one ``stats``
  request reads the whole picture.
* **drain** — SIGINT/SIGTERM (or a ``drain`` request) stops accepting,
  lets in-flight jobs finish, flushes responses, closes connections,
  and hands the caller a final metrics snapshot.  The CLI then closes
  the journal and exits 0.

Control operations (``ping``, ``stats``, ``classify``, ``drain``) are
answered inline on the event loop — they are cheap and must stay
responsive even when every worker thread is busy; classification is
memoized per schema, so a hot ``classify`` never recomputes.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import os
import signal
import time
from dataclasses import dataclass
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Optional, Set, Tuple, Union

from repro.core.classification import classify_ccp_schema, classify_schema
from repro.core.priority import PrioritizingInstance
from repro.exceptions import ProtocolError, ReproError, UsageError
from repro.io import parse_schema_spec, prioritizing_from_dict, schema_from_dict
from repro.server.admission import AdmissionController
from repro.server.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    POOLED_OPS,
    Request,
    encode_response,
    error_response,
    ok_response,
    parse_request,
)
from repro.cqa.queries import query_from_dict
from repro.service import ComputeJob, RepairService, RepairJob
from repro.service.cache import LRUCache

__all__ = ["ServerConfig", "RepairServer"]

#: Counters pre-registered at server construction so every stats
#: snapshot reports them, zero or not.
_WELL_KNOWN_SERVER_COUNTERS = (
    "server.requests",
    "server.bad_requests",
    "server.rejected_draining",
    "server.internal_errors",
    "server.connections",
)


@dataclass(frozen=True)
class ServerConfig:
    """Where and how a :class:`RepairServer` listens.

    Exactly one of ``socket_path`` (a unix-domain socket — the default
    transport for a local sidecar) and ``port`` (TCP on ``host``;
    ``port=0`` binds an ephemeral port, reported by
    :attr:`RepairServer.address`) must be set.
    """

    socket_path: Optional[str] = None
    host: str = "127.0.0.1"
    port: Optional[int] = None
    max_inflight: int = 8
    queue_limit: int = 16
    max_line_bytes: int = MAX_LINE_BYTES
    problem_cache_size: int = 128

    def __post_init__(self) -> None:
        if (self.socket_path is None) == (self.port is None):
            raise UsageError(
                "exactly one of socket_path and port must be given"
            )
        if self.max_line_bytes < 1024:
            raise UsageError("max_line_bytes must be >= 1024")
        if self.problem_cache_size < 0:
            raise UsageError("problem_cache_size must be >= 0")
        # max_inflight / queue_limit are validated by the controller.


class RepairServer:
    """One warm :class:`RepairService` behind a line-protocol socket.

    Parameters
    ----------
    service:
        The shared service; its metrics registry doubles as the
        server's, so job and server telemetry snapshot together.
    config:
        Transport and admission settings.

    Lifecycle: :meth:`run` (blocking; installs signal handlers) is what
    the CLI calls; tests drive :meth:`start` / :meth:`drain` /
    :meth:`wait_drained` directly on an event loop.
    """

    def __init__(
        self,
        service: Optional[RepairService] = None,
        config: Optional[ServerConfig] = None,
    ) -> None:
        self.service = service or RepairService()
        self.config = config or ServerConfig(port=0)
        self.metrics = self.service.metrics
        self.admission = AdmissionController(
            self.config.max_inflight,
            self.config.queue_limit,
            metrics=self.metrics,
        )
        self._problems = LRUCache(self.config.problem_cache_size)
        self._pool: Optional[ThreadPoolExecutor] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._drain_requested: Optional[asyncio.Event] = None
        self._draining = False
        self._check_tasks: Set["asyncio.Task[None]"] = set()
        self._writers: Set[asyncio.StreamWriter] = set()
        self._started_at = 0.0
        for name in _WELL_KNOWN_SERVER_COUNTERS:
            self.metrics.counter(name)
        self.metrics.gauge("server.active_connections")

    # -- lifecycle -------------------------------------------------------------------

    @property
    def address(self) -> Union[str, Tuple[str, int], None]:
        """Where the daemon listens: a socket path or ``(host, port)``."""
        if self._server is None:
            return None
        if self.config.socket_path is not None:
            return self.config.socket_path
        sockets = self._server.sockets or ()
        for sock in sockets:
            host, port = sock.getsockname()[:2]
            return (host, port)
        return None

    async def start(self) -> None:
        """Bind the socket and start accepting connections."""
        if self._server is not None:
            raise UsageError("server already started")
        self._drain_requested = asyncio.Event()
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.max_inflight,
            thread_name_prefix="repro-serve",
        )
        if self.config.socket_path is not None:
            # A stale socket file from a killed daemon would make bind
            # fail; connect attempts to it already fail, so removing it
            # is safe.  The unlink is file I/O, so it runs off the event
            # loop like every other blocking call (RL101).
            with contextlib.suppress(FileNotFoundError):
                await asyncio.to_thread(os.unlink, self.config.socket_path)
            self._server = await asyncio.start_unix_server(
                self._handle_connection,
                path=self.config.socket_path,
                limit=self.config.max_line_bytes,
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection,
                host=self.config.host,
                port=self.config.port,
                limit=self.config.max_line_bytes,
            )
        self._started_at = time.monotonic()
        self.metrics.record_event("server_start", address=str(self.address))

    def request_drain(self) -> None:
        """Begin a graceful drain (signal-handler and test safe).

        Idempotent: stops admitting new checks; :meth:`wait_drained`
        finishes the rest.
        """
        self._draining = True
        if self._drain_requested is not None:
            self._drain_requested.set()

    async def wait_drained(self) -> Dict[str, Any]:
        """Block until drain is requested, then finish and tear down.

        Finishes every in-flight check (their responses are written),
        closes the listener and every connection, shuts the worker pool
        down, and returns the final stats payload.
        """
        if self._drain_requested is None or self._server is None:
            raise UsageError("server is not started")
        await self._drain_requested.wait()
        # Stop accepting; in-flight work keeps its executor threads.
        self._server.close()
        await self._server.wait_closed()
        if self._check_tasks:
            await asyncio.gather(*list(self._check_tasks), return_exceptions=True)
        for writer in list(self._writers):
            writer.close()
        self.metrics.record_event(
            "server_drain",
            uptime=time.monotonic() - self._started_at,
        )
        if self._pool is not None:
            # shutdown(wait=True) joins the worker threads; even though
            # every task was gathered above, the join must not run on
            # the event loop (RL101) — a worker wedged in C code would
            # freeze control ops for every still-connected client.
            await asyncio.to_thread(self._pool.shutdown, True)
        return self.stats_payload()

    async def drain(self) -> Dict[str, Any]:
        """Request a drain and wait for it to finish (test convenience)."""
        self.request_drain()
        return await self.wait_drained()

    def run(self, on_ready: Optional[Any] = None) -> Dict[str, Any]:
        """Serve until SIGINT/SIGTERM (or a ``drain`` request); blocking.

        ``on_ready``, if given, is called with :attr:`address` once the
        socket is bound (the CLI prints its "listening" line from it, so
        clients can wait on stdout instead of polling the socket).
        Returns the final metrics snapshot for the caller to render.
        """
        return asyncio.run(self._run_async(on_ready))

    async def _run_async(self, on_ready: Optional[Any] = None) -> Dict[str, Any]:
        await self.start()
        if on_ready is not None:
            on_ready(self.address)
        loop = asyncio.get_running_loop()
        installed = []
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, self.request_drain)
                installed.append(signum)
            except (NotImplementedError, RuntimeError):
                # Platforms without loop signal support (or nested
                # loops) fall back to drain-by-request only.
                break
        try:
            return await self.wait_drained()
        finally:
            for signum in installed:
                loop.remove_signal_handler(signum)

    # -- connection handling ---------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.metrics.counter("server.connections").increment()
        self.metrics.gauge("server.active_connections").increment()
        self._writers.add(writer)
        write_lock = asyncio.Lock()
        connection_tasks: Set["asyncio.Task[None]"] = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # The line exceeded max_line_bytes; the stream is no
                    # longer framed, so answer and hang up.
                    self.metrics.counter("server.bad_requests").increment()
                    await self._send(
                        writer,
                        write_lock,
                        error_response(
                            None,
                            "bad-request",
                            f"request line exceeds "
                            f"{self.config.max_line_bytes} bytes",
                        ),
                    )
                    break
                if not line:
                    break
                text = line.decode("utf-8", errors="replace").strip()
                if not text:
                    continue
                self.metrics.counter("server.requests").increment()
                try:
                    request = parse_request(text)
                except ProtocolError as exc:
                    self.metrics.counter("server.bad_requests").increment()
                    await self._send(
                        writer,
                        write_lock,
                        error_response(None, "bad-request", str(exc)),
                    )
                    continue
                if request.op in POOLED_OPS:
                    # Admission happens *now*, on the event loop, so an
                    # overloaded daemon answers before queueing anything.
                    task = asyncio.create_task(
                        self._run_check(request, writer, write_lock)
                    )
                    connection_tasks.add(task)
                    self._check_tasks.add(task)
                    task.add_done_callback(connection_tasks.discard)
                    task.add_done_callback(self._check_tasks.discard)
                else:
                    await self._send(
                        writer, write_lock, self._control(request)
                    )
                    if request.op == "drain":
                        self.request_drain()
        finally:
            if connection_tasks:
                await asyncio.gather(
                    *list(connection_tasks), return_exceptions=True
                )
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self.metrics.gauge("server.active_connections").decrement()

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        response: Dict[str, Any],
    ) -> None:
        """Write one response line (tasks on one connection interleave)."""
        payload = encode_response(response)
        async with write_lock:
            if writer.is_closing():
                return
            writer.write(payload)
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                # The client hung up mid-response; nothing to salvage.
                pass

    # -- the pooled job path (check / repair / count) ----------------------------------

    async def _run_check(
        self,
        request: Request,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        if self._draining:
            self.metrics.counter("server.rejected_draining").increment()
            await self._send(
                writer,
                write_lock,
                error_response(
                    request.request_id,
                    "draining",
                    "daemon is draining and accepts no new jobs",
                ),
            )
            return
        if not self.admission.try_admit():
            await self._send(
                writer,
                write_lock,
                error_response(
                    request.request_id,
                    "overloaded",
                    f"admission limit reached "
                    f"({self.admission.capacity} in flight); retry later",
                ),
            )
            return
        loop = asyncio.get_running_loop()
        start = time.monotonic()
        try:
            result = await loop.run_in_executor(
                self._pool, self._execute_sync, request
            )
            response = ok_response(
                request.request_id, result=result.to_dict()
            )
        except (ProtocolError, ReproError, ValueError, KeyError, TypeError) as exc:
            # Malformed problem/candidate documents surface here; the
            # checkers' own errors became a status="error" result above.
            self.metrics.counter("server.bad_requests").increment()
            response = error_response(
                request.request_id,
                "bad-request",
                f"{type(exc).__name__}: {exc}",
            )
        except Exception as exc:  # noqa: BLE001  # repro-lint: ignore[RL007]
            # The daemon-level supervision boundary: one request must
            # never take the process (or the connection loop) down.
            self.metrics.counter("server.internal_errors").increment()
            self.metrics.record_event(
                "server_internal_error",
                error=f"{type(exc).__name__}: {exc}",
            )
            response = error_response(
                request.request_id, "internal", "internal server error"
            )
        finally:
            self.admission.release()
            self.metrics.histogram("server.request").observe(
                time.monotonic() - start
            )
        await self._send(writer, write_lock, response)

    def _execute_sync(self, request: Request) -> Any:
        """Dispatch one pooled request to its sync executor (worker
        thread; may raise ReproError on malformed documents)."""
        if request.op == "repair":
            return self._execute_repair_sync(request)
        if request.op == "count":
            return self._execute_count_sync(request)
        return self._execute_check_sync(request)

    def _job_id_for(self, request: Request) -> str:
        job_id = request.payload.get("job_id")
        if job_id is not None:
            return job_id
        if request.request_id is not None:
            return str(request.request_id)
        return "request"

    def _execute_check_sync(self, request: Request) -> Any:
        """Build and run one check job (worker thread)."""
        from repro.service.batch_io import candidate_from_spec

        payload = request.payload
        prioritizing = self._problem_for(payload["problem"])
        candidate = candidate_from_spec(prioritizing, payload["candidate"])
        job = RepairJob(
            job_id=self._job_id_for(request),
            prioritizing=prioritizing,
            candidate=candidate,
            semantics=payload.get("semantics", "global"),
            method=payload.get("method", "auto"),
            timeout=payload.get("timeout"),
            node_budget=payload.get("budget"),
        )
        return self.service.run_job(job)

    def _execute_repair_sync(self, request: Request) -> Any:
        """Build and run one repair-construction job (worker thread)."""
        payload = request.payload
        prioritizing = self._problem_for(payload["problem"])
        job = ComputeJob(
            job_id=self._job_id_for(request),
            prioritizing=prioritizing,
            kind="repair",
            semantics=payload.get("semantics", "global"),
            seed=payload.get("seed", 0),
            timeout=payload.get("timeout"),
            node_budget=payload.get("budget"),
        )
        return self.service.run_compute(job)

    def _execute_count_sync(self, request: Request) -> Any:
        """Build and run one entailment-count job (worker thread)."""
        payload = request.payload
        prioritizing = self._problem_for(payload["problem"])
        query = query_from_dict(payload["query"])
        job = ComputeJob(
            job_id=self._job_id_for(request),
            prioritizing=prioritizing,
            kind="count",
            semantics=payload.get("semantics", "global"),
            query=query,
            max_repairs=payload.get("max_repairs"),
        )
        return self.service.run_compute(job)

    def _problem_for(self, document: Dict[str, Any]) -> PrioritizingInstance:
        """Parse (and memoize) a prioritizing-instance document.

        Deserialization re-validates the whole problem — exactly the
        per-invocation cost the daemon exists to amortize — so parsed
        problems are cached by the canonical digest of their document.
        """
        key = hashlib.sha256(
            json.dumps(document, sort_keys=True, default=str).encode("utf-8")
        ).hexdigest()
        cached = self._problems.get(key)
        if cached is not None:
            return cached
        prioritizing = prioritizing_from_dict(document)
        self._problems.put(key, prioritizing)
        return prioritizing

    # -- control operations ------------------------------------------------------------

    def _control(self, request: Request) -> Dict[str, Any]:
        """Answer a non-check operation inline (event loop; cheap)."""
        if request.op == "ping":
            return ok_response(
                request.request_id, pong=True, protocol=PROTOCOL_VERSION
            )
        if request.op == "stats":
            return ok_response(request.request_id, stats=self.stats_payload())
        if request.op == "drain":
            return ok_response(request.request_id, draining=True)
        # classify: memoized per schema, so a hot loop costs a dict hit.
        payload = request.payload
        try:
            if "schema" in payload:
                schema = schema_from_dict(payload["schema"])
            else:
                schema = parse_schema_spec(payload["schema_spec"])
            classical = classify_schema(schema)
            ccp = classify_ccp_schema(schema)
        except (ReproError, ValueError, KeyError, TypeError) as exc:
            self.metrics.counter("server.bad_requests").increment()
            return error_response(
                request.request_id,
                "bad-request",
                f"{type(exc).__name__}: {exc}",
            )
        return ok_response(
            request.request_id,
            classical={
                "tractable": classical.is_tractable,
                "description": classical.describe(),
            },
            ccp={
                "tractable": ccp.is_tractable,
                "description": ccp.describe(),
            },
        )

    def stats_payload(self) -> Dict[str, Any]:
        """The ``stats`` response body (and the final drain snapshot).

        The bounded event log is summarized as a count — shipping up to
        10k events per stats poll would make observability itself a
        load problem.
        """
        snapshot = self.service.metrics.snapshot()
        payload = {
            "protocol": PROTOCOL_VERSION,
            "draining": self._draining,
            "uptime": (
                time.monotonic() - self._started_at
                if self._started_at
                else 0.0
            ),
            "address": str(self.address),
            "counters": snapshot["counters"],
            "gauges": snapshot["gauges"],
            "histograms": snapshot["histograms"],
            "events": len(snapshot["events"]),
            "result_cache": self.service.cache.stats(),
            "problem_cache": self._problems.stats(),
        }
        if self.service.store is not None:
            payload["result_store"] = self.service.store.stats()
        return payload
