"""``repro serve --workers N``: the supervised sharded daemon fleet.

One :class:`~repro.server.daemon.RepairServer` saturates at its thread
pool; the coNP-hard side of the dichotomies makes individual requests
expensive enough that a serving tier needs both horizontal scale and
the ability to lose a worker mid-search without losing correctness.
:class:`FleetSupervisor` provides both behind one front-door socket:

* **shard** — N ``repro serve`` daemon *worker processes*, each a full
  single-daemon stack (own event loop,
  :class:`~repro.server.admission.AdmissionController`, thread pool,
  write-ahead journal).  Job-bearing requests (``check`` / ``repair`` /
  ``count``) are routed by a deterministic consistent hash
  (:class:`~repro.server.hashring.HashRing`) of the request's problem
  document, so each worker's parsed-problem and result caches stay hot
  for the problems it owns.
* **multiplex** — any number of client connections speak the ordinary
  NDJSON protocol to the front door; the supervisor rewrites request
  ``id``s to fleet-unique tokens, forwards lines to the owning worker
  over a persistent connection, and maps responses back to the issuing
  client with the original ``id`` restored.  Clients cannot tell a
  fleet from a single daemon (the chaos drills assert byte-identical
  verdicts).
* **supervise** — a heartbeat loop pings every worker over the
  protocol itself; a worker that misses ``heartbeat_misses``
  consecutive beats is declared wedged and SIGKILLed.  Worker death
  (crash, kill, wedge escalation) triggers a restart under the seeded
  full-jitter backoff of
  :class:`~repro.service.resilience.RetryPolicy`, gated by a per-worker
  :class:`~repro.service.resilience.CircuitBreaker`: a worker that
  keeps dying right after boot stops being restarted until the
  breaker's reset window admits a half-open probe, and only an uptime
  of ``stable_after`` seconds closes the breaker again.
* **fail over** — requests in flight on a dead worker are re-dispatched
  **at most once** to the next live worker on the ring; a second death
  (or an empty ring) turns them into ``unavailable`` errors instead of
  silent loss or unbounded retry.  Re-execution is safe because worker
  results are deterministic and content-addressed — a lost response
  recomputed elsewhere is byte-identical.
* **share results** — all workers open the same WAL-mode
  :class:`~repro.service.store.SqliteStore`, so a verdict computed by
  any worker (or any *previous incarnation* of a worker) is a warm hit
  for every other one.
* **drain** — SIGINT/SIGTERM (or a client ``drain``) stops the front
  door, forwards ``drain`` to every worker (each finishes in-flight
  jobs, flushes its journal, exits 0), reaps the processes, and returns
  the final fleet snapshot; the supervisor then exits 0.

Fleet state (worker pids, liveness, restart counts) is snapshotted to
``state_dir/fleet-state.json`` through
:func:`repro.fsutil.atomic_write_text` on every transition, so an
operator — or a post-mortem — always reads a complete, un-torn view.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from repro.exceptions import ProtocolError, TransientWorkerError, UsageError
from repro.fsutil import atomic_write_text
from repro.server.hashring import HashRing
from repro.server.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    POOLED_OPS,
    encode_response,
    error_response,
    ok_response,
    parse_request,
)
from repro.service.faults import FleetFaultPlan
from repro.service.metrics import MetricsRegistry
from repro.service.resilience import CircuitBreaker, RetryPolicy

__all__ = ["FleetConfig", "FleetSupervisor"]

#: Counters pre-registered at supervisor construction so every fleet
#: stats snapshot reports them, zero or not.
_WELL_KNOWN_FLEET_COUNTERS = (
    "fleet.dispatched",
    "fleet.responses",
    "fleet.redispatched",
    "fleet.unavailable",
    "fleet.worker_deaths",
    "fleet.restarts",
    "fleet.heartbeat_misses",
    "fleet.heartbeat_escalations",
    "fleet.connections",
    "fleet.requests",
    "fleet.bad_requests",
)


@dataclass(frozen=True)
class FleetConfig:
    """Shape and robustness knobs for a :class:`FleetSupervisor`.

    Front-door transport mirrors
    :class:`~repro.server.daemon.ServerConfig`: exactly one of
    ``socket_path`` and ``port`` must be set.  ``state_dir`` holds the
    per-worker unix sockets, journals, logs, the shared sqlite store,
    and the fleet-state snapshot; keep it on a short path (unix socket
    paths are length-limited).

    Attributes
    ----------
    workers:
        Fleet size (>= 1; the CLI uses 1 to mean "no fleet at all").
    max_inflight / queue_limit / cache_size / default_timeout /
    default_node_budget / breaker_threshold / breaker_reset_seconds /
    core_backend / worker_chaos:
        Forwarded verbatim to each worker's ``repro serve`` argv.
    share_store / store:
        Open one WAL-mode sqlite result store — at ``store`` when
        given, else under ``state_dir`` — and hand it to every worker
        (cache hits survive restarts and are shared across the fleet);
        ``share_store=False`` with no ``store`` disables the tier.
    heartbeat_interval / heartbeat_misses:
        Liveness probing: a worker missing ``heartbeat_misses``
        consecutive pings is SIGKILLed as wedged (its restart then
        follows the ordinary death path).
    restart_base / restart_cap / restart_seed:
        The seeded full-jitter backoff between a worker's death and its
        respawn (:class:`~repro.service.resilience.RetryPolicy`; the
        sequence for a fixed seed is reproducible, property-tested).
    worker_breaker_threshold / worker_breaker_reset:
        Consecutive deaths that stop a worker's restarts until the
        breaker's reset window admits a half-open probe (0 disables).
    stable_after:
        Seconds of uptime after which a restarted worker counts as
        recovered (closes its breaker and resets its backoff attempt
        counter) — success is *stability*, not merely booting.
    boot_timeout:
        Seconds to wait for a spawned worker's socket to accept.
    fault_plan:
        An optional :class:`~repro.service.faults.FleetFaultPlan`
        driving the chaos drills (deterministic kills and heartbeat
        wedges).
    """

    workers: int = 2
    socket_path: Optional[str] = None
    host: str = "127.0.0.1"
    port: Optional[int] = None
    state_dir: str = ""
    max_inflight: int = 8
    queue_limit: int = 16
    cache_size: int = 2048
    default_timeout: Optional[float] = None
    default_node_budget: Optional[int] = 100_000
    breaker_threshold: int = 5
    breaker_reset_seconds: float = 30.0
    core_backend: Optional[str] = None
    worker_chaos: Optional[str] = None
    share_store: bool = True
    store: Optional[str] = None
    heartbeat_interval: float = 0.5
    heartbeat_misses: int = 3
    restart_base: float = 0.05
    restart_cap: float = 1.0
    restart_seed: int = 0
    worker_breaker_threshold: int = 3
    worker_breaker_reset: float = 30.0
    stable_after: float = 1.0
    boot_timeout: float = 30.0
    max_line_bytes: int = MAX_LINE_BYTES
    fault_plan: Optional[FleetFaultPlan] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise UsageError(f"workers must be >= 1, got {self.workers}")
        if (self.socket_path is None) == (self.port is None):
            raise UsageError(
                "exactly one of socket_path and port must be given"
            )
        if not self.state_dir:
            raise UsageError("a fleet needs a state_dir")
        if self.heartbeat_interval <= 0:
            raise UsageError("heartbeat_interval must be > 0")
        if self.heartbeat_misses < 1:
            raise UsageError("heartbeat_misses must be >= 1")
        if self.stable_after < 0 or self.boot_timeout <= 0:
            raise UsageError("stable_after/boot_timeout out of range")

    @property
    def store_path(self) -> Optional[str]:
        """The shared persistent store file (None when disabled)."""
        if self.store is not None:
            return self.store
        if not self.share_store:
            return None
        return str(Path(self.state_dir) / "store.sqlite")

    def worker_names(self) -> List[str]:
        return [f"w{index}" for index in range(self.workers)]


@dataclass
class _Worker:
    """One supervised daemon worker's mutable bookkeeping."""

    name: str
    socket_path: str
    journal_path: str
    log_path: str
    proc: Optional[subprocess.Popen] = None
    reader: Optional[asyncio.StreamReader] = None
    writer: Optional[asyncio.StreamWriter] = None
    reader_task: Optional["asyncio.Task[None]"] = None
    alive: bool = False
    down_handled: bool = True
    restarts: int = 0
    restart_attempts: int = 0
    dispatches: int = 0
    misses: int = 0
    started_at: float = 0.0


@dataclass
class _Pending:
    """One request in flight between a client and a worker."""

    token: str
    worker: str
    doc: Dict[str, Any]
    original_id: Any = None
    key: Optional[str] = None
    client_writer: Optional[asyncio.StreamWriter] = None
    client_lock: Optional[asyncio.Lock] = None
    future: Optional["asyncio.Future[Optional[Dict[str, Any]]]"] = None
    redispatched: bool = False


class FleetSupervisor:
    """N supervised ``repro serve`` workers behind one front door.

    Lifecycle mirrors :class:`~repro.server.daemon.RepairServer`:
    :meth:`run` (blocking, installs signal handlers) for the CLI;
    :meth:`start` / :meth:`request_drain` / :meth:`wait_drained` for
    tests driving an event loop directly.
    """

    def __init__(
        self,
        config: FleetConfig,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config
        self.metrics = metrics or MetricsRegistry()
        self.ring = HashRing(config.worker_names())
        state = Path(config.state_dir)
        self.workers: Dict[str, _Worker] = {
            name: _Worker(
                name=name,
                socket_path=str(state / f"{name}.sock"),
                journal_path=str(state / f"{name}.wal"),
                log_path=str(state / f"{name}.log"),
            )
            for name in config.worker_names()
        }
        self._breaker = CircuitBreaker(
            config.worker_breaker_threshold,
            config.worker_breaker_reset,
            metrics=self.metrics,
        )
        self._retry = RetryPolicy(
            config.restart_base, config.restart_cap, config.restart_seed
        )
        self._pending: Dict[str, _Pending] = {}
        self._tokens = 0
        self._rotation = 0
        self._beat = 0
        self._state_seq = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._drain_requested: Optional[asyncio.Event] = None
        self._draining = False
        self._heartbeat_task: Optional["asyncio.Task[None]"] = None
        self._aux_tasks: Set["asyncio.Task[None]"] = set()
        self._client_writers: Set[asyncio.StreamWriter] = set()
        self._started_at = 0.0
        for name in _WELL_KNOWN_FLEET_COUNTERS:
            self.metrics.counter(name)

    # -- lifecycle -------------------------------------------------------------------

    @property
    def address(self) -> Union[str, Tuple[str, int], None]:
        """Where the front door listens: a path or ``(host, port)``."""
        if self._server is None:
            return None
        if self.config.socket_path is not None:
            return self.config.socket_path
        for sock in self._server.sockets or ():
            host, port = sock.getsockname()[:2]
            return (host, port)
        return None

    async def start(self) -> None:
        """Spawn every worker, connect to each, open the front door."""
        if self._server is not None:
            raise UsageError("fleet already started")
        self._drain_requested = asyncio.Event()
        await asyncio.to_thread(
            os.makedirs, self.config.state_dir, exist_ok=True
        )
        await asyncio.gather(
            *(self._boot_worker(worker) for worker in self.workers.values())
        )
        if self.config.socket_path is not None:
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
        self._heartbeat_task = asyncio.create_task(self._heartbeat_loop())
        self.metrics.record_event("fleet_start", address=str(self.address))
        await self._write_state()

    def request_drain(self) -> None:
        """Begin a fleet-wide graceful drain (idempotent, signal-safe)."""
        self._draining = True
        if self._drain_requested is not None:
            self._drain_requested.set()

    async def wait_drained(self) -> Dict[str, Any]:
        """Block until drain is requested, then drain the whole fleet.

        The front door closes first (no new work), every worker is sent
        a protocol ``drain`` (it finishes in-flight jobs, flushes its
        journal, and exits 0), the worker processes are reaped, and the
        final fleet snapshot is returned.
        """
        if self._drain_requested is None or self._server is None:
            raise UsageError("fleet is not started")
        await self._drain_requested.wait()
        self._draining = True
        self._server.close()
        await self._server.wait_closed()
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._heartbeat_task
        aux_tasks = list(self._aux_tasks)
        for task in aux_tasks:
            task.cancel()
        # A cancelled restart may still be reaping the process of a
        # spawn that outlived its cancellation (see _boot_worker).
        await asyncio.gather(*aux_tasks, return_exceptions=True)
        # Forward the drain; each worker finishes its in-flight jobs and
        # writes their responses before closing, so the reader tasks
        # deliver every outstanding answer on their way to EOF.
        for worker in self.workers.values():
            if worker.alive and worker.writer is not None:
                with contextlib.suppress(ConnectionError, OSError):
                    worker.writer.write(b'{"op": "drain"}\n')
                    await worker.writer.drain()
        reader_tasks = [
            worker.reader_task
            for worker in self.workers.values()
            if worker.reader_task is not None
        ]
        if reader_tasks:
            await asyncio.gather(*reader_tasks, return_exceptions=True)
        for worker in self.workers.values():
            await self._reap(worker)
        for writer in list(self._client_writers):
            writer.close()
        self.metrics.record_event(
            "fleet_drain", uptime=time.monotonic() - self._started_at
        )
        await self._write_state()
        return self.stats_payload()

    async def drain(self) -> Dict[str, Any]:
        """Request a drain and wait for it (test convenience)."""
        self.request_drain()
        return await self.wait_drained()

    def run(self, on_ready: Optional[Any] = None) -> Dict[str, Any]:
        """Serve until SIGINT/SIGTERM (or a ``drain`` request); blocking."""
        return asyncio.run(self._run_async(on_ready))

    async def _run_async(
        self, on_ready: Optional[Any] = None
    ) -> Dict[str, Any]:
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
                break
        try:
            return await self.wait_drained()
        finally:
            for signum in installed:
                loop.remove_signal_handler(signum)

    # -- worker process management ----------------------------------------------------

    def _worker_argv(self, worker: _Worker) -> List[str]:
        argv = [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--socket",
            worker.socket_path,
            "--journal",
            worker.journal_path,
            "--max-inflight",
            str(self.config.max_inflight),
            "--queue-limit",
            str(self.config.queue_limit),
            "--cache-size",
            str(self.config.cache_size),
            "--breaker-threshold",
            str(self.config.breaker_threshold),
            "--breaker-reset",
            str(self.config.breaker_reset_seconds),
        ]
        if self.config.store_path is not None:
            argv += ["--store", self.config.store_path]
        if self.config.default_timeout is not None:
            argv += ["--timeout", str(self.config.default_timeout)]
        if self.config.default_node_budget is not None:
            argv += ["--budget", str(self.config.default_node_budget)]
        if self.config.core_backend is not None:
            argv += ["--core-backend", self.config.core_backend]
        if self.config.worker_chaos is not None:
            argv += ["--chaos", self.config.worker_chaos]
        return argv

    def _spawn_sync(self, worker: _Worker) -> subprocess.Popen:
        """Launch one worker process (runs on the thread pool: Popen,
        the log open, and the stale-socket unlink all block)."""
        with contextlib.suppress(FileNotFoundError):
            os.unlink(worker.socket_path)
        env = dict(os.environ)
        # The directory holding the `repro` package (this file lives at
        # <src_root>/repro/server/fleet.py) — workers must import the
        # same tree as the supervisor even without an installed dist.
        src_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_root if not existing
            else os.pathsep.join([src_root, existing])
        )
        with open(worker.log_path, "ab") as log:
            return subprocess.Popen(
                self._worker_argv(worker),
                stdout=log,
                stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
                env=env,
                start_new_session=True,  # terminal signals stay ours
            )

    async def _boot_worker(self, worker: _Worker) -> None:
        """Spawn one worker and wait for its socket to accept.

        A boot that fails or is cancelled kills and reaps the process it
        spawned, since nothing else would ever drain it.  Cancelling does
        not stop a spawn already running on its thread, so a cancelled
        boot first waits for that spawn to finish.
        """
        spawn = asyncio.ensure_future(
            asyncio.to_thread(self._spawn_sync, worker)
        )
        try:
            worker.proc = proc = await asyncio.shield(spawn)
            reader, writer = await self._accept(worker, proc)
        except (asyncio.CancelledError, TransientWorkerError):
            with contextlib.suppress(OSError):
                proc = await spawn
                proc.kill()
                await asyncio.to_thread(proc.wait)
            raise
        worker.reader = reader
        worker.writer = writer
        worker.alive = True
        worker.down_handled = False
        worker.misses = 0
        worker.started_at = time.monotonic()
        worker.reader_task = asyncio.create_task(self._read_worker(worker))

    async def _accept(
        self, worker: _Worker, proc: subprocess.Popen
    ) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        """Connect to a freshly spawned worker once its socket accepts."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.boot_timeout
        while True:
            if proc.poll() is not None:
                raise TransientWorkerError(
                    f"worker {worker.name} exited with code "
                    f"{proc.returncode} during boot "
                    f"(see {worker.log_path})"
                )
            try:
                return await asyncio.open_unix_connection(
                    worker.socket_path, limit=self.config.max_line_bytes
                )
            except (ConnectionError, FileNotFoundError, OSError):
                if loop.time() >= deadline:
                    raise TransientWorkerError(
                        f"worker {worker.name} did not accept on "
                        f"{worker.socket_path} within "
                        f"{self.config.boot_timeout}s"
                    ) from None
                await asyncio.sleep(0.05)

    async def _reap(self, worker: _Worker) -> None:
        """Collect one worker process, escalating to SIGKILL if needed."""
        if worker.writer is not None:
            worker.writer.close()
            worker.writer = None
        proc = worker.proc
        if proc is None:
            return
        try:
            await asyncio.to_thread(proc.wait, 10.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            await asyncio.to_thread(proc.wait)
        worker.alive = False

    def _alive(self) -> List[str]:
        return [
            name for name, worker in self.workers.items() if worker.alive
        ]

    # -- the front door ----------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.metrics.counter("fleet.connections").increment()
        self._client_writers.add(writer)
        lock = asyncio.Lock()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    self.metrics.counter("fleet.bad_requests").increment()
                    await self._send_client(
                        writer,
                        lock,
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
                self.metrics.counter("fleet.requests").increment()
                try:
                    request = parse_request(text)
                except ProtocolError as exc:
                    self.metrics.counter("fleet.bad_requests").increment()
                    await self._send_client(
                        writer,
                        lock,
                        error_response(None, "bad-request", str(exc)),
                    )
                    continue
                document = json.loads(text)
                if request.op == "ping":
                    await self._send_client(
                        writer,
                        lock,
                        ok_response(
                            request.request_id,
                            pong=True,
                            protocol=PROTOCOL_VERSION,
                            fleet=self.config.workers,
                        ),
                    )
                elif request.op == "stats":
                    await self._send_client(
                        writer, lock, await self._stats_response(request)
                    )
                elif request.op == "drain":
                    await self._send_client(
                        writer,
                        lock,
                        ok_response(request.request_id, draining=True),
                    )
                    self.request_drain()
                else:
                    await self._route(document, request.op, writer, lock)
        finally:
            self._client_writers.discard(writer)
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()

    async def _send_client(
        self,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
        response: Dict[str, Any],
    ) -> None:
        payload = encode_response(response)
        async with lock:
            if writer.is_closing():
                return
            writer.write(payload)
            with contextlib.suppress(ConnectionError, OSError):
                await writer.drain()

    def _routing_key(self, document: Dict[str, Any]) -> str:
        """The placement key: the canonical digest of the problem doc.

        Matches the single daemon's parsed-problem cache key, so one
        problem always lands on (and stays warm at) one worker.
        """
        return hashlib.sha256(
            json.dumps(
                document.get("problem"), sort_keys=True, default=str
            ).encode("utf-8")
        ).hexdigest()

    def _pick_worker(
        self, op: str, key: Optional[str], exclude: Tuple[str, ...] = ()
    ) -> Optional[str]:
        """The live worker to serve a request (None = nobody can)."""
        alive = [name for name in self._alive() if name not in exclude]
        if not alive:
            return None
        if op in POOLED_OPS and key is not None:
            for name in self.ring.preference(key):
                if name in alive:
                    return name
            return None
        # classify (and anything else forwarded): cheap and stateless —
        # rotate across live workers.
        self._rotation += 1
        return alive[self._rotation % len(alive)]

    async def _route(
        self,
        document: Dict[str, Any],
        op: str,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
    ) -> None:
        if self._draining:
            await self._send_client(
                writer,
                lock,
                error_response(
                    document.get("id"),
                    "draining",
                    "fleet is draining and accepts no new jobs",
                ),
            )
            return
        key = self._routing_key(document) if op in POOLED_OPS else None
        target = self._pick_worker(op, key)
        if target is None:
            self.metrics.counter("fleet.unavailable").increment()
            await self._send_client(
                writer,
                lock,
                error_response(
                    document.get("id"),
                    "unavailable",
                    "no live worker can take this job; the fleet is "
                    "restarting workers — retry shortly",
                ),
            )
            return
        self._tokens += 1
        token = f"fleet-{self._tokens}"
        forwarded = dict(document)
        original_id = forwarded.get("id")
        forwarded["id"] = token
        entry = _Pending(
            token=token,
            worker=target,
            doc=forwarded,
            original_id=original_id,
            key=key,
            client_writer=writer,
            client_lock=lock,
        )
        self._pending[token] = entry
        await self._dispatch(entry)

    async def _dispatch(self, entry: _Pending) -> None:
        """Forward one pending request line to its assigned worker."""
        worker = self.workers[entry.worker]
        payload = (json.dumps(entry.doc, default=str) + "\n").encode("utf-8")
        try:
            if worker.writer is None:
                raise ConnectionResetError("worker connection is gone")
            worker.writer.write(payload)
            await worker.writer.drain()
        except (ConnectionError, OSError):
            # The worker died under us; its down-handler (below) fails
            # this entry over or answers unavailable.
            await self._on_worker_down(worker)
            return
        self.metrics.counter("fleet.dispatched").increment()
        if entry.doc.get("op") in POOLED_OPS:
            worker.dispatches += 1
            plan = self.config.fault_plan
            if plan is not None and plan.should_kill(
                worker.name, worker.dispatches
            ):
                # The drill: SIGKILL mid-load, right after the job
                # left for the worker.  The reader task sees EOF and
                # the ordinary death path takes over.
                self.metrics.record_event(
                    "fleet_fault_kill",
                    worker=worker.name,
                    dispatch=worker.dispatches,
                )
                if worker.proc is not None and worker.proc.poll() is None:
                    worker.proc.kill()

    # -- worker responses and death ----------------------------------------------------

    async def _read_worker(self, worker: _Worker) -> None:
        """Pump one worker's responses back to their issuers until EOF."""
        try:
            while True:
                if worker.reader is None:
                    break
                line = await worker.reader.readline()
                if not line:
                    break
                try:
                    document = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if not isinstance(document, dict):
                    continue
                entry = self._pending.pop(document.get("id"), None)
                if entry is None:
                    continue
                self.metrics.counter("fleet.responses").increment()
                if entry.future is not None:
                    if not entry.future.done():
                        entry.future.set_result(document)
                    continue
                document["id"] = entry.original_id
                await self._send_client(
                    entry.client_writer, entry.client_lock, document
                )
        finally:
            await self._on_worker_down(worker)

    async def _on_worker_down(self, worker: _Worker) -> None:
        """The single funnel for a worker's death (idempotent).

        Marks it dead, fails its in-flight requests over (at most once
        each), records the death on its breaker, and schedules the
        backoff-gated restart — unless the fleet is draining, in which
        case worker exit is the *expected* path and nothing restarts.
        """
        if worker.down_handled or self._draining:
            return
        worker.down_handled = True
        worker.alive = False
        worker.misses = 0
        self.metrics.counter("fleet.worker_deaths").increment()
        self.metrics.record_event("fleet_worker_down", worker=worker.name)
        if worker.writer is not None:
            worker.writer.close()
            worker.writer = None
        worker.reader = None
        self._breaker.record(worker.name, failure=True)
        await self._failover(worker.name)
        await self._write_state()
        task = asyncio.create_task(self._restart_worker(worker))
        self._aux_tasks.add(task)
        task.add_done_callback(self._aux_tasks.discard)

    async def _failover(self, dead: str) -> None:
        """Re-dispatch (once) or fail every request in flight on ``dead``."""
        stranded = [
            entry
            for entry in self._pending.values()
            if entry.worker == dead
        ]
        for entry in stranded:
            self._pending.pop(entry.token, None)
            if entry.future is not None:
                if not entry.future.done():
                    entry.future.set_result(None)
                continue
            target = (
                None
                if entry.redispatched
                else self._pick_worker(
                    entry.doc.get("op"), entry.key, exclude=(dead,)
                )
            )
            if target is None:
                self.metrics.counter("fleet.unavailable").increment()
                await self._send_client(
                    entry.client_writer,
                    entry.client_lock,
                    error_response(
                        entry.original_id,
                        "unavailable",
                        f"the worker serving this job died and it "
                        f"cannot be re-dispatched "
                        f"({'already re-dispatched once' if entry.redispatched else 'no live worker'}); "
                        f"safe to retry",
                    ),
                )
                continue
            entry.redispatched = True
            entry.worker = target
            self._pending[entry.token] = entry
            self.metrics.counter("fleet.redispatched").increment()
            self.metrics.record_event(
                "fleet_redispatch", token=entry.token, to=target
            )
            await self._dispatch(entry)

    async def _restart_worker(self, worker: _Worker) -> None:
        """Respawn one dead worker under backoff, gated by its breaker."""
        while not self._draining:
            if not self._breaker.allow(worker.name):
                # Open circuit: this worker keeps dying on boot.  Wait
                # out (a slice of) the reset window, then re-check —
                # allow() flips to half-open and lets one probe through.
                await asyncio.sleep(self.config.heartbeat_interval)
                continue
            worker.restart_attempts += 1
            delay = self._retry.delay(worker.name, worker.restart_attempts)
            await asyncio.sleep(delay)
            if self._draining:
                return
            try:
                await self._boot_worker(worker)
            except TransientWorkerError:
                self._breaker.record(worker.name, failure=True)
                continue
            worker.restarts += 1
            self.metrics.counter("fleet.restarts").increment()
            self.metrics.record_event(
                "fleet_worker_restart",
                worker=worker.name,
                attempt=worker.restart_attempts,
            )
            await self._write_state()
            task = asyncio.create_task(self._stabilize(worker))
            self._aux_tasks.add(task)
            task.add_done_callback(self._aux_tasks.discard)
            return

    async def _stabilize(self, worker: _Worker) -> None:
        """Count a restart as recovery only after ``stable_after`` uptime.

        Closing the breaker on first contact would defeat it — a worker
        crash-looping two seconds after boot would restart forever.
        """
        started = worker.started_at
        await asyncio.sleep(self.config.stable_after)
        if worker.alive and worker.started_at == started:
            self._breaker.record(worker.name, failure=False)
            worker.restart_attempts = 0

    # -- heartbeats --------------------------------------------------------------------

    async def _heartbeat_loop(self) -> None:
        while not self._draining:
            await asyncio.sleep(self.config.heartbeat_interval)
            self._beat += 1
            plan = self.config.fault_plan
            for worker in list(self.workers.values()):
                if not worker.alive or self._draining:
                    continue
                if plan is not None and plan.wedged(worker.name, self._beat):
                    # The wedge drill: pretend the worker went silent.
                    answered = False
                else:
                    answered = await self._ping_worker(worker)
                if answered:
                    worker.misses = 0
                    continue
                worker.misses += 1
                self.metrics.counter("fleet.heartbeat_misses").increment()
                if worker.misses >= self.config.heartbeat_misses:
                    # Wedged: SIGKILL and let the death path restart it.
                    self.metrics.counter(
                        "fleet.heartbeat_escalations"
                    ).increment()
                    self.metrics.record_event(
                        "fleet_heartbeat_escalation",
                        worker=worker.name,
                        misses=worker.misses,
                    )
                    if worker.proc is not None and worker.proc.poll() is None:
                        worker.proc.kill()

    async def _ping_worker(self, worker: _Worker) -> bool:
        """One liveness probe over the protocol; False on any failure."""
        response = await self._ask_worker(
            worker, {"op": "ping"}, timeout=self.config.heartbeat_interval
        )
        return bool(response and response.get("ok"))

    async def _ask_worker(
        self,
        worker: _Worker,
        document: Dict[str, Any],
        timeout: float,
    ) -> Optional[Dict[str, Any]]:
        """An internal request to one worker (stats, pings); None on
        death, disconnect, or timeout."""
        if not worker.alive or worker.writer is None:
            return None
        self._tokens += 1
        token = f"fleet-{self._tokens}"
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Optional[Dict[str, Any]]]" = (
            loop.create_future()
        )
        request = dict(document)
        request["id"] = token
        self._pending[token] = _Pending(
            token=token, worker=worker.name, doc=request, future=future
        )
        try:
            worker.writer.write(
                (json.dumps(request) + "\n").encode("utf-8")
            )
            await worker.writer.drain()
        except (ConnectionError, OSError):
            self._pending.pop(token, None)
            await self._on_worker_down(worker)
            return None
        try:
            return await asyncio.wait_for(future, timeout)
        except asyncio.TimeoutError:
            self._pending.pop(token, None)
            return None

    # -- observability -----------------------------------------------------------------

    def stats_payload(self) -> Dict[str, Any]:
        """The supervisor-side fleet snapshot (no worker round trips)."""
        snapshot = self.metrics.snapshot()
        return {
            "protocol": PROTOCOL_VERSION,
            "fleet": True,
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
            "store_path": self.config.store_path,
            "workers": {
                name: {
                    "alive": worker.alive,
                    "pid": worker.proc.pid if worker.proc else None,
                    "restarts": worker.restarts,
                    "dispatches": worker.dispatches,
                    "breaker": self._breaker.state_of(name),
                }
                for name, worker in self.workers.items()
            },
        }

    async def _stats_response(self, request: Any) -> Dict[str, Any]:
        """The ``stats`` op: fleet snapshot plus per-worker snapshots."""
        payload = self.stats_payload()
        worker_stats: Dict[str, Any] = {}
        for name, worker in self.workers.items():
            if not worker.alive:
                worker_stats[name] = None
                continue
            response = await self._ask_worker(
                worker, {"op": "stats"}, timeout=2.0
            )
            worker_stats[name] = (
                response.get("stats")
                if response and response.get("ok")
                else None
            )
        payload["worker_stats"] = worker_stats
        return ok_response(request.request_id, stats=payload)

    async def _write_state(self) -> None:
        """Snapshot fleet state to disk, crash-atomically."""
        self._state_seq += 1
        state = {
            "seq": self._state_seq,
            "draining": self._draining,
            "store": self.config.store_path,
            "workers": {
                name: {
                    "alive": worker.alive,
                    "pid": worker.proc.pid if worker.proc else None,
                    "restarts": worker.restarts,
                    "socket": worker.socket_path,
                    "journal": worker.journal_path,
                    "breaker": self._breaker.state_of(name),
                }
                for name, worker in self.workers.items()
            },
        }
        path = Path(self.config.state_dir) / "fleet-state.json"
        text = json.dumps(state, indent=2, sort_keys=True)
        try:
            await asyncio.to_thread(atomic_write_text, path, text)
        except OSError:
            # State snapshots are advisory; a full disk must not take
            # the fleet down.
            self.metrics.counter("fleet.state_write_errors").increment()
