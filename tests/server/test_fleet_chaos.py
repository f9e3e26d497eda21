"""Fleet chaos drills: kills, wedges, crash loops, and torn stores.

The acceptance bar for the fleet: under deterministic fault injection
(SIGKILL a worker mid-load, wedge a heartbeat, corrupt the persistent
store) the fleet must keep answering, its verdicts must not diverge by
a byte from a single-daemon reference run, warm results must survive
worker death through the shared store, and a worker that keeps dying
must trip its circuit breaker instead of restart-looping forever.
"""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro.exceptions import TransientWorkerError
from repro.server import FleetConfig, FleetSupervisor, RepairServer, ServerConfig
from repro.service import FleetFaultPlan

from tests.server.fleet_helpers import (
    fleet_problem,
    non_optimal_candidate,
    optimal_candidate,
    response_verdict,
    routing_key,
)

pytestmark = [
    pytest.mark.slow,
    pytest.mark.filterwarnings("ignore::ResourceWarning"),
]

#: Problem salts used for the load mix; spread across workers by hash.
SALTS = list(range(6))


async def _connect(address):
    host, port = address
    return await asyncio.open_connection(host, port)


async def _ask(reader, writer, document):
    writer.write((json.dumps(document) + "\n").encode())
    await writer.drain()
    return json.loads(await reader.readline())


def _load_mix():
    """The request mix both the fleet and the reference daemon run."""
    documents = []
    for salt in SALTS:
        problem = fleet_problem(salt)
        documents.append(
            {
                "op": "check",
                "id": f"opt-{salt}",
                "problem": problem,
                "candidate": optimal_candidate(salt),
            }
        )
        documents.append(
            {
                "op": "check",
                "id": f"non-{salt}",
                "problem": problem,
                "candidate": non_optimal_candidate(salt),
            }
        )
    return documents


async def _single_daemon_verdicts(documents):
    """Run the mix against one in-process daemon: the reference."""
    server = RepairServer(config=ServerConfig(port=0))
    await server.start()
    try:
        reader, writer = await _connect(server.address)
        verdicts = {}
        for document in documents:
            response = await _ask(reader, writer, document)
            assert response["ok"], response
            verdicts[document["id"]] = response_verdict(response)
        writer.close()
        return verdicts
    finally:
        server.request_drain()
        await server.wait_drained()


async def _wait_until(condition, timeout=30.0, interval=0.05):
    """Poll ``condition()`` on the loop until true or ``timeout``."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not condition():
        if loop.time() >= deadline:
            raise AssertionError("condition not reached in time")
        await asyncio.sleep(interval)


class TestKillUnderLoad:
    def test_sigkill_mid_load_zero_verdict_divergence(self, tmp_path):
        """The headline drill: a worker is SIGKILLed right after a job
        is dispatched to it; the fleet's verdicts (including the job
        the kill strands) stay byte-identical to a single daemon's."""

        async def drill():
            documents = _load_mix()
            reference = await _single_daemon_verdicts(documents)

            # Kill the owner of salt 0's problem on its 1st dispatch.
            victim = FleetSupervisor(
                FleetConfig(workers=4, port=0, state_dir=str(tmp_path))
            ).ring.owner(routing_key(fleet_problem(0)))
            supervisor = FleetSupervisor(
                FleetConfig(
                    workers=4,
                    port=0,
                    state_dir=str(tmp_path),
                    heartbeat_interval=0.25,
                    restart_base=0.02,
                    restart_cap=0.2,
                    stable_after=0.2,
                    fault_plan=FleetFaultPlan(kills={victim: 1}),
                )
            )
            await supervisor.start()
            try:
                reader, writer = await _connect(supervisor.address)
                verdicts = {}
                for document in documents:
                    response = await _ask(reader, writer, document)
                    assert response["ok"], response
                    verdicts[document["id"]] = response_verdict(response)

                assert verdicts == reference  # zero divergence

                counters = supervisor.metrics.snapshot()["counters"]
                assert counters["fleet.worker_deaths"] >= 1
                assert counters["fleet.redispatched"] >= 1
                assert counters["fleet.unavailable"] == 0

                # The victim restarts and serves its problems again —
                # warmly, through the shared persistent store (the
                # failover worker computed and persisted them).
                await _wait_until(
                    lambda: supervisor.workers[victim].alive
                )
                warm = await _ask(reader, writer, documents[0])
                assert warm["ok"], warm
                assert response_verdict(warm) == reference["opt-0"]
                assert warm["result"]["cache_hit"] is True

                writer.close()
            finally:
                final = await supervisor.drain()
            assert final["counters"]["fleet.restarts"] >= 1
            # Drained workers exit 0 — including the restarted victim.
            for worker in supervisor.workers.values():
                if worker.proc is not None and worker.alive:
                    assert worker.proc.returncode == 0

        asyncio.run(drill())


class TestWedgedHeartbeat:
    def test_wedged_worker_is_escalated_and_restarted(self, tmp_path):
        async def drill():
            supervisor = FleetSupervisor(
                FleetConfig(
                    workers=2,
                    port=0,
                    state_dir=str(tmp_path),
                    heartbeat_interval=0.2,
                    heartbeat_misses=2,
                    restart_base=0.02,
                    restart_cap=0.2,
                    stable_after=0.2,
                    fault_plan=FleetFaultPlan(wedges={"w0": (2, 2)}),
                )
            )
            await supervisor.start()
            try:
                # Beats 2 and 3 go unanswered; at miss 2 the supervisor
                # declares w0 wedged, SIGKILLs it, and restarts it.
                await _wait_until(
                    lambda: supervisor.workers["w0"].restarts >= 1
                )
                counters = supervisor.metrics.snapshot()["counters"]
                assert counters["fleet.heartbeat_escalations"] >= 1
                assert counters["fleet.worker_deaths"] >= 1

                # The recovered fleet still answers correctly.
                reader, writer = await _connect(supervisor.address)
                response = await _ask(
                    reader,
                    writer,
                    {
                        "op": "check",
                        "id": "after",
                        "problem": fleet_problem(),
                        "candidate": optimal_candidate(),
                    },
                )
                assert response["ok"], response
                assert response["result"]["is_optimal"] is True
                writer.close()
            finally:
                await supervisor.drain()

        asyncio.run(drill())


class TestCrashLoopBreaker:
    def test_killing_the_same_worker_twice_opens_its_breaker(
        self, tmp_path
    ):
        """The satellite drill: two SIGKILLs of the same worker (with
        no stable uptime in between) must open its circuit breaker and
        stop the restart loop until the reset window."""

        async def drill():
            supervisor = FleetSupervisor(
                FleetConfig(
                    workers=2,
                    port=0,
                    state_dir=str(tmp_path),
                    heartbeat_interval=0.2,
                    restart_base=0.02,
                    restart_cap=0.1,
                    worker_breaker_threshold=2,
                    worker_breaker_reset=60.0,
                    stable_after=60.0,  # never counts as recovered
                )
            )
            await supervisor.start()
            try:
                target = supervisor.workers["w0"]
                target.proc.kill()
                await _wait_until(lambda: target.restarts >= 1)
                # One death is below the threshold: still closed.
                assert supervisor._breaker.state_of("w0") == "closed"
                target.proc.kill()
                await _wait_until(
                    lambda: supervisor._breaker.state_of("w0") == "open"
                )
                # The breaker holds the worker down: no further restart
                # lands while it is open.
                await asyncio.sleep(0.5)
                assert target.restarts == 1
                assert not target.alive

                # The survivor keeps the fleet serving: jobs owned by
                # the dead worker fail over on dispatch.
                reader, writer = await _connect(supervisor.address)
                for salt in SALTS:
                    response = await _ask(
                        reader,
                        writer,
                        {
                            "op": "check",
                            "id": f"s{salt}",
                            "problem": fleet_problem(salt),
                            "candidate": optimal_candidate(salt),
                        },
                    )
                    assert response["ok"], response
                writer.close()
            finally:
                await supervisor.drain()

        asyncio.run(drill())


class TestTornStore:
    def test_fleet_heals_a_torn_store_and_keeps_serving(self, tmp_path):
        """A garbage store file (a torn tail that ate the header) must
        cost recomputation, never availability: the workers quarantine
        it on open and the fleet serves fresh, correct verdicts."""

        async def drill():
            store_path = tmp_path / "store.sqlite"
            store_path.write_bytes(b"\xff not a database \x00" * 256)
            supervisor = FleetSupervisor(
                FleetConfig(workers=2, port=0, state_dir=str(tmp_path))
            )
            await supervisor.start()
            try:
                reader, writer = await _connect(supervisor.address)
                response = await _ask(
                    reader,
                    writer,
                    {
                        "op": "check",
                        "id": "healed",
                        "problem": fleet_problem(),
                        "candidate": optimal_candidate(),
                    },
                )
                assert response["ok"], response
                assert response["result"]["is_optimal"] is True
                # The damaged bytes were quarantined, not served.
                quarantine = tmp_path / "store.sqlite.corrupt"
                assert quarantine.exists()
                assert b"not a database" in quarantine.read_bytes()
                writer.close()
            finally:
                await supervisor.drain()

        asyncio.run(drill())

    def test_results_survive_a_full_fleet_restart(self, tmp_path):
        """Warm verdicts outlive every process: a brand-new fleet over
        the same state dir serves the previous fleet's results as
        cache hits."""

        async def run_fleet(expect_warm):
            supervisor = FleetSupervisor(
                FleetConfig(workers=2, port=0, state_dir=str(tmp_path))
            )
            await supervisor.start()
            try:
                reader, writer = await _connect(supervisor.address)
                response = await _ask(
                    reader,
                    writer,
                    {
                        "op": "check",
                        "id": "x",
                        "problem": fleet_problem(3),
                        "candidate": optimal_candidate(3),
                    },
                )
                assert response["ok"], response
                assert response["result"]["cache_hit"] is expect_warm
                writer.close()
                return response_verdict(response)
            finally:
                await supervisor.drain()

        async def drill():
            cold = await run_fleet(expect_warm=False)
            warm = await run_fleet(expect_warm=True)
            assert warm == cold

        asyncio.run(drill())


class TestDrainDuringRestart:
    def test_drain_reaps_a_worker_spawned_after_its_restart_was_cancelled(
        self, tmp_path
    ):
        """A drain cancels a pending restart, but cancelling the await
        does not stop a spawn already running on its thread.  The
        process that spawn starts must still be gone once the drain
        returns."""
        entered = threading.Event()
        release = threading.Event()
        spawned = []

        async def drill():
            supervisor = FleetSupervisor(
                FleetConfig(
                    workers=1,
                    port=0,
                    state_dir=str(tmp_path),
                    heartbeat_interval=5.0,
                    restart_base=0.01,
                    restart_cap=0.02,
                )
            )
            spawn = supervisor._spawn_sync

            def gated_spawn(worker):
                if spawned:
                    # A respawn: hold it before Popen until the drill
                    # has started the drain.
                    entered.set()
                    release.wait(30)
                proc = spawn(worker)
                spawned.append(proc)
                return proc

            supervisor._spawn_sync = gated_spawn
            await supervisor.start()
            supervisor.workers["w0"].proc.kill()
            await _wait_until(entered.is_set)
            supervisor.request_drain()
            drain = asyncio.create_task(supervisor.wait_drained())
            # Let the drain cancel the restart, then let the spawn run.
            await asyncio.sleep(0.5)
            release.set()
            await drain
            await _wait_until(lambda: len(spawned) == 2)

        try:
            asyncio.run(drill())
            assert [proc.poll() is not None for proc in spawned] == [
                True, True
            ]
        finally:
            release.set()
            _kill_leftovers(spawned)


class TestFailedBoot:
    def test_a_worker_that_misses_its_boot_timeout_is_reaped(self, tmp_path):
        spawned = []

        async def drill():
            supervisor = FleetSupervisor(
                FleetConfig(
                    workers=1,
                    port=0,
                    state_dir=str(tmp_path),
                    boot_timeout=0.001,
                )
            )
            spawn = supervisor._spawn_sync

            def recorded_spawn(worker):
                spawned.append(spawn(worker))
                return spawned[-1]

            supervisor._spawn_sync = recorded_spawn
            with pytest.raises(TransientWorkerError, match="did not accept"):
                await supervisor.start()

        try:
            asyncio.run(drill())
            assert [proc.poll() is not None for proc in spawned] == [True]
        finally:
            _kill_leftovers(spawned)


def _kill_leftovers(processes):
    """Keep a failing drill from leaking its workers."""
    for proc in processes:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
