"""In-process daemon tests: one event loop, real sockets, no subprocess.

Each test runs its own ``asyncio.run`` with a :class:`RepairServer`
bound to an ephemeral TCP port (or a tmp unix socket) and a minimal
async line client, so protocol behaviour — pipelining, admission,
drain, supervision — is exercised without subprocess boot cost.
"""

from __future__ import annotations

import asyncio
import json
import time

import pytest

from repro.exceptions import UsageError
from repro.io import prioritizing_to_dict
from repro.server import RepairServer, ServerConfig
from repro.service import FaultPlan, FaultyRunner, RepairService

from tests.helpers import (
    INT_DIGIT_LIMIT,
    OVERLONG_INT_PING,
    simple_problem_bundle,
    single_fd_schema,
)


class LineClient:
    """A minimal async NDJSON client over an open stream pair."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def connect(cls, address):
        if isinstance(address, str):
            reader, writer = await asyncio.open_unix_connection(address)
        else:
            reader, writer = await asyncio.open_connection(*address)
        return cls(reader, writer)

    async def send(self, document):
        self.writer.write((json.dumps(document) + "\n").encode())
        await self.writer.drain()

    async def send_raw(self, text):
        self.writer.write((text + "\n").encode())
        await self.writer.drain()

    async def recv(self):
        line = await asyncio.wait_for(self.reader.readline(), timeout=30)
        assert line, "daemon closed the connection unexpectedly"
        return json.loads(line)

    async def request(self, document):
        await self.send(document)
        return await self.recv()

    async def close(self):
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def serve(scenario, server=None):
    """Start ``server``, run ``scenario(server, client)``, drain."""
    server = server or RepairServer(config=ServerConfig(port=0))

    async def main():
        await server.start()
        client = await LineClient.connect(server.address)
        try:
            return await scenario(server, client)
        finally:
            await client.close()
            server.request_drain()
            await server.wait_drained()

    return asyncio.run(main())


def check_document(request_id, candidate, **extra):
    prioritizing, _, _ = simple_problem_bundle(single_fd_schema())
    document = {
        "op": "check",
        "id": request_id,
        "problem": prioritizing_to_dict(prioritizing),
        "candidate": candidate,
    }
    document.update(extra)
    return document


# -- config --------------------------------------------------------------------------


def test_config_requires_exactly_one_transport():
    with pytest.raises(UsageError):
        ServerConfig()  # neither
    with pytest.raises(UsageError):
        ServerConfig(socket_path="/tmp/x.sock", port=4000)  # both


# -- control plane -------------------------------------------------------------------


def test_ping_stats_and_drain_op():
    async def scenario(server, client):
        pong = await client.request({"op": "ping", "id": 1})
        assert pong == {"id": 1, "ok": True, "pong": True, "protocol": 1}
        stats = await client.request({"op": "stats"})
        assert stats["ok"]
        body = stats["stats"]
        assert body["draining"] is False
        assert body["counters"]["server.connections"] == 1
        assert body["counters"]["server.requests"] == 2
        assert "server.rejected_overload" in body["counters"]
        assert body["uptime"] >= 0
        # A drain *request* is acknowledged before the drain happens.
        acked = await client.request({"op": "drain", "id": "bye"})
        assert acked == {"id": "bye", "ok": True, "draining": True}

    serve(scenario)


def test_classify_both_sides_of_the_dichotomy():
    async def scenario(server, client):
        easy = await client.request(
            {"op": "classify", "schema_spec": "R:2; 1 -> 2"}
        )
        assert easy["ok"]
        assert easy["classical"]["tractable"] is True
        hard = await client.request(
            {"op": "classify", "schema_spec": "R:3; 1 -> 2; 2 -> 3"}
        )
        assert hard["ok"]
        assert hard["classical"]["tractable"] is False
        assert "description" in hard["classical"]
        assert "tractable" in hard["ccp"]
        bad = await client.request(
            {"op": "classify", "schema_spec": "this is not a schema"}
        )
        assert not bad["ok"]
        assert bad["error"]["code"] == "bad-request"

    serve(scenario)


# -- the check path ------------------------------------------------------------------


def test_check_verdicts_and_result_cache():
    async def scenario(server, client):
        optimal = await client.request(check_document("a", [0]))
        rejected = await client.request(check_document("b", [1]))
        verdicts = {
            response["id"]: response["result"]["is_optimal"]
            for response in (optimal, rejected)
        }
        assert set(verdicts.values()) == {True, False}
        # Same question again: answered from the warm result cache.
        again = await client.request(check_document("c", [0]))
        assert (
            again["result"]["is_optimal"] == verdicts["a"]
        )
        stats = (await client.request({"op": "stats"}))["stats"]
        assert stats["counters"]["cache.hits"] >= 1
        # One problem document, three checks: parsed once, memoized.
        assert stats["problem_cache"]["hits"] >= 2

    serve(scenario)


def test_pipelined_responses_match_by_id():
    async def scenario(server, client):
        # Fire both checks and a ping before reading anything; the ping
        # is answered inline on the event loop, checks on worker
        # threads — responses may interleave, ids disambiguate.
        await client.send(check_document("slow-1", [0]))
        await client.send(check_document("slow-2", [1]))
        await client.send({"op": "ping", "id": "fast"})
        responses = {}
        for _ in range(3):
            response = await client.recv()
            responses[response["id"]] = response
        assert set(responses) == {"slow-1", "slow-2", "fast"}
        assert responses["fast"]["pong"] is True
        assert responses["slow-1"]["result"]["is_optimal"] is True
        assert responses["slow-2"]["result"]["is_optimal"] is False

    serve(scenario)


def test_bad_lines_answered_without_dropping_the_connection():
    async def scenario(server, client):
        garbage = await client.request({"op": "frobnicate"})
        assert not garbage["ok"]
        assert garbage["error"]["code"] == "bad-request"
        await client.send_raw("this is not json")
        not_json = await client.recv()
        assert not_json["error"]["code"] == "bad-request"
        # A well-formed envelope whose problem document is rotten fails
        # as bad-request too — from the worker, with the id echoed.
        rotten = await client.request(
            {
                "op": "check",
                "id": "rot",
                "problem": {"nope": 1},
                "candidate": [0],
            }
        )
        assert rotten["id"] == "rot"
        assert rotten["error"]["code"] == "bad-request"
        # The connection survived all three.
        assert (await client.request({"op": "ping"}))["pong"] is True
        stats = (await client.request({"op": "stats"}))["stats"]
        assert stats["counters"]["server.bad_requests"] == 3

    serve(scenario)


@pytest.mark.parametrize(
    "line, reason",
    [
        ('{"op": "ping", "id": ' + "[" * 1000 + "]" * 1000 + "}", "nested"),
        pytest.param(
            OVERLONG_INT_PING,
            "digits",
            marks=pytest.mark.skipif(
                not INT_DIGIT_LIMIT, reason="no int-to-str digit limit"
            ),
        ),
    ],
    ids=["deep-nesting", "overlong-int"],
)
def test_undecodable_line_answered_and_pipeline_survives(line, reason):
    async def scenario(server, client):
        # Both lines go out before anything is read: the ping queued
        # behind the bad line must still be answered on this connection.
        await client.send_raw(line)
        await client.send({"op": "ping", "id": "after"})
        bad = await client.recv()
        assert bad["error"]["code"] == "bad-request"
        assert reason in bad["error"]["message"]
        pong = await client.recv()
        assert pong["id"] == "after" and pong["pong"] is True

    serve(scenario)


def test_oversized_line_rejected_and_connection_closed():
    server = RepairServer(
        config=ServerConfig(port=0, max_line_bytes=1024)
    )

    async def scenario(server, client):
        await client.send_raw("x" * 4096)
        response = await client.recv()
        assert response["error"]["code"] == "bad-request"
        assert "1024" in response["error"]["message"]
        # The stream is no longer framed: the daemon hangs up.
        assert await client.reader.readline() == b""

    serve(scenario, server=server)


def test_internal_error_is_contained_and_counted():
    server = RepairServer(config=ServerConfig(port=0))

    def boom(job):
        raise RuntimeError("wires crossed")

    server.service.run_job = boom

    async def scenario(server, client):
        response = await client.request(check_document("x", [0]))
        assert response["error"]["code"] == "internal"
        # The message is generic: internals don't leak to the wire.
        assert "wires crossed" not in response["error"]["message"]
        # The daemon survives and keeps serving.
        assert (await client.request({"op": "ping"}))["pong"] is True
        stats = (await client.request({"op": "stats"}))["stats"]
        assert stats["counters"]["server.internal_errors"] == 1

    serve(scenario, server=server)


# -- admission and drain -------------------------------------------------------------


def slow_service(slow_seconds=0.5):
    """A service whose every execution sleeps: keeps workers busy."""
    return RepairService(
        runner=FaultyRunner(
            plan=FaultPlan(
                seed=1,
                slow_rate=1.0,
                slow_seconds=slow_seconds,
                max_faults_per_job=1,
            )
        )
    )


def test_overload_rejected_explicitly_never_queued():
    server = RepairServer(
        service=slow_service(),
        config=ServerConfig(port=0, max_inflight=1, queue_limit=0),
    )

    async def scenario(server, client):
        # Three pipelined checks with distinct fingerprints against
        # capacity 1: one runs (slowly), two are rejected immediately.
        for index in range(3):
            await client.send(
                check_document(f"j{index}", [0], budget=10_000 + index)
            )
        responses = [await client.recv() for _ in range(3)]
        by_outcome = {"ok": [], "overloaded": []}
        for response in responses:
            if response["ok"]:
                by_outcome["ok"].append(response)
            else:
                assert response["error"]["code"] == "overloaded"
                assert "retry" in response["error"]["message"]
                by_outcome["overloaded"].append(response)
        assert len(by_outcome["ok"]) == 1
        assert len(by_outcome["overloaded"]) == 2
        stats = (await client.request({"op": "stats"}))["stats"]
        assert stats["counters"]["server.rejected_overload"] == 2
        assert stats["counters"]["server.accepted"] == 1

    serve(scenario, server=server)


def test_draining_daemon_rejects_new_checks_but_answers_control():
    async def scenario(server, client):
        server.request_drain()
        refused = await client.request(check_document("late", [0]))
        assert refused["error"]["code"] == "draining"
        # Control ops stay up so operators can watch the drain.
        stats = await client.request({"op": "stats"})
        assert stats["stats"]["draining"] is True
        assert (
            stats["stats"]["counters"]["server.rejected_draining"] == 1
        )

    serve(scenario)


def test_drain_finishes_inflight_work_before_closing():
    server = RepairServer(
        service=slow_service(slow_seconds=0.3),
        config=ServerConfig(port=0),
    )

    async def main():
        await server.start()
        client = await LineClient.connect(server.address)
        await client.send(check_document("inflight", [0]))
        # Give the check a moment to be admitted, then drain mid-job.
        await asyncio.sleep(0.1)
        started = time.monotonic()
        drain_task = asyncio.create_task(server.drain())
        response = await client.recv()
        stats = await drain_task
        assert response["id"] == "inflight"
        assert response["ok"], response
        assert response["result"]["is_optimal"] is True
        # The drain waited for the slow job instead of dropping it.
        assert time.monotonic() - started >= 0.1
        assert stats["draining"] is True
        assert stats["counters"]["server.accepted"] == 1
        await client.close()

    asyncio.run(main())


def test_unix_socket_transport_and_stale_socket_cleanup(tmp_path):
    socket_path = str(tmp_path / "repro.sock")
    # A stale file from a killed daemon must not break the next boot.
    with open(socket_path, "w") as handle:
        handle.write("")
    server = RepairServer(config=ServerConfig(socket_path=socket_path))

    async def scenario(server, client):
        assert server.address == socket_path
        assert (await client.request({"op": "ping"}))["pong"] is True
        response = await client.request(check_document("u", [0]))
        assert response["result"]["is_optimal"] is True

    serve(scenario, server=server)


def test_drain_joins_worker_pool_off_the_event_loop():
    """Regression for an RL101 finding: ``wait_drained`` used to call
    ``self._pool.shutdown(wait=True)`` directly on the event loop,
    joining worker threads where a wedged worker would freeze control
    ops for every connected client.  The join must run on a helper
    thread."""
    import threading

    server = RepairServer(config=ServerConfig(port=0))
    observed = {}

    async def scenario(server, client):
        assert (await client.request({"op": "ping"}))["pong"] is True
        observed["loop_thread"] = threading.get_ident()
        pool = server._pool
        original = pool.shutdown

        def recording_shutdown(wait=True, **kwargs):
            observed.setdefault("shutdown_threads", []).append(
                (threading.get_ident(), wait)
            )
            return original(wait=wait, **kwargs)

        pool.shutdown = recording_shutdown

    serve(scenario, server=server)
    joins = [
        ident
        for ident, wait in observed["shutdown_threads"]
        if wait
    ]
    assert joins, "drain never joined the worker pool"
    assert all(ident != observed["loop_thread"] for ident in joins)


def test_stale_socket_unlink_runs_off_the_event_loop(tmp_path, monkeypatch):
    """Regression for the companion RL101 finding in ``start()``: the
    stale-socket ``os.unlink`` is file I/O and must not run on the
    event loop either."""
    import threading

    socket_path = str(tmp_path / "repro.sock")
    with open(socket_path, "w") as handle:
        handle.write("")

    import os as os_module

    original_unlink = os_module.unlink
    observed = {"unlinks": []}

    def recording_unlink(path, *args, **kwargs):
        if str(path) == socket_path:
            observed["unlinks"].append(threading.get_ident())
        return original_unlink(path, *args, **kwargs)

    monkeypatch.setattr(os_module, "unlink", recording_unlink)
    server = RepairServer(config=ServerConfig(socket_path=socket_path))

    async def scenario(server, client):
        observed["loop_thread"] = threading.get_ident()
        assert (await client.request({"op": "ping"}))["pong"] is True

    serve(scenario, server=server)
    assert observed["unlinks"], "stale socket was never unlinked"
    assert all(
        ident != observed["loop_thread"] for ident in observed["unlinks"]
    )
