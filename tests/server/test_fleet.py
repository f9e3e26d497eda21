"""Fleet supervisor units: config, fault plans, backoff determinism,
and an in-process fleet lifecycle drill.

The heavier chaos drills (SIGKILL under load, wedged heartbeats, torn
stores, breaker-opening crash loops) live in ``test_fleet_chaos.py``;
this module covers the deterministic building blocks and the happy
path: boot N real workers, route real jobs, aggregate stats, drain.
"""

from __future__ import annotations

import asyncio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import UsageError
from repro.server import FleetConfig, FleetSupervisor, HashRing
from repro.service import FleetFaultPlan, parse_fleet_fault_spec
from repro.service.resilience import RetryPolicy

from tests.helpers import INT_DIGIT_LIMIT, OVERLONG_INT_PING
from tests.server.fleet_helpers import (
    fleet_problem,
    optimal_candidate,
    routing_key,
)

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


class TestFleetConfig:
    def test_requires_exactly_one_transport(self, tmp_path):
        with pytest.raises(UsageError):
            FleetConfig(state_dir=str(tmp_path))
        with pytest.raises(UsageError):
            FleetConfig(
                state_dir=str(tmp_path), port=0, socket_path="/tmp/x.sock"
            )

    def test_requires_state_dir(self):
        with pytest.raises(UsageError):
            FleetConfig(port=0, state_dir="")

    def test_rejects_bad_shapes(self, tmp_path):
        state = str(tmp_path)
        with pytest.raises(UsageError):
            FleetConfig(workers=0, port=0, state_dir=state)
        with pytest.raises(UsageError):
            FleetConfig(port=0, state_dir=state, heartbeat_interval=0)
        with pytest.raises(UsageError):
            FleetConfig(port=0, state_dir=state, heartbeat_misses=0)

    def test_store_path_defaults_under_state_dir(self, tmp_path):
        config = FleetConfig(port=0, state_dir=str(tmp_path))
        assert config.store_path == str(tmp_path / "store.sqlite")
        explicit = FleetConfig(
            port=0, state_dir=str(tmp_path), store="/elsewhere/s.sqlite"
        )
        assert explicit.store_path == "/elsewhere/s.sqlite"
        disabled = FleetConfig(
            port=0, state_dir=str(tmp_path), share_store=False
        )
        assert disabled.store_path is None

    def test_worker_names_are_ring_nodes(self, tmp_path):
        config = FleetConfig(workers=3, port=0, state_dir=str(tmp_path))
        assert config.worker_names() == ["w0", "w1", "w2"]
        supervisor = FleetSupervisor(config)
        assert sorted(supervisor.ring.nodes) == ["w0", "w1", "w2"]


class TestFleetFaultPlan:
    def test_kill_fires_exactly_at_the_ordinal(self):
        plan = FleetFaultPlan(kills={"w1": 3})
        assert not plan.should_kill("w1", 2)
        assert plan.should_kill("w1", 3)
        assert not plan.should_kill("w1", 4)
        assert not plan.should_kill("w0", 3)

    def test_wedge_window(self):
        plan = FleetFaultPlan(wedges={"w2": (3, 4)})
        assert not plan.wedged("w2", 2)
        for beat in range(3, 7):
            assert plan.wedged("w2", beat)
        assert not plan.wedged("w2", 7)
        assert not plan.wedged("w0", 3)

    def test_validation(self):
        with pytest.raises(UsageError):
            FleetFaultPlan(kills={"w0": 0})
        with pytest.raises(UsageError):
            FleetFaultPlan(wedges={"w0": (0, 2)})
        with pytest.raises(UsageError):
            FleetFaultPlan(wedges={"w0": (1, 0)})

    def test_parse_spec(self):
        plan = parse_fleet_fault_spec("kill=1@5,wedge=2@3x4")
        assert plan.kills == {"w1": 5}
        assert plan.wedges == {"w2": (3, 4)}

    def test_parse_spec_wedge_count_defaults_to_one(self):
        assert parse_fleet_fault_spec("wedge=1@2").wedges == {"w1": (2, 1)}

    def test_parse_spec_rejects_garbage(self):
        for spec in ("kill=", "boom=1@2", "kill=1", "kill=x@1", "wedge=0@0"):
            with pytest.raises(UsageError):
                parse_fleet_fault_spec(spec)


class TestRestartBackoffDeterminism:
    """The satellite property test: the supervisor's restart delays are
    a pure function of (seed, worker, attempt) — two supervisors with
    the same seed walk byte-identical backoff sequences, which is what
    makes the chaos drills reproducible."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        worker=st.sampled_from(["w0", "w1", "w2", "w3"]),
        attempts=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_sequence_identical_across_runs(self, seed, worker, attempts):
        first = RetryPolicy(0.05, 2.0, seed=seed)
        second = RetryPolicy(0.05, 2.0, seed=seed)
        sequence = [first.delay(worker, n) for n in range(1, attempts + 1)]
        replay = [second.delay(worker, n) for n in range(1, attempts + 1)]
        assert sequence == replay

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        attempt=st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_delay_within_jitter_bound(self, seed, attempt):
        policy = RetryPolicy(0.05, 2.0, seed=seed)
        delay = policy.delay("w0", attempt)
        assert 0.0 <= delay <= policy.bound(attempt) <= 2.0

    def test_workers_get_distinct_jitter(self):
        # Full jitter must decorrelate workers: identical attempt
        # numbers on different workers should not synchronize their
        # restarts (that would stampede the host).
        policy = RetryPolicy(0.05, 2.0, seed=7)
        delays = {
            worker: policy.delay(worker, 4)
            for worker in ("w0", "w1", "w2", "w3")
        }
        assert len(set(delays.values())) > 1


class TestRoutingDeterminism:
    def test_routing_key_matches_problem_digest(self, tmp_path):
        supervisor = FleetSupervisor(
            FleetConfig(workers=4, port=0, state_dir=str(tmp_path))
        )
        problem = fleet_problem()
        document = {"op": "check", "problem": problem, "candidate": []}
        key = supervisor._routing_key(document)
        assert key == routing_key(problem)
        # Same problem, different op or candidate: same placement.
        other = {
            "op": "count",
            "problem": problem,
            "candidate": [1],
            "query": {},
        }
        assert supervisor._routing_key(other) == key
        assert supervisor.ring.owner(key) == HashRing(
            ["w0", "w1", "w2", "w3"]
        ).owner(key)


@pytest.mark.slow
class TestFleetLifecycle:
    def test_boot_route_stats_drain(self, tmp_path):
        async def drill():
            supervisor = FleetSupervisor(
                FleetConfig(
                    workers=2,
                    port=0,
                    state_dir=str(tmp_path),
                    heartbeat_interval=0.25,
                )
            )
            await supervisor.start()
            host, port = supervisor.address
            reader, writer = await asyncio.open_connection(host, port)

            async def ask(document):
                writer.write((json.dumps(document) + "\n").encode())
                await writer.drain()
                return json.loads(await reader.readline())

            pong = await ask({"op": "ping", "id": 1})
            assert pong["ok"] and pong["fleet"] == 2

            problem = fleet_problem()
            check = await ask(
                {
                    "op": "check",
                    "id": "c1",
                    "problem": problem,
                    "candidate": optimal_candidate(),
                }
            )
            assert check["ok"], check
            assert check["result"]["is_optimal"] is True

            # Bad requests are rejected at the front door with the same
            # protocol errors a single daemon produces.
            bad = await ask({"op": "nope", "id": "b"})
            assert bad["ok"] is False
            assert bad["error"]["code"] == "bad-request"
            # Lines the JSON decoder itself rejects (too deep; an integer
            # past the digit limit) keep the connection: the ping
            # pipelined behind each one is still answered.
            nested = "[" * 1000 + "]" * 1000
            undecodable = ['{"op": "ping", "id": ' + nested + "}"]
            if INT_DIGIT_LIMIT:
                undecodable.append(OVERLONG_INT_PING)
            for line in undecodable:
                writer.write(f'{line}\n{{"op": "ping", "id": "p"}}\n'.encode())
                await writer.drain()
                bad = json.loads(await reader.readline())
                assert bad["error"]["code"] == "bad-request"
                pong = json.loads(await reader.readline())
                assert pong["id"] == "p" and pong["pong"] is True

            classify = await ask(
                {"op": "classify", "id": "k", "schema_spec": "R:2; 1 -> 2"}
            )
            assert classify["ok"], classify

            stats = await ask({"op": "stats", "id": "s"})
            payload = stats["stats"]
            assert payload["fleet"] is True
            assert set(payload["workers"]) == {"w0", "w1"}
            assert all(
                entry["alive"] for entry in payload["workers"].values()
            )
            assert payload["counters"]["fleet.dispatched"] >= 2
            # Per-worker snapshots arrive through the same protocol.
            assert set(payload["worker_stats"]) == {"w0", "w1"}

            writer.close()
            final = await supervisor.drain()
            assert final["draining"] is True
            assert final["counters"]["fleet.worker_deaths"] == 0
            for worker in supervisor.workers.values():
                assert worker.proc.returncode == 0

            state = json.loads(
                (tmp_path / "fleet-state.json").read_text()
            )
            assert state["draining"] is True
            assert set(state["workers"]) == {"w0", "w1"}

        asyncio.run(drill())

    def test_draining_fleet_rejects_new_jobs(self, tmp_path):
        async def drill():
            supervisor = FleetSupervisor(
                FleetConfig(workers=2, port=0, state_dir=str(tmp_path))
            )
            await supervisor.start()
            host, port = supervisor.address
            reader, writer = await asyncio.open_connection(host, port)

            async def ask(document):
                writer.write((json.dumps(document) + "\n").encode())
                await writer.drain()
                return json.loads(await reader.readline())

            supervisor.request_drain()
            refused = await ask(
                {
                    "op": "check",
                    "id": "late",
                    "problem": fleet_problem(),
                    "candidate": optimal_candidate(),
                }
            )
            assert refused["ok"] is False
            assert refused["error"]["code"] == "draining"
            writer.close()
            await supervisor.wait_drained()

        asyncio.run(drill())
