"""The ``serve_mixed`` workload: one ``repro serve`` daemon, open loop.

One asyncio client on one connection offers a seeded exponential
arrival stream at each rung of a fixed ladder of absolute rates.  Each
request is timed from its *scheduled* send time, so a stall delays the
requests queued behind it in the measurement too; how late the
generator itself ran is reported and bounded.

The mix spans the dichotomy — single FD, two keys, Pareto checks at
arity 3, and cross-conflict (ccp) priorities on the coNP-hard side with
a node budget — over ``check``, ``repair`` and ``count`` requests,
with problem sizes on both sides of the core's 1,024-fact backend
threshold.  About half of the requests repeat an earlier one (result
cache hits); the rest are fresh, and the run holds more distinct
problems than the daemon's 128-entry problem cache.

Every ``ok`` answer is compared with an in-process serial
``RepairService`` answering the same documents.
"""

from __future__ import annotations

import asyncio
import bisect
import graphlib
import json
import math
import os
import random
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from perfbench.stats import median, min_samples_for_tail, tail

#: Offered rates (requests/s), fixed once to bracket the knee.
LADDER = (50.0, 70.0, 90.0, 110.0, 130.0, 160.0, 200.0)
#: The rung whose latency is reported as the "mid" operating point,
#: chosen well below the knee (~90-110/s on a shared 2-core host).
MID_RUNG = 1
#: Requests per rung for each second of the run's ``--seconds``.
REQUESTS_PER_SECOND_OF_RUN = 10
#: The lowest rung, whose p50 is the headline latency, offers this many
#: times as many requests as the others: the host's speed swings for
#: seconds at a time, and a longer rung averages over more of them.
LOW_RUNG_SCALE = 2
#: The latency limit ``max_rps`` is judged by (p95, from the due time).
P95_LIMIT_MS = 100.0
#: A rung passes only with fewer failed requests than this share.
MAX_FAILED_FRAC = 0.01
#: A rung whose generator ran later than this at p95 is invalid.
GEN_LATE_LIMIT_MS = 10.0
#: Share of requests that repeat an earlier request.
REPEAT_SHARE = 0.5
#: A repeat targets a request scheduled at least this long before it,
#: so at rates below the knee its answer is already cached.
REPEAT_MIN_AGE_S = 1.0
#: Node budget sent with every coNP-hard (ccp) check.
CCP_BUDGET = 5000
#: A rung whose last answer arrives later than this after its last
#: due time left a growing backlog behind.
BACKLOG_LIMIT_MS = 250.0
#: Seconds to wait for a rung's last answers before counting them lost.
RESPONSE_TIMEOUT_S = 30.0
#: Daemon set-up samples a run takes at least: the serving daemon, one
#: probe after each rung, and probes after the ladder to make up the
#: rest, so that the samples span the run rather than one moment of it.
SETUP_SAMPLES = 8

ANNOUNCE = re.compile(r"repro serve: listening on \('127\.0\.0\.1', (\d+)\)")

#: (name, schema spec, ccp, ops, sizes, size weights)
FAMILIES = (
    ("single_fd", "R:2; 1 -> 2", False, ("check", "repair", "count"),
     (16, 64, 256), (5, 4, 2)),
    ("two_keys", "R:2; 1 -> 2; 2 -> 1", False, ("check", "repair"),
     (16, 64, 256), (5, 4, 2)),
    ("pareto3", "R:3; 1 -> 2; 2 -> 3", False, ("check", "repair"),
     (16, 64, 256), (5, 4, 2)),
    ("ccp_hard", "R:2; 1 -> 2; 2 -> 1", True, ("check",),
     (8, 12, 16), (1, 1, 1)),
)
FAMILY_WEIGHTS = (4, 3, 2, 1)
#: Every LARGE_EVERY-th new problem is a single-FD or two-keys problem
#: of LARGE_SIZE facts, above the core's 1,024-fact backend threshold.
#: They get no ``repair`` requests: one greedy construction there takes
#: 0.2-0.7 s, which alone would set the p95 of every rung.
LARGE_EVERY = 50
LARGE_SIZE = 1100
LARGE_FACTS = 1024
#: Share of fresh requests that bring a problem never sent before.
NEW_PROBLEM_SHARE = 0.5


@dataclass
class Problem:
    family: str
    ccp: bool
    semantics: str
    document: Dict[str, Any]
    facts: int
    prioritizing: Any
    canonical: List[Any] = field(default_factory=list)


@dataclass
class Request:
    key: Tuple
    op: str
    problem: int
    fields: Dict[str, Any]
    repeat: bool = False


@dataclass
class Sent:
    request: Request
    due: float
    sent: float = 0.0
    received: Optional[float] = None
    response: Optional[Dict[str, Any]] = None


# -- the request mix -----------------------------------------------------------


class Deck:
    """Draws items in shuffled rounds of a fixed multiset, so every
    stretch of the stream has nearly the designed composition and
    seeds differ in order and content, not in proportions."""

    def __init__(self, items: List[Any], rng: random.Random) -> None:
        self.items = items
        self.rng = rng
        self.pending: List[Any] = []

    def draw(self) -> Any:
        if not self.pending:
            self.pending = list(self.items)
            self.rng.shuffle(self.pending)
        return self.pending.pop()


def _build_problem(family, size: int, seed: int) -> Problem:
    from repro.core.priority import PrioritizingInstance
    from repro.io import instance_to_list, parse_schema_spec, prioritizing_to_dict
    from repro.workloads.generators import random_instance_with_conflicts
    from repro.workloads.priorities import random_ccp_priority, random_conflict_priority

    name, spec, ccp = family[:3]
    schema = parse_schema_spec(spec)
    instance = random_instance_with_conflicts(schema, size, 0.6, seed=seed)
    if ccp:
        priority = random_ccp_priority(schema, instance, seed=seed)
    else:
        priority = random_conflict_priority(schema, instance, seed=seed)
    prioritizing = PrioritizingInstance(schema, instance, priority, ccp=ccp)
    canonical = [
        (entry["relation"], tuple(entry["values"]))
        for entry in instance_to_list(instance)
    ]
    return Problem(
        family=name,
        ccp=ccp,
        semantics="pareto" if name == "pareto3" else "global",
        document=prioritizing_to_dict(prioritizing),
        facts=len(instance),
        prioritizing=prioritizing,
        canonical=canonical,
    )


def _candidate(problem: Problem, variant: int) -> List[int]:
    """Canonical indices of a repair: variant 0 inserts facts greedily in
    a linear extension of the priority (an optimal repair on the
    tractable side), later variants in a seeded random order."""
    from repro.core.repairs import greedy_repair

    prioritizing = problem.prioritizing
    prefer = None
    if variant == 0:
        sorter = graphlib.TopologicalSorter()
        for fact in sorted(prioritizing.instance.facts, key=str):
            sorter.add(fact)
        for better, worse in prioritizing.priority.edges:
            sorter.add(worse, better)
        prefer = list(sorter.static_order())
    repair = greedy_repair(
        prioritizing.schema, prioritizing.instance,
        random.Random(variant), prefer=prefer,
    )
    position = {fact: index for index, fact in enumerate(problem.canonical)}
    return sorted(position[(f.relation, tuple(f.values))] for f in repair)


def _fresh_fields(problem: Problem, op: str, variant: int,
                  rng: random.Random) -> Dict[str, Any]:
    if op == "check":
        fields: Dict[str, Any] = {
            "candidate": _candidate(problem, variant),
            "semantics": problem.semantics,
        }
        if problem.ccp:
            fields["budget"] = CCP_BUDGET
        return fields
    if op == "repair":
        return {"semantics": problem.semantics, "seed": variant}
    relation, values = problem.canonical[rng.randrange(len(problem.canonical))]
    return {
        "query": {
            "head": [],
            "body": [
                {"relation": relation,
                 "terms": [{"const": value} for value in values]}
            ],
        },
        "semantics": "global",
    }


class Mix:
    """The run's request stream, built one rung at a time from the seed.

    Repeats target fresh requests due at least :data:`REPEAT_MIN_AGE_S`
    earlier, in the same rung or an earlier one.
    """

    def __init__(self, seed: int) -> None:
        self.rng = rng = random.Random(f"serve_mixed|{seed}")
        self.problems: List[Problem] = []
        self.variants: Dict[Tuple[int, str], int] = {}
        self.dues: List[float] = []  # due times of self.fresh, ascending
        self.fresh: List[Request] = []
        self.clock = 0.0
        repeats = round(20 * REPEAT_SHARE)
        self.repeat_deck = Deck([True] * repeats + [False] * (20 - repeats), rng)
        new = round(20 * NEW_PROBLEM_SHARE)
        self.new_deck = Deck([True] * new + [False] * (20 - new), rng)
        self.shape_deck = Deck(
            [
                (family, size)
                for family, family_weight in zip(FAMILIES, FAMILY_WEIGHTS)
                for size, size_weight in zip(family[4], family[5])
                for _ in range(family_weight * size_weight)
            ],
            rng,
        )
        self.op_decks = {family[0]: Deck(list(family[3]), rng) for family in FAMILIES}

    def rung(self, rate: float, count: int) -> List[Tuple[float, Request]]:
        """``count`` arrivals at ``rate``: ``(due offset in s, Request)``."""
        rng = self.rng
        rung = []
        offset = 0.0
        for _ in range(count):
            offset += -math.log(1.0 - rng.random()) / rate
            due = self.clock + offset
            eligible = bisect.bisect_right(self.dues, due - REPEAT_MIN_AGE_S)
            if eligible and self.repeat_deck.draw():
                target = self.fresh[rng.randrange(eligible)]
                request = Request(
                    target.key, target.op, target.problem, target.fields,
                    repeat=True,
                )
            else:
                request = self._fresh_request()
                self.dues.append(due)
                self.fresh.append(request)
            rung.append((offset, request))
        self.clock += offset
        return rung

    def _fresh_request(self) -> Request:
        rng = self.rng
        problems = self.problems
        if not problems or self.new_deck.draw():
            if len(problems) % LARGE_EVERY == LARGE_EVERY // 2:
                family = FAMILIES[len(problems) // LARGE_EVERY % 2]
                size = LARGE_SIZE
            else:
                family, size = self.shape_deck.draw()
            problems.append(_build_problem(family, size, rng.randrange(2**31)))
            index = len(problems) - 1
        else:
            index = rng.randrange(len(problems))
        problem = problems[index]
        op = self.op_decks[problem.family].draw()
        if op == "repair" and problem.facts > LARGE_FACTS:
            op = "check"
        variant = self.variants.get((index, op), 0)
        self.variants[(index, op)] = variant + 1
        return Request(
            (index, op, variant), op, index,
            _fresh_fields(problem, op, variant, rng),
        )


def request_line(request: Request, problems: List[Problem], token: int) -> bytes:
    document = {
        "op": request.op,
        "id": token,
        "problem": problems[request.problem].document,
        **request.fields,
    }
    return (json.dumps(document) + "\n").encode()


# -- the in-process reference --------------------------------------------------


def _job(request: Request, problems: List[Problem], prioritizing):
    from repro.cqa.queries import query_from_dict
    from repro.service import ComputeJob, RepairJob
    from repro.service.batch_io import candidate_from_spec

    fields = request.fields
    job_id = "reference"
    if request.op == "check":
        return RepairJob(
            job_id=job_id,
            prioritizing=prioritizing,
            candidate=candidate_from_spec(prioritizing, fields["candidate"]),
            semantics=fields["semantics"],
            node_budget=fields.get("budget"),
        )
    if request.op == "repair":
        return ComputeJob(
            job_id=job_id, prioritizing=prioritizing, kind="repair",
            semantics=fields["semantics"], seed=fields["seed"],
        )
    return ComputeJob(
        job_id=job_id, prioritizing=prioritizing, kind="count",
        semantics=fields["semantics"], query=query_from_dict(fields["query"]),
    )


def verdict(op: str, result: Dict[str, Any]) -> Tuple:
    """The correctness-relevant projection of a result dict."""
    if op == "check":
        return (result["status"], result["is_optimal"], result["semantics"])
    return (result["status"], result["semantics"], json.dumps(
        result["payload"], sort_keys=True))


def reference(problems: List[Problem], rungs) -> Dict[Tuple, Tuple]:
    """Every distinct request answered by a serial in-process service."""
    from repro.io import prioritizing_from_dict
    from repro.service import RepairService, ServiceConfig

    service = RepairService(ServiceConfig(executor="serial"))
    parsed: Dict[int, Any] = {}
    expected: Dict[Tuple, Tuple] = {}
    for rung in rungs:
        for _, request in rung:
            if request.key in expected:
                continue
            if request.problem not in parsed:
                parsed[request.problem] = prioritizing_from_dict(
                    problems[request.problem].document
                )
            job = _job(request, problems, parsed[request.problem])
            if request.op == "check":
                result = service.run_job(job)
            else:
                result = service.run_compute(job)
            expected[request.key] = verdict(request.op, result.to_dict())
    return expected


# -- the daemon ----------------------------------------------------------------


def _daemon_env(root: Path, seed: int) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = str(seed)
    return env


def spawn_daemon(root: Path, seed: int) -> Tuple[subprocess.Popen, int, float]:
    """Spawn ``repro serve --port 0``; returns (process, port, setup_s),
    where ``setup_s`` runs from spawn to the answer of the first ping."""
    start = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
        cwd=root, env=_daemon_env(root, seed),
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    match = ANNOUNCE.match(process.stdout.readline())
    if not match:
        stop_daemon(process)
        raise RuntimeError("repro serve did not announce a port")
    port = int(match.group(1))
    asyncio.run(_ping(port))
    return process, port, time.perf_counter() - start


async def _ping(port: int) -> None:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(b'{"op": "ping", "id": 0}\n')
        await writer.drain()
        if not json.loads(await reader.readline()).get("ok"):
            raise RuntimeError("repro serve did not answer ping")
    finally:
        writer.close()
        await writer.wait_closed()


def setup_probe(root: Path, seed: int) -> float:
    """Spawn a daemon, stop it once it answered a ping; its ``setup_s``."""
    process, _, setup_s = spawn_daemon(root, seed)
    stop_daemon(process)
    return setup_s


def peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def stop_daemon(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
    try:
        process.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()


# -- the open loop -------------------------------------------------------------


class Client:
    """One connection; responses are timestamped on arrival and parsed
    only after the rung, so the reader stays cheap."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.token = 0

    async def stats(self) -> Dict[str, Any]:
        self.token += 1
        self.writer.write(
            (json.dumps({"op": "stats", "id": f"s{self.token}"}) + "\n").encode()
        )
        await self.writer.drain()
        return json.loads(await self.reader.readline())["stats"]

    async def rung(self, lines: List[Tuple[float, bytes, Request]]) -> Tuple[List[Sent], float]:
        """Offer one rung; returns the sent requests and the time from
        the last due time to the last answer."""
        arrivals: List[Tuple[float, bytes]] = []
        outstanding = len(lines)

        async def collect() -> None:
            nonlocal outstanding
            while outstanding:
                line = await self.reader.readline()
                if not line:
                    return
                arrivals.append((time.perf_counter(), line))
                outstanding -= 1

        collector = asyncio.create_task(collect())
        start = time.perf_counter() + 0.05
        sent: List[Sent] = []
        for offset, payload, request in lines:
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            record = Sent(request, due, time.perf_counter())
            # No drain per request: the generator must never wait on
            # the daemon, or the loop would close behind a stall.
            self.writer.write(payload)
            sent.append(record)
        await self.writer.drain()
        try:
            await asyncio.wait_for(collector, RESPONSE_TIMEOUT_S)
        except asyncio.TimeoutError:
            pass
        last_due = start + lines[-1][0]
        by_token = {}
        for received, line in arrivals:
            response = json.loads(line)
            by_token[response.get("id")] = (received, response)
        base = self.token
        for index, record in enumerate(sent):
            hit = by_token.get(base + index + 1)
            if hit is not None:
                record.received, record.response = hit
        self.token = base + len(sent)
        finished = max((r for r, _ in arrivals), default=last_due)
        return sent, finished - last_due


def _delta(after: Dict[str, Any], before: Dict[str, Any]) -> Dict[str, Any]:
    """Counter, histogram and cache deltas between two stats snapshots."""
    def hist(name_prefix: str) -> Tuple[int, float]:
        count = total = 0.0
        for name, data in after["histograms"].items():
            if not name.startswith(name_prefix):
                continue
            old = before["histograms"].get(name, {"count": 0, "sum": 0.0})
            count += data["count"] - old["count"]
            total += data["sum"] - old["sum"]
        return int(count), total

    def cache(name: str) -> Tuple[int, int]:
        return (
            after[name]["hits"] - before[name]["hits"],
            after[name]["misses"] - before[name]["misses"],
        )

    return {
        "exec": hist("latency."),
        "request": hist("server.request"),
        "result_cache": cache("result_cache"),
        "problem_cache": cache("problem_cache"),
        "rejected": after["counters"].get("server.rejected_overload", 0)
        - before["counters"].get("server.rejected_overload", 0),
    }


def judge(sent: List[Sent], expected: Dict[Tuple, Tuple]) -> Dict[str, Any]:
    """Latency, failures and correctness of one rung."""
    latencies, repeat, fresh, late, client = [], [], [], [], []
    failed = wrong = 0
    for record in sent:
        late.append(record.sent - record.due)
        response = record.response
        if response is None or not response.get("ok"):
            failed += 1
            continue
        result = response["result"]
        if result["status"] not in ("ok", "degraded"):
            failed += 1
            continue
        if (
            expected is not None
            and verdict(record.request.op, result) != expected[record.request.key]
        ):
            failed += 1
            wrong += 1
            continue
        latency = record.received - record.due
        latencies.append(latency)
        client.append(record.received - record.sent)
        (repeat if record.request.repeat else fresh).append(latency)
    return {
        "latencies": latencies,
        "repeat": repeat,
        "fresh": fresh,
        "late": late,
        "client": client,
        "failed": failed,
        "wrong": wrong,
        "attempted": len(sent),
    }


async def drive(port: int, pid: int, mix: Mix, per_rung: int,
                between_rungs) -> List[Dict[str, Any]]:
    """Climb the ladder until the first rung that fails the limit,
    calling ``between_rungs`` (in a thread) after each rung."""
    reader, writer = await asyncio.open_connection(
        "127.0.0.1", port, limit=1 << 24
    )
    client = Client(reader, writer)
    results = []
    try:
        before = await client.stats()
        for rate in LADDER:
            rung = mix.rung(
                rate, per_rung * (LOW_RUNG_SCALE if rate == LADDER[0] else 1)
            )
            lines = [
                (offset,
                 request_line(request, mix.problems, client.token + i + 1),
                 request)
                for i, (offset, request) in enumerate(rung)
            ]
            sent, drain_s = await client.rung(lines)
            after = await client.stats()
            outcome = judge(sent, None)
            outcome.update(
                rate=rate, rung=rung, sent=sent, drain_s=drain_s,
                stats=_delta(after, before),
                designed_repeats=sum(1 for _, r in rung if r.repeat),
            )
            results.append(outcome)
            before = after
            if len(results) == MID_RUNG + 1:
                # Peak memory after a fixed request set, not after however
                # many rungs this run climbs.
                outcome["rss_mb"] = peak_rss_mb(pid)
            if not passes(outcome):
                break
            await asyncio.to_thread(between_rungs)
        results[-1]["final_stats"] = before
    finally:
        writer.close()
        await writer.wait_closed()
    return results


# -- the run -------------------------------------------------------------------


def passes(rung: Dict[str, Any]) -> bool:
    p95 = tail(rung["latencies"], 0.95)
    return (
        p95 is not None
        and 1e3 * p95 <= P95_LIMIT_MS
        and rung["failed"] < MAX_FAILED_FRAC * rung["attempted"]
        and 1e3 * rung["drain_s"] <= BACKLOG_LIMIT_MS
    )


def knee(results: List[Dict[str, Any]]) -> Tuple[int, float]:
    """(index of the highest passing rung, the knee rate in requests/s).

    The ladder stops at its first failing rung.  The knee rate is where
    ``ln p95`` crosses the limit on a least-squares line through the
    last three rungs run; one 300-sample p95 per rung is too noisy to
    interpolate between two rungs alone.
    """
    top = len(results) - 1 if passes(results[-1]) else len(results) - 2
    if top < 0 or top == len(LADDER) - 1:
        return top, LADDER[top] if top >= 0 else 0.0
    points = [
        (rung["rate"], math.log(1e3 * tail(rung["latencies"], 0.95)))
        for rung in results[-3:]
        if tail(rung["latencies"], 0.95)
    ]
    n = len(points)
    mean_x = sum(x for x, _ in points) / n
    mean_y = sum(y for _, y in points) / n
    spread = sum((x - mean_x) ** 2 for x, _ in points)
    slope = (
        sum((x - mean_x) * (y - mean_y) for x, y in points) / spread
        if spread else 0.0
    )
    if slope <= 0:
        return top, LADDER[top]
    rate = mean_x + (math.log(P95_LIMIT_MS) - mean_y) / slope
    # The line may not leave the bracket the rungs themselves set.
    return top, min(max(rate, LADDER[top]), LADDER[top + 1])


def run(root: Path, seed: int, seconds: float, traced: bool) -> Dict[str, Any]:
    per_rung = max(
        min_samples_for_tail(0.95), round(REQUESTS_PER_SECOND_OF_RUN * seconds)
    )
    setup_probe(root, seed)  # warm-up: bytecode and page caches
    process, port, setup_s = spawn_daemon(root, seed)
    setups = [setup_s]
    mix = Mix(seed)
    began = time.perf_counter()
    try:
        results = asyncio.run(drive(
            port, process.pid, mix, per_rung,
            lambda: setups.append(setup_probe(root, seed)),
        ))
        rss = results[min(MID_RUNG, len(results) - 1)].get("rss_mb") or peak_rss_mb(process.pid)
    finally:
        stop_daemon(process)
    climbed = time.perf_counter()
    rungs = [rung["rung"] for rung in results]
    expected = reference(mix.problems, rungs)
    for rung in results:
        rung.update(judge(rung["sent"], expected))
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_probe(root, seed))
    print(f"serve_mixed: ladder (with mix building) {climbed - began:.1f} s, "
          f"reference {time.perf_counter() - climbed:.1f} s")
    return summarize(results, setups, rss, mix.problems, rungs, traced)


def _ms(values: List[float], q: float) -> float:
    """The ``q``-quantile in ms (median for 0.5); 0.0 when the sample
    is too small to carry that tail."""
    if q == 0.5:
        return 1e3 * median(values) if values else 0.0
    value = tail(values, q)
    return 1e3 * value if value is not None else 0.0


def summarize(results, setups, rss, problems, rungs, traced) -> Dict[str, Any]:
    top, max_rps = knee(results)
    low, mid = results[0], results[min(MID_RUNG, len(results) - 1)]
    operating = results[: max(top, 0) + 1]
    problems_ok: List[str] = []
    if top < 0:
        problems_ok.append("the lowest rung already misses the p95 limit")
    elif top == len(LADDER) - 1:
        problems_ok.append(
            f"max_rps is the top rung ({LADDER[-1]:g}/s): censored, the "
            "knee lies above the ladder"
        )
    wrong = sum(rung["wrong"] for rung in results)
    if wrong:
        problems_ok.append(f"{wrong} answer(s) differ from the reference")
    # The 1% share only decides where the ladder stops; at or below the
    # knee every request must succeed.
    failed = sum(rung["failed"] for rung in operating)
    if failed:
        problems_ok.append(
            f"{failed} request(s) failed on rungs at or below the knee"
        )
    late = [value for rung in operating for value in rung["late"]]
    gen_late_ms = _ms(late, 0.95) if late else 0.0
    if gen_late_ms > GEN_LATE_LIMIT_MS:
        problems_ok.append(
            f"the generator ran {gen_late_ms:.1f} ms late at p95 "
            f"(limit {GEN_LATE_LIMIT_MS:g} ms): the run is invalid"
        )
    hits = sum(rung["stats"]["result_cache"][0] for rung in operating)
    lookups = hits + sum(rung["stats"]["result_cache"][1] for rung in operating)
    designed = sum(rung["designed_repeats"] for rung in operating)
    attempted = sum(rung["attempted"] for rung in operating)
    hit_ratio = hits / lookups if lookups else 0.0
    if operating and abs(hit_ratio - designed / attempted) > 0.05:
        problems_ok.append(
            f"result-cache hit ratio {hit_ratio:.3f} does not match the "
            f"designed repeat share {designed / attempted:.3f}"
        )
    large = {p.facts > LARGE_FACTS for p in problems}
    if large != {True, False}:
        problems_ok.append("fresh problems do not straddle 1,024 facts")
    if len(problems) <= 128:
        problems_ok.append("no more distinct problems than the problem cache")

    for rung in results:
        p95 = tail(rung["latencies"], 0.95)
        print(
            f"  rung {rung['rate']:6.1f}/s  n={rung['attempted']:<4} "
            f"p50={_ms(rung['latencies'], 0.5):8.2f} ms  "
            f"p95={'%8.2f ms' % (1e3 * p95) if p95 is not None else '     n/a   '}  "
            f"failed={rung['failed']:<4} late p95={_ms(rung['late'], 0.95):6.2f} ms  "
            f"drain={1e3 * rung['drain_s']:8.2f} ms  "
            f"{'pass' if passes(rung) else 'FAIL'}"
        )
    for message in problems_ok:
        print(f"serve_mixed: {message}", file=sys.stderr)

    metrics = {
        "setup_s": median(setups),
        "peak_rss_mb": rss,
        "p50_ms": _ms(low["latencies"], 0.5),
        "throughput": max_rps,
    }
    counts = {
        "setup_s": len(setups),
        "peak_rss_mb": 1,
        "p50_ms": len(low["latencies"]),
        "throughput": len(results),
        "problems": len(problems),
        "large_problems": sum(1 for p in problems if p.facts > LARGE_FACTS),
    }
    layers: Dict[str, float] = {}
    if traced:
        exec_n, exec_sum = mid["stats"]["exec"]
        request_n, request_sum = mid["stats"]["request"]
        # ``latency.*`` is recorded only for executed jobs (cache misses),
        # ``server.request`` for every pooled request: exec_ms is a mean
        # per executed job, wait_ms a mean per request over one
        # denominator.
        exec_ms = 1e3 * exec_sum / exec_n if exec_n else 0.0
        request_ms = 1e3 * request_sum / request_n if request_n else 0.0
        wait_ms = 1e3 * (request_sum - exec_sum) / request_n if request_n else 0.0
        client_ms = 1e3 * sum(mid["client"]) / len(mid["client"])
        problem_hits = sum(r["stats"]["problem_cache"][0] for r in operating)
        problem_lookups = problem_hits + sum(
            r["stats"]["problem_cache"][1] for r in operating
        )
        final = results[-1]["final_stats"]
        layers = {
            "serve.p95_ms.low": _ms(low["latencies"], 0.95),
            "serve.p50_ms.mid": _ms(mid["latencies"], 0.5),
            "serve.p95_ms.mid": _ms(mid["latencies"], 0.95),
            "serve.max_rung_rps": LADDER[top] if top >= 0 else 0.0,
            "serve.gen_late_p95_ms": gen_late_ms,
            "service.exec_ms": exec_ms,
            "service.cache_hit_ratio": hit_ratio,
            "service.problem_cache_hit_ratio": (
                problem_hits / problem_lookups if problem_lookups else 0.0
            ),
            "service.repeat_p50_ms": _ms(low["repeat"], 0.5),
            "service.fresh_p50_ms": _ms(low["fresh"], 0.5),
            "server.request_ms": request_ms,
            "server.wait_ms": wait_ms,
            "server.transport_ms": client_ms - request_ms,
            "server.rejected": float(sum(r["stats"]["rejected"] for r in results)),
            "server.inflight_hwm": float(
                final["gauges"]["server.inflight"]["high_water"]
            ),
        }
        layers.update(replay(problems, rungs))
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": not problems_ok,
        "metrics": metrics,
        "layers": layers,
        "counts": counts,
    }


def replay(problems: List[Problem], rungs) -> Dict[str, float]:
    """Per-layer costs, replayed in-process over the run's distinct
    requests: mean milliseconds per call of each layer's public entry."""
    from repro.compute import compute_optimal_repair, count_repairs_entailing
    from repro.core.checking import (
        check_globally_optimal,
        check_globally_optimal_search,
        check_pareto_optimal,
    )
    from repro.cqa.queries import query_from_dict
    from repro.io import prioritizing_from_dict
    from repro.server.protocol import parse_request
    from repro.service.batch_io import candidate_from_spec
    from repro.service.fingerprint import (
        fingerprint_check_request,
        fingerprint_compute_request,
    )

    clock = time.perf_counter
    times: Dict[str, List[float]] = {}

    def timed(name: str, call, *args, **kwargs):
        start = clock()
        value = call(*args, **kwargs)
        times.setdefault(name, []).append(clock() - start)
        return value

    parsed: Dict[int, Any] = {}
    seen = set()
    for rung in rungs:
        for _, request in rung:
            if request.key in seen:
                continue
            seen.add(request.key)
            timed("server.parse_ms", parse_request,
                  request_line(request, problems, 0).decode())
            if request.problem not in parsed:
                parsed[request.problem] = timed(
                    "io.problem_ms", prioritizing_from_dict,
                    problems[request.problem].document,
                )
            prioritizing = parsed[request.problem]
            fields = request.fields
            if request.op == "check":
                candidate = timed(
                    "service.candidate_ms", candidate_from_spec,
                    prioritizing, fields["candidate"],
                )
                timed(
                    "service.fingerprint_ms", fingerprint_check_request,
                    prioritizing, candidate, fields["semantics"], "auto",
                    fields.get("budget", 100_000),
                )
                if fields["semantics"] == "pareto":
                    timed("core.check_ms", check_pareto_optimal,
                          prioritizing, candidate)
                elif prioritizing.is_ccp:
                    timed("core.check_ms", check_globally_optimal_search,
                          prioritizing, candidate,
                          node_budget=fields["budget"])
                else:
                    timed("core.check_ms", check_globally_optimal,
                          prioritizing, candidate)
            elif request.op == "repair":
                timed(
                    "service.fingerprint_ms", fingerprint_compute_request,
                    prioritizing, "repair", fields["semantics"], fields["seed"],
                    100_000,
                )
                timed("compute.repair_ms", compute_optimal_repair,
                      prioritizing, fields["semantics"],
                      random.Random(fields["seed"]))
            else:
                query = query_from_dict(fields["query"])
                timed(
                    "service.fingerprint_ms", fingerprint_compute_request,
                    prioritizing, "count", fields["semantics"], 0, 100_000,
                    query,
                )
                timed("compute.count_ms", count_repairs_entailing,
                      query, prioritizing, fields["semantics"])
    return {
        name: 1e3 * sum(values) / len(values) for name, values in times.items()
    }
