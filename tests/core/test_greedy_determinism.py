"""The greedy constructors are deterministic functions of (inputs, seed).

The compute layer's seed contract — equal seeds give equal repairs,
the service caches computed payloads by fingerprint — only holds if
the greedy constructor never leans on Python's per-process hash
randomization.  The in-process tests pin seed determinism; the
subprocess test is the regression guard for hash randomization, since
``PYTHONHASHSEED`` cannot change inside a running interpreter: the
same construction must print the same repair under wildly different
hash seeds, including set-typed ``prefer`` input (which the
implementation must canonicalize before ordering).

``greedy_completion_repair`` and ``compute_optimal_repair`` carry the
same contract across versions as well: the service's seed contract and
the persistent ``SqliteStore`` result cache both assume equal seeds give
equal repairs, so their printed repairs are pinned to golden outputs.
"""

from __future__ import annotations

import random
import subprocess
import sys
import textwrap

import pytest

from repro.core import Fact
from repro.core.repairs import greedy_repair
from tests.helpers import single_fd_schema, subprocess_env

pytestmark = pytest.mark.slow

_SCRIPT = textwrap.dedent(
    """
    import random

    from repro.core import Fact, Schema
    from repro.core.repairs import greedy_repair

    schema = Schema.single_relation(["1 -> 2"], arity=2)
    facts = [
        Fact("R", (key, value))
        for key in range(4)
        for value in ("a", "b", "c")
    ]
    instance = schema.instance(facts)
    # A *set* prefer: iteration order depends on the hash seed unless
    # greedy_repair canonicalizes it.
    prefer = {Fact("R", (2, "b")), Fact("R", (0, "c")), Fact("R", (3, "a"))}
    for seed in (0, 1, 7):
        repair = greedy_repair(
            schema, instance, random.Random(seed), prefer=prefer
        )
        print(seed, sorted(map(str, repair)))
    """
)


_COMPLETION_SCRIPT = textwrap.dedent(
    """
    import random
    from itertools import product

    from repro.compute import compute_optimal_repair
    from repro.core import Fact, PrioritizingInstance, PriorityRelation, Schema
    from repro.core.checking import greedy_completion_repair
    from repro.core.conflicts import conflicting_pairs

    CASES = (
        (["1 -> 2"], product(range(6), range(4))),
        (["1 -> 2", "2 -> 1"], product(range(5), range(5))),
        (["1 -> 2", "2 -> 3"], product(range(3), range(3), range(3))),
    )
    for fds, rows in CASES:
        rows = list(rows)
        schema = Schema.single_relation(fds, arity=len(rows[0]))
        instance = schema.instance([Fact("R", row) for row in rows])
        # Orient conflicting pairs along a seeded order of the facts.
        # Pairs sort as fact tuples, which (unlike the str of a
        # frozenset) does not depend on the hash seed.
        rng = random.Random(3)
        order = sorted(instance.facts, key=str)
        rng.shuffle(order)
        position = {fact: index for index, fact in enumerate(order)}
        pairs = sorted(
            sorted(pair, key=position.__getitem__)
            for pair in conflicting_pairs(schema, instance)
        )
        edges = [tuple(pair) for pair in pairs if rng.random() < 0.7]
        pri = PrioritizingInstance(schema, instance, PriorityRelation(edges))
        for seed in (0, 1, 7):
            greedy = greedy_completion_repair(pri, random.Random(seed))
            computed = compute_optimal_repair(
                pri, semantics="global", rng=random.Random(seed)
            )
            print(len(fds), seed, " ".join(sorted(map(str, greedy))))
            print(len(fds), seed, " ".join(sorted(map(str, computed.repair))))
    """
)

# Recorded from an earlier version of the construction: a change here
# breaks seeded repairs that older versions cached or journaled.
_COMPLETION_GOLDEN = """\
1 0 R(0, 1) R(1, 2) R(2, 1) R(3, 2) R(4, 0) R(5, 1)
1 0 R(0, 1) R(1, 2) R(2, 1) R(3, 2) R(4, 0) R(5, 1)
1 1 R(0, 1) R(1, 2) R(2, 1) R(3, 2) R(4, 0) R(5, 1)
1 1 R(0, 1) R(1, 2) R(2, 1) R(3, 2) R(4, 0) R(5, 1)
1 7 R(0, 2) R(1, 2) R(2, 1) R(3, 2) R(4, 0) R(5, 1)
1 7 R(0, 2) R(1, 2) R(2, 1) R(3, 2) R(4, 0) R(5, 1)
2 0 R(0, 0) R(1, 1) R(2, 4) R(3, 3) R(4, 2)
2 0 R(0, 0) R(1, 1) R(2, 4) R(3, 3) R(4, 2)
2 1 R(0, 0) R(1, 1) R(2, 4) R(3, 3) R(4, 2)
2 1 R(0, 0) R(1, 1) R(2, 4) R(3, 3) R(4, 2)
2 7 R(0, 3) R(1, 1) R(2, 4) R(3, 0) R(4, 2)
2 7 R(0, 3) R(1, 1) R(2, 4) R(3, 0) R(4, 2)
2 0 R(0, 1, 2) R(1, 0, 0) R(2, 2, 0)
2 0 R(0, 1, 2) R(1, 0, 0) R(2, 2, 0)
2 1 R(0, 2, 0) R(1, 0, 0) R(2, 2, 0)
2 1 R(0, 2, 0) R(1, 0, 0) R(2, 2, 0)
2 7 R(0, 2, 0) R(1, 0, 0) R(2, 2, 0)
2 7 R(0, 2, 0) R(1, 0, 0) R(2, 2, 0)
"""

_HASH_SEEDS = ("0", "1", "12345", "random")


def _run_under_hash_seed(hash_seed, script=_SCRIPT):
    env = subprocess_env()
    env["PYTHONHASHSEED"] = hash_seed
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_greedy_repair_identical_across_hash_seeds():
    outputs = {
        hash_seed: _run_under_hash_seed(hash_seed) for hash_seed in _HASH_SEEDS
    }
    baseline = outputs["0"]
    assert baseline.strip(), "script produced no output"
    assert all(out == baseline for out in outputs.values()), outputs


def test_completion_repairs_match_golden_across_hash_seeds():
    for hash_seed in _HASH_SEEDS:
        output = _run_under_hash_seed(hash_seed, _COMPLETION_SCRIPT)
        assert output == _COMPLETION_GOLDEN, (hash_seed, output)


def test_greedy_repair_same_seed_same_repair_in_process():
    schema = single_fd_schema()
    facts = [Fact("R", (k, v)) for k in range(5) for v in "ab"]
    instance = schema.instance(facts)
    prefer = {Fact("R", (1, "b")), Fact("R", (4, "a"))}
    runs = [
        greedy_repair(schema, instance, random.Random(13), prefer=prefer)
        for _ in range(3)
    ]
    assert len({frozenset(r.facts) for r in runs}) == 1


def test_greedy_repair_distinct_seeds_explore():
    """Different seeds reach more than one repair on a two-block toy."""
    schema = single_fd_schema()
    facts = [Fact("R", (k, v)) for k in range(3) for v in "ab"]
    instance = schema.instance(facts)
    seen = {
        frozenset(
            greedy_repair(schema, instance, random.Random(seed)).facts
        )
        for seed in range(16)
    }
    assert len(seen) > 1
