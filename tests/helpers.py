"""Shared test helpers: builders, strategies, and subprocess plumbing.

One home for the constructions every corner of the suite had grown its
own copy of — prioritizing-instance builders, the standard schemas,
hypothesis row strategies, the hard-problem generator, and the
subprocess environment used by the CLI/daemon end-to-end drills.
``tests/conftest.py`` re-exports the fixture-shaped pieces; import the
rest from here directly.
"""

from __future__ import annotations

import json
import os
import random
import sys
from pathlib import Path
from typing import Dict, List

from hypothesis import strategies as st

from repro.core import (
    Fact,
    Instance,
    PrioritizingInstance,
    PriorityRelation,
    Schema,
)
from repro.core.improvements import is_global_improvement
from repro.core.repairs import greedy_repair

#: Repository root and the importable source tree, for subprocess tests.
REPO_ROOT = Path(__file__).resolve().parents[1]
REPO_SRC = REPO_ROOT / "src"

PYTHON = sys.executable

#: The interpreter's int-to-str digit limit, 0 when it has none (before
#: CPython 3.11 and its security backports) or it is switched off.
#: ``json.loads`` raises a plain ValueError on a longer integer literal.
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()

#: A ping whose id is an integer literal past that limit.
OVERLONG_INT_PING = (
    '{"op": "ping", "id": ' + "1" * (INT_DIGIT_LIMIT + 700) + "}"
)


def subprocess_env() -> Dict[str, str]:
    """A copy of the environment with ``src`` importable, for driving
    ``python -m repro.cli`` as a real child process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC)
    return env


# -- the suite's standard schemas ----------------------------------------------------


def single_fd_schema() -> Schema:
    """A binary relation with the key FD ``1 → 2`` (tractable)."""
    return Schema.single_relation(["1 -> 2"], arity=2)


def two_keys_schema() -> Schema:
    """A binary relation with keys ``1 → 2`` and ``2 → 1`` (tractable)."""
    return Schema.single_relation(["1 -> 2", "2 -> 1"], arity=2)


def hard_schema() -> Schema:
    """The chain schema ``{1 → 2, 2 → 3}`` (= S4, coNP-complete)."""
    return Schema.single_relation(["1 -> 2", "2 -> 3"], arity=3)


# -- builders ------------------------------------------------------------------------


def make_pri(
    schema: Schema,
    facts,
    edges,
    ccp: bool = False,
) -> PrioritizingInstance:
    """Shorthand prioritizing-instance builder for tests."""
    instance = schema.instance(facts)
    return PrioritizingInstance(
        schema, instance, PriorityRelation(edges), ccp=ccp
    )


def make_instance(schema: Schema, rows) -> Instance:
    """Rows-of-values → :class:`Instance` over a single-relation schema."""
    relation = next(iter(schema.signature)).name
    arity = schema.signature.arity(relation)
    facts = [Fact(relation, tuple(row[:arity])) for row in rows]
    return schema.instance(facts)


def rows(arity: int, alphabet_size: int = 3, max_rows: int = 7):
    """Hypothesis strategy: lists of value rows over a tiny alphabet.

    The small alphabet keeps conflict density high — random wide values
    would almost never violate an FD and the tests would exercise
    nothing.
    """
    cell = st.integers(min_value=0, max_value=alphabet_size - 1)
    return st.lists(
        st.tuples(*([cell] * arity)), min_size=1, max_size=max_rows
    )


def simple_problem_bundle(schema: Schema):
    """A tiny single-FD problem: two conflicting facts, ``f ≻ g``.

    Returns ``(prioritizing, optimal_candidate, non_optimal_candidate)``.
    """
    f, g = Fact("R", (1, "a")), Fact("R", (1, "b"))
    prioritizing = make_pri(schema, [f, g], [(f, g)])
    return (
        prioritizing,
        schema.instance([f]),
        schema.instance([g]),
    )


def hard_problem(n_facts: int = 40, conflict_rate: float = 0.7, seed: int = 1):
    """A coNP-hard-schema problem plus a greedy-repair candidate."""
    from repro.workloads.generators import random_instance_with_conflicts
    from repro.workloads.priorities import random_conflict_priority

    schema = hard_schema()
    instance = random_instance_with_conflicts(
        schema, n_facts, conflict_rate, seed=seed
    )
    priority = random_conflict_priority(schema, instance, seed=seed)
    prioritizing = PrioritizingInstance(schema, instance, priority)
    candidate = greedy_repair(schema, instance, random.Random(seed))
    return prioritizing, candidate


# -- assertions and projections ------------------------------------------------------


def assert_result_witness_valid(
    prioritizing: PrioritizingInstance,
    candidate: Instance,
    result,
) -> None:
    """Validate a negative CheckResult's improvement witness.

    Every checker that reports ``is_optimal=False`` with a witness must
    hand back a consistent subinstance of ``I`` that globally improves
    the candidate — this makes the algorithms self-certifying.
    """
    if result.is_optimal or result.improvement is None:
        return
    improvement = result.improvement
    assert improvement.facts <= prioritizing.instance.facts
    assert prioritizing.schema.is_consistent(improvement)
    assert is_global_improvement(
        improvement, candidate, prioritizing.priority
    )


def verdict_projection(results_path: Path) -> List[Dict]:
    """The deterministic slice of each JSONL result line (no durations).

    Two runs of the same jobs — batch or daemon, any concurrency, any
    cache temperature — must agree on exactly these fields.
    """
    rows_out = []
    for line in results_path.read_text().splitlines():
        record = json.loads(line)
        rows_out.append(verdict_of(record))
    return rows_out


def verdict_of(record: Dict) -> Dict:
    """The deterministic slice of one result record."""
    return {
        key: record[key]
        for key in (
            "job_id", "status", "is_optimal", "semantics",
            "method", "reason",
        )
    }
