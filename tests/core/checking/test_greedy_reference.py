"""``greedy_completion_repair`` against the rescan loop it replaced.

:func:`reference_greedy_completion_repair` is the original construction:
on every pick it re-scans all remaining facts for eligibility and
re-sorts the eligible ones by ``str`` — quadratic, and kept here only as
the reference, together with the fact-keyed forced-orientation closure
it ran on (:func:`reference_forced_dominators`).  The incremental
frontier must return exactly the reference's repair for every
(instance, priority, rng seed): both pick the same index into the same
``str``-sorted eligible sequence, so they consume the same RNG stream.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Fact, PrioritizingInstance, PriorityRelation
from repro.core.backend import BACKEND_BITSET, BACKEND_OBJECT
from repro.core.checking import (
    check_completion_optimal,
    enumerate_completion_optimal_repairs,
    greedy_completion_repair,
)
from repro.core.checking.completion import _forced_dominators
from repro.core.conflicts import conflicting_pairs
from repro.core.repairs import enumerate_repairs
from tests.helpers import (
    hard_schema,
    rows,
    single_fd_schema,
    two_keys_schema,
)

SCHEMAS = {
    "single-fd": single_fd_schema(),
    "two-keys": two_keys_schema(),
    "arity-3": hard_schema(),
}


def reference_forced_dominators(prioritizing):
    """The forced-orientation closure over facts, one DFS per ancestor."""
    adjacency = {}
    for better, worse in prioritizing.priority.edges:
        adjacency.setdefault(better, set()).add(worse)
    conflicts = prioritizing.conflict_index.adjacency()
    dominators = {fact: set() for fact in prioritizing.instance.facts}
    for ancestor in adjacency:
        stack = list(adjacency[ancestor])
        seen = set()
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            if node in conflicts[ancestor]:
                dominators[node].add(ancestor)
            stack.extend(adjacency.get(node, ()))
    return {fact: frozenset(doms) for fact, doms in dominators.items()}


def reference_greedy_completion_repair(prioritizing, rng):
    """The rescanning greedy: a full rescan and ``str`` sort per pick."""
    adjacency = prioritizing.conflict_index.adjacency()
    dominators = reference_forced_dominators(prioritizing)
    remaining = set(prioritizing.instance.facts)
    chosen = set()
    while remaining:
        eligible = [
            fact
            for fact in remaining
            if dominators[fact].isdisjoint(remaining)
        ]
        pick = rng.choice(sorted(eligible, key=str))
        chosen.add(pick)
        remaining.discard(pick)
        remaining -= adjacency[pick]
    return prioritizing.instance.subinstance(chosen)


def oriented_pairs(schema, instance, seed):
    """Every conflicting pair, oriented along a seeded order of facts."""
    order = sorted(instance.facts, key=str)
    random.Random(seed).shuffle(order)
    position = {fact: index for index, fact in enumerate(order)}
    return sorted(
        tuple(sorted(pair, key=position.__getitem__))
        for pair in conflicting_pairs(schema, instance)
    )


def hasse_edges(edges):
    """Drop every edge ``(u, v)`` bridged by a path ``u ≻ w ≻ v``.

    Reachability survives (the result lies between ``edges`` and their
    transitive reduction), so each dropped conflicting pair is an
    orientation that acyclicity forces transitively.
    """
    successors = {}
    for better, worse in edges:
        successors.setdefault(better, set()).add(worse)
    return [
        (better, worse)
        for better, worse in edges
        if not any(
            worse in successors.get(middle, ())
            for middle in successors[better]
        )
    ]


@st.composite
def problems(draw):
    """A small classical problem over one of the three schemas."""
    name = draw(st.sampled_from(sorted(SCHEMAS)))
    schema = SCHEMAS[name]
    arity = 3 if name == "arity-3" else 2
    instance = schema.instance(
        [Fact("R", row) for row in draw(rows(arity, max_rows=8))]
    )
    edges = oriented_pairs(schema, instance, draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        edges = hasse_edges(edges)
    keep = draw(st.lists(st.booleans(), min_size=len(edges),
                         max_size=len(edges)))
    edges = [edge for edge, kept in zip(edges, keep) if kept]
    return PrioritizingInstance(schema, instance, PriorityRelation(edges))


@settings(max_examples=150, deadline=None)
@given(problems(), st.integers(0, 2**32 - 1))
def test_greedy_returns_the_reference_repair(prioritizing, seed):
    rng, reference_rng = random.Random(seed), random.Random(seed)
    repair = greedy_completion_repair(prioritizing, rng)
    expected = reference_greedy_completion_repair(prioritizing, reference_rng)
    assert repair.facts == expected.facts
    # Same picks from the same sequences: the RNG streams stay in step.
    assert rng.random() == reference_rng.random()
    optimal = {r.facts for r in enumerate_completion_optimal_repairs(prioritizing)}
    assert expected.facts in optimal
    assert _forced_dominators(prioritizing) == reference_forced_dominators(
        prioritizing
    )


@settings(max_examples=100, deadline=None)
@given(problems())
def test_checker_backends_match_greedy_enumeration(prioritizing):
    optimal = {r.facts for r in enumerate_completion_optimal_repairs(prioritizing)}
    for candidate in enumerate_repairs(prioritizing.schema, prioritizing.instance):
        expected = candidate.facts in optimal
        for backend in (BACKEND_OBJECT, BACKEND_BITSET):
            result = check_completion_optimal(prioritizing, candidate, backend)
            assert result.is_optimal == expected
            assert (not result.reason) == expected


@pytest.mark.parametrize("length", [3, 5, 8])
def test_forced_chain_in_one_block(length):
    """A Hasse chain ``x0 ≻ x1 ≻ … ≻ xk`` inside one key block forces
    every pair, so the only completion-optimal repair is ``{x0}``."""
    schema = SCHEMAS["single-fd"]
    chain = [Fact("R", (0, f"x{index}")) for index in range(length)]
    priority = PriorityRelation(list(zip(chain, chain[1:])))
    prioritizing = PrioritizingInstance(
        schema, schema.instance(chain), priority
    )
    for seed in range(5):
        repair = greedy_completion_repair(prioritizing, random.Random(seed))
        assert repair.facts == {chain[0]}
    result = check_completion_optimal(
        prioritizing, schema.instance([chain[-1]]), BACKEND_OBJECT
    )
    assert not result.is_optimal
    assert result.reason == (
        f"no greedy run yields the candidate: {chain[-1]} stays "
        f"dominated by the un-discarded {chain[0]}"
    )
