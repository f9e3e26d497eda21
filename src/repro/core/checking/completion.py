"""Completion-optimal repair checking and enumeration.

Staworko, Chomicki and Marcinkowski's third preference semantics, quoted
by the paper in Sections 1–3: a repair ``J`` is *completion-optimal* if
there is a completion ``≻'`` of the priority ``≻`` (an acyclic extension
that is total on conflicting pairs) such that ``J`` is globally-optimal
with respect to ``≻'``.  Completion-optimal repair checking is solvable
in polynomial time for every schema (their Corollary 4).

Their key characterization is operational: the completion-optimal repairs
are exactly the possible outputs of the *greedy* procedure that
repeatedly picks a remaining fact not dominated by any remaining fact
under the orientations **every** completion must contain — the raw
≻-edges plus the conflicting pairs whose orientation acyclicity forces
transitively (see :func:`_forced_dominators`) — commits it, and discards
the facts conflicting with it.  This module implements:

* :func:`check_completion_optimal` — the polynomial test, by a forced
  simulation of the greedy on ``J`` (correct because picking any eligible
  ``J``-fact never disables another: ``J`` is conflict-free, so a pick
  only ever *shrinks* the set of potential dominators);
* :func:`greedy_completion_repair` — one greedy run, yielding a
  completion-optimal repair;
* :func:`enumerate_completion_optimal_repairs` — all greedy outcomes
  (exponential; used for cross-validation on small instances);
* :func:`brute_force_completion_check` — the definitional test by
  enumeration of total completions (heavily exponential; tests only).

The construction and the object-path check share one eligibility
frontier (:class:`_Frontier`): each fact counts its forced dominators
still remaining, and a fact is eligible once its count reaches 0.
Past the forced-dominator closure itself, a construction costs one
``str`` sort of the facts plus work linear in facts, forced-dominator
edges and conflict edges, with ``bisect`` upkeep on the rank-sorted
eligible list.  The check needs no order, so it skips the sort.

The classical (conflict-only) setting is assumed throughout, matching
Staworko et al.'s definitions; ccp instances are rejected.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from itertools import product
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.core.backend import BACKEND_BITSET, resolve_backend
from repro.core.checking.brute_force import check_globally_optimal_brute_force
from repro.core.checking.result import CheckResult
from repro.core.checking.validation import precheck, precheck_bitset
from repro.core.fact import Fact
from repro.core.instance import Instance
from repro.core.interning import iter_bits
from repro.core.priority import PrioritizingInstance, PriorityRelation
from repro.exceptions import CyclicPriorityError, InvalidPriorityError

__all__ = [
    "check_completion_optimal",
    "greedy_completion_repair",
    "enumerate_completion_optimal_repairs",
    "brute_force_completion_check",
]

_METHOD = "greedy-simulation"


class _Frontier:
    """The facts a greedy run may pick next, kept current per commit.

    Facts are ranked by their position in ``facts``.  ``dominated[r]``
    lists the ranks every completion must place below rank ``r`` (see
    :func:`_forced_dominators`); each rank counts in ``blockers`` its
    forced dominators still in ``remaining``, and ``eligible`` lists, in
    ascending order, the remaining ranks whose count is 0.  Over a whole
    run, :meth:`commit` touches each conflict and forced-dominator edge
    a bounded number of times.
    """

    def __init__(
        self, prioritizing: PrioritizingInstance, facts: List[Fact]
    ) -> None:
        rank = {fact: index for index, fact in enumerate(facts)}
        adjacency = prioritizing.conflict_index.adjacency()
        successors: List[List[int]] = [[] for _ in facts]
        for better, worse in prioritizing.priority.edges:
            successors[rank[better]].append(rank[worse])
        dominated: List[List[int]] = [[] for _ in facts]
        blockers = [0] * len(facts)
        for ancestor, direct in enumerate(successors):
            if not direct:
                continue
            # Forward DFS: every rank reachable from `ancestor` along ≻
            # edges that also conflicts with it is forced below it.
            conflicts = adjacency[facts[ancestor]]
            stack = list(direct)
            seen: Set[int] = set()
            while stack:
                node = stack.pop()
                if node in seen:
                    continue
                seen.add(node)
                if facts[node] in conflicts:
                    dominated[ancestor].append(node)
                    blockers[node] += 1
                stack.extend(successors[node])
        self.facts = facts
        self.rank = rank
        self.adjacency = adjacency
        self.dominated = dominated
        self.blockers = blockers
        self.remaining = [True] * len(facts)
        self.eligible = [
            index for index, count in enumerate(blockers) if not count
        ]

    def commit(self, pick: int) -> List[int]:
        """Retire ``pick`` and its remaining conflict neighbours.

        Returns the ranks whose last remaining forced dominator just
        left, i.e. the ones this commit made eligible.
        """
        remaining, eligible, blockers = (
            self.remaining, self.eligible, self.blockers
        )
        left = [pick]
        neighbours = self.adjacency[self.facts[pick]]
        left.extend(
            other for other in map(self.rank.__getitem__, neighbours)
            if remaining[other]
        )
        for index in left:
            remaining[index] = False
            position = bisect_left(eligible, index)
            if position < len(eligible) and eligible[position] == index:
                del eligible[position]
        freed: List[int] = []
        for index in left:
            for worse in self.dominated[index]:
                blockers[worse] -= 1
                if not blockers[worse] and remaining[worse]:
                    insort(eligible, worse)
                    freed.append(worse)
        return freed

    def blocker_of(self, index: int) -> Fact:
        """The ``str``-least remaining forced dominator of rank ``index``."""
        return min(
            (
                self.facts[better]
                for better, worse in enumerate(self.dominated)
                if self.remaining[better] and index in worse
            ),
            key=str,
        )


def _forced_dominators(
    prioritizing: PrioritizingInstance,
) -> "dict[Fact, FrozenSet[Fact]]":
    """For each fact, the facts every completion must prefer to it.

    A completion ``≻'`` orients every conflicting pair while keeping the
    whole relation acyclic.  If ``g ≻⁺ f`` (a directed ≻-path, possibly
    through other facts) and ``g`` conflicts ``f``, then orienting
    ``f ≻' g`` would close the cycle ``f ≻' g ≻ ... ≻ f`` — so **every**
    completion has ``g ≻' f``.  Conversely, a conflicting pair with no
    connecting ≻-path can be oriented either way.  Raw edges alone miss
    the transitively forced orientations, which is exactly the trap the
    oracle conformance suite caught: domination during the greedy must
    use these forced dominators, not just ``priority.improvers_of``.

    Non-conflicting closure ancestors do *not* dominate: completions
    only add edges between conflicting facts, so they never become
    direct ≻'-edges.  The closure itself is computed in rank space by
    :class:`_Frontier`; this is its fact-keyed view.
    """
    facts = list(prioritizing.instance.facts)
    frontier = _Frontier(prioritizing, facts)
    dominators: "dict[Fact, Set[Fact]]" = {fact: set() for fact in facts}
    for better, worse_ranks in zip(facts, frontier.dominated):
        for worse in worse_ranks:
            dominators[facts[worse]].add(better)
    return {fact: frozenset(doms) for fact, doms in dominators.items()}


def _forced_dominators_bitset(prioritizing: PrioritizingInstance) -> List[int]:
    """:func:`_forced_dominators` in id space: one mask per fact id.

    Same forced-orientation argument, run over the interned ids: per
    priority ancestor, a forward DFS over the successor lists collects
    the ≻-reachable set as a mask, and one ``&`` with the ancestor's
    global conflict mask selects the facts whose orientation acyclicity
    forces below it.
    """
    core = prioritizing.bitset_core
    n = len(core.interner)
    successors: Dict[int, List[int]] = {}
    for better, worse in core.priority.edge_ids:
        successors.setdefault(better, []).append(worse)
    conflict_masks = core.index.conflict_masks()
    dominators = [0] * n
    for ancestor, direct in successors.items():
        stack = list(direct)
        seen: Set[int] = set()
        reachable = 0
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            reachable |= 1 << node
            stack.extend(successors.get(node, ()))
        ancestor_bit = 1 << ancestor
        for node in iter_bits(reachable & conflict_masks[ancestor]):
            dominators[node] |= ancestor_bit
    return dominators


def _check_completion_optimal_bitset(
    prioritizing: PrioritizingInstance, candidate: Instance
) -> CheckResult:
    """The greedy simulation of :func:`check_completion_optimal` on masks.

    ``remaining`` is one global bitmask; a commit clears the picked bit
    and its conflict-mask neighbours in a single ``&=``, and eligibility
    is ``dominators[fid] & remaining == 0``.
    """
    failure, view = precheck_bitset(
        prioritizing, candidate, "completion", _METHOD
    )
    if failure is not None:
        return failure
    core = prioritizing.bitset_core
    conflict_masks = core.index.conflict_masks()
    dominators = _forced_dominators_bitset(prioritizing)
    fact_of = core.interner.fact_of
    remaining = core.interner.full_mask
    to_pick: List[int] = list(view.fids)
    while to_pick:
        pick = next(
            (fid for fid in to_pick if not dominators[fid] & remaining),
            None,
        )
        if pick is None:
            blocked = to_pick[0]
            dominator = next(iter_bits(dominators[blocked] & remaining))
            return CheckResult(
                is_optimal=False,
                semantics="completion",
                method=_METHOD,
                reason=(
                    f"no greedy run yields the candidate: "
                    f"{fact_of(blocked)} stays dominated by the "
                    f"un-discarded {fact_of(dominator)}"
                ),
            )
        to_pick.remove(pick)
        remaining &= ~((1 << pick) | conflict_masks[pick])
    return CheckResult(is_optimal=True, semantics="completion", method=_METHOD)


def _reject_ccp(prioritizing: PrioritizingInstance) -> None:
    if prioritizing.is_ccp:
        raise InvalidPriorityError(
            "completion-optimal semantics is defined for classical "
            "(conflict-only) priorities; got a ccp-instance"
        )


def check_completion_optimal(
    prioritizing: PrioritizingInstance,
    candidate: Instance,
    backend: Optional[str] = None,
) -> CheckResult:
    """Decide whether ``candidate`` is a completion-optimal repair.

    Polynomial for every schema: simulates the greedy procedure, at each
    step committing an arbitrary eligible fact of ``candidate``
    (eligible = not dominated by any remaining *forced dominator*, see
    :func:`_forced_dominators` — raw ≻-edges plus the orientations that
    acyclicity forces transitively).  The simulation is complete because
    eligibility is monotone under commits: the blocking set only ever
    shrinks as facts leave ``remaining``, and committing a
    ``candidate``-fact removes only its conflict neighbours, none of
    which belong to the conflict-free ``candidate``.

    Examples
    --------
    >>> from repro.core import Schema, Fact, PriorityRelation
    >>> from repro.core import PrioritizingInstance
    >>> schema = Schema.single_relation(["1 -> 2"], arity=2)
    >>> f, g = Fact("R", (1, "a")), Fact("R", (1, "b"))
    >>> pri = PrioritizingInstance(
    ...     schema, schema.instance([f, g]), PriorityRelation([(f, g)])
    ... )
    >>> bool(check_completion_optimal(pri, schema.instance([g])))
    False
    """
    _reject_ccp(prioritizing)
    if resolve_backend(len(prioritizing.instance), backend) == BACKEND_BITSET:
        return _check_completion_optimal_bitset(prioritizing, candidate)
    failure = precheck(prioritizing, candidate, "completion", _METHOD)
    if failure is not None:
        return failure
    frontier = _Frontier(prioritizing, list(prioritizing.instance.facts))
    to_pick = {frontier.rank[fact] for fact in candidate.facts}
    # Commits of conflict-free candidate facts never retire another
    # candidate fact, so each one turns ready exactly once.
    ready = [index for index in to_pick if not frontier.blockers[index]]
    while ready:
        pick = ready.pop()
        to_pick.discard(pick)
        ready.extend(
            index for index in frontier.commit(pick) if index in to_pick
        )
    if to_pick:
        blocked = min(to_pick, key=lambda index: str(frontier.facts[index]))
        return CheckResult(
            is_optimal=False,
            semantics="completion",
            method=_METHOD,
            reason=(
                f"no greedy run yields the candidate: "
                f"{frontier.facts[blocked]} stays dominated by the "
                f"un-discarded {frontier.blocker_of(blocked)}"
            ),
        )
    # With all of the candidate committed, maximality (checked by
    # precheck) guarantees every leftover fact conflicted with a commit,
    # so the greedy run ends exactly at the candidate.
    return CheckResult(is_optimal=True, semantics="completion", method=_METHOD)


def greedy_completion_repair(
    prioritizing: PrioritizingInstance,
    rng: Optional[random.Random] = None,
) -> Instance:
    """One greedy run: a (randomly chosen) completion-optimal repair.

    Each pick is ``rng.choice`` over the eligible facts in ``str``
    order, so the repair depends only on the inputs and the state of
    ``rng`` — never on hash seeds or set iteration order.
    """
    _reject_ccp(prioritizing)
    rng = rng or random.Random(0)
    frontier = _Frontier(
        prioritizing, sorted(prioritizing.instance.facts, key=str)
    )
    chosen: List[Fact] = []
    # An acyclic relation restricted to a non-empty finite set always
    # has a maximal element, so `eligible` empties only with `remaining`.
    while frontier.eligible:
        pick = rng.choice(frontier.eligible)
        chosen.append(frontier.facts[pick])
        frontier.commit(pick)
    return prioritizing.instance.subinstance(chosen)


def enumerate_completion_optimal_repairs(
    prioritizing: PrioritizingInstance,
) -> Iterator[Instance]:
    """All completion-optimal repairs, via exhaustive greedy branching.

    Exponential in general; intended for cross-validation on small
    instances.  Branches only on picks that change the reachable state
    (the committed *set* determines the state, so we memoize on it).
    """
    _reject_ccp(prioritizing)
    adjacency = prioritizing.conflict_index.adjacency()
    dominators = _forced_dominators(prioritizing)
    seen_states: Set[FrozenSet[Fact]] = set()
    results: Set[FrozenSet[Fact]] = set()

    def explore(remaining: FrozenSet[Fact], chosen: FrozenSet[Fact]) -> None:
        if chosen in seen_states:
            return
        seen_states.add(chosen)
        if not remaining:
            results.add(chosen)
            return
        eligible = [
            fact
            for fact in remaining
            if dominators[fact].isdisjoint(remaining)
        ]
        for pick in eligible:
            explore(
                remaining - {pick} - adjacency[pick], chosen | {pick}
            )

    explore(frozenset(prioritizing.instance.facts), frozenset())
    for facts in results:
        yield prioritizing.instance.subinstance(facts)


def _orientations_of_unordered_conflicts(
    prioritizing: PrioritizingInstance,
) -> Iterator[PriorityRelation]:
    """Every completion of ``≻``: acyclic extensions total on conflicts."""
    pairs = frozenset(
        frozenset({f, g})
        for _, f, g in prioritizing.conflict_index.iter_conflicts()
    )
    priority = prioritizing.priority
    unordered: List[Tuple[Fact, Fact]] = []
    for pair in sorted(pairs, key=str):
        f, g = sorted(pair, key=str)
        if not (priority.prefers(f, g) or priority.prefers(g, f)):
            unordered.append((f, g))
    base_edges = priority.edges
    for choices in product((0, 1), repeat=len(unordered)):
        oriented = set(base_edges)
        for (f, g), direction in zip(unordered, choices):
            oriented.add((f, g) if direction == 0 else (g, f))
        try:
            # The validating constructor is the point here: its cycle
            # scan is what filters the non-acyclic orientations out of
            # the completion enumeration.
            yield PriorityRelation(oriented)  # repro-lint: ignore[RL001]
        except CyclicPriorityError:
            continue


def brute_force_completion_check(
    prioritizing: PrioritizingInstance, candidate: Instance
) -> CheckResult:
    """The definitional completion-optimality test (tests only).

    Enumerates all completions of ``≻`` (acyclic orientations of the
    not-yet-ordered conflicting pairs) and asks whether ``candidate`` is
    globally-optimal under at least one of them.  Doubly exponential cost
    in the worst case — use only on tiny instances.
    """
    _reject_ccp(prioritizing)
    failure = precheck(prioritizing, candidate, "completion", "brute-force")
    if failure is not None:
        return failure
    for completion in _orientations_of_unordered_conflicts(prioritizing):
        # Every completion orients *conflicting* pairs of the already-
        # validated base priority, so the classical invariant holds by
        # construction and the shared conflict index carries over.
        completed = PrioritizingInstance._from_validated(
            prioritizing.schema,
            prioritizing.instance,
            completion,
            ccp=False,
            conflict_index=prioritizing.conflict_index,
        )
        if check_globally_optimal_brute_force(completed, candidate):
            return CheckResult(
                is_optimal=True, semantics="completion", method="brute-force"
            )
    return CheckResult(
        is_optimal=False,
        semantics="completion",
        method="brute-force",
        reason="no completion makes the candidate globally-optimal",
    )
