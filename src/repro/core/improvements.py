"""Global and Pareto improvements between consistent subinstances.

Implements Definition 2.4 of the paper.  Given consistent subinstances
``J`` and ``J'`` of an inconsistent prioritizing instance ``(I, ≻)``:

* ``J'`` is a **global improvement** of ``J`` if ``J' ≠ J`` and every fact
  ``f' ∈ J \\ J'`` has some ``f ∈ J' \\ J`` with ``f ≻ f'``;
* ``J'`` is a **Pareto improvement** of ``J`` if some ``f ∈ J' \\ J`` has
  ``f ≻ f'`` for *all* ``f' ∈ J \\ J'``.

Every Pareto improvement is a global improvement.  A consistent
subinstance is a globally-optimal (resp. Pareto-optimal) repair iff it has
no global (resp. Pareto) improvement.

Both conditions depend only on the symmetric difference ``(added,
removed)`` between the two subinstances, so the module exposes them in
two forms: the :class:`Instance`-level predicates of Definition 2.4 and
the set-level :func:`is_global_improvement_sets` /
:func:`is_pareto_improvement_sets` the checkers use to evaluate
candidate swaps *without materializing a witness instance* — the full
``Instance`` is only built for the swap that actually succeeds.

The module also implements the key polynomial-time subroutine shared by
all the tractable checkers: :func:`find_pareto_improvement`, based on the
*single-swap characterization* — if any Pareto improvement exists, then
one of the form ``(J \\ C_g) ∪ {g}`` exists, where ``g ∈ I \\ J`` and
``C_g`` is the set of facts of ``J`` conflicting with ``g``.
"""

from __future__ import annotations

from typing import AbstractSet, Collection, Optional, Set

from repro.core.bitset_index import BitsetCandidate
from repro.core.conflicts import ConflictIndex
from repro.core.fact import Fact
from repro.core.instance import Instance
from repro.core.interning import iter_bits
from repro.core.priority import PrioritizingInstance, PriorityRelation

__all__ = [
    "is_global_improvement",
    "is_global_improvement_sets",
    "is_pareto_improvement",
    "is_pareto_improvement_sets",
    "find_pareto_improvement",
    "find_pareto_improvement_bitset",
    "find_pareto_improvement_fresh",
    "has_pareto_improvement",
]


def is_global_improvement_sets(
    added: Collection[Fact],
    removed: Collection[Fact],
    priority: PriorityRelation,
) -> bool:
    """The global-improvement condition on a symmetric difference.

    ``added`` is ``J' \\ J`` and ``removed`` is ``J \\ J'`` for a
    candidate ``J' = (J \\ removed) ∪ added``; both must be disjoint
    from each other for the test to mean what Definition 2.4 says.
    This is the allocation-free form the checkers evaluate per probed
    swap, materializing an :class:`Instance` only on success.
    """
    if not added and not removed:
        return False  # J' = J is never an improvement
    for lost in removed:
        if priority.improvers_of(lost).isdisjoint(added):
            return False
    return True


def is_global_improvement(
    candidate: Instance,
    current: Instance,
    priority: PriorityRelation,
) -> bool:
    """Whether ``candidate`` is a global improvement of ``current``.

    Both arguments are assumed to be consistent subinstances of the same
    instance; the function only evaluates the improvement condition of
    Definition 2.4 (callers that need consistency validation should check
    it themselves — the checking algorithms construct candidates that are
    consistent by construction, so re-validating here would double the
    cost for nothing).
    """
    added = candidate.facts - current.facts
    removed = current.facts - candidate.facts
    return is_global_improvement_sets(added, removed, priority)


def is_pareto_improvement_sets(
    added: AbstractSet[Fact],
    removed: AbstractSet[Fact],
    priority: PriorityRelation,
) -> bool:
    """The Pareto-improvement condition on a symmetric difference.

    Requires a witness in ``added`` preferred to every fact of
    ``removed``; vacuous when ``removed`` is empty, so any proper
    consistent superset Pareto-improves.
    """
    if not added:
        return False
    if not removed:
        return True  # proper superset: vacuously Pareto-improving
    return any(
        removed <= priority.preferred_over(witness) for witness in added
    )


def is_pareto_improvement(
    candidate: Instance,
    current: Instance,
    priority: PriorityRelation,
) -> bool:
    """Whether ``candidate`` is a Pareto improvement of ``current``.

    Requires a witness ``f ∈ candidate \\ current`` preferred to *every*
    fact of ``current \\ candidate``; when the latter set is empty the
    condition is vacuous, so any proper consistent superset is a Pareto
    improvement.
    """
    added = candidate.facts - current.facts
    removed = current.facts - candidate.facts
    return is_pareto_improvement_sets(added, removed, priority)


def find_pareto_improvement(
    prioritizing: PrioritizingInstance,
    repair_candidate: Instance,
    index: Optional[ConflictIndex] = None,
) -> Optional[Instance]:
    """A Pareto improvement of ``repair_candidate``, or None if optimal.

    Uses the single-swap characterization.  For each fact
    ``g ∈ I \\ J`` let ``C_g`` be the facts of ``J`` conflicting with
    ``g``; then ``(J \\ C_g) ∪ {g}`` is consistent, and it is a Pareto
    improvement iff ``g ≻ f`` for every ``f ∈ C_g`` (vacuously when
    ``C_g = ∅``, i.e. when ``J`` is not maximal).

    *Completeness*: if ``J'`` is any Pareto improvement with witness
    ``f ∈ J' \\ J``, then every fact of ``J`` conflicting with ``f`` lies
    in ``J \\ J'`` (since ``J'`` is consistent and contains ``f``), hence
    is ≻-dominated by ``f``; so the single swap at ``f`` also works.
    This argument does not use the conflicting-facts restriction on ≻,
    so the routine is sound and complete for ccp-instances too.

    ``C_g`` is answered by the shared :class:`ConflictIndex` over ``I``
    (``prioritizing.conflict_index``, or an explicitly passed ``index``)
    restricted to ``J`` by membership filtering — no per-candidate index
    build.  The check runs in ``O(|I| · cost(conflict lookup))`` —
    polynomial, as promised by Staworko et al. and quoted in Section 3
    of the paper.
    """
    instance = prioritizing.instance
    priority = prioritizing.priority
    if index is None:
        index = prioritizing.conflict_index
    members = repair_candidate.facts
    for outsider in instance.facts - members:
        blockers = index.conflicts_of_in(outsider, members)
        if blockers <= priority.preferred_over(outsider):
            return repair_candidate.replace_facts(blockers, (outsider,))
    return None


def find_pareto_improvement_bitset(
    prioritizing: PrioritizingInstance,
    repair_candidate: Instance,
    view: BitsetCandidate,
) -> Optional[Instance]:
    """The single-swap Pareto search on the bitset backend.

    Same characterization as :func:`find_pareto_improvement`, evaluated
    group-locally: a consistent candidate keeps at most one rhs block
    per (FD, lhs-group), so the blockers ``C_g`` of an outsider ``g``
    are, per FD, either the whole kept mask of ``g``'s group (kept rhs
    differs) or empty (same rhs / empty group), and the domination test
    ``C_g ⊆ ≻(g)`` decomposes into one small-int mask comparison per FD
    — ``kept & ~preferred == 0`` — with no per-outsider set building.
    The swap instance is materialized only for the succeeding outsider.
    """
    core = prioritizing.bitset_core
    priority = core.priority
    layouts = core.layouts
    per_layout = [
        (
            layout,
            layout.group_of,
            layout.rhs_of,
            view.kept_for(layout),
            priority.preferred_local(layout),
        )
        for layout in layouts
    ]
    fact_of = core.interner.fact_of
    for fid in view.outsider_ids():
        blocked = False
        for _, group_of, rhs_of, (kept, kept_rhs, _), preferred in per_layout:
            group = group_of[fid]
            if group < 0:
                continue
            rhs = kept_rhs[group]
            if rhs < 0 or rhs == rhs_of[fid]:
                continue
            if kept[group] & ~preferred[fid]:
                blocked = True
                break
        if blocked:
            continue
        # Every blocker is ≻-dominated by the outsider: materialize the
        # single swap (J \ C_g) ∪ {g}.
        blocker_ids: Set[int] = set()
        for layout, group_of, rhs_of, (kept, kept_rhs, _), _ in per_layout:
            group = group_of[fid]
            if group < 0:
                continue
            rhs = kept_rhs[group]
            if rhs < 0 or rhs == rhs_of[fid]:
                continue
            members = layout.group_members[group]
            blocker_ids.update(
                members[local] for local in iter_bits(kept[group])
            )
        return repair_candidate.replace_facts(
            [fact_of(blocker) for blocker in blocker_ids], (fact_of(fid),)
        )
    return None


def find_pareto_improvement_fresh(
    prioritizing: PrioritizingInstance,
    repair_candidate: Instance,
) -> Optional[Instance]:
    """Ablation baseline: the single-swap search with a per-call index.

    Semantically identical to :func:`find_pareto_improvement`, but
    rebuilds a :class:`ConflictIndex` over the candidate on every call —
    the pre-fast-path behaviour, retained as the reference
    ``tests/properties/test_fastpath_equivalence.py`` holds the shared
    index to.
    """
    schema = prioritizing.schema
    instance = prioritizing.instance
    priority = prioritizing.priority
    index = ConflictIndex(schema, repair_candidate)
    for outsider in instance.facts - repair_candidate.facts:
        blockers = index.conflicts_of(outsider)
        if blockers <= priority.preferred_over(outsider):
            return repair_candidate.replace_facts(blockers, [outsider])
    return None


def has_pareto_improvement(
    prioritizing: PrioritizingInstance,
    repair_candidate: Instance,
) -> bool:
    """Whether ``repair_candidate`` has a Pareto improvement."""
    return find_pareto_improvement(prioritizing, repair_candidate) is not None
