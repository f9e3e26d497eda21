"""Shared pre-checks run by every repair checker.

All optimal-repair semantics agree on two necessary conditions:

1. ``J`` must be a *consistent* subinstance of ``I`` (an inconsistent
   ``J`` is not a repair of any kind);
2. ``J`` must be *maximal* — otherwise ``J ∪ {g}`` for any non-conflicting
   outsider ``g`` is a proper consistent superset, which is simultaneously
   a global and a Pareto improvement (the improvement conditions are
   vacuous when nothing is removed), so ``J`` is not optimal under any of
   the semantics.

:func:`precheck` factors this out and returns either a failing
:class:`~repro.core.checking.result.CheckResult` or None (all good),
letting each algorithm start from the paper's standing assumption that
``J`` is a repair.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.bitset_index import BitsetCandidate
from repro.core.checking.result import CheckResult
from repro.core.conflicts import ConflictIndex
from repro.core.instance import Instance
from repro.core.priority import PrioritizingInstance
from repro.exceptions import NotASubinstanceError

__all__ = ["precheck", "precheck_bitset", "precheck_fresh"]


def precheck(
    prioritizing: PrioritizingInstance,
    candidate: Instance,
    semantics: str,
    method: str,
) -> Optional[CheckResult]:
    """Run the subinstance / consistency / maximality pre-checks.

    Returns a negative :class:`CheckResult` when ``candidate`` fails one
    of them (with a witness improvement for the maximality failure), or
    None when ``candidate`` is a repair and the caller's algorithm should
    proceed.

    Raises
    ------
    NotASubinstanceError
        If ``candidate`` contains facts outside the instance; this is a
        malformed input rather than a "no" answer.
    """
    instance = prioritizing.instance
    members = candidate.facts
    extra = members - instance.facts
    if extra:
        raise NotASubinstanceError(
            f"candidate repair contains {len(extra)} fact(s) outside the "
            f"instance, e.g. {next(iter(extra))}"
        )
    # One shared index over I answers both pre-checks for every
    # candidate via membership filtering; nothing is rebuilt per call.
    index = prioritizing.conflict_index
    if not index.is_consistent_subset(members):
        return CheckResult(
            is_optimal=False,
            semantics=semantics,
            method=method,
            reason="candidate is not consistent, hence not a repair",
        )
    for outsider in instance.facts - members:
        if not index.conflicts_with_anything_in(outsider, members):
            return CheckResult(
                is_optimal=False,
                semantics=semantics,
                method=method,
                improvement=candidate.with_facts([outsider]),
                reason=(
                    f"candidate is not maximal: {outsider} can be added "
                    f"without breaking consistency"
                ),
            )
    return None


def precheck_bitset(
    prioritizing: PrioritizingInstance,
    candidate: Instance,
    semantics: str,
    method: str,
) -> Tuple[Optional[CheckResult], BitsetCandidate]:
    """The pre-checks of :func:`precheck`, run on the bitset backend.

    Returns ``(result, view)``: the same verdicts and reason strings as
    :func:`precheck` (None when the candidate is a repair), plus the
    :class:`~repro.core.bitset_index.BitsetCandidate` view so the caller
    reuses the per-layout kept masks the pre-checks already extracted.
    """
    core = prioritizing.bitset_core
    view = core.candidate(candidate.facts)
    if view.stray_facts:
        extra = view.stray_facts
        raise NotASubinstanceError(
            f"candidate repair contains {len(extra)} fact(s) outside the "
            f"instance, e.g. {extra[0]}"
        )
    layouts = core.layouts
    # Consistency: some group holding kept facts from two rhs blocks is
    # exactly an unresolved δ-conflict inside the candidate.
    for layout in layouts:
        if view.kept_for(layout)[2] is not None:
            return (
                CheckResult(
                    is_optimal=False,
                    semantics=semantics,
                    method=method,
                    reason="candidate is not consistent, hence not a repair",
                ),
                view,
            )
    # Maximality: an outsider is addable iff no layout places it in a
    # group whose kept facts sit in a different rhs block.  Everything
    # probed here is an O(1) array read per (outsider, FD).
    per_layout = [
        (layout.group_of, layout.rhs_of, view.kept_for(layout)[1])
        for layout in layouts
    ]
    fact_of = core.interner.fact_of
    for fid in view.outsider_ids():
        for group_of, rhs_of, kept_rhs in per_layout:
            group = group_of[fid]
            if group < 0:
                continue
            kept = kept_rhs[group]
            if kept >= 0 and kept != rhs_of[fid]:
                break
        else:
            outsider = fact_of(fid)
            return (
                CheckResult(
                    is_optimal=False,
                    semantics=semantics,
                    method=method,
                    improvement=candidate.with_facts([outsider]),
                    reason=(
                        f"candidate is not maximal: {outsider} can be added "
                        f"without breaking consistency"
                    ),
                ),
                view,
            )
    return None, view


def precheck_fresh(
    prioritizing: PrioritizingInstance,
    candidate: Instance,
    semantics: str,
    method: str,
) -> Optional[CheckResult]:
    """The pre-fast-path pre-checks, rebuilding indexes per call.

    Semantically identical to :func:`precheck` but builds a throwaway
    :class:`ConflictIndex` over the candidate (and another over ``I``
    for the maximality scan) on every invocation, exactly as the
    checkers did before the shared-index fast path.  Retained for the
    ``*_literal`` checkers, whose verdicts
    ``tests/properties/test_fastpath_equivalence.py`` holds the fast
    paths to.
    """
    instance = prioritizing.instance
    members = candidate.facts
    extra = members - instance.facts
    if extra:
        raise NotASubinstanceError(
            f"candidate repair contains {len(extra)} fact(s) outside the "
            f"instance, e.g. {next(iter(extra))}"
        )
    candidate_index = ConflictIndex(  # repro-lint: ignore[RL009]
        prioritizing.schema, candidate
    )
    if not candidate_index.is_consistent():
        return CheckResult(
            is_optimal=False,
            semantics=semantics,
            method=method,
            reason="candidate is not consistent, hence not a repair",
        )
    instance_index = ConflictIndex(  # repro-lint: ignore[RL009]
        prioritizing.schema, instance
    )
    for outsider in instance.facts - members:
        if not any(
            conflicting in members
            for conflicting in instance_index.conflicts_of(outsider)
        ):
            return CheckResult(
                is_optimal=False,
                semantics=semantics,
                method=method,
                improvement=candidate.with_facts([outsider]),
                reason=(
                    f"candidate is not maximal: {outsider} can be added "
                    f"without breaking consistency"
                ),
            )
    return None
