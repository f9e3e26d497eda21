"""Pareto-optimal repair checking (polynomial for every schema).

Staworko, Chomicki and Marcinkowski observed — and the paper quotes in
Section 3 — that Pareto-optimal repair checking admits a polynomial-time
solution for *every* schema, in both the classical and the ccp setting.
The algorithm is the single-swap search of
:func:`repro.core.improvements.find_pareto_improvement`.
"""

from __future__ import annotations

from typing import Optional

from repro.core.backend import BACKEND_BITSET, resolve_backend
from repro.core.checking.result import CheckResult
from repro.core.checking.validation import (
    precheck,
    precheck_bitset,
    precheck_fresh,
)
from repro.core.improvements import (
    find_pareto_improvement,
    find_pareto_improvement_bitset,
    find_pareto_improvement_fresh,
)
from repro.core.instance import Instance
from repro.core.priority import PrioritizingInstance

__all__ = ["check_pareto_optimal", "check_pareto_optimal_literal"]

_METHOD = "single-swap"


def check_pareto_optimal(
    prioritizing: PrioritizingInstance,
    candidate: Instance,
    backend: Optional[str] = None,
) -> CheckResult:
    """Decide whether ``candidate`` is a Pareto-optimal repair.

    Works for every schema and for both classical and ccp priorities; the
    single-swap characterization does not rely on the conflicting-facts
    restriction.  ``backend`` picks the execution substrate (see
    :mod:`repro.core.backend`); both backends return identical verdicts.

    Examples
    --------
    >>> from repro.core import Schema, Fact, PriorityRelation
    >>> from repro.core import PrioritizingInstance
    >>> schema = Schema.single_relation(["1 -> 2"], arity=2)
    >>> f, g = Fact("R", (1, "a")), Fact("R", (1, "b"))
    >>> pri = PrioritizingInstance(
    ...     schema, schema.instance([f, g]), PriorityRelation([(f, g)])
    ... )
    >>> bool(check_pareto_optimal(pri, schema.instance([f])))
    True
    >>> bool(check_pareto_optimal(pri, schema.instance([g])))
    False
    """
    if resolve_backend(len(prioritizing.instance), backend) == BACKEND_BITSET:
        failure, view = precheck_bitset(
            prioritizing, candidate, "pareto", _METHOD
        )
        if failure is not None:
            return failure
        improvement = find_pareto_improvement_bitset(
            prioritizing, candidate, view
        )
    else:
        failure = precheck(prioritizing, candidate, "pareto", _METHOD)
        if failure is not None:
            return failure
        improvement = find_pareto_improvement(prioritizing, candidate)
    if improvement is not None:
        return CheckResult(
            is_optimal=False,
            semantics="pareto",
            method=_METHOD,
            improvement=improvement,
            reason="a single-swap Pareto improvement exists",
        )
    return CheckResult(is_optimal=True, semantics="pareto", method=_METHOD)


def check_pareto_optimal_literal(
    prioritizing: PrioritizingInstance, candidate: Instance
) -> CheckResult:
    """The pre-fast-path Pareto check, rebuilding indexes per call.

    Semantically identical to :func:`check_pareto_optimal` but uses
    :func:`precheck_fresh` and
    :func:`~repro.core.improvements.find_pareto_improvement_fresh`, both
    of which build throwaway conflict indexes on every invocation.
    Retained as the reference
    ``tests/properties/test_fastpath_equivalence.py`` checks against.
    """
    failure = precheck_fresh(
        prioritizing, candidate, "pareto", _METHOD + "-literal"
    )
    if failure is not None:
        return failure
    improvement = find_pareto_improvement_fresh(prioritizing, candidate)
    if improvement is not None:
        return CheckResult(
            is_optimal=False,
            semantics="pareto",
            method=_METHOD + "-literal",
            improvement=improvement,
            reason="a single-swap Pareto improvement exists",
        )
    return CheckResult(
        is_optimal=True, semantics="pareto", method=_METHOD + "-literal"
    )
