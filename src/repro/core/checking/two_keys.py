"""``GRepCheck2Keys`` — globally-optimal repair checking under two keys.

Implements Section 4.2 / Figure 4 of the paper, for a single-relation
schema whose FDs are equivalent to two key constraints
``A1 → ⟦R⟧`` and ``A2 → ⟦R⟧``.

The algorithm (by Lemma 4.4) is:

1. if ``J`` has a Pareto improvement, answer "not optimal";
2. otherwise ``J`` is globally optimal iff both *swap graphs*
   ``G12_J`` and ``G21_J`` are acyclic.

``G12_J`` is the directed bipartite graph whose left side holds the
``A1``-projections of ``J``'s facts and whose right side holds their
``A2``-projections, with:

* a forward edge ``f[A1] → f[A2]`` for every ``f ∈ J``;
* a backward edge ``f'[A2] → f'[A1]`` for every ``f' ∈ I \\ J`` such that
  some ``f ∈ J`` has ``f[A2] = f'[A2]`` and ``f' ≻ f``.

``G21_J`` swaps the roles of ``A1`` and ``A2``.  A cycle alternates
forward (facts of ``J`` to evict) and backward (preferred replacement)
edges; the Lemma 4.4 proof turns it into a concrete global improvement
``(J \\ F) ∪ F'``, which this implementation reconstructs and returns as
the witness.  Figure 3 of the paper shows the two graphs for the running
example; :func:`build_swap_graph` is exposed so experiment E4 can
regenerate it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.backend import BACKEND_BITSET, resolve_backend
from repro.core.bitset_index import BitsetCandidate, BitsetCore, _FDLayout
from repro.core.checking.result import CheckResult
from repro.core.checking.validation import (
    precheck,
    precheck_bitset,
    precheck_fresh,
)
from repro.core.fact import Fact
from repro.core.fd import FD
from repro.core.improvements import (
    find_pareto_improvement,
    find_pareto_improvement_bitset,
    find_pareto_improvement_fresh,
)
from repro.core.instance import Instance
from repro.core.priority import PrioritizingInstance

__all__ = [
    "check_two_keys",
    "check_two_keys_literal",
    "build_swap_graph",
    "SwapGraph",
]

_METHOD = "GRepCheck2Keys"

# A node is ("L" | "R", projection-tuple); edges carry the fact that
# induced them so cycles can be turned back into improvements.
_Node = Tuple[str, Tuple]


@dataclass(frozen=True)
class SwapGraph:
    """One of the bipartite swap graphs ``G12_J`` / ``G21_J``.

    Attributes
    ----------
    first, second:
        The key left-hand sides playing the roles of ``A1`` and ``A2``
        (``G12`` uses ``(A1, A2)``; ``G21`` uses ``(A2, A1)``).
    edges:
        Adjacency: node → {successor node → witnessing fact}.  Forward
        (left-to-right) edges are witnessed by the ``J``-fact, backward
        edges by the improving fact of ``I \\ J``.
    """

    first: FrozenSet[int]
    second: FrozenSet[int]
    edges: Dict[_Node, Dict[_Node, Fact]]

    def find_cycle(self) -> Optional[List[_Node]]:
        """A simple directed cycle as a node list, or None if acyclic."""
        WHITE, GRAY, BLACK = 0, 1, 2
        color: Dict[_Node, int] = {}
        parent: Dict[_Node, Optional[_Node]] = {}
        for root in self.edges:
            if color.get(root, WHITE) != WHITE:
                continue
            stack: List[Tuple[_Node, List[_Node]]] = [
                (root, list(self.edges.get(root, {})))
            ]
            color[root] = GRAY
            parent[root] = None
            while stack:
                node, pending = stack[-1]
                if pending:
                    child = pending.pop()
                    state = color.get(child, WHITE)
                    if state == GRAY:
                        cycle = [node]
                        walker = node
                        while walker != child:
                            walker = parent[walker]  # type: ignore[assignment]
                            cycle.append(walker)
                        cycle.reverse()
                        return cycle
                    if state == WHITE:
                        color[child] = GRAY
                        parent[child] = node
                        stack.append((child, list(self.edges.get(child, {}))))
                else:
                    color[node] = BLACK
                    stack.pop()
        return None

    def is_acyclic(self) -> bool:
        """Whether the graph has no directed cycle."""
        return self.find_cycle() is None

    def cycle_to_improvement(
        self, cycle: List[_Node], candidate: Instance
    ) -> Instance:
        """The global improvement ``(J \\ F) ∪ F'`` induced by ``cycle``.

        Follows the "if" direction of Lemma 4.4: forward edges on the
        cycle name the evicted facts ``F ⊆ J``, backward edges name the
        preferred replacements ``F' ⊆ I \\ J``.
        """
        removed: List[Fact] = []
        added: List[Fact] = []
        for position, node in enumerate(cycle):
            successor = cycle[(position + 1) % len(cycle)]
            witness = self.edges[node][successor]
            if node[0] == "L":
                removed.append(witness)
            else:
                added.append(witness)
        return candidate.replace_facts(removed, added)


def build_swap_graph(
    prioritizing: PrioritizingInstance,
    candidate: Instance,
    first: FrozenSet[int],
    second: FrozenSet[int],
) -> SwapGraph:
    """Build ``G12_J`` (or ``G21_J`` with the roles swapped).

    ``first`` and ``second`` are the two key left-hand sides; the left
    side of the graph carries ``first``-projections.
    """
    first_sorted = tuple(sorted(first))
    second_sorted = tuple(sorted(second))
    edges: Dict[_Node, Dict[_Node, Fact]] = {}
    # Forward edges: one per candidate fact.  Because `first` is a key
    # and the candidate is consistent, left nodes identify candidate
    # facts uniquely (and symmetrically for right nodes).
    second_value_to_fact: Dict[Tuple, Fact] = {}
    for fact in candidate:
        second_value = fact.project(second_sorted)
        left: _Node = ("L", fact.project(first_sorted))
        right: _Node = ("R", second_value)
        edges.setdefault(left, {})[right] = fact
        edges.setdefault(right, {})
        second_value_to_fact[second_value] = fact
    # Backward edges: outsiders preferred to the candidate fact sharing
    # their `second` projection.
    priority = prioritizing.priority
    for outsider in prioritizing.instance.facts - candidate.facts:
        second_value = outsider.project(second_sorted)
        blocked = second_value_to_fact.get(second_value)
        if blocked is None or not priority.prefers(outsider, blocked):
            continue
        right = ("R", second_value)
        left = ("L", outsider.project(first_sorted))
        edges.setdefault(right, {})[left] = outsider
        edges.setdefault(left, {})
    return SwapGraph(first=first, second=second, edges=edges)


def _build_swap_graph_bitset(
    core: BitsetCore,
    view: BitsetCandidate,
    lay_first: _FDLayout,
    lay_second: _FDLayout,
    first: FrozenSet[int],
    second: FrozenSet[int],
) -> SwapGraph:
    """The swap graph from the columnar layouts, no per-fact projection.

    Nodes carry *group indices* of the two key layouts instead of raw
    projection tuples (the layouts key groups by lhs value, so the
    graphs are isomorphic); the candidate fact blocking a given
    ``second``-group is an O(1) array read, because ``second`` is a key
    and a consistent candidate keeps at most one fact per key group.
    The backward-edge priority test is a local-mask bit probe.
    """
    edges: Dict[_Node, Dict[_Node, Fact]] = {}
    group_of1 = lay_first.group_of
    group_of2 = lay_second.group_of
    local_of2 = lay_second.local_of
    fact_of = core.interner.fact_of
    blocking_fact = [-1] * lay_second.group_count
    for fid in view.fids:
        group1 = group_of1[fid]
        group2 = group_of2[fid]
        if group1 < 0 or group2 < 0:
            continue
        left: _Node = ("L", (group1,))
        right: _Node = ("R", (group2,))
        edges.setdefault(left, {})[right] = fact_of(fid)
        edges.setdefault(right, {})
        blocking_fact[group2] = fid
    preferred2 = core.priority.preferred_local(lay_second)
    for fid in view.outsider_ids():
        group2 = group_of2[fid]
        if group2 < 0:
            continue
        blocked = blocking_fact[group2]
        if blocked < 0 or not preferred2[fid] >> local_of2[blocked] & 1:
            continue
        right = ("R", (group2,))
        left = ("L", (group_of1[fid],))
        edges.setdefault(right, {})[left] = fact_of(fid)
        edges.setdefault(left, {})
    return SwapGraph(first=first, second=second, edges=edges)


def check_two_keys(
    prioritizing: PrioritizingInstance,
    candidate: Instance,
    key1: FD,
    key2: FD,
    backend: Optional[str] = None,
) -> CheckResult:
    """``GRepCheck2Keys`` (Figure 4).

    Parameters
    ----------
    prioritizing:
        The classical prioritizing instance ``(I, ≻)`` over a
        single-relation schema.
    candidate:
        The subinstance ``J`` to check.
    key1, key2:
        The two key constraints ``Δ|R`` is equivalent to (produced by
        :func:`repro.core.classification.equivalent_two_keys`).
    backend:
        The execution substrate (see :mod:`repro.core.backend`); both
        backends return identical verdicts.
    """
    if resolve_backend(len(prioritizing.instance), backend) == BACKEND_BITSET:
        return _check_two_keys_bitset(prioritizing, candidate, key1, key2)
    failure = precheck(prioritizing, candidate, "global", _METHOD)
    if failure is not None:
        return failure
    pareto = find_pareto_improvement(prioritizing, candidate)
    if pareto is not None:
        return CheckResult(
            is_optimal=False,
            semantics="global",
            method=_METHOD,
            improvement=pareto,
            reason="a Pareto improvement exists",
        )
    for first, second, label in (
        (key1.lhs, key2.lhs, "G12"),
        (key2.lhs, key1.lhs, "G21"),
    ):
        graph = build_swap_graph(prioritizing, candidate, first, second)
        cycle = graph.find_cycle()
        if cycle is not None:
            improvement = graph.cycle_to_improvement(cycle, candidate)
            return CheckResult(
                is_optimal=False,
                semantics="global",
                method=_METHOD,
                improvement=improvement,
                reason=f"the swap graph {label} has a cycle (Lemma 4.4)",
            )
    return CheckResult(is_optimal=True, semantics="global", method=_METHOD)


def _check_two_keys_bitset(
    prioritizing: PrioritizingInstance,
    candidate: Instance,
    key1: FD,
    key2: FD,
) -> CheckResult:
    """``GRepCheck2Keys`` on the bitset backend (same three steps)."""
    failure, view = precheck_bitset(prioritizing, candidate, "global", _METHOD)
    if failure is not None:
        return failure
    pareto = find_pareto_improvement_bitset(prioritizing, candidate, view)
    if pareto is not None:
        return CheckResult(
            is_optimal=False,
            semantics="global",
            method=_METHOD,
            improvement=pareto,
            reason="a Pareto improvement exists",
        )
    core = prioritizing.bitset_core
    lay1 = core.layout_for(key1)
    lay2 = core.layout_for(key2)
    for lay_first, lay_second, first, second, label in (
        (lay1, lay2, key1.lhs, key2.lhs, "G12"),
        (lay2, lay1, key2.lhs, key1.lhs, "G21"),
    ):
        graph = _build_swap_graph_bitset(
            core, view, lay_first, lay_second, first, second
        )
        cycle = graph.find_cycle()
        if cycle is not None:
            improvement = graph.cycle_to_improvement(cycle, candidate)
            return CheckResult(
                is_optimal=False,
                semantics="global",
                method=_METHOD,
                improvement=improvement,
                reason=f"the swap graph {label} has a cycle (Lemma 4.4)",
            )
    return CheckResult(is_optimal=True, semantics="global", method=_METHOD)


def _build_swap_graph_fresh(
    prioritizing: PrioritizingInstance,
    candidate: Instance,
    first: FrozenSet[int],
    second: FrozenSet[int],
) -> SwapGraph:
    """Swap-graph construction with per-use projection, no caching.

    The pre-fast-path builder: every projection recomputes
    ``sorted(...)`` and slices the value tuple by hand, as
    ``Fact.project`` did before the per-fact cache.  Retained for the
    ablation benchmark so the measured baseline excludes the projection
    fast path as well.
    """

    def project(fact: Fact, attributes: FrozenSet[int]) -> Tuple:
        return tuple(fact.values[p - 1] for p in sorted(attributes))

    edges: Dict[_Node, Dict[_Node, Fact]] = {}
    second_value_to_fact: Dict[Tuple, Fact] = {}
    for fact in candidate:
        second_value = project(fact, second)
        left: _Node = ("L", project(fact, first))
        right: _Node = ("R", second_value)
        edges.setdefault(left, {})[right] = fact
        edges.setdefault(right, {})
        second_value_to_fact[second_value] = fact
    priority = prioritizing.priority
    for outsider in prioritizing.instance.facts - candidate.facts:
        second_value = project(outsider, second)
        blocked = second_value_to_fact.get(second_value)
        if blocked is None or not priority.prefers(outsider, blocked):
            continue
        right = ("R", second_value)
        left = ("L", project(outsider, first))
        edges.setdefault(right, {})[left] = outsider
        edges.setdefault(left, {})
    return SwapGraph(first=first, second=second, edges=edges)


def check_two_keys_literal(
    prioritizing: PrioritizingInstance,
    candidate: Instance,
    key1: FD,
    key2: FD,
) -> CheckResult:
    """``GRepCheck2Keys`` with the pre-fast-path cost profile.

    Semantically identical to :func:`check_two_keys` but rebuilds every
    index per call: :func:`precheck_fresh` for the repair pre-checks,
    :func:`~repro.core.improvements.find_pareto_improvement_fresh` for
    step 1, and a swap-graph builder that re-sorts and re-slices every
    projection.  Retained as the reference
    ``tests/properties/test_fastpath_equivalence.py`` checks against.
    """
    failure = precheck_fresh(
        prioritizing, candidate, "global", _METHOD + "-literal"
    )
    if failure is not None:
        return failure
    pareto = find_pareto_improvement_fresh(prioritizing, candidate)
    if pareto is not None:
        return CheckResult(
            is_optimal=False,
            semantics="global",
            method=_METHOD + "-literal",
            improvement=pareto,
            reason="a Pareto improvement exists",
        )
    for first, second, label in (
        (key1.lhs, key2.lhs, "G12"),
        (key2.lhs, key1.lhs, "G21"),
    ):
        graph = _build_swap_graph_fresh(prioritizing, candidate, first, second)
        cycle = graph.find_cycle()
        if cycle is not None:
            improvement = graph.cycle_to_improvement(cycle, candidate)
            return CheckResult(
                is_optimal=False,
                semantics="global",
                method=_METHOD + "-literal",
                improvement=improvement,
                reason=f"the swap graph {label} has a cycle (Lemma 4.4)",
            )
    return CheckResult(
        is_optimal=True, semantics="global", method=_METHOD + "-literal"
    )
