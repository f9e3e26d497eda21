"""Unit tests for the columnar bitset backend.

The interner's id assignment and mask conversions, the
``BitsetConflictIndex``'s parity with the object ``ConflictIndex`` on
every shared query, the compiled priority masks, the candidate views,
and the backend selector's override/env/threshold precedence.
"""

from __future__ import annotations

import random

import pytest

from repro.core import (
    BACKEND_BITSET,
    BACKEND_OBJECT,
    BitsetConflictIndex,
    Fact,
    FactInterner,
    PrioritizingInstance,
    PriorityRelation,
    Schema,
    resolve_backend,
)
from repro.compute import compute_optimal_repair
from repro.core.backend import (
    BACKEND_ENV,
    DEFAULT_BITSET_THRESHOLD,
    THRESHOLD_ENV,
    bitset_threshold,
    normalize_backend,
)
from repro.core.checking import (
    check_pareto_optimal,
    check_single_fd,
    check_two_keys,
)
from repro.core.classification import equivalent_single_fd, equivalent_two_keys
from repro.core.conflicts import ConflictIndex
from repro.core.interning import iter_bits, popcount
from repro.core.repairs import greedy_repair
from repro.exceptions import UsageError
from repro.workloads.generators import random_instance_with_conflicts
from repro.workloads.priorities import random_conflict_priority

from tests.helpers import single_fd_schema, two_keys_schema


# -- bit helpers ---------------------------------------------------------------------


def test_iter_bits_lowest_first():
    assert list(iter_bits(0)) == []
    assert list(iter_bits(0b1011)) == [0, 1, 3]
    assert list(iter_bits(1 << 100)) == [100]


def test_popcount():
    assert popcount(0) == 0
    assert popcount(0b1011) == 3
    assert popcount((1 << 200) - 1) == 200


# -- FactInterner --------------------------------------------------------------------


def _abc_instance():
    schema = single_fd_schema()
    facts = [
        Fact("R", (1, "a")),
        Fact("R", (1, "b")),
        Fact("R", (2, "c")),
    ]
    return schema, schema.instance(facts)


def test_interner_ids_are_dense_and_str_sorted():
    _, instance = _abc_instance()
    interner = FactInterner(instance)
    assert len(interner) == 3
    assert list(interner.facts) == sorted(instance.facts, key=str)
    for fid, fact in enumerate(interner.facts):
        assert interner.id_of(fact) == fid
        assert interner.fact_of(fid) == fact
        assert fact in interner
    assert Fact("R", (9, "z")) not in interner


def test_interner_ids_are_hashseed_independent():
    # str-sorted assignment: ids are a pure function of the fact set.
    _, instance = _abc_instance()
    a = FactInterner(instance)
    b = FactInterner(instance.subinstance(instance.facts))
    assert a.facts == b.facts


def test_interner_mask_roundtrip():
    _, instance = _abc_instance()
    interner = FactInterner(instance)
    subset = [interner.fact_of(0), interner.fact_of(2)]
    mask = interner.mask_of(subset)
    assert mask == 0b101
    assert interner.facts_of(mask) == subset
    assert interner.frozenset_of(mask) == frozenset(subset)
    assert interner.mask_of(instance.facts) == interner.full_mask
    assert interner.mask_of([]) == 0


def test_interner_mask_of_rejects_unknown_fact():
    _, instance = _abc_instance()
    interner = FactInterner(instance)
    with pytest.raises(KeyError):
        interner.mask_of([Fact("R", (9, "z"))])


# -- BitsetConflictIndex parity with ConflictIndex -----------------------------------


def _random_pair(schema, n_facts, seed):
    instance = random_instance_with_conflicts(
        schema, n_facts, density=0.6, seed=seed
    )
    return (
        ConflictIndex(schema, instance),
        BitsetConflictIndex(schema, instance),
        instance,
    )


@pytest.mark.parametrize("schema_builder", [single_fd_schema, two_keys_schema])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_index_parity_on_random_instances(schema_builder, seed):
    schema = schema_builder()
    obj, bit, instance = _random_pair(schema, 30, seed)
    assert obj.is_consistent() == bit.is_consistent()
    assert obj.adjacency() == bit.adjacency()
    obj_conflicts = {
        frozenset((f, g)) for _, f, g in obj.iter_conflicts()
    }
    bit_conflicts = {
        frozenset((f, g)) for _, f, g in bit.iter_conflicts()
    }
    assert obj_conflicts == bit_conflicts
    rng = random.Random(seed)
    facts = sorted(instance.facts, key=str)
    for _ in range(20):
        members = frozenset(rng.sample(facts, rng.randint(0, len(facts))))
        assert obj.is_consistent_subset(members) == bit.is_consistent_subset(
            members
        )
        for fact in rng.sample(facts, 5):
            assert obj.conflicts_of(fact) == bit.conflicts_of(fact)
            assert obj.conflicts_of_in(fact, members) == bit.conflicts_of_in(
                fact, members
            )
            assert obj.conflicts_with_anything(
                fact
            ) == bit.conflicts_with_anything(fact)
            assert obj.conflicts_with_anything_in(
                fact, members
            ) == bit.conflicts_with_anything_in(fact, members)


def test_index_probes_facts_outside_the_instance():
    schema, instance = _abc_instance()
    obj = ConflictIndex(schema, instance)
    bit = BitsetConflictIndex(schema, instance)
    probe = Fact("R", (1, "zzz"))  # conflicts with the whole lhs-1 group
    assert bit.conflicts_of(probe) == obj.conflicts_of(probe)
    assert bit.conflicts_with_anything(probe)
    lonely = Fact("R", (7, "q"))  # no lhs group at all
    assert bit.conflicts_of(lonely) == frozenset()
    assert not bit.conflicts_with_anything(lonely)


def test_subset_queries_ignore_stray_facts():
    # Same contract as the object index: membership filtering drops
    # facts outside the instance instead of raising.
    schema, instance = _abc_instance()
    bit = BitsetConflictIndex(schema, instance)
    stray = Fact("R", (9, "z"))
    members = {Fact("R", (1, "a")), stray}
    assert bit.is_consistent_subset(members)
    assert bit.conflicts_of_in(Fact("R", (1, "b")), members) == frozenset(
        {Fact("R", (1, "a"))}
    )


def test_layout_for_builds_witness_fd_layouts_on_demand():
    from repro.core.classification import equivalent_single_fd

    schema, instance = _abc_instance()
    bit = BitsetConflictIndex(schema, instance)
    witness = equivalent_single_fd(schema.fds_for("R"))
    layout = bit.layout_for(witness)
    assert layout is bit.layout_for(witness)  # cached
    assert layout.group_count == 2  # lhs values 1 and 2


# -- candidate views and priority masks ----------------------------------------------


def test_candidate_kept_masks_and_clash():
    schema, instance = _abc_instance()
    pri = PrioritizingInstance(schema, instance, PriorityRelation())
    core = pri.bitset_core
    layout = core.layouts[0]
    consistent = core.candidate([Fact("R", (1, "a")), Fact("R", (2, "c"))])
    kept, kept_rhs, clash = consistent.kept_for(layout)
    assert clash is None
    assert sum(popcount(mask) for mask in kept) == 2
    clashing = core.candidate([Fact("R", (1, "a")), Fact("R", (1, "b"))])
    assert clashing.kept_for(layout)[2] is not None
    stray = core.candidate([Fact("R", (1, "a")), Fact("S", (1,))])
    assert stray.stray_facts == [Fact("S", (1,))]


def test_candidate_mask_and_outsiders_partition_the_instance():
    schema, instance = _abc_instance()
    pri = PrioritizingInstance(schema, instance, PriorityRelation())
    core = pri.bitset_core
    view = core.candidate([Fact("R", (1, "b"))])
    outsiders = set(view.outsider_ids())
    assert outsiders.isdisjoint(view.fids)
    assert len(outsiders) + len(view.fids) == len(core.interner)
    assert view.mask() | sum(1 << fid for fid in outsiders) == (
        core.interner.full_mask
    )


def test_priority_masks_match_relation():
    schema = single_fd_schema()
    instance = random_instance_with_conflicts(schema, 25, density=0.7, seed=3)
    priority = random_conflict_priority(schema, instance, seed=3)
    pri = PrioritizingInstance(schema, instance, priority)
    core = pri.bitset_core
    interner = core.interner
    improvers = core.priority.improvers_masks()
    preferred = core.priority.preferred_masks()
    for fact in instance.facts:
        fid = interner.id_of(fact)
        assert interner.frozenset_of(improvers[fid]) == (
            priority.improvers_of(fact)
        )
        assert interner.frozenset_of(preferred[fid]) == (
            priority.preferred_over(fact)
        )
    layout = core.layouts[0]
    local_pref = core.priority.preferred_local(layout)
    for better, worse in priority.edges:
        b, w = interner.id_of(better), interner.id_of(worse)
        assert core.priority.prefers_ids(b, w)
        assert not core.priority.prefers_ids(w, b)
        # conflict-only priorities live inside one lhs group, so the
        # local view must carry every edge
        assert layout.group_of[b] == layout.group_of[w]
        assert local_pref[b] >> layout.local_of[w] & 1


def test_bitset_core_is_cached_on_the_prioritizing_instance():
    schema, instance = _abc_instance()
    pri = PrioritizingInstance(schema, instance, PriorityRelation())
    assert pri.bitset_core is pri.bitset_core


# -- checker verdicts at scale -------------------------------------------------------


#: checker -> (FDs, arity, the semantics its verdict is about)
_LARGE_TIER = {
    "single_fd": (["1 -> 2"], 2, "global"),
    "two_keys": (["1 -> 2", "2 -> 1"], 2, "global"),
    "pareto": (["1 -> 2"], 3, "pareto"),
}


def _check(checker, pri, candidate, backend):
    fds = pri.schema.fds_for("R")
    if checker == "single_fd":
        fd = equivalent_single_fd(fds)
        return check_single_fd(pri, candidate, fd, backend=backend)
    if checker == "two_keys":
        key1, key2 = equivalent_two_keys(fds)
        return check_two_keys(pri, candidate, key1, key2, backend=backend)
    return check_pareto_optimal(pri, candidate, backend=backend)


@pytest.mark.parametrize("checker", sorted(_LARGE_TIER))
def test_backends_agree_at_ten_thousand_facts(checker):
    """Far above the oracle's reach, both backends give one verdict.

    The candidates are a greedy repair (an early improvement exits the
    check) and a constructed optimal repair (the check scans every
    block), so both outcomes are compared.
    """
    fds, arity, semantics = _LARGE_TIER[checker]
    schema = Schema.single_relation(fds, arity=arity)
    instance = random_instance_with_conflicts(schema, 10_000, 0.7, seed=7)
    pri = PrioritizingInstance(
        schema, instance, random_conflict_priority(schema, instance, seed=7)
    )
    candidates = [
        greedy_repair(schema, instance, random.Random(7 * 997)),
        compute_optimal_repair(pri, semantics, rng=random.Random(7)).repair,
    ]
    verdicts = {
        backend: [
            _check(checker, pri, c, backend).is_optimal for c in candidates
        ]
        for backend in (BACKEND_BITSET, BACKEND_OBJECT)
    }
    assert verdicts[BACKEND_OBJECT] == [False, True]
    assert verdicts[BACKEND_BITSET] == verdicts[BACKEND_OBJECT]


# -- backend selector ----------------------------------------------------------------


def test_normalize_backend():
    assert normalize_backend(" BitSet ") == "bitset"
    with pytest.raises(UsageError):
        normalize_backend("simd")


def test_resolve_backend_precedence(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    monkeypatch.delenv(THRESHOLD_ENV, raising=False)
    # auto: threshold decides
    assert resolve_backend(DEFAULT_BITSET_THRESHOLD - 1) == BACKEND_OBJECT
    assert resolve_backend(DEFAULT_BITSET_THRESHOLD) == BACKEND_BITSET
    # env overrides auto
    monkeypatch.setenv(BACKEND_ENV, "bitset")
    assert resolve_backend(1) == BACKEND_BITSET
    monkeypatch.setenv(BACKEND_ENV, "object")
    assert resolve_backend(10**6) == BACKEND_OBJECT
    # explicit argument overrides env
    assert resolve_backend(1, override="bitset") == BACKEND_BITSET
    monkeypatch.setenv(BACKEND_ENV, "auto")
    assert resolve_backend(1) == BACKEND_OBJECT


def test_resolve_backend_threshold_env(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    monkeypatch.setenv(THRESHOLD_ENV, "5")
    assert bitset_threshold() == 5
    assert resolve_backend(5) == BACKEND_BITSET
    assert resolve_backend(4) == BACKEND_OBJECT
    monkeypatch.setenv(THRESHOLD_ENV, "not-a-number")
    with pytest.raises(UsageError):
        bitset_threshold()


def test_resolve_backend_rejects_bad_env(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "simd")
    with pytest.raises(UsageError):
        resolve_backend(10)
