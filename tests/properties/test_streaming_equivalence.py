"""The streaming loader must be indistinguishable from the in-memory
path — identical interner fingerprints, conflict sets, and checker
verdicts — at every chunk size.

The streaming path (:mod:`repro.engine.streaming`) reorders nothing it
is allowed to reorder and changes nothing it is not: ingestion order,
chunk boundaries, and the sqlite detour through natively typed and
tagged cells must all be invisible.  Hypothesis drives random row
multisets (including duplicate rows, numeric/string lookalikes, values
sqlite cannot hold as bound, and separator/quote-bearing strings)
through both paths and demands bit-level agreement.  The store is also
held to the dual-encoding layout it replaced
(:class:`tests.engine.streaming_reference.ReferenceStreamingStore`),
value types included.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Fact, PrioritizingInstance, PriorityRelation, Schema
from repro.core.bitset_index import BitsetConflictIndex
from repro.core.checking import check_globally_optimal
from repro.core.instance import Instance
from repro.core.interning import FactInterner
from repro.engine.streaming import StreamingInstanceStore
from repro.service.fingerprint import fingerprint_instance
from tests.engine.streaming_reference import ReferenceStreamingStore

#: ``R`` and ``S`` carry key FDs (the FD spans every attribute), whose
#: violating groups the store finds without a ``DISTINCT`` pass; ``T``'s
#: FD leaves attribute 3 out, so its groups need the ``DISTINCT`` query.
SCHEMA = Schema.parse(
    {"R": 2, "S": 3, "T": 3}, ["R: 1 -> 2", "S: {1,2} -> 3", "T: 1 -> 2"]
)
RELATIONS = ("R", "S", "T")

CHUNK_SIZES = (1, 7, 1000)

#: Values chosen to stress the layout: collision-prone strings (a unit
#: separator, pipes, quotes), lookalikes (1 vs "1" vs 1.0 vs True),
#: values sqlite cannot hold as bound (bools, None, nan, the
#: infinities, -0.0, integers at and beyond the int64 bounds, and
#: integral floats beyond them), and their equal partners.
_SELF_EQUAL = (
    st.integers(min_value=-5, max_value=5),
    st.sampled_from([2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**70]),
    st.sampled_from(["a", "b", "1", "1.0", "", "x\x1fy", 'q"e', "a|b"]),
    st.sampled_from([0.0, -0.0, 1.0, -2.0, 0.5, 1.25]),
    st.sampled_from(
        [float(2**63), float(-(2**63)), float(2**70), math.inf, -math.inf]
    ),
    st.booleans(),
    st.none(),
)
VALUE = st.one_of(*_SELF_EQUAL, st.just(math.nan))

#: nan is not equal to itself, so an in-memory instance and a store
#: round trip (which decodes a fresh nan) can never compare equal; the
#: in-memory comparisons run without it.  Leaving the nan branch out,
#: rather than filtering it out of ~70 draws per example, keeps
#: hypothesis's filter_too_much health check from tripping on some
#: seeds.
COMPARABLE = st.one_of(*_SELF_EQUAL)


def rows_of(value):
    """Row lists for ``R``, ``S`` and ``T``, in :data:`RELATIONS` order."""
    return st.tuples(
        st.lists(st.tuples(value, value), max_size=14),
        st.lists(st.tuples(value, value, value), max_size=14),
        st.lists(st.tuples(value, value, value), max_size=14),
    )


ROWS = rows_of(COMPARABLE)


def in_memory(rows) -> Instance:
    return Instance(
        SCHEMA.signature,
        [
            Fact(relation, row)
            for relation, relation_rows in zip(RELATIONS, rows)
            for row in relation_rows
        ],
    )


def ingest(store, rows) -> None:
    for relation, relation_rows in zip(RELATIONS, rows):
        store.ingest_rows(relation, relation_rows)


def conflict_pairs_of(index: BitsetConflictIndex):
    return frozenset(
        frozenset((f, g)) for _, f, g in index.iter_conflicts()
    )


@given(ROWS)
@settings(max_examples=60, deadline=None)
def test_streaming_path_equals_in_memory_path(rows):
    reference = in_memory(rows)
    reference_index = BitsetConflictIndex(SCHEMA, reference)
    reference_interner = FactInterner(reference)
    reference_fingerprint = fingerprint_instance(reference)

    for chunk_size in CHUNK_SIZES:
        with StreamingInstanceStore(
            SCHEMA, chunk_size=chunk_size
        ) as store:
            ingest(store, rows)

            assert store.fact_count() == len(reference.facts)
            materialized = store.to_instance()
            assert materialized == reference
            assert (
                fingerprint_instance(materialized)
                == reference_fingerprint
            )

            interner = store.build_interner(kernel_only=False)
            assert interner.facts == reference_interner.facts

            assert store.is_consistent() == reference_index.is_consistent()
            index = store.build_bitset_index(kernel_only=False)
            assert conflict_pairs_of(index) == conflict_pairs_of(
                reference_index
            )

            kernel = store.conflict_kernel()
            in_conflict = {
                fact
                for pair in conflict_pairs_of(reference_index)
                for fact in pair
            }
            assert kernel.facts == frozenset(in_conflict)


@given(ROWS, st.integers(min_value=0, max_value=2**31))
@settings(max_examples=40, deadline=None)
def test_checker_verdicts_agree_across_paths(rows, seed):
    reference = in_memory(rows)
    for chunk_size in CHUNK_SIZES:
        with StreamingInstanceStore(
            SCHEMA, chunk_size=chunk_size
        ) as store:
            ingest(store, rows)
            materialized = store.to_instance()

        # A deterministic candidate: keep the str-least fact of every
        # conflicting pair's block, plus everything unconflicted.
        index = BitsetConflictIndex(SCHEMA, reference)
        dropped = set()
        for _, f, g in index.iter_conflicts():
            dropped.add(max(f, g, key=str))
        candidate_facts = reference.facts - dropped
        verdict_reference = check_globally_optimal(
            PrioritizingInstance(
                SCHEMA, reference, PriorityRelation([])
            ),
            reference.subinstance(candidate_facts),
        )
        verdict_streamed = check_globally_optimal(
            PrioritizingInstance(
                SCHEMA, materialized, PriorityRelation([])
            ),
            materialized.subinstance(candidate_facts),
        )
        assert verdict_reference.is_optimal == verdict_streamed.is_optimal


def typed(values):
    """Values compared by type and ``repr``: tells ``1`` from ``1.0``
    and ``True``, ``0.0`` from ``-0.0``, and matches nan to nan."""
    return tuple((type(value), repr(value)) for value in values)


def typed_fact(fact):
    return fact.relation, typed(fact.values)


def typed_facts(facts):
    return sorted(map(typed_fact, facts), key=repr)


@given(rows_of(VALUE))
@settings(max_examples=80, deadline=None)
def test_native_store_equals_dual_encoding_reference(rows):
    for chunk_size in CHUNK_SIZES:
        with StreamingInstanceStore(
            SCHEMA, chunk_size=chunk_size
        ) as store, ReferenceStreamingStore(
            SCHEMA, chunk_size=chunk_size
        ) as reference:
            for relation, relation_rows in zip(RELATIONS, rows):
                assert store.ingest_rows(
                    relation, relation_rows
                ) == reference.ingest_rows(relation, relation_rows)

            assert store.fact_count() == reference.fact_count()
            for relation in RELATIONS:
                assert list(map(typed, store.iter_rows(relation))) == list(
                    map(typed, reference.iter_rows(relation))
                )
            # Counted in SQL before the first conflict query, read from
            # the conflict probe after it: both must match the oracle.
            assert store.conflict_summary() == reference.conflict_summary()
            assert typed_facts(store.conflict_kernel().facts) == typed_facts(
                reference.conflict_kernel().facts
            )
            assert {
                frozenset(map(typed_fact, pair))
                for pair in store.conflict_pairs()
            } == {
                frozenset(map(typed_fact, pair))
                for pair in reference.conflict_pairs()
            }
            assert store.conflict_summary() == reference.conflict_summary()
            assert list(
                map(typed_fact, store.build_interner(kernel_only=False).facts)
            ) == list(map(typed_fact, reference.build_interner().facts))
