"""The TPC-H-shaped generator: clean-data invariants, determinism,
sizing, the .tbl round trip, and neighborhood sampling."""

from __future__ import annotations

import itertools

import pytest

from repro.core.classification import classify_schema
from repro.core.interning import FactInterner
from repro.engine.streaming import StreamingInstanceStore, fact_sort_key
from repro.exceptions import UsageError
from repro.workloads.injection import inject_violations, tiered_prioritizing
from repro.workloads.tpch import (
    TPCH_RELATIONS,
    converters_for,
    generate_tables,
    iter_relation,
    sample_conflict_neighborhoods,
    table_sizes,
    tpch_schema,
    write_tbl,
)

#: The clean-data test matrix: every cell must satisfy every FD before
#: injection — the invariant that makes the manifest the *complete*
#: record of the instance's inconsistency.
MATRIX_SCALE_FACTORS = (0.002, 0.01)
MATRIX_SEEDS = (0, 1, 17)


@pytest.mark.parametrize(
    "scale_factor,seed",
    list(itertools.product(MATRIX_SCALE_FACTORS, MATRIX_SEEDS)),
)
def test_clean_matrix_satisfies_every_fd(scale_factor, seed):
    schema = tpch_schema()
    with StreamingInstanceStore(schema) as store:
        for relation, factory in generate_tables(scale_factor, seed).items():
            store.ingest_rows(relation, factory())
        assert store.is_consistent()
        assert all(
            count == 0 for count in store.conflict_summary().values()
        )


def test_schema_is_tractable():
    # One key FD per relation: each per-relation FD set is equivalent
    # to a single FD, the tractable side of the dichotomy.
    verdict = classify_schema(tpch_schema())
    assert verdict.is_tractable


def test_schema_shape():
    schema = tpch_schema()
    assert sorted(s.name for s in schema.signature) == sorted(TPCH_RELATIONS)
    for symbol in schema.signature:
        fds = [
            fd for fd in schema.fds_for(symbol.name).fds
            if not fd.is_trivial()
        ]
        assert len(fds) == 1
        (fd,) = fds
        assert fd.lhs | fd.rhs == symbol.attributes()


def test_streams_are_deterministic_and_seed_sensitive():
    first = list(iter_relation("orders", 0.002, seed=3))
    again = list(iter_relation("orders", 0.002, seed=3))
    other = list(iter_relation("orders", 0.002, seed=4))
    assert first == again
    assert first != other


def test_factories_replay_from_the_top():
    factory = generate_tables(0.002, seed=1)["lineitem"]
    assert list(factory()) == list(factory())


def test_table_sizes_proportions_and_floors():
    sizes = table_sizes(1.0)
    assert sizes["region"] == 5 and sizes["nation"] == 25
    assert sizes["partsupp"] == 2 * sizes["part"]
    assert sizes["lineitem"] == sizes["orders"] * 7
    tiny = table_sizes(1e-9)
    assert all(count >= 1 for count in tiny.values())
    with pytest.raises(UsageError):
        table_sizes(0)


def test_row_counts_match_table_sizes():
    sizes = table_sizes(0.002)
    for relation in TPCH_RELATIONS:
        count = sum(1 for _ in iter_relation(relation, 0.002, seed=5))
        if relation == "lineitem":
            # The one stochastic count: 4..10 lines per order.
            assert 4 * sizes["orders"] <= count <= 10 * sizes["orders"]
        else:
            assert count == sizes[relation]


def test_keys_are_unique_per_relation():
    schema = tpch_schema()
    for relation in TPCH_RELATIONS:
        fd = next(
            fd for fd in schema.fds_for(relation).fds
            if not fd.is_trivial()
        )
        keys = [
            tuple(row[p - 1] for p in fd.lhs_sorted)
            for row in iter_relation(relation, 0.002, seed=2)
        ]
        assert len(keys) == len(set(keys))


def test_foreign_keys_land_in_range():
    sizes = table_sizes(0.002)
    nations = {row[0] for row in iter_relation("nation", 0.002, 0)}
    for row in iter_relation("supplier", 0.002, 0):
        assert row[2] in nations
    for row in iter_relation("orders", 0.002, 0):
        assert 1 <= row[1] <= sizes["customer"]
    for row in iter_relation("lineitem", 0.002, 0):
        assert 1 <= row[0] <= sizes["orders"]
        assert 1 <= row[2] <= sizes["part"]
        assert 1 <= row[3] <= sizes["supplier"]


def test_unknown_relation_raises():
    with pytest.raises(UsageError):
        list(iter_relation("warehouse", 0.01))
    with pytest.raises(UsageError):
        generate_tables(0.01, relations=["warehouse"])
    with pytest.raises(UsageError):
        converters_for("warehouse")


@pytest.mark.parametrize("relation", sorted(TPCH_RELATIONS))
def test_tbl_roundtrip_is_typed_identity(relation, tmp_path):
    rows = list(iter_relation(relation, 0.002, seed=9))
    path = tmp_path / f"{relation}.tbl"
    assert write_tbl(rows, path) == len(rows)
    with StreamingInstanceStore(tpch_schema()) as store:
        assert store.ingest_tbl(
            relation, path, converters_for(relation)
        ) == len(rows)
        back = list(store.iter_rows(relation))
    expected = sorted(rows, key=lambda row: fact_sort_key(relation, row))
    assert back == expected
    assert [tuple(map(type, row)) for row in back] == [
        tuple(map(type, row)) for row in expected
    ]


def test_tbl_files_are_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a.tbl", tmp_path / "b.tbl"
    write_tbl(iter_relation("supplier", 0.002, seed=4), a)
    write_tbl(iter_relation("supplier", 0.002, seed=4), b)
    assert a.read_bytes() == b.read_bytes()


def test_tbl_files_are_utf8_and_read_back(tmp_path):
    path = tmp_path / "region.tbl"
    rows = [(0, "Åland ✓"), (1, 'q"e')]
    write_tbl(rows, path)
    assert path.read_bytes().decode("utf-8") == '0|Åland ✓|\n1|q"e|\n'
    with StreamingInstanceStore(tpch_schema()) as store:
        store.ingest_tbl("region", path, converters_for("region"))
        assert sorted(store.iter_rows("region")) == rows


def _injected_prioritizing(rate=0.08, seed=11):
    schema = tpch_schema()
    tables = generate_tables(0.005, seed)
    injected, manifest = inject_violations(tables, schema, rate, seed)
    with StreamingInstanceStore(schema) as store:
        for relation, factory in injected.items():
            store.ingest_rows(relation, factory())
        kernel = store.conflict_kernel()
    return tiered_prioritizing(schema, kernel, manifest)


def test_neighborhoods_are_small_valid_and_deterministic():
    prioritizing = _injected_prioritizing()
    neighborhoods = sample_conflict_neighborhoods(
        prioritizing, count=6, max_facts=12, seed=3
    )
    assert neighborhoods
    for sample in neighborhoods:
        assert 2 <= len(sample.instance.facts) <= 12
        assert sample.instance.facts <= prioritizing.instance.facts
        # Every neighborhood keeps some conflict to decide on.
        assert not sample.conflict_index.is_consistent()
    again = sample_conflict_neighborhoods(
        prioritizing, count=6, max_facts=12, seed=3
    )
    assert [s.instance.facts for s in again] == [
        s.instance.facts for s in neighborhoods
    ]
    shuffled = sample_conflict_neighborhoods(
        prioritizing, count=6, max_facts=12, seed=4
    )
    assert [s.instance.facts for s in shuffled] != [
        s.instance.facts for s in neighborhoods
    ]


def test_neighborhoods_reject_tiny_cap():
    prioritizing = _injected_prioritizing()
    with pytest.raises(UsageError):
        sample_conflict_neighborhoods(prioritizing, count=1, max_facts=1)


def test_streaming_interner_matches_in_memory_on_generated_data():
    schema = tpch_schema()
    with StreamingInstanceStore(schema) as store:
        for relation, factory in generate_tables(0.002, 6).items():
            store.ingest_rows(relation, factory())
        streamed = store.build_interner(kernel_only=False)
        materialized = FactInterner(store.to_instance())
    assert streamed.facts == materialized.facts
