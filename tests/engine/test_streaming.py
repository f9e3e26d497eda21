"""The sqlite-backed streaming loader: set semantics, deterministic
scans, SQL-side conflict analysis, and kernel/index construction."""

from __future__ import annotations

import math
import random
import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Fact, Schema
from repro.core.bitset_index import BitsetConflictIndex
from repro.core.instance import Instance
from repro.core.interning import FactInterner
from repro.engine.streaming import (
    LAYOUT_VERSION,
    StreamingInstanceStore,
    encode_value,
    fact_sort_key,
)
from repro.exceptions import ReproError, UnknownRelationError, UsageError

from tests.engine.streaming_reference import decode_value
from tests.helpers import single_fd_schema

#: Values that stress the cell layout: a unit separator, quotes,
#: unicode, numeric/string lookalikes, and the values sqlite cannot
#: hold as bound (bools, None, -0.0, infinities, big integers).
TRICKY = [
    1, "1", 1.5, True, False, None, "", "a|b", "x\x1fy", 'q"\'\\', "é",
    -0.0, math.inf, -math.inf, 2**70, -(2**63), float(2**64),
]


def two_relation_schema() -> Schema:
    return Schema.parse(
        {"R": 2, "S": 3}, ["R: 1 -> 2", "S: {1,2} -> 3"]
    )


@pytest.fixture
def store():
    with StreamingInstanceStore(single_fd_schema()) as s:
        yield s


def test_ingest_is_set_semantics(store):
    added = store.ingest_rows("R", [(1, "a"), (1, "a"), (2, "b")])
    assert added == 2
    assert store.ingest_rows("R", [(1, "a"), (3, "c")]) == 1
    assert store.fact_count() == 3
    assert store.fact_count("R") == 3


def test_scan_order_is_str_sorted(store):
    rows = [(3, "z"), (1, "a"), (10, "m"), (2, "q")]
    store.ingest_rows("R", rows)
    facts = list(store.iter_facts())
    assert facts == sorted(
        (Fact("R", row) for row in rows), key=str
    )


def test_scan_order_independent_of_chunk_size(store):
    store.ingest_rows("R", [(i, f"v{i}") for i in range(50)])
    baseline = list(store.iter_facts(chunk_size=1000))
    for chunk_size in (1, 7):
        assert list(store.iter_facts(chunk_size=chunk_size)) == baseline


def test_global_scan_merges_relations_in_str_order():
    with StreamingInstanceStore(two_relation_schema()) as store:
        store.ingest_rows("S", [(1, 2, "x")])
        store.ingest_rows("R", [(9, "z"), (1, "a")])
        facts = list(store.iter_facts())
    assert facts == sorted(facts, key=str)
    assert [fact.relation for fact in facts] == ["R", "R", "S"]


def test_tricky_values_roundtrip(store):
    rows = [(index, value) for index, value in enumerate(TRICKY)]
    store.ingest_rows("R", rows)
    expected = sorted(rows, key=lambda row: fact_sort_key("R", row))
    # repr tells -0.0 from 0.0 and True from 1: types survive too.
    assert list(map(repr, store.iter_rows("R"))) == list(map(repr, expected))
    # 1 and "1" stay distinct facts.
    store.ingest_rows("R", [(99, 1), (99, "1")])
    assert store.fact_count("R") == len(rows) + 2


#: Mixed-type values whose ``str`` order differs from sqlite's
#: storage order: tagged values, ``1`` beside ``"1"``, floats, and
#: strings with quotes.  No two are equal in Python.
MIXED = [1, "1", 1.5, -2.25, False, None, math.inf, 2**70, "a", 'b"', "c'd"]


@pytest.mark.parametrize("chunk_size", [1, 7, 1000])
def test_conflict_facts_stream_in_str_order(chunk_size):
    conflicting = [(key, value) for key in MIXED for value in MIXED]
    rows = conflicting + [("solo", "x"), (3, None)]
    random.Random(chunk_size).shuffle(rows)
    schema = single_fd_schema()
    with StreamingInstanceStore(schema, chunk_size=chunk_size) as store:
        store.ingest_rows("R", rows)
        (fd,) = schema.fds
        facts = list(store.iter_conflict_facts(fd))
        scanned = list(store.iter_rows("R"))
    expected = sorted((Fact("R", row) for row in conflicting), key=str)
    assert list(map(str, facts)) == list(map(str, expected))
    assert list(map(repr, scanned)) == list(
        map(repr, sorted(rows, key=lambda row: fact_sort_key("R", row)))
    )


def test_encode_decode_are_inverse():
    for value in TRICKY:
        assert decode_value(encode_value(value)) == value
        assert type(decode_value(encode_value(value))) is type(value)
    with pytest.raises(UsageError):
        encode_value((1, 2))


def test_fact_sort_key_matches_str():
    for values in [(1, "a"), ("x\x1fy", None), (True, 2.5)]:
        assert fact_sort_key("R", values) == str(Fact("R", values))


def test_arity_and_relation_validation(store):
    with pytest.raises(UsageError):
        store.ingest_rows("R", [(1, "a", "extra")])
    with pytest.raises(UnknownRelationError):
        store.ingest_rows("T", [(1,)])
    with pytest.raises(UnknownRelationError):
        store.fact_count("T")
    with pytest.raises(UsageError):
        StreamingInstanceStore(single_fd_schema(), chunk_size=0)


def test_consistency_matches_in_memory_checker(store):
    store.ingest_rows("R", [(1, "a"), (2, "b")])
    assert store.is_consistent()
    store.ingest_rows("R", [(1, "b")])
    assert not store.is_consistent()
    summary = store.conflict_summary()
    assert summary == {"R: 1 -> 2": 1}


def test_multi_column_rhs_grouping():
    # S: {1,2} -> 3 with values engineered so naive string concat
    # without a separator would collide ("ab"+"c" vs "a"+"bc").
    with StreamingInstanceStore(two_relation_schema()) as store:
        store.ingest_rows("S", [("ab", "c", 1), ("a", "bc", 2)])
        assert store.is_consistent()
        store.ingest_rows("S", [("ab", "c", 9)])
        assert not store.is_consistent()
        kernel = store.conflict_kernel()
    assert kernel.facts == frozenset(
        {Fact("S", ("ab", "c", 1)), Fact("S", ("ab", "c", 9))}
    )


def test_conflict_kernel_and_pairs(store):
    store.ingest_rows(
        "R", [(1, "a"), (1, "b"), (1, "c"), (2, "x"), (3, "y")]
    )
    kernel = store.conflict_kernel()
    assert kernel.facts == frozenset(
        {Fact("R", (1, "a")), Fact("R", (1, "b")), Fact("R", (1, "c"))}
    )
    pairs = store.conflict_pairs()
    assert len(pairs) == 3  # the triangle of the 1-keyed block
    index = BitsetConflictIndex(single_fd_schema(), kernel)
    expected = frozenset(
        frozenset((f, g)) for _, f, g in index.iter_conflicts()
    )
    assert pairs == expected


def test_to_instance_matches_object_construction(store):
    rows = [(1, "a"), (1, "b"), (2, "c")]
    store.ingest_rows("R", rows)
    direct = Instance(
        single_fd_schema().signature,
        [Fact("R", row) for row in rows],
    )
    assert store.to_instance() == direct


def test_build_interner_matches_in_memory(store):
    store.ingest_rows("R", [(i % 5, f"v{i}") for i in range(20)])
    for chunk_size in (1, 7, 1000):
        streamed = store.build_interner(
            kernel_only=False, chunk_size=chunk_size
        )
        assert streamed.facts == FactInterner(store.to_instance()).facts
    kernel = store.conflict_kernel()
    assert store.build_interner().facts == FactInterner(kernel).facts


def test_build_bitset_index_kernel_and_full(store):
    store.ingest_rows("R", [(1, "a"), (1, "b"), (2, "c")])
    kernel_index = store.build_bitset_index()
    assert kernel_index.instance.facts == store.conflict_kernel().facts
    assert not kernel_index.is_consistent()
    full_index = store.build_bitset_index(kernel_only=False)
    assert full_index.instance.facts == store.to_instance().facts
    assert store.conflict_pairs() == frozenset(
        frozenset((f, g)) for _, f, g in full_index.iter_conflicts()
    )


def test_ingest_tbl_and_csv_match_rows(store, tmp_path):
    rows = [(1, "a"), (2, "b"), (3, "c|d")]
    tbl = tmp_path / "r.tbl"
    tbl.write_text("1|a|\n2|b|\n")
    assert store.ingest_tbl("R", tbl, (int, str)) == 2
    csv_path = tmp_path / "r.csv"
    csv_path.write_text('key,value\n3,"c|d"\n')
    assert store.ingest_csv("R", csv_path, (int, str)) == 1
    assert list(store.iter_rows("R")) == sorted(
        rows, key=lambda row: fact_sort_key("R", row)
    )


def test_ingest_tbl_errors(store, tmp_path):
    ragged = tmp_path / "ragged.tbl"
    ragged.write_text("1|a|b|\n")
    with pytest.raises(UsageError):
        store.ingest_tbl("R", ragged)
    untyped = tmp_path / "untyped.tbl"
    untyped.write_text("x|a|\n")
    with pytest.raises(UsageError):
        store.ingest_tbl("R", untyped, (int, str))
    with pytest.raises(UsageError):
        store.ingest_tbl("R", untyped, (int,))


def test_file_backed_store(tmp_path):
    path = tmp_path / "store.sqlite"
    with StreamingInstanceStore(single_fd_schema(), path=path) as store:
        store.ingest_rows("R", [(1, "a"), (1, "b")])
        assert not store.is_consistent()
    assert path.exists()
    # Reopening sees the persisted rows (CREATE TABLE IF NOT EXISTS).
    with StreamingInstanceStore(single_fd_schema(), path=path) as store:
        assert store.fact_count() == 2


def test_bad_path_raises_repro_error(tmp_path):
    with pytest.raises(ReproError):
        StreamingInstanceStore(
            single_fd_schema(), path=tmp_path / "no" / "such" / "dir.db"
        )


def test_constant_attribute_fd_consistency():
    schema = Schema.parse({"C": 2}, ["C: {} -> 1"])
    with StreamingInstanceStore(schema) as store:
        store.ingest_rows("C", [("v", 1), ("v", 2)])
        assert store.is_consistent()
        store.ingest_rows("C", [("w", 3)])
        assert not store.is_consistent()
        kernel = store.conflict_kernel()
        assert len(kernel.facts) == 3
        assert len(store.conflict_pairs()) == 2


def test_equal_values_of_different_types_collide_first_wins(store):
    assert store.ingest_rows(
        "R", [(1, True), (1, 1), (1.0, 1.0), (0, -0.0), (0, 0), (0.0, False)]
    ) == 2
    assert store.ingest_rows("R", [(2**70, "x"), (float(2**70), "x")]) == 1
    rows = list(store.iter_rows("R"))
    assert [tuple(map(type, row)) for row in rows] == [
        (int, float), (int, bool), (int, str)
    ]
    assert repr(rows[0]) == "(0, -0.0)"


def test_nans_collapse_to_one_value(store):
    assert store.ingest_rows(
        "R", [(math.nan, 1), (float("nan"), 1), (1, math.nan)]
    ) == 2
    store.ingest_rows("R", [(1, float("nan"))])
    assert store.is_consistent()
    store.ingest_rows("R", [(1, "nan")])
    assert store.conflict_summary() == {"R: 1 -> 2": 1}


def test_lone_surrogate_strings_are_stored_faithfully(store):
    rows = [(1, "\ud800"), (1, "\ud800"), (2, "plain"), (1, "\udfff")]
    assert store.ingest_rows("R", rows) == 3
    assert sorted(store.iter_rows("R")) == sorted(set(rows))
    assert store.conflict_summary() == {"R: 1 -> 2": 1}


def test_fd_probes_group_numeric_equals(store):
    # 1 and 1.0 are one rhs value; "1" is another.
    store.ingest_rows("R", [(7, 1), (7, 1.0), (8, True), (8, 1)])
    assert store.is_consistent()
    store.ingest_rows("R", [(7, "1")])
    assert store.conflict_summary() == {"R: 1 -> 2": 1}
    assert set(store.conflict_kernel().facts) == {
        Fact("R", (7, 1)), Fact("R", (7, "1"))
    }


def test_overlapping_lhs_and_rhs():
    schema = Schema.parse({"T": 3}, ["T: 1 -> {1,2}"])
    with StreamingInstanceStore(schema) as store:
        store.ingest_rows("T", [(1, "a", 0), (1, "a", 1), (2, "b", 0)])
        assert store.is_consistent()
        store.ingest_rows("T", [(2, "c", 0)])
        assert store.conflict_summary() == {"T: 1 -> {1,2}": 1}
        assert len(store.conflict_kernel().facts) == 2


def traced(store):
    """The SQL statements ``store`` runs from now on, as a live list."""
    statements = []
    store._connection.set_trace_callback(statements.append)
    return statements


def group_queries(statements, relation):
    """The statements that run a violating-group query on ``relation``."""
    return [
        sql for sql in statements
        if "HAVING COUNT(*) > 1" in sql and f'"t_{relation}"' in sql
    ]


def test_one_violating_group_query_per_fd_across_conflict_queries():
    schema = two_relation_schema()
    with StreamingInstanceStore(schema) as store:
        store.ingest_rows("R", [(1, "a"), (1, "b"), (2, "c")])
        store.ingest_rows("S", [(1, 2, 3), (1, 2, 4), (1, 3, 3)])
        statements = traced(store)
        pairs = store.conflict_pairs()
        kernel = store.conflict_kernel()
        assert not store.is_consistent()
        assert store.conflict_summary() == {
            "R: 1 -> 2": 1, "S: {1,2} -> 3": 1
        }
        for fd in schema.fds:
            assert list(store.iter_conflict_facts(fd))
        assert len(group_queries(statements, "R")) == 1
        assert len(group_queries(statements, "S")) == 1
    assert len(pairs) == 2
    assert kernel.facts == {fact for pair in pairs for fact in pair}


def test_a_conflicting_ingest_invalidates_the_probe(store):
    store.ingest_rows("R", [(1, "a"), (2, "b")])
    assert store.conflict_pairs() == frozenset()
    assert not store.conflict_kernel().facts
    assert store.ingest_rows("R", [(1, "c")]) == 1
    new, old = Fact("R", (1, "c")), Fact("R", (1, "a"))
    assert store.conflict_kernel().facts == {new, old}
    assert store.conflict_pairs() == {frozenset((new, old))}
    assert store.conflict_summary() == {"R: 1 -> 2": 1}


def test_an_all_duplicate_ingest_keeps_the_probe(store):
    store.ingest_rows("R", [(1, "a"), (1, "b")])
    kernel = store.conflict_kernel()
    assert store.ingest_rows("R", [(1, "a"), (1, "b")]) == 0
    statements = traced(store)
    assert store.conflict_kernel() == kernel
    assert store.conflict_pairs()
    assert group_queries(statements, "R") == []


def test_a_write_by_another_store_invalidates_the_probe(tmp_path):
    path = tmp_path / "store.sqlite"
    schema = single_fd_schema()
    with StreamingInstanceStore(schema, path=path) as first:
        first.ingest_rows("R", [(1, "a"), (2, "b")])
        assert first.conflict_kernel().facts == frozenset()
        assert first.is_consistent()
        with StreamingInstanceStore(schema, path=path) as second:
            assert second.ingest_rows("R", [(2, "c")]) == 1
        assert first.conflict_kernel().facts == {
            Fact("R", (2, "b")), Fact("R", (2, "c"))
        }
        assert not first.is_consistent()


def test_an_unprobed_consistency_check_builds_no_facts(store):
    store.ingest_rows("R", [(1, "a"), (1, "b"), (2, "c")])
    statements = traced(store)
    assert not store.is_consistent()
    assert store.conflict_summary() == {"R: 1 -> 2": 1}
    assert len(group_queries(statements, "R")) == 2
    assert not [sql for sql in statements if "tags" in sql]


def test_key_fds_skip_the_distinct_pass():
    schema = Schema.parse({"K": 2, "N": 3}, ["K: 1 -> 2", "N: 1 -> 2"])
    with StreamingInstanceStore(schema) as store:
        store.ingest_rows("K", [(1, "a"), (1, "b")])
        store.ingest_rows("N", [(1, "a", 0), (1, "a", 1), (2, "b", 0)])
        statements = traced(store)
        assert store.conflict_summary() == {"K: 1 -> 2": 1, "N: 1 -> 2": 0}
        (key_query,) = group_queries(statements, "K")
        (non_key_query,) = group_queries(statements, "N")
    assert "DISTINCT" not in key_query
    assert "DISTINCT" in non_key_query


def test_store_file_is_stamped_with_the_layout_version(tmp_path):
    path = tmp_path / "store.sqlite"
    StreamingInstanceStore(single_fd_schema(), path=path).close()
    connection = sqlite3.connect(path)
    try:
        assert connection.execute(
            "PRAGMA user_version"
        ).fetchone() == (LAYOUT_VERSION,)
    finally:
        connection.close()


def test_old_layout_store_file_is_refused(tmp_path):
    path = tmp_path / "old.sqlite"
    connection = sqlite3.connect(path)
    connection.execute(
        'CREATE TABLE "t_R" (skey TEXT NOT NULL, c1 TEXT NOT NULL, '
        "c2 TEXT NOT NULL, v1 TEXT NOT NULL, v2 TEXT NOT NULL, "
        "PRIMARY KEY (c1, c2)) WITHOUT ROWID"
    )
    connection.execute(
        """INSERT INTO "t_R" VALUES ('R(1, ''a'')', '1', '"a"', '1', '"a"')"""
    )
    connection.commit()
    connection.close()
    with pytest.raises(ReproError, match="old.sqlite.*layout version 0"):
        StreamingInstanceStore(single_fd_schema(), path=path)


def test_layout_2_store_file_is_refused(tmp_path):
    path = tmp_path / "v2.sqlite"
    connection = sqlite3.connect(path)
    connection.execute(
        'CREATE TABLE "t_R" (skey TEXT NOT NULL, c1 NOT NULL, c2 NOT NULL, '
        "tags TEXT, PRIMARY KEY (c1, c2)) WITHOUT ROWID"
    )
    connection.execute(
        """INSERT INTO "t_R" VALUES ('R(1, ''a'')', 1, 'a', NULL)"""
    )
    connection.execute("PRAGMA user_version = 2")
    connection.commit()
    connection.close()
    with pytest.raises(
        ReproError,
        match=f"v2.sqlite.*layout version 2.*reads version {LAYOUT_VERSION}",
    ):
        StreamingInstanceStore(single_fd_schema(), path=path)


def test_newer_layout_version_is_refused(tmp_path):
    path = tmp_path / "future.sqlite"
    connection = sqlite3.connect(path)
    connection.execute(f"PRAGMA user_version = {LAYOUT_VERSION + 1}")
    connection.close()
    with pytest.raises(ReproError, match="future.sqlite"):
        StreamingInstanceStore(single_fd_schema(), path=path)


def test_non_database_file_is_a_repro_error(tmp_path):
    path = tmp_path / "notes.txt"
    path.write_text("not a database, just some text " * 40)
    with pytest.raises(ReproError, match="notes.txt"):
        StreamingInstanceStore(single_fd_schema(), path=path)


#: Malformed files and the ``path:line`` each error must name.
MALFORMED = [
    ("tbl", b"1|a|\n2|\xff|\n", "bad.tbl:2: not valid UTF-8"),
    ("csv", b"k,v\n1,a\n\n2,\xc3(\n", "bad.csv:4: not valid UTF-8"),
    ("csv", b"k,v\n1," + b"x" * 131073 + b"\n", "bad.csv:2: malformed CSV"),
    ("tbl", b"1|a|b|\n", "bad.tbl:1: expected 2 columns"),
    ("csv", b"k,v\n\nx,a\n", "bad.csv:3: cannot convert"),
]


@pytest.mark.parametrize("kind, content, message", MALFORMED)
def test_malformed_files_raise_usage_error(store, tmp_path, kind, content,
                                           message):
    path = tmp_path / f"bad.{kind}"
    path.write_bytes(content)
    ingest = store.ingest_tbl if kind == "tbl" else store.ingest_csv
    with pytest.raises(UsageError, match=message):
        ingest("R", path, (int, str))


@pytest.mark.parametrize("kind", ["tbl", "csv"])
def test_unreadable_path_raises_usage_error(store, tmp_path, kind):
    ingest = store.ingest_tbl if kind == "tbl" else store.ingest_csv
    with pytest.raises(UsageError, match="missing"):
        ingest("R", tmp_path / f"missing.{kind}")
    with pytest.raises(UsageError, match="Is a directory"):
        ingest("R", tmp_path)


@given(
    st.binary(max_size=300)
    | st.lists(
        st.sampled_from(
            [b"1", b"a", b"|", b",", b'"', b"\n", b"\r", b"\x00", b"\xff",
             b"\xc3", b"\xa9", b"-", b".", b"e9", b"nan", b" "]
        ),
        max_size=60,
    ).map(b"".join),
    st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_random_bytes_raise_only_repro_errors(tmp_path_factory, content,
                                              typed_columns):
    path = tmp_path_factory.mktemp("fuzz") / "input"
    path.write_bytes(content)
    converters = (int, str) if typed_columns else None
    for ingest in ("ingest_tbl", "ingest_csv"):
        with StreamingInstanceStore(single_fd_schema(), chunk_size=3) as s:
            try:
                getattr(s, ingest)("R", path, converters)
            except ReproError:
                continue
            for row in s.iter_rows("R"):
                assert len(row) == 2
