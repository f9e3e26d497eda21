"""The dual-encoding streaming store, kept only as a test reference.

:class:`ReferenceStreamingStore` is the layout the native-typed
:class:`~repro.engine.streaming.StreamingInstanceStore` replaced: every
value is stored twice as TEXT — its :func:`canonical_value` (primary
key, ``GROUP BY``, ``DISTINCT``) and its :func:`encode_value` (what
scans decode) — and the FD probes group on the rhs columns joined with
a unit separator.  It is slow (two ``json.dumps`` per value) but its
equality is plain string equality over encodings whose collisions are
exactly Python's, which makes it a good oracle for the native layout:
``tests/properties/test_streaming_equivalence.py`` demands that both
stores agree on counts, scans (values *and* types), conflicts, and
interners.  Only the read surface the property compares is kept.
"""

from __future__ import annotations

import json
import sqlite3
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Sequence,
    Tuple,
)

from repro.core.fact import Fact
from repro.core.fd import FD
from repro.core.instance import Instance
from repro.core.interning import FactInterner
from repro.core.schema import Schema
from repro.engine.streaming import (
    canonical_value,
    encode_value,
    fact_sort_key,
)

#: Joins encoded rhs columns into one group expression.  json.dumps
#: with ensure_ascii=True escapes every control character, so the unit
#: separator can never occur inside an encoded value.
_RHS_SEPARATOR = "\x1f"


def decode_value(text: str) -> Any:
    """Inverse of :func:`~repro.engine.streaming.encode_value`."""
    return json.loads(text)


def _table(relation: str) -> str:
    return f"t_{relation}"


def _columns(arity: int) -> List[str]:
    return [f"c{i}" for i in range(1, arity + 1)]


def _value_columns(arity: int) -> List[str]:
    return [f"v{i}" for i in range(1, arity + 1)]


class ReferenceStreamingStore:
    """Canonical-key + type-faithful TEXT columns, one sqlite table per
    relation, ``INSERT OR IGNORE`` set semantics."""

    def __init__(self, schema: Schema, chunk_size: int = 8192) -> None:
        self._schema = schema
        self._chunk_size = chunk_size
        self._connection = sqlite3.connect(":memory:")
        self._arity = {s.name: s.arity for s in schema.signature}
        for name in sorted(self._arity):
            columns = _columns(self._arity[name])
            spec = ", ".join(
                f"{c} TEXT NOT NULL"
                for c in columns + _value_columns(self._arity[name])
            )
            self._connection.execute(
                f'CREATE TABLE "{_table(name)}" (skey TEXT NOT NULL, '
                f"{spec}, PRIMARY KEY ({', '.join(columns)})) WITHOUT ROWID"
            )

    def close(self) -> None:
        self._connection.close()

    def __enter__(self) -> "ReferenceStreamingStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def ingest_rows(self, relation: str, rows: Iterable[Sequence[Any]]) -> int:
        arity = self._arity[relation]
        columns = _columns(arity) + _value_columns(arity)
        statement = (
            f'INSERT OR IGNORE INTO "{_table(relation)}" '
            f"(skey, {', '.join(columns)}) "
            f"VALUES ({', '.join('?' * (2 * arity + 1))})"
        )
        inserted = 0
        batch: List[Tuple[str, ...]] = []
        for row in rows:
            values = tuple(row)
            batch.append(
                (fact_sort_key(relation, values),)
                + tuple(canonical_value(value) for value in values)
                + tuple(encode_value(value) for value in values)
            )
            if len(batch) >= self._chunk_size:
                inserted += self._connection.executemany(
                    statement, batch
                ).rowcount
                batch.clear()
        if batch:
            inserted += self._connection.executemany(statement, batch).rowcount
        self._connection.commit()
        return inserted

    def fact_count(self) -> int:
        return sum(
            self._connection.execute(
                f'SELECT COUNT(*) FROM "{_table(name)}"'
            ).fetchone()[0]
            for name in self._arity
        )

    def _decoded(self, query: str) -> Iterator[Tuple[Any, ...]]:
        cursor = self._connection.execute(query)
        while True:
            chunk = cursor.fetchmany(self._chunk_size)
            if not chunk:
                return
            for encoded in chunk:
                yield tuple(decode_value(cell) for cell in encoded)

    def iter_rows(self, relation: str) -> Iterator[Tuple[Any, ...]]:
        columns = ", ".join(_value_columns(self._arity[relation]))
        return self._decoded(
            f'SELECT {columns} FROM "{_table(relation)}" ORDER BY skey'
        )

    def iter_facts(self) -> Iterator[Fact]:
        for name in sorted(self._arity):
            for values in self.iter_rows(name):
                yield Fact(name, values)

    def _nontrivial_fds(self) -> List[FD]:
        return sorted(
            (fd for fd in self._schema.fds if not fd.is_trivial()), key=str
        )

    def _fd_sql_parts(self, fd: FD) -> Tuple[str, str]:
        lhs = ", ".join(f"c{p}" for p in fd.lhs_sorted)
        rhs = f" || '{_RHS_SEPARATOR}' || ".join(
            f"c{p}" for p in fd.rhs_sorted
        )
        return lhs, rhs

    def fd_violations(self, fd: FD) -> int:
        lhs, rhs = self._fd_sql_parts(fd)
        table = _table(fd.relation)
        if not lhs:
            row = self._connection.execute(
                f'SELECT COUNT(DISTINCT {rhs}) FROM "{table}"'
            ).fetchone()
            return 1 if row[0] > 1 else 0
        return self._connection.execute(
            f'SELECT COUNT(*) FROM (SELECT 1 FROM "{table}" '
            f"GROUP BY {lhs} HAVING COUNT(DISTINCT {rhs}) > 1)"
        ).fetchone()[0]

    def conflict_summary(self) -> Dict[str, int]:
        return {
            str(fd): self.fd_violations(fd) for fd in self._nontrivial_fds()
        }

    def iter_conflict_facts(self, fd: FD) -> Iterator[Fact]:
        columns = ", ".join(_value_columns(self._arity[fd.relation]))
        lhs, rhs = self._fd_sql_parts(fd)
        table = _table(fd.relation)
        if not lhs:
            where = f'(SELECT COUNT(DISTINCT {rhs}) FROM "{table}") > 1'
        else:
            where = (
                f'({lhs}) IN (SELECT {lhs} FROM "{table}" '
                f"GROUP BY {lhs} HAVING COUNT(DISTINCT {rhs}) > 1)"
            )
        for values in self._decoded(
            f'SELECT {columns} FROM "{table}" WHERE {where} ORDER BY skey'
        ):
            yield Fact(fd.relation, values)

    def conflict_kernel(self) -> Instance:
        kernel: List[Fact] = []
        seen: set = set()
        for fd in self._nontrivial_fds():
            for fact in self.iter_conflict_facts(fd):
                if fact not in seen:
                    seen.add(fact)
                    kernel.append(fact)
        return Instance(self._schema.signature, kernel)

    def conflict_pairs(self) -> FrozenSet[FrozenSet[Fact]]:
        pairs: List[FrozenSet[Fact]] = []
        for fd in self._nontrivial_fds():
            groups: Dict[Tuple[Any, ...], List[Fact]] = {}
            for fact in self.iter_conflict_facts(fd):
                groups.setdefault(fact.project(fd.lhs_sorted), []).append(fact)
            for members in groups.values():
                for i, left in enumerate(members):
                    for right in members[i + 1:]:
                        if left.project(fd.rhs_sorted) != right.project(
                            fd.rhs_sorted
                        ):
                            pairs.append(frozenset((left, right)))
        return frozenset(pairs)

    def build_interner(self) -> FactInterner:
        """The whole-store interner (``kernel_only=False``)."""
        return FactInterner._from_sorted(self.iter_facts())
