"""A sqlite-backed streaming loader: million-tuple instances in bounded memory.

Every pre-existing loader path (:class:`~repro.engine.database.Database`,
:func:`~repro.engine.csv_loader.load_csv`, :func:`repro.io`) builds an
object-per-fact :class:`~repro.core.instance.Instance` before anything
else can happen, which caps workloads at what fits in a Python heap —
a few hundred thousand facts.  :class:`StreamingInstanceStore` removes
that cap for the load path:

* rows are **ingested in chunks** (from iterators, ``.tbl`` files, or
  CSV) into one sqlite table per relation, with set semantics (a
  primary key over all value columns + ``INSERT OR IGNORE``) matching
  ``Instance``'s frozenset exactly;
* every value is stored **once, in its native sqlite type**: the key
  columns carry no type affinity, so a ``str``, an int64, or a finite
  float is bound as it is and sqlite's own comparisons agree with
  Python's (``1 == 1.0``, ``1 != "1"``).  Values sqlite cannot hold
  faithfully — bools, ``None``, nan, infinities, ``-0.0``, integers
  beyond int64 — are keyed by an equality-preserving stand-in, and
  their row keeps its exact values in a JSON ``tags`` column that scans
  decode instead;
* scans are **``str``-ordered in Python, and only where order is
  read**: no sort key is stored, so ingest pays nothing for order.
  :meth:`~StreamingInstanceStore.iter_conflict_facts` sorts one FD's
  kernel-sized facts by ``str``; a whole-relation scan sorts that
  relation.  Every downstream id assignment is therefore deterministic
  and identical to the in-memory ``sorted(..., key=str)`` order;
* **violating groups are found in SQL**: per FD, a ``GROUP BY lhs
  HAVING COUNT(*) > 1`` (over ``SELECT DISTINCT lhs, rhs`` unless the
  FD spans every attribute, when the table key makes rows distinct
  already) detects them without materializing a single
  :class:`Fact`;
* **one conflict probe per write**: the first conflict query fetches,
  per FD, the facts of its violating groups in one unsorted scan and
  memoizes them, stamped with the store's write generation.  The
  kernel, the conflict pairs and the consistency counts all read that
  probe until a write changes the stamp; a store that was never probed
  answers consistency with counting SQL instead, building no facts;
* only the **conflict kernel** — the facts participating in at least
  one conflict — is ever materialized at scale.  Facts outside every
  conflict belong to every repair and cannot affect any optimality
  verdict, so checking, repairing, and priority assignment all happen
  on the kernel, whose size tracks the injected-violation count, not
  the instance;
* the kernel's :class:`~repro.core.interning.FactInterner` and
  :class:`~repro.core.bitset_index.BitsetConflictIndex` are built from
  the probe's facts sorted by ``str`` (that order *is* interning
  order), never from a full ``Instance``.

For small instances :meth:`StreamingInstanceStore.to_instance` also
materializes the whole store, which is what the loader-equivalence
property suite uses to hold the streaming path to the in-memory path:
identical interner fingerprints, conflict sets, and checker verdicts
across chunk sizes.
"""

from __future__ import annotations

import csv
import json
import sqlite3
from math import copysign
from pathlib import Path
from typing import (
    IO,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.bitset_index import BitsetConflictIndex
from repro.core.fact import Fact
from repro.core.fd import FD
from repro.core.instance import Instance
from repro.core.interning import FactInterner
from repro.core.schema import Schema
from repro.exceptions import ReproError, UsageError

__all__ = [
    "StreamingInstanceStore",
    "encode_value",
    "canonical_value",
    "fact_sort_key",
]

#: Values crossing the streaming boundary must be JSON scalars — the
#: same closure the wire protocol and the journal accept.
_SCALAR_TYPES = (str, int, float, bool, type(None))

DEFAULT_CHUNK_SIZE = 8192

#: ``PRAGMA user_version`` of a store file in this module's table
#: layout.  Version 2 stored a ``str(fact)`` sort key in every row; the
#: dual-encoding layout before it never stamped the pragma, so its
#: files read 0.
LAYOUT_VERSION = 3

#: Integers and finite floats in the open range ``(-2**63, 2**63)``
#: are bound natively.  Leaving out ``-2**63`` itself, though it fits
#: int64, keeps ``-2**63 == float(-2**63)`` on one (tagged) side.
_INT64_BOUND = 2**63
_FLOAT64_BOUND = float(2**63)


def encode_value(value: Any) -> str:
    """The type-faithful JSON encoding of one constant.

    It distinguishes ``1``/``1.0``/``True``, so decoding it gives back
    the exact value; rows holding a value sqlite cannot store natively
    keep their values in this encoding.
    """
    if not isinstance(value, _SCALAR_TYPES):
        raise UsageError(
            f"the streaming loader stores JSON scalars only, got "
            f"{type(value).__name__}: {value!r}"
        )
    return json.dumps(value)


def canonical_value(value: Any) -> str:
    """An encoding with ``x == y  ⇔  canonical_value(x) == canonical_value(y)``.

    Python's value equality crosses the numeric types — ``0 == False``,
    ``1 == 1.0 == True`` — and :class:`Fact` equality (hence frozenset
    deduplication and conflict detection) inherits it: every bool and
    every integral float collapses onto its ``int`` equal (exact —
    integral floats convert losslessly), while strings, ``None``, and
    non-integral floats keep their :func:`encode_value` form, which
    never collides with an int's.
    """
    if isinstance(value, bool):
        return json.dumps(int(value))
    if isinstance(value, float) and value.is_integer():
        return json.dumps(int(value))
    return encode_value(value)


def fact_sort_key(relation: str, values: Sequence[Any]) -> str:
    """``str(Fact(relation, values))`` computed without building the fact.

    This is the total order the whole codebase sorts facts by
    (``sorted(..., key=str)``); whole-relation scans sort their rows by
    it without building a :class:`Fact` per row.
    """
    return f"{relation}({', '.join(map(repr, values))})"


def _key_cell(value: Any) -> Any:
    """The key-column cell of a scalar, equal in sqlite iff equal in Python.

    A bool keys as its int and ``-0.0`` as ``0``, so they collide with
    their numeric equals.  ``None``, nan, the infinities, and integers
    (or integral floats) outside int64 key as ``bytes``: a BLOB never
    compares equal to TEXT, INTEGER, or REAL, so the stand-ins cannot
    collide with a bound value.  All nans key alike, so they collapse
    to one value.  A string that UTF-8 cannot encode (a lone surrogate)
    cannot be bound as TEXT and keys as its surrogate-passing bytes.
    """
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, str):
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            return b"s" + value.encode("utf-8", "surrogatepass")
        return str(value)
    if isinstance(value, int):
        if -_INT64_BOUND < value < _INT64_BOUND:
            return int(value)
        return b"i%d" % value
    if isinstance(value, float):
        if -_FLOAT64_BOUND < value < _FLOAT64_BOUND:
            return float(value) if value else 0
        if value.is_integer():
            return b"i%d" % int(value)
        return b"f" + repr(value).encode()
    return b"n"


def _tagged_row(values: Tuple[Any, ...]) -> Tuple[Any, ...]:
    """An insert row whose ``tags`` column keeps the exact values."""
    tags = f"[{', '.join(map(encode_value, values))}]"
    return (*map(_key_cell, values), tags)


def _decode(row: Tuple[Any, ...]) -> Tuple[Any, ...]:
    """The exact values of a scanned ``(key cells..., tags)`` row."""
    tags = row[-1]
    if tags is None:
        return row[:-1]
    return tuple(json.loads(tags))


def _first_undecodable_line(path: Union[str, Path]) -> int:
    """The 1-based line of a file's first UTF-8 decoding error.

    Text files decode in blocks, so the error itself carries no line;
    a multi-byte sequence never spans a newline, so decoding line by
    line finds the same error.
    """
    with open(path, "rb") as handle:
        for line_number, line in enumerate(handle, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return line_number
    return 0


#: Per non-trivial FD, its violating-group count and the facts of those
#: groups, in storage order.
_Probe = Dict[FD, Tuple[int, List[Fact]]]


def _table(relation: str) -> str:
    return f't_{relation}'


def _columns(arity: int) -> List[str]:
    """The key columns, one per attribute."""
    return [f"c{i}" for i in range(1, arity + 1)]


class StreamingInstanceStore:
    """Chunked sqlite ingestion and SQL-side conflict analysis.

    Parameters
    ----------
    schema:
        The fixed schema; one table per relation symbol is created.
    path:
        sqlite database location.  The default ``":memory:"`` bounds
        memory by the *instance* size (fine for tests); pass a file
        path for genuinely bounded-memory loads at scale.
    chunk_size:
        Rows per ``executemany`` batch and per cursor fetch.

    Examples
    --------
    >>> from repro.core import Schema
    >>> schema = Schema.single_relation(["1 -> 2"], arity=2)
    >>> store = StreamingInstanceStore(schema)
    >>> store.ingest_rows("R", [(1, "a"), (1, "b"), (2, "c"), (1, "a")])
    3
    >>> store.is_consistent()
    False
    >>> sorted(map(str, store.conflict_kernel()))
    ["R(1, 'a')", "R(1, 'b')"]
    """

    def __init__(
        self,
        schema: Schema,
        path: Union[str, Path] = ":memory:",
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> None:
        if chunk_size < 1:
            raise UsageError(f"chunk_size must be >= 1, got {chunk_size}")
        self._schema = schema
        self._path = str(path)
        self._chunk_size = chunk_size
        self._probe: Optional[_Probe] = None
        self._probe_stamp: Optional[Tuple[int, int]] = None
        self._arity = {
            symbol.name: symbol.arity for symbol in schema.signature
        }
        try:
            self._connection = sqlite3.connect(self._path)
            try:
                self._create_tables()
            except BaseException:
                self._connection.close()
                raise
        except sqlite3.Error as exc:
            raise ReproError(
                f"cannot open streaming store at {self._path!r}: {exc}"
            ) from exc

    def _create_tables(self) -> None:
        connection = self._connection
        # The store is an analysis scratch space, not a system of
        # record: crash durability buys nothing here, write speed does.
        connection.execute("PRAGMA journal_mode = MEMORY")
        connection.execute("PRAGMA synchronous = OFF")
        version = connection.execute("PRAGMA user_version").fetchone()[0]
        if version != LAYOUT_VERSION:
            if version or connection.execute(
                "SELECT 1 FROM sqlite_master LIMIT 1"
            ).fetchone():
                raise ReproError(
                    f"streaming store {self._path!r} has table layout "
                    f"version {version}, this loader reads version "
                    f"{LAYOUT_VERSION}; remove the file or pass another "
                    f"path"
                )
            connection.execute(f"PRAGMA user_version = {LAYOUT_VERSION}")
        for name in sorted(self._arity):
            columns = _columns(self._arity[name])
            key_spec = ", ".join(f"{c} NOT NULL" for c in columns)
            # The key columns have no type affinity, so sqlite keeps
            # every value as bound and compares them as Python does
            # (1 == 1.0, 1 != "1"); INSERT OR IGNORE on the key keeps
            # the first-inserted representative, as a set insert would.
            connection.execute(
                f'CREATE TABLE IF NOT EXISTS "{_table(name)}" '
                f"({key_spec}, tags TEXT, "
                f"PRIMARY KEY ({', '.join(columns)})) WITHOUT ROWID"
            )
        connection.commit()

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Close the sqlite connection (idempotent)."""
        self._probe = None
        self._connection.close()

    def __enter__(self) -> "StreamingInstanceStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    @property
    def schema(self) -> Schema:
        """The fixed schema."""
        return self._schema

    @property
    def path(self) -> str:
        """The sqlite database location backing this store."""
        return self._path

    # -- ingestion -----------------------------------------------------------

    def _require_relation(self, relation: str) -> int:
        arity = self._arity.get(relation)
        if arity is None:
            from repro.exceptions import UnknownRelationError

            raise UnknownRelationError(relation)
        return arity

    def ingest_rows(
        self, relation: str, rows: Iterable[Sequence[Any]]
    ) -> int:
        """Chunked set-semantics insert; returns rows actually added.

        Duplicate rows (within the stream or against prior ingests)
        collapse silently, matching frozenset construction.  Memory use
        is bounded by ``chunk_size``, never by the stream length.
        """
        arity = self._require_relation(relation)
        statement = (
            f'INSERT OR IGNORE INTO "{_table(relation)}" '
            f"VALUES ({', '.join('?' * (arity + 1))})"
        )
        connection = self._connection
        before = connection.total_changes
        batch: List[Tuple[Any, ...]] = []

        def flush() -> None:
            try:
                connection.executemany(statement, batch)
            except UnicodeEncodeError:
                # A lone surrogate cannot be bound as TEXT: replay the
                # batch with every row tagged (rows already in are
                # ignored by the key, as any duplicate is).
                connection.executemany(
                    statement,
                    [row if row[-1] else _tagged_row(row[:-1])
                     for row in batch],
                )
            batch.clear()

        for row in rows:
            values = tuple(row)
            if len(values) != arity:
                raise UsageError(
                    f"relation {relation!r} has arity {arity}, got a row "
                    f"of width {len(values)}: {values!r}"
                )
            for value in values:
                kind = type(value)
                if kind is str:
                    continue
                if kind is int:
                    if -_INT64_BOUND < value < _INT64_BOUND:
                        continue
                elif kind is float:
                    if -_FLOAT64_BOUND < value < _FLOAT64_BOUND and (
                        value or copysign(1.0, value) > 0
                    ):
                        continue
                batch.append(_tagged_row(values))
                break
            else:
                batch.append((*values, None))
            if len(batch) >= self._chunk_size:
                flush()
        if batch:
            flush()
        connection.commit()
        return connection.total_changes - before

    def ingest_tbl(
        self,
        relation: str,
        path: Union[str, Path],
        converters: Optional[Sequence[Callable[[str], Any]]] = None,
    ) -> int:
        """Ingest a TPC-H ``.tbl`` file (pipe-delimited, trailing pipe).

        ``converters`` restores column types (default: keep strings).
        """

        def records(handle: IO[str]) -> Iterator[Tuple[int, List[str]]]:
            for line_number, line in enumerate(handle, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                cells = line.split("|")
                if cells[-1] == "":
                    cells.pop()
                yield line_number, cells

        return self._ingest_file(relation, path, converters, records)

    def ingest_csv(
        self,
        relation: str,
        path: Union[str, Path],
        converters: Optional[Sequence[Callable[[str], Any]]] = None,
        has_header: bool = True,
        delimiter: str = ",",
    ) -> int:
        """Ingest a CSV export, mirroring
        :func:`repro.engine.csv_loader.load_csv`'s conventions but in
        bounded memory."""

        def records(handle: IO[str]) -> Iterator[Tuple[int, List[str]]]:
            reader = csv.reader(handle, delimiter=delimiter)
            try:
                for row_number, cells in enumerate(reader):
                    if has_header and row_number == 0:
                        continue
                    if not cells or all(not c.strip() for c in cells):
                        continue
                    yield reader.line_num, cells
            except csv.Error as exc:
                raise UsageError(
                    f"{path}:{reader.line_num}: malformed CSV: {exc}"
                ) from exc

        return self._ingest_file(relation, path, converters, records)

    def _ingest_file(
        self,
        relation: str,
        path: Union[str, Path],
        converters: Optional[Sequence[Callable[[str], Any]]],
        records: Callable[[IO[str]], Iterator[Tuple[int, List[str]]]],
    ) -> int:
        """Ingest the ``(line number, cells)`` records of a UTF-8 text
        file; malformed input of any kind raises :class:`UsageError`."""
        arity = self._require_relation(relation)
        if converters is not None and len(converters) != arity:
            raise UsageError(
                f"got {len(converters)} converters for relation "
                f"{relation!r} of arity {arity}"
            )

        def typed_rows() -> Iterator[Tuple[Any, ...]]:
            try:
                with open(path, newline="", encoding="utf-8") as handle:
                    for line_number, cells in records(handle):
                        if len(cells) != arity:
                            raise UsageError(
                                f"{path}:{line_number}: expected {arity} "
                                f"columns for {relation!r}, got "
                                f"{len(cells)}"
                            )
                        if converters is None:
                            yield tuple(cells)
                            continue
                        try:
                            yield tuple(
                                convert(cell)
                                for convert, cell in zip(converters, cells)
                            )
                        except (TypeError, ValueError) as exc:
                            raise UsageError(
                                f"{path}:{line_number}: cannot convert "
                                f"row: {exc}"
                            ) from exc
            except UnicodeDecodeError as exc:
                raise UsageError(
                    f"{path}:{_first_undecodable_line(path)}: not valid "
                    f"UTF-8 ({exc.reason})"
                ) from exc
            except OSError as exc:
                raise UsageError(
                    f"cannot read {relation!r} rows from {path}: "
                    f"{exc.strerror or exc}"
                ) from exc

        return self.ingest_rows(relation, typed_rows())

    # -- counting and scanning -----------------------------------------------

    def fact_count(self, relation: Optional[str] = None) -> int:
        """Distinct facts stored, overall or for one relation."""
        if relation is not None:
            self._require_relation(relation)
            names = [relation]
        else:
            names = sorted(self._arity)
        total = 0
        for name in names:
            row = self._connection.execute(
                f'SELECT COUNT(*) FROM "{_table(name)}"'
            ).fetchone()
            total += row[0]
        return total

    def _iter_scan(
        self, query: str, chunk_size: Optional[int] = None
    ) -> Iterator[Tuple[Any, ...]]:
        """Decoded rows of a ``SELECT c1…cn, tags`` query, fetched in
        chunks."""
        cursor = self._connection.execute(query)
        size = chunk_size or self._chunk_size
        while True:
            chunk = cursor.fetchmany(size)
            if not chunk:
                return
            yield from map(_decode, chunk)

    def iter_rows(
        self, relation: str, chunk_size: Optional[int] = None
    ) -> Iterator[Tuple[Any, ...]]:
        """One relation's rows in deterministic (``str``) order.

        The rows are fetched in chunks but sorted in Python, so an
        ordered whole-relation scan holds that relation in memory.
        """
        columns = ", ".join(_columns(self._require_relation(relation)))
        rows = self._iter_scan(
            f'SELECT {columns}, tags FROM "{_table(relation)}"', chunk_size
        )
        return iter(
            sorted(rows, key=lambda values: fact_sort_key(relation, values))
        )

    def iter_facts(
        self,
        relation: Optional[str] = None,
        chunk_size: Optional[int] = None,
    ) -> Iterator[Fact]:
        """Facts in global interning (``str``-sorted) order.

        Each relation's rows come from :meth:`iter_rows`, so one
        relation at a time is held in memory.  Relations are scanned in
        name order, so the whole-store scan is also ``str``-sorted:
        table name order and ``str`` order coincide because
        ``str(fact)`` starts with the relation name.
        """
        if relation is not None:
            self._require_relation(relation)
            names = [relation]
        else:
            names = sorted(self._arity)
        for name in names:
            for values in self.iter_rows(name, chunk_size):
                yield Fact(name, values)

    # -- SQL-side consistency and conflicts ----------------------------------

    def _violating_groups_sql(self, fd: FD) -> str:
        """A query whose rows witness ``fd``'s violating groups.

        For ``X → Y`` it yields the ``X`` of every group holding two
        distinct ``Y`` values; for ``∅ → Y`` it yields one row per
        distinct ``Y`` value, at most two.  Grouping runs on the native
        key cells, so ``1`` and ``1.0`` are one value, as in Python.
        When ``X ∪ Y`` spans every attribute, stored rows are distinct
        on the table key, so two rows sharing ``X`` differ on ``Y`` and
        counting the rows of a group needs no ``DISTINCT`` pass.
        """
        table = _table(fd.relation)
        lhs = ", ".join(f"c{p}" for p in fd.lhs_sorted)
        rhs = ", ".join(f"c{p}" for p in fd.rhs_sorted if p not in fd.lhs)
        if not lhs:
            return f'SELECT DISTINCT {rhs} FROM "{table}" LIMIT 2'
        if len(fd.span_sorted) == self._arity[fd.relation]:
            return (
                f'SELECT {lhs} FROM "{table}" '
                f"GROUP BY {lhs} HAVING COUNT(*) > 1"
            )
        return (
            f"SELECT {lhs} FROM "
            f'(SELECT DISTINCT {lhs}, {rhs} FROM "{table}") '
            f"GROUP BY {lhs} HAVING COUNT(*) > 1"
        )

    def _nontrivial_fds(self) -> List[FD]:
        return sorted(
            (fd for fd in self._schema.fds if not fd.is_trivial()), key=str
        )

    def _scan_violations(self, fd: FD) -> Tuple[int, List[Fact]]:
        """``fd``'s violating-group count and the facts of those groups.

        One kernel-sized scan, in storage order.  Groups are counted on
        the key cells, so the count is the one the counting SQL gives.
        """
        columns = ", ".join(_columns(self._arity[fd.relation]))
        groups = self._violating_groups_sql(fd)
        if fd.lhs:
            lhs = ", ".join(f"c{p}" for p in fd.lhs_sorted)
            where = f"({lhs}) IN ({groups})"
        else:
            where = f"(SELECT COUNT(*) FROM ({groups})) > 1"
        rows = self._connection.execute(
            f'SELECT {columns}, tags FROM "{_table(fd.relation)}" '
            f"WHERE {where}"
        ).fetchall()
        if fd.lhs:
            count = len({
                tuple(row[p - 1] for p in fd.lhs_sorted) for row in rows
            })
        else:
            count = 1 if rows else 0
        return count, [Fact(fd.relation, _decode(row)) for row in rows]

    def _write_generation(self) -> Tuple[int, int]:
        """Equal stamps mean equal stored rows: ``total_changes`` moves
        with every row this connection writes, ``data_version`` with
        every commit another connection makes to the same file."""
        (data_version,) = self._connection.execute(
            "PRAGMA data_version"
        ).fetchone()
        return self._connection.total_changes, data_version

    def _current_probe(self) -> Optional[_Probe]:
        """The memoized conflict probe, or ``None`` once a write has
        made it stale (the stale probe is dropped)."""
        if self._probe is not None and (
            self._probe_stamp != self._write_generation()
        ):
            self._probe = None
        return self._probe

    def _conflict_probe(self) -> _Probe:
        """The conflict probe, rescanned (one query per FD) only when
        the write generation has moved since the last scan."""
        probe = self._current_probe()
        if probe is None:
            self._probe_stamp = self._write_generation()
            probe = {
                fd: self._scan_violations(fd)
                for fd in self._nontrivial_fds()
            }
            self._probe = probe
        return probe

    def fd_violations(self, fd: FD) -> int:
        """How many lhs groups violate ``fd`` (0 = satisfied).

        Read from the conflict probe when it is current; otherwise one
        counting query, which builds no facts.
        """
        if fd.is_trivial():
            return 0
        self._require_relation(fd.relation)
        probe = self._current_probe()
        if probe is not None and fd in probe:
            return probe[fd][0]
        (count,) = self._connection.execute(
            f"SELECT COUNT(*) FROM ({self._violating_groups_sql(fd)})"
        ).fetchone()
        if not fd.lhs:
            # Constant-attribute FD ∅ → B: one global group.
            return 1 if count > 1 else 0
        return count

    def is_consistent(self) -> bool:
        """Whether the stored instance satisfies every schema FD.

        After a conflict query it reads the probe; on a store that has
        not been probed since its last write it runs the counting SQL
        of :meth:`fd_violations`, so a standalone check builds no
        facts.
        """
        return all(self.fd_violations(fd) == 0 for fd in self._nontrivial_fds())

    def conflict_summary(self) -> Dict[str, int]:
        """``{str(fd): violating-group count}`` over all schema FDs."""
        return {
            str(fd): self.fd_violations(fd) for fd in self._nontrivial_fds()
        }

    def iter_conflict_facts(self, fd: FD) -> Iterator[Fact]:
        """The facts of every ``fd``-violating group, in deterministic
        (``str``) order.

        A schema FD's facts come from the conflict probe, so they are
        the objects the kernel and the pairs hold; only this method
        sorts them.  Any other FD is scanned on its own.
        """
        if fd.is_trivial():
            return
        self._require_relation(fd.relation)
        entry = self._conflict_probe().get(fd)
        if entry is None:
            entry = self._scan_violations(fd)
        yield from sorted(entry[1], key=str)

    def conflict_kernel(self) -> Instance:
        """The sub-instance of facts participating in >= 1 conflict.

        This is the only materialization the scale path performs: its
        size is bounded by the number of conflicting facts (for an
        injected workload, by the injection manifest), never by the
        instance.  Facts outside the kernel conflict with nothing, so
        they belong to every repair and no checker verdict depends on
        them.
        """
        return Instance._from_validated(
            self._schema.signature,
            frozenset(
                fact
                for _, facts in self._conflict_probe().values()
                for fact in facts
            ),
        )

    def conflict_pairs(self) -> FrozenSet[FrozenSet[Fact]]:
        """Every conflicting fact pair, as unordered pairs.

        Built from the conflict probe by grouping each FD's facts on
        the lhs, so it shares the probe's scan and facts with
        :meth:`conflict_kernel`; the manifest cross-check reads it.
        """
        pairs: List[FrozenSet[Fact]] = []
        for fd, (_, facts) in self._conflict_probe().items():
            groups: Dict[Tuple[Any, ...], List[Fact]] = {}
            for fact in facts:
                groups.setdefault(
                    fact.project(fd.lhs_sorted), []
                ).append(fact)
            for members in groups.values():
                for i, left in enumerate(members):
                    for right in members[i + 1:]:
                        if left.project(fd.rhs_sorted) != right.project(
                            fd.rhs_sorted
                        ):
                            pairs.append(frozenset((left, right)))
        return frozenset(pairs)

    # -- materialization and index construction ------------------------------

    def to_instance(self) -> Instance:
        """Materialize the **whole** store as an in-memory instance.

        For small instances and the equivalence suite only — this is
        exactly the object-per-fact construction the streaming path
        exists to avoid at scale.
        """
        return Instance(self._schema.signature, self.iter_facts())

    def build_interner(
        self,
        kernel_only: bool = True,
        chunk_size: Optional[int] = None,
    ) -> FactInterner:
        """A :class:`FactInterner` fed by chunked store scans.

        With ``kernel_only`` (the default, the scale path) only
        conflict-participating facts are interned; otherwise the whole
        store streams through.  Either way the scan arrives in
        ``str``-sorted order, so the assigned ids are identical to what
        in-memory construction over the same fact set would assign.
        """
        if kernel_only:
            facts = sorted(self.conflict_kernel().facts, key=str)
            return FactInterner._from_sorted(facts)
        return FactInterner._from_sorted(
            self.iter_facts(chunk_size=chunk_size)
        )

    def build_bitset_index(
        self,
        kernel_only: bool = True,
        chunk_size: Optional[int] = None,
    ) -> BitsetConflictIndex:
        """A :class:`BitsetConflictIndex` built without a full instance.

        The per-FD block partitions compile from the interner's id
        order (one pass over the chunk-fed facts); the carried
        ``Instance`` is the kernel (or, for ``kernel_only=False``, the
        fully materialized store, small-instance use only).
        """
        if kernel_only:
            instance = self.conflict_kernel()
            interner = FactInterner._from_sorted(
                sorted(instance.facts, key=str)
            )
        else:
            interner = self.build_interner(
                kernel_only=False, chunk_size=chunk_size
            )
            instance = Instance._from_validated(
                self._schema.signature, frozenset(interner.facts)
            )
        return BitsetConflictIndex(self._schema, instance, interner)

    def __repr__(self) -> str:
        return (
            f"StreamingInstanceStore({self.fact_count()} facts at "
            f"{self._path!r})"
        )
