"""Seeded FD-violation injection with a full conflict manifest.

The snippet-2 pipeline (and the counting/CQA evaluations it feeds)
corrupts *clean* benchmark tables at controlled rates and seeds, so
that every inconsistency in the resulting instance is provably
injector-introduced and independently recorded.  This module is that
step for the streams of :mod:`repro.workloads.tpch` (or any clean
keyed row stream): :func:`inject_violations` duplicates key-bearing
rows with clashing right-hand-side values and returns, next to the
corrupted streams, an :class:`InjectionManifest` listing every injected
conflict pair.

Determinism contract
--------------------
Two kinds of draw decide an injection, both from string-seeded RNGs,
so nothing depends on ``PYTHONHASHSEED``:

* **Selection.**  Each relation has one selection stream,
  ``Random(f"inject-select|{seed}|{relation}")``, which yields exactly
  one uniform ``u`` per row in stream order; row ``i`` is selected when
  its ``u < rate``.  The ``u`` sequence does not depend on the rate.
* **Twin.**  Only a selected row builds its own RNG,
  ``Random(f"inject|{seed}|{relation}|{row_index}")``, and draws from
  it which right-hand-side positions to corrupt and their new values.

Hence

* the same ``(rate, seed)`` yields byte-identical manifests on every
  machine and hash seed;
* raising the rate at a fixed seed *adds* conflict blocks without
  touching the blocks already injected (rate monotonicity): the rows
  selected at rate ``r`` are a subset of those selected at any higher
  rate, and their twins are byte-identical, which the metamorphic suite
  pins.

Both draw sequences define the workload, and :data:`MANIFEST_VERSION`
names them: version 1 drew each row's selection from its twin RNG;
version 2 is the per-relation selection stream above.  Changing either
sequence changes which rows a seed corrupts, so it must bump the
version; :meth:`InjectionManifest.from_json` refuses any other version.

Because the clean streams are keyed (one row per key), an injected
twin conflicts with exactly its original row and nothing else: the
manifest's pair list *is* the instance's conflict-pair list, a
cross-check the loader runs at every scale.

The two-tier priority (:func:`manifest_priority_edges`) mirrors
``consortium.py``'s trusted-catalog style: every clean ("trusted")
fact beats its injected ("crowdsourced") twin, and nothing else is
ordered.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import (
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

from repro.core.fact import Fact
from repro.core.fd import FD
from repro.core.instance import Instance
from repro.core.priority import PrioritizingInstance, PriorityRelation
from repro.core.schema import Schema
from repro.exceptions import UsageError

__all__ = [
    "InjectedConflict",
    "InjectionManifest",
    "iter_injected_rows",
    "inject_violations",
    "manifest_priority_edges",
    "tiered_prioritizing",
]

MANIFEST_VERSION = 2


#: ``(field, JSON type)`` of a manifest document and of each of its
#: conflict entries.
_MANIFEST_FIELDS = (
    ("rate", "a number"),
    ("seed", "an integer"),
    ("relations", "a list"),
    ("conflicts", "a list"),
)
_CONFLICT_FIELDS = (
    ("relation", "a string"),
    ("fd", "a string"),
    ("row_index", "an integer"),
    ("positions", "a list"),
    ("clean_row", "a list"),
    ("injected_row", "a list"),
)


def _is_json(value: Any, kind: str) -> bool:
    """Whether a decoded JSON ``value`` has the named type (a JSON
    ``true`` is not an integer, an integer is a number)."""
    if kind == "a string":
        return isinstance(value, str)
    if kind == "a list":
        return isinstance(value, list)
    if isinstance(value, bool):
        return False
    if kind == "an integer":
        return isinstance(value, int)
    return isinstance(value, (int, float))  # "a number"


def _require_fields(
    data: Dict[str, Any], fields: Sequence[Tuple[str, str]], what: str
) -> None:
    """:class:`UsageError` unless ``data`` has every field, typed."""
    for field, kind in fields:
        if field not in data:
            raise UsageError(f"{what} is missing {field!r}")
        if not _is_json(data[field], kind):
            raise UsageError(
                f"{what} field {field!r} must be {kind}, got {data[field]!r}"
            )


@dataclass(frozen=True)
class InjectedConflict:
    """One injected conflict: a clean row and its corrupted twin.

    ``row_index`` is the 0-based position of the clean row in its
    relation's stream; ``positions`` are the 1-based attribute
    positions that were corrupted (always a nonempty subset of the
    violated FD's right-hand side).
    """

    relation: str
    fd: str
    row_index: int
    positions: Tuple[int, ...]
    clean_row: Tuple[Any, ...]
    injected_row: Tuple[Any, ...]

    def clean_fact(self) -> Fact:
        """The trusted fact of this conflict."""
        return Fact(self.relation, self.clean_row)

    def injected_fact(self) -> Fact:
        """The corrupted (crowdsourced-tier) fact of this conflict."""
        return Fact(self.relation, self.injected_row)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "relation": self.relation,
            "fd": self.fd,
            "row_index": self.row_index,
            "positions": list(self.positions),
            "clean_row": list(self.clean_row),
            "injected_row": list(self.injected_row),
        }

    @classmethod
    def from_dict(cls, data: Any) -> "InjectedConflict":
        """Inverse of :meth:`to_dict`; :class:`UsageError` on any entry
        whose fields are missing or of the wrong JSON type."""
        if not isinstance(data, dict):
            raise UsageError(
                f"manifest conflict entry must be an object, got {data!r}"
            )
        _require_fields(data, _CONFLICT_FIELDS, "manifest conflict")
        if not all(_is_json(p, "an integer") for p in data["positions"]):
            raise UsageError(
                f"manifest conflict positions must be integers, got "
                f"{data['positions']!r}"
            )
        return cls(
            relation=data["relation"],
            fd=data["fd"],
            row_index=data["row_index"],
            positions=tuple(data["positions"]),
            clean_row=tuple(data["clean_row"]),
            injected_row=tuple(data["injected_row"]),
        )


@dataclass
class InjectionManifest:
    """The complete record of one injection run.

    The manifest is the ground truth every downstream verdict is
    cross-checked against: the loader's conflict scan must find exactly
    :meth:`conflict_pairs`, and the all-trusted repair must be the
    unique globally optimal repair of the conflict kernel under the
    two-tier priority.
    """

    rate: float
    seed: int
    relations: Tuple[str, ...]
    conflicts: List[InjectedConflict]

    def __len__(self) -> int:
        return len(self.conflicts)

    def counts_by_relation(self) -> Dict[str, int]:
        """Injected-conflict counts per relation (zero entries kept)."""
        counts = {relation: 0 for relation in self.relations}
        for conflict in self.conflicts:
            counts[conflict.relation] = counts.get(conflict.relation, 0) + 1
        return counts

    def conflict_pairs(self) -> FrozenSet[FrozenSet[Fact]]:
        """Every injected conflict as an unordered fact pair."""
        return frozenset(
            frozenset((c.clean_fact(), c.injected_fact()))
            for c in self.conflicts
        )

    def injected_facts(self) -> FrozenSet[Fact]:
        """All corrupted twins (the crowdsourced tier)."""
        return frozenset(c.injected_fact() for c in self.conflicts)

    def clean_conflict_facts(self) -> FrozenSet[Fact]:
        """All clean rows that gained a corrupted twin (trusted tier)."""
        return frozenset(c.clean_fact() for c in self.conflicts)

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, list-only containers, ``\\n``
        terminated — byte-identical for identical runs."""
        document = {
            "version": MANIFEST_VERSION,
            "rate": self.rate,
            "seed": self.seed,
            "relations": list(self.relations),
            "conflict_count": len(self.conflicts),
            "counts_by_relation": self.counts_by_relation(),
            # A list in deterministic row-scan (injection) order, not a
            # set: the order is already canonical without sorted().
            "conflicts": [  # repro-lint: ignore[RL003]
                c.to_dict() for c in self.conflicts
            ],
        }
        return json.dumps(document, sort_keys=True, indent=1) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "InjectionManifest":
        """Parse :meth:`to_json` output.  Raises :class:`UsageError` on
        anything else: malformed JSON, a manifest of another version
        (its rows were selected by other draws, so it cannot describe
        this injector's streams), or a field of the wrong shape."""
        try:
            document = json.loads(text)
        except ValueError as exc:
            raise UsageError(f"manifest is not valid JSON: {exc}") from exc
        if not isinstance(document, dict):
            raise UsageError(
                f"manifest must be a JSON object, got "
                f"{type(document).__name__}"
            )
        version = document.get("version")
        if not _is_json(version, "an integer") or version != MANIFEST_VERSION:
            found = "no version" if version is None else f"version {version!r}"
            raise UsageError(
                f"manifest has {found}, but this injector writes and reads "
                f"version {MANIFEST_VERSION}; re-run `repro workload inject` "
                f"to regenerate it"
            )
        _require_fields(document, _MANIFEST_FIELDS, "manifest")
        if not all(isinstance(r, str) for r in document["relations"]):
            raise UsageError(
                f"manifest relations must be strings, got "
                f"{document['relations']!r}"
            )
        manifest = cls(
            rate=document["rate"],
            seed=document["seed"],
            relations=tuple(document["relations"]),
            conflicts=[
                InjectedConflict.from_dict(entry)
                for entry in document["conflicts"]
            ],
        )
        if document.get("conflict_count") not in (None, len(manifest)):
            raise UsageError(
                f"manifest conflict_count {document['conflict_count']} "
                f"does not match its {len(manifest)} conflict entries"
            )
        return manifest


def _corrupt_value(value: Any, rng: random.Random) -> Any:
    """A deterministic replacement guaranteed to differ from ``value``."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1 + rng.randrange(999_983)
    if isinstance(value, float):
        return round(value + 1.0 + rng.random() * 997.0, 2)
    if isinstance(value, str):
        return f"{value}~v{rng.randrange(1_000)}"
    return f"corrupt~{rng.randrange(1_000_000)}"


def _select_stream(seed: int, relation: str) -> Callable[[], float]:
    """The relation's selection draws: one uniform ``u`` per row."""
    return random.Random(f"inject-select|{seed}|{relation}").random


def _row_rng(seed: int, relation: str, row_index: int) -> random.Random:
    """The twin draws of one selected row."""
    return random.Random(f"inject|{seed}|{relation}|{row_index}")


def iter_injected_rows(
    relation: str,
    fd: FD,
    rows: Iterable[Tuple[Any, ...]],
    rate: float,
    seed: int,
    sink: Optional[List[InjectedConflict]] = None,
) -> Iterator[Tuple[Any, ...]]:
    """Stream ``rows`` through the injector for one relation.

    Yields every clean row unchanged and, for the selected rows,
    immediately afterwards a corrupted twin: the FD's left-hand side is
    kept verbatim and a random nonempty subset of its right-hand-side
    positions is replaced with clashing values.  Selected conflicts are
    appended to ``sink`` (when given) in stream order.  Every row takes
    one draw from the relation's selection stream, whatever the rate
    (see the module's determinism contract).
    """
    if not 0.0 <= rate < 1.0:
        raise UsageError(f"injection rate must be in [0, 1), got {rate!r}")
    if fd.relation != relation:
        raise UsageError(
            f"FD {fd} does not constrain relation {relation!r}"
        )
    rhs = fd.rhs_sorted
    if not rhs:
        raise UsageError(f"FD {fd} has an empty right-hand side")
    fd_text = str(fd)
    select = _select_stream(seed, relation)
    for row_index, row in enumerate(rows):
        yield row
        if select() >= rate:
            continue
        rng = _row_rng(seed, relation, row_index)
        chosen = 1 + rng.randrange(len(rhs))
        positions = tuple(sorted(rng.sample(rhs, chosen)))
        corrupted = list(row)
        for position in positions:
            corrupted[position - 1] = _corrupt_value(
                row[position - 1], rng
            )
        injected = tuple(corrupted)
        if sink is not None:
            sink.append(
                InjectedConflict(
                    relation=relation,
                    fd=fd_text,
                    row_index=row_index,
                    positions=positions,
                    clean_row=row,
                    injected_row=injected,
                )
            )
        yield injected


def _fd_for(schema: Schema, relation: str) -> FD:
    """The single non-trivial FD of ``relation`` in ``schema``."""
    candidates = sorted(
        (fd for fd in schema.fds_for(relation).fds if not fd.is_trivial()),
        key=str,
    )
    if not candidates:
        raise UsageError(
            f"relation {relation!r} has no non-trivial FD to violate"
        )
    if len(candidates) > 1:
        raise UsageError(
            f"relation {relation!r} has {len(candidates)} FDs; pass the "
            f"FD to inject explicitly via fd_subset"
        )
    return candidates[0]


def _normalize_fd_subset(
    schema: Schema, fd_subset: Optional[Iterable[Union[str, FD]]]
) -> Dict[str, FD]:
    """``fd_subset`` entries (relation names or FDs) -> {relation: FD}."""
    chosen: Dict[str, FD] = {}
    if fd_subset is None:
        for relation in sorted(schema.relation_names()):
            fds = [
                fd for fd in schema.fds_for(relation).fds
                if not fd.is_trivial()
            ]
            if fds:
                chosen[relation] = _fd_for(schema, relation)
        return chosen
    for entry in fd_subset:
        if isinstance(entry, FD):
            if entry.relation not in schema.relation_names():
                raise UsageError(
                    f"FD {entry} names a relation outside the schema"
                )
            if entry.relation in chosen:
                raise UsageError(
                    f"fd_subset names relation {entry.relation!r} twice"
                )
            chosen[entry.relation] = entry
        else:
            if entry in chosen:
                raise UsageError(f"fd_subset names relation {entry!r} twice")
            chosen[entry] = _fd_for(schema, entry)
    return chosen


def inject_violations(
    tables: Dict[str, Callable[[], Iterator[Tuple[Any, ...]]]],
    schema: Schema,
    rate: float,
    seed: int,
    fd_subset: Optional[Iterable[Union[str, FD]]] = None,
) -> Tuple[
    Dict[str, Callable[[], Iterator[Tuple[Any, ...]]]], InjectionManifest
]:
    """Corrupt clean stream factories at ``rate``; record a manifest.

    ``tables`` maps relation names to replayable clean-stream factories
    (:func:`repro.workloads.tpch.generate_tables` produces exactly
    this).  Relations outside ``fd_subset`` (default: every relation
    with a non-trivial FD) pass through untouched.

    Returns ``(injected_tables, manifest)``.  The injected factories
    are replayable too, and the manifest is **eagerly** complete: it is
    collected here by a dry scan that runs the full injector over every
    clean stream (generation, selection, and the corruption of each
    selected row) and discards the rows, so callers may consult the
    manifest before, during, or without consuming the corrupted
    streams.  Callers that consume the streams once anyway (``repro
    workload inject``/``e2e``) collect the manifest from
    :func:`iter_injected_rows`'s ``sink`` instead and skip that scan.
    """
    chosen = _normalize_fd_subset(schema, fd_subset)
    for relation in chosen:
        if relation not in tables:
            raise UsageError(
                f"fd_subset names relation {relation!r} but no such "
                f"stream was provided"
            )
    conflicts: List[InjectedConflict] = []
    for relation in sorted(tables):
        fd = chosen.get(relation)
        if fd is None:
            continue
        sink: List[InjectedConflict] = []
        for _ in iter_injected_rows(
            relation, fd, tables[relation](), rate, seed, sink
        ):
            pass
        conflicts.extend(sink)

    def injected_factory(
        relation: str, fd: FD
    ) -> Callable[[], Iterator[Tuple[Any, ...]]]:
        return lambda: iter_injected_rows(
            relation, fd, tables[relation](), rate, seed
        )

    injected_tables: Dict[str, Callable[[], Iterator[Tuple[Any, ...]]]] = {}
    for relation in sorted(tables):
        fd = chosen.get(relation)
        if fd is None:
            injected_tables[relation] = tables[relation]
        else:
            injected_tables[relation] = injected_factory(relation, fd)
    manifest = InjectionManifest(
        rate=rate,
        seed=seed,
        relations=tuple(sorted(chosen)),
        conflicts=conflicts,
    )
    return injected_tables, manifest


# -- the two-tier priority ---------------------------------------------------


def manifest_priority_edges(
    manifest: InjectionManifest,
    facts: Optional[Iterable[Fact]] = None,
) -> List[Tuple[Fact, Fact]]:
    """Trusted-beats-crowdsourced edges, in deterministic order.

    One edge per injected conflict, from the clean fact to its
    corrupted twin (the style of ``consortium.py``: the catalog tier
    wins every cross-tier conflict, ties inside a tier stay
    unordered).  When ``facts`` is given, only edges with both
    endpoints inside it are kept — the restriction used when the
    priority is laid over a conflict kernel or a sampled neighborhood.
    """
    keep = None if facts is None else frozenset(facts)
    edges = []
    for conflict in manifest.conflicts:
        clean, injected = conflict.clean_fact(), conflict.injected_fact()
        if keep is not None and (clean not in keep or injected not in keep):
            continue
        edges.append((clean, injected))
    return edges


def tiered_prioritizing(
    schema: Schema,
    instance: Instance,
    manifest: InjectionManifest,
) -> PrioritizingInstance:
    """``instance`` under the manifest's two-tier priority.

    ``instance`` is typically the streaming loader's conflict kernel;
    every edge relates a conflicting pair by construction, so this is a
    classical (non-ccp) prioritizing instance, and the all-trusted
    fact set is its unique globally optimal repair — the cross-check
    verdict the workload pipeline asserts end to end.
    """
    edges = manifest_priority_edges(manifest, instance.facts)
    return PrioritizingInstance(
        schema, instance, PriorityRelation(edges), ccp=False
    )
