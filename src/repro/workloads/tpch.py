"""A dependency-free synthetic workload with the shape of TPC-H.

The counting/CQA papers this reproduction serves (Calautti–Pieris–
Livshits, arXiv:2112.09617, and the tuple-inconsistency pipeline in
SNIPPETS.md snippet 2) evaluate repair-theoretic machinery on TPC-H
tables with *injected* FD violations: generate clean benchmark data at
several scale factors, verify it satisfies the constraints, corrupt it
at controlled rates and seeds, then run the pipeline end to end.  This
module is that recipe without the external ``dbgen`` dependency: the
eight standard relations (region, nation, supplier, part, partsupp,
customer, orders, lineitem) with realistic key FDs and the standard
cross-relation fan-out (orders reference customers, lineitems reference
orders/parts/suppliers, partsupp pairs parts with suppliers),
parameterized by ``scale_factor`` and ``seed``.

Everything is a **deterministic stream**: each relation's rows are
produced by an iterator whose content depends only on
``(relation, scale_factor, seed)`` — never on Python's hash
randomization or on how the streams are interleaved — so the same
parameters yield byte-identical ``.tbl`` files on every machine, and
the violation injector (:mod:`repro.workloads.injection`) can replay a
stream without materializing it.

Row counts follow TPC-H's proportions, scaled so that
``scale_factor=1`` yields roughly ``10^6`` lineitem rows (the official
benchmark's 6M lineitems at SF 1 are overkill for a pure-Python
pipeline; the *ratios* between tables are what the workload shape
needs).  Instances of this size never materialize as per-fact objects:
the streaming loader (:mod:`repro.engine.streaming`) ingests these
streams into sqlite and only surfaces the conflict kernel.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.fd import FD
from repro.core.priority import PrioritizingInstance
from repro.core.schema import Schema
from repro.core.signature import RelationSymbol, Signature
from repro.exceptions import UsageError

__all__ = [
    "TPCH_RELATIONS",
    "COLUMN_TYPES",
    "tpch_schema",
    "table_sizes",
    "iter_relation",
    "generate_tables",
    "write_tbl",
    "converters_for",
    "sample_conflict_neighborhoods",
]

#: Relation name -> (attribute names, column type tags).  Arities are
#: scaled down from full TPC-H (no comment/address columns) but keep
#: one key FD per relation and the benchmark's reference structure.
TPCH_RELATIONS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "region": (("regionkey", "name"), ("int", "str")),
    "nation": (("nationkey", "name", "regionkey"), ("int", "str", "int")),
    "supplier": (
        ("suppkey", "name", "nationkey", "acctbal"),
        ("int", "str", "int", "float"),
    ),
    "part": (
        ("partkey", "name", "brand", "retailprice"),
        ("int", "str", "str", "float"),
    ),
    "partsupp": (
        ("partkey", "suppkey", "availqty", "supplycost"),
        ("int", "int", "int", "float"),
    ),
    "customer": (
        ("custkey", "name", "nationkey", "acctbal"),
        ("int", "str", "int", "float"),
    ),
    "orders": (
        ("orderkey", "custkey", "orderstatus", "totalprice"),
        ("int", "int", "str", "float"),
    ),
    "lineitem": (
        ("orderkey", "linenumber", "partkey", "suppkey", "quantity",
         "extendedprice"),
        ("int", "int", "int", "int", "int", "float"),
    ),
}

#: Relation name -> column type tags (``int`` / ``float`` / ``str``),
#: the information a ``.tbl`` reader needs to restore typed constants.
COLUMN_TYPES: Dict[str, Tuple[str, ...]] = {
    name: types for name, (_, types) in TPCH_RELATIONS.items()
}

#: The key attribute positions (1-based) of each relation; the FD of
#: the relation is ``key -> all remaining attributes``.
_KEYS: Dict[str, Tuple[int, ...]] = {
    "region": (1,),
    "nation": (1,),
    "supplier": (1,),
    "part": (1,),
    "partsupp": (1, 2),
    "customer": (1,),
    "orders": (1,),
    "lineitem": (1, 2),
}

#: Base row counts at scale factor 1 (region/nation are fixed-size, as
#: in TPC-H; partsupp and lineitem are derived from part/orders).
_BASE_ROWS: Dict[str, int] = {
    "supplier": 2_000,
    "part": 20_000,
    "customer": 15_000,
    "orders": 150_000,
}

#: Minimum rows per scaled relation, so tiny smoke scale factors still
#: exercise every foreign-key fan-out.
_FLOOR_ROWS: Dict[str, int] = {
    "supplier": 4,
    "part": 8,
    "customer": 5,
    "orders": 10,
}

_REGION_NAMES = ("AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST")
_BRANDS = tuple(f"Brand#{i}{j}" for i in range(1, 6) for j in range(1, 6))
_ORDER_STATUS = ("O", "F", "P")
#: Lines per order: uniform over 4..10, mean 7, so scale factor 1
#: yields ~1.05M lineitem rows from 150k orders.
_MIN_LINES, _MAX_LINES = 4, 10


def tpch_schema() -> Schema:
    """The TPC-H-shaped schema: 8 relations, one key FD each.

    Every FD has the relation's primary key as its left-hand side and
    every remaining attribute on the right — exactly the shape whose
    repair checking the dichotomy places on the tractable side
    (each per-relation FD set is equivalent to a single FD).
    """
    symbols = [
        RelationSymbol(name, len(attributes), attributes)
        for name, (attributes, _) in TPCH_RELATIONS.items()
    ]
    fds = []
    for name, (attributes, _) in TPCH_RELATIONS.items():
        key = frozenset(_KEYS[name])
        rest = frozenset(range(1, len(attributes) + 1)) - key
        fds.append(FD(name, key, rest))
    return Schema(Signature(symbols), fds)


def _scaled(relation: str, scale_factor: float) -> int:
    base = _BASE_ROWS[relation]
    return max(_FLOOR_ROWS[relation], int(base * scale_factor))


def table_sizes(scale_factor: float) -> Dict[str, int]:
    """Exact row counts per relation at ``scale_factor``.

    ``partsupp`` holds two suppliers per part; ``lineitem`` is the one
    stochastic count (4–10 lines per order, so its entry here is the
    *expected* size — the generated stream's exact length depends on
    the seed).
    """
    if scale_factor <= 0:
        raise UsageError(
            f"scale factor must be positive, got {scale_factor!r}"
        )
    sizes = {
        "region": len(_REGION_NAMES),
        "nation": 25,
        "supplier": _scaled("supplier", scale_factor),
        "part": _scaled("part", scale_factor),
        "customer": _scaled("customer", scale_factor),
        "orders": _scaled("orders", scale_factor),
    }
    sizes["partsupp"] = 2 * sizes["part"]
    sizes["lineitem"] = (
        sizes["orders"] * (_MIN_LINES + _MAX_LINES) // 2
    )
    return sizes


def _rng(seed: int, relation: str) -> random.Random:
    """A per-relation RNG seeded by a string, so the stream content is
    independent of ``PYTHONHASHSEED`` and of other relations' streams."""
    return random.Random(f"tpch|{seed}|{relation}")


def _money(rng: random.Random, low: float, high: float) -> float:
    return round(rng.uniform(low, high), 2)


def iter_relation(
    relation: str, scale_factor: float, seed: int = 0
) -> Iterator[Tuple[Any, ...]]:
    """The deterministic clean row stream of one relation.

    Rows are keyed densely (``1..n``), so every foreign key can be
    drawn without materializing the referenced table; the stream for a
    given ``(relation, scale_factor, seed)`` is always identical.
    """
    if relation not in TPCH_RELATIONS:
        raise UsageError(f"unknown TPC-H relation {relation!r}")
    sizes = table_sizes(scale_factor)
    rng = _rng(seed, relation)
    if relation == "region":
        for key, name in enumerate(_REGION_NAMES, start=1):
            yield (key, name)
    elif relation == "nation":
        for key in range(1, sizes["nation"] + 1):
            yield (key, f"Nation#{key}", 1 + (key - 1) % sizes["region"])
    elif relation == "supplier":
        for key in range(1, sizes["supplier"] + 1):
            yield (
                key,
                f"Supplier#{key:09d}",
                rng.randrange(1, sizes["nation"] + 1),
                _money(rng, -999.99, 9999.99),
            )
    elif relation == "part":
        for key in range(1, sizes["part"] + 1):
            yield (
                key,
                f"Part#{key:09d}",
                rng.choice(_BRANDS),
                _money(rng, 1.00, 2098.99),
            )
    elif relation == "partsupp":
        n_supp = sizes["supplier"]
        for partkey in range(1, sizes["part"] + 1):
            # Two distinct suppliers per part, TPC-H's arithmetic skip
            # pattern: deterministic and collision-free.
            for i in range(2):
                suppkey = 1 + (partkey + i * (1 + n_supp // 2)) % n_supp
                yield (
                    partkey,
                    suppkey,
                    rng.randrange(1, 10_000),
                    _money(rng, 1.00, 1000.99),
                )
    elif relation == "customer":
        for key in range(1, sizes["customer"] + 1):
            yield (
                key,
                f"Customer#{key:09d}",
                rng.randrange(1, sizes["nation"] + 1),
                _money(rng, -999.99, 9999.99),
            )
    elif relation == "orders":
        for key in range(1, sizes["orders"] + 1):
            yield (
                key,
                rng.randrange(1, sizes["customer"] + 1),
                rng.choice(_ORDER_STATUS),
                _money(rng, 100.00, 100_000.00),
            )
    else:  # lineitem
        n_part = sizes["part"]
        n_supp = sizes["supplier"]
        for orderkey in range(1, sizes["orders"] + 1):
            lines = rng.randint(_MIN_LINES, _MAX_LINES)
            for linenumber in range(1, lines + 1):
                partkey = rng.randrange(1, n_part + 1)
                suppkey = 1 + (partkey + (linenumber % 2) * (1 + n_supp // 2)) % n_supp
                quantity = rng.randrange(1, 51)
                yield (
                    orderkey,
                    linenumber,
                    partkey,
                    suppkey,
                    quantity,
                    round(quantity * rng.uniform(1.00, 2098.99), 2),
                )


def generate_tables(
    scale_factor: float,
    seed: int = 0,
    relations: Optional[Sequence[str]] = None,
) -> Dict[str, Callable[[], Iterator[Tuple[Any, ...]]]]:
    """Stream factories for every relation (or a chosen subset).

    Returns ``{relation: factory}`` where each call to ``factory()``
    replays the relation's clean stream from the top — the property the
    injector and the ``.tbl`` writers rely on to stay single-pass.
    """
    chosen = list(relations) if relations is not None else list(TPCH_RELATIONS)
    for name in chosen:
        if name not in TPCH_RELATIONS:
            raise UsageError(f"unknown TPC-H relation {name!r}")

    def factory(name: str) -> Callable[[], Iterator[Tuple[Any, ...]]]:
        return lambda: iter_relation(name, scale_factor, seed)

    return {name: factory(name) for name in chosen}


# -- .tbl round trip ---------------------------------------------------------


def _format_cell(value: Any) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_tbl(
    rows: Iterable[Tuple[Any, ...]], path: Union[str, Path]
) -> int:
    """Write a row stream as a TPC-H ``.tbl`` file (pipe-delimited,
    trailing ``|``, one row per line, UTF-8).  Returns the row count.

    :meth:`~repro.engine.streaming.StreamingInstanceStore.ingest_tbl`
    reads it back.
    """
    count = 0
    with open(path, "w", newline="", encoding="utf-8") as handle:
        for row in rows:
            handle.write("|".join(_format_cell(v) for v in row) + "|\n")
            count += 1
    return count


_CONVERTERS: Dict[str, Callable[[str], Any]] = {
    "int": int,
    "float": float,
    "str": str,
}


def converters_for(relation: str) -> Tuple[Callable[[str], Any], ...]:
    """Per-column cell converters restoring a relation's typed values."""
    if relation not in COLUMN_TYPES:
        raise UsageError(f"unknown TPC-H relation {relation!r}")
    return tuple(_CONVERTERS[tag] for tag in COLUMN_TYPES[relation])


# -- conformance sampling ----------------------------------------------------


def sample_conflict_neighborhoods(
    prioritizing: PrioritizingInstance,
    count: int,
    max_facts: int = 12,
    seed: int = 0,
) -> List[PrioritizingInstance]:
    """Random small neighborhoods of the conflict graph, for the oracle.

    Each neighborhood is one conflict component (a conflict block plus
    its priority closure — priority edges only relate conflicting
    facts, so the closure stays inside the component) optionally merged
    with further components while it fits in ``max_facts``.  The
    neighborhoods are valid prioritizing instances of their own, so the
    exhaustive definitional oracle (:mod:`repro.testing.oracle`) can
    afford them, and verdicts on them are faithful: conflict components
    are independent under all three semantics.
    """
    if max_facts < 2:
        raise UsageError("a conflict neighborhood needs max_facts >= 2")
    adjacency = prioritizing.conflict_index.adjacency()
    seen = set()
    components = []
    for fact in sorted(adjacency, key=str):
        if fact in seen or not adjacency[fact]:
            continue
        stack, component = [fact], set()
        while stack:
            current = stack.pop()
            if current in component:
                continue
            component.add(current)
            stack.extend(adjacency[current] - component)
        seen |= component
        if len(component) <= max_facts:
            components.append(sorted(component, key=str))
    rng = random.Random(f"neighborhoods|{seed}")
    rng.shuffle(components)
    neighborhoods: List[PrioritizingInstance] = []
    index = 0
    while len(neighborhoods) < count and index < len(components):
        chosen = list(components[index])
        index += 1
        # Greedily merge following components while they fit, so some
        # samples exercise multi-block interactions.
        while index < len(components) and (
            len(chosen) + len(components[index]) <= max_facts
        ):
            chosen.extend(components[index])
            index += 1
        instance = prioritizing.subinstance(chosen)
        priority = prioritizing.priority.restrict_to(chosen)
        neighborhoods.append(
            PrioritizingInstance(
                prioritizing.schema, instance, priority,
                ccp=prioritizing.is_ccp,
            )
        )
    return neighborhoods
