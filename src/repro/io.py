"""JSON (de)serialization for schemas, instances, and priorities.

A downstream user needs to persist cleaning problems — a schema, the
dirty instance, the priorities — and reload them bit-exactly.  The
format is plain JSON:

.. code-block:: json

    {
      "schema": {
        "relations": [
          {"name": "BookLoc", "arity": 3,
           "attribute_names": ["isbn", "genre", "lib"]}
        ],
        "fds": [{"relation": "BookLoc", "lhs": [1], "rhs": [2]}]
      },
      "instance": [
        {"relation": "BookLoc", "values": ["b1", "fiction", "lib1"]}
      ],
      "priority": [
        {"better": 0, "worse": 1}
      ],
      "ccp": false
    }

Priority edges refer to facts by their index in the ``"instance"``
array, keeping the file free of duplication.  Constants round-trip for
JSON-representable values (strings, ints, floats, bools, None); tuples
inside fact values are not supported by the format and are rejected at
save time.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Union

from repro.core.fact import Fact
from repro.core.fd import FD
from repro.core.instance import Instance
from repro.core.priority import PrioritizingInstance, PriorityRelation
from repro.core.schema import Schema
from repro.core.signature import RelationSymbol, Signature
from repro.exceptions import ReproError, UsageError
from repro.fsutil import atomic_write_text

__all__ = [
    "atomic_write_text",
    "parse_schema_spec",
    "schema_to_dict",
    "schema_from_dict",
    "instance_to_list",
    "instance_from_list",
    "prioritizing_to_dict",
    "prioritizing_from_dict",
    "save_prioritizing_instance",
    "read_json_file",
    "load_prioritizing_instance",
    "save_schema",
    "load_schema",
]

_SCALARS = (str, int, float, bool, type(None))


def parse_schema_spec(spec: str) -> Schema:
    """Parse the textual schema syntax into a :class:`Schema`.

    This is the grammar shared by the CLI (``repro classify "R:2; 1 ->
    2"``), batch-job files, and the daemon's ``classify`` operation —
    it lives here rather than in :mod:`repro.cli` so the runtime layers
    (``service``, ``server``) never import the command-line front end.

    Examples
    --------
    >>> schema = parse_schema_spec("R:3; R: 1 -> 2; R: 2 -> 3")
    >>> sorted(schema.relation_names())
    ['R']
    """
    parts = [part.strip() for part in spec.split(";") if part.strip()]
    if not parts:
        raise UsageError("empty schema specification")
    relations = {}
    for decl in parts[0].split(","):
        name, _, arity_text = decl.partition(":")
        relations[name.strip()] = int(arity_text)
    fd_texts = parts[1:]
    if len(relations) == 1:
        only = next(iter(relations))
        fd_texts = [
            text if ":" in text else f"{only}: {text}" for text in fd_texts
        ]
    return Schema.parse(relations, fd_texts)


def schema_to_dict(schema: Schema) -> Dict[str, Any]:
    """Serialize a schema to a JSON-ready dict."""
    relations = []
    for relation in schema.signature:
        entry: Dict[str, Any] = {
            "name": relation.name,
            "arity": relation.arity,
        }
        if relation.attribute_names is not None:
            entry["attribute_names"] = list(relation.attribute_names)
        relations.append(entry)
    relations.sort(key=lambda e: e["name"])
    fds = sorted(
        (
            {
                "relation": fd.relation,
                "lhs": sorted(fd.lhs),
                "rhs": sorted(fd.rhs),
            }
            for fd in schema.fds
        ),
        key=str,
    )
    return {"relations": relations, "fds": fds}


def schema_from_dict(data: Dict[str, Any]) -> Schema:
    """Deserialize a schema from :func:`schema_to_dict` output."""
    try:
        relations = [
            RelationSymbol(
                entry["name"],
                entry["arity"],
                tuple(entry["attribute_names"])
                if "attribute_names" in entry
                else None,
            )
            for entry in data["relations"]
        ]
        fds = [
            FD(entry["relation"], entry["lhs"], entry["rhs"])
            for entry in data.get("fds", [])
        ]
    except (KeyError, TypeError) as exc:
        raise ReproError(f"malformed schema document: {exc}") from exc
    return Schema(Signature(relations), fds)


def _check_serializable(fact: Fact) -> None:
    for value in fact.values:
        if not isinstance(value, _SCALARS):
            raise ReproError(
                f"fact {fact} holds a non-JSON-scalar value "
                f"({type(value).__name__}); the JSON format supports "
                f"str/int/float/bool/None constants only"
            )


def instance_to_list(instance: Instance) -> List[Dict[str, Any]]:
    """Serialize an instance to a JSON-ready fact list (stable order)."""
    entries = []
    for fact in sorted(instance.facts, key=str):
        _check_serializable(fact)
        entries.append(
            {"relation": fact.relation, "values": list(fact.values)}
        )
    return entries


def instance_from_list(
    schema: Schema, entries: List[Dict[str, Any]]
) -> Instance:
    """Deserialize an instance from :func:`instance_to_list` output."""
    try:
        facts = [
            Fact(entry["relation"], tuple(entry["values"]))
            for entry in entries
        ]
        return Instance(schema.signature, facts)
    except (KeyError, TypeError) as exc:  # TypeError: unhashable values
        raise ReproError(f"malformed instance document: {exc}") from exc


def prioritizing_to_dict(
    prioritizing: PrioritizingInstance,
) -> Dict[str, Any]:
    """Serialize a prioritizing instance (schema + facts + priority)."""
    fact_entries = instance_to_list(prioritizing.instance)
    index_of = {
        Fact(entry["relation"], tuple(entry["values"])): position
        for position, entry in enumerate(fact_entries)
    }
    priority_entries = sorted(
        (
            {"better": index_of[better], "worse": index_of[worse]}
            for better, worse in prioritizing.priority.edges
        ),
        key=lambda e: (e["better"], e["worse"]),
    )
    return {
        "schema": schema_to_dict(prioritizing.schema),
        "instance": fact_entries,
        "priority": priority_entries,
        "ccp": prioritizing.is_ccp,
    }


def prioritizing_from_dict(data: Dict[str, Any]) -> PrioritizingInstance:
    """Deserialize a prioritizing instance; re-validates everything."""
    try:
        schema_data, entries = data["schema"], data["instance"]
    except (KeyError, TypeError) as exc:
        raise ReproError(f"malformed prioritizing document: {exc}") from exc
    schema = schema_from_dict(schema_data)
    instance = instance_from_list(schema, entries)
    facts_in_order = [
        Fact(entry["relation"], tuple(entry["values"])) for entry in entries
    ]
    try:
        edges = [
            (facts_in_order[entry["better"]], facts_in_order[entry["worse"]])
            for entry in data.get("priority", [])
        ]
    except (IndexError, KeyError, TypeError) as exc:
        raise ReproError(f"malformed priority document: {exc}") from exc
    return PrioritizingInstance(
        schema,
        instance,
        PriorityRelation(edges),
        ccp=bool(data.get("ccp", False)),
    )


def save_prioritizing_instance(
    prioritizing: PrioritizingInstance, path: Union[str, Path]
) -> None:
    """Write a prioritizing instance to a JSON file."""
    document = prioritizing_to_dict(prioritizing)
    Path(path).write_text(json.dumps(document, indent=2, sort_keys=True))


def read_json_file(path: Union[str, Path]) -> Any:
    """Parse the JSON document at ``path``.

    Raises :class:`UsageError` naming the path when the file cannot be
    read, is not UTF-8, is not JSON, or nests too deeply to decode.
    """
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise UsageError(f"{path}: not a readable JSON file: {exc}") from exc


def load_prioritizing_instance(
    path: Union[str, Path]
) -> PrioritizingInstance:
    """Read a prioritizing instance from a JSON file."""
    return prioritizing_from_dict(read_json_file(path))


def save_schema(schema: Schema, path: Union[str, Path]) -> None:
    """Write a schema to a JSON file."""
    Path(path).write_text(
        json.dumps(schema_to_dict(schema), indent=2, sort_keys=True)
    )


def load_schema(path: Union[str, Path]) -> Schema:
    """Read a schema from a JSON file."""
    return schema_from_dict(read_json_file(path))
