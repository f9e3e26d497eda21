"""Job-file IO for ``repro serve-batch``: JSON/CSV in, JSONL out.

A *job file* describes one batch: where the prioritizing instance comes
from and which candidates to check.  Two formats are supported.

JSON job file::

    {
      "problem": "problem.json",          // repro.io problem (path), or
      "csv": {                            //  build from CSV feeds via
        "schema": "R:2; 1 -> 2",          //  engine.csv_loader (earlier
        "relation": "R",                  //  sources outrank later ones)
        "sources": ["curated.csv", "scraped.csv"],
        "has_header": true
      },
      "defaults": {"semantics": "global", "timeout": 5.0, "budget": 100000},
      "jobs": [
        {"id": "j1", "candidate": [0, 2], "priority": 5},
        {"id": "j2", "candidate": [{"relation": "R", "values": ["1", "a"]}]}
      ]
    }

A candidate is either a list of **indices** into the problem's canonical
fact order (the sorted order of :func:`repro.io.instance_to_list`) or a
list of explicit fact objects.  Exactly one of ``"problem"`` (a path or
an inline :func:`repro.io.prioritizing_from_dict` document) and
``"csv"`` must be given, unless the caller supplies the prioritizing
instance directly.

CSV job file (one row per job; the problem must come from the caller,
e.g. the CLI's ``--problem``)::

    id,candidate,semantics,method,priority,timeout,budget
    j1,0;2,global,auto,5,,
    j2,1,global,auto,0,2.5,50000

``candidate`` is ``;``-separated indices.  Empty cells take defaults.

Results are written as JSONL — one :meth:`JobResult.to_dict` per line —
plus an optional metrics-summary JSON.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.fact import Fact
from repro.core.instance import Instance
from repro.core.priority import PrioritizingInstance
from repro.exceptions import ReproError, UsageError
from repro.io import (
    atomic_write_text,
    instance_to_list,
    load_prioritizing_instance,
    parse_schema_spec,
    prioritizing_from_dict,
    read_json_file,
)
from repro.service.jobs import BatchReport, RepairJob

__all__ = [
    "load_problem_from_csv_spec",
    "candidate_from_spec",
    "load_batch_file",
    "write_results_jsonl",
    "write_metrics_json",
]


def load_problem_from_csv_spec(
    spec: Dict[str, Any], base_dir: Optional[Path] = None
) -> PrioritizingInstance:
    """Build a prioritizing instance from tagged CSV feeds.

    ``spec`` holds a CLI-style ``"schema"`` string, a ``"relation"``,
    and ordered ``"sources"`` (most trusted first); loading goes through
    :func:`repro.engine.csv_loader.load_tagged_sources`, so conflicting
    facts from differently-ranked feeds get the source-trust priority.
    """
    from repro.engine.csv_loader import load_tagged_sources
    from repro.engine.database import Database

    if not isinstance(spec, dict):
        raise ReproError(f"csv problem spec must be an object, got {spec!r}")
    try:
        schema_spec = spec["schema"]
        relation = spec["relation"]
        sources = spec["sources"]
    except KeyError as exc:
        raise ReproError(f"csv problem spec is missing {exc}") from exc
    base = base_dir or Path(".")
    database = Database(parse_schema_spec(schema_spec))
    load_tagged_sources(
        database,
        relation,
        [base / source for source in sources],
        has_header=bool(spec.get("has_header", True)),
        delimiter=spec.get("delimiter", ","),
    )
    return database.seal(ccp=bool(spec.get("ccp", False)))


def _facts_in_canonical_order(prioritizing: PrioritizingInstance) -> List[Fact]:
    return [
        Fact(entry["relation"], tuple(entry["values"]))
        for entry in instance_to_list(prioritizing.instance)
    ]


def candidate_from_spec(
    prioritizing: PrioritizingInstance, spec: Sequence[Any]
) -> Instance:
    """Resolve a job's candidate spec against the problem instance.

    ``spec`` is a list of canonical fact indices, a list of
    ``{"relation", "values"}`` objects, or a mix.  The result is
    validated to be a subinstance (bad indices raise; out-of-instance
    facts are left to the checker, which reports them as a job error).
    """
    if not isinstance(spec, (list, tuple)):
        raise ReproError(f"candidate must be a list, got {spec!r}")
    ordered = _facts_in_canonical_order(prioritizing)
    facts: List[Fact] = []
    for entry in spec:
        if isinstance(entry, bool):
            raise ReproError(f"bad candidate entry {entry!r}")
        if isinstance(entry, int):
            if not 0 <= entry < len(ordered):
                raise ReproError(
                    f"candidate index {entry} out of range "
                    f"0..{len(ordered) - 1}"
                )
            facts.append(ordered[entry])
        elif isinstance(entry, dict):
            try:
                facts.append(
                    Fact(entry["relation"], tuple(entry["values"]))
                )
            except (KeyError, TypeError) as exc:
                raise ReproError(
                    f"malformed candidate fact {entry!r}: {exc}"
                ) from exc
        else:
            raise ReproError(f"bad candidate entry {entry!r}")
    return Instance(prioritizing.instance.signature, facts)


def _job_from_fields(
    prioritizing: PrioritizingInstance,
    job_id: str,
    candidate_spec: Sequence[Any],
    defaults: Dict[str, Any],
    fields: Dict[str, Any],
) -> RepairJob:
    def pick(name: str, fallback: Any) -> Any:
        value = fields.get(name)
        if value is None:
            value = defaults.get(name, fallback)
        return value

    try:
        priority = int(pick("priority", 0))
    except (TypeError, ValueError) as exc:
        raise ReproError(f"job {job_id!r} has a bad priority: {exc}") from exc
    return RepairJob(
        job_id=job_id,
        prioritizing=prioritizing,
        candidate=candidate_from_spec(prioritizing, candidate_spec),
        semantics=pick("semantics", "global"),
        method=pick("method", "auto"),
        priority=priority,
        timeout=pick("timeout", None),
        node_budget=pick("budget", None),
    )


def _load_json_batch(
    path: Path, prioritizing: Optional[PrioritizingInstance]
) -> Tuple[PrioritizingInstance, List[RepairJob]]:
    document = read_json_file(path)
    if not isinstance(document, dict):
        raise UsageError(
            f"{path}: a job file holds a JSON object, not "
            f"{type(document).__name__}"
        )
    if prioritizing is None:
        problem = document.get("problem")
        csv_spec = document.get("csv")
        if problem is not None and csv_spec is not None:
            raise ReproError(
                "job file declares both 'problem' and 'csv'; pick one"
            )
        if isinstance(problem, str):
            prioritizing = load_prioritizing_instance(path.parent / problem)
        elif isinstance(problem, dict):
            prioritizing = prioritizing_from_dict(problem)
        elif csv_spec is not None:
            prioritizing = load_problem_from_csv_spec(csv_spec, path.parent)
        else:
            raise ReproError(
                "job file needs a 'problem' or 'csv' section (or pass "
                "--problem)"
            )
    defaults = document.get("defaults", {})
    entries = document.get("jobs", [])
    if not isinstance(defaults, dict) or not isinstance(entries, list):
        raise UsageError(
            f"{path}: 'defaults' must be an object and 'jobs' a list"
        )
    jobs = []
    for position, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ReproError(f"job #{position} is not an object")
        if "candidate" not in entry:
            raise ReproError(f"job #{position} has no 'candidate'")
        jobs.append(
            _job_from_fields(
                prioritizing,
                str(entry.get("id", f"job-{position}")),
                entry["candidate"],
                defaults,
                entry,
            )
        )
    return prioritizing, jobs


def _load_csv_batch(
    path: Path, prioritizing: PrioritizingInstance
) -> Tuple[PrioritizingInstance, List[RepairJob]]:
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.DictReader(handle)
            columns = set(reader.fieldnames or ())
            rows = list(reader)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise UsageError(f"{path}: not a readable CSV file: {exc}") from exc
    missing = {"id", "candidate"} - columns
    if missing:
        raise ReproError(
            f"{path}: job CSV is missing column(s) {sorted(missing)}"
        )
    jobs = []
    for position, row in enumerate(rows):
        try:
            candidate_spec, fields = _csv_row_fields(row)
        except ValueError as exc:
            raise UsageError(f"{path}: job row #{position}: {exc}") from exc
        jobs.append(
            _job_from_fields(
                prioritizing,
                (row.get("id") or f"job-{position}").strip(),
                candidate_spec,
                {},
                fields,
            )
        )
    return prioritizing, jobs


def _csv_row_fields(row: Dict[str, Any]) -> Tuple[List[int], Dict[str, Any]]:
    candidate_text = (row.get("candidate") or "").strip()
    candidate_spec = [
        int(token) for token in candidate_text.split(";") if token.strip()
    ]
    fields: Dict[str, Any] = {}
    for name, convert in (
        ("semantics", str),
        ("method", str),
        ("priority", int),
        ("timeout", float),
        ("budget", int),
    ):
        text = (row.get(name) or "").strip()
        if text:
            fields[name] = convert(text)
    return candidate_spec, fields


def load_batch_file(
    path: Union[str, Path],
    prioritizing: Optional[PrioritizingInstance] = None,
) -> Tuple[PrioritizingInstance, List[RepairJob]]:
    """Load a JSON (``.json``) or CSV (anything else) job file.

    ``prioritizing`` overrides/provides the problem; CSV job files
    require it (they have no problem section of their own).
    """
    path = Path(path)
    if path.suffix.lower() == ".json":
        return _load_json_batch(path, prioritizing)
    if prioritizing is None:
        raise ReproError(
            "CSV job files carry no problem; pass --problem (or a "
            "prioritizing instance)"
        )
    return _load_csv_batch(path, prioritizing)


def write_results_jsonl(report: BatchReport, path: Union[str, Path]) -> None:
    """Write one JSON object per job result, in submission order.

    Crash-atomic: the file is either the previous contents or the full
    new batch, never a torn prefix (same-directory temp + rename).
    """
    lines = [json.dumps(result.to_dict()) for result in report.results]
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def write_metrics_json(report: BatchReport, path: Union[str, Path]) -> None:
    """Write the batch's metrics snapshot (counters, histograms, cache
    and classification-cache statistics; events are included last).

    Crash-atomic, like :func:`write_results_jsonl`.
    """
    atomic_write_text(path, json.dumps(report.metrics, indent=2, default=str))
