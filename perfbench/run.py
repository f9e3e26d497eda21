#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload tpch_load --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
traced variant and reports the per-layer metrics instead.  Metric names
and units come from ``BENCHMARK.json``; ``perfbench/METRICS.md`` says
what each one measures and which end-to-end metric it should move.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every correctness gate held.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("tpch_load", "tpch_repair", "serve_mixed")


def _import_paths() -> None:
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no repro package under {source}; run the "
            "benchmark from a full checkout"
        )
    for path in (str(ROOT), str(source)):
        if path not in sys.path:
            sys.path.insert(0, path)


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> Dict[str, Any]:
    if name == "serve_mixed":
        from perfbench import serve

        return serve.run(ROOT, seed, seconds, traced)
    from perfbench import tpch

    return tpch.run(ROOT, _child_env(), name, seed, seconds, traced)


def report(name: str, result: Dict[str, Any], spec: Dict[str, Any],
           traced: bool) -> Dict[str, Dict[str, Any]]:
    """Print one workload's figures; return its contract metrics."""
    listed = spec["per_layer"] if traced else spec["end_to_end"]
    values = dict(result["metrics"])
    values["failed_frac"] = result["failed"] / result["attempted"]
    if traced:
        # Layers a workload does not run read 0.
        values = {**values, **result["layers"]}
    metrics = {}
    counts = result["counts"]
    print(f"{name}: {result['attempted']} attempted, {result['failed']} failed"
          f"{'' if result['correct'] else '  -- CORRECTNESS FAILURE'}")
    for entry in listed:
        value = float(values.get(entry["name"], 0.0))
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        samples = counts.get(entry["name"])
        note = f"  (n={samples})" if samples is not None else ""
        print(f"  {entry['name']:<34} {value:14.4f} {entry['unit']}{note}")
    if not traced:
        print(f"  {'failed_frac':<34} {values['failed_frac']:14.4f} ratio")
    for key, value in counts.items():
        if key not in metrics:
            print(f"  [{key}: {value}]")
    return metrics


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--child-traced", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _import_paths()

    if args.child:
        from perfbench import tpch

        return tpch.child_main(args.child, args.seed, args.child_traced)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    traced = bool(args.trace)
    merged: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0,
                              "metrics": {}}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, traced)
        metrics = report(name, result, spec, traced)
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        if len(names) == 1:
            merged["metrics"] = metrics
        else:
            merged["metrics"].update(
                {f"{name}/{key}": value for key, value in metrics.items()}
            )
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
