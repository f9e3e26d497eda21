#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, and agreement of two sets.

Run from the repository root::

    # ten runs of one workload, each with another seed
    python3 perfbench/spread.py run --workload tpch_load --seeds 1-10 --out perfbench/out/a.json
    # per-metric spread (IQR as a share of the median) against the bound
    python3 perfbench/spread.py show perfbench/out/a.json
    # is the second set's median worse than the first's by more than the bound?
    python3 perfbench/spread.py compare perfbench/out/a.json perfbench/out/b.json
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import geomean, quartiles, regressed  # noqa: E402


def _spec() -> Tuple[Dict[str, dict], Dict[str, Any]]:
    """(end-to-end metrics by name, the whole BENCHMARK.json)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry for entry in spec["end_to_end"]}, spec


def _seeds(text: str) -> List[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def run(args) -> int:
    _, spec = _spec()
    results = []
    for seed in _seeds(args.seeds):
        command = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0",
        ]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else "{}"
        result = json.loads(last) if last.startswith("{") else {}
        result.update(seed=seed, returncode=done.returncode)
        results.append(result)
        values = {k: round(v["value"], 4) for k, v in result.get("metrics", {}).items()}
        print(f"seed {seed}: exit {done.returncode} {values}", flush=True)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(
        {"workload": args.workload, "results": results}, indent=1))
    return 0 if all(r["returncode"] == 0 for r in results) else 1


def _values(path: str) -> Dict[str, List[float]]:
    data = json.loads(Path(path).read_text())
    values: Dict[str, List[float]] = {}
    for result in data["results"]:
        for name, metric in result.get("metrics", {}).items():
            values.setdefault(name, []).append(metric["value"])
    return values


def show(args) -> int:
    metrics, _ = _spec()
    ok = True
    for name, values in _values(args.file).items():
        bound = metrics[name]["bound"]
        q = quartiles(values)
        steady = q["iqr_share"] < bound / 3
        ok = ok and q["iqr_share"] <= bound
        print(f"{name:<14} n={len(values):<3} median={q['median']:<12.4f} "
              f"q1={q['q1']:<12.4f} q3={q['q3']:<12.4f} "
              f"spread={q['iqr_share']:.3f} bound={bound} "
              f"{'steady' if steady else 'NOT STEADY'}")
    return 0 if ok else 1


def compare(args) -> int:
    metrics, _ = _spec()
    first, second = _values(args.first), _values(args.second)
    ratios, ok = [], True
    for name, values in first.items():
        entry = metrics[name]
        old = quartiles(values)["median"]
        new = quartiles(second[name])["median"]
        worse = regressed(new, old, entry["bound"], entry["better"])
        ok = ok and not worse
        ratios.append(new / old)
        print(f"{name:<14} first={old:<12.4f} second={new:<12.4f} "
              f"ratio={new / old:.3f} {'WORSE BEYOND BOUND' if worse else 'ok'}")
    print(f"geomean second/first ratio: {geomean(ratios):.3f}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="action", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("--workload", required=True)
    p_run.add_argument("--seeds", default="1-10")
    p_run.add_argument("--out", required=True)
    p_show = sub.add_parser("show")
    p_show.add_argument("file")
    p_cmp = sub.add_parser("compare")
    p_cmp.add_argument("first")
    p_cmp.add_argument("second")
    args = parser.parse_args()
    return {"run": run, "show": show, "compare": compare}[args.action](args)


if __name__ == "__main__":
    sys.exit(main())
