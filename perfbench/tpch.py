"""The ``tpch_load`` and ``tpch_repair`` workloads.

Each pipeline runs in a fresh interpreter, the way a user runs
``repro workload e2e``: the parent spawns the child, the child imports
``repro``, builds the schema and opens the store, reports ready (that
interval is ``setup_s``), then runs the steps of ``workload e2e``
through their public functions and reports timings, peak memory, its
conformance verdict and host-probe samples taken just before and after
the pipeline (see :mod:`perfbench.hostspeed`) as one JSON line.

The two workloads run the same steps at different sizes, so that the
layers they stress differ: ``tpch_load`` is dominated by generation
and ingest, ``tpch_repair`` by repair construction over a dense
conflict kernel.
"""

from __future__ import annotations

import json
import random
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

from perfbench import hostspeed
from perfbench.spans import Tracer
from perfbench.stats import median

#: (scale factor, injection rate) per workload.  Pipelines are kept to
#: a few seconds so that one run holds several and reports their
#: median: single pipelines on a shared 2-core host vary by ~10%.
SIZES = {
    "tpch_load": (0.03, 0.001),
    "tpch_repair": (0.005, 0.2),
}

#: Spans that partition the traced pipeline (their self times plus
#: ``trace.unattributed_s`` equal the traced wall time).
PIPELINE_SPANS = (
    "workloads.generate",
    "engine.ingest",
    "engine.cross_check",
    "workloads.manifest",
    "engine.kernel",
    "workloads.prioritize",
    "compute.repair",
    "core.bitset_core",
    "core.certify",
    "engine.probe",
)

#: Set-up samples a run takes at least, pipelines included.
MIN_SETUP_SAMPLES = 5

#: Inputs a run cycles its pipelines through, all derived from the run's
#: seed.  At a fixed size the kernel still varies by about 4% between
#: seeds (the injector draws per row) and repair time grows with its
#: square, so a run of one input lets the seed set the run's figures.
INPUTS_PER_RUN = 4


# -- the child process ---------------------------------------------------------


def child_main(workload: str, seed: int, traced: bool) -> int:
    """Set up, report ready, run one pipeline, report its figures; a
    traced pipeline also replays the encoders for ``engine.encode_s``."""
    from repro.engine.streaming import StreamingInstanceStore
    from repro.workloads.tpch import tpch_schema

    schema = tpch_schema()
    store = StreamingInstanceStore(schema)
    print("ready", flush=True)
    if workload == "setup":
        store.close()
        return 0
    probe_s = hostspeed.probe()
    with store:
        report = run_pipeline(store, workload, seed, Tracer(traced))
    report["probe_s"] = probe_s + hostspeed.probe()
    if traced:
        report["encode_s"] = replay_encoders(schema, workload, seed)
    print(json.dumps(report), flush=True)
    return 0


def run_pipeline(store, workload: str, seed: int, tracer: Tracer) -> Dict[str, Any]:
    """The steps of ``repro workload e2e`` at ``workload``'s size."""
    from repro.compute import compute_optimal_repair
    from repro.core.backend import resolve_backend
    from repro.core.checking import check_globally_optimal
    from repro.workloads.injection import (
        InjectionManifest,
        iter_injected_rows,
        tiered_prioritizing,
    )
    from repro.workloads.tpch import generate_tables

    scale_factor, rate = SIZES[workload]
    schema = store.schema
    span = tracer.span
    rows = 0

    def counted(stream):
        nonlocal rows
        for row in stream:
            rows += 1
            yield row

    start = time.perf_counter()
    tables = generate_tables(scale_factor, seed)
    conflicts: List[Any] = []
    for relation in sorted(tables):
        fd = next(
            fd for fd in sorted(schema.fds_for(relation).fds, key=str)
            if not fd.is_trivial()
        )
        sink: List[Any] = []
        stream = iter_injected_rows(
            relation, fd, tables[relation](), rate, seed, sink
        )
        with span("engine.ingest"):
            store.ingest_rows(
                relation, tracer.timed_iter("workloads.generate", counted(stream))
            )
        conflicts.extend(sink)
    manifest = InjectionManifest(
        rate=rate, seed=seed, relations=tuple(sorted(tables)), conflicts=conflicts
    )
    with span("engine.cross_check"):
        found = store.conflict_pairs()
    with span("workloads.manifest"):
        pairs_match = found == manifest.conflict_pairs()
    with span("engine.kernel"):
        kernel = store.conflict_kernel()
    with span("workloads.prioritize"):
        prioritizing = tiered_prioritizing(schema, kernel, manifest)
    with span("compute.repair"):
        computed = compute_optimal_repair(
            prioritizing, semantics="global", rng=random.Random(seed)
        )
    # The certifier builds the bitset core first whenever the kernel
    # is large enough for the bitset backend; building it here times
    # that step apart from the certification proper.
    if resolve_backend(len(kernel)) == "bitset":
        with span("core.bitset_core"):
            prioritizing.bitset_core
    with span("core.certify"):
        certified = check_globally_optimal(prioritizing, computed.repair)
    with span("workloads.manifest"):
        all_trusted = computed.repair.facts == (
            kernel.facts - manifest.injected_facts()
        )
    with span("engine.probe"):
        facts = store.fact_count()
        consistent = store.is_consistent()
    pipeline_s = time.perf_counter() - start

    conformant = (
        pairs_match
        and computed.status == "ok"
        and certified.is_optimal
        and all_trusted
        # Every injected twin clashes with its clean row.
        and consistent == (len(manifest) == 0)
    )
    return {
        "pipeline_s": pipeline_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "conformant": conformant,
        "rows": rows,
        "facts": facts,
        "kernel_facts": len(kernel),
        "self_times": tracer.self_times(),
    }


def replay_encoders(schema, workload: str, seed: int) -> float:
    """Time the loader's per-row encoding over the same rows, alone.

    Replays exactly what ``StreamingInstanceStore.ingest_rows`` computes
    per row before the sqlite insert: the ``str(fact)`` sort key plus
    the canonical and the type-faithful encoding of every value.  Rows
    are regenerated outside the timed region.
    """
    from repro.engine.streaming import canonical_value, encode_value, fact_sort_key
    from repro.workloads.injection import iter_injected_rows
    from repro.workloads.tpch import generate_tables

    scale_factor, rate = SIZES[workload]
    tables = generate_tables(scale_factor, seed)
    chunk = 8192
    total = 0.0
    for relation in sorted(tables):
        fd = next(
            fd for fd in sorted(schema.fds_for(relation).fds, key=str)
            if not fd.is_trivial()
        )
        stream = iter_injected_rows(relation, fd, tables[relation](), rate, seed)
        while True:
            rows = [tuple(row) for _, row in zip(range(chunk), stream)]
            if not rows:
                break
            start = time.perf_counter()
            for values in rows:
                (
                    (fact_sort_key(relation, values),)
                    + tuple(canonical_value(value) for value in values)
                    + tuple(encode_value(value) for value in values)
                )
            total += time.perf_counter() - start
    return total


# -- the parent side -----------------------------------------------------------


def _spawn(root: Path, env: Dict[str, str], workload: str, seed: int,
           traced: bool = False):
    """Start a child; returns ``(setup_s, process)`` once it is ready."""
    env = {**env, "PYTHONHASHSEED": str(seed)}
    argv = [
        sys.executable, str(root / "perfbench" / "run.py"),
        "--child", workload, "--seed", str(seed),
    ]
    if traced:
        argv.append("--child-traced")
    start = time.perf_counter()
    process = subprocess.Popen(
        argv, cwd=root, env=env, stdout=subprocess.PIPE, text=True
    )
    line = process.stdout.readline()
    setup_s = time.perf_counter() - start
    if line.strip() != "ready":
        process.kill()
        process.communicate()
        raise RuntimeError(f"{workload} child failed during set-up")
    return setup_s, process


def _finish(process) -> Dict[str, Any]:
    out, _ = process.communicate(timeout=170)
    if process.returncode != 0:
        raise RuntimeError(f"pipeline child exited {process.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def setup_probe(root: Path, env: Dict[str, str]) -> float:
    """Spawn a child that only sets up; its ``setup_s``."""
    setup_s, process = _spawn(root, env, "setup", 0)
    process.communicate(timeout=60)
    if process.returncode != 0:
        raise RuntimeError(f"set-up child exited {process.returncode}")
    return setup_s


def pipeline(root, env, workload, seed, traced=False):
    """One pipeline in a fresh child: ``(setup_s, report)``."""
    setup_s, process = _spawn(root, env, workload, seed, traced)
    return setup_s, _finish(process)


def run(root: Path, env: Dict[str, str], workload: str, seed: int,
        seconds: float, traced: bool) -> Dict[str, Any]:
    """Run ``workload`` for about ``seconds``; returns the result dict."""
    # An untimed first spawn: in a fresh checkout it writes the bytecode
    # caches, which users pay once, not per run.
    setup_probe(root, env)
    began = time.perf_counter()
    setups: List[float] = []
    reports: List[Dict[str, Any]] = []

    def spend(traced_run: bool = False) -> Dict[str, Any]:
        if traced_run:
            # The same input as the untraced baseline before it.
            input_seed = seed * INPUTS_PER_RUN
        else:
            input_seed = seed * INPUTS_PER_RUN + len(reports) % INPUTS_PER_RUN
        setup_s, report = pipeline(root, env, workload, input_seed, traced_run)
        setups.append(setup_s)
        reports.append(report)
        return report

    # An untraced run takes at least two pipelines and more while the
    # budget holds one more of the same length; a traced run takes one
    # untraced (the overhead baseline) and one traced.
    spend()
    traced_report = None
    if traced:
        traced_report = spend(traced_run=True)
    else:
        while (
            len(reports) < 2
            or time.perf_counter() - began + 1.1 * reports[-1]["pipeline_s"]
            < seconds
        ):
            spend()
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(setup_probe(root, env))

    untraced = [r for r in reports if r is not traced_report]
    failed = sum(1 for r in reports if not r["conformant"])
    pipelines = [r["pipeline_s"] for r in untraced]
    raw_p50_ms = 1e3 * median(pipelines)
    raw_throughput = median([r["facts"] / r["pipeline_s"] for r in untraced])
    factor = hostspeed.factor([s for r in untraced for s in r["probe_s"]])
    metrics: Dict[str, Any] = {
        "setup_s": median(setups),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in untraced]),
        "p50_ms": raw_p50_ms / factor,
        "throughput": raw_throughput * factor,
    }
    counts = {
        "setup_s": len(setups),
        "peak_rss_mb": len(pipelines),
        "p50_ms": len(pipelines),
        "throughput": len(pipelines),
        "host_factor": round(factor, 4),
        "raw_p50_ms": round(raw_p50_ms, 2),
        "raw_throughput": round(raw_throughput, 1),
        "facts": median([r["facts"] for r in untraced]),
        "kernel_facts": median([r["kernel_facts"] for r in untraced]),
    }
    layers = layer_metrics(traced_report, median(pipelines)) if traced else {}
    return {
        "attempted": len(reports),
        "failed": failed,
        "correct": failed == 0,
        "metrics": metrics,
        "layers": layers,
        "counts": counts,
    }


def layer_metrics(report: Dict[str, Any], untraced_s: float) -> Dict[str, float]:
    """Per-layer figures of one traced pipeline."""
    self_times = report["self_times"]
    seconds = {name: self_times.get(name, 0.0) for name in PIPELINE_SPANS}
    wall = report["pipeline_s"]
    ingest = seconds["engine.ingest"]
    encode = report["encode_s"]
    layers = {f"{name}_s": value for name, value in seconds.items()}
    layers.update(
        {
            "engine.encode_s": encode,
            "engine.insert_s": ingest - encode,
            "engine.rows": float(report["rows"]),
            "engine.rows_per_s": report["rows"] / ingest if ingest else 0.0,
            "engine.kernel_share": report["kernel_facts"] / report["facts"],
            "trace.wall_s": wall,
            "trace.unattributed_s": wall - sum(seconds.values()),
            "trace.overhead_s": wall - untraced_s,
        }
    )
    return layers
