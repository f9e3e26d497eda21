"""Optimal-repair construction on a workload-sized conflict kernel.

At scale factor 0.02 and injection rate 0.1 the TPC-H workload's
conflict kernel holds about 5k facts, large enough that a per-pick
rescan of the remaining facts would cost tens of seconds.  No wall
clock is asserted: the constructed repair must be the injection
manifest's all-trusted kernel (the two-tier priority makes it the
unique optimum) and must certify through the global checker.
"""

from __future__ import annotations

import random

import pytest

from repro.compute import compute_optimal_repair
from repro.core.checking import check_globally_optimal
from repro.engine.streaming import StreamingInstanceStore
from repro.workloads.injection import inject_violations, tiered_prioritizing
from repro.workloads.tpch import generate_tables, tpch_schema


@pytest.mark.slow
def test_construction_on_a_five_thousand_fact_kernel():
    schema = tpch_schema()
    seed = 1
    tables = generate_tables(0.02, seed)
    injected, manifest = inject_violations(tables, schema, 0.1, seed)
    with StreamingInstanceStore(schema) as store:
        for relation, factory in injected.items():
            store.ingest_rows(relation, factory())
        kernel = store.conflict_kernel()
    assert len(kernel.facts) > 4500
    prioritizing = tiered_prioritizing(schema, kernel, manifest)
    computed = compute_optimal_repair(
        prioritizing, semantics="global", rng=random.Random(seed)
    )
    assert computed.status == "ok"
    assert computed.repair.facts == kernel.facts - manifest.injected_facts()
    assert check_globally_optimal(prioritizing, computed.repair).is_optimal
