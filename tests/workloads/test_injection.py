"""The violation injector: manifest completeness, hash-seed-independent
determinism, rate monotonicity, and the two-tier priority's ground
truth."""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import textwrap

import pytest

from repro.core.bitset_index import BitsetConflictIndex
from repro.core.checking import check_globally_optimal
from repro.core.instance import Instance
from repro.engine.streaming import StreamingInstanceStore
from repro.exceptions import UsageError
from repro.workloads.injection import (
    MANIFEST_VERSION,
    InjectionManifest,
    inject_violations,
    iter_injected_rows,
    manifest_priority_edges,
    tiered_prioritizing,
)
from repro.workloads.tpch import generate_tables, tpch_schema

from tests.helpers import subprocess_env

SF = 0.005
SEED = 13
RATE = 0.05


def _workload(rate=RATE, seed=SEED, scale_factor=SF):
    schema = tpch_schema()
    tables = generate_tables(scale_factor, seed)
    injected, manifest = inject_violations(tables, schema, rate, seed)
    return schema, tables, injected, manifest


def test_manifest_records_every_injected_conflict_and_nothing_else():
    schema, _, injected, manifest = _workload()
    assert len(manifest) > 0
    with StreamingInstanceStore(schema) as store:
        for relation, factory in injected.items():
            store.ingest_rows(relation, factory())
        assert not store.is_consistent()
        assert store.conflict_pairs() == manifest.conflict_pairs()


def test_in_memory_conflict_index_agrees_with_manifest():
    schema, _, injected, manifest = _workload(scale_factor=0.002)
    facts = []
    from repro.core.fact import Fact

    for relation, factory in injected.items():
        facts.extend(Fact(relation, row) for row in factory())
    instance = Instance(schema.signature, facts)
    index = BitsetConflictIndex(schema, instance)
    found = frozenset(
        frozenset((f, g)) for _, f, g in index.iter_conflicts()
    )
    assert found == manifest.conflict_pairs()


def test_injected_stream_is_clean_stream_plus_twins():
    _, tables, injected, manifest = _workload()
    by_relation = manifest.counts_by_relation()
    for relation in tables:
        clean = list(tables[relation]())
        corrupted = list(injected[relation]())
        assert len(corrupted) == len(clean) + by_relation[relation]
        # Clean rows pass through in order; twins only ever append.
        assert [r for r in corrupted if r in set(clean)] == clean


def test_manifest_is_invariant_under_stream_consumption_order():
    # The eager manifest (dry decision scan) must equal the sinks
    # collected while actually consuming the corrupted streams.
    schema, _, injected, manifest = _workload()
    for factory in injected.values():
        list(factory())
    _, _, _, again = _workload()
    assert again.to_json() == manifest.to_json()


def test_rate_monotonicity_same_seed():
    _, _, _, low = _workload(rate=0.02)
    _, _, _, high = _workload(rate=0.10)
    assert 0 < len(low) < len(high)
    # Higher rate adds conflict blocks without touching existing ones.
    assert low.conflict_pairs() <= high.conflict_pairs()
    low_rows = {(c.relation, c.row_index) for c in low.conflicts}
    high_rows = {(c.relation, c.row_index) for c in high.conflicts}
    assert low_rows <= high_rows


def test_rate_zero_injects_nothing():
    _, _, injected, manifest = _workload(rate=0.0, scale_factor=0.002)
    assert len(manifest) == 0
    schema = tpch_schema()
    with StreamingInstanceStore(schema) as store:
        for relation, factory in injected.items():
            store.ingest_rows(relation, factory())
        assert store.is_consistent()


def test_bad_rate_rejected():
    schema, tables, _, _ = _workload(scale_factor=0.002)
    with pytest.raises(UsageError):
        inject_violations(tables, schema, rate=1.0, seed=0)
    with pytest.raises(UsageError):
        inject_violations(tables, schema, rate=-0.1, seed=0)


def test_fd_subset_restricts_injection():
    schema = tpch_schema()
    tables = generate_tables(0.002, SEED)
    _, manifest = inject_violations(
        tables, schema, 0.2, SEED, fd_subset=["orders"]
    )
    assert manifest.relations == ("orders",)
    assert set(c.relation for c in manifest.conflicts) == {"orders"}
    with pytest.raises(UsageError):
        inject_violations(
            tables, schema, 0.2, SEED, fd_subset=["orders", "orders"]
        )


def test_corrupted_positions_stay_inside_the_fd_rhs():
    schema, _, _, manifest = _workload()
    fds = {
        relation: next(
            fd for fd in schema.fds_for(relation).fds
            if not fd.is_trivial()
        )
        for relation in manifest.relations
    }
    for conflict in manifest.conflicts:
        fd = fds[conflict.relation]
        assert conflict.positions
        assert set(conflict.positions) <= set(fd.rhs_sorted)
        # The key is untouched: twin conflicts with exactly its clean row.
        for position in fd.lhs_sorted:
            assert (
                conflict.clean_row[position - 1]
                == conflict.injected_row[position - 1]
            )
        for position in conflict.positions:
            assert (
                conflict.clean_row[position - 1]
                != conflict.injected_row[position - 1]
            )


def test_manifest_json_roundtrip():
    _, _, _, manifest = _workload(scale_factor=0.002)
    restored = InjectionManifest.from_json(manifest.to_json())
    assert restored.to_json() == manifest.to_json()
    assert restored.conflict_pairs() == manifest.conflict_pairs()


def test_manifest_json_validation():
    with pytest.raises(UsageError):
        InjectionManifest.from_json("not json")
    with pytest.raises(UsageError):
        InjectionManifest.from_json("{}")
    _, _, _, manifest = _workload(scale_factor=0.002)
    tampered = manifest.to_json().replace(
        f'"conflict_count": {len(manifest)}', '"conflict_count": 999999'
    )
    with pytest.raises(UsageError):
        InjectionManifest.from_json(tampered)
    document = json.loads(manifest.to_json())
    del document["conflict_count"]
    for edit in (
        lambda d: [d],
        lambda d: {**d, "relations": 5},
        lambda d: {**d, "relations": [5]},
        lambda d: {**d, "conflicts": [{}]},
        lambda d: {**d, "conflicts": [5]},
        lambda d: {**d, "conflicts": {}},
        lambda d: {**d, "seed": "3"},
        lambda d: {**d, "rate": True},
        lambda d: {
            **d,
            "conflicts": [{**d["conflicts"][0], "positions": ["2"]}],
        },
        lambda d: {**d, "conflicts": [{**d["conflicts"][0], "fd": None}]},
    ):
        with pytest.raises(UsageError):
            InjectionManifest.from_json(json.dumps(edit(dict(document))))


@pytest.mark.parametrize("version", [None, 1, 99, "2", 2.5, True])
def test_manifest_of_another_version_is_refused(version):
    _, _, _, manifest = _workload(scale_factor=0.002)
    document = json.loads(manifest.to_json())
    if version is None:
        del document["version"]
    else:
        document["version"] = version
    with pytest.raises(UsageError) as excinfo:
        InjectionManifest.from_json(json.dumps(document))
    message = str(excinfo.value)
    assert f"version {MANIFEST_VERSION}" in message
    found = "no version" if version is None else f"version {version!r}"
    assert found in message
    assert "repro workload inject" in message


def test_manifest_digest_is_pinned_to_its_version():
    # The bytes of one tiny workload's manifest, pinned.  Any change to
    # the selection draws or the twin draws changes which rows a seed
    # corrupts and how: it must bump MANIFEST_VERSION (so old manifests
    # are refused on replay) and update this digest together.
    schema = tpch_schema()
    _, manifest = inject_violations(generate_tables(0.002, 3), schema, 0.05, 3)
    digest = hashlib.sha256(manifest.to_json().encode()).hexdigest()
    assert MANIFEST_VERSION == 2
    assert digest == (
        "65ac5bd215f5e9ca0003a3f1df370678a3abb69f819e839351dd787f8ad48001"
    )


def test_manifest_bytes_identical_across_hash_seeds():
    script = textwrap.dedent(
        f"""
        import sys
        from repro.workloads.injection import inject_violations
        from repro.workloads.tpch import generate_tables, tpch_schema

        schema = tpch_schema()
        tables = generate_tables({SF}, {SEED})
        _, manifest = inject_violations(tables, schema, {RATE}, {SEED})
        sys.stdout.write(manifest.to_json())
        """
    )
    outputs = set()
    for hash_seed in ("0", "1", "12345", "random"):
        env = subprocess_env()
        env["PYTHONHASHSEED"] = hash_seed
        result = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        outputs.add(result.stdout)
    assert len(outputs) == 1
    # And the in-process manifest matches the subprocess bytes.
    _, _, _, manifest = _workload()
    assert manifest.to_json() == outputs.pop()


def test_two_tier_priority_makes_all_trusted_the_unique_optimum():
    schema, _, injected, manifest = _workload()
    with StreamingInstanceStore(schema) as store:
        for relation, factory in injected.items():
            store.ingest_rows(relation, factory())
        kernel = store.conflict_kernel()
    prioritizing = tiered_prioritizing(schema, kernel, manifest)
    assert not prioritizing.is_ccp
    trusted = kernel.subinstance(kernel.facts - manifest.injected_facts())
    assert check_globally_optimal(prioritizing, trusted).is_optimal
    # Swap any one injected twin in for its clean original: beaten.
    conflict = min(manifest.conflicts, key=lambda c: str(c.injected_fact()))
    swapped = kernel.subinstance(
        (trusted.facts - {conflict.clean_fact()})
        | {conflict.injected_fact()}
    )
    assert not check_globally_optimal(prioritizing, swapped).is_optimal


def test_priority_edges_restrict_to_given_facts():
    _, _, _, manifest = _workload(scale_factor=0.002)
    edges = manifest_priority_edges(manifest)
    assert len(edges) == len(manifest)
    assert all(
        (c.clean_fact(), c.injected_fact()) in edges
        for c in manifest.conflicts
    )
    one = manifest.conflicts[0]
    kept = manifest_priority_edges(
        manifest, [one.clean_fact(), one.injected_fact()]
    )
    assert kept == [(one.clean_fact(), one.injected_fact())]


def test_iter_injected_rows_rejects_mismatched_fd():
    schema = tpch_schema()
    orders_fd = next(
        fd for fd in schema.fds_for("orders").fds if not fd.is_trivial()
    )
    with pytest.raises(UsageError):
        list(iter_injected_rows("lineitem", orders_fd, [], 0.1, 0))
