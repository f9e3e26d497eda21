"""Workload generation: synthetic inconsistent databases, priorities,
random graphs, and the paper's running example.

The paper is a theory paper without an empirical section, so every
experiment in this reproduction runs on synthetic data produced here
(documented as a substitution in DESIGN.md).  The generators model the
paper's own motivations: conflicting sources of differing reliability
and timestamped fact versions.  :mod:`repro.workloads.tpch` and
:mod:`repro.workloads.injection` add the production-scale workload: a
TPC-H-shaped benchmark generator with seeded FD-violation injection
and a trusted/crowdsourced two-tier priority.
"""

from repro.workloads.consortium import consortium_scenario, consortium_schema
from repro.workloads.generators import (
    domain_sizes_for_density,
    random_instance,
    random_instance_with_conflicts,
)
from repro.workloads.graphs import (
    all_graphs,
    erdos_renyi,
    hamiltonian_graph,
    non_hamiltonian_graph,
)
from repro.workloads.injection import (
    InjectedConflict,
    InjectionManifest,
    inject_violations,
    iter_injected_rows,
    manifest_priority_edges,
    tiered_prioritizing,
)
from repro.workloads.priorities import (
    layered_priority,
    random_ccp_priority,
    random_conflict_priority,
    random_prioritizing_instance,
    total_conflict_priority,
)
from repro.workloads.scenarios import (
    RunningExample,
    running_example,
    source_reliability_scenario,
    timestamp_scenario,
)
from repro.workloads.separations import (
    separation_instance,
    separation_schema,
)
from repro.workloads.tpch import (
    TPCH_RELATIONS,
    converters_for,
    generate_tables,
    iter_relation,
    sample_conflict_neighborhoods,
    table_sizes,
    tpch_schema,
    write_tbl,
)

__all__ = [
    "random_instance",
    "random_instance_with_conflicts",
    "domain_sizes_for_density",
    "erdos_renyi",
    "hamiltonian_graph",
    "non_hamiltonian_graph",
    "all_graphs",
    "random_conflict_priority",
    "total_conflict_priority",
    "random_ccp_priority",
    "layered_priority",
    "random_prioritizing_instance",
    "RunningExample",
    "running_example",
    "source_reliability_scenario",
    "timestamp_scenario",
    "consortium_scenario",
    "consortium_schema",
    "separation_instance",
    "separation_schema",
    "TPCH_RELATIONS",
    "tpch_schema",
    "table_sizes",
    "iter_relation",
    "generate_tables",
    "write_tbl",
    "converters_for",
    "sample_conflict_neighborhoods",
    "InjectedConflict",
    "InjectionManifest",
    "inject_violations",
    "iter_injected_rows",
    "manifest_priority_edges",
    "tiered_prioritizing",
]
