"""The fingerprint-keyed tuning service (DESIGN.md §6).

The paper's deployment model is "run once at installation time, store
the report, consult it from applications" (Section IV-E).  This package
owns the consultation step:

- :mod:`repro.service.fingerprint` — deterministic machine identity
  (topology model + comm model + suite options + schema version).
- :mod:`repro.service.registry` — versioned on-disk report store with
  atomic writes, integrity checksums and schema-migration hooks.
- :mod:`repro.service.server` — :class:`TuningService`, a concurrent
  in-process query layer with an LRU answer cache, per-query
  metrics, and a deterministic concurrent-client harness.
- :mod:`repro.service.staleness` — diffs live against stored
  fingerprints and re-measures only the affected suite phases through
  the planner/checkpoint machinery.
"""

from .fingerprint import (
    FINGERPRINT_VERSION,
    REPORT_SCHEMA_VERSION,
    MachineFingerprint,
    diff_inputs,
    fingerprint_of,
    machine_fingerprint,
    normalize_options,
)
from .registry import (
    RegistryEntry,
    ReportRegistry,
    register_migration,
    report_checksum,
)
from .server import (
    AggregationQuery,
    BcastQuery,
    CoScheduleQuery,
    CommLatencyQuery,
    HarnessResult,
    MatmulTileQuery,
    Query,
    StreamingCoresQuery,
    TileQuery,
    TuningService,
    answer,
    default_query_pool,
    query_from_spec,
    run_harness,
)
from .staleness import (
    ALL_PHASES,
    RefreshResult,
    StalenessReport,
    affected_phases,
    assess_staleness,
    incremental_refresh,
)

__all__ = [
    "ALL_PHASES",
    "AggregationQuery",
    "BcastQuery",
    "CoScheduleQuery",
    "CommLatencyQuery",
    "FINGERPRINT_VERSION",
    "HarnessResult",
    "MachineFingerprint",
    "MatmulTileQuery",
    "Query",
    "REPORT_SCHEMA_VERSION",
    "RefreshResult",
    "RegistryEntry",
    "ReportRegistry",
    "StalenessReport",
    "StreamingCoresQuery",
    "TileQuery",
    "TuningService",
    "affected_phases",
    "answer",
    "assess_staleness",
    "default_query_pool",
    "diff_inputs",
    "fingerprint_of",
    "incremental_refresh",
    "machine_fingerprint",
    "normalize_options",
    "query_from_spec",
    "register_migration",
    "report_checksum",
    "run_harness",
]
