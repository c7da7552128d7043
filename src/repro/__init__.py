"""repro — reproduction of *Servet: A Benchmark Suite for Autotuning on
Multicore Clusters* (González-Domínguez et al., IPDPS 2010).

The package has three strata (see DESIGN.md):

- **Substrate** (:mod:`repro.topology`, :mod:`repro.memsim`,
  :mod:`repro.netsim`, :mod:`repro.simmpi`) — the simulated multicore
  cluster that replaces the paper's physical testbeds.
- **Servet core** (:mod:`repro.core`) — the paper's benchmark
  algorithms, written against the :mod:`repro.backends` measurement
  interface only.
- **Autotuning** (:mod:`repro.autotune`) — the Section V consumers of a
  :class:`ServetReport`.
- **Tuning service** (:mod:`repro.service`) — the install-once,
  consult-forever layer: fingerprint-keyed report registry, concurrent
  cached query serving, staleness-driven incremental re-measurement.
- **Observability** (:mod:`repro.obs`) — structured tracing, a metrics
  registry, and probe-level provenance for every detected parameter.

Quickstart::

    from repro import SimulatedBackend, ServetSuite, dunnington

    backend = SimulatedBackend(dunnington(), seed=42)
    report = ServetSuite(backend).run()
    print(report.summary())
    report.save("servet_report.json")
"""

from .backends import Backend, NativeBackend, SimulatedBackend
from .core import ServetReport, ServetSuite
from .autotune import Advisor
from .obs import MetricsRegistry, ParameterProvenance, Tracer, explain
from .planner import (
    MessageProbe,
    PlanExecutor,
    PlannerStats,
    StreamProbe,
    TopologyClassifier,
    TraversalProbe,
)
from .resilience import (
    FaultInjectingBackend,
    FaultPlan,
    HardenedBackend,
    SuiteCheckpoint,
)
from .service import (
    MachineFingerprint,
    ReportRegistry,
    TuningService,
    assess_staleness,
    fingerprint_of,
    incremental_refresh,
    machine_fingerprint,
    run_harness,
)
from .topology import (
    Cluster,
    Machine,
    athlon_3200,
    build_machine,
    builder_names,
    dempsey,
    dunnington,
    finis_terrae,
    finis_terrae_node,
    generic_smp,
)

__version__ = "1.0.0"

__all__ = [
    "Backend",
    "NativeBackend",
    "SimulatedBackend",
    "ServetReport",
    "ServetSuite",
    "Advisor",
    "MetricsRegistry",
    "ParameterProvenance",
    "Tracer",
    "explain",
    "MessageProbe",
    "PlanExecutor",
    "PlannerStats",
    "StreamProbe",
    "TopologyClassifier",
    "TraversalProbe",
    "FaultInjectingBackend",
    "FaultPlan",
    "HardenedBackend",
    "SuiteCheckpoint",
    "MachineFingerprint",
    "ReportRegistry",
    "TuningService",
    "assess_staleness",
    "fingerprint_of",
    "incremental_refresh",
    "machine_fingerprint",
    "run_harness",
    "Cluster",
    "Machine",
    "athlon_3200",
    "build_machine",
    "builder_names",
    "dempsey",
    "dunnington",
    "finis_terrae",
    "finis_terrae_node",
    "generic_smp",
    "__version__",
]
