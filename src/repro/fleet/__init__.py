"""Fault-tolerant fleet characterization: survey many machines at once.

The Servet suite characterizes one machine; this package scales that
to an installation.  A :class:`FleetCoordinator` drives its
:class:`FleetWorker` objects on one discrete-event loop, calling each
worker directly and scheduling the steps it answers with.  It dedups
machines by hardware fingerprint so each class is measured once,
survives worker crashes via leases and bounded reassignment,
re-dispatches stragglers speculatively, quarantines machines whose
reports fail plausibility validation, and checkpoints after every
finished class so a killed survey resumes where it stopped.  Class
reports land in one :class:`~repro.service.registry.ReportRegistry`
and the overall outcome is a :class:`FleetReport` of per-machine
``ok | degraded | failed | quarantined | pending`` statuses.
"""

from .checkpoint import FLEET_CHECKPOINT_VERSION, FleetCheckpoint
from .coordinator import FleetConfig, FleetCoordinator
from .report import MACHINE_STATUSES, FleetReport
from .spec import FleetSpec, HardwareClass, MachineSpec, generate_fleet, stable_seed
from .validate import report_problems
from .worker import FleetFaultPlan, FleetWorker, Job, JobRun

__all__ = [
    "FLEET_CHECKPOINT_VERSION",
    "FleetCheckpoint",
    "FleetConfig",
    "FleetCoordinator",
    "FleetFaultPlan",
    "FleetReport",
    "FleetSpec",
    "FleetWorker",
    "HardwareClass",
    "Job",
    "JobRun",
    "MACHINE_STATUSES",
    "MachineSpec",
    "generate_fleet",
    "report_problems",
    "stable_seed",
]
