"""Exception hierarchy for the :mod:`repro` package.

Every error raised intentionally by the library derives from
:class:`ReproError`, so callers can catch library failures without
accidentally swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A machine/topology/model description is inconsistent.

    Examples: a cache whose size is not ``line_size * ways * sets``,
    a core id referenced by two processors, a bandwidth domain with
    non-positive capacity.
    """


class TopologyError(ConfigurationError):
    """A machine description uses a topology feature we cannot parse.

    Raised when loading a serialized machine that names an unknown
    cache-organization tag or core-class layout, so forward-incompatible
    files fail with the offending tag in the message instead of a bare
    ``KeyError``.
    """


class MeasurementError(ReproError):
    """A benchmark measurement could not be carried out.

    Raised by backends, e.g. when asked to traverse an array smaller
    than one stride, or to time communication between a core and itself.
    """


class MeasurementTimeout(MeasurementError):
    """A measurement exceeded its (virtual-time) deadline.

    Raised by fault injection / hardened backends when a measurement
    hangs; carries the virtual seconds that were burned waiting so the
    suite's Table I accounting stays honest.
    """

    def __init__(self, message: str, waited: float = 0.0) -> None:
        super().__init__(message)
        self.waited = waited


class DetectionError(ReproError):
    """A Servet detection algorithm could not produce an estimate.

    Raised e.g. when the mcalibrator curve contains no gradient peak at
    all (no cache visible in the probed range).
    """


class SimulationError(ReproError):
    """The discrete-event simulation reached an invalid state.

    Examples: deadlock (all processes blocked with no pending events),
    a receive that can never be matched, or time moving backwards.
    """


class WatchdogError(SimulationError):
    """A simulation watchdog tripped (event budget exhausted).

    Raised instead of spinning forever when a faulty communication
    model keeps generating events; the message names the stuck ranks
    and what they are blocked on.
    """


class CheckpointError(ReproError):
    """A suite checkpoint could not be written, read, or applied.

    Examples: a checkpoint file for a different machine/configuration,
    an unsupported checkpoint version, or corrupt JSON.
    """


class WorkloadError(ReproError):
    """A workload model request is malformed or unanswerable.

    Examples: an unknown synthetic-workload generator or parameter, a
    co-scheduling query over a report with no detected shared cache, or
    more workloads than shared-cache slots to place them on.
    """


class ServiceError(ReproError):
    """The tuning service could not answer or refresh.

    Examples: a backend without a cluster model to fingerprint, a query
    the loaded report cannot answer, an incremental refresh whose base
    report is missing.
    """


class FleetError(ReproError):
    """A fleet survey could not be planned, run, or resumed.

    Examples: a fleet spec with zero machines, a checkpoint belonging
    to a different fleet, or a survey asked to resume without a
    checkpoint path.
    """


class ServicedError(ServiceError):
    """The serving daemon or its wire protocol failed.

    Examples: a frame whose length prefix exceeds the protocol limit,
    a connection that closed mid-frame, malformed request/response
    JSON, an unknown query kind on the wire, or a client that could
    not reach the daemon at all (connection refused).
    """


class RegistryError(ServiceError):
    """A report-registry operation failed.

    Examples: an unknown or ambiguous fingerprint spec, a version file
    whose checksum does not match (the file is quarantined, then this
    is raised only if no intact version remains), an unsupported schema
    version with no registered migration.
    """
