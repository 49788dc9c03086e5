"""Exception hierarchy for the ``repro`` package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one base class at an API boundary.  Subclasses are split
by subsystem so tests can assert on the precise failure mode.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigError(ReproError):
    """A configuration object is inconsistent or out of range."""


class SimulationError(ReproError):
    """The discrete-event engine was driven into an invalid state."""


class AllocationError(ReproError):
    """A NUMA page allocation could not be satisfied."""


class ProtocolError(ReproError):
    """A CXL protocol rule (flit packing, message pairing) was violated."""


class CacheError(ReproError):
    """A cache-hierarchy invariant (inclusion, MESI transition) was violated."""


class DeviceError(ReproError):
    """A memory or DSA device was used outside of its operating envelope."""


class WorkloadError(ReproError):
    """A workload generator was configured with invalid parameters."""


class ExperimentError(ReproError):
    """An experiment harness failed to produce a result."""


class TelemetryError(ReproError):
    """A telemetry metric or trace was used or serialized incorrectly."""


class FaultError(ReproError):
    """A fault-injection plan is invalid or was applied inconsistently."""


class ClusterError(ReproError):
    """A cluster topology, pool carve, or routing rule was violated."""


class ScenarioError(ReproError):
    """A declarative scenario could not be loaded, validated, or run."""


class ResilienceError(ReproError):
    """A supervision policy or checkpoint journal was misused."""


def unknown_option(kind: str, name: object, options) -> str:
    """The uniform message for name-keyed factories: ``unknown <kind>
    <name>; available: [...]``.

    Both :func:`repro.cluster.routing.make_router` and
    :func:`repro.cluster.resilience.make_policy` raise with this shape,
    so CLI error output stays greppable across subsystems.
    """
    return f"unknown {kind} {name!r}; available: {sorted(options)}"
