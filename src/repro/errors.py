"""Structured exception taxonomy shared by every repro package.

The seed code raised a zoo of bare ``RuntimeError``/``ValueError``
subclasses defined next to their call sites, which made flow-level
recovery impossible: a library build could not tell a solver
non-convergence (retryable, quarantineable) from a programming error.
Every recoverable failure now derives from :class:`ReproError` and is
tagged by layer:

``ReproError``
    Base class; still a ``RuntimeError`` so pre-existing ``except
    RuntimeError`` call sites keep working.
``SolverError``
    The SPICE layer could not produce a solution: Newton-Raphson
    non-convergence at every gmin/source step
    (:class:`~repro.spice.solver.ConvergenceError`), a singular MNA
    matrix, or an exhausted per-solve budget
    (:class:`SolverBudgetError`).
``CharacterizationError``
    A cell/arc could not be characterized.  Carries the cell and arc so
    the resilient library build can quarantine precisely.
``WorkloadError``
    An ISS workload failed: runaway execution
    (:class:`~repro.soc.cpu.HaltError`) or a cycle-budget watchdog trip
    (:class:`HangError`) -- the crash/hang buckets of a fault-injection
    campaign.
``ValidationError``
    A malformed *input* was rejected before any compute ran: a broken
    netlist (:class:`NetlistError`, naming the offending element or
    node) or an out-of-range configuration (:class:`ConfigError`,
    naming the field).  Both also derive from ``ValueError`` so
    pre-existing ``except ValueError`` call sites (and tests) keep
    working.
``ServeError``
    The classification service (:mod:`repro.serve`) could not serve a
    request: the bounded queue was full
    (:class:`ServeOverloadError`, the 429-style back-pressure signal)
    or the request's deadline expired before its labels were delivered
    (:class:`DeadlineError`, the 408 path).  A malformed wire request
    is a :class:`ServeProtocolError`, which stays under
    ``ValidationError`` like every other bad-input rejection.
"""

from __future__ import annotations

__all__ = [
    "CharacterizationError",
    "ConfigError",
    "DeadlineError",
    "HangError",
    "NetlistError",
    "ReproError",
    "ServeError",
    "ServeOverloadError",
    "ServeProtocolError",
    "SolverBudgetError",
    "SolverError",
    "ValidationError",
    "WorkloadError",
]


class ReproError(RuntimeError):
    """Base class for every recoverable failure raised by repro code."""


class SolverError(ReproError):
    """The circuit solver failed to produce a solution."""


class SolverBudgetError(SolverError):
    """A per-solve iteration or wall-clock budget was exhausted.

    Distinct from plain non-convergence so callers can tell "this solve
    is hopeless" from "this solve is too expensive" -- the
    characterization retry ladder treats them the same, a debugging
    session does not.
    """


class CharacterizationError(ReproError):
    """One cell (or one timing arc) could not be characterized."""

    def __init__(self, message: str, cell: str = "", arc: str = ""):
        super().__init__(message)
        self.cell = cell
        self.arc = arc


class ValidationError(ReproError, ValueError):
    """A malformed input was rejected before any compute ran.

    The dual ``ValueError`` base keeps the seed contract: call sites
    that guarded parse/validate paths with ``except ValueError`` still
    catch the typed form, while flow-level recovery can now tell "bad
    input" from "good input, failed compute".
    """


class NetlistError(ValidationError):
    """A circuit/netlist is structurally invalid (the edge-tier scenarios
    in ``tests/assault`` feed these: dangling nodes, NaN parameters,
    zero-width devices, combinational loops...)."""

    def __init__(self, message: str, element: str = ""):
        super().__init__(message)
        self.element = element
        """The offending element, node, or net name (may be empty)."""


class ConfigError(ValidationError):
    """A configuration value is out of range or malformed."""

    def __init__(self, message: str, field: str = ""):
        super().__init__(message)
        self.field = field
        """The offending config field name (may be empty)."""


class ServeError(ReproError):
    """The classification service could not serve a request."""

    #: HTTP-style status code carried on the wire (subclasses override).
    code = 500


class ServeOverloadError(ServeError):
    """The bounded request queue was full; the request was rejected
    immediately (429-style back-pressure, never a hang)."""

    code = 429


class DeadlineError(ServeError):
    """A request's deadline expired before its labels were delivered
    (queued too long, or the client stalled reading its response)."""

    code = 408


class ServeProtocolError(ValidationError):
    """A malformed wire request was rejected before classification.

    Stays under :class:`ValidationError` (bad input, typed, names the
    offender) -- the 400 path of the service.
    """

    code = 400

    def __init__(self, message: str, field: str = ""):
        super().__init__(message)
        self.field = field
        """The offending request field name (may be empty)."""


class WorkloadError(ReproError):
    """An ISS workload run failed."""


class HangError(WorkloadError):
    """A cycle-budget watchdog expired before the workload halted."""
