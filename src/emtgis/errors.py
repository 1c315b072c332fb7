"""Exception taxonomy shared by all emtgis modules."""

from __future__ import annotations


class EmtgisError(Exception):
    """Base class for all errors raised by this package."""


# --- case model ------------------------------------------------------------


class CaseFormatError(EmtgisError):
    """A case document is structurally unreadable (missing keys, bad types)."""


class SingularNetwork(EmtgisError):
    """A bus has no admittance connection at all (zero matrix row)."""


# --- power flow ------------------------------------------------------------


class NonConvergence(EmtgisError):
    def __init__(self, max_iter: int, final_mismatch: float):
        super().__init__(
            f"power flow did not converge in {max_iter} iterations "
            f"(final mismatch {final_mismatch:.3e} pu)"
        )
        self.max_iter = max_iter
        self.final_mismatch = final_mismatch


class SingularJacobian(EmtgisError):
    def __init__(self, iteration: int):
        super().__init__(f"singular power-flow Jacobian at iteration {iteration}")
        self.iteration = iteration


class NotConverged(EmtgisError):
    """An operation required a converged power-flow solution."""


class OracleUnavailable(EmtgisError):
    """Whole-network reference solve requested but a region is opaque."""


# --- black-box regions -----------------------------------------------------


class InvalidVoltage(EmtgisError):
    """Boundary voltage magnitude must be positive."""


class InternalNonConvergence(EmtgisError):
    """A white-box region's internal power flow failed to converge."""


class GrbcPayloadError(CaseFormatError):
    """Region declaration payload is malformed for its kind."""


# --- boundary coordination -------------------------------------------------


class CoordinationError(EmtgisError):
    """Boundary coordination failed; `jfng_solve` attaches its trace."""

    trace = None


class ResidualEvaluationError(CoordinationError):
    """Residual evaluation failed; carries which side broke."""

    def __init__(self, side: str, cause: Exception):
        super().__init__(f"residual evaluation failed on {side}: {cause}")
        self.side = side
        self.cause = cause


class NonFinite(CoordinationError):
    """A probe point produced a non-finite or out-of-basin residual."""


class MaxOuterExceeded(CoordinationError):
    def __init__(self, phi_norm: float, trace=None):
        super().__init__(
            f"outer iteration limit reached with residual norm {phi_norm:.3e}"
        )
        self.phi_norm = phi_norm
        self.trace = trace


class InnerBreakdown(CoordinationError):
    """Krylov basis broke down before reaching the inner tolerance."""


class OuterStepRejected(CoordinationError):
    """Every halving of an outer step left the basin or broke the residual."""

    def __init__(self, halvings: int, reason: str):
        super().__init__(f"outer Newton step rejected after {halvings} halvings: {reason}")
        self.halvings = halvings


# --- EMT kernel ------------------------------------------------------------


class InvalidParameter(EmtgisError):
    """Non-physical element parameter (R, L, C must be positive)."""


class SingularConductance(EmtgisError):
    """Nodal conductance matrix not factorizable for current topology."""


class UnknownBus(EmtgisError):
    pass


class UnknownProbe(EmtgisError):
    pass


class IncompatibleSnapshot(EmtgisError):
    """Snapshot does not describe the same network/step size."""


class UnsupportedElement(EmtgisError):
    """The EMT kernel cannot represent this case feature (e.g. off-nominal tap)."""


# --- snapshots and splicing ------------------------------------------------


class MissingComponentModel(EmtgisError):
    """No phasor-initialization rule exists for a component."""


class ZeroFaultCurrentDelta(EmtgisError):
    """Fault and steady currents coincide; equivalent impedance undefined."""


class SteadyStateTimeout(EmtgisError):
    def __init__(self, duration: float):
        super().__init__(f"steady state not detected within {duration:.3f} s")
        self.duration = duration


class ScheduleViolation(EmtgisError):
    """A snapshot timestamp does not match its scheduled splice time."""


class TopologyMismatch(EmtgisError):
    """Subsystem snapshots do not tile the whole-system network."""


class StageFailure(EmtgisError):
    """Pipeline stage failure; carries the stage name for reporting."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
