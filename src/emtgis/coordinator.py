"""Boundary coordination solver.

Forms the boundary coordination residual phi(x) = (p + p_tilde, q + q_tilde)
over x = (V_1..V_n, theta_1..theta_n) and drives it to zero with a
Jacobian-free Newton method: the linear correction at each outer step is
solved by restarted GMRES whose operator action comes from directional
differences of the residual, preconditioned by a rank-one-updated dense
matrix that accumulates secant information as the iteration proceeds.

A residual evaluation solves the torn main system, then each region in
declaration order.  Outer steps, like probes, stay inside the voltage basin.

The black-box region surface used here is exactly {evaluate,
adapter_is_opaque}; nothing in this module inspects region internals and
no code path assembles the residual Jacobian.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CoordinationError,
    InnerBreakdown,
    InternalNonConvergence,
    InvalidVoltage,
    MaxOuterExceeded,
    NonConvergence,
    NonFinite,
    OuterStepRejected,
    ResidualEvaluationError,
)
from .grbc import adapter_is_opaque, evaluate
from .netmodel import AdmittanceMatrix, Phasor, build_admittance
from .powerflow import boundary_injections, solve_main

log = logging.getLogger(__name__)

VOLTAGE_FLOOR = 0.2  # pu; probe points and outer steps below this are out-of-basin
OUTER_HALVINGS = 6   # halvings of a rejected outer step before giving up


@dataclass
class BoundaryState:
    """Coordination vector, both-side injections and residual at one x."""

    bus_ids: tuple[str, ...]
    x: np.ndarray          # (V_1..V_n, theta_1..theta_n)
    p: np.ndarray          # main-side injection into each torn node
    q: np.ndarray
    p_tilde: np.ndarray    # region-side injection into each torn node
    q_tilde: np.ndarray
    phi: np.ndarray        # (p + p_tilde, q + q_tilde)
    main_solution: object = None  # PowerFlowSolution of the torn main system

    def voltage(self, i: int) -> Phasor:
        n = len(self.bus_ids)
        return Phasor(float(self.x[i]), float(self.x[n + i]))

    def to_dict(self) -> dict:
        n = len(self.bus_ids)
        return {
            bid: {
                "v_pu": float(self.x[i]),
                "theta_rad": float(self.x[n + i]),
                "p_main": float(self.p[i]),
                "p_grbc": float(self.p_tilde[i]),
                "q_main": float(self.q[i]),
                "q_grbc": float(self.q_tilde[i]),
            }
            for i, bid in enumerate(self.bus_ids)
        }


@dataclass
class Preconditioner:
    m_matrix: np.ndarray

    @classmethod
    def identity(cls, n: int) -> "Preconditioner":
        return cls(np.eye(n))


@dataclass
class JfngConfig:
    eps1: float = 1e-6        # outer residual tolerance on ||phi||_2
    eps2: float = 1e-3        # inner relative tolerance, eps_g = eps2*||r0||
    m_restart: int = 20
    omega: float = 1e-6       # base finite-difference scalar
    max_outer: int = 40
    eps_den: float = 1e-12    # rank-one update denominator guard

    def __post_init__(self):
        if self.eps1 <= 0 or self.eps2 <= 0 or self.omega <= 0:
            raise ValueError("eps1, eps2 and omega must be positive")
        if self.m_restart < 1:
            raise ValueError("m_restart must be >= 1")


@dataclass
class OuterRecord:
    outer_iter: int
    phi_norm: float
    inner_iters: int
    rho_history: list[float]
    restarted: bool
    wall_s: float


@dataclass
class IterationTrace:
    rows: list[OuterRecord] = field(default_factory=list)
    status: str = "running"

    @property
    def outer_iterations(self) -> int:
        return len(self.rows)

    def phi_norms(self) -> list[float]:
        return [r.phi_norm for r in self.rows]

    def to_csv(self, path) -> None:
        lines = ["outer_iter,inner_iters,phi_norm,rho_final"]
        for r in self.rows:
            rho = r.rho_history[-1] if r.rho_history else 0.0
            lines.append(f"{r.outer_iter},{r.inner_iters},{r.phi_norm:.17g},{rho:.17g}")
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")


def residual(case, grbcs, x: np.ndarray, pf_tol: float = 1e-10,
             ybus: AdmittanceMatrix | None = None) -> BoundaryState:
    """Evaluate both torn sides at the boundary voltages packed in x.

    The main-system solve and every region evaluation see the *same*
    voltages and run one after another in declaration order, so the
    assembled residual is deterministic.  `ybus` is the main system's
    admittance matrix, for callers that evaluate the residual many times.
    """
    n = len(grbcs)
    x = np.asarray(x, dtype=float)
    if x.size != 2 * n:
        raise ValueError(f"x has length {x.size}, expected {2 * n}")
    if np.any(x[:n] <= 0.0):
        raise InvalidVoltage("all boundary voltage magnitudes must be positive")

    bus_ids = tuple(g.boundary_bus for g in grbcs)
    volts = {bid: Phasor(float(x[i]), float(x[n + i])) for i, bid in enumerate(bus_ids)}

    try:
        sol = solve_main(case, volts, tol=pf_tol, max_iter=40, ybus=ybus)
    except NonConvergence as exc:
        raise ResidualEvaluationError("main-system", exc) from exc
    evals = []
    for g in grbcs:
        try:
            evals.append(evaluate(g, volts[g.boundary_bus]))
        except (InternalNonConvergence, InvalidVoltage) as exc:
            raise ResidualEvaluationError(f"region '{g.name}'", exc) from exc

    inj = boundary_injections(sol, case)
    p = np.array([inj[b][0] for b in bus_ids])
    q = np.array([inj[b][1] for b in bus_ids])
    pt = np.array([e.p_tilde for e in evals])
    qt = np.array([e.q_tilde for e in evals])
    phi = np.concatenate([p + pt, q + qt])
    return BoundaryState(bus_ids, x.copy(), p, q, pt, qt, phi, main_solution=sol)


def directional_difference(probe_base: np.ndarray, x: np.ndarray, z: np.ndarray,
                           omega: float, residual_fn) -> np.ndarray:
    """Matrix-free approximation of phi'(x) @ z by a forward difference.

    Exactly one extra residual evaluation per call; a probe point that
    drops any voltage magnitude below the basin floor or breaks the power
    flow raises NonFinite so the caller can retry with a smaller omega.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise NonFinite("probe direction contains non-finite entries")
    if not np.any(z):
        return np.zeros_like(probe_base)
    xp = x + omega * z
    n = xp.size // 2
    if np.any(xp[:n] < VOLTAGE_FLOOR):
        raise NonFinite("probe point leaves the voltage basin")
    try:
        phi_p = residual_fn(xp)
    except (ResidualEvaluationError, NonConvergence, InternalNonConvergence) as exc:
        raise NonFinite(f"probe point broke the residual: {exc}") from exc
    if not np.all(np.isfinite(phi_p)):
        raise NonFinite("residual non-finite at probe point")
    return (phi_p - probe_base) / omega


def _make_probe(x: np.ndarray, phi_x: np.ndarray, residual_fn, omega_base: float):
    """Directional-difference closure with step scaling and retry-on-halving."""
    xnorm = float(np.linalg.norm(x))

    def probe(z: np.ndarray) -> np.ndarray:
        znorm = float(np.linalg.norm(z))
        if znorm == 0.0:
            return np.zeros_like(phi_x)
        omega = omega_base * max(1.0, xnorm) / max(1e-12, znorm)
        last: Exception | None = None
        for _ in range(6):  # initial try plus up to 5 halvings
            try:
                return directional_difference(phi_x, x, z, omega, residual_fn)
            except NonFinite as exc:
                last = exc
                omega *= 0.5
        raise NonFinite(f"probe failed after 5 omega halvings: {last}")

    return probe


def _rank_one_update(mat: np.ndarray, dx: np.ndarray, dphi: np.ndarray,
                     eps_den: float) -> tuple[np.ndarray, bool]:
    """M <- M + (dx - M dphi)(dx)^T M / ((dx)^T M dphi), guarded."""
    m_dphi = mat @ dphi
    den = float(dx @ m_dphi)
    scale = float(np.linalg.norm(dx) * np.linalg.norm(dphi))
    if abs(den) < eps_den * max(scale, 1e-300):
        return mat, False
    num = np.outer(dx - m_dphi, dx @ mat)
    return mat + num / den, True


def precond_update(M: Preconditioner, dx: np.ndarray, dphi: np.ndarray,
                   eps_den: float = 1e-12) -> Preconditioner:
    """Rank-one secant correction of the preconditioner.

    After an accepted update M @ dphi == dx holds to rounding; degenerate
    denominators skip the update and keep M unchanged.
    """
    mat, applied = _rank_one_update(M.m_matrix, np.asarray(dx, float),
                                    np.asarray(dphi, float), eps_den)
    if not applied:
        log.debug("preconditioner update skipped: degenerate denominator")
        return M
    return Preconditioner(mat)


@dataclass
class GmresResult:
    converged: bool
    iterations: int
    rho_history: list[float]
    restarted: bool


def gmres_m(phi_at_x: np.ndarray, probe, M: Preconditioner,
            cfg: JfngConfig) -> tuple[np.ndarray, Preconditioner, GmresResult]:
    """Restarted, right-preconditioned GMRES on phi'(x) dx = -phi(x).

    Krylov vectors come only from the matrix-free probe; after every probe
    the preconditioner receives a rank-one secant correction from the
    (direction, response) pair, so later iterations see a progressively
    better-conditioned operator.  Because the preconditioner may change
    between iterations, the correction is assembled from the stored
    preconditioned directions, which keeps the least-squares residual rho
    equal to the true linear residual norm.

    Exits when rho <= eps_g = eps2*||r0||; at l == m the best available
    correction is returned with the restart flag set.
    """
    r0 = -np.asarray(phi_at_x, dtype=float)
    beta = float(np.linalg.norm(r0))
    if beta == 0.0:
        raise ValueError("gmres_m requires a nonzero residual")
    eps_g = cfg.eps2 * beta
    nn = r0.size
    m = cfg.m_restart
    mat = M.m_matrix

    basis = np.zeros((nn, m + 1))
    basis[:, 0] = r0 / beta
    zdirs = np.zeros((nn, m))     # preconditioned directions z_l = M v_l
    hess = np.zeros((m + 1, m))   # rotated in place into the R factor
    cs = np.zeros(m)
    sn = np.zeros(m)
    g = np.zeros(m + 1)
    g[0] = beta
    rho_hist: list[float] = []

    def correction(l: int) -> np.ndarray:
        r_tri = hess[: l + 1, : l + 1]
        y = np.linalg.solve(r_tri, g[: l + 1])
        return zdirs[:, : l + 1] @ y

    for l in range(m):
        z = mat @ basis[:, l]
        zdirs[:, l] = z
        w = probe(z)
        mat, _ = _rank_one_update(mat, z, w, cfg.eps_den)

        # Arnoldi, modified Gram-Schmidt with one conditional re-pass.
        h = np.zeros(l + 2)
        w_scale = float(np.linalg.norm(w))
        for i in range(l + 1):
            h[i] = float(basis[:, i] @ w)
            w = w - h[i] * basis[:, i]
        drift = np.abs(basis[:, : l + 1].T @ w)
        if drift.size and float(drift.max()) > 1e-8 * max(w_scale, 1e-300):
            for i in range(l + 1):
                c = float(basis[:, i] @ w)
                h[i] += c
                w = w - c * basis[:, i]
        h[l + 1] = float(np.linalg.norm(w))
        happy = h[l + 1] < 1e-14
        if not happy:
            basis[:, l + 1] = w / h[l + 1]

        col = h.copy()
        for i in range(l):
            t = cs[i] * col[i] + sn[i] * col[i + 1]
            col[i + 1] = -sn[i] * col[i] + cs[i] * col[i + 1]
            col[i] = t
        den = math.hypot(col[l], col[l + 1])
        if den < 1e-300:
            raise InnerBreakdown(f"Krylov breakdown with singular column at l={l + 1}")
        cs[l], sn[l] = col[l] / den, col[l + 1] / den
        col[l], col[l + 1] = den, 0.0
        hess[: l + 2, l] = col
        g[l + 1] = -sn[l] * g[l]
        g[l] = cs[l] * g[l]
        rho = abs(g[l + 1])
        rho_hist.append(rho)

        if rho <= eps_g:
            return correction(l), Preconditioner(mat), GmresResult(True, l + 1, rho_hist, False)
        if happy:
            raise InnerBreakdown(
                f"Krylov vector vanished at l={l + 1} with rho={rho:.3e} > {eps_g:.3e}"
            )

    return correction(m - 1), Preconditioner(mat), GmresResult(False, m, rho_hist, True)


def jfng_solve(case, grbcs, x0, cfg: JfngConfig | None = None,
               pf_tol: float = 1e-10) -> tuple[BoundaryState, IterationTrace]:
    """Newton outer loop over the boundary coordination residual.

    Each outer step: evaluate phi, test ||phi||_2 against eps1, solve the
    correction with gmres_m, advance x, then give the preconditioner an
    outer secant update from the realized (dx, dphi) pair.  A restarted
    (non-converged) inner solve is still applied, damped by halving up to
    four times while it increases ||phi||.  A step below VOLTAGE_FLOOR or
    one that breaks the residual is halved up to OUTER_HALVINGS times, then
    rejected.  Every CoordinationError raised here carries the trace.
    """
    cfg = cfg or JfngConfig()
    x = np.asarray(x0, dtype=float).copy()
    n = x.size // 2
    M = Preconditioner.identity(x.size)
    trace = IterationTrace()
    ybus = build_admittance(case)

    def evaluate_at(xv: np.ndarray) -> BoundaryState:
        return residual(case, grbcs, xv, pf_tol=pf_tol, ybus=ybus)

    def guarded(xv: np.ndarray) -> tuple[BoundaryState | None, str]:
        """The state at xv, or None and why xv is rejected."""
        if np.any(xv[:n] < VOLTAGE_FLOOR):
            return None, f"boundary voltage below {VOLTAGE_FLOOR} pu"
        try:
            return evaluate_at(xv), ""
        except ResidualEvaluationError as exc:
            return None, str(exc)

    opaque = sum(1 for g in grbcs if adapter_is_opaque(g))
    log.debug("boundary coordination over %d regions (%d opaque)", len(grbcs), opaque)

    try:
        state = evaluate_at(x)
        for k in range(cfg.max_outer + 1):
            t0 = time.perf_counter()
            phi_norm = float(np.linalg.norm(state.phi))
            if phi_norm <= cfg.eps1:
                trace.rows.append(OuterRecord(k, phi_norm, 0, [], False,
                                              time.perf_counter() - t0))
                trace.status = "converged"
                return state, trace
            if k == cfg.max_outer:
                trace.status = "max_outer_exceeded"
                raise MaxOuterExceeded(phi_norm, trace)

            probe = _make_probe(x, state.phi, lambda xv: evaluate_at(xv).phi, cfg.omega)
            dx, M, info = gmres_m(state.phi, probe, M, cfg)

            step = dx
            for halvings in range(OUTER_HALVINGS + 1):
                x_new = x + step
                state_new, reason = guarded(x_new)
                if state_new is not None and (
                        info.converged or halvings >= 4
                        or float(np.linalg.norm(state_new.phi)) < phi_norm):
                    break
                step = 0.5 * step
            else:
                trace.status = "step_rejected"
                raise OuterStepRejected(OUTER_HALVINGS, reason)

            M = precond_update(M, x_new - x, state_new.phi - state.phi, cfg.eps_den)
            trace.rows.append(OuterRecord(k, phi_norm, info.iterations, info.rho_history,
                                          info.restarted, time.perf_counter() - t0))
            x, state = x_new, state_new
    except CoordinationError as exc:
        exc.trace = trace
        raise

    raise AssertionError("unreachable")
