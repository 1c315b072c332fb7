"""Boundary coordination solver.

Forms the boundary coordination residual phi(x) = (p + p_tilde, q + q_tilde)
over x = (V_1..V_n, theta_1..theta_n) and drives it to zero with a
Jacobian-free Newton method: the linear correction at each outer step is
solved by restarted GMRES whose operator action comes from directional
differences of the residual, preconditioned by a dense matrix that
accumulates rank-one secant updates as the iteration proceeds.

The preconditioner starts as the inverse of an approximation of phi'(x0)
built from the main system's physics and the regions' `evaluate`: the
main side's analytic boundary sensitivity (powerflow.boundary_sensitivity)
plus one 2x2 forward-difference block per region, two `evaluate` calls
each.  If a region fails at its offset point, or the approximation or its
inverse is singular or not finite, it starts as the identity instead.
The GMRES operator itself still comes only from residual probes.

A residual evaluation solves the torn main system, then each region in
declaration order.  Outer steps, like probes, stay inside the voltage basin.

Where the main system solves by Newton, the iteration starts one-sided
(`one_sided_start`): from one power flow of the main system with each
region held at its injection at 1 pu, angle 0, one block Gauss-Seidel
sweep of the torn system from the flat start.

The black-box region surface used here is exactly {evaluate,
adapter_is_opaque}; nothing in this module inspects region internals.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import (
    CoordinationError,
    InnerBreakdown,
    InternalNonConvergence,
    InvalidVoltage,
    MaxOuterExceeded,
    NonFinite,
    OuterStepRejected,
    ResidualEvaluationError,
)
from .grbc import adapter_is_opaque, evaluate
from .netmodel import BusKind, Phasor
from .powerflow import (
    MAIN_PF_MAX_ITER,
    MAIN_PF_TOL,
    SOLVE_FAILURES,
    PowerFlowProblem,
    PowerFlowSolution,
    boundary_sensitivity,
    solve_main,
)

log = logging.getLogger(__name__)

VOLTAGE_FLOOR = 0.2  # pu; probe points and outer steps below this are out-of-basin
EPS_DEN = 1e-12      # rank-one update denominator guard, relative to |dx||dphi|
OUTER_HALVINGS = 6   # halvings of a rejected outer step before giving up


def _norm(v: np.ndarray) -> float:
    """||v||_2 as np.linalg.norm gives it, inf where that overflows, without
    numpy's warning."""
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(v))


class BoundaryState(NamedTuple):
    """Coordination vector, both-side injections and residual at one x,
    with the torn main system's solution and each region's evaluation
    (declaration order) they come from."""

    bus_ids: tuple[str, ...]
    x: np.ndarray          # (V_1..V_n, theta_1..theta_n)
    p: np.ndarray          # main-side injection into each torn node
    q: np.ndarray
    p_tilde: np.ndarray    # region-side injection into each torn node
    q_tilde: np.ndarray
    phi: np.ndarray        # (p + p_tilde, q + q_tilde)
    main_solution: PowerFlowSolution
    evaluations: list      # what `evaluate` returned, per region

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
class JfngConfig:
    eps1: float = 1e-6        # outer residual tolerance on ||phi||_2
    eps2: float = 1e-3        # inner relative tolerance, eps_g = eps2*||r0||
    m_restart: int = 20
    omega: float = 1e-6       # base finite-difference scalar
    max_outer: int = 40

    def __post_init__(self):
        for name in ("eps1", "eps2", "omega"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if self.m_restart < 1:
            raise ValueError("m_restart must be >= 1")
        if self.max_outer < 0:
            raise ValueError(f"max_outer must be >= 0, got {self.max_outer}")


class OuterRecord(NamedTuple):
    outer_iter: int
    phi_norm: float
    inner_iters: int
    rho_history: list[float]
    restarted: bool


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


class BoundaryLayout(NamedTuple):
    """Where `residual` reads and writes the boundary buses, the same at
    every x: the coordinator's bus ids (the regions' boundary buses in
    declaration order), the position in x of each of the main problem's
    boundary buses in its order, and each coordinator bus's row in the
    main problem and its own load, which `boundary_injections` nets off."""

    bus_ids: tuple[str, ...]
    order: np.ndarray
    rows: np.ndarray
    p_load: np.ndarray
    q_load: np.ndarray

    @classmethod
    def build(cls, problem: PowerFlowProblem, grbcs) -> BoundaryLayout:
        bus_ids = tuple(g.boundary_bus for g in grbcs)
        pos = {bid: i for i, bid in enumerate(bus_ids)}
        buses = [problem.case.buses[problem.positions[bid]] for bid in bus_ids]
        return cls(bus_ids,
                   np.array([pos[bid] for _, bid in problem.boundary if bid in pos], dtype=int),
                   np.array([problem.positions[bid] for bid in bus_ids], dtype=int),
                   np.array([b.p_load for b in buses]), np.array([b.q_load for b in buses]))


def residual(problem: PowerFlowProblem, grbcs, x: np.ndarray,
             layout: BoundaryLayout) -> BoundaryState:
    """Evaluate both torn sides at the boundary voltages packed in x.

    `problem` is the torn main system's PowerFlowProblem, decoupled as
    `jfng_solve` builds it, solved by `solve_main` to MAIN_PF_TOL at x's
    angles as they are: fast-decoupled from DECOUPLED_MIN_BUSES buses on,
    by Newton below.  Each white-box region solves the problem its
    declaration holds by `solve_main`'s Newton, at `evaluate`'s wrapped
    angle: on Python scalars where the region has at most
    SCALAR_MAX_UNKNOWNS unknowns, as every bundled one does.
    `layout` is `BoundaryLayout.build(problem, grbcs)`, which `jfng_solve`
    builds once for all its calls.
    Both sides see the *same* voltages and run one after another in
    declaration order, so the assembled residual is deterministic.
    """
    n = len(grbcs)
    x = np.asarray(x, dtype=float)
    if x.size != 2 * n:
        raise ValueError(f"x has length {x.size}, expected {2 * n}")
    if np.any(x[:n] <= 0.0):
        raise InvalidVoltage("all boundary voltage magnitudes must be positive")

    bus_ids, order, rows, p_load, q_load = layout
    try:
        sol = solve_main(problem, x[order], x[n + order], MAIN_PF_TOL, MAIN_PF_MAX_ITER)
    except SOLVE_FAILURES as exc:
        raise ResidualEvaluationError("main-system", exc) from exc
    evals = []
    for i, g in enumerate(grbcs):
        try:
            evals.append(evaluate(g, Phasor(float(x[i]), float(x[n + i]))))
        except (InternalNonConvergence, InvalidVoltage) as exc:
            raise ResidualEvaluationError(f"region '{g.name}'", exc) from exc

    # As `boundary_injections` nets them: the power into each torn node.
    p = -np.asarray(sol.p_calc)[rows] - p_load
    q = -np.asarray(sol.q_calc)[rows] - q_load
    pt = np.array([e.p_tilde for e in evals])
    qt = np.array([e.q_tilde for e in evals])
    phi = np.concatenate([p + pt, q + qt])
    return BoundaryState(bus_ids, x.copy(), p, q, pt, qt, phi, sol, evals)


def directional_difference(probe_base: np.ndarray, x: np.ndarray, z: np.ndarray,
                           omega: float, residual_fn) -> np.ndarray:
    """Matrix-free approximation of phi'(x) @ z by a forward difference.

    Exactly one extra residual evaluation per call; a probe point that
    drops any voltage magnitude below the basin floor or breaks the power
    flow raises NonFinite so the caller can retry with a smaller omega, as
    does an omega that is 0 or not finite (where |z| overflows).
    """
    if not 0.0 < omega < math.inf:
        raise NonFinite(f"probe step scale {omega!r} is not finite and positive")
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
    except ResidualEvaluationError as exc:
        raise NonFinite(f"probe point broke the residual: {exc}") from exc
    if not np.all(np.isfinite(phi_p)):
        raise NonFinite("residual non-finite at probe point")
    return (phi_p - probe_base) / omega


def _make_probe(x: np.ndarray, phi_x: np.ndarray, residual_fn, omega_base: float):
    """Directional-difference closure with step scaling and retry-on-halving."""
    xnorm = _norm(x)

    def probe(z: np.ndarray) -> np.ndarray:
        znorm = _norm(z)
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


def precond_update(mat: np.ndarray, dx: np.ndarray, dphi: np.ndarray) -> np.ndarray:
    """Rank-one secant correction of the preconditioner matrix,
    M <- M + (dx - M dphi)(dx)^T M / ((dx)^T M dphi).

    After an accepted update M @ dphi == dx holds to rounding; a
    denominator below EPS_DEN relative to |dx||dphi| skips the update and
    returns `mat` itself.
    """
    dx, dphi = np.asarray(dx, float), np.asarray(dphi, float)
    m_dphi = mat @ dphi
    den = float(dx @ m_dphi)
    scale = _norm(dx) * _norm(dphi)
    if abs(den) < EPS_DEN * max(scale, 1e-300):
        log.debug("preconditioner update skipped: degenerate denominator")
        return mat
    return mat + np.outer(dx - m_dphi, dx @ mat) / den


def _initial_preconditioner(problem: PowerFlowProblem, grbcs, state: BoundaryState,
                            omega: float) -> np.ndarray:
    """M0 = (S_main + R)^-1, the inverse of an approximation of phi'(x) at
    `state`.

    S_main is d(p, q)/d(x) of the main side, whose problem is `problem`,
    at the state's main solution, solved at x's angles as they are.
    R is block-diagonal: region i's 2x2 block d(p_tilde_i, q_tilde_i) /
    d(V_i, theta_i) is two forward differences of `evaluate`, at
    (V_i + omega, theta_i) and (V_i, theta_i + omega) offset on x, against
    the state's own p_tilde and q_tilde; `evaluate` sees theta_i + omega
    wrapped, which is harmless (see there).  If a region raises at its
    offset point, or S_main + R or its inverse is singular or not finite,
    M0 is the identity, and a debug line says why.
    """
    n = len(grbcs)
    x = state.x
    try:
        approx = boundary_sensitivity(problem, state.main_solution, state.bus_ids)
        for i, g in enumerate(grbcs):
            for col, point in ((i, Phasor(x[i] + omega, x[n + i])),
                               (n + i, Phasor(x[i], x[n + i] + omega))):
                e = evaluate(g, point)
                approx[i, col] += (e.p_tilde - state.p_tilde[i]) / omega
                approx[n + i, col] += (e.q_tilde - state.q_tilde[i]) / omega
        if np.isfinite(approx).all() and np.isfinite(inverse := np.linalg.inv(approx)).all():
            return inverse
        reason = "S_main + R or its inverse is not finite"
    except (InternalNonConvergence, InvalidVoltage, np.linalg.LinAlgError) as exc:
        reason = str(exc)
    log.debug("initial preconditioner falls back to the identity: %s", reason)
    return np.eye(2 * n)


class GmresResult(NamedTuple):
    converged: bool
    iterations: int
    rho_history: list[float]
    restarted: bool


def gmres_m(phi_at_x: np.ndarray, probe, mat: np.ndarray,
            cfg: JfngConfig) -> tuple[np.ndarray, np.ndarray, GmresResult]:
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
    beta = _norm(r0)
    if beta == 0.0:
        raise ValueError("gmres_m requires a nonzero residual")
    eps_g = cfg.eps2 * beta
    nn = r0.size
    m = cfg.m_restart

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
        mat = precond_update(mat, z, w)

        # Arnoldi, modified Gram-Schmidt with one conditional re-pass.
        h = np.zeros(l + 2)
        if not math.isfinite(w_scale := _norm(w)):
            raise NonFinite("the probe response's norm overflows")
        for i in range(l + 1):
            h[i] = float(basis[:, i] @ w)
            w = w - h[i] * basis[:, i]
        drift = np.abs(basis[:, : l + 1].T @ w)
        if drift.size and float(drift.max()) > 1e-8 * max(w_scale, 1e-300):
            for i in range(l + 1):
                c = float(basis[:, i] @ w)
                h[i] += c
                w = w - c * basis[:, i]
        h[l + 1] = _norm(w)
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
            return correction(l), mat, GmresResult(True, l + 1, rho_hist, False)
        if happy:
            raise InnerBreakdown(
                f"Krylov vector vanished at l={l + 1} with rho={rho:.3e} > {eps_g:.3e}"
            )

    return correction(m - 1), mat, GmresResult(False, m, rho_hist, True)


def one_sided_start(case, grbcs) -> np.ndarray | None:
    """x from one `solve_main` of `case` with every Boundary bus a PQ bus
    loaded by minus the summed injections of its regions at 1 pu, angle 0:
    their magnitudes and their angles unwrapped, in `grbcs` order.  None
    where a region or that solve fails, or where a magnitude falls below
    VOLTAGE_FLOOR."""
    flat = Phasor(1.0, 0.0)
    loads = {b.id: [b.p_load, b.q_load] for b in case.buses if b.kind is BusKind.BOUNDARY}
    try:
        for g in grbcs:
            e = evaluate(g, flat)
            loads[g.boundary_bus][0] -= e.p_tilde
            loads[g.boundary_bus][1] -= e.q_tilde
        buses = [b._replace(kind=BusKind.PQ, v_set=None, p_load=loads[b.id][0],
                            q_load=loads[b.id][1]) if b.id in loads else b
                 for b in case.buses]
        one_sided = replace(case, buses=buses, grbcs=[], name=f"{case.name}+one-sided")
        sol = solve_main(PowerFlowProblem(one_sided), tol=MAIN_PF_TOL,
                         max_iter=MAIN_PF_MAX_ITER)
    except (InternalNonConvergence, InvalidVoltage, *SOLVE_FAILURES) as exc:
        log.debug("one-sided start falls back to the flat start: %s", exc)
        return None
    at = [sol.index(g.boundary_bus) for g in grbcs]
    x = np.concatenate([np.asarray(sol.vm, dtype=float)[at],
                        np.asarray(sol.va, dtype=float)[at]])
    return x if np.all(x[:len(grbcs)] >= VOLTAGE_FLOOR) else None


def jfng_solve(case, grbcs, x0=None, cfg: JfngConfig | None = None
               ) -> tuple[BoundaryState, IterationTrace]:
    """Newton outer loop over the boundary coordination residual.

    Each outer step: evaluate phi, test ||phi||_2 against eps1, solve the
    correction with gmres_m, advance x, then give the preconditioner an
    outer secant update from the realized (dx, dphi) pair.  The
    preconditioner starts, before the first correction, from
    `_initial_preconditioner` at x0 (the identity if that fails); nothing
    carries over from one call to the next.  A restarted
    (non-converged) inner solve is still applied, damped by halving up to
    four times while it increases ||phi||.  A step below VOLTAGE_FLOOR or
    one that breaks the residual is halved up to OUTER_HALVINGS times, then
    rejected.  A residual, probe direction or probe response whose norm
    overflows raises NonFinite.  Every CoordinationError raised here
    carries the trace.
    The main system's PowerFlowProblem and its `BoundaryLayout` are built
    once per call, and from DECOUPLED_MIN_BUSES main buses on its
    fast-decoupled matrices are inverted once; each white-box region's
    problem comes from its declaration.  Without x0 the iteration starts
    from `one_sided_start` where the case has regions and its main solves
    by Newton, and otherwise, or where that start is None, from the flat
    start: every boundary voltage 1 pu at angle 0.  A fast-decoupled main
    keeps the flat start: there the start's main, solved by Newton, costs
    more than the residuals it saves.
    """
    cfg = cfg or JfngConfig()
    problem = PowerFlowProblem(case, decoupled=True)
    layout = BoundaryLayout.build(problem, grbcs)
    if x0 is None and grbcs and not problem.decoupled:
        x0 = one_sided_start(case, grbcs)
    if x0 is None:
        x0 = np.concatenate([np.ones(len(grbcs)), np.zeros(len(grbcs))])
    x = np.asarray(x0, dtype=float).copy()
    n = x.size // 2
    M = None  # built before the first correction
    trace = IterationTrace()

    def evaluate_at(xv: np.ndarray) -> BoundaryState:
        return residual(problem, grbcs, xv, layout)

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
            if not math.isfinite(phi_norm := _norm(state.phi)):
                raise NonFinite("the residual's norm overflows")
            if phi_norm <= cfg.eps1:
                trace.rows.append(OuterRecord(k, phi_norm, 0, [], False))
                trace.status = "converged"
                return state, trace
            if k == cfg.max_outer:
                trace.status = "max_outer_exceeded"
                raise MaxOuterExceeded(phi_norm, trace)

            if M is None:
                M = _initial_preconditioner(problem, grbcs, state, cfg.omega)
            probe = _make_probe(x, state.phi, lambda xv: evaluate_at(xv).phi, cfg.omega)
            dx, M, info = gmres_m(state.phi, probe, M, cfg)

            step = dx
            for halvings in range(OUTER_HALVINGS + 1):
                x_new = x + step
                state_new, reason = guarded(x_new)
                if state_new is not None and (
                        info.converged or halvings >= 4
                        or _norm(state_new.phi) < phi_norm):
                    break
                step = 0.5 * step
            else:
                trace.status = "step_rejected"
                raise OuterStepRejected(OUTER_HALVINGS, reason)

            M = precond_update(M, x_new - x, state_new.phi - state.phi)
            trace.rows.append(OuterRecord(k, phi_norm, info.iterations, info.rho_history,
                                          info.restarted))
            x, state = x_new, state_new
    except CoordinationError as exc:
        exc.trace = trace
        raise

    raise AssertionError("unreachable")
