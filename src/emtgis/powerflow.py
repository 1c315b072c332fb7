"""Newton-Raphson AC power flow on the polar mismatch equations.

The torn main system is solved with its boundary buses held at
coordinator-supplied phasors (slack-like), and the whole un-torn network
can be solved monolithically as an independent reference.  Every solve
takes a PowerFlowProblem, which holds what a solve needs of its case
alone: the caller builds it once and passes it to every solve of that
case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import NonConvergence, SingularJacobian
from .netmodel import (
    BusKind,
    CaseFile,
    Phasor,
    build_admittance,
    inline_grbcs,
)


@dataclass
class PowerFlowSolution:
    bus_ids: tuple[str, ...]
    vm: np.ndarray  # per-unit magnitudes
    va: np.ndarray  # radians
    p_calc: np.ndarray  # network injection per bus (generator convention)
    q_calc: np.ndarray
    iterations: int
    converged: bool
    max_mismatch: float
    mismatch_history: list[float] = field(default_factory=list)

    def index(self, bus_id: str) -> int:
        return self.bus_ids.index(bus_id)

    def voltage(self, bus_id: str) -> Phasor:
        i = self.index(bus_id)
        return Phasor(float(self.vm[i]), float(self.va[i]))

    def injection(self, bus_id: str) -> tuple[float, float]:
        """Net complex power injected into the network at the bus."""
        i = self.index(bus_id)
        return float(self.p_calc[i]), float(self.q_calc[i])

    def to_csv(self, path: str | Path) -> None:
        lines = ["bus_id,v_pu,theta_deg,p_pu,q_pu"]
        for i, bid in enumerate(self.bus_ids):
            lines.append(
                f"{bid},{self.vm[i]:.12g},{np.degrees(self.va[i]):.12g},"
                f"{self.p_calc[i]:.12g},{self.q_calc[i]:.12g}"
            )
        Path(path).write_text("\n".join(lines) + "\n")


class PowerFlowProblem:
    """What a power flow of `case` needs that depends on the case alone,
    built once: the bus ids, the admittance matrix, the Newton index sets
    and gather indices, the scheduled injections, the boundary rows and
    the DC-angle start.  `solve_main` reads it and never writes it, so one
    problem serves every solve of its case; the case must not change
    after it.

    The start is a DC power flow (Stott, Jardim and Alsac, "DC power flow
    revisited", 2009): with B = -Im(Y), the PV and PQ angles u solve
    B_uu theta_u = P_u - B_ub theta_b, P the scheduled real injections,
    the slack angles 0 and the boundary angles b as a solve supplies them.
    So theta_u = theta_0 + dc_gain @ theta_b: `start` holds theta_0, the
    angles at zero boundary angles.  Where B_uu is singular both are
    zero, the flat start.
    """

    def __init__(self, case: CaseFile):
        self.case = case
        self.bus_ids = tuple(b.id for b in case.buses)
        self.ybus = build_admittance(case)
        n = len(case.buses)
        kinds = [b.kind for b in case.buses]
        pq = np.array([i for i, k in enumerate(kinds) if k is BusKind.PQ], dtype=int)
        pv = np.array([i for i, k in enumerate(kinds) if k is BusKind.PV], dtype=int)
        # Newton solves for theta over pvpq and |V| over pq, the polar
        # state [theta; |V|] at `unknowns`.
        self.pvpq = pvpq = np.concatenate([pv, pq])
        self.unknowns = np.concatenate([pvpq, n + pq])
        # Scheduled complex injection per bus: machine set points less loads.
        self.s_sched = np.array([complex(-b.p_load, -b.q_load) for b in case.buses])
        index = {bid: i for i, bid in enumerate(self.bus_ids)}
        for m in case.machines:
            if m.bus in index:
                self.s_sched[index[m.bus]] += m.p_set
        self.boundary = tuple((i, b.id) for i, b in enumerate(case.buses)
                              if b.kind is BusKind.BOUNDARY)
        # Start: theta_0, |V| 1, held magnitudes at their set points;
        # solve_main writes the boundary voltages into a copy, then adds
        # dc_gain @ theta_b to the PV and PQ angles.
        self.start = np.concatenate([np.zeros(n), np.ones(n)])
        for i, b in enumerate(case.buses):
            if b.kind in (BusKind.SLACK, BusKind.PV):
                self.start[n + i] = b.v_set
        self.boundary_idx = np.array([i for i, _ in self.boundary], dtype=int)
        bmat = -self.ybus.imag
        try:
            dc = np.linalg.solve(bmat[np.ix_(pvpq, pvpq)], np.column_stack(
                [self.s_sched.real[pvpq], -bmat[np.ix_(pvpq, self.boundary_idx)]]))
        except np.linalg.LinAlgError:
            dc = np.zeros((pvpq.size, 1 + self.boundary_idx.size))
        self.start[pvpq] = dc[:, 0]
        self.dc_gain = dc[:, 1:]
        # Gathers from float views (a complex entry is real, imag): P rows
        # are real parts over pvpq, Q rows imaginary parts over pq, of
        # S_sched - S and of ds_dx = [dS/dtheta | dS/d|V|] at the unknowns'
        # columns.
        self.mis_idx = np.concatenate([2 * pvpq, 2 * pq + 1])
        self.jac_rows = np.concatenate([4 * n * pvpq, 4 * n * pq + 1])
        self.jac_idx = self.jac_rows[:, None] + 2 * self.unknowns
        for arr in (self.ybus, self.unknowns, self.s_sched, self.start,
                    self.pvpq, self.boundary_idx, self.dc_gain,
                    self.mis_idx, self.jac_rows, self.jac_idx):
            arr.flags.writeable = False


def _fill_ds_dx(out: np.ndarray, ymat: np.ndarray, vm: np.ndarray, vhat: np.ndarray,
                v: np.ndarray, ibus: np.ndarray, s: np.ndarray) -> np.ndarray:
    """[dS/dtheta | dS/d|V|] into the contiguous n x 2n complex buffer `out`
    (MATPOWER's dSbus_dV, by broadcasting), at V = vm * vhat with the
    I = Y V and S = V conj(I) the caller already formed:
    dS/dtheta = j diag(V) conj(diag(I) - Y diag(V)),
    dS/d|V| = diag(V) conj(Y diag(Vhat)) + conj(diag(I)) diag(Vhat).
    """
    n = vm.size
    ds_dva, ds_dvm = out[:, :n], out[:, n:]
    np.multiply(ymat, vhat, out=ds_dvm)
    np.conjugate(ds_dvm, out=ds_dvm)
    ds_dvm *= v[:, None]
    np.multiply(ds_dvm, -1j * vm, out=ds_dva)
    # Strided views of both block diagonals.
    flat = out.reshape(-1)
    flat[::2 * n + 1] += 1j * s
    flat[n::2 * n + 1] += np.conj(ibus) * vhat
    return out


# The main system's solve inside the coordinator's residual, and of a case
# without regions: mismatch tolerance and Newton iteration cap.
MAIN_PF_TOL = 1e-10
MAIN_PF_MAX_ITER = 40
# What `solve_main` raises when it finds no solution.
SOLVE_FAILURES = (NonConvergence, SingularJacobian)


def solve_main(problem: PowerFlowProblem, vm_b=(), va_b=(), tol: float = 1e-8,
               max_iter: int = 30) -> PowerFlowSolution:
    """Solve the case of `problem` with its Boundary buses held at the
    magnitudes `vm_b` and angles `va_b`, in `problem.boundary` order (both
    empty without Boundary buses).  The angles are taken as given, not
    wrapped: the DC-angle start adds dc_gain @ va_b.

    Slack and Boundary buses keep their phasors exactly; PV buses hold
    magnitude; full-Jacobian polar NR over the remaining unknowns, always
    from the problem's DC-angle start at the supplied boundary angles
    (flat angles where B_uu is singular; see `PowerFlowProblem`) and
    |V| 1 or the set point, so a solve is a pure function of its inputs
    (the coordinator's directional differences rely on that).  The
    problem is only read, so one serves every solve of its case.
    An iteration is O(n^2): dS/dV by `_fill_ds_dx` from the I = Y V the
    mismatch used, and one index gather for the Jacobian.  A non-finite
    mismatch raises NonConvergence.
    """
    y, ids, bnd = problem.ybus, problem.bus_ids, problem.boundary_idx
    n = len(ids)
    if len(vm_b) != bnd.size or len(va_b) != bnd.size:
        raise ValueError(f"boundary buses {[bid for _, bid in problem.boundary]} need "
                         f"{bnd.size} magnitudes and angles, got {len(vm_b)} and {len(va_b)}")
    x = problem.start.copy()
    va, vm = x[:n], x[n:]
    vm[bnd], va[bnd] = vm_b, va_b
    va[problem.pvpq] += problem.dc_gain @ va[bnd]

    unknowns, s_sched = problem.unknowns, problem.s_sched
    mis_idx, jac_idx = problem.mis_idx, problem.jac_idx
    ds_dx = np.empty((n, 2 * n), dtype=complex)

    history: list[float] = []
    converged = False
    iterations = 0
    for it in range(max_iter + 1):
        vhat = np.exp(1j * va)
        v = vm * vhat
        ibus = y @ v
        s = v * np.conj(ibus)
        mismatch = (s_sched - s).view(float).take(mis_idx)
        max_mis = float(abs(mismatch).max(initial=0.0))
        if not math.isfinite(max_mis):
            raise NonConvergence(it, float("inf"))
        history.append(max_mis)
        if max_mis <= tol:
            converged = True
            iterations = it
            break
        if it == max_iter:
            break
        _fill_ds_dx(ds_dx, y, vm, vhat, v, ibus, s)
        jac = ds_dx.view(float).take(jac_idx)
        try:
            x[unknowns] += np.linalg.solve(jac, mismatch)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(it) from exc

    if not converged:
        raise NonConvergence(max_iter, history[-1])
    return PowerFlowSolution(
        bus_ids=ids,
        vm=vm,
        va=va,
        p_calc=s.real.copy(),
        q_calc=s.imag.copy(),
        iterations=iterations,
        converged=True,
        max_mismatch=history[-1],
        mismatch_history=history,
    )


def boundary_injections(sol: PowerFlowSolution, case: CaseFile) -> dict[str, tuple[float, float]]:
    """Power the main system pushes into each torn boundary node.

    Positive means flowing into the boundary node; the boundary bus's own
    load belongs to the main side and is netted off here.
    """
    return {b.id: (-float(sol.p_calc[i]) - b.p_load, -float(sol.q_calc[i]) - b.q_load)
            for i, b in enumerate(case.buses) if b.kind is BusKind.BOUNDARY}


def boundary_sensitivity(problem: PowerFlowProblem, sol: PowerFlowSolution,
                         bus_ids) -> np.ndarray:
    """d(p, q)/d(|V|, theta) of `boundary_injections` at `sol`, the
    converged solution of `problem`: a 2n x 2n matrix over the boundary
    buses `bus_ids`, rows all p then all q, columns all |V| then all
    theta, each in `bus_ids` order (the coordinator's order).

    While the boundary phasors b move, the mismatch rows [P over pvpq;
    Q over pq] of `solve_main` stay zero, so its unknowns
    u = [theta over pvpq; |V| over pq] follow du = -A_uu^-1 A_ub db, where
    A is the real polar Jacobian d(P, Q)/d(theta, |V|).  The boundary rows
    then move by the Schur complement A_bb - A_bu A_uu^-1 A_ub, negated
    because `boundary_injections` is the power into the torn node.
    A singular A_uu raises numpy's LinAlgError.
    """
    y = problem.ybus
    n = len(problem.bus_ids)
    bnd = np.array([problem.bus_ids.index(b) for b in bus_ids], dtype=int)
    vhat = np.exp(1j * sol.va)
    v = sol.vm * vhat
    ibus = y @ v
    ds_dx = _fill_ds_dx(np.empty((n, 2 * n), dtype=complex), y, sol.vm, vhat,
                        v, ibus, v * np.conj(ibus)).view(float)

    # Float-view gathers as in solve_main: P rows are real parts, Q rows
    # imaginary parts; theta columns come first in ds_dx, |V| columns second.
    rows_u, cols_u = problem.jac_rows, 2 * problem.unknowns
    rows_b = np.concatenate([4 * n * bnd, 4 * n * bnd + 1])
    cols_b = 2 * np.concatenate([n + bnd, bnd])

    def block(rows, cols):
        return ds_dx.take(rows[:, None] + cols)

    schur = block(rows_b, cols_b) - block(rows_b, cols_u) @ np.linalg.solve(
        block(rows_u, cols_u), block(rows_u, cols_b))
    return -schur


def solve_monolithic(case: CaseFile, tol: float = 1e-10, max_iter: int = 40) -> PowerFlowSolution:
    """NR over the whole un-decomposed network (white-box regions inlined).

    Serves as the independent reference the torn coordination must match.
    Raises OracleUnavailable if any region is opaque.
    """
    return solve_main(PowerFlowProblem(inline_grbcs(case)), tol=tol, max_iter=max_iter)
