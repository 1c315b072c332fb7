"""AC power flow on the polar mismatch equations, Newton or fast-decoupled.

The torn main system is solved with its boundary buses held at
coordinator-supplied phasors (slack-like), and the whole un-torn network
can be solved monolithically as an independent reference.  Every solve
takes a PowerFlowProblem, which holds what a solve needs of its case
alone, and picks the method: the caller builds it once and passes it to
every solve of that case.  Newton runs on Python complex scalars where the
problem has at most SCALAR_MAX_UNKNOWNS unknowns (a white-box region's
internal power flow), on numpy arrays above that.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

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
    # {bus id: position}; a solve passes its problem's, built once.
    positions: dict[str, int] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.positions is None:
            self.positions = {bid: i for i, bid in enumerate(self.bus_ids)}

    def index(self, bus_id: str) -> int:
        return self.positions[bus_id]

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

    With `decoupled` (the coordinator's main problem), `b_inv` holds the
    inverses of B' = B_uu and B'' = B over the PQ buses, the fast-decoupled
    matrices of Stott and Alsac (IEEE Trans. PAS-93, 1974); otherwise, or
    where either is singular, it is None and `solve_main` runs Newton.

    `scalar` holds the same data as Python scalars and tuples where the
    problem has at most SCALAR_MAX_UNKNOWNS unknowns, so that its Newton
    runs on them (`_newton_scalar`); above that it is None.
    """

    def __init__(self, case: CaseFile, decoupled: bool = False):
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
        self.pq = pq
        self.unknowns = np.concatenate([pvpq, n + pq])
        # Scheduled complex injection per bus: machine set points less loads.
        self.s_sched = np.array([complex(-b.p_load, -b.q_load) for b in case.buses])
        self.positions = {bid: i for i, bid in enumerate(self.bus_ids)}
        for m in case.machines:
            if m.bus in self.positions:
                self.s_sched[self.positions[m.bus]] += m.p_set
        self.boundary = tuple((i, b.id) for i, b in enumerate(case.buses)
                              if b.kind is BusKind.BOUNDARY)
        # Start: theta_0, |V| 1, held magnitudes at their set points;
        # `_start` writes the boundary voltages into a copy, then adds
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
        try:
            self.b_inv = (np.linalg.inv(bmat[np.ix_(pvpq, pvpq)]),
                          np.linalg.inv(bmat[np.ix_(pq, pq)])) if decoupled else None
        except np.linalg.LinAlgError:
            self.b_inv = None
        # Gathers from float views (a complex entry is real, imag): P rows
        # are real parts over pvpq, Q rows imaginary parts over pq, of
        # S_sched - S and of ds_dx = [dS/dtheta | dS/d|V|] at the unknowns'
        # columns.
        self.mis_idx = np.concatenate([2 * pvpq, 2 * pq + 1])
        self.jac_rows = np.concatenate([4 * n * pvpq, 4 * n * pq + 1])
        self.jac_idx = self.jac_rows[:, None] + 2 * self.unknowns
        for arr in (self.ybus, self.unknowns, self.s_sched, self.start,
                    self.pvpq, self.pq, self.boundary_idx, self.dc_gain,
                    self.mis_idx, self.jac_rows, self.jac_idx, *(self.b_inv or ())):
            arr.flags.writeable = False
        self.scalar = (_ScalarProblem.of(self) if self.unknowns.size <= SCALAR_MAX_UNKNOWNS
                       else None)


class _ScalarProblem(NamedTuple):
    """A `PowerFlowProblem`'s data as Python scalars, for `_newton_scalar`:
    each bus's row of Y as (column, Y_ik) over its nonzeros, the scheduled
    injections, the start angles and magnitudes, the boundary positions,
    the PV+PQ and PQ buses, and the DC gains of each PV or PQ bus.

    The Jacobian's rows [P over pvpq; Q over pq] and columns [theta over
    pvpq; |V| over pq] share an order.  `jac_terms` holds, per PV or PQ bus
    i in pvpq order, (i, its theta column, its |V| column or -1, and the
    terms of its Y row at a theta column: (position in the row, k, k's
    theta column, k's |V| column or -1))."""

    y_rows: tuple[tuple[tuple[int, complex], ...], ...]
    s_sched: tuple[complex, ...]
    va: tuple[float, ...]
    vm: tuple[float, ...]
    boundary: tuple[int, ...]
    pvpq: tuple[int, ...]
    pq: tuple[int, ...]
    dc_gain: tuple[tuple[float, ...], ...]
    jac_terms: tuple[tuple[int, int, int, tuple[tuple[int, int, int, int], ...]], ...]

    @classmethod
    def of(cls, problem: PowerFlowProblem) -> _ScalarProblem:
        n = len(problem.bus_ids)
        pvpq, pq = tuple(problem.pvpq.tolist()), tuple(problem.pq.tolist())
        theta_col, vm_col = [-1] * n, [-1] * n
        for c, i in enumerate(pvpq):
            theta_col[i] = c
        for c, i in enumerate(pq, len(pvpq)):
            vm_col[i] = c
        y_rows = tuple(tuple((k, y_ik) for k, y_ik in enumerate(row) if y_ik)
                       for row in problem.ybus.tolist())
        jac_terms = tuple(
            (i, theta_col[i], vm_col[i],
             tuple((e, k, theta_col[k], vm_col[k]) for e, (k, _) in enumerate(y_rows[i])
                   if theta_col[k] >= 0))
            for i in pvpq)
        return cls(y_rows=y_rows, s_sched=tuple(problem.s_sched.tolist()),
                   va=tuple(problem.start[:n].tolist()), vm=tuple(problem.start[n:].tolist()),
                   boundary=tuple(problem.boundary_idx.tolist()), pvpq=pvpq, pq=pq,
                   dc_gain=tuple(map(tuple, problem.dc_gain.tolist())), jac_terms=jac_terms)


def _ds_dx_views(n: int) -> tuple[np.ndarray, ...]:
    """A new contiguous n x 2n complex buffer for [dS/dtheta | dS/d|V|] as
    the views `_fill_ds_dx` writes and the caller reads: its two blocks,
    the strided diagonals of both, and its float view."""
    out = np.empty((n, 2 * n), dtype=complex)
    flat = out.reshape(-1)
    return out[:, :n], out[:, n:], flat[::2 * n + 1], flat[n::2 * n + 1], out.view(float)


def _fill_ds_dx(views: tuple[np.ndarray, ...], ymat: np.ndarray, vm: np.ndarray,
                vhat: np.ndarray, v: np.ndarray, i_conj: np.ndarray,
                s: np.ndarray) -> np.ndarray:
    """[dS/dtheta | dS/d|V|] into the `_ds_dx_views` buffer `views`
    (MATPOWER's dSbus_dV, by broadcasting), at V = vm * vhat with the
    conj(I), I = Y V, and S = V conj(I) the caller already formed:
    dS/dtheta = j diag(V) conj(diag(I) - Y diag(V)),
    dS/d|V| = diag(V) conj(Y diag(Vhat)) + conj(diag(I)) diag(Vhat).
    Returns the float view.
    """
    ds_dva, ds_dvm, diag_va, diag_vm, out = views
    np.multiply(ymat, vhat, out=ds_dvm)
    np.conjugate(ds_dvm, out=ds_dvm)
    ds_dvm *= v[:, None]
    np.multiply(ds_dvm, -1j * vm, out=ds_dva)
    diag_va += 1j * s
    diag_vm += i_conj * vhat
    return out


# The main system's solve inside the coordinator's residual, and of a case
# without regions: mismatch tolerance and Newton iteration cap.
MAIN_PF_TOL = 1e-10
MAIN_PF_MAX_ITER = 40
# What `solve_main` raises when it finds no solution.
SOLVE_FAILURES = (NonConvergence, SingularJacobian)
# Newton runs on Python scalars up to this many unknowns, on numpy arrays
# above: the crossover of the two.  Per solve on random meshed nets behind a
# boundary bus (one CPU; medians over 5 nets of the best of 3 x 200 solves),
# scalar against numpy: 34 against 86 us at 2 unknowns, 80 against 88 at 6,
# 102 against 90 at 7 and 690 against 139 at 18.
SCALAR_MAX_UNKNOWNS = 6


def solve_main(problem: PowerFlowProblem, vm_b=(), va_b=(), tol: float = 1e-8,
               max_iter: int = 30) -> PowerFlowSolution:
    """Solve the case of `problem` with its Boundary buses held at the
    magnitudes `vm_b` and angles `va_b`, in `problem.boundary` order (both
    empty without Boundary buses).  The angles are taken as given, not
    wrapped: the DC-angle start adds dc_gain @ va_b.

    Slack and Boundary buses keep their phasors exactly; PV buses hold
    magnitude; the remaining unknowns are solved by `_fast_decoupled`
    with the problem's `b_inv`, else, or where that does not converge, by
    full-Jacobian polar NR: `_newton_scalar` on Python scalars where the
    problem holds `scalar` (at most SCALAR_MAX_UNKNOWNS unknowns), else
    `_newton` on numpy arrays.  Each starts from the problem's DC-angle
    start at the supplied boundary angles (flat angles where B_uu is
    singular; see `PowerFlowProblem`) and |V| 1 or the set point, so a
    solve is a pure function of its inputs (the coordinator's directional
    differences rely on that).  The problem is only read, so one serves
    every solve of its case.  A non-finite mismatch, or an overflow or
    invalid value on the way to one, raises NonConvergence; a Jacobian
    with an exactly zero pivot raises SingularJacobian.
    """
    bnd = problem.boundary_idx
    if len(vm_b) != bnd.size or len(va_b) != bnd.size:
        raise ValueError(f"boundary buses {[bid for _, bid in problem.boundary]} need "
                         f"{bnd.size} magnitudes and angles, got {len(vm_b)} and {len(va_b)}")
    if problem.b_inv is not None:
        try:
            return _fast_decoupled(problem, _start(problem, vm_b, va_b), tol, max_iter)
        except NonConvergence:
            pass  # a net outside the method's reach, such as one of high R/X: Newton
    if problem.scalar is not None:
        return _newton_scalar(problem, vm_b, va_b, tol, max_iter)
    return _newton(problem, _start(problem, vm_b, va_b), tol, max_iter)


def _start(problem: PowerFlowProblem, vm_b, va_b) -> np.ndarray:
    """The state [theta; |V|] a solve starts from: the problem's start with
    the boundary phasors written in and dc_gain @ va_b added to the PV and
    PQ angles."""
    n, bnd = len(problem.bus_ids), problem.boundary_idx
    x = problem.start.copy()
    va, vm = x[:n], x[n:]
    vm[bnd], va[bnd] = vm_b, va_b
    va[problem.pvpq] += problem.dc_gain @ va[bnd]
    return x


def _newton(problem: PowerFlowProblem, x: np.ndarray, tol: float,
            max_iter: int) -> PowerFlowSolution:
    """`solve_main`'s Newton iterations on numpy arrays from the start x =
    [theta; |V|].  An iteration is O(n^2) before its LU: dS/dV by
    `_fill_ds_dx` from the conj(I) the mismatch used, into views built
    once per solve, and one index gather for the Jacobian.  Runs with
    numpy's overflow, divide and invalid errors raised, so a diverging
    iterate raises NonConvergence before it spreads or warns."""
    y, unknowns, s_sched = problem.ybus, problem.unknowns, problem.s_sched
    mis_idx, jac_idx = problem.mis_idx, problem.jac_idx
    n = len(problem.bus_ids)
    va, vm = x[:n], x[n:]
    views = _ds_dx_views(n)
    history: list[float] = []
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            for it in range(max_iter + 1):
                vhat = np.exp(1j * va)
                v = vm * vhat
                i_conj = np.conj(y.dot(v))
                s = v * i_conj
                mismatch = (s_sched - s).view(float).take(mis_idx)
                max_mis = float(abs(mismatch).max(initial=0.0))
                if not math.isfinite(max_mis):
                    raise NonConvergence(it, float("inf"))
                history.append(max_mis)
                if max_mis <= tol:
                    return _solution(problem, x, s, it, history)
                if it == max_iter:
                    break
                jac = _fill_ds_dx(views, y, vm, vhat, v, i_conj, s).take(jac_idx)
                try:
                    x[unknowns] += np.linalg.solve(jac, mismatch)
                except np.linalg.LinAlgError as exc:
                    raise SingularJacobian(it) from exc
    except FloatingPointError as exc:
        raise NonConvergence(len(history), float("inf")) from exc
    raise NonConvergence(max_iter, history[-1])


def _newton_scalar(problem: PowerFlowProblem, vm_b, va_b, tol: float,
                   max_iter: int) -> PowerFlowSolution:
    """`_newton` on the Python scalars of `problem.scalar`, for problems of
    a few unknowns, where numpy's per-call overhead outweighs the
    arithmetic: the same start, mismatch, test and update.  V comes from
    cmath.rect, I = Y V sums each row's nonzeros and S = V conj(I); with
    Q_ik = V_i conj(Y_ik V_k), the Jacobian is dS/dtheta = j(diag S - Q)
    and dS/d|V| = (Q + diag S) / |V|_k, read at the P and Q rows, and
    `_solve_pivoted` takes the step.  Python's OverflowError,
    ZeroDivisionError and ValueError (cmath's domain error) raise
    NonConvergence, as numpy's floating-point errors do in `_newton`."""
    sc = problem.scalar
    va, vm = list(sc.va), list(sc.vm)
    for b, mag, ang in zip(sc.boundary, vm_b, va_b):
        vm[b], va[b] = float(mag), float(ang)
    for i, gains in zip(sc.pvpq, sc.dc_gain):
        va[i] += sum(g * va[b] for g, b in zip(gains, sc.boundary))
    y_rows, s_sched, pvpq, pq, jac_terms = sc.y_rows, sc.s_sched, sc.pvpq, sc.pq, sc.jac_terms
    m = len(pvpq) + len(pq)
    history: list[float] = []
    try:
        for it in range(max_iter + 1):
            v = [cmath.rect(r, a) for r, a in zip(vm, va)]
            yv = [[y_ik * v[k] for k, y_ik in row] for row in y_rows]
            s = [v_i * sum(terms).conjugate() for v_i, terms in zip(v, yv)]
            mismatch = ([(s_sched[i] - s[i]).real for i in pvpq]
                        + [(s_sched[i] - s[i]).imag for i in pq])
            if not all(map(math.isfinite, mismatch)):
                raise NonConvergence(it, float("inf"))
            max_mis = max(map(abs, mismatch), default=0.0)
            history.append(max_mis)
            if max_mis <= tol:
                return PowerFlowSolution(
                    bus_ids=problem.bus_ids, vm=np.array(vm), va=np.array(va),
                    p_calc=np.array([c.real for c in s]), q_calc=np.array([c.imag for c in s]),
                    iterations=it, converged=True, max_mismatch=max_mis,
                    mismatch_history=history, positions=problem.positions)
            if it == max_iter:
                break
            p_rows, q_rows = [], []
            for i, ct_i, cv_i, terms in jac_terms:
                v_i, yv_i, s_i = v[i], yv[i], s[i]
                ds = [0j] * m  # [dS_i/dtheta | dS_i/d|V|] at the unknowns
                for e, k, ct, cv in terms:
                    q = v_i * yv_i[e].conjugate()
                    ds[ct] = -1j * q
                    if cv >= 0:
                        ds[cv] = q / vm[k]
                ds[ct_i] += 1j * s_i
                if cv_i >= 0:
                    ds[cv_i] += s_i / vm[i]
                    q_rows.append([d.imag for d in ds])
                p_rows.append([d.real for d in ds])
            step = _solve_pivoted(p_rows + q_rows, mismatch, it)
            for r, i in enumerate(pvpq):
                va[i] += step[r]
            for r, i in enumerate(pq, len(pvpq)):
                vm[i] += step[r]
    except (OverflowError, ZeroDivisionError, ValueError) as exc:
        raise NonConvergence(len(history), float("inf")) from exc
    raise NonConvergence(max_iter, history[-1])


def _solve_pivoted(a: list[list[float]], b: list[float], iteration: int) -> list[float]:
    """x with a x = b by Gaussian elimination with partial pivoting, a row
    swap to the first largest magnitude in each column as LAPACK's getrf
    makes; overwrites a, and b with x.  An exactly zero pivot raises
    SingularJacobian at `iteration`, where getrf reports a singular U."""
    m = len(b)
    for c in range(m):
        piv, big = c, abs(a[c][c])
        for r in range(c + 1, m):
            if abs(a[r][c]) > big:
                piv, big = r, abs(a[r][c])
        if big == 0.0:
            raise SingularJacobian(iteration)
        a[c], a[piv], b[c], b[piv] = a[piv], a[c], b[piv], b[c]
        top, b_c = a[c], b[c]
        for r in range(c + 1, m):
            row = a[r]
            f = row[c] / top[c]
            if f:
                for j in range(c + 1, m):
                    row[j] -= f * top[j]
                b[r] -= f * b_c
    for c in range(m - 1, -1, -1):
        row, x_c = a[c], b[c]
        for j in range(c + 1, m):
            x_c -= row[j] * b[j]
        b[c] = x_c / row[c]
    return b


def _fast_decoupled(problem: PowerFlowProblem, x: np.ndarray, tol: float,
                    max_iter: int) -> PowerFlowSolution:
    """`solve_main`'s fast-decoupled iterations from the start x = [theta;
    |V|]: each moves theta over pvpq by B'^-1 dP/|V|, then |V| over pq by
    B''^-1 dQ/|V| at the new angles.  They converge linearly, so one more
    runs once the mismatch is within tol.  An overflow, or a non-finite
    mismatch, raises NonConvergence before it can spread."""
    y, s_sched, pvpq, pq = problem.ybus, problem.s_sched, problem.pvpq, problem.pq
    bp_inv, bpp_inv = problem.b_inv
    n = len(problem.bus_ids)
    va, vm = x[:n], x[n:]

    def power(vhat: np.ndarray) -> np.ndarray:
        v = vm * vhat
        return v * np.conj(y.dot(v))

    history: list[float] = []
    vhat = np.exp(1j * va)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            for it in range(max_iter + 2):
                s = power(vhat)
                mismatch = (s_sched - s).view(float).take(problem.mis_idx)
                history.append(float(abs(mismatch).max(initial=0.0)))
                if not math.isfinite(history[-1]):
                    raise NonConvergence(it, float("inf"))
                if it and history[-2] <= tol:
                    return _solution(problem, x, s, it, history)
                if it == max_iter and history[-1] > tol:
                    raise NonConvergence(max_iter, history[-1])
                va[pvpq] += bp_inv.dot(mismatch[:pvpq.size] / vm[pvpq])
                vhat = np.exp(1j * va)
                vm[pq] += bpp_inv.dot((s_sched - power(vhat)).imag[pq] / vm[pq])
    except FloatingPointError as exc:
        raise NonConvergence(len(history), float("inf")) from exc
    raise AssertionError("unreachable")


def _solution(problem: PowerFlowProblem, x: np.ndarray, s: np.ndarray, iterations: int,
              history: list[float]) -> PowerFlowSolution:
    n = len(problem.bus_ids)
    return PowerFlowSolution(bus_ids=problem.bus_ids, vm=x[n:], va=x[:n],
                             p_calc=s.real.copy(), q_calc=s.imag.copy(),
                             iterations=iterations, converged=True, max_mismatch=history[-1],
                             mismatch_history=history, positions=problem.positions)


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
    bnd = np.array([problem.positions[b] for b in bus_ids], dtype=int)
    vhat = np.exp(1j * sol.va)
    v = sol.vm * vhat
    i_conj = np.conj(y @ v)
    ds_dx = _fill_ds_dx(_ds_dx_views(n), y, sol.vm, vhat, v, i_conj, v * i_conj)

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
