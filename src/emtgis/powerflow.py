"""AC power flow on the polar mismatch equations, Newton or fast-decoupled.

The torn main system is solved with its boundary buses held at
coordinator-supplied phasors (slack-like), and the whole un-torn network
can be solved monolithically as an independent reference.  Every solve
takes the PowerFlowProblem of its case, built once; `solve_main` picks
the method.
"""

from __future__ import annotations

import cmath
import math
from functools import cached_property
from operator import mul
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import NonConvergence, SingularJacobian
from .netmodel import (
    BusKind,
    CaseFile,
    Phasor,
    admittance_rows,
    build_admittance,
    inline_grbcs,
)


class PowerFlowSolution(NamedTuple):
    """A converged power flow.  Its per-bus vm, va, p_calc and q_calc are
    numpy arrays from the numpy solves and lists of floats from the scalar
    one (`_newton_scalar`)."""

    bus_ids: tuple[str, ...]
    vm: np.ndarray | list[float]  # per-unit magnitudes
    va: np.ndarray | list[float]  # radians
    p_calc: np.ndarray | list[float]  # network injection per bus (generator convention)
    q_calc: np.ndarray | list[float]
    iterations: int
    max_mismatch: float
    mismatch_history: list[float]
    positions: dict[str, int]  # {bus id: position}: its problem's, built once
    # Not a field: a solve that fails raises, so every solution converged.
    # The benchmark's scaled-case set-up still reads it (bench/run.py).
    converged = True

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
    """What a power flow of `case` needs that depends on the case alone.
    `solve_main` reads it and never writes it but for the data it builds
    on first use, so one problem serves every solve of its case; the case
    must not change after it.

    The start is a DC power flow (Stott, Jardim and Alsac, "DC power flow
    revisited", 2009): with B = -Im(Y), the PV and PQ angles u solve
    B_uu theta_u = P_u - B_ub theta_b, P the scheduled real injections,
    the slack angles 0 and the boundary angles b as a solve supplies them.
    So theta_u = theta_0 + dc_gain @ theta_b, theta_0 the angles at zero
    boundary angles.  Where B_uu is singular both are zero, the flat start.

    A problem of at most SCALAR_MAX_UNKNOWNS unknowns (a white-box
    region's internal power flow) holds its data, DC start included, in
    Python scalars (`scalar`, else None).  `arrays`, the numpy data, and
    `b_inv` are built on first use, so a problem on the scalar path never
    builds them.  `decoupled` (the coordinator's main problem asks for
    it) holds only from DECOUPLED_MIN_BUSES buses on.
    """

    def __init__(self, case: CaseFile, decoupled: bool = False):
        self.case = case
        buses = case.buses
        self.bus_ids = tuple(b.id for b in buses)
        self.positions = {bid: i for i, bid in enumerate(self.bus_ids)}
        self.y_rows = admittance_rows(case)
        pv = [i for i, b in enumerate(buses) if b.kind is BusKind.PV]
        pq = [i for i, b in enumerate(buses) if b.kind is BusKind.PQ]
        # Newton solves for theta over pvpq and |V| over pq.
        self.pvpq, self.pq = tuple(pv + pq), tuple(pq)
        self.n_unknowns = len(self.pvpq) + len(pq)
        # Scheduled complex injection per bus: machine set points less loads.
        s_sched = [complex(-b.p_load, -b.q_load) for b in buses]
        for m in case.machines:
            if m.bus in self.positions:
                s_sched[self.positions[m.bus]] += m.p_set
        self.s_sched = tuple(s_sched)
        self.boundary = tuple((i, b.id) for i, b in enumerate(buses)
                              if b.kind is BusKind.BOUNDARY)
        self.decoupled = decoupled and len(buses) >= DECOUPLED_MIN_BUSES
        self.scalar = (_scalar_problem(self) if self.n_unknowns <= SCALAR_MAX_UNKNOWNS
                       else None)

    def _start_magnitudes(self) -> list[float]:
        """|V| of the start: the set point at slack and PV buses, else 1."""
        return [b.v_set if b.kind in (BusKind.SLACK, BusKind.PV) else 1.0
                for b in self.case.buses]

    @cached_property
    def arrays(self) -> _ArrayProblem:
        """The problem's `_ArrayProblem`, built on first use."""
        n = len(self.bus_ids)
        ybus = build_admittance(self.case, self.y_rows)
        pvpq, pq = np.array(self.pvpq, dtype=int), np.array(self.pq, dtype=int)
        unknowns = np.concatenate([pvpq, n + pq])
        boundary_idx = np.array([i for i, _ in self.boundary], dtype=int)
        # Start: theta_0, |V| 1, held magnitudes at their set points;
        # `_start` writes the boundary voltages into a copy, then adds
        # dc_gain @ theta_b to the PV and PQ angles.
        start = np.concatenate([np.zeros(n), self._start_magnitudes()])
        s_sched = np.array(self.s_sched, dtype=complex)
        bmat = -ybus.imag
        try:
            dc = np.linalg.solve(bmat[np.ix_(pvpq, pvpq)], np.column_stack(
                [s_sched.real[pvpq], -bmat[np.ix_(pvpq, boundary_idx)]]))
        except np.linalg.LinAlgError:
            dc = np.zeros((pvpq.size, 1 + boundary_idx.size))
        start[pvpq] = dc[:, 0]
        # Gathers from float views (a complex entry is real, imag): P rows
        # are real parts over pvpq, Q rows imaginary parts over pq, of
        # S_sched - S and of ds_dx = [dS/dtheta | dS/d|V|] at the unknowns'
        # columns.
        jac_rows = np.concatenate([4 * n * pvpq, 4 * n * pq + 1])
        arrays = _ArrayProblem(
            ybus=ybus, s_sched=s_sched, pvpq=pvpq, pq=pq, unknowns=unknowns,
            boundary_idx=boundary_idx, start=start, dc_gain=dc[:, 1:],
            mis_idx=np.concatenate([2 * pvpq, 2 * pq + 1]), jac_rows=jac_rows,
            jac_idx=jac_rows[:, None] + 2 * unknowns)
        for arr in arrays:
            arr.flags.writeable = False
        return arrays

    @cached_property
    def b_inv(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The inverses of B' = B_uu and B'' = B over the PQ buses, the
        fast-decoupled matrices of Stott and Alsac (IEEE Trans. PAS-93,
        1974), where the problem is `decoupled` and both are regular, else
        None."""
        if not self.decoupled:
            return None
        a = self.arrays
        bmat = -a.ybus.imag
        try:
            b_inv = (np.linalg.inv(bmat[np.ix_(a.pvpq, a.pvpq)]),
                     np.linalg.inv(bmat[np.ix_(a.pq, a.pq)]))
        except np.linalg.LinAlgError:
            return None
        for arr in b_inv:
            arr.flags.writeable = False
        return b_inv


class _ArrayProblem(NamedTuple):
    """A `PowerFlowProblem`'s data as read-only numpy arrays: the dense Y,
    the scheduled injections, the PV+PQ and PQ buses, the polar unknowns
    [theta over pvpq; |V| over pq] as positions in [theta; |V|], the
    boundary buses, the start [theta_0; |V|], the DC gains, and the float
    view gathers of the mismatch and the Jacobian."""

    ybus: np.ndarray
    s_sched: np.ndarray
    pvpq: np.ndarray
    pq: np.ndarray
    unknowns: np.ndarray
    boundary_idx: np.ndarray
    start: np.ndarray
    dc_gain: np.ndarray
    mis_idx: np.ndarray
    jac_rows: np.ndarray
    jac_idx: np.ndarray


class _ScalarProblem(NamedTuple):
    """What `_newton_scalar` reads of a `PowerFlowProblem` besides its
    admittance rows and index sets, as Python scalars built without numpy:
    the start angles (theta_0) and magnitudes, the unknowns' positions in
    [theta; |V|], the boundary and the slack and boundary positions, the
    DC gains and (i, its Y row, its scheduled P and Q) of each PV or PQ bus.

    The Jacobian's rows [P over pvpq; Q over pq] and columns [theta over
    pvpq; |V| over pq] share an order.  `jac_terms` holds, per PV or PQ bus
    i in pvpq order, (i, its theta column, its |V| column or -1, and the
    terms of its Y row at a theta column: (position in the row, k, k's
    theta column, k's |V| column or -1))."""

    va: tuple[float, ...]
    vm: tuple[float, ...]
    unknowns: tuple[int, ...]
    boundary: tuple[int, ...]
    fixed: tuple[int, ...]
    dc_gain: tuple[tuple[float, ...], ...]
    rows: tuple[tuple[int, tuple[tuple[int, complex], ...], float, float], ...]
    jac_terms: tuple[tuple[int, int, int, tuple[tuple[int, int, int, int], ...]], ...]


def _scalar_problem(problem: PowerFlowProblem) -> _ScalarProblem:
    """`problem`'s `_ScalarProblem`, its DC start solved by
    `_solve_pivoted`, each right-hand side on a fresh copy of B_uu; a zero
    pivot gives the flat start."""
    y_rows, pvpq, pq = problem.y_rows, problem.pvpq, problem.pq
    n, m = len(y_rows), len(pvpq)
    boundary = tuple(i for i, _ in problem.boundary)
    theta_col, vm_col = [-1] * n, [-1] * n
    for c, i in enumerate(pvpq):
        theta_col[i] = c
    for c, i in enumerate(pq, m):
        vm_col[i] = c
    b_col = {b: c for c, b in enumerate(boundary, 1)}
    b_uu = [[0.0] * m for _ in pvpq]
    rhs = [[problem.s_sched[i].real for i in pvpq]] + [[0.0] * m for _ in boundary]
    jac_terms = []
    for r, i in enumerate(pvpq):
        terms = []
        for e, (k, y_ik) in enumerate(y_rows[i]):
            if theta_col[k] >= 0:
                b_uu[r][theta_col[k]] = -y_ik.imag
                terms.append((e, k, theta_col[k], vm_col[k]))
            elif k in b_col:
                rhs[b_col[k]][r] = y_ik.imag
        jac_terms.append((i, theta_col[i], vm_col[i], tuple(terms)))
    try:
        dc = [_solve_pivoted([row[:] for row in b_uu], col, 0) for col in rhs]
    except SingularJacobian:
        dc = [[0.0] * m for _ in rhs]
    va = [0.0] * n
    for r, i in enumerate(pvpq):
        va[i] = dc[0][r]
    return _ScalarProblem(va=tuple(va), vm=tuple(problem._start_magnitudes()),
                          unknowns=(*pvpq, *(n + i for i in pq)), boundary=boundary,
                          fixed=tuple(i for i in range(n) if theta_col[i] < 0),
                          dc_gain=tuple(tuple(col[r] for col in dc[1:]) for r in range(m)),
                          rows=tuple((i, y_rows[i], problem.s_sched[i].real,
                                      problem.s_sched[i].imag) for i in pvpq),
                          jac_terms=tuple(jac_terms))


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
# above: their measured crossover (CHANGES.md, "Region power flows of a few
# unknowns run Newton on Python scalars").
SCALAR_MAX_UNKNOWNS = 6
# A problem built `decoupled` solves fast-decoupled from this many buses
# on, by Newton below: their measured crossover (CHANGES.md, "Power flows
# build only what their solver reads").
DECOUPLED_MIN_BUSES = 30


def solve_main(problem: PowerFlowProblem, vm_b=(), va_b=(), tol: float = 1e-8,
               max_iter: int = 30) -> PowerFlowSolution:
    """Solve the case of `problem` with its Boundary buses held at the
    magnitudes `vm_b` and angles `va_b`, in `problem.boundary` order (both
    empty without Boundary buses).  The angles are taken as given, not
    wrapped: the DC-angle start adds dc_gain @ va_b.

    Slack and Boundary buses keep their phasors exactly; PV buses hold
    magnitude; the remaining unknowns are solved by `_fast_decoupled`
    where the problem has `b_inv`, else, or where that does not converge,
    by full-Jacobian polar NR: `_newton_scalar` where the problem holds
    `scalar`, else `_newton` on numpy arrays.  Each starts from the
    problem's DC-angle start and |V| 1 or the set point, so a solve is a
    pure function of its inputs (the coordinator's directional differences
    rely on that).  A non-finite mismatch, or an overflow or invalid value
    on the way to one, raises NonConvergence; a Jacobian with an exactly
    zero pivot raises SingularJacobian.
    """
    nb = len(problem.boundary)
    if len(vm_b) != nb or len(va_b) != nb:
        raise ValueError(f"boundary buses {[bid for _, bid in problem.boundary]} need "
                         f"{nb} magnitudes and angles, got {len(vm_b)} and {len(va_b)}")
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
    a = problem.arrays
    n, bnd = len(problem.bus_ids), a.boundary_idx
    x = a.start.copy()
    va, vm = x[:n], x[n:]
    vm[bnd], va[bnd] = vm_b, va_b
    va[a.pvpq] += a.dc_gain @ va[bnd]
    return x


def _newton(problem: PowerFlowProblem, x: np.ndarray, tol: float,
            max_iter: int) -> PowerFlowSolution:
    """`solve_main`'s Newton iterations on numpy arrays from the start x =
    [theta; |V|].  An iteration is O(n^2) before its LU.  Runs with
    numpy's overflow, divide and invalid errors raised, so a diverging
    iterate raises NonConvergence before it spreads or warns."""
    a = problem.arrays
    y, unknowns, s_sched, mis_idx, jac_idx = a.ybus, a.unknowns, a.s_sched, a.mis_idx, a.jac_idx
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
    """`_newton` on Python scalars, for problems of a few unknowns, where
    numpy's per-call overhead outweighs the arithmetic: the same start
    (its DC part solved on scalars, so equal to `_newton`'s up to
    rounding), mismatch, test and update, and a solution of Python lists.
    With Q_ik = V_i conj(Y_ik V_k), the P and Q rows hold (Im Q, -Re Q) at
    theta columns and (Re Q, Im Q) / |V|_k at |V| columns, and their
    diagonals add (-Im S_i, Re S_i) and (Re S_i, Im S_i) / |V|_i (Tinney
    and Hart, IEEE Trans. PAS-86, 1967): the parts of j(diag S - Q) and
    (Q + diag S) / |V|_k less the exact zeros their complex products add,
    so every result equals the complex-row kernel's
    (tests/reference_powerflow.py) bit for bit.  Python's OverflowError,
    ZeroDivisionError and ValueError (cmath's domain error) raise
    NonConvergence."""
    sc, y_rows, pvpq = problem.scalar, problem.y_rows, problem.pvpq
    n, n_pv, m = len(y_rows), len(pvpq) - len(problem.pq), problem.n_unknowns
    x = [*sc.va, *sc.vm]  # [theta; |V|]
    theta_b = list(map(float, va_b))
    for b, mag, ang in zip(sc.boundary, vm_b, theta_b):
        x[n + b], x[b] = float(mag), ang
    for i, gains in zip(pvpq, sc.dc_gain):
        x[i] += sum(map(mul, gains, theta_b))
    history: list[float] = []
    try:
        for it in range(max_iter + 1):
            vm = x[n:]
            v = list(map(cmath.rect, vm, x[:n]))
            yv, mismatch, q_mis, s = [], [], [], [0j] * n
            for i, row, p_sched_i, q_sched_i in sc.rows:
                yv_i = [y_ik * v[k] for k, y_ik in row]
                s[i] = s_i = v[i] * sum(yv_i).conjugate()
                yv.append(yv_i)
                mismatch.append(p_sched_i - s_i.real)
                q_mis.append(q_sched_i - s_i.imag)
            mismatch += q_mis[n_pv:]
            if not all(map(math.isfinite, mismatch)):
                raise NonConvergence(it, float("inf"))
            max_mis = max(map(abs, mismatch)) if m else 0.0
            history.append(max_mis)
            if max_mis <= tol:
                for i in sc.fixed:
                    s[i] = v[i] * sum([y_ik * v[k] for k, y_ik in y_rows[i]]).conjugate()
                return PowerFlowSolution(problem.bus_ids, vm, x[:n], [c.real for c in s],
                                         [c.imag for c in s], it, max_mis, history,
                                         problem.positions)
            if it == max_iter:
                break
            p_rows, q_rows = [], []
            for (i, ct_i, cv_i, terms), yv_i in zip(sc.jac_terms, yv):
                v_i, s_i, p_row, q_row = v[i], s[i], [0.0] * m, [0.0] * m
                for e, k, ct, cv in terms:
                    q = v_i * yv_i[e].conjugate()
                    p_row[ct], q_row[ct] = q.imag, -q.real
                    if cv >= 0:
                        p_row[cv], q_row[cv] = q.real / vm[k], q.imag / vm[k]
                p_row[ct_i] -= s_i.imag
                p_rows.append(p_row)
                if cv_i >= 0:  # a PQ bus: its Q row too
                    q_row[ct_i] += s_i.real
                    p_row[cv_i] += s_i.real / vm[i]
                    q_row[cv_i] += s_i.imag / vm[i]
                    q_rows.append(q_row)
            step = _solve_pivoted(p_rows + q_rows, mismatch, it)
            for c, dx in zip(sc.unknowns, step):
                x[c] += dx
    except (OverflowError, ZeroDivisionError, ValueError) as exc:
        raise NonConvergence(len(history), float("inf")) from exc
    raise NonConvergence(max_iter, history[-1])


def _solve_pivoted(a: list[list[float]], b: list[float], iteration: int) -> list[float]:
    """x with a x = b by Gaussian elimination with partial pivoting, a row
    swap, where the pivot moves, to the first largest magnitude in each
    column as LAPACK's getrf makes; overwrites a, and b with x, equal bit
    for bit to the always-swapping oracle's (tests/reference_powerflow.py).
    An exactly zero pivot raises SingularJacobian at `iteration`, where
    getrf reports a singular U."""
    m = len(b)
    for c in range(m):
        top, rest = a[c], range(c + 1, m)
        piv, big = c, abs(top[c])
        for r in rest:
            if abs(a[r][c]) > big:
                piv, big = r, abs(a[r][c])
        if big == 0.0:
            raise SingularJacobian(iteration)
        if piv != c:
            top = a[piv]
            a[c], a[piv], b[c], b[piv] = top, a[c], b[piv], b[c]
        top_c, b_c = top[c], b[c]
        for r in rest:
            row = a[r]
            f = row[c] / top_c
            if f:
                for j in rest:
                    row[j] -= f * top[j]
                b[r] -= f * b_c
    for c in reversed(range(m)):
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
    a = problem.arrays
    y, s_sched, pvpq, pq = a.ybus, a.s_sched, a.pvpq, a.pq
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
                mismatch = (s_sched - s).view(float).take(a.mis_idx)
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
    return PowerFlowSolution(problem.bus_ids, x[n:], x[:n], s.real.copy(), s.imag.copy(),
                             iterations, history[-1], history, problem.positions)


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
    a = problem.arrays
    y, vm = a.ybus, np.asarray(sol.vm)
    n = len(problem.bus_ids)
    bnd = np.array([problem.positions[b] for b in bus_ids], dtype=int)
    vhat = np.exp(1j * np.asarray(sol.va))
    v = vm * vhat
    i_conj = np.conj(y @ v)
    ds_dx = _fill_ds_dx(_ds_dx_views(n), y, vm, vhat, v, i_conj, v * i_conj)

    # Float-view gathers as in solve_main: P rows are real parts, Q rows
    # imaginary parts; theta columns come first in ds_dx, |V| columns second.
    rows_u, cols_u = a.jac_rows, 2 * a.unknowns
    rows_b = np.concatenate([4 * n * bnd, 4 * n * bnd + 1])
    cols_b = 2 * np.concatenate([n + bnd, bnd])

    def block(rows, cols):
        return ds_dx.take(rows[:, None] + cols)

    schur = block(rows_b, cols_b) - block(rows_b, cols_u) @ np.linalg.solve(
        block(rows_u, cols_u), block(rows_u, cols_b))
    return -schur


def solve_monolithic(case: CaseFile, tol: float = 1e-10, max_iter: int = 40) -> PowerFlowSolution:
    """NR over the whole un-decomposed network (white-box regions inlined),
    the independent reference the torn coordination must match.  Never
    `decoupled`: on the inlined scaled k=8 case (128 buses) fast-decoupled
    iterations diverge, to a mismatch of 1.8e78 pu after 40, before the
    fallback to Newton (4 iterations).  Raises OracleUnavailable if any
    region is opaque.
    """
    return solve_main(PowerFlowProblem(inline_grbcs(case)), tol=tol, max_iter=max_iter)
