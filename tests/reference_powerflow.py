"""Reference Newton-Raphson power flow: dense diagonal-matrix Jacobian.

This is the iteration the broadcast `powerflow.solve_main` replaced, kept
as an oracle for equivalence tests; it takes the same DC-angle start,
solved per call from its own B blocks.  Per iteration it forms dS/dtheta and
dS/d|V| from products with the dense matrices diag(V), diag(I) and
diag(V/|V|), which costs O(n^3), then assembles the four Jacobian blocks
with `np.ix_` and `np.block`.

`reference_admittance` is the dense stamping loop that
`netmodel.admittance_rows` and `build_admittance` replaced, kept as their
bit-for-bit oracle.

`_newton_scalar` and `_solve_pivoted` are the scalar Newton kernel that
`powerflow._newton_scalar` replaced, kept verbatim as its bit-for-bit
oracle: it built each Jacobian row as a complex list [dS_i/dtheta |
dS_i/d|V|] and read its real and imaginary parts.
"""

import cmath
import math

import numpy as np

from emtgis.errors import NonConvergence, SingularJacobian, SingularNetwork
from emtgis.netmodel import BusKind
from emtgis.powerflow import PowerFlowProblem, PowerFlowSolution


def reference_admittance(case):
    """The dense nodal admittance matrix of the case's own buses and
    branches, stamped branch by branch into a zero matrix, then the bus
    shunts."""
    ids = tuple(b.id for b in case.buses)
    index = {bid: i for i, bid in enumerate(ids)}
    n = len(ids)
    y = np.zeros((n, n), dtype=complex)

    for br in case.branches:
        f, t = index[br.from_bus], index[br.to_bus]
        ys = br.series_admittance
        ysh = 1j * br.b_half
        tap = br.tap
        y[f, f] += (ys + ysh) / (tap * tap)
        y[t, t] += ys + ysh
        y[f, t] -= ys / tap
        y[t, f] -= ys / tap

    for b in case.buses:
        i = index[b.id]
        y[i, i] += complex(b.shunt_g, b.shunt_b)

    for i, bid in enumerate(ids):
        if np.all(y[i] == 0.0):
            raise SingularNetwork(f"bus '{bid}' has no admittance connection")
    return y


def reference_solve_main(case, boundary_voltages=None, tol=1e-8, max_iter=30):
    boundary_voltages = boundary_voltages or {}
    y = reference_admittance(case)
    ids = tuple(b.id for b in case.buses)
    n = len(ids)
    kinds = [b.kind for b in case.buses]

    vm = np.ones(n)
    va = np.zeros(n)
    for i, b in enumerate(case.buses):
        if b.kind in (BusKind.SLACK, BusKind.PV):
            vm[i] = b.v_set
        elif b.kind is BusKind.BOUNDARY:
            ph = boundary_voltages[b.id]
            vm[i], va[i] = ph.magnitude, ph.angle

    pq = np.array([i for i, k in enumerate(kinds) if k is BusKind.PQ], dtype=int)
    pv = np.array([i for i, k in enumerate(kinds) if k is BusKind.PV], dtype=int)
    pvpq = np.concatenate([pv, pq])

    p_sched = np.zeros(n)
    q_sched = np.zeros(n)
    for i, b in enumerate(case.buses):
        p_sched[i] -= b.p_load
        q_sched[i] -= b.q_load
    for m in case.machines:
        for i, b in enumerate(case.buses):
            if b.id == m.bus:
                p_sched[i] += m.p_set

    # The same DC-angle start as solve_main, solved directly: B = -Im(Y),
    # B_uu theta_u = P_u - B_uk theta_k over the PV and PQ buses u, with
    # the slack and boundary angles k as set above; flat if B_uu is
    # singular.
    known = np.setdiff1d(np.arange(n), pvpq)
    b_dc = -y.imag
    try:
        va[pvpq] = np.linalg.solve(b_dc[np.ix_(pvpq, pvpq)],
                                   p_sched[pvpq] - b_dc[np.ix_(pvpq, known)] @ va[known])
    except np.linalg.LinAlgError:
        pass

    def calc_powers():
        v = vm * np.exp(1j * va)
        s = v * np.conj(y @ v)
        return v, s

    history = []
    converged = False
    iterations = 0
    v, s = calc_powers()
    for it in range(max_iter + 1):
        dp = p_sched[pvpq] - s.real[pvpq]
        dq = q_sched[pq] - s.imag[pq]
        mismatch = np.concatenate([dp, dq])
        if mismatch.size and not np.all(np.isfinite(mismatch)):
            raise NonConvergence(it, float("inf"))
        max_mis = float(np.max(np.abs(mismatch))) if mismatch.size else 0.0
        history.append(max_mis)
        if max_mis <= tol:
            converged = True
            iterations = it
            break
        if it == max_iter:
            break
        ibus = y @ v
        diag_v = np.diag(v)
        diag_i = np.diag(ibus)
        diag_vnorm = np.diag(np.exp(1j * va))
        ds_dva = 1j * diag_v @ np.conj(diag_i - y @ diag_v)
        ds_dvm = diag_v @ np.conj(y @ diag_vnorm) + np.conj(diag_i) @ diag_vnorm
        j11 = ds_dva[np.ix_(pvpq, pvpq)].real
        j12 = ds_dvm[np.ix_(pvpq, pq)].real
        j21 = ds_dva[np.ix_(pq, pvpq)].imag
        j22 = ds_dvm[np.ix_(pq, pq)].imag
        jac = np.block([[j11, j12], [j21, j22]])
        try:
            dx = np.linalg.solve(jac, mismatch)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(it) from exc
        va[pvpq] += dx[: pvpq.size]
        vm[pq] += dx[pvpq.size:]
        v, s = calc_powers()

    if not converged:
        raise NonConvergence(max_iter, history[-1])
    return PowerFlowSolution(
        bus_ids=tuple(ids), vm=vm, va=va,
        p_calc=s.real.copy(), q_calc=s.imag.copy(),
        iterations=iterations, max_mismatch=history[-1], mismatch_history=history,
        positions={bid: i for i, bid in enumerate(ids)},
    )


def _newton_scalar(problem: PowerFlowProblem, vm_b, va_b, tol: float,
                   max_iter: int) -> PowerFlowSolution:
    """`_newton` on Python scalars, the problem's admittance rows and
    `problem.scalar`, for problems of a few unknowns, where numpy's
    per-call overhead outweighs the arithmetic: the same start (its DC
    part solved on scalars, so equal to `_newton`'s up to rounding),
    mismatch, test and update, and a solution of Python lists.  V comes
    from cmath.rect, I = Y V sums each row's nonzeros and S = V conj(I); with
    Q_ik = V_i conj(Y_ik V_k), the Jacobian is dS/dtheta = j(diag S - Q)
    and dS/d|V| = (Q + diag S) / |V|_k, read at the P and Q rows, and
    `_solve_pivoted` takes the step.  Python's OverflowError,
    ZeroDivisionError and ValueError (cmath's domain error) raise
    NonConvergence, as numpy's floating-point errors do in `_newton`."""
    sc = problem.scalar
    y_rows, s_sched, pvpq, pq = problem.y_rows, problem.s_sched, problem.pvpq, problem.pq
    va, vm = list(sc.va), list(sc.vm)
    for b, mag, ang in zip(sc.boundary, vm_b, va_b):
        vm[b], va[b] = float(mag), float(ang)
    for i, gains in zip(pvpq, sc.dc_gain):
        va[i] += sum(g * va[b] for g, b in zip(gains, sc.boundary))
    jac_terms = sc.jac_terms
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
                    bus_ids=problem.bus_ids, vm=vm, va=va,
                    p_calc=[c.real for c in s], q_calc=[c.imag for c in s],
                    iterations=it, max_mismatch=max_mis,
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
