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
"""

import numpy as np

from emtgis.errors import NonConvergence, SingularJacobian, SingularNetwork
from emtgis.netmodel import BusKind
from emtgis.powerflow import PowerFlowSolution


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
    )
