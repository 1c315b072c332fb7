"""Reference Newton-Raphson power flow: dense diagonal-matrix Jacobian.

This is the iteration the broadcast `powerflow.solve_main` replaced, kept
as an oracle for equivalence tests.  Per iteration it forms dS/dtheta and
dS/d|V| from products with the dense matrices diag(V), diag(I) and
diag(V/|V|), which costs O(n^3), then assembles the four Jacobian blocks
with `np.ix_` and `np.block`.
"""

import numpy as np

from emtgis.errors import NonConvergence, SingularJacobian
from emtgis.netmodel import BusKind, build_admittance
from emtgis.powerflow import PowerFlowSolution


def reference_solve_main(case, boundary_voltages=None, tol=1e-8, max_iter=30):
    boundary_voltages = boundary_voltages or {}
    y = build_admittance(case)
    ids = y.bus_ids
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

    def calc_powers():
        v = vm * np.exp(1j * va)
        s = v * np.conj(y.mat @ v)
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
        ibus = y.mat @ v
        diag_v = np.diag(v)
        diag_i = np.diag(ibus)
        diag_vnorm = np.diag(np.exp(1j * va))
        ds_dva = 1j * diag_v @ np.conj(diag_i - y.mat @ diag_v)
        ds_dvm = diag_v @ np.conj(y.mat @ diag_vnorm) + np.conj(diag_i) @ diag_vnorm
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
        iterations=iterations, converged=True,
        max_mismatch=history[-1], mismatch_history=history,
    )
