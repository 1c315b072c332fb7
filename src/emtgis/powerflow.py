"""Newton-Raphson AC power flow on the polar mismatch equations.

The torn main system is solved with its boundary buses held at
coordinator-supplied phasors (slack-like), and the whole un-torn network
can be solved monolithically as an independent reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import NonConvergence, NotConverged, SingularJacobian
from .netmodel import (
    AdmittanceMatrix,
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

    def complex_voltages(self) -> np.ndarray:
        return self.vm * np.exp(1j * self.va)

    def to_csv(self, path: str | Path) -> None:
        lines = ["bus_id,v_pu,theta_deg,p_pu,q_pu"]
        for i, bid in enumerate(self.bus_ids):
            lines.append(
                f"{bid},{self.vm[i]:.12g},{np.degrees(self.va[i]):.12g},"
                f"{self.p_calc[i]:.12g},{self.q_calc[i]:.12g}"
            )
        Path(path).write_text("\n".join(lines) + "\n")


def _scheduled_injections(case: CaseFile) -> np.ndarray:
    """Scheduled complex injection per bus: machine set points less loads."""
    index = {b.id: i for i, b in enumerate(case.buses)}
    s = np.array([complex(-b.p_load, -b.q_load) for b in case.buses])
    for m in case.machines:
        if m.bus in index:
            s[index[m.bus]] += m.p_set
    return s


def solve_main(
    case: CaseFile,
    boundary_voltages: dict[str, Phasor] | None = None,
    tol: float = 1e-8,
    max_iter: int = 30,
    warm_start: PowerFlowSolution | None = None,
    ybus: AdmittanceMatrix | None = None,
) -> PowerFlowSolution:
    """Solve the main system with Boundary buses fixed at supplied phasors.

    Slack and Boundary buses keep their phasors exactly; PV buses hold
    magnitude; full-Jacobian polar NR over the remaining unknowns.  Flat
    start unless warm_start is given; `ybus` saves the admittance build.
    An iteration is O(n^2): dS/dV by broadcasting (MATPOWER's dSbus_dV)
    from the I = Y V the mismatch used, and one index gather for the
    Jacobian.  A non-finite mismatch raises NonConvergence.
    """
    boundary_voltages = boundary_voltages or {}
    y = ybus if ybus is not None else build_admittance(case)
    ids = y.bus_ids
    n = len(ids)
    kinds = [b.kind for b in case.buses]

    missing = [
        b.id for b in case.buses
        if b.kind is BusKind.BOUNDARY and b.id not in boundary_voltages
    ]
    if missing:
        raise ValueError(f"no boundary voltage supplied for buses {missing}")

    # Polar state [theta; |V|]; Newton updates it at [pvpq, n + pq].
    x = np.concatenate([np.zeros(n), np.ones(n)])
    va, vm = x[:n], x[n:]
    for i, b in enumerate(case.buses):
        if b.kind in (BusKind.SLACK, BusKind.PV):
            vm[i] = b.v_set
        elif b.kind is BusKind.BOUNDARY:
            ph = boundary_voltages[b.id]
            vm[i], va[i] = ph.magnitude, ph.angle
    if warm_start is not None:
        for i, bid in enumerate(ids):
            if kinds[i] in (BusKind.PQ,):
                j = warm_start.index(bid)
                vm[i], va[i] = warm_start.vm[j], warm_start.va[j]
            elif kinds[i] is BusKind.PV:
                va[i] = warm_start.va[warm_start.index(bid)]

    pq = np.array([i for i, k in enumerate(kinds) if k is BusKind.PQ], dtype=int)
    pv = np.array([i for i, k in enumerate(kinds) if k is BusKind.PV], dtype=int)
    pvpq = np.concatenate([pv, pq])
    unknowns = np.concatenate([pvpq, n + pq])
    s_sched = _scheduled_injections(case)

    # Gathers from float views (a complex entry is real, imag): P rows are
    # real parts over pvpq, Q rows imaginary parts over pq, of S_sched - S
    # and of ds_dx = [dS/dtheta | dS/d|V|] at the unknowns' columns.
    mis_idx = np.concatenate([2 * pvpq, 2 * pq + 1])
    jac_idx = np.concatenate([4 * n * pvpq, 4 * n * pq + 1])[:, None] + 2 * unknowns
    ds_dx = np.empty((n, 2 * n), dtype=complex)
    ds_dva, ds_dvm = ds_dx[:, :n], ds_dx[:, n:]
    # Strided views of both block diagonals (ds_dx is contiguous).
    diag_va, diag_vm = ds_dx.reshape(-1)[::2 * n + 1], ds_dx.reshape(-1)[n::2 * n + 1]

    history: list[float] = []
    converged = False
    iterations = 0
    for it in range(max_iter + 1):
        vhat = np.exp(1j * va)
        v = vm * vhat
        ibus = y.mat @ v
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
        # dS/dtheta = j diag(V) conj(diag(I) - Y diag(V)),
        # dS/d|V| = diag(V) conj(Y diag(Vhat)) + conj(diag(I)) diag(Vhat).
        np.multiply(y.mat, vhat, out=ds_dvm)
        np.conjugate(ds_dvm, out=ds_dvm)
        ds_dvm *= v[:, None]
        np.multiply(ds_dvm, -1j * vm, out=ds_dva)
        diag_va += 1j * s
        diag_vm += np.conj(ibus) * vhat
        jac = ds_dx.view(float).take(jac_idx)
        try:
            x[unknowns] += np.linalg.solve(jac, mismatch)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(it) from exc

    if not converged:
        raise NonConvergence(max_iter, history[-1])
    return PowerFlowSolution(
        bus_ids=tuple(ids),
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
    if not sol.converged:
        raise NotConverged("boundary injections need a converged solution")
    out: dict[str, tuple[float, float]] = {}
    for b in case.buses:
        if b.kind is BusKind.BOUNDARY:
            p_net, q_net = sol.injection(b.id)
            out[b.id] = (-p_net - b.p_load, -q_net - b.q_load)
    return out


def solve_monolithic(case: CaseFile, tol: float = 1e-10, max_iter: int = 40) -> PowerFlowSolution:
    """NR over the whole un-decomposed network (white-box regions inlined).

    Serves as the independent reference the torn coordination must match.
    Raises OracleUnavailable if any region is opaque.
    """
    flat = inline_grbcs(case)
    return solve_main(flat, {}, tol=tol, max_iter=max_iter)
