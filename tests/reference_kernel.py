"""Reference EMT stepper: explicit nodal injection and reduced-matrix solve.

This is the step arithmetic the kernel used before `CompiledNet.step`
became a fixed linear map, but for its solve, kept as an oracle for
equivalence tests.  Per
step it scatters the companion history currents into nodal injections with
`np.add.at`, pins the known nodes, and solves G_uu v_u = inj_u - W v_k for
the unknown nodes by LU each step.  Every step returns a fresh `EmtState`.

The solve is LU, not a product with the explicit inverse G_uu^-1 that the
old kernel kept: behind a branch of large conductance, a resistor's current
g (v_a - v_b) multiplies the solve's error by g, and against a long-double
run the inverse's trajectories drift up to 1.4e-12 of the largest value
over 300 steps across a fault, past the 1e-12 the equivalence tests allow.

`reference_run` and `reference_run_until_steady` are the stepping loops of
`emtkernel.run` and `emtkernel.run_until_steady` as they were before the
buffer loop: one `EmtState` per step of that stepper.  Both read the run's
length, its ramp and its fault in steps, as the kernel does.
"""

import math

import numpy as np

import emtgis.emtkernel as ek
from emtgis.errors import InvalidParameter


def ramp_profile(n: int, ramp_steps: int) -> float:
    """Linear source ramp at step n: s = min(n / ramp_steps, 1), and 0
    before step 0."""
    if ramp_steps <= 0:
        raise InvalidParameter("ramp_steps must be positive")
    return min(max(n, 0) / ramp_steps, 1.0)


def companion(kind: ek.ElementKind, value: float, dt: float) -> tuple[float, float, float]:
    """Trapezoidal companion coefficients (g, h, j) of one element, for
    i(t) = g u(t) + h u(t-dt) + j i(t-dt).  A resistor has g = 1/R; the
    trapezoid gives an inductor g = h = dt/2L and j = 1 (from L di/dt = u),
    a capacitor g = -h = 2C/dt and j = -1 (from C du/dt = i)."""
    if kind is ek.ElementKind.RESISTOR:
        return 1.0 / value, 0.0, 0.0
    if kind is ek.ElementKind.INDUCTOR:
        g = dt / (2.0 * value)
        return g, g, 1.0
    g = 2.0 * value / dt
    return g, -g, -1.0


class ReferenceNet:
    def __init__(self, net: ek.EmtNet, dt: float):
        self.net = net
        self.dt = dt
        self.omega = net.omega
        index = {nid: i for i, nid in enumerate(net.nodes)}
        self.n_nodes = n = len(net.nodes)
        ground = n  # sentinel row, held at zero
        self.ef = np.array([index[e.n_from] for e in net.elements], dtype=int)
        self.et = np.array([ground if e.n_to is None else index[e.n_to]
                            for e in net.elements], dtype=int)
        self.g, self.h, self.j = np.array(
            [companion(e.kind, e.value, dt) for e in net.elements]).reshape(-1, 3).T

        eids = [e.eid for e in net.elements]
        known = [index[s.node] for s in net.sources]
        self.known_rms = np.array([s.rms for s in net.sources]
                                  + [m.emf_rms for m in net.machines])
        self.known_angle = np.array([s.angle for s in net.sources]
                                    + [m.delta0 for m in net.machines])
        self.machine_emf_pos = np.arange(len(known), len(known) + len(net.machines))
        known += [index[m.emf_node] for m in net.machines]
        self.known_idx = np.array(known, dtype=int)
        self.machine_branch = np.array([eids.index(m.branch_eid) for m in net.machines],
                                       dtype=int)
        self.machine_swing = np.array([m.inertia_h > 0 for m in net.machines], dtype=bool)
        self.machine_2h = np.array([2.0 * m.inertia_h for m in net.machines])
        self.machine_damping = np.array([m.damping for m in net.machines])
        self.unknown_idx = np.array([i for i in range(n) if i not in set(known)], dtype=int)

        gmat = np.zeros((n + 1, n + 1))
        for k in range(len(net.elements)):
            f, t, gv = self.ef[k], self.et[k], self.g[k]
            gmat[f, f] += gv
            gmat[t, t] += gv
            gmat[f, t] -= gv
            gmat[t, f] -= gv
        u = self.unknown_idx
        self.w_mat = gmat[np.ix_(u, self.known_idx)]
        self.g_red = gmat[np.ix_(u, u)]

    def known_voltages(self, t, scale, machine_delta):
        ang = self.known_angle.copy()
        ang[self.machine_emf_pos] = machine_delta
        arg = self.omega * t + ang[:, None] + ek.PHASE_SHIFT[None, :]
        return ek.SQRT2 * scale * self.known_rms[:, None] * np.cos(arg)

    def step(self, state: ek.EmtState, ramp_steps: int | None) -> ek.EmtState:
        """The state one step after `state`, sources ramped over the first
        ramp_steps steps of the clock (None: at full scale)."""
        dt = self.dt
        t_new = (state.step + 1) * dt
        scale = 1.0 if ramp_steps is None else ramp_profile(state.step + 1, ramp_steps)

        v_pad = np.vstack([state.v_nodes, np.zeros((1, 3))])
        u_now = v_pad[self.ef] - v_pad[self.et]
        i_hist = ((self.h * u_now.T) + (self.j * state.elem_i.T)).T

        inj = np.zeros((self.n_nodes + 1, 3))
        np.add.at(inj, self.ef, -i_hist)
        np.add.at(inj, self.et, i_hist)

        v_k = self.known_voltages(t_new, scale, state.machine_delta)
        v_full = np.zeros((self.n_nodes + 1, 3))
        v_full[self.known_idx] = v_k
        rhs = inj[self.unknown_idx] - self.w_mat @ v_k
        v_full[self.unknown_idx] = np.linalg.solve(self.g_red, rhs)

        u = v_full[self.ef] - v_full[self.et]
        i_new = (self.g * u.T).T + i_hist

        out = state.copy()
        out.step = state.step + 1
        out.v_nodes = v_full[: self.n_nodes]
        out.elem_i = i_new
        out.i_hist = i_hist

        if len(self.machine_branch):
            e_v = v_full[self.known_idx[self.machine_emf_pos]]
            i_m = i_new[self.machine_branch]
            pe = np.sum(e_v * i_m, axis=1) / 3.0
            active = self.machine_swing & (scale >= 1.0) & (self.machine_2h > 0)
            if np.any(active):
                dw = out.machine_speed_dev.copy()
                acc = out.machine_pm - pe - self.machine_damping * dw
                dw = np.where(active, dw + dt * acc / np.where(self.machine_2h > 0,
                                                               self.machine_2h, 1.0), dw)
                out.machine_speed_dev = dw
                out.machine_delta = np.where(
                    active, out.machine_delta + dt * self.omega * dw, out.machine_delta
                )
        return out


def reference_sample(state: ek.EmtState, record: list[str]) -> np.ndarray:
    """Probe values by per-probe lookup, in `ProbeSet` key order."""
    out = []
    for pid in record:
        if pid.startswith("i:"):
            out += list(state.elem_i[state.element_ids.index(pid[2:])])
        else:
            out += list(state.v_nodes[state.node_ids.index(pid)])
    return np.array(out)


def reference_migrate(state: ek.EmtState, net: ek.EmtNet) -> ek.EmtState:
    """Zero-pad the element arrays of a state for elements appended to net."""
    pad = np.zeros((len(net.elements) - len(state.element_ids), 3))
    out = state.copy()
    out.element_ids = tuple(e.eid for e in net.elements)
    out.elem_i = np.vstack([out.elem_i, pad])
    out.i_hist = np.vstack([out.i_hist, pad])
    return out


def reference_run(net: ek.EmtNet, cfg: ek.SimConfig, init: ek.EmtState):
    """cfg.steps steps with its fault on the reference stepper.

    Returns (samples per step, final state, migrated state per fault).
    """
    ref = ReferenceNet(net, cfg.dt)
    state = init.copy()
    pending = [] if cfg.fault is None else [(cfg.fault.step, cfg.fault)]
    rows = [reference_sample(state, cfg.record)]
    migrated = []
    for _ in range(cfg.steps):
        while pending and state.step >= pending[0][0]:
            ev = pending.pop(0)[1]
            net = ek.apply_fault(net, ev.target, ev.r_fault)
            ref = ReferenceNet(net, cfg.dt)
            state = reference_migrate(state, net)
            migrated.append(state)
        state = ref.step(state, cfg.ramp_steps)
        rows.append(reference_sample(state, cfg.record))
    return np.array(rows), state, migrated


def reference_run_until_steady(net: ek.EmtNet, cfg: ek.SimConfig, init: ek.EmtState):
    """The cycle-RMS steadiness loop of `run_until_steady` on the reference
    stepper; returns (state, ready step or None, last cycle samples)."""
    ref = ReferenceNet(net, cfg.dt)
    state = init.copy()
    n_cycle = int(round(net.period / cfg.dt))
    # Armed from the first cycle that starts at or after the ramp's end.
    arm_after = 0 if cfg.ramp_steps is None else math.ceil(cfg.ramp_steps / n_cycle)
    buf = np.zeros((n_cycle, 3 * len(cfg.record)))
    prev_rms, stable_run, fired_at = None, 0, None
    for c in range(cfg.steps // n_cycle):
        for k in range(n_cycle):
            state = ref.step(state, cfg.ramp_steps)
            buf[k] = reference_sample(state, cfg.record)
        if fired_at is not None:
            if c - fired_at >= ek.SETTLE_MARGIN_CYCLES:
                return state, state.step, buf
            continue
        rms = np.sqrt(np.mean(buf**2, axis=0))
        if prev_rms is not None and c >= arm_after:
            change = np.abs(rms - prev_rms) / np.maximum(rms, 1e-6)
            stable_run = stable_run + 1 if float(change.max()) <= ek.RMS_CHANGE_TOL else 0
            if stable_run >= ek.STEADY_CYCLES:
                fired_at = c
        prev_rms = rms
    return state, None, buf
