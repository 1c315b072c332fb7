"""Reference EMT stepper: explicit nodal injection and reduced-matrix solve.

This is the step arithmetic the affine `CompiledNet.step` replaced, kept
as an oracle for equivalence tests.  Per step it scatters the companion
history currents into nodal injections with `np.add.at`, pins the known
nodes, and solves the unknown nodes with the inverted reduced conductance
matrix G_uu^-1 (inj_u - W v_k).
"""

import numpy as np

import emtgis.emtkernel as ek


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
        models = [ek.companion_coefficients(e.kind, e.value, dt) for e in net.elements]
        self.g = np.array([m.g_coef for m in models])
        self.h = np.array([m.h_coef for m in models])
        self.j = np.array([m.j_coef for m in models])

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
        self.machine_swing = np.array([m.swing for m in net.machines], dtype=bool)
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
        self.g_red_inv = np.linalg.inv(gmat[np.ix_(u, u)])

    def known_voltages(self, t, scale, machine_delta, machine_emf):
        rms = self.known_rms.copy()
        ang = self.known_angle.copy()
        rms[self.machine_emf_pos] = machine_emf
        ang[self.machine_emf_pos] = machine_delta
        arg = self.omega * t + ang[:, None] + ek.PHASE_SHIFT[None, :]
        return ek.SQRT2 * scale * rms[:, None] * np.cos(arg)

    def step(self, state: ek.EmtState, ramp: bool, t_ramp: float) -> ek.EmtState:
        dt = self.dt
        t_new = (state.step + 1) * dt
        scale = ek.ramp_profile(t_new, t_ramp) if ramp else 1.0

        v_pad = np.vstack([state.v_nodes, np.zeros((1, 3))])
        u_now = v_pad[self.ef] - v_pad[self.et]
        i_hist = ((self.h * u_now.T) + (self.j * state.elem_i.T)).T

        inj = np.zeros((self.n_nodes + 1, 3))
        np.add.at(inj, self.ef, -i_hist)
        np.add.at(inj, self.et, i_hist)

        v_k = self.known_voltages(t_new, scale, state.machine_delta, state.machine_emf)
        v_full = np.zeros((self.n_nodes + 1, 3))
        v_full[self.known_idx] = v_k
        rhs = inj[self.unknown_idx] - self.w_mat @ v_k
        v_full[self.unknown_idx] = self.g_red_inv @ rhs

        u = v_full[self.ef] - v_full[self.et]
        i_new = (self.g * u.T).T + i_hist

        out = state.copy()
        out.step = state.step + 1
        out.v_nodes = v_full[: self.n_nodes]
        out.elem_i = i_new
        out.hist_u = u_now
        out.hist_i = state.elem_i.copy()
        out.source_scale = np.full_like(state.source_scale, scale)

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
