"""Desk-scale EMT kernel.

Fixed-step trapezoidal companion models assembled into a nodal conductance
matrix, solved per step for three decoupled phases (balanced operation,
sources shifted by +-120 degrees).  Ideal voltage sources and machine
internal EMF nodes are handled as known-voltage nodes.

Between topology changes the network is linear and time-invariant, and
its only memory is the companion history current of each inductor and
capacitor (Dommel's companion method in discrete state-space form).  With
D the signed element-node incidence matrix, so that element voltages are
u = D v, the step

    ih = h*u + j*i                    history currents, zero on resistors
    v' = P [ih; v_k]                  node voltages, v_k the known nodes
    i' = g*(D v') + ih

makes the node voltages and element currents x' = [v'; i'] outputs of ih
and of the known voltages: x' = W ih + F s(t) r(t) + B_e e_v, where r =
[cos(wt + phase); sin(wt + phase)] per phase and s(t) is the source ramp.
Every source enters through the two fixed columns of F by the
angle-addition identity, the swinging machines' EMFs e_v through B_e.  So
the kernel steps ih alone, one row per L/C element, and x is an output
map O of the step buffer, not part of it.

The oscillator joins the state: r advances by the fixed rotation R by w*dt,
and during the linear ramp s = n*dt/t_ramp the product q = n*r advances by
q' = R (q + r), so the source input (dt/t_ramp) q is linear too.  A machine
whose rotor is fixed (every machine during the ramp, a non-swinging one
always) is a source at its own angle and folds into F.  One step is then
one product z' = T z of the buffer z = [ih; q; r; e_v], with one map T
for the ramp and one after it; only a swinging machine after the ramp
still writes its EMF row and updates its swing per step, from its branch
current, which T leaves in the same row.

`CompiledNet` builds the network part once per topology and the maps once
per stepping loop.  The loops (`run`, `run_until_steady`) step through a
cycle-long stack of buffers, compute the cycle's probe samples in one
product with the probes' rows of O, and re-anchor r and q from the clock
at each cycle start, so the rotation's rounding drift never spans more
than one cycle.  They build an `EmtState` only at their edges: on return,
and at a fault event, where the state migrates onto the faulted topology.

Instantaneous per-unit convention: phasor magnitudes are RMS, instantaneous
peaks are sqrt(2) times RMS.
"""

from __future__ import annotations

import cmath
import math
import struct
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import (
    IncompatibleSnapshot,
    InvalidParameter,
    SingularConductance,
    UnknownBus,
    UnknownProbe,
)

SQRT2 = math.sqrt(2.0)
PHASE_SHIFT = np.array([0.0, -2.0 * math.pi / 3.0, 2.0 * math.pi / 3.0])
COS120, SIN120 = -0.5, math.sqrt(3.0) / 2.0
PHASE_NAMES = ("a", "b", "c")


class ElementKind(str, Enum):
    RESISTOR = "Resistor"
    INDUCTOR = "Inductor"
    CAPACITOR = "Capacitor"
    SOURCE = "Source"


@dataclass(frozen=True)
class CompanionModel:
    """Discrete-time equivalent i(t) = G u(t) + H u(t-dt) + J i(t-dt)."""

    kind: ElementKind
    g_coef: float
    h_coef: float
    j_coef: float


def companion_coefficients(kind: ElementKind, value: float, dt: float) -> CompanionModel:
    """Trapezoidal companion coefficients for one element."""
    if dt <= 0.0:
        raise InvalidParameter("dt must be positive")
    if kind is ElementKind.SOURCE:
        return CompanionModel(kind, 0.0, 0.0, 0.0)
    if value <= 0.0:
        raise InvalidParameter(f"{kind.value} parameter must be positive, got {value}")
    if kind is ElementKind.RESISTOR:
        return CompanionModel(kind, 1.0 / value, 0.0, 0.0)
    if kind is ElementKind.INDUCTOR:
        g = dt / (2.0 * value)
        return CompanionModel(kind, g, g, 1.0)
    g = 2.0 * value / dt
    return CompanionModel(kind, g, -g, -1.0)


def effective_admittance(model: CompanionModel, omega: float, dt: float) -> complex:
    """Admittance seen by a pure discrete sinusoid at omega.

    Derived from the companion recursion with v, i sampled sinusoids;
    initializing states from these values puts the kernel exactly on its
    discrete periodic steady state.
    """
    z = cmath.exp(-1j * omega * dt)
    return (model.g_coef + model.h_coef * z) / (1.0 - model.j_coef * z)


def continuous_admittance(kind: ElementKind, value: float, omega: float) -> complex:
    if kind is ElementKind.RESISTOR:
        return 1.0 / value
    if kind is ElementKind.INDUCTOR:
        return 1.0 / (1j * omega * value)
    return 1j * omega * value


def ramp_profile(t: float, t_ramp: float) -> float:
    """Linear source ramp: 0 for t <= 0, t/t_ramp inside, 1 after."""
    if t_ramp <= 0.0:
        raise InvalidParameter("t_ramp must be positive")
    if t <= 0.0:
        return 0.0
    if t >= t_ramp:
        return 1.0
    return t / t_ramp


# --- network description ------------------------------------------------------


@dataclass(frozen=True)
class Element:
    """Two-terminal R/L/C between nodes; n_to None means ground."""

    eid: str
    kind: ElementKind
    n_from: str
    n_to: str | None
    value: float


@dataclass(frozen=True)
class Source:
    """Ideal grounded voltage source pinning its node."""

    sid: str
    node: str
    rms: float
    angle: float


@dataclass(frozen=True)
class Machine:
    """Classical machine: EMF behind transient reactance with swing dynamics.

    The EMF node and series inductor are explicit members of the network;
    this record carries their ids plus the mechanical state parameters.
    delta0/emf_rms/pm are the build-time operating point; the dynamic copy
    lives in EmtState.
    """

    mid: str
    bus: str
    emf_node: str
    branch_eid: str
    xd: float
    inertia_h: float
    damping: float
    emf_rms: float
    delta0: float
    pm: float
    swing: bool = True


@dataclass(frozen=True)
class EmtNet:
    name: str
    frequency_hz: float
    nodes: tuple[str, ...]
    elements: tuple[Element, ...]
    sources: tuple[Source, ...]
    machines: tuple[Machine, ...] = ()

    @property
    def omega(self) -> float:
        return 2.0 * math.pi * self.frequency_hz

    @property
    def period(self) -> float:
        return 1.0 / self.frequency_hz

    def with_sources_zeroed(self) -> "EmtNet":
        return replace(self, sources=tuple(replace(s, rms=0.0) for s in self.sources))


def apply_fault(net: EmtNet, bus: str, r_fault: float) -> EmtNet:
    """Three-phase-to-ground fault: a shunt fault resistance to ground on
    all three phases at a node.

    An infinite fault resistance is the no-fault identity.
    """
    if bus not in net.nodes:
        raise UnknownBus(f"fault target '{bus}' is not a network node")
    if math.isinf(r_fault):
        return net
    if r_fault <= 0.0:
        raise InvalidParameter("fault resistance must be positive or infinite")
    fault = Element(f"fault:{bus}", ElementKind.RESISTOR, bus, None, r_fault)
    return replace(net, elements=net.elements + (fault,))


# --- events and run configuration ----------------------------------------------


@dataclass(frozen=True)
class SimEvent:
    time: float
    kind: str               # only "fault" is defined
    target: str
    r_fault: float = 1e-6


@dataclass
class SimConfig:
    dt: float
    duration: float
    record: list[str] = field(default_factory=list)
    events: list[SimEvent] = field(default_factory=list)
    ramp_sources: bool = False
    t_ramp: float = 0.5
    rms_change_tol: float = 5e-4    # per-cycle relative RMS change for steadiness
    steady_cycles: int = 3          # consecutive stable cycle-to-cycle changes
    settle_margin_cycles: int = 5   # extra cycles after detection before capture

    def __post_init__(self):
        for name in ("dt", "t_ramp"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise InvalidParameter(f"{name} must be finite and positive, got {value}")
        if not (math.isfinite(self.duration) and self.duration >= 0.0):
            raise InvalidParameter(
                f"duration must be finite and not negative, got {self.duration}")
        times = [e.time for e in self.events]
        if times != sorted(times):
            raise InvalidParameter("events must be sorted by time")


# --- simulation state -----------------------------------------------------------


@dataclass
class EmtState:
    """Complete instantaneous state of one network at one step.

    v_nodes/elem_i are the instantaneous values at the stamped time;
    hist_u/hist_i are the per-element histories one step behind it, so the
    companion relation i = G u + H hist_u + J hist_i holds exactly at every
    stamped state (element voltages u recompute from v_nodes).
    """

    step: int
    dt: float
    node_ids: tuple[str, ...]
    element_ids: tuple[str, ...]
    source_ids: tuple[str, ...]
    machine_ids: tuple[str, ...]
    v_nodes: np.ndarray        # (n_nodes, 3)
    elem_i: np.ndarray         # (n_elements, 3) element current at t
    hist_u: np.ndarray         # (n_elements, 3) element voltage at t - dt
    hist_i: np.ndarray         # (n_elements, 3) element current at t - dt
    machine_delta: np.ndarray
    machine_speed_dev: np.ndarray
    machine_emf: np.ndarray
    machine_pm: np.ndarray
    source_scale: np.ndarray

    @property
    def time(self) -> float:
        return self.step * self.dt

    def copy(self) -> "EmtState":
        return EmtState(
            self.step, self.dt, self.node_ids, self.element_ids,
            self.source_ids, self.machine_ids,
            self.v_nodes.copy(), self.elem_i.copy(), self.hist_u.copy(),
            self.hist_i.copy(), self.machine_delta.copy(),
            self.machine_speed_dev.copy(), self.machine_emf.copy(),
            self.machine_pm.copy(), self.source_scale.copy(),
        )


# --- compiled network ------------------------------------------------------------


def zero_state(net: EmtNet, dt: float) -> EmtState:
    """De-energized state of a network at step 0; machines at their
    build-time angle, EMF and mechanical power."""
    ne, nm, ns = len(net.elements), len(net.machines), len(net.sources)
    return EmtState(
        step=0,
        dt=dt,
        node_ids=net.nodes,
        element_ids=tuple(e.eid for e in net.elements),
        source_ids=tuple(s.sid for s in net.sources),
        machine_ids=tuple(m.mid for m in net.machines),
        v_nodes=np.zeros((len(net.nodes), 3)),
        elem_i=np.zeros((ne, 3)),
        hist_u=np.zeros((ne, 3)),
        hist_i=np.zeros((ne, 3)),
        machine_delta=np.array([m.delta0 for m in net.machines], dtype=float),
        machine_speed_dev=np.zeros(nm),
        machine_emf=np.array([m.emf_rms for m in net.machines], dtype=float),
        machine_pm=np.array([m.pm for m in net.machines], dtype=float),
        source_scale=np.zeros(ns),
    )


class CompiledNet:
    """The step of one network at one dt as one square linear map on the
    history currents.

    Per phase, the network's only memory is the history current ih =
    h*(D v) + j*i of each inductor and capacitor (n_lc of them; a
    resistor's is zero).  The node voltages and element currents x = [v; i]
    of the next step are outputs of it and of the known voltages:

        x' = W ih + F s r' + B_e e_v

    * W = [P_h; g*(D P_h) + I] on the L/C columns: the node solve v' =
      P_h ih + P_k v_k and the element currents i' = g*(D v') + ih.
    * F = [f_c f_s] carries every source through the angle-addition
      identity: a source of peak a and angle t pins a*cos(t) r_c -
      a*sin(t) r_s.  `buffers` folds the machines whose rotors are fixed
      into F the same way, at the state's own angle and EMF.
    * B_e carries the EMFs of the swinging machines, whose angles move.

    The step state z stacks ih, then two rows q = n*r, then the oscillator
    r = [cos(wt + phase); sin(wt + phase)] at step n, then one row per
    swinging machine: `rows` = n_lc + 4 + n_swinging rows per phase.  With
    r' = R r, R the rotation by w*dt, x' is the output map O applied to z,

        ramp (s < 1):  O = [W, k F_all R, k F_all R, 0],  k = dt/t_ramp
        after it:      O = [W, 0, F_fixed R, B_e]

    where F_all folds every machine (no rotor moves during the ramp) and
    F_fixed only the non-swinging ones.  A step is z' = T z with

        T = [[H O], [0, R, R, 0] (ramp) or 0, [0, 0, R, 0], [O_m]]

    H the L/C rows of the history map [h*D, diag(j)] and O_m the rows of O
    that give the swinging machines' branch currents.  So a machine's row
    holds its EMF e_v at the next step when the step reads it (the step
    writes it before the product) and its branch current after it, which
    the swing update reads.  `anchor` sets r and q from the clock.

    A step buffer holds z with one phase per row, shape (3, rows), so a
    step is out = x T^T, and a stack of buffers is, per phase, one matrix
    for the probes' product.  Only the loop edges need x: the x of step n
    is O z of the buffer at step n - 1, after its EMF rows are written.
    `ProbeSet.sample` applies the probes' rows of O to a stack of buffers,
    and `state` rebuilds x and the histories from the buffers one and two
    steps back.

    `incidence` is D (n_elements x n_nodes), +1 at an element's from-node
    and -1 at its to-node.  P = [P_h | P_k] is built in node order: an
    unknown node's row holds G_uu^-1 (-A_u) and -G_uu^-1 W_uk, with A_u =
    D^T restricted to the unknown nodes and W_uk the unknown-known block of
    the nodal conductance matrix D^T diag(g) D; a known node's row holds a
    1 in the column of its source.  Known nodes are the source nodes in
    order, then the machine EMF nodes.
    """

    def __init__(self, net: EmtNet, dt: float):
        self.net = net
        self.dt = dt
        self.omega = net.omega
        self.node_index = {nid: i for i, nid in enumerate(net.nodes)}
        self.n_nodes = nn = len(net.nodes)
        self.element_ids = eids = tuple(e.eid for e in net.elements)
        ne = len(eids)
        self.size = nn + ne

        # Companion coefficients, repeated over the three phases: (ne, 3).
        models = [companion_coefficients(e.kind, e.value, dt) for e in net.elements]
        g = np.array([m.g_coef for m in models], dtype=float)
        h = np.array([m.h_coef for m in models], dtype=float)
        j = np.array([m.j_coef for m in models], dtype=float)
        self.g = np.outer(g, np.ones(3))
        self.h = np.outer(h, np.ones(3))
        self.j = np.outer(j, np.ones(3))

        d = np.zeros((ne, nn))
        for k, e in enumerate(net.elements):
            d[k, self.node_index[e.n_from]] += 1.0
            if e.n_to is not None:
                d[k, self.node_index[e.n_to]] -= 1.0
        self.incidence = d

        known = [self.node_index[s.node] for s in net.sources]
        known += [self.node_index[m.emf_node] for m in net.machines]
        known_set = set(known)
        unknown = [i for i in range(nn) if i not in known_set]
        p = np.zeros((nn, ne + len(known)))
        if unknown:
            d_u = d[:, unknown]
            g_uu = d_u.T @ (g[:, None] * d_u)
            w = d_u.T @ (g[:, None] * d[:, known])
            try:
                p[unknown] = np.linalg.solve(g_uu, -np.hstack([d_u.T, w]))
            except np.linalg.LinAlgError as exc:
                raise SingularConductance(
                    f"reduced conductance matrix of '{net.name}' is singular"
                ) from exc
        for c, node in enumerate(known):
            p[node] = 0.0  # a node pinned twice follows its last source
            p[node, ne + c] = 1.0

        # ih = H x on the L/C elements; x' = W ih + B v_k.
        lc = [k for k, e in enumerate(net.elements)
              if e.kind in (ElementKind.INDUCTOR, ElementKind.CAPACITOR)]
        self.n_lc = len(lc)
        self.hist = np.hstack([h[:, None] * d, np.diag(j)])[lc]
        p_h, p_k = p[:, lc], p[:, ne:]
        self.w = np.vstack([p_h, g[:, None] * (d @ p_h) + np.eye(ne)[:, lc]])
        b = np.vstack([p_k, g[:, None] * (d @ p_k)])
        ns = len(net.sources)
        peak = SQRT2 * np.array([s.rms for s in net.sources])
        angle = np.array([s.angle for s in net.sources])
        self.f = np.column_stack([b[:, :ns] @ (peak * np.cos(angle)),
                                  -(b[:, :ns] @ (peak * np.sin(angle)))])
        self.b_machines = b[:, ns:]
        wdt = self.omega * dt
        self.rotation = np.array([[math.cos(wdt), -math.sin(wdt)],
                                  [math.sin(wdt), math.cos(wdt)]])

        # Swing: dw' = dw + dt/2H (pm - pe - D dw), delta' = delta + dt w dw'
        # on the active machines, as (machine, buffer row, dt/2H, D, dt w);
        # the row is the machine's own, behind the oscillator.
        self.n_machines = len(net.machines)
        active = [(k, m) for k, m in enumerate(net.machines)
                  if m.swing and m.inertia_h > 0]
        self.swinging = [(k, self.n_lc + 4 + c, dt / (2.0 * m.inertia_h),
                          m.damping, dt * self.omega)
                         for c, (k, m) in enumerate(active)]
        self.branch_rows = [nn + eids.index(m.branch_eid) for _, m in active]
        self.rows = self.n_lc + 4 + len(active)
        # All set by `buffers`, for the loop from its state on.  The step
        # maps are stored as T^T, the form `step` multiplies by.
        self.ramp_map: np.ndarray | None = None
        self.post_map: np.ndarray | None = None
        self.outputs: tuple[np.ndarray, np.ndarray] | None = None  # O ramp, after
        self.t_ramp: float | None = None
        self.ramp_end = 0
        self._start: tuple[int, np.ndarray] | None = None

    # --- states at the edges of a stepping loop -----------------------------

    def check_compatible(self, state: EmtState) -> None:
        if state.node_ids != self.net.nodes:
            raise IncompatibleSnapshot("node set differs from network")
        if state.element_ids != self.element_ids:
            raise IncompatibleSnapshot("element set differs from network")
        if abs(state.dt - self.dt) > 1e-18:
            raise IncompatibleSnapshot(
                f"snapshot dt {state.dt} differs from configured dt {self.dt}"
            )

    def migrate_state(self, state: EmtState) -> EmtState:
        """Carry a state onto this topology after appended elements (faults)."""
        have = len(state.element_ids)
        want = len(self.element_ids)
        if self.element_ids[:have] != state.element_ids or want < have:
            raise IncompatibleSnapshot("topology change is not an element append")
        extra = want - have
        pad = np.zeros((extra, 3))
        out = state.copy()
        out.element_ids = self.element_ids
        out.elem_i = np.vstack([out.elem_i, pad])
        out.hist_u = np.vstack([out.hist_u, pad])
        out.hist_i = np.vstack([out.hist_i, pad])
        return out

    def buffers(self, state: EmtState, t_ramp: float | None = None
                ) -> tuple[np.ndarray, np.ndarray, list[list[float]]]:
        """Two step buffers, the first holding the state's history currents
        and its anchored oscillator, and one [delta, speed_dev, emf, pm]
        list per machine.  A buffer holds one phase per row.

        Also builds the step and output maps for this state's rotor angles
        and EMFs and for sources that ramp linearly over t_ramp seconds
        from t = 0 (None: sources at full scale throughout); they serve
        the steps from this state on, up to the next `buffers` call.
        """
        x = np.vstack([state.v_nodes, state.elem_i])
        z = np.zeros((3, self.rows))
        z[:, :self.n_lc] = (self.hist @ x).T
        self.anchor(z, state.step)
        self._start = (state.step, x)
        self.t_ramp = t_ramp
        self.ramp_end = 0 if t_ramp is None else _first_full_step(t_ramp, self.dt)
        self._build_maps(state)
        machines = np.array([state.machine_delta, state.machine_speed_dev,
                             state.machine_emf, state.machine_pm], dtype=float)
        return z, np.zeros_like(z), machines.reshape(4, self.n_machines).T.tolist()

    def _build_maps(self, state: EmtState) -> None:
        """T and O during the ramp and after it (see the class docstring);
        without a ramp, both pairs are the maps after it."""
        m, rot = self.n_lc, self.rotation
        # A machine at rotor angle d is a source of peak sqrt2*emf and angle
        # d: sqrt2 emf cos(wt + d) = sqrt2 emf (cos d r_c - sin d r_s).
        b_peak = self.b_machines * (SQRT2 * state.machine_emf)
        emf_cols = np.stack([b_peak * np.cos(state.machine_delta),
                             -b_peak * np.sin(state.machine_delta)], axis=-1)
        swinging = [k for k, *_ in self.swinging]
        fixed = np.ones(self.n_machines, dtype=bool)
        fixed[swinging] = False

        post = np.zeros((self.size, self.rows))
        post[:, :m] = self.w
        post[:, m + 2:m + 4] = (self.f + emf_cols[:, fixed].sum(axis=1)) @ rot
        post[:, m + 4:] = self.b_machines[:, swinging]
        self.outputs = (post, post)
        self.ramp_map = self.post_map = self._step_map(post).T
        if self.t_ramp is not None:
            ramp = np.zeros_like(post)
            ramp[:, :m] = self.w
            ramp[:, m:m + 2] = ramp[:, m + 2:m + 4] = (
                (self.dt / self.t_ramp) * ((self.f + emf_cols.sum(axis=1)) @ rot))
            t = self._step_map(ramp)
            t[m:m + 2, m:m + 2] = t[m:m + 2, m + 2:m + 4] = rot
            self.outputs = (ramp, post)
            self.ramp_map = t.T

    def _step_map(self, out: np.ndarray) -> np.ndarray:
        """T for the output map `out`, less the ramp's q rows."""
        m = self.n_lc
        t = np.zeros((self.rows, self.rows))
        t[:m] = self.hist @ out
        t[m + 2:m + 4, m + 2:m + 4] = self.rotation
        t[m + 4:] = out[self.branch_rows]
        return t

    def anchor(self, x: np.ndarray, step: int) -> None:
        """Set the oscillator rows of the state in buffer x from the clock
        at `step`: r = [cos(wt + phase); sin(wt + phase)] and q = step*r."""
        # Phases a, b, c sit at 0, -120, +120 degrees (PHASE_SHIFT); b and c
        # by angle addition: cos(t -+ 120) = cos t COS120 +- sin t SIN120,
        # sin(t -+ 120) = sin t COS120 -+ cos t SIN120.
        n = self.n_lc
        wt = self.omega * (step * self.dt)
        c, s = math.cos(wt), math.sin(wt)
        x[:, n + 2] = c, COS120 * c + SIN120 * s, COS120 * c - SIN120 * s
        x[:, n + 3] = s, COS120 * s - SIN120 * c, COS120 * s + SIN120 * c
        np.multiply(x[:, n + 2:n + 4], step, out=x[:, n:n + 2])

    def scale(self, step: int) -> float:
        """The source scale at `step` of the loop `buffers` set up."""
        return 1.0 if step >= self.ramp_end else ramp_profile(step * self.dt, self.t_ramp)

    def output(self, z: np.ndarray, step: int) -> np.ndarray:
        """[v; i] at `step` from the buffer one step behind it."""
        return self.outputs[step >= self.ramp_end].dot(z.T)

    def state(self, z: np.ndarray, z_prev: np.ndarray, step: int,
              machines: list[list[float]]) -> EmtState:
        """The state at `step` from the buffers one step (z) and two steps
        (z_prev) behind it.

        At the first step of a loop, the state `buffers` started from
        stands in for z_prev's output.  The element currents are
        recomputed from the histories in companion form, so
        `companion_replay` reproduces them bit for bit.  The state shares
        no array with the buffers.
        """
        nn, net = self.n_nodes, self.net
        x = self.output(z, step)
        start, x_start = self._start
        prev = x_start if step - 1 == start else self.output(z_prev, step - 1)
        hist_i = prev[nn:].copy()
        delta, dw, emf, pm = np.array(machines, dtype=float).reshape(-1, 4).T.copy()
        state = EmtState(
            step, self.dt, net.nodes, self.element_ids,
            tuple(s.sid for s in net.sources), tuple(m.mid for m in net.machines),
            x[:nn].copy(), np.empty_like(hist_i), self.incidence.dot(prev[:nn]), hist_i,
            delta, dw, emf, pm, np.full(len(net.sources), self.scale(step)),
        )
        state.elem_i = companion_replay(self, state)
        return state

    # --- stepping -----------------------------------------------------------

    def step(self, x: np.ndarray, out: np.ndarray, step: int, scale: float,
             machines: list[list[float]]) -> None:
        """Advance buffer x one dt to `step`, writing the new buffer into out.

        During the ramp (scale < 1), and after it on a net without a
        swinging machine, this is the one product out = x T^T.  After the
        ramp, the swinging machines first write their EMF rows of z in x
        for the new time and advance in place after the product, from
        their branch currents in the same rows of z in out.  Those rows
        are few, so they are computed on plain floats: a numpy call would
        cost more than the arithmetic.
        """
        if scale < 1.0:
            np.dot(x, self.ramp_map, out=out)
            return
        if not self.swinging:
            np.dot(x, self.post_map, out=out)
            return
        wt = self.omega * (step * self.dt)
        emfs = []
        for k, row, *_ in self.swinging:
            delta, _, emf, _ = machines[k]
            amp, theta = SQRT2 * emf, wt + delta
            c, s = amp * math.cos(theta), amp * math.sin(theta)
            e_v = (c, COS120 * c + SIN120 * s, COS120 * c - SIN120 * s)
            x[:, row] = e_v
            emfs.append(e_v)
        np.dot(x, self.post_map, out=out)
        for (k, row, speed_gain, damping, angle_gain), (ea, eb, ec) in zip(self.swinging,
                                                                           emfs):
            m = machines[k]
            delta, dw, _, pm = m
            ia, ib, ic = out[:, row].tolist()
            pe = (ea * ia + eb * ib + ec * ic) / 3.0
            dw = dw + speed_gain * (pm - pe - damping * dw)
            m[0], m[1] = delta + angle_gain * dw, dw


def _first_full_step(t_ramp: float, dt: float) -> int:
    """The first step whose time reaches t_ramp, where `ramp_profile` gives
    1.0; every earlier step is scaled below it."""
    n = math.ceil(t_ramp / dt)
    while n * dt < t_ramp:
        n += 1
    while (n - 1) * dt >= t_ramp:
        n -= 1
    return n


# --- probes and waveform recording -----------------------------------------------


class ProbeSet:
    """Resolved probe ids: node voltages and element currents, all phases.

    Every probe is one row of [v; i], the node voltages stacked on the
    element currents, so its samples are that row of the compiled net's
    output map applied to step buffers (see `CompiledNet`).
    """

    def __init__(self, compiled: CompiledNet, record: list[str]):
        self.compiled = compiled
        self.keys: list[str] = []
        eids = [e.eid for e in compiled.net.elements]
        rows: list[int] = []
        for pid in record:
            if pid.startswith("i:"):
                eid = pid[2:]
                if eid not in eids:
                    raise UnknownProbe(f"no element '{eid}' to record current from")
                rows.append(compiled.n_nodes + eids.index(eid))
            else:
                if pid not in compiled.node_index:
                    raise UnknownProbe(f"no node '{pid}' to record voltage from")
                rows.append(compiled.node_index[pid])
            self.keys += [f"{pid}.{name}" for name in PHASE_NAMES]
        self.rows = np.array(rows, dtype=int)

    def read(self, state: EmtState) -> np.ndarray:
        """The probe values of a state, one per key."""
        return np.vstack([state.v_nodes, state.elem_i])[self.rows].ravel()

    def sample(self, stack: np.ndarray, out: np.ndarray | None = None,
               ramp_steps: int = 0) -> np.ndarray:
        """The probe values at the steps after a stack of buffers (steps, 3,
        rows), one row per key and one column per buffer, written into out
        when given; of a single buffer (3, rows), one value per key.

        The first `ramp_steps` buffers step into the ramp, the others after
        it.  Each part is one product per phase with the probes' rows of
        that output map, written straight into the rows of that phase's
        keys.
        """
        if stack.ndim == 2:
            return self.sample(stack[None], None, ramp_steps)[:, 0]
        if out is None:
            out = np.empty((len(self.keys), len(stack)))
        for part, o in ((slice(None, ramp_steps), self.compiled.outputs[0]),
                        (slice(ramp_steps, None), self.compiled.outputs[1])):
            if len(stack[part]):
                o_p = o[self.rows]
                for ph in range(3):
                    np.matmul(o_p, stack[part, ph].T, out=out[ph::3, part])
        return out


@dataclass
class WaveformSet:
    times: np.ndarray
    data: dict[str, np.ndarray]

    def cycle_rms(self, key: str, samples_per_cycle: int, last_only: bool = True):
        y = self.data[key]
        usable = (len(y) - 1) // samples_per_cycle * samples_per_cycle
        cycles = y[len(y) - usable:].reshape(-1, samples_per_cycle)
        rms = np.sqrt(np.mean(cycles**2, axis=1))
        return rms[-1] if last_only else rms


def _whole_cycles(t: float, period: float, up: bool = False) -> int:
    """Whole periods in t, rounded down (up with `up`).

    A quotient within 1e-9 of a whole number counts as that number, as in
    `snapshot._exact_steps`: 2.3 s / 0.02 s evaluates to 114.99999999999999,
    which is 115 cycles, and 0.14 s / 0.02 s to 7.000000000000001, which
    is 7.
    """
    q = t / period
    return math.ceil(q - 1e-9) if up else math.floor(q + 1e-9)


def _buffer_stack(compiled: CompiledNet, state: EmtState, length: int, cfg: SimConfig,
                  ) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]],
                             list[list[float]]]:
    """`length` + 2 step buffers stacked: slot 1 holds the state, and slot
    0 the buffer one step before slot 1 once a loop carries it over; the
    (buffer, next buffer) view pairs a loop steps through from slot 1; the
    machines."""
    z, _, machines = compiled.buffers(state, cfg.t_ramp if cfg.ramp_sources else None)
    stack = np.zeros((length + 2,) + z.shape)
    stack[1] = z
    views = list(stack)
    return stack, list(zip(views[1:-1], views[2:])), machines


def run(net: EmtNet, cfg: SimConfig, init: EmtState | None = None
        ) -> tuple[WaveformSet, EmtState]:
    """Fixed-duration simulation with event handling and probe recording.

    Steps a cycle at a time through a stack of buffers, re-anchoring the
    oscillator at each chunk start and computing the chunk's probe samples
    in one product.  A chunk ends early at a fault event, where an EmtState
    is built to migrate onto the faulted topology; otherwise one is built
    only on return.  The traces are recorded probe-major, so each waveform
    is a row of one array.
    """
    compiled = CompiledNet(net, cfg.dt)
    state = zero_state(net, cfg.dt) if init is None else init.copy()
    compiled.check_compatible(state)

    n_steps = int(round(cfg.duration / cfg.dt))
    start_step = state.step
    events = sorted(cfg.events, key=lambda e: e.time)
    event_steps = [int(round(e.time / cfg.dt)) for e in events]
    for e in events:
        if e.kind != "fault":
            raise InvalidParameter(f"unknown event kind '{e.kind}'")
        if e.target not in net.nodes:
            raise UnknownBus(f"event targets unknown node '{e.target}'")

    probes = ProbeSet(compiled, cfg.record)
    times = (start_step + np.arange(n_steps + 1)) * cfg.dt
    traces = np.zeros((len(probes.keys), n_steps + 1))
    traces[:, 0] = probes.read(state)
    # One cycle per chunk; a DC net has no cycle and no rotation to drift.
    cycle = int(round(net.period / cfg.dt)) if net.frequency_hz > 0 else n_steps
    chunk = max(1, min(cycle, n_steps))
    stack, pairs, machines = _buffer_stack(compiled, state, chunk, cfg)

    n, dt, t_ramp = start_step, cfg.dt, cfg.t_ramp
    pos = 1  # stack index of the buffer at step n
    next_event = 0
    current_net = net
    while n - start_step < n_steps:
        while next_event < len(events) and n >= event_steps[next_event]:
            ev = events[next_event]
            if n > state.step:
                state = compiled.state(stack[pos - 1], stack[pos - 2], n, machines)
            current_net = apply_fault(current_net, ev.target, ev.r_fault)
            compiled = CompiledNet(current_net, cfg.dt)
            state = compiled.migrate_state(state)
            stack, pairs, machines = _buffer_stack(compiled, state, chunk, cfg)
            probes = ProbeSet(compiled, cfg.record)
            pos = 1
            next_event += 1
        done = n - start_step
        length = min(chunk, n_steps - done)
        if next_event < len(events):
            length = min(length, event_steps[next_event] - n)
        if pos > 1:
            stack[:2] = stack[pos - 1:pos + 1]
        compiled.anchor(stack[1], n)
        step, ramp_end = compiled.step, compiled.ramp_end
        ramp_steps = min(max(ramp_end - n - 1, 0), length)
        for x, out in pairs[:length]:
            n += 1
            scale = 1.0 if n >= ramp_end else ramp_profile(n * dt, t_ramp)
            step(x, out, n, scale, machines)
        probes.sample(stack[1:length + 1], traces[:, done + 1:done + length + 1],
                      ramp_steps)
        pos = length + 1

    if n > state.step:
        state = compiled.state(stack[pos - 1], stack[pos - 2], n, machines)
    return WaveformSet(times, dict(zip(probes.keys, traces))), state


def run_until_steady(net: EmtNet, cfg: SimConfig, init: EmtState | None = None,
                     ) -> tuple[EmtState, int | None, np.ndarray, list[str]]:
    """Step cycle-by-cycle until every probe's cycle RMS stops changing.

    Steadiness: `steady_cycles` consecutive cycle-over-cycle relative RMS
    changes below `rms_change_tol` on every probe (detector armed only
    after a ramp completes).  After detection, `settle_margin_cycles` more
    cycles run before the state is returned, and the samples of the final
    full cycle come back for phasor extraction.  Each cycle steps through
    a cycle-long stack of buffers from an oscillator re-anchored at its
    start, and computes its samples in one product.

    Returns (state, ready_step or None, last cycle samples one row per
    step, probe keys).
    """
    compiled = CompiledNet(net, cfg.dt)
    state = zero_state(net, cfg.dt) if init is None else init.copy()
    compiled.check_compatible(state)

    n_cycle = int(round(net.period / cfg.dt))
    if abs(n_cycle * cfg.dt - net.period) > 1e-9 * net.period or n_cycle < 4:
        raise InvalidParameter("period must be an integer multiple of dt")
    probes = ProbeSet(compiled, cfg.record)
    max_cycles = _whole_cycles(cfg.duration, net.period)
    arm_after = _whole_cycles(cfg.t_ramp, net.period, up=True) if cfg.ramp_sources else 0

    buf = np.zeros((len(probes.keys), n_cycle))
    prev_rms: np.ndarray | None = None
    stable_run = 0
    fired_at: int | None = None
    stack, pairs, machines = _buffer_stack(compiled, state, n_cycle, cfg)
    step, ramp_end = compiled.step, compiled.ramp_end
    n, dt, t_ramp = state.step, cfg.dt, cfg.t_ramp
    ready: int | None = None

    for c in range(max_cycles):
        if c:
            stack[:2] = stack[n_cycle:]
        compiled.anchor(stack[1], n)
        ramp_steps = min(max(ramp_end - n - 1, 0), n_cycle)
        for x, out in pairs:
            n += 1
            scale = 1.0 if n >= ramp_end else ramp_profile(n * dt, t_ramp)
            step(x, out, n, scale, machines)
        probes.sample(stack[1:n_cycle + 1], buf, ramp_steps)
        if fired_at is not None:
            if c - fired_at >= cfg.settle_margin_cycles:
                ready = n
                break
            continue
        rms = np.sqrt(np.mean(buf**2, axis=1))
        if prev_rms is not None and c >= arm_after:
            change = np.abs(rms - prev_rms) / np.maximum(rms, 1e-6)
            stable_run = stable_run + 1 if float(change.max()) <= cfg.rms_change_tol else 0
            if stable_run >= cfg.steady_cycles:
                fired_at = c
                if cfg.settle_margin_cycles == 0:
                    ready = n
                    break
        prev_rms = rms.copy()

    if n > state.step:
        state = compiled.state(stack[n_cycle], stack[n_cycle - 1], n, machines)
    return state, ready, buf.T.copy(), probes.keys


def fourier_phasor(samples: np.ndarray, end_step: int, dt: float, omega: float) -> complex:
    """RMS phasor of one full cycle of samples ending at end_step (absolute clock).

    For v(t) = sqrt(2) |V| cos(omega t + a) the result is |V| e^{ja}.
    """
    n = len(samples)
    steps = np.arange(end_step - n + 1, end_step + 1)
    t = steps * dt
    return complex(2.0 / (SQRT2 * n) * np.sum(samples * np.exp(-1j * omega * t)))


def companion_replay(compiled: CompiledNet, state: EmtState) -> np.ndarray:
    """Re-evaluate the companion relation from the stored state.

    `CompiledNet.state` sets the element currents of every stepped state
    with this function, so on such a state the result equals
    state.elem_i bit for bit.
    """
    u_now = compiled.incidence.dot(state.v_nodes)
    i_hist = compiled.h * state.hist_u + compiled.j * state.hist_i
    return compiled.g * u_now + i_hist


def stored_energy(net: EmtNet, state: EmtState) -> float:
    """Total inductor + capacitor energy over all phases."""
    total = 0.0
    for k, e in enumerate(net.elements):
        if e.kind is ElementKind.INDUCTOR:
            total += 0.5 * e.value * float(np.sum(state.elem_i[k] ** 2))
        elif e.kind is ElementKind.CAPACITOR:
            f = state.node_ids.index(e.n_from)
            vf = state.v_nodes[f]
            vt = state.v_nodes[state.node_ids.index(e.n_to)] if e.n_to else 0.0
            total += 0.5 * e.value * float(np.sum((vf - vt) ** 2))
    return total


# --- phasor-domain solves on the same network ------------------------------------


def phasor_solve(net: EmtNet, known_phasors: dict[str, complex],
                 injections: dict[str, complex] | None = None,
                 dt: float | None = None) -> tuple[dict[str, complex], dict[str, complex]]:
    """Single-frequency nodal solve of the network at its fundamental.

    known_phasors pin nodes (RMS); injections add RMS current sources into
    nodes.  With dt given, element admittances are the discrete-companion
    effective values, so the result is the exact periodic steady state of
    the stepped kernel; otherwise continuous jw admittances are used.

    Returns (node phasors, element current phasors) with element currents
    oriented from n_from to n_to.
    """
    injections = injections or {}
    omega = net.omega
    nodes = list(net.nodes)
    index = {nid: i for i, nid in enumerate(nodes)}
    n = len(nodes)
    ground = n

    yvals = []
    for e in net.elements:
        if dt is None:
            yvals.append(continuous_admittance(e.kind, e.value, omega))
        else:
            yvals.append(effective_admittance(
                companion_coefficients(e.kind, e.value, dt), omega, dt))

    ymat = np.zeros((n + 1, n + 1), dtype=complex)
    for e, yv in zip(net.elements, yvals):
        f = index[e.n_from]
        t = ground if e.n_to is None else index[e.n_to]
        ymat[f, f] += yv
        ymat[t, t] += yv
        ymat[f, t] -= yv
        ymat[t, f] -= yv

    known_idx = np.array(sorted(index[nid] for nid in known_phasors), dtype=int)
    v = np.zeros(n + 1, dtype=complex)
    for nid, ph in known_phasors.items():
        v[index[nid]] = ph
    inj = np.zeros(n + 1, dtype=complex)
    for nid, cur in injections.items():
        inj[index[nid]] += cur

    unknown = np.array([i for i in range(n) if i not in set(known_idx.tolist())],
                       dtype=int)
    if unknown.size:
        y_uu = ymat[np.ix_(unknown, unknown)]
        rhs = inj[unknown]
        if known_idx.size:
            rhs = rhs - ymat[np.ix_(unknown, known_idx)] @ v[known_idx]
        try:
            v[unknown] = np.linalg.solve(y_uu, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularConductance("phasor nodal matrix is singular") from exc

    node_ph = {nid: complex(v[index[nid]]) for nid in nodes}
    elem_ph = {}
    for e, yv in zip(net.elements, yvals):
        vf = v[index[e.n_from]]
        vt = 0.0 if e.n_to is None else v[index[e.n_to]]
        elem_ph[e.eid] = complex(yv * (vf - vt))
    return node_ph, elem_ph


# --- waveform export --------------------------------------------------------------


def write_waveforms_csv(path: str | Path, waves: WaveformSet) -> None:
    keys = list(waves.data.keys())
    lines = ["time," + ",".join(keys)]
    cols = [waves.data[k] for k in keys]
    for i, t in enumerate(waves.times):
        row = ",".join(f"{c[i]:.17g}" for c in cols)
        lines.append(f"{t:.17g},{row}")
    Path(path).write_text("\n".join(lines) + "\n")


_MAGIC = b"EMTW"
_VERSION = 1


def write_waveforms_bin(path: str | Path, waves: WaveformSet) -> None:
    """Compact binary record: magic, u16 version, probe table, f64 samples."""
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<HI", _VERSION, len(waves.data)))
        t0 = float(waves.times[0]) if len(waves.times) else 0.0
        dt = float(waves.times[1] - waves.times[0]) if len(waves.times) > 1 else 0.0
        for key, values in waves.data.items():
            name = key.encode()
            f.write(struct.pack("<H", len(name)))
            f.write(name)
            f.write(struct.pack("<Qdd", len(values), t0, dt))
            f.write(np.asarray(values, dtype="<f8").tobytes())


def read_waveforms_bin(path: str | Path) -> WaveformSet:
    with open(path, "rb") as f:
        if f.read(4) != _MAGIC:
            raise ValueError("not a waveform record")
        version, n_probes = struct.unpack("<HI", f.read(6))
        if version != _VERSION:
            raise ValueError(f"unsupported waveform record version {version}")
        data = {}
        t0 = dt = 0.0
        n = 0
        for _ in range(n_probes):
            (name_len,) = struct.unpack("<H", f.read(2))
            name = f.read(name_len).decode()
            n, t0, dt = struct.unpack("<Qdd", f.read(24))
            data[name] = np.frombuffer(f.read(8 * n), dtype="<f8").copy()
        times = t0 + np.arange(n) * dt
    return WaveformSet(times, data)
