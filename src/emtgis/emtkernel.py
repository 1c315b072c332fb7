"""Desk-scale EMT kernel.

Fixed-step trapezoidal companion models in a nodal conductance matrix,
with ideal voltage sources and machine EMF nodes as known-voltage nodes.
The clock is the step n: a run's length, ramp and fault are step counts
(`SimConfig`), and `to_steps` rounds a time to steps where it enters.

The grid is balanced: every source, machine EMF and the oscillator is a
balanced set over phases a, b, c at 0, -120, +120 degrees (`PHASE_SHIFT`),
and a fault grounds all three.  Such a set x cos(theta + phase) is [x cos
theta, x sin theta] K, K = `TWO_AXIS`, K K^T = 3/2 I (Park 1929, AIEE
Trans. 48).  So the kernel steps two axes, and phases appear only at a
loop's edges: the start state projects with (2/3) K, and states and
probe samples expand with K^T.

Between topology changes the network is linear and time-invariant, and
its only memory is the companion history current of each inductor and
capacitor.  A machine whose rotor is fixed (every machine during the
ramp, one with inertia_h = 0 always) is a source at its own angle; the
pipeline's region nets have every rotor fixed so (`snapshot.hold_rotors`),
at its power-flow angle from the ramp to the splice, and only the full
net's rotors, as in the zero-state baseline, swing once the ramp ends.
So a step is one linear map of the history currents and the source
oscillator, Dommel's companion method in discrete state-space form, but
for the EMFs of swinging machines, which follow their rotors: the only
nonlinearity.  `CompiledNet`'s docstring derives the step and chunk
maps, `CompiledNet.advance`'s names the two paths a cycle takes, and
`CompiledNet.relax`'s the relaxation of the rotors and its stop rule.

A `CompiledNet` is one stepping loop.  `run` and `run_until_steady`
build one per loop, so one per fault segment, and call its `advance` a
cycle at a time.  The loop builds an `EmtState` only at its edges
(`state`): on return, and at a fault event, where `run` migrates the
state onto the faulted topology and builds the next loop from it.

Instantaneous per-unit convention: phasor magnitudes are RMS, instantaneous
peaks are sqrt(2) times RMS.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import islice
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (
    IncompatibleSnapshot,
    InvalidParameter,
    SingularConductance,
    UnknownBus,
    UnknownProbe,
    UnsupportedElement,
)

SQRT2 = math.sqrt(2.0)
# Steps per block of a relaxed chunk's probe samples: one small map serves
# every block, from the block's start buffer and its EMFs.
PROBE_BLOCK = 20


def chunk_steps(n_swinging: int) -> int:
    """Steps per relaxed chunk of a net with `n_swinging` swinging machines
    after the ramp, a multiple of PROBE_BLOCK: 100 for one, 40 from two
    on.  A longer chunk takes fewer numpy calls per step but more sweeps
    through maps of side length * n_swinging, so shorter chunks pay as
    more machines are coupled.  The measured lengths are in CHANGES.md
    ("Relaxed sweeps stop when the EMF angles repeat"; two machines under
    "Coordinate from the main system's own power flow")."""
    return 100 if n_swinging <= 1 else 40
# The steadiness rule of `run_until_steady` (see its docstring).
RMS_CHANGE_TOL = 5e-4
STEADY_CYCLES = 3
SETTLE_MARGIN_CYCLES = 5
# A start state's largest zero-sequence part, as a share of its peak.
ZERO_SEQUENCE_TOL = 1e-9
PHASE_SHIFT = np.array([0.0, -2.0 * math.pi / 3.0, 2.0 * math.pi / 3.0])
PHASE_NAMES = ("a", "b", "c")
# K: x cos(theta + phase) over the phases is x [cos theta, sin theta] K, and
# K K^T = 3/2 I.
TWO_AXIS = np.array([np.cos(PHASE_SHIFT), -np.sin(PHASE_SHIFT)])


class ElementKind(str, Enum):
    RESISTOR = "Resistor"
    INDUCTOR = "Inductor"
    CAPACITOR = "Capacitor"


def companion_arrays(net: EmtNet, dt: float) -> np.ndarray:
    """(3, n_elements): every element's trapezoidal companion coefficients g,
    h and j at dt, in net order: i(t) = g u(t) + h u(t-dt) + j i(t-dt)."""
    if dt <= 0.0:
        raise InvalidParameter("dt must be positive")
    coef = np.zeros((3, len(net.elements)))
    for k, e in enumerate(net.elements):
        if e.value <= 0.0:
            raise InvalidParameter(f"{e.kind.value} parameter must be positive, got {e.value}")
        if e.kind is ElementKind.RESISTOR:
            coef[0, k] = 1.0 / e.value
        elif e.kind is ElementKind.INDUCTOR:
            g = dt / (2.0 * e.value)
            coef[:, k] = g, g, 1.0
        else:
            g = 2.0 * e.value / dt
            coef[:, k] = g, -g, -1.0
    return coef


# --- network description ------------------------------------------------------


class Element(NamedTuple):
    """Two-terminal R/L/C between nodes; n_to None means ground."""

    eid: str
    kind: ElementKind
    n_from: str
    n_to: str | None
    value: float


class Source(NamedTuple):
    """Ideal grounded voltage source pinning its node."""

    sid: str
    node: str
    rms: float
    angle: float


class Machine(NamedTuple):
    """Classical machine: EMF behind transient reactance with swing dynamics.

    The EMF node and series inductor are explicit members of the network;
    this record carries their ids plus the mechanical state parameters.
    delta0/emf_rms/pm are the build-time operating point; EmtState carries
    delta and pm on from it, and the EMF never changes.  A machine with
    inertia_h = 0 has a fixed rotor.
    """

    mid: str
    bus: str
    emf_node: str
    branch_eid: str
    inertia_h: float
    damping: float
    emf_rms: float
    delta0: float
    pm: float


class EmtNet(NamedTuple):
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
    return net._replace(elements=net.elements + (fault,))


def element_terminals(net: EmtNet) -> tuple[np.ndarray, np.ndarray]:
    """Each element's from-node and to-node index in net.nodes; ground, the
    to-node of a grounded element, is len(net.nodes), one past the last."""
    index = {nid: i for i, nid in enumerate(net.nodes)}
    index[None] = len(net.nodes)
    return (np.array([index[e.n_from] for e in net.elements], dtype=int),
            np.array([index[e.n_to] for e in net.elements], dtype=int))


def pinned_nodes(net: EmtNet) -> list[int]:
    """Indices in net.nodes of the nodes the net pins: its sources' nodes in
    order, then its machines' EMF nodes.  A node may appear twice."""
    index = {nid: i for i, nid in enumerate(net.nodes)}
    return ([index[s.node] for s in net.sources]
            + [index[m.emf_node] for m in net.machines])


# --- fault and run configuration -----------------------------------------------


def to_steps(seconds: float, dt: float) -> int:
    """Seconds as the nearest whole number of steps of dt: 2.3 s / 1e-4 s
    evaluates to 22999.999999999996, which is 23,000 steps."""
    return int(round(seconds / dt))


def _count(name: str, value, least: int) -> int:
    """value as an int if it is an integer (numpy's too) >= least."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise InvalidParameter(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class SimEvent:
    """The one fault of a run: three-phase at node `target` from step
    `step` of the clock on, through r_fault ohms per phase (`apply_fault`).
    r_fault has no default here; the CLI's is 0.05."""

    step: int
    target: str
    r_fault: float

    def __post_init__(self):
        object.__setattr__(self, "step", _count("fault step", self.step, 0))


@dataclass
class SimConfig:
    """One kernel run of `steps` steps of dt, with at most one fault.
    Sources ramp linearly from zero: at step n their scale is n/ramp_steps,
    full from step ramp_steps on; ramp_steps=None means no ramp.  The ramp
    belongs to the run, not to its start state."""

    dt: float
    steps: int
    record: list[str] = field(default_factory=list)
    fault: SimEvent | None = None
    ramp_steps: int | None = None

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise InvalidParameter(f"dt must be finite and positive, got {self.dt}")
        self.steps = _count("steps", self.steps, 0)
        if self.ramp_steps is not None:
            self.ramp_steps = _count("ramp_steps", self.ramp_steps, 1)


# --- simulation state -----------------------------------------------------------


@dataclass
class EmtState:
    """Complete instantaneous state of one network at one step.

    v_nodes/elem_i are the instantaneous values at the stamped time;
    i_hist is each element's history current h u(t-dt) + j i(t-dt), zero
    on resistors, so the companion relation i = g u + i_hist holds exactly
    at every stamped state (u recomputes from v_nodes); the EMFs are the
    net's.  The run that steps it sets the source ramp (`SimConfig.ramp_steps`).
    """

    step: int
    dt: float
    node_ids: tuple[str, ...]
    element_ids: tuple[str, ...]
    machine_ids: tuple[str, ...]
    v_nodes: np.ndarray        # (n_nodes, 3)
    elem_i: np.ndarray         # (n_elements, 3) element current at t
    i_hist: np.ndarray         # (n_elements, 3) history current from t - dt
    machine_delta: np.ndarray
    machine_speed_dev: np.ndarray
    machine_pm: np.ndarray

    def copy(self) -> "EmtState":
        return replace(self, **{k: v.copy() for k, v in vars(self).items()
                                if isinstance(v, np.ndarray)})


# --- compiled network ------------------------------------------------------------


def check_compatible(net: EmtNet, dt: float, state: EmtState) -> None:
    """Raise IncompatibleSnapshot unless `state` is a finite state of `net`
    at dt whose phases are balanced sets: the zero-sequence part of v_nodes
    and of elem_i (sum over the phases) may reach ZERO_SEQUENCE_TOL = 1e-9
    of the array's peak, no more, as a loop's two axes drop it."""
    if state.node_ids != net.nodes:
        raise IncompatibleSnapshot("node set differs from network")
    if state.element_ids != tuple(e.eid for e in net.elements):
        raise IncompatibleSnapshot("element set differs from network")
    if state.machine_ids != tuple(m.mid for m in net.machines):
        raise IncompatibleSnapshot("machine set differs from network")
    if not abs(state.dt - dt) <= 1e-18:
        raise IncompatibleSnapshot(
            f"snapshot dt {state.dt} differs from configured dt {dt}"
        )
    for name, x in vars(state).items():  # its arrays, dt checked above
        if isinstance(x, np.ndarray) and not np.isfinite(x).all():
            raise IncompatibleSnapshot(f"the snapshot's {name} holds a non-finite number")
    for name, x in (("v_nodes", state.v_nodes), ("elem_i", state.elem_i)):
        if np.abs(x.sum(axis=1)).max(initial=0.0) > ZERO_SEQUENCE_TOL * np.abs(x).max(initial=0.0):
            raise IncompatibleSnapshot(f"the phases of {name} are not a balanced set")


def migrate_state(net: EmtNet, state: EmtState) -> EmtState:
    """Carry a state onto `net`, whose elements append to the state's
    (faults); the appended elements start with zero currents."""
    eids = tuple(e.eid for e in net.elements)
    if eids[:len(state.element_ids)] != state.element_ids:
        raise IncompatibleSnapshot("topology change is not an element append")
    pad = np.zeros((len(eids) - len(state.element_ids), 3))
    return replace(state.copy(), element_ids=eids, **{
        f: np.vstack([getattr(state, f), pad]) for f in ("elem_i", "i_hist")})


def zero_state(net: EmtNet, dt: float) -> EmtState:
    """De-energized state of a network at step 0; machines at their
    build-time angle and mechanical power."""
    ne, nm = len(net.elements), len(net.machines)
    return EmtState(
        step=0,
        dt=dt,
        node_ids=net.nodes,
        element_ids=tuple(e.eid for e in net.elements),
        machine_ids=tuple(m.mid for m in net.machines),
        v_nodes=np.zeros((len(net.nodes), 3)),
        elem_i=np.zeros((ne, 3)),
        i_hist=np.zeros((ne, 3)),
        machine_delta=np.array([m.delta0 for m in net.machines], dtype=float),
        machine_speed_dev=np.zeros(nm),
        machine_pm=np.array([m.pm for m in net.machines], dtype=float),
    )


def _power_sequence(first: np.ndarray, squares: list[np.ndarray], seq: np.ndarray,
                    right: bool) -> np.ndarray:
    """Fill seq, (count, *first.shape), with t^k first for k < count, or
    first t^k when `right`, by doubling, from squares[i] = t^(2^i): the
    terms so far times t^m are the next m terms, so count terms take about
    log2(count) products.  Returns seq."""
    count = len(seq)
    if count:
        seq[0] = first
    done = 1
    for power in squares:
        if done >= count:
            break
        m = min(done, count - done)
        seq[done:done + m] = seq[:m] @ power if right else power @ seq[:m]
        done += m
    return seq


def _matrix_power(squares: list[np.ndarray], k: int) -> np.ndarray:
    """t^k from squares[i] = t^(2^i), one product per further set bit of k."""
    factors = [power for i, power in enumerate(squares) if k >> i & 1]
    out = factors[0] if factors else np.eye(len(squares[0]))
    for power in factors[1:]:
        out = out @ power
    return out


class _ChunkMaps:
    """A linear chunk's input, and the maps and buffers of its tail, for
    chunks of one length L in a loop: what it samples and what it hands
    on.  The input [w_0; e] (`we`, views `w0` and `e`) stacks its start's
    w and the EMFs of its steps, nsw per step, step-major.  A ramp chunk
    has no EMF columns, so its input is its w_0 where the stack holds it,
    and `we` goes unread.  It is zero past the chunk's end up to a whole
    probe block, and a chunk writes every other buffer before it reads it.
    `w_at` maps [w_0; e] to the whole buffer a step before the chunk's
    end, then to w at the probe blocks' starts after the first, into `at`
    (views `handed` and `block_starts`).  The probe blocks hold one block
    and axis per row: the block's start w, then its EMFs; `probe_map`
    gives a block's samples over its PROBE_BLOCK steps from that row.
    Without probes, the map and the samples' buffers have no columns.
    Every map is stored C-contiguous, in the form its product reads, and
    so are the probe blocks; w_0 stays a strided view of [w_0; e], as a
    contiguous copy of it costs more than it saves."""

    def __init__(self, length: int, w: int, nsw: int, rows: int, w_at: np.ndarray,
                 probe_map: np.ndarray):
        self.w_at, self.probe_map = w_at, probe_map
        blocks = -(-length // PROBE_BLOCK)
        we_padded = np.zeros((2, w + blocks * PROBE_BLOCK * nsw))
        self.w0, self.e = we_padded[:, :w], we_padded[:, w:w + length * nsw]
        self.we = we_padded[:, :w + length * nsw]
        self.e_blocks = we_padded[:, w:].reshape(2, blocks, PROBE_BLOCK * nsw)
        self.at = np.empty((2, w_at.shape[1]))
        self.handed = self.at[:, :rows]
        self.block_starts = self.at[:, rows:].reshape(2, -1, w)
        # The probe blocks; their samples, then K^T for the phases, and the
        # phases' view in the samples' order.
        self.probe_blocks = np.empty((2, blocks, w + PROBE_BLOCK * nsw))
        self.probe_rows = self.probe_blocks.reshape(2 * blocks, -1)
        self.taken = np.empty((2, blocks * probe_map.shape[1]))
        self.taken_rows = self.taken.reshape(2 * blocks, -1)
        self.phases = np.empty((3, self.taken.shape[1]))
        self.phase_samples = self.phases.reshape(3, blocks * PROBE_BLOCK, -1)[
            :, :length].transpose(2, 0, 1)

    def hand_on(self, w0: np.ndarray, we: np.ndarray, stack: np.ndarray, last: int,
                step_map: np.ndarray, samples: np.ndarray) -> None:
        """Sample the chunk that ends in stack[last] and hand on its
        buffers, from its input we, [w_0; e], and its w_0, w0 (a relaxed
        chunk's `we` and `w0`; a ramp chunk's w_0 in the stack, as both):
        the one a step before its end, with its EMF rows written (zero in
        the ramp), by `w_at`, and from it the end buffer by `step`'s
        product with step_map; the loop's edges (`state`) and the next
        chunk read no other.  With probes, the same product gives the
        probe blocks' starts, in the columns after that buffer's: its
        columns lead the product with probes or without, so no probe
        moves its rounding (with the blocks' columns first, a two-machine
        loop's buffer rounded otherwise than without probes).  The blocks'
        samples are one product with `probe_map`, then K^T, written into
        samples, one column per step; a ramp chunk's blocks have no EMF
        columns to fill.  K^T stays out of the map: folded in, as in
        `ProbeSet.maps`, it would triple the product's work."""
        before_end = stack[last - 1]
        if self.probe_map.size:
            we.dot(self.w_at, self.at)
            blocks, w = self.probe_blocks, w0.shape[1]
            blocks[:, 0, :w] = w0
            blocks[:, 1:, :w] = self.block_starts
            if self.e.size:
                blocks[:, :, w:] = self.e_blocks
            self.probe_rows.dot(self.probe_map, self.taken_rows)
            TWO_AXIS.T.dot(self.taken, self.phases)
            samples.reshape(-1, 3, samples.shape[1])[:] = self.phase_samples
            before_end[:] = self.handed
        else:
            we.dot(self.w_at, before_end)
        before_end.dot(step_map, stack[last])


class _SwingMaps(_ChunkMaps):
    """`CompiledNet.relax`'s sweep maps for chunks of one length L in a
    loop, and the sweeps' work buffers; the chunk's input and tail are
    `_ChunkMaps`'s.

    e stacks the EMFs of the chunk's steps and u = [cos theta; sin theta]
    their angles, one row per axis, step-major over ne = L*nsw columns.
    The buffers, and the views the sweeps read them through, are built
    with the maps, so a chunk allocates nothing.  The maps and the
    left-hand buffers u are stored C-contiguous."""

    def __init__(self, length: int, w: int, nsw: int, currents_w: np.ndarray,
                 currents: np.ndarray, swing: np.ndarray, guess_map: np.ndarray,
                 history_at: np.ndarray, amplitude: np.ndarray, w_at: np.ndarray,
                 x: np.ndarray, probe_map: np.ndarray):
        super().__init__(length, w, nsw, w + nsw, w_at, probe_map)
        ne = length * nsw
        self.currents_w = currents_w  # (w, ne): C_w^T, the currents from w_0
        self.currents = currents      # (ne, ne): (C_e diag(amp))^T, y from u
        # (ne + nsw, ne + 4*nsw): [F diag(amp) | S], the angles and end speed
        # deviations from x = [sum(u*y); delta_0, dw_0, emf, pm].
        self.swing = swing
        # (ne, 4*nsw + k*nsw): from [delta_0, dw_0, emf, pm; the power sums
        # at the k guess nodes], delta_0 and the first guess's angles of the
        # steps before the end; and where in sum(u*y) the next chunk's guess
        # nodes are.
        self.guess_map, self.history_at = guess_map, history_at
        self.amplitude = amplitude    # (ne,): sqrt2 emf

        self.x, self.power = x, x[:ne]  # x: a view of the loop's `relaxed`
        # delta_0, from the guess, then the last sweep's angles and end speed
        # deviations, with its views: the angles each step's EMF reads,
        # delta_0 and those of the steps before the end (flat for the guess,
        # one row per step for theta); the swing product's; and the end
        # step's [delta, speed_dev] per machine.
        self.out = np.empty(ne + 2 * nsw)
        self.lead, self.read = self.out[:ne], self.out[:ne].reshape(length, nsw)
        self.swung, self.end = self.out[nsw:], self.out[ne:].reshape(2, nsw).T
        # theta = wt + delta, the EMFs' angles at the chunk's steps: the
        # ones the last sweep read and the ones the next would read, each
        # with its flat view.
        self.theta = np.empty((2, length, nsw))
        self.thetas = tuple((t, t.reshape(ne)) for t in self.theta)
        self.u, self.y, self.i0 = np.empty((3, 2, ne))
        self.axes = (*self.u, *self.y)  # cos u, sin u, y_d, y_q


class CompiledNet:
    """One stepping loop of one network at one dt, from one start state:
    the step as one square linear map on the history currents, and the
    stack of buffers it steps through.

    The constructor does all the set-up, once: it compiles the topology,
    builds the step and output maps for the start state's rotor angles and
    EMFs and for sources that ramp linearly up to step ramp_steps (None:
    sources at full scale throughout), resolves the probes (`probes`),
    builds the probes' map of `relax`, and allocates `length` + 1 buffers,
    with room for w*t at the step after each.  Slot 0 holds the buffer at
    step n; `advance` steps from it through the (buffer, next buffer) view
    pairs, and `state` rebuilds the state at step n from the buffer a step
    before it.  Three counters tell the loop's work: the steps it advanced
    (`steps_advanced`), and the chunks and sweeps `relax` took
    (`chunks_relaxed`, `sweeps`).

    The step.  With element voltages u = D v, the companion step is ih =
    h*u + j*i (zero on resistors), v' = P [ih; v_k] with v_k the known
    nodes, and i' = g*(D v') + ih.  Only the n_lc inductors' and
    capacitors' ih carry over, so the next step's x = [v; i] is

        x' = W ih + F s r' + B_e e_v

    * W = [P_h; g*(D P_h) + I] on the L/C columns.
    * F = [f_c f_s] carries every source through the angle-addition
      identity, with the oscillator r = [cos(wt + phase); sin(wt + phase)]
      and s the source ramp: a source of peak a and angle t pins
      a*cos(t) r_c - a*sin(t) r_s.  The machines whose rotors are fixed
      fold into F the same way, at the start state's own angle and EMF.
    * B_e carries the EMFs of the swinging machines, whose angles move.

    The step state z stacks ih, then two rows q = n*r, then r at step n,
    then one row per swinging machine: `rows` = n_lc + 4 + n_swinging rows
    per axis.  r advances by the rotation R by w*dt, and during the linear
    ramp s = n/ramp_steps q advances by q' = R (q + r), so the ramp's
    source input q/ramp_steps is linear too.  x' is the output map O
    applied to z,

        ramp (s < 1):  O = [W, k F_all R, k F_all R, 0],  k = 1/ramp_steps
        after it:      O = [W, 0, F_fixed R, B_e]

    where F_all folds every machine (no rotor moves during the ramp) and
    F_fixed only the non-swinging ones.  A step is z' = T z with

        T = [[H O], [0, R, R, 0] (ramp) or 0, [0, 0, R, 0], 0]

    H the L/C rows of the history map [h*D, diag(j)].  A machine's row
    holds its EMF e_v at the next step, written before the product; the
    product leaves it zero.  `anchor` sets r and q from the clock.

    A buffer holds z with one axis per row, shape (2, rows), so a step is
    out = x T^T; the start state's ih enters projected with (2/3) K.  Every
    map a product multiplies by is stored C-contiguous, in the form its
    product reads: at these sizes OpenBLAS takes 15-125% longer on a
    transposed operand.  The x of step n is (O z^T) K of the buffer at
    step n - 1, after its EMF rows are written; `ProbeSet.sample` applies
    the probes' rows of O, K^T folded in, to a stack of buffers, and
    `state` rebuilds x and the history currents from that one buffer.

    Chunk maps.  Split z into w, the rows before the machines', and the
    machine rows e; then w' = T_ww w + T_we e, and every output, a
    machine's current or a probe, is o [w; e] at the step the buffer's EMF
    rows serve.  During the ramp T_we and o_e are zero, so a chunk's w at
    step k is T_ww^k w_0 and its outputs o_w T_ww^k w_0: Dommel's discrete
    state-space form over the chunk (IEEE Trans. PAS-88, 1969).  After it,
    the outputs over a chunk are one map of [w_0; e_1 .. e_L]: o_w T_ww^k
    on w_0, and on the EMFs the lower block-triangular Toeplitz matrix of
    the Markov parameters o_e and o_w T_ww^d T_we, C_w and C_e for the
    machines' currents.  The EMF rows are e = amp u, u = [cos theta; sin
    theta], so the currents are y = C_e diag(amp) u + C_w w_0, the last
    term formed once per chunk, and the power is amp/2 sum(u*y) over the
    axes.  The swing recursion is affine in that
    power, so one product [F diag(amp) | S] [sum(u*y); delta_0, dw_0, emf,
    pm] gives the angles and the end step's speed deviations.

    `incidence` is D (n_elements x n_nodes), +1 at an element's from-node
    and -1 at its to-node, both from `element_terminals`, the function
    `phasor_solve` stamps its Y from.  P = [P_h | P_k] is built in node
    order: an unknown node's row holds G_uu^-1 (-A_u) and -G_uu^-1 W_uk,
    with A_u = D^T restricted to the unknown nodes and W_uk the
    unknown-known block of the nodal conductance matrix D^T diag(g) D; a
    known node's row holds a 1 in the column of its source.  The known
    nodes are `pinned_nodes`, the nodes `phasor_solve` pins too: the
    source nodes in order, then the machine EMF nodes.
    """

    def __init__(self, net: EmtNet, dt: float, state: EmtState,
                 ramp_steps: int | None = None, record: list[str] | tuple = (),
                 length: int = 1):
        self.net = net
        self.dt = dt
        self.omega = net.omega
        self.node_index = {nid: i for i, nid in enumerate(net.nodes)}
        self.n_nodes = nn = len(net.nodes)
        self.element_ids = eids = tuple(e.eid for e in net.elements)
        ne = len(eids)
        self.size = nn + ne

        # Companion coefficients; kept as columns (ne, 1) for `companion_replay`.
        g, h, j = companion_arrays(net, dt)
        self.g, self.h, self.j = g[:, None], h[:, None], j[:, None]

        # D with a ground column, dropped after.
        d = np.zeros((ne, nn + 1))
        n_from, n_to = element_terminals(net)
        d[np.arange(ne), n_from] += 1.0
        d[np.arange(ne), n_to] -= 1.0
        self.incidence = d = d[:, :nn].copy()

        known = pinned_nodes(net)
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
        self.lc = lc = [k for k, e in enumerate(net.elements)
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
        # on the active machines, whose buffer rows follow the oscillator's
        # in this order.
        self.swinging = np.array([k for k, m in enumerate(net.machines)
                                  if m.inertia_h > 0], dtype=int)
        active = [net.machines[k] for k in self.swinging]
        self.branch_rows = [nn + eids.index(m.branch_eid) for m in active]
        self.rows = self.n_lc + 4 + len(active)
        # Work counters: the steps `advance` took, stepped and relaxed, and
        # `relax`'s chunks and sweeps.
        self.steps_advanced = 0
        self.chunks_relaxed = 0
        self.sweeps = 0

        # The loop from the start state on.  The step maps are stored as
        # C-contiguous T^T, the form `step` multiplies by; `ramp_end` is the
        # first step at full source scale, ramp_steps (0 without a ramp).
        self.start = state
        self.ramp_end = ramp_steps or 0
        # The machines, one row [delta, speed_dev, emf, pm] each, the EMFs
        # the net's.
        self.machines = np.column_stack([
            state.machine_delta, state.machine_speed_dev,
            [m.emf_rms for m in net.machines], state.machine_pm]).astype(float)
        self.outputs, self.ramp_map, self.post_map = self._step_maps(ramp_steps)
        self.probes = ProbeSet(self, record)
        # `relax`'s EMF amplitudes sqrt2 emf, one per swinging machine, and
        # its maps and buffers per chunk length.  The probes' map gives a
        # block's samples from its start's w and its EMFs; it has no columns
        # without swinging machines or probes.
        self.amplitude = SQRT2 * self.machines[self.swinging, 2]
        self.swing_maps: dict[int, _SwingMaps] = {}
        # `ramp_chunk`'s maps, from its first chunk to the ramp's end.
        self.ramp_maps: _ChunkMaps | None = None
        self.squares: dict[bool, list[np.ndarray]] = {True: [], False: []}  # `_squares`
        self.probe_map = np.zeros((0, 0))
        if self.swinging.size and self.probes.rows.size:
            self.probe_map = self._probe_map(False)
        # `relax`'s x = [sum(u*y); delta_0, dw_0, emf, pm] ends where its
        # first guess's input starts: [delta_0, dw_0, emf, pm; sum(u*y) at
        # the guess nodes, 5 equally spaced steps of the last chunk from its
        # first to its last (0, 24, 49, 74 and 99 in a chunk of 100, where 5
        # of 3 to 7 nodes took the fewest sweeps on a compare job)].  A loop
        # starts from pe = amp s / 2 = pm.
        self.chunk = chunk_steps(self.swinging.size)
        self.guess_nodes = nodes = np.linspace(0, self.chunk - 1, 5).astype(int)
        nsw, c = self.swinging.size, self.chunk * self.swinging.size
        self.relaxed = np.zeros(c + (4 + len(nodes)) * nsw)
        self.guess_in, self.power_history = self.relaxed[c:], self.relaxed[c + 4 * nsw:]
        # The swinging machines' rows while `advance` relaxes, one per
        # machine (see `relax`).
        self.machine_rows = self.guess_in[:4 * nsw].reshape(4, nsw).T
        np.divide(2.0 * self.machines[self.swinging, 3], self.amplitude,
                  out=self.power_history.reshape(len(nodes), nsw))
        # The stack, whose slot 0 holds the start's history currents and its
        # anchored oscillator.
        self.stack = np.zeros((length + 1, 2, self.rows))
        # For `relax`, w*t at the step after the one each slot of the stack
        # holds; `advance` sets it from the clock.
        self.slots = np.arange(1, length + 2.0)[:, None]
        self.wt = np.empty_like(self.slots)
        ih = self.hist @ np.vstack([state.v_nodes, state.elem_i])
        self.stack[0, :, :self.n_lc] = TWO_AXIS.dot(ih.T) / 1.5
        self.anchor(self.stack[0], state.step)
        self.pairs = list(zip(self.stack[:-1], self.stack[1:]))
        self.n = state.step
        self.pos = 0  # stack index of the buffer at step n

    def _step_maps(self, ramp_steps: int | None) -> tuple:
        """O during a ramp over ramp_steps steps and after it, and T^T for
        the same two (see the class docstring), at the start's rotor
        angles; without a ramp, both are the maps after it."""
        m, rot = self.n_lc, self.rotation
        # A machine at rotor angle d is a source of peak sqrt2*emf and angle
        # d: sqrt2 emf cos(wt + d) = sqrt2 emf (cos d r_c - sin d r_s).
        delta, emf = self.machines[:, 0], self.machines[:, 2]
        b_peak = self.b_machines * (SQRT2 * emf)
        emf_cols = np.stack([b_peak * np.cos(delta), -b_peak * np.sin(delta)], axis=-1)
        fixed = np.isin(np.arange(len(self.net.machines)), self.swinging, invert=True)

        post = np.zeros((self.size, self.rows))
        post[:, :m] = self.w
        post[:, m + 2:m + 4] = (self.f + emf_cols[:, fixed].sum(axis=1)) @ rot
        post[:, m + 4:] = self.b_machines[:, self.swinging]
        post_map = self._step_map(post).T.copy()
        if ramp_steps is None:
            return (post, post), post_map, post_map
        ramp = np.zeros_like(post)
        ramp[:, :m] = self.w
        ramp[:, m:m + 2] = ramp[:, m + 2:m + 4] = (
            (1.0 / ramp_steps) * ((self.f + emf_cols.sum(axis=1)) @ rot))
        t = self._step_map(ramp)
        t[m:m + 2, m:m + 2] = t[m:m + 2, m + 2:m + 4] = rot
        return (ramp, post), t.T.copy(), post_map

    def _step_map(self, out: np.ndarray) -> np.ndarray:
        """T for the output map `out`, less the ramp's q rows."""
        m = self.n_lc
        t = np.zeros((self.rows, self.rows))
        t[:m] = self.hist @ out
        t[m + 2:m + 4, m + 2:m + 4] = self.rotation
        return t

    def _chunk_map(self, rows: np.ndarray | list | tuple, steps: int,
                   ramp: bool) -> np.ndarray:
        """(steps, rows, w + steps*nsw): the outputs at `rows` of [v; i]
        over a chunk in the ramp, from w_0 (nsw = 0), or after it, from
        [w_0; e].  Each row set has its own products, so the machines'
        currents, and with them the trajectory, round the same whatever
        the probes."""
        w, nsw = self.n_lc + 4, 0 if ramp else self.swinging.size
        o = self.outputs[not ramp][np.asarray(rows, dtype=int), :w + nsw]
        # Output k + 1 of a chunk reads w_k and e_(k+1): o_w T_ww^k on
        # w_0, built in place, and the Markov parameter d = k + 1 - j on e_j.
        g = np.zeros((steps, len(o), w + steps * nsw))
        _power_sequence(o[:, :w], self._squares(ramp, steps), g[:, :, :w], True)
        if not nsw:
            return g  # no EMF columns: the ramp's outputs read w_0 alone
        markov = np.concatenate([o[None, :, w:], g[:-1, :, :w] @ self.post_map.T[:w, w:]])
        lower = np.tril_indices(steps)
        from_e = g[:, :, w:].reshape(steps, len(o), steps, nsw)  # a view
        from_e[lower[0], :, lower[1]] = markov[lower[0] - lower[1]]
        return g

    def _squares(self, ramp: bool, count: int) -> list[np.ndarray]:
        """T_ww, T_ww^2, T_ww^4, ... of the ramp's T or the one after it, up
        to the last power of two below count.  The loop squares each once
        and builds every map's powers of T_ww from them, so each power
        rounds the same in every map, whatever the probes."""
        w = self.n_lc + 4
        squares = self.squares[ramp]
        if not squares:
            squares.append((self.ramp_map if ramp else self.post_map).T[:w, :w].copy())
        while 2 ** len(squares) < count:
            squares.append(squares[-1] @ squares[-1])
        return squares

    def _probe_map(self, ramp: bool) -> np.ndarray:
        """`_ChunkMaps.probe_map` in the ramp or after it."""
        g = self._chunk_map(self.probes.rows, PROBE_BLOCK, ramp)
        return g.reshape(-1, g.shape[2]).T.copy()

    def _w_at(self, ramp: bool, length: int, probed: bool) -> np.ndarray:
        """`_ChunkMaps.w_at` of a chunk of `length` steps in the ramp, from
        w_0, or after it, from [w_0; e]: the whole buffer a step before the
        chunk's end, its machine rows the last step's EMFs (zero in the
        ramp), then w at the probe blocks' starts after the first if
        `probed`."""
        w, nsw = self.n_lc + 4, 0 if ramp else self.swinging.size
        t = (self.ramp_map if ramp else self.post_map).T
        squares = self._squares(ramp, length)
        # T_ww^d T_we for d < length - 1, the latest first.
        impulse = _power_sequence(t[:w, w:w + nsw], squares,
                                  np.empty((length - 1, w, nsw)), False)
        from_e = impulse[::-1].transpose(1, 0, 2).reshape(w, (length - 1) * nsw)
        steps = [length - 1, *range(PROBE_BLOCK, length if probed else 0, PROBE_BLOCK)]
        m = np.zeros((len(steps) * w + self.swinging.size, w + length * nsw))
        for k, at in zip(steps, [0, *range(w + self.swinging.size, m.shape[0], w)]):
            # w_k = T_ww^k w_0 + sum_(j<=k) T_ww^(k-j) T_we e_j
            m[at:at + w, :w] = _matrix_power(squares, k)
            m[at:at + w, w:w + k * nsw] = from_e[:, from_e.shape[1] - k * nsw:]
        if nsw:
            m[w:w + nsw, -nsw:] = np.eye(nsw)
        return m.T.copy()

    def _ramp_maps(self) -> _ChunkMaps:
        """`ramp_chunk`'s maps and work buffers (`_ChunkMaps`), from the
        ramp's T, whose machine rows and columns are zero."""
        probe_map = self._probe_map(True)
        self.ramp_maps = maps = _ChunkMaps(
            self.chunk, self.n_lc + 4, 0, self.rows,
            self._w_at(True, self.chunk, probe_map.size > 0), probe_map)
        self.squares[True].clear()  # the ramp's maps are built once
        return maps

    def _swing_maps(self, length: int) -> _SwingMaps:
        """`relax`'s maps for chunks of `length` steps (see the class docstring)."""
        w, nsw = self.n_lc + 4, self.swinging.size
        ne = length * nsw
        currents = self._chunk_map(self.branch_rows, length, False).reshape(ne, -1)
        amplitude = np.tile(self.amplitude, length)
        # Swing over a chunk: with r = 1 - D dt/2H, dw_k = r^k dw_0 +
        # dt/2H sum_(j<=k) r^(k-j) (pm - pe_j) and delta_k = delta_0 + dt w
        # sum_(i<=k) dw_i, per machine affine in [delta_0, dw_0, emf, pm]
        # and in the sums s_j over the axes of u*y, pe_j = amp s_j / 2.
        active = [self.net.machines[k] for k in self.swinging]
        gain = np.array([self.dt / (2.0 * m.inertia_h) for m in active])
        decay = (1.0 - gain * [m.damping for m in active])[:, None] ** np.arange(length + 1)
        lag = np.subtract.outer(np.arange(length), np.arange(length))
        to_speed = gain[:, None, None] * np.where(lag >= 0, decay[:, np.maximum(lag, 0)], 0.0)
        speed = np.zeros((nsw, length, length + 4))  # from [s; delta_0, dw_0, emf, pm]
        speed[:, :, :length] = to_speed * (self.amplitude / -2.0)[:, None, None]
        speed[:, :, length + 1] = decay[:, 1:]
        speed[:, :, length + 3] = to_speed.sum(axis=2)
        angle = self.dt * self.omega * np.cumsum(speed, axis=1)
        angle[:, :, length] = 1.0
        swing = np.zeros((length + 1, nsw, length + 4, nsw))
        own = np.arange(nsw)
        swing[:, own, :, own] = np.concatenate([angle, speed[:, -1:]], axis=1)
        swing = swing.reshape(ne + nsw, ne + 4 * nsw)
        # The guess's angles from the sums at the nodes: the angles' block on
        # sum(u*y) times the Lagrange weights at each step, (k, length), from
        # Vandermonde matrices in full chunks from this chunk's start.  A
        # shorter chunk hands on its last step's sums at every node: as the
        # weights sum to 1, a constant power.
        chunk, k = self.chunk, len(self.guess_nodes)
        weights = np.linalg.solve(np.vander(self.guess_nodes / chunk - 1.0).T,
                                  np.vander(np.arange(length) / chunk, k).T)
        from_nodes = np.einsum("rjm,ij->rim", swing[:ne, :ne].reshape(ne, length, nsw),
                               weights).reshape(ne, -1)
        nodes = self.guess_nodes if length == chunk else [length - 1] * k
        # The steps' EMFs read delta_0, picked from the guess's input, and
        # the guess's angles of the steps before the end.
        guess = np.hstack([swing[:ne - nsw, ne:], from_nodes[:ne - nsw]])
        self.swing_maps[length] = maps = _SwingMaps(
            length, w, nsw, currents[:, :w].T.copy(), (currents[:, w:] * amplitude).T.copy(),
            swing, np.vstack([np.eye(nsw, guess.shape[1]), guess]),
            np.add.outer(np.multiply(nodes, nsw), own).ravel(), amplitude,
            self._w_at(False, length, self.probe_map.size > 0),
            self.relaxed[(chunk - length) * nsw:(chunk + 4) * nsw], self.probe_map)
        return maps

    def anchor(self, x: np.ndarray, step: int) -> None:
        """Set the oscillator rows of the state in buffer x from the clock
        at `step`: r = [cos(wt + phase); sin(wt + phase)], whose axis values
        are (cos wt, sin wt) and (sin wt, -cos wt), and q = step*r."""
        n = self.n_lc
        wt = self.omega * (step * self.dt)
        c, s = math.cos(wt), math.sin(wt)
        x[:, n + 2] = c, s
        x[:, n + 3] = s, -c
        np.multiply(x[:, n + 2:n + 4], step, out=x[:, n:n + 2])

    def output(self, z: np.ndarray, step: int) -> np.ndarray:
        """[v; i] at `step`, phases a, b, c, from the buffer one step behind."""
        return self.outputs[step >= self.ramp_end].dot(z.T).dot(TWO_AXIS)

    def state(self) -> EmtState:
        """The state at step n, the start state itself before any step.

        It is rebuilt from the buffer z one step behind it, whose L/C rows
        hold the history currents that step n was computed from: the node
        voltages of x = (O z^T) K, and i_hist = K^T of those rows.  The
        element currents are recomputed in companion form, g*(D v) +
        i_hist, so `companion_replay` reproduces them bit for bit.  The
        state shares no array with the loop.
        """
        if self.n == self.start.step:
            return self.start
        z, net = self.stack[self.pos - 1], self.net
        i_hist = np.zeros((len(self.element_ids), 3))
        i_hist[self.lc] = z[:, :self.n_lc].T.dot(TWO_AXIS)
        delta, dw, _, pm = self.machines.T.copy()
        state = EmtState(
            self.n, self.dt, net.nodes, self.element_ids, tuple(m.mid for m in net.machines),
            self.output(z, self.n)[:self.n_nodes].copy(), np.empty_like(i_hist), i_hist,
            delta, dw, pm)
        state.elem_i = companion_replay(self, state)
        return state

    # --- stepping -----------------------------------------------------------

    def step(self, x: np.ndarray, out: np.ndarray, ramp: bool) -> None:
        """Advance buffer x one dt, writing the new buffer into out: the one
        product out = x T^T, with the ramp's T when `ramp` (the new step is
        before `ramp_end`, so its source scale is below 1) and the
        post-ramp T otherwise; `advance` says which steps take it.  The
        kernel's products call the ndarray method: np.dot's C routine,
        without the array-function dispatch around it."""
        x.dot(self.ramp_map if ramp else self.post_map, out)

    def advance(self, length: int, samples: np.ndarray) -> None:
        """Advance 1 <= `length` <= the stack's length steps from step n,
        writing the probe samples of steps n + 1 .. n + length into
        samples, one column per step.

        The buffer at step n carries over to slot 0, and the oscillator is
        re-anchored from the clock at step n, so the rotation's rounding
        drift never spans more than one cycle.  Then one of two paths:

        * A net without a swinging machine, every region net included,
          takes one `step` per step, ramp or not, and the samples of those
          steps in one product per output map (`ProbeSet.sample`).
        * A net with swinging machines advances in chunks of at most
          `chunk` steps from its first step: the ramp's whole chunks of
          the cycle as linear maps (`ramp_chunk`), the ramp's steps after
          them by `step`, and after the ramp relaxed chunks (`relax`).
          The relaxed chunks keep the swinging machines' rows in
          `machine_rows`, taken from `machines` once before the first and
          written back once after the last.

        A cycle that steps no step makes no `step` or `ProbeSet.sample`
        call.
        """
        stack, n = self.stack, self.n
        if self.pos:
            stack[0] = stack[self.pos]
        self.anchor(stack[0], n)
        # Steps n + 1 .. ramp_end - 1 are the ramp's, their scale below 1.
        ramped = min(max(self.ramp_end - n - 1, 0), length)
        if self.swinging.size:
            chunked, stepped = ramped - ramped % self.chunk, ramped
            for first in range(0, chunked, self.chunk):
                self.ramp_chunk(first, samples[:, first:first + self.chunk])
            if ramped < length:
                self.ramp_maps = None  # the ramp ends in this cycle
        else:
            chunked, stepped = 0, length
        if chunked < stepped:
            step, pairs = self.step, islice(self.pairs, chunked, stepped)
            for x, out in islice(pairs, ramped - chunked):
                step(x, out, True)
            for x, out in pairs:
                step(x, out, False)
            self.probes.sample(stack[chunked:stepped], samples[:, chunked:stepped],
                               ramped - chunked)
        if stepped < length:
            # Slot k holds step n + k, the step before n + k + 1.
            wt = self.wt
            np.add(self.slots, n, out=wt)
            wt *= self.dt
            wt *= self.omega
            self.machines.take(self.swinging, 0, self.machine_rows)
            for first in range(stepped, length, self.chunk):
                size = min(self.chunk, length - first)
                self.relax(first, size, samples[:, first:first + size])
            self.machines[self.swinging, :2] = self.machine_rows[:, :2]
        self.n, self.pos = n + length, length
        self.steps_advanced += length

    def ramp_chunk(self, first: int, samples: np.ndarray) -> None:
        """Advance a net with swinging machines a whole `chunk` of steps of
        its ramp from the buffer in stack[first], writing the chunk's probe
        samples into samples, one column per step.

        The rotors are held, so the chunk is linear in its start's w (the
        class docstring's chunk maps): `_ChunkMaps.hand_on` reads w_0 where
        it is in the stack and does the rest, through the ramp's T.  Its
        maps are built on the loop's first ramp chunk and dropped in the
        cycle the ramp ends, so a chunk allocates nothing.
        """
        r = self.ramp_maps or self._ramp_maps()
        w0 = self.stack[first, :, :self.n_lc + 4]
        r.hand_on(w0, w0, self.stack, first + self.chunk, self.ramp_map, samples)

    def relax(self, first: int, length: int, samples: np.ndarray) -> None:
        """Advance a net with swinging machines `length` <= `chunk` steps
        after the ramp, from the buffer in stack[first], by Gauss-Jacobi
        waveform relaxation of its rotors (Lelarasmee, Ruehli and
        Sangiovanni-Vincentelli 1982, IEEE Trans. CAD 1(3)), writing the
        chunk's probe samples into samples, one column per step.

        The chunk reads its machines' start, [delta_0, dw_0, emf, pm] per
        machine, from `machine_rows` and writes their end step's [delta,
        speed_dev] there, where the next chunk reads them.  As windowed
        relaxation seeds each window from the last (White and
        Sangiovanni-Vincentelli 1987, Kluwer), the first guess extrapolates
        the power sums at the last chunk's guess nodes (`power_history`);
        a loop's first chunk, and a chunk after a shorter one, hold the
        power constant.  One product gives delta_0 and the guess's angles
        of the steps before the end, and one add of wt to them the first
        sweep's EMF angles theta = wt + delta.  Each sweep forms u, the
        machines' currents y, the power and, in one product, the angles
        and the end step's speed deviations (the class docstring's chunk
        maps), and from those angles the next theta.

        A sweep reads the angles only through theta, and the end step's
        angle and speed not at all, so the sweeps stop once the theta the
        next sweep would read equals the last sweep's bit for bit: one more
        sweep would reproduce every bit.  Each step's EMF reads the angle
        before it, so sweep k fixes step k for good, and the sweeps stop
        after at most `length` of them, whatever the guess.
        `chunks_relaxed` and `sweeps` count the work.  After the sweeps,
        the EMF rows amp u they assumed complete the chunk's input, and
        `_ChunkMaps.hand_on` samples and hands on, through the post-ramp
        T.  The maps and work buffers of chunks of this length are built
        once in the loop (`_SwingMaps`).
        """
        m = self.swing_maps.get(length) or self._swing_maps(length)
        # x = [sum over the axes of u*y; delta_0, dw_0, emf, pm]; the first
        # guess extrapolates the power sums of the last chunk.
        m.guess_map.dot(self.guess_in, m.lead)
        m.w0[:] = self.stack[first, :, :self.n_lc + 4]
        m.w0.dot(m.currents_w, m.i0)  # the currents' part from w_0
        # Each step's EMF is formed at the angle before the step.
        wt, read, swung, x = self.wt[first:first + length], m.read, m.swung, m.x
        (theta, theta_u), (theta_next, next_u) = m.thetas
        u, y, i0, currents, swing, power = m.u, m.y, m.i0, m.currents, m.swing, m.power
        cos_u, sin_u, y_d, y_q = m.axes
        np.add(wt, read, out=theta)
        for sweeps in range(1, length + 1):
            np.cos(theta_u, out=cos_u)
            np.sin(theta_u, out=sin_u)
            u.dot(currents, y)
            y += i0
            y *= u
            np.add(y_d, y_q, out=power)
            swing.dot(x, swung)
            np.add(wt, read, out=theta_next)
            if theta_next.tobytes() == theta.tobytes():
                break
            theta, theta_u, theta_next, next_u = theta_next, next_u, theta, theta_u
        self.chunks_relaxed += 1
        self.sweeps += sweeps
        self.machine_rows[:, :2] = m.end
        m.power.take(m.history_at, out=self.power_history, mode="clip")  # unbuffered
        # The EMF rows amp u the sweeps assumed complete the chunk's input.
        np.multiply(u, m.amplitude, out=m.e)
        m.hand_on(m.w0, m.we, self.stack, first + length, self.post_map, samples)


# --- probes and waveform recording -----------------------------------------------


class ProbeSet:
    """Resolved probe ids: node voltages and element currents, all phases.

    Every probe is one row of [v; i], the node voltages stacked on the
    element currents, so its samples are that row of the compiled net's
    output map applied to step buffers, then K^T for the phases (see
    `CompiledNet`).
    """

    def __init__(self, compiled: CompiledNet, record: list[str] | tuple):
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
        # The probes' rows of the output maps during the ramp and after it,
        # K^T folded in: one row per key, one column per axis and buffer row.
        self.maps = tuple((TWO_AXIS.T[:, :, None] * o[self.rows, None, None]).reshape(
            len(self.keys), 2 * compiled.rows) for o in compiled.outputs)

    def read(self, state: EmtState) -> np.ndarray:
        """The probe values of a state, one per key."""
        return np.vstack([state.v_nodes, state.elem_i])[self.rows].ravel()

    def sample(self, stack: np.ndarray, out: np.ndarray, ramped: int) -> None:
        """Write into out the probe values at the steps after a stack of
        buffers (steps, 2, rows), one row per key and one column per buffer.

        The first `ramped` buffers step into the ramp, the others after
        it.  Each part is one product with that output map's probe rows.
        """
        for part, o_p in zip((slice(None, ramped), slice(ramped, None)),
                             self.maps):
            if len(stack[part]):
                np.matmul(o_p, stack[part].reshape(-1, o_p.shape[1]).T, out=out[:, part])


class WaveformSet(NamedTuple):
    times: np.ndarray
    data: dict[str, np.ndarray]


def run(net: EmtNet, cfg: SimConfig, init: EmtState | None = None
        ) -> tuple[WaveformSet, EmtState]:
    """cfg.steps steps with probe recording and at most one fault.

    Advances a `CompiledNet` a cycle at a time.  A fault at or before the
    start step applies before the loop is built, and the start state
    migrates onto its net.  A later fault ends a chunk at its step, where
    the loop's state migrates onto the faulted topology and a new loop
    starts from it.  The traces are recorded probe-major, so each
    waveform is a row of one array.
    """
    state = zero_state(net, cfg.dt) if init is None else init
    check_compatible(net, cfg.dt, state)

    n_steps, start_step, fault = cfg.steps, state.step, cfg.fault
    if fault is not None and fault.target not in net.nodes:
        raise UnknownBus(f"fault targets unknown node '{fault.target}'")
    # An infinite fault resistance is no fault (`apply_fault`): it would
    # only end a chunk and rebuild the same net.
    no_fault = fault is None or math.isinf(fault.r_fault)
    fault_step = math.inf if no_fault else fault.step

    # One cycle per chunk; a DC net has no cycle and no rotation to drift.
    cycle = to_steps(net.period, cfg.dt) if net.frequency_hz > 0 else n_steps
    chunk = max(1, min(cycle, n_steps))

    if fault_step <= start_step:
        net, fault_step = apply_fault(net, fault.target, fault.r_fault), math.inf
    compiled = CompiledNet(net, cfg.dt, migrate_state(net, state), cfg.ramp_steps, cfg.record,
                           chunk)
    times = (start_step + np.arange(n_steps + 1)) * cfg.dt
    traces = np.zeros((len(compiled.probes.keys), n_steps + 1))
    traces[:, 0] = compiled.probes.read(compiled.start)

    while (done := compiled.n - start_step) < n_steps:
        if compiled.n >= fault_step:
            state = compiled.state()
            del compiled  # the pre-fault buffers and maps go first
            net, fault_step = apply_fault(net, fault.target, fault.r_fault), math.inf
            compiled = CompiledNet(net, cfg.dt, migrate_state(net, state), cfg.ramp_steps,
                                   cfg.record, chunk)
        length = min(chunk, n_steps - done, fault_step - compiled.n)
        compiled.advance(length, traces[:, done + 1:done + length + 1])
    return WaveformSet(times, dict(zip(compiled.probes.keys, traces))), compiled.state()


def run_until_steady(net: EmtNet, cfg: SimConfig, init: EmtState | None = None,
                     ) -> tuple[EmtState, int | None]:
    """Step the whole cycles of cfg.steps until every probe's cycle RMS
    stops changing.

    Steadiness: STEADY_CYCLES consecutive cycle-over-cycle relative RMS
    changes of at most RMS_CHANGE_TOL on every probe of cfg.record
    (detector armed only after a ramp completes: from cycle
    ceil(ramp_steps / cycle) on).  After detection, SETTLE_MARGIN_CYCLES
    more cycles run before the state is returned.  The three constants are
    read at call time.  Each cycle is one `CompiledNet.advance`.

    Returns (state, ready_step or None).
    """
    state = zero_state(net, cfg.dt) if init is None else init.copy()
    check_compatible(net, cfg.dt, state)

    n_cycle = to_steps(net.period, cfg.dt)
    if abs(n_cycle * cfg.dt - net.period) > 1e-9 * net.period or n_cycle < 4:
        raise InvalidParameter("period must be an integer multiple of dt, 4 steps or more")
    compiled = CompiledNet(net, cfg.dt, state, cfg.ramp_steps, cfg.record, n_cycle)
    arm_after = -(-(cfg.ramp_steps or 0) // n_cycle)  # whole cycles, rounded up

    buf = np.zeros((len(compiled.probes.keys), n_cycle))
    prev_rms: np.ndarray | None = None
    stable_run = 0
    fired_at: int | None = None
    ready: int | None = None

    for c in range(cfg.steps // n_cycle):
        compiled.advance(n_cycle, buf)
        if fired_at is not None:
            if c - fired_at >= SETTLE_MARGIN_CYCLES:
                ready = compiled.n
                break
            continue
        rms = np.sqrt(np.add.reduce(buf**2, axis=1) / n_cycle)  # np.mean, undispatched
        if prev_rms is not None and c >= arm_after:
            change = np.abs(rms - prev_rms) / np.maximum(rms, 1e-6)
            stable_run = stable_run + 1 if float(change.max()) <= RMS_CHANGE_TOL else 0
            if stable_run >= STEADY_CYCLES:
                fired_at = c
        prev_rms = rms

    return compiled.state(), ready


def companion_replay(compiled: CompiledNet, state: EmtState) -> np.ndarray:
    """Re-evaluate the companion relation from the stored state.

    `CompiledNet.state` sets the element currents of every stepped state
    with this function, so on such a state the result equals
    state.elem_i bit for bit.
    """
    u_now = compiled.incidence.dot(state.v_nodes)
    return compiled.g * u_now + state.i_hist


# --- phasor-domain solves on the same network ------------------------------------


def phasor_solve(net: EmtNet, dt: float, injected: list[str] | tuple = ()
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Single-frequency nodal solve of the network at its fundamental, its
    element admittances the discrete-companion values (g + h z)/(1 - j z),
    z = exp(-j w dt), so the result is the exact periodic steady state of
    the stepped kernel.  Y is stamped from `element_terminals` in element
    order.

    The net pins its own nodes (`pinned_nodes`): each source's node at the
    source's RMS phasor, then each machine's EMF node at its build-time
    EMF; a node pinned twice takes its last value.  One factorization of
    the unknown block serves 1 + len(injected) right-hand sides: row 0 of
    each result is the net's steady state, row 1 + k its response to a
    unit RMS current into node injected[k] with every pin at zero, the
    impedance matrix's column of that node (Grainger and Stevenson, *Power
    System Analysis*, 1994, ch. 8).  A node the net pins takes no
    injection (UnsupportedElement).

    Returns (node phasors, element current phasors), arrays of shape
    (1 + len(injected), n) in net.nodes and net.elements order, element
    currents oriented from n_from to n_to.
    """
    n = len(net.nodes)
    g, h, j = companion_arrays(net, dt)
    z = cmath.exp(-1j * net.omega * dt)
    y = (g + h * z) / (1.0 - j * z)
    f, t = element_terminals(net)
    ymat = np.zeros((n + 1, n + 1), dtype=complex)
    np.add.at(ymat, (np.column_stack([f, t, f, t]).ravel(), np.column_stack([f, t, t, f]).ravel()),
              np.column_stack([y, y, -y, -y]).ravel())

    values = ([cmath.rect(s.rms, s.angle) for s in net.sources]
              + [cmath.rect(m.emf_rms, m.delta0) for m in net.machines])
    pins = dict(zip(pinned_nodes(net), values))
    known = np.array(sorted(pins), dtype=int)
    unknown = np.delete(np.arange(n), known)
    cols = [net.nodes.index(nid) for nid in injected]
    if np.isin(cols, known).any():
        raise UnsupportedElement("a node the net pins takes no injection")
    v_known = np.array([pins[k] for k in known], dtype=complex)
    rhs = np.zeros((unknown.size, 1 + len(cols)), dtype=complex)
    rhs[:, 0] = -ymat[np.ix_(unknown, known)] @ v_known
    rhs[np.searchsorted(unknown, cols), 1 + np.arange(len(cols))] = 1.0
    if unknown.size:
        try:
            rhs = np.linalg.solve(ymat[np.ix_(unknown, unknown)], rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularConductance("phasor nodal matrix is singular") from exc
    v = np.zeros((1 + len(cols), n + 1), dtype=complex)
    v[0, known] = v_known
    v[:, unknown] = rhs.T
    return v[:, :-1], y * (v[:, f] - v[:, t])


# --- waveform export --------------------------------------------------------------


def write_waveforms_csv(path: str | Path, waves: WaveformSet) -> None:
    keys = list(waves.data.keys())
    lines = ["time," + ",".join(keys)]
    cols = [waves.data[k] for k in keys]
    for i, t in enumerate(waves.times):
        row = ",".join(f"{c[i]:.17g}" for c in cols)
        lines.append(f"{t:.17g},{row}")
    Path(path).write_text("\n".join(lines) + "\n")
