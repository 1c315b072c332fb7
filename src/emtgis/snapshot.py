"""Initialized snapshots and splicing.

One phasor solve of the white-box main system, with the kernel's
discrete-companion admittances, gives its steady state and its impedance
columns at the boundaries.  Each region is ramped in isolation behind the
Thevenin equivalent those give; the main system's snapshot is then its
exact discrete steady state at the currents the regions draw at their
splice steps, so the kernel resumes it on its periodic steady state, and
all subsystem snapshots are spliced at phase-aligned times.  Each
boundary has one reading: the current its region draws at its splice
step, with main's node phasor under that current as its voltage.
"""

from __future__ import annotations

import cmath
import json
import math
import operator
from dataclasses import dataclass, field, replace
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import emtkernel as ek
from .coordinator import BoundaryState, IterationTrace, JfngConfig, jfng_solve
from .emtkernel import Element, ElementKind, EmtNet, EmtState, Machine, SimConfig, Source
from .errors import (
    IncompatibleSnapshot,
    ScheduleViolation,
    StageFailure,
    SteadyStateTimeout,
    TopologyMismatch,
    UnsupportedElement,
)
from .grbc import GrbcEvaluation, GrbcKind
from .netmodel import CaseFile, MachineKind, Phasor, validate_case
from .powerflow import PowerFlowSolution
# Unread here: the benchmark's tracer self-test asserts it wraps this binding.
from .powerflow import solve_main  # noqa: F401


MAIN_SUBSYSTEM = "main"
SQRT2 = ek.SQRT2

PROVENANCE_PHASOR = "PhasorInit"
PROVENANCE_RAMP = "RampInit"
PROVENANCE_SPLICED = "Spliced"

# Source-behind-impedance stand-in for regions without a visible EMT model.
OPAQUE_EQUIVALENT_Z = 0.05 + 0.25j
# Periods in the splice modulus of `schedule_from_steps`.
SPLICE_PERIODS = 2


@dataclass
class Snapshot:
    """Complete instantaneous subsystem state plus its boundary phasors:
    for each boundary bus, the current into its region and main's node
    phasor under it (`phasor_init`), as main's and the spliced snapshot
    carry them; a region's ramped snapshot carries none."""

    subsystem: str
    frequency_hz: float
    emt_state: EmtState        # its step and dt are the snapshot's
    boundary_phasors: dict[str, tuple[Phasor, Phasor]]  # bus -> (V, I into region)
    provenance: str
    parts: dict[str, str] = field(default_factory=dict)

    @property
    def timestamp_steps(self) -> int:
        return self.emt_state.step


# --- network construction from the grid model ---------------------------------


class _NetBuilder:
    def __init__(self, name: str, frequency_hz: float):
        self.name = name
        self.frequency_hz = frequency_hz
        self.omega = 2.0 * math.pi * frequency_hz
        self.nodes: dict[str, None] = {}  # in insertion order
        self.elements: list[Element] = []
        self.sources: list[Source] = []
        self.machines: list[Machine] = []

    def node(self, nid: str) -> str:
        self.nodes.setdefault(nid)
        return nid

    def series_rx(self, eid: str, n_from: str, n_to: str | None, r: float, x: float):
        """Series R + L (or R + C for x < 0), mid node inserted when both exist."""
        if r == 0.0 and x == 0.0:
            raise UnsupportedElement(f"element '{eid}' has zero impedance")
        self.node(n_from)
        if n_to is not None:
            self.node(n_to)
        parts: list[tuple[str, ElementKind, float]] = []
        if r != 0.0:
            if r < 0.0:
                raise UnsupportedElement(f"negative resistance on '{eid}'")
            parts.append((f"{eid}:r", ElementKind.RESISTOR, r))
        if x > 0.0:
            parts.append((f"{eid}:l", ElementKind.INDUCTOR, x / self.omega))
        elif x < 0.0:
            parts.append((f"{eid}:c", ElementKind.CAPACITOR, -1.0 / (self.omega * x)))
        if len(parts) == 1:
            pid, kind, val = parts[0]
            self.elements.append(Element(pid, kind, n_from, n_to, val))
        else:
            mid = self.node(f"{eid}:mid")
            self.elements.append(Element(parts[0][0], parts[0][1], n_from, mid, parts[0][2]))
            self.elements.append(Element(parts[1][0], parts[1][1], mid, n_to, parts[1][2]))

    def shunt_susceptance(self, eid: str, node: str, b: float):
        self.node(node)
        if b > 0.0:
            self.elements.append(Element(eid, ElementKind.CAPACITOR, node, None, b / self.omega))
        elif b < 0.0:
            self.elements.append(
                Element(eid, ElementKind.INDUCTOR, node, None, -1.0 / (self.omega * b))
            )

    def load(self, eid: str, node: str, p: float, q: float, v_mag: float):
        """Constant-impedance load drawing exactly p + jq at magnitude v_mag."""
        if p == 0.0 and q == 0.0:
            return
        if p < 0.0:
            raise UnsupportedElement(f"negative load at '{node}' has no EMT model")
        s2 = p * p + q * q
        z = v_mag * v_mag / s2 * complex(p, q)
        self.series_rx(eid, node, None, z.real, z.imag)

    def ideal_source(self, sid: str, node: str, phasor: complex):
        self.node(node)
        self.sources.append(Source(sid, node, abs(phasor), cmath.phase(phasor)))

    def machine(self, mid: str, bus: str, xd: float, inertia_h: float, damping: float,
                emf: complex, pm: float):
        emf_node = self.node(f"{mid}:emf")
        self.node(bus)
        branch_eid = f"{mid}:xd"
        self.elements.append(
            Element(branch_eid, ElementKind.INDUCTOR, emf_node, bus, xd / self.omega)
        )
        self.machines.append(
            Machine(mid, bus, emf_node, branch_eid, inertia_h, damping,
                    abs(emf), cmath.phase(emf), pm)
        )

    def build(self) -> EmtNet:
        return EmtNet(self.name, self.frequency_hz, tuple(self.nodes),
                      tuple(self.elements), tuple(self.sources), tuple(self.machines))


def machine_port_current(s: complex, v: complex) -> complex:
    """Port current phasor of a component from its injection and voltage."""
    return (s / v).conjugate()


def machine_internal_emf(v: complex, i: complex, xd: float) -> complex:
    """Classical phasor diagram: EMF behind the transient reactance."""
    return v + 1j * xd * i


def _machine_injection(case: CaseFile, pf: PowerFlowSolution, bus_id: str) -> complex:
    bus = case.bus(bus_id)
    p, q = pf.injection(bus_id)
    return complex(p + bus.p_load, q + bus.q_load)


def _add_case_parts(builder: _NetBuilder, case: CaseFile, pf: PowerFlowSolution,
                    namespace: str = ""):
    """Branches, shunts, loads and machines of one case, loads converted to
    constant impedance at their solved voltages."""
    ns = namespace

    for b in case.buses:
        builder.node(b.id)

    for k, br in enumerate(case.branches):
        if abs(br.tap - 1.0) > 1e-12:
            raise UnsupportedElement(
                f"off-nominal tap on {br.from_bus}-{br.to_bus}: EMT model undefined"
            )
        eid = f"{ns}ln:{br.from_bus}-{br.to_bus}:{k}"
        builder.series_rx(eid, br.from_bus, br.to_bus, br.r, br.x)
        if br.b_half != 0.0:
            builder.shunt_susceptance(f"{eid}:bf", br.from_bus, br.b_half)
            builder.shunt_susceptance(f"{eid}:bt", br.to_bus, br.b_half)

    for b in case.buses:
        if b.shunt_g != 0.0:
            if b.shunt_g < 0.0:
                raise UnsupportedElement(f"negative shunt conductance at '{b.id}'")
            builder.elements.append(
                Element(f"{ns}shg:{b.id}", ElementKind.RESISTOR, builder.node(b.id),
                        None, 1.0 / b.shunt_g)
            )
        if b.shunt_b != 0.0:
            builder.shunt_susceptance(f"{ns}shb:{b.id}", b.id, b.shunt_b)
        if b.p_load != 0.0 or b.q_load != 0.0:
            builder.load(f"{ns}load:{b.id}", b.id, b.p_load, b.q_load,
                         pf.voltage(b.id).magnitude)

    seen_machine_bus: set[str] = set()
    for m in case.machines:
        if m.bus in seen_machine_bus:
            raise UnsupportedElement(f"multiple machines at bus '{m.bus}'")
        seen_machine_bus.add(m.bus)
        v = pf.voltage(m.bus).rect
        if m.kind is MachineKind.IDEAL_SOURCE:
            builder.ideal_source(f"{ns}src:{m.bus}", m.bus, v)
        else:
            s = _machine_injection(case, pf, m.bus)
            i = machine_port_current(s, v)
            emf = machine_internal_emf(v, i, m.xd_transient)
            pm = (emf * i.conjugate()).real
            builder.machine(f"{ns}gen:{m.bus}", m.bus, m.xd_transient,
                            m.inertia_h, m.damping, emf, pm)


def build_main_net(case: CaseFile, pf: PowerFlowSolution) -> EmtNet:
    """EMT model of the main system alone (boundary buses present, regions absent)."""
    b = _NetBuilder(f"{case.name}:main", case.frequency_hz)
    _add_case_parts(b, case, pf)
    return b.build()


class RegionOperatingPoint(NamedTuple):
    """Everything needed to build and initialize one region's EMT model:
    its declaration, and its boundary voltage and `evaluate` result in the
    coordinator's converged state.  A white-box region's evaluation holds
    its internal power flow, whose case is `decl.pf_problem.case`
    (`grbc.internal_pf_case`, ids '<region>/<id>')."""

    decl: object
    v_boundary: Phasor
    evaluation: GrbcEvaluation


def region_operating_point(decl, state: BoundaryState, i: int) -> RegionOperatingPoint:
    """Region i's operating point, read from `state`; nothing is solved."""
    return RegionOperatingPoint(decl, state.voltage(i), state.evaluations[i])


def build_region_net(op: RegionOperatingPoint) -> EmtNet:
    """Region-side EMT model sharing the boundary node with the main system.

    White-box regions contribute their internal network (initialized at the
    internal power flow); opaque regions contribute a source-behind-impedance
    equivalent that reproduces the coordinated boundary injection.
    """
    decl, e = op.decl, op.evaluation
    ns = f"{decl.name}/"
    b = _NetBuilder(f"region:{decl.name}", decl.frequency_hz)
    b.node(decl.boundary_bus)
    if decl.kind is GrbcKind.WHITE_BOX_NETWORK:
        # the boundary bus row itself carries no region-side load by construction
        _add_case_parts(b, decl.pf_problem.case, e.internal_pf, namespace=ns)
    else:
        v = op.v_boundary.rect
        i_into_region = machine_port_current(-complex(e.p_tilde, e.q_tilde), v)
        e_int = v - OPAQUE_EQUIVALENT_Z * i_into_region
        src_node = f"{ns}src"
        b.series_rx(f"{ns}zint", b.node(src_node), decl.boundary_bus,
                    OPAQUE_EQUIVALENT_Z.real, OPAQUE_EQUIVALENT_Z.imag)
        b.ideal_source(f"{ns}esrc", src_node, e_int)
    return b.build()


def _join(name: str, nets: list[EmtNet]) -> EmtNet:
    """`nets` as one net, in order, at the first one's frequency: their
    nodes, each once at its first place, so the nets connect at the nodes
    they share, and their elements, sources and machines."""
    def chained(part: str) -> tuple:
        return tuple(chain.from_iterable(getattr(net, part) for net in nets))
    return EmtNet(name, nets[0].frequency_hz, tuple(dict.fromkeys(chained("nodes"))),
                  chained("elements"), chained("sources"), chained("machines"))


def build_full_net(name: str, main_net: EmtNet, region_nets: list[EmtNet]) -> EmtNet:
    """Whole-system EMT model `name`: the main net and every region net
    joined at their boundary nodes (`_join`), nothing converted again, so
    its every part is one that a subsystem net steps."""
    return _join(name, [main_net, *region_nets])


# --- phasor-based initialization of a white-box network -------------------------


def phasor_init(net: EmtNet, dt: float, solved: tuple[np.ndarray, np.ndarray],
                currents: dict[str, complex]) -> Snapshot:
    """Snapshot of the main system at step 0, with no solve of its own.

    `solved` is `ek.phasor_solve(net, dt, list(currents))` of the main net
    (`SystemModel.main_net`), and `currents` (bus: RMS phasor) is the
    current each region draws from its boundary bus, in the solve's
    injection order.  By superposition the phasors are row 0 minus each
    boundary's row times its current: the exact discrete steady state of
    the main net under those draws, which the kernel continues without
    any startup transient.  Each bus's boundary phasors are its node
    phasor and the current it was given, the one reading of that boundary
    that the spliced snapshot keeps.
    """
    w = np.concatenate([[1.0], -np.array(list(currents.values()), dtype=complex)])
    node_ph, elem_ph = w @ solved[0], w @ solved[1]
    state = _state_from_phasors(net, node_ph, elem_ph, dt)
    boundary_phasors = {bus: (Phasor.from_complex(complex(node_ph[net.nodes.index(bus)])),
                              Phasor.from_complex(i))
                        for bus, i in currents.items()}
    return Snapshot(MAIN_SUBSYSTEM, net.frequency_hz, state,
                    boundary_phasors, PROVENANCE_PHASOR,
                    parts={MAIN_SUBSYSTEM: PROVENANCE_PHASOR})


def _state_from_phasors(net: EmtNet, node_ph: np.ndarray, elem_ph: np.ndarray,
                        dt: float) -> EmtState:
    """The state at step 0 (t = 0) of node and element phasors, a row of
    `phasor_solve`'s or a sum of rows (`phasor_init`), history currents
    h u + j i at -dt; machines keep `zero_state`'s rotors and take the
    phasors' power, EMF node phasor times branch current."""
    state = ek.zero_state(net, dt)

    def inst(ph: np.ndarray, t: float) -> np.ndarray:
        return SQRT2 * np.real(ph[:, None] * np.exp(1j * (net.omega * t + ek.PHASE_SHIFT)))

    n_from, n_to = ek.element_terminals(net)
    du = np.append(node_ph, 0.0)
    du = du[n_from] - du[n_to]
    _, h, j = ek.companion_arrays(net, dt)
    state.v_nodes[:] = inst(node_ph, 0.0)
    state.i_hist[:] = inst(h * du + j * elem_ph, -dt)
    state.elem_i[:] = inst(elem_ph, 0.0)
    emf = [net.nodes.index(m.emf_node) for m in net.machines]
    branch = [state.element_ids.index(m.branch_eid) for m in net.machines]
    state.machine_pm[:] = (node_ph[emf] * elem_ph[branch].conj()).real
    return state


# --- Thevenin extraction ---------------------------------------------------------


class TheveninEquivalent(NamedTuple):
    """Boundary equivalent: source e_eq behind impedance z_eq.

    Satisfies e_eq = i_b * z_eq + v_b with i_b the boundary current into
    the attached region at the operating point and v_b the bus voltage
    there; z_eq is the main net's impedance at the bus as the kernel steps
    it, at the discrete-companion admittances (`thevenin_extract`).
    """

    e_eq: Phasor
    z_eq: complex


def thevenin_extract(zbus: dict[str, np.ndarray], drawn: dict[str, complex],
                     boundary: str) -> TheveninEquivalent:
    """Boundary equivalent of the main system seen from one region.

    `zbus` holds each boundary bus's column of `ek.phasor_solve` of the
    main net with a unit injection at every boundary, in the solve's
    order: its open-circuit phasor v_oc, then its impedances Z_bj to each
    boundary j.  `drawn` (bus: RMS phasor), in the same order, is the
    current i_j each region draws at the power-flow operating point.  So
    the bus sits at v_b = v_oc - sum_j Z_bj i_j, and z_eq = Z_bb, e_eq =
    v_b + z_eq i_b.
    """
    col = zbus[boundary]
    k = list(zbus).index(boundary)
    i = np.fromiter(drawn.values(), complex, len(drawn))
    z_eq = complex(col[1 + k])
    return TheveninEquivalent(Phasor.from_complex(complex(col[0] - col[1:] @ i + z_eq * i[k])),
                              z_eq)


def attach_thevenin(net: EmtNet, boundary: str, thevenin: TheveninEquivalent,
                    dt: float) -> tuple[EmtNet, str]:
    """Region net plus the equivalent source, joined at the boundary node
    (`_join`); returns the net and the id of the series element whose
    current flows into the subsystem.  The equivalent's reactance x is
    pre-warped to the trapezoidal rule's frequency w' = (2/dt) tan(w dt/2),
    an inductance of x/w' or a capacitance of -1/(w' x), so the kernel
    steps exactly z_eq at w."""
    b = _NetBuilder("thev", net.frequency_hz)
    b.omega = 2.0 / dt * math.tan(b.omega * dt / 2.0)
    src_node = b.node("thev:src")
    z = thevenin.z_eq
    b.series_rx("thev:z", src_node, boundary, z.real, z.imag)
    probe_eid = b.elements[-1].eid  # the series part adjacent to the boundary node
    b.ideal_source("thev:e", src_node, thevenin.e_eq.rect)
    return _join(net.name + "+thev", [net, b.build()]), probe_eid


def hold_rotors(net: EmtNet) -> EmtNet:
    """`net` with every machine's rotor held (inertia_h = 0): the kernel
    steps each machine as a source at its state's angle, which from
    `zero_state` on is its build-time angle, the coordinated power flow's.
    `run_emtgis` ramps and advances every region net so, from the ramp to
    the splice, so each region is spliced at its power-flow rotor angles;
    the full net keeps its free rotors."""
    return net._replace(machines=tuple(m._replace(inertia_h=0.0) for m in net.machines))


def ramp_length(net: EmtNet, t_ramp: float | None = None) -> float:
    """The source ramp of a full net's start from zero: t_ramp if given,
    else two periods where no machine swings (inertia_h > 0) and 0.5 s
    where one swings, as a fast ramp excites its swing (ninebus3's plant2
    with a free rotor: 54,400 steps at 0.04 s, 14,000 at 0.5 s)."""
    if t_ramp is not None:
        return t_ramp
    return 0.5 if any(m.inertia_h > 0 for m in net.machines) else 2 * net.period


def ramp_to_snapshot(grbc_net: EmtNet, thevenin: TheveninEquivalent, cfg: SimConfig,
                     boundary_bus: str, subsystem: str) -> Snapshot:
    """Ramp a region net behind its boundary equivalent until steady.

    All sources (the equivalent and any internal ones) follow the same
    linear ramp over cfg.ramp_steps; the steady-state detector watches
    every node of the region plus the boundary current.  The snapshot
    carries no boundary phasors: the spliced snapshot's are main's, at the
    current the region draws at its splice step (`run_emtgis`).
    """
    net, probe_eid = attach_thevenin(grbc_net, boundary_bus, thevenin, cfg.dt)
    cfg = replace(cfg, record=[*grbc_net.nodes, f"i:{probe_eid}"])
    state, ready_step = ek.run_until_steady(net, cfg)
    if ready_step is None:
        raise SteadyStateTimeout(cfg.steps * cfg.dt)
    return Snapshot(subsystem, net.frequency_hz, state, {}, PROVENANCE_RAMP,
                    parts={subsystem: PROVENANCE_RAMP})


# --- splice schedule --------------------------------------------------------------


class SpliceSchedule(NamedTuple):
    t_ref_steps: int
    t_adj_steps: dict[str, int]


def schedule_from_steps(ready_steps: dict[str, int], period_steps: int) -> SpliceSchedule:
    """Each subsystem's splice step: its first step at or after its ready
    step that lies a whole number of SPLICE_PERIODS periods after the
    subsystem ready first.  Any whole number of periods splices every
    subsystem at one phase of its periodic steady state; two is the one
    value the pipeline ever used, the one its adjusted steps are pinned at."""
    t_ref = min(ready_steps.values())
    modulus = SPLICE_PERIODS * period_steps
    adj = {}
    for name, t in ready_steps.items():
        k = -((t_ref - t) // modulus)  # ceil((t - t_ref)/modulus)
        adj[name] = t_ref + k * modulus
    return SpliceSchedule(t_ref, adj)


def advance_snapshot(snap: Snapshot, net: EmtNet, target_steps: int,
                     dt: float) -> Snapshot:
    """Continue a subsystem in isolation, unramped, to its splice step
    target_steps; only its state moves."""
    extra = target_steps - snap.timestamp_steps
    if extra < 0:
        raise ScheduleViolation(
            f"subsystem '{snap.subsystem}' is already past its scheduled time"
        )
    if extra == 0:
        return snap
    _, state = ek.run(net, SimConfig(dt=dt, steps=extra), init=snap.emt_state)
    return replace(snap, emt_state=state)


# --- splicing -----------------------------------------------------------------------


def splice(snapshots: dict[str, Snapshot], schedule: SpliceSchedule,
           full_net: EmtNet, dt: float) -> tuple[Snapshot, dict[str, float]]:
    """Merge subsystem snapshots into one whole-system state.

    Equivalent sources disappear simply by not existing in the full net.
    Each full-net element, node and machine takes its row from the first
    subsystem, main first, whose snapshot has it; a node that a later
    subsystem shares (a boundary node) records that subsystem's largest
    disagreement as its splicing deviation, instantaneous pu-peak.
    """
    for name in schedule.t_adj_steps:
        if name not in snapshots:
            raise TopologyMismatch(f"no snapshot for scheduled subsystem '{name}'")
        snap = snapshots[name]
        if snap.timestamp_steps != schedule.t_adj_steps[name]:
            raise ScheduleViolation(
                f"subsystem '{name}' captured at step {snap.timestamp_steps}, "
                f"scheduled {schedule.t_adj_steps[name]}"
            )
        if abs(snap.emt_state.dt - dt) > 1e-18:
            raise IncompatibleSnapshot(f"subsystem '{name}' uses a different dt")

    merged = ek.zero_state(full_net, dt)
    merged.step = schedule.t_ref_steps
    states = [snapshots[name].emt_state
              for name in sorted(snapshots, key=lambda n: n != MAIN_SUBSYSTEM)]
    deviation = np.zeros(len(merged.node_ids))
    shared = np.zeros(len(merged.node_ids), dtype=bool)
    for ids, fields in (("element_ids", ("elem_i", "i_hist")),
                        ("node_ids", ("v_nodes",)),
                        ("machine_ids", ("machine_delta", "machine_speed_dev",
                                         "machine_pm"))):
        index = {x: k for k, x in enumerate(getattr(merged, ids))}
        owned = np.zeros(len(index), dtype=bool)
        for st in states:
            rows = np.array([index.get(x, -1) for x in getattr(st, ids)], dtype=int)
            src = np.flatnonzero(rows >= 0)
            dst = rows[src]
            new = ~owned[dst]
            for f in fields:
                getattr(merged, f)[dst[new]] = getattr(st, f)[src[new]]
            if ids == "node_ids":
                old = dst[~new]
                gap = np.abs(merged.v_nodes[old] - st.v_nodes[src[~new]]).max(axis=1)
                deviation[old] = np.maximum(deviation[old], gap)
                shared[old] = True
            owned[dst] = True
        if not owned.all():
            missing = getattr(merged, ids)[np.argmin(owned)]
            raise TopologyMismatch(
                f"{ids.removesuffix('_ids')} '{missing}' missing from all snapshots")
    deviations = {merged.node_ids[k]: float(deviation[k]) for k in np.flatnonzero(shared)}

    boundary_phasors = {}
    parts = {}
    for name, snap in snapshots.items():
        parts.update(snap.parts)
        boundary_phasors.update(snap.boundary_phasors)
    provenance = PROVENANCE_SPLICED
    if set(parts.values()) == {PROVENANCE_PHASOR}:
        provenance = PROVENANCE_PHASOR
    freq = next(iter(snapshots.values())).frequency_hz
    out = Snapshot("whole", freq, merged, boundary_phasors, provenance, parts)
    return out, deviations


# --- end-to-end pipeline ---------------------------------------------------------


@dataclass
class PipelineConfig:
    """t_ramp, if given, ramps every region; None, `region_ramp`'s rule."""

    dt: float = 5e-5
    t_ramp: float | None = None
    ramp_budget: float = 6.0       # per-region steady-state search window
    jfng: JfngConfig = field(default_factory=JfngConfig)

    def region_ramp(self, case: CaseFile) -> float:
        """The source ramp of every region net, its rotors held: t_ramp, or
        else two periods, which gets a region ready in about a third of the
        steps 0.5 s takes, as close to the exact steady state."""
        return 2 * case.period if self.t_ramp is None else self.t_ramp


class SystemModel(NamedTuple):
    """Coordinated operating point plus the EMT models built from it, each
    once: the main net, one region net per region (`region_ops`' order)
    and the whole-system net, their join (`build_full_net`)."""

    boundary_state: BoundaryState
    ipf_trace: IterationTrace
    region_ops: list[RegionOperatingPoint]
    main_net: EmtNet
    region_nets: list[EmtNet]
    full_net: EmtNet


class PipelineResult(NamedTuple):
    """The system model plus what the pipeline adds: the spliced snapshot,
    its report and the per-subsystem snapshots it was spliced from.  The
    report is the report.json document `emtgis init` writes, built once."""

    model: SystemModel
    snapshot: Snapshot
    report: dict
    subsystem_snapshots: dict[str, Snapshot]


def _stage(name, fn, *args, **kw):
    """fn(*args, **kw), its failure tagged with the stage name; a
    MemoryError passes through as it is, a run too large for memory."""
    try:
        return fn(*args, **kw)
    except MemoryError:
        raise
    except Exception as exc:
        raise StageFailure(name, exc) from exc


def system_model(case: CaseFile, cfg: PipelineConfig | None = None) -> SystemModel:
    """Validate, coordinate the whole-system power flow (`jfng_solve`; a
    case without regions converges at its first residual, one main solve),
    read every region's operating point from the converged state, which
    solved it, and build the main net and every region net, then the
    whole-system net from them.  An invalid case, a dt that does not
    divide the period or leaves fewer than 4 steps per period, or a region
    ramp that leaves no ramp budget to settle in, raises ValueError, an
    input error, not a stage failure."""
    cfg = cfg or PipelineConfig()
    validate_case(case).raise_if_invalid()
    period_steps = case.period / cfg.dt
    if abs(period_steps - round(period_steps)) > 1e-9:
        raise ValueError(f"the period {case.period} s is not an integer multiple "
                         f"of dt {cfg.dt} s")
    if round(period_steps) < 4:
        raise ValueError(f"dt {cfg.dt} s leaves {round(period_steps)} steps per period "
                         f"{case.period} s, fewer than 4")
    if (t_ramp := cfg.region_ramp(case)) >= cfg.ramp_budget:
        raise ValueError(f"the region ramp of {t_ramp} s is not shorter than the ramp "
                         f"budget {cfg.ramp_budget} s")

    state, trace = _stage("ipf", jfng_solve, case, case.grbcs, cfg=cfg.jfng)
    region_ops = [region_operating_point(decl, state, i) for i, decl in enumerate(case.grbcs)]
    main_net = _stage("build_network", build_main_net, case, state.main_solution)
    region_nets = [_stage("build_network", build_region_net, op) for op in region_ops]
    full_net = _stage("build_network", build_full_net, f"{case.name}:full", main_net, region_nets)
    return SystemModel(state, trace, region_ops, main_net, region_nets, full_net)


def run_emtgis(case: CaseFile, model: SystemModel, cfg: PipelineConfig) -> PipelineResult:
    """The pipeline after `system_model` built `model` from case and cfg:
    one discrete phasor solve of the main net with a unit injection at
    every boundary, the ramp of every region behind the Thevenin
    equivalent it gives, schedule, advance, the main system's snapshot at
    the currents the regions draw at their splice steps (the space vector
    of each equivalent's probe element current), which with main's node
    phasors under them are the spliced snapshot's boundary phasors, and
    splice.  It steps the model's nets; only the advance builds its own,
    each region's net and equivalent again.  Any stage failure is
    re-raised tagged with the stage name."""
    stage = _stage
    state = model.boundary_state
    pf = state.main_solution
    main_net = model.main_net
    solved = stage("phasor_init", ek.phasor_solve, main_net, cfg.dt, state.bus_ids)
    zbus = {bus: solved[0][:, main_net.nodes.index(bus)] for bus in state.bus_ids}
    drawn = {bus: machine_port_current(complex(state.p[i], state.q[i]), pf.voltage(bus).rect)
             for i, bus in enumerate(state.bus_ids)}

    t_ramp = cfg.region_ramp(case)
    ramp_cfg = SimConfig(dt=cfg.dt, steps=ek.to_steps(cfg.ramp_budget, cfg.dt),
                         ramp_steps=ek.to_steps(t_ramp, cfg.dt))

    def ramp_one(op: RegionOperatingPoint, region_net: EmtNet) -> Snapshot:
        thev = thevenin_extract(zbus, drawn, op.decl.boundary_bus)
        return ramp_to_snapshot(hold_rotors(region_net), thev, ramp_cfg,
                                op.decl.boundary_bus, op.decl.name)

    regions = {snap.subsystem: snap for snap in stage(
        "ramp_to_snapshot", lambda: list(map(ramp_one, model.region_ops, model.region_nets)))}

    ready_steps = {MAIN_SUBSYSTEM: 0, **{name: s.timestamp_steps for name, s in regions.items()}}
    period_steps = ek.to_steps(case.period, cfg.dt)
    schedule = stage("splice_schedule", schedule_from_steps, ready_steps, period_steps)

    currents = {}

    def advance_all():
        for op in model.region_ops:
            name, bus = op.decl.name, op.decl.boundary_bus
            thev = thevenin_extract(zbus, drawn, bus)
            net, probe = attach_thevenin(hold_rotors(build_region_net(op)), bus, thev, cfg.dt)
            regions[name] = advance_snapshot(regions[name], net, schedule.t_adj_steps[name],
                                             cfg.dt)
            st = regions[name].emt_state
            phase = net.omega * st.step * st.dt + ek.PHASE_SHIFT
            currents[bus] = complex(SQRT2 / 3.0 * st.elem_i[st.element_ids.index(probe)]
                                    @ np.exp(-1j * phase))
    stage("advance", advance_all)
    snap_main = stage("phasor_init", phasor_init, main_net, cfg.dt, solved, currents)
    snapshots = {MAIN_SUBSYSTEM: snap_main, **regions}

    spliced, deviations = stage("splice", splice, snapshots, schedule, model.full_net,
                                cfg.dt)

    adjusted = schedule.t_adj_steps
    trace = model.ipf_trace
    report = {
        "ipf": {"status": trace.status, "outer_iterations": trace.outer_iterations,
                "phi_norms": trace.phi_norms(),
                "inner_iterations": [r.inner_iters for r in trace.rows]},
        "boundary": state.to_dict(),
        "t_ramp": {op.decl.name: t_ramp for op in model.region_ops},
        "ready_steps": ready_steps,
        "adjusted_steps": dict(adjusted),
        "splice_deviations": deviations,
        "gis_cost_steps": max(adjusted.values()) if adjusted else 0,
        "gis_total_steps": sum(adjusted.values()),
        "dt": cfg.dt,
    }
    return PipelineResult(model, spliced, report, snapshots)


def zero_start(full_net: EmtNet, dt: float) -> EmtState:
    """The start of every zero-state run of the whole net, `simulate
    --zero-state`'s and `compare`'s baseline alike: `ek.zero_state` with
    each swinging rotor (inertia_h > 0) at angle 0.

    Rotor angles are dynamic states, not model parameters: a swinging
    machine's swing dynamics (active once the ramp completes) find the
    operating point on their own.  A machine without inertia has no
    swing: the kernel steps it as a source at its state's angle all run,
    so it keeps its power-flow angle."""
    state = ek.zero_state(full_net, dt)
    state.machine_delta[[m.inertia_h > 0 for m in full_net.machines]] = 0.0
    return state


def settle_from_zero(full_net: EmtNet, cfg: SimConfig, t_ramp: float) -> tuple[EmtState, int]:
    """Zero-state ramping baseline on the whole net from `zero_start` for
    at most cfg.steps steps, its sources ramped over t_ramp (cfg.ramp_steps
    is not read) and its probes cfg.record; returns the settled state and
    the step at which steadiness was declared.  Machine branch currents
    join the detector probes: rotor swings modulate angles far more than
    voltage magnitudes, and currents expose them to the cycle-RMS test.
    """
    record = list(cfg.record)
    record += [f"i:{m.branch_eid}" for m in full_net.machines
               if f"i:{m.branch_eid}" not in record]
    cfg = replace(cfg, record=record,
                  ramp_steps=ek.to_steps(t_ramp, cfg.dt))
    state, fired = ek.run_until_steady(full_net, cfg, init=zero_start(full_net, cfg.dt))
    if fired is None:
        raise SteadyStateTimeout(cfg.steps * cfg.dt)
    return state, fired


# --- snapshot file round trip ------------------------------------------------------

# The `EmtState` fields under a snapshot file's "state": three id lists, then
# v_nodes (phases a, b, c per node), elem_i and i_hist (per element) and one
# value per machine.  Its step and dt are "timestamp_steps" and "dt".
STATE_FIELDS = ("node_ids", "element_ids", "machine_ids", "v_nodes", "elem_i",
                "i_hist", "machine_delta", "machine_speed_dev", "machine_pm")


def save_snapshot(snap: Snapshot, path: str | Path) -> None:
    """Write a snapshot file (version 3): one JSON object of "version",
    "subsystem", "timestamp_steps", "dt", "frequency_hz", "provenance",
    "parts", "state" (each of STATE_FIELDS as nested lists) and
    "boundary_phasors" (bus: [|V|, angle V, |I|, angle I]).  json writes
    every float in its shortest exact form, -0.0 included."""
    st = snap.emt_state
    doc = {"version": 3, "subsystem": snap.subsystem,
           "timestamp_steps": int(snap.timestamp_steps), "dt": st.dt,
           "frequency_hz": snap.frequency_hz, "provenance": snap.provenance,
           "parts": snap.parts,
           "state": {f: np.asarray(getattr(st, f)).tolist() for f in STATE_FIELDS},
           "boundary_phasors": {bus: [v.magnitude, v.angle, i.magnitude, i.angle]
                                for bus, (v, i) in snap.boundary_phasors.items()}}
    Path(path).write_text(json.dumps(doc) + "\n")


def load_snapshot(path: str | Path) -> Snapshot:
    """Read a file `save_snapshot` wrote.  A missing file raises
    FileNotFoundError; any other that is not a version-3 snapshot (not a
    JSON object, an earlier version, a key missing, a value of the wrong
    type, an array whose shape disagrees with its ids, a number that is
    NaN or infinite) raises IncompatibleSnapshot."""
    try:
        doc = json.loads(Path(path).read_bytes())
        if doc.get("version") != 3:
            raise IncompatibleSnapshot(f"{path}: snapshot version {doc.get('version')!r}, not 3")
        state, parts = doc["state"], dict(doc["parts"])
        ids = [tuple(state[f]) for f in STATE_FIELDS[:3]]
        strings = [doc["subsystem"], doc["provenance"], *parts.values(), *sum(ids, ())]
        if not all(isinstance(s, str) for s in strings):
            raise TypeError("an id, part, subsystem or provenance is not a string")
        n, e, m = map(len, ids)
        shapes = [(n, 3), (e, 3), (e, 3), (m,), (m,), (m,)]
        fields = dict(zip(STATE_FIELDS, ids))
        fields.update((f, _floats(f, state[f], shape))
                      for f, shape in zip(STATE_FIELDS[3:], shapes))
        step = operator.index(doc["timestamp_steps"])
        dt, frequency_hz = (float(_floats(k, doc[k], ())) for k in ("dt", "frequency_hz"))
        boundary = {bus: tuple(Phasor(*vi) for vi in _floats(bus, ph, (4,)).reshape(2, 2).tolist())
                    for bus, ph in doc["boundary_phasors"].items()}
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        raise IncompatibleSnapshot(f"{path} is not a version-3 snapshot: {exc!r}") from exc
    return Snapshot(doc["subsystem"], frequency_hz, EmtState(step=step, dt=dt, **fields),
                    boundary, doc["provenance"], parts)


def _floats(name: str, value, shape: tuple[int, ...]) -> np.ndarray:
    """A snapshot file's numbers as a float array of the given shape, every
    one finite."""
    out = np.array(value)
    if out.dtype.kind not in "fi" or out.shape != shape:
        raise TypeError(f"{name} is not numbers of shape {shape}")
    out = out.astype(float)
    if not np.isfinite(out).all():
        raise ValueError(f"{name} holds a number that is not finite")
    return out
