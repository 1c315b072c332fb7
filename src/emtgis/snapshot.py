"""Initialized snapshots and splicing.

The white-box main system is initialized directly from power-flow phasors
(discrete-companion consistent, so the kernel resumes exactly on its
periodic steady state).  Black-box regions are ramped in isolation behind
a Thevenin equivalent extracted from the solved operating point plus a
solid-fault analysis, then all subsystem snapshots are spliced at
phase-aligned times.
"""

from __future__ import annotations

import cmath
import json
import math
import operator
from dataclasses import dataclass, field, replace
from pathlib import Path

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
    ZeroFaultCurrentDelta,
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
    """Complete instantaneous subsystem state plus its boundary phasors."""

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


@dataclass
class RegionOperatingPoint:
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


def _add_region_parts(builder: _NetBuilder, op: RegionOperatingPoint):
    """Region-side EMT model sharing the boundary node with the main system.

    White-box regions contribute their internal network (initialized at the
    internal power flow); opaque regions contribute a source-behind-impedance
    equivalent that reproduces the coordinated boundary injection.
    """
    decl, e = op.decl, op.evaluation
    ns = f"{decl.name}/"
    if decl.kind is GrbcKind.WHITE_BOX_NETWORK:
        # the boundary bus row itself carries no region-side load by construction
        _add_case_parts(builder, decl.pf_problem.case, e.internal_pf, namespace=ns)
    else:
        v = op.v_boundary.rect
        i_into_region = machine_port_current(-complex(e.p_tilde, e.q_tilde), v)
        e_int = v - OPAQUE_EQUIVALENT_Z * i_into_region
        src_node = f"{ns}src"
        builder.series_rx(f"{ns}zint", builder.node(src_node), decl.boundary_bus,
                          OPAQUE_EQUIVALENT_Z.real, OPAQUE_EQUIVALENT_Z.imag)
        builder.ideal_source(f"{ns}esrc", src_node, e_int)


def build_region_net(op: RegionOperatingPoint, frequency_hz: float) -> EmtNet:
    b = _NetBuilder(f"region:{op.decl.name}", frequency_hz)
    b.node(op.decl.boundary_bus)
    _add_region_parts(b, op)
    return b.build()


def build_full_net(case: CaseFile, pf: PowerFlowSolution,
                   region_ops: list[RegionOperatingPoint]) -> EmtNet:
    """Whole-system EMT model: main plus every region, boundaries reconnected."""
    b = _NetBuilder(f"{case.name}:full", case.frequency_hz)
    _add_case_parts(b, case, pf)
    for op in region_ops:
        _add_region_parts(b, op)
    return b.build()


# --- phasor-based initialization of a white-box network -------------------------


def phasor_init(case: CaseFile, pf: PowerFlowSolution, net: EmtNet, dt: float,
                boundary_draw: dict[str, tuple[float, float]] | None = None) -> Snapshot:
    """Snapshot of the main system at step 0 straight from power-flow phasors.

    `net` is the EMT model to initialize, `build_main_net(case, pf)` in
    the pipeline, built once by the caller.  Per component the port
    current phasor is conj(S/V); machine EMFs come from the phasor diagram;
    history currents are instantaneous values one step back, peak-scaled.
    Node and element phasors come from a nodal solve with the
    discrete-companion admittances, so the kernel continues the periodic
    steady state without any startup transient.  boundary_draw carries the
    power each region pulls from its torn node so the state is consistent
    once regions are reconnected.
    """
    draws = boundary_draw or {}
    injections = {bus: -machine_port_current(complex(p, q), pf.voltage(bus).rect)
                  for bus, (p, q) in draws.items()}
    node_ph, elem_ph = ek.phasor_solve(net, injections=injections, dt=dt)
    state = _state_from_phasors(net, node_ph, elem_ph, dt)

    boundary_phasors = {}
    for bus, (p, q) in draws.items():
        v_b = complex(node_ph[net.nodes.index(bus)])
        boundary_phasors[bus] = (Phasor.from_complex(v_b),
                                 Phasor.from_complex(machine_port_current(complex(p, q), v_b)))
    return Snapshot(MAIN_SUBSYSTEM, case.frequency_hz, state,
                    boundary_phasors, PROVENANCE_PHASOR,
                    parts={MAIN_SUBSYSTEM: PROVENANCE_PHASOR})


def _state_from_phasors(net: EmtNet, node_ph: np.ndarray, elem_ph: np.ndarray,
                        dt: float) -> EmtState:
    """The state at step 0 (t = 0) of the phasors `phasor_solve` returns,
    history currents h u + j i at -dt; machines keep `zero_state`'s rotors
    and take the phasors' power, EMF node phasor times branch current."""
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


@dataclass(frozen=True)
class TheveninEquivalent:
    """Boundary equivalent: source e_eq behind impedance z_eq.

    Satisfies e_eq = i_b * z_eq + v_b with i_b the boundary current into
    the attached region at the measured operating point.
    """

    e_eq: Phasor
    z_eq: complex


def thevenin_from_measurements(v_b: complex, i_b: complex,
                               i_fb: complex) -> TheveninEquivalent:
    """Combine the two boundary measurements into the equivalent.

    v_b and i_b come from steady operation with i_b flowing out of the
    network into the attachment; i_fb is the solid-fault current in the
    into-network orientation (what the grounded node feeds back).  Then
    z = v_b / (i_steady_in_network - i_fb) and e = i_b z + v_b, which
    reproduces the true source/impedance pair for arbitrary loading.
    """
    i_steady_in_net = -i_b
    den = i_steady_in_net - i_fb
    scale = max(abs(i_steady_in_net), abs(i_fb), 1.0)
    if abs(den) < 1e-12 * scale:
        raise ZeroFaultCurrentDelta("fault and steady currents coincide")
    z_eq = v_b / den
    e_eq = i_b * z_eq + v_b
    return TheveninEquivalent(Phasor.from_complex(e_eq), z_eq)


def fault_currents(net: EmtNet, boundaries: list[str]) -> dict[str, complex]:
    """Solid-fault current at each node of `boundaries`, as
    `thevenin_from_measurements` takes it, by the Z-bus Thevenin (Grainger
    and Stevenson, *Power System Analysis*, 1994, ch. 8): one solve of
    `ek.nodal_system(net)` for the open-circuit phasors v and, per
    boundary b, the column Z_b of a unit injection.  Grounding b leaves
    v - Z_b v_b / Z_bb, so the elements carry v_b / Z_bb into b.  A boundary
    the net pins itself raises UnsupportedElement."""
    nodes = [net.nodes.index(b) for b in boundaries]
    if not nodes:
        return {}
    _, _, _, ymat, v, known, unknown = ek.nodal_system(net)
    if np.isin(nodes, known).any():
        raise UnsupportedElement("a source pins a boundary node: no solid-fault equivalent")
    rows = np.searchsorted(unknown, nodes)
    rhs = np.zeros((unknown.size, 1 + len(rows)), dtype=complex)
    rhs[:, 0] = -ymat[np.ix_(unknown, known)] @ v[known]
    rhs[rows, 1 + np.arange(len(rows))] = 1.0
    sol = np.linalg.solve(ymat[np.ix_(unknown, unknown)], rhs)
    return {b: complex(-sol[r, 0] / sol[r, 1 + k])
            for k, (b, r) in enumerate(zip(boundaries, rows))}


def thevenin_extract(case: CaseFile, pf: PowerFlowSolution, faults: dict[str, complex],
                     boundary: str) -> TheveninEquivalent:
    """Boundary equivalent of the main system seen from one region, from
    the table `faults`, `fault_currents` of the main net, and the bus's
    injection in `pf` less its load, as `boundary_injections` nets it.
    `pf` solves `case`, so the bus sits at its position in `pf`: every
    lookup is by dict, O(1)."""
    if boundary not in faults:
        raise KeyError(f"'{boundary}' is not a boundary bus")
    bus = case.buses[pf.index(boundary)]
    p, q = pf.injection(boundary)
    v_b = pf.voltage(boundary).rect
    i_b = machine_port_current(complex(-p - bus.p_load, -q - bus.q_load), v_b)
    return thevenin_from_measurements(v_b, i_b, faults[boundary])


def attach_thevenin(net: EmtNet, boundary: str, thevenin: TheveninEquivalent
                    ) -> tuple[EmtNet, str]:
    """Region net plus the equivalent source; returns the net and the id of
    the series element whose current flows into the subsystem."""
    b = _NetBuilder(net.name + "+thev", net.frequency_hz)
    b.nodes = dict.fromkeys(net.nodes)
    b.elements = list(net.elements)
    b.sources = list(net.sources)
    b.machines = list(net.machines)
    src_node = b.node("thev:src")
    z = thevenin.z_eq
    b.series_rx("thev:z", src_node, boundary, z.real, z.imag)
    probe_eid = b.elements[-1].eid  # the series part adjacent to the boundary node
    b.ideal_source("thev:e", src_node, thevenin.e_eq.rect)
    return b.build(), probe_eid


def hold_rotors(net: EmtNet) -> EmtNet:
    """`net` with every machine's rotor held (inertia_h = 0): the kernel
    steps each machine as a source at its state's angle, which from
    `zero_state` on is its build-time angle, the coordinated power flow's.
    `run_emtgis` ramps and advances every region net so, from the ramp to
    the splice; the full net keeps its free rotors."""
    return replace(net, machines=tuple(replace(m, inertia_h=0.0) for m in net.machines))


def ramp_length(net: EmtNet, t_ramp: float | None = None) -> float:
    """The source ramp of a start from zero on `net`: t_ramp if given, else
    two periods where no machine swings (inertia_h > 0), which gets a region
    ready in about a third of the steps 0.5 s takes, as close to the exact
    steady state; 0.5 s where one swings, as a fast ramp excites its swing
    (ninebus3's plant2 with a free rotor: 54,400 steps at 0.04 s, 14,000 at
    0.5 s).  Every region net the pipeline ramps has its rotors held
    (`hold_rotors`), so it gets two periods; only the full net of the
    zero-state baseline (`settle_from_zero`, `simulate --zero-state`),
    whose rotors are free, can get 0.5 s."""
    if t_ramp is not None:
        return t_ramp
    return 0.5 if any(m.inertia_h > 0 for m in net.machines) else 2 * net.period


def ramp_to_snapshot(grbc_net: EmtNet, thevenin: TheveninEquivalent, cfg: SimConfig,
                     boundary_bus: str, subsystem: str | None = None) -> Snapshot:
    """Ramp a region net behind its boundary equivalent until steady.

    All sources (the equivalent and any internal ones) follow the same
    linear ramp over cfg.ramp_steps, the region's `ramp_length` in the
    pipeline; the steady-state detector watches every node of the region
    plus the boundary current.  Boundary phasors come from a single-frequency
    Fourier integral over the final full cycle.  A machine of `grbc_net`
    swings after the ramp only if its inertia_h > 0; the pipeline passes
    the net with its rotors held (`hold_rotors`).
    """
    subsystem = subsystem or grbc_net.name
    net, probe_eid = attach_thevenin(grbc_net, boundary_bus, thevenin)
    record = [n for n in grbc_net.nodes] + [f"i:{probe_eid}"]
    cfg = replace(cfg, record=record)

    state, ready_step, last_cycle, keys = ek.run_until_steady(net, cfg)
    if ready_step is None:
        raise SteadyStateTimeout(cfg.steps * cfg.dt)

    omega = net.omega
    v_ph = ek.fourier_phasor(last_cycle[:, keys.index(f"{boundary_bus}.a")],
                             state.step, cfg.dt, omega)
    i_ph = ek.fourier_phasor(last_cycle[:, keys.index(f"i:{probe_eid}.a")],
                             state.step, cfg.dt, omega)
    return Snapshot(subsystem, net.frequency_hz, state,
                    {boundary_bus: (Phasor.from_complex(v_ph), Phasor.from_complex(i_ph))},
                    PROVENANCE_RAMP, parts={subsystem: PROVENANCE_RAMP})


# --- splice schedule --------------------------------------------------------------


@dataclass
class SpliceSchedule:
    reference: str
    t_ref_steps: int
    t_adj_steps: dict[str, int]


def schedule_from_steps(ready_steps: dict[str, int], period_steps: int) -> SpliceSchedule:
    """Each subsystem's splice step: its first step at or after its ready
    step that lies a whole number of SPLICE_PERIODS periods after the
    subsystem ready first.  Any whole number of periods splices every
    subsystem at one phase of its periodic steady state; two is the one
    value the pipeline ever used, the one its adjusted steps are pinned at."""
    names = list(ready_steps)
    reference = min(names, key=lambda n: (ready_steps[n], names.index(n)))
    t_ref = ready_steps[reference]
    modulus = SPLICE_PERIODS * period_steps
    adj = {}
    for name, t in ready_steps.items():
        k = -((t_ref - t) // modulus)  # ceil((t - t_ref)/modulus)
        adj[name] = t_ref + k * modulus
    return SpliceSchedule(reference, t_ref, adj)


def advance_snapshot(snap: Snapshot, net: EmtNet, target_steps: int,
                     dt: float) -> Snapshot:
    """Continue a subsystem in isolation, unramped, to its splice step target_steps.

    The boundary phasors are absolute-clock complex amplitudes of a settled
    periodic state, so they carry over unchanged.  The pipeline passes the
    net its ramp stepped, rotors held (`hold_rotors`), so a region is
    spliced at its power-flow rotor angles.
    """
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
    """t_ramp, if given, ramps every region; None, each its `ramp_length`."""

    dt: float = 5e-5
    t_ramp: float | None = None
    ramp_budget: float = 6.0       # per-region steady-state search window
    jfng: JfngConfig = field(default_factory=JfngConfig)


@dataclass
class SystemModel:
    """Coordinated operating point plus the whole-system EMT model."""

    boundary_state: BoundaryState
    ipf_trace: IterationTrace
    region_ops: list[RegionOperatingPoint]
    full_net: EmtNet


@dataclass
class PipelineResult:
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
    solved it, and assemble the whole-system EMT model.  An invalid case,
    or a dt that does not divide the period or leaves fewer than 4 steps
    per period, raises ValueError, an input error, not a stage failure."""
    cfg = cfg or PipelineConfig()
    validate_case(case).raise_if_invalid()
    period_steps = case.period / cfg.dt
    if abs(period_steps - round(period_steps)) > 1e-9:
        raise ValueError(f"the period {case.period} s is not an integer multiple "
                         f"of dt {cfg.dt} s")
    if round(period_steps) < 4:
        raise ValueError(f"dt {cfg.dt} s leaves {round(period_steps)} steps per period "
                         f"{case.period} s, fewer than 4")

    state, trace = _stage("ipf", jfng_solve, case, case.grbcs, cfg=cfg.jfng)
    region_ops = [region_operating_point(decl, state, i) for i, decl in enumerate(case.grbcs)]
    full_net = _stage("build_network", build_full_net, case, state.main_solution, region_ops)
    return SystemModel(state, trace, region_ops, full_net)


def run_emtgis(case: CaseFile, cfg: PipelineConfig | None = None) -> PipelineResult:
    """Whole pipeline: coordinated power flow, phasor snapshot of the main
    system and its `fault_currents` table, the ramp of every region behind
    its Thevenin equivalent, schedule, advance, splice.  Each region's
    rotors stay held at their power-flow angles (`hold_rotors`) from its
    ramp to the splice.  Any stage failure is re-raised tagged with the
    stage name."""
    cfg = cfg or PipelineConfig()
    stage = _stage

    model = system_model(case, cfg)
    state = model.boundary_state
    main_pf = state.main_solution
    main_net = stage("phasor_init", build_main_net, case, main_pf)
    faults = stage("phasor_init", fault_currents, main_net, list(state.bus_ids))
    draws = {bid: (float(state.p[i]), float(state.q[i]))
             for i, bid in enumerate(state.bus_ids)}
    snap_main = stage("phasor_init", phasor_init, case, main_pf, main_net, cfg.dt,
                      boundary_draw=draws)

    t_ramps: dict[str, float] = {}
    budget = ek.to_steps(cfg.ramp_budget, cfg.dt)

    def ramp_one(op: RegionOperatingPoint) -> Snapshot:
        thev = thevenin_extract(case, main_pf, faults, op.decl.boundary_bus)
        region_net = hold_rotors(build_region_net(op, case.frequency_hz))
        t_ramp = t_ramps[op.decl.name] = ramp_length(region_net, cfg.t_ramp)
        ramp_cfg = SimConfig(dt=cfg.dt, steps=budget, ramp_steps=ek.to_steps(t_ramp, cfg.dt))
        return ramp_to_snapshot(region_net, thev, ramp_cfg,
                                op.decl.boundary_bus, subsystem=op.decl.name)

    snapshots: dict[str, Snapshot] = {MAIN_SUBSYSTEM: snap_main}
    for snap in stage("ramp_to_snapshot",
                      lambda: [ramp_one(op) for op in model.region_ops]):
        snapshots[snap.subsystem] = snap

    ready_steps = {name: s.timestamp_steps for name, s in snapshots.items()}
    period_steps = ek.to_steps(case.period, cfg.dt)
    schedule = stage("splice_schedule", schedule_from_steps, ready_steps, period_steps)

    def advance_all():
        for op in model.region_ops:
            name = op.decl.name
            thev = thevenin_extract(case, main_pf, faults, op.decl.boundary_bus)
            net, _ = attach_thevenin(hold_rotors(build_region_net(op, case.frequency_hz)),
                                     op.decl.boundary_bus, thev)
            snapshots[name] = advance_snapshot(snapshots[name], net,
                                               schedule.t_adj_steps[name], cfg.dt)
    stage("advance", advance_all)

    spliced, deviations = stage("splice", splice, snapshots, schedule, model.full_net,
                                cfg.dt)

    adjusted = schedule.t_adj_steps
    trace = model.ipf_trace
    report = {
        "ipf": {"status": trace.status, "outer_iterations": trace.outer_iterations,
                "phi_norms": trace.phi_norms(),
                "inner_iterations": [r.inner_iters for r in trace.rows]},
        "boundary": state.to_dict(),
        "t_ramp": t_ramps,
        "ready_steps": ready_steps,
        "adjusted_steps": dict(adjusted),
        "splice_deviations": deviations,
        "gis_cost_steps": max(adjusted.values()) if adjusted else 0,
        "gis_total_steps": sum(adjusted.values()),
        "dt": cfg.dt,
    }
    return PipelineResult(model, spliced, report, snapshots)


def settle_from_zero(full_net: EmtNet, cfg: SimConfig,
                     t_ramp: float | None = None) -> tuple[EmtState, int]:
    """Zero-state ramping baseline on the whole net for at most cfg.steps
    steps, its sources ramped over `ramp_length(full_net, t_ramp)` (None:
    the pipeline's rule; cfg.ramp_steps is not read); returns the settled
    state and the step at which steadiness was declared.

    Rotor angles are dynamic states, not model parameters: machines start
    at zero angle and their swing dynamics (active once the ramp completes)
    find the operating point on their own.  Machine branch currents join
    the detector probes: rotor swings modulate angles far more than
    voltage magnitudes, and currents expose them to the cycle-RMS test.
    """
    record = list(cfg.record) or [n for n in full_net.nodes if ":" not in n]
    record += [f"i:{m.branch_eid}" for m in full_net.machines
               if f"i:{m.branch_eid}" not in record]
    cfg = replace(cfg, record=record,
                  ramp_steps=ek.to_steps(ramp_length(full_net, t_ramp), cfg.dt))
    init = ek.zero_state(full_net, cfg.dt)
    init.machine_delta[:] = 0.0
    state, fired, _, _ = ek.run_until_steady(full_net, cfg, init=init)
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
    every float in its shortest exact form, -0.0 included; `load_snapshot`
    refuses a file with a NaN or infinite number."""
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
