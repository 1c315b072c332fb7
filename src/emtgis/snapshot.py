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
import logging
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import emtkernel as ek
from .coordinator import BoundaryState, IterationTrace, JfngConfig, jfng_solve
from .emtkernel import Element, ElementKind, EmtNet, EmtState, Machine, SimConfig, Source
from .errors import (
    IncompatibleSnapshot,
    MissingComponentModel,
    NotConverged,
    ScheduleViolation,
    StageFailure,
    SteadyStateTimeout,
    TopologyMismatch,
    UnsupportedElement,
    ZeroFaultCurrentDelta,
)
from .grbc import GrbcKind, internal_pf_case
from .netmodel import BusKind, CaseFile, MachineKind, Phasor, validate_case
from .powerflow import PowerFlowSolution, boundary_injections, solve_main

log = logging.getLogger(__name__)

MAIN_SUBSYSTEM = "main"
SQRT2 = ek.SQRT2

PROVENANCE_PHASOR = "PhasorInit"
PROVENANCE_RAMP = "RampInit"
PROVENANCE_SPLICED = "Spliced"

# Source-behind-impedance stand-in for regions without a visible EMT model.
OPAQUE_EQUIVALENT_Z = 0.05 + 0.25j


@dataclass
class Snapshot:
    """Complete instantaneous subsystem state plus its boundary phasors."""

    subsystem: str
    timestamp_steps: int
    dt: float
    frequency_hz: float
    emt_state: EmtState
    boundary_phasors: dict[str, tuple[Phasor, Phasor]]  # bus -> (V, I into region)
    provenance: str
    parts: dict[str, str] = field(default_factory=dict)

    @property
    def timestamp(self) -> float:
        return self.timestamp_steps * self.dt

    def phasor_consistency_error(self) -> float:
        """Max |v(t) - Re(sqrt2 V e^{jwt})| over boundary buses and phases."""
        omega = 2.0 * math.pi * self.frequency_hz
        t = self.timestamp
        worst = 0.0
        for bus, (vph, _) in self.boundary_phasors.items():
            node = self.emt_state.node_ids.index(bus)
            for ph in range(3):
                expect = SQRT2 * (vph.rect * cmath.exp(
                    1j * (omega * t + ek.PHASE_SHIFT[ph]))).real
                worst = max(worst, abs(self.emt_state.v_nodes[node, ph] - expect))
        return worst


# --- network construction from the grid model ---------------------------------


class _NetBuilder:
    def __init__(self, name: str, frequency_hz: float):
        self.name = name
        self.frequency_hz = frequency_hz
        self.omega = 2.0 * math.pi * frequency_hz
        self.nodes: list[str] = []
        self.elements: list[Element] = []
        self.sources: list[Source] = []
        self.machines: list[Machine] = []

    def node(self, nid: str) -> str:
        if nid not in self.nodes:
            self.nodes.append(nid)
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
                emf: complex, pm: float, swing: bool):
        emf_node = self.node(f"{mid}:emf")
        self.node(bus)
        branch_eid = f"{mid}:xd"
        self.elements.append(
            Element(branch_eid, ElementKind.INDUCTOR, emf_node, bus, xd / self.omega)
        )
        self.machines.append(
            Machine(mid, bus, emf_node, branch_eid, xd, inertia_h, damping,
                    abs(emf), cmath.phase(emf), pm, swing)
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
                            m.inertia_h, m.damping, emf, pm, swing=True)


def build_main_net(case: CaseFile, pf: PowerFlowSolution) -> EmtNet:
    """EMT model of the main system alone (boundary buses present, regions absent)."""
    b = _NetBuilder(f"{case.name}:main", case.frequency_hz)
    _add_case_parts(b, case, pf)
    return b.build()


@dataclass
class RegionOperatingPoint:
    """Everything needed to build and initialize one region's EMT model."""

    decl: object
    v_boundary: Phasor
    s_into_node: complex           # region injection into the torn node (IPF)
    internal_pf: PowerFlowSolution | None = None


def region_operating_point(decl, v_boundary: Phasor,
                           p_tilde: float, q_tilde: float) -> RegionOperatingPoint:
    internal = None
    if decl.kind is GrbcKind.WHITE_BOX_NETWORK:
        icase = internal_pf_case(decl)
        internal = solve_main(icase, {decl.boundary_bus: v_boundary},
                              tol=decl.payload.pf_tol, max_iter=60)
    return RegionOperatingPoint(decl, v_boundary, complex(p_tilde, q_tilde), internal)


def _add_region_parts(builder: _NetBuilder, op: RegionOperatingPoint):
    """Region-side EMT model sharing the boundary node with the main system.

    White-box regions contribute their internal network (initialized at the
    internal power flow); opaque regions contribute a source-behind-impedance
    equivalent that reproduces the coordinated boundary injection.
    """
    decl = op.decl
    ns = f"{decl.name}/"
    if decl.kind is GrbcKind.WHITE_BOX_NETWORK:
        icase = internal_pf_case(decl)
        renamed_buses = []
        rename = {decl.boundary_bus: decl.boundary_bus}
        for b in icase.buses:
            if b.kind is BusKind.BOUNDARY:
                renamed_buses.append(b)
                continue
            rename[b.id] = f"{ns}{b.id}"
            renamed_buses.append(replace(b, id=rename[b.id]))
        branches = [replace(br, from_bus=rename[br.from_bus], to_bus=rename[br.to_bus])
                    for br in icase.branches]
        machines = [replace(m, bus=rename[m.bus]) for m in icase.machines]
        shifted = CaseFile(icase.base_mva, icase.frequency_hz, renamed_buses,
                           branches, machines, [], name=decl.name)
        pf = op.internal_pf
        # internal pf bus ids are un-namespaced; wrap access with the rename map
        shifted_pf = _rename_solution(pf, rename)
        _add_case_parts(builder, shifted, shifted_pf, namespace=ns)
        # the boundary bus row itself carries no region-side load by construction
    else:
        v = op.v_boundary.rect
        i_into_region = machine_port_current(-op.s_into_node, v)
        e_int = v - OPAQUE_EQUIVALENT_Z * i_into_region
        src_node = f"{ns}src"
        builder.series_rx(f"{ns}zint", builder.node(src_node), decl.boundary_bus,
                          OPAQUE_EQUIVALENT_Z.real, OPAQUE_EQUIVALENT_Z.imag)
        builder.ideal_source(f"{ns}esrc", src_node, e_int)


def _rename_solution(pf: PowerFlowSolution, rename: dict[str, str]) -> PowerFlowSolution:
    ids = tuple(rename.get(b, b) for b in pf.bus_ids)
    return replace(pf, bus_ids=ids)


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


def phasor_init(case: CaseFile, pf: PowerFlowSolution, dt: float, t0: float = 0.0,
                boundary_draw: dict[str, tuple[float, float]] | None = None,
                net: EmtNet | None = None) -> Snapshot:
    """Snapshot of the main system at time t0 straight from power-flow phasors.

    Per component the port current phasor is conj(S/V); machine EMFs come
    from the phasor diagram; histories are instantaneous values one step
    back, peak-scaled.  Node and element phasors come from a nodal solve
    with the discrete-companion admittances, so the kernel continues the
    periodic steady state without any startup transient.  boundary_draw
    carries the power each region pulls from its torn node so the state is
    consistent once regions are reconnected.
    """
    if not pf.converged:
        raise NotConverged("phasor initialization needs a converged power flow")
    try:
        net = net or build_main_net(case, pf)
    except UnsupportedElement as exc:
        raise MissingComponentModel(str(exc)) from exc

    t0_steps = int(round(t0 / dt))
    if abs(t0_steps * dt - t0) > 1e-9 * max(dt, abs(t0)):
        raise ValueError("t0 must be an integer multiple of dt")

    known = {s.node: cmath.rect(s.rms, s.angle) for s in net.sources}
    for m in net.machines:
        known[m.emf_node] = cmath.rect(m.emf_rms, m.delta0)
    injections: dict[str, complex] = {}
    draws = boundary_draw or {}
    for bus, (p, q) in draws.items():
        v_b = pf.voltage(bus).rect
        injections[bus] = -machine_port_current(complex(p, q), v_b)

    node_ph, elem_ph = ek.phasor_solve(net, known, injections, dt=dt)
    state = _state_from_phasors(net, node_ph, elem_ph, dt, t0_steps)

    boundary_phasors = {
        bus: (
            Phasor.from_complex(node_ph[bus]),
            Phasor.from_complex(machine_port_current(complex(p, q), node_ph[bus])),
        )
        for bus, (p, q) in draws.items()
    }
    return Snapshot(MAIN_SUBSYSTEM, t0_steps, dt, case.frequency_hz, state,
                    boundary_phasors, PROVENANCE_PHASOR,
                    parts={MAIN_SUBSYSTEM: PROVENANCE_PHASOR})


def _state_from_phasors(net: EmtNet, node_ph: dict[str, complex],
                        elem_ph: dict[str, complex], dt: float, t0_steps: int) -> EmtState:
    compiled = ek.CompiledNet(net, dt)
    state = compiled.zero_state()
    state.step = t0_steps
    omega = net.omega
    t0 = t0_steps * dt

    def inst(ph: complex, t: float) -> np.ndarray:
        return SQRT2 * np.real(ph * np.exp(1j * (omega * t + ek.PHASE_SHIFT)))

    for i, nid in enumerate(net.nodes):
        state.v_nodes[i] = inst(node_ph[nid], t0)
    for k, e in enumerate(net.elements):
        vf = node_ph[e.n_from]
        vt = 0.0 if e.n_to is None else node_ph[e.n_to]
        du = vf - vt
        cur = elem_ph[e.eid]
        state.hist_u[k] = inst(du, t0 - dt)
        state.hist_i[k] = inst(cur, t0 - dt)
        state.elem_i[k] = inst(cur, t0)
    for j, m in enumerate(net.machines):
        emf_ph = cmath.rect(m.emf_rms, m.delta0)
        i_ph = elem_ph[m.branch_eid]
        state.machine_delta[j] = m.delta0
        state.machine_emf[j] = m.emf_rms
        state.machine_pm[j] = (emf_ph * i_ph.conjugate()).real
        state.machine_speed_dev[j] = 0.0
    state.source_scale[:] = 1.0
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


def extract_thevenin_from_net(net: EmtNet, boundary: str, v_b: complex,
                              i_into_attachment: complex) -> TheveninEquivalent:
    """Two-measurement extraction: operating point plus solid-fault solve."""
    known = {s.node: cmath.rect(s.rms, s.angle) for s in net.sources}
    for m in net.machines:
        known[m.emf_node] = cmath.rect(m.emf_rms, m.delta0)
    known[boundary] = 0.0 + 0.0j
    _, elem_ph = ek.phasor_solve(net, known)

    i_into_b = 0.0 + 0.0j
    for e in net.elements:
        if e.n_to == boundary:
            i_into_b += elem_ph[e.eid]
        if e.n_from == boundary:
            i_into_b -= elem_ph[e.eid]
    return thevenin_from_measurements(v_b, i_into_attachment, -i_into_b)


def thevenin_extract(case: CaseFile, pf: PowerFlowSolution,
                     boundary: str) -> TheveninEquivalent:
    """Boundary equivalent of the main system seen from one region."""
    if not pf.converged:
        raise NotConverged("Thevenin extraction needs a converged power flow")
    inj = boundary_injections(pf, case)
    if boundary not in inj:
        raise KeyError(f"'{boundary}' is not a boundary bus")
    v_b = pf.voltage(boundary).rect
    p, q = inj[boundary]
    i_b = machine_port_current(complex(p, q), v_b)
    net = build_main_net(case, pf)
    return extract_thevenin_from_net(net, boundary, v_b, i_b)


def attach_thevenin(net: EmtNet, boundary: str, thevenin: TheveninEquivalent,
                    name: str = "thev") -> tuple[EmtNet, str]:
    """Region net plus the equivalent source; returns the net and the id of
    the series element whose current flows into the subsystem."""
    b = _NetBuilder(net.name + "+thev", net.frequency_hz)
    b.nodes = list(net.nodes)
    b.elements = list(net.elements)
    b.sources = list(net.sources)
    b.machines = list(net.machines)
    src_node = b.node(f"{name}:src")
    z = thevenin.z_eq
    b.series_rx(f"{name}:z", src_node, boundary, z.real, z.imag)
    b.ideal_source(f"{name}:e", src_node, thevenin.e_eq.rect)
    branch_elems = [e.eid for e in b.elements if e.eid.startswith(f"{name}:z")]
    probe_eid = branch_elems[-1]  # element adjacent to the boundary node
    return b.build(), probe_eid


def ramp_to_snapshot(grbc_net: EmtNet, thevenin: TheveninEquivalent, cfg: SimConfig,
                     boundary_bus: str, subsystem: str | None = None) -> Snapshot:
    """Ramp a region net behind its boundary equivalent until steady.

    All sources (the equivalent and any internal ones) follow the same
    linear ramp; the steady-state detector watches every node of the
    region plus the boundary current.  Boundary phasors come from a
    single-frequency Fourier integral over the final full cycle.
    """
    subsystem = subsystem or grbc_net.name
    net, probe_eid = attach_thevenin(grbc_net, boundary_bus, thevenin)
    record = [n for n in grbc_net.nodes] + [f"i:{probe_eid}"]
    cfg = replace(cfg, record=record, ramp_sources=True)

    state, ready_step, last_cycle, keys = ek.run_until_steady(net, cfg)
    if ready_step is None:
        raise SteadyStateTimeout(cfg.duration)

    omega = net.omega
    v_ph = ek.fourier_phasor(last_cycle[:, keys.index(f"{boundary_bus}.a")],
                             state.step, cfg.dt, omega)
    i_ph = ek.fourier_phasor(last_cycle[:, keys.index(f"i:{probe_eid}.a")],
                             state.step, cfg.dt, omega)
    return Snapshot(subsystem, state.step, cfg.dt, net.frequency_hz, state,
                    {boundary_bus: (Phasor.from_complex(v_ph), Phasor.from_complex(i_ph))},
                    PROVENANCE_RAMP, parts={subsystem: PROVENANCE_RAMP})


# --- splice schedule --------------------------------------------------------------


@dataclass
class SpliceSchedule:
    reference: str
    t_ref_steps: int
    period_steps: int
    factor: int
    t_adj_steps: dict[str, int]

    def adjusted_time(self, subsystem: str, dt: float) -> float:
        return self.t_adj_steps[subsystem] * dt


def splice_schedule(ready_times: dict[str, float], period: float, dt: float,
                    factor: int = 2) -> SpliceSchedule:
    """Phase-aligned splice times: each subsystem waits to the next instant
    separated from the reference by an integer number of factor*T periods.

    All times are validated onto the step grid and the arithmetic is done
    in integer step counts, so (t_adj - t_ref) mod (factor*T) is exactly 0.
    """
    if not ready_times:
        raise ValueError("no subsystems to schedule")
    period_steps = _exact_steps(period, dt, "period")
    ready_steps = {name: _exact_steps(t, dt, f"ready time of '{name}'")
                   for name, t in ready_times.items()}
    return schedule_from_steps(ready_steps, period_steps, factor)


def schedule_from_steps(ready_steps: dict[str, int], period_steps: int,
                        factor: int = 2) -> SpliceSchedule:
    names = list(ready_steps)
    reference = min(names, key=lambda n: (ready_steps[n], names.index(n)))
    t_ref = ready_steps[reference]
    modulus = factor * period_steps
    adj = {}
    for name, t in ready_steps.items():
        k = -((t_ref - t) // modulus)  # ceil((t - t_ref)/modulus)
        adj[name] = t_ref + k * modulus
    return SpliceSchedule(reference, t_ref, period_steps, factor, adj)


def _exact_steps(t: float, dt: float, what: str) -> int:
    steps = int(round(t / dt))
    if abs(steps * dt - t) > 1e-9 * max(dt, abs(t)):
        raise ValueError(f"{what} ({t}) is not on the dt={dt} step grid")
    return steps


def advance_snapshot(snap: Snapshot, net: EmtNet, target_steps: int,
                     dt: float) -> Snapshot:
    """Continue a subsystem in isolation to its scheduled splice step.

    The boundary phasors are absolute-clock complex amplitudes of a settled
    periodic state, so they carry over unchanged.
    """
    extra = target_steps - snap.timestamp_steps
    if extra < 0:
        raise ScheduleViolation(
            f"subsystem '{snap.subsystem}' is already past its scheduled time"
        )
    if extra == 0:
        return snap
    cfg = SimConfig(dt=dt, duration=extra * dt, record=[])
    _, state = ek.run(net, cfg, init=snap.emt_state)
    return replace(snap, timestamp_steps=state.step, emt_state=state)


# --- splicing -----------------------------------------------------------------------


def splice(snapshots: dict[str, Snapshot], schedule: SpliceSchedule,
           full_net: EmtNet, dt: float) -> tuple[Snapshot, dict[str, float]]:
    """Merge subsystem snapshots into one whole-system state.

    Equivalent sources disappear simply by not existing in the full net;
    every full-net element and node must be covered by exactly one
    subsystem (boundary nodes by two: main wins, and the disagreement is
    the reported per-boundary splicing deviation, instantaneous pu-peak).
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
        if abs(snap.dt - dt) > 1e-18:
            raise IncompatibleSnapshot(f"subsystem '{name}' uses a different dt")

    if len(snapshots) == 1:
        (only,) = snapshots.values()
        covered = set(only.emt_state.element_ids)
        missing = [e.eid for e in full_net.elements if e.eid not in covered]
        if missing:
            raise TopologyMismatch(f"elements missing from snapshot: {missing[:4]}")
        return only, {bus: 0.0 for bus in only.boundary_phasors}

    compiled = ek.CompiledNet(full_net, dt)
    merged = compiled.zero_state()
    merged.step = schedule.t_ref_steps
    merged.source_scale[:] = 1.0

    elem_owner: dict[str, tuple[str, int]] = {}
    node_owner: dict[str, list[tuple[str, int]]] = {}
    mach_owner: dict[str, tuple[str, int]] = {}
    for name, snap in snapshots.items():
        for k, eid in enumerate(snap.emt_state.element_ids):
            elem_owner.setdefault(eid, (name, k))
        for k, nid in enumerate(snap.emt_state.node_ids):
            node_owner.setdefault(nid, []).append((name, k))
        for k, mid in enumerate(snap.emt_state.machine_ids):
            mach_owner[mid] = (name, k)

    for k, e in enumerate(full_net.elements):
        if e.eid not in elem_owner:
            raise TopologyMismatch(f"element '{e.eid}' missing from all snapshots")
        name, src_k = elem_owner[e.eid]
        st = snapshots[name].emt_state
        merged.elem_i[k] = st.elem_i[src_k]
        merged.hist_u[k] = st.hist_u[src_k]
        merged.hist_i[k] = st.hist_i[src_k]

    deviations: dict[str, float] = {}
    for k, nid in enumerate(full_net.nodes):
        owners = node_owner.get(nid)
        if not owners:
            raise TopologyMismatch(f"node '{nid}' missing from all snapshots")
        main_first = sorted(owners, key=lambda o: 0 if o[0] == MAIN_SUBSYSTEM else 1)
        name, src_k = main_first[0]
        merged.v_nodes[k] = snapshots[name].emt_state.v_nodes[src_k]
        if len(owners) > 1:
            vals = [snapshots[n].emt_state.v_nodes[i] for n, i in main_first]
            dev = max(
                float(np.max(np.abs(vals[0] - v))) for v in vals[1:]
            )
            deviations[nid] = dev

    for k, m in enumerate(full_net.machines):
        if m.mid not in mach_owner:
            raise TopologyMismatch(f"machine '{m.mid}' missing from all snapshots")
        name, src_k = mach_owner[m.mid]
        st = snapshots[name].emt_state
        merged.machine_delta[k] = st.machine_delta[src_k]
        merged.machine_speed_dev[k] = st.machine_speed_dev[src_k]
        merged.machine_emf[k] = st.machine_emf[src_k]
        merged.machine_pm[k] = st.machine_pm[src_k]

    boundary_phasors = {}
    parts = {}
    for name, snap in snapshots.items():
        parts.update(snap.parts)
        boundary_phasors.update(snap.boundary_phasors)
    provenance = PROVENANCE_SPLICED
    if set(parts.values()) == {PROVENANCE_PHASOR}:
        provenance = PROVENANCE_PHASOR
    freq = next(iter(snapshots.values())).frequency_hz
    out = Snapshot("whole", schedule.t_ref_steps, dt, freq, merged,
                   boundary_phasors, provenance, parts)
    return out, deviations


# --- end-to-end pipeline ---------------------------------------------------------


@dataclass
class PipelineConfig:
    dt: float = 5e-5
    t0: float = 0.0
    t_ramp: float = 0.5
    ramp_budget: float = 6.0       # per-region steady-state search window
    jfng: JfngConfig = field(default_factory=JfngConfig)
    pf_tol: float = 1e-10
    schedule_factor: int = 2
    rms_change_tol: float = 5e-4
    steady_cycles: int = 3
    settle_margin_cycles: int = 5


@dataclass
class PipelineReport:
    ipf_trace: IterationTrace | None
    boundary: dict | None
    ready_steps: dict[str, int]
    adjusted_steps: dict[str, int]
    splice_deviations: dict[str, float]
    gis_cost_steps: int
    gis_total_steps: int
    dt: float

    def to_json_dict(self) -> dict:
        trace = None
        if self.ipf_trace is not None:
            trace = {
                "status": self.ipf_trace.status,
                "outer_iterations": len(self.ipf_trace.rows),
                "phi_norms": [r.phi_norm for r in self.ipf_trace.rows],
                "inner_iterations": [r.inner_iters for r in self.ipf_trace.rows],
            }
        return {
            "ipf": trace,
            "boundary": self.boundary,
            "ready_steps": self.ready_steps,
            "adjusted_steps": self.adjusted_steps,
            "splice_deviations": self.splice_deviations,
            "gis_cost_steps": self.gis_cost_steps,
            "gis_total_steps": self.gis_total_steps,
            "dt": self.dt,
        }


@dataclass
class SystemModel:
    """Coordinated operating point plus the whole-system EMT model."""

    main_pf: PowerFlowSolution
    boundary_state: BoundaryState | None
    ipf_trace: IterationTrace | None
    region_ops: list[RegionOperatingPoint]
    full_net: EmtNet
    draws: dict[str, tuple[float, float]]


@dataclass
class PipelineResult:
    snapshot: Snapshot
    report: PipelineReport
    main_pf: PowerFlowSolution
    boundary_state: BoundaryState | None
    full_net: EmtNet
    region_ops: list[RegionOperatingPoint]
    subsystem_snapshots: dict[str, Snapshot] = field(default_factory=dict)


def _stage(name, fn, *args, **kw):
    try:
        return fn(*args, **kw)
    except Exception as exc:
        raise StageFailure(name, exc) from exc


def system_model(case: CaseFile, cfg: PipelineConfig | None = None) -> SystemModel:
    """Validate, coordinate the whole-system power flow, resolve every
    region's operating point and assemble the whole-system EMT model."""
    cfg = cfg or PipelineConfig()

    def check_valid():
        rep = validate_case(case)
        if not rep.ok:
            raise ValueError("invalid case: " + "; ".join(
                f"{v.code}({v.subject})" for v in rep.violations))
        period_steps = case.period / cfg.dt
        if abs(period_steps - round(period_steps)) > 1e-9:
            raise ValueError("period must be an integer multiple of dt")

    _stage("validate", check_valid)

    boundary_state = None
    trace = None
    if case.grbcs:
        def run_ipf():
            n = len(case.grbcs)
            x0 = np.concatenate([np.ones(n), np.zeros(n)])
            return jfng_solve(case, case.grbcs, x0, cfg.jfng, pf_tol=cfg.pf_tol)
        boundary_state, trace = _stage("ipf", run_ipf)
        main_pf = boundary_state.main_solution
        draws = {bid: (float(boundary_state.p[i]), float(boundary_state.q[i]))
                 for i, bid in enumerate(boundary_state.bus_ids)}
    else:
        main_pf = _stage("ipf", solve_main, case, {}, cfg.pf_tol, 40)
        draws = {}

    region_ops: list[RegionOperatingPoint] = []
    for i, decl in enumerate(case.grbcs):
        v_b = boundary_state.voltage(i)
        region_ops.append(_stage(
            "region_operating_point", region_operating_point, decl, v_b,
            float(boundary_state.p_tilde[i]), float(boundary_state.q_tilde[i])))

    full_net = _stage("build_network", build_full_net, case, main_pf, region_ops)
    return SystemModel(main_pf, boundary_state, trace, region_ops, full_net, draws)


def run_emtgis(case: CaseFile, cfg: PipelineConfig | None = None) -> PipelineResult:
    """Whole pipeline: coordinated power flow, phasor snapshot of the main
    system, Thevenin-backed ramp of every region, schedule,
    splice.  Any stage failure is re-raised tagged with the stage name."""
    cfg = cfg or PipelineConfig()
    stage = _stage

    model = system_model(case, cfg)
    main_pf = model.main_pf
    boundary_state = model.boundary_state
    trace = model.ipf_trace
    draws = model.draws
    region_ops = model.region_ops

    snap_main = stage("phasor_init", phasor_init, case, main_pf, cfg.dt, cfg.t0,
                      draws)

    ramp_cfg = SimConfig(
        dt=cfg.dt, duration=cfg.ramp_budget, record=[], ramp_sources=True,
        t_ramp=cfg.t_ramp, rms_change_tol=cfg.rms_change_tol,
        steady_cycles=cfg.steady_cycles,
        settle_margin_cycles=cfg.settle_margin_cycles,
    )

    def ramp_one(op: RegionOperatingPoint) -> Snapshot:
        thev = thevenin_extract(case, main_pf, op.decl.boundary_bus)
        region_net = build_region_net(op, case.frequency_hz)
        return ramp_to_snapshot(region_net, thev, ramp_cfg,
                                op.decl.boundary_bus, subsystem=op.decl.name)

    snapshots: dict[str, Snapshot] = {MAIN_SUBSYSTEM: snap_main}
    for snap in stage("ramp_to_snapshot", lambda: [ramp_one(op) for op in region_ops]):
        snapshots[snap.subsystem] = snap

    ready_steps = {name: s.timestamp_steps for name, s in snapshots.items()}
    period_steps = int(round(case.period / cfg.dt))
    schedule = stage("splice_schedule", schedule_from_steps, ready_steps,
                     period_steps, cfg.schedule_factor)

    def advance_all():
        for op in region_ops:
            name = op.decl.name
            thev = thevenin_extract(case, main_pf, op.decl.boundary_bus)
            net, _ = attach_thevenin(build_region_net(op, case.frequency_hz),
                                     op.decl.boundary_bus, thev)
            snapshots[name] = advance_snapshot(snapshots[name], net,
                                               schedule.t_adj_steps[name], cfg.dt)
    stage("advance", advance_all)

    full_net = model.full_net
    spliced, deviations = stage("splice", splice, snapshots, schedule, full_net, cfg.dt)

    adjusted = schedule.t_adj_steps
    report = PipelineReport(
        ipf_trace=trace,
        boundary=boundary_state.to_dict() if boundary_state is not None else None,
        ready_steps=ready_steps,
        adjusted_steps=dict(adjusted),
        splice_deviations=deviations,
        gis_cost_steps=max(adjusted.values()) if adjusted else 0,
        gis_total_steps=sum(adjusted.values()),
        dt=cfg.dt,
    )
    return PipelineResult(spliced, report, main_pf, boundary_state, full_net,
                          region_ops, subsystem_snapshots=snapshots)


def settle_from_zero(full_net: EmtNet, cfg: SimConfig) -> tuple[EmtState, int]:
    """Zero-state ramping baseline on the whole net; returns the settled
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
    cfg = replace(cfg, ramp_sources=True, record=record)
    init = ek.CompiledNet(full_net, cfg.dt).zero_state()
    init.machine_delta[:] = 0.0
    state, fired, _, _ = ek.run_until_steady(full_net, cfg, init=init)
    if fired is None:
        raise SteadyStateTimeout(cfg.duration)
    return state, fired


# --- snapshot file round trip ------------------------------------------------------


def save_snapshot(snap: Snapshot, path: str | Path) -> None:
    st = snap.emt_state
    doc = {
        "version": 1,
        "subsystem": snap.subsystem,
        "timestamp_steps": snap.timestamp_steps,
        "dt": st.dt,
        "frequency_hz": snap.frequency_hz,
        "provenance": snap.provenance,
        "parts": snap.parts,
        "node_voltages": [
            {"node": nid, "phases": list(st.v_nodes[i])}
            for i, nid in enumerate(st.node_ids)
        ],
        "branch_currents": [
            {"element": eid, "phases": list(st.elem_i[i])}
            for i, eid in enumerate(st.element_ids)
        ],
        "histories": [
            {"element": eid, "u_prev": list(st.hist_u[i]), "i_prev": list(st.hist_i[i])}
            for i, eid in enumerate(st.element_ids)
        ],
        "machine_states": [
            {
                "machine": mid,
                "delta": st.machine_delta[i],
                "speed_dev": st.machine_speed_dev[i],
                "emf": st.machine_emf[i],
                "pm": st.machine_pm[i],
            }
            for i, mid in enumerate(st.machine_ids)
        ],
        "source_states": [
            {"source": sid, "scale": st.source_scale[i]}
            for i, sid in enumerate(st.source_ids)
        ],
        "boundary_phasors": {
            bus: {
                "v_mag": v.magnitude, "v_angle": v.angle,
                "i_mag": i.magnitude, "i_angle": i.angle,
            }
            for bus, (v, i) in snap.boundary_phasors.items()
        },
    }
    Path(path).write_text(dumps_17g(doc) + "\n")


def load_snapshot(path: str | Path) -> Snapshot:
    doc = json.loads(Path(path).read_text())
    if doc.get("version") != 1:
        raise IncompatibleSnapshot(f"unsupported snapshot version {doc.get('version')}")
    nodes = [d["node"] for d in doc["node_voltages"]]
    elems = [d["element"] for d in doc["branch_currents"]]
    machines = [d["machine"] for d in doc["machine_states"]]
    sources = [d["source"] for d in doc["source_states"]]
    nm = len(machines)
    state = EmtState(
        step=int(doc["timestamp_steps"]),
        dt=float(doc["dt"]),
        node_ids=tuple(nodes),
        element_ids=tuple(elems),
        source_ids=tuple(sources),
        machine_ids=tuple(machines),
        v_nodes=np.array([d["phases"] for d in doc["node_voltages"]], dtype=float
                         ).reshape(len(nodes), 3),
        elem_i=np.array([d["phases"] for d in doc["branch_currents"]], dtype=float
                        ).reshape(len(elems), 3),
        hist_u=np.array([d["u_prev"] for d in doc["histories"]], dtype=float
                        ).reshape(len(elems), 3),
        hist_i=np.array([d["i_prev"] for d in doc["histories"]], dtype=float
                        ).reshape(len(elems), 3),
        machine_delta=np.array([d["delta"] for d in doc["machine_states"]], dtype=float),
        machine_speed_dev=np.array([d["speed_dev"] for d in doc["machine_states"]],
                                   dtype=float),
        machine_emf=np.array([d["emf"] for d in doc["machine_states"]], dtype=float),
        machine_pm=np.array([d["pm"] for d in doc["machine_states"]], dtype=float),
        source_scale=np.array([d["scale"] for d in doc["source_states"]], dtype=float),
    )
    boundary = {
        bus: (Phasor(d["v_mag"], d["v_angle"]), Phasor(d["i_mag"], d["i_angle"]))
        for bus, d in doc["boundary_phasors"].items()
    }
    return Snapshot(doc["subsystem"], int(doc["timestamp_steps"]), float(doc["dt"]),
                    float(doc["frequency_hz"]), state, boundary,
                    doc["provenance"], dict(doc.get("parts", {})))


def dumps_17g(obj) -> str:
    """JSON text with every float at 17 significant digits (round-trip exact)."""
    parts: list[str] = []
    _write_json(obj, parts)
    return "".join(parts)


def _write_json(obj, out: list[str]) -> None:
    if isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(json.dumps(str(k)))
            out.append(":")
            _write_json(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _write_json(v, out)
        out.append("]")
    elif isinstance(obj, bool) or obj is None:
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(f"{float(obj):.17g}")
    else:
        out.append(json.dumps(obj))
