"""Grid data model: buses, branches, machines, black-box regions, admittance.

Everything is per-unit on a single system MVA base; angles are radians
internally (case files carry degrees and are converted at parse time).
The phasor network is the single-phase equivalent of a balanced
three-phase system.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import CaseFormatError, OracleUnavailable, SingularNetwork

TWO_PI = 2.0 * math.pi


def normalize_angle(angle: float) -> float:
    """Wrap an angle in radians to (-pi, pi]."""
    r = math.remainder(angle, TWO_PI)
    return math.pi if r <= -math.pi else r


@dataclass(frozen=True)
class Phasor:
    """Polar-form complex electrical quantity.

    magnitude is per-unit and non-negative; angle is radians, kept in
    (-pi, pi] after every construction.
    """

    magnitude: float
    angle: float = 0.0

    def __post_init__(self):
        mag, ang = self.magnitude, self.angle
        if mag < 0.0:
            mag, ang = -mag, ang + math.pi
        object.__setattr__(self, "magnitude", float(mag))
        object.__setattr__(self, "angle", normalize_angle(float(ang)))

    @classmethod
    def from_complex(cls, z: complex) -> "Phasor":
        return cls(abs(z), cmath.phase(z))

    @property
    def rect(self) -> complex:
        return cmath.rect(self.magnitude, self.angle)


class BusKind(str, Enum):
    SLACK = "Slack"
    PV = "PV"
    PQ = "PQ"
    BOUNDARY = "Boundary"


class MachineKind(str, Enum):
    IDEAL_SOURCE = "IdealSource"
    SYNCHRONOUS_SIMPLIFIED = "SynchronousSimplified"


class BusRecord(NamedTuple):
    id: str
    kind: BusKind
    base_kv: float
    v_set: float | None = None
    p_load: float = 0.0
    q_load: float = 0.0
    shunt_g: float = 0.0
    shunt_b: float = 0.0


class BranchRecord(NamedTuple):
    from_bus: str
    to_bus: str
    r: float
    x: float
    b_half: float = 0.0
    tap: float = 1.0

    @property
    def series_admittance(self) -> complex:
        return 1.0 / complex(self.r, self.x)


class MachineRecord(NamedTuple):
    bus: str
    kind: MachineKind
    xd_transient: float = 0.0
    p_set: float = 0.0
    v_set: float | None = None
    inertia_h: float = 0.0
    damping: float = 2.0  # pu torque per pu speed deviation (classical model)


@dataclass
class CaseFile:
    """Complete grid description, including region declarations.

    `grbcs` holds grbc.GrbcDeclaration objects; kept loosely typed here to
    avoid an import cycle with the region-adapter module.
    """

    base_mva: float
    frequency_hz: float
    buses: list[BusRecord]
    branches: list[BranchRecord]
    machines: list[MachineRecord] = field(default_factory=list)
    grbcs: list = field(default_factory=list)
    name: str = "case"

    @property
    def period(self) -> float:
        return 1.0 / self.frequency_hz

    def bus(self, bus_id: str) -> BusRecord:
        for b in self.buses:
            if b.id == bus_id:
                return b
        raise KeyError(bus_id)


# --- case file I/O ----------------------------------------------------------


def parse_case(doc: dict, name: str = "case") -> CaseFile:
    """Build a CaseFile from a parsed JSON document.

    Any *_deg angle field in the document is converted to radians here;
    everything downstream works in radians.
    """
    from . import grbc  # deferred: grbc imports netmodel types

    try:
        base_mva = float(doc["base_mva"])
        frequency_hz = float(doc["frequency_hz"])
        buses = [_parse_bus(d) for d in doc["buses"]]
        branches = [_parse_branch(d) for d in doc["branches"]]
        machines = [_parse_machine(d) for d in doc.get("machines", [])]
        grbcs = [grbc.parse_declaration(d, base_mva, frequency_hz) for d in doc.get("grbcs", [])]
    except (KeyError, TypeError, ValueError) as exc:
        raise CaseFormatError(f"malformed case document: {exc}") from exc
    return CaseFile(base_mva, frequency_hz, buses, branches, machines, grbcs, name)


def load_case(path: str | Path) -> CaseFile:
    path = Path(path)
    with open(path) as f:
        doc = json.load(f)
    return parse_case(doc, name=path.stem)


def _parse_bus(d: dict) -> BusRecord:
    return BusRecord(
        id=str(d["id"]),
        kind=BusKind(d["kind"]),
        base_kv=float(d["base_kv"]),
        v_set=None if d.get("v_set") is None else float(d["v_set"]),
        p_load=float(d.get("p_load", 0.0)),
        q_load=float(d.get("q_load", 0.0)),
        shunt_g=float(d.get("shunt_g", 0.0)),
        shunt_b=float(d.get("shunt_b", 0.0)),
    )


def _parse_branch(d: dict) -> BranchRecord:
    return BranchRecord(
        from_bus=str(d["from"]),
        to_bus=str(d["to"]),
        r=float(d["r"]),
        x=float(d["x"]),
        b_half=float(d.get("b_half", 0.0)),
        tap=float(d.get("tap", 1.0)),
    )


def _parse_machine(d: dict) -> MachineRecord:
    return MachineRecord(
        bus=str(d["bus"]),
        kind=MachineKind(d["kind"]),
        xd_transient=float(d.get("xd_transient", 0.0)),
        p_set=float(d.get("p_set", 0.0)),
        v_set=None if d.get("v_set") is None else float(d["v_set"]),
        inertia_h=float(d.get("inertia_h", 0.0)),
        damping=float(d.get("damping", 2.0)),
    )


# --- validation -------------------------------------------------------------


class Violation(NamedTuple):
    code: str
    subject: str
    message: str


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, code: str, subject: str, message: str):
        self.violations.append(Violation(code, subject, message))

    def extend(self, found) -> None:
        """Add each (code, subject, message) of `found`."""
        self.violations += [Violation(*v) for v in found]

    def codes(self) -> list[str]:
        return [v.code for v in self.violations]

    def raise_if_invalid(self) -> None:
        """Raise ValueError('invalid case: Code(subject); ...') unless ok."""
        if self.violations:
            raise ValueError("invalid case: " + "; ".join(
                f"{v.code}({v.subject})" for v in self.violations))


def non_finite(subject: str, record) -> list[tuple[str, str, str]]:
    """A NonFiniteValue violation (code, subject, message) per float field
    of `record`, a record or the case, that is NaN or infinite, which every
    sign test here would let through.  Both kinds of class list their
    fields, in order, in their annotations."""
    return [("NonFiniteValue", f"{subject}.{name}", f"{name} must be finite, got {value}")
            for name in type(record).__annotations__
            if isinstance(value := getattr(record, name), float) and not math.isfinite(value)]


def validate_case(case: CaseFile) -> ValidationReport:
    """Check every structural invariant of a case; returns an ordered report.

    An empty report means the case is usable by every other module.
    """
    from . import grbc

    rep = ValidationReport()
    rep.extend(non_finite(case.name, case))
    if case.base_mva <= 0:
        rep.add("BadBase", case.name, "base_mva must be > 0")
    if case.frequency_hz <= 0:
        rep.add("BadBase", case.name, "frequency_hz must be > 0")

    seen: set[str] = set()
    for b in case.buses:
        if b.id in seen:
            rep.add("DuplicateId", b.id, f"bus id '{b.id}' appears more than once")
        seen.add(b.id)
        rep.extend(non_finite(b.id, b))
        if b.base_kv <= 0:
            rep.add("BadBase", b.id, "base_kv must be > 0")
        if b.kind in (BusKind.SLACK, BusKind.PV) and b.v_set is None:
            rep.add("MissingVset", b.id, f"{b.kind.value} bus needs v_set")

    bus_ids = {b.id for b in case.buses}
    for br in case.branches:
        label = f"{br.from_bus}-{br.to_bus}"
        rep.extend(non_finite(label, br))
        for end in (br.from_bus, br.to_bus):
            if end not in bus_ids:
                rep.add("UnknownBusRef", label, f"branch endpoint '{end}' undefined")
        if br.r == 0.0 and br.x == 0.0:
            rep.add("ZeroImpedanceBranch", label, "branch needs nonzero r or x")
        if br.tap <= 0.0:
            rep.add("BadTap", label, "tap ratio must be > 0")

    for m in case.machines:
        rep.extend(non_finite(m.bus, m))
        if m.bus not in bus_ids:
            rep.add("UnknownBusRef", m.bus, f"machine bus '{m.bus}' undefined")
        if m.kind is MachineKind.SYNCHRONOUS_SIMPLIFIED and m.xd_transient <= 0:
            rep.add("BadMachineReactance", m.bus, "xd_transient must be > 0")

    # Region declarations: ownership and payload health.
    owned: dict[str, str] = {}
    for g in case.grbcs:
        if g.boundary_bus not in bus_ids:
            rep.add("UnknownBusRef", g.name, f"boundary bus '{g.boundary_bus}' undefined")
        else:
            if case.bus(g.boundary_bus).kind is not BusKind.BOUNDARY:
                rep.add(
                    "GrbcBusNotBoundary",
                    g.name,
                    f"bus '{g.boundary_bus}' must be kind Boundary",
                )
            if g.boundary_bus in owned:
                rep.add(
                    "BoundaryMultiplyOwned",
                    g.boundary_bus,
                    f"boundary bus owned by both '{owned[g.boundary_bus]}' and '{g.name}'",
                )
            owned[g.boundary_bus] = g.name
        rep.extend(grbc.validate_declaration(g))

    for b in case.buses:
        if b.kind is BusKind.BOUNDARY and b.id not in owned:
            rep.add("BoundaryNotDeclared", b.id, "Boundary bus not owned by any region")

    _check_islands(case, rep)
    return rep


def _check_islands(case: CaseFile, rep: ValidationReport):
    """Connectivity and slack count per island of the main-system graph."""
    ids = [b.id for b in case.buses]
    adjacency: dict[str, set[str]] = {i: set() for i in ids}
    for br in case.branches:
        if br.from_bus in adjacency and br.to_bus in adjacency:
            adjacency[br.from_bus].add(br.to_bus)
            adjacency[br.to_bus].add(br.from_bus)

    unvisited = set(ids)
    while unvisited:
        start = next(iter(sorted(unvisited)))
        stack, island = [start], set()
        while stack:
            n = stack.pop()
            if n in island:
                continue
            island.add(n)
            stack.extend(adjacency[n] - island)
        unvisited -= island
        slacks = [b.id for b in case.buses if b.id in island and b.kind is BusKind.SLACK]
        # A lone bus that only hosts a region boundary forms no island of interest.
        if len(slacks) != 1:
            rep.add(
                "SlackCount",
                ",".join(sorted(island)),
                f"island has {len(slacks)} slack buses (need exactly 1)",
            )


# --- nodal admittance -------------------------------------------------------


def admittance_rows(case: CaseFile) -> tuple[tuple[tuple[int, complex], ...], ...]:
    """The nodal admittance matrix of the case's own buses, in case.buses
    order, and branches, as Python scalars: per bus its row's nonzeros
    (column, Y_ik) in column order.  Boundary buses are ordinary rows and
    region internals are absent (pass `inline_grbcs(case)` for the whole
    system).  Each entry sums its stamps in branch order, then the bus
    shunt, as a dense stamping loop would, so `build_admittance` scatters
    the same bits.  A bus with an empty row raises SingularNetwork.
    """
    index = {b.id: i for i, b in enumerate(case.buses)}
    acc: list[dict[int, complex]] = [{} for _ in case.buses]
    for br in case.branches:
        f, t = index[br.from_bus], index[br.to_bus]
        row_f, row_t = acc[f], acc[t]
        ys = br.series_admittance
        ysh = 1j * br.b_half
        tap = br.tap
        row_f[f] = row_f.get(f, 0j) + (ys + ysh) / (tap * tap)
        row_t[t] = row_t.get(t, 0j) + (ys + ysh)
        off = -(ys / tap)  # x + off rounds as x - ys / tap
        row_f[t] = row_f.get(t, 0j) + off
        row_t[f] = row_t.get(f, 0j) + off
    for i, b in enumerate(case.buses):
        acc[i][i] = acc[i].get(i, 0j) + complex(b.shunt_g, b.shunt_b)

    rows = tuple(tuple(sorted((k, y) for k, y in row.items() if y)) for row in acc)
    for b, row in zip(case.buses, rows):
        if not row:
            raise SingularNetwork(f"bus '{b.id}' has no admittance connection")
    return rows


def build_admittance(case: CaseFile, rows=None) -> np.ndarray:
    """The dense complex nodal admittance matrix of `case`, scattered from
    its `admittance_rows` (assembled here unless `rows` gives them)."""
    rows = admittance_rows(case) if rows is None else rows
    n = len(rows)
    y = np.zeros((n, n), dtype=complex)
    y.put([i * n + k for i, row in enumerate(rows) for k, _ in row],
          [y_ik for row in rows for _, y_ik in row])
    return y


def inline_grbcs(case: CaseFile) -> CaseFile:
    """Flatten white-box region internals into one whole-system case.

    Each region contributes its `grbc.internal_pf_case` (internal ids
    already '<region>/<id>') less the boundary bus; boundary buses become
    ordinary PQ buses.  Raises OracleUnavailable if any region has no
    visible internal network.
    """
    from . import grbc

    buses = [b._replace(kind=BusKind.PQ, v_set=None) if b.kind is BusKind.BOUNDARY else b
             for b in case.buses]
    branches = list(case.branches)
    machines = list(case.machines)

    for g in case.grbcs:
        if grbc.adapter_is_opaque(g):
            raise OracleUnavailable(
                f"region '{g.name}' is opaque; whole-system solve impossible"
            )
        internal = grbc.internal_pf_case(g)
        buses += [b for b in internal.buses if b.kind is not BusKind.BOUNDARY]
        branches += internal.branches
        machines += internal.machines

    return CaseFile(case.base_mva, case.frequency_hz, buses, branches,
                    machines, [], name=f"{case.name}+inlined")
