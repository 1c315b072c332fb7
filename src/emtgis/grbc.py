"""Black-box region adapters.

A region is anything that maps a boundary voltage phasor to injected power
(p_tilde, q_tilde) at its torn boundary bus and that can be ramped to an
initialized state in the EMT kernel.  The coordinator only ever calls
`evaluate` and `adapter_is_opaque`; it never sees region internals.

Sign convention: injections are measured INTO the torn boundary node from
the region side, so boundary convergence is p_main + p_tilde = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple

from . import powerflow
from .errors import (
    GrbcPayloadError,
    InternalNonConvergence,
    InvalidVoltage,
)
from .netmodel import (
    BranchRecord,
    BusKind,
    BusRecord,
    CaseFile,
    MachineRecord,
    Phasor,
    _parse_branch,
    _parse_bus,
    _parse_machine,
    non_finite,
)


class GrbcKind(str, Enum):
    WHITE_BOX_NETWORK = "WhiteBoxNetwork"
    SCRIPTED_RESPONSE = "ScriptedResponse"
    SIMPLIFIED_HVDC_TERMINAL = "SimplifiedHvdcTerminal"


class Subnetwork(NamedTuple):
    """Internal phasor network of a white-box region."""

    buses: tuple[BusRecord, ...]
    branches: tuple[BranchRecord, ...]
    machines: tuple[MachineRecord, ...]


class WhiteBoxPayload(NamedTuple):
    network: Subnetwork
    oracle: bool = True
    pf_tol: float = 1e-12


class ScriptedPayload(NamedTuple):
    p_expr: object
    q_expr: object


class HvdcPayload(NamedTuple):
    """Steady-state converter terminal: constant DC power order with
    reactive consumption q = p * tan_phi, derated linearly below 0.9 pu."""

    p_dc: float
    tan_phi: float


@dataclass(frozen=True)
class GrbcDeclaration:
    name: str
    boundary_bus: str
    kind: GrbcKind
    payload: object
    base_mva: float  # of the declaring case; `internal_pf_case` carries both
    frequency_hz: float

    @cached_property
    def pf_problem(self) -> powerflow.PowerFlowProblem:
        """The power-flow problem of a white-box region's internal case
        (`internal_pf_case`), built on first use and kept for the
        declaration's lifetime: it depends on the declaration alone, which
        is immutable.  Other kinds raise GrbcPayloadError."""
        return powerflow.PowerFlowProblem(internal_pf_case(self))


class GrbcEvaluation(NamedTuple):
    """A region's injection into its torn node and, for a white-box region,
    the internal power flow it comes from (None for the other kinds)."""

    p_tilde: float
    q_tilde: float
    internal_pf: powerflow.PowerFlowSolution | None = None


# --- expression grammar for scripted responses -------------------------------

_BINARY = {"+", "-", "*", "/", "pow"}
_UNARY = {"sin", "cos"}
_VARS = {"V", "theta"}


def validate_expr(node) -> None:
    """Recursively check a scripted expression tree; raises GrbcPayloadError."""
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return
    if isinstance(node, str):
        if node not in _VARS:
            raise GrbcPayloadError(f"unknown variable '{node}' (allowed: V, theta)")
        return
    if isinstance(node, list) and node:
        op, *args = node
        if not isinstance(op, str):
            raise GrbcPayloadError(f"operator {op!r} is not a string")
        if op in _UNARY:
            if len(args) != 1:
                raise GrbcPayloadError(f"'{op}' takes 1 argument, got {len(args)}")
        elif op in _BINARY:
            if op == "-" and len(args) == 1:
                pass  # unary minus
            elif len(args) != 2:
                raise GrbcPayloadError(f"'{op}' takes 2 arguments, got {len(args)}")
        else:
            raise GrbcPayloadError(f"unknown operator '{op}'")
        for a in args:
            validate_expr(a)
        return
    raise GrbcPayloadError(f"malformed expression node: {node!r}")


def expr_constants(node):
    """The numeric constants of a valid expression tree, at any depth."""
    if isinstance(node, list):
        for arg in node[1:]:
            yield from expr_constants(arg)
    elif not isinstance(node, str):
        yield node


def eval_expr(node, v: float, theta: float) -> float:
    if isinstance(node, (int, float)):
        return float(node)
    if node == "V":
        return v
    if node == "theta":
        return theta
    op, *args = node
    vals = [eval_expr(a, v, theta) for a in args]
    if op == "+":
        return vals[0] + vals[1]
    if op == "-":
        return -vals[0] if len(vals) == 1 else vals[0] - vals[1]
    if op == "*":
        return vals[0] * vals[1]
    if op == "/":
        return vals[0] / vals[1]
    if op == "pow":
        return vals[0] ** vals[1]
    if op == "sin":
        return math.sin(vals[0])
    return math.cos(vals[0])


# --- declaration parsing ------------------------------------------------------


def parse_declaration(d: dict, base_mva: float, frequency_hz: float) -> GrbcDeclaration:
    name = str(d["name"])
    boundary = str(d["boundary_bus"])
    kind = GrbcKind(d["kind"])
    raw = d.get("payload", {})
    if not isinstance(raw, dict):
        raise TypeError(f"payload of region '{name}' is not an object")
    if kind is GrbcKind.WHITE_BOX_NETWORK:
        net = Subnetwork(
            buses=tuple(_parse_bus(b) for b in raw.get("buses", [])),
            branches=tuple(_parse_branch(b) for b in raw.get("branches", [])),
            machines=tuple(_parse_machine(m) for m in raw.get("machines", [])),
        )
        payload = WhiteBoxPayload(net, bool(raw.get("oracle", True)),
                                  float(raw.get("pf_tol", 1e-12)))
    elif kind is GrbcKind.SCRIPTED_RESPONSE:
        payload = ScriptedPayload(p_expr=raw["p"], q_expr=raw["q"])
    else:
        payload = HvdcPayload(p_dc=float(raw["p_dc"]), tan_phi=float(raw["tan_phi"]))
    return GrbcDeclaration(name, boundary, kind, payload, base_mva, frequency_hz)


def validate_declaration(decl: GrbcDeclaration) -> list[tuple[str, str, str]]:
    """Payload-level checks; returns (code, subject, message) tuples.

    Each NaN or infinite number of a payload is a NonFiniteValue violation:
    a field's, or a scripted expression's constant at any depth (subject
    `<region>.p` or `.q`, as for a BadExpression)."""
    if decl.kind is not GrbcKind.SCRIPTED_RESPONSE:
        out = non_finite(decl.name, decl.payload)
    else:
        out = []
        for which, expr in (("p", decl.payload.p_expr), ("q", decl.payload.q_expr)):
            try:
                validate_expr(expr)
            except GrbcPayloadError as exc:
                out.append(("BadExpression", f"{decl.name}.{which}", str(exc)))
                continue
            out += [("NonFiniteValue", f"{decl.name}.{which}",
                     f"every constant of {which} must be finite, got {c}")
                    for c in expr_constants(expr)
                    if isinstance(c, float) and not math.isfinite(c)]
    if decl.kind is GrbcKind.WHITE_BOX_NETWORK:
        net = decl.payload.network
        seen = set()
        internal_ids = {b.id for b in net.buses}
        for b in net.buses:
            out += non_finite(f"{decl.name}/{b.id}", b)
            if b.id in seen:
                out.append(("DuplicateId", f"{decl.name}/{b.id}", "duplicate internal bus"))
            seen.add(b.id)
            if b.kind in (BusKind.SLACK, BusKind.BOUNDARY):
                out.append(
                    ("BadInternalBusKind", f"{decl.name}/{b.id}",
                     "internal buses must be PV or PQ")
                )
        allowed = internal_ids | {decl.boundary_bus}
        for br in net.branches:
            out += non_finite(f"{decl.name}/{br.from_bus}-{br.to_bus}", br)
            for end in (br.from_bus, br.to_bus):
                if end not in allowed:
                    out.append(
                        ("UnknownBusRef", f"{decl.name}/{end}",
                         "internal branch endpoint undefined")
                    )
        for m in net.machines:
            out += non_finite(f"{decl.name}/{m.bus}", m)
            if m.bus not in internal_ids:
                out.append(
                    ("UnknownBusRef", f"{decl.name}/{m.bus}", "machine bus undefined")
                )
    return out


def internal_pf_case(decl: GrbcDeclaration) -> CaseFile:
    """Region-side phasor network with the torn boundary bus included.

    Internal buses, and the branch ends and machines on them, are named
    '<region>/<id>', the one namespace every whole-system view of the
    region shares; the boundary bus keeps its own id.  Base power and
    frequency are those of the case that declares the region.
    """
    if decl.kind is not GrbcKind.WHITE_BOX_NETWORK:
        raise GrbcPayloadError(f"region '{decl.name}' has no internal network")
    net = decl.payload.network
    rename = {b.id: f"{decl.name}/{b.id}" for b in net.buses}
    rename[decl.boundary_bus] = decl.boundary_bus
    boundary = BusRecord(decl.boundary_bus, BusKind.BOUNDARY, base_kv=1.0)
    return CaseFile(
        base_mva=decl.base_mva,
        frequency_hz=decl.frequency_hz,
        buses=[boundary, *(b._replace(id=rename[b.id]) for b in net.buses)],
        branches=[br._replace(from_bus=rename[br.from_bus], to_bus=rename[br.to_bus])
                  for br in net.branches],
        machines=[m._replace(bus=rename[m.bus]) for m in net.machines],
        grbcs=[],
        name=f"{decl.name}-internal",
    )


# --- the adapter surface used by the coordinator ------------------------------


def evaluate(decl: GrbcDeclaration, v_boundary: Phasor) -> GrbcEvaluation:
    """Injected power of the region into its torn boundary node at the
    supplied boundary voltage.  Pure function of (decl, v_boundary): a
    white-box region solves `decl.pf_problem`, which depends on the
    declaration alone, every call, by Newton from its DC-angle start at
    v_boundary's angle (flat angles if its B_uu is singular; see
    `powerflow.PowerFlowProblem`) to the payload's pf_tol in at most 60
    iterations, and returns that solution as `internal_pf`.

    The angle arrives wrapped into (-pi, pi], as `Phasor` keeps it; a
    ScriptedResponse expression sees it so too.  That is harmless for a
    white-box region: its solution starts from, and so shifts with, the
    boundary angle, and its injections depend on angle differences only.

    A region that has no finite real injection at v_boundary raises
    InternalNonConvergence: a white-box internal power flow that fails
    (an overflowing one included), or a scripted expression that divides
    by zero, overflows or leaves the reals."""
    v, th = v_boundary.magnitude, v_boundary.angle
    if v <= 0.0:
        raise InvalidVoltage(f"boundary voltage magnitude must be > 0, got {v}")
    internal = None
    if decl.kind is GrbcKind.WHITE_BOX_NETWORK:
        try:
            internal = powerflow.solve_main(decl.pf_problem, [v], [th],
                                            decl.payload.pf_tol, 60)
        except powerflow.SOLVE_FAILURES as exc:
            raise InternalNonConvergence(
                f"internal power flow of region '{decl.name}' failed: {exc}"
            ) from exc
        # Injection into the torn node from the region side is the negative
        # of the network injection computed at the boundary row (no
        # region-side load sits on the boundary bus itself).
        p, q = internal.injection(decl.boundary_bus)
        p, q = -p, -q
    elif decl.kind is GrbcKind.SCRIPTED_RESPONSE:
        try:
            p, q = (eval_expr(e, v, th) for e in (decl.payload.p_expr, decl.payload.q_expr))
        except (ArithmeticError, ValueError, TypeError) as exc:
            raise _not_evaluable(decl, v_boundary, exc) from exc
    else:
        p_eff = decl.payload.p_dc * (v / 0.9 if v < 0.9 else 1.0)
        p, q = -p_eff, -p_eff * decl.payload.tan_phi
    if not (isinstance(p, float) and isinstance(q, float)
            and math.isfinite(p) and math.isfinite(q)):
        raise _not_evaluable(decl, v_boundary, f"it injects p = {p!r}, q = {q!r}")
    return GrbcEvaluation(p, q, internal)


def _not_evaluable(decl: GrbcDeclaration, v_boundary: Phasor, why) -> InternalNonConvergence:
    return InternalNonConvergence(
        f"region '{decl.name}' is not evaluable at |V| = {v_boundary.magnitude!r}, "
        f"angle {v_boundary.angle!r}: {why}")


def adapter_is_opaque(decl: GrbcDeclaration) -> bool:
    """False only for a white-box network declared oracle-capable."""
    return not (
        decl.kind is GrbcKind.WHITE_BOX_NETWORK and decl.payload.oracle
    )
