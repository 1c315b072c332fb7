"""Reference phasor solve: element-by-element stamping, dicts keyed by id.

This is `emtkernel.phasor_solve` as it was before it stamped its nodal
matrix from `element_terminals` in one `np.add.at` and pinned the net's
own sources and machine EMFs itself.  Here the caller pins every known
node, and the solve stamps each element's admittance into Y in a Python
loop, in element order, and returns its phasors keyed by node and element
id.  It is kept as the oracle for the array solve's equivalence test.
"""

import cmath

import numpy as np

import emtgis.emtkernel as ek
from emtgis.errors import SingularConductance
from reference_kernel import companion


def effective_admittance(coef: tuple[float, float, float], omega: float,
                         dt: float) -> complex:
    """Admittance seen by a pure discrete sinusoid at omega.

    Derived from the companion recursion with v, i sampled sinusoids;
    initializing states from these values puts the kernel exactly on its
    discrete periodic steady state.
    """
    g, h, j = coef
    z = cmath.exp(-1j * omega * dt)
    return (g + h * z) / (1.0 - j * z)


def net_pins(net: ek.EmtNet) -> dict[str, complex]:
    """The nodes `emtkernel.phasor_solve` pins from the net itself, as
    known_phasors: its sources' nodes, then its machines' EMF nodes, at
    their RMS phasors; a node pinned twice keeps its last value."""
    known = {s.node: cmath.rect(s.rms, s.angle) for s in net.sources}
    known.update((m.emf_node, cmath.rect(m.emf_rms, m.delta0)) for m in net.machines)
    return known


def reference_phasor_solve(net: ek.EmtNet, known_phasors: dict[str, complex],
                           injections: dict[str, complex] | None, dt: float
                           ) -> tuple[dict[str, complex], dict[str, complex]]:
    """Single-frequency nodal solve of the network at its fundamental.

    known_phasors pin nodes (RMS); injections add RMS current sources into
    nodes.  Element admittances are the discrete-companion effective
    values at dt, so the result is the exact periodic steady state of the
    stepped kernel.

    Returns (node phasors, element current phasors) with element currents
    oriented from n_from to n_to.
    """
    injections = injections or {}
    omega = net.omega
    nodes = list(net.nodes)
    index = {nid: i for i, nid in enumerate(nodes)}
    n = len(nodes)
    ground = n

    yvals = [effective_admittance(companion(e.kind, e.value, dt), omega, dt)
             for e in net.elements]

    ymat = np.zeros((n + 1, n + 1), dtype=complex)
    for e, yv in zip(net.elements, yvals):
        f = index[e.n_from]
        t = ground if e.n_to is None else index[e.n_to]
        ymat[f, f] += yv
        ymat[t, t] += yv
        ymat[f, t] -= yv
        ymat[t, f] -= yv

    known = {index[nid] for nid in known_phasors}
    known_idx = np.array(sorted(known), dtype=int)
    v = np.zeros(n + 1, dtype=complex)
    for nid, ph in known_phasors.items():
        v[index[nid]] = ph
    inj = np.zeros(n + 1, dtype=complex)
    for nid, cur in injections.items():
        inj[index[nid]] += cur

    unknown = np.array([i for i in range(n) if i not in known], dtype=int)
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
