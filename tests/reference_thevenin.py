"""Reference Thevenin extraction: one nodal solve per boundary.

This is how `snapshot.thevenin_extract` formed a boundary's equivalent
before `snapshot.fault_currents` took every boundary's solid-fault current
from one solve: a phasor solve of the whole net with the boundary node
grounded, whose element currents into that node are the fault current.
The solve is `reference_phasor_solve`, told the net's own pins
(`net_pins`) and the boundary at zero.  It is kept as the oracle for the
table's equivalence test.
"""

import emtgis.emtkernel as ek
import emtgis.snapshot as sn
from reference_phasor import net_pins, reference_phasor_solve


def reference_fault_current(net: ek.EmtNet, boundary: str) -> complex:
    """The solid-fault current at `boundary` in the orientation
    `thevenin_from_measurements` takes: minus the element currents into
    the grounded node."""
    _, elem_ph = reference_phasor_solve(net, {**net_pins(net), boundary: 0j})
    into = sum(elem_ph[e.eid] for e in net.elements if e.n_to == boundary)
    out = sum(elem_ph[e.eid] for e in net.elements if e.n_from == boundary)
    return -complex(into - out)


def reference_thevenin(net: ek.EmtNet, boundary: str, v_b: complex,
                       i_into_attachment: complex) -> sn.TheveninEquivalent:
    """Two-measurement extraction: operating point plus solid-fault solve."""
    return sn.thevenin_from_measurements(v_b, i_into_attachment,
                                         reference_fault_current(net, boundary))
