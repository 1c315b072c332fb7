"""Reference Thevenin extraction: one nodal solve per boundary.

This is how `snapshot.thevenin_extract` formed a boundary's equivalent
before `snapshot.fault_currents` took every boundary's solid-fault current
from one solve: a `phasor_solve` of the whole net with the boundary node
pinned to zero, whose element currents into that node are the fault
current.  It is kept as the oracle for the table's equivalence test.
"""

import emtgis.emtkernel as ek
import emtgis.snapshot as sn


def reference_fault_current(net: ek.EmtNet, boundary: str) -> complex:
    """The solid-fault current at `boundary` in the orientation
    `thevenin_from_measurements` takes: minus the element currents into
    the grounded node."""
    _, elem_ph = ek.phasor_solve(net, {boundary: 0j})
    n_from, n_to = ek.element_terminals(net)
    b = net.nodes.index(boundary)
    return -complex(elem_ph[n_to == b].sum() - elem_ph[n_from == b].sum())


def reference_thevenin(net: ek.EmtNet, boundary: str, v_b: complex,
                       i_into_attachment: complex) -> sn.TheveninEquivalent:
    """Two-measurement extraction: operating point plus solid-fault solve."""
    return sn.thevenin_from_measurements(v_b, i_into_attachment,
                                         reference_fault_current(net, boundary))
