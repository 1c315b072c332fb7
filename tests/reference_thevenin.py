"""Reference Thevenin extraction: two nodal solves per boundary.

`snapshot.thevenin_extract` reads a boundary's equivalent off one solve of
the main net with a unit injection at every boundary.  This oracle forms
it from its definition instead, with `reference_phasor_solve` at the
kernel's companion admittances: the impedance is the boundary's voltage
under a unit injection into it with every pin at zero, and the source is
its voltage with the net's own pins (`net_pins`) while every other
boundary draws its current and the boundary itself draws none.  It is
kept as the oracle for the table's equivalence test.
"""

import emtgis.emtkernel as ek
import emtgis.snapshot as sn
from emtgis.netmodel import Phasor
from reference_phasor import net_pins, reference_phasor_solve


def reference_thevenin(net: ek.EmtNet, boundary: str, draws: dict[str, complex],
                       dt: float = 5e-5) -> sn.TheveninEquivalent:
    """The equivalent at `boundary` when each bus of `draws` (bus: RMS
    current drawn from the net) other than it draws its current."""
    zero = {nid: 0j for nid in net_pins(net)}
    z_eq = reference_phasor_solve(net, zero, {boundary: 1.0}, dt)[0][boundary]
    others = {bus: -i for bus, i in draws.items() if bus != boundary}
    e_eq = reference_phasor_solve(net, net_pins(net), others, dt)[0][boundary]
    return sn.TheveninEquivalent(Phasor.from_complex(e_eq), z_eq)
