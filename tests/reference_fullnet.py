"""Reference whole-system net: one builder converts every part.

This is how `snapshot.build_full_net` formed the full net before it joined
the model's main net and region nets: one `_NetBuilder` named
'<case>:full' takes the main case's parts, then each region's, converted
from the case and the operating points once more.  Kept as the oracle of
the join's equality test.
"""

import emtgis.snapshot as sn
from emtgis.grbc import GrbcKind


def reference_region_parts(builder: sn._NetBuilder, op: sn.RegionOperatingPoint) -> None:
    """A region's parts into `builder`, which already holds its boundary
    node: a white-box region's internal network at its internal power
    flow, or an opaque region's source behind `OPAQUE_EQUIVALENT_Z`."""
    decl, e = op.decl, op.evaluation
    ns = f"{decl.name}/"
    if decl.kind is GrbcKind.WHITE_BOX_NETWORK:
        sn._add_case_parts(builder, decl.pf_problem.case, e.internal_pf, namespace=ns)
    else:
        v = op.v_boundary.rect
        i_into_region = sn.machine_port_current(-complex(e.p_tilde, e.q_tilde), v)
        e_int = v - sn.OPAQUE_EQUIVALENT_Z * i_into_region
        src_node = f"{ns}src"
        builder.series_rx(f"{ns}zint", builder.node(src_node), decl.boundary_bus,
                          sn.OPAQUE_EQUIVALENT_Z.real, sn.OPAQUE_EQUIVALENT_Z.imag)
        builder.ideal_source(f"{ns}esrc", src_node, e_int)


def reference_full_net(case, model: sn.SystemModel):
    """The full net of `model`'s operating point, every part converted by
    one builder: main first, then the regions in order."""
    b = sn._NetBuilder(f"{case.name}:full", case.frequency_hz)
    sn._add_case_parts(b, case, model.boundary_state.main_solution)
    for op in model.region_ops:
        reference_region_parts(b, op)
    return b.build()
