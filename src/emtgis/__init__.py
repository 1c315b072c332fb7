"""emtgis: steady-state initialization for EMT simulation of hybrid AC-DC
grids whose subsystems may be black boxes.

The toolkit solves the whole-system power flow by boundary coordination
(matrix-free Newton-GMRES over torn boundary buses), builds initialized
per-subsystem snapshots (phasor-based for the white-box main system,
ramp-based behind Thevenin equivalents for black-box regions), splices
them at phase-aligned times, and verifies the result on a built-in
desk-scale EMT kernel.

Records: a record of fields, defaults, methods and properties is a
`typing.NamedTuple`, changed by `_replace`.  A record is a `@dataclass`
only where it needs one: it validates in `__post_init__`, caches with
`cached_property`, or takes a mutable default or a field assigned after
construction.  A dataclass generates and compiles its methods on every
import, bytecode cache or not; a NamedTuple costs about a tenth of that.
"""

__version__ = "0.1.0"

from .errors import EmtgisError  # noqa: F401
from .netmodel import (  # noqa: F401
    BranchRecord,
    BusKind,
    BusRecord,
    CaseFile,
    MachineKind,
    MachineRecord,
    Phasor,
    build_admittance,
    load_case,
    parse_case,
    validate_case,
)
