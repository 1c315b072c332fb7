"""Reference splice: one owner dict per id kind, one Python loop per id.

This is `snapshot.splice` as it was before it copied each id kind's rows
by one index of the full net's ids.  Every element and machine id maps to
one (subsystem, row) owner, the element's first and the machine's last in
snapshot order; every node id maps to all its owners, main first.  The
merged state is filled one full-net id at a time.  The only edits are the
ones the `Snapshot` and `EmtState` types force: a snapshot's dt is its
state's, its step is no constructor argument, and an element carries one
history current where it carried a voltage and a current one step back,
and a machine no EMF.  Kept as the oracle of the indexed splice's
equivalence test.
"""

import numpy as np

import emtgis.emtkernel as ek
import emtgis.snapshot as sn
from emtgis.errors import IncompatibleSnapshot, ScheduleViolation, TopologyMismatch


def reference_splice(snapshots: dict[str, sn.Snapshot], schedule: sn.SpliceSchedule,
                     full_net: ek.EmtNet, dt: float) -> tuple[sn.Snapshot, dict[str, float]]:
    """Merge subsystem snapshots into one whole-system state, boundary
    nodes from main, their disagreement the splicing deviation."""
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

    if len(snapshots) == 1:
        (only,) = snapshots.values()
        covered = set(only.emt_state.element_ids)
        missing = [e.eid for e in full_net.elements if e.eid not in covered]
        if missing:
            raise TopologyMismatch(f"elements missing from snapshot: {missing[:4]}")
        return only, {bus: 0.0 for bus in only.boundary_phasors}

    merged = ek.zero_state(full_net, dt)
    merged.step = schedule.t_ref_steps

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
        merged.i_hist[k] = st.i_hist[src_k]

    deviations: dict[str, float] = {}
    for k, nid in enumerate(full_net.nodes):
        owners = node_owner.get(nid)
        if not owners:
            raise TopologyMismatch(f"node '{nid}' missing from all snapshots")
        main_first = sorted(owners, key=lambda o: 0 if o[0] == sn.MAIN_SUBSYSTEM else 1)
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
        merged.machine_pm[k] = st.machine_pm[src_k]

    boundary_phasors = {}
    parts = {}
    for name, snap in snapshots.items():
        parts.update(snap.parts)
        boundary_phasors.update(snap.boundary_phasors)
    provenance = sn.PROVENANCE_SPLICED
    if set(parts.values()) == {sn.PROVENANCE_PHASOR}:
        provenance = sn.PROVENANCE_PHASOR
    freq = next(iter(snapshots.values())).frequency_hz
    out = sn.Snapshot("whole", freq, merged, boundary_phasors, provenance, parts)
    return out, deviations
