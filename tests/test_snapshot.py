import cmath
import copy
import dataclasses
import json
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import emtgis.emtkernel as ek
import emtgis.grbc as grbc_module
import emtgis.snapshot as sn
from emtgis.errors import (
    ScheduleViolation,
    StageFailure,
    SteadyStateTimeout,
    TopologyMismatch,
    UnsupportedElement,
)
from emtgis.grbc import GrbcKind, internal_pf_case
from emtgis.netmodel import (
    BranchRecord,
    BusKind,
    BusRecord,
    CaseFile,
    MachineKind,
    MachineRecord,
    Phasor,
    inline_grbcs,
    load_case,
)
from emtgis.powerflow import (
    MAIN_PF_MAX_ITER,
    MAIN_PF_TOL,
    PowerFlowProblem,
    boundary_injections,
    solve_main,
)

OMEGA = 2 * math.pi * 50.0

from conftest import (  # noqa: E402
    case_path,
    cycle_rms,
    drawn_currents,
    injection_thevenin,
    phasor_consistency_error,
    pipeline,
    random_linear_net,
    scaled_case,
    space_vector,
    splice_schedule,
    subset_state,
    zbus,
)
from reference_fullnet import reference_full_net  # noqa: E402
from reference_phasor import net_pins, reference_phasor_solve  # noqa: E402
from reference_splice import reference_splice  # noqa: E402
from reference_thevenin import reference_thevenin  # noqa: E402


def machine_case():
    """Slack source, one classical machine, one load: phasor-init testbed."""
    return CaseFile(
        100.0, 50.0,
        [BusRecord("B1", BusKind.SLACK, 230.0, v_set=1.02),
         BusRecord("B2", BusKind.PV, 230.0, v_set=1.01),
         BusRecord("B3", BusKind.PQ, 230.0, p_load=0.6, q_load=0.2)],
        [BranchRecord("B1", "B3", 0.01, 0.08),
         BranchRecord("B2", "B3", 0.012, 0.1)],
        [MachineRecord("B1", MachineKind.IDEAL_SOURCE),
         MachineRecord("B2", MachineKind.SYNCHRONOUS_SIMPLIFIED,
                       xd_transient=0.15, p_set=0.4, v_set=1.01,
                       inertia_h=1.5, damping=2.0)],
    )


class TestPhasorDiagram:
    def test_port_current_of_unloaded_source_is_zero(self):
        assert sn.machine_port_current(0j, 1.0 + 0j) == 0j

    def test_port_current_is_conjugate_ratio(self):
        i = sn.machine_port_current(1.0 + 0j, 1.0 + 0j)
        assert i == pytest.approx(1.0 + 0j)
        i = sn.machine_port_current(0.5 + 0.2j, cmath.rect(1.02, 0.1))
        assert i == pytest.approx(((0.5 + 0.2j) / cmath.rect(1.02, 0.1)).conjugate())

    def test_classical_machine_emf(self):
        emf = sn.machine_internal_emf(1.0 + 0j, 1.0 + 0j, 0.2)
        assert emf == pytest.approx(1.0 + 0.2j)
        assert abs(emf) == pytest.approx(math.sqrt(1.04))
        assert cmath.phase(emf) == pytest.approx(math.atan(0.2))


class TestPhasorInit:
    def test_unloaded_network_has_zero_current_histories(self):
        case = CaseFile(
            100.0, 50.0,
            [BusRecord("B1", BusKind.SLACK, 230.0, v_set=1.0),
             BusRecord("B2", BusKind.PQ, 230.0)],
            [BranchRecord("B1", "B2", 0.0, 0.1)],
            [MachineRecord("B1", MachineKind.IDEAL_SOURCE)],
        )
        pf = solve_main(PowerFlowProblem(case), tol=1e-12)
        net = sn.build_main_net(case, pf)
        snap = sn.phasor_init(net, 5e-5, ek.phasor_solve(net, 5e-5), {})
        st = snap.emt_state
        assert np.max(np.abs(st.elem_i)) < 1e-12
        assert np.max(np.abs(st.i_hist)) < 1e-12
        # the node voltages are the phasors at t = 0
        k = st.node_ids.index("B2")
        assert st.v_nodes[k, 0] == pytest.approx(math.sqrt(2.0), rel=1e-9)

    def test_history_currents_are_peak_scaled_phasors(self, twobus):
        # an element of voltage phasor U carrying I has the history current
        # h U + j I one step back: sqrt(2) |h U + j I| cos(omega (t0 - dt)
        # + its angle), zero on a resistor
        pf = solve_main(PowerFlowProblem(twobus), tol=1e-12)
        net = sn.build_main_net(twobus, pf)
        solved = ek.phasor_solve(net, 5e-5)
        st = sn.phasor_init(net, 5e-5, solved, {}).emt_state
        node_ph, elem_ph = (rows[0] for rows in solved)
        _, h, j = ek.companion_arrays(net, 5e-5)
        v = dict(zip(net.nodes, node_ph))
        for k, e in enumerate(net.elements):
            u = v[e.n_from] - (v[e.n_to] if e.n_to else 0.0)
            expect = ek.SQRT2 * ((h[k] * u + j[k] * complex(elem_ph[k]))
                                 * cmath.exp(1j * OMEGA * (-5e-5))).real
            assert st.i_hist[k, 0] == pytest.approx(expect, rel=1e-12, abs=1e-12)
            if e.kind is ek.ElementKind.RESISTOR:
                assert not st.i_hist[k].any()

    def test_machine_case_holds_steady_two_cycles(self):
        case = machine_case()
        pf = solve_main(PowerFlowProblem(case), tol=1e-12)
        net = sn.build_main_net(case, pf)
        snap = sn.phasor_init(net, 5e-5, ek.phasor_solve(net, 5e-5), {})
        waves, _ = ek.run(net, ek.SimConfig(dt=5e-5, steps=800,
                                            record=["B1", "B2", "B3"]),
                          init=snap.emt_state)
        n = int(round(0.02 / 5e-5))
        for b in ("B1", "B2", "B3"):
            rms = cycle_rms(waves, f"{b}.a", n, last_only=False)
            target = pf.voltage(b).magnitude
            assert np.max(np.abs(rms - target)) / target < 1e-3

    def test_machine_stays_at_equilibrium(self):
        case = machine_case()
        pf = solve_main(PowerFlowProblem(case), tol=1e-12)
        net = sn.build_main_net(case, pf)
        snap = sn.phasor_init(net, 5e-5, ek.phasor_solve(net, 5e-5), {})
        _, fin = ek.run(net, ek.SimConfig(dt=5e-5, steps=10_000),
                        init=snap.emt_state)
        assert fin.machine_delta[0] == pytest.approx(
            snap.emt_state.machine_delta[0], abs=1e-9)
        assert abs(fin.machine_speed_dev[0]) < 1e-10

    def test_snapshot_phasor_consistency_both_provenances(self, ninebus1_pipeline):
        for name, snap in ninebus1_pipeline.subsystem_snapshots.items():
            assert phasor_consistency_error(snap) < 1e-6, name
        # the merged snapshot keeps main's boundary nodes and main's phasors
        merged = phasor_consistency_error(ninebus1_pipeline.snapshot)
        assert merged <= 1e-12


@pytest.fixture(scope="module")
def bundled_models(ninebus1, ninebus2, ninebus3, hybrid):
    return {case.name: (case, sn.system_model(case))
            for case in (ninebus1, ninebus2, ninebus3, hybrid)}


def assert_matches_reference(net, injected=(), dt=5e-5):
    """Each row of the array solve against the element-by-element solve:
    row 0 told every pin (`net_pins`), row 1 + k every pin at zero and a
    unit injection into injected[k]."""
    nodes, elems = ek.phasor_solve(net, dt, injected)
    zero = {nid: 0j for nid in net_pins(net)}
    solves = [(net_pins(net), None)] + [(zero, {nid: 1.0}) for nid in injected]
    assert nodes.shape == (len(solves), len(net.nodes))
    for k, (pins, injections) in enumerate(solves):
        ref_nodes, ref_elems = reference_phasor_solve(net, pins, injections, dt)
        ref = np.array([ref_nodes[nid] for nid in net.nodes]
                       + [ref_elems[e.eid] for e in net.elements])
        got = np.concatenate([nodes[k], elems[k]])
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestPhasorSolveReference:
    @pytest.mark.parametrize("which", ["main", "full"])
    @pytest.mark.parametrize("name", ["ninebus1", "ninebus2", "ninebus3", "hybrid"])
    def test_bundled_nets_match_reference(self, bundled_models, name, which):
        """The main net with a unit injection at every boundary, as
        `run_emtgis` solves it, and the full net."""
        case, model = bundled_models[name]
        buses = model.boundary_state.bus_ids
        assert buses
        if which == "main":
            assert_matches_reference(sn.build_main_net(case, model.boundary_state.main_solution),
                                     buses)
        else:
            assert_matches_reference(model.full_net)

    def test_random_nets_match_reference(self):
        rng = np.random.default_rng(271)
        for _ in range(10):
            net, boundary = random_linear_net(rng)
            assert_matches_reference(net)
            assert_matches_reference(net, [boundary])

    def test_node_pinned_twice_takes_last_value(self):
        net = ek.EmtNet("pins", 50.0, ("a", "b"),
                        (ek.Element("r", ek.ElementKind.RESISTOR, "a", "b", 2.0),
                         ek.Element("l", ek.ElementKind.INDUCTOR, "b", None, 0.01)),
                        (ek.Source("s1", "a", 1.0, 0.0), ek.Source("s2", "a", 0.5, 0.0)))
        nodes, _ = ek.phasor_solve(net, 5e-5)
        assert nodes[0, 0] == 0.5


# The trapezoidal rule's reactance warp at dt = 5e-5: w'/w, w' = (2/dt) tan(w dt/2).
WARP = 2.0 / (OMEGA * 5e-5) * math.tan(OMEGA * 5e-5 / 2.0)


class TestThevenin:
    def test_constructed_table(self):
        # Two boundaries: a's equivalent takes b's draw, the current 1j,
        # so e_eq = v_oc,a - Z_ab i_b = 1 - 0.02j * 1j.
        table = {"a": np.array([1.0, 0.1j, 0.02j]), "b": np.array([0.9, 0.02j, 0.2j])}
        th = sn.thevenin_extract(table, {"a": 0.5 + 0j, "b": 1j}, "a")
        assert th.z_eq == 0.1j
        assert th.e_eq.rect == pytest.approx(1.02 + 0j, abs=1e-15)

    def test_source_behind_reactance_is_exact(self):
        net = ek.EmtNet(
            "src", 50.0, ("s", "b"),
            (ek.Element("x", ek.ElementKind.INDUCTOR, "s", "b", 0.1 / OMEGA),),
            (ek.Source("e", "s", 1.0, 0.0),),
        )
        th = sn.thevenin_extract(zbus(net, ["b"]), {"b": 0j}, "b")
        assert th.z_eq == pytest.approx(0.1j * WARP, abs=1e-12)
        assert th.e_eq.rect == pytest.approx(1.0 + 0j, abs=1e-12)
        # pre-warped, the equivalent's inductance is the net's own
        attached, probe = sn.attach_thevenin(ek.EmtNet("r", 50.0, ("b",), (), ()), "b", th, 5e-5)
        inductor = attached.elements[[e.eid for e in attached.elements].index(probe)]
        assert inductor.kind is ek.ElementKind.INDUCTOR
        assert inductor.value == pytest.approx(0.1 / OMEGA, rel=1e-12)

    @pytest.mark.parametrize("z_eq", [0.02 + 0.1j, 0.02 - 0.1j])
    def test_the_kernel_steps_exactly_z_eq(self, z_eq):
        # Behind a resistor, the attached equivalent's discrete steady
        # state carries e / (z_eq + R), its reactance inductive or
        # capacitive.
        th = sn.TheveninEquivalent(Phasor(1.0, 0.3), z_eq)
        region = ek.EmtNet("r", 50.0, ("b",),
                           (ek.Element("load", ek.ElementKind.RESISTOR, "b", None, 0.5),), ())
        attached, probe = sn.attach_thevenin(region, "b", th, 5e-5)
        _, elems = ek.phasor_solve(attached, 5e-5)
        k = [e.eid for e in attached.elements].index(probe)
        assert elems[0, k] == pytest.approx(th.e_eq.rect / (z_eq + 0.5), rel=1e-12)

    def test_equivalent_satisfies_measurement_identity(self, ninebus1,
                                                       ninebus1_pipeline):
        # e_eq - z_eq i_b is the discrete main net's boundary voltage while
        # the region draws its power-flow current i_b.
        pf = ninebus1_pipeline.model.boundary_state.main_solution
        drawn = drawn_currents(pf, ninebus1)
        net = sn.build_main_net(ninebus1, pf)
        th = sn.thevenin_extract(zbus(net, ["B10"]), drawn, "B10")
        i_b = drawn["B10"]
        nodes, _ = reference_phasor_solve(net, net_pins(net), {"B10": -i_b}, 5e-5)
        assert i_b * th.z_eq + nodes["B10"] == pytest.approx(th.e_eq.rect, abs=1e-9)

    def test_equivalent_reproduces_the_full_net(self, ninebus1, ninebus1_pipeline):
        """The region's own net behind its extracted source/impedance is
        the full net seen from the region: the attached net's discrete
        steady state is the full net's at every region node."""
        res = ninebus1_pipeline
        op = res.model.region_ops[0]
        pf = res.model.boundary_state.main_solution
        th = sn.thevenin_extract(zbus(sn.build_main_net(ninebus1, pf), ["B10"]),
                                 drawn_currents(pf, ninebus1), "B10")
        region = sn.build_region_net(op)
        net, _ = sn.attach_thevenin(region, "B10", th, 5e-5)
        assert not net.machines  # the solve pins the sources alone, as the ramp does
        nodes, _ = ek.phasor_solve(net, 5e-5)
        full_nodes, _ = ek.phasor_solve(res.model.full_net, 5e-5)
        for nid in region.nodes:
            want = full_nodes[0, res.model.full_net.nodes.index(nid)]
            assert nodes[0, net.nodes.index(nid)] == pytest.approx(want, abs=1e-12), nid

    def test_randomized_networks_match_injection_oracle(self):
        """Extracted impedance equals the Thevenin impedance computed by the
        textbook definition (unit injection with sources grounded) at the
        kernel's companion admittances."""
        rng = np.random.default_rng(314)
        for trial in range(3):
            net, boundary = random_linear_net(rng)
            z_direct = injection_thevenin(net, boundary)
            th = sn.thevenin_extract(zbus(net, [boundary]), {boundary: 0j}, boundary)
            assert th.z_eq == pytest.approx(z_direct, rel=1e-9)


class TestBoundaryTable:
    """`thevenin_extract` reads every boundary's equivalent off one solve
    with a unit injection at every boundary; the two reference solves per
    boundary of its definition are the oracle (`reference_thevenin`).
    Both equivalents agree within 1e-12 relative."""

    @staticmethod
    def assert_matches_oracle(th, ref):
        assert abs(th.z_eq - ref.z_eq) <= 1e-12 * abs(ref.z_eq)
        assert abs(th.e_eq.rect - ref.e_eq.rect) <= 1e-12 * abs(ref.e_eq.rect)

    @pytest.mark.parametrize("name", ["ninebus1", "ninebus2", "ninebus3", "hybrid"])
    def test_every_boundary_of_every_bundled_case(self, name, request):
        case = request.getfixturevalue(name)
        pf = sn.system_model(case, sn.PipelineConfig(dt=5e-5)).boundary_state.main_solution
        net = sn.build_main_net(case, pf)
        buses = [g.boundary_bus for g in case.grbcs]
        table = zbus(net, buses)
        assert list(table) == buses
        drawn = drawn_currents(pf, case)
        for bus in buses:
            th = sn.thevenin_extract(table, drawn, bus)
            self.assert_matches_oracle(th, reference_thevenin(net, bus, drawn))

    def test_a_loaded_boundary_bus_nets_its_own_load(self, ninebus1):
        # B10 draws a load of its own, which `boundary_injections` nets off
        # by the bus at B10's position in the solution: B9 before it and B8
        # two before it draw others.
        buses = [b._replace(p_load=0.2 + 0.1 * i, q_load=0.05 * i) if b.id in ("B8", "B9", "B10")
                 else b for i, b in enumerate(ninebus1.buses)]
        case = replace(ninebus1, buses=buses)
        pf = solve_main(PowerFlowProblem(case), [1.01], [-0.1])
        net = sn.build_main_net(case, pf)
        drawn = drawn_currents(pf, case)
        th = sn.thevenin_extract(zbus(net, ["B10"]), drawn, "B10")
        self.assert_matches_oracle(th, reference_thevenin(net, "B10", drawn))

    def test_random_nets_with_several_boundaries(self):
        rng = np.random.default_rng(2718)
        for _ in range(10):
            net, _ = random_linear_net(rng, int(rng.integers(4, 9)))
            buses = [nid for nid in net.nodes if nid.startswith("n") and nid != "n0"]
            table = zbus(net, buses)
            drawn = {bus: complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
                     for bus in buses}
            for bus in buses:
                self.assert_matches_oracle(sn.thevenin_extract(table, drawn, bus),
                                           reference_thevenin(net, bus, drawn))

    def test_boundary_pinned_by_the_net_is_unsupported(self):
        net = ek.EmtNet("pinned", 50.0, ("s", "b"),
                        (ek.Element("x", ek.ElementKind.INDUCTOR, "s", "b", 0.1 / OMEGA),),
                        (ek.Source("e", "b", 1.0, 0.0),))
        with pytest.raises(UnsupportedElement):
            ek.phasor_solve(net, 5e-5, ["b"])


class TestRamp:
    def setup_rl_region(self, r=0.5, x=1.0):
        net = ek.EmtNet(
            "region:rl", 50.0, ("B",),
            (ek.Element("rl/load:r", ek.ElementKind.RESISTOR, "B", "Bm", r),
             ek.Element("rl/load:l", ek.ElementKind.INDUCTOR, "Bm", None,
                        x / OMEGA)),
            (),
        )
        return ek.EmtNet(net.name, 50.0, net.nodes + ("Bm",), net.elements,
                         net.sources)

    @staticmethod
    def boundary_reading(region, th, snap, bus="B"):
        """V and I into the region at the ramped state's step, each the
        space vector of its three phases: the bus's node voltage and the
        equivalent's element next to the bus."""
        _, probe = sn.attach_thevenin(region, bus, th, 5e-5)
        st = snap.emt_state
        return (space_vector(st.v_nodes[st.node_ids.index(bus)], st.step, st.dt, OMEGA),
                space_vector(st.elem_i[st.element_ids.index(probe)], st.step, st.dt, OMEGA))

    def test_rl_region_settles_to_divider_solution(self):
        region = self.setup_rl_region()
        th = sn.TheveninEquivalent(Phasor(1.0, 0.0), 0.02 + 0.1j)
        cfg = ek.SimConfig(dt=5e-5, steps=80_000, record=[], ramp_steps=6000)
        snap = sn.ramp_to_snapshot(region, th, cfg, "B", subsystem="rl")
        v, i = self.boundary_reading(region, th, snap)
        z_load = 0.5 + 1.0j
        expect_v = th.e_eq.rect * z_load / (th.z_eq + z_load)
        expect_i = th.e_eq.rect / (th.z_eq + z_load)
        assert abs(v - expect_v) / abs(expect_v) < 2e-3
        assert abs(i - expect_i) / abs(expect_i) < 2e-3
        assert snap.provenance == sn.PROVENANCE_RAMP

    def test_open_circuit_region_sees_source(self):
        region = ek.EmtNet("region:open", 50.0, ("B",), (), ())
        th = sn.TheveninEquivalent(Phasor(0.97, 0.2), 0.05 + 0.2j)
        cfg = ek.SimConfig(dt=5e-5, steps=60_000, record=[], ramp_steps=6000)
        snap = sn.ramp_to_snapshot(region, th, cfg, "B", subsystem="open")
        v, i = self.boundary_reading(region, th, snap)
        assert abs(v - th.e_eq.rect) < 1e-3
        assert abs(i) < 1e-6

    def test_budget_shorter_than_ramp_times_out(self):
        region = self.setup_rl_region()
        th = sn.TheveninEquivalent(Phasor(1.0, 0.0), 0.02 + 0.1j)
        cfg = ek.SimConfig(dt=5e-5, steps=4000, record=[], ramp_steps=10_000)
        with pytest.raises(SteadyStateTimeout):
            sn.ramp_to_snapshot(region, th, cfg, "B", "rl")

    def test_ramped_snapshot_carries_no_boundary_phasors(self):
        # A boundary is read once, at its region's splice step (`run_emtgis`).
        region = self.setup_rl_region()
        th = sn.TheveninEquivalent(Phasor(1.0, 0.0), 0.02 + 0.1j)
        cfg = ek.SimConfig(dt=5e-5, steps=80_000, record=[], ramp_steps=6000)
        snap = sn.ramp_to_snapshot(region, th, cfg, "B", subsystem="rl")
        assert snap.boundary_phasors == {}


class TestSpliceSchedule:
    def test_next_even_period_boundary(self):
        sched = splice_schedule({"i": 1.0, "j": 1.013}, period=0.02, dt=1e-3)
        assert sched.t_ref_steps == 1000
        assert sched.t_adj_steps["j"] * 1e-3 == pytest.approx(1.04)

    def test_equal_ready_times_need_no_delay(self):
        sched = splice_schedule({"i": 1.0, "j": 1.0}, period=0.02, dt=1e-3)
        assert sched.t_adj_steps["j"] == sched.t_ref_steps

    def test_just_below_two_periods(self):
        sched = splice_schedule({"i": 1.0, "j": 1.0799}, period=0.02, dt=1e-4)
        assert sched.t_adj_steps["j"] * 1e-4 == pytest.approx(1.08)

    def test_off_grid_ready_time_rejected(self):
        with pytest.raises(ValueError):
            splice_schedule({"i": 1.00003}, period=0.02, dt=1e-3)

    def test_modulus_and_ordering_properties(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            period_steps = int(rng.integers(2, 500))
            ready = {f"s{i}": int(rng.integers(0, 10**6))
                     for i in range(int(rng.integers(1, 6)))}
            sched = sn.schedule_from_steps(ready, period_steps)
            modulus = 2 * period_steps
            for name, adj in sched.t_adj_steps.items():
                assert adj >= ready[name]
                assert (adj - sched.t_ref_steps) % modulus == 0
                assert adj - ready[name] < modulus


@pytest.fixture(scope="module")
def split_setup(ninebus1, ninebus1_pipeline):
    """Steady full-system states at several capture times, pre-split into
    main and region parts."""
    res = ninebus1_pipeline
    case = ninebus1
    dt = 5e-5
    n_cycle = int(round(case.period / dt))
    main_net = sn.build_main_net(case, res.model.boundary_state.main_solution)
    region_net = sn.build_region_net(res.model.region_ops[0])
    full = res.model.full_net

    # sample the settled whole system across one period, catching the
    # boundary-voltage peak for a worst-case opposite-phase splice
    waves, _ = ek.run(full, ek.SimConfig(dt=dt, steps=n_cycle, record=["B10"]),
                      init=res.snapshot.emt_state)
    peak_off = int(np.argmax(waves.data["B10.a"][1:])) + 1
    _, at_peak = ek.run(full, ek.SimConfig(dt=dt, steps=peak_off),
                        init=res.snapshot.emt_state)
    _, at_half = ek.run(full, ek.SimConfig(dt=dt, steps=n_cycle // 2),
                        init=at_peak)
    _, at_two = ek.run(full, ek.SimConfig(dt=dt, steps=2 * n_cycle),
                       init=at_peak)

    def split(state):
        main = subset_state(state, main_net.nodes,
                            [e.eid for e in main_net.elements],
                            [m.mid for m in main_net.machines])
        region = subset_state(state, region_net.nodes,
                              [e.eid for e in region_net.elements])
        mk = lambda name, st, prov: sn.Snapshot(name, 50.0, st, {}, prov,
                                                parts={name: prov})
        return (mk("main", main, sn.PROVENANCE_PHASOR),
                mk("wind1", region, sn.PROVENANCE_RAMP))

    return {
        "case": case, "dt": dt, "full": full, "n_cycle": n_cycle,
        "res": res, "split": split,
        "at_peak": at_peak, "at_half": at_half, "at_two": at_two,
    }


class TestSplice:
    def test_same_instant_splice_is_seamless(self, split_setup):
        s = split_setup
        main, region = s["split"](s["at_peak"])
        sched = sn.schedule_from_steps(
            {"main": main.timestamp_steps, "wind1": region.timestamp_steps},
            s["n_cycle"])
        merged, dev = sn.splice({"main": main, "wind1": region}, sched,
                                s["full"], s["dt"])
        assert max(dev.values()) < 1e-6
        waves, _ = ek.run(s["full"], ek.SimConfig(dt=s["dt"], steps=5 * s["n_cycle"],
                                                  record=["B10", "B5"]),
                          init=merged.emt_state)
        for key in ("B10.a", "B5.a"):
            rms = cycle_rms(waves, key, s["n_cycle"], last_only=False)
            assert np.max(np.abs(rms - rms[-1])) / rms[-1] < 1e-3

    def test_opposite_phase_splice_and_adjustment(self, split_setup):
        s = split_setup
        main, _ = s["split"](s["at_peak"])
        _, region_half = s["split"](s["at_half"])
        _, region_two = s["split"](s["at_two"])

        # deliberately unadjusted: region captured half a period later
        bad_sched = sn.SpliceSchedule(
            main.timestamp_steps,
            {"main": main.timestamp_steps, "wind1": region_half.timestamp_steps})
        _, bad_dev = sn.splice({"main": main, "wind1": region_half}, bad_sched,
                               s["full"], s["dt"])
        # adjusted: next 2kT-aligned instant
        sched = sn.schedule_from_steps(
            {"main": main.timestamp_steps, "wind1": region_half.timestamp_steps},
            s["n_cycle"])
        assert sched.t_adj_steps["wind1"] == region_two.timestamp_steps
        _, good_dev = sn.splice({"main": main, "wind1": region_two}, sched,
                                s["full"], s["dt"])

        main_pf = s["res"].model.boundary_state.main_solution
        v_peak = ek.SQRT2 * main_pf.voltage("B10").magnitude
        assert max(bad_dev.values()) > 1.5 * v_peak  # near twice the peak
        assert max(good_dev.values()) <= max(bad_dev.values()) / 100.0

    def test_schedule_violation_detected(self, split_setup):
        s = split_setup
        main, region = s["split"](s["at_peak"])
        sched = sn.schedule_from_steps(
            {"main": main.timestamp_steps, "wind1": region.timestamp_steps + 7},
            s["n_cycle"])
        with pytest.raises(ScheduleViolation):
            sn.splice({"main": main, "wind1": region}, sched, s["full"], s["dt"])

    def test_missing_coverage_detected(self, split_setup):
        s = split_setup
        main, region = s["split"](s["at_peak"])
        sched = sn.schedule_from_steps({"main": main.timestamp_steps},
                                       s["n_cycle"])
        with pytest.raises(TopologyMismatch):
            sn.splice({"main": main}, sched, s["full"], s["dt"])

    def test_single_subsystem_splice_is_identity(self, split_setup):
        # a lone snapshot that covers the entire network passes through
        # row for row, with no shared node to deviate at
        whole = split_setup["res"].snapshot
        sched = sn.schedule_from_steps({"whole": whole.timestamp_steps},
                                       split_setup["n_cycle"])
        merged, dev = sn.splice({"whole": whole}, sched, split_setup["full"],
                                split_setup["dt"])
        for f in dataclasses.fields(ek.EmtState):
            assert bits(getattr(merged.emt_state, f.name)) == \
                bits(getattr(whole.emt_state, f.name)), f.name
        assert (merged.subsystem, merged.provenance, merged.parts, merged.boundary_phasors) \
            == (whole.subsystem, whole.provenance, whole.parts, whole.boundary_phasors)
        assert dev == {}


def assert_splices_agree(snapshots, schedule, full_net, dt):
    """`splice` and the owner-dict reference give the same snapshot and
    deviations bit for bit, or raise the same TopologyMismatch."""
    try:
        want, want_dev = reference_splice(snapshots, schedule, full_net, dt)
    except TopologyMismatch as exc:
        with pytest.raises(TopologyMismatch) as got:
            sn.splice(snapshots, schedule, full_net, dt)
        assert str(got.value) == str(exc)
        return
    got, got_dev = sn.splice(snapshots, schedule, full_net, dt)
    for f in dataclasses.fields(ek.EmtState):
        assert bits(getattr(got.emt_state, f.name)) == bits(getattr(want.emt_state, f.name)), f.name
    assert [(k, bits(v)) for k, v in got_dev.items()] == \
        [(k, bits(v)) for k, v in want_dev.items()]
    assert list(got.parts.items()) == list(want.parts.items())
    assert (got.subsystem, got.provenance, got.frequency_hz) == \
        (want.subsystem, want.provenance, want.frequency_hz)
    assert list(got.boundary_phasors) == list(want.boundary_phasors)


def pipeline_schedule(result, case, dt=5e-5):
    """The splice schedule `run_emtgis` built for `result`."""
    return sn.schedule_from_steps(result.report["ready_steps"],
                                  int(round(case.period / dt)))


class TestSpliceMatchesReference:
    @pytest.mark.parametrize("name", ["ninebus1", "ninebus2", "ninebus3", "hybrid"])
    def test_pipeline_subsystems(self, name, request):
        result = pipeline_result(request, name)
        case = request.getfixturevalue(name)
        assert_splices_agree(result.subsystem_snapshots, pipeline_schedule(result, case),
                             result.model.full_net, 5e-5)

    def test_split_main_and_region(self, split_setup):
        # the region captured in phase, half a period later and two later
        s = split_setup
        main, _ = s["split"](s["at_peak"])
        for at in ("at_peak", "at_half", "at_two"):
            _, region = s["split"](s[at])
            sched = sn.SpliceSchedule(main.timestamp_steps,
                                      {"main": main.timestamp_steps,
                                       "wind1": region.timestamp_steps})
            assert_splices_agree({"main": main, "wind1": region}, sched, s["full"], s["dt"])

    @pytest.mark.parametrize("kind", ["element", "node", "machine"])
    def test_id_missing_from_every_snapshot(self, kind, hybrid, request):
        res = pipeline_result(request, "hybrid")
        full = res.model.full_net
        gone = {"element": full.elements[len(full.elements) // 2].eid,
                "node": full.nodes[len(full.nodes) // 2],
                "machine": full.machines[0].mid}[kind]
        keep = lambda ids: [x for x in ids if x != gone]
        snapshots = {
            name: replace(snap, emt_state=subset_state(
                snap.emt_state, keep(snap.emt_state.node_ids),
                keep(snap.emt_state.element_ids), keep(snap.emt_state.machine_ids)))
            for name, snap in res.subsystem_snapshots.items()}
        with pytest.raises(TopologyMismatch, match=f"{kind} '{gone}' missing"):
            sn.splice(snapshots, pipeline_schedule(res, hybrid), full, 5e-5)
        assert_splices_agree(snapshots, pipeline_schedule(res, hybrid), full, 5e-5)


class TestPipeline:
    def test_zero_region_case_reduces_to_phasor_init(self, twobus):
        result = pipeline(twobus, sn.PipelineConfig(dt=5e-5))
        assert result.snapshot.provenance == sn.PROVENANCE_PHASOR
        assert result.report["gis_cost_steps"] == 0
        waves, _ = ek.run(result.model.full_net,
                          ek.SimConfig(dt=5e-5, steps=2000, record=["B2"]),
                          init=result.snapshot.emt_state)
        rms = cycle_rms(waves, "B2.a", 400, last_only=False)
        target = result.model.boundary_state.main_solution.voltage("B2").magnitude
        assert np.max(np.abs(rms - target)) / target < 1e-3

    def test_zero_region_case_coordinates_to_the_main_solve(self, twobus):
        # A case without regions coordinates too: with no boundary unknowns
        # the first residual converges, and it is the main solve bit for bit.
        model = sn.system_model(twobus, sn.PipelineConfig(dt=5e-5))
        direct = solve_main(PowerFlowProblem(twobus), tol=MAIN_PF_TOL,
                            max_iter=MAIN_PF_MAX_ITER)
        main_pf = model.boundary_state.main_solution
        for name in ("vm", "va", "p_calc", "q_calc"):
            assert np.array_equal(getattr(main_pf, name), getattr(direct, name)), name
        assert main_pf.mismatch_history == direct.mismatch_history
        assert model.ipf_trace.status == "converged"
        assert model.ipf_trace.outer_iterations == 1
        assert model.boundary_state.bus_ids == () and model.boundary_state.to_dict() == {}

    def test_reports_have_the_same_keys_with_or_without_regions(self, twobus,
                                                                ninebus1_pipeline):
        report = pipeline(twobus, sn.PipelineConfig(dt=5e-5)).report
        assert set(report) == set(ninebus1_pipeline.report)
        assert report["ipf"]["status"] == "converged" and report["boundary"] == {}

    def test_report_carries_all_stages(self, ninebus1_pipeline):
        rep = ninebus1_pipeline.report
        assert rep["ipf"] is not None and rep["ipf"]["status"] == "converged"
        assert set(rep["ready_steps"]) == {"main", "wind1"}
        assert rep["adjusted_steps"]["wind1"] >= rep["ready_steps"]["wind1"]
        assert rep["splice_deviations"]["B10"] < 1e-4
        assert ninebus1_pipeline.snapshot.provenance == sn.PROVENANCE_SPLICED
        assert ninebus1_pipeline.snapshot.parts == {
            "main": sn.PROVENANCE_PHASOR, "wind1": sn.PROVENANCE_RAMP}

    def test_stage_failure_is_tagged(self, ninebus1):
        cfg = sn.PipelineConfig(dt=5e-5, ramp_budget=0.2)  # can't finish ramp
        with pytest.raises(StageFailure) as exc:
            pipeline(ninebus1, cfg)
        assert exc.value.stage == "ramp_to_snapshot"

    def test_invalid_input_fails_before_any_stage(self, ninebus1):
        # an invalid case, or a dt that does not divide the period, is an
        # input error (ValueError), not a stage failure
        case = copy.deepcopy(ninebus1)
        case.buses.append(case.buses[0])
        with pytest.raises(ValueError, match=r"^invalid case: DuplicateId\(B1\)"):
            pipeline(case, sn.PipelineConfig(dt=5e-5))
        with pytest.raises(ValueError, match="not an integer multiple of dt 3e-05 s"):
            pipeline(ninebus1, sn.PipelineConfig(dt=3e-5))

    @pytest.mark.parametrize("name, b10_load", [
        ("ninebus1", None), ("ninebus2", None), ("ninebus3", None), ("hybrid", None),
        ("ninebus1", (0.2, 0.05))],
        ids=["ninebus1", "ninebus2", "ninebus3", "hybrid", "ninebus1-loaded-B10"])
    def test_boundary_draws_are_the_boundary_injections(self, name, b10_load, request):
        # The draws `run_emtgis` takes come from the coordinator, which
        # nets each boundary bus's load in `residual`; they equal
        # `boundary_injections` of the converged main solution bit for bit
        # (-0.0 apart from 0.0 too).  No bundled boundary bus draws a load
        # of its own, so B10 of ninebus1 gets one.
        case = request.getfixturevalue(name)
        if b10_load is not None:
            case = replace(case, buses=[
                b._replace(p_load=b10_load[0], q_load=b10_load[1]) if b.id == "B10" else b
                for b in case.buses])
        state = pipeline(case, sn.PipelineConfig(dt=5e-5)).model.boundary_state
        want = boundary_injections(state.main_solution, case)
        assert sorted(want) == sorted(state.bus_ids)
        for i, bus in enumerate(state.bus_ids):
            got = (float(state.p[i]).hex(), float(state.q[i]).hex())
            assert got == tuple(v.hex() for v in want[bus]), bus

    @pytest.mark.parametrize("name", ["ninebus1", "hybrid"])
    def test_pipeline_builds_each_region_twice(self, name, request, monkeypatch):
        # one region net for the model, which the ramp steps, and one for
        # the advance; one Thevenin extraction for the ramp and one for the
        # advance: the count the benchmark's per-region calls read
        calls = {"thevenin_extract": [], "build_region_net": []}
        real = {fn: getattr(sn, fn) for fn in calls}

        def thevenin(zbus, drawn, bus):
            calls["thevenin_extract"].append(bus)
            return real["thevenin_extract"](zbus, drawn, bus)

        def region_net(op):
            calls["build_region_net"].append(op.decl.boundary_bus)
            return real["build_region_net"](op)

        monkeypatch.setattr(sn, "thevenin_extract", thevenin)
        monkeypatch.setattr(sn, "build_region_net", region_net)
        case = request.getfixturevalue(name)
        pipeline(case, sn.PipelineConfig(dt=5e-5))
        buses = sorted(g.boundary_bus for g in case.grbcs)
        assert len(buses) == len(set(buses)) > 0
        for fn, got in calls.items():
            assert sorted(got) == sorted(buses * 2), fn

    def test_pipeline_builds_the_main_net_once(self, hybrid, monkeypatch):
        # the model's one main net serves the full net's join and the one
        # phasor solve of the main snapshot and every Thevenin extraction
        calls = []
        real_build = sn.build_main_net

        def counted(case, pf):
            calls.append(case.name)
            return real_build(case, pf)

        monkeypatch.setattr(sn, "build_main_net", counted)
        pipeline(hybrid, sn.PipelineConfig(dt=5e-5))
        assert calls == [hybrid.name]

    @pytest.mark.parametrize("name", ["ninebus1", "ninebus2", "ninebus3", "hybrid"])
    def test_run_factors_the_main_net_once(self, name, bundled_models, monkeypatch):
        # The equivalents and main's snapshot come from one `phasor_solve`
        # of the main net, one factorization of its companion matrix: one
        # complex `np.linalg.solve` of its unknown nodes' size, and none of
        # another size, while `run_emtgis` runs.
        case, model = bundled_models[name]
        solves, phasor_solves = [], []
        real_solve, real_phasor_solve = np.linalg.solve, ek.phasor_solve

        def solve(a, b):
            if np.iscomplexobj(a):
                solves.append(a.shape)
            return real_solve(a, b)

        def phasor_solve(net, *args):
            phasor_solves.append(net.name)
            return real_phasor_solve(net, *args)

        monkeypatch.setattr(np.linalg, "solve", solve)
        monkeypatch.setattr(ek, "phasor_solve", phasor_solve)
        sn.run_emtgis(case, model, sn.PipelineConfig(dt=5e-5))
        main = model.main_net
        n = len(main.nodes) - len(set(ek.pinned_nodes(main)))
        assert solves == [(n, n)]
        assert phasor_solves == [main.name]


class TestOneNetPerSubsystem:
    """`system_model` converts the main case and each region once, into the
    main net and the region nets; the full net is their join, the same
    net, field by field, as one builder's conversion of every part
    (`reference_full_net`)."""

    @pytest.mark.parametrize("name", ["twobus", "ninebus1", "ninebus2", "ninebus3", "hybrid",
                                      "scaled8"])
    def test_joined_full_net_equals_one_builders(self, name, request):
        case = scaled_case(8, 1) if name == "scaled8" else request.getfixturevalue(name)
        model = sn.system_model(case)
        want = reference_full_net(case, model)
        assert model.full_net.name == f"{case.name}:full"
        for f in ek.EmtNet._fields:
            # repr tells every float bit by bit, -0.0 from 0.0 too
            assert repr(getattr(model.full_net, f)) == repr(getattr(want, f)), f

    @pytest.mark.parametrize("command", ["init", "compare"])
    @pytest.mark.parametrize("name", ["ninebus1", "ninebus3", "hybrid"])
    def test_a_run_converts_the_main_case_once_and_each_region_twice(
            self, name, command, request, monkeypatch, tmp_path):
        # Every conversion takes a builder.  The main case's parts go into
        # one, for the model; each region's into one for the model and one
        # for the advance, and each equivalent's parts into one for the ramp
        # and one for the advance.
        from emtgis.cli import main

        built, converted = Counter(), Counter()
        real_parts = sn._add_case_parts

        class Counted(sn._NetBuilder):
            def __init__(self, name, frequency_hz):
                built[name] += 1
                super().__init__(name, frequency_hz)

        def case_parts(builder, case, pf, namespace=""):
            converted[case.name] += 1
            return real_parts(builder, case, pf, namespace)

        monkeypatch.setattr(sn, "_NetBuilder", Counted)
        monkeypatch.setattr(sn, "_add_case_parts", case_parts)
        assert main([command, case_path(name), "--out", str(tmp_path)]) == 0
        case = request.getfixturevalue(name)
        regions = [g.name for g in case.grbcs]
        white_box = [g.name for g in case.grbcs if g.kind is GrbcKind.WHITE_BOX_NETWORK]
        assert regions and white_box
        assert built == Counter({f"{case.name}:main": 1, "thev": 2 * len(regions),
                                 **{f"region:{r}": 2 for r in regions}})
        assert converted == Counter({case.name: 1, **{f"{r}-internal": 2 for r in white_box}})


class TestOneOperatingPoint:
    """`system_model` reads every region's operating point from the state
    `jfng_solve` converged to: a white-box region's internal power flow is
    the one the coordinator's last residual solved, not a second solve."""

    @pytest.mark.parametrize("name", ["ninebus3", "hybrid"])
    def test_no_region_is_solved_after_coordination(self, name, request, monkeypatch):
        case = request.getfixturevalue(name)
        states, late = [], []
        real_jfng, real_solve = sn.jfng_solve, grbc_module.powerflow.solve_main

        def jfng(*args, **kwargs):
            out = real_jfng(*args, **kwargs)
            states.append(out[0])
            return out

        def solve(problem, *args, **kwargs):
            if states and problem.case.name != case.name:
                late.append(problem.case.name)
            return real_solve(problem, *args, **kwargs)

        monkeypatch.setattr(sn, "jfng_solve", jfng)
        monkeypatch.setattr(grbc_module.powerflow, "solve_main", solve)
        model = sn.system_model(case, sn.PipelineConfig(dt=5e-5))
        assert late == []
        (state,) = states
        assert model.boundary_state is state
        white = 0
        for op, evaluation in zip(model.region_ops, state.evaluations, strict=True):
            assert op.evaluation is evaluation
            if op.decl.kind is GrbcKind.WHITE_BOX_NETWORK:
                white += 1
                assert evaluation.internal_pf is not None
                assert evaluation.internal_pf.bus_ids == op.decl.pf_problem.bus_ids
            else:
                assert evaluation.internal_pf is None
        assert white


class TestRegionNamespace:
    """`grbc.internal_pf_case` owns the '<region>/<id>' names that the
    monolithic oracle and the region's EMT model both use."""

    @pytest.mark.parametrize("name", ["ninebus1", "ninebus2", "ninebus3", "hybrid"])
    def test_internal_buses_match_the_oracle_and_the_full_net(self, name, request):
        case = request.getfixturevalue(name)
        full_net = sn.system_model(case).full_net
        white = [g for g in case.grbcs if g.kind is GrbcKind.WHITE_BOX_NETWORK]
        assert white
        flat = inline_grbcs(replace(case, grbcs=white))
        for g in white:
            internal = [b.id for b in internal_pf_case(g).buses
                        if b.kind is not BusKind.BOUNDARY]
            assert internal == [b.id for b in flat.buses
                                if b.id.startswith(f"{g.name}/")]
            assert set(internal) <= set(full_net.nodes)

    def test_pipeline_builds_each_internal_case_once(self, monkeypatch):
        # over the whole run, coordination included; a freshly loaded case,
        # since a declaration keeps the problem it built
        calls = []

        def counted(decl):
            calls.append(decl.name)
            return internal_pf_case(decl)

        monkeypatch.setattr(grbc_module, "internal_pf_case", counted)
        pipeline(load_case(case_path("ninebus1")), sn.PipelineConfig(dt=5e-5))
        assert calls == ["wind1"]


class TestPinnedStepCounts:
    """The step counts the benchmark gates (`gis_cost_steps`,
    `steady_ratio`).  With every subsystem ramped over an explicit 0.5 s
    they are pinned at the values of the per-step EmtState kernel that the
    buffer loop replaced: a kernel change must not move them.  By default
    each subsystem ramps for `sn.ramp_length` of its own net, rotors held
    (`sn.hold_rotors`): two cycles for every region, plant2 of ninebus2
    and ninebus3 included, whose machine swings only in the full net."""

    READY_AT_HALF_S = {
        "ninebus1": {"main": 0, "wind1": 14000},
        "ninebus2": {"main": 0, "plant2": 14000, "wind1": 14000},
        "ninebus3": {"farm3": 13600, "main": 0, "plant2": 14000, "wind1": 14000},
        "hybrid": {"dclink": 14000, "main": 0, "plant2": 14000, "wind1": 13600},
    }
    ADJUSTED_AT_HALF_S = {
        "ninebus1": {"main": 0, "wind1": 14400},
        "ninebus2": {"main": 0, "plant2": 14400, "wind1": 14400},
        "ninebus3": {"farm3": 13600, "main": 0, "plant2": 14400, "wind1": 14400},
        "hybrid": {"dclink": 14400, "main": 0, "plant2": 14400, "wind1": 13600},
    }
    READY = {
        "ninebus1": {"main": 0, "wind1": 4800},
        "ninebus2": {"main": 0, "plant2": 6000, "wind1": 4800},
        "ninebus3": {"farm3": 4800, "main": 0, "plant2": 6000, "wind1": 4800},
        "hybrid": {"dclink": 5600, "main": 0, "plant2": 5600, "wind1": 4800},
    }
    ADJUSTED = {
        "ninebus1": {"main": 0, "wind1": 4800},
        "ninebus2": {"main": 0, "plant2": 6400, "wind1": 4800},
        "ninebus3": {"farm3": 4800, "main": 0, "plant2": 6400, "wind1": 4800},
        "hybrid": {"dclink": 5600, "main": 0, "plant2": 5600, "wind1": 4800},
    }
    T_RAMP = {
        "ninebus1": {"wind1": 0.04},
        "ninebus2": {"plant2": 0.04, "wind1": 0.04},
        "ninebus3": {"farm3": 0.04, "plant2": 0.04, "wind1": 0.04},
        "hybrid": {"dclink": 0.04, "plant2": 0.04, "wind1": 0.04},
    }

    @pytest.mark.parametrize("name", ["ninebus1", "ninebus2", "ninebus3", "hybrid"])
    def test_init_ready_and_adjusted_steps_at_half_a_second(self, name, request):
        result = pipeline(request.getfixturevalue(name),
                          sn.PipelineConfig(dt=5e-5, t_ramp=0.5))
        assert result.report["ready_steps"] == self.READY_AT_HALF_S[name]
        assert result.report["adjusted_steps"] == self.ADJUSTED_AT_HALF_S[name]
        assert result.report["gis_cost_steps"] == 14400
        assert result.report["t_ramp"] == dict.fromkeys(self.T_RAMP[name], 0.5)

    @pytest.mark.parametrize("name", ["ninebus1", "ninebus2", "ninebus3", "hybrid"])
    def test_init_ready_and_adjusted_steps(self, name, request):
        result = pipeline_result(request, name)
        assert result.report["ready_steps"] == self.READY[name]
        assert result.report["adjusted_steps"] == self.ADJUSTED[name]
        assert result.report["gis_cost_steps"] == max(self.ADJUSTED[name].values())
        assert result.report["t_ramp"] == self.T_RAMP[name]

    def test_compare_steps_to_steady(self, hybrid_comparison):
        # `emtgis compare hybrid.json --fault B7@5.5` settles the same
        # zero-state run; its fault comes after the settle.  The full net
        # swings, so its ramp is 0.5 s, with --t-ramp 0.5 or without.
        gis = hybrid_comparison["result"].report["gis_cost_steps"]
        zero = hybrid_comparison["zero_fired"]
        assert (gis, zero) == (5600, 100000)
        assert zero / gis == 17.857142857142858


class TestRampLength:
    """`sn.ramp_length`: two cycles for a net where no machine swings, 0.5 s
    where one does, an explicit length for every net."""

    def test_the_rule(self, bundled_models):
        _, ninebus1 = bundled_models["ninebus1"]
        _, hybrid = bundled_models["hybrid"]
        fixed_rotor = hybrid.full_net._replace(machines=tuple(
            m._replace(inertia_h=0.0) for m in hybrid.full_net.machines))
        assert not any(m.inertia_h > 0 for m in ninebus1.full_net.machines)
        assert sn.ramp_length(ninebus1.full_net) == 0.04
        assert sn.ramp_length(fixed_rotor) == 0.04
        assert sn.ramp_length(hybrid.full_net) == 0.5
        for net in (ninebus1.full_net, fixed_rotor, hybrid.full_net):
            assert sn.ramp_length(net, 0.3) == 0.3

    def test_settle_from_zero_ramps_by_the_rule(self, bundled_models, monkeypatch):
        seen = []

        def steady(net, cfg, init=None):
            seen.append(cfg.ramp_steps)
            return init, 1

        monkeypatch.setattr(ek, "run_until_steady", steady)
        # 0.04 s, 0.5 s and 0.2 s at 5e-5 s a step, as `compare` takes them
        # from the rule, with its probes; a config's own ramp is not read.
        for name, given, ramp in (("ninebus1", None, 800), ("hybrid", None, 10_000),
                                  ("hybrid", 0.2, 4000)):
            case, model = bundled_models[name]
            net = model.full_net
            cfg = ek.SimConfig(dt=5e-5, steps=20_000, record=[b.id for b in case.buses],
                               ramp_steps=1)
            sn.settle_from_zero(net, cfg, sn.ramp_length(net, given))
            assert seen.pop() == ramp


def exact_steady_state(net, dt=5e-5):
    """The net's exact discrete periodic steady state at step 0: one
    `phasor_solve` with the kernel's companion admittances, which exists
    because every model here is linear."""
    node_ph, elem_ph = (rows[0] for rows in ek.phasor_solve(net, dt))
    return sn._state_from_phasors(net, node_ph, elem_ph, dt)


def distance(state, exact):
    """How far a state is from the exact one: v_nodes and elem_i relative
    to the exact peaks, rotor angles in rad."""
    return (np.abs(state.v_nodes - exact.v_nodes).max() / np.abs(exact.v_nodes).max(),
            np.abs(state.elem_i - exact.elem_i).max() / np.abs(exact.elem_i).max(),
            np.abs(state.machine_delta - exact.machine_delta).max(initial=0.0))


class TestExactSteadyState:
    """The exact steady state as the oracle of the spliced one.  A nonlinear
    or black-box region would have no such solve, so the pipeline keeps
    ramping; the oracle checks the ramp, it does not replace it."""

    # Twice the distances (v, i, rotor angle) of the spliced states from the
    # exact ones, floored at 1e-12, as they read since main's snapshot holds
    # the regions' splice-step currents and the coordinator starts
    # one-sided: ninebus1 2.3e-14 and 1.4e-14, ninebus2 5.85e-8 and
    # 2.51e-7, ninebus3 5.99e-8 and 2.25e-7, hybrid 4.60e-7 and 4.24e-7,
    # scaled k=8 6.37e-8 and 2.86e-7.  A return to the splice before that
    # (ninebus1 at 1.33e-6 and 1.94e-6) fails them.  A held rotor, and one
    # in a net no ramp steps, matches to the bit.
    BOUNDS = {
        "ninebus1": (1e-12, 1e-12, 0.0),
        "ninebus2": (1.171e-7, 5.023e-7, 0.0),
        "ninebus3": (1.198e-7, 4.501e-7, 0.0),
        "hybrid": (9.206e-7, 8.473e-7, 0.0),
        "scaled8": (1.274e-7, 5.724e-7, 0.0),
    }

    @pytest.mark.parametrize("name", ["twobus", "ninebus1", "ninebus2", "ninebus3", "hybrid"])
    def test_exact_state_is_steady_under_the_kernel(self, name, request):
        case = request.getfixturevalue(name)
        net = sn.system_model(case).full_net
        exact = exact_steady_state(net)
        n_cycle = int(round(net.period / 5e-5))
        _, end = ek.run(net, ek.SimConfig(dt=5e-5, steps=3 * n_cycle), init=exact)
        assert end.step == 3 * n_cycle
        assert max(distance(end, exact)) <= 1e-12

    @pytest.mark.parametrize("name", list(BOUNDS))
    def test_spliced_state_is_near_the_exact_one(self, name, request):
        result = pipeline_result(request, name)
        exact = exact_steady_state(result.model.full_net)
        spliced = result.snapshot.emt_state
        assert spliced.step == 0
        assert all(d <= bound for d, bound in zip(distance(spliced, exact), self.BOUNDS[name]))

    @pytest.mark.parametrize("name", list(BOUNDS))
    def test_stepped_spliced_state_does_not_ring(self, name, request):
        """The spliced state and the exact one stepped 800 steps: their
        node voltages' difference, relative to the exact peak, holds a
        (-1)^n part below 1e-7 and stays below 2e-6 in all.  The (-1)^n
        part is the difference's projection on (-1)^n over the run, which
        the fundamental barely enters.  The trapezoidal rule does not damp
        that mode (Marti and Lin, IEEE Trans. Power Systems 4(2), 1989).
        It read 1.7e-5 to 2.9e-5 while main's snapshot injected the
        power-flow draws and the equivalents came from continuous
        admittances."""
        result = pipeline_result(request, name)
        net = result.model.full_net
        cfg = ek.SimConfig(dt=5e-5, steps=800, record=list(net.nodes))
        got, want = (np.array(list(ek.run(net, cfg, init=start)[0].data.values()))
                     for start in (result.snapshot.emt_state, exact_steady_state(net)))
        diff = (got - want) / np.abs(want).max()
        alternating = np.abs(diff @ (-1.0) ** np.arange(diff.shape[1])) / diff.shape[1]
        assert alternating.max() < 1e-7
        assert np.abs(diff).max() < 2e-6


class TestOneBoundaryReading:
    """Each boundary is read once, at its region's splice step: the spliced
    snapshot's boundary phasors are the current `phasor_init` was given,
    the space vector of the equivalent's element next to the bus in the
    region's advanced state, and main's node phasor under it, which
    reproduces the spliced boundary node's three phases."""

    @pytest.mark.parametrize("name", ["ninebus1", "ninebus2", "ninebus3", "hybrid", "scaled8"])
    def test_spliced_phasors_are_the_splice_step_reading(self, name, request, monkeypatch):
        given = []
        real = sn.phasor_init

        def recorded(net, dt, solved, currents):
            given.append(dict(currents))
            return real(net, dt, solved, currents)

        monkeypatch.setattr(sn, "phasor_init", recorded)
        case = scaled_case(8, 1) if name == "scaled8" else request.getfixturevalue(name)
        result = pipeline(case, sn.PipelineConfig(dt=5e-5))
        [currents] = given
        model, spliced = result.model, result.snapshot.boundary_phasors
        assert list(spliced) == list(currents) == list(model.boundary_state.bus_ids)
        main_phasors = result.subsystem_snapshots[sn.MAIN_SUBSYSTEM].boundary_phasors
        drawn = drawn_currents(model.boundary_state.main_solution, case)
        table = zbus(model.main_net, list(drawn))
        for op in model.region_ops:
            bus, st = op.decl.boundary_bus, result.subsystem_snapshots[op.decl.name].emt_state
            assert st.step == result.report["adjusted_steps"][op.decl.name]
            thev = sn.thevenin_extract(table, drawn, bus)
            _, probe = sn.attach_thevenin(sn.build_region_net(op), bus, thev, 5e-5)
            read = space_vector(st.elem_i[st.element_ids.index(probe)], st.step, st.dt,
                                model.main_net.omega)
            assert bits(np.array(read)) == bits(np.array(currents[bus])), bus
            v, i = spliced[bus]
            assert bits((i,)) == bits((Phasor.from_complex(currents[bus]),)), bus
            assert bits((v, i)) == bits(main_phasors[bus]), bus
        assert phasor_consistency_error(result.snapshot) <= 1e-12


class TestHeldRotors:
    """Every region net `run_emtgis` steps holds its rotors at their
    power-flow angles (`sn.hold_rotors`), from the ramp to the splice, so
    `init` relaxes no chunk; the full net and the zero-state baseline keep
    their rotors free."""

    @pytest.fixture
    def compiled_nets(self, monkeypatch):
        """Every `CompiledNet` the kernel builds while the test runs."""
        built = []

        class Recorded(ek.CompiledNet):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(ek, "CompiledNet", Recorded)
        return built

    @pytest.mark.parametrize("name", ["ninebus2", "ninebus3"])
    def test_region_rotors_are_spliced_at_their_power_flow_angles(self, name, request,
                                                                  compiled_nets):
        result = pipeline(request.getfixturevalue(name), sn.PipelineConfig(dt=5e-5))
        machines = {m.mid: m for m in result.model.full_net.machines}
        region = [mid for sub, snap in result.subsystem_snapshots.items()
                  if sub != sn.MAIN_SUBSYSTEM for mid in snap.emt_state.machine_ids]
        assert region and any(machines[mid].inertia_h > 0 for mid in region)
        spliced = result.snapshot.emt_state
        for mid in region:
            k = spliced.machine_ids.index(mid)
            assert bits(spliced.machine_delta[k]) == bits(machines[mid].delta0), mid
            assert bits(spliced.machine_speed_dev[k]) == bits(0.0), mid
        assert compiled_nets
        assert [c.chunks_relaxed for c in compiled_nets] == [0] * len(compiled_nets)

    @pytest.mark.parametrize("name", ["ninebus2", "ninebus3"])
    def test_the_zero_state_baseline_keeps_free_rotors(self, name, bundled_models,
                                                       compiled_nets):
        case, model = bundled_models[name]
        full_net = model.full_net
        assert sn.ramp_length(full_net) == 0.5
        cfg = ek.SimConfig(dt=5e-5, steps=ek.to_steps(12.0, 5e-5),
                           record=[b.id for b in case.buses])
        sn.settle_from_zero(full_net, cfg, sn.ramp_length(full_net))
        assert sum(c.chunks_relaxed for c in compiled_nets) > 0


def pipeline_result(request, name):
    """`run_emtgis` of a bundled case, or of "scaled8" (the scaled family
    at k=8, seed 1), at dt = 5e-5, from the shared fixtures where one
    exists."""
    if name == "scaled8":
        return pipeline(scaled_case(8, 1), sn.PipelineConfig(dt=5e-5))
    if name == "ninebus1":
        return request.getfixturevalue("ninebus1_pipeline")
    if name == "hybrid":
        return request.getfixturevalue("hybrid_comparison")["result"]
    return pipeline(request.getfixturevalue(name), sn.PipelineConfig(dt=5e-5))


def bits(value):
    """A field's value in a form that compares bit for bit: arrays and
    floats by their bytes (so -0.0 differs from 0.0), phasors by theirs."""
    if isinstance(value, tuple) and value and isinstance(value[0], Phasor):
        return [bits(np.array([p.magnitude, p.angle])) for p in value]
    if isinstance(value, (np.ndarray, float)):
        value = np.asarray(value)
        return value.dtype, value.shape, value.tobytes()
    return type(value), value


class TestSnapshotFile:
    def test_round_trip_is_exact(self, ninebus1_pipeline, hybrid_comparison, tmp_path):
        """Every Snapshot and EmtState field reads back bit for bit, and a
        second save writes the same bytes: on the spliced ninebus1 and
        hybrid states, and on the hybrid's settled zero-state run, whose
        swinging machine has moved off its initial angle and speed."""
        hybrid = hybrid_comparison["result"].snapshot
        settled = hybrid_comparison["zero_state"]
        assert np.all(settled.machine_speed_dev != 0.0) and settled.machine_ids
        for name, snap in (("ninebus1", ninebus1_pipeline.snapshot), ("hybrid", hybrid),
                           ("settled", replace(hybrid, emt_state=settled))):
            state = snap.emt_state.copy()
            state.v_nodes[0, 0] = -0.0
            snap = replace(snap, emt_state=state)
            path, again = tmp_path / f"{name}.json", tmp_path / f"{name}-again.json"
            sn.save_snapshot(snap, path)
            back = sn.load_snapshot(path)
            for field in dataclasses.fields(sn.Snapshot):
                if field.name not in ("emt_state", "boundary_phasors"):
                    assert bits(getattr(back, field.name)) == bits(getattr(snap, field.name))
            for field in dataclasses.fields(ek.EmtState):
                got, want = getattr(back.emt_state, field.name), getattr(state, field.name)
                assert bits(got) == bits(want), (name, field.name)
            assert list(back.boundary_phasors) == list(snap.boundary_phasors)
            for bus, phasors in snap.boundary_phasors.items():
                assert bits(back.boundary_phasors[bus]) == bits(phasors), (name, bus)
            assert np.signbit(back.emt_state.v_nodes[0, 0])
            sn.save_snapshot(back, again)
            assert again.read_bytes() == path.read_bytes(), name

    def test_loaded_snapshot_resumes_simulation(self, ninebus1_pipeline, tmp_path):
        path = tmp_path / "snap.json"
        sn.save_snapshot(ninebus1_pipeline.snapshot, path)
        back = sn.load_snapshot(path)
        waves, _ = ek.run(ninebus1_pipeline.model.full_net,
                          ek.SimConfig(dt=5e-5, steps=1000, record=["B10"]),
                          init=back.emt_state)
        rms = cycle_rms(waves, "B10.a", 400)
        target = ninebus1_pipeline.model.boundary_state.main_solution.voltage("B10").magnitude
        assert rms == pytest.approx(target, rel=1e-3)


class TestAdvance:
    def test_advancing_backwards_is_refused(self, ninebus1_pipeline):
        from emtgis.errors import ScheduleViolation

        snap = ninebus1_pipeline.subsystem_snapshots["wind1"]
        with pytest.raises(ScheduleViolation):
            sn.advance_snapshot(snap, ninebus1_pipeline.model.full_net,
                                snap.timestamp_steps - 1, snap.emt_state.dt)

    def test_snapshot_version_gate(self, tmp_path, ninebus1_pipeline):
        from emtgis.errors import IncompatibleSnapshot

        path = tmp_path / "snap.json"
        sn.save_snapshot(ninebus1_pipeline.snapshot, path)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(IncompatibleSnapshot):
            sn.load_snapshot(path)

    def test_off_grid_period_rejected(self):
        with pytest.raises(ValueError):
            splice_schedule({"i": 1.0}, period=0.021305, dt=1e-4)
