import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import case_path
from emtgis.errors import (
    NonConvergence,
    NotConverged,
    OracleUnavailable,
    SingularJacobian,
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
    build_admittance,
    load_case,
)
from emtgis.powerflow import boundary_injections, solve_main, solve_monolithic
from reference_powerflow import reference_solve_main

BUNDLED = ("twobus", "ninebus1", "ninebus2", "ninebus3", "hybrid")


def two_bus(load_p=0.5, load_q=0.0, bus2_kind=BusKind.PQ):
    return CaseFile(
        100.0, 50.0,
        [BusRecord("B1", BusKind.SLACK, 230.0, v_set=1.0),
         BusRecord("B2", bus2_kind, 230.0, p_load=load_p, q_load=load_q)],
        [BranchRecord("B1", "B2", 0.0, 0.1)],
    )


def gauss_seidel_two_bus(case, tol=1e-12, max_iter=5000):
    """Independent fixed-point oracle for the loaded two-bus case."""
    y = build_admittance(case)
    s2 = -complex(case.buses[1].p_load, case.buses[1].q_load)
    v1, v2 = 1.0 + 0j, 1.0 + 0j
    for _ in range(max_iter):
        v2_new = (np.conj(s2 / v2) - y.mat[1, 0] * v1) / y.mat[1, 1]
        if abs(v2_new - v2) < tol:
            return v2_new
        v2 = v2_new
    raise AssertionError("oracle did not converge")


class TestSolveMain:
    def test_no_load_network_stays_flat(self):
        sol = solve_main(two_bus(load_p=0.0))
        assert sol.voltage("B2").magnitude == pytest.approx(1.0, abs=1e-12)
        assert sol.voltage("B2").angle == pytest.approx(0.0, abs=1e-12)
        p, q = sol.injection("B2")
        assert abs(p) < 1e-12 and abs(q) < 1e-12

    def test_loaded_two_bus_matches_gauss_seidel_oracle(self):
        case = two_bus()
        sol = solve_main(case, tol=1e-12)
        v2 = gauss_seidel_two_bus(case)
        # closed form for this lossless line: V2 = a + jb with
        # 10 b = -0.5 and a^2 - a + b^2 = 0
        a = (1 + math.sqrt(1 - 4 * 0.05**2)) / 2
        assert v2 == pytest.approx(complex(a, -0.05), abs=1e-11)
        got = sol.voltage("B2").rect
        assert got == pytest.approx(v2, abs=1e-10)

    def test_boundary_bus_keeps_supplied_phasor_exactly(self):
        case = two_bus(bus2_kind=BusKind.BOUNDARY, load_p=0.0)
        ph = Phasor(1.02, 0.05)
        sol = solve_main(case, {"B2": ph})
        assert sol.voltage("B2").magnitude == ph.magnitude
        assert sol.voltage("B2").angle == ph.angle

    def test_missing_boundary_voltage_rejected(self):
        case = two_bus(bus2_kind=BusKind.BOUNDARY)
        with pytest.raises(ValueError):
            solve_main(case, {})

    def test_non_finite_mismatch_raises_nonconvergence(self):
        case = two_bus(load_p=float("nan"))
        with pytest.raises(NonConvergence) as exc:
            solve_main(case)
        assert exc.value.max_iter == 0
        assert exc.value.final_mismatch == float("inf")

    def test_nonconvergence_reports_limits(self):
        # impossible load far beyond the line's transfer capability
        case = two_bus(load_p=50.0)
        with pytest.raises(NonConvergence) as exc:
            solve_main(case)
        assert exc.value.max_iter == 30
        assert exc.value.final_mismatch > 0

    def test_flat_start_determinism_is_bitwise(self, ninebus1):
        a = solve_main(inlineable(ninebus1))
        b = solve_main(inlineable(ninebus1))
        assert a.iterations == b.iterations
        assert np.array_equal(a.vm, b.vm) and np.array_equal(a.va, b.va)

    def test_quadratic_convergence_tail(self, ninebus1, ninebus2, ninebus3):
        for case in (ninebus1, ninebus2, ninebus3):
            sol = solve_monolithic(case)
            hist = sol.mismatch_history
            assert hist[-1] < hist[-2] ** 2 * 10


def inlineable(case):
    from emtgis.netmodel import inline_grbcs

    return inline_grbcs(case)


class TestBoundaryInjections:
    def test_no_load_boundary_sees_zero(self):
        case = two_bus(bus2_kind=BusKind.BOUNDARY, load_p=0.0)
        sol = solve_main(case, {"B2": Phasor(1.0, 0.0)})
        p, q = boundary_injections(sol, case)["B2"]
        assert abs(p) < 1e-12 and abs(q) < 1e-12

    def test_boundary_absorbing_half_pu(self):
        # hold the boundary at the voltage the loaded solution produces;
        # the lossless line then delivers exactly the oracle load
        loaded = solve_main(two_bus(), tol=1e-12)
        case = two_bus(bus2_kind=BusKind.BOUNDARY, load_p=0.0)
        sol = solve_main(case, {"B2": loaded.voltage("B2")}, tol=1e-12)
        p, _ = boundary_injections(sol, case)["B2"]
        assert p == pytest.approx(0.5, abs=1e-9)

    def test_power_balance_identity(self, ninebus1):
        # sum of all computed injections equals network losses, evaluated
        # independently from branch currents and shunts
        sol = solve_monolithic(ninebus1)
        flat = inlineable(ninebus1)
        y = build_admittance(flat)
        v = sol.complex_voltages()
        losses = 0.0
        for br in flat.branches:
            f, t = y.index(br.from_bus), y.index(br.to_bus)
            i_series = (v[f] - v[t]) * br.series_admittance
            losses += br.r * abs(i_series) ** 2
        for b in flat.buses:
            losses += b.shunt_g * abs(v[y.index(b.id)]) ** 2
        assert float(np.sum(sol.p_calc)) == pytest.approx(losses, abs=1e-8)

    def test_requires_converged_solution(self):
        case = two_bus(bus2_kind=BusKind.BOUNDARY, load_p=0.0)
        sol = solve_main(case, {"B2": Phasor(1.0, 0.0)})
        sol.converged = False
        with pytest.raises(NotConverged):
            boundary_injections(sol, case)


class TestMonolithic:
    def test_nine_bus_with_region_inlined_converges_tight(self, ninebus1):
        sol = solve_monolithic(ninebus1)
        assert sol.converged
        assert sol.max_mismatch < 1e-10

    def test_single_slack_bus_alone(self):
        case = CaseFile(100.0, 50.0,
                        [BusRecord("B1", BusKind.SLACK, 230.0, v_set=1.03,
                                   shunt_b=0.0, shunt_g=0.001)], [])
        sol = solve_monolithic(case)
        assert sol.voltage("B1").magnitude == 1.03
        assert sol.iterations == 0

    def test_black_box_region_is_rejected(self, hybrid):
        with pytest.raises(OracleUnavailable):
            solve_monolithic(hybrid)

    def test_boundary_slack_equivalence(self, ninebus1):
        # solving the whole net, then re-solving the torn main system at the
        # whole-net boundary voltage, reproduces main-system voltages
        mono = solve_monolithic(ninebus1)
        volts = {g.boundary_bus: mono.voltage(g.boundary_bus)
                 for g in ninebus1.grbcs}
        torn = solve_main(ninebus1, volts, tol=1e-12)
        for b in ninebus1.buses:
            assert torn.voltage(b.id).rect == pytest.approx(
                mono.voltage(b.id).rect, abs=1e-9)

    def test_csv_export_schema(self, ninebus1, tmp_path):
        sol = solve_monolithic(ninebus1)
        path = tmp_path / "pf.csv"
        sol.to_csv(path)
        header, first, *_ = path.read_text().splitlines()
        assert header == "bus_id,v_pu,theta_deg,p_pu,q_pu"
        assert first.split(",")[0] == "B1"


class TestWarmStart:
    def test_warm_start_reuses_previous_solution(self, ninebus1):
        flat = inlineable(ninebus1)
        cold = solve_main(flat)
        warm = solve_main(flat, warm_start=cold)
        assert warm.iterations <= 1
        assert np.max(np.abs(warm.vm - cold.vm)) < 1e-9


def random_meshed_case(rng):
    """Random meshed network with slack, PV, PQ and boundary buses.

    A spanning tree plus random chords of short lines; PV buses carry a
    machine, PQ buses a load, boundary buses a supplied phasor.
    """
    n = int(rng.integers(3, 13))
    pick = (BusKind.PV, BusKind.PQ, BusKind.PQ, BusKind.BOUNDARY)
    kinds = [BusKind.SLACK] + [pick[k] for k in rng.integers(0, len(pick), size=n - 1)]
    buses, machines, volts = [], [], {}
    for i, kind in enumerate(kinds):
        bid = f"B{i}"
        if kind in (BusKind.SLACK, BusKind.PV):
            buses.append(BusRecord(bid, kind, 230.0, v_set=float(rng.uniform(0.98, 1.05))))
        elif kind is BusKind.PQ:
            buses.append(BusRecord(bid, kind, 230.0, p_load=float(rng.uniform(0.0, 0.6)),
                                   q_load=float(rng.uniform(-0.1, 0.3)),
                                   shunt_b=float(rng.uniform(0.0, 0.05))))
        else:
            buses.append(BusRecord(bid, kind, 230.0))
            volts[bid] = Phasor(float(rng.uniform(0.95, 1.05)), float(rng.uniform(-0.2, 0.2)))
        if kind is BusKind.PV:
            machines.append(MachineRecord(bid, MachineKind.IDEAL_SOURCE,
                                          p_set=float(rng.uniform(0.1, 0.8))))

    def line(f, t):
        return BranchRecord(f"B{f}", f"B{t}", float(rng.uniform(0.002, 0.03)),
                            float(rng.uniform(0.03, 0.2)), float(rng.uniform(0.0, 0.05)),
                            float(rng.choice([1.0, 1.0, rng.uniform(0.95, 1.05)])))

    branches = [line(int(rng.integers(0, i)), i) for i in range(1, n)]
    for _ in range(int(rng.integers(0, n))):
        f, t = (int(k) for k in rng.choice(n, size=2, replace=False))
        branches.append(line(f, t))
    return CaseFile(100.0, 50.0, buses, branches, machines, name="meshed"), volts


def assert_matches_reference(case, volts, tol=1e-10, max_iter=40):
    try:
        ref = reference_solve_main(case, volts, tol=tol, max_iter=max_iter)
    except (NonConvergence, SingularJacobian) as exc:
        with pytest.raises(type(exc)):
            solve_main(case, volts, tol=tol, max_iter=max_iter)
        return None
    sol = solve_main(case, volts, tol=tol, max_iter=max_iter)
    assert sol.iterations == ref.iterations
    assert len(sol.mismatch_history) == len(ref.mismatch_history)
    assert np.max(np.abs(sol.vm - ref.vm)) <= 1e-10
    assert np.max(np.abs(sol.va - ref.va)) <= 1e-10
    return sol


class TestReferenceEquivalence:
    """The broadcast Newton step against the dense diag-matrix step it replaced."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_meshed_networks(self, seed):
        case, volts = random_meshed_case(np.random.default_rng(seed))
        assert_matches_reference(case, volts)

    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_main_systems(self, name):
        case = load_case(case_path(name))
        volts = {b.id: Phasor(1.0, 0.0) for b in case.buses if b.kind is BusKind.BOUNDARY}
        assert assert_matches_reference(case, volts) is not None

    @pytest.mark.parametrize("name", BUNDLED)
    def test_white_box_internal_networks(self, name):
        case = load_case(case_path(name))
        for decl in case.grbcs:
            if decl.kind is not GrbcKind.WHITE_BOX_NETWORK:
                continue
            for v_b in (Phasor(1.0, 0.0), Phasor(0.93, -0.15), Phasor(1.06, 0.3)):
                sol = assert_matches_reference(internal_pf_case(decl),
                                               {decl.boundary_bus: v_b}, tol=1e-12,
                                               max_iter=60)
                assert sol is not None
