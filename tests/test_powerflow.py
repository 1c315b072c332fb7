import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import emtgis.powerflow as powerflow_module
from conftest import case_path, scaled_case
from emtgis.coordinator import jfng_solve
from emtgis.errors import (
    NonConvergence,
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
from emtgis.powerflow import (
    MAIN_PF_MAX_ITER,
    MAIN_PF_TOL,
    SCALAR_MAX_UNKNOWNS,
    PowerFlowProblem,
    boundary_injections,
    boundary_sensitivity,
    solve_main,
    solve_monolithic,
)
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
        v2_new = (np.conj(s2 / v2) - y[1, 0] * v1) / y[1, 1]
        if abs(v2_new - v2) < tol:
            return v2_new
        v2 = v2_new
    raise AssertionError("oracle did not converge")


class TestSolveMain:
    def test_no_load_network_stays_flat(self):
        sol = solve_main(PowerFlowProblem(two_bus(load_p=0.0)))
        assert sol.voltage("B2").magnitude == pytest.approx(1.0, abs=1e-12)
        assert sol.voltage("B2").angle == pytest.approx(0.0, abs=1e-12)
        p, q = sol.injection("B2")
        assert abs(p) < 1e-12 and abs(q) < 1e-12

    def test_loaded_two_bus_matches_gauss_seidel_oracle(self):
        case = two_bus()
        sol = solve_main(PowerFlowProblem(case), tol=1e-12)
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
        sol = solve_main(PowerFlowProblem(case), [ph.magnitude], [ph.angle])
        assert sol.voltage("B2").magnitude == ph.magnitude
        assert sol.voltage("B2").angle == ph.angle

    def test_missing_boundary_voltage_rejected(self):
        problem = PowerFlowProblem(two_bus(bus2_kind=BusKind.BOUNDARY))
        for vm_b, va_b in (([], []), ([1.0], []), ([1.0, 1.0], [0.0, 0.0])):
            with pytest.raises(ValueError):
                solve_main(problem, vm_b, va_b)

    def test_non_finite_mismatch_raises_nonconvergence(self):
        problem = PowerFlowProblem(two_bus(load_p=float("nan")))
        with pytest.raises(NonConvergence) as exc:
            solve_main(problem)
        assert exc.value.max_iter == 0
        assert exc.value.final_mismatch == float("inf")

    def test_nonconvergence_reports_limits(self):
        # impossible load far beyond the line's transfer capability
        problem = PowerFlowProblem(two_bus(load_p=50.0))
        with pytest.raises(NonConvergence) as exc:
            solve_main(problem)
        assert exc.value.max_iter == 30
        assert exc.value.final_mismatch > 0

    def test_flat_start_determinism_is_bitwise(self, ninebus1):
        a = solve_main(PowerFlowProblem(inlineable(ninebus1)))
        b = solve_main(PowerFlowProblem(inlineable(ninebus1)))
        assert a.iterations == b.iterations
        assert np.array_equal(a.vm, b.vm) and np.array_equal(a.va, b.va)

    def test_quadratic_convergence_tail(self, ninebus1, ninebus2, ninebus3):
        # On the last pair of mismatches above the rounding floor: the last
        # iterates read 5e-15 to 1.5e-14, rounding of O(1) injections, and
        # a mismatch that low no longer measures a Newton step's error.
        for case in (ninebus1, ninebus2, ninebus3):
            hist = [m for m in solve_monolithic(case).mismatch_history if m > 1e-12]
            assert len(hist) >= 2
            assert hist[-1] < hist[-2] ** 2 * 10


def inlineable(case):
    from emtgis.netmodel import inline_grbcs

    return inline_grbcs(case)


class TestBoundaryInjections:
    def test_no_load_boundary_sees_zero(self):
        case = two_bus(bus2_kind=BusKind.BOUNDARY, load_p=0.0)
        sol = solve_main(PowerFlowProblem(case), [1.0], [0.0])
        p, q = boundary_injections(sol, case)["B2"]
        assert abs(p) < 1e-12 and abs(q) < 1e-12

    def test_boundary_absorbing_half_pu(self):
        # hold the boundary at the voltage the loaded solution produces;
        # the lossless line then delivers exactly the oracle load
        loaded = solve_main(PowerFlowProblem(two_bus()), tol=1e-12)
        case = two_bus(bus2_kind=BusKind.BOUNDARY, load_p=0.0)
        v2 = loaded.voltage("B2")
        sol = solve_main(PowerFlowProblem(case), [v2.magnitude], [v2.angle], tol=1e-12)
        p, _ = boundary_injections(sol, case)["B2"]
        assert p == pytest.approx(0.5, abs=1e-9)

    def test_power_balance_identity(self, ninebus1):
        # sum of all computed injections equals network losses, evaluated
        # independently from branch currents and shunts
        sol = solve_monolithic(ninebus1)
        flat = inlineable(ninebus1)
        v = sol.vm * np.exp(1j * sol.va)
        losses = 0.0
        for br in flat.branches:
            f, t = sol.index(br.from_bus), sol.index(br.to_bus)
            i_series = (v[f] - v[t]) * br.series_admittance
            losses += br.r * abs(i_series) ** 2
        for b in flat.buses:
            losses += b.shunt_g * abs(v[sol.index(b.id)]) ** 2
        assert float(np.sum(sol.p_calc)) == pytest.approx(losses, abs=1e-8)


class TestMonolithic:
    def test_nine_bus_with_region_inlined_converges_tight(self, ninebus1):
        sol = solve_monolithic(ninebus1)
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
        problem = PowerFlowProblem(ninebus1)
        bnd = [mono.index(bid) for _, bid in problem.boundary]
        torn = solve_main(problem, mono.vm[bnd], mono.va[bnd], tol=1e-12)
        for b in ninebus1.buses:
            assert torn.voltage(b.id).rect == pytest.approx(
                mono.voltage(b.id).rect, abs=1e-9)

    def test_boundary_angles_beyond_pi(self):
        # k=32 seed 2 of the scaled family: 17 of the monolithic solution's
        # boundary angles pass pi.  Held as solved, they give the torn main
        # system the monolithic solution back; wrapped into (-pi, pi], they
        # moved the DC-angle start by 2 pi jumps and Newton diverged.
        case = scaled_case(32, 2)
        mono = solve_monolithic(case)
        problem = PowerFlowProblem(case)
        bnd = [mono.index(bid) for _, bid in problem.boundary]
        assert np.max(np.abs(mono.va[bnd])) > math.pi
        torn = solve_main(problem, mono.vm[bnd], mono.va[bnd], tol=1e-10, max_iter=40)
        idx = [mono.index(bid) for bid in torn.bus_ids]
        assert np.max(np.abs(torn.vm - mono.vm[idx])) < 1e-9
        assert np.max(np.abs(torn.va - mono.va[idx])) < 1e-9

    def test_csv_export_schema(self, ninebus1, tmp_path):
        sol = solve_monolithic(ninebus1)
        path = tmp_path / "pf.csv"
        sol.to_csv(path)
        header, first, *_ = path.read_text().splitlines()
        assert header == "bus_id,v_pu,theta_deg,p_pu,q_pu"
        assert first.split(",")[0] == "B1"


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


def boundary_arrays(problem, volts):
    """The magnitudes and angles of `volts`, {bus: Phasor}, in the order
    of `problem.boundary`, as `solve_main` takes them."""
    return ([volts[bid].magnitude for _, bid in problem.boundary],
            [volts[bid].angle for _, bid in problem.boundary])


def assert_matches_reference(case, volts, tol=1e-10, max_iter=40):
    problem = PowerFlowProblem(case)
    vm_b, va_b = boundary_arrays(problem, volts)
    try:
        ref = reference_solve_main(case, volts, tol=tol, max_iter=max_iter)
    except (NonConvergence, SingularJacobian) as exc:
        with pytest.raises(type(exc)):
            solve_main(problem, vm_b, va_b, tol=tol, max_iter=max_iter)
        return None
    sol = solve_main(problem, vm_b, va_b, tol=tol, max_iter=max_iter)
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


class TestFastDecoupled:
    """The coordinator's main solve, fast-decoupled on a problem built with
    `decoupled`, against Newton, its oracle: within 1e-9 at the same
    boundary voltages, those the coordination converges to."""

    @pytest.fixture(autouse=True)
    def decoupled_at_any_size(self, monkeypatch):
        # The bundled mains have fewer than DECOUPLED_MIN_BUSES buses.
        monkeypatch.setattr(powerflow_module, "DECOUPLED_MIN_BUSES", 0)

    @staticmethod
    def assert_matches_newton(case):
        state, _ = jfng_solve(case, case.grbcs)
        fast, newton = PowerFlowProblem(case, decoupled=True), PowerFlowProblem(case)
        assert fast.b_inv is not None and newton.b_inv is None
        n = len(state.bus_ids)
        order = [state.bus_ids.index(bid) for _, bid in fast.boundary]
        args = (state.x[order], state.x[n:][order], MAIN_PF_TOL, MAIN_PF_MAX_ITER)
        fd, nr = solve_main(fast, *args), solve_main(newton, *args)
        # Linear convergence, one iteration past the tolerance.
        assert fd.iterations > nr.iterations
        assert fd.mismatch_history[-2] <= MAIN_PF_TOL < fd.mismatch_history[0]
        for got, want in ((fd.vm, nr.vm), (fd.va, nr.va), (fd.p_calc, nr.p_calc),
                          (fd.q_calc, nr.q_calc)):
            assert np.max(np.abs(got - want)) <= 1e-9

    @pytest.mark.parametrize("name", ["ninebus1", "ninebus2", "ninebus3", "hybrid"])
    def test_bundled_cases_with_regions(self, name):
        self.assert_matches_newton(load_case(case_path(name)))

    def test_scaled_past_pi(self):
        # k=32 seed 2: boundary angles past pi, taken unwrapped.
        self.assert_matches_newton(scaled_case(32, 2))

    def test_singular_b_keeps_newton(self):
        # A PQ bus tied by a pure resistance: B' is singular, so the
        # problem keeps Newton.
        case = CaseFile(100.0, 50.0,
                        [BusRecord("B1", BusKind.SLACK, 230.0, v_set=1.0),
                         BusRecord("B2", BusKind.PQ, 230.0, p_load=0.1)],
                        [BranchRecord("B1", "B2", 0.1, 0.0)])
        problem = PowerFlowProblem(case, decoupled=True)
        assert problem.b_inv is None
        sol = solve_main(problem, tol=MAIN_PF_TOL, max_iter=MAIN_PF_MAX_ITER)
        assert sol.max_mismatch <= MAIN_PF_TOL


def array_problem(case):
    """`case`'s problem with the cut-off at 0, so that Newton runs on numpy
    arrays whatever its size."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(powerflow_module, "SCALAR_MAX_UNKNOWNS", 0)
        return PowerFlowProblem(case)


def small_case(rng, unknowns):
    """A random meshed case of `unknowns` Newton unknowns behind a slack or
    a boundary bus: PV buses, in most draws at least one, and PQ buses
    (two unknowns each), with shunts and taps as in `random_meshed_case`
    and loads up to 20 times as heavy, so that some cases have no
    solution; plus the boundary phasor if there is one."""
    n_pq = int(rng.integers(0, unknowns // 2 + 1))
    if unknowns - 2 * n_pq == 0 and n_pq > 0 and rng.random() < 0.7:
        n_pq -= 1  # keep a PV bus in most draws
    kinds = [BusKind.PV] * (unknowns - 2 * n_pq) + [BusKind.PQ] * n_pq
    rng.shuffle(kinds)
    ref = BusKind.BOUNDARY if rng.random() < 0.5 else BusKind.SLACK
    buses = [BusRecord("B0", ref, 230.0, v_set=1.0)]
    machines = []
    heavy = float(rng.choice([1.0, 1.0, 5.0, 20.0]))
    for i, kind in enumerate(kinds, 1):
        if kind is BusKind.PV:
            buses.append(BusRecord(f"B{i}", kind, 230.0, v_set=float(rng.uniform(0.98, 1.05))))
            machines.append(MachineRecord(f"B{i}", MachineKind.IDEAL_SOURCE,
                                          p_set=float(rng.uniform(0.1, 0.8))))
        else:
            buses.append(BusRecord(f"B{i}", kind, 230.0,
                                   p_load=heavy * float(rng.uniform(0.0, 0.6)),
                                   q_load=heavy * float(rng.uniform(-0.1, 0.3)),
                                   shunt_b=float(rng.uniform(0.0, 0.05))))
    n = len(buses)

    def line(f, t):
        return BranchRecord(f"B{f}", f"B{t}", float(rng.uniform(0.002, 0.03)),
                            float(rng.uniform(0.03, 0.2)), float(rng.uniform(0.0, 0.05)),
                            float(rng.choice([1.0, 1.0, rng.uniform(0.95, 1.05)])))

    branches = [line(int(rng.integers(0, i)), i) for i in range(1, n)]
    for _ in range(int(rng.integers(0, n))):
        f, t = (int(k) for k in rng.choice(n, size=2, replace=False))
        branches.append(line(f, t))
    volts = ({"B0": Phasor(float(rng.uniform(0.95, 1.05)), float(rng.uniform(-3.0, 3.0)))}
             if ref is BusKind.BOUNDARY else {})
    return CaseFile(100.0, 50.0, buses, branches, machines, name="small"), volts


def assert_paths_agree(case, volts, tol, max_iter, same_iterations):
    """Newton on Python scalars against Newton on numpy arrays, the same
    problem at the same boundary phasors: both converge, with p and q
    within 1e-12, or both raise the same failure."""
    scalar, array = PowerFlowProblem(case), array_problem(case)
    assert scalar.scalar is not None and array.scalar is None
    args = (*boundary_arrays(scalar, volts), tol, max_iter)
    try:
        want = solve_main(array, *args)
    except (NonConvergence, SingularJacobian) as exc:
        with pytest.raises(type(exc)):
            solve_main(scalar, *args)
        return None
    got = solve_main(scalar, *args)
    assert np.max(np.abs(got.p_calc - want.p_calc)) <= 1e-12
    assert np.max(np.abs(got.q_calc - want.q_calc)) <= 1e-12
    if same_iterations:
        assert got.iterations == want.iterations
    return got


class TestScalarNewton:
    """Problems of at most SCALAR_MAX_UNKNOWNS unknowns run Newton on
    Python scalars; numpy's Newton, which runs above the cut-off, is their
    oracle."""

    REGIONS = [decl for name in BUNDLED for decl in load_case(case_path(name)).grbcs
               if decl.kind is GrbcKind.WHITE_BOX_NETWORK]

    @given(st.floats(0.8, 1.2), st.floats(-math.pi, math.pi))
    @settings(max_examples=60, deadline=None)
    def test_bundled_regions_agree_with_numpy(self, vm, va):
        # Seven regions of 2 or 3 unknowns at 60 boundary phasors: the
        # same p, q and iteration count as numpy's Newton.
        for decl in self.REGIONS:
            case = internal_pf_case(decl)
            assert assert_paths_agree(case, {decl.boundary_bus: Phasor(vm, va)},
                                      decl.payload.pf_tol, 60, same_iterations=True)

    @given(st.integers(0, 2**32 - 1), st.integers(1, SCALAR_MAX_UNKNOWNS))
    @settings(max_examples=80, deadline=None)
    def test_random_problems_up_to_the_cut_off(self, seed, unknowns):
        case, volts = small_case(np.random.default_rng(seed), unknowns)
        assert PowerFlowProblem(case).n_unknowns == unknowns
        assert_paths_agree(case, volts, 1e-12, 40, same_iterations=False)

    @pytest.mark.parametrize("unknowns, scalar", [(SCALAR_MAX_UNKNOWNS, True),
                                                  (SCALAR_MAX_UNKNOWNS + 1, False)])
    def test_the_cut_off_selects_the_path(self, unknowns, scalar, monkeypatch):
        case, volts = small_case(np.random.default_rng(unknowns), unknowns)
        problem = PowerFlowProblem(case)
        assert problem.n_unknowns == unknowns
        assert (problem.scalar is not None) is scalar
        ran = []
        for name in ("_newton", "_newton_scalar"):
            monkeypatch.setattr(powerflow_module, name, lambda *a, name=name: ran.append(name))
        solve_main(problem, *boundary_arrays(problem, volts))
        assert ran == ["_newton_scalar" if scalar else "_newton"]

    def test_the_fast_decoupled_fallback_takes_the_scalar_path(self, monkeypatch):
        # A decoupled problem of a few unknowns runs its fast-decoupled
        # iterations on numpy; where they fail, Newton runs on scalars.
        monkeypatch.setattr(powerflow_module, "DECOUPLED_MIN_BUSES", 2)
        problem = PowerFlowProblem(two_bus(load_p=0.5), decoupled=True)
        assert problem.b_inv is not None and problem.scalar is not None

        def not_converging(*args):
            raise NonConvergence(MAIN_PF_MAX_ITER, 1.0)

        monkeypatch.setattr(powerflow_module, "_fast_decoupled", not_converging)
        sol = solve_main(problem, tol=MAIN_PF_TOL, max_iter=MAIN_PF_MAX_ITER)
        want = solve_main(array_problem(two_bus(load_p=0.5)), tol=MAIN_PF_TOL,
                          max_iter=MAIN_PF_MAX_ITER)
        assert sol.iterations == want.iterations
        assert np.max(np.abs(sol.va - want.va)) <= 1e-12

    @pytest.mark.parametrize("scalar", [True, False])
    def test_failures_are_the_same(self, scalar):
        # The limits of TestSolveMain on both paths: an impossible load
        # stops at the cap, a NaN load at the first mismatch, an
        # overflowing one and an infinite boundary angle (cmath's domain
        # error on scalars, numpy's invalid value on arrays) without a
        # warning, and a bus cut off from the rest gives a singular
        # Jacobian.
        def problem(case):
            return PowerFlowProblem(case) if scalar else array_problem(case)

        with pytest.raises(NonConvergence) as exc:
            solve_main(problem(two_bus(load_p=50.0)))
        assert exc.value.max_iter == 30 and exc.value.final_mismatch > 0
        for load in (float("nan"), 1e200):
            with pytest.raises(NonConvergence) as exc:
                solve_main(problem(two_bus(load_p=load)))
            assert exc.value.final_mismatch == float("inf")
        wind1 = internal_pf_case(load_case(case_path("ninebus1")).grbcs[0])
        with pytest.raises(NonConvergence) as exc:
            solve_main(problem(wind1), [1.0], [float("inf")])
        assert (exc.value.max_iter, exc.value.final_mismatch) == (0, float("inf"))
        isolated = CaseFile(100.0, 50.0,
                            [BusRecord("B1", BusKind.SLACK, 230.0, v_set=1.0),
                             BusRecord("B2", BusKind.PQ, 230.0, p_load=0.1),
                             BusRecord("B3", BusKind.PQ, 230.0, shunt_b=0.1)],
                            [BranchRecord("B1", "B2", 0.01, 0.1)])
        with pytest.raises(SingularJacobian):
            solve_main(problem(isolated))


def boundary_x(volts, bus_ids):
    return np.array([volts[b].magnitude for b in bus_ids] + [volts[b].angle for b in bus_ids])


def injections_at(case, bus_ids, x):
    """(p, q) of `boundary_injections` with the boundary held at x, and the solution."""
    n = len(bus_ids)
    problem = PowerFlowProblem(case)
    pos = {b: i for i, b in enumerate(bus_ids)}
    order = np.array([pos[bid] for _, bid in problem.boundary], dtype=int)
    sol = solve_main(problem, x[order], x[n + order], tol=1e-12, max_iter=40)
    inj = boundary_injections(sol, case)
    return np.array([inj[b][0] for b in bus_ids] + [inj[b][1] for b in bus_ids]), sol


def assert_sensitivity_matches_central_differences(case, bus_ids, x, h=1e-5):
    """The analytic sensitivity against central differences of solve_main.

    With step h the truncation error is O(h^2) and the rounding error of
    the 1e-12 solves O(1e-12 / h), both far below the 1e-6 bound.
    """
    _, sol = injections_at(case, bus_ids, x)
    got = boundary_sensitivity(PowerFlowProblem(case), sol, bus_ids)
    cols = [(injections_at(case, bus_ids, x + h * e)[0]
             - injections_at(case, bus_ids, x - h * e)[0]) / (2 * h)
            for e in np.eye(x.size)]
    want = np.column_stack(cols)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-6 * max(1.0, float(np.max(np.abs(want))))


class TestBoundarySensitivity:
    """d(p, q)/d(|V|, theta) of the main side, in the coordinator's order."""

    @pytest.mark.parametrize("name", ("ninebus1", "ninebus2", "ninebus3", "hybrid"))
    def test_bundled_main_systems(self, name):
        case = load_case(case_path(name))
        bus_ids = [g.boundary_bus for g in case.grbcs]
        n = len(bus_ids)
        if name == "hybrid":  # black-box regions: the coordinated point
            from emtgis.coordinator import jfng_solve

            state, _ = jfng_solve(case, case.grbcs,
                                  np.concatenate([np.ones(n), np.zeros(n)]))
            x = state.x
        else:
            mono = solve_monolithic(case, tol=1e-12)
            x = boundary_x({b: mono.voltage(b) for b in bus_ids}, bus_ids)
        off = x + np.concatenate([np.full(n, -0.03), np.full(n, 0.05)])
        for point in (x, off):
            assert_sensitivity_matches_central_differences(case, bus_ids, point)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_random_meshed_networks(self, seed):
        case, volts = random_meshed_case(np.random.default_rng(seed))
        bus_ids = list(volts)
        if not bus_ids:
            return
        try:
            injections_at(case, bus_ids, boundary_x(volts, bus_ids))
        except (NonConvergence, SingularJacobian):
            return
        assert_sensitivity_matches_central_differences(case, bus_ids,
                                                       boundary_x(volts, bus_ids))

    def test_no_newton_unknowns(self):
        # slack plus boundary only: the sensitivity is the boundary block alone
        case = two_bus(bus2_kind=BusKind.BOUNDARY, load_p=0.2)
        assert_sensitivity_matches_central_differences(case, ["B2"],
                                                       np.array([0.98, -0.04]))
