import ast
import copy
import inspect
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import emtgis.cli as cli
import emtgis.coordinator as coordinator_module
import emtgis.powerflow as powerflow_module
from emtgis.coordinator import (
    BoundaryLayout,
    JfngConfig,
    directional_difference,
    gmres_m,
    jfng_solve,
    precond_update,
    residual,
)
from conftest import case_path, overloaded_hybrid_doc, scaled_case, scaled_doc
from emtgis.errors import (
    InternalNonConvergence,
    MaxOuterExceeded,
    NonFinite,
    OuterStepRejected,
    ResidualEvaluationError,
    SingularJacobian,
)
from emtgis.grbc import evaluate, parse_declaration
from emtgis.netmodel import BusKind, BusRecord, Phasor, load_case, parse_case
from emtgis.powerflow import (
    DECOUPLED_MIN_BUSES,
    MAIN_PF_MAX_ITER,
    MAIN_PF_TOL,
    SCALAR_MAX_UNKNOWNS,
    PowerFlowProblem,
    solve_main,
    solve_monolithic,
)


def torn_residual(problem, grbcs, x):
    """`residual` with the layout `jfng_solve` builds for it."""
    return residual(problem, grbcs, x, BoundaryLayout.build(problem, grbcs))


def oracle_boundary_x(case, mono):
    """The boundary voltages of the monolithic solution `mono` as x, its
    angles as solved, not wrapped into (-pi, pi]."""
    bnd = [mono.index(g.boundary_bus) for g in case.grbcs]
    return np.concatenate([mono.vm[bnd], mono.va[bnd]])


class TestResidual:
    def test_consistent_tearing_gives_zero_residual(self, ninebus1):
        mono = solve_monolithic(ninebus1, tol=1e-12)
        x = oracle_boundary_x(ninebus1, mono)
        state = torn_residual(PowerFlowProblem(ninebus1), ninebus1.grbcs, x)
        assert np.linalg.norm(state.phi) < 1e-8

    def test_phi_is_sum_of_both_sides(self, twobus):
        # main pushes ~0.1 pu into a torn no-load boundary held slightly low;
        # a constant response of -0.4 must leave exactly p_main - 0.4
        case = copy.deepcopy(twobus)
        case.buses[1] = BusRecord("B2", BusKind.BOUNDARY, 230.0)
        case.grbcs = [parse_declaration({
            "name": "s", "boundary_bus": "B2", "kind": "ScriptedResponse",
            "payload": {"p": -0.4, "q": 0.0}}, case.base_mva, case.frequency_hz)]
        x = np.array([0.98, -0.03])
        state = torn_residual(PowerFlowProblem(case), case.grbcs, x)
        assert state.phi[0] == pytest.approx(state.p[0] - 0.4, abs=1e-14)
        assert state.phi[1] == pytest.approx(state.q[0] + 0.0, abs=1e-14)

    def test_repeated_evaluations_agree_bitwise(self, ninebus3):
        # both evaluations share one problem: a solve only reads it
        x = np.array([1.01, 0.99, 1.0, 0.02, -0.03, 0.01])
        problem = PowerFlowProblem(ninebus3)
        a = torn_residual(problem, ninebus3.grbcs, x)
        b = torn_residual(problem, ninebus3.grbcs, x)
        assert np.array_equal(a.phi, b.phi)
        assert np.array_equal(a.main_solution.vm, b.main_solution.vm)
        assert np.array_equal(a.main_solution.va, b.main_solution.va)

    def test_shared_admittance_matrix_gives_the_same_residual(self, ninebus3):
        # a problem that already served a solve at other voltages gives the
        # residual of a freshly built one
        x = np.array([1.01, 0.99, 1.0, 0.02, -0.03, 0.01])
        shared = PowerFlowProblem(ninebus3)
        torn_residual(shared, ninebus3.grbcs, np.array([0.97, 1.02, 1.0, -0.05, 0.04, 0.0]))
        a = torn_residual(PowerFlowProblem(ninebus3), ninebus3.grbcs, x)
        b = torn_residual(shared, ninebus3.grbcs, x)
        assert np.array_equal(a.phi, b.phi)

    def test_singular_main_jacobian_is_a_residual_error(self, ninebus1, monkeypatch,
                                                         tmp_path):
        # a residual failure: a probe halves, and `ipf` exits 2 with its trace
        def singular(*args, **kwargs):
            raise SingularJacobian(3)

        monkeypatch.setattr(coordinator_module, "solve_main", singular)
        with pytest.raises(ResidualEvaluationError) as exc:
            torn_residual(PowerFlowProblem(ninebus1), ninebus1.grbcs, np.array([1.0, 0.0]))
        assert exc.value.side == "main-system"
        assert isinstance(exc.value.cause, SingularJacobian)
        out = tmp_path / "ipf"
        assert cli.main(["ipf", case_path("ninebus1"), "--out", str(out)]) == 2
        assert (out / "trace.csv").read_text().startswith("outer_iter,")


class TestDirectionalDifference:
    def test_zero_direction_returns_zero(self):
        out = directional_difference(np.array([1.0, 2.0]), np.array([1.0, 0.0]),
                                     np.zeros(2), 1e-6, lambda x: x)
        assert np.array_equal(out, np.zeros(2))

    def test_scalar_quadratic_forward_difference(self):
        fn = lambda x: x ** 2
        out = directional_difference(np.array([1.0]), np.array([1.0]),
                                     np.array([1.0]), 1e-6, fn)
        assert out[0] == pytest.approx(2.000001, rel=1e-9)

    def test_linear_map_is_omega_independent(self):
        a = np.array([[2.0, -1.0], [0.5, 3.0]])
        fn = lambda x: a @ x
        x = np.array([1.0, 0.4])
        z = np.array([0.3, -0.7])
        outs = [directional_difference(fn(x), x, z, om, fn)
                for om in (1e-4, 1e-6)]
        assert np.max(np.abs(outs[0] - outs[1])) < 1e-9
        assert np.max(np.abs(outs[0] - a @ z)) < 1e-9

    def test_voltage_floor_raises_nonfinite(self):
        x = np.array([0.3, 0.0])  # (V, theta)
        z = np.array([-1.0, 0.0])
        with pytest.raises(NonFinite):
            directional_difference(np.zeros(2), x, z, 0.2, lambda v: v)


class TestPrecondUpdate:
    def test_fixed_point_when_secant_already_holds(self):
        m = np.eye(2)
        out = precond_update(m, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        assert np.array_equal(out, np.eye(2))

    def test_two_by_two_hand_case(self):
        m = np.eye(2)
        out = precond_update(m, np.array([1.0, 0.0]), np.array([2.0, 0.0]))
        assert out == pytest.approx(np.array([[0.5, 0.0], [0.0, 1.0]]))
        assert out @ np.array([2.0, 0.0]) == pytest.approx(
            np.array([1.0, 0.0]))

    def test_degenerate_denominator_skips(self):
        # M dphi orthogonal to dx -> guard path, M unchanged
        m = np.eye(2)
        out = precond_update(m, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert np.array_equal(out, np.eye(2))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_secant_property_randomized(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        m = np.eye(n) + 0.3 * rng.normal(size=(n, n)) / math.sqrt(n)
        dx = rng.normal(size=n)
        dphi = rng.normal(size=n)
        out = precond_update(m, dx, dphi)
        if not np.array_equal(out, m):  # skipped if degenerate
            err = np.linalg.norm(out @ dphi - dx)
            assert err <= 1e-10 * max(1.0, np.linalg.norm(dx))


class TestGmres:
    def test_identity_probe_converges_in_one_step(self):
        phi = -np.array([1.0, 0.0, 0.0])
        dx, m, info = gmres_m(phi, lambda z: z, np.eye(3),
                              JfngConfig())
        assert info.converged and info.iterations == 1
        assert info.rho_history[-1] == pytest.approx(0.0, abs=1e-14)
        assert dx == pytest.approx(np.array([1.0, 0.0, 0.0]), abs=1e-14)

    def test_diagonal_system_matches_direct_solve(self):
        a = np.diag([2.0, 4.0])
        r0 = np.array([2.0, 4.0])
        dx, _, info = gmres_m(-r0, lambda z: a @ z, np.eye(2),
                              JfngConfig(eps2=1e-12))
        assert info.converged
        assert dx == pytest.approx(np.linalg.solve(a, r0), abs=1e-10)

    def test_single_step_restart_residual_formula(self):
        # with m = 1 the least-squares residual equals
        # min_alpha ||r0 - alpha A r0||, computable by hand
        a = np.diag([2.0, 4.0])
        r0 = np.array([2.0, 4.0])
        dx, _, info = gmres_m(-r0, lambda z: a @ z, np.eye(2),
                              JfngConfig(m_restart=1))
        assert not info.converged and info.restarted
        ar0 = a @ r0
        alpha = (ar0 @ r0) / (ar0 @ ar0)
        rho_hand = np.linalg.norm(r0 - alpha * ar0)
        assert info.rho_history[-1] == pytest.approx(rho_hand, rel=1e-12)
        assert dx == pytest.approx(alpha * r0, rel=1e-12)

    def test_linear_correctness_with_adaptive_preconditioner(self):
        # the returned correction must satisfy the advertised residual bound
        # even though the preconditioner changes between inner iterations
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            a = np.eye(n) + 0.3 * rng.normal(size=(n, n)) / math.sqrt(n)
            r0 = rng.normal(size=n)
            cfg = JfngConfig(m_restart=40)
            dx, _, info = gmres_m(-r0, lambda z: a @ z,
                                  np.eye(n), cfg)
            assert info.converged
            eps_g = cfg.eps2 * np.linalg.norm(r0)
            assert np.linalg.norm(a @ dx - r0) <= eps_g


class TestJfngSolve:
    def test_preconverged_start_exits_without_corrections(self, ninebus1):
        mono = solve_monolithic(ninebus1, tol=1e-12)
        x0 = oracle_boundary_x(ninebus1, mono)
        state, trace = jfng_solve(ninebus1, ninebus1.grbcs, x0, JfngConfig())
        assert trace.status == "converged"
        assert len(trace.rows) == 1 and trace.rows[0].inner_iters == 0
        assert np.array_equal(state.x, x0)

    def test_flat_start_matches_monolithic(self, ninebus1):
        mono = solve_monolithic(ninebus1, tol=1e-12)
        n = len(ninebus1.grbcs)
        state, trace = jfng_solve(ninebus1, ninebus1.grbcs,
                                  np.concatenate([np.ones(n), np.zeros(n)]),
                                  JfngConfig())
        assert trace.status == "converged"
        x_ref = oracle_boundary_x(ninebus1, mono)
        assert np.max(np.abs(state.x - x_ref)) < 1e-6

    def test_outer_budget_zero_raises_with_trace(self, ninebus1):
        n = len(ninebus1.grbcs)
        with pytest.raises(MaxOuterExceeded) as exc:
            jfng_solve(ninebus1, ninebus1.grbcs,
                       np.concatenate([np.ones(n), np.zeros(n)]),
                       JfngConfig(max_outer=0))
        assert exc.value.phi_norm > 0
        assert exc.value.trace is not None

    def test_residual_norm_decreases_monotonically(self, ninebus1, ninebus2,
                                                   ninebus3, hybrid):
        for case in (ninebus1, ninebus2, ninebus3, hybrid):
            n = len(case.grbcs)
            _, trace = jfng_solve(case, case.grbcs,
                                  np.concatenate([np.ones(n), np.zeros(n)]),
                                  JfngConfig())
            norms = trace.phi_norms()
            assert all(b < a for a, b in zip(norms, norms[1:]))

    def test_trace_csv_schema(self, ninebus1, tmp_path):
        n = len(ninebus1.grbcs)
        _, trace = jfng_solve(ninebus1, ninebus1.grbcs,
                              np.concatenate([np.ones(n), np.zeros(n)]),
                              JfngConfig())
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "outer_iter,inner_iters,phi_norm,rho_final"
        assert len(lines) == len(trace.rows) + 1


def flat_start(case):
    n = len(case.grbcs)
    return np.concatenate([np.ones(n), np.zeros(n)])


class TestCoordinationAtScale:
    """Cases whose boundary angles reach about 1 rad and beyond (the chain
    spreads 138 degrees): the main power flow diverged from flat angles at
    the monolithic solution's own boundary voltages, and the coordinator
    failed (OuterStepRejected at k=16 seeds 7 and 11, NonFinite on the
    chain).  At k=32 seed 2 boundary angles pass pi: wrapped on their way
    to the main power flow, they moved its DC-angle start by 2 pi jumps and
    the probes failed."""

    @pytest.mark.parametrize("k, seed, idle_b1",
                             [(16, 7, False), (16, 11, False), (4, 1, True), (32, 2, False)],
                             ids=["k16-seed7", "k16-seed11", "unbalanced-chain-k4", "k32-seed2"])
    def test_matches_monolithic(self, k, seed, idle_b1):
        case = scaled_case(k, seed, idle_b1)
        state, trace = jfng_solve(case, case.grbcs, flat_start(case), JfngConfig())
        assert trace.status == "converged"
        x_ref = oracle_boundary_x(case, solve_monolithic(case))
        assert np.max(np.abs(state.x - x_ref)) < 1e-6


def high_rx_ninebus1(ratio):
    """ninebus1 with every main branch's R set to `ratio` times its X."""
    doc = json.loads(Path(case_path("ninebus1")).read_text())
    for br in doc["branches"]:
        br["r"] = ratio * br["x"]
    return doc


class TestHighRxMainSystem:
    """The fast-decoupled matrices drop the branch resistances, so its
    iterations stop converging as R/X nears 1; the bundled and scaled
    main systems have R/X of at most 0.23."""

    def test_decoupled_iterations_that_fail_fall_back_to_newton(self, monkeypatch):
        # At R/X = 1 the decoupled iterations do not converge within
        # MAIN_PF_MAX_ITER; the solve runs Newton
        # from the same start, bit for bit, and ipf converges to the
        # monolithic solution as Newton alone did.  ninebus1's main has
        # fewer than DECOUPLED_MIN_BUSES buses: the method is forced.
        monkeypatch.setattr(powerflow_module, "DECOUPLED_MIN_BUSES", 0)
        case = parse_case(high_rx_ninebus1(1.0), name="rx1")
        fast, newton = PowerFlowProblem(case, decoupled=True), PowerFlowProblem(case)
        assert fast.b_inv is not None and newton.b_inv is None
        args = ([1.0], [0.0], MAIN_PF_TOL, MAIN_PF_MAX_ITER)
        fd, nr = solve_main(fast, *args), solve_main(newton, *args)
        assert fd.mismatch_history == nr.mismatch_history
        assert np.array_equal(fd.va, nr.va) and np.array_equal(fd.vm, nr.vm)
        state, trace = jfng_solve(case, case.grbcs)
        assert trace.status == "converged"
        x_ref = oracle_boundary_x(case, solve_monolithic(case))
        assert np.max(np.abs(state.x - x_ref)) < 1e-6

    def test_rx_2_exits_2_with_its_trace(self, tmp_path):
        # At R/X = 2 Newton fails too from the flat start, as it did before
        # the decoupled solve: ipf exits 2 and writes its trace.
        path = tmp_path / "rx2.json"
        path.write_text(json.dumps(high_rx_ninebus1(2.0)))
        out = tmp_path / "ipf"
        assert cli.main(["ipf", str(path), "--out", str(out)]) == 2
        assert (out / "trace.csv").read_text().startswith("outer_iter,")


def long_region_ninebus1(buses):
    """ninebus1 with region wind1 a chain of `buses` PQ buses from its
    boundary, W1 first, each drawing an equal share of W1's load."""
    doc = json.loads(Path(case_path("ninebus1")).read_text())
    (wind1,) = doc["grbcs"]
    ids = [f"W{i}" for i in range(1, buses + 1)]
    wind1["payload"]["buses"] = [
        {"id": bid, "kind": "PQ", "base_kv": 230.0, "p_load": 0.35 / buses,
         "q_load": 0.1 / buses} for bid in ids]
    wind1["payload"]["branches"] = [
        {"from": f, "to": t, "r": 0.02, "x": 0.08} for f, t in zip(["B10", *ids], ids)]
    return doc


class TestRegionAboveTheCutOff:
    def test_coordinates_within_1e_6_of_the_monolithic_solution(self):
        # One PQ bus more than the cut-off allows scalars for: the region
        # solves on numpy arrays, and coordination still meets the oracle.
        case = parse_case(long_region_ninebus1(SCALAR_MAX_UNKNOWNS // 2 + 1), name="long")
        problem = case.grbcs[0].pf_problem
        assert problem.n_unknowns > SCALAR_MAX_UNKNOWNS and problem.scalar is None
        state, trace = jfng_solve(case, case.grbcs)
        assert trace.status == "converged"
        x_ref = oracle_boundary_x(case, solve_monolithic(case))
        assert np.max(np.abs(state.x - x_ref)) < 1e-6


def ring_main(buses):
    """A main system of `buses` buses: a slack, lightly loaded PQ buses on
    a ring through it, and a boundary bus off the ring behind a region
    drawing a constant 0.05 + j0.02 pu."""
    ids = [f"B{i}" for i in range(1, buses)]
    doc = {"base_mva": 100.0, "frequency_hz": 50.0,
           "buses": [{"id": "B1", "kind": "Slack", "base_kv": 230.0, "v_set": 1.02}]
           + [{"id": bid, "kind": "PQ", "base_kv": 230.0, "p_load": 0.01, "q_load": 0.004}
              for bid in ids[1:]]
           + [{"id": "BB", "kind": "Boundary", "base_kv": 230.0}],
           "branches": [{"from": f, "to": t, "r": 0.002, "x": 0.02}
                        for f, t in zip(ids, ids[1:] + ids[:1])]
           + [{"from": ids[len(ids) // 2], "to": "BB", "r": 0.002, "x": 0.02}],
           "grbcs": [{"name": "s", "boundary_bus": "BB", "kind": "ScriptedResponse",
                      "payload": {"p": -0.05, "q": -0.02}}]}
    return parse_case(doc, name=f"ring{buses}")


class TestMainMethodBySize:
    """The coordinator asks for a fast-decoupled main solve; it gets one
    from DECOUPLED_MIN_BUSES main buses on, and Newton below."""

    @pytest.fixture
    def ran(self, monkeypatch):
        ran = {"_fast_decoupled": 0, "_newton": 0}
        for name in ran:
            def counted(*args, real=getattr(powerflow_module, name), name=name):
                ran[name] += 1
                return real(*args)

            monkeypatch.setattr(powerflow_module, name, counted)
        return ran

    @pytest.mark.parametrize("buses, method", [(DECOUPLED_MIN_BUSES - 1, "_newton"),
                                               (DECOUPLED_MIN_BUSES, "_fast_decoupled")])
    def test_one_bus_either_side_of_the_constant(self, ran, buses, method):
        case = ring_main(buses)
        assert len(case.buses) == buses
        _, trace = jfng_solve(case, case.grbcs)
        assert trace.status == "converged"
        assert ran[method] > 0 and sum(ran.values()) == ran[method]

    @pytest.mark.parametrize("name", ["ninebus1", "ninebus2", "ninebus3", "hybrid"])
    def test_bundled_mains_solve_by_newton(self, ran, name):
        case = load_case(case_path(name))
        jfng_solve(case, case.grbcs)
        assert ran["_newton"] > 0 and ran["_fast_decoupled"] == 0

    def test_scaled_k8_main_solves_fast_decoupled(self, ran):
        # Its 24 regions solve on scalars: no `_newton` call at all.
        case = scaled_case(8, 1)
        assert len(case.buses) == 96
        jfng_solve(case, case.grbcs)
        assert ran["_fast_decoupled"] > 0 and ran["_newton"] == 0


def numpy_leaves(obj):
    """The numpy objects in `obj`, searched through tuples, lists and dicts."""
    if isinstance(obj, (tuple, list)):
        return [leaf for item in obj for leaf in numpy_leaves(item)]
    if isinstance(obj, dict):
        return numpy_leaves(list(obj.items()))
    return [obj] if type(obj).__module__ == "numpy" else []


class TestDataBuiltOnFirstUse:
    """After an in-process `ipf`, a problem on the scalar path holds no
    numpy data, nor do its solutions, and a main below DECOUPLED_MIN_BUSES
    holds no inverses of B' and B''."""

    @pytest.mark.parametrize("k", [None, 8])
    def test_after_ipf(self, k, monkeypatch, tmp_path):
        if k is None:
            path, main_name = case_path("ninebus3"), "ninebus3"
        else:
            path, main_name = tmp_path / "scaled.json", "scaled"
            path.write_text(json.dumps(scaled_doc(k, 1)))
        problems = []
        build = PowerFlowProblem.__init__

        def recorded(self, *args, **kwargs):
            build(self, *args, **kwargs)
            problems.append(self)

        monkeypatch.setattr(PowerFlowProblem, "__init__", recorded)
        assert cli.main(["ipf", str(path), "--out", str(tmp_path / "ipf")]) == 0
        (main,) = [p for p in problems if p.case.name == main_name]
        regions = [p for p in problems if p is not main]
        assert len(regions) == (3 if k is None else 3 * k)
        for problem in regions:
            assert problem.scalar is not None
            assert "arrays" not in vars(problem) and vars(problem).get("b_inv") is None
            assert numpy_leaves({key: value for key, value in vars(problem).items()
                                 if key != "case"}) == []
        decl = load_case(path).grbcs[0]
        sol = evaluate(decl, Phasor(1.0, 0.1)).internal_pf
        assert numpy_leaves(sol) == []
        assert main.scalar is None and "arrays" in vars(main)
        if k is None:
            assert len(main.bus_ids) < DECOUPLED_MIN_BUSES and vars(main)["b_inv"] is None
        else:
            assert len(main.bus_ids) >= DECOUPLED_MIN_BUSES and vars(main)["b_inv"] is not None


def scripted_twobus(twobus):
    """twobus with B2 torn off behind a region drawing a constant 0.4 pu."""
    case = copy.deepcopy(twobus)
    case.buses[1] = BusRecord("B2", BusKind.BOUNDARY, 230.0)
    case.grbcs = [parse_declaration({
        "name": "s", "boundary_bus": "B2", "kind": "ScriptedResponse",
        "payload": {"p": -0.4, "q": 0.0}}, case.base_mva, case.frequency_hz)]
    return case


class TestInitialPreconditioner:
    def test_inverts_the_residual_derivative_at_x0(self, hybrid):
        # the main side's analytic sensitivity plus the regions' 2x2 blocks
        # approximate phi'(x0); compare with forward differences of phi
        x0 = flat_start(hybrid)
        problem = PowerFlowProblem(hybrid)
        state = torn_residual(problem, hybrid.grbcs, x0)
        m0 = coordinator_module._initial_preconditioner(problem, hybrid.grbcs, state, 1e-6)
        h = 1e-6
        cols = [(torn_residual(problem, hybrid.grbcs, x0 + h * e).phi
                 - state.phi) / h
                for e in np.eye(x0.size)]
        deriv = np.column_stack(cols)
        assert np.max(np.abs(m0 @ deriv - np.eye(x0.size))) < 1e-4

    @pytest.mark.parametrize("sensitivity", [np.zeros((2, 2)), np.full((2, 2), np.nan)],
                             ids=["singular", "non-finite"])
    def test_degenerate_approximation_falls_back_to_identity(self, twobus, monkeypatch,
                                                             caplog, sensitivity):
        # the constant region's block is exactly zero, so S_main + R is the
        # patched sensitivity
        case = scripted_twobus(twobus)
        problem = PowerFlowProblem(case)
        state = torn_residual(problem, case.grbcs, np.array([1.0, 0.0]))
        monkeypatch.setattr(coordinator_module, "boundary_sensitivity",
                            lambda *args: sensitivity.copy())
        with caplog.at_level("DEBUG", logger=coordinator_module.__name__):
            m0 = coordinator_module._initial_preconditioner(problem, case.grbcs, state,
                                                            1e-6)
        assert np.array_equal(m0, np.eye(2))
        assert "falls back to the identity" in caplog.text

    def test_region_failing_at_its_offset_point_falls_back_to_identity(self, ninebus1,
                                                                       monkeypatch, caplog):
        cfg = JfngConfig()
        x0 = flat_start(ninebus1)
        offsets = {(1.0 + cfg.omega, 0.0), (1.0, cfg.omega)}
        real_evaluate = coordinator_module.evaluate
        raised = []

        def failing_at_offsets(decl, v):
            if (v.magnitude, v.angle) in offsets:
                raised.append(v)
                raise InternalNonConvergence("no internal solution at the offset point")
            return real_evaluate(decl, v)

        monkeypatch.setattr(coordinator_module, "evaluate", failing_at_offsets)
        with caplog.at_level("DEBUG", logger=coordinator_module.__name__):
            state, trace = jfng_solve(ninebus1, ninebus1.grbcs, x0, cfg)
        assert raised and "falls back to the identity" in caplog.text
        assert trace.status == "converged"
        mono = solve_monolithic(ninebus1, tol=1e-12)
        assert np.max(np.abs(state.x - oracle_boundary_x(ninebus1, mono))) < 1e-6

        # the fallback is exactly the identity start
        monkeypatch.setattr(coordinator_module, "evaluate", real_evaluate)
        monkeypatch.setattr(coordinator_module, "_initial_preconditioner",
                            lambda problem, grbcs, st, omega: np.eye(st.x.size))
        _, identity_trace = jfng_solve(ninebus1, ninebus1.grbcs, x0, cfg)
        assert trace.phi_norms() == identity_trace.phi_norms()
        assert [r.inner_iters for r in trace.rows] == \
            [r.inner_iters for r in identity_trace.rows]


class TestCoordinatorWork:
    """Residual evaluations of a flat-start solve on the bundled cases.

    With M0 = I these read 9, 12, 15 and 18; the physics-based M0 cuts the
    first correction to one inner iteration.
    """

    @pytest.fixture
    def calls(self, monkeypatch):
        count = [0]
        real_residual = coordinator_module.residual

        def counted(*args, **kwargs):
            count[0] += 1
            return real_residual(*args, **kwargs)

        monkeypatch.setattr(coordinator_module, "residual", counted)
        return count

    @pytest.mark.parametrize("name, expected", [("ninebus1", 8), ("ninebus2", 9),
                                                ("ninebus3", 10), ("hybrid", 13)])
    def test_residual_evaluations_from_a_flat_start(self, request, calls, name, expected):
        case = request.getfixturevalue(name)
        _, trace = jfng_solve(case, case.grbcs, flat_start(case), JfngConfig())
        assert trace.status == "converged"
        assert calls[0] == expected
        assert trace.rows[0].inner_iters == 1


class TestJacobianFreedom:
    def test_region_surface_is_exactly_two_functions(self):
        """Compile-time audit: the coordinator may import only the
        evaluate/adapter_is_opaque surface of the region module."""
        src = inspect.getsource(coordinator_module)
        tree = ast.parse(src)
        used: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module and \
                    node.module.endswith("grbc"):
                used.update(a.name for a in node.names)
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.value, ast.Name) and node.value.id == "grbc":
                used.add(node.attr)
        assert used == {"evaluate", "adapter_is_opaque"}

    def test_no_explicit_jacobian_assembly(self):
        # no identifier in the coordinator names or touches a Jacobian;
        # the correction operator exists only through residual probes
        src = inspect.getsource(coordinator_module)
        tree = ast.parse(src)
        for node in ast.walk(tree):
            name = None
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
            if name is not None:
                assert "jac" not in name.lower()

    def test_scripted_replacement_changes_nothing(self, twobus):
        """A white-box region replaced by a scripted response with the same
        boundary characteristic leaves the coordination output unchanged."""
        case = copy.deepcopy(twobus)
        case.buses[1] = BusRecord("B2", BusKind.BOUNDARY, 230.0)
        # linear region: branch z then shunt to ground, a pure impedance,
        # so the exact characteristic is a polynomial in V
        y_region = 1.0 / (complex(0.02, 0.1) + 1.0 / complex(1.0, -0.5))
        wb = parse_declaration({
            "name": "r", "boundary_bus": "B2", "kind": "WhiteBoxNetwork",
            "payload": {
                "buses": [{"id": "W", "kind": "PQ", "base_kv": 230.0,
                           "shunt_g": 1.0, "shunt_b": -0.5}],
                "branches": [{"from": "B2", "to": "W", "r": 0.02, "x": 0.1}],
            },
        }, case.base_mva, case.frequency_hz)
        sc = parse_declaration({
            "name": "r", "boundary_bus": "B2", "kind": "ScriptedResponse",
            "payload": {
                "p": ["*", -y_region.real, ["pow", "V", 2]],
                "q": ["*", y_region.imag, ["pow", "V", 2]],
            },
        }, case.base_mva, case.frequency_hz)
        results = []
        for decl in (wb, sc):
            c = copy.deepcopy(case)
            c.grbcs = [decl]
            state, _ = jfng_solve(c, c.grbcs, np.array([1.0, 0.0]),
                                  JfngConfig(eps1=1e-9))
            results.append(state)
        a, b = results
        assert np.max(np.abs(a.x - b.x)) < 1e-9
        assert np.max(np.abs(a.p_tilde - b.p_tilde)) < 1e-9
        assert np.max(np.abs(a.q_tilde - b.q_tilde)) < 1e-9


class TestEdgePaths:
    def test_rank_deficient_probe_reports_breakdown(self):
        # a rank-one operator cannot reach the residual: the Krylov basis
        # degenerates while rho stays large
        from emtgis.errors import InnerBreakdown

        u = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
        a = np.outer(u, u)
        phi = -np.array([1.0, -1.0, 0.5])
        with pytest.raises(InnerBreakdown):
            gmres_m(phi, lambda z: a @ z, np.eye(3),
                    JfngConfig())

    def test_probe_retries_with_halved_step(self):
        from emtgis.coordinator import _make_probe

        calls = []

        def residual_fn(xv):
            calls.append(xv.copy())
            return xv**2

        # first omega pushes the magnitude below the basin floor; the
        # retry path halves until the probe point is admissible
        x = np.array([0.21, 0.0])
        phi = x**2
        probe = _make_probe(x, phi, residual_fn, omega_base=2e-2)
        out = probe(np.array([-1.0, 0.0]))
        assert np.isfinite(out).all()
        assert len(calls) >= 1

    def test_probe_gives_up_after_five_halvings(self):
        from emtgis.coordinator import _make_probe
        from emtgis.errors import NonFinite

        def residual_fn(xv):
            raise AssertionError("should never be evaluated")

        x = np.array([0.1999, 0.0])  # already below the floor: hopeless
        probe = _make_probe(x, np.zeros(2), residual_fn, omega_base=1e-6)
        with pytest.raises(NonFinite):
            probe(np.array([1.0, 0.0]))


class TestOuterStepGuard:
    def test_out_of_basin_repro_raises_typed_error_with_trace(self):
        case = parse_case(overloaded_hybrid_doc(), name="overloaded")
        n = len(case.grbcs)
        x0 = np.concatenate([np.ones(n), np.zeros(n)])
        with pytest.raises(OuterStepRejected) as exc:
            jfng_solve(case, case.grbcs, x0)
        trace = exc.value.trace
        assert trace.status == "step_rejected"
        assert trace.outer_iterations >= 1
        assert exc.value.halvings == coordinator_module.OUTER_HALVINGS

    def test_step_leaving_the_basin_is_halved_back_into_it(self, ninebus1, monkeypatch):
        # Stretch the first Newton step so it lands at |V| = 0.1 pu, below
        # the floor; halving it once brings it back to 0.55 pu.
        real_gmres, real_residual = coordinator_module.gmres_m, coordinator_module.residual
        calls, seen = [], []

        def stretched_gmres(phi, probe, M, cfg):
            dx, M, info = real_gmres(phi, probe, M, cfg)
            if not calls:
                dx = dx * (0.1 - 1.0) / dx[0]
            calls.append(dx)
            return dx, M, info

        def recording_residual(problem, grbcs, x, layout):
            seen.append(np.array(x))
            return real_residual(problem, grbcs, x, layout)

        monkeypatch.setattr(coordinator_module, "gmres_m", stretched_gmres)
        monkeypatch.setattr(coordinator_module, "residual", recording_residual)
        x0 = np.array([1.0, 0.0])
        state, trace = jfng_solve(ninebus1, ninebus1.grbcs, x0)
        assert trace.status == "converged"
        assert min(x[0] for x in seen) >= coordinator_module.VOLTAGE_FLOOR
        assert any(x[0] == pytest.approx(0.55) for x in seen)
        mono = solve_monolithic(ninebus1)
        got = Phasor(state.x[0], state.x[1]).rect
        assert got == pytest.approx(mono.voltage("B10").rect, abs=1e-6)
