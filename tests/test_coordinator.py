import ast
import copy
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import emtgis.coordinator as coordinator_module
from emtgis.coordinator import (
    JfngConfig,
    Preconditioner,
    directional_difference,
    gmres_m,
    jfng_solve,
    precond_update,
    residual,
)
from conftest import overloaded_hybrid_doc
from emtgis.errors import MaxOuterExceeded, NonFinite, OuterStepRejected
from emtgis.grbc import parse_declaration
from emtgis.netmodel import BusKind, BusRecord, Phasor, build_admittance, parse_case
from emtgis.powerflow import solve_monolithic


def oracle_boundary_x(case, mono):
    n = len(case.grbcs)
    x = np.zeros(2 * n)
    for i, g in enumerate(case.grbcs):
        ph = mono.voltage(g.boundary_bus)
        x[i], x[n + i] = ph.magnitude, ph.angle
    return x


class TestResidual:
    def test_consistent_tearing_gives_zero_residual(self, ninebus1):
        mono = solve_monolithic(ninebus1, tol=1e-12)
        x = oracle_boundary_x(ninebus1, mono)
        state = residual(ninebus1, ninebus1.grbcs, x, pf_tol=1e-12)
        assert np.linalg.norm(state.phi) < 1e-8

    def test_phi_is_sum_of_both_sides(self, twobus):
        # main pushes ~0.1 pu into a torn no-load boundary held slightly low;
        # a constant response of -0.4 must leave exactly p_main - 0.4
        case = copy.deepcopy(twobus)
        case.buses[1] = BusRecord("B2", BusKind.BOUNDARY, 230.0)
        case.grbcs = [parse_declaration({
            "name": "s", "boundary_bus": "B2", "kind": "ScriptedResponse",
            "payload": {"p": -0.4, "q": 0.0}})]
        x = np.array([0.98, -0.03])
        state = residual(case, case.grbcs, x, pf_tol=1e-12)
        assert state.phi[0] == pytest.approx(state.p[0] - 0.4, abs=1e-14)
        assert state.phi[1] == pytest.approx(state.q[0] + 0.0, abs=1e-14)

    def test_repeated_evaluations_agree_bitwise(self, ninebus3):
        x = np.array([1.01, 0.99, 1.0, 0.02, -0.03, 0.01])
        a = residual(ninebus3, ninebus3.grbcs, x)
        b = residual(ninebus3, ninebus3.grbcs, x)
        assert np.array_equal(a.phi, b.phi)
        assert np.array_equal(a.main_solution.vm, b.main_solution.vm)
        assert np.array_equal(a.main_solution.va, b.main_solution.va)

    def test_shared_admittance_matrix_gives_the_same_residual(self, ninebus3):
        x = np.array([1.01, 0.99, 1.0, 0.02, -0.03, 0.01])
        a = residual(ninebus3, ninebus3.grbcs, x)
        b = residual(ninebus3, ninebus3.grbcs, x, ybus=build_admittance(ninebus3))
        assert np.array_equal(a.phi, b.phi)


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
        m = Preconditioner(np.eye(2))
        out = precond_update(m, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        assert np.array_equal(out.m_matrix, np.eye(2))

    def test_two_by_two_hand_case(self):
        m = Preconditioner(np.eye(2))
        out = precond_update(m, np.array([1.0, 0.0]), np.array([2.0, 0.0]))
        assert out.m_matrix == pytest.approx(np.array([[0.5, 0.0], [0.0, 1.0]]))
        assert out.m_matrix @ np.array([2.0, 0.0]) == pytest.approx(
            np.array([1.0, 0.0]))

    def test_degenerate_denominator_skips(self):
        # M dphi orthogonal to dx -> guard path, M unchanged
        m = Preconditioner(np.eye(2))
        out = precond_update(m, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert np.array_equal(out.m_matrix, np.eye(2))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_secant_property_randomized(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        m = np.eye(n) + 0.3 * rng.normal(size=(n, n)) / math.sqrt(n)
        dx = rng.normal(size=n)
        dphi = rng.normal(size=n)
        out = precond_update(Preconditioner(m), dx, dphi)
        if not np.array_equal(out.m_matrix, m):  # skipped if degenerate
            err = np.linalg.norm(out.m_matrix @ dphi - dx)
            assert err <= 1e-10 * max(1.0, np.linalg.norm(dx))


class TestGmres:
    def test_identity_probe_converges_in_one_step(self):
        phi = -np.array([1.0, 0.0, 0.0])
        dx, m, info = gmres_m(phi, lambda z: z, Preconditioner(np.eye(3)),
                              JfngConfig())
        assert info.converged and info.iterations == 1
        assert info.rho_history[-1] == pytest.approx(0.0, abs=1e-14)
        assert dx == pytest.approx(np.array([1.0, 0.0, 0.0]), abs=1e-14)

    def test_diagonal_system_matches_direct_solve(self):
        a = np.diag([2.0, 4.0])
        r0 = np.array([2.0, 4.0])
        dx, _, info = gmres_m(-r0, lambda z: a @ z, Preconditioner(np.eye(2)),
                              JfngConfig(eps2=1e-12))
        assert info.converged
        assert dx == pytest.approx(np.linalg.solve(a, r0), abs=1e-10)

    def test_single_step_restart_residual_formula(self):
        # with m = 1 the least-squares residual equals
        # min_alpha ||r0 - alpha A r0||, computable by hand
        a = np.diag([2.0, 4.0])
        r0 = np.array([2.0, 4.0])
        dx, _, info = gmres_m(-r0, lambda z: a @ z, Preconditioner(np.eye(2)),
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
                                  Preconditioner(np.eye(n)), cfg)
            assert info.converged
            eps_g = cfg.eps2 * np.linalg.norm(r0)
            assert np.linalg.norm(a @ dx - r0) <= eps_g


class TestJfngSolve:
    def test_preconverged_start_exits_without_corrections(self, ninebus1):
        mono = solve_monolithic(ninebus1, tol=1e-12)
        x0 = oracle_boundary_x(ninebus1, mono)
        state, trace = jfng_solve(ninebus1, ninebus1.grbcs, x0,
                                  JfngConfig(), pf_tol=1e-12)
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
        })
        sc = parse_declaration({
            "name": "r", "boundary_bus": "B2", "kind": "ScriptedResponse",
            "payload": {
                "p": ["*", -y_region.real, ["pow", "V", 2]],
                "q": ["*", y_region.imag, ["pow", "V", 2]],
            },
        })
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
            gmres_m(phi, lambda z: a @ z, Preconditioner(np.eye(3)),
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

        def recording_residual(case, grbcs, x, **kw):
            seen.append(np.array(x))
            return real_residual(case, grbcs, x, **kw)

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
