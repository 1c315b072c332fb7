import json
import math
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from conftest import case_path
from hypothesis import given, settings
from hypothesis import strategies as st

import emtgis.cli as cli
import emtgis.grbc as grbc_module
import emtgis.netmodel as netmodel_module
import emtgis.powerflow as powerflow_module
from emtgis.errors import GrbcPayloadError, InternalNonConvergence, InvalidVoltage, NonConvergence
from emtgis.grbc import (
    GrbcKind,
    adapter_is_opaque,
    evaluate,
    eval_expr,
    internal_pf_case,
    parse_declaration,
    validate_expr,
)
from emtgis.netmodel import Phasor, load_case
from emtgis.powerflow import PowerFlowProblem, solve_main, solve_monolithic


def scripted(name="s1", p=None, q=None, bus="B2"):
    return parse_declaration({
        "name": name, "boundary_bus": bus, "kind": "ScriptedResponse",
        "payload": {"p": p if p is not None else -0.5,
                    "q": q if q is not None else -0.1},
    }, 100.0, 50.0)


def white_box(bus="B2", oracle=True):
    # single generator held at fixed magnitude behind x = 0.2
    return parse_declaration({
        "name": "wb", "boundary_bus": bus, "kind": "WhiteBoxNetwork",
        "payload": {
            "oracle": oracle,
            "buses": [{"id": "G1", "kind": "PV", "base_kv": 230.0,
                       "v_set": 1.05}],
            "branches": [{"from": bus, "to": "G1", "r": 0.0, "x": 0.2}],
            "machines": [{"bus": "G1", "kind": "SynchronousSimplified",
                          "xd_transient": 0.1, "p_set": 0.3, "v_set": 1.05,
                          "inertia_h": 1.0}],
        },
    }, 100.0, 50.0)


def hvdc(p_dc=1.0, tan_phi=0.5):
    return parse_declaration({
        "name": "dc", "boundary_bus": "B2", "kind": "SimplifiedHvdcTerminal",
        "payload": {"p_dc": p_dc, "tan_phi": tan_phi},
    }, 100.0, 50.0)


class TestExpressionGrammar:
    def test_full_operator_set(self):
        expr = ["+", ["*", 2.0, ["pow", "V", 2]],
                ["-", ["/", ["sin", "theta"], 2.0], ["cos", "theta"]]]
        validate_expr(expr)
        v, th = 1.1, 0.3
        expected = 2 * v**2 + (math.sin(th) / 2 - math.cos(th))
        assert eval_expr(expr, v, th) == pytest.approx(expected, rel=1e-15)

    def test_unary_minus(self):
        assert eval_expr(["-", "V"], 1.5, 0.0) == -1.5

    @pytest.mark.parametrize("bad", [
        ["nope", 1, 2],
        ["sin", 1, 2],
        ["+", 1],
        "voltage",
        [],
        {"op": "+"},
    ])
    def test_malformed_expressions_rejected(self, bad):
        with pytest.raises(GrbcPayloadError):
            validate_expr(bad)


class TestEvaluate:
    def test_constant_pq_response(self):
        decl = scripted()
        for v in (Phasor(0.9, -0.2), Phasor(1.1, 0.4)):
            out = evaluate(decl, v)
            assert (out.p_tilde, out.q_tilde) == (-0.5, -0.1)

    def test_zero_magnitude_rejected(self):
        with pytest.raises(InvalidVoltage):
            evaluate(scripted(), Phasor(0.0, 0.0))

    def test_white_box_matches_monolithic_oracle(self, twobus):
        # tear the two-bus case at B2 and hang the generator region there;
        # the un-torn whole network is the oracle
        import copy

        from emtgis.netmodel import BusKind, BusRecord

        case = copy.deepcopy(twobus)
        case.buses[1] = BusRecord("B2", BusKind.BOUNDARY, 230.0)
        decl = white_box()
        case.grbcs = [decl]
        mono = solve_monolithic(case)
        v_b = mono.voltage("B2")
        out = evaluate(decl, v_b)
        # oracle: whatever the whole solve says flows region -> boundary,
        # which must cancel the main-side delivery at the torn node
        from emtgis.powerflow import boundary_injections

        torn = solve_main(PowerFlowProblem(case), [v_b.magnitude], [v_b.angle], tol=1e-12)
        p_main, q_main = boundary_injections(torn, case)["B2"]
        assert out.p_tilde == pytest.approx(-p_main, abs=1e-8)
        assert out.q_tilde == pytest.approx(-q_main, abs=1e-8)

    def test_hvdc_terminal_formula(self):
        out = evaluate(hvdc(), Phasor(1.0, 0.0))
        assert (out.p_tilde, out.q_tilde) == (-1.0, -0.5)

    def test_hvdc_holds_order_inside_band(self):
        for v in (0.9, 1.0, 1.1):
            out = evaluate(hvdc(), Phasor(v, 0.0))
            assert out.p_tilde == -1.0

    def test_hvdc_derates_linearly_below_band(self):
        out = evaluate(hvdc(), Phasor(0.45, 0.0))
        assert out.p_tilde == pytest.approx(-0.5)
        assert out.q_tilde == pytest.approx(-0.25)

    def test_purity(self):
        decl = white_box()
        v = Phasor(1.01, 0.03)
        a, b = evaluate(decl, v), evaluate(decl, v)
        assert (a.p_tilde, a.q_tilde) == (b.p_tilde, b.q_tilde)

    def test_concurrent_evaluation_across_declarations(self):
        decls = [scripted(f"s{i}", p=["*", -0.1 * (i + 1), "V"]) for i in range(8)]
        v = Phasor(1.0, 0.1)
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda d: evaluate(d, v), decls))
        for i, r in enumerate(results):
            assert r.p_tilde == pytest.approx(-0.1 * (i + 1))


class TestOpacity:
    def test_scripted_is_opaque(self):
        assert adapter_is_opaque(scripted()) is True

    def test_white_box_oracle_is_transparent(self):
        assert adapter_is_opaque(white_box(oracle=True)) is False

    def test_white_box_non_oracle_is_opaque(self):
        assert adapter_is_opaque(white_box(oracle=False)) is True

    def test_hvdc_is_opaque(self):
        assert adapter_is_opaque(hvdc()) is True


class TestInternalFailure:
    def test_unservable_internal_load_reports_nonconvergence(self):
        from emtgis.errors import InternalNonConvergence

        decl = parse_declaration({
            "name": "heavy", "boundary_bus": "B2", "kind": "WhiteBoxNetwork",
            "payload": {
                "buses": [{"id": "W", "kind": "PQ", "base_kv": 230.0,
                           "p_load": 50.0}],
                "branches": [{"from": "B2", "to": "W", "r": 0.02, "x": 0.3}],
            },
        }, 100.0, 50.0)
        with pytest.raises(InternalNonConvergence):
            evaluate(decl, Phasor(1.0, 0.0))

    @pytest.mark.parametrize("p", [["/", 1, ["-", "V", 1]], ["pow", 10, 400],
                                   ["pow", -1, 0.5], ["*", 1e308, 10],
                                   ["sin", ["*", 1e308, 10]]],
                             ids=["zero-division", "overflow", "complex", "inf", "sin-inf"])
    def test_scripted_response_without_a_finite_real_value(self, p):
        decl = parse_declaration({"name": "s", "boundary_bus": "B2",
                                  "kind": "ScriptedResponse", "payload": {"p": p, "q": 0.1}},
                                 100.0, 50.0)
        with pytest.raises(InternalNonConvergence, match="region 's' is not evaluable"):
            evaluate(decl, Phasor(1.0, 0.0))


BUNDLED = ("ninebus1", "ninebus2", "ninebus3", "hybrid")


class TestInternalCase:
    def test_base_and_frequency_come_from_the_declaring_case(self, tmp_path):
        # A bundled case edited to 60 Hz and 50 MVA: every region's internal
        # case, and the power-flow problem built from it, reads the edits.
        doc = json.loads(Path(case_path("ninebus3")).read_text())
        doc["frequency_hz"], doc["base_mva"] = 60.0, 50.0
        path = tmp_path / "ninebus3-60hz.json"
        path.write_text(json.dumps(doc))
        regions = [g for g in load_case(path).grbcs if g.kind is GrbcKind.WHITE_BOX_NETWORK]
        assert len(regions) == 3
        for decl in regions:
            internal = internal_pf_case(decl)
            assert (internal.frequency_hz, internal.base_mva) == (60.0, 50.0)
            assert (decl.pf_problem.case.frequency_hz, decl.pf_problem.case.base_mva) == (
                60.0, 50.0)


def white_box_regions(name):
    return [g for g in load_case(case_path(name)).grbcs
            if g.kind is GrbcKind.WHITE_BOX_NETWORK]


class TestStoredProblem:
    """A white-box declaration builds its power-flow problem once and every
    internal solve reuses it; results equal the reference path, a fresh
    `internal_pf_case` solved by `solve_main` through a fresh problem."""

    REGIONS = [g for name in BUNDLED for g in white_box_regions(name)]

    @given(st.floats(0.8, 1.2), st.floats(-1.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_evaluate_equals_the_reference_path_bitwise(self, vm, va):
        v = Phasor(vm, va)
        for decl in self.REGIONS:
            try:
                ref = solve_main(PowerFlowProblem(internal_pf_case(decl)), [v.magnitude],
                                 [v.angle], tol=decl.payload.pf_tol, max_iter=60)
            except NonConvergence:
                with pytest.raises(InternalNonConvergence):
                    evaluate(decl, v)
                continue
            out = evaluate(decl, v)
            p, q = ref.injection(decl.boundary_bus)
            assert (out.p_tilde, out.q_tilde) == (-p, -q)
            for field in ("vm", "va", "p_calc", "q_calc"):
                assert np.array_equal(getattr(out.internal_pf, field), getattr(ref, field))

    @pytest.mark.parametrize("name", BUNDLED)
    def test_evaluate_keeps_no_state_between_calls(self, name):
        v1, v2 = Phasor(1.02, 0.1), Phasor(0.93, -0.35)
        for decl in white_box_regions(name):
            first = evaluate(decl, v1)
            problem = decl.pf_problem
            evaluate(decl, v2)
            assert evaluate(decl, v1) == first
            assert decl.pf_problem is problem

    def test_other_kinds_have_no_problem(self):
        with pytest.raises(GrbcPayloadError):
            scripted().pf_problem

    @pytest.mark.parametrize("name", BUNDLED)
    def test_ipf_builds_each_problem_once(self, name, monkeypatch, tmp_path):
        # One admittance assembly per problem, the main's and each white-box
        # region's.  Only the main, of more than SCALAR_MAX_UNKNOWNS unknowns,
        # scatters it into a dense matrix; the regions solve on scalars.
        cases, rows, dense = [], [], []
        real_case = internal_pf_case
        real_rows, real_dense = netmodel_module.admittance_rows, netmodel_module.build_admittance

        def counted_case(decl):
            cases.append(decl.name)
            return real_case(decl)

        def counted_rows(case):
            rows.append(case.name)
            return real_rows(case)

        def counted_dense(case, *args):
            dense.append(case.name)
            return real_dense(case, *args)

        monkeypatch.setattr(grbc_module, "internal_pf_case", counted_case)
        for mod in (powerflow_module, netmodel_module):
            monkeypatch.setattr(mod, "admittance_rows", counted_rows)
            monkeypatch.setattr(mod, "build_admittance", counted_dense)
        assert cli.main(["ipf", case_path(name), "--out", str(tmp_path)]) == 0
        white = [g.name for g in white_box_regions(name)]
        assert cases == white
        assert sorted(rows) == sorted([name, *(f"{w}-internal" for w in white)])
        assert dense == [name]
