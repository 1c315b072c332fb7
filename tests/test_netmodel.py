import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import case_path, doc_with, scaled_case
from emtgis.errors import OracleUnavailable, SingularNetwork
from emtgis.grbc import GrbcKind, internal_pf_case
from emtgis.netmodel import (
    BranchRecord,
    BusKind,
    BusRecord,
    CaseFile,
    Phasor,
    admittance_rows,
    build_admittance,
    inline_grbcs,
    load_case,
    normalize_angle,
    parse_case,
    validate_case,
)
from reference_powerflow import reference_admittance


def make_case(buses, branches, machines=(), grbcs=()):
    return CaseFile(100.0, 50.0, list(buses), list(branches), list(machines),
                    list(grbcs))


class TestPhasor:
    def test_angle_normalized_into_half_open_interval(self):
        assert Phasor(1.0, math.pi).angle == pytest.approx(math.pi)
        assert Phasor(1.0, -math.pi).angle == pytest.approx(math.pi)
        assert Phasor(1.0, 3 * math.pi).angle == pytest.approx(math.pi)
        assert Phasor(1.0, 2 * math.pi).angle == pytest.approx(0.0, abs=1e-15)

    def test_negative_magnitude_flips_angle(self):
        p = Phasor(-2.0, 0.25)
        assert p.magnitude == 2.0
        assert p.angle == pytest.approx(normalize_angle(0.25 + math.pi))

    @given(st.floats(1e-9, 1e3), st.floats(-50.0, 50.0))
    @settings(max_examples=300, deadline=None)
    def test_polar_rect_round_trip(self, mag, ang):
        p = Phasor(mag, ang)
        q = Phasor.from_complex(p.rect)
        assert q.magnitude == pytest.approx(p.magnitude, rel=1e-12)
        # compare as complex to avoid branch-cut issues at +-pi
        assert cmath.isclose(q.rect, p.rect, rel_tol=1e-12)


class TestValidation:
    def test_duplicate_bus_id(self):
        case = make_case(
            [BusRecord("B1", BusKind.SLACK, 230.0, v_set=1.0),
             BusRecord("B1", BusKind.PQ, 230.0)],
            [BranchRecord("B1", "B1", 0.0, 0.1)],
        )
        codes = validate_case(case).codes()
        assert codes.count("DuplicateId") == 1

    def test_bundled_demo_case_is_clean(self, ninebus1):
        assert validate_case(ninebus1).ok

    def test_boundary_owned_twice(self, ninebus1):
        import copy

        case = copy.deepcopy(ninebus1)
        dup = copy.deepcopy(case.grbcs[0])
        case.grbcs.append(dup)
        assert "BoundaryMultiplyOwned" in validate_case(case).codes()

    def test_zero_impedance_branch_and_bad_tap(self):
        case = make_case(
            [BusRecord("B1", BusKind.SLACK, 230.0, v_set=1.0),
             BusRecord("B2", BusKind.PQ, 230.0)],
            [BranchRecord("B1", "B2", 0.0, 0.0, tap=-1.0)],
        )
        codes = validate_case(case).codes()
        assert "ZeroImpedanceBranch" in codes
        assert "BadTap" in codes

    def test_unknown_bus_reference(self):
        case = make_case(
            [BusRecord("B1", BusKind.SLACK, 230.0, v_set=1.0)],
            [BranchRecord("B1", "NOPE", 0.0, 0.1)],
        )
        assert "UnknownBusRef" in validate_case(case).codes()

    def test_island_without_slack(self):
        case = make_case(
            [BusRecord("B1", BusKind.SLACK, 230.0, v_set=1.0),
             BusRecord("B2", BusKind.PQ, 230.0),
             BusRecord("B3", BusKind.PQ, 230.0),
             BusRecord("B4", BusKind.PQ, 230.0)],
            [BranchRecord("B1", "B2", 0.01, 0.1),
             BranchRecord("B3", "B4", 0.01, 0.1)],
        )
        assert "SlackCount" in validate_case(case).codes()

    def test_boundary_not_declared(self):
        case = make_case(
            [BusRecord("B1", BusKind.SLACK, 230.0, v_set=1.0),
             BusRecord("B2", BusKind.BOUNDARY, 230.0)],
            [BranchRecord("B1", "B2", 0.01, 0.1)],
        )
        assert "BoundaryNotDeclared" in validate_case(case).codes()

    # (case, path to the number in its document, the violation's subject):
    # one number of each record kind the parsers read, the case's own, a
    # main bus, branch and machine, a white-box payload and its bus, branch
    # and machine, an HVDC payload, and a constant nested in a scripted
    # region's p and in its q.
    NON_FINITE = [
        ("ninebus1", ("frequency_hz",), "ninebus1.frequency_hz"),
        ("ninebus1", ("buses", 4, "p_load"), "B5.p_load"),
        ("ninebus1", ("branches", 1, "x"), "B4-B5.x"),
        ("hybrid", ("machines", 1, "xd_transient"), "B2.xd_transient"),
        ("ninebus3", ("grbcs", 1, "payload", "pf_tol"), "plant2.pf_tol"),
        ("ninebus3", ("grbcs", 1, "payload", "buses", 1, "q_load"), "plant2/W3.q_load"),
        ("ninebus3", ("grbcs", 1, "payload", "branches", 0, "r"), "plant2/B11-W2.r"),
        ("ninebus3", ("grbcs", 1, "payload", "machines", 0, "inertia_h"),
         "plant2/W2.inertia_h"),
        ("hybrid", ("grbcs", 2, "payload", "p_dc"), "dclink.p_dc"),
        ("hybrid", ("grbcs", 1, "payload", "p", 1, 1), "plant2.p"),
        ("hybrid", ("grbcs", 1, "payload", "q", 1, 1), "plant2.q"),
    ]

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=str)
    @pytest.mark.parametrize("name, path, subject", NON_FINITE,
                             ids=[s for _, _, s in NON_FINITE])
    def test_non_finite_number(self, name, path, subject, value):
        # NaN passes every sign test, so each gets a violation of its own.
        case = parse_case(doc_with(name, path, value), name)
        found = [(v.code, v.subject) for v in validate_case(case).violations]
        assert ("NonFiniteValue", subject) in found
        assert found.count(("NonFiniteValue", subject)) == 1


class TestAdmittance:
    def test_two_bus_pure_reactance(self):
        # y = 1/(j0.1) = -j10
        case = make_case(
            [BusRecord("B1", BusKind.SLACK, 230.0, v_set=1.0),
             BusRecord("B2", BusKind.PQ, 230.0)],
            [BranchRecord("B1", "B2", 0.0, 0.1)],
        )
        y = build_admittance(case)
        assert y[0, 0] == pytest.approx(-10j, abs=1e-12)
        assert y[0, 1] == pytest.approx(10j, abs=1e-12)
        assert y[1, 1] == pytest.approx(-10j, abs=1e-12)

    def test_single_bus_pure_shunt(self):
        case = make_case([BusRecord("B1", BusKind.SLACK, 230.0, v_set=1.0,
                                    shunt_b=0.5)], [])
        y = build_admittance(case)
        assert y[0, 0] == pytest.approx(0.5j, abs=1e-15)

    def test_unit_tap_symmetry(self, ninebus1):
        y = build_admittance(ninebus1)
        assert np.max(np.abs(y - y.T)) < 1e-12

    def test_series_only_rows_sum_to_zero(self):
        case = make_case(
            [BusRecord("B1", BusKind.SLACK, 230.0, v_set=1.0),
             BusRecord("B2", BusKind.PQ, 230.0),
             BusRecord("B3", BusKind.PQ, 230.0)],
            [BranchRecord("B1", "B2", 0.01, 0.1),
             BranchRecord("B2", "B3", 0.02, 0.2)],
        )
        y = build_admittance(case)
        assert np.max(np.abs(y.sum(axis=1))) < 1e-9

    def test_isolated_bus_raises(self):
        case = make_case(
            [BusRecord("B1", BusKind.SLACK, 230.0, v_set=1.0),
             BusRecord("B2", BusKind.PQ, 230.0),
             BusRecord("B3", BusKind.PQ, 230.0)],
            [BranchRecord("B1", "B2", 0.01, 0.1)],
        )
        with pytest.raises(SingularNetwork):
            build_admittance(case)

    def test_permutation_consistency(self, ninebus1):
        y = build_admittance(ninebus1)
        shuffled = CaseFile(
            ninebus1.base_mva, ninebus1.frequency_hz,
            list(reversed(ninebus1.buses)), ninebus1.branches,
            ninebus1.machines, ninebus1.grbcs,
        )
        y2 = build_admittance(shuffled)
        ids, ids2 = [b.id for b in ninebus1.buses], [b.id for b in shuffled.buses]
        perm = [ids2.index(b) for b in ids]
        assert np.max(np.abs(y2[np.ix_(perm, perm)] - y)) < 1e-15

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_passive_network_dissipates(self, seed):
        # Re(v^H Y v) >= 0 whenever branch r >= 0 and shunt_g >= 0
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        buses = [BusRecord(f"B{i}", BusKind.SLACK if i == 0 else BusKind.PQ,
                           230.0, v_set=1.0 if i == 0 else None,
                           shunt_g=float(rng.uniform(0, 0.5)),
                           shunt_b=float(rng.uniform(-0.5, 0.5)))
                 for i in range(n)]
        branches = [
            BranchRecord(f"B{i}", f"B{int(rng.integers(0, i))}",
                         float(rng.uniform(0, 0.1)), float(rng.uniform(0.01, 0.5)),
                         b_half=float(rng.uniform(0, 0.2)))
            for i in range(1, n)
        ]
        y = build_admittance(make_case(buses, branches))
        for _ in range(5):
            v = rng.normal(size=n) + 1j * rng.normal(size=n)
            assert np.real(np.vdot(v, y @ v)) >= -1e-12


def problem_cases(case):
    """`case`, its white-box regions' internal cases and, unless a region
    is opaque, the inlined whole system: every case a power flow of it
    assembles an admittance for."""
    cases = [case] + [internal_pf_case(g) for g in case.grbcs
                      if g.kind is GrbcKind.WHITE_BOX_NETWORK]
    try:
        cases.append(inline_grbcs(case))
    except OracleUnavailable:
        pass
    return cases


class TestAdmittanceRows:
    """`admittance_rows`, and the dense matrix `build_admittance` scatters
    from them, against the stamping loop they replaced: bit for bit."""

    @staticmethod
    def assert_matches_stamping_loop(case):
        try:
            want = reference_admittance(case)
        except SingularNetwork:
            with pytest.raises(SingularNetwork):
                admittance_rows(case)
            return
        rows = admittance_rows(case)
        assert build_admittance(case).tobytes() == want.tobytes()
        assert build_admittance(case, rows).tobytes() == want.tobytes()
        for i, row in enumerate(rows):
            cols = [k for k, _ in row]
            assert cols == np.flatnonzero(want[i]).tolist()
            got = np.array([y for _, y in row], dtype=complex)
            assert got.tobytes() == want[i, cols].tobytes()

    @pytest.mark.parametrize("name", ("twobus", "ninebus1", "ninebus2", "ninebus3", "hybrid"))
    def test_bundled_cases(self, name):
        for case in problem_cases(load_case(case_path(name))):
            self.assert_matches_stamping_loop(case)

    def test_scaled_k8(self):
        cases = problem_cases(scaled_case(8, 1))
        assert len(cases) == 2 + 24
        for case in cases:
            self.assert_matches_stamping_loop(case)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_networks(self, seed):
        # Parallel and self-loop branches, off-nominal taps, shunts that
        # are zero half the time and buses that may be left unconnected.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        buses = [BusRecord(f"B{i}", BusKind.PQ, 230.0,
                           shunt_g=float(rng.choice([0.0, rng.uniform(0.0, 0.3)])),
                           shunt_b=float(rng.choice([0.0, rng.uniform(-0.5, 0.5)])))
                 for i in range(n)]
        branches = [
            BranchRecord(f"B{int(rng.integers(0, n))}", f"B{int(rng.integers(0, n))}",
                         float(rng.choice([0.0, rng.uniform(0.0, 0.1)])),
                         float(rng.uniform(0.01, 0.5)),
                         b_half=float(rng.choice([0.0, rng.uniform(0.0, 0.2)])),
                         tap=float(rng.choice([1.0, rng.uniform(0.9, 1.1)])))
            for _ in range(int(rng.integers(0, 2 * n + 1)))]
        self.assert_matches_stamping_loop(make_case(buses, branches))


class TestInline:
    def test_inlined_case_has_no_regions_or_boundaries(self, ninebus1):
        flat = inline_grbcs(ninebus1)
        assert flat.grbcs == []
        assert all(b.kind is not BusKind.BOUNDARY for b in flat.buses)
        assert any(b.id.startswith("wind1/") for b in flat.buses)

    def test_region_machine_keeps_its_damping(self, ninebus3):
        # plant2 holds a classical machine at W2 with the default damping 2.0
        decls = []
        for g in ninebus3.grbcs:
            if g.name == "plant2":
                net = g.payload.network
                machines = tuple(m._replace(damping=7.5) for m in net.machines)
                g = replace(g, payload=g.payload._replace(network=net._replace(machines=machines)))
            decls.append(g)
        flat = inline_grbcs(replace(ninebus3, grbcs=decls))
        (machine,) = [m for m in flat.machines if m.bus == "plant2/W2"]
        assert machine.damping == 7.5
        assert machine.inertia_h > 0.0

    def test_parse_rejects_malformed_document(self):
        from emtgis.errors import CaseFormatError

        with pytest.raises(CaseFormatError):
            parse_case({"base_mva": 100.0})
