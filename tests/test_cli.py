import json
import math
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import emtgis.emtkernel as ek
import emtgis.powerflow as powerflow_module
from emtgis import snapshot as sn
from emtgis.cli import average_relative_deviation
from emtgis.errors import IncompatibleSnapshot

from conftest import (case_path, cli_env, doc_with, overloaded_hybrid_doc,
                      phasor_consistency_error)
from reference_compare import reference_deviations, reference_window


def run_cli(*args, cwd=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "emtgis", *map(str, args)],
        capture_output=True, text=True, timeout=300, cwd=cwd, env=cli_env(),
    )


def read_json(path):
    return json.loads(Path(path).read_text())


def assert_one_line_error(proc):
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


@pytest.fixture(scope="module")
def overloaded(tmp_path_factory):
    path = tmp_path_factory.mktemp("case") / "overloaded.json"
    path.write_text(json.dumps(overloaded_hybrid_doc()))
    return path


class TestValidate:
    def test_clean_case(self, tmp_path):
        out = run_cli("validate", case_path("ninebus1"), "--out", tmp_path / "v")
        assert out.returncode == 0
        doc = read_json(tmp_path / "v" / "validation.json")
        assert doc["ok"] is True and doc["violations"] == []

    def test_broken_case(self, tmp_path):
        bad = tmp_path / "bad.json"
        doc = read_json(case_path("twobus"))
        doc["buses"].append(doc["buses"][0])
        bad.write_text(json.dumps(doc))
        out = run_cli("validate", bad, "--out", tmp_path / "v")
        assert out.returncode == 1
        assert "DuplicateId" in out.stderr

    def test_directory_as_case_is_one_line(self, tmp_path):
        out = run_cli("validate", tmp_path, "--out", tmp_path / "v")
        assert out.returncode == 1
        assert_one_line_error(out)
        assert out.stderr.strip() == f"error: cannot open {tmp_path}: Is a directory"

    def test_non_object_payload_is_one_line(self, tmp_path):
        doc = read_json(case_path("ninebus1"))
        doc["grbcs"][0]["payload"] = 1.5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = run_cli("validate", bad, "--out", tmp_path / "v")
        assert out.returncode == 1
        assert_one_line_error(out)
        assert "payload of region 'wind1' is not an object" in out.stderr

    def test_non_string_operator_is_bad_expression(self, tmp_path):
        doc = read_json(case_path("hybrid"))
        scripted = next(g for g in doc["grbcs"] if g["kind"] == "ScriptedResponse")
        scripted["payload"]["p"] = [["V"], "V"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = run_cli("validate", bad, "--out", tmp_path / "v")
        assert out.returncode == 1
        assert "Traceback" not in out.stderr
        violations = read_json(tmp_path / "v" / "validation.json")["violations"]
        assert [(v["code"], v["subject"]) for v in violations] == [
            ("BadExpression", f"{scripted['name']}.p")]


class TestIpf:
    def test_bundled_case_converges(self, tmp_path):
        out = run_cli("ipf", case_path("ninebus1"), "--out", tmp_path)
        assert out.returncode == 0
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert lines[0] == "outer_iter,inner_iters,phi_norm,rho_final"
        norms = [float(l.split(",")[2]) for l in lines[1:]]
        assert all(b < a for a, b in zip(norms, norms[1:]))
        boundary = read_json(tmp_path / "boundary.json")
        assert set(boundary) == {"B10"}
        assert set(boundary["B10"]) == {"v_pu", "theta_rad", "p_main",
                                        "p_grbc", "q_main", "q_grbc"}
        # both-side injections cancel at convergence
        assert abs(boundary["B10"]["p_main"] + boundary["B10"]["p_grbc"]) < 1e-6

    def test_missing_case_file(self, tmp_path):
        out = run_cli("ipf", tmp_path / "nope.json", "--out", tmp_path)
        assert out.returncode == 1
        assert "case file not found" in out.stderr

    def test_outer_budget_exhaustion_maps_to_exit_2(self, tmp_path):
        out = run_cli("ipf", case_path("ninebus1"), "--out", tmp_path,
                      "--max-outer", "0")
        assert out.returncode == 2
        assert_one_line_error(out)
        assert (tmp_path / "trace.csv").exists()

    def test_zero_region_case(self, tmp_path):
        out = run_cli("ipf", case_path("twobus"), "--out", tmp_path)
        assert out.returncode == 0
        assert read_json(tmp_path / "boundary.json") == {}


class TestInit:
    def test_bundled_case_produces_consistent_snapshot(self, tmp_path):
        out = run_cli("init", case_path("ninebus1"), "--out", tmp_path)
        assert out.returncode == 0
        from emtgis.snapshot import load_snapshot

        snap = load_snapshot(tmp_path / "snapshot.json")
        assert phasor_consistency_error(snap) <= 1e-12
        report = read_json(tmp_path / "report.json")
        assert report["ipf"]["status"] == "converged"
        assert report["splice_deviations"]["B10"] < 1e-4

    def test_region_timeout_maps_to_exit_3(self, tmp_path):
        out = run_cli("init", case_path("ninebus1"), "--out", tmp_path,
                      "--ramp-budget", "0.2")
        assert out.returncode == 3
        assert_one_line_error(out)
        report = read_json(tmp_path / "report.json")
        assert report["failed_stage"] == "ramp_to_snapshot"

    def test_zero_region_case_is_phasor_only(self, tmp_path):
        out = run_cli("init", case_path("twobus"), "--out", tmp_path)
        assert out.returncode == 0
        snap = read_json(tmp_path / "snapshot.json")
        assert snap["provenance"] == "PhasorInit"


@pytest.fixture(scope="module")
def initialized(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("init")
    assert run_cli("init", case_path("ninebus1"), "--out", out_dir).returncode == 0
    return out_dir


def version_2(doc):
    """A snapshot file in version 2's layout: hist_u, hist_i and
    machine_emf where version 3 holds i_hist."""
    state = {k: v for k, v in doc["state"].items() if k != "i_hist"}
    state.update(hist_u=[[0.0] * 3 for _ in state["element_ids"]],
                 hist_i=state["elem_i"], machine_emf=[1.0 for _ in state["machine_ids"]])
    return {**doc, "version": 2, "state": state}


class TestSimulate:

    def test_from_snapshot_holds_flat_rms(self, initialized, tmp_path):
        out = run_cli("simulate", case_path("ninebus1"),
                      "--snapshot", initialized / "snapshot.json",
                      "--duration", "0.2", "--probes", "B5,B10",
                      "--out", tmp_path)
        assert out.returncode == 0
        rows = (tmp_path / "waveforms.csv").read_text().splitlines()
        header = rows[0].split(",")
        i = header.index("B5.a")
        y = np.array([float(r.split(",")[i]) for r in rows[1:]])
        n = 400
        cyc = y[: len(y) // n * n].reshape(-1, n)
        rms = np.sqrt((cyc**2).mean(axis=1))
        assert np.max(np.abs(rms - rms[-1])) / rms[-1] < 5e-3

    def test_missing_snapshot_is_not_called_a_case_file(self, tmp_path):
        missing = tmp_path / "missing.json"
        out = run_cli("simulate", case_path("twobus"), "--snapshot", missing,
                      "--out", tmp_path)
        assert out.returncode == 1
        assert_one_line_error(out)
        assert out.stderr.strip() == f"error: file not found: {missing}"

    def test_directory_as_snapshot_is_one_line(self, tmp_path):
        out = run_cli("simulate", case_path("twobus"), "--snapshot", tmp_path,
                      "--out", tmp_path / "out")
        assert out.returncode == 1
        assert_one_line_error(out)
        assert out.stderr.strip() == f"error: cannot open {tmp_path}: Is a directory"

    def test_zero_state_run(self, tmp_path):
        out = run_cli("simulate", case_path("twobus"), "--zero-state",
                      "--duration", "0.1", "--out", tmp_path)
        assert out.returncode == 0
        assert read_json(tmp_path / "manifest.json")["outputs"] == ["waveforms.csv"]

    def test_fault_flag_produces_transient(self, initialized, tmp_path):
        out = run_cli("simulate", case_path("ninebus1"),
                      "--snapshot", initialized / "snapshot.json",
                      "--duration", "0.2", "--fault", "B7@0.1@0.02",
                      "--probes", "B7", "--out", tmp_path)
        assert out.returncode == 0
        rows = (tmp_path / "waveforms.csv").read_text().splitlines()
        y = np.array([float(r.split(",")[1]) for r in rows[1:]])
        k = int(round(0.1 / 5e-5))
        assert np.max(np.abs(y[k + 50:])) < 0.7 * np.max(np.abs(y[:k]))

    def test_incompatible_snapshot_maps_to_exit_4(self, initialized, tmp_path):
        out = run_cli("simulate", case_path("ninebus1"),
                      "--snapshot", initialized / "snapshot.json",
                      "--dt", "1e-4", "--duration", "0.05",
                      "--out", tmp_path)
        assert out.returncode == 4
        assert_one_line_error(out)

    def test_unbalanced_snapshot_maps_to_exit_4(self, hybrid_comparison, tmp_path):
        # Phase a of one node voltage moved by 1e-6 pu: a zero-sequence part
        # far above ZERO_SEQUENCE_TOL of the peak, which two axes cannot hold.
        path = tmp_path / "snapshot.json"
        sn.save_snapshot(hybrid_comparison["result"].snapshot, path)
        doc = read_json(path)
        doc["state"]["v_nodes"][3][0] += 1e-6
        path.write_text(json.dumps(doc))
        out = run_cli("simulate", case_path("hybrid"), "--snapshot", path,
                      "--duration", "0.01", "--out", tmp_path / "out")
        assert out.returncode == 4
        assert_one_line_error(out)
        assert "not a balanced set" in out.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("where, value", [
        (("state", "v_nodes", 3), [math.nan] * 3),
        (("state", "machine_delta", 0), math.inf),
        (("dt",), math.nan),
        (("frequency_hz",), math.nan),
        (("boundary_phasors", "B10", 2), math.nan),
    ], ids=["node-voltage", "machine-delta", "dt", "frequency", "boundary-phasor"])
    def test_non_finite_snapshot_maps_to_exit_4(self, hybrid_comparison, tmp_path,
                                                where, value):
        # Once loaded, a NaN node voltage ran to a waveforms.csv of NaN, an
        # infinite rotor angle warned from numpy, and a NaN dt passed the dt
        # check, each with exit 0.
        path = tmp_path / "snapshot.json"
        sn.save_snapshot(hybrid_comparison["result"].snapshot, path)
        doc = read_json(path)
        *keys, last = where
        target = doc
        for key in keys:
            target = target[key]
        target[last] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(IncompatibleSnapshot, match="not finite"):
            sn.load_snapshot(path)
        out = run_cli("simulate", case_path("hybrid"), "--snapshot", path,
                      "--duration", "0.02", "--out", tmp_path / "out")
        assert out.returncode == 4
        assert_one_line_error(out)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("machines", [
        lambda state: {"machine_ids": ["ghost"] + state["machine_ids"][1:]},
        lambda state: {f: [] for f in ("machine_ids", "machine_delta",
                                       "machine_speed_dev", "machine_pm")},
    ], ids=["renamed", "emptied"])
    def test_foreign_machine_set_maps_to_exit_4(self, hybrid_comparison, tmp_path,
                                                machines):
        # Nodes, elements and dt fit the case; its machines do not.
        path = tmp_path / "snapshot.json"
        sn.save_snapshot(hybrid_comparison["result"].snapshot, path)
        doc = read_json(path)
        doc["state"].update(machines(doc["state"]))
        path.write_text(json.dumps(doc))
        out = run_cli("simulate", case_path("hybrid"), "--snapshot", path,
                      "--duration", "0.01", "--out", tmp_path / "out")
        assert out.returncode == 4
        assert_one_line_error(out)
        assert "machine set differs" in out.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("malform", [
        lambda doc: "{not json",
        lambda doc: "[1, 2]",
        lambda doc: {"version": 1, "subsystem": "x"},
        lambda doc: {**doc, "version": 1},
        lambda doc: {k: v for k, v in doc.items() if k != "parts"},
        lambda doc: {**doc, "state": {k: v for k, v in doc["state"].items() if k != "i_hist"}},
        version_2,
        lambda doc: {**doc, "dt": "5e-05"},
        lambda doc: {**doc, "timestamp_steps": 1.5},
        lambda doc: {**doc, "state": {**doc["state"], "node_ids": 5}},
        lambda doc: {**doc, "state": {**doc["state"], "v_nodes": doc["state"]["v_nodes"][1:]}},
        lambda doc: {**doc, "state": {**doc["state"], "elem_i": [[0.0, 0.0]]}},
        lambda doc: {**doc, "state": {**doc["state"], "machine_pm": [1.0]}},
        lambda doc: {**doc, "boundary_phasors": {"B10": [1.0, 0.0]}},
    ], ids=["not-json", "not-an-object", "version-1-stub", "version-1", "missing-key",
            "missing-field", "version-2", "string-dt", "fractional-step", "ids-not-a-list",
            "rows-short-of-ids", "ragged-phases", "machine-without-id", "phasor-short"])
    def test_malformed_snapshot_maps_to_exit_4(self, initialized, tmp_path, malform):
        # On the snapshot's own case, so only the malformation can fail it.
        bad = malform(read_json(initialized / "snapshot.json"))
        path = tmp_path / "bad.json"
        path.write_text(bad if isinstance(bad, str) else json.dumps(bad))
        out = run_cli("simulate", case_path("ninebus1"), "--snapshot", path,
                      "--duration", "0.01", "--out", tmp_path / "out")
        assert out.returncode == 4
        assert_one_line_error(out)
        assert not (tmp_path / "out").exists()

    def test_requires_exactly_one_start_mode(self, tmp_path):
        out = run_cli("simulate", case_path("twobus"), "--out", tmp_path)
        assert out.returncode == 1

    def test_t_ramp_with_snapshot_is_an_input_error(self, initialized, tmp_path):
        out = run_cli("simulate", case_path("ninebus1"),
                      "--snapshot", initialized / "snapshot.json", "--t-ramp", "0.5",
                      "--duration", "0.05", "--out", tmp_path / "out")
        assert out.returncode == 1
        assert_one_line_error(out)
        assert "--t-ramp" in out.stderr
        assert not (tmp_path / "out").exists()

    def test_only_a_zero_state_manifest_records_the_ramp(self, initialized, tmp_path):
        starts = {"snapshot": ("--snapshot", initialized / "snapshot.json"),
                  "zero": ("--zero-state",)}
        flags = {}
        for name, start in starts.items():
            out = run_cli("simulate", case_path("ninebus1"), *start, "--duration", "0.05",
                          "--out", tmp_path / name)
            assert out.returncode == 0, out.stderr
            flags[name] = read_json(tmp_path / name / "manifest.json")["flags"]
        assert "t_ramp" not in flags["snapshot"]
        # `sn.ramp_length` of ninebus1's full net: no machine swings
        assert flags["zero"]["t_ramp"] == 0.04


class TestAverageRelativeDeviation:
    def test_identical_waveforms_deviate_by_exactly_zero(self):
        a = np.sin(np.linspace(0.0, 7.0, 101))
        assert average_relative_deviation(a, a.copy()) == 0.0

    def test_sum_of_deviations_over_sum_of_the_reference(self):
        # |a - b| sums to 3, |b| to 5
        got = average_relative_deviation(np.array([1.0, -2.0, 3.0]),
                                         np.array([2.0, -2.0, 1.0]))
        assert got == 3.0 / 5.0

    def test_all_zero_reference_takes_the_plain_sum(self):
        assert average_relative_deviation(np.array([1.0, -2.0]), np.zeros(2)) == 3.0


class TestCompare:
    def test_unsettleable_budget_maps_to_exit_5(self, tmp_path):
        out = run_cli("compare", case_path("ninebus1"), "--settle-cap", "0.1",
                      "--out", tmp_path)
        assert out.returncode == 5
        assert_one_line_error(out)


class TestCompareFixedRotor:
    """The zero-state baseline starts only swinging rotors (inertia_h > 0)
    at zero angle.  A machine without inertia is a source at its state's
    angle all run, so it keeps its power-flow angle; started at zero, it
    settled hybrid's baseline with B2 fixed at another operating point, its
    largest deviation 1.22e-2 against 4.90e-5."""

    def test_baseline_keeps_a_fixed_rotor_at_its_power_flow_angle(self, tmp_path):
        from emtgis.cli import main

        path = case_with("hybrid", tmp_path, ("machines", 1, "inertia_h"), 0.0)
        assert read_json(path)["machines"][1]["bus"] == "B2"
        assert main(["compare", str(path), "--out", str(tmp_path / "out")]) == 0
        deviations = read_json(tmp_path / "out" / "compare.json")["deviations"]
        assert max(deviations.values()) < 1e-3


class TestOneZeroState:
    """`simulate --zero-state` and `compare`'s baseline step the full net
    from one start state, `sn.zero_start`'s: each swinging rotor at angle
    0, each fixed one at its power-flow angle."""

    class Started(Exception):
        """Raised at a run's first step of the full net, its start caught."""

    @pytest.mark.parametrize("fixed_b2", [False, True], ids=["hybrid", "hybrid-fixed-B2"])
    def test_simulate_and_compare_start_from_one_state(self, fixed_b2, tmp_path, monkeypatch):
        from emtgis.cli import main

        path = (case_with("hybrid", tmp_path, ("machines", 1, "inertia_h"), 0.0)
                if fixed_b2 else case_path("hybrid"))
        starts = []

        def caught(run):
            def first_full_step(net, cfg, init=None):
                if net.name.endswith(":full"):  # the kernel's own start if init is None
                    starts.append((net, ek.zero_state(net, cfg.dt) if init is None else init))
                    raise self.Started
                return run(net, cfg, init)
            return first_full_step

        monkeypatch.setattr(ek, "run", caught(ek.run))
        monkeypatch.setattr(ek, "run_until_steady", caught(ek.run_until_steady))
        for command in (["simulate", str(path), "--zero-state"], ["compare", str(path)]):
            with pytest.raises(self.Started):
                main([*command, "--out", str(tmp_path / command[0])])
        (net, simulated), (_, compared) = starts
        for name, value in vars(compared).items():
            if isinstance(value, np.ndarray):
                assert getattr(simulated, name).tobytes() == value.tobytes(), name
            else:
                assert getattr(simulated, name) == value, name
        (b2,) = [i for i, m in enumerate(net.machines) if m.bus == "B2"]
        assert net.machines[b2].delta0 != 0.0
        assert compared.machine_delta[b2] == (net.machines[b2].delta0 if fixed_b2 else 0.0)


class TestCompareWindow:
    """Each run of `compare` steps to w0 recording nothing, then records
    the window [w0, w1] with the fault.  The record-every-step-then-slice
    comparison of `reference_compare` is its oracle."""

    @staticmethod
    def compare(tmp_path, *flags):
        from emtgis.cli import main

        code = main(["compare", case_path("hybrid"), *flags, "--out", str(tmp_path)])
        return code, tmp_path / "compare.json"

    @pytest.mark.parametrize("fault", [None, "B7@5.5"], ids=["no-fault", "fault"])
    def test_matches_the_record_all_reference(self, hybrid_comparison, tmp_path, fault):
        from emtgis.cli import _parse_fault

        c = hybrid_comparison
        code, path = self.compare(tmp_path, *(("--fault", fault) if fault else ()))
        assert code == 0
        doc = read_json(path)
        # the reference starts from the same two states
        assert doc["steps_to_steady"]["gis"] == c["result"].report["gis_cost_steps"]
        assert doc["steps_to_steady"]["zero_state"] == c["zero_fired"]
        event = _parse_fault(fault, c["dt"]) if fault else None
        w0, w1 = reference_window(c["zero_state"].step, c["dt"], c["case"].period, 0.1,
                                  event)
        assert doc["window_steps"] == [w0, w1]
        expected = reference_deviations(c["result"].model.full_net,
                                        c["result"].snapshot.emt_state, c["zero_state"],
                                        c["probes"], c["dt"], w0, w1, event)
        assert doc["deviations"].keys() == expected.keys()
        assert max(expected.values()) > 1e-5
        # A deviation is a mean |a - b| over a mean |b|, already relative to
        # the waveforms' size.  Splitting a run at w0 rebuilds its step
        # buffer from the state there, which moves the window's samples by
        # rounding (about 3e-14 of their peak here), and a deviation by
        # about as much.  A window slipped by one step moves some deviation
        # by 6e-8 or more.
        for key, value in expected.items():
            assert abs(doc["deviations"][key] - value) <= 1e-12, key

    def test_only_the_window_is_recorded(self, tmp_path, monkeypatch):
        configs = []
        run = ek.run

        def recorded(net, cfg, init=None):
            configs.append(cfg)
            return run(net, cfg, init)

        monkeypatch.setattr(ek, "run", recorded)
        code, path = self.compare(tmp_path, "--fault", "B7@5.5")
        assert code == 0
        w0, w1 = read_json(path)["window_steps"]
        recording = [cfg for cfg in configs if cfg.record]
        assert len(recording) == 2
        assert all(cfg.steps <= w1 - w0 for cfg in recording)

    def test_snapshot_past_the_window_is_an_input_error(self, hybrid_comparison, tmp_path,
                                                        monkeypatch, capsys):
        result = hybrid_comparison["result"]
        late = replace(result.snapshot.emt_state, step=10**7)
        monkeypatch.setattr(sn, "run_emtgis", lambda case, model, cfg: result._replace(
            snapshot=replace(result.snapshot, emt_state=late)))
        code, path = self.compare(tmp_path)
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: the window starts at step")
        assert not path.exists()


class TestFailureExits:
    """The overloaded hybrid case has no operating point near the start."""

    def test_ipf_coordination_failure_exits_2_with_its_trace(self, overloaded, tmp_path):
        out = run_cli("ipf", overloaded, "--out", tmp_path)
        assert out.returncode == 2
        assert_one_line_error(out)
        assert "outer Newton step rejected" in out.stderr
        rows = (tmp_path / "trace.csv").read_text().splitlines()
        assert rows[0] == "outer_iter,inner_iters,phi_norm,rho_final" and len(rows) > 1
        assert read_json(tmp_path / "manifest.json")["outputs"] == ["trace.csv"]

    @pytest.mark.parametrize("command", [("init",), ("compare",),
                                         ("simulate", "--zero-state")])
    def test_pipeline_commands_exit_3_naming_the_failed_stage(self, overloaded,
                                                             tmp_path, command):
        out = run_cli(*command, overloaded, "--out", tmp_path)
        assert out.returncode == 3
        assert_one_line_error(out)
        assert read_json(tmp_path / "report.json")["failed_stage"] == "ipf"

    @pytest.mark.parametrize("p", [["/", 1, ["-", "V", 1]], ["pow", 10, 400],
                                   ["pow", -1, 0.5]],
                             ids=["zero-division", "overflow", "complex"])
    def test_unevaluable_scripted_region_exits_2_with_its_trace(self, tmp_path, capsys, p):
        # plant2's p has no finite real value at the flat start: the
        # coordinator fails at once, naming the region.
        from emtgis.cli import main

        doc = read_json(case_path("hybrid"))
        (plant2,) = [g for g in doc["grbcs"] if g["name"] == "plant2"]
        plant2["payload"]["p"] = p
        path = tmp_path / "scripted.json"
        path.write_text(json.dumps(doc))
        assert main(["ipf", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert "region 'plant2' is not evaluable" in err[0]
        assert (tmp_path / "out" / "trace.csv").exists()

    def test_unknown_probe_is_an_input_error(self, tmp_path):
        out = run_cli("simulate", case_path("twobus"), "--zero-state", "--probes", "NOPE",
                      "--duration", "0.01", "--out", tmp_path)
        assert out.returncode == 1
        assert_one_line_error(out)


def overflowing_load(name):
    """twobus with B2's load, or ninebus1 with region wind1's W1 load, at
    1e200 pu: the first Newton mismatch overflows."""
    doc = read_json(case_path(name))
    buses = doc["buses"] if name == "twobus" else next(
        g for g in doc["grbcs"] if g["name"] == "wind1")["payload"]["buses"]
    next(b for b in buses if b["id"] in ("B2", "W1"))["p_load"] = 1e200
    return doc


class TestOverflowingLoad:
    """An overflow in a Newton solve is a solve that does not converge:
    `ipf` exits 2 and `init` 3 with one `error:` line and no warning, on
    the main system (twobus) and in a region (ninebus1), whether Newton
    runs on Python scalars or, with the cut-off at 0, on numpy arrays."""

    @pytest.mark.parametrize("cut_off", [powerflow_module.SCALAR_MAX_UNKNOWNS, 0],
                             ids=["scalar", "numpy"])
    @pytest.mark.parametrize("name", ["twobus", "ninebus1"])
    @pytest.mark.parametrize("command, code", [("ipf", 2), ("init", 3)])
    def test_exits_with_one_error_line(self, tmp_path, capsys, monkeypatch, name, cut_off,
                                       command, code):
        from emtgis.cli import main

        monkeypatch.setattr(powerflow_module, "SCALAR_MAX_UNKNOWNS", cut_off)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(overflowing_load(name)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning, numpy's included, fails the run
            assert main([command, str(path), "--out", str(tmp_path / "out")]) == code
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert "did not converge" in err[0]
        if command == "ipf":
            assert (tmp_path / "out" / "trace.csv").exists()


def case_with(name, tmp_path, path, value):
    """`doc_with(name, path, value)` written to a file in tmp_path."""
    out = tmp_path / f"{name}.json"
    out.write_text(json.dumps(doc_with(name, path, value)))
    return out


class TestCoordinatorOverflow:
    """An overflow in the coordinator's own arithmetic is a coordination
    failure: `ipf` exits 2 with one `error:` line, no warning, and the
    trace.  A finite r of 1e300 on B5-B12 overflows a probe direction's
    norm, so its probe step scale is 0; a finite p_dc of 1e300 overflows
    the residual's norm."""

    @pytest.mark.parametrize("path, message", [
        (("branches", 11, "r"), "probe step scale 0.0"),
        (("grbcs", 2, "payload", "p_dc"), "residual's norm overflows"),
    ], ids=["B5-B12.r", "dclink.p_dc"])
    def test_ipf_exits_2_with_one_line(self, tmp_path, capsys, path, message):
        from emtgis.cli import main

        case = case_with("hybrid", tmp_path, path, 1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning, numpy's included, fails the run
            assert main(["ipf", str(case), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0], err
        assert (tmp_path / "out" / "trace.csv").exists()


class TestNonFiniteCase:
    """A NaN or infinite number in a case is an input error: `validate`
    reports its NonFiniteValue violation on one line, `init` exits 1 with
    one `error:` line and writes no --out, before any solve could warn."""

    @pytest.mark.parametrize("name, path, value, subject", [
        ("ninebus1", ("branches", 1, "x"), math.inf, "B4-B5.x"),
        ("hybrid", ("machines", 1, "xd_transient"), math.nan, "B2.xd_transient"),
    ], ids=["B4-B5.x", "B2.xd_transient"])
    def test_validate_and_init_exit_1(self, tmp_path, capsys, name, path, value, subject):
        from emtgis.cli import main

        case = case_with(name, tmp_path, path, value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["validate", str(case), "--out", str(tmp_path / "v")]) == 1
            err = capsys.readouterr().err.strip().splitlines()
            assert err == [f"NonFiniteValue: {subject}: {path[-1]} must be finite, got {value}"]
            assert main(["init", str(case), "--out", str(tmp_path / "init")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: invalid case: NonFiniteValue({subject})"]
        assert not (tmp_path / "init").exists()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
    @pytest.mark.parametrize("which", ["p", "q"])
    def test_constant_nested_in_a_scripted_expression(self, tmp_path, capsys, which, value):
        # plant2's p is ["-", ["+", 0.2, ["*", 0.05, ["pow", "V", 2]]]] and
        # its q ["-", ["+", 0.06, ["*", 0.02, ["sin", "theta"]]]]: the
        # constant 0.2 or 0.06, two levels down, becomes `value`.
        from emtgis.cli import main

        case = case_with("hybrid", tmp_path, ("grbcs", 1, "payload", which, 1, 1), value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["validate", str(case), "--out", str(tmp_path / "v")]) == 1
            err = capsys.readouterr().err.strip().splitlines()
            assert err == [f"NonFiniteValue: plant2.{which}: every constant of {which} "
                           f"must be finite, got {value}"]
            assert main(["ipf", str(case), "--out", str(tmp_path / "ipf")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: invalid case: NonFiniteValue(plant2.{which})"]
        assert not (tmp_path / "ipf").exists()


class TestOutOfMemory:
    """A run too large for memory is an input error: exit 1, one `error:`
    line.  1e9 s at the default dt is 2e13 steps, whose array of times
    alone takes more than 2**47 bytes; a cycle at dt 1e-14 s is 2e12
    steps, whose region ramp's stack of buffers takes more than that too.
    No host's address space holds them, so the allocation fails at once,
    inside a pipeline stage for `init`."""

    @pytest.mark.parametrize("case, command", [
        ("twobus", ("simulate", "--zero-state", "--duration", "1e9")),
        ("twobus", ("compare", "--window", "1e9")),
        ("ninebus1", ("init", "--dt", "1e-14")),
    ], ids=["simulate", "compare", "init"])
    def test_exits_1_with_one_line(self, tmp_path, capsys, case, command):
        from emtgis.cli import main

        assert 1e9 / sn.PipelineConfig.dt * 8 > 2**47
        assert 0.02 / 1e-14 * 3 * 4 * 8 > 2**47  # buffers of at least the oscillator's 4 rows
        code = main([command[0], case_path(case), *command[1:],
                     "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: not enough memory: "), err


class TestInvalidCase:
    @pytest.mark.parametrize("command", [("ipf",), ("init",),
                                         ("simulate", "--zero-state"), ("compare",)])
    def test_exits_1_with_one_line_naming_the_violations(self, tmp_path, command):
        bad = tmp_path / "broken.json"
        doc = read_json(case_path("twobus"))
        doc["buses"].append(doc["buses"][0])
        bad.write_text(json.dumps(doc))
        out = run_cli(*command, bad, "--out", tmp_path / "out")
        assert out.returncode == 1
        assert_one_line_error(out)
        assert out.stderr.strip() == \
            "error: invalid case: DuplicateId(B1); SlackCount(B1,B2)"


class TestInvalidDt:
    @pytest.mark.parametrize("command", [("init",), ("simulate", "--zero-state"),
                                         ("compare",)], ids=["init", "simulate", "compare"])
    def test_dt_that_does_not_divide_the_period_exits_1(self, tmp_path, capsys, command):
        from emtgis.cli import main

        code = main([command[0], case_path("ninebus1"), *command[1:], "--dt", "3e-5",
                     "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: the period 0.02 s is not an integer multiple of dt 3e-05 s"]
        assert not (tmp_path / "report.json").exists()


class TestTooFewStepsPerPeriod:
    """A --dt that divides the period into fewer than 4 steps is an input
    error with a true message: exit 1, one `error:` line, no --out, no
    report.json.  0.02 s is exactly 2 steps of 0.01 s."""

    @pytest.mark.parametrize("case, command", [
        ("ninebus1", ("init",)),
        ("twobus", ("init",)),
        ("twobus", ("simulate", "--zero-state")),
        ("twobus", ("compare",)),
    ], ids=["init", "init-region-free", "simulate", "compare"])
    def test_exits_1_and_leaves_no_directory(self, tmp_path, capsys, case, command):
        from emtgis.cli import main

        out = tmp_path / "out"
        code = main([command[0], case_path(case), *command[1:], "--dt", "0.01",
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: dt 0.01 s leaves 2 steps per period 0.02 s, fewer than 4"]
        assert not out.exists()


class TestProbesNamingNone:
    """A --probes that names no probe is an input error: exit 1, one
    `error:` line, no --out."""

    @pytest.mark.parametrize("probes", [",,", ""], ids=["commas", "empty"])
    def test_simulate_exits_1(self, tmp_path, capsys, probes):
        self._exits_1(tmp_path, capsys, ["simulate", case_path("twobus"), "--zero-state",
                                         "--duration", "0.02", "--probes", probes])

    @pytest.mark.parametrize("probes", [",,", " , "], ids=["commas", "blanks"])
    def test_compare_exits_1(self, tmp_path, capsys, probes):
        self._exits_1(tmp_path, capsys, ["compare", case_path("twobus"), "--window", "0.02",
                                         "--probes", probes])

    @staticmethod
    def _exits_1(tmp_path, capsys, argv):
        from emtgis.cli import main

        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: --probes '{argv[-1]}' names no probe"]
        assert not out.exists()


class TestInputErrorWritesNothing:
    """An input error found in the pipeline exits 1 with one `error:` line
    and leaves no --out directory: a command creates it only to write its
    outputs."""

    @pytest.mark.parametrize("command", [("init",), ("simulate", "--zero-state"),
                                         ("compare",)], ids=["init", "simulate", "compare"])
    @pytest.mark.parametrize("error", ["dt", "invalid-case"])
    def test_exits_1_and_leaves_no_directory(self, tmp_path, capsys, command, error):
        from emtgis.cli import main

        case, extra = case_path("ninebus1"), ["--dt", "3e-5"]
        if error == "invalid-case":
            doc = read_json(case_path("twobus"))
            doc["buses"].append(doc["buses"][0])
            case, extra = tmp_path / "broken.json", []
            case.write_text(json.dumps(doc))
        out = tmp_path / "out"
        code = main([command[0], str(case), *command[1:], *extra, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert not out.exists()


class TestValidateOnce:
    """Each command validates its case once: `snapshot.system_model` does
    for init, simulate and compare, and `cmd_ipf`, which runs no system
    model, does for ipf."""

    @pytest.mark.parametrize("command", [
        ("ipf",), ("init",), ("simulate", "--zero-state", "--duration", "0.01"), ("compare",),
    ], ids=["ipf", "init", "simulate", "compare"])
    def test_one_validate_case_call(self, tmp_path, monkeypatch, command):
        import emtgis.cli as cli
        import emtgis.netmodel as nm

        calls = []

        def counted(case, _validate=nm.validate_case):
            calls.append(case.name)
            return _validate(case)

        for module in (cli, sn, nm):
            monkeypatch.setattr(module, "validate_case", counted)
        code = cli.main([command[0], case_path("hybrid"), *command[1:],
                         "--out", str(tmp_path)])
        assert code == 0
        assert calls == ["hybrid"]


class TestInvalidCoordinatorFlags:
    @pytest.mark.parametrize("flag, value", [("--tol-eps1", "inf"), ("--tol-eps2", "nan"),
                                             ("--omega", "nan"), ("--max-outer", "-1")])
    def test_exits_1_with_one_line(self, tmp_path, flag, value):
        out = run_cli("ipf", case_path("ninebus1"), flag, value,
                      "--out", tmp_path)
        assert out.returncode == 1
        assert_one_line_error(out)
        assert not (tmp_path / "trace.csv").exists()


class TestInvalidTimeFlags:
    """A time flag that is not finite and positive is an input error, found
    before the power flow runs: nothing is written."""

    @pytest.mark.parametrize("command, flag, value", [
        (("init",), "--t-ramp", "0"),
        (("init",), "--t-ramp", "nan"),
        (("init",), "--ramp-budget", "inf"),
        (("init",), "--dt", "-0.0001"),
        (("simulate", "--zero-state"), "--duration", "-1"),
        (("simulate", "--zero-state"), "--dt", "0"),
        (("compare",), "--settle-cap", "0"),
        (("compare",), "--window", "nan"),
    ])
    def test_exits_1_naming_the_flag(self, tmp_path, command, flag, value):
        out = run_cli(*command, case_path("ninebus1"), flag, value,
                      "--out", tmp_path / "out")
        assert out.returncode == 1
        assert_one_line_error(out)
        assert flag in out.stderr
        assert not (tmp_path / "out").exists()


class TestSpanShorterThanAStep:
    """A --window, --duration or --t-ramp that rounds to 0 steps at --dt is
    an input error, found before the power flow and any stepping: exit 1,
    one `error:` line naming the flag, no --out.  A ramp of 0 steps would
    run with sources at full scale from the first step."""

    @staticmethod
    def _exits_1_before_the_model(tmp_path, capsys, monkeypatch, argv, flag):
        import emtgis.snapshot as sn
        from emtgis.cli import main

        def no_model(*args, **kwargs):
            raise AssertionError("the system model was built")

        monkeypatch.setattr(sn, "system_model", no_model)
        out = tmp_path / "out"
        assert main([*argv, flag, "1e-9", "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {flag} 1e-09 s rounds to 0 steps of dt 5e-05 s"]
        assert not out.exists()

    def test_window_shorter_than_a_step_exits_1(self, tmp_path, capsys, monkeypatch):
        self._exits_1_before_the_model(tmp_path, capsys, monkeypatch,
                                       ["compare", case_path("hybrid")], "--window")

    def test_duration_shorter_than_a_step_exits_1(self, tmp_path, capsys, monkeypatch):
        self._exits_1_before_the_model(tmp_path, capsys, monkeypatch,
                                       ["simulate", case_path("hybrid"), "--zero-state"],
                                       "--duration")

    @pytest.mark.parametrize("command", [["init"], ["compare"], ["simulate", "--zero-state"]],
                             ids=["init", "compare", "simulate"])
    def test_t_ramp_shorter_than_a_step_exits_1(self, tmp_path, capsys, monkeypatch, command):
        self._exits_1_before_the_model(tmp_path, capsys, monkeypatch,
                                       [command[0], case_path("ninebus1"), *command[1:]],
                                       "--t-ramp")


class TestFaultAfterTheRun:
    """A simulate --fault at the run's last step or after it would change no
    sample, so it is an input error found before the power flow: exit 1,
    one `error:` line, no --out.  The run ends --duration after its start
    step, the snapshot's step on a --snapshot run."""

    @staticmethod
    def _exits_1_before_the_model(tmp_path, capsys, monkeypatch, argv, end):
        import emtgis.snapshot as sn
        from emtgis.cli import main

        def no_model(*args, **kwargs):
            raise AssertionError("the system model was built")

        monkeypatch.setattr(sn, "system_model", no_model)
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        fault = argv[argv.index("--fault") + 1]
        assert err == [f"error: --fault {fault} is not before the run's end at {end} s"]
        assert not out.exists()

    @pytest.mark.parametrize("fault", ["B2@0.5", "B2@0.02"], ids=["past-the-end", "at-the-end"])
    def test_fault_after_a_zero_state_run_exits_1(self, tmp_path, capsys, monkeypatch, fault):
        self._exits_1_before_the_model(
            tmp_path, capsys, monkeypatch,
            ["simulate", case_path("twobus"), "--zero-state", "--duration", "0.02",
             "--fault", fault], "0.02")

    def test_fault_after_a_snapshot_run_exits_1(self, initialized, tmp_path, capsys,
                                                 monkeypatch):
        snapshot = initialized / "snapshot.json"
        start = sn.load_snapshot(snapshot).emt_state.step
        end = f"{(start + 200) * 5e-5:g}"
        self._exits_1_before_the_model(
            tmp_path, capsys, monkeypatch,
            ["simulate", case_path("ninebus1"), "--snapshot", str(snapshot),
             "--duration", "0.01", "--fault", f"B7@{end}"], end)

    def test_fault_a_step_before_the_end_moves_the_last_sample(self, tmp_path):
        runs = {}
        for name, fault in (("clear", []), ("faulted", ["--fault", "B2@0.01995@0.01"])):
            out = run_cli("simulate", case_path("twobus"), "--zero-state", "--duration",
                          "0.02", *fault, "--out", tmp_path / name)
            assert out.returncode == 0, out.stderr
            runs[name] = (tmp_path / name / "waveforms.csv").read_text().splitlines()
        clear, faulted = runs["clear"], runs["faulted"]
        assert len(clear) == len(faulted) == 402  # the header and steps 0 .. 400
        assert clear[:-1] == faulted[:-1] and clear[-1] != faulted[-1]


class TestRampPastItsBudget:
    """A ramp that leaves a run no budget to settle in is an input error:
    exit 1, one `error:` line, no --out.  The ramp checked is the one the
    run takes, --t-ramp or else `ramp_length`'s.  A region ramp at or past
    --ramp-budget (init, compare; two cycles without --t-ramp) is found
    before the power flow; compare's zero-state ramp past --settle-cap
    (0.5 s on the hybrid full net, whose machine swings) after it, before
    any region ramps (`TestCompareChecksBeforeTheRamps`).  Before, `init
    ninebus1.json --t-ramp 7` stepped the whole 6 s budget, then exited 3
    and wrote report.json; given by default, `init ninebus1.json
    --ramp-budget 0.04` exited 3 and `compare hybrid.json --settle-cap
    0.3` exited 5."""

    @pytest.mark.parametrize("case, argv, before, message", [
        ("ninebus1", ("init", "--t-ramp", "7"), "jfng_solve",
         "the region ramp of 7.0 s is not shorter than the ramp budget 6.0 s"),
        ("ninebus1", ("init", "--t-ramp", "0.3", "--ramp-budget", "0.3"), "jfng_solve",
         "the region ramp of 0.3 s is not shorter than the ramp budget 0.3 s"),
        ("ninebus1", ("init", "--ramp-budget", "0.04"), "jfng_solve",
         "the region ramp of 0.04 s is not shorter than the ramp budget 0.04 s"),
        ("ninebus1", ("compare", "--t-ramp", "6"), "jfng_solve",
         "the region ramp of 6.0 s is not shorter than the ramp budget 6.0 s"),
        ("ninebus1", ("compare", "--t-ramp", "5", "--settle-cap", "4"), "settle_from_zero",
         "the zero-state ramp of 5.0 s is past --settle-cap 4.0 s"),
        ("hybrid", ("compare", "--settle-cap", "0.3"), "settle_from_zero",
         "the zero-state ramp of 0.5 s is past --settle-cap 0.3 s"),
    ], ids=["init-past", "init-at", "init-default-at", "compare-at", "compare-past-the-cap",
            "compare-default-past-the-cap"])
    def test_exits_1_before_the_model(self, tmp_path, capsys, monkeypatch, case, argv,
                                      before, message):
        from emtgis.cli import main

        def not_reached(*args, **kwargs):
            raise AssertionError(f"{before} ran")

        monkeypatch.setattr(sn, before, not_reached)
        out = tmp_path / "out"
        assert main([argv[0], case_path(case), *argv[1:], "--out", str(out)]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [f"error: {message}"]
        assert not out.exists()


class TestCompareFaultOnAnUnknownBus:
    """compare checks its --fault bus against the full net before the
    zero-state run settles: exit 1 with the kernel's message, nothing
    written."""

    def test_exits_1_before_the_settle(self, tmp_path, capsys, monkeypatch):
        from emtgis.cli import main

        def no_settle(*args, **kwargs):
            raise AssertionError("the zero-state run was settled")

        monkeypatch.setattr(sn, "settle_from_zero", no_settle)
        out = tmp_path / "out"
        assert main(["compare", case_path("hybrid"), "--fault", "NOPE@5.5",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            "error: fault targets unknown node 'NOPE'"]
        assert not out.exists()


class TestCompareChecksBeforeTheRamps:
    """compare checks its --fault bus and its zero-state ramp on the system
    model's full net after the power flow, before any region ramps: exit 1,
    one `error:` line, no --out and no `ramp_to_snapshot` call.  Before,
    both came after the whole pipeline, its region ramps included."""

    @pytest.mark.parametrize("case, argv, message", [
        ("hybrid", ("--fault", "NOPE@5.5"), "fault targets unknown node 'NOPE'"),
        ("ninebus1", ("--t-ramp", "5", "--settle-cap", "4"),
         "the zero-state ramp of 5.0 s is past --settle-cap 4.0 s"),
    ], ids=["unknown-fault-bus", "zero-state-ramp-past-the-cap"])
    def test_exits_1_before_any_region_ramps(self, tmp_path, capsys, monkeypatch, case, argv,
                                             message):
        from emtgis.cli import main

        ramps = []

        def counted(*args, _ramp=sn.ramp_to_snapshot):
            ramps.append(args[-1])
            return _ramp(*args)

        monkeypatch.setattr(sn, "ramp_to_snapshot", counted)
        out = tmp_path / "out"
        assert main(["compare", case_path(case), *argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [f"error: {message}"]
        assert not out.exists()
        assert ramps == []


class TestInvalidFaultSpecs:
    """A fault time must be finite and >= 0, a fault resistance positive
    (inf: no fault) and not NaN.  A bad spec is an input error found before
    the power flow runs: exit 1, one `error:` line, nothing written."""

    @pytest.mark.parametrize("spec", ["B7@inf", "B7@0.02@nan", "B7@-1", "B7@0.02@-1"])
    @pytest.mark.parametrize("command", [("simulate", "--zero-state", "--duration", "0.05"),
                                         ("compare",)], ids=["simulate", "compare"])
    def test_exits_1_with_one_line(self, tmp_path, command, spec):
        out = run_cli(command[0], case_path("ninebus1"), *command[1:], "--fault", spec,
                      "--out", tmp_path / "out")
        assert out.returncode == 1
        assert_one_line_error(out)
        assert spec in out.stderr
        assert not (tmp_path / "out").exists()

    def test_infinite_resistance_is_no_fault(self, tmp_path):
        # at a cycle's start and mid-cycle, where a kept event would end a chunk
        waves = []
        for name, fault in (("none", ()), ("inf", ("--fault", "B7@0.02@inf")),
                            ("inf-mid", ("--fault", "B7@0.0213@inf"))):
            out = run_cli("simulate", case_path("ninebus1"), "--zero-state",
                          "--duration", "0.05", "--probes", "B7", *fault,
                          "--out", tmp_path / name)
            assert out.returncode == 0, out.stderr
            waves.append((tmp_path / name / "waveforms.csv").read_bytes())
        assert waves[1] == waves[0] and waves[2] == waves[0]


class TestUsageErrors:
    """A usage error is an input error: exit 1, one `error:` line, nothing
    written."""

    @pytest.mark.parametrize("args", [
        ("validate", case_path("twobus"), "--bogus"),
        ("init", case_path("twobus"), "--dt", "abc"),
        (),
        ("validate", case_path("twobus"), "--gmres-m", "3"),
        *((*command, case_path("twobus"), "--quiet") for command in
          (("validate",), ("ipf",), ("init",), ("simulate", "--zero-state"), ("compare",))),
        ("compare", case_path("twobus"), "--self-check"),
    ], ids=["unknown-flag", "malformed-value", "no-subcommand", "flag-it-does-not-read",
            "removed-quiet-validate", "removed-quiet-ipf", "removed-quiet-init",
            "removed-quiet-simulate", "removed-quiet-compare", "removed-self-check"])
    def test_exits_1_with_one_line(self, tmp_path, args):
        out = run_cli(*args, cwd=tmp_path)
        assert out.returncode == 1
        assert_one_line_error(out)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_0(self, flag):
        out = run_cli(flag)
        assert out.returncode == 0 and out.stdout and not out.stderr


COORDINATOR_FLAGS = {"tol_eps1", "tol_eps2", "gmres_m", "omega", "max_outer"}
PIPELINE_FLAGS = COORDINATOR_FLAGS | {"dt", "t_ramp", "ramp_budget"}


class TestManifestFlags:
    """A manifest records exactly the flags its subcommand reads: every
    optional flag is given, so none is left out for being unset.  Every
    case coordinates, one without regions (twobus) too, so every command
    but validate reads the coordinator's flags."""

    @pytest.mark.parametrize("case, command, reads", [
        ("twobus", ("validate",), set()),
        ("twobus", ("ipf",), COORDINATOR_FLAGS),
        ("twobus", ("init", "--t-ramp", "0.5"), PIPELINE_FLAGS),
        ("twobus", ("simulate", "--zero-state", "--duration", "0.01", "--fault", "B2@0.005",
                    "--probes", "B2"),
         COORDINATOR_FLAGS | {"dt", "t_ramp", "zero_state", "duration", "fault", "probes"}),
        ("twobus", ("compare", "--t-ramp", "0.5", "--fault", "B2@1.0", "--probes", "B2"),
         PIPELINE_FLAGS | {"window", "settle_cap", "fault", "probes"}),
        ("ninebus1", ("simulate", "--zero-state", "--duration", "0.01", "--probes", "B7"),
         COORDINATOR_FLAGS | {"dt", "t_ramp", "zero_state", "duration", "probes"}),
    ], ids=["validate", "ipf", "init", "simulate", "compare", "simulate-with-a-region"])
    def test_flags_are_the_ones_read(self, tmp_path, case, command, reads):
        out = run_cli(command[0], case_path(case), *command[1:], "--out", tmp_path)
        assert out.returncode == 0, out.stderr
        flags = read_json(tmp_path / "manifest.json")["flags"]
        assert set(flags) == {"out"} | reads


class TestDeterminism:
    def test_ipf_reruns_are_byte_identical(self, tmp_path):
        # identical manifests (same relative out dir) from two working copies
        for d in ("a", "b"):
            (tmp_path / d).mkdir()
            proc = run_cli("ipf", case_path("ninebus2"), "--out", "out", cwd=tmp_path / d)
            assert proc.returncode == 0, proc.stderr
        for name in ("manifest.json", "boundary.json", "trace.csv",
                     "main_pf.csv"):
            assert (tmp_path / "a" / "out" / name).read_bytes() == \
                   (tmp_path / "b" / "out" / name).read_bytes(), name

    @pytest.mark.parametrize("name", ["twobus", "ninebus1"])
    def test_init_manifest_lists_its_outputs(self, tmp_path, name):
        assert run_cli("init", case_path(name), "--out", tmp_path).returncode == 0
        outputs = read_json(tmp_path / "manifest.json")["outputs"]
        assert outputs == ["report.json", "snapshot.json", "trace.csv"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json", *outputs]

    def test_manifest_records_command_and_flags(self, tmp_path):
        run_cli("ipf", case_path("twobus"), "--out", tmp_path)
        doc = read_json(tmp_path / "manifest.json")
        assert doc["tool"] == "emtgis"
        assert doc["command"] == "ipf"
        assert doc["case"].endswith("twobus.json")
        assert "outputs" in doc and "flags" in doc

    @pytest.mark.parametrize("name", ["ninebus2", "hybrid"])
    def test_in_process_ipf_reruns_are_byte_identical(self, tmp_path, name):
        # nothing may carry over from one coordination to the next
        from emtgis.cli import main

        for d in ("a", "b"):
            assert main(["ipf", case_path(name), "--out", str(tmp_path / d)]) == 0
        for artifact in ("boundary.json", "trace.csv", "main_pf.csv"):
            assert (tmp_path / "a" / artifact).read_bytes() == \
                   (tmp_path / "b" / artifact).read_bytes(), artifact

    def test_in_process_mains_share_one_parser(self, tmp_path, monkeypatch):
        # `main` reuses one parser per process.  A usage error, then init
        # at another dt, then init at the defaults: each run reads its own
        # flags, and writes the bytes a fresh process writes.
        from emtgis.cli import build_parser, main

        runs = {"dt": ("--dt", "1e-4"), "defaults": ()}
        (tmp_path / "in").mkdir()
        monkeypatch.chdir(tmp_path / "in")
        assert main(["init", case_path("ninebus1"), "--dt", "2e-4", "--bogus"]) == 1
        for name, flags in runs.items():
            assert main(["init", case_path("ninebus1"), *flags, "--out", name]) == 0
        assert build_parser.cache_info().misses <= 1
        assert not (tmp_path / "in" / "out").exists()
        for name, flags in runs.items():
            proc = run_cli("init", case_path("ninebus1"), *flags, "--out", name, cwd=tmp_path)
            assert proc.returncode == 0, proc.stderr
        for name in runs:
            manifest = read_json(tmp_path / "in" / name / "manifest.json")
            assert manifest["flags"]["dt"] == (1e-4 if name == "dt" else sn.PipelineConfig.dt)
            written = sorted(p.name for p in (tmp_path / name).iterdir())
            assert written == sorted(p.name for p in (tmp_path / "in" / name).iterdir())
            for artifact in written:
                assert (tmp_path / "in" / name / artifact).read_bytes() == \
                       (tmp_path / name / artifact).read_bytes(), (name, artifact)
