import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import case_path, cli_env, overloaded_hybrid_doc


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


class TestIpf:
    def test_bundled_case_converges(self, tmp_path):
        out = run_cli("ipf", case_path("ninebus1"), "--out", tmp_path, "--quiet")
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
                      "--max-outer", "0", "--quiet")
        assert out.returncode == 2
        assert_one_line_error(out)
        assert (tmp_path / "trace.csv").exists()

    def test_zero_region_case(self, tmp_path):
        out = run_cli("ipf", case_path("twobus"), "--out", tmp_path, "--quiet")
        assert out.returncode == 0
        assert read_json(tmp_path / "boundary.json") == {}


class TestInit:
    def test_bundled_case_produces_consistent_snapshot(self, tmp_path):
        out = run_cli("init", case_path("ninebus1"), "--out", tmp_path, "--quiet")
        assert out.returncode == 0
        from emtgis.snapshot import load_snapshot

        snap = load_snapshot(tmp_path / "snapshot.json")
        assert snap.phasor_consistency_error() < 1e-4
        report = read_json(tmp_path / "report.json")
        assert report["ipf"]["status"] == "converged"
        assert report["splice_deviations"]["B10"] < 1e-4

    def test_region_timeout_maps_to_exit_3(self, tmp_path):
        out = run_cli("init", case_path("ninebus1"), "--out", tmp_path,
                      "--ramp-budget", "0.2", "--quiet")
        assert out.returncode == 3
        assert_one_line_error(out)
        report = read_json(tmp_path / "report.json")
        assert report["failed_stage"] == "ramp_to_snapshot"

    def test_zero_region_case_is_phasor_only(self, tmp_path):
        out = run_cli("init", case_path("twobus"), "--out", tmp_path, "--quiet")
        assert out.returncode == 0
        snap = read_json(tmp_path / "snapshot.json")
        assert snap["provenance"] == "PhasorInit"


@pytest.fixture(scope="module")
def initialized(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("init")
    assert run_cli("init", case_path("ninebus1"), "--out", out_dir,
                   "--quiet").returncode == 0
    return out_dir


class TestSimulate:

    def test_from_snapshot_holds_flat_rms(self, initialized, tmp_path):
        out = run_cli("simulate", case_path("ninebus1"),
                      "--snapshot", initialized / "snapshot.json",
                      "--duration", "0.2", "--probes", "B5,B10",
                      "--out", tmp_path, "--quiet")
        assert out.returncode == 0
        rows = (tmp_path / "waveforms.csv").read_text().splitlines()
        header = rows[0].split(",")
        i = header.index("B5.a")
        y = np.array([float(r.split(",")[i]) for r in rows[1:]])
        n = 400
        cyc = y[: len(y) // n * n].reshape(-1, n)
        rms = np.sqrt((cyc**2).mean(axis=1))
        assert np.max(np.abs(rms - rms[-1])) / rms[-1] < 5e-3

    def test_zero_state_run(self, tmp_path):
        out = run_cli("simulate", case_path("twobus"), "--zero-state",
                      "--duration", "0.1", "--out", tmp_path, "--quiet")
        assert out.returncode == 0
        assert (tmp_path / "waveforms.emtw").exists()

    def test_fault_flag_produces_transient(self, initialized, tmp_path):
        out = run_cli("simulate", case_path("ninebus1"),
                      "--snapshot", initialized / "snapshot.json",
                      "--duration", "0.2", "--fault", "B7@0.1@0.02",
                      "--probes", "B7", "--out", tmp_path, "--quiet")
        assert out.returncode == 0
        rows = (tmp_path / "waveforms.csv").read_text().splitlines()
        y = np.array([float(r.split(",")[1]) for r in rows[1:]])
        k = int(round(0.1 / 5e-5))
        assert np.max(np.abs(y[k + 50:])) < 0.7 * np.max(np.abs(y[:k]))

    def test_incompatible_snapshot_maps_to_exit_4(self, initialized, tmp_path):
        out = run_cli("simulate", case_path("ninebus1"),
                      "--snapshot", initialized / "snapshot.json",
                      "--dt", "1e-4", "--duration", "0.05",
                      "--out", tmp_path, "--quiet")
        assert out.returncode == 4
        assert_one_line_error(out)

    def test_requires_exactly_one_start_mode(self, tmp_path):
        out = run_cli("simulate", case_path("twobus"), "--out", tmp_path)
        assert out.returncode == 1


class TestCompare:
    def test_self_check_is_exactly_zero(self, tmp_path):
        out = run_cli("compare", case_path("ninebus1"), "--self-check",
                      "--out", tmp_path, "--quiet")
        assert out.returncode == 0
        doc = read_json(tmp_path / "compare.json")
        assert doc["self_check"] is True
        assert all(v == 0.0 for v in doc["deviations"].values())

    def test_unsettleable_budget_maps_to_exit_5(self, tmp_path):
        out = run_cli("compare", case_path("ninebus1"), "--settle-cap", "0.1",
                      "--out", tmp_path, "--quiet")
        assert out.returncode == 5
        assert_one_line_error(out)


class TestFailureExits:
    """The overloaded hybrid case has no operating point near the flat start."""

    def test_ipf_coordination_failure_exits_2_with_its_trace(self, overloaded, tmp_path):
        out = run_cli("ipf", overloaded, "--out", tmp_path, "--quiet")
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
        out = run_cli(*command, overloaded, "--out", tmp_path, "--quiet")
        assert out.returncode == 3
        assert_one_line_error(out)
        assert read_json(tmp_path / "report.json")["failed_stage"] == "ipf"

    def test_unknown_probe_is_an_input_error(self, tmp_path):
        out = run_cli("simulate", case_path("twobus"), "--zero-state", "--probes", "NOPE",
                      "--duration", "0.01", "--out", tmp_path, "--quiet")
        assert out.returncode == 1
        assert_one_line_error(out)


class TestDeterminism:
    def test_ipf_reruns_are_byte_identical(self, tmp_path):
        # identical manifests (same relative out dir) from two working copies
        for d in ("a", "b"):
            (tmp_path / d).mkdir()
            proc = run_cli("ipf", case_path("ninebus2"), "--out", "out",
                           "--quiet", cwd=tmp_path / d)
            assert proc.returncode == 0, proc.stderr
        for name in ("manifest.json", "boundary.json", "trace.csv",
                     "main_pf.csv"):
            assert (tmp_path / "a" / "out" / name).read_bytes() == \
                   (tmp_path / "b" / "out" / name).read_bytes(), name

    def test_manifest_records_command_and_flags(self, tmp_path):
        run_cli("ipf", case_path("twobus"), "--out", tmp_path, "--quiet")
        doc = read_json(tmp_path / "manifest.json")
        assert doc["tool"] == "emtgis"
        assert doc["command"] == "ipf"
        assert doc["case"].endswith("twobus.json")
        assert "outputs" in doc and "flags" in doc
