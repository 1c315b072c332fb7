"""Tests of the benchmark itself: generator, tracer, counts and metric names.

Run from the repository root with `python -m pytest bench -q`.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import emtgis.cli as cli  # noqa: E402
import emtgis.coordinator as coordinator  # noqa: E402
import emtgis.emtkernel as ek  # noqa: E402
import emtgis.powerflow as powerflow  # noqa: E402
import emtgis.snapshot as snapshot  # noqa: E402
from emtgis.netmodel import load_case, validate_case  # noqa: E402
from scaled import scaled_case_doc, write_scaled_case  # noqa: E402
from tracer import Tracer, layer_metrics, self_times  # noqa: E402

CASES = ROOT / "src" / "emtgis" / "cases"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def names(table):
    return {m["name"] for m in SPEC[table]}


def ninebus3_doc():
    return json.loads((CASES / "ninebus3.json").read_text())


class TestScaledFamily:
    def test_same_seed_same_case(self):
        assert scaled_case_doc(ninebus3_doc(), 8, 7) == scaled_case_doc(ninebus3_doc(), 8, 7)
        assert scaled_case_doc(ninebus3_doc(), 8, 7) != scaled_case_doc(ninebus3_doc(), 8, 8)

    def test_k8_case_is_valid_and_coordination_converges(self, tmp_path):
        case = load_case(write_scaled_case(CASES / "ninebus3.json",
                                           tmp_path / "x8.json", 8, 1))
        assert validate_case(case).ok
        assert (len(case.buses), len(case.grbcs)) == (96, 24)
        oracle = powerflow.solve_monolithic(case)
        n = len(case.grbcs)
        x0 = [1.0] * n + [0.0] * n
        state, trace = coordinator.jfng_solve(case, case.grbcs, x0)
        assert trace.status == "converged"
        for i, bus in enumerate(state.bus_ids):
            assert abs(state.voltage(i).rect - oracle.voltage(bus).rect) < 1e-6


class TestTracer:
    def test_every_patched_attribute_is_restored(self):
        tracer = Tracer()
        tracer.install()
        sites = tracer.patched_sites
        try:
            owners = {(owner, key) for owner, key, _ in sites}
            for mod in (powerflow, coordinator, snapshot):
                assert (mod, "solve_main") in owners
            assert (ek.CompiledNet, "step") in owners
            for owner, key, orig in sites:
                assert vars(owner)[key] is not orig
        finally:
            tracer.uninstall()
        for owner, key, orig in sites:
            assert vars(owner)[key] is orig
        assert tracer.patched_sites == []

    def test_self_time_subtracts_the_union_of_overlapping_children(self):
        spans = [(0, "p", -1, 0.0, 10.0),
                 (1, "a", 0, 1.0, 5.0),
                 (2, "b", 0, 3.0, 6.0),   # overlaps a, as on a worker thread
                 (3, "c", 0, 8.0, 9.0)]
        assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_ninebus1_init_counts_match_the_code(tmp_path):
    tracer = Tracer()
    with tracer:
        rc = cli.main(["init", str(CASES / "ninebus1.json"), "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    m = layer_metrics(tracer.spans(), tracer.values, 1.0, 1)

    ramp = report["ready_steps"]["wind1"]
    advance = report["adjusted_steps"]["wind1"] - ramp
    assert m["snapshot.ramp_steps"] == ramp
    assert m["emtkernel.step.calls.region"] == ramp + advance
    assert m["emtkernel.step.calls.full"] == 0
    # One region: the Thevenin equivalent and region net are built twice,
    # once for the ramp and once for the advance.
    assert m["snapshot.thevenin_extract.calls"] == 2
    assert m["snapshot.build_region_net.calls"] == 2
    assert m["snapshot.system_model.calls"] == 1
    assert m["coordinator.outer_iters"] == report["ipf"]["outer_iterations"]
    assert m["coordinator.gmres_inner_iters"] == sum(report["ipf"]["inner_iterations"])
    assert m["emtkernel.probe_sample.us"] > 0
    assert set(m) | {"trace.overhead_frac"} == names("per_layer")


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_untraced_run_emits_every_end_to_end_metric():
    out = run_bench(ROOT, "--workload", "ipf_scaled", "--seed", "3",
                    "--seconds", "1", "--trace", "0")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == names("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench(tmp_path, "--workload", "init_regions", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_speed_meter_corrects_by_the_reference_loop():
    import signal

    from speed import REF_S, SpeedMeter

    before = signal.getsignal(signal.SIGALRM)
    with SpeedMeter() as meter:
        total = 0
        for i in range(2_000_000):
            total += i
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(meter.samples) >= 3
    assert meter.ref_s == pytest.approx(sum(meter.samples) / len(meter.samples))
    assert meter.seconds == pytest.approx(
        (meter.wall_s - sum(meter.samples[1:-1])) * REF_S / meter.ref_s)
