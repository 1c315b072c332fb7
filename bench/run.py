"""emtgis benchmark: end-to-end CLI jobs, correctness gates and a layer trace.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload init_regions --seed 1 --seconds 10 --trace 0

Every job calls `emtgis.cli.main` in this process with the argument list a
user would type.  With `--trace 0` the jobs run untraced and the last line
of standard output carries the end-to-end metrics; with `--trace 1` the run
alternates untraced jobs and jobs under the outside-in tracer of
`tracer.py`, and the last line carries the per-layer metrics.  The line
before it records the machine, the thread settings and the samples.  Every
time is corrected for host speed by `speed.SpeedMeter`.  Metric names and
units come from BENCHMARK.json.  See README.md in this directory for why
each workload exists.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

# The speed meter samples the core of the main thread, so the work must run
# there too.  At these matrix sizes OpenBLAS threads do no useful work (an
# ipf job takes the same wall time) but spin on a second CPU, and the
# interpreter-lock-bound threads of the residual pool would hop between
# cores.  So the benchmark and its children run on one CPU, and OpenBLAS on
# one thread, set before the first numpy import, which `speed` makes.
# EMTGIS_THREADS is left alone: the residual thread pool is program behaviour.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

from speed import SpeedMeter  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = Path(".bench_work")          # relative to ROOT, the working directory
CASES = Path("src/emtgis/cases")
SETUP_REPEATS = 5
MIN_JOBS = 2                        # a pair always feeds the determinism gate
MIN_PAIRS = 2                       # untraced+traced pairs behind overhead_frac
PAIRS_BUDGET_S = 150                # no further pair past this; a run ends within 180 s
SCALED_K = 8
IPF_EPS1 = 1e-6                     # the CLI's default --tol-eps1
IPF_ORACLE_TOL = 1e-6
SPLICE_DEV_LIMIT = 5e-3
COMPARE_DEV_LIMIT = 1e-2            # acceptance criterion 6
STEADY_RATIO_MIN = 5.0              # acceptance criterion 7
NOT_APPLICABLE = 1.0                # end-to-end metric a workload does not produce


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_program() -> None:
    """Import emtgis from this checkout's src/."""
    src = ROOT / "src"
    if not (src / "emtgis" / "__init__.py").is_file():
        raise SetupError(f"no emtgis sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    import emtgis
    import emtgis.cli  # noqa: F401
    import emtgis.snapshot  # noqa: F401
    if Path(emtgis.__file__).resolve().parent != (src / "emtgis").resolve():
        raise SetupError(f"imported emtgis from {emtgis.__file__}, not from {src}")


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SetupError("BENCHMARK.json is missing")
    return json.loads(path.read_text())


def machine_record() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):  # build info this numpy does not report
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "EMTGIS_THREADS": os.environ.get("EMTGIS_THREADS", "unset"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
    }


# --- artifacts ----------------------------------------------------------------


def read_artifacts(out: Path) -> dict[str, bytes]:
    return {str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


def _json(artifacts: dict[str, bytes], name: str) -> dict:
    return json.loads(artifacts[name])


# --- workloads ----------------------------------------------------------------


class Workload:
    """A named job plus the gates that check its artifacts."""

    name = ""

    def prepare(self, seed: int) -> None:
        """Load and validate the inputs; repeated to time set-up."""

    def commands(self, out: Path) -> list[list[str]]:
        raise NotImplementedError

    def check(self, artifacts: dict[str, bytes]) -> tuple[list[str], dict]:
        """(gate failures, end-to-end quality figures) of one job."""
        raise NotImplementedError


def _load_valid(path: Path):
    from emtgis.netmodel import load_case, validate_case

    case = load_case(path)
    report = validate_case(case)
    if not report.ok:
        raise SetupError(f"{path} does not validate: {report.codes()}")
    return case


class InitRegions(Workload):
    name = "init_regions"
    cases = ("ninebus1", "ninebus2", "ninebus3", "hybrid")

    def prepare(self, seed):
        for c in self.cases:
            _load_valid(CASES / f"{c}.json")

    def commands(self, out):
        return [["init", str(CASES / f"{c}.json"), "--out", str(out / c)]
                for c in self.cases]

    def check(self, artifacts):
        from emtgis.snapshot import load_snapshot, save_snapshot

        errors, cost, dev_max = [], 0, 0.0
        for c in self.cases:
            report = _json(artifacts, f"{c}/report.json")
            cost += report["gis_cost_steps"]
            devs = list(report["splice_deviations"].values())
            if not devs or not all(math.isfinite(d) and d < SPLICE_DEV_LIMIT for d in devs):
                errors.append(f"{c}: splice deviations {devs}")
            dev_max = max([dev_max, *devs])
            trip = WORK / "roundtrip"
            trip.mkdir(parents=True, exist_ok=True)
            written = artifacts[f"{c}/snapshot.json"]
            (trip / "in.json").write_bytes(written)
            save_snapshot(load_snapshot(trip / "in.json"), trip / "out.json")
            if (trip / "out.json").read_bytes() != written:
                errors.append(f"{c}: snapshot does not round-trip byte-identically")
        return errors, {"gis_cost_steps": cost, "splice_dev_max": dev_max}


class CompareHybrid(Workload):
    name = "compare_hybrid"
    case = CASES / "hybrid.json"

    def prepare(self, seed):
        _load_valid(self.case)

    def commands(self, out):
        return [["compare", str(self.case), "--fault", "B7@5.5", "--out", str(out)]]

    def check(self, artifacts):
        doc = _json(artifacts, "compare.json")
        steps = doc["steps_to_steady"]
        dev_max = max(doc["deviations"].values())
        errors = []
        if not steps["ratio"] >= STEADY_RATIO_MIN:
            errors.append(f"steps-to-steady ratio {steps['ratio']} < {STEADY_RATIO_MIN}")
        if not dev_max < COMPARE_DEV_LIMIT:
            errors.append(f"fault deviation {dev_max} >= {COMPARE_DEV_LIMIT}")
        return errors, {"gis_cost_steps": steps["gis"], "steady_ratio": steps["ratio"],
                        "compare_dev_max": dev_max}


class IpfScaled(Workload):
    name = "ipf_scaled"
    case = WORK / "cases" / f"ninebus3_x{SCALED_K}.json"

    def prepare(self, seed):
        from emtgis.powerflow import solve_monolithic
        from scaled import write_scaled_case

        write_scaled_case(CASES / "ninebus3.json", self.case, SCALED_K, seed)
        oracle = solve_monolithic(_load_valid(self.case))
        if not oracle.converged:
            raise SetupError("scaled case: monolithic power flow did not converge")
        self.oracle = oracle

    def commands(self, out):
        return [["ipf", str(self.case), "--out", str(out)]]

    def check(self, artifacts):
        errors = []
        last = artifacts["trace.csv"].decode().strip().splitlines()[-1].split(",")
        phi_norm = float(last[2])
        if not phi_norm <= IPF_EPS1:
            errors.append(f"|phi| = {phi_norm} > eps1 = {IPF_EPS1}")
        for bus, v in _json(artifacts, "boundary.json").items():
            ref = self.oracle.voltage(bus).rect
            got = complex(v["v_pu"] * math.cos(v["theta_rad"]),
                          v["v_pu"] * math.sin(v["theta_rad"]))
            if not abs(got - ref) <= IPF_ORACLE_TOL:
                errors.append(f"{bus}: |V - V_oracle| = {abs(got - ref):.3e}")
        return errors, {}


WORKLOADS = {w.name: w for w in (InitRegions, CompareHybrid, IpfScaled)}


# --- jobs -----------------------------------------------------------------------


def warm_up() -> None:
    """First calls pay for lazy imports and BLAS start-up; pay them here."""
    from emtgis.cli import main

    out = WORK / "warmup"
    for argv in (["validate", str(CASES / "ninebus3.json"), "--out", str(out)],
                 ["ipf", str(CASES / "ninebus3.json"), "--out", str(out)]):
        if main(argv) != 0:
            raise SetupError(f"warm-up command failed: {argv}")


def set_up(workload: Workload, seed: int) -> None:
    workload.prepare(seed)
    warm_up()


def time_setups(workload: Workload, seed: int) -> list[tuple[float, float]]:
    """(corrected, wall) seconds of SETUP_REPEATS cold set-ups.

    Each repeat runs in a fresh interpreter, so the import of emtgis, the
    first solves and BLAS start-up are paid every time, as a user pays
    them.  numpy is loaded before the clock starts: the meter needs it.
    """
    out = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload.name,
             "--seed", str(seed), "--seconds", "0", "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if child.returncode != 0:
            raise SetupError(f"set-up failed in a fresh interpreter: {child.stderr.strip()}")
        corrected, wall = map(float, child.stdout.split())
        out.append((corrected, wall))
    return out


def run_job(workload: Workload, tracer=None) -> tuple[SpeedMeter, dict[str, bytes] | None, str]:
    """One timed job: (its meter, artifacts or None on a failed exit, error)."""
    import emtgis.cli as cli  # looked up per call, so a traced job sees the wrapper

    out = WORK / "out"
    shutil.rmtree(out, ignore_errors=True)
    commands = workload.commands(out)
    if tracer is not None:
        tracer.install()
    meter = SpeedMeter()
    try:
        with meter:
            codes, error = [cli.main(argv) for argv in commands], ""
    except Exception:
        codes, error = None, traceback.format_exc()
    finally:
        if tracer is not None:
            tracer.uninstall()
    if codes is not None and any(codes):
        error = f"exit codes {codes}"
    return meter, None if error else read_artifacts(out), error


class Jobs:
    """Timed jobs of one run and the outcome of their gates."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.times: list[float] = []          # corrected seconds, untraced
        self.traced_times: list[float] = []
        self.wall: list[float] = []           # wall seconds, every job in order
        self.layer: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.quality: dict = {}
        self.reference: dict[str, bytes] | None = None

    def run_one(self, traced: bool = False) -> float:
        """Run, time and gate one job; return its wall seconds."""
        from tracer import Tracer, layer_metrics

        tracer = Tracer() if traced else None
        meter, artifacts, error = run_job(self.workload, tracer)
        self.attempted += 1
        self.wall.append(meter.wall_s)
        (self.traced_times if traced else self.times).append(meter.seconds)
        errors = [error] if error else []
        if artifacts is not None:
            gate_errors, quality = self.workload.check(artifacts)
            errors += gate_errors
            if self.reference is None:
                self.reference, self.quality = artifacts, quality
            elif artifacts != self.reference:
                errors.append("artifacts differ from the first job of this run")
        if errors:
            self.failed += 1
            print(f"job {self.attempted} failed: " + "; ".join(errors), file=sys.stderr)
        elif traced:
            size = sum(len(b) for b in artifacts.values())
            self.layer.append(layer_metrics(tracer.spans(), tracer.values,
                                            meter.wall_s, size))
        return meter.wall_s


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    workload = WORKLOADS[args.workload]()

    try:
        os.chdir(ROOT)
        if args.setup_only:
            with SpeedMeter() as meter:
                import_program()
                set_up(workload, args.seed)
            print(meter.seconds, meter.wall_s)
            return 0
        spec = load_spec()
        import_program()
        shutil.rmtree(WORK, ignore_errors=True)
        setups = time_setups(workload, args.seed)
        set_up(workload, args.seed)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    jobs = Jobs(workload)
    try:
        spent = 0.0
        if args.trace:
            # Interleaved pairs, so that both halves see the same host phases.
            while len(jobs.traced_times) < MIN_PAIRS or spent < args.seconds:
                pair = jobs.run_one() + jobs.run_one(traced=True)
                spent += pair
                if spent + pair > PAIRS_BUDGET_S:
                    break
        else:
            while len(jobs.times) < MIN_JOBS or spent < args.seconds:
                spent += jobs.run_one()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    median = statistics.median
    if args.trace:
        if not jobs.layer:
            print("error: no traced job passed its gates", file=sys.stderr)
            return 3
        metrics = {k: median(m[k] for m in jobs.layer) for k in jobs.layer[0]}
        metrics["trace.overhead_frac"] = median(
            t / u for u, t in zip(jobs.times, jobs.traced_times)) - 1
        table = spec["per_layer"]
    else:
        metrics = {
            "setup_s": median(c for c, _ in setups),
            "job_s": median(jobs.times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "gis_cost_steps": NOT_APPLICABLE,
            "steady_ratio": NOT_APPLICABLE,
            "compare_dev_max": NOT_APPLICABLE,
            "splice_dev_max": NOT_APPLICABLE,
        }
        metrics.update(jobs.quality)
        table = spec["end_to_end"]

    units = {m["name"]: m["unit"] for m in table}
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 3
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": machine_record(),
        "setup_s_samples": [c for c, _ in setups],
        "setup_wall_s_samples": [w for _, w in setups],
        "job_s_samples": jobs.times, "traced_job_s_samples": jobs.traced_times,
        "job_wall_s_samples": jobs.wall,
    }
    print(json.dumps({"record": record}))
    result = {
        "correct": jobs.failed == 0,
        "attempted": jobs.attempted,
        "failed": jobs.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
