"""Command-line front end.

Subcommands: validate, ipf, init, simulate, compare.  Every invocation
writes a manifest next to its outputs; re-running a command from the same
inputs reproduces every artifact byte-for-byte (nothing time- or
host-dependent is ever serialized).

Exit codes: 0 ok, 1 input error, 2 coordination failed, 3 pipeline stage
failure or any other emtgis error, 4 incompatible snapshot, 5 zero-state
comparison run failed to settle.  A failure prints one `error:` line, and
leaves its trace.csv (coordination) or report.json (stage) if it has one.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import emtkernel as ek
from . import snapshot as sn
from .coordinator import JfngConfig
from .errors import (
    CaseFormatError,
    CoordinationError,
    EmtgisError,
    IncompatibleSnapshot,
    StageFailure,
    SteadyStateTimeout,
    UnknownBus,
    UnknownProbe,
)
from .netmodel import load_case, validate_case

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_CONVERGENCE = 2
EXIT_PIPELINE = 3
EXIT_SNAPSHOT = 4
EXIT_NO_SETTLE = 5

# Exit code of an error reaching `main`; the first matching type wins.
EXIT_CODES = (
    ((CaseFormatError, UnknownBus, UnknownProbe), EXIT_INPUT),
    (CoordinationError, EXIT_NO_CONVERGENCE),
    (IncompatibleSnapshot, EXIT_SNAPSHOT),
    (SteadyStateTimeout, EXIT_NO_SETTLE),
    (EmtgisError, EXIT_PIPELINE),
)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="emtgis", description=__doc__)
    p.add_argument("--version", action="version", version=f"emtgis {__version__}")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("case", help="case file (JSON)")
    common.add_argument("--out", default="out", help="output directory")
    common.add_argument("--dt", type=float, default=5e-5, help="EMT step size [s]")
    common.add_argument("--tol-eps1", type=float, default=1e-6,
                        help="outer residual tolerance")
    common.add_argument("--tol-eps2", type=float, default=1e-3,
                        help="inner relative tolerance")
    common.add_argument("--gmres-m", type=int, default=20, help="restart dimension")
    common.add_argument("--omega", type=float, default=1e-6,
                        help="directional-difference scalar")
    common.add_argument("--max-outer", type=int, default=40)
    common.add_argument("--t-ramp", type=float, default=0.5,
                        help="source ramp duration [s]")
    common.add_argument("--ramp-budget", type=float, default=6.0,
                        help="per-region steady-state search window [s]")
    common.add_argument("--quiet", action="store_true")

    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("validate", parents=[common], help="check a case file")
    sub.add_parser("ipf", parents=[common],
                   help="coordinated whole-system power flow")
    sub.add_parser("init", parents=[common],
                   help="full steady-state initialization pipeline")

    sim = sub.add_parser("simulate", parents=[common], help="run the EMT kernel")
    sim.add_argument("--snapshot", help="snapshot file to start from")
    sim.add_argument("--zero-state", action="store_true",
                     help="start de-energized and ramp sources")
    sim.add_argument("--duration", type=float, default=0.5)
    sim.add_argument("--fault", help="fault event BUS@TIME[@R]")
    sim.add_argument("--probes", help="comma-separated bus ids (default: all buses)")

    cmp_ = sub.add_parser("compare", parents=[common],
                          help="initialized vs zero-state-ramped comparison")
    cmp_.add_argument("--probes", help="comma-separated bus ids (default: all buses)")
    cmp_.add_argument("--window", type=float, default=0.1,
                      help="deviation averaging window [s]")
    cmp_.add_argument("--settle-cap", type=float, default=12.0,
                      help="budget for the zero-state scheme to settle [s]")
    cmp_.add_argument("--fault", help="apply BUS@TIME[@R] to both runs")
    cmp_.add_argument("--self-check", action="store_true",
                      help="compare the zero-state run against itself")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    handler = {
        "validate": cmd_validate,
        "ipf": cmd_ipf,
        "init": cmd_init,
        "simulate": cmd_simulate,
        "compare": cmd_compare,
    }[args.command]
    try:
        return handler(args)
    except FileNotFoundError as exc:
        print(f"error: case file not found: {exc.filename}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except EmtgisError as exc:
        _record_failure(args, exc)
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in EXIT_CODES if isinstance(exc, kinds))


def _record_failure(args, exc: EmtgisError) -> None:
    """Write what a failed run knows next to its outputs, with a manifest."""
    outputs = []
    if isinstance(exc, CoordinationError) and exc.trace is not None:
        exc.trace.to_csv(_outdir(args) / "trace.csv")
        outputs.append("trace.csv")
    if isinstance(exc, StageFailure):
        doc = {"failed_stage": exc.stage, "error": str(exc.cause)}
        (_outdir(args) / "report.json").write_text(
            json.dumps(doc, sort_keys=True, indent=1) + "\n")
        outputs.append("report.json")
    if outputs:
        _write_manifest(args, _outdir(args), outputs)


def _load(args):
    case = load_case(args.case)
    report = validate_case(case)
    return case, report


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _pipeline_config(args) -> sn.PipelineConfig:
    return sn.PipelineConfig(
        dt=args.dt,
        t_ramp=args.t_ramp,
        ramp_budget=args.ramp_budget,
        jfng=JfngConfig(eps1=args.tol_eps1, eps2=args.tol_eps2,
                        m_restart=args.gmres_m, omega=args.omega,
                        max_outer=args.max_outer),
    )


def _write_manifest(args, outdir: Path, outputs: list[str]) -> None:
    flags = {
        k: v for k, v in sorted(vars(args).items())
        if k not in ("command", "case") and v is not None
    }
    doc = {
        "tool": "emtgis",
        "version": __version__,
        "command": args.command,
        "case": args.case,
        "flags": flags,
        "outputs": sorted(outputs),
    }
    (outdir / "manifest.json").write_text(
        json.dumps(doc, sort_keys=True, indent=1) + "\n")


def _parse_fault(spec: str) -> ek.SimEvent:
    parts = spec.split("@")
    if len(parts) not in (2, 3):
        raise ValueError(f"fault spec must be BUS@TIME[@R], got '{spec}'")
    r = float(parts[2]) if len(parts) == 3 else 0.05
    return ek.SimEvent(time=float(parts[1]), kind="fault", target=parts[0], r_fault=r)


def cmd_validate(args) -> int:
    case, report = _load(args)
    outdir = _outdir(args)
    doc = {
        "case": case.name,
        "ok": report.ok,
        "violations": [
            {"code": v.code, "subject": v.subject, "message": v.message}
            for v in report.violations
        ],
    }
    (outdir / "validation.json").write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    _write_manifest(args, outdir, ["validation.json"])
    for v in report.violations:
        print(f"{v.code}: {v.subject}: {v.message}", file=sys.stderr)
    return EXIT_OK if report.ok else EXIT_INPUT


def cmd_ipf(args) -> int:
    case, report = _load(args)
    if not report.ok:
        for v in report.violations:
            print(f"{v.code}: {v.subject}: {v.message}", file=sys.stderr)
        return EXIT_INPUT
    outdir = _outdir(args)
    cfg = _pipeline_config(args)

    from .coordinator import jfng_solve

    n = len(case.grbcs)
    x0 = np.concatenate([np.ones(n), np.zeros(n)])
    state, trace = jfng_solve(case, case.grbcs, x0, cfg.jfng, pf_tol=cfg.pf_tol)

    (outdir / "boundary.json").write_text(
        json.dumps(state.to_dict(), sort_keys=True, indent=1) + "\n")
    trace.to_csv(outdir / "trace.csv")
    state.main_solution.to_csv(outdir / "main_pf.csv")
    _write_manifest(args, outdir, ["boundary.json", "trace.csv", "main_pf.csv"])
    return EXIT_OK


def cmd_init(args) -> int:
    case, report = _load(args)
    if not report.ok:
        for v in report.violations:
            print(f"{v.code}: {v.subject}: {v.message}", file=sys.stderr)
        return EXIT_INPUT
    outdir = _outdir(args)
    result = sn.run_emtgis(case, _pipeline_config(args))

    sn.save_snapshot(result.snapshot, outdir / "snapshot.json")
    (outdir / "report.json").write_text(
        json.dumps(result.report.to_json_dict(), sort_keys=True, indent=1) + "\n")
    if result.boundary_state is not None:
        result.report.ipf_trace.to_csv(outdir / "trace.csv")
    _write_manifest(args, outdir, ["snapshot.json", "report.json"])
    return EXIT_OK


def _probes(args, case) -> list[str]:
    if args.probes:
        return [p.strip() for p in args.probes.split(",") if p.strip()]
    return [b.id for b in case.buses]


def cmd_simulate(args) -> int:
    case, report = _load(args)
    if not report.ok:
        return EXIT_INPUT
    if bool(args.snapshot) == bool(args.zero_state):
        print("error: give exactly one of --snapshot or --zero-state", file=sys.stderr)
        return EXIT_INPUT
    outdir = _outdir(args)
    model = sn.system_model(case, _pipeline_config(args))

    events = [_parse_fault(args.fault)] if args.fault else []
    sim = ek.SimConfig(dt=args.dt, duration=args.duration, record=_probes(args, case),
                       events=events, ramp_sources=args.zero_state,
                       t_ramp=args.t_ramp)
    init = None if args.zero_state else sn.load_snapshot(args.snapshot).emt_state
    waves, _ = ek.run(model.full_net, sim, init=init)

    ek.write_waveforms_csv(outdir / "waveforms.csv", waves)
    ek.write_waveforms_bin(outdir / "waveforms.emtw", waves)
    _write_manifest(args, outdir, ["waveforms.csv", "waveforms.emtw"])
    return EXIT_OK


def average_relative_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Mean absolute deviation normalized by the reference mean amplitude."""
    denom = float(np.sum(np.abs(b)))
    if denom == 0.0:
        return float(np.sum(np.abs(a - b)))
    return float(np.sum(np.abs(a - b)) / denom)


def cmd_compare(args) -> int:
    case, report = _load(args)
    if not report.ok:
        return EXIT_INPUT
    outdir = _outdir(args)
    probes = _probes(args, case)
    period = case.period

    fault = _parse_fault(args.fault) if args.fault else None

    gis = sn.run_emtgis(case, _pipeline_config(args))
    full_net = gis.full_net
    settle_cfg = ek.SimConfig(dt=args.dt, duration=args.settle_cap, record=probes,
                              ramp_sources=True, t_ramp=args.t_ramp)
    zero_state, zero_fired = sn.settle_from_zero(full_net, settle_cfg)

    cycles = int(round(period / args.dt))
    w0_step = ((zero_state.step // cycles) + 2) * cycles
    if fault is not None:
        fault_step = int(round(fault.time / args.dt))
        if fault_step * args.dt < w0_step * args.dt:
            print("error: fault must come after the zero-state run settles",
                  file=sys.stderr)
            return EXIT_INPUT
        w0_step = fault_step
    w1_step = w0_step + int(round(args.window / args.dt))

    events = [fault] if fault else []
    sim_zero = ek.SimConfig(dt=args.dt, duration=(w1_step - zero_state.step) * args.dt,
                            record=probes, events=events)
    waves_zero, _ = ek.run(full_net, sim_zero, init=zero_state)
    if args.self_check:
        waves_gis = waves_zero
        gis_start = zero_state.step
    else:
        sim_gis = ek.SimConfig(
            dt=args.dt,
            duration=(w1_step - gis.snapshot.timestamp_steps) * args.dt,
            record=probes, events=events)
        waves_gis, _ = ek.run(full_net, sim_gis, init=gis.snapshot.emt_state)
        gis_start = gis.snapshot.timestamp_steps

    deviations = {}
    for key in waves_zero.data:
        z0 = w0_step - zero_state.step
        z1 = w1_step - zero_state.step
        g0 = w0_step - gis_start
        g1 = w1_step - gis_start
        deviations[key] = average_relative_deviation(
            waves_gis.data[key][g0:g1 + 1], waves_zero.data[key][z0:z1 + 1])

    gis_steps = max(gis.report.gis_cost_steps, 1)
    doc = {
        "window_steps": [w0_step, w1_step],
        "dt": args.dt,
        "fault": args.fault,
        "self_check": bool(args.self_check),
        "deviations": deviations,
        "steps_to_steady": {
            "gis": gis.report.gis_cost_steps,
            "zero_state": zero_fired,
            "ratio": zero_fired / gis_steps,
        },
    }
    (outdir / "compare.json").write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    _write_manifest(args, outdir, ["compare.json"])
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
