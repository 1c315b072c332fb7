"""Command-line front end.

Each subcommand takes a case file, --out and only the flags it reads:
  validate  no other
  ipf       the coordinator's: --tol-eps1 --tol-eps2 --gmres-m --omega --max-outer
  simulate  the coordinator's, --dt --t-ramp --snapshot --zero-state --duration
            --fault --probes (--t-ramp only with --zero-state)
  init      the coordinator's, --dt --t-ramp --ramp-budget
  compare   init's, --probes --window --settle-cap --fault
Every invocation writes a manifest of the flags it read next to its
outputs.  Re-running a command from the same inputs under the same
OpenBLAS thread setting (OPENBLAS_NUM_THREADS) reproduces every artifact
byte-for-byte (nothing time- or host-dependent is ever serialized); another
thread count can move the last bits of some.

Exit codes: 0 ok, 1 input error (a usage error too: an unknown flag, a
malformed value, no subcommand; a path that cannot be opened; a --dt that
does not divide the period or leaves fewer than 4 steps per period; a
--probes that names no probe; a --window, --duration, --settle-cap or
--t-ramp that rounds to 0 steps; a simulate --fault at or after the run's
end; a region ramp, --t-ramp or else two cycles, at or past --ramp-budget,
found before the power flow; a compare zero-state ramp, --t-ramp or else
two cycles (0.5 s with a swinging machine), past --settle-cap, or a
compare --fault on a bus the case lacks, both found after the power flow
and before any region ramps; a compare window that starts before its
initialized snapshot; a run too large for memory), 2 coordination
failed, 3 pipeline stage failure or any other emtgis error, 4
incompatible or unreadable snapshot (its nodes, elements, machines or dt
differ from the case's, it is no version-3 snapshot file, or one of its
numbers is NaN or infinite) or a start state whose phases are not a
balanced set, 5 zero-state comparison run failed to settle.  A failure prints one `error:` line; an input error
writes nothing, not even --out, a failed run its trace.csv (coordination)
or report.json (stage) if it has one.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import emtkernel as ek
from . import snapshot as sn
from .coordinator import JfngConfig, jfng_solve
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


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as the ValueError that `main` prints as one
    `error:` line (exit 1); its subparsers are of this class too."""

    def error(self, message):
        raise ValueError(message)


def seconds(text: str) -> float:
    """The value of a time flag: finite and positive, else a usage error."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing leaves it unchanged, so every
    `main` call reuses it."""
    p = _Parser(prog="emtgis", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--version", action="version", version=f"emtgis {__version__}")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("case", help="case file (JSON)")
    common.add_argument("--out", default="out", help="output directory")

    coord = argparse.ArgumentParser(add_help=False)
    coord.add_argument("--tol-eps1", type=float, default=JfngConfig.eps1,
                       help="outer residual tolerance")
    coord.add_argument("--tol-eps2", type=float, default=JfngConfig.eps2,
                       help="inner relative tolerance")
    coord.add_argument("--gmres-m", type=int, default=JfngConfig.m_restart,
                       help="restart dimension")
    coord.add_argument("--omega", type=float, default=JfngConfig.omega,
                       help="directional-difference scalar")
    coord.add_argument("--max-outer", type=int, default=JfngConfig.max_outer)

    emt = argparse.ArgumentParser(add_help=False, parents=[coord])
    emt.add_argument("--dt", type=seconds, default=sn.PipelineConfig.dt,
                     help="EMT step size [s]")

    pipeline = argparse.ArgumentParser(add_help=False, parents=[emt])
    pipeline.add_argument("--t-ramp", type=seconds,
                          help="source ramp of each region, its rotors held at their"
                               " power-flow angles, and of compare's zero-state run, a step or"
                               " more, below --ramp-budget [s] (default: two cycles; 0.5 s for"
                               " a zero-state run with a swinging machine)")
    pipeline.add_argument("--ramp-budget", type=seconds, default=sn.PipelineConfig.ramp_budget,
                          help="per-region steady-state search window [s]")

    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("validate", parents=[common], help="check a case file")
    sub.add_parser("ipf", parents=[common, coord],
                   help="coordinated whole-system power flow")
    sub.add_parser("init", parents=[common, pipeline],
                   help="full steady-state initialization pipeline")

    sim = sub.add_parser("simulate", parents=[common, emt], help="run the EMT kernel")
    sim.add_argument("--snapshot", help="snapshot file to start from")
    sim.add_argument("--zero-state", action="store_true",
                     help="start de-energized, each swinging rotor at angle 0, as compare's"
                          " zero-state run does, and ramp sources")
    sim.add_argument("--t-ramp", type=seconds,
                     help="source ramp of a --zero-state run, whose rotors swing, a step or "
                          "more [s] (default: two cycles, 0.5 s with a swinging machine)")
    sim.add_argument("--duration", type=seconds, default=0.5)
    sim.add_argument("--fault", help="fault event BUS@TIME[@R]")
    sim.add_argument("--probes", help="comma-separated bus ids (default: all buses)")

    cmp_ = sub.add_parser("compare", parents=[common, pipeline],
                          help="initialized vs zero-state-ramped comparison")
    cmp_.add_argument("--probes", help="comma-separated bus ids (default: all buses)")
    cmp_.add_argument("--window", type=seconds, default=0.1,
                      help="length of the window [w0, w1] the deviations average "
                           "over, the only steps recorded [s]")
    cmp_.add_argument("--settle-cap", type=seconds, default=12.0,
                      help="budget for the zero-state scheme to settle [s]")
    cmp_.add_argument("--fault", help="apply BUS@TIME[@R] to both runs")
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        handler = {
            "validate": cmd_validate,
            "ipf": cmd_ipf,
            "init": cmd_init,
            "simulate": cmd_simulate,
            "compare": cmd_compare,
        }[args.command]
        return handler(args)
    except FileNotFoundError as exc:
        is_case = exc.filename is not None and Path(exc.filename) == Path(args.case)
        what = "case file" if is_case else "file"
        print(f"error: {what} not found: {exc.filename}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: cannot open {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:
        print(f"error: not enough memory: {exc}", file=sys.stderr)
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


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _jfng_config(args) -> JfngConfig:
    return JfngConfig(eps1=args.tol_eps1, eps2=args.tol_eps2, m_restart=args.gmres_m,
                      omega=args.omega, max_outer=args.max_outer)


def _pipeline_config(args) -> sn.PipelineConfig:
    if args.t_ramp is not None:
        _steps(args, "t_ramp")
    return sn.PipelineConfig(dt=args.dt, t_ramp=args.t_ramp, ramp_budget=args.ramp_budget,
                             jfng=_jfng_config(args))


def _write_manifest(args, outdir: Path, outputs: list[str]) -> None:
    flags = {k: v for k, v in sorted(vars(args).items())
             if k not in ("command", "case") and v is not None}
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


def _steps(args, flag: str) -> int:
    """A time flag's steps at --dt (`ek.to_steps`); none is an input error."""
    if (steps := ek.to_steps(value := getattr(args, flag), args.dt)) < 1:
        raise ValueError(f"--{flag.replace('_', '-')} {value} s rounds to 0 steps "
                         f"of dt {args.dt} s")
    return steps


def _parse_fault(spec: str, dt: float) -> ek.SimEvent:
    """The event of a BUS@TIME[@R] spec at TIME's step, else a ValueError
    (exit 1): TIME must be finite and >= 0, R positive (inf: no fault)."""
    parts = spec.split("@")
    if len(parts) not in (2, 3):
        raise ValueError(f"fault spec must be BUS@TIME[@R], got '{spec}'")
    time = float(parts[1])
    r = float(parts[2]) if len(parts) == 3 else 0.05
    if not (math.isfinite(time) and time >= 0.0):
        raise ValueError(f"fault time must be finite and >= 0, got '{spec}'")
    if not r > 0.0:
        raise ValueError(f"fault resistance must be positive, got '{spec}'")
    return ek.SimEvent(step=ek.to_steps(time, dt), target=parts[0], r_fault=r)


def cmd_validate(args) -> int:
    case = load_case(args.case)
    report = validate_case(case)
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
    case = load_case(args.case)
    validate_case(case).raise_if_invalid()
    state, trace = jfng_solve(case, case.grbcs, cfg=_jfng_config(args))

    outdir = _outdir(args)
    (outdir / "boundary.json").write_text(
        json.dumps(state.to_dict(), sort_keys=True, indent=1) + "\n")
    trace.to_csv(outdir / "trace.csv")
    state.main_solution.to_csv(outdir / "main_pf.csv")
    _write_manifest(args, outdir, ["boundary.json", "trace.csv", "main_pf.csv"])
    return EXIT_OK


def cmd_init(args) -> int:
    case = load_case(args.case)
    cfg = _pipeline_config(args)
    result = sn.run_emtgis(case, sn.system_model(case, cfg), cfg)

    outdir = _outdir(args)
    sn.save_snapshot(result.snapshot, outdir / "snapshot.json")
    (outdir / "report.json").write_text(
        json.dumps(result.report, sort_keys=True, indent=1) + "\n")
    result.model.ipf_trace.to_csv(outdir / "trace.csv")
    _write_manifest(args, outdir, ["snapshot.json", "report.json", "trace.csv"])
    return EXIT_OK


def _probes(args, case) -> list[str]:
    """The ids --probes names, at least one, else every bus."""
    if args.probes is None:
        return [b.id for b in case.buses]
    if not (probes := [p.strip() for p in args.probes.split(",") if p.strip()]):
        raise ValueError(f"--probes '{args.probes}' names no probe")
    return probes


def cmd_simulate(args) -> int:
    case = load_case(args.case)
    if bool(args.snapshot) == bool(args.zero_state):
        raise ValueError("give exactly one of --snapshot or --zero-state")
    if args.snapshot and args.t_ramp is not None:
        raise ValueError("--t-ramp ramps a --zero-state run; a --snapshot run has no ramp")
    fault = _parse_fault(args.fault, args.dt) if args.fault else None
    probes = _probes(args, case)
    ramp_steps = None if args.t_ramp is None else _steps(args, "t_ramp")
    init = None if args.zero_state else sn.load_snapshot(args.snapshot).emt_state
    # A fault at the run's last step or after it would change no sample.
    steps = _steps(args, "duration")
    end = (0 if init is None else init.step) + steps
    if fault is not None and fault.step >= end:
        raise ValueError(f"--fault {args.fault} is not before the run's end at {end * args.dt:g} s")
    # The full net's loads and machine EMFs come from the coordinated power
    # flow, so even a zero-state run needs the system model.
    model = sn.system_model(case, sn.PipelineConfig(dt=args.dt, jfng=_jfng_config(args)))
    if args.zero_state:
        init = sn.zero_start(model.full_net, args.dt)
        if ramp_steps is None:
            args.t_ramp = sn.ramp_length(model.full_net)  # recorded in the manifest
            ramp_steps = _steps(args, "t_ramp")

    sim = ek.SimConfig(dt=args.dt, steps=steps, record=probes, fault=fault,
                       ramp_steps=ramp_steps)
    waves, _ = ek.run(model.full_net, sim, init=init)

    outdir = _outdir(args)
    ek.write_waveforms_csv(outdir / "waveforms.csv", waves)
    _write_manifest(args, outdir, ["waveforms.csv"])
    return EXIT_OK


def average_relative_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Mean absolute deviation normalized by the reference mean amplitude."""
    denom = float(np.sum(np.abs(b)))
    if denom == 0.0:
        return float(np.sum(np.abs(a - b)))
    return float(np.sum(np.abs(a - b)) / denom)


def cmd_compare(args) -> int:
    """The initialized run against the zero-state run over one window.

    Both runs step the system model's full net: the initialized one from
    the `init` snapshot, the zero-state one from the state where its ramp
    settled (`sn.settle_from_zero`).  The --fault bus and the zero-state
    ramp are checked on the model's full net before any region ramps
    (`sn.run_emtgis`).  The window [w0, w1] is --window long.  Without a
    fault, w0 is the second cycle start after the zero-state run settles;
    a --fault moves w0 to its own step, which must not come before that.
    Each run steps from its start state to w0 recording nothing, then from
    w0 to w1 with the probes and the fault: only [w0, w1] is recorded, so
    a run's memory grows with the window, not with its steps to steady.
    An initialized snapshot past w0 leaves no window to compare, an input
    error (exit 1).  The deviations are `average_relative_deviation` per
    probe key over the window.
    """
    case = load_case(args.case)
    fault = _parse_fault(args.fault, args.dt) if args.fault else None
    probes = _probes(args, case)
    window_steps = _steps(args, "window")
    settle_steps = _steps(args, "settle_cap")

    cfg = _pipeline_config(args)
    model = sn.system_model(case, cfg)
    full_net = model.full_net
    if fault is not None and fault.target not in full_net.nodes:
        raise UnknownBus(f"fault targets unknown node '{fault.target}'")
    if (t_zero := sn.ramp_length(full_net, args.t_ramp)) > args.settle_cap:
        raise ValueError(f"the zero-state ramp of {t_zero} s is past --settle-cap "
                         f"{args.settle_cap} s")
    gis = sn.run_emtgis(case, model, cfg)
    settle_cfg = ek.SimConfig(dt=args.dt, steps=settle_steps, record=probes)
    zero_state, zero_fired = sn.settle_from_zero(full_net, settle_cfg, t_zero)

    cycles = ek.to_steps(case.period, args.dt)
    w0_step = ((zero_state.step // cycles) + 2) * cycles
    if fault is not None:
        if fault.step < w0_step:
            raise ValueError("fault must come after the zero-state run settles")
        w0_step = fault.step
    w1_step = w0_step + window_steps
    gis_state = gis.snapshot.emt_state
    if gis_state.step > w0_step:
        raise ValueError(f"the window starts at step {w0_step}, before the initialized "
                         f"snapshot at step {gis_state.step}")

    def window(start: ek.EmtState) -> dict[str, np.ndarray]:
        lead_in = ek.SimConfig(dt=args.dt, steps=w0_step - start.step)
        _, at_w0 = ek.run(full_net, lead_in, init=start)
        sim = ek.SimConfig(dt=args.dt, steps=window_steps, record=probes, fault=fault)
        return ek.run(full_net, sim, init=at_w0)[0].data

    waves_zero = window(zero_state)
    waves_gis = window(gis_state)
    deviations = {key: average_relative_deviation(waves_gis[key], waves_zero[key])
                  for key in waves_zero}

    gis_steps = max(gis.report["gis_cost_steps"], 1)
    doc = {
        "window_steps": [w0_step, w1_step],
        "dt": args.dt,
        "fault": args.fault,
        "deviations": deviations,
        "steps_to_steady": {
            "gis": gis.report["gis_cost_steps"],
            "zero_state": zero_fired,
            "ratio": zero_fired / gis_steps,
        },
    }
    outdir = _outdir(args)
    (outdir / "compare.json").write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    _write_manifest(args, outdir, ["compare.json"])
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
