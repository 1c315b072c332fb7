"""Outside-in tracer for the emtgis layers.

The program has no spans of its own yet, so this module wraps the public
functions of each layer from outside: every module attribute in the
`emtgis` package that is bound to a wrapped function is replaced (so
`solve_main` is caught in `powerflow`, `coordinator` and `snapshot`
alike), and methods are replaced on their class.  `uninstall` puts every
original object back.

Each call becomes a span (id, name, parent, start, end) kept per thread in
a flat array of doubles.  A span that opens on a worker thread with no span
of its own open (the `residual` thread pool) takes as parent the span open
on the main thread.  Self time is a span's duration minus the union of
its children's intervals, so children that overlap on worker threads are
not subtracted twice.

Hot leaf helpers (`ramp_profile`, `normalize_angle`, `eval_expr`) are not
wrapped; their time lands in the self time of their caller, as does the
reference work of `speed.SpeedMeter` (about 1% of a job).
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time
from array import array
from collections import defaultdict
from pathlib import Path

from emtgis.errors import NonFinite


def _jfng_value(result, args):
    _, trace = result
    return (trace.outer_iterations, sum(r.inner_iters for r in trace.rows),
            sum(1 for r in trace.rows if r.restarted))


# (module, attribute, value hook).  The value hook turns a call's return value
# and arguments into a number kept on its span; a call that raises keeps the
# exception instead.
SITES = [
    ("netmodel", "load_case", None),
    ("netmodel", "validate_case", None),
    ("netmodel", "build_admittance", None),
    ("netmodel", "inline_grbcs", None),
    ("powerflow", "solve_main", lambda r, a: r.iterations),
    ("powerflow", "boundary_injections", None),
    ("powerflow", "solve_monolithic", None),
    ("grbc", "evaluate", None),
    ("grbc", "internal_pf_case", None),
    ("coordinator", "jfng_solve", _jfng_value),
    ("coordinator", "residual", None),
    ("coordinator", "gmres_m", None),
    ("coordinator", "directional_difference", None),
    ("coordinator", "precond_update", None),
    ("emtkernel", "CompiledNet.__init__", None),
    # Full nets are named "<case>:full" (fault variants keep the name);
    # region ramps step "region:<name>+thev".
    ("emtkernel", "CompiledNet.step", lambda r, a: a[0].net.name.endswith(":full")),
    ("emtkernel", "ProbeSet.sample", None),
    ("emtkernel", "run", None),
    ("emtkernel", "run_until_steady", None),
    ("emtkernel", "phasor_solve", None),
    ("snapshot", "system_model", None),
    ("snapshot", "run_emtgis", None),
    ("snapshot", "region_operating_point", None),
    ("snapshot", "build_main_net", None),
    ("snapshot", "build_region_net", None),
    ("snapshot", "build_full_net", None),
    ("snapshot", "phasor_init", None),
    ("snapshot", "thevenin_extract", None),
    ("snapshot", "ramp_to_snapshot", lambda r, a: r.timestamp_steps),
    ("snapshot", "advance_snapshot", None),
    ("snapshot", "splice", None),
    ("snapshot", "settle_from_zero", None),
    ("snapshot", "save_snapshot", lambda r, a: Path(a[1]).stat().st_size),
    ("snapshot", "load_snapshot", None),
    ("cli", "main", None),
]


class Tracer:
    """Installs the wrappers; collects spans between `install` and `uninstall`."""

    def __init__(self):
        self._names: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: list[array] = []
        self._lock = threading.Lock()
        self._main_stack: list[float] = []
        self.values: dict[int, object] = {}
        self._patches: list[tuple[object, str, object]] = []

    # --- install / uninstall ---------------------------------------------

    def _name_id(self, name: str) -> int:
        self._names.append(name)
        return len(self._names) - 1

    def _thread_state(self):
        stack: list[float] = []
        buf = array("d")
        with self._lock:
            self._buffers.append(buf)
        self._local.stack, self._local.buf = stack, buf
        return stack, buf

    def _wrap(self, fn, name: str, value_hook):
        local, ids, values = self._local, self._ids, self.values
        main_stack = self._main_stack
        clock = time.perf_counter
        nid = self._name_id(name)

        def wrapper(*args, **kwargs):
            try:
                stack, buf = local.stack, local.buf
            except AttributeError:
                stack, buf = self._thread_state()
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else -1.0)
            sid = float(next(ids))
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                values[int(sid)] = exc
                raise
            finally:
                t1 = clock()
                stack.pop()
                buf.extend((sid, nid, parent, t0, t1))
            if value_hook is not None:
                values[int(sid)] = value_hook(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._local.stack, self._local.buf = self._main_stack, array("d")
        self._buffers.append(self._local.buf)
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "emtgis" or n.startswith("emtgis."))]
        for mod_name, attr, value_hook in SITES:
            mod = importlib.import_module(f"emtgis.{mod_name}")
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(orig, name, value_hook))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(orig, name, value_hook)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patches.append((m, key, orig))
                        setattr(m, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    @property
    def patched_sites(self) -> list[tuple[object, str, object]]:
        return list(self._patches)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # --- derived figures ---------------------------------------------------

    def spans(self) -> list[tuple[int, str, int, float, float]]:
        """All closed spans as (id, name, parent id or -1, start, end)."""
        out = []
        with self._lock:
            buffers = list(self._buffers)
        for buf in buffers:
            for i in range(0, len(buf), 5):
                sid, nid, parent, t0, t1 = buf[i:i + 5]
                out.append((int(sid), self._names[int(nid)], int(parent), t0, t1))
        return out


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, _, parent, t0, t1 in spans:
        if parent >= 0:
            children[parent].append((t0, t1))
    out = {}
    for sid, _, _, t0, t1 in spans:
        covered = 0.0
        kids = children.get(sid)
        if kids:
            kids.sort()
            lo, hi = kids[0]
            for a, b in kids[1:]:
                if a > hi:
                    covered += hi - lo
                    lo, hi = a, b
                elif b > hi:
                    hi = b
            covered += hi - lo
        out[sid] = (t1 - t0) - covered
    return out


REGION_PARENTS = {"grbc.evaluate", "snapshot.region_operating_point"}


def layer_metrics(spans, values: dict[int, object], wall_s: float,
                  artifact_bytes: int) -> dict[str, float]:
    """Per-layer figures of one traced job, by the names in BENCHMARK.json."""
    selfs = self_times(spans)
    names = {sid: name for sid, name, _, _, _ in spans}
    count: dict[str, int] = defaultdict(int)
    incl: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    value_sum: dict[str, float] = defaultdict(float)
    pf_ms = {"main": 0.0, "region": 0.0}
    step_n = {True: 0, False: 0}         # CompiledNet.step calls and seconds,
    step_s = {True: 0.0, False: 0.0}     # keyed by "the net is a full net"
    retries = 0
    outer = inner = restarts = 0
    for sid, name, parent, t0, t1 in spans:
        count[name] += 1
        incl[name] += t1 - t0
        self_s[name] += selfs[sid]
        v = values.get(sid)
        if name == "powerflow.solve_main":
            side = "region" if names.get(parent) in REGION_PARENTS else "main"
            pf_ms[side] += (t1 - t0) * 1e3
        if v is None:
            continue
        if isinstance(v, BaseException):
            if name == "coordinator.directional_difference" and isinstance(v, NonFinite):
                retries += 1
        elif name == "emtkernel.CompiledNet.step":
            step_n[v] += 1
            step_s[v] += t1 - t0
        elif name == "coordinator.jfng_solve":
            outer += v[0]
            inner += v[1]
            restarts += v[2]
        else:
            value_sum[name] += v

    def mean_us(seconds, calls):
        return seconds / calls * 1e6 if calls else 0.0

    residual_calls = count["coordinator.residual"]
    layer_self = sum(self_s.values())
    return {
        "emtkernel.step.calls.region": step_n[False],
        "emtkernel.step.calls.full": step_n[True],
        "emtkernel.step.us.region": mean_us(step_s[False], step_n[False]),
        "emtkernel.step.us.full": mean_us(step_s[True], step_n[True]),
        "emtkernel.probe_sample.us": mean_us(incl["emtkernel.ProbeSet.sample"],
                                             count["emtkernel.ProbeSet.sample"]),
        "emtkernel.run_until_steady.self_s": self_s["emtkernel.run_until_steady"],
        "emtkernel.run.self_s": self_s["emtkernel.run"],
        "emtkernel.compiled_net.calls": count["emtkernel.CompiledNet.__init__"],
        "emtkernel.compiled_net.ms": incl["emtkernel.CompiledNet.__init__"] * 1e3,
        "emtkernel.phasor_solve.calls": count["emtkernel.phasor_solve"],
        "emtkernel.phasor_solve.ms": incl["emtkernel.phasor_solve"] * 1e3,
        "snapshot.ramp_to_snapshot.s": incl["snapshot.ramp_to_snapshot"],
        "snapshot.advance_snapshot.s": incl["snapshot.advance_snapshot"],
        "snapshot.settle_from_zero.s": incl["snapshot.settle_from_zero"],
        "snapshot.ramp_steps": value_sum["snapshot.ramp_to_snapshot"],
        "snapshot.system_model.calls": count["snapshot.system_model"],
        "snapshot.thevenin_extract.calls": count["snapshot.thevenin_extract"],
        "snapshot.build_region_net.calls": count["snapshot.build_region_net"],
        "snapshot.build_main_net.calls": count["snapshot.build_main_net"],
        "snapshot.phasor_init.ms": incl["snapshot.phasor_init"] * 1e3,
        "snapshot.splice.ms": incl["snapshot.splice"] * 1e3,
        "snapshot.save_snapshot.ms": incl["snapshot.save_snapshot"] * 1e3,
        "snapshot.snapshot_bytes": value_sum["snapshot.save_snapshot"],
        "coordinator.jfng_solve.s": incl["coordinator.jfng_solve"],
        "coordinator.residual.calls": residual_calls,
        "coordinator.residual.self_ms": self_s["coordinator.residual"] * 1e3,
        "coordinator.gmres_m.self_s": self_s["coordinator.gmres_m"],
        "coordinator.outer_iters": outer,
        "coordinator.gmres_inner_iters": inner,
        "coordinator.gmres_restarts": restarts,
        "coordinator.residual_per_outer": residual_calls / outer if outer else 0.0,
        "coordinator.probe_retries": retries,
        "powerflow.solve_main.calls": count["powerflow.solve_main"],
        "powerflow.solve_main.ms.main": pf_ms["main"],
        "powerflow.solve_main.ms.region": pf_ms["region"],
        "powerflow.nr_iters": value_sum["powerflow.solve_main"],
        "grbc.evaluate.calls": count["grbc.evaluate"],
        "grbc.evaluate.self_ms": self_s["grbc.evaluate"] * 1e3,
        "grbc.internal_pf_case.calls": count["grbc.internal_pf_case"],
        "netmodel.build_admittance.calls": count["netmodel.build_admittance"],
        "netmodel.build_admittance.ms": incl["netmodel.build_admittance"] * 1e3,
        "netmodel.validate_case.calls": count["netmodel.validate_case"],
        "netmodel.load_case.ms": incl["netmodel.load_case"] * 1e3,
        "cli.main.self_ms": self_s["cli.main"] * 1e3,
        "cli.artifact_bytes": artifact_bytes,
        "trace.coverage": layer_self / wall_s if wall_s > 0 else 0.0,
    }
