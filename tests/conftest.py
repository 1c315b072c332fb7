import cmath
import importlib.util
import json
import math
import os
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import emtgis
import emtgis.emtkernel as ek
import emtgis.snapshot as sn
from emtgis.netmodel import load_case, parse_case
from emtgis.powerflow import boundary_injections
from reference_kernel import companion
from reference_phasor import effective_admittance, net_pins

OMEGA_50 = 2 * math.pi * 50.0


def case_path(name: str) -> str:
    return str(resources.files("emtgis.cases") / f"{name}.json")


def cli_env() -> dict:
    """Environment for a `python -m emtgis` child process.

    The absolute root of the package under test goes first in `PYTHONPATH`,
    so the child imports that package whatever its working directory; the
    inherited entries follow.
    """
    root = str(Path(emtgis.__file__).resolve().parents[1])
    path = filter(None, [root, os.environ.get("PYTHONPATH")])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


def doc_with(name: str, path: tuple, value) -> dict:
    """The bundled case `name`'s document with the entry at `path` (keys
    and list indices) set to `value`."""
    doc = json.loads(Path(case_path(name)).read_text())
    *parents, key = path
    record = doc
    for step in parents:
        record = record[step]
    record[key] = value
    return doc


def overloaded_hybrid_doc() -> dict:
    """The hybrid case with region plant2 scripted to draw 50 + j40 pu.

    No operating point exists near the start: the first unguarded Newton
    step takes plant2's boundary voltage magnitude below zero, and the
    second leaves the basin at every halving, so the coordinator rejects
    its second outer step.
    """
    doc = json.loads(Path(case_path("hybrid")).read_text())
    for region in doc["grbcs"]:
        if region["name"] == "plant2":
            region["payload"] = {"p": -50, "q": -40}
    return doc


def scaled_doc(k, seed, idle_b1=False):
    """The case document of k tied copies of ninebus3 by the benchmark's
    `scaled_case_doc`, loaded from bench/scaled.py and only read.  With
    `idle_b1`, B1 of every copy after the first dispatches nothing: the
    unbalanced chain, whose later copies draw their output from the one
    slack."""
    path = Path(__file__).resolve().parents[1] / "bench" / "scaled.py"
    spec = importlib.util.spec_from_file_location("scaled", path)
    scaled = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scaled)
    doc = scaled.scaled_case_doc(json.loads(Path(case_path("ninebus3")).read_text()), k, seed)
    if idle_b1:
        for m in doc["machines"]:
            if m["bus"].endswith("_B1") and m["bus"] != "c0_B1":
                m["p_set"] = 0.0
    return doc


def scaled_case(k, seed, idle_b1=False):
    """`scaled_doc(k, seed, idle_b1)` parsed."""
    return parse_case(scaled_doc(k, seed, idle_b1), name=f"scaled{k}")


@pytest.fixture(scope="session")
def twobus():
    return load_case(case_path("twobus"))


@pytest.fixture(scope="session")
def ninebus1():
    return load_case(case_path("ninebus1"))


@pytest.fixture(scope="session")
def ninebus2():
    return load_case(case_path("ninebus2"))


@pytest.fixture(scope="session")
def ninebus3():
    return load_case(case_path("ninebus3"))


@pytest.fixture(scope="session")
def hybrid():
    return load_case(case_path("hybrid"))


def pipeline(case, cfg):
    """`sn.run_emtgis` on `sn.system_model`'s model of case, as `emtgis
    init` runs them."""
    return sn.run_emtgis(case, sn.system_model(case, cfg), cfg)


@pytest.fixture(scope="session")
def ninebus3_model(ninebus3):
    """Coordinated system model of ninebus3 at dt = 5e-5."""
    from emtgis import snapshot as sn

    return sn.system_model(ninebus3, sn.PipelineConfig(dt=5e-5))


@pytest.fixture(scope="session")
def hybrid_model(hybrid):
    """Coordinated system model of the hybrid case at dt = 5e-5."""
    from emtgis import snapshot as sn

    return sn.system_model(hybrid, sn.PipelineConfig(dt=5e-5))


@pytest.fixture(scope="session")
def ninebus1_pipeline(ninebus1):
    """One shared end-to-end initialization of the single-region fixture."""
    from emtgis import snapshot as sn

    return pipeline(ninebus1, sn.PipelineConfig(dt=5e-5))


@pytest.fixture(scope="session")
def hybrid_comparison(hybrid):
    """Initialized-vs-zero-state artifacts on the hybrid case, computed once.

    Returns the pipeline result plus the settled zero-state run and matched
    comparison windows (no fault and fault variants are built lazily by the
    tests that need them from these states).
    """
    import emtgis.emtkernel as ek
    from emtgis import snapshot as sn

    dt = 5e-5
    result = pipeline(hybrid, sn.PipelineConfig(dt=dt))
    probes = [b.id for b in hybrid.buses]
    # `compare`'s default ramp, the full net's `ramp_length`
    settle_cfg = ek.SimConfig(dt=dt, steps=ek.to_steps(12.0, dt), record=probes)
    full_net = result.model.full_net
    zero_state, zero_fired = sn.settle_from_zero(full_net, settle_cfg, sn.ramp_length(full_net))
    return {
        "case": hybrid,
        "dt": dt,
        "probes": probes,
        "result": result,
        "zero_state": zero_state,
        "zero_fired": zero_fired,
    }


def load_json(path: Path):
    return json.loads(Path(path).read_text())


def random_linear_net(rng, n_buses=None):
    """Random passive RLC chain with stub branches and one stiff source."""
    n = n_buses or int(rng.integers(3, 7))
    nodes = [f"n{i}" for i in range(n)]
    elements = []
    for i in range(1, n):
        j = int(rng.integers(0, i))
        r = float(rng.uniform(0.01, 0.2))
        x = float(rng.uniform(0.05, 0.4))
        elements.append(ek.Element(f"r{i}", ek.ElementKind.RESISTOR,
                                   nodes[j], f"m{i}", r))
        elements.append(ek.Element(f"l{i}", ek.ElementKind.INDUCTOR,
                                   f"m{i}", nodes[i], x / OMEGA_50))
        nodes.append(f"m{i}")
    for i in range(1, n):
        if rng.random() < 0.5:
            b = float(rng.uniform(0.05, 0.3))
            elements.append(ek.Element(f"c{i}", ek.ElementKind.CAPACITOR,
                                       nodes[i], None, b / OMEGA_50))
    net = ek.EmtNet("rand", 50.0, tuple(nodes), tuple(elements),
                    (ek.Source("src", "n0", float(rng.uniform(0.9, 1.1)),
                               float(rng.uniform(-0.3, 0.3))),))
    return net, f"n{n - 1}"


def injection_thevenin(net, boundary, dt=5e-5):
    """Direct nodal-matrix oracle of the boundary impedance as the kernel
    steps it: stamp each element's companion admittance at dt
    (`effective_admittance`), ground every node the net pins, inject 1 pu
    at the boundary, read off the boundary voltage."""
    nodes = list(net.nodes)
    index = {nid: i for i, nid in enumerate(nodes)}
    n = len(nodes)
    y = np.zeros((n + 1, n + 1), dtype=complex)
    for e in net.elements:
        yv = effective_admittance(companion(e.kind, e.value, dt), net.omega, dt)
        f = index[e.n_from]
        t = n if e.n_to is None else index[e.n_to]
        y[f, f] += yv
        y[t, t] += yv
        y[f, t] -= yv
        y[t, f] -= yv
    grounded = {index[nid] for nid in net_pins(net)}
    keep = [i for i in range(n) if i not in grounded]
    inj = np.zeros(len(keep), dtype=complex)
    inj[keep.index(index[boundary])] = 1.0
    v = np.linalg.solve(y[np.ix_(keep, keep)], inj)
    return complex(v[keep.index(index[boundary])])


def drawn_currents(pf, case):
    """The current each region of `case` draws from its boundary bus at
    the main solution pf, as `sn.run_emtgis` forms the table that
    `sn.thevenin_extract` takes: its `boundary_injections` (p, q) at the
    bus's voltage."""
    return {bus: sn.machine_port_current(complex(p, q), pf.voltage(bus).rect)
            for bus, (p, q) in boundary_injections(pf, case).items()}


def zbus(net, buses, dt=5e-5):
    """The table `sn.thevenin_extract` takes, as `sn.run_emtgis` builds
    it: each bus's column of one `ek.phasor_solve` with a unit injection
    at every bus of `buses`."""
    nodes, _ = ek.phasor_solve(net, dt, buses)
    return {bus: nodes[:, net.nodes.index(bus)] for bus in buses}


def subset_state(state, node_ids, element_ids, machine_ids=()):
    """Restrict a full-system state to one subsystem's variables."""
    n_idx = [state.node_ids.index(n) for n in node_ids]
    e_idx = [state.element_ids.index(e) for e in element_ids]
    m_idx = [state.machine_ids.index(m) for m in machine_ids]
    return ek.EmtState(
        step=state.step, dt=state.dt,
        node_ids=tuple(node_ids), element_ids=tuple(element_ids),
        machine_ids=tuple(machine_ids),
        v_nodes=state.v_nodes[n_idx].copy(),
        elem_i=state.elem_i[e_idx].copy(),
        i_hist=state.i_hist[e_idx].copy(),
        machine_delta=state.machine_delta[m_idx].copy(),
        machine_speed_dev=state.machine_speed_dev[m_idx].copy(),
        machine_pm=state.machine_pm[m_idx].copy(),
    )


def with_sources_zeroed(net: ek.EmtNet) -> ek.EmtNet:
    """The net with every source at zero RMS."""
    return net._replace(sources=tuple(s._replace(rms=0.0) for s in net.sources))


def stored_energy(net: ek.EmtNet, state: ek.EmtState) -> float:
    """Total inductor + capacitor energy over all phases."""
    total = 0.0
    for k, e in enumerate(net.elements):
        if e.kind is ek.ElementKind.INDUCTOR:
            total += 0.5 * e.value * float(np.sum(state.elem_i[k] ** 2))
        elif e.kind is ek.ElementKind.CAPACITOR:
            f = state.node_ids.index(e.n_from)
            vf = state.v_nodes[f]
            vt = state.v_nodes[state.node_ids.index(e.n_to)] if e.n_to else 0.0
            total += 0.5 * e.value * float(np.sum((vf - vt) ** 2))
    return total


def phasor_consistency_error(snap: sn.Snapshot) -> float:
    """Max |v(t) - Re(sqrt2 V e^{jwt})| over a snapshot's boundary buses
    and phases."""
    omega = 2.0 * math.pi * snap.frequency_hz
    t = snap.timestamp_steps * snap.emt_state.dt
    worst = 0.0
    for bus, (vph, _) in snap.boundary_phasors.items():
        node = snap.emt_state.node_ids.index(bus)
        for ph in range(3):
            expect = ek.SQRT2 * (vph.rect * cmath.exp(
                1j * (omega * t + ek.PHASE_SHIFT[ph]))).real
            worst = max(worst, abs(snap.emt_state.v_nodes[node, ph] - expect))
    return worst


def fourier_phasor(samples: np.ndarray, end_step: int, dt: float, omega: float) -> complex:
    """RMS phasor of one full cycle of samples ending at end_step (absolute
    clock): for v(t) = sqrt(2) |V| cos(omega t + a) it is |V| e^{ja}."""
    n = len(samples)
    t = np.arange(end_step - n + 1, end_step + 1) * dt
    return complex(2.0 / (ek.SQRT2 * n) * np.sum(samples * np.exp(-1j * omega * t)))


def space_vector(rows: np.ndarray, step: int, dt: float, omega: float) -> complex:
    """RMS phasor at `step` of a balanced three-phase set from its
    instantaneous phases a, b, c: (sqrt2/3) sum_k x_k e^{-j(omega t +
    phase_k)}, as `sn.run_emtgis` reads each boundary current."""
    return complex(ek.SQRT2 / 3.0 * rows @ np.exp(-1j * (omega * step * dt + ek.PHASE_SHIFT)))


def cycle_rms(waves: ek.WaveformSet, key: str, samples_per_cycle: int,
              last_only: bool = True):
    """RMS of each whole cycle of one waveform, counted back from its last
    sample; only the last cycle's with `last_only`."""
    y = waves.data[key]
    usable = (len(y) - 1) // samples_per_cycle * samples_per_cycle
    cycles = y[len(y) - usable:].reshape(-1, samples_per_cycle)
    rms = np.sqrt(np.mean(cycles**2, axis=1))
    return rms[-1] if last_only else rms


def sample_one(probes: ek.ProbeSet, z: np.ndarray, ramped: int = 0) -> np.ndarray:
    """`ProbeSet.sample` of a single buffer (2, rows): one value per key."""
    out = np.empty((len(probes.keys), 1))
    probes.sample(z[None], out, ramped)
    return out[:, 0]


def _exact_steps(t: float, dt: float, what: str) -> int:
    steps = int(round(t / dt))
    if abs(steps * dt - t) > 1e-9 * max(dt, abs(t)):
        raise ValueError(f"{what} ({t}) is not on the dt={dt} step grid")
    return steps


def splice_schedule(ready_times: dict[str, float], period: float,
                    dt: float) -> sn.SpliceSchedule:
    """`snapshot.schedule_from_steps` on times: each must lie on the dt
    grid, and the period too, so (t_adj - t_ref) mod (2T) is exactly
    0 in integer steps."""
    if not ready_times:
        raise ValueError("no subsystems to schedule")
    period_steps = _exact_steps(period, dt, "period")
    ready_steps = {name: _exact_steps(t, dt, f"ready time of '{name}'")
                   for name, t in ready_times.items()}
    return sn.schedule_from_steps(ready_steps, period_steps)
