import json
import math
import os
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import emtgis
import emtgis.emtkernel as ek
from emtgis.netmodel import load_case

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


def overloaded_hybrid_doc() -> dict:
    """The hybrid case with region plant2 scripted to draw 50 + j30 pu.

    No operating point exists near the flat start: an unguarded Newton step
    takes a boundary voltage magnitude below zero.
    """
    doc = json.loads(Path(case_path("hybrid")).read_text())
    for region in doc["grbcs"]:
        if region["name"] == "plant2":
            region["payload"] = {"p": -50, "q": -30}
    return doc


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

    return sn.run_emtgis(ninebus1, sn.PipelineConfig(dt=5e-5))


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
    result = sn.run_emtgis(hybrid, sn.PipelineConfig(dt=dt))
    probes = [b.id for b in hybrid.buses]
    settle_cfg = ek.SimConfig(dt=dt, duration=12.0, record=probes,
                              ramp_sources=True, t_ramp=0.5)
    zero_state, zero_fired = sn.settle_from_zero(result.full_net, settle_cfg)
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


def injection_thevenin(net, boundary):
    """Direct nodal-matrix oracle: ground all sources, inject 1 pu at the
    boundary, read off the boundary voltage."""
    nodes = list(net.nodes)
    index = {nid: i for i, nid in enumerate(nodes)}
    n = len(nodes)
    y = np.zeros((n + 1, n + 1), dtype=complex)
    for e in net.elements:
        yv = ek.continuous_admittance(e.kind, e.value, net.omega)
        f = index[e.n_from]
        t = n if e.n_to is None else index[e.n_to]
        y[f, f] += yv
        y[t, t] += yv
        y[f, t] -= yv
        y[t, f] -= yv
    grounded = {index[s.node] for s in net.sources}
    keep = [i for i in range(n) if i not in grounded]
    inj = np.zeros(len(keep), dtype=complex)
    inj[keep.index(index[boundary])] = 1.0
    v = np.linalg.solve(y[np.ix_(keep, keep)], inj)
    return complex(v[keep.index(index[boundary])])


def subset_state(state, node_ids, element_ids, machine_ids=()):
    """Restrict a full-system state to one subsystem's variables."""
    n_idx = [state.node_ids.index(n) for n in node_ids]
    e_idx = [state.element_ids.index(e) for e in element_ids]
    m_idx = [state.machine_ids.index(m) for m in machine_ids]
    return ek.EmtState(
        step=state.step, dt=state.dt,
        node_ids=tuple(node_ids), element_ids=tuple(element_ids),
        source_ids=(), machine_ids=tuple(machine_ids),
        v_nodes=state.v_nodes[n_idx].copy(),
        elem_i=state.elem_i[e_idx].copy(),
        hist_u=state.hist_u[e_idx].copy(),
        hist_i=state.hist_i[e_idx].copy(),
        machine_delta=state.machine_delta[m_idx].copy(),
        machine_speed_dev=state.machine_speed_dev[m_idx].copy(),
        machine_emf=state.machine_emf[m_idx].copy(),
        machine_pm=state.machine_pm[m_idx].copy(),
        source_scale=np.zeros(0),
    )
