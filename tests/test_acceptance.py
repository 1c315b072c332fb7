"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured figure next to its required bound.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.
"""

import ast
import copy
import inspect
import math
import subprocess
import sys
import time

import numpy as np

import emtgis.coordinator as coordinator_module
import emtgis.emtkernel as ek
import emtgis.snapshot as sn
from conftest import (
    case_path,
    cli_env,
    cycle_rms,
    fourier_phasor,
    injection_thevenin,
    random_linear_net,
    subset_state,
    zbus,
)
from emtgis.coordinator import (
    JfngConfig,
    gmres_m,
    jfng_solve,
    precond_update,
)
from emtgis.grbc import parse_declaration
from emtgis.netmodel import BusKind, BusRecord
from emtgis.powerflow import solve_monolithic


def report(criterion: str, measured: str, bound: str, ok: bool):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {measured} (required {bound})")
    assert ok, f"{criterion}: {measured}, required {bound}"


# -- 1. coordinated power flow equals the whole-network reference --------------


def test_criterion_1_ipf_oracle_equivalence(ninebus1, ninebus2, ninebus3):
    worst_v = worst_a = 0.0
    slowest = 0.0
    for case in (ninebus1, ninebus2, ninebus3):
        mono = solve_monolithic(case, tol=1e-12)
        n = len(case.grbcs)
        t0 = time.perf_counter()
        state, trace = jfng_solve(case, case.grbcs,
                                  np.concatenate([np.ones(n), np.zeros(n)]),
                                  JfngConfig())
        slowest = max(slowest, time.perf_counter() - t0)
        assert trace.status == "converged"
        for i, g in enumerate(case.grbcs):
            ph = mono.voltage(g.boundary_bus)
            worst_v = max(worst_v, abs(state.x[i] - ph.magnitude))
            worst_a = max(worst_a, abs(state.x[n + i] - ph.angle))
    report("criterion-1 ipf-oracle-equivalence",
           f"dV {worst_v:.2e} pu, dTheta {worst_a:.2e} rad, "
           f"slowest fixture {slowest:.2f} s",
           "1e-6 / 1e-6 / 5 s", worst_v < 1e-6 and worst_a < 1e-6 and slowest < 5.0)


# -- 2. Jacobian freedom of the coordinator ------------------------------------


def test_criterion_2_jacobian_freedom(twobus):
    src = inspect.getsource(coordinator_module)
    tree = ast.parse(src)
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and \
                node.module.endswith("grbc"):
            used.update(a.name for a in node.names)
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and node.value.id == "grbc":
            used.add(node.attr)
    surface_ok = used == {"evaluate", "adapter_is_opaque"}

    # swapping a white-box region for a scripted response with the identical
    # characteristic must leave the coordination output unchanged
    case = copy.deepcopy(twobus)
    case.buses[1] = BusRecord("B2", BusKind.BOUNDARY, 230.0)
    y_region = 1.0 / (complex(0.02, 0.1) + 1.0 / complex(1.0, -0.5))
    wb = parse_declaration({
        "name": "r", "boundary_bus": "B2", "kind": "WhiteBoxNetwork",
        "payload": {
            "buses": [{"id": "W", "kind": "PQ", "base_kv": 230.0,
                       "shunt_g": 1.0, "shunt_b": -0.5}],
            "branches": [{"from": "B2", "to": "W", "r": 0.02, "x": 0.1}],
        },
    }, case.base_mva, case.frequency_hz)
    sc = parse_declaration({
        "name": "r", "boundary_bus": "B2", "kind": "ScriptedResponse",
        "payload": {"p": ["*", -y_region.real, ["pow", "V", 2]],
                    "q": ["*", y_region.imag, ["pow", "V", 2]]},
    }, case.base_mva, case.frequency_hz)
    outs = []
    for decl in (wb, sc):
        c = copy.deepcopy(case)
        c.grbcs = [decl]
        state, _ = jfng_solve(c, c.grbcs, np.array([1.0, 0.0]),
                              JfngConfig(eps1=1e-9))
        outs.append(np.concatenate([state.x, state.p_tilde, state.q_tilde]))
    drift = float(np.max(np.abs(outs[0] - outs[1])))
    report("criterion-2 jacobian-freedom",
           f"region surface {sorted(used)}, swap drift {drift:.2e}",
           "{adapter_is_opaque, evaluate} / 1e-9",
           surface_ok and drift < 1e-9)


# -- 3. secant property of the rank-one preconditioner updates -----------------


def test_criterion_3_secant_property():
    rng = np.random.default_rng(2026)
    worst = 0.0
    trials = 0
    while trials < 1000:
        n = int(rng.integers(2, 12))
        m = np.eye(n) + 0.3 * rng.normal(size=(n, n)) / math.sqrt(n)
        dx = rng.normal(size=n)
        dphi = rng.normal(size=n)
        if abs(dx @ (m @ dphi)) < 1e-6:  # keep the batch non-degenerate
            continue
        out = precond_update(m, dx, dphi)
        err = np.linalg.norm(out @ dphi - dx) / np.linalg.norm(dx)
        worst = max(worst, err)
        trials += 1
    report("criterion-3 secant-property",
           f"worst relative error {worst:.2e} over 1000 updates",
           "1e-10", worst <= 1e-10)


# -- 4. linear correctness of the inner solver ---------------------------------


def test_criterion_4_gmres_linear_correctness():
    rng = np.random.default_rng(40)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 41))
        a = np.eye(n) + 0.3 * rng.normal(size=(n, n)) / math.sqrt(n)
        r0 = rng.normal(size=n)
        cfg = JfngConfig(m_restart=40)
        dx, _, info = gmres_m(-r0, lambda z: a @ z, np.eye(n),
                              cfg)
        eps_g = cfg.eps2 * np.linalg.norm(r0)
        resid = np.linalg.norm(a @ dx - r0)
        worst = max(worst, resid / eps_g)
        assert info.converged
    report("criterion-4 gmres-linear-correctness",
           f"worst ||A dx - r0|| at {worst:.3f} of eps_G over 100 probes",
           "<= 1.0", worst <= 1.0)


# -- 5/6/7 use the shared hybrid comparison artifacts ---------------------------


def _window_deviations(full_net, probes, dt, gis_snap, zero_state, w0, w1,
                       fault=None):
    """Average relative deviation per probe over [w0, w1] (absolute steps)."""
    sim_z = ek.SimConfig(dt=dt, steps=w1 - zero_state.step,
                         record=probes, fault=fault)
    waves_z, _ = ek.run(full_net, sim_z, init=zero_state)
    sim_g = ek.SimConfig(dt=dt, steps=w1 - gis_snap.emt_state.step,
                         record=probes, fault=fault)
    waves_g, _ = ek.run(full_net, sim_g, init=gis_snap.emt_state)
    out = {}
    z_off = zero_state.step
    g_off = gis_snap.emt_state.step
    for key in waves_z.data:
        z = waves_z.data[key][w0 - z_off:w1 - z_off + 1]
        g = waves_g.data[key][w0 - g_off:w1 - g_off + 1]
        out[key] = float(np.sum(np.abs(g - z)) / max(np.sum(np.abs(z)), 1e-12))
    return out


def test_criterion_5_steady_state_hold(hybrid_comparison):
    c = hybrid_comparison
    res, dt = c["result"], c["dt"]
    n_cycle = int(round(c["case"].period / dt))

    waves, _ = ek.run(res.model.full_net,
                      ek.SimConfig(dt=dt, steps=ek.to_steps(0.5, dt), record=c["probes"]),
                      init=res.snapshot.emt_state)
    worst_hold = 0.0
    for b in c["probes"]:
        target = res.model.boundary_state.main_solution.voltage(b).magnitude
        rms = cycle_rms(waves, f"{b}.a", n_cycle, last_only=False)
        worst_hold = max(worst_hold, float(np.max(np.abs(rms - target)) / target))

    w0 = ((c["zero_state"].step // n_cycle) + 2) * n_cycle
    w1 = w0 + int(round(0.1 / dt))
    devs = _window_deviations(res.model.full_net, c["probes"], dt, res.snapshot,
                              c["zero_state"], w0, w1)
    worst_dev = max(devs.values())
    report("criterion-5 steady-state-hold",
           f"cycle-RMS hold {worst_hold:.2e}, scheme deviation {worst_dev:.2e}",
           "5e-3 / 5e-3", worst_hold < 5e-3 and worst_dev < 5e-3)


def test_criterion_6_fault_response_equivalence(hybrid_comparison):
    c = hybrid_comparison
    res, dt = c["result"], c["dt"]
    n_cycle = int(round(c["case"].period / dt))
    fault_step = ((c["zero_state"].step // n_cycle) + 3) * n_cycle
    w1 = fault_step + int(round(0.1 / dt))
    fault = ek.SimEvent(step=fault_step, target="B7", r_fault=0.05)
    devs = _window_deviations(res.model.full_net, c["probes"], dt, res.snapshot,
                              c["zero_state"], fault_step, w1, fault=fault)
    worst = max(devs.values())
    report("criterion-6 fault-response-equivalence",
           f"post-fault deviation {worst:.2e}", "1e-2", worst < 1e-2)


def test_criterion_7_initialization_efficiency(hybrid_comparison):
    c = hybrid_comparison
    gis_steps = c["result"].report["gis_cost_steps"]
    zero_steps = c["zero_fired"]
    ratio = zero_steps / max(gis_steps, 1)
    report("criterion-7 initialization-efficiency",
           f"zero-state {zero_steps} steps vs initialized {gis_steps} "
           f"(ratio {ratio:.1f})", ">= 5x", ratio >= 5.0)


# -- 8. splice-time adjustment ---------------------------------------------------


def test_criterion_8_splice_time_adjustment(ninebus1, ninebus1_pipeline):
    res = ninebus1_pipeline
    dt = 5e-5
    n_cycle = int(round(ninebus1.period / dt))
    main_net = sn.build_main_net(ninebus1, res.model.boundary_state.main_solution)
    region_net = sn.build_region_net(res.model.region_ops[0])
    full = res.model.full_net

    waves, _ = ek.run(full, ek.SimConfig(dt=dt, steps=n_cycle, record=["B10"]),
                      init=res.snapshot.emt_state)
    peak_off = int(np.argmax(waves.data["B10.a"][1:])) + 1
    _, at_peak = ek.run(full, ek.SimConfig(dt=dt, steps=peak_off),
                        init=res.snapshot.emt_state)
    _, at_half = ek.run(full, ek.SimConfig(dt=dt, steps=n_cycle // 2),
                        init=at_peak)
    _, at_two = ek.run(full, ek.SimConfig(dt=dt, steps=2 * n_cycle),
                       init=at_peak)

    def parts(state):
        main = subset_state(state, main_net.nodes,
                            [e.eid for e in main_net.elements],
                            [m.mid for m in main_net.machines])
        region = subset_state(state, region_net.nodes,
                              [e.eid for e in region_net.elements])
        return main, region

    main, _ = parts(at_peak)
    _, region_half = parts(at_half)
    _, region_two = parts(at_two)
    snap = lambda name, st: sn.Snapshot(name, 50.0, st, {}, sn.PROVENANCE_RAMP,
                                        {name: "x"})
    unadjusted = sn.SpliceSchedule(main.step,
                                   {"main": main.step, "wind1": region_half.step})
    _, bad = sn.splice({"main": snap("main", main),
                        "wind1": snap("wind1", region_half)},
                       unadjusted, full, dt)
    adjusted = sn.schedule_from_steps(
        {"main": main.step, "wind1": region_half.step}, n_cycle)
    _, good = sn.splice({"main": snap("main", main),
                         "wind1": snap("wind1", region_two)},
                        adjusted, full, dt)
    ratio = max(bad.values()) / max(max(good.values()), 1e-30)

    rng = np.random.default_rng(8)
    exact = True
    for _ in range(500):
        period_steps = int(rng.integers(2, 400))
        ready = {f"s{i}": int(rng.integers(0, 10**6))
                 for i in range(int(rng.integers(1, 6)))}
        sched = sn.schedule_from_steps(ready, period_steps)
        for name, adj in sched.t_adj_steps.items():
            if (adj - sched.t_ref_steps) % (2 * period_steps) != 0 or \
                    adj < ready[name]:
                exact = False
    report("criterion-8 splice-time-adjustment",
           f"deviation ratio {ratio:.0f}, schedule arithmetic exact {exact}",
           ">= 100 / exact", ratio >= 100.0 and exact)


# -- 9. boundary equivalent extraction -------------------------------------------


def test_criterion_9_thevenin_extraction():
    rng = np.random.default_rng(90)
    worst = 0.0
    for _ in range(10):
        net, boundary = random_linear_net(rng)
        z_oracle = injection_thevenin(net, boundary)
        th = sn.thevenin_extract(zbus(net, [boundary]), {boundary: 0j}, boundary)
        worst = max(worst, abs(th.z_eq - z_oracle) / abs(z_oracle))
    report("criterion-9 thevenin-extraction",
           f"worst relative impedance error {worst:.2e} over 10 networks",
           "1e-9", worst < 1e-9)


# -- 10. kernel integration order -------------------------------------------------


def test_criterion_10_trapezoidal_order():
    omega = 2 * math.pi * 50.0

    def amp_error(dt):
        net = ek.EmtNet(
            "rl", 50.0, ("n1", "n2"),
            (ek.Element("r1", ek.ElementKind.RESISTOR, "n1", "n2", 1.0),
             ek.Element("l1", ek.ElementKind.INDUCTOR, "n2", None, 0.01)),
            (ek.Source("src", "n1", 1.0, 0.0),),
        )
        waves, st = ek.run(net, ek.SimConfig(dt=dt, steps=ek.to_steps(0.3, dt),
                                             record=["i:l1"]))
        n = int(round(0.02 / dt))
        ph = fourier_phasor(waves.data["i:l1.a"][-n:], st.step, dt, omega)
        return abs(abs(ph) - abs(1.0 / (1.0 + 1j * omega * 0.01)))

    ratio = amp_error(2e-4) / amp_error(1e-4)
    report("criterion-10 trapezoidal-order",
           f"halving dt shrinks amplitude error by {ratio:.2f}",
           "[3, 5]", 3.0 <= ratio <= 5.0)


# -- 11. byte-level determinism of the command line -------------------------------


def test_criterion_11_cli_determinism(tmp_path):
    commands = [
        ("validate", [case_path("ninebus1")]),
        ("ipf", [case_path("ninebus2")]),
        ("init", [case_path("ninebus1")]),
        ("simulate", [case_path("twobus"), "--zero-state",
                      "--duration", "0.1"]),
        ("compare", [case_path("ninebus1")]),
    ]
    mismatches = []
    for cmd, extra in commands:
        outputs = []
        for d in ("a", "b"):
            cwd = tmp_path / cmd / d
            cwd.mkdir(parents=True)
            proc = subprocess.run(
                [sys.executable, "-m", "emtgis", cmd, *extra,
                 "--out", "out"],
                capture_output=True, text=True, cwd=cwd, env=cli_env(),
                timeout=300)
            assert proc.returncode == 0, (cmd, proc.stderr)
            outputs.append({p.name: p.read_bytes()
                            for p in sorted((cwd / "out").iterdir())})
        if outputs[0] != outputs[1]:
            mismatches.append(cmd)
    report("criterion-11 cli-determinism",
           f"mismatching commands: {mismatches or 'none'}",
           "byte-identical re-runs", not mismatches)
