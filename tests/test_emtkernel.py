import itertools
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import emtgis.emtkernel as ek
import emtgis.snapshot as sn
from emtgis.errors import (
    IncompatibleSnapshot,
    InvalidParameter,
    UnknownBus,
    UnknownProbe,
)

OMEGA = 2 * math.pi * 50.0
DATA = Path(__file__).parent / "data"

from conftest import (  # noqa: E402
    cycle_rms,
    drawn_currents,
    fourier_phasor,
    random_linear_net,
    sample_one,
    stored_energy,
    with_sources_zeroed,
    zbus,
)
from reference_kernel import (  # noqa: E402
    ReferenceNet,
    companion,
    ramp_profile,
    reference_run,
    reference_run_until_steady,
)
from reference_relax import reference_relax, reference_swing_maps  # noqa: E402


def advance(net, state, steps, ramp_steps=None):
    """The state `steps` steps after `state` on a net without a swinging
    machine: one loop from `state`, one `step` call per step."""
    compiled = ek.CompiledNet(net, state.dt, state, ramp_steps, (), steps)
    assert not compiled.swinging.size
    compiled.advance(steps, np.empty((0, steps)))
    return compiled.state()


def rl_net(r=1.0, l_henry=0.01, rms=1.0):
    return ek.EmtNet(
        "rl", 50.0, ("n1", "n2"),
        (ek.Element("r1", ek.ElementKind.RESISTOR, "n1", "n2", r),
         ek.Element("l1", ek.ElementKind.INDUCTOR, "n2", None, l_henry)),
        (ek.Source("src", "n1", rms, 0.0),),
    )


class TestCompanionCoefficients:
    @staticmethod
    def coefficients(kind, value, dt=20e-6):
        net = ek.EmtNet("one", 50.0, ("n1",), (ek.Element("x", kind, "n1", None, value),), ())
        return tuple(ek.companion_arrays(net, dt)[:, 0])

    def test_resistor(self):
        assert self.coefficients(ek.ElementKind.RESISTOR, 2.0) == (0.5, 0.0, 0.0)

    def test_inductor_trapezoidal(self):
        # di/dt = v/L discretized by the trapezoid: G = H = dt/2L, J = 1
        g, h, j = self.coefficients(ek.ElementKind.INDUCTOR, 0.1)
        assert g == pytest.approx(1e-4)
        assert h == pytest.approx(1e-4)
        assert j == 1.0

    def test_capacitor_trapezoidal(self):
        g, h, j = self.coefficients(ek.ElementKind.CAPACITOR, 1e-3)
        assert g == pytest.approx(100.0)
        assert h == pytest.approx(-100.0)
        assert j == -1.0

    @pytest.mark.parametrize("kind", [ek.ElementKind.RESISTOR,
                                      ek.ElementKind.INDUCTOR,
                                      ek.ElementKind.CAPACITOR])
    def test_nonpositive_value_rejected(self, kind):
        for value in (0.0, -1.0):
            with pytest.raises(InvalidParameter,
                               match=f"{kind.value} parameter must be positive, got {value}"):
                self.coefficients(kind, value)

    @pytest.mark.parametrize("dt", [0.0, -20e-6])
    def test_nonpositive_dt_rejected(self, dt):
        with pytest.raises(InvalidParameter, match="dt must be positive"):
            self.coefficients(ek.ElementKind.RESISTOR, 2.0, dt)

    def test_matches_the_oracle_on_the_hybrid_full_net(self, hybrid_model):
        net = hybrid_model.full_net
        want = np.array([companion(e.kind, e.value, 5e-5) for e in net.elements]).T
        assert ek.companion_arrays(net, 5e-5).tobytes() == want.tobytes()


class TestStep:
    def test_resistive_divider_is_static(self):
        # with a constant (zero-frequency) source the mid node holds the
        # exact divider value at every step
        net = ek.EmtNet(
            "div", 0.0, ("n1", "n2"),
            (ek.Element("ra", ek.ElementKind.RESISTOR, "n1", "n2", 1.0),
             ek.Element("rb", ek.ElementKind.RESISTOR, "n2", None, 1.0)),
            (ek.Source("src", "n1", 1.0 / math.sqrt(2.0), 0.0),),
        )
        waves, _ = ek.run(net, ek.SimConfig(dt=1e-4, steps=100, record=["n2"]))
        assert np.all(waves.data["n2.a"][1:] == pytest.approx(0.5, abs=1e-15))

    def test_rl_steady_state_matches_phasor_solution(self):
        net = rl_net()
        waves, _ = ek.run(net, ek.SimConfig(dt=2e-5, steps=15_000,
                                            record=["i:l1"]))
        i_amp = ek.SQRT2 * cycle_rms(waves, "i:l1.a", int(round(0.02 / 2e-5)))
        expect = ek.SQRT2 * 1.0 / abs(1.0 + 1j * OMEGA * 0.01)
        assert i_amp == pytest.approx(expect, rel=1e-3)

    def test_zero_sources_zero_state_stays_zero(self):
        net = rl_net(rms=0.0)
        waves, st = ek.run(net, ek.SimConfig(dt=1e-4, steps=500,
                                             record=["n1", "n2", "i:l1"]))
        for v in waves.data.values():
            assert np.all(v == 0.0)
        assert np.all(st.v_nodes == 0.0) and np.all(st.elem_i == 0.0)

    def test_three_phases_are_balanced(self):
        net = rl_net()
        waves, _ = ek.run(net, ek.SimConfig(dt=2e-5, steps=25_000, record=["n2"]))
        n = int(round(0.02 / 2e-5))
        rms = [cycle_rms(waves, f"n2.{p}", n) for p in "abc"]
        assert max(rms) - min(rms) < 1e-9
        # instantaneous sum of a balanced set vanishes
        tail = sum(waves.data[f"n2.{p}"][-n:] for p in "abc")
        assert np.max(np.abs(tail)) < 1e-9


class TestRampProfile:
    def test_shape(self):
        assert ramp_profile(0, 10) == 0.0
        assert ramp_profile(-1, 10) == 0.0
        assert ramp_profile(5, 10) == 0.5
        assert ramp_profile(10, 10) == 1.0
        assert ramp_profile(40, 10) == 1.0

    def test_bad_duration(self):
        with pytest.raises(InvalidParameter):
            ramp_profile(1, 0)


class TestRunUntilSteadyCycle:
    @pytest.mark.parametrize("dt", [3e-5, 0.01, 0.02], ids=["not-whole", "2-steps", "1-step"])
    def test_guard_names_both_conditions(self, dt):
        cfg = ek.SimConfig(dt=dt, steps=ek.to_steps(1.0, dt), record=["n2"])
        with pytest.raises(InvalidParameter,
                           match="^period must be an integer multiple of dt, 4 steps or more$"):
            ek.run_until_steady(rl_net(), cfg)


class TestFault:
    def test_near_solid_fault_collapses_voltage(self):
        net = ek.EmtNet(
            "f", 50.0, ("n1", "n2"),
            (ek.Element("l1", ek.ElementKind.INDUCTOR, "n1", "n2",
                        0.1 / OMEGA),),
            (ek.Source("src", "n1", 1.0, 0.0),),
        )
        cfg = ek.SimConfig(dt=1e-4, steps=2000, record=["n2"],
                           fault=ek.SimEvent(1000, "n2", 1e-6))
        waves, _ = ek.run(net, cfg)
        k = 1000
        assert np.max(np.abs(waves.data["n2.a"][k - 200:k])) > 1.0
        assert abs(waves.data["n2.a"][k + 2]) < 1e-4

    def test_infinite_resistance_is_identity(self):
        net = rl_net()
        assert ek.apply_fault(net, "n2", math.inf) is net

    def test_unknown_bus_rejected(self):
        with pytest.raises(UnknownBus):
            ek.apply_fault(rl_net(), "nope", 0.1)

    def test_run_drops_infinite_resistance_events(self):
        # mid-cycle in the ramp and after it: the run is the fault-free one,
        # bit for bit
        cfg = ek.SimConfig(dt=1e-4, steps=1000, record=["n2", "i:l1"], ramp_steps=500)
        want_waves, want = ek.run(rl_net(), cfg)
        for fault in (ek.SimEvent(213, "n2", math.inf), ek.SimEvent(731, "n1", math.inf)):
            waves, got = ek.run(rl_net(), replace(cfg, fault=fault))
            for key, trace in want_waves.data.items():
                assert np.array_equal(waves.data[key], trace), (fault, key)
            for field in ("v_nodes", "elem_i", "i_hist"):
                assert np.array_equal(getattr(got, field), getattr(want, field)), (fault, field)

    def test_infinite_resistance_event_at_unknown_node_rejected(self):
        cfg = ek.SimConfig(dt=1e-4, steps=100,
                           fault=ek.SimEvent(50, "nope", math.inf))
        with pytest.raises(UnknownBus):
            ek.run(rl_net(), cfg)

    def test_fault_current_matches_phasor_oracle(self):
        # source 1.0 behind x = 0.1; resistive fault at the far bus:
        # |I| = |E| / |Z + R| in sinusoidal steady state
        x, rf = 0.1, 0.05
        net = ek.EmtNet(
            "f", 50.0, ("n1", "n2"),
            (ek.Element("l1", ek.ElementKind.INDUCTOR, "n1", "n2", x / OMEGA),),
            (ek.Source("src", "n1", 1.0, 0.0),),
        )
        faulted = ek.apply_fault(net, "n2", rf)
        cfg = ek.SimConfig(dt=2e-5, steps=20_000, record=["i:fault:n2"])
        waves, st = ek.run(faulted, cfg)
        col = waves.data["i:fault:n2.a"]
        i_ph = fourier_phasor(col[-1000:], st.step, 2e-5, OMEGA)
        assert abs(i_ph) == pytest.approx(1.0 / abs(rf + 1j * x), rel=2e-3)

    def test_replaced_config_is_validated_again(self):
        cfg = ek.SimConfig(dt=1e-4, steps=1000)
        with pytest.raises(InvalidParameter):
            replace(cfg, steps=-1)

    @pytest.mark.parametrize("change", [
        dict(steps=-1), dict(steps=10.0), dict(steps=0.5), dict(steps="10"), dict(steps=True),
        dict(ramp_steps=0), dict(ramp_steps=-3), dict(ramp_steps=2.5), dict(ramp_steps=100.0),
        dict(dt=0.0), dict(dt=math.nan),
    ], ids=lambda change: "-".join(f"{k}={v!r}" for k, v in change.items()))
    def test_step_counts_are_whole_numbers(self, change):
        # The kernel counts time in steps: a length or a ramp in seconds,
        # or a count that is not an integer, is not a step count.
        cfg = ek.SimConfig(dt=1e-4, steps=1000, ramp_steps=10)
        with pytest.raises(InvalidParameter):
            replace(cfg, **change)

    def test_counts_of_numpy_integers_are_steps(self):
        cfg = ek.SimConfig(dt=1e-4, steps=np.int64(10), ramp_steps=np.int32(5),
                           fault=ek.SimEvent(np.int64(0), "n2", 0.1))
        assert ek.run(rl_net(), cfg)[1].step == 10

    @pytest.mark.parametrize("step", [-1, 0.5, 3.0])
    def test_fault_step_is_a_whole_step_of_the_clock(self, step):
        cfg = ek.SimConfig(dt=1e-4, steps=1000)
        with pytest.raises(InvalidParameter, match="fault step"):
            replace(cfg, fault=ek.SimEvent(step, "n2", 0.1))

    def test_post_fault_waveform_golden_regression(self):
        golden = json.loads((DATA / "golden_fault.json").read_text())
        net = rl_net()
        dt = float(golden["dt"])
        k = ek.to_steps(float(golden["fault_time"]), dt)
        cfg = ek.SimConfig(dt=dt, steps=ek.to_steps(float(golden["duration"]), dt),
                           record=["n2"], fault=ek.SimEvent(k, "n2", float(golden["r_fault"])))
        waves, _ = ek.run(net, cfg)
        got = waves.data["n2.a"][golden["window"][0]:golden["window"][1]]
        want = np.array(golden["samples"])
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)
        # the fault leaves a visible mark relative to the pre-fault cycle
        pre = waves.data["n2.a"][k - len(want):k]
        assert np.max(np.abs(got - pre)) > 0.01


class TestNumericalContracts:
    def test_companion_replay_is_bit_exact(self):
        net = rl_net()
        state = advance(net, ek.zero_state(net, 2e-5), 500)
        assert np.array_equal(ek.companion_replay(ek.CompiledNet(net, 2e-5, state), state),
                              state.elem_i)

    def test_companion_replay_is_bit_exact_on_region_with_machine(self, ninebus3,
                                                                    ninebus3_model):
        net, _ = region_net(ninebus3, ninebus3_model, "plant2")
        assert net.machines
        self._assert_replay_after_ramp(net)

    def test_companion_replay_is_bit_exact_on_hybrid_full_net(self, hybrid_model):
        assert hybrid_model.full_net.machines
        self._assert_replay_after_ramp(hybrid_model.full_net)

    @staticmethod
    def _assert_replay_after_ramp(net):
        # the ramp ends at step 200, so the last 100 steps also swing the machines
        dt = 5e-5
        _, state = ek.run(net, ek.SimConfig(dt=dt, steps=300, ramp_steps=200))
        assert state.step == 300
        assert np.array_equal(ek.companion_replay(ek.CompiledNet(net, dt, state), state),
                              state.elem_i)

    def test_trapezoidal_order_by_dt_halving(self):
        # second-order accuracy: halving dt cuts the steady-state amplitude
        # error by about four
        def amp_error(dt):
            net = rl_net()
            waves, st = ek.run(net, ek.SimConfig(dt=dt, steps=ek.to_steps(0.3, dt),
                                                 record=["i:l1"]))
            n = int(round(0.02 / dt))
            ph = fourier_phasor(waves.data["i:l1.a"][-n:], st.step, dt, OMEGA)
            exact = 1.0 / (1.0 + 1j * OMEGA * 0.01)
            return abs(abs(ph) - abs(exact))

        ratio = amp_error(2e-4) / amp_error(1e-4)
        assert 3.0 < ratio < 5.0

    def test_deenergized_passive_network_loses_energy_monotonically(self):
        net = ek.EmtNet(
            "rlc", 50.0, ("n1", "n2", "n3"),
            (ek.Element("r1", ek.ElementKind.RESISTOR, "n1", "n2", 0.5),
             ek.Element("l1", ek.ElementKind.INDUCTOR, "n2", "n3", 0.01),
             ek.Element("c1", ek.ElementKind.CAPACITOR, "n3", None, 2e-4)),
            (ek.Source("src", "n1", 1.0, 0.3),),
        )
        _, charged = ek.run(net, ek.SimConfig(dt=2e-5, steps=15_000))
        dead = with_sources_zeroed(net)
        compiled = ek.CompiledNet(dead, 2e-5, charged)
        energies = [stored_energy(dead, charged)]
        for _ in range(12000):
            compiled.advance(1, np.empty((0, 1)))
            energies.append(stored_energy(dead, compiled.state()))
        e = np.array(energies)
        assert e[0] > 1e-4
        assert np.all(np.diff(e) <= 1e-12 * e[0])
        assert e[-1] < 1e-3 * e[0]

    def test_identical_runs_are_bitwise_equal(self):
        net = rl_net()
        cfg = ek.SimConfig(dt=5e-5, steps=2000, record=["n2", "i:l1"])
        w1, s1 = ek.run(net, cfg)
        w2, s2 = ek.run(net, cfg)
        for k in w1.data:
            assert np.array_equal(w1.data[k], w2.data[k])
        assert np.array_equal(s1.v_nodes, s2.v_nodes)


def assert_states_close(got, want, rel=1e-12):
    """Node voltages and element currents agree within rel of the largest
    per-unit magnitude of the reference state.

    One scale serves both: on a net without a path to ground every current
    is zero, and the affine step leaves rounding-level currents there.
    """
    scale = max(np.max(np.abs(want.v_nodes)), np.max(np.abs(want.elem_i)))
    assert scale > 0.1
    assert np.max(np.abs(got.v_nodes - want.v_nodes)) <= rel * scale
    assert np.max(np.abs(got.elem_i - want.elem_i)) <= rel * scale


class TestAffineStepEquivalence:
    """The affine step against the reference nodal-injection stepper."""

    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_matches_reference_on_random_nets(self, seed, ramp):
        net, _ = random_linear_net(np.random.default_rng(seed))
        dt, ramp_steps = 5e-5, 100 if ramp else None
        reference = ReferenceNet(net, dt)
        fast = slow = ek.zero_state(net, dt)
        fast = advance(net, fast, 200, ramp_steps)
        for _ in range(200):
            slow = reference.step(slow, ramp_steps)
        assert fast.step == slow.step == 200
        assert_states_close(fast, slow)

    def test_matches_reference_with_swinging_machine(self, hybrid, hybrid_model):
        net = hybrid_model.full_net
        dt = 5e-5
        snap = sn.phasor_init(net, dt, ek.phasor_solve(net, dt), {})
        init = snap.emt_state
        init.machine_pm = init.machine_pm * 1.1  # accelerate the rotors
        reference = ReferenceNet(net, dt)
        slow = init
        _, fast = ek.run(net, ek.SimConfig(dt=dt, steps=200), init=init)
        for _ in range(200):
            slow = reference.step(slow, None)
        assert np.all(np.abs(fast.machine_delta - init.machine_delta) > 1e-6)
        assert_states_close(fast, slow)
        np.testing.assert_allclose(fast.machine_speed_dev, slow.machine_speed_dev,
                                   rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(fast.machine_delta, slow.machine_delta,
                                   rtol=1e-12, atol=0.0)

    def test_step_shares_no_array_with_its_input(self, hybrid_model):
        net = hybrid_model.full_net
        before = ek.zero_state(net, 5e-5)
        compiled = ek.CompiledNet(net, 5e-5, before, 10_000)
        compiled.advance(1, np.empty((0, 1)))
        after = compiled.state()
        assert after.step == 1
        fields = ("v_nodes", "elem_i", "i_hist", "machine_delta",
                  "machine_speed_dev", "machine_pm")
        for a in fields:
            for b in fields:
                assert not np.shares_memory(getattr(after, a), getattr(before, b)), (a, b)
            for buf in (compiled.stack, compiled.machines):
                assert not np.shares_memory(getattr(after, a), buf), a


def assert_close_to_reference(got, want, rel=1e-12):
    """Arrays agree within rel of the reference's largest magnitude."""
    scale = np.max(np.abs(want))
    assert scale > 0.1
    assert np.max(np.abs(np.asarray(got) - want)) <= rel * scale


class TestLoopEquivalence:
    """`run` and `run_until_steady` against the reference stepper's loops,
    and against each other."""

    def test_run_and_run_until_steady_agree_bit_for_bit(self, hybrid_model):
        # A 0.6 s budget ends before the detector can fire after a 0.5 s
        # ramp, so both loops take the same 12,000 steps: ramp steps, the
        # transition cycle, and relaxed chunks of the swinging machine.
        net, dt = hybrid_model.full_net, 5e-5
        assert net.machines
        init = ek.zero_state(net, dt)
        init.machine_delta[:] = 0.0
        cfg = ek.SimConfig(dt=dt, steps=12_000, record=["B7"], ramp_steps=10_000)
        steady, ready = ek.run_until_steady(net, cfg, init=init)
        _, final = ek.run(net, cfg, init=init)
        assert ready is None
        assert steady.step == final.step == 12_000
        for name, value in vars(final).items():
            assert np.array_equal(getattr(steady, name), value), name

    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_run_across_a_fault_matches_reference(self, seed, ramp):
        net, far = random_linear_net(np.random.default_rng(seed))
        dt = 5e-5
        record = [far, "n0"] + [f"i:{e.eid}" for e in net.elements]
        cfg = ek.SimConfig(dt=dt, steps=300, record=record,
                           fault=ek.SimEvent(150, far, 0.05),
                           ramp_steps=200 if ramp else None)
        init = ek.zero_state(net, dt)
        waves, final = ek.run(net, cfg, init=init)
        rows, ref_final, ref_migrated = reference_run(net, cfg, init)
        got = np.column_stack([waves.data[k] for k in waves.data])
        assert got.shape == rows.shape
        assert_close_to_reference(got, rows)
        self._assert_state_close(final, ref_final)

        # The state materialized at the fault and carried onto the faulted net.
        _, pre = ek.run(net, replace(cfg, steps=150, fault=None), init=init)
        faulted = ek.apply_fault(net, far, 0.05)
        self._assert_state_close(ek.migrate_state(faulted, pre),
                                 ref_migrated[0])

    def test_run_across_a_fault_with_swinging_machine(self, hybrid, hybrid_model):
        net, dt = hybrid_model.full_net, 5e-5
        init = sn.phasor_init(net, dt, ek.phasor_solve(net, dt), {}).emt_state
        init.machine_pm = init.machine_pm * 1.1  # accelerate the rotors
        record = ["B7", "B9"] + [f"i:{m.branch_eid}" for m in net.machines]
        cfg = ek.SimConfig(dt=dt, steps=300, record=record,
                           fault=ek.SimEvent(100, "B7", 0.02))
        waves, final = ek.run(net, cfg, init=init)
        rows, ref_final, _ = reference_run(net, cfg, init)
        got = np.column_stack([waves.data[k] for k in waves.data])
        assert_close_to_reference(got, rows)
        self._assert_state_close(final, ref_final)
        np.testing.assert_allclose(final.machine_delta, ref_final.machine_delta,
                                   rtol=1e-12, atol=0.0)

    def test_run_until_steady_with_ramp_on_region_net(self, ninebus3, ninebus3_model):
        net, record = region_net(ninebus3, ninebus3_model, "plant2")
        assert net.machines
        dt = 5e-5
        cfg = ek.SimConfig(dt=dt, steps=40_000, record=record, ramp_steps=10_000)
        init = ek.zero_state(net, dt)
        state, ready = ek.run_until_steady(net, cfg, init=init)
        ref_state, ref_ready = reference_run_until_steady(net, cfg, init)
        assert ready is not None and ready == ref_ready == state.step
        self._assert_state_close(state, ref_state)

    @staticmethod
    def _assert_state_close(got, want, rel=1e-12):
        assert got.step == want.step
        assert got.element_ids == want.element_ids
        assert_states_close(got, want, rel)
        scale = max(np.max(np.abs(want.v_nodes)), np.max(np.abs(want.elem_i)))
        assert np.max(np.abs(got.i_hist - want.i_hist)) <= rel * scale


def region_net(case, model, name):
    """A region behind its Thevenin equivalent, as the pipeline ramps it,
    and the detector's probes."""
    op = next(o for o in model.region_ops if o.decl.name == name)
    drawn = drawn_currents(model.boundary_state.main_solution, case)
    thev = sn.thevenin_extract(zbus(model.main_net, list(drawn)), drawn, op.decl.boundary_bus)
    region = sn.build_region_net(op)
    net, probe = sn.attach_thevenin(region, op.decl.boundary_bus, thev, 5e-5)
    return net, list(region.nodes) + [f"i:{probe}"]


def assert_machines_close(got, want):
    """Rotor angles within 1e-12 rad and speed deviations within 1e-12 of
    rated speed.  Relative to their own size they are ill-conditioned: a
    speed deviation is (pm - pe) summed over steps, a small difference of
    large terms."""
    for field in ("machine_delta", "machine_speed_dev"):
        np.testing.assert_allclose(getattr(got, field), getattr(want, field),
                                   rtol=0.0, atol=1e-12, err_msg=field)


class TestAugmentedLoops:
    """The loops on the one-product augmented step against the reference
    stepper where the ramp's end, the rotor angles and the oscillator's
    re-anchoring do not line up with the cycles."""

    DT = 5e-5

    # 0.13 s and 0.1234567 s at DT: 2,600 steps, 6.5 cycles, and 2,469
    # steps, 6.17 cycles, a count the cycles' length does not divide.
    @pytest.mark.parametrize("ramp_steps", [2600, 2469],
                             ids=["ends-mid-cycle", "off-the-dt-grid"])
    def test_run_until_steady(self, ninebus3, ninebus3_model, ramp_steps):
        net, record = region_net(ninebus3, ninebus3_model, "plant2")
        assert [m.inertia_h > 0 for m in net.machines] == [True]
        cfg = ek.SimConfig(dt=self.DT, steps=40_000, record=record, ramp_steps=ramp_steps)
        init = ek.zero_state(net, self.DT)
        state, ready = ek.run_until_steady(net, cfg, init=init)
        ref_state, ref_ready = reference_run_until_steady(net, cfg, init)
        assert ready is not None and ready == ref_ready == state.step
        TestLoopEquivalence._assert_state_close(state, ref_state)
        assert_machines_close(state, ref_state)

    def test_swing_starts_at_the_step_the_ramp_ends(self, ninebus3, ninebus3_model):
        net, record = region_net(ninebus3, ninebus3_model, "plant2")
        end = 247  # mid-cycle: step 247 of 400
        assert ramp_profile(end - 1, end) < 1.0
        assert ramp_profile(end, end) == 1.0
        init = ek.zero_state(net, self.DT)
        finals = {}
        for steps in (end - 1, end, end + 1):
            cfg = ek.SimConfig(dt=self.DT, steps=steps, record=record, ramp_steps=end)
            waves, final = ek.run(net, cfg, init=init)
            rows, ref_final, _ = reference_run(net, cfg, init)
            assert_close_to_reference(np.column_stack(list(waves.data.values())), rows)
            TestLoopEquivalence._assert_state_close(final, ref_final)
            assert_machines_close(final, ref_final)
            finals[steps] = final
        before, at_end = finals[end - 1], finals[end]
        assert np.array_equal(before.machine_delta, init.machine_delta)
        assert np.array_equal(before.machine_speed_dev, [0.0])
        assert at_end.machine_speed_dev[0] != 0.0
        assert at_end.machine_delta[0] != init.machine_delta[0]

    @pytest.mark.parametrize("swing", [True, False])
    def test_run_from_rotor_angles_off_delta0(self, ninebus3, ninebus3_model, swing):
        net, record = region_net(ninebus3, ninebus3_model, "plant2")
        net = net._replace(machines=tuple(m._replace(inertia_h=m.inertia_h if swing else 0.0)
                                          for m in net.machines))
        init = ek.zero_state(net, self.DT)
        init.machine_delta = init.machine_delta + 0.4
        cfg = ek.SimConfig(dt=self.DT, steps=700, record=record,
                           ramp_steps=250)
        waves, final = ek.run(net, cfg, init=init)
        rows, ref_final, _ = reference_run(net, cfg, init)
        assert_close_to_reference(np.column_stack(list(waves.data.values())), rows)
        TestLoopEquivalence._assert_state_close(final, ref_final)
        assert_machines_close(final, ref_final)
        moved = not np.array_equal(final.machine_delta, init.machine_delta)
        assert moved == swing

    def test_run_until_steady_from_rotor_angles_off_delta0(self, ninebus3,
                                                           ninebus3_model):
        # A rotor that does not swing keeps its start angle for the whole
        # run, so both step maps carry it.  (A swinging plant2 rotor started
        # off delta0 takes over 7 s to settle.)
        net, record = region_net(ninebus3, ninebus3_model, "plant2")
        net = net._replace(machines=tuple(m._replace(inertia_h=0.0) for m in net.machines))
        cfg = ek.SimConfig(dt=self.DT, steps=40_000, record=record, ramp_steps=6000)
        init = ek.zero_state(net, self.DT)
        init.machine_delta = init.machine_delta + 0.4
        state, ready = ek.run_until_steady(net, cfg, init=init)
        ref_state, ref_ready = reference_run_until_steady(net, cfg, init)
        assert ready is not None and ready == ref_ready == state.step
        TestLoopEquivalence._assert_state_close(state, ref_state)
        assert np.array_equal(state.machine_delta, init.machine_delta)

    def test_long_run_after_the_ramp(self, hybrid, hybrid_model):
        net, record = region_net(hybrid, hybrid_model, "wind1")
        ramp_steps, steps = 1000, 21_200
        cfg = ek.SimConfig(dt=self.DT, steps=steps, record=record, ramp_steps=ramp_steps)
        assert steps - ramp_steps >= 20_000
        init = ek.zero_state(net, self.DT)
        waves, final = ek.run(net, cfg, init=init)
        rows, ref_final, _ = reference_run(net, cfg, init)
        assert final.step == steps
        assert_close_to_reference(np.column_stack(list(waves.data.values())), rows)
        TestLoopEquivalence._assert_state_close(final, ref_final)


class TestHistoryCurrentState:
    """The step buffer holds only what the network remembers: the L/C
    history currents, the oscillator rows and one row per swinging
    machine.  Node voltages and element currents are outputs of it, and a
    state at a loop edge is rebuilt from the one buffer a step back, whose
    L/C rows are the state's history currents i_hist."""

    DT = 5e-5  # 400 steps a cycle

    @pytest.mark.parametrize("name", ["ninebus1", "ninebus2", "ninebus3", "hybrid"])
    def test_step_map_has_one_column_per_memory_row(self, request, name):
        case = request.getfixturevalue(name)
        model = sn.system_model(case, sn.PipelineConfig(dt=self.DT))
        nets = [model.full_net] + [region_net(case, model, op.decl.name)[0]
                                   for op in model.region_ops]
        for net in nets:
            n_lc = sum(e.kind in (ek.ElementKind.INDUCTOR, ek.ElementKind.CAPACITOR)
                       for e in net.elements)
            n_swinging = sum(m.inertia_h > 0 for m in net.machines)
            compiled = ek.CompiledNet(net, self.DT, ek.zero_state(net, self.DT), 10_000)
            cols = n_lc + 4 + n_swinging
            assert n_lc < len(net.nodes) + len(net.elements)
            for t in (compiled.ramp_map, compiled.post_map):
                assert t.shape == (cols, cols), net.name
            for o in compiled.outputs:
                assert o.shape == (len(net.nodes) + len(net.elements), cols)
        if name == "hybrid":
            # 32 L/C elements and one swinging machine; [v; i] has 80 rows.
            full = ek.CompiledNet(model.full_net, self.DT,
                                  ek.zero_state(model.full_net, self.DT))
            assert full.post_map.shape == (37, 37) and full.size == 80

    @pytest.mark.parametrize("fault_step", [1, 401, 800],
                             ids=["step-1", "first-of-a-cycle", "last-of-a-cycle"])
    def test_fault_with_swinging_machine(self, hybrid, hybrid_model, fault_step):
        net, dt = hybrid_model.full_net, self.DT
        init = sn.phasor_init(net, dt, ek.phasor_solve(net, dt), {}).emt_state
        init.machine_pm = init.machine_pm * 1.1  # accelerate the rotors
        record = ["B7", "B9"] + [f"i:{m.branch_eid}" for m in net.machines]
        cfg = ek.SimConfig(dt=dt, steps=900, record=record,
                           fault=ek.SimEvent(fault_step, "B7", 0.02))
        self._assert_run_matches_reference(net, cfg, init)

    @pytest.mark.parametrize("fault_step", [1, 401, 800],
                             ids=["step-1", "first-of-a-cycle", "last-of-a-cycle"])
    def test_fault_during_and_after_the_ramp(self, fault_step):
        # The ramp ends mid-way through the second cycle, so the chunks
        # around the fault mix ramp and post-ramp output maps.
        net, far = random_linear_net(np.random.default_rng(7))
        dt = self.DT
        record = [far, "n0"] + [f"i:{e.eid}" for e in net.elements]
        cfg = ek.SimConfig(dt=dt, steps=900, record=record,
                           fault=ek.SimEvent(fault_step, far, 0.05), ramp_steps=600)
        self._assert_run_matches_reference(net, cfg, ek.zero_state(net, dt))

    def test_net_without_inductors_or_capacitors(self):
        net = ek.EmtNet(
            "resistive", 50.0, ("n1", "n2", "n3"),
            (ek.Element("r1", ek.ElementKind.RESISTOR, "n1", "n2", 0.3),
             ek.Element("r2", ek.ElementKind.RESISTOR, "n2", "n3", 0.2),
             ek.Element("r3", ek.ElementKind.RESISTOR, "n3", None, 1.5)),
            (ek.Source("src", "n1", 1.0, 0.4),),
        )
        dt = self.DT
        compiled = ek.CompiledNet(net, dt, ek.zero_state(net, dt), 200)
        assert compiled.n_lc == 0 and compiled.post_map.shape == (4, 4)
        cfg = ek.SimConfig(dt=dt, steps=900, record=["n2", "n3", "i:r1", "i:r3"],
                           fault=ek.SimEvent(500, "n3", 0.1), ramp_steps=300)
        self._assert_run_matches_reference(net, cfg, ek.zero_state(net, dt))

    @staticmethod
    def _assert_run_matches_reference(net, cfg, init):
        waves, final = ek.run(net, cfg, init=init)
        rows, ref_final, _ = reference_run(net, cfg, init)
        got = np.column_stack(list(waves.data.values()))
        assert got.shape == rows.shape
        assert_close_to_reference(got, rows)
        TestLoopEquivalence._assert_state_close(final, ref_final)
        assert_machines_close(final, ref_final)
        faulted = ek.apply_fault(net, cfg.fault.target, cfg.fault.r_fault)
        assert np.array_equal(ek.companion_replay(ek.CompiledNet(faulted, cfg.dt, final),
                                                  final), final.elem_i)


def with_machine(net, bus, inertia_h, damping, pm):
    """The net with one more swinging machine at `bus`: an EMF of 1.05 pu
    leading the bus by 0.1 rad behind 0.2 pu of reactance."""
    machine = ek.Machine(f"gen:{bus}", bus, f"gen:{bus}:emf", f"gen:{bus}:xd",
                         inertia_h=inertia_h, damping=damping, emf_rms=1.05, delta0=0.1,
                         pm=pm)
    branch = ek.Element(f"gen:{bus}:xd", ek.ElementKind.INDUCTOR, f"gen:{bus}:emf", bus,
                        0.2 / net.omega)
    return net._replace(nodes=net.nodes + (f"gen:{bus}:emf",),
                        elements=net.elements + (branch,), machines=net.machines + (machine,))


def two_machine_net(net):
    """The net with a second swinging machine at B9, of other inertia and
    damping."""
    return with_machine(net, "B9", inertia_h=2.0, damping=1.0, pm=0.3)


def three_machine_net(net):
    """`two_machine_net` with a third swinging machine at B5."""
    return with_machine(two_machine_net(net), "B5", inertia_h=3.0, damping=0.5, pm=0.2)


SWINGING = {1: "hybrid", 2: "two-machines", 3: "three-machines"}


def start_with_swinging(count, hybrid, hybrid_model, hybrid_comparison):
    """A net with `count` (1, 2 or 3) swinging machines and its start state
    at dt = 5e-5: the hybrid full net from its GIS snapshot, or
    `two_machine_net` or `three_machine_net` of it from their phasor init."""
    if count == 1:
        return (hybrid_comparison["result"].model.full_net,
                hybrid_comparison["result"].snapshot.emt_state)
    net = (two_machine_net, three_machine_net)[count - 2](hybrid_model.full_net)
    return net, sn.phasor_init(net, 5e-5, ek.phasor_solve(net, 5e-5), {}).emt_state


class TestSwingRelaxation:
    """After the ramp, the loops advance a net with swinging machines in
    chunks of at most `chunk_steps` of its machines by waveform relaxation
    of the rotors.  Its fixed point is the step loop's trajectory, so it
    holds the reference stepper's bounds; faults end chunks anywhere."""

    DT = 5e-5  # 400 steps a cycle, 4 chunks

    @staticmethod
    def gis_start(hybrid_comparison):
        result = hybrid_comparison["result"]
        return result.model.full_net, result.snapshot.emt_state

    @pytest.mark.parametrize("offset", [101, 150, 200],
                             ids=["first-of-a-chunk", "mid-chunk", "last-of-a-chunk"])
    def test_fault_from_the_gis_snapshot(self, hybrid_comparison, offset):
        net, init = self.gis_start(hybrid_comparison)
        record = [b.id for b in hybrid_comparison["case"].buses]
        record += [f"i:{m.branch_eid}" for m in net.machines]
        cfg = ek.SimConfig(dt=self.DT, steps=900, record=record,
                           fault=ek.SimEvent(init.step + offset, "B7", 1e-6))
        TestHistoryCurrentState._assert_run_matches_reference(net, cfg, init)

    def test_two_swinging_machines(self, hybrid, hybrid_model):
        net = two_machine_net(hybrid_model.full_net)
        init = sn.phasor_init(net, self.DT, ek.phasor_solve(net, self.DT), {}).emt_state
        record = ["B7", "B9"] + [f"i:{m.branch_eid}" for m in net.machines]
        cfg = ek.SimConfig(dt=self.DT, steps=900, record=record,
                           fault=ek.SimEvent(250, "B7", 0.02))
        compiled = ek.CompiledNet(net, self.DT, init)
        assert compiled.swinging.tolist() == [0, 1]
        TestHistoryCurrentState._assert_run_matches_reference(net, cfg, init)
        _, final = ek.run(net, cfg, init=init)
        assert np.all(np.abs(final.machine_delta - init.machine_delta) > 1e-6)

    def test_trajectory_does_not_depend_on_the_probes(self, hybrid, hybrid_model,
                                                      hybrid_comparison):
        # The machines' current maps and the buffers a chunk hands on are
        # their own products, so the probes' count cannot move their
        # rounding: on one swinging machine and on two, over 10000 steps
        # and over 150, which end in a chunk of 50; and on the hybrid full
        # net from the zero state over a ramp to step 1046, whose run takes
        # ramp chunks, 45 stepped ramp steps and relaxed chunks.
        two = two_machine_net(hybrid_model.full_net)
        starts = [self.gis_start(hybrid_comparison),
                  (two, sn.phasor_init(two, self.DT, ek.phasor_solve(two, self.DT), {}).emt_state)]
        runs = [(net, init, ek.SimConfig(dt=self.DT, steps=steps))
                for (net, init), steps in itertools.product(starts, [10000, 150])]
        runs.append((hybrid_model.full_net, None,
                     ek.SimConfig(dt=self.DT, steps=2000, ramp_steps=1046)))
        for net, init, cfg in runs:
            ends = [ek.run(net, replace(cfg, record=record), init=init)[1]
                    for record in ([], ["B1"], [b.id for b in hybrid.buses])]
            for end in ends[1:]:
                for name, value in vars(ends[0]).items():
                    if isinstance(value, np.ndarray):
                        assert getattr(end, name).tobytes() == value.tobytes(), name
                    else:
                        assert getattr(end, name) == value, name

    def test_work_counters_across_the_fault(self, hybrid_comparison, monkeypatch):
        nets = []
        build = ek.CompiledNet.__init__

        def recorded(self, *args):
            build(self, *args)
            nets.append(self)

        monkeypatch.setattr(ek.CompiledNet, "__init__", recorded)
        net, init = self.gis_start(hybrid_comparison)
        cfg = ek.SimConfig(dt=self.DT, steps=900, record=["B7"],
                           fault=ek.SimEvent(init.step + 150, "B7", 1e-6))
        ek.run(net, cfg, init=init)
        # 150 steps before the fault: a chunk of 100 and one of 50, which
        # extrapolates the first chunk's start transient; 750 after it: one
        # cycle of 4 chunks, then 350 steps in 4 chunks.  The sweeps are
        # exact for this arithmetic and this start: a BLAS that rounds the
        # maps differently, or a power flow that rounds the GIS snapshot
        # differently, can move a chunk's fixed point, and its count, by one
        # (46 sweeps after the fault when the coordinator's main solve was
        # Newton, 45 with the fast-decoupled solve, 46 again with the region
        # solves on Python scalars; 7 before and 47 after it, 54 in all as
        # before, with the main solve back on Newton below
        # DECOUPLED_MIN_BUSES).  The sweeps stop when the EMF angles repeat,
        # no longer when the chunk's angles do, the end step's included:
        # 42 after the fault, where the angle rule took 47, and 7 before it
        # either way.  41 after the fault since the maps' powers of T_ww
        # come from its squares, which round the maps, and so the faulted
        # loop's fixed points, differently.  6 before it since the GIS
        # snapshot's main side holds the regions' splice-step currents and
        # no longer rings, so the first chunks settle one sweep sooner.  39
        # after the fault since the coordinator starts one-sided, which
        # rounds the GIS snapshot differently.
        assert [(c.chunks_relaxed, c.sweeps) for c in nets] == [(2, 6), (8, 39)]

    def test_extrapolated_guess_changes_no_bit(self, hybrid, hybrid_model,
                                               hybrid_comparison, monkeypatch):
        # A chunk's first guess only sets where its sweeps start.  Forced to
        # the constant guess on every chunk, each chunk handing on its last
        # step's power at every guess node, a run reaches the same bits in
        # more sweeps: from the GIS snapshot over 10000 steps, and from the
        # zero state through the ramp and a B7 fault, on one swinging
        # machine and on two.
        net, init = self.gis_start(hybrid_comparison)
        record = [b.id for b in hybrid.buses]
        ramped = dict(steps=4000, record=record, ramp_steps=1000,
                      fault=ek.SimEvent(3000, "B7", 0.02))
        runs = [(net, init, ek.SimConfig(dt=self.DT, steps=10000, record=record)),
                (net, None, ek.SimConfig(dt=self.DT, **ramped)),
                (two_machine_net(hybrid_model.full_net), None,
                 ek.SimConfig(dt=self.DT, **ramped))]
        nets = []
        build, extrapolated = ek.CompiledNet.__init__, ek.CompiledNet._swing_maps

        def recorded(self, *args):
            build(self, *args)
            nets.append(self)

        def constant(self, length):
            maps = extrapolated(self, length)
            maps.history_at = np.tile(maps.history_at[-self.swinging.size:],
                                      len(self.guess_nodes))
            return maps

        monkeypatch.setattr(ek.CompiledNet, "__init__", recorded)
        for net, init, cfg in runs:
            got = []
            for guess in (extrapolated, constant):
                monkeypatch.setattr(ek.CompiledNet, "_swing_maps", guess)
                nets.clear()
                got.append((*ek.run(net, cfg, init=init), sum(c.sweeps for c in nets)))
            (waves, end, sweeps), (want_waves, want, want_sweeps) = got
            assert sweeps < want_sweeps
            for key, trace in want_waves.data.items():
                assert waves.data[key].tobytes() == trace.tobytes(), key
            for name, value in vars(want).items():
                if isinstance(value, np.ndarray):
                    assert getattr(end, name).tobytes() == value.tobytes(), name
                else:
                    assert getattr(end, name) == value, name

    def test_fault_on_the_start_step_builds_only_the_faulted_net(self, hybrid_comparison,
                                                                 monkeypatch):
        # A compare window starts on its fault step.  The run builds the
        # faulted net alone and steps it as a fault-free run of that net
        # from the migrated start state, bit for bit.
        net, init = self.gis_start(hybrid_comparison)
        faulted = ek.apply_fault(net, "B7", 1e-6)
        cfg = ek.SimConfig(dt=self.DT, steps=500,
                           record=["B7"] + [f"i:{m.branch_eid}" for m in net.machines])
        want_waves, want = ek.run(faulted, cfg,
                                  init=ek.migrate_state(faulted, init))
        nets = []
        build = ek.CompiledNet.__init__

        def recorded(self, *args):
            build(self, *args)
            nets.append(self)

        monkeypatch.setattr(ek.CompiledNet, "__init__", recorded)
        fault = ek.SimEvent(init.step, "B7", 1e-6)
        waves, got = ek.run(net, replace(cfg, fault=fault), init=init)
        assert [c.net for c in nets] == [faulted]
        assert np.array_equal(waves.times, want_waves.times)
        for key, trace in want_waves.data.items():
            assert waves.data[key].tobytes() == trace.tobytes(), key
        for name, value in vars(want).items():
            if isinstance(value, np.ndarray):
                assert getattr(got, name).tobytes() == value.tobytes(), name
            else:
                assert getattr(got, name) == value, name

    @pytest.mark.parametrize("length", [ek.chunk_steps(1), 7])
    def test_wrong_angle_guess_reaches_the_same_fixed_point(self, hybrid_comparison,
                                                            length):
        net, init = self.gis_start(hybrid_comparison)
        record = [b.id for b in hybrid_comparison["case"].buses]

        def relax(offset):
            # One chunk from the start state, the first guess holding pe
            # `offset` pu off the mechanical power at every guess node.
            compiled = ek.CompiledNet(net, self.DT, init, None, record, length)
            history = compiled.power_history.reshape(-1, compiled.swinging.size)
            history += 2.0 * offset / compiled.amplitude  # pe = amp s / 2
            samples = np.zeros((len(compiled.probes.keys), length))
            compiled.advance(length, samples)
            return compiled, samples

        right, samples = relax(0.0)
        # pe held 1000 pu off over the chunk: angle guesses off by radians
        wrong, wrong_samples = relax(1000.0)
        assert right.chunks_relaxed == wrong.chunks_relaxed == 1
        assert right.sweeps < wrong.sweeps <= length
        assert np.array_equal(wrong_samples, samples)
        assert np.array_equal(wrong.machines, right.machines)
        assert np.array_equal(wrong.stack[length - 1:], right.stack[length - 1:])

        cfg = ek.SimConfig(dt=self.DT, steps=length, record=record)
        rows, ref_final, _ = reference_run(net, cfg, init)
        assert_close_to_reference(samples.T, rows[1:])
        final = right.state()
        TestLoopEquivalence._assert_state_close(final, ref_final)
        assert_machines_close(final, ref_final)

    def test_rerun_is_bit_identical(self, hybrid_comparison):
        net, init = self.gis_start(hybrid_comparison)
        record = [b.id for b in hybrid_comparison["case"].buses]
        cfg = ek.SimConfig(dt=self.DT, steps=2000, record=record,
                           fault=ek.SimEvent(init.step + 730, "B7", 1e-6))
        (w1, s1), (w2, s2) = ek.run(net, cfg, init=init), ek.run(net, cfg, init=init)
        for k in w1.data:
            assert np.array_equal(w1.data[k], w2.data[k]), k
        for field in ("v_nodes", "elem_i", "i_hist", "machine_delta",
                      "machine_speed_dev"):
            assert np.array_equal(getattr(s1, field), getattr(s2, field)), field


class TestSweepStopRule:
    """A relaxed chunk's sweeps read the rotor angles only through the EMF
    angles theta = wt + delta of its steps, and stop once the theta the
    next sweep would read equals, bit for bit, the theta the last one read.
    So every chunk hands on a fixed point: one more sweep from its theta
    reproduces its angles, end speed deviations and power bit for bit, and
    a chunk of L steps takes at most L sweeps.  Checked after every chunk
    of runs on the hybrid full net from its GIS snapshot and on the two-
    and three-machine nets, with probes and without, across a B7 fault in
    the middle of a chunk, and of loops that advance chunks of 100, 7 and
    1 steps."""

    DT = TestSwingRelaxation.DT

    @pytest.fixture
    def chunks(self, monkeypatch):
        """`CompiledNet.relax` followed by one more sweep, as `relax` makes
        it, on the chunk's own maps and buffers; the lengths of the chunks
        checked.  Between the chunks of an `advance`, the machines' rows
        live in `machine_rows`: a chunk reads its start [delta_0, dw_0]
        there and writes its end step's there."""
        lengths = []
        relax = ek.CompiledNet.relax

        def checked(self, first, length, samples):
            before = self.sweeps
            start = self.machine_rows[:, :2].copy()
            relax(self, first, length, samples)
            assert 1 <= self.sweeps - before <= length
            lengths.append(length)
            m = self.swing_maps[length]
            out, power = m.out.copy(), m.power.copy()
            handed = self.machine_rows[:, :2].copy()
            assert handed.tobytes() == m.end.tobytes()
            # The sweep reads the chunk's start, and theta is one add of wt
            # to [delta_0; the angles of the steps before the end], as in
            # `relax`.
            self.machine_rows[:, :2] = start
            assert m.read[0].tobytes() == start[:, 0].tobytes()
            theta, theta_u = m.thetas[0]
            np.add(self.wt[first:first + length], m.read, out=theta)
            np.cos(theta_u, out=m.u[0])
            np.sin(theta_u, out=m.u[1])
            m.u.dot(m.currents, m.y)
            m.y += m.i0
            m.y *= m.u
            np.add(m.y[0], m.y[1], out=m.power)
            m.swing.dot(m.x, m.swung)
            self.machine_rows[:, :2] = handed  # the next chunk's start
            assert m.power.tobytes() == power.tobytes(), "power"
            assert m.out.tobytes() == out.tobytes(), "angles and end step"
            assert m.end.tobytes() == handed.tobytes(), "end step"

        monkeypatch.setattr(ek.CompiledNet, "relax", checked)
        return lengths

    @pytest.mark.parametrize("count", SWINGING, ids=SWINGING.values())
    @pytest.mark.parametrize("probed", [True, False], ids=["probes", "no-probes"])
    def test_every_chunk_hands_on_a_fixed_point(self, hybrid, hybrid_model, hybrid_comparison,
                                                count, probed, chunks):
        net, init = start_with_swinging(count, hybrid, hybrid_model, hybrid_comparison)
        record = [b.id for b in hybrid.buses] if probed else []
        # 150 steps, then a fault: it cuts a chunk of 100 at 50 and one of
        # 40 at 30.
        cfg = ek.SimConfig(dt=self.DT, steps=900, record=record,
                           fault=ek.SimEvent(init.step + 150, "B7", 1e-6))
        ek.run(net, cfg, init=init)
        chunk = ek.chunk_steps(sum(m.inertia_h > 0 for m in net.machines))
        assert chunks[0] == chunk and 150 % chunk in chunks
        # Chunks of 100, 7 and 1 steps, the rotors started off their steady
        # speed; a loop of 40-step chunks relaxes 100 steps in 40, 40 and 20.
        chunks.clear()
        compiled = ek.CompiledNet(net, self.DT, init, None, record, 100)
        compiled.machines[compiled.swinging, 1] = 2e-3
        for length in (100, 7, 1, 1, 7, 100):
            compiled.advance(length, np.zeros((len(compiled.probes.keys), length)))
        tail = [100] if chunk == 100 else [40, 40, 20]
        assert chunks == tail + [7, 1, 1, 7] + tail


class TestChunkSteps:
    """A loop relaxes chunks of `chunk_steps` of its swinging machines:
    100 steps for one, 40 from two on, each a whole number of PROBE_BLOCK
    steps."""

    def test_rule(self):
        assert [ek.chunk_steps(n) for n in (1, 2)] == [100, 40]
        assert {ek.chunk_steps(n) for n in range(2, 129)} == {40}
        assert all(ek.chunk_steps(n) % ek.PROBE_BLOCK == 0 for n in range(129))

    @pytest.mark.parametrize("count", SWINGING, ids=SWINGING.values())
    def test_loop_takes_its_machines_length(self, hybrid, hybrid_model, hybrid_comparison,
                                            count):
        # One cycle of 400 steps after the ramp: 4 chunks of 100, or 10 of 40.
        net, init = start_with_swinging(count, hybrid, hybrid_model, hybrid_comparison)
        compiled = ek.CompiledNet(net, 5e-5, init, None, (), 400)
        compiled.advance(400, np.zeros((0, 400)))
        assert compiled.chunk == ek.chunk_steps(compiled.swinging.size)
        assert compiled.chunks_relaxed == 400 // compiled.chunk
        assert list(compiled.swing_maps) == [compiled.chunk]


class TestStepCounter:
    """`CompiledNet.steps_advanced` counts the kernel steps a loop
    advances, stepped and relaxed."""

    DT = 5e-5  # 400 steps a cycle

    def test_ramped_region_loop(self, ninebus3, ninebus3_model):
        # plant2's machine swings once its ramp ends: steps 1 to 999 are the
        # ramp's, in 9 whole ramp chunks of 100 and 99 stepped steps, and
        # the 618 after it relax in chunks of 100 at most, 218 steps (100,
        # 100, 18) in the fourth advance, 400 in the fifth.
        net, record = region_net(ninebus3, ninebus3_model, "plant2")
        compiled = ek.CompiledNet(net, self.DT, ek.zero_state(net, self.DT), 1000, record, 400)
        assert compiled.swinging.size
        for length in (400, 400, 17, 400, 400):
            compiled.advance(length, np.zeros((len(compiled.probes.keys), length)))
        assert compiled.steps_advanced == 1617 == compiled.n
        assert compiled.chunks_relaxed == 7

    def test_relaxed_full_net(self, hybrid_comparison):
        net, init = TestSwingRelaxation.gis_start(hybrid_comparison)
        compiled = ek.CompiledNet(net, self.DT, init, None, (), 400)
        for length in (400, 150, 400):
            compiled.advance(length, np.zeros((0, length)))
        assert compiled.steps_advanced == 950 == compiled.n - init.step
        assert compiled.chunks_relaxed == 10  # 4, 2 (100 and 50) and 4

    def test_run_across_a_fault(self, hybrid_comparison, monkeypatch):
        nets = []
        build = ek.CompiledNet.__init__

        def recorded(self, *args):
            build(self, *args)
            nets.append(self)

        monkeypatch.setattr(ek.CompiledNet, "__init__", recorded)
        net, init = TestSwingRelaxation.gis_start(hybrid_comparison)
        cfg = ek.SimConfig(dt=self.DT, steps=900, record=["B7"],
                           fault=ek.SimEvent(init.step + 150, "B7", 1e-6))
        _, end = ek.run(net, cfg, init=init)
        assert [c.steps_advanced for c in nets] == [150, 750]
        assert end.step - init.step == 900


class TestRelaxMatchesReference:
    """`CompiledNet.relax` sweeps in the rotors' two-axis frame with maps
    built per chunk length; `reference_relax` is the per-phase relax it
    replaced.  On one, two and three swinging machines, the three in
    `chunk_steps`'s shorter chunks, and from the same stack (two-axis
    buffers z, and K^T z for the reference), machines and power guess (a
    loop's first, pe = pm), both give the same samples, machines,
    handed-on buffers at steps L - 1 and L of a chunk of L (in phases) and
    power at the chunk's last step, the last guess node it hands on,
    within 1e-12 of each field's largest value.  Measured, as a share of
    that value: 2.6e-14 on the samples, 8.2e-15 on the buffers, 3.4e-15 on
    the power and 1.1e-17 on the machines."""

    DT = 5e-5

    @pytest.mark.parametrize("count, probed, length", [
        pytest.param(count, probed, length,
                     id=f"{name}-{'probes' if probed else 'no-probes'}-{length}")
        for count, name in SWINGING.items() for probed in (True, False)
        for length in (ek.chunk_steps(count), 7)])
    def test_relax_matches_reference(self, hybrid, hybrid_model, hybrid_comparison, count,
                                     probed, length):
        # The loop relaxes one chunk of `length` steps, a whole chunk of the
        # loop's or 7, in one `advance`, which also forms the chunk's samples.
        net, init = start_with_swinging(count, hybrid, hybrid_model, hybrid_comparison)
        compiled = ek.CompiledNet(net, self.DT, init, None,
                                  [b.id for b in hybrid.buses] if probed else [], length)
        probes = compiled.probes
        compiled.machines[compiled.swinging, 1] = 2e-3  # rotors off their steady speed
        z, machines = compiled.stack[0].copy(), compiled.machines.copy()
        maps = reference_swing_maps(compiled, probes.rows, machines[compiled.swinging, 2])
        pe_guess = machines[compiled.swinging, 3]
        nsw = compiled.swinging.size
        got, want = [], []
        for out in (got, want):
            samples = np.zeros((len(probes.keys), length))
            if out is got:
                compiled.advance(length, samples)
                assert compiled.chunks_relaxed == 1
                moved = compiled.machines
                guess = compiled.amplitude * compiled.power_history[-nsw:] / 2.0
                stack = ek.TWO_AXIS.T @ compiled.stack  # compared in phases
            else:
                # The reference steps the phases' K^T z.
                stack = np.zeros((length + 1, 3, z.shape[1]))
                stack[0] = ek.TWO_AXIS.T @ z
                moved = machines.copy()
                guess, _ = reference_relax(compiled, maps, stack, 0, length, init.step,
                                           moved, samples, pe_guess)
            out += [samples, moved, stack[length - 1:], guess]
        assert np.any(got[1][:, 0] != machines[:, 0])
        for name, g, w in zip(["samples", "machines", "buffers", "power"], got, want):
            assert g.shape == w.shape, name
            scale = max(np.abs(w).max(initial=0.0), 1e-300)
            assert np.abs(g - w).max(initial=0.0) <= 1e-12 * scale, name

    def test_two_axis_power_is_the_phases_power(self):
        # e = amp [cos t, sin t] K per phase: the two-axis power of i_0,
        # amp * sum(u * i_0 K^T), is sum_ph e_ph i_0,ph; and K K^T = 3/2 I,
        # so C_e e K^T = 3/2 C_e diag(amp) u.
        # Measured: at most 3.5 ulps of amp * sum|i_0| on five seeds.
        rng = np.random.default_rng(7)
        theta = rng.uniform(-math.pi, math.pi, 1000)
        amp = rng.uniform(0.5, 2.0, 1000)
        i0 = rng.normal(size=(1000, 3))
        e = amp[:, None] * np.cos(theta[:, None] + ek.PHASE_SHIFT)
        phases = (e * i0).sum(axis=1)
        u = np.array([np.cos(theta), np.sin(theta)])
        two_axis = amp * (u.T * (i0 @ ek.TWO_AXIS.T)).sum(axis=1)
        scale = amp * np.abs(i0).sum(axis=1)
        assert np.all(np.abs(two_axis - phases) <= 8 * np.spacing(scale))
        assert np.allclose(ek.TWO_AXIS @ ek.TWO_AXIS.T, 1.5 * np.eye(2), rtol=0.0,
                           atol=4 * np.spacing(1.5))


class TestRampChunks:
    """During the ramp every rotor is held, so a net with swinging machines
    advances the ramp's whole chunks of a cycle as linear maps
    (`CompiledNet.ramp_chunk`), and `step` takes only the ramp's steps
    after them.  `step` stays the reference: with every ramp chunk stepped
    instead, a run gives the same samples, end state and machines within
    1e-12 of each field's peak.  Checked from the zero state on the hybrid
    full net over the compare's ramp of 10,000 steps, and on it and the
    two- and three-machine nets (chunks of 100, 100 and 40) over a ramp to
    step 1046: two cycles of whole chunks, then a cycle of two or six
    chunks, 45 or 5 stepped ramp steps and relaxed chunks; with probes and
    without.  Measured, as a share of the peak: at most 5.0e-14 on the
    samples, 7.7e-14 on the end state (on elem_i) and 1.3e-14 on the
    machines' [delta, speed_dev], one field as in `TestRelaxMatchesReference`:
    a speed deviation alone is ill-conditioned relative to its own size
    (`assert_machines_close`), 2.4e-12 of it after the compare's ramp."""

    DT = 5e-5  # 400 steps a cycle

    @staticmethod
    def stepped_chunk(compiled, first, samples):
        """`ramp_chunk` as `step` would take it: one `step` per step, and
        the samples of the chunk's buffers from the ramp's output map."""
        for x, out in compiled.pairs[first:first + compiled.chunk]:
            compiled.step(x, out, True)
        compiled.probes.sample(compiled.stack[first:first + compiled.chunk], samples,
                               compiled.chunk)

    @pytest.mark.parametrize("count, ramp_steps, steps", [
        pytest.param(1, 10_000, 10_400, id="hybrid-compare-ramp"),
        *(pytest.param(count, 1046, 2000, id=f"{name}-mixed-cycle")
          for count, name in SWINGING.items())])
    @pytest.mark.parametrize("probed", [True, False], ids=["probes", "no-probes"])
    def test_ramp_chunks_match_the_step_path(self, hybrid, hybrid_model, monkeypatch, count,
                                             ramp_steps, steps, probed):
        net = hybrid_model.full_net if count == 1 else (
            two_machine_net, three_machine_net)[count - 2](hybrid_model.full_net)
        record = [b.id for b in hybrid.buses] if probed else []
        cfg = ek.SimConfig(dt=self.DT, steps=steps, record=record, ramp_steps=ramp_steps)
        calls = [0]
        step = ek.CompiledNet.step

        def counted(self, *args):
            calls[0] += 1
            return step(self, *args)

        monkeypatch.setattr(ek.CompiledNet, "step", counted)
        runs = []
        for chunk in (ek.CompiledNet.ramp_chunk, self.stepped_chunk):
            monkeypatch.setattr(ek.CompiledNet, "ramp_chunk", chunk)
            calls[0] = 0
            runs.append((*ek.run(net, cfg), calls[0]))
        (waves, end, chunked_calls), (want_waves, want, stepped_calls) = runs
        chunk = ek.chunk_steps(count)
        last_cycle = (ramp_steps - 1) % 400  # the ramp's steps in its last cycle
        assert stepped_calls == ramp_steps - 1
        assert chunked_calls == last_cycle % chunk
        got = np.array([waves.data[k] for k in want_waves.data])
        fields = {"samples": (got, np.array(list(want_waves.data.values())))}
        fields |= {name: (getattr(end, name), getattr(want, name))
                   for name in ("v_nodes", "elem_i", "i_hist")}
        fields["machines"] = tuple(np.column_stack([s.machine_delta, s.machine_speed_dev])
                                   for s in (end, want))
        for name, (g, w) in fields.items():
            assert g.shape == w.shape, name
            scale = max(np.abs(w).max(initial=0.0), 1e-300)
            assert np.abs(g - w).max(initial=0.0) <= 1e-12 * scale, name
        assert np.any(end.machine_speed_dev != 0.0)


class TestCycleCounts:
    """`run_until_steady` runs the whole cycles of its steps, and a time
    rounds to steps once, at `to_steps`: 2.3/1e-4 and 5.1/1e-4 evaluate just
    below 23,000 and 51,000."""

    DT = 1e-4  # 200 steps a cycle

    @pytest.mark.parametrize("duration, cycles", [(2.3, 115), (5.1, 255)])
    def test_budget_runs_every_whole_cycle(self, duration, cycles):
        assert duration / self.DT != cycles * 200
        cfg = ek.SimConfig(dt=self.DT, steps=ek.to_steps(duration, self.DT), record=["n2"],
                           ramp_steps=100_000)  # never armed
        state, ready = ek.run_until_steady(rl_net(), cfg)
        assert ready is None
        assert state.step == cycles * 200

    def test_detector_arms_in_the_first_cycle_after_the_ramp(self, monkeypatch):
        # With tolerance 1 every armed cycle counts as steady, so the
        # detector fires in the cycle it arms in: cycle 7, steps (1400, 1600];
        # the state is ready SETTLE_MARGIN_CYCLES cycles after it.
        monkeypatch.setattr(ek, "RMS_CHANGE_TOL", 1.0)
        monkeypatch.setattr(ek, "STEADY_CYCLES", 1)
        cfg = ek.SimConfig(dt=self.DT, steps=10_000, record=["n2"], ramp_steps=1400)
        _, ready = ek.run_until_steady(rl_net(), cfg)
        assert ready == (8 + ek.SETTLE_MARGIN_CYCLES) * 200


class TestStepCalls:
    """On a net without a swinging machine, ramp or not, a loop calls
    `CompiledNet.step` exactly once per kernel step, which is what per-layer
    step counts are measured by.  A net with swinging machines steps once
    per step only where its ramp ends in a partial chunk of a cycle: it
    advances the ramp's whole chunks as linear maps, and after the ramp
    relaxed chunks (`TestRampChunks` counts its calls)."""

    @pytest.fixture
    def calls(self, monkeypatch):
        count = [0]
        step = ek.CompiledNet.step

        def counted(self, *args):
            count[0] += 1
            return step(self, *args)

        monkeypatch.setattr(ek.CompiledNet, "step", counted)
        return count

    def test_run_steps_once_per_step_across_a_fault(self, calls):
        cfg = ek.SimConfig(dt=1e-4, steps=500, record=["n2"],
                           fault=ek.SimEvent(200, "n2", 0.1))
        waves, state = ek.run(rl_net(), cfg)
        assert calls[0] == 500 == state.step == len(waves.times) - 1

    def test_run_until_steady_steps_ready_step_times(self, calls):
        cfg = ek.SimConfig(dt=2e-5, steps=100_000, record=["n2"], ramp_steps=5000)
        state, ready = ek.run_until_steady(rl_net(), cfg)
        assert ready is not None
        assert calls[0] == ready == state.step


class TestHotPathProducts:
    """The stepping path calls the ndarray methods, not np.dot, whose
    array-function dispatch costs about as much as a region step's product.
    np.matmul serves the samples of stepped buffers: one call per output map
    a cycle's steps use, so one a cycle, and two in the one cycle that
    crosses the ramp's end; `relax` and `ramp_chunk` sample their chunks
    without it.
    Per-step or per-sweep dispatch fails here."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """np.dot and np.matmul calls, counted per `CompiledNet.advance` call."""
        count = {"dot": 0, "matmul": 0}
        per_cycle = []
        for name in count:
            def counted(*args, _name=name, _fn=getattr(np, name), **kwargs):
                count[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(np, name, counted)
        advance = ek.CompiledNet.advance

        def cycle(self, *args):
            before = dict(count)
            advance(self, *args)
            per_cycle.append({k: count[k] - before[k] for k in count})

        monkeypatch.setattr(ek.CompiledNet, "advance", cycle)
        return per_cycle

    def test_ramped_detector_loop(self, calls):
        dt, ramp_steps = 2e-5, 5000
        cfg = ek.SimConfig(dt=dt, steps=100_000, record=["n2", "i:l1"], ramp_steps=ramp_steps)
        _, ready = ek.run_until_steady(rl_net(), cfg)
        n_cycle = round(0.02 / dt)
        assert ready is not None and len(calls) == ready // n_cycle
        crossing = (ramp_steps - 1) // n_cycle
        assert all(c["dot"] == 0 for c in calls)
        assert [c["matmul"] for c in calls] == [
            2 if k == crossing else 1 for k in range(len(calls))]

    def test_relaxed_full_net(self, calls, hybrid, hybrid_comparison):
        net, init = TestSwingRelaxation.gis_start(hybrid_comparison)
        dt = TestSwingRelaxation.DT
        cfg = ek.SimConfig(dt=dt, steps=4000, record=[b.id for b in hybrid.buses])
        ek.run(net, cfg, init=init)
        assert ek.CompiledNet(net, dt, init).swinging.size
        assert len(calls) == 10
        assert all(c["dot"] == 0 and c["matmul"] == 0 for c in calls)

    def test_ramped_full_net(self, calls, hybrid, hybrid_model):
        # From the zero state, a ramp to step 1046: two cycles of ramp chunks
        # alone, then one of two ramp chunks, 45 stepped ramp steps, sampled
        # by one np.matmul, and relaxed chunks, then two relaxed cycles.
        cfg = ek.SimConfig(dt=TestSwingRelaxation.DT, steps=2000,
                           record=[b.id for b in hybrid.buses], ramp_steps=1046)
        ek.run(hybrid_model.full_net, cfg)
        assert all(c["dot"] == 0 for c in calls)
        assert [c["matmul"] for c in calls] == [0, 0, 1, 0, 0]

    def test_maps_are_stored_in_the_form_their_product_reads(self, ninebus3, ninebus3_model,
                                                             hybrid, hybrid_comparison):
        """Every map a step, a sweep, a hand-on, a ramp chunk or a probe
        sample multiplies by is C-contiguous, and so are the left-hand
        buffers u, the probe blocks and the stack's: at these sizes OpenBLAS takes 15-125% longer
        on a transposed operand.  w_0 stays a strided view of [w_0; e] (a
        contiguous copy costs more than it saves), and K^T, the left-hand
        operand of the phases' product, gains nothing from a copy."""
        dt = TestSwingRelaxation.DT
        net, record = region_net(ninebus3, ninebus3_model, "plant2")
        cycle = round(net.period / dt)
        region = ek.CompiledNet(net, dt, ek.zero_state(net, dt), 2600, record, cycle)
        net, init = TestSwingRelaxation.gis_start(hybrid_comparison)
        full = ek.CompiledNet(net, dt, init, None, [b.id for b in hybrid.buses], cycle)
        for compiled in (region, full):
            compiled.advance(cycle, np.zeros((len(compiled.probes.keys), cycle)))
        assert region.n < region.ramp_end and full.chunks_relaxed == cycle // full.chunk
        named = {"stack": full.stack, "region stack": region.stack,
                 "probe_map": full.probe_map}
        for name in ("ramp_map", "post_map"):
            named |= {f"region {name}": getattr(region, name), name: getattr(full, name)}
        for m in full.swing_maps.values():
            named |= {f"{name} ({m.theta.shape[1]} steps)": getattr(m, name) for name in (
                "currents_w", "currents", "swing", "guess_map", "w_at", "u", "probe_rows")}
        # The region loop's ramp chunks: plant2's machine swings after them.
        assert region.swinging.size and region.ramp_maps is not None
        named |= {f"region ramp {name}": getattr(region.ramp_maps, name)
                  for name in ("w_at", "probe_map", "probe_rows")}
        assert [name for name, a in named.items() if not a.flags.c_contiguous] == []


class TestRelaxedChunkSetUp:
    """A loop builds a relaxed chunk's maps and work buffers once per chunk
    length, and a ramp chunk's on its first ramp chunk, so after its first
    cycle a chunk allocates no array: a call of np.empty, np.zeros or
    np.arange per chunk fails here.  The buffers belong to the loop, so
    loops advanced in turn give what each gives alone."""

    DT = TestSwingRelaxation.DT  # 400 steps a cycle, 4 chunks

    @staticmethod
    def arrays_per_cycle(monkeypatch, compiled, cycle):
        """The np.empty, np.zeros and np.arange calls of each of 4 cycles."""
        samples = np.zeros((len(compiled.probes.keys), cycle))
        count = [0]
        for name in ("empty", "zeros", "arange"):
            def counted(*args, _fn=getattr(np, name), **kwargs):
                count[0] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(np, name, counted)
        per_cycle = []
        for _ in range(4):
            before = count[0]
            compiled.advance(cycle, samples)
            per_cycle.append(count[0] - before)
        return per_cycle

    @pytest.mark.parametrize("probed", [True, False], ids=["probes", "no-probes"])
    def test_no_array_built_after_the_first_cycle(self, monkeypatch, hybrid,
                                                  hybrid_comparison, probed):
        net, init = TestSwingRelaxation.gis_start(hybrid_comparison)
        cycle = round(net.period / self.DT)
        compiled = ek.CompiledNet(net, self.DT, init, None,
                                  [b.id for b in hybrid.buses] if probed else [], cycle)
        per_cycle = self.arrays_per_cycle(monkeypatch, compiled, cycle)
        assert compiled.chunks_relaxed == 4 * cycle // compiled.chunk
        assert per_cycle[0] > 0  # the first chunk builds the maps
        assert per_cycle[1:] == [0, 0, 0]

    @pytest.mark.parametrize("probed", [True, False], ids=["probes", "no-probes"])
    def test_no_array_built_after_the_first_ramp_cycle(self, monkeypatch, hybrid,
                                                       hybrid_comparison, probed):
        # From the zero state over a ramp of 5 cycles: the 4 cycles advanced
        # are ramp chunks alone.
        net = TestSwingRelaxation.gis_start(hybrid_comparison)[0]
        cycle = round(net.period / self.DT)
        compiled = ek.CompiledNet(net, self.DT, ek.zero_state(net, self.DT), 5 * cycle,
                                  [b.id for b in hybrid.buses] if probed else [], cycle)
        per_cycle = self.arrays_per_cycle(monkeypatch, compiled, cycle)
        assert compiled.n < compiled.ramp_end and compiled.chunks_relaxed == 0
        assert compiled.ramp_maps is not None
        assert per_cycle[0] > 0  # the first ramp chunk builds the maps
        assert per_cycle[1:] == [0, 0, 0]

    def test_loops_advanced_in_turn_match_each_alone(self, hybrid, hybrid_comparison):
        # From the GIS snapshot with probes and without, and faulted from it:
        # cycles, then 150 steps (a chunk of 100 and one of 50), then cycles.
        net, init = TestSwingRelaxation.gis_start(hybrid_comparison)
        record = [b.id for b in hybrid.buses]
        faulted = ek.apply_fault(net, "B7", 1e-6)
        starts = [(net, init, record), (net, init, []),
                  (faulted, ek.migrate_state(faulted, init), record)]
        lengths = [400, 400, 150, 400]

        def loop(net, state, record):
            return ek.CompiledNet(net, self.DT, state, None, record, 400)

        def advance(compiled, length):
            samples = np.zeros((len(compiled.probes.keys), length))
            compiled.advance(length, samples)
            return samples

        alone = []
        for start in starts:
            compiled = loop(*start)
            alone.append(([advance(compiled, n) for n in lengths], compiled.state()))
        loops = [loop(*start) for start in starts]
        in_turn = [[] for _ in loops]
        for n in lengths:
            for compiled, out in zip(loops, in_turn):
                out.append(advance(compiled, n))
        for compiled, got, (want, want_state) in zip(loops, in_turn, alone):
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
            state = compiled.state()
            for name, value in vars(want_state).items():
                if isinstance(value, np.ndarray):
                    assert getattr(state, name).tobytes() == value.tobytes(), name
                else:
                    assert getattr(state, name) == value, name


class TestProbeSet:
    def test_interleaved_probes_match_per_probe_lookup(self):
        # A two-axis buffer with a single 1 reads, per key, one entry of the
        # output map times one entry of K^T, exactly, whatever the
        # summation order.
        net = rl_net()
        record = ["n2", "i:l1", "n1", "i:r1", "n2"]
        start = advance(net, ek.zero_state(net, 2e-5), 137)
        compiled = ek.CompiledNet(net, 2e-5, start, 25_000, record)
        probes = compiled.probes
        assert probes.keys == [f"{pid}.{ph}" for pid in record for ph in "abc"]
        eids = [e.eid for e in net.elements]
        cols = [0, compiled.n_lc + 2, compiled.n_lc + 3]  # ih, r_c, r_s
        for ramped, o in ((0, compiled.outputs[1]), (1, compiled.outputs[0])):
            for axis, col in itertools.product(range(2), cols):
                z = np.zeros((2, compiled.rows))
                z[axis, col] = 1.0
                want = []
                for pid in record:
                    if pid.startswith("i:"):
                        row = compiled.n_nodes + eids.index(pid[2:])
                    else:
                        row = compiled.node_index[pid]
                    want += [o[row, col] * ek.TWO_AXIS[axis, ph] for ph in range(3)]
                got = sample_one(probes, z, ramped)
                assert np.array_equal(got, np.array(want))
                assert got.shape == (len(probes.keys),)
        # A stack: one column per buffer, the first `ramped` on the ramp map.
        z = np.zeros((2, compiled.rows))
        z[1, cols[1]] = 1.0
        stack = np.stack([z, 2.0 * z, 4.0 * z])
        got = np.empty((len(probes.keys), 3))
        probes.sample(stack, got, 1)
        assert got.shape == (len(probes.keys), 3)
        assert np.array_equal(got[:, 0], sample_one(probes, z, 1))
        assert np.array_equal(got[:, 1:], np.outer(sample_one(probes, z), [2.0, 4.0]))

    def test_empty_record_samples_nothing(self):
        compiled = ek.CompiledNet(rl_net(), 2e-5, ek.zero_state(rl_net(), 2e-5))
        probes = compiled.probes
        assert probes.keys == []
        assert sample_one(probes, compiled.stack[0]).shape == (0,)


class TestCompatibility:
    def test_foreign_snapshot_rejected(self):
        net_a, net_b = rl_net(), rl_net(r=2.0)
        _, state = ek.run(net_a, ek.SimConfig(dt=5e-5, steps=200))
        other = ek.EmtNet("x", 50.0, ("m1",), (), (ek.Source("s", "m1", 1.0, 0.0),))
        with pytest.raises(IncompatibleSnapshot):
            ek.run(other, ek.SimConfig(dt=5e-5, steps=200), init=state)

    def test_dt_mismatch_rejected(self):
        net = rl_net()
        _, state = ek.run(net, ek.SimConfig(dt=5e-5, steps=200))
        with pytest.raises(IncompatibleSnapshot):
            ek.run(net, ek.SimConfig(dt=1e-4, steps=100), init=state)

    @pytest.mark.parametrize("machines", [
        lambda s: replace(s, machine_ids=("ghost",) + s.machine_ids[1:]),
        lambda s: replace(s, machine_ids=(), machine_delta=np.zeros(0),
                          machine_speed_dev=np.zeros(0), machine_pm=np.zeros(0)),
    ], ids=["renamed", "emptied"])
    @pytest.mark.parametrize("loop", [ek.run, ek.run_until_steady],
                             ids=["run", "run_until_steady"])
    def test_foreign_machine_set_rejected(self, hybrid_model, machines, loop):
        # Nodes, elements and dt fit; the machines, whose EMFs the loop
        # takes from the net, do not.
        net = hybrid_model.full_net
        state = machines(ek.zero_state(net, 5e-5))
        with pytest.raises(IncompatibleSnapshot, match="machine set differs"):
            loop(net, ek.SimConfig(dt=5e-5, steps=400), init=state)

    def test_unknown_probe_rejected(self):
        with pytest.raises(UnknownProbe):
            ek.run(rl_net(), ek.SimConfig(dt=5e-5, steps=200,
                                          record=["ghost"]))

    @pytest.mark.parametrize("field", ["v_nodes", "elem_i"])
    @pytest.mark.parametrize("loop", [ek.run, ek.run_until_steady],
                             ids=["run", "run_until_steady"])
    def test_unbalanced_start_state_rejected(self, field, loop):
        # Two axes hold no zero-sequence part: one above ZERO_SEQUENCE_TOL of
        # the peak is rejected, one below it passes (the loop drops it).
        net = rl_net()
        _, state = ek.run(net, ek.SimConfig(dt=5e-5, steps=260))
        peak = np.abs(getattr(state, field)).max()
        cfg = ek.SimConfig(dt=5e-5, steps=400, record=["n2"])
        moved = state.copy()
        getattr(moved, field)[0, 0] += 0.5 * ek.ZERO_SEQUENCE_TOL * peak
        loop(net, cfg, init=moved)
        getattr(moved, field)[0, 0] += 1.5 * ek.ZERO_SEQUENCE_TOL * peak
        with pytest.raises(IncompatibleSnapshot, match="not a balanced set"):
            loop(net, cfg, init=moved)

    @pytest.mark.parametrize("field", ["dt", "v_nodes", "elem_i", "i_hist", "machine_delta",
                                       "machine_speed_dev", "machine_pm"])
    @pytest.mark.parametrize("loop", [ek.run, ek.run_until_steady],
                             ids=["run", "run_until_steady"])
    def test_non_finite_start_state_rejected(self, hybrid_comparison, field, loop):
        # One NaN anywhere in the hybrid init state, whose full net swings
        # a machine: every comparison with a NaN is False, so the dt and
        # zero-sequence tests alone would let it step.
        net, init = TestSwingRelaxation.gis_start(hybrid_comparison)
        state = init.copy()
        if field == "dt":
            state = replace(state, dt=float("nan"))
        else:
            getattr(state, field).flat[-1] = np.nan
        cfg = ek.SimConfig(dt=TestSwingRelaxation.DT, steps=400, record=["B7"])
        match = "differs from configured dt" if field == "dt" else f"{field} holds a non-finite"
        with pytest.raises(IncompatibleSnapshot, match=match):
            loop(net, cfg, init=state)


class TestTwoAxisFrame:
    """A loop steps two axes and expands with K^T at its edges, so every
    state it hands out is a balanced set: its zero-sequence part stays
    within 1e-12 of its peak."""

    @staticmethod
    def assert_balanced(state):
        for name in ("v_nodes", "elem_i", "i_hist"):
            x = getattr(state, name)
            assert np.abs(x.sum(axis=1)).max() <= 1e-12 * np.abs(x).max(), name

    def test_every_step_across_the_ramp(self):
        net, dt = rl_net(), 2e-5
        compiled = ek.CompiledNet(net, dt, ek.zero_state(net, dt), 100, ["n2"], 1)
        for _ in range(300):
            compiled.advance(1, np.empty((3, 1)))
            self.assert_balanced(compiled.state())

    @pytest.mark.parametrize("steps", [1, 99, 100, 101, 450])
    def test_relaxed_loops_across_a_fault(self, hybrid_comparison, steps):
        net, init = TestSwingRelaxation.gis_start(hybrid_comparison)
        dt = TestSwingRelaxation.DT
        cfg = ek.SimConfig(dt=dt, steps=steps, record=["B7"],
                           fault=ek.SimEvent(init.step + 50, "B7", 0.02))
        _, final = ek.run(net, cfg, init=init)
        assert final.step == init.step + steps
        self.assert_balanced(final)


class TestWaveformExport:
    def test_csv_layout(self, tmp_path):
        net = rl_net()
        waves, _ = ek.run(net, ek.SimConfig(dt=1e-4, steps=100, record=["n2"]))
        path = tmp_path / "w.csv"
        ek.write_waveforms_csv(path, waves)
        lines = path.read_text().splitlines()
        assert lines[0] == "time,n2.a,n2.b,n2.c"
        assert len(lines) == len(waves.times) + 1

    def test_csv_round_trip_is_exact(self, tmp_path):
        net = rl_net()
        waves, _ = ek.run(net, ek.SimConfig(dt=1e-4, steps=200,
                                            record=["n1", "n2", "i:l1"]))
        path = tmp_path / "w.csv"
        ek.write_waveforms_csv(path, waves)
        header, *rows = path.read_text().splitlines()
        assert header.split(",") == ["time", *waves.data]
        back = np.array([[float(x) for x in row.split(",")] for row in rows])
        assert np.array_equal(back[:, 0], waves.times)
        for col, k in enumerate(waves.data, start=1):
            assert np.array_equal(back[:, col], waves.data[k])


class TestSteadyDetector:
    def test_detector_fires_on_settled_rl(self):
        net = rl_net()
        cfg = ek.SimConfig(dt=2e-5, steps=100_000, record=["n2"])
        state, ready = ek.run_until_steady(net, cfg)
        assert ready is not None
        # Detection within 0.5 s, then the settle margin.
        assert ready * 2e-5 < 0.5 + ek.SETTLE_MARGIN_CYCLES * net.period

    def test_detector_respects_budget(self):
        net = rl_net()
        cfg = ek.SimConfig(dt=2e-5, steps=2000, record=["n2"], ramp_steps=25_000)
        _, fired = ek.run_until_steady(net, cfg)
        assert fired is None


class TestSingularTopology:
    def test_floating_node_is_rejected(self):
        from emtgis.errors import SingularConductance

        net = ek.EmtNet(
            "bad", 50.0, ("n1", "n2", "orphan"),
            (ek.Element("r1", ek.ElementKind.RESISTOR, "n1", "n2", 1.0),),
            (ek.Source("src", "n1", 1.0, 0.0),),
        )
        with pytest.raises(SingularConductance):
            ek.CompiledNet(net, 1e-4, ek.zero_state(net, 1e-4))
