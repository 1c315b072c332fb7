"""Reference comparison window: record every step, then slice.

This is how `emtgis compare` evaluated its window before each run recorded
only the window.  Both runs record every probe at every step, from their
start states to w1, and the window [w0, w1] is sliced out of each by its
offset from that run's start.  Kept as the oracle of `cli.cmd_compare`'s
lead-in and window runs.
"""

import emtgis.emtkernel as ek
from emtgis.cli import average_relative_deviation


def reference_window(zero_step: int, dt: float, period: float, window: float,
                     fault: ek.SimEvent | None = None) -> tuple[int, int]:
    """[w0, w1] in steps: w0 the second cycle start after the zero-state
    run settles at `zero_step`, or the fault's step; w1 `window` later."""
    cycles = int(round(period / dt))
    w0 = ((zero_step // cycles) + 2) * cycles
    if fault is not None:
        w0 = fault.step
    return w0, w0 + int(round(window / dt))


def reference_deviations(full_net: ek.EmtNet, gis_state: ek.EmtState,
                         zero_state: ek.EmtState, probes: list[str], dt: float,
                         w0: int, w1: int, fault: ek.SimEvent | None) -> dict[str, float]:
    """Per probe key, the deviation of the run from `gis_state` from the run
    from `zero_state` over [w0, w1], each run recorded from its start."""
    waves = []
    for start in (zero_state, gis_state):
        sim = ek.SimConfig(dt=dt, steps=w1 - start.step, record=probes, fault=fault)
        waves.append((start.step, ek.run(full_net, sim, init=start)[0].data))
    (z, zero), (g, gis) = waves
    return {key: average_relative_deviation(gis[key][w0 - g:w1 - g + 1],
                                            zero[key][w0 - z:w1 - z + 1])
            for key in zero}
