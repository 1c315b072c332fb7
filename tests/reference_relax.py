"""Reference relax: the per-phase waveform relaxation of swinging machines.

This is `emtkernel.CompiledNet.relax` as it was before its sweeps ran in
the rotors' two-axis frame.  Its maps cover a whole chunk of the loop's
length (`CompiledNet.chunk`), a shorter chunk takes their leading blocks,
and a sweep forms the three phases' EMFs, then the machines' currents, the
power summed over the phases and the angles.  After the sweeps, one map of
[w_0; e] gives w at every probe block start and in the two buffers the
chunk hands on.  The only edits are the ones its move out of the class
forces (the compiled net, its probe rows and the power guess are
arguments), one a loop's state forces: it hands on the buffers a step
before the chunk's end and at its end, as a state is rebuilt from the
buffer a step back, and the chunk length, the loop's and no longer one
constant.  Its sweeps still stop when the angles repeat.  Kept as the
oracle of the two-axis relax's equivalence test.
"""

from typing import NamedTuple

import numpy as np

import emtgis.emtkernel as ek
from emtgis.emtkernel import PHASE_SHIFT, PROBE_BLOCK, SQRT2


class ReferenceSwingMaps(NamedTuple):
    """The maps over a chunk of N = `CompiledNet.chunk` steps; a shorter chunk uses
    their leading blocks.  w_0 is the chunk's start buffer less its machine
    rows, and e stacks the EMFs of the chunk's steps, step-major, as do the
    outputs, the rotor angles and the speed deviations.  The probes are
    sampled per block of B = PROBE_BLOCK steps."""

    currents_w: np.ndarray  # (N*nsw, w): machine currents from w_0
    currents_e: np.ndarray  # (N*nsw, N*nsw): ... and from e
    probes: np.ndarray      # (w + B*nsw, B*n_probes): a block's samples from its
    n_probes: int           # start's w and its EMFs, transposed
    from_start: np.ndarray  # (2*N*nsw, 4*nsw): angles, then speed deviations,
    from_power: np.ndarray  # (2*N*nsw, N*nsw): from [delta_0; dw_0; emf; pm] and
    #                         from p, the sum over phases of e*i (3 pe)
    amplitude: np.ndarray   # (N*nsw, 1): sqrt2 emf
    powers: np.ndarray      # (N + 1, w, w): T_ww^k
    impulse: np.ndarray     # (N, w, nsw): T_ww^d T_we
    w_maps: dict            # chunk length: map of [w_0; e] to w at every block
    #                         start, then in the buffers the chunk hands on


def reference_swing_maps(compiled: ek.CompiledNet, probe_rows, emf) -> ReferenceSwingMaps:
    """The maps for the probes at `probe_rows` of [v; i] and the swinging
    machines' EMF magnitudes, from the maps of the loop `compiled`."""
    n, w, nsw = compiled.chunk, compiled.n_lc + 4, compiled.swinging.size
    t = compiled.post_map.T
    powers = np.empty((n + 1, w, w))
    powers[0] = np.eye(w)
    for k in range(n):
        np.dot(t[:w, :w], powers[k], out=powers[k + 1])
    impulse = powers[:n] @ t[:w, w:]

    def chunk_map(rows, steps):
        rows = np.asarray(rows, dtype=int)
        o = compiled.outputs[1][rows]
        markov = np.empty((steps, len(rows), nsw))
        markov[0] = o[:, w:]
        markov[1:] = o[:, :w] @ impulse[:steps - 1]
        lower = np.tril_indices(steps)
        g = np.zeros((steps, len(rows), w + steps * nsw))
        g[:, :, :w] = o[:, :w] @ powers[:steps]
        from_e = g[:, :, w:].reshape(steps, len(rows), steps, nsw)  # a view
        from_e[lower[0], :, lower[1]] = markov[lower[0] - lower[1]]
        return g

    active = [compiled.net.machines[k] for k in compiled.swinging]
    gain = np.array([compiled.dt / (2.0 * m.inertia_h) for m in active])
    damping = np.array([m.damping for m in active])
    decay = (1.0 - gain * damping)[:, None] ** np.arange(n + 1)
    lag = np.subtract.outer(np.arange(n), np.arange(n))
    to_speed = gain[:, None, None] * np.where(lag >= 0, decay[:, np.maximum(lag, 0)], 0.0)
    angle_gain = compiled.dt * compiled.omega
    to_angle = angle_gain * np.cumsum(to_speed, axis=1)
    own = np.arange(nsw)
    from_power = np.zeros((2, n, nsw, n, nsw))
    from_power[:, :, own, :, own] = np.stack([to_angle, to_speed], axis=1) / -3.0
    from_start = np.zeros((2, n, nsw, 4, nsw))
    from_start[0, :, own, 0, own] = 1.0
    from_start[:, :, own, 1, own] = np.stack(
        [angle_gain * np.cumsum(decay[:, 1:], axis=1).T, decay[:, 1:].T])
    from_start[:, :, own, 3, own] = np.stack([to_angle.sum(axis=2).T,
                                              to_speed.sum(axis=2).T])
    currents = chunk_map(compiled.branch_rows, n).reshape(n * nsw, -1)
    probes = chunk_map(probe_rows, PROBE_BLOCK).transpose(2, 0, 1).copy()
    return ReferenceSwingMaps(currents[:, :w].copy(), currents[:, w:].copy(),
                              probes.reshape(w + PROBE_BLOCK * nsw, -1), len(probe_rows),
                              from_start.reshape(2 * n * nsw, 4 * nsw),
                              from_power.reshape(2 * n * nsw, n * nsw),
                              np.tile(SQRT2 * np.asarray(emf, dtype=float), n)[:, None],
                              powers, impulse, {})


def _w_map(maps: ReferenceSwingMaps, w: int, nsw: int, length: int) -> np.ndarray:
    n = len(maps.impulse)
    steps = list(range(0, n, PROBE_BLOCK)) + [length - 1, length]
    m = np.zeros((len(steps), w, w + n * nsw))
    for i, k in enumerate(steps):
        m[i, :, :w] = maps.powers[k]
        m[i, :, w:w + k * nsw] = maps.impulse[:k][::-1].transpose(1, 0, 2).reshape(w, -1)
    return m.reshape(-1, w + n * nsw)


def reference_relax(compiled: ek.CompiledNet, maps: ReferenceSwingMaps, stack, first,
                    length, step, machines, samples, pe_guess) -> tuple[np.ndarray, int]:
    """Advance `length` <= `compiled.chunk` steps from the buffer at `step` in
    stack[first], as `CompiledNet.relax` does, from the power guess
    `pe_guess`.  Returns the next chunk's power guess and the sweeps."""
    n, w, nsw = compiled.chunk, compiled.n_lc + 4, compiled.swinging.size
    ne = length * nsw
    start = machines[compiled.swinging].T.ravel()  # delta_0, dw_0, emf, pm
    from_start, from_power = maps.from_start[:ne], maps.from_power[:ne, :ne]
    offset = from_start @ start
    delta = offset - from_start[:, 3 * nsw:] @ pe_guess
    new = np.empty(ne)
    w0 = stack[first, :, :w].T
    currents_w0 = maps.currents_w[:ne] @ w0
    currents_e = maps.currents_e[:ne, :ne]
    amplitude = maps.amplitude[:ne]
    wt = compiled.omega * (np.arange(step + 1, step + length + 1) * compiled.dt)[:, None]
    theta = np.empty((length, nsw))
    theta[0] = wt[0] + start[:nsw]
    e_all = np.zeros((n * nsw, 3))
    e, y, ey, power = e_all[:ne], np.empty((ne, 3)), np.empty((ne, 3)), np.empty(ne)
    for sweeps in range(1, length + 2):
        np.add(wt[1:], delta.reshape(length, nsw)[:-1], out=theta[1:])
        np.add(theta.reshape(ne, 1), PHASE_SHIFT, out=e)
        np.cos(e, out=e)
        e *= amplitude
        np.dot(currents_e, e, out=y)
        y += currents_w0
        np.dot(np.multiply(e, y, out=ey), np.ones(3), out=power)
        np.dot(from_power, power, out=new)
        new += offset
        if new.tobytes() == delta.tobytes():
            break
        delta, new = new, delta

    end = slice(n * nsw + ne - nsw, n * nsw + ne)
    machines[compiled.swinging, 1] = (maps.from_start[end] @ start
                                      + maps.from_power[end, :ne] @ power)
    machines[compiled.swinging, 0] = delta[ne - nsw:]

    if length not in maps.w_maps:
        maps.w_maps[length] = _w_map(maps, w, nsw, length)
    at = (maps.w_maps[length] @ np.concatenate([w0, e_all])).reshape(-1, w, 3)
    blocks = n // PROBE_BLOCK
    if maps.n_probes:
        xb = np.empty((3, blocks, w + PROBE_BLOCK * nsw))
        xb[:, :, :w] = at[:blocks].transpose(2, 0, 1)
        xb[:, :, w:] = e_all.reshape(blocks, -1, 3).transpose(2, 0, 1)
        taken = np.dot(xb.reshape(3 * blocks, -1), maps.probes).reshape(
            3, n, maps.n_probes)
        samples[:] = taken[:, :length].transpose(2, 0, 1).reshape(-1, length)
    handed = stack[first + length - 1:first + length + 1]
    handed[:, :, :w] = at[blocks:].transpose(0, 2, 1)
    handed[0, :, w:] = e[ne - nsw:].T
    return power[ne - nsw:] / 3.0, sweeps
