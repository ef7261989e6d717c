"""Seeded Brownian increments for the chain, refinable in dt.

One coarse stream draws, row by row, the momentum- and strain-exchange
increments of every coarse step; each refinement level has its own bridge
stream that splits every parent increment into two halves conditioned on
their sum (Brownian bridge), so runs at different dt share one underlying
path. Draw order is row-sequential, hence independent of chunking.

Every stream is numpy's SFC64 bit generator, seeded from a SeedSequence
whose spawn key names the stream (initial state, coarse, bridge of a level).
The spawn keys alone keep the streams independent, so a counter-based
generator's jumps (Philox) are not needed, and SFC64 draws normals faster:
the chain draws 2(N - 1) of them a step.

run_trajectory calls next_chunk once per block, just before its steps. A
BridgedNoise holds generator state, so one run owns it, on one thread.
"""

from __future__ import annotations

import math

import numpy as np

# numpy 2 loads numpy.random on first use: imported here, the first draw in a
# timed set-up does not pay for the load
from numpy.random import SFC64, Generator, SeedSequence

from .schedules import checked_integer, checked_positive

_STREAM_INIT = 0
_STREAM_COARSE = 1
_STREAM_BRIDGE = 2


def _generator(seed: int, *key: int) -> Generator:
    """SFC64 stream `key` of a seed; SeedSequence rejects a negative one.

    SFC64 is the fastest of numpy's bit generators at normals, and the
    spawn key, not the generator, keeps the streams apart.
    """
    ss = SeedSequence(entropy=seed, spawn_key=tuple(key))
    return Generator(SFC64(seed=ss))


def initial_state_rng(seed: int) -> Generator:
    """Stream reserved for drawing the initial condition."""
    return _generator(seed, _STREAM_INIT)


class BridgedNoise:
    """Yields per-step Gaussian increments dw (momentum) and dwt (strain).

    level=0 draws increments of variance dt_coarse directly; level=k returns
    steps of size dt_coarse / 2^k obtained by bridging, bit-coupled to every
    coarser level with the same seed.
    """

    def __init__(self, seed: int, n_bonds: int, dt_coarse: float, level: int):
        checked_integer("seed", seed, 0)
        checked_integer("n_bonds", n_bonds, 1)
        checked_positive("dt_coarse", dt_coarse)
        checked_integer("level", level, 0)
        self.n_bonds = int(n_bonds)
        self.dt_coarse = float(dt_coarse)
        self._coarse = _generator(seed, _STREAM_COARSE)
        self._bridges = [_generator(seed, _STREAM_BRIDGE, lev) for lev in range(1, level + 1)]

    def next_chunk(self, n_coarse: int):
        """Increments covering n_coarse coarse steps.

        Returns (dw, dwt), each of shape (n_coarse * 2**level, n_bonds), with
        per-row variance dt_coarse / 2**level.
        """
        checked_integer("n_coarse", n_coarse, 1)
        # in place: no temporary copy of a level's increments
        cur = self._coarse.standard_normal((n_coarse, 2, self.n_bonds))
        cur *= math.sqrt(self.dt_coarse)
        h = self.dt_coarse
        for gen in self._bridges:
            m = cur.shape[0]
            z = gen.standard_normal((m, 2, self.n_bonds))
            z *= 0.5 * math.sqrt(h)
            nxt = np.empty((2 * m, 2, self.n_bonds))
            first, second = nxt[0::2], nxt[1::2]
            np.multiply(cur, 0.5, out=first)
            np.subtract(first, z, out=second)  # 0.5 cur - z
            first += z  # 0.5 cur + z
            cur = nxt
            h /= 2.0
        return cur[:, 0, :], cur[:, 1, :]
