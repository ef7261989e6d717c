"""Counter-based Brownian increments for the chain, refinable in dt.

Two independent Philox streams drive the momentum- and strain-exchange
families at the coarsest step size; each refinement level has its own bridge
stream that splits every parent increment into two halves conditioned on
their sum (Brownian bridge), so runs at different dt share one underlying
path. Draw order is row-sequential, hence independent of chunking.

run_trajectory calls next_chunk on one worker thread, one chunk ahead of
the chain's steps, with chunks of 2, 4, 8, ... coarse rows up to a byte cap;
the generators' fills and the bridge arithmetic run outside the GIL on large
arrays, so the draws overlap the steps. A BridgedNoise is not shared between
threads: only that worker draws from it.
"""

from __future__ import annotations

import math

import numpy as np

_STREAM_INIT = 0
_STREAM_COARSE = 1
_STREAM_BRIDGE = 2


def _generator(seed: int, *key: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed) & ((1 << 63) - 1), spawn_key=tuple(key))
    return np.random.Generator(np.random.Philox(seed=ss))


def initial_state_rng(seed: int) -> np.random.Generator:
    """Stream reserved for drawing the initial condition."""
    return _generator(seed, _STREAM_INIT)


class BridgedNoise:
    """Yields per-step Gaussian increments dw (momentum) and dwt (strain).

    level=0 draws increments of variance dt_coarse directly; level=k returns
    steps of size dt_coarse / 2^k obtained by bridging, bit-coupled to every
    coarser level with the same seed.
    """

    def __init__(self, seed: int, n_bonds: int, dt_coarse: float, level: int = 0):
        if n_bonds < 1:
            raise ValueError("need at least one bond")
        if level < 0:
            raise ValueError("refinement level must be >= 0")
        self.n_bonds = int(n_bonds)
        self.dt_coarse = float(dt_coarse)
        self.level = int(level)
        self.dt = self.dt_coarse / 2**self.level
        self._coarse = _generator(seed, _STREAM_COARSE)
        self._bridges = [_generator(seed, _STREAM_BRIDGE, lev) for lev in range(1, level + 1)]

    def next_chunk(self, n_coarse: int):
        """Increments covering n_coarse coarse steps.

        Returns (dw, dwt), each of shape (n_coarse * 2**level, n_bonds), with
        per-row variance self.dt.
        """
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
