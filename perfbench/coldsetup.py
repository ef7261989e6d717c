"""Cold set-up, timed.

Set-up is what a user pays before the first job: a ThermoModel with its
spline table, plus the chain's Gibbs initial state. Imports are not timed.
A sample's ``setup_s`` is in reference seconds, scaled by the set-up kernel
timed just before and just after it (see calibrate.py); ``wall_s`` is the
raw time.

A run takes several samples so that its median is steady. ``cold_samples``
takes each in a child forked from the measuring process before that process
has built any model, so every sample is cold whatever the package caches in
memory, and no sample pays the interpreter's start-up and imports again.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback

from calibrate import setup_kernel_seconds, setup_scale
from hydrochain.microchain import ChainConfig, make_initial_state
from hydrochain.thermo import ThermoModel
from workloads import TAU0


def timed_setup(n: int, seed: int) -> tuple[ThermoModel, dict]:
    config = ChainConfig(N=n, seed=seed)
    before = setup_kernel_seconds()
    t0 = time.perf_counter()
    model = ThermoModel()
    t1 = time.perf_counter()
    table = model.table
    t2 = time.perf_counter()
    make_initial_state(config, TAU0, model)
    t3 = time.perf_counter()
    kernel_s = 0.5 * (before + setup_kernel_seconds())
    return model, {
        "setup_s": (t3 - t0) * setup_scale(kernel_s),
        "wall_s": t3 - t0,
        "kernel_s": kernel_s,
        "table_build_s": t2 - t1,
        "sample_canonical_ms": (t3 - t2) * 1e3,
        "certificate": table["certificate"],
    }


def _sample(n: int, seed: int) -> dict:
    """One sample; a set-up that raises is returned as its traceback."""
    try:
        return timed_setup(n, seed)[1]
    except Exception:
        return {"error": traceback.format_exc()}


def cold_samples(n: int, seeds: list[int]) -> list[dict]:
    """One set-up per seed, one after the other, each in a fresh forked child."""
    with multiprocessing.get_context("fork").Pool(1, maxtasksperchild=1) as pool:
        samples = pool.starmap(_sample, [(n, seed) for seed in seeds])
        pool.close()
        pool.join()
    return samples
