"""Per-layer probes: the median time of one public call into a layer, at the
workload's sizes, in size-free units.

The jobs call ``run_trajectory`` and ``advance`` whole, so the operations
inside them (a chain step, the ledger, the noise, the PDE right-hand side and
balance, spline and test-function evaluation) are timed here by calling the
same public functions directly on a Gibbs state of the workload's size. Every
workload runs every probe, so each traced run reports every layer.
"""

from __future__ import annotations

import math
import os
import statistics
import time

import numpy as np

from hydrochain.blockstats import (
    BlockSpec,
    EmpiricalField,
    default_block_width,
    statistics_row,
    weak_residual,
)
from hydrochain.macropde import (
    MacroConfig,
    MacroState,
    advance,
    balance_integrands,
    uniform_state,
    viscous_rhs,
)
from hydrochain.microchain import (
    ChainState,
    accumulate_ledger,
    draw_increments,
    make_initial_state,
    run_trajectory,
    step,
    write_snapshot_csv,
)
from hydrochain.noise import BridgedNoise
from hydrochain.testfunctions import default_test_functions

from workloads import TAU0, TAU1, Context, Spec, chain_config, pde_config

PROBE_SEED = 12345
CHAIN_STEPS = 16  # coarse steps of the run_trajectory probe
PDE_STEPS = 8  # steps of the advance probe
NOISE_ROWS = 256  # fine noise rows per next_chunk probe
WEAK_SNAPSHOTS = 20
CSV_ROWS = 20000  # about 1 MB of snapshot CSV


def _per_call(fn, repeat: int) -> float:
    """Median wall seconds of one call of ``fn`` over ``repeat`` calls."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def probe_layers(spec: Spec, ctx: Context) -> dict[str, dict]:
    """Per-layer metrics as {name: {"value": ..., "unit": ...}}."""
    model = ctx.model
    n, level, m = spec.n, spec.level, spec.m
    out: dict[str, dict] = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = {"value": value, "unit": unit}

    # microchain and noise, on a Gibbs state at the workload's N and level
    cfg = chain_config(n, level, CHAIN_STEPS, 2, PROBE_SEED)
    state = make_initial_state(cfg, TAU0, model)
    inc = draw_increments(np.random.default_rng(PROBE_SEED), n, cfg.dt_fine)
    after = step(state, cfg, inc, model, tau_bar=TAU1)
    sec = _per_call(lambda: step(state, cfg, inc, model, TAU1), 50)
    put("microchain.step_us", sec * 1e6, "us")
    sec = _per_call(lambda: accumulate_ledger(state, after, TAU1, cfg, inc, model), 20)
    put("microchain.accumulate_ledger_us", sec * 1e6, "us")
    sec = _per_call(lambda: run_trajectory(cfg, TAU0, model, initial_state=state), 3)
    put("microchain.run_trajectory_ns_per_site_step", sec / (n * cfg.n_steps) * 1e9, "ns")
    coarse = max(1, NOISE_ROWS >> level)

    def next_chunk():
        BridgedNoise(PROBE_SEED, n - 1, cfg.dt, level).next_chunk(coarse)

    sec = _per_call(next_chunk, 7)
    put("noise.next_chunk_ns_per_site_step", sec / (n * (coarse << level)) * 1e9, "ns")

    # thermo spline on the state's strains
    sec = _per_call(lambda: model.tau_of_rho(state.r), 50)
    put("thermo.tau_of_rho_ns_per_point", sec / n * 1e9, "ns")

    # blockstats and testfunctions at the workload's block width
    bspec = BlockSpec(default_block_width(n), n)
    sec = _per_call(lambda: EmpiricalField.from_state(state, bspec), 50)
    put("blockstats.empirical_field_us", sec * 1e6, "us")
    sec = _per_call(lambda: statistics_row(state, bspec, cfg.sigma, model), 10)
    put("blockstats.statistics_row_ms", sec * 1e3, "ms")
    horizon = cfg.t_end_eff
    fields = [
        EmpiricalField.from_state(ChainState(state.r, state.p, t), bspec)
        for t in np.linspace(0.0, horizon, WEAK_SNAPSHOTS)
    ]
    phi = default_test_functions(horizon)[1]
    sec = _per_call(lambda: weak_residual(fields, phi, phi, model), 3)
    put("blockstats.weak_residual_ms_per_snapshot", sec / WEAK_SNAPSHOTS * 1e3, "ms")
    x = fields[0].x
    t_mid = 0.5 * horizon

    def derivatives():
        for xi in x:
            phi.dt(t_mid, xi)
            phi.dx(t_mid, xi)

    sec = _per_call(derivatives, 5)
    put("testfunctions.derivative_ns_per_point", sec / (2 * x.size) * 1e9, "ns")

    # csvio: snapshot CSV of the state
    snaps = [state] * max(1, CSV_ROWS // n)
    path = os.path.join(ctx.workdir, "probe_snapshots.csv")
    sec = _per_call(lambda: write_snapshot_csv(path, snaps), 3)
    put("csvio.write_MB_per_s", os.path.getsize(path) / 1e6 / sec, "MB/s")

    # macropde at the workload's M, on a smooth non-uniform state
    dt_step = MacroConfig(M=m).dt
    pcfg = pde_config(m, PDE_STEPS * dt_step, [0.0])
    xs = pcfg.x
    smooth = MacroState(ctx.rho0 + 0.1 * np.sin(math.pi * xs), 0.05 * np.cos(math.pi * xs), 0.0)
    sec = _per_call(lambda: viscous_rhs(smooth, TAU1, pcfg, model), 30)
    put("macropde.viscous_rhs_us", sec * 1e6, "us")
    sec = _per_call(lambda: balance_integrands(smooth, TAU1, pcfg, model), 30)
    put("macropde.balance_integrands_us", sec * 1e6, "us")
    start = uniform_state(pcfg, ctx.rho0)
    sec = _per_call(lambda: advance(start, pcfg, model), 3)
    put("macropde.advance_us_per_step", sec / pcfg.n_steps * 1e6, "us")
    return out
