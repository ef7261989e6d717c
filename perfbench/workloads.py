"""The benchmark's workloads: sizes, one job of each, and the checks every job's
output must pass.

All physics is at the package defaults (kappa = 0.25, beta = 1,
sigma = ceil(N^(3/4)), theta = 0.1, delta1 = delta2 = 1e-3) under a ramp of
the boundary tension from TAU0 to TAU1 over the job's horizon. Jobs start at
t = 0. The benchmark drives hydrochain through its public functions only.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from hydrochain.blockstats import (
    STATISTICS_HEADER,
    BlockSpec,
    EmpiricalField,
    default_block_width,
    statistics_row,
    weak_residual,
)
from hydrochain.csvio import write_csv
from hydrochain.macropde import (
    MacroConfig,
    advance,
    uniform_state,
    work_and_dissipation,
    write_balance_csv,
)
from hydrochain.microchain import (
    ChainConfig,
    make_initial_state,
    run_trajectory,
    write_ledger_csv,
    write_snapshot_csv,
)
from hydrochain.schedules import RampSchedule
from hydrochain.testfunctions import default_test_functions
from hydrochain.thermo import ThermoModel

TAU0 = 0.0
TAU1 = 0.4

# The chain's first-law residual is the energy the explicit Hamiltonian leg
# fails to conserve: about n_steps * (N dt)^2 per particle (measured ratio 2
# at N = 256 and 1024).
FIRST_LAW_FACTOR = 10.0


class CheckFailed(RuntimeError):
    """A job ran to the end but its output is wrong."""


@dataclass(frozen=True)
class Spec:
    """Sizes of one workload. ``n`` is also the chain size of set-up and of the
    chain probes on a workload whose jobs run no chain; ``m`` likewise."""

    name: str
    kind: str  # "chain", "pde" or "pipeline"
    n: int
    level: int
    chain_steps: int  # coarse chain steps per job
    records: int  # chain records per job, start and end included
    m: int
    pde_t_end: float  # horizon of a "pde" job; a pipeline job uses the chain's
    # Largest F - F0 - W + D balance residual, as a share of max|W| + max D.
    # It is discretisation error and the PDE inputs do not depend on the seed:
    # measured 0.08% at M = 1600 over 52 steps, 6% over the pipeline's single
    # step at M = 400.
    balance_share: float = 0.0


SPECS = {
    "chain_bulk": Spec("chain_bulk", "chain", n=1024, level=0, chain_steps=100, records=2,
                       m=1600, pde_t_end=0.0),
    "pde_fine": Spec("pde_fine", "pde", n=1024, level=0, chain_steps=0, records=0,
                     m=1600, pde_t_end=0.004, balance_share=0.01),
    "compare_pipeline": Spec("compare_pipeline", "pipeline", n=256, level=2, chain_steps=125,
                             records=100, m=400, pde_t_end=0.0, balance_share=0.1),
}


@dataclass
class JobWork:
    """What one job did, and how long its phases took."""

    site_steps: int = 0
    records: int = 0
    pde_steps: int = 0
    cell_steps: int = 0
    snapshots: int = 0
    csv_bytes: int = 0
    chain_s: float = 0.0
    pde_s: float = 0.0
    analysis_s: float = 0.0
    off_table_strains: int = 0


@dataclass
class Context:
    """Per-run objects shared by every job: the warm model and a scratch dir."""

    model: ThermoModel
    rho0: float  # equilibrium strain at TAU0
    rho_range: tuple[float, float]  # strains the thermo table covers
    workdir: str


def make_context(model: ThermoModel, workdir: str) -> Context:
    rho = model.table["rho"]
    return Context(model, model.mean_strain(TAU0), (float(rho[0]), float(rho[-1])), workdir)


def chain_config(n: int, level: int, steps: int, records: int, seed: int) -> ChainConfig:
    """Chain of ``steps`` coarse steps at the default dt = theta / (N sigma)."""
    horizon = steps * ChainConfig(N=n).dt
    return ChainConfig(
        N=n,
        t_end=horizon,
        seed=seed,
        tension_schedule=RampSchedule(TAU0, TAU1, horizon),
        record_times=np.linspace(0.0, horizon, records),
        refine_level=level,
    )


def pde_config(m: int, t_end: float, record_times) -> MacroConfig:
    return MacroConfig(
        M=m,
        t_end=t_end,
        tension_schedule=RampSchedule(TAU0, TAU1, t_end),
        record_times=np.asarray(record_times, dtype=float),
    )


def _count_off_table(arrays, rho_range) -> int:
    lo, hi = rho_range
    return int(sum(np.count_nonzero((a < lo) | (a > hi)) for a in arrays))


def check_chain(config: ChainConfig, result) -> None:
    if result.n_steps != config.n_steps:
        raise CheckFailed(f"chain ran {result.n_steps} steps, config asks {config.n_steps}")
    last = result.snapshots[-1]
    if not (np.all(np.isfinite(last.r)) and np.all(np.isfinite(last.p))):
        raise CheckFailed("chain state is not finite")
    tol = FIRST_LAW_FACTOR * config.n_steps * (config.N * config.dt_fine) ** 2
    worst = float(np.max(np.abs(result.ledger.first_law_residual)))
    if not worst <= tol:
        raise CheckFailed(f"first-law residual {worst:.3g} exceeds {tol:.3g}")


def check_pde(work, diss, residual, traj, share: float) -> None:
    if not (np.all(np.isfinite(traj.r)) and np.all(np.isfinite(traj.p))):
        raise CheckFailed("PDE state is not finite")
    tol = share * (np.max(np.abs(work)) + np.max(diss)) + 1e-12
    worst = float(np.max(residual))
    if not worst <= tol:
        raise CheckFailed(f"F - W + D balance residual {worst:.3g} exceeds {tol:.3g}")


def _run_chain(spec: Spec, ctx: Context, seed: int, tracer, work: JobWork):
    config = chain_config(spec.n, spec.level, spec.chain_steps, spec.records, seed)
    t0 = time.perf_counter()
    with tracer.span("microchain.make_initial_state"):
        state = make_initial_state(config, TAU0, ctx.model)
    with tracer.span("microchain.run_trajectory"):
        result = run_trajectory(config, TAU0, ctx.model, initial_state=state)
    work.chain_s = time.perf_counter() - t0
    work.site_steps = spec.n * result.n_steps
    work.records = len(result.snapshots)
    work.off_table_strains += _count_off_table((s.r for s in result.snapshots), ctx.rho_range)
    check_chain(config, result)
    return config, result


def _run_pde(spec: Spec, ctx: Context, tracer, work: JobWork, t_end: float, record_times):
    config = pde_config(spec.m, t_end, record_times)
    t0 = time.perf_counter()
    with tracer.span("macropde.uniform_state"):
        state = uniform_state(config, ctx.rho0)
    with tracer.span("macropde.advance"):
        traj = advance(state, config, ctx.model)
    work.pde_s = time.perf_counter() - t0
    work.pde_steps = traj.t_hist.size - 1
    work.cell_steps = spec.m * work.pde_steps
    work.off_table_strains += _count_off_table([traj.r], ctx.rho_range)
    with tracer.span("macropde.work_and_dissipation"):
        w, d, residual = work_and_dissipation(traj)
    check_pde(w, d, residual, traj, spec.balance_share)
    return traj


def _csv(tracer, name: str, path: str, write) -> int:
    with tracer.span(f"csvio.{name}"):
        write(path)
    return os.path.getsize(path)


def _run_pipeline(spec: Spec, ctx: Context, seed: int, tracer, work: JobWork) -> None:
    """The paper's experiment in miniature: chain -> block statistics and weak
    residuals of its empirical fields -> PDE over the same horizon -> CSVs."""
    model = ctx.model
    config, result = _run_chain(spec, ctx, seed, tracer, work)
    snaps = result.snapshots
    t0 = time.perf_counter()
    bspec = BlockSpec(default_block_width(spec.n), spec.n)
    fields = []
    rows = []
    for snap in snaps:
        with tracer.span("blockstats.EmpiricalField.from_state"):
            fields.append(EmpiricalField.from_state(snap, bspec))
        with tracer.span("blockstats.statistics_row"):
            rows.append(statistics_row(snap, bspec, config.sigma, model))
    with tracer.span("testfunctions.default_test_functions"):
        phis = default_test_functions(config.t_end_eff)
    residuals = []
    for phi in phis:
        with tracer.span("blockstats.weak_residual"):
            residuals.extend(weak_residual(fields, phi, phi, model))
    work.analysis_s = time.perf_counter() - t0
    if not (np.all(np.isfinite(np.asarray(rows, dtype=float))) and np.all(np.isfinite(residuals))):
        raise CheckFailed("block statistics or weak residuals are not finite")

    traj = _run_pde(spec, ctx, tracer, work, config.t_end_eff, result.ledger.t)

    t0 = time.perf_counter()
    d = ctx.workdir
    work.csv_bytes = (
        _csv(tracer, "write_snapshot_csv", f"{d}/snapshots.csv",
             lambda p: write_snapshot_csv(p, snaps))
        + _csv(tracer, "write_ledger_csv", f"{d}/ledger.csv",
               lambda p: write_ledger_csv(p, result.ledger))
        + _csv(tracer, "write_csv", f"{d}/statistics.csv",
               lambda p: write_csv(p, STATISTICS_HEADER, rows))
        + _csv(tracer, "write_balance_csv", f"{d}/balance.csv",
               lambda p: write_balance_csv(p, traj))
    )
    work.analysis_s += time.perf_counter() - t0
    work.snapshots = len(snaps)


def run_job(spec: Spec, ctx: Context, seed: int, tracer) -> JobWork:
    """One job of the workload; raises on a failed check or a program error."""
    work = JobWork()
    if spec.kind == "chain":
        _run_chain(spec, ctx, seed, tracer, work)
    elif spec.kind == "pde":
        _run_pde(spec, ctx, tracer, work, spec.pde_t_end, [0.0, spec.pde_t_end])
    else:
        _run_pipeline(spec, ctx, seed, tracer, work)
    return work


def job_seed(seed: int, index: int) -> int:
    """Seed of job ``index`` in a run with workload seed ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])
