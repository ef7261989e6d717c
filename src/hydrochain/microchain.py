"""N-particle chain with boundary tension and momentum/strain-exchange noise.

Integrates the coupled SDEs for (r_1..r_N, p_1..p_N) with the wall convention
p_0 = 0 by Euler-Maruyama, and keeps the trajectory energy/work/heat ledger.
The inverse temperature beta and the potential V come from the ThermoModel
every chain function takes; ChainConfig holds the chain's size, schedule,
horizon, seed and records. The noise strength is derived from N,
sigma = ceil(N^(3/4)), and the coarse step dt is the largest step
<= _THETA / (N sigma) that ends on t_end; refine_level divides it by 2^L.

Ledger convention: within each step the displacement splits into Hamiltonian
drift, noise drift and noise coupling; the heat columns are the exact kinetic
and potential energy changes along the two noise legs, with the deterministic
quadratic-variation counterterms (2/beta per momentum bond, (V''_i+V''_{i+1})
/beta per strain bond) reported inside Q_p/Q_r so those columns match the
generator computation, while martingale_p/martingale_r carry the zero-mean
remainder. The first-law residual is then exactly the energy the explicit
Hamiltonian leg fails to conserve, which vanishes linearly in dt.

The step exists once, in the loop of _chain_block: each step writes its
three legs over all sites into the block's leg arrays and evaluates only V'
at its end state, all that the next drift reads. Once per block, V is
evaluated on all legs and V'' on the steps' start states, and every step's
ledger increments are formed with row reductions. step and accumulate_ledger
run a block of one step, with run_trajectory's start checks (_start).

run_trajectory counts t_end and record_times from the state's t, on the run
clock of schedules, and ends on t + t_end. Its blocks are whole coarse rows, at
most _BLOCK_BYTES of legs (below glibc's mmap threshold) unless one row is
larger; each draws its noise rows just before its steps, on the same thread,
and each span of about _SPAN_STEPS steps reads its tensions in one schedule
call. No output bit depends on the block or span length.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .noise import BridgedNoise, initial_state_rng
from .schedules import BlowUpError, ChainState, ConstantSchedule, checked_integer
from .schedules import checked_record_times, checked_start, record_steps
from .schedules import run_steps, tensions_at
from .thermo import ThermoModel, _potential_curvature, _potential_slope, _potential_value

log = logging.getLogger(__name__)

_THETA = 0.1  # the coarse step bound is _THETA / (N sigma)
# bound on one ledger block's (3 steps, N) leg arrays: below glibc's 128 KiB
# mmap threshold, so each block array comes from the heap, not a fresh mmap
_BLOCK_BYTES = 96 << 10
_SPAN_STEPS = 1 << 16  # steps per schedule call, rounded down to whole blocks


@dataclass
class ChainConfig:
    """The noise strength sigma = ceil(N^(3/4)) is large at the micro scale
    and vanishing at the macro scale. The coarse step dt is the largest step
    <= _THETA/(N sigma) that ends on t_end: n_coarse steps of t_end / n_coarse
    (schedules.run_steps); refine_level splits each into 2^L fine steps."""

    N: int
    tension_schedule: object = field(default_factory=ConstantSchedule)
    sigma: float = field(init=False)
    dt: float = field(init=False)
    t_end: float = 1.0
    seed: int = 0
    record_times: np.ndarray | None = None
    refine_level: int = 0

    def __post_init__(self):
        checked_integer("N", self.N, 2)
        self.sigma = float(math.ceil(self.N**0.75 - 1e-9))
        self.n_coarse, self.dt = run_steps(self.t_end, _THETA / (self.N * self.sigma))
        checked_integer("seed", self.seed, 0)
        checked_integer("refine_level", self.refine_level, 0)
        self.t_end_eff = self.t_end  # the name the benchmark in perfbench/ reads
        self.record_times = checked_record_times(self.record_times, self.t_end)

    @property
    def dt_fine(self) -> float:
        return self.dt / 2**self.refine_level

    @property
    def n_steps(self) -> int:
        return self.n_coarse * 2**self.refine_level


@dataclass
class Ledger:
    """Cumulative per-particle energy bookkeeping along one trajectory."""

    E: float = 0.0
    W: float = 0.0
    Q_p: float = 0.0
    Q_r: float = 0.0
    martingale_p: float = 0.0
    martingale_r: float = 0.0

    @property
    def heat(self) -> float:
        return self.Q_p + self.Q_r + self.martingale_p + self.martingale_r


@dataclass
class LedgerSeries:
    t: np.ndarray
    E: np.ndarray
    W: np.ndarray
    Q_p: np.ndarray
    Q_r: np.ndarray
    martingale_p: np.ndarray
    martingale_r: np.ndarray

    @property
    def heat(self) -> np.ndarray:
        return self.Q_p + self.Q_r + self.martingale_p + self.martingale_r

    @property
    def first_law_residual(self) -> np.ndarray:
        return self.E - self.E[0] - self.W - self.heat


@dataclass
class TrajectoryResult:
    snapshots: list
    ledger: LedgerSeries
    config: ChainConfig
    n_steps: int


# -- one step -----------------------------------------------------------------


def _differences(x: np.ndarray, left: float, right: float) -> np.ndarray:
    """g[i] = x[i] - x[i-1] for i = 0..n, with x[-1] = left and x[n] = right."""
    g = np.empty(x.size + 1)
    g[0] = x[0] - left
    np.subtract(x[1:], x[:-1], out=g[1:-1])
    g[-1] = right - x[-1]
    return g


def _gradients(a: np.ndarray, p: np.ndarray, tau_bar: float):
    """Drift pieces per site: (p_i - p_{i-1} with the wall p_0 = 0,
    a_{i+1} - a_i with a_{N+1} = tau_bar, Laplacian of a, Laplacian of p).

    The Laplacians are those of the path graph (Neumann ends): their rows sum
    to zero, so the noise drift conserves sum r and sum p."""
    ga = _differences(a, a[0], tau_bar)
    gp = _differences(p, 0.0, p[-1])
    lap_a = ga[1:] - ga[:-1]
    lap_a[-1] = -ga[-2]
    lap_p = gp[1:] - gp[:-1]
    lap_p[0] = gp[1]
    return gp[:-1], ga[1:], lap_a, lap_p


def _couplings(dw, dwt, config: ChainConfig, model: ThermoModel):
    """The noise-coupling kicks c (w_i - w_{i-1}), with w_0 = w_N = 0, that
    a step subtracts from p and from r, row by row for a block of steps'
    increments (dw, dwt)."""
    coeff = math.sqrt(2.0 * config.N * config.sigma / model.beta)
    kicks = []
    for w in map(np.asarray, (dw, dwt)):
        g = np.empty(w.shape[:-1] + (w.shape[-1] + 1,))
        g[..., :-1] = w
        g[..., -1] = 0.0
        g[..., 1:] -= w
        g *= coeff
        kicks.append(g)
    return kicks


def _block_rows(n: int, level: int) -> int:
    """Coarse rows per block, of 2**level steps each: few enough that the
    block's (3 steps, n) leg arrays fit in _BLOCK_BYTES; at least one."""
    return max(1, _BLOCK_BYTES // (2**level * 3 * n * 8))


def _chain_block(
    r, p, d1, dw, dwt, taubars, k0: int, t0: float, config: ChainConfig, model: ThermoModel
):
    """Steps k0 + 1, k0 + 2, ... of a run that started at t0: Euler-Maruyama
    steps of size config.dt_fine from the finite state (r, p), one per row of
    the noise increments (dw, dwt) and entry of taubars. d1 is V' at r.

    A step takes its displacement in three legs: Hamiltonian drift, noise
    drift and noise coupling, whose kicks (_couplings, built for the whole
    block at once) telescope exactly. It writes the state after each leg
    into the block's leg arrays and computes V' at its end state, all that
    the next step's drift reads. Once the steps are done, V is evaluated on
    all legs and V'' on the steps' start states, and the ledger increments
    [W, Q_p, Q_r, M_p, M_r] of every step are formed with row reductions:
    W = tau_bar * Delta(mean strain), and the Q/M columns are the exact
    energy changes along the two noise legs, with the quadratic-variation
    counterterms shifted into Q_p/Q_r.

    Returns (rl, pl, v, incr, d1): rl and pl hold the legs of the block's
    step j in rows 3j..3j+2, the last of them its end state; v is V on rl;
    incr has a row per step; d1 is V' at the last end state. The first step
    whose increments are not finite raises BlowUpError naming it.
    """
    n, sigma, beta = config.N, config.sigma, model.beta
    dt = config.dt_fine
    ndt = n * dt
    nsdt = n * sigma * dt
    m = len(taubars)
    r0 = r
    kicks_p, kicks_r = _couplings(dw, dwt, config, model)
    rl = np.empty((m, 3, n))
    pl = np.empty((m, 3, n))
    # an overflow or a NaN in a step makes its increments non-finite, and
    # that raises below; the steps after it run on and are discarded
    with np.errstate(over="ignore", invalid="ignore"):
        for (r1, r2, r3), (p1, p2, p3), kick_p, kick_r, taub in zip(
            rl, pl, kicks_p, kicks_r, taubars
        ):
            dp_left, da_right, lap_a, lap_p = _gradients(d1, p, taub)
            np.add(r, np.multiply(ndt, dp_left, out=r1), out=r1)
            np.add(r1, np.multiply(nsdt, lap_a, out=r2), out=r2)
            np.subtract(r2, kick_r, out=r3)
            np.add(p, np.multiply(ndt, da_right, out=p1), out=p1)
            np.add(p1, np.multiply(nsdt, lap_p, out=p2), out=p2)
            np.subtract(p2, kick_p, out=p3)
            d1 = _potential_slope(model.potential, r3)
            r, p = r3, p3
        rl = rl.reshape(3 * m, n)
        pl = pl.reshape(3 * m, n)
        v = _potential_value(model.potential, rl)
        v1, v2, v3 = v.sum(axis=-1).reshape(m, 3).T
        k1, k2, k3 = np.einsum("ij,ij->i", pl, pl).reshape(m, 3).T
        ends = rl[2::3]
        starts = np.empty((m, n))
        starts[0] = r0
        starts[1:] = ends[:-1]
        dr = ends - starts
        d2s = _potential_curvature(model.potential, starts)  # for ct_r
        ct_p = 2.0 * sigma * (n - 1) * dt / (beta * n)
        ct_r = sigma * dt * (2.0 * d2s.sum(axis=-1) - d2s[:, 0] - d2s[:, -1]) / (beta * n)
        incr = np.empty((m, 5))
        incr[:, 0] = np.asarray(taubars) * dr.sum(axis=-1) / n
        incr[:, 1] = (k2 - k1) / (2.0 * n) + ct_p
        incr[:, 2] = (v2 - v1) / n + ct_r
        incr[:, 3] = (k3 - k2) / (2.0 * n) - ct_p
        incr[:, 4] = (v3 - v2) / n - ct_r
    finite = np.isfinite(incr).all(axis=1)
    if not finite.all():
        k = k0 + 1 + int(np.argmin(finite))
        raise BlowUpError(f"non-finite state at step {k}, t={t0 + k * dt:.6g}")
    return rl, pl, v, incr, d1


# -- public operations ---------------------------------------------------------


def _energy(p: np.ndarray, v: np.ndarray) -> float:
    """Energy per particle from the momenta and the spring energies V(r)."""
    return float(np.mean(p**2) / 2.0 + np.mean(v))


def energy_per_particle(state: ChainState, model: ThermoModel) -> float:
    return _energy(state.p, model.V(state.r))


def make_initial_state(config: ChainConfig, tau0: float, model: ThermoModel) -> ChainState:
    """Product Gibbs sample at (beta, tau0), mean momentum 0: N-uniform entropy bound."""
    return model.sample_canonical(tau0, config.N, initial_state_rng(config.seed))


def draw_increments(rng: np.random.Generator, n: int, dt: float):
    """(dw, dwt): one step of the 2(N-1) independent Brownian increments."""
    z = rng.standard_normal((2, n - 1)) * math.sqrt(dt)
    return z[0], z[1]


def _start(state: ChainState, config: ChainConfig, model: ThermoModel) -> np.ndarray:
    """V' at the start state's r, once schedules.checked_start passes the
    state; a start state that is not finite raises the BlowUpError of step 1."""
    checked_start(state, config.N, "N")
    if not (np.isfinite(state.r).all() and np.isfinite(state.p).all()):
        raise BlowUpError(f"non-finite state at step 1, t={state.t + config.dt_fine:.6g}")
    return _potential_slope(model.potential, state.r)


def _one_step(state: ChainState, config: ChainConfig, increments, model: ThermoModel, tau_bar):
    """_chain_block on a block of one step: (end state, ledger increments)."""
    d1 = _start(state, config, model)
    r, p, t = state.r, state.p, state.t
    taubars = tensions_at(lambda _: tau_bar, np.array([t])).tolist()
    dw, dwt = increments
    rl, pl, _, incr, _ = _chain_block(r, p, d1, [dw], [dwt], taubars, 0, t, config, model)
    return ChainState(r=rl[2], p=pl[2], t=t + config.dt_fine), incr[0]


def step(
    state: ChainState,
    config: ChainConfig,
    increments,
    model: ThermoModel,
    tau_bar: float,
) -> ChainState:
    """One Euler-Maruyama step of size config.dt_fine under the boundary
    tension tau_bar. The state is checked as run_trajectory checks its start
    state; a non-finite tau_bar raises the ValueError of schedules.tensions_at,
    and a state that is or turns non-finite BlowUpError."""
    return _one_step(state, config, increments, model, tau_bar)[0]


def accumulate_ledger(
    state_before: ChainState,
    state_after: ChainState,
    tau_bar: float,
    config: ChainConfig,
    increments,
    model: ThermoModel,
) -> Ledger:
    """Ledger increments for one step (see _chain_block), with E the energy
    per particle of state_after. Both states are checked as run_trajectory
    checks its start state (schedules.checked_start)."""
    _, incr = _one_step(state_before, config, increments, model, tau_bar)
    checked_start(state_after, config.N, "N")
    w, q_p, q_r, m_p, m_r = incr.tolist()
    return Ledger(
        E=energy_per_particle(state_after, model),
        W=w,
        Q_p=q_p,
        Q_r=q_r,
        martingale_p=m_p,
        martingale_r=m_r,
    )


def run_trajectory(
    config: ChainConfig,
    tau0: float,
    model: ThermoModel,
    initial_state: ChainState | None = None,
) -> TrajectoryResult:
    """Integrate config.n_steps steps from the Gibbs initial state (or
    initial_state), recording snapshots and the cumulative ledger at
    config.record_times (snapped to step boundaries).

    The run starts at the state's t = t0, and step k ends at t0 + k dt_fine:
    snapshot and ledger times and the tension schedule use that time, while
    record_times and n_steps count from the start of the run. A start state
    whose r or p is not of shape (N,) raises ValueError, and so does a
    non-finite t0. A start state that is not finite raises the BlowUpError
    of step 1, whatever the record times. The tension schedule is called
    once per span of whole blocks, about _SPAN_STEPS steps, on every step's
    start time in it; a non-finite tension raises ValueError naming its time
    before any step of its span runs.

    The steps run in blocks of _block_rows coarse rows (_chain_block), each
    drawing its noise just before its steps, on the calling thread; the
    ledger is a cumsum seeded with the carried accumulator.
    """
    n = config.N
    dt = config.dt_fine
    n_steps = config.n_steps

    # the steps write new arrays, so the caller's state is never written
    state = initial_state if initial_state is not None else make_initial_state(
        config, tau0, model
    )
    d1 = _start(state, config, model)  # V' at r, carried
    r, p, t0 = state.r, state.p, state.t

    rec_steps = record_steps(config.record_times, dt, n_steps)
    acc = np.zeros(5)
    rows = []  # (t, E, W, Q_p, Q_r, M_p, M_r) per record
    snapshots = []

    def record(k: int, r: np.ndarray, p: np.ndarray, v: np.ndarray, acc: np.ndarray):
        st = ChainState(r=r.copy(), p=p.copy(), t=t0 + k * dt)
        snapshots.append(st)
        rows.append((st.t, _energy(p, v), *acc.tolist()))
        log.debug("chain N=%d t=%.4g (%d/%d steps)", n, st.t, k, n_steps)

    rec_idx = int(np.count_nonzero(rec_steps == 0))  # the records at the start
    for _ in range(rec_idx):
        record(0, r, p, model.V(r), acc)
    noise = BridgedNoise(config.seed, n - 1, config.dt, config.refine_level)
    fine = 2**config.refine_level
    block = _block_rows(n, config.refine_level) * fine
    span = max(1, _SPAN_STEPS // block) * block
    for k in range(0, n_steps, block):
        if k % span == 0:  # the span's tensions, from one schedule call
            times = t0 + np.arange(k, min(k + span, n_steps)) * dt
            taubars = tensions_at(config.tension_schedule, times)
        dw, dwt = noise.next_chunk(min(block, n_steps - k) // fine)
        rl, pl, v, incr, d1 = _chain_block(
            r, p, d1, dw, dwt, taubars[k % span :][:block].tolist(), k, t0, config, model
        )
        cum = np.cumsum(np.vstack((acc, incr)), axis=0)  # acc after each step
        while rec_idx < len(rec_steps) and rec_steps[rec_idx] <= k + len(incr):
            j = rec_steps[rec_idx] - k
            record(k + j, rl[3 * j - 1], pl[3 * j - 1], v[3 * j - 1], cum[j])
            rec_idx += 1
        acc = cum[-1]
        r, p = rl[-1], pl[-1]

    series = LedgerSeries(*np.ascontiguousarray(np.reshape(rows, (-1, 7)).T))
    return TrajectoryResult(snapshots=snapshots, ledger=series, config=config, n_steps=n_steps)


def write_snapshot_csv(path, snapshots) -> None:
    """Long-format (t, i, r, p) dump of the recorded states, i = 1..N at
    each t. csvio's float kernel formats t once per snapshot and r, p once
    per site; states of different sizes raise ValueError."""
    from .csvio import write_long_csv

    write_long_csv(
        path,
        ["t", "i", "r", "p"],
        [st.t for st in snapshots],
        ([st.r for st in snapshots], [st.p for st in snapshots]),
    )


def write_ledger_csv(path, series: LedgerSeries) -> None:
    """The ledger's columns, one line per record, formatted by csvio's float
    kernel."""
    from .csvio import write_columns

    names = ("t", "E", "W", "Q_p", "Q_r", "martingale_p", "martingale_r", "first_law_residual")
    header = ["t", "E", "W", "Q_p", "Q_r", "M_p", "M_r", "first_law_residual"]
    write_columns(path, header, [getattr(series, name) for name in names])
