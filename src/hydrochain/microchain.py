"""N-particle chain with boundary tension and momentum/strain-exchange noise.

Integrates the coupled SDEs for (r_1..r_N, p_1..p_N) with the wall convention
p_0 = 0 by Euler-Maruyama, and keeps the trajectory energy/work/heat ledger.
The inverse temperature beta and the potential V come from the ThermoModel
every chain function takes; ChainConfig holds the chain's size, noise and
schedule, and its one step parameter theta: the coarse step is
dt = theta / (N sigma), with theta <= THETA_MAX.

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
at its end state, all that the next drift reads. Once per block of at most
_BLOCK_BYTES of legs (below glibc's mmap threshold), V is evaluated on all
legs and V'' on the steps' start states, and every step's ledger increments
are formed with row reductions, so no bit depends on the block length. step
and accumulate_ledger run a block of one step.

run_trajectory runs each BridgedNoise chunk (at most _CHUNK_BYTES of
increments) in blocks. One worker thread draws the chunks, always one ahead
of the steps, so the main thread runs only the steps and the ledger. The
chunks start at 2 coarse rows and double up to the _chunk_rows cap
(_chunk_sizes), so the steps wait only for a tiny first draw; two chunks are
alive at once. The noise is drawn row by row and only the worker touches its
generators, so every output is bit-identical whatever the chunk sizes.
"""

from __future__ import annotations

import logging
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .noise import BridgedNoise, initial_state_rng
from .schedules import ConstantSchedule, checked_record_times
from .thermo import ThermoModel, _potential_curvature, _potential_slope, _potential_value

log = logging.getLogger(__name__)

THETA_MAX = 0.25
_CHUNK_COARSE = 1024
_CHUNK_BYTES = 8 << 20  # bound on one chunk's (dw, dwt) increments
# bound on one ledger block's (3 steps, N) leg arrays: below glibc's 128 KiB
# mmap threshold, so each block array comes from the heap, not a fresh mmap
_BLOCK_BYTES = 96 << 10


class BlowUpError(RuntimeError):
    """State left the finite range during integration."""


def default_sigma(n: int) -> int:
    """ceil(N^(3/4)): ergodic at micro scale, vanishing at macro scale."""
    return int(math.ceil(n**0.75 - 1e-9))


@dataclass
class ChainConfig:
    N: int
    tension_schedule: object = field(default_factory=ConstantSchedule)
    sigma: float | None = None
    theta: float = 0.1
    dt: float = field(init=False)  # coarse step theta / (N sigma)
    t_end: float = 1.0
    seed: int = 0
    record_times: np.ndarray | None = None
    refine_level: int = 0

    def __post_init__(self):
        if not isinstance(self.N, (int, np.integer)):
            raise ValueError(f"N must be an integer, got {self.N!r}")
        if self.N < 2:
            raise ValueError(f"need N >= 2 particles, got {self.N}")
        if self.sigma is None:
            self.sigma = float(default_sigma(self.N))
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if not (0.0 < self.theta <= THETA_MAX):
            raise ValueError(f"theta must lie in (0, {THETA_MAX}], got {self.theta}")
        if not (math.isfinite(self.t_end) and self.t_end > 0.0):
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        self.dt = self.theta / (self.N * self.sigma)
        # an extreme sigma under- or overflows dt, or the step count t_end / dt
        if not (0.0 < self.dt < math.inf and self.t_end / self.dt < math.inf):
            raise ValueError(
                f"sigma={self.sigma} gives the step dt = theta/(N sigma) = {self.dt}; "
                "dt and the step count t_end/dt must be positive and finite"
            )
        if not isinstance(self.refine_level, (int, np.integer)):
            raise ValueError(f"refine_level must be an integer, got {self.refine_level!r}")
        if self.refine_level < 0:
            raise ValueError("refine_level must be >= 0")
        # N / sigma / sigma, not N / sigma**2: sigma**2 over- or underflows
        if self.sigma / self.N >= 1.0 or self.N / self.sigma / self.sigma >= 1.0:
            warnings.warn(
                f"noise scaling far from the hydrodynamic regime: "
                f"sigma/N={self.sigma / self.N:.3g}, "
                f"N/sigma^2={self.N / self.sigma / self.sigma:.3g}",
                stacklevel=2,
            )
        self.n_coarse = max(1, int(round(self.t_end / self.dt)))
        self.t_end_eff = self.n_coarse * self.dt
        if self.record_times is None:
            self.record_times = np.linspace(0.0, self.t_end_eff, 200)
        t_max = max(self.t_end, self.t_end_eff)
        self.record_times = checked_record_times(self.record_times, t_max)

    @property
    def dt_fine(self) -> float:
        return self.dt / 2**self.refine_level

    @property
    def n_steps(self) -> int:
        return self.n_coarse * 2**self.refine_level


@dataclass
class ChainState:
    r: np.ndarray
    p: np.ndarray
    t: float


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
        g = np.zeros(w.shape[:-1] + (w.shape[-1] + 1,))
        g[..., :-1] = w
        g[..., 1:] -= w
        g *= coeff
        kicks.append(g)
    return kicks


def _block_steps(n: int) -> int:
    """Steps per ledger block: few enough that one block's (3 steps, n) leg
    arrays fit in _BLOCK_BYTES; at least one."""
    return max(1, _BLOCK_BYTES // (3 * n * 8))


def _finite(r, p) -> bool:
    return bool(np.isfinite(r).all() and np.isfinite(p).all())


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
    """Product Gibbs sample at (beta, pbar=0, tau0): N-uniform entropy bound."""
    rng = initial_state_rng(config.seed)
    sample = model.sample_canonical(0.0, tau0, config.N, rng)
    return ChainState(r=sample.r, p=sample.p, t=0.0)


def draw_increments(rng: np.random.Generator, n: int, dt: float):
    """(dw, dwt): one step of the 2(N-1) independent Brownian increments."""
    z = rng.standard_normal((2, n - 1)) * math.sqrt(dt)
    return z[0], z[1]


def _one_step(state: ChainState, config: ChainConfig, increments, model: ThermoModel, tau_bar):
    """_chain_block on a block of one step: (end state, ledger increments)."""
    if not math.isfinite(tau_bar):
        raise ValueError(f"non-finite boundary tension {tau_bar} for the step at t={state.t:.6g}")
    r, p, t = state.r, state.p, state.t
    if not _finite(r, p):
        raise BlowUpError(f"non-finite state at step 1, t={t + config.dt_fine:.6g}")
    dw, dwt = increments
    d1 = _potential_slope(model.potential, r)
    rl, pl, _, incr, _ = _chain_block(r, p, d1, [dw], [dwt], [tau_bar], 0, t, config, model)
    return ChainState(r=rl[2], p=pl[2], t=t + config.dt_fine), incr[0]


def step(
    state: ChainState,
    config: ChainConfig,
    increments,
    model: ThermoModel,
    tau_bar: float,
) -> ChainState:
    """One Euler-Maruyama step of size config.dt_fine under the boundary
    tension tau_bar; a non-finite tau_bar raises ValueError, and a state that
    is or turns non-finite BlowUpError."""
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
    per particle of state_after."""
    _, incr = _one_step(state_before, config, increments, model, tau_bar)
    w, q_p, q_r, m_p, m_r = incr.tolist()
    return Ledger(
        E=energy_per_particle(state_after, model),
        W=w,
        Q_p=q_p,
        Q_r=q_r,
        martingale_p=m_p,
        martingale_r=m_r,
    )


def _chunk_rows(n: int, level: int) -> int:
    """Coarse rows per noise chunk: at most _CHUNK_COARSE, and few enough that
    the chunk's 2**level fine rows of (dw, dwt) over n - 1 bonds fit in
    _CHUNK_BYTES; at least one."""
    row_bytes = 2**level * 2 * (n - 1) * 8
    return max(1, min(_CHUNK_COARSE, _CHUNK_BYTES // row_bytes))


def _chunk_sizes(n_coarse: int, n: int, level: int) -> list[int]:
    """Coarse rows of each noise chunk of a run of n_coarse coarse steps:
    2, 4, 8, ..., doubling up to _chunk_rows(n, level), then that cap, with
    what is left last. The first chunk is tiny, so the steps wait little for
    the worker's first draw, and the later ones are few."""
    cap = _chunk_rows(n, level)
    sizes, size = [], 2
    while n_coarse > 0:
        sizes.append(min(size, cap, n_coarse))
        n_coarse -= sizes[-1]
        size *= 2
    return sizes


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
    non-finite t0, or a non-finite tension before the chunk of steps that
    would read it. A start state that is not finite raises the BlowUpError
    of step 1, whatever the record times.

    The steps run in blocks (see _chain_block); the cumulative ledger is a
    cumsum seeded with the carried accumulator. One worker thread draws the
    noise chunks (sizes from _chunk_sizes), each while the steps run the
    chunk before it; it is joined before the run returns or raises, and an
    exception it raises reaches the caller unchanged.
    """
    n = config.N
    dt = config.dt_fine
    n_steps = config.n_steps

    # the steps write new arrays, so the caller's state is never written
    state = initial_state if initial_state is not None else make_initial_state(
        config, tau0, model
    )
    r, p, t0 = state.r, state.p, state.t
    for name, x in (("r", r), ("p", p)):
        if np.shape(x) != (n,):
            raise ValueError(f"start state {name} has shape {np.shape(x)}, need ({n},) for N={n}")
    if not math.isfinite(t0):
        raise ValueError(f"state t must be finite, got {t0}")
    if not _finite(r, p):
        raise BlowUpError(f"non-finite state at step 1, t={t0 + dt:.6g}")
    d1 = _potential_slope(model.potential, r)  # V' at r, carried

    rec_steps = np.minimum(np.round(config.record_times / dt).astype(int), n_steps)
    acc = np.zeros(5)
    rows = []  # (t, E, W, Q_p, Q_r, M_p, M_r) per record
    snapshots = []

    def record(k: int, r: np.ndarray, p: np.ndarray, v: np.ndarray, acc: np.ndarray):
        st = ChainState(r=r.copy(), p=p.copy(), t=t0 + k * dt)
        snapshots.append(st)
        rows.append((st.t, _energy(p, v), *acc.tolist()))

    noise = BridgedNoise(config.seed, n - 1, config.dt, config.refine_level)
    sizes = _chunk_sizes(config.n_coarse, n, config.refine_level)
    fine = 2**config.refine_level
    block = _block_steps(n)
    k = 0
    # one chunk in flight: the worker draws chunk i + 1 while the steps run
    # chunk i, and leaving the with-block joins it on a return or a raise
    with ThreadPoolExecutor(1, thread_name_prefix="hydrochain-noise") as worker:
        pending = worker.submit(noise.next_chunk, sizes[0])
        rec_idx = 0
        while rec_idx < len(rec_steps) and rec_steps[rec_idx] == 0:
            record(0, r, p, model.V(r), acc)
            rec_idx += 1
        for i, size in enumerate(sizes):
            times = t0 + (k + np.arange(size * fine)) * dt
            taubars = np.broadcast_to(
                np.asarray(config.tension_schedule(times), dtype=float), times.shape
            )
            if not np.isfinite(taubars).all():
                j = int(np.argmin(np.isfinite(taubars)))
                raise ValueError(f"non-finite boundary tension {taubars[j]} for step {k + j + 1}")
            dw, dwt = pending.result()
            if i + 1 < len(sizes):
                pending = worker.submit(noise.next_chunk, sizes[i + 1])
            for b0 in range(0, times.size, block):
                b1 = b0 + block
                rl, pl, v, incr, d1 = _chain_block(
                    r, p, d1, dw[b0:b1], dwt[b0:b1], taubars[b0:b1].tolist(), k, t0, config,
                    model,
                )
                cum = np.cumsum(np.vstack((acc, incr)), axis=0)  # acc after each step
                m = incr.shape[0]
                while rec_idx < len(rec_steps) and rec_steps[rec_idx] <= k + m:
                    j = rec_steps[rec_idx] - k
                    record(k + j, rl[3 * j - 1], pl[3 * j - 1], v[3 * j - 1], cum[j])
                    rec_idx += 1
                k += m
                acc = cum[-1]
                r, p = rl[-1], pl[-1]
            log.debug("chain N=%d t=%.4g (%d/%d steps)", n, t0 + k * dt, k, n_steps)

    series = LedgerSeries(*np.ascontiguousarray(np.reshape(rows, (-1, 7)).T))
    return TrajectoryResult(snapshots=snapshots, ledger=series, config=config, n_steps=k)


def write_snapshot_csv(path, snapshots) -> None:
    """Long-format (t, i, r, p) dump of the recorded states. csvio's float
    kernel formats t once per snapshot and r, p once per site; the index
    texts are built once per call."""
    from .csvio import write_long_csv

    write_long_csv(path, ["t", "i", "r", "p"], ((st.t, (st.r, st.p)) for st in snapshots))


def write_ledger_csv(path, series: LedgerSeries) -> None:
    """The ledger's columns, one line per record, formatted by csvio's float
    kernel."""
    from .csvio import write_columns

    names = ("t", "E", "W", "Q_p", "Q_r", "martingale_p", "martingale_r", "first_law_residual")
    header = ["t", "E", "W", "Q_p", "Q_r", "M_p", "M_r", "first_law_residual"]
    write_columns(path, header, [getattr(series, name) for name in names])
