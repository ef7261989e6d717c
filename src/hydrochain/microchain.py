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

The step exists once, as the numpy function _chain_step: it computes the
three legs over all sites in place and returns the new state with the step's
ledger increments and (V, V', V'') there. run_trajectory loops over it, with
the noise couplings of a whole BridgedNoise chunk (at most _CHUNK_BYTES of
increments) built in one operation and (V, V', V'') carried to the next step
and to the record's energy; step and accumulate_ledger are thin wrappers
around it.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .noise import BridgedNoise, initial_state_rng
from .schedules import ConstantSchedule, checked_record_times
from .thermo import ThermoModel, eval_potential

log = logging.getLogger(__name__)

THETA_MAX = 0.25
_CHUNK_COARSE = 1024
_CHUNK_BYTES = 8 << 20  # bound on one chunk's (dw, dwt) increments


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
    _chain_step subtracts from p and from r: for one step's increments
    (dw, dwt), or row by row for a whole chunk of them."""
    coeff = math.sqrt(2.0 * config.N * config.sigma / model.beta)
    kicks = []
    for w in map(np.asarray, (dw, dwt)):
        g = np.zeros(w.shape[:-1] + (w.shape[-1] + 1,))
        g[..., :-1] = w
        g[..., 1:] -= w
        g *= coeff
        kicks.append(g)
    return kicks


def _chain_step(
    r, p, couplings, tau_bar: float, config: ChainConfig, model: ThermoModel, pot=None
):
    """One Euler-Maruyama step of size config.dt_fine from (r, p).

    The displacement is taken in three legs: Hamiltonian drift, noise drift
    and noise coupling; couplings is the pair (kick_p, kick_r) of _couplings,
    which telescope exactly. Returns (r_new, p_new, incr, pot_new), where
    incr holds the step's ledger increments [W, Q_p, Q_r, M_p, M_r]:
    W = tau_bar * Delta(mean strain), and the Q/M columns are the exact
    energy changes along the two noise legs, with the quadratic-variation
    counterterms shifted into Q_p/Q_r. incr is NaN, and pot_new None, when
    the new state is not finite; the caller raises.

    pot is (V, V', V'') at r, or None to evaluate it here; pot_new is the same
    triple at the new state, taken from the V call on the stacked legs, so
    passing it on changes no bit of the next step.
    """
    n, sigma, beta = config.N, config.sigma, model.beta
    dt = config.dt_fine
    ndt = n * dt
    nsdt = n * sigma * dt
    if pot is None:
        if not np.isfinite(r).all():  # eval_potential rejects non-finite strains
            return r, p, np.full(5, np.nan), None
        pot = eval_potential(model.potential, r)
    _, a, d2 = pot
    dp_left, da_right, lap_a, lap_p = _gradients(a, p, tau_bar)
    kick_p, kick_r = couplings
    # rows: the state after each leg, so one call evaluates V on all three
    rl = np.empty((3, n))
    pl = np.empty((3, n))
    (r1, r2, r3), (p1, p2, p3) = rl, pl
    np.add(r, np.multiply(ndt, dp_left, out=r1), out=r1)
    np.add(r1, np.multiply(nsdt, lap_a, out=r2), out=r2)
    np.subtract(r2, kick_r, out=r3)
    np.add(p, np.multiply(ndt, da_right, out=p1), out=p1)
    np.add(p1, np.multiply(nsdt, lap_p, out=p2), out=p2)
    np.subtract(p2, kick_p, out=p3)
    dr_tot = float((rl[2] - r).sum())
    if not math.isfinite(dr_tot):  # some leg is not finite
        return rl[2], pl[2], np.full(5, np.nan), None
    v, d1l, d2l = eval_potential(model.potential, rl)
    v1, v2, v3 = v.sum(axis=1)
    k1, k2, k3 = np.einsum("ij,ij->i", pl, pl)
    ct_p = 2.0 * sigma * (n - 1) * dt / (beta * n)
    ct_r = sigma * dt * (2.0 * d2.sum() - d2[0] - d2[-1]) / (beta * n)
    incr = np.array(
        [
            tau_bar * dr_tot / n,
            (k2 - k1) / (2.0 * n) + ct_p,
            (v2 - v1) / n + ct_r,
            (k3 - k2) / (2.0 * n) - ct_p,
            (v3 - v2) / n - ct_r,
        ]
    )
    return rl[2], pl[2], incr, (v[2], d1l[2], d2l[2])


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


def step(
    state: ChainState,
    config: ChainConfig,
    increments,
    model: ThermoModel,
    tau_bar: float,
) -> ChainState:
    """One Euler-Maruyama step of size config.dt_fine under the boundary
    tension tau_bar; a non-finite tau_bar raises ValueError."""
    if not math.isfinite(tau_bar):
        raise ValueError(f"non-finite boundary tension {tau_bar} for the step at t={state.t:.6g}")
    couplings = _couplings(*increments, config, model)
    r, p, incr, _ = _chain_step(state.r, state.p, couplings, tau_bar, config, model)
    t2 = state.t + config.dt_fine
    if not np.isfinite(incr).all():
        raise BlowUpError(f"non-finite state after step at t={t2:.6g}")
    return ChainState(r=r, p=p, t=t2)


def accumulate_ledger(
    state_before: ChainState,
    state_after: ChainState,
    tau_bar: float,
    config: ChainConfig,
    increments,
    model: ThermoModel,
) -> Ledger:
    """Ledger increments for one step (see _chain_step), with E the energy
    per particle of state_after."""
    r, p = state_before.r, state_before.p
    couplings = _couplings(*increments, config, model)
    _, _, incr, _ = _chain_step(r, p, couplings, tau_bar, config, model)
    w, q_p, q_r, m_p, m_r = (float(x) for x in incr)
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
    would read it."""
    n = config.N
    dt = config.dt_fine
    n_steps = config.n_steps

    # _chain_step returns new arrays, so the caller's state is never written
    state = initial_state if initial_state is not None else make_initial_state(
        config, tau0, model
    )
    r, p, t0 = state.r, state.p, state.t
    for name, x in (("r", r), ("p", p)):
        if np.shape(x) != (n,):
            raise ValueError(f"start state {name} has shape {np.shape(x)}, need ({n},) for N={n}")
    if not math.isfinite(t0):
        raise ValueError(f"state t must be finite, got {t0}")
    pot = None  # (V, V', V'') at r, carried from one step to the next

    rec_steps = np.minimum(np.round(config.record_times / dt).astype(int), n_steps)
    acc = np.zeros(5)
    rows = []  # (t, E, W, Q_p, Q_r, M_p, M_r) per record
    snapshots = []

    def record(k: int, v: np.ndarray):
        st = ChainState(r=r.copy(), p=p.copy(), t=t0 + k * dt)
        snapshots.append(st)
        rows.append((st.t, _energy(p, v), *acc.tolist()))

    rec_idx = 0
    while rec_idx < len(rec_steps) and rec_steps[rec_idx] == 0:
        record(0, model.V(r))
        rec_idx += 1

    noise = BridgedNoise(config.seed, n - 1, config.dt, config.refine_level)
    chunk = _chunk_rows(n, config.refine_level)
    k = 0
    for c0 in range(0, config.n_coarse, chunk):
        dw_chunk, dwt_chunk = noise.next_chunk(min(chunk, config.n_coarse - c0))
        times = t0 + (k + np.arange(dw_chunk.shape[0])) * dt
        taubars = np.broadcast_to(
            np.asarray(config.tension_schedule(times), dtype=float), times.shape
        )
        if not np.isfinite(taubars).all():
            i = int(np.argmin(np.isfinite(taubars)))
            raise ValueError(f"non-finite boundary tension {taubars[i]} for step {k + i + 1}")
        kicks_p, kicks_r = _couplings(dw_chunk, dwt_chunk, config, model)
        for kick_p, kick_r, taub in zip(kicks_p, kicks_r, taubars.tolist()):
            r, p, incr, pot = _chain_step(
                r, p, (kick_p, kick_r), taub, config, model, pot
            )
            k += 1
            if not np.isfinite(incr).all():
                raise BlowUpError(f"non-finite state at step {k}, t={t0 + k * dt:.6g}")
            acc += incr
            while rec_idx < len(rec_steps) and rec_steps[rec_idx] == k:
                record(k, pot[0])
                rec_idx += 1
        log.debug("chain N=%d t=%.4g (%d/%d steps)", n, t0 + k * dt, k, n_steps)

    series = LedgerSeries(*np.ascontiguousarray(np.reshape(rows, (-1, 7)).T))
    return TrajectoryResult(snapshots=snapshots, ledger=series, config=config, n_steps=k)


def write_snapshot_csv(path, snapshots) -> None:
    """Long-format (t, i, r, p) dump of the recorded states."""
    from .csvio import write_text

    templates = {}  # per N: the rows with the site index baked in, "T" for t

    def blocks():
        for st in snapshots:
            n = st.r.size
            if n not in templates:
                templates[n] = "".join("T,%d,%%.17g,%%.17g\n" % i for i in range(1, n + 1))
            values = np.column_stack((st.r, st.p)).ravel().tolist()
            yield templates[n].replace("T", "%.17g" % st.t) % tuple(values)

    write_text(path, ["t", "i", "r", "p"], blocks())


def write_ledger_csv(path, series: LedgerSeries) -> None:
    from .csvio import write_csv

    names = ("t", "E", "W", "Q_p", "Q_r", "martingale_p", "martingale_r", "first_law_residual")
    columns = [getattr(series, name).tolist() for name in names]
    header = ["t", "E", "W", "Q_p", "Q_r", "M_p", "M_r", "first_law_residual"]
    write_csv(path, header, zip(*columns))
