"""Viscous p-system solver with the chain's boundary conditions.

    dr/dt - dp/dx       = delta1 * d2/dx2 tau(r)
    dp/dt - d tau(r)/dx = delta2 * d2/dx2 p
    p(t,0) = 0,  tau(r(t,1)) = taubar(t),  dp/dx(t,1) = 0,  dr/dx(t,0) = 0.

Collocated uniform grid with two ghost cells on each side for the boundary
conditions, fourth-order central first derivatives for the advective terms,
three-point Laplacians for the viscous ones, and SSP-RK3 (Shu-Osher) time
stepping at the fixed Courant number _CFL = 0.4 of both the advective and the
diffusive bound; smooth inviscid solutions converge at fourth order in space.
Both equations read r only through tau(r), so each stage evaluates tau on the
M cells and pads tau and p: the applied tension is imposed on tau itself, by
ghosts odd about taubar at x=1, and the table is read only at strains the
state holds. The inverse temperature beta is the ThermoModel's. The solver
accumulates the free energy, boundary work and dissipation every step so the
energy balance

    F(t) - F(0) = W(t) - D(t)

can be checked against the discretization error, and the Clausius gap
W - (F(rho1) - F(rho0)) evaluated after relaxation. The work and dissipation
rates are the exact energy flux of the semi-discrete right-hand side, so the
balance misses only the time integration and the spline's own F-tau
consistency. The ghost padding, the stencil and the balance rates exist once,
in _pad, _stencil and _balance, on one padded (2, M+4) array of tau and p, and
advance runs them on its (2, M) state (r, p), reading tau and F in one spline
call a step end and the tension schedule once, at every stage time of the run.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .microchain import BlowUpError
from .schedules import ConstantSchedule, checked_record_times
from .thermo import ThermoModel

log = logging.getLogger(__name__)

# advective bound with max wave speed sqrt(c2) = 1: the fourth-order stencil's
# eigenvalues reach 1.372 i/dx, and SSP-RK3 is stable on the imaginary axis up
# to sqrt(3), so any Courant number < 1 is inside; the diffusive bound uses the
# larger of delta1 c2 and delta2
_CFL = 0.4
# ||p||_2 above which clausius_gap warns that the final state has not relaxed
_STATIONARITY_TOL = 1e-3


@dataclass
class MacroConfig:
    M: int = 400
    delta1: float = 1e-3
    delta2: float = 1e-3
    tension_schedule: object = field(default_factory=ConstantSchedule)
    t_end: float = 1.0
    record_times: np.ndarray | None = None

    def __post_init__(self):
        if not isinstance(self.M, (int, np.integer)):
            raise ValueError(f"M must be an integer, got {self.M!r}")
        if self.M < 8:
            raise ValueError(f"need at least 8 cells, got M={self.M}")
        for name in ("delta1", "delta2", "t_end"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.delta1 < 0.0 or self.delta2 < 0.0:
            raise ValueError("viscosities must be nonnegative")
        if self.t_end <= 0.0:
            raise ValueError("t_end must be positive")
        self.dx = 1.0 / self.M
        adv = self.dx
        dif_coeff = max(self.delta1 * 1.0, self.delta2)
        dif = self.dx**2 / (2.0 * dif_coeff) if dif_coeff > 0.0 else math.inf
        dt_stable = _CFL * min(adv, dif)
        self.n_steps = max(1, int(math.ceil(self.t_end / dt_stable - 1e-12)))
        self.dt = self.t_end / self.n_steps
        if self.record_times is None:
            self.record_times = np.linspace(0.0, self.t_end, 200)
        self.record_times = checked_record_times(self.record_times, self.t_end)

    @property
    def x(self) -> np.ndarray:
        return (np.arange(self.M) + 0.5) * self.dx


@dataclass
class MacroState:
    r: np.ndarray
    p: np.ndarray
    t: float


@dataclass
class MacroTrajectory:
    config: MacroConfig
    times: np.ndarray  # recorded snapshot times
    r: np.ndarray  # (n_rec, M)
    p: np.ndarray
    t_hist: np.ndarray  # per-step times including 0
    F_hist: np.ndarray
    W_hist: np.ndarray
    D_hist: np.ndarray


def uniform_state(config: MacroConfig, rho: float) -> MacroState:
    return MacroState(r=np.full(config.M, float(rho)), p=np.zeros(config.M), t=0.0)


def _pad(tau, p, tau_bar):
    """(2, M+4) array of the rows tau and p with two ghost cells on each side.

    At x=0 tau is reflected evenly (dr/dx = 0) and p oddly (p = 0); at x=1 tau
    is reflected oddly about tau_bar, so the face tension (tau_ghost +
    tau[M-1])/2 is tau_bar, and p evenly (dp/dx = 0). The tension is imposed
    on tau itself: the table is read only at the M interior strains."""
    pad = np.empty((2, p.size + 4))
    pad[0, 2:-2], pad[1, 2:-2] = tau, p
    pad[0, :2], pad[0, -2:] = tau[1::-1], 2.0 * tau_bar - tau[:-3:-1]
    pad[1, :2], pad[1, -2:] = np.negative(p[1::-1]), p[:-3:-1]
    return pad


def _scratch(config: MacroConfig):
    """What _stencil and _balance reuse, built once per run: the viscosity
    column, the face weights and buffers for the stencils and face gradients."""
    w_face = np.full(config.M + 1, config.dx)
    w_face[0] = w_face[-1] = config.dx / 2.0
    visc = np.array([[config.delta1], [config.delta2]])
    d1, lap, grad = (np.empty((2, config.M + n)) for n in (0, 0, 1))
    return SimpleNamespace(visc=visc, w_face=w_face, d1=d1, lap=lap, grad=grad)


def _stencil(pad, config: MacroConfig, s):
    """(2, M) array (dr/dt, dp/dt) from the padded (tau, p): the rows' fourth-
    order first differences, swapped, plus the viscosities times their
    Laplacians. It is one of s's buffers, so the next call with s overwrites it."""
    d1 = np.subtract(pad[:, 3:-1], pad[:, 1:-3], out=s.d1)
    d1 *= 8.0
    d1 -= np.subtract(pad[:, 4:], pad[:, :-4], out=s.lap)
    d1 /= 12.0 * config.dx
    lap = np.subtract(pad[:, 3:-1], np.multiply(pad[:, 2:-2], 2.0, out=s.lap), out=s.lap)
    lap += pad[:, 1:-3]
    lap /= config.dx**2
    lap *= s.visc
    return np.add(d1[::-1], lap, out=lap)


def viscous_rhs(state: MacroState, tau_bar: float, config: MacroConfig, model: ThermoModel):
    """(dr/dt, dp/dt): tau(r) on the M cells, padded by _pad with the
    boundary tension tau_bar, then fourth-order central first derivatives for
    the advective terms and three-point Laplacians for the viscous ones. This
    is what one stage of advance computes."""
    return _stencil(_pad(model.tau_of_rho(state.r), state.p, tau_bar), config, _scratch(config))


def _free_energy(p, f) -> float:
    """int_0^1 (p^2/2 + F(beta, r)) dx by midpoint quadrature, f = F(beta, r)."""
    return float(np.mean(p**2 / 2.0 + f))


def _balance(pad, tau_bar: float, config: MacroConfig, s):
    """(work rate, dissipation rate) of the padded state."""
    dx = config.dx
    # tau and p gradients at the M+1 faces, from the ghosts but for tau at x=1,
    # where the Dirichlet tension gives a half-cell one-sided difference
    g = np.subtract(pad[:, 2:-1], pad[:, 1:-2], out=s.grad)
    g /= dx
    g[0, -1] = (tau_bar - pad[0, -3]) / (0.5 * dx)
    work = tau_bar * ((7.0 * pad[1, -3] - pad[1, -4]) / 6.0 + config.delta1 * g[0, -1])
    np.square(g, out=g)
    g *= s.visc
    return work, float(np.sum(s.w_face * (g[0] + g[1])))


def balance_integrands(state: MacroState, tau_bar: float, config: MacroConfig, model):
    """(work rate, dissipation rate) at one instant, face-based: what advance
    computes at each step end.

    The rates are the exact energy flux of viscous_rhs: for any state,
    sum dx (p dp/dt + tau(r) dr/dt) = work - dissipation to rounding. Summing
    the fourth-order advective stencil by parts against _pad's ghosts (tau
    odd about tau_bar, p even) leaves tau_bar (7 p[M-1] - p[M-2]) / 6 at x=1
    and nothing at x=0; the viscous Laplacians leave delta1 tau_bar g_tau at
    the last face and minus the face-weighted sum of delta1 g_tau^2 +
    delta2 g_p^2."""
    pad = _pad(model.tau_of_rho(state.r), state.p, tau_bar)
    return _balance(pad, tau_bar, config, _scratch(config))


def advance(state: MacroState, config: MacroConfig, model: ThermoModel) -> MacroTrajectory:
    """SSP-RK3 (Shu-Osher) integration from state.t to config.t_end, recording
    snapshots at config.record_times and the balance ledger every step; W and
    D integrate the step-end rates by the trapezoidal rule.

    record_times are absolute times. The run takes the fewest equal steps of
    at most config.dt that end on config.t_end; record times snap to the
    nearest step, and one before state.t raises ValueError, as does a state
    whose r or p is not of shape (M,) or whose t is not finite.

    The three stages of a step from t to t + dt read the tension at t,
    t + dt and t + dt/2. config.tension_schedule is called once, on the array
    of every stage time of the run, so it must accept an array of times (as
    run_trajectory requires); a non-finite tension raises ValueError before
    the first step. The boundary tension enters only _pad's ghosts and the
    balance rates: it is never looked up in the thermo table, so a strain that
    leaves the table raises ValueError at the stage that reads it. tau(r) is
    evaluated once per stage on the M cells, with F(r) at step ends, where one
    pad serves both the balance rates and the next step's first stage."""
    m = config.M
    for name, x in (("r", state.r), ("p", state.p)):
        if np.shape(x) != (m,):
            raise ValueError(f"state {name} has shape {np.shape(x)}, need ({m},) for M={m}")
    if not math.isfinite(state.t):
        raise ValueError(f"state t must be finite, got {state.t}")
    span = config.t_end - state.t
    if span < 0.0:
        raise ValueError(f"t_end={config.t_end} lies before the state's t={state.t}")
    n_steps = int(math.ceil(span / config.dt - 1e-9))
    dt = span / n_steps if n_steps else config.dt
    rec_steps = np.round((config.record_times - state.t) / dt).astype(int)
    if np.any(rec_steps < 0):
        raise ValueError(f"record_times start before the state's t={state.t}")
    rec_steps = np.minimum(rec_steps, n_steps)
    step_times = state.t + dt * np.arange(n_steps + 1)

    # tensions at the step times t_k, then at t_k + dt/2
    stage_times = np.concatenate((step_times, step_times[:-1] + 0.5 * dt))
    tensions = np.broadcast_to(
        np.asarray(config.tension_schedule(stage_times), dtype=float), stage_times.shape
    )
    bad = ~np.isfinite(tensions)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"tension schedule gives non-finite tau = {tensions[i]} at t = {stage_times[i]:.6g}"
        )
    tau_bar, tau_mid = tensions[: n_steps + 1].tolist(), tensions[n_steps + 1 :].tolist()
    rec_count = np.bincount(rec_steps, minlength=n_steps + 1).tolist()

    s = _scratch(config)
    f_hist, w_hist, d_hist = np.empty(n_steps + 1), np.zeros(n_steps + 1), np.zeros(n_steps + 1)
    snapshots_t, snaps_r, snaps_p = [], [], []

    def step_end(k, u):  # records u (never written in place); its pad serves the next stage
        tau, f = model.tau_and_free_energy_of_rho(u[0])
        f_hist[k] = _free_energy(u[1], f)
        for _ in range(rec_count[k]):
            snapshots_t.append(float(step_times[k]))
            snaps_r.append(u[0])
            snaps_p.append(u[1])
            log.debug("macro M=%d t=%.4g (%d/%d steps)", config.M, step_times[k], k, n_steps)
        pad = _pad(tau, u[1], tau_bar[k])
        return pad, _balance(pad, tau_bar[k], config, s)

    u = np.stack((state.r, state.p))
    pad, (w_rate, d_rate) = step_end(0, u)
    for k in range(1, n_steps + 1):
        u1 = u + dt * _stencil(pad, config, s)
        rhs = _stencil(_pad(model.tau_of_rho(u1[0]), u1[1], tau_bar[k]), config, s)
        u2 = 0.75 * u + 0.25 * (u1 + dt * rhs)
        rhs = _stencil(_pad(model.tau_of_rho(u2[0]), u2[1], tau_mid[k - 1]), config, s)
        u = u / 3.0 + (2.0 / 3.0) * (u2 + dt * rhs)
        if not math.isfinite(float(np.sum(u))):
            raise BlowUpError(f"macro solver blew up at step {k}, t={step_times[k]:.6g}")
        pad, (w_next, d_next) = step_end(k, u)
        w_hist[k] = w_hist[k - 1] + 0.5 * dt * (w_rate + w_next)
        d_hist[k] = d_hist[k - 1] + 0.5 * dt * (d_rate + d_next)
        w_rate, d_rate = w_next, d_next

    return MacroTrajectory(
        config=config,
        times=np.asarray(snapshots_t),
        r=np.asarray(snaps_r),
        p=np.asarray(snaps_p),
        t_hist=step_times,
        F_hist=f_hist,
        W_hist=w_hist,
        D_hist=d_hist,
    )


def work_and_dissipation(traj: MacroTrajectory):
    """(W(t), D(t), |F(t)-F(0)-W(t)+D(t)|) sampled at every step."""
    residual = np.abs(traj.F_hist - traj.F_hist[0] - traj.W_hist + traj.D_hist)
    return traj.W_hist, traj.D_hist, residual


def clausius_gap(traj: MacroTrajectory, model: ThermoModel, tau0: float, tau1: float) -> float:
    """W - (F(beta, rho(tau1)) - F(beta, rho(tau0))) at the end of the run.

    Nonnegative up to discretization error; equals the accumulated
    dissipation once the final state has relaxed. The stationarity check reads
    the last snapshot, so a run not recorded at its end raises ValueError."""
    if traj.times[-1] != traj.t_hist[-1]:
        raise ValueError(f"no snapshot at t_end={traj.t_hist[-1]:.6g} to check stationarity")
    p_norm = math.sqrt(float(np.mean(traj.p[-1] ** 2)))
    if p_norm > _STATIONARITY_TOL:
        warnings.warn(
            f"final state not stationary: ||p||_2 = {p_norm:.3g}", stacklevel=2
        )
    df = model.free_energy(model.mean_strain(tau1)) - model.free_energy(
        model.mean_strain(tau0)
    )
    return float(traj.W_hist[-1] - df)


def entropy_pair_residual(traj: MacroTrajectory, model: ThermoModel, phi) -> float:
    """int int (eta dphi/dt + q dphi/dx) dx dt over the recorded trajectory,
    for the mechanical entropy pair eta = p^2/2 + F(r), q = -p tau(r).

    For vanishing-viscosity trajectories this is >= -O(delta) and strictly
    positive at entropy-producing shocks."""
    if phi.t0 < traj.times[0] - 1e-12 or phi.t1 > traj.times[-1] + 1e-12:
        raise ValueError("test function time support exceeds the trajectory")
    t, x = traj.times[:, None], traj.config.x[None, :]
    eta = traj.p**2 / 2.0 + np.asarray(model.free_energy_of_rho(traj.r))
    qv = -traj.p * np.asarray(model.tau_of_rho(traj.r))
    vals = np.mean(eta * phi.dt(t, x) + qv * phi.dx(t, x), axis=1)
    return float(np.trapezoid(vals, traj.times))


def write_balance_csv(path, traj: MacroTrajectory) -> None:
    """(t, F, W, D, residual) at every step, formatted by csvio's float kernel."""
    from .csvio import write_columns

    _, _, residual = work_and_dissipation(traj)
    columns = (traj.t_hist, traj.F_hist, traj.W_hist, traj.D_hist, residual)
    write_columns(path, ["t", "F", "W", "D", "residual"], columns)
