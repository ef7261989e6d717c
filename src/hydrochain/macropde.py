"""Viscous p-system solver with the chain's boundary conditions.

    dr/dt - dp/dx       = delta1 * d2/dx2 tau(r)
    dp/dt - d tau(r)/dx = delta2 * d2/dx2 p
    p(t,0) = 0,  tau(r(t,1)) = taubar(t),  dp/dx(t,1) = 0,  dr/dx(t,0) = 0.

Collocated uniform grid with two ghost cells on each side for the boundary
conditions, fourth-order central first derivatives for the advective terms,
three-point Laplacians for the viscous ones, and SSP-RK3 (Shu-Osher) steps, the
largest <= _CFL = 0.4 of both the advective and the diffusive bound that end on
t_end; smooth inviscid solutions converge at fourth order in space.
Both equations read r only through tau(r), so each stage evaluates tau on the
M cells and pads tau and p: the applied tension is imposed on tau itself, by
ghosts odd about taubar at x=1, and the table is read only at strains the
state holds. The inverse temperature beta is the ThermoModel's. The solver
accumulates the free energy, boundary work and dissipation every step so the
energy balance

    F(t) - F(0) = W(t) - D(t)

can be checked against the discretization error, and the Clausius gap
W - (F(rho1) - F(rho0)) evaluated after relaxation, from the same table F.
The work and dissipation rates are the exact energy flux of the semi-discrete
right-hand side, so the balance misses only the time integration and the
table's own F-tau consistency (its F pieces take the slope tau at every
node). The ghost padding, the stencil and the balance rates exist once, in
_pad, _stencil and _balance, as 1-D operations on one flat buffer per run,
[tau-pad (M+4) | p-pad (M+4)], whose outputs at the seam are never read; the
rhs and advance's state are [r (M) | 4 zeros | p (M)], written in place by
each SSP-RK3 combination. advance reads tau and F in one table lookup a step end
and the tension schedule once, at every stage time of the run.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .schedules import BlowUpError, ChainState as MacroState, ConstantSchedule, checked_integer
from .schedules import checked_real, checked_record_times, checked_start, record_steps, run_steps
from .schedules import tensions_at
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
        checked_integer("M", self.M, 8)
        for name in ("delta1", "delta2"):
            value = getattr(self, name)
            checked_real(name, value, lambda d: 0.0 <= d < math.inf, "nonnegative and finite")
        self.dx = 1.0 / self.M
        dif_coeff = max(self.delta1, self.delta2)
        dif = self.dx**2 / (2.0 * dif_coeff) if dif_coeff > 0.0 else math.inf
        self.n_steps, self.dt = run_steps(self.t_end, _CFL * min(self.dx, dif))
        self.record_times = checked_record_times(self.record_times, self.t_end)

    @property
    def x(self) -> np.ndarray:
        return (np.arange(self.M) + 0.5) * self.dx


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
    checked_real("rho", rho, math.isfinite, "finite")
    return MacroState(r=np.full(config.M, float(rho)), p=np.zeros(config.M), t=0.0)


def _pad(pad, tau, p, tau_bar):
    """pad, filled as [tau-pad (M+4) | p-pad (M+4)]: tau and p, each with two
    ghost cells on each side.

    At x=0 tau is reflected evenly (dr/dx = 0) and p oddly (p = 0); at x=1 tau
    is reflected oddly about tau_bar, so the face tension (tau_ghost +
    tau[M-1])/2 is tau_bar, and p evenly (dp/dx = 0). The tension is imposed
    on tau itself: the table is read only at the M interior strains."""
    m = tau.size
    pad[2 : m + 2], pad[m + 6 : -2] = tau, p
    pad[:2], pad[-2:] = tau[1::-1], p[:-3:-1]
    np.subtract(2.0 * tau_bar, tau[:-3:-1], out=pad[m + 2 : m + 4])
    np.negative(p[1::-1], out=pad[m + 4 : m + 6])
    return pad


def _zeros(n: int) -> np.ndarray:
    """n zeros starting on a 64-byte boundary, so a run's speed does not
    depend on where the heap places its buffers."""
    raw = np.zeros(n + 8)
    start = (-raw.ctypes.data % 64) // 8
    return raw[start : start + n]


def _scratch(state: MacroState, config: MacroConfig):
    """The flat buffers _pad, _stencil and _balance reuse, built once per run
    of a state checked by checked_start, and the face weights; the rhs is
    [dr/dt (M) | 4 zeros | dp/dt (M)], and its gap slots stay 0."""
    m = config.M
    checked_start(state, m, "M")
    w_face = np.full(m + 1, config.dx)
    w_face[0] = w_face[-1] = config.dx / 2.0
    pad, d1, lap, grad, rhs = (_zeros(2 * m + n) for n in (8, 4, 4, 5, 4))
    return SimpleNamespace(pad=pad, d1=d1, lap=lap, grad=grad, rhs=rhs, w_face=w_face)


def _stencil(pad, config: MacroConfig, s):
    """s.rhs, (dr/dt, dp/dt) from the padded (tau, p): each half's fourth-
    order first differences, swapped, plus its viscosity times its Laplacian,
    both over the whole pad; the 4 outputs centred on the seam between the
    halves are never read. The next call with s overwrites s.rhs."""
    m = config.M
    d1 = np.subtract(pad[3:-1], pad[1:-3], out=s.d1)
    d1 *= 8.0
    d1 -= np.subtract(pad[4:], pad[:-4], out=s.lap)
    d1 /= 12.0 * config.dx
    lap = np.subtract(pad[3:-1], np.multiply(pad[2:-2], 2.0, out=s.lap), out=s.lap)
    lap += pad[1:-3]
    lap /= config.dx**2
    lap[:m] *= config.delta1
    lap[m + 4 :] *= config.delta2
    np.add(d1[m + 4 :], lap[:m], out=s.rhs[:m])
    np.add(d1[:m], lap[m + 4 :], out=s.rhs[m + 4 :])
    return s.rhs


def viscous_rhs(state: MacroState, tau_bar: float, config: MacroConfig, model: ThermoModel):
    """(dr/dt, dp/dt): tau(r) on the M cells, padded by _pad with the
    boundary tension tau_bar, then fourth-order central first derivatives for
    the advective terms and three-point Laplacians for the viscous ones. This
    is what one stage of advance computes; each call returns new arrays."""
    s = _scratch(state, config)
    rhs = _stencil(_pad(s.pad, model.tau_of_rho(state.r), state.p, tau_bar), config, s)
    return rhs[: config.M], rhs[config.M + 4 :]


def _balance(pad, tau_bar: float, config: MacroConfig, s):
    """(work rate, dissipation rate) of the padded state."""
    dx, m = config.dx, config.M
    # tau and p gradients at the M+1 faces of each half, [tau | 3 seam slots | p],
    # from the ghosts but for tau at x=1, where the Dirichlet tension gives a
    # half-cell one-sided difference
    g = np.subtract(pad[2:-1], pad[1:-2], out=s.grad)
    g /= dx
    g[m] = (tau_bar - pad[m + 1]) / (0.5 * dx)
    work = tau_bar * ((7.0 * pad[-3] - pad[-4]) / 6.0 + config.delta1 * g[m])
    np.square(g, out=g)
    g[: m + 1] *= config.delta1
    g[m + 4 :] *= config.delta2
    g_sum = np.add(g[: m + 1], g[m + 4 :], out=g[: m + 1])
    g_sum *= s.w_face
    return work, float(g_sum.sum())


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
    s = _scratch(state, config)
    return _balance(_pad(s.pad, model.tau_of_rho(state.r), state.p, tau_bar), tau_bar, config, s)


def advance(state: MacroState, config: MacroConfig, model: ThermoModel) -> MacroTrajectory:
    """SSP-RK3 (Shu-Osher) integration over config.n_steps steps of config.dt,
    recording snapshots at config.record_times and the balance ledger every
    step; W and D integrate the step-end rates by the trapezoidal rule.

    Times count from state.t, as in run_trajectory: step k ends at
    state.t + k dt, the last on state.t + t_end, and a record time snaps to
    the nearest step. r or p not of shape (M,), or a non-finite t, raises
    ValueError (checked_start).

    The three stages of a step from t to t + dt read the tension at t,
    t + dt and t + dt/2. config.tension_schedule is called once, on the array
    of every stage time of the run, so it must accept an array of times (as
    run_trajectory requires); a non-finite tension raises ValueError before
    the first step. The boundary tension enters only _pad's ghosts and the
    balance rates: it is never looked up in the thermo table, so a strain that
    leaves the table raises ValueError at the stage that reads it. tau(r) is
    evaluated once per stage on the M cells, with F(r) at step ends, where one
    pad serves both the balance rates and the next step's first stage. The
    stages rewrite the flat state in place, so each record is a copy of it."""
    m, s = config.M, _scratch(state, config)
    n_steps, dt = config.n_steps, config.dt
    rec_steps = record_steps(config.record_times, dt, n_steps)
    step_times = state.t + dt * np.arange(n_steps + 1)

    # tensions at the step times t_k, then at t_k + dt/2
    stage_times = np.concatenate((step_times, step_times[:-1] + 0.5 * dt))
    tensions = tensions_at(config.tension_schedule, stage_times)
    tau_bar, tau_mid = tensions[: n_steps + 1].tolist(), tensions[n_steps + 1 :].tolist()
    rec_count = np.bincount(rec_steps, minlength=n_steps + 1).tolist()

    f_hist, rates, snaps = np.empty(n_steps + 1), np.empty((2, n_steps + 1)), []

    def step_end(k, u):  # its pad serves the next step's first stage
        tau, f = model.tau_and_free_energy_of_rho(u[:m])
        f_hist[k] = (u[m + 4 :] ** 2 / 2.0 + f).mean()  # int_0^1 (p^2/2 + F(r)) dx
        if rec_count[k]:  # a copy: the next step rewrites u in place
            snaps.extend([u.copy()] * rec_count[k])
            log.debug("macro M=%d t=%.4g (%d/%d steps)", m, step_times[k], k, n_steps)
        rates[:, k] = _balance(_pad(s.pad, tau, u[m + 4 :], tau_bar[k]), tau_bar[k], config, s)

    def stage(v, tension):  # the Euler step v + dt * rhs(v), in s.rhs
        rhs = _stencil(_pad(s.pad, model.tau_of_rho(v[:m]), v[m + 4 :], tension), config, s)
        return np.add(v, np.multiply(rhs, dt, out=rhs), out=rhs)

    u, v = _zeros(2 * m + 4), _zeros(2 * m + 4)
    u[:m], u[m + 4 :] = state.r, state.p
    step_end(0, u)
    for k in range(1, n_steps + 1):
        rhs = _stencil(s.pad, config, s)  # from the pad step_end left
        np.add(u, np.multiply(rhs, dt, out=rhs), out=v)  # u1 = u + dt rhs
        euler = stage(v, tau_bar[k])
        euler *= 0.25
        np.add(np.multiply(u, 0.75, out=v), euler, out=v)  # u2 = 0.75 u + 0.25 (u1 + dt rhs)
        euler = stage(v, tau_mid[k - 1])
        euler *= 2.0 / 3.0
        np.add(np.divide(u, 3.0, out=u), euler, out=u)  # u = u / 3 + 2/3 (u2 + dt rhs)
        if not math.isfinite(u.sum()):
            raise BlowUpError(f"macro solver blew up at step {k}, t={step_times[k]:.6g}")
        step_end(k, u)

    # W and D: the trapezoidal rule on the step-end rates, summed in step order
    w_hist, d_hist = hist = np.zeros((2, n_steps + 1))
    np.cumsum(0.5 * dt * (rates[:, :-1] + rates[:, 1:]), axis=1, out=hist[:, 1:])
    snaps = np.asarray(snaps)
    return MacroTrajectory(
        config=config,
        times=np.repeat(step_times, rec_count),
        r=snaps[:, :m],
        p=snaps[:, m + 4 :],
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
    """W - (F(rho(tau1)) - F(rho(tau0))) at the end of the run, rho being
    mean_strain and F the table's, as in F_hist, from one lookup; a strain
    rho(tau) off the table raises the table's ValueError, as in advance.

    Nonnegative up to discretization error; equals the accumulated
    dissipation D once the final state has relaxed: from uniform_state at
    rho(tau0), gap - D = F_hist[-1] - F(rho(tau1)) - res, with res =
    F_hist[-1] - F_hist[0] - W + D the signed balance residual. The
    stationarity check reads the last snapshot, so a run not recorded at its
    end raises ValueError."""
    if traj.times[-1] != traj.t_hist[-1]:
        raise ValueError(f"no snapshot at t_end={traj.t_hist[-1]:.6g} to check stationarity")
    p_norm = math.sqrt(float(np.mean(traj.p[-1] ** 2)))
    if p_norm > _STATIONARITY_TOL:
        warnings.warn(
            f"final state not stationary: ||p||_2 = {p_norm:.3g}", stacklevel=2
        )
    _, (f0, f1) = model.tau_and_free_energy_of_rho(
        np.array([model.mean_strain(tau0), model.mean_strain(tau1)])
    )
    return float(traj.W_hist[-1] - (f1 - f0))


def entropy_pair_residual(traj: MacroTrajectory, model: ThermoModel, phi) -> float:
    """int int (eta dphi/dt + q dphi/dx) dx dt over the recorded trajectory,
    for the mechanical entropy pair eta = p^2/2 + F(r), q = -p tau(r): one
    SpaceTimeTestFunction.pair on the M cells, which checks the record times
    and the support, with tau and F from one table lookup.

    For vanishing-viscosity trajectories this is >= -O(delta) and strictly
    positive at entropy-producing shocks."""
    tau, f = model.tau_and_free_energy_of_rho(traj.r)
    eta = traj.p**2 / 2.0 + f
    return phi.pair(traj.times, traj.config.x, traj.config.M, eta, -traj.p * tau)


def write_balance_csv(path, traj: MacroTrajectory) -> None:
    """(t, F, W, D, residual) at every step, formatted by csvio's float kernel."""
    from .csvio import write_columns

    _, _, residual = work_and_dissipation(traj)
    columns = (traj.t_hist, traj.F_hist, traj.W_hist, traj.D_hist, residual)
    write_columns(path, ["t", "F", "W", "D", "residual"], columns)
