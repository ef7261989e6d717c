"""Viscous p-system tests: boundary fidelity, manufactured wave solutions,
self-convergence, the energy balance and the entropy machinery."""

import math
import warnings

import numpy as np
import pytest

from hydrochain.macropde import (
    MacroConfig,
    MacroState,
    _pad,
    advance,
    balance_integrands,
    clausius_gap,
    entropy_pair_residual,
    free_energy_functional,
    uniform_state,
    viscous_rhs,
    work_and_dissipation,
)
from hydrochain.schedules import ConstantSchedule, RampSchedule, StepSchedule
from hydrochain.testfunctions import SpaceTimeTestFunction
from hydrochain.thermo import PotentialParams, ThermoModel


@pytest.fixture(scope="module")
def model():
    return ThermoModel(beta=1.0, potential=PotentialParams(kappa=0.25, moll_width=0.1))


@pytest.fixture(scope="module")
def harmonic():
    return ThermoModel(beta=1.0, potential=PotentialParams(kappa=0.0, moll_width=0.1))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MacroConfig(M=4)
        with pytest.raises(ValueError):
            MacroConfig(delta1=-1.0)
        with pytest.raises(ValueError):
            MacroConfig(t_end=1.0, record_times=np.array([2.0]))

    def test_non_integral_m_rejected(self):
        # M = 16.5 used to give 17 cells with dx = 1/16.5
        for bad in (16.5, 16.0):
            with pytest.raises(ValueError, match="M must be an integer"):
                MacroConfig(M=bad)
        for good in (16, np.int64(16), np.int32(16)):
            cfg = MacroConfig(M=good)
            assert cfg.x.size == 16 and cfg.dx == 1.0 / 16

    @pytest.mark.parametrize("name", ["delta1", "delta2", "t_end"])
    def test_nonfinite_input_rejected(self, name):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=name):
                MacroConfig(**{name: bad})

    def test_unsorted_record_times_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            MacroConfig(t_end=0.3, record_times=np.array([0.3, 0.2]))

    def test_nonfinite_record_times_rejected(self):
        for times in ([0.0, math.nan], [0.0, math.nan, 0.05], [math.inf]):
            with pytest.raises(ValueError, match="record_times must be finite"):
                MacroConfig(M=16, t_end=0.1, record_times=np.array(times))

    def test_empty_record_times_rejected(self):
        # an empty record left MacroTrajectory.r of shape (0,)
        with pytest.raises(ValueError, match="record_times must hold at least one time"):
            MacroConfig(M=16, t_end=0.1, record_times=np.array([]))

    def test_dt_respects_both_bounds(self):
        cfg = MacroConfig(M=100, delta1=0.0, delta2=0.0, t_end=1.0)
        assert cfg.dt <= 0.4 * cfg.dx * (1 + 1e-12)
        cfg2 = MacroConfig(M=100, delta1=0.05, delta2=0.05, t_end=1.0)
        assert cfg2.dt <= 0.4 * cfg2.dx**2 / (2 * 0.05) * (1 + 1e-12)


class TestBoundaryConditions:
    # the two-layer ghost padding advance builds: the inner ghosts sit at
    # index 1 and -2, the outer ones at 0 and -1
    def test_matched_equilibrium_ghosts(self, model):
        rho = 0.45
        taub = float(model.tau_of_rho(rho))
        cfg = MacroConfig(M=50, t_end=0.1, tension_schedule=ConstantSchedule(taub))
        st = uniform_state(cfg, rho)
        tau_pad, p_pad = _pad(model.tau_of_rho(st.r), st.p, taub)
        assert np.all(tau_pad == taub)
        assert np.all(p_pad == 0.0)

    def test_stepped_tension_round_trip(self, model):
        cfg = MacroConfig(M=50, t_end=0.1)
        tau = model.tau_of_rho(uniform_state(cfg, 0.0).r)
        taub = 0.62
        tau_pad, _ = _pad(tau, np.zeros(50), taub)
        assert 0.5 * (tau_pad[-2] + tau[-1]) == pytest.approx(taub, abs=1e-15)
        assert 0.5 * (tau_pad[-1] + tau[-2]) == pytest.approx(taub, abs=1e-15)
        assert tau_pad[1] == tau[0] and tau_pad[0] == tau[1]

    def test_left_momentum_reflection(self, model):
        st = MacroState(r=np.zeros(50), p=np.linspace(0.3, 0.5, 50), t=0.0)
        _, p_pad = _pad(model.tau_of_rho(st.r), st.p, 0.0)
        assert p_pad[1] == -st.p[0] and p_pad[0] == -st.p[1]
        assert p_pad[-2] == st.p[-1] and p_pad[-1] == st.p[-2]


class TestRHS:
    def test_equilibrium_zero(self, model):
        rho = -0.8
        taub = float(model.tau_of_rho(rho))
        cfg = MacroConfig(M=64, t_end=0.1)
        dr, dp = viscous_rhs(uniform_state(cfg, rho), taub, cfg, model)
        assert np.abs(dr).max() <= 1e-10
        assert np.abs(dp).max() <= 1e-10

    def test_harmonic_wave_system(self, harmonic):
        # kappa = 0, delta = 0: rhs must reproduce dr/dt = dp/dx, dp/dt = dr/dx
        cfg = MacroConfig(M=400, delta1=0.0, delta2=0.0, t_end=0.1)
        x = cfg.x
        r = 0.2 * np.sin(2 * math.pi * x)
        p = 0.1 * np.cos(math.pi * x) * x**2
        taub = float(harmonic.tau_of_rho(r[-1]))  # matched so ghosts are benign
        dr, dp = viscous_rhs(MacroState(r, p, 0.0), taub, cfg, harmonic)
        dp_dx = 0.1 * (2 * x * np.cos(math.pi * x) - math.pi * x**2 * np.sin(math.pi * x))
        dr_dx = 0.4 * math.pi * np.cos(2 * math.pi * x)
        interior = slice(2, -2)
        assert np.abs(dr[interior] - dp_dx[interior]).max() <= 5e-4
        assert np.abs(dp[interior] - dr_dx[interior]).max() <= 5e-4

    def test_pure_diffusion_stencil(self, model):
        cfg = MacroConfig(M=128, delta1=3e-3, delta2=0.0, t_end=0.1)
        x = cfg.x
        r = 0.3 * np.cos(math.pi * x) + 0.1
        st = MacroState(r=r, p=np.zeros(128), t=0.0)
        taub = float(model.tau_of_rho(r[-1]))
        dr, _ = viscous_rhs(st, taub, cfg, model)
        tau = np.asarray(model.tau_of_rho(r))
        lap = (tau[2:] - 2 * tau[1:-1] + tau[:-2]) / cfg.dx**2
        assert np.abs(dr[1:-1] - 3e-3 * lap).max() <= 1e-10


class TestAdvance:
    def test_equilibrium_invariance(self, model):
        rho = 0.45
        taub = float(model.tau_of_rho(rho))
        cfg = MacroConfig(M=100, t_end=0.5, tension_schedule=ConstantSchedule(taub))
        traj = advance(uniform_state(cfg, rho), cfg, model)
        assert np.abs(traj.r[-1] - rho).max() <= 1e-13
        assert np.abs(traj.p[-1]).max() <= 1e-13

    def test_dalembert_pulse(self, harmonic):
        def f(y):
            u = (y - 0.3) / 0.12
            return 0.2 * (1 - u * u) ** 3 if abs(u) < 1 else 0.0

        errs = {}
        for m in (200, 400):
            cfg = MacroConfig(
                M=m, delta1=0.0, delta2=0.0, t_end=0.2,
                tension_schedule=ConstantSchedule(0.0),
                record_times=np.array([0.2]),
            )
            x = cfg.x
            init = MacroState(
                r=np.array([f(xi) for xi in x]),
                p=np.array([-f(xi) for xi in x]),
                t=0.0,
            )
            traj = advance(init, cfg, harmonic)
            exact = np.array([f(xi - 0.2) for xi in x])
            errs[m] = np.abs(traj.r[-1] - exact).max()
        assert errs[400] <= 5e-4
        assert errs[400] <= errs[200] / 2.0

    def test_richardson_self_convergence(self, model):
        sched = RampSchedule(0.0, 0.3, t1=0.5)
        sol = {}
        for m in (100, 200, 400):
            cfg = MacroConfig(M=m, delta1=2e-3, delta2=2e-3, t_end=0.5,
                              tension_schedule=sched, record_times=np.array([0.5]))
            traj = advance(uniform_state(cfg, model.mean_strain(0.0)), cfg, model)
            sol[m] = traj.r[-1]

        def restrict(u):  # pair-average onto the grid with half as many cells
            return u.reshape(-1, 2).mean(axis=1)

        # self-convergence measured on the coarser grid of each pair
        e0 = np.abs(sol[100] - restrict(sol[200])).max()
        e1 = np.abs(sol[200] - restrict(sol[400])).max()
        assert e1 < e0 / 2.5

    def test_snapshots_at_record_times(self, model):
        cfg = MacroConfig(M=64, t_end=0.3, record_times=np.array([0.0, 0.1, 0.3]))
        traj = advance(uniform_state(cfg, 0.2), cfg, model)
        assert traj.times.size == 3
        assert traj.times[1] == pytest.approx(0.1, abs=cfg.dt)

    @staticmethod
    def state_at(cfg, t):
        state = uniform_state(cfg, 0.2)
        return MacroState(state.r, state.p, t)

    def test_starts_at_state_time(self, model):
        cfg = MacroConfig(M=64, t_end=0.3, record_times=np.array([0.2, 0.3]))
        traj = advance(self.state_at(cfg, 0.1), cfg, model)
        assert traj.t_hist[0] == 0.1
        assert traj.t_hist[-1] == pytest.approx(0.3, abs=1e-12)
        assert np.all(np.diff(traj.t_hist) <= cfg.dt * (1 + 1e-12))
        assert traj.times == pytest.approx([0.2, 0.3], abs=cfg.dt / 2)

    def test_start_after_t_end_rejected(self, model):
        cfg = MacroConfig(M=64, t_end=0.3, record_times=np.array([0.3]))
        with pytest.raises(ValueError, match="t_end=0.3 lies before"):
            advance(self.state_at(cfg, 0.35), cfg, model)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_nonfinite_start_time_rejected(self, model, t):
        cfg = MacroConfig(M=16, t_end=0.1)
        with pytest.raises(ValueError, match="state t must be finite"):
            advance(self.state_at(cfg, t), cfg, model)

    def test_start_state_shape_checked(self, model):
        # a length-12 state at M = 16 used to raise numpy's broadcast error
        cfg = MacroConfig(M=16, t_end=0.1)
        good = np.zeros(16)
        for name, r, p in (("r", np.zeros(12), good), ("p", good, np.zeros(12))):
            with pytest.raises(ValueError, match=f"state {name} has shape .* M=16"):
                advance(MacroState(r=r, p=p, t=0.0), cfg, model)

    def test_nonfinite_tension_named(self, model):
        def later_inf(t):  # turns non-finite at a stage time after step 1
            return np.where(np.asarray(t) < 0.05, 0.1, math.inf)

        for schedule, message in (
            (ConstantSchedule(math.nan), "tau = nan at t = 0$"),
            (ConstantSchedule(math.inf), "tau = inf at t = 0$"),
            (ConstantSchedule(-math.inf), "tau = -inf at t = 0$"),
            (later_inf, "tau = inf at t = 0.05$"),
        ):
            cfg = MacroConfig(M=16, t_end=0.1, tension_schedule=schedule)
            with pytest.raises(ValueError, match=f"non-finite {message}"):
                advance(uniform_state(cfg, 0.2), cfg, model)

    def test_tension_is_not_looked_up_in_the_table(self, model):
        # tau_bar far above the table's tension range: the run starts, and the
        # strain that leaves the table raises at the stage that reads it
        big = 2.0 * float(model.table["tau"][-1])
        cfg = MacroConfig(M=16, t_end=0.1, tension_schedule=ConstantSchedule(big))
        with pytest.raises(ValueError, match="rho = .* lies outside the thermo table"):
            advance(uniform_state(cfg, 0.2), cfg, model)

    def test_record_time_before_state_rejected(self, model):
        cfg = MacroConfig(M=64, t_end=0.3, record_times=np.array([0.05, 0.3]))
        with pytest.raises(ValueError, match="record_times"):
            advance(self.state_at(cfg, 0.1), cfg, model)


def reference_advance(state, config, model):
    """The SSP-RK3 loop through the public functions, one scalar schedule call
    and one tau(r) evaluation per stage: (snapshot r, snapshot p, t_hist,
    F_hist, W_hist, D_hist)."""
    span = config.t_end - state.t
    n_steps = int(math.ceil(span / config.dt - 1e-9))
    dt = span / n_steps
    rec_steps = np.minimum(np.round((config.record_times - state.t) / dt).astype(int), n_steps)
    step_times = state.t + dt * np.arange(n_steps + 1)

    def tension(t):
        return float(config.tension_schedule(t))

    def rhs(r, p, t):
        return viscous_rhs(MacroState(r, p, t), tension(t), config, model)

    r, p = state.r.copy(), state.p.copy()
    f_hist, w_hist, d_hist = np.empty(n_steps + 1), np.zeros(n_steps + 1), np.zeros(n_steps + 1)
    f_hist[0] = free_energy_functional(MacroState(r, p, state.t), model)
    w_rate, d_rate = balance_integrands(MacroState(r, p, state.t), tension(state.t), config, model)
    snaps = {0: (r, p)}
    for k in range(1, n_steps + 1):
        t0, t1 = float(step_times[k - 1]), float(step_times[k])
        dr, dp = rhs(r, p, t0)
        r1, p1 = r + dt * dr, p + dt * dp
        dr, dp = rhs(r1, p1, t1)
        r2 = 0.75 * r + 0.25 * (r1 + dt * dr)
        p2 = 0.75 * p + 0.25 * (p1 + dt * dp)
        dr, dp = rhs(r2, p2, t0 + 0.5 * dt)
        r = r / 3.0 + (2.0 / 3.0) * (r2 + dt * dr)
        p = p / 3.0 + (2.0 / 3.0) * (p2 + dt * dp)
        now = MacroState(r, p, t1)
        f_hist[k] = free_energy_functional(now, model)
        w_next, d_next = balance_integrands(now, tension(t1), config, model)
        w_hist[k] = w_hist[k - 1] + 0.5 * dt * (w_rate + w_next)
        d_hist[k] = d_hist[k - 1] + 0.5 * dt * (d_rate + d_next)
        w_rate, d_rate = w_next, d_next
        snaps[k] = (r, p)
    snap_r = np.array([snaps[k][0] for k in rec_steps])
    snap_p = np.array([snaps[k][1] for k in rec_steps])
    return snap_r, snap_p, step_times, f_hist, w_hist, d_hist


class TestAdvanceBitwise:
    """advance equals the stage-by-stage loop through the public functions to
    the bit: its schedule is evaluated in one array call, and tau(r) of a
    step-end state once."""

    @staticmethod
    def check(state, config, model):
        traj = advance(state, config, model)
        ref = reference_advance(state, config, model)
        got = (traj.r, traj.p, traj.t_hist, traj.F_hist, traj.W_hist, traj.D_hist)
        for name, a, b in zip(("r", "p", "t_hist", "F_hist", "W_hist", "D_hist"), got, ref):
            assert np.array_equal(a, b), name

    def test_ramp_from_nonzero_time(self, model):
        cfg = MacroConfig(M=64, delta1=2e-3, delta2=1e-3, t_end=0.4,
                          tension_schedule=RampSchedule(-0.2, 0.5, t1=0.3),
                          record_times=np.array([0.13, 0.25, 0.4]))
        x = cfg.x
        rho0 = model.mean_strain(-0.2)
        state = MacroState(rho0 + 0.1 * np.cos(3.0 * x), 0.05 * np.sin(2.0 * x), 0.13)
        self.check(state, cfg, model)

    def test_step_between_two_stages(self, model):
        base = MacroConfig(M=64, t_end=0.2)
        # the jump falls after the half-step stage of step 4 and before its end
        t_step = 3.75 * base.dt
        cfg = MacroConfig(M=64, t_end=0.2, tension_schedule=StepSchedule(0.1, 0.6, t_step),
                          record_times=np.array([0.0, 0.1, 0.2]))
        assert float(cfg.tension_schedule(3.5 * cfg.dt)) == 0.1
        assert float(cfg.tension_schedule(4.0 * cfg.dt)) == 0.6
        self.check(uniform_state(cfg, model.mean_strain(0.1)), cfg, model)


class TestFreeEnergy:
    def test_equilibrium_value(self, model):
        cfg = MacroConfig(M=80, t_end=0.1)
        rho = 0.37
        got = free_energy_functional(uniform_state(cfg, rho), model)
        assert got == pytest.approx(model.free_energy(rho), abs=1e-7)

    def test_harmonic_closed_form(self, harmonic):
        cfg = MacroConfig(M=4000, t_end=0.1)
        x = cfg.x
        r = 0.3 * np.sin(2 * math.pi * x)
        p = 0.2 * np.cos(2 * math.pi * x)
        got = free_energy_functional(MacroState(r, p, 0.0), harmonic)
        exact = 0.25 * (0.2**2 + 0.3**2) - 0.5 * math.log(2 * math.pi)
        assert got == pytest.approx(exact, abs=1e-5)


class TestBalance:
    def test_equilibrium_all_zero(self, model):
        rho = 0.45
        taub = float(model.tau_of_rho(rho))
        cfg = MacroConfig(M=100, t_end=0.3, tension_schedule=ConstantSchedule(taub))
        traj = advance(uniform_state(cfg, rho), cfg, model)
        W, D, res = work_and_dissipation(traj)
        assert np.abs(W).max() <= 1e-12
        assert D.max() <= 1e-12
        assert res.max() <= 1e-12

    def test_ramp_residual_refines(self, model):
        res_max = {}
        for m in (100, 200):
            cfg = MacroConfig(M=m, t_end=1.0, tension_schedule=RampSchedule(0.0, 0.4, t1=0.5))
            traj = advance(uniform_state(cfg, model.mean_strain(0.0)), cfg, model)
            _, D, res = work_and_dissipation(traj)
            assert np.all(np.diff(D) >= -1e-15)
            res_max[m] = res.max()
        assert res_max[200] <= res_max[100] / 2.5

    @pytest.mark.parametrize("m", [64, 400, 1600])
    @pytest.mark.parametrize("delta", [(0.0, 0.0), (3e-3, 2e-3)])
    def test_semidiscrete_energy_identity(self, model, m, delta):
        # the rates are the exact energy flux of viscous_rhs, also for a state
        # whose boundary tension is not the one applied
        cfg = MacroConfig(M=m, delta1=delta[0], delta2=delta[1], t_end=0.1)
        x = cfg.x
        st = MacroState(r=0.3 * np.sin(3 * x), p=0.2 * np.cos(2 * x) + 0.05, t=0.0)
        dr, dp = viscous_rhs(st, 0.37, cfg, model)
        tau = model.tau_of_rho(st.r)
        w, d = balance_integrands(st, 0.37, cfg, model)
        assert abs(np.sum(st.p * dp + tau * dr) * cfg.dx - (w - d)) <= 1e-14

    def test_dissipation_rate_nonnegative(self, model):
        cfg = MacroConfig(M=64, t_end=0.1)
        st = MacroState(
            r=0.2 * np.sin(np.linspace(0, 6, 64)), p=0.1 * np.cos(np.linspace(0, 5, 64)), t=0.0
        )
        _, diss = balance_integrands(st, 0.3, cfg, model)
        assert diss >= 0.0


class TestClausius:
    def test_null_transformation(self, model):
        taub = float(model.tau_of_rho(0.3))
        cfg = MacroConfig(M=64, t_end=1.0, tension_schedule=ConstantSchedule(taub))
        traj = advance(uniform_state(cfg, 0.3), cfg, model)
        gap = clausius_gap(traj, model, taub, taub)
        assert abs(gap) <= 1e-9

    def test_nonstationary_warns(self, model):
        cfg = MacroConfig(M=64, t_end=0.4, tension_schedule=RampSchedule(0.0, 0.5, t1=0.2))
        traj = advance(uniform_state(cfg, model.mean_strain(0.0)), cfg, model)
        with pytest.warns(UserWarning, match="stationary"):
            clausius_gap(traj, model, 0.0, 0.5)

    def test_end_of_run_must_be_recorded(self, model):
        # the last snapshot, ||p|| = 0.214 at t = 0.3, is not the end state
        # at t = 3 (||p|| = 0.454) whose W the gap reads
        cfg = MacroConfig(M=64, t_end=3.0, tension_schedule=RampSchedule(0.0, 0.5, t1=0.2),
                          record_times=np.array([0.0, 0.3]))
        traj = advance(uniform_state(cfg, model.mean_strain(0.0)), cfg, model)
        with pytest.raises(ValueError, match="t_end=3"):
            clausius_gap(traj, model, 0.0, 0.5)


class TestEntropyPair:
    def test_smooth_residual_small_and_refines(self, model):
        phi = SpaceTimeTestFunction(0.05, 0.45, 0.25, 0.75, mode=0)
        vals = {}
        for m in (100, 200):
            cfg = MacroConfig(M=m, delta1=2e-3, delta2=2e-3, t_end=0.5,
                              tension_schedule=RampSchedule(0.0, 0.2, t1=0.3),
                              record_times=np.linspace(0, 0.5, 151))
            traj = advance(uniform_state(cfg, model.mean_strain(0.0)), cfg, model)
            vals[m] = entropy_pair_residual(traj, model, phi)
        # smooth solution: residual is O(delta + dx^2), tiny either way
        assert abs(vals[200]) <= 2e-3

    def test_support_violation(self, model):
        cfg = MacroConfig(M=64, t_end=0.2, record_times=np.linspace(0, 0.2, 21))
        traj = advance(uniform_state(cfg, 0.1), cfg, model)
        bad = SpaceTimeTestFunction(0.0, 0.5, 0.2, 0.8)
        with pytest.raises(ValueError, match="support"):
            entropy_pair_residual(traj, model, bad)
