"""Viscous p-system tests: boundary fidelity, manufactured wave solutions,
self-convergence, the energy balance and the entropy machinery."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from hydrochain.macropde import (
    MacroConfig,
    MacroState,
    MacroTrajectory,
    _pad,
    advance,
    balance_integrands,
    clausius_gap,
    entropy_pair_residual,
    uniform_state,
    viscous_rhs,
    work_and_dissipation,
)
from hydrochain.microchain import ChainConfig, make_initial_state, run_trajectory
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
        # delta1 = True ran delta = 1, and None leaked a TypeError
        for bad in (True, None):
            with pytest.raises(ValueError, match="delta1"):
                MacroConfig(delta1=bad)
        with pytest.raises(ValueError):
            MacroConfig(t_end=1.0, record_times=np.array([2.0]))

    def test_uniform_strain_validated(self):
        # True and "1" built rho = 1, NaN a NaN state, and None leaked a TypeError
        for bad in (True, "1", math.nan, math.inf, None):
            with pytest.raises(ValueError, match="rho must be finite"):
                uniform_state(MacroConfig(M=16), bad)

    def test_non_integral_m_rejected(self):
        # M = 16.5 used to give 17 cells with dx = 1/16.5
        for bad in (16.5, 16.0, True, 7):
            with pytest.raises(ValueError, match="M must be an integer >= 8"):
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


def padded(tau, p, tau_bar):
    """_pad's flat buffer as its two halves, (tau-pad, p-pad)."""
    return _pad(np.empty(2 * p.size + 8), tau, p, tau_bar).reshape(2, -1)


class TestBoundaryConditions:
    # the two-layer ghost padding advance builds: the inner ghosts sit at
    # index 1 and -2, the outer ones at 0 and -1
    def test_matched_equilibrium_ghosts(self, model):
        rho = 0.45
        taub = float(model.tau_of_rho(rho))
        cfg = MacroConfig(M=50, t_end=0.1, tension_schedule=ConstantSchedule(taub))
        st = uniform_state(cfg, rho)
        tau_pad, p_pad = padded(model.tau_of_rho(st.r), st.p, taub)
        assert np.all(tau_pad == taub)
        assert np.all(p_pad == 0.0)

    def test_stepped_tension_round_trip(self, model):
        cfg = MacroConfig(M=50, t_end=0.1)
        tau = model.tau_of_rho(uniform_state(cfg, 0.0).r)
        taub = 0.62
        tau_pad, _ = padded(tau, np.zeros(50), taub)
        assert 0.5 * (tau_pad[-2] + tau[-1]) == pytest.approx(taub, abs=1e-15)
        assert 0.5 * (tau_pad[-1] + tau[-2]) == pytest.approx(taub, abs=1e-15)
        assert tau_pad[1] == tau[0] and tau_pad[0] == tau[1]

    def test_left_momentum_reflection(self, model):
        st = MacroState(r=np.zeros(50), p=np.linspace(0.3, 0.5, 50), t=0.0)
        _, p_pad = padded(model.tau_of_rho(st.r), st.p, 0.0)
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
        # t_end and record_times count from the state's t, as the chain's do
        cfg = MacroConfig(M=64, t_end=0.3, record_times=np.array([0.1, 0.3]))
        traj = advance(self.state_at(cfg, 0.1), cfg, model)
        assert traj.t_hist.size == cfg.n_steps + 1
        assert traj.t_hist[0] == 0.1
        assert traj.t_hist[-1] == pytest.approx(0.1 + 0.3, abs=1e-12)
        assert np.all(np.diff(traj.t_hist) <= cfg.dt * (1 + 1e-12))
        assert traj.times == pytest.approx([0.2, 0.4], abs=cfg.dt / 2)

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

    @pytest.mark.parametrize("n", [12, 20])
    def test_every_entry_point_checks_the_shape(self, model, n):
        # viscous_rhs and balance_integrands raised numpy's bare broadcast
        # error on a state of 12 or 20 cells at M = 16
        cfg = MacroConfig(M=16, t_end=0.1)
        good = np.zeros(16)
        for name, r, p in (("r", np.zeros(n), good), ("p", good, np.zeros(n))):
            state = MacroState(r=r, p=p, t=0.0)
            for call in (
                lambda: advance(state, cfg, model),
                lambda: viscous_rhs(state, 0.1, cfg, model),
                lambda: balance_integrands(state, 0.1, cfg, model),
            ):
                message = rf"state {name} has shape \({n},\), need \(16,\) for M=16"
                with pytest.raises(ValueError, match=message):
                    call()

    def test_callers_state_is_never_written(self, model):
        cfg = MacroConfig(M=16, t_end=0.05, record_times=np.array([0.0, 0.05]))
        x = cfg.x
        r, p = model.mean_strain(0.1) + 0.1 * np.cos(3.0 * x), 0.05 * np.sin(2.0 * x)
        state = MacroState(r.copy(), p.copy(), 0.0)
        state.r.flags.writeable = state.p.flags.writeable = False
        traj = advance(state, cfg, model)
        viscous_rhs(state, 0.3, cfg, model)
        balance_integrands(state, 0.3, cfg, model)
        assert np.array_equal(state.r, r) and np.array_equal(state.p, p)
        # the snapshot at t = 0 still holds the start state after the run
        # rewrote its state buffer in place
        assert np.array_equal(traj.r[0], r) and not np.shares_memory(traj.r, state.r)

    def test_viscous_rhs_calls_share_no_memory(self, model):
        cfg = MacroConfig(M=16, t_end=0.1)
        state = uniform_state(cfg, 0.2)
        first, second = viscous_rhs(state, 0.3, cfg, model), viscous_rhs(state, 0.4, cfg, model)
        assert not any(np.shares_memory(a, b) for a in first for b in second)
        assert not np.array_equal(first[0], second[0])

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

    def test_one_clock_with_the_chain(self, model):
        # a chain and a PDE run from one state time, with one t_end and one
        # set of record times, record at the same times to within a step and
        # both end on t0 + t_end (the chain ended at 0.1100446, a rounded 45
        # steps of theta/(N sigma), and the PDE at 0.11)
        t0, t_end, record_times = 0.1, 0.01, np.array([0.0, 0.004, 0.01])
        chain_cfg = ChainConfig(N=32, t_end=t_end, seed=5, record_times=record_times)
        start = make_initial_state(chain_cfg, 0.1, model)
        start.t = t0
        chain = run_trajectory(chain_cfg, 0.1, model, initial_state=start)
        cfg = MacroConfig(M=32, t_end=t_end, record_times=record_times)
        traj = advance(self.state_at(cfg, t0), cfg, model)
        chain_times = np.array([s.t for s in chain.snapshots])
        assert chain_times == pytest.approx(t0 + record_times, abs=chain_cfg.dt_fine)
        assert traj.times == pytest.approx(t0 + record_times, abs=cfg.dt)
        assert np.abs(chain_times - traj.times).max() <= max(chain_cfg.dt_fine, cfg.dt)
        assert chain.ledger.t[-1] == pytest.approx(traj.t_hist[-1], rel=1e-15)
        assert traj.t_hist[-1] == pytest.approx(t0 + t_end, rel=1e-15)


def reference_advance(state, config, model):
    """The SSP-RK3 loop through the public functions, one scalar schedule call
    and one tau(r) evaluation per stage: (snapshot r, snapshot p, t_hist,
    F_hist, W_hist, D_hist)."""
    n_steps, dt = config.n_steps, config.dt
    rec_steps = np.minimum(np.round(config.record_times / dt).astype(int), n_steps)
    step_times = state.t + dt * np.arange(n_steps + 1)

    def tension(t):
        return float(config.tension_schedule(t))

    def rhs(r, p, t):
        return viscous_rhs(MacroState(r, p, t), tension(t), config, model)

    def free_energy(r, p):
        return float(np.mean(p**2 / 2.0 + model.tau_and_free_energy_of_rho(r)[1]))

    r, p = state.r.copy(), state.p.copy()
    f_hist, w_hist, d_hist = np.empty(n_steps + 1), np.zeros(n_steps + 1), np.zeros(n_steps + 1)
    f_hist[0] = free_energy(r, p)
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
        f_hist[k] = free_energy(r, p)
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
        return traj

    def test_ramp_from_nonzero_time(self, model):
        # from t = 0.13 to 0.4: t_end and record_times count from the state's t
        cfg = MacroConfig(M=64, delta1=2e-3, delta2=1e-3, t_end=0.4 - 0.13,
                          tension_schedule=RampSchedule(-0.2, 0.5, t1=0.3),
                          record_times=np.array([0.13, 0.25, 0.4]) - 0.13)
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

    def test_smallest_grid_under_a_step(self, model):
        # M = 8: the 4 seam slots of the flat buffers sit next to both the
        # tension ghosts at x=1 and the momentum ghosts at x=0
        cfg = MacroConfig(M=8, delta1=3e-3, delta2=1e-3, t_end=0.5,
                          tension_schedule=StepSchedule(0.1, 0.6, 0.2),
                          record_times=np.array([0.0, 0.2, 0.2, 0.5]))
        x = cfg.x
        state = MacroState(model.mean_strain(0.1) + 0.1 * np.cos(3.0 * x), 0.05 * x, 0.0)
        traj = self.check(state, cfg, model)
        assert traj.times.tolist() == pytest.approx([0.0, 0.2, 0.2, 0.5], abs=cfg.dt)

    def test_pde_fine_shape(self, model):
        # the benchmark's pde_fine job: M = 1600 under a ramp 0 -> 0.4 over
        # the whole run, from a uniform state at rho(0), recorded at both ends
        cfg = MacroConfig(M=1600, t_end=0.004, tension_schedule=RampSchedule(0.0, 0.4, 0.004),
                          record_times=np.array([0.0, 0.004]))
        self.check(uniform_state(cfg, model.mean_strain(0.0)), cfg, model)

    def test_compare_pipeline_shape(self, model):
        # the benchmark's compare_pipeline PDE: M = 400 over the horizon of 125
        # chain steps at N = 256, one PDE step, with 100 record times that snap
        # to the start and the end, so records repeat
        t_end = 125 * ChainConfig(N=256).dt
        cfg = MacroConfig(M=400, t_end=t_end, tension_schedule=RampSchedule(0.0, 0.4, t_end),
                          record_times=np.linspace(0.0, t_end, 100))
        assert cfg.n_steps == 1
        traj = self.check(uniform_state(cfg, model.mean_strain(0.0)), cfg, model)
        assert traj.times.tolist() == [0.0] * 50 + [t_end] * 50


class TestFreeEnergy:
    """F_hist[0], advance's free energy of its start state; each run takes one step."""

    def test_equilibrium_value(self, model):
        cfg = MacroConfig(M=80, t_end=1e-4)
        rho = 0.37
        got = advance(uniform_state(cfg, rho), cfg, model).F_hist[0]
        # the exact oracle: tau rho - G/beta at the conjugate tension, from
        # the quadrature that builds the table
        tau = model.tension_of_strain(rho)
        assert got == pytest.approx(tau * rho - model._moments(tau)[0][0] / model.beta, abs=1e-7)

    def test_harmonic_closed_form(self, harmonic):
        cfg = MacroConfig(M=4000, t_end=1e-6)
        x = cfg.x
        r = 0.3 * np.sin(2 * math.pi * x)
        p = 0.2 * np.cos(2 * math.pi * x)
        got = advance(MacroState(r, p, 0.0), cfg, harmonic).F_hist[0]
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

    def test_ramp_gap_is_the_dissipation_and_the_free_energy_left(self, model, monkeypatch):
        # a real transformation, 0 -> 0.5, relaxed to ||p||_2 = 1.4e-4; the gap
        # reads the table's F, as F_hist does, and runs no tension inversion,
        # so gap - D + res is F_hist[-1] - F(rho(tau1)) to the bit
        cfg = MacroConfig(M=16, delta1=0.3, delta2=0.3, t_end=12.0,
                          tension_schedule=RampSchedule(0.0, 0.5, t1=1.0),
                          record_times=np.array([0.0, 12.0]))
        traj = advance(uniform_state(cfg, model.mean_strain(0.0)), cfg, model)

        def no_inversion(rho):
            raise AssertionError("tension_of_strain called")

        monkeypatch.setattr(model, "tension_of_strain", no_inversion)
        gap = clausius_gap(traj, model, 0.0, 0.5)
        w, d = traj.W_hist[-1], traj.D_hist[-1]
        res = traj.F_hist[-1] - traj.F_hist[0] - w + d
        f1 = model.tau_and_free_energy_of_rho(model.mean_strain(0.5))[1]
        assert gap > 0.09
        assert abs(gap - d + res - (traj.F_hist[-1] - f1)) <= 1e-15

    def test_tension_off_the_table_raises(self, model):
        # rho(20) is about 20, past the table's strains [-10, 10]
        cfg = MacroConfig(M=16, t_end=0.1)
        traj = advance(uniform_state(cfg, model.mean_strain(0.0)), cfg, model)
        with pytest.raises(ValueError, match="outside the thermo table"):
            clausius_gap(traj, model, 0.0, 20.0)

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

    def test_decreasing_times_rejected(self, model):
        # integrated in the given order, the reversed middle records gave
        # 0.143 instead of -1.1e-8, without an error
        cfg = MacroConfig(M=64, t_end=0.2, record_times=np.linspace(0, 0.2, 21))
        traj = advance(uniform_state(cfg, 0.1), cfg, model)
        phi = SpaceTimeTestFunction(0.0, 0.2, 0.2, 0.8)
        assert abs(entropy_pair_residual(traj, model, phi)) <= 1e-6
        order = np.r_[0:5, 14:4:-1, 15:21]
        shuffled = dataclasses.replace(traj, times=traj.times[order], r=traj.r[order],
                                       p=traj.p[order])
        with pytest.raises(ValueError, match="field times must not decrease"):
            entropy_pair_residual(shuffled, model, phi)

    def test_matches_pointwise_reference(self, model):
        # the pairing of the (T, M) grid against a loop over records and
        # cells with scalar calls, on random states far from any solution
        cfg = MacroConfig(M=48, t_end=1.0)
        rng = np.random.default_rng(2024)
        times = np.linspace(0.0, 1.0, 31)
        r = rng.uniform(-0.5, 1.0, (31, 48))
        p = rng.normal(0.0, 1.0, (31, 48))
        traj = MacroTrajectory(cfg, times, r, p, *np.zeros((4, 1)))
        for mode in (0, 1, 2):
            phi = SpaceTimeTestFunction(0.05, 0.95, 0.1, 0.85, mode=mode)
            vals = []
            for t, r_t, p_t in zip(times, r, p):
                tau, f = model.tau_and_free_energy_of_rho(r_t)
                s = 0.0
                for xi, pi, ti, fi in zip(cfg.x, p_t, tau, f):
                    s += (pi * pi / 2.0 + fi) * phi.dt(t, xi) - pi * ti * phi.dx(t, xi)
                vals.append(s / cfg.M)
            ref = float(np.trapezoid(vals, times))
            got = entropy_pair_residual(traj, model, phi)
            assert got == pytest.approx(ref, rel=1e-13, abs=0.0)
