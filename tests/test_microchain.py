"""Chain integrator tests: drift fixed points, exact noise conservation,
determinism, ledger identities and the dt-refinement behavior of the first
law."""

import math
import sys
import threading

import numpy as np
import pytest

from hydrochain import microchain
from hydrochain.microchain import (
    BlowUpError,
    ChainConfig,
    ChainState,
    accumulate_ledger,
    draw_increments,
    energy_per_particle,
    make_initial_state,
    run_trajectory,
    step,
)
from hydrochain.noise import BridgedNoise
from hydrochain.schedules import ConstantSchedule, RampSchedule, StepSchedule
from hydrochain.thermo import PotentialParams, ThermoModel


@pytest.fixture(scope="module")
def model():
    return ThermoModel(beta=1.0, potential=PotentialParams(kappa=0.25, moll_width=0.1))


def fixed_point_state(model, n, rho=0.7):
    return ChainState(r=np.full(n, rho), p=np.zeros(n), t=0.0), float(model.dV(rho))


def blow_up_at_step_11_config():
    """40 steps at N = 32; from step 11 on the tension kicks p_N to ~1e304,
    so p^2 overflows in the step's kinetic-energy increment while the state
    stays finite."""
    dt = 0.1 / (32 * 14)
    return ChainConfig(
        N=32,
        t_end=40 * dt,
        seed=3,
        tension_schedule=lambda t: np.where(np.asarray(t) < 9.5 * dt, 0.1, 1e306),
        record_times=np.array([0.0, 40 * dt]),
    )


class TestConfig:
    def test_defaults(self):
        cfg = ChainConfig(N=256, t_end=0.1)
        assert cfg.sigma == 64.0
        assert cfg.dt == pytest.approx(0.1 / (256 * 64))
        assert cfg.record_times[-1] == pytest.approx(cfg.t_end_eff)

    def test_sigma_defaults(self):
        assert ChainConfig(N=128, t_end=0.1).sigma == 39.0
        assert ChainConfig(N=512, t_end=0.1).sigma == 108.0

    def test_stability_bound_enforced(self):
        with pytest.raises(ValueError, match="theta"):
            ChainConfig(N=128, t_end=0.1, theta=1.0)

    def test_theta_validated(self):
        for bad in (0.0, -0.1, 0.3, math.nan):
            with pytest.raises(ValueError, match="theta"):
                ChainConfig(N=32, t_end=0.01, theta=bad)
        cfg = ChainConfig(N=32, t_end=0.01, theta=microchain.THETA_MAX)
        assert cfg.dt == microchain.THETA_MAX / (32 * cfg.sigma)

    def test_non_integral_refine_level_rejected(self):
        # refine_level = 1.5 used to give n_steps = 11.31 and a bare TypeError
        # from run_trajectory
        for bad in (1.5, 1.0, "1"):
            with pytest.raises(ValueError, match="refine_level must be an integer"):
                ChainConfig(N=32, t_end=0.001, refine_level=bad)
        for good in (1, np.int64(1)):
            assert ChainConfig(N=32, t_end=0.001, refine_level=good).n_steps == 8

    def test_record_times_outside_range(self):
        with pytest.raises(ValueError, match="record_times"):
            ChainConfig(N=64, t_end=0.1, record_times=np.array([0.0, 0.2]))

    def test_nonfinite_record_times_rejected(self):
        # NaN compares false with every bound, so unchecked it silently drops
        # the records after it
        for times in ([0.0, math.nan, 0.01], [math.nan, 0.0, 0.01], [math.inf]):
            with pytest.raises(ValueError, match="record_times must be finite"):
                ChainConfig(N=32, t_end=0.01, record_times=np.array(times))

    def test_empty_record_times_rejected(self):
        # an empty record left the ledger's first-law residual and Clausius
        # gap to raise IndexError
        with pytest.raises(ValueError, match="record_times must hold at least one time"):
            ChainConfig(N=32, t_end=0.01, record_times=np.array([]))

    @pytest.mark.parametrize(
        "name, bad",
        [("t_end", math.nan), ("t_end", math.inf), ("sigma", math.nan), ("sigma", math.inf)],
    )
    def test_nonfinite_input_rejected(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            ChainConfig(**{"N": 64, "t_end": 0.1, name: bad})

    def test_scaling_warning(self):
        with pytest.warns(UserWarning, match="hydrodynamic"):
            ChainConfig(N=8, sigma=16.0, t_end=0.01)

    def test_extreme_sigma_named(self):
        # sigma**2 overflows at 1e308 and underflows at 1e-300, and at 1e308
        # dt = theta/(N sigma) underflows to 0
        with pytest.raises(ValueError, match="sigma"):
            ChainConfig(N=32, sigma=1e308, t_end=0.01)
        with pytest.warns(UserWarning, match="hydrodynamic"):
            cfg = ChainConfig(N=32, sigma=1e-300, t_end=0.01)
        assert cfg.n_coarse == 1 and math.isfinite(cfg.dt)

    def test_non_integral_n_rejected(self):
        for bad in (32.5, 32.0, "32"):
            with pytest.raises(ValueError, match="N must be an integer"):
                ChainConfig(N=bad, t_end=0.01)
        for good in (32, np.int64(32), np.int32(32)):
            assert ChainConfig(N=good, t_end=0.01).n_steps == ChainConfig(N=32, t_end=0.01).n_steps


class TestInitialState:
    def test_moments(self, model):
        cfg = ChainConfig(N=10**4, t_end=0.01, seed=2)
        st = make_initial_state(cfg, 0.5, model)
        rho = model.mean_strain(0.5)
        se_r = st.r.std() / 100.0
        se_p = st.p.std() / 100.0
        assert abs(st.r.mean() - rho) <= 4 * se_r
        assert abs(st.p.mean()) <= 4 * se_p
        assert st.r.size == st.p.size == 10**4
        assert st.t == 0.0

    def test_seed_determinism(self, model):
        cfg = ChainConfig(N=100, t_end=0.01, seed=9)
        a = make_initial_state(cfg, 0.3, model)
        b = make_initial_state(cfg, 0.3, model)
        assert np.array_equal(a.r, b.r) and np.array_equal(a.p, b.p)


def zero_noise_step(st, taub, cfg, model):
    """The drift leg alone: one step with zero noise increments moves the
    state by dt_fine times the drift rates."""
    zero = (np.zeros(cfg.N - 1), np.zeros(cfg.N - 1))
    return step(st, cfg, zero, model, tau_bar=taub)


class TestDrift:
    # where a rate is exactly 0 the state does not move by a single bit
    def test_equilibrium_fixed_point(self, model):
        cfg = ChainConfig(N=32, t_end=0.01)
        st, taub = fixed_point_state(model, 32)
        st2 = zero_noise_step(st, taub, cfg, model)
        assert np.array_equal(st2.r, st.r)
        assert np.array_equal(st2.p, st.p)

    def test_boundary_forcing_only(self, model):
        cfg = ChainConfig(N=32, t_end=0.01)
        st, taub = fixed_point_state(model, 32)
        st2 = zero_noise_step(st, taub + 1.0, cfg, model)
        assert np.array_equal(st2.r, st.r)
        assert np.array_equal(st2.p[:-1], st.p[:-1])
        assert (st2.p[-1] - st.p[-1]) / cfg.dt_fine == pytest.approx(32.0)

    def test_constant_field_laplacians_vanish(self, model):
        cfg = ChainConfig(N=16, t_end=0.01, sigma=8.0)
        st = ChainState(r=np.full(16, -1.3), p=np.full(16, 0.4), t=0.0)
        taub = float(model.dV(-1.3))
        st2 = zero_noise_step(st, taub, cfg, model)
        # r-drift reduces to the wall gradient term, p-drift to boundary forcing
        assert (st2.r[0] - st.r[0]) / cfg.dt_fine == pytest.approx(16 * 0.4)
        assert np.array_equal(st2.r[1:], st.r[1:])
        assert np.array_equal(st2.p, st.p)


class TestStep:
    def test_fixed_point_with_zero_noise(self, model):
        cfg = ChainConfig(N=24, t_end=0.01)
        st, taub = fixed_point_state(model, 24)
        zero = (np.zeros(23), np.zeros(23))
        st2 = step(st, cfg, zero, model, tau_bar=taub)
        assert np.allclose(st2.r, st.r, atol=1e-15)
        assert np.allclose(st2.p, st.p, atol=1e-15)
        assert st2.t == pytest.approx(cfg.dt_fine)

    def test_noise_only_conservation(self, model):
        # at the drift fixed point the update is pure noise: sums telescoped
        cfg = ChainConfig(N=100, t_end=0.01, seed=4)
        st, taub = fixed_point_state(model, 100, rho=0.7)
        rng = np.random.default_rng(17)
        for _ in range(20):
            inc = draw_increments(rng, cfg.N, cfg.dt_fine)
            st2 = step(st, cfg, inc, model, tau_bar=taub)
            scale_r = np.abs(st2.r).sum() + 1.0
            scale_p = np.abs(st2.p).sum() + 1.0
            assert abs(st2.r.sum() - st.r.sum()) <= 1e-12 * scale_r
            assert abs(st2.p.sum() - st.p.sum()) <= 1e-12 * scale_p
            # drift contributions stay zero only at the fixed point; reset r
            st = ChainState(st.r, st2.p - (st2.p - st.p), st.t)

    def test_trajectory_determinism(self, model):
        cfg = ChainConfig(N=48, t_end=0.02, seed=21, tension_schedule=ConstantSchedule(0.2))
        a = run_trajectory(cfg, 0.2, model)
        b = run_trajectory(cfg, 0.2, model)
        for sa, sb in zip(a.snapshots, b.snapshots):
            assert np.array_equal(sa.r, sb.r) and np.array_equal(sa.p, sb.p)
        assert np.array_equal(a.ledger.W, b.ledger.W)
        assert np.array_equal(a.ledger.first_law_residual, b.ledger.first_law_residual)

    def test_blow_up_detection(self, model):
        cfg = ChainConfig(N=16, t_end=0.01)
        st = ChainState(r=1e308 * (-1.0) ** np.arange(16), p=np.zeros(16), t=0.0)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BlowUpError):
            step(st, cfg, (np.zeros(15), np.zeros(15)), model, tau_bar=0.0)

    def test_run_blow_up_names_step(self, model):
        cfg = ChainConfig(N=16, t_end=0.01, seed=1)
        bad = ChainState(r=1e300 * (-1.0) ** np.arange(16), p=np.zeros(16), t=0.0)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            BlowUpError, match="step"
        ):
            run_trajectory(cfg, 0.0, model, initial_state=bad)

    def test_nonfinite_state_is_a_blow_up(self, model):
        # never the ValueError with which eval_potential rejects such strains
        cfg = ChainConfig(N=16, t_end=0.01, seed=1, record_times=np.array([0.01]))
        zero = (np.zeros(15), np.zeros(15))
        for r, p in ((np.full(16, np.nan), np.zeros(16)), (np.zeros(16), np.full(16, np.inf))):
            bad = ChainState(r=r, p=p, t=0.0)
            with np.errstate(invalid="ignore"):
                with pytest.raises(BlowUpError, match="step 1,"):
                    run_trajectory(cfg, 0.0, model, initial_state=bad)
                with pytest.raises(BlowUpError):
                    step(bad, cfg, zero, model, tau_bar=0.0)

    @pytest.mark.parametrize("record_times", [None, [0.0, 0.01], [0.0]])
    @pytest.mark.parametrize(
        "site, value", [("r", math.nan), ("r", math.inf), ("p", math.inf), ("p", -math.inf)]
    )
    def test_nonfinite_start_with_record_at_zero(self, model, record_times, site, value):
        # a record at t = 0 used to raise eval_potential's bare ValueError,
        # and inf momenta a RuntimeWarning from the drift; Tier-1 turns any
        # RuntimeWarning into an error, so none may be emitted here
        if record_times is not None:
            record_times = np.array(record_times)
        cfg = ChainConfig(N=16, t_end=0.01, seed=1, record_times=record_times)
        state = {"r": np.zeros(16), "p": np.zeros(16)}
        state[site][3] = value
        bad = ChainState(r=state["r"], p=state["p"], t=0.0)
        with pytest.raises(BlowUpError, match=f"step 1, t={cfg.dt:.6g}$"):
            run_trajectory(cfg, 0.0, model, initial_state=bad)
        with pytest.raises(BlowUpError, match="step 1,"):
            step(bad, cfg, (np.zeros(15), np.zeros(15)), model, tau_bar=0.0)

    def test_mid_block_blow_up_names_its_step(self, model, monkeypatch):
        # the default block finds the overflow of step 11 among the block's
        # rows after the later steps have run, a one-step block at once
        cfg = blow_up_at_step_11_config()
        assert microchain._block_steps(32) > 11
        messages = []
        for budget in (microchain._BLOCK_BYTES, 1):
            monkeypatch.setattr(microchain, "_BLOCK_BYTES", budget)
            with pytest.raises(BlowUpError) as err:
                run_trajectory(cfg, 0.1, model)
            messages.append(str(err.value))
        assert microchain._block_steps(32) == 1
        assert messages == [f"non-finite state at step 11, t={11 * cfg.dt:.6g}"] * 2

    def test_chunking_invariance(self, model, monkeypatch):
        # the noise is drawn row by row and the step is one function, so
        # neither the record times nor the chunk length may change the result
        t_end = 60 * 0.1 / (32 * 14)
        runs = []
        for n_records, chunk in ((2, None), (41, None), (2, 7), (41, 7)):
            if chunk is not None:
                monkeypatch.setattr(microchain, "_CHUNK_COARSE", chunk)
            cfg = ChainConfig(
                N=32,
                t_end=t_end,
                seed=23,
                refine_level=1,
                tension_schedule=RampSchedule(0.1, 0.6, t1=t_end / 2),
                record_times=np.linspace(0.0, t_end, n_records),
            )
            res = run_trajectory(cfg, 0.1, model)
            led = res.ledger
            row = [led.E, led.W, led.Q_p, led.Q_r, led.martingale_p, led.martingale_r]
            runs.append((res.snapshots[-1], np.array([col[-1] for col in row])))
        first_state, first_row = runs[0]
        for state, row in runs[1:]:
            assert np.array_equal(state.r, first_state.r)
            assert np.array_equal(state.p, first_state.p)
            assert np.array_equal(row, first_row)

    def test_chunk_byte_bound_changes_no_bit(self, model, monkeypatch):
        # a byte budget below one coarse row forces 1-row noise chunks
        t_end = 20 * 0.1 / (32 * 14)
        cfg = ChainConfig(
            N=32,
            t_end=t_end,
            seed=31,
            refine_level=2,
            tension_schedule=RampSchedule(0.1, 0.6, t1=t_end / 2),
            record_times=np.linspace(0.0, t_end, 6),
        )
        runs = []
        for budget in (microchain._CHUNK_BYTES, 1):
            monkeypatch.setattr(microchain, "_CHUNK_BYTES", budget)
            runs.append(run_trajectory(cfg, 0.1, model))
        assert microchain._chunk_rows(32, 2) == 1
        a, b = runs
        for sa, sb in zip(a.snapshots, b.snapshots):
            assert np.array_equal(sa.r, sb.r) and np.array_equal(sa.p, sb.p)
        for col in ("E", "W", "Q_p", "Q_r", "martingale_p", "martingale_r"):
            assert np.array_equal(getattr(a.ledger, col), getattr(b.ledger, col))

    def test_block_byte_bound_changes_no_bit(self, model, monkeypatch):
        # blocks of the default length, of 7 steps and of one step; 7 divides
        # neither the 25-row noise chunk nor the level-2 chunk of 100 rows.
        # The records fall on block edges (step 7, 14 and the chunk ends) and
        # inside blocks, at both levels.
        monkeypatch.setattr(microchain, "_CHUNK_COARSE", 25)
        budgets = ((microchain._BLOCK_BYTES, 128), (7 * 3 * 32 * 8, 7), (1, 1))
        for level in (0, 2):
            t_end = 60 * 0.1 / (32 * 14)
            cfg = ChainConfig(
                N=32,
                t_end=t_end,
                seed=37,
                refine_level=level,
                tension_schedule=RampSchedule(0.1, 0.6, t1=t_end / 2),
                record_times=np.array([0, 7, 10, 14, 25, 31, 49, 50, 60]) * (t_end / 60),
            )
            runs = []
            for budget, steps in budgets:
                monkeypatch.setattr(microchain, "_BLOCK_BYTES", budget)
                assert microchain._block_steps(32) == steps
                runs.append(run_trajectory(cfg, 0.1, model))
            first = runs[0]
            assert len(first.snapshots) == 9
            for res in runs[1:]:
                assert res.n_steps == first.n_steps == cfg.n_steps
                for sa, sb in zip(first.snapshots, res.snapshots):
                    assert np.array_equal(sa.r, sb.r) and np.array_equal(sa.p, sb.p)
                    assert sa.t == sb.t
                for col in ("t", "E", "W", "Q_p", "Q_r", "martingale_p", "martingale_r"):
                    assert np.array_equal(getattr(first.ledger, col), getattr(res.ledger, col))

    def test_chunk_rows_bounded_by_bytes(self):
        # N = 16384 at level 2: a coarse row is 4 fine rows of (dw, dwt) over
        # 16383 bonds, about 1 MiB, so 8 rows fit, not _CHUNK_COARSE
        rows = microchain._chunk_rows(16384, 2)
        assert rows == 8
        assert rows * 4 * 2 * 16383 * 8 <= microchain._CHUNK_BYTES
        # small chains keep the row cap
        assert microchain._chunk_rows(32, 0) == microchain._CHUNK_COARSE

    def test_carried_derivatives_change_no_bit(self, model):
        # run_trajectory passes V' from one step to the next; step and
        # accumulate_ledger evaluate them afresh, and must agree to the bit
        t_end = 12 * 0.1 / (32 * 14)
        cfg = ChainConfig(
            N=32,
            t_end=t_end,
            seed=31,
            refine_level=1,
            tension_schedule=RampSchedule(0.1, 0.6, t1=t_end),
            record_times=np.linspace(0.0, t_end, 25),
        )
        res = run_trajectory(cfg, 0.1, model)
        st = make_initial_state(cfg, 0.1, model)
        dw, dwt = BridgedNoise(cfg.seed, cfg.N - 1, cfg.dt, 1).next_chunk(cfg.n_coarse)
        led_run = res.ledger
        cols = [led_run.W, led_run.Q_p, led_run.Q_r, led_run.martingale_p, led_run.martingale_r]
        acc = np.zeros(5)
        for k in range(cfg.n_steps):
            taub = float(cfg.tension_schedule(k * cfg.dt_fine))
            st2 = step(st, cfg, (dw[k], dwt[k]), model, tau_bar=taub)
            led = accumulate_ledger(st, st2, taub, cfg, (dw[k], dwt[k]), model)
            acc += [led.W, led.Q_p, led.Q_r, led.martingale_p, led.martingale_r]
            st = st2
            snap = res.snapshots[k + 1]
            assert np.array_equal(st.r, snap.r) and np.array_equal(st.p, snap.p)
            assert np.array_equal(acc, [col[k + 1] for col in cols])
            assert led.E == led_run.E[k + 1]

    def test_starts_at_state_time(self, model):
        cfg = ChainConfig(N=32, t_end=0.01, seed=5, record_times=np.array([0.0, 0.01]))
        st = make_initial_state(cfg, 0.0, model)
        st.t = 0.1
        res = run_trajectory(cfg, 0.0, model, initial_state=st)
        assert cfg.n_steps == 45
        expected = [0.1, 0.1 + 45 * cfg.dt]  # 0.01 snaps to step 45, t = 0.01004
        assert [s.t for s in res.snapshots] == expected
        assert res.ledger.t.tolist() == expected

    def test_tension_read_at_state_time(self, model):
        # a run from t0 under tau(t) equals a run from 0 under tau(t + t0)
        t_end = 40 * 0.1 / (32 * 14)
        ramp = RampSchedule(0.0, 0.5, t1=2 * t_end)
        runs = []
        for t0, schedule in ((t_end, ramp), (0.0, lambda t: ramp(np.asarray(t) + t_end))):
            cfg = ChainConfig(N=32, t_end=t_end, seed=8, tension_schedule=schedule)
            st = make_initial_state(cfg, 0.0, model)
            st.t = t0
            runs.append(run_trajectory(cfg, 0.0, model, initial_state=st))
        a, b = runs
        assert np.array_equal(a.snapshots[-1].r, b.snapshots[-1].r)
        assert np.array_equal(a.ledger.W, b.ledger.W)
        assert np.array_equal(a.ledger.Q_r, b.ledger.Q_r)
        assert a.ledger.W[-1] != 0.0

    def test_start_state_shape_checked(self, model):
        # a length-1 state used to broadcast over the whole chain
        cfg = ChainConfig(N=32, t_end=0.01, seed=1)
        good = np.zeros(32)
        for name, r, p in (
            ("r", np.array([0.1]), np.array([0.0])),
            ("r", np.zeros(31), good),
            ("p", good, np.zeros((1, 32))),
        ):
            st = ChainState(r=r, p=p, t=0.0)
            with pytest.raises(ValueError, match=f"start state {name} has shape .* N=32"):
                run_trajectory(cfg, 0.0, model, initial_state=st)

    def test_nonfinite_start_time_rejected(self, model):
        cfg = ChainConfig(N=16, t_end=0.01, seed=1)
        st = make_initial_state(cfg, 0.0, model)
        for bad in (math.nan, math.inf):
            st.t = bad
            with pytest.raises(ValueError, match="state t must be finite"):
                run_trajectory(cfg, 0.0, model, initial_state=st)

    def test_nonfinite_tension_rejected_before_step_one(self, model):
        # named as the tension, not a blow-up of the state it produces
        for tau in (math.nan, math.inf):
            cfg = ChainConfig(N=16, t_end=0.01, seed=1, tension_schedule=ConstantSchedule(tau))
            with pytest.raises(ValueError, match=f"boundary tension {tau} for step 1$"):
                run_trajectory(cfg, 0.0, model)
        # a tension that turns non-finite later is named at its own step
        cfg = ChainConfig(N=16, t_end=0.01, seed=1, tension_schedule=lambda t: np.where(
            np.asarray(t) < 0.005, 0.1, np.nan))
        step_1 = int(np.ceil(0.005 / cfg.dt)) + 1
        with pytest.raises(ValueError, match=f"boundary tension nan for step {step_1}$"):
            run_trajectory(cfg, 0.0, model)

    def test_step_names_nonfinite_tension(self, model):
        # a non-finite tension used to surface as "non-finite state after step"
        cfg = ChainConfig(N=16, t_end=0.01)
        st, _ = fixed_point_state(model, 16)
        zero = (np.zeros(15), np.zeros(15))
        for tau in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"non-finite boundary tension {tau}"):
                step(st, cfg, zero, model, tau_bar=tau)
        with pytest.raises(TypeError):  # no schedule lookup: the tension is required
            step(st, cfg, zero, model)

    def test_run_from_zero_times_are_step_multiples(self, model):
        cfg = ChainConfig(N=32, t_end=0.01, seed=5, record_times=np.array([0.0, 0.004, 0.01]))
        res = run_trajectory(cfg, 0.0, model)
        steps = np.round(cfg.record_times / cfg.dt).astype(int)
        assert res.ledger.t.tolist() == [int(k) * cfg.dt for k in steps]


class TestNoiseWorker:
    """run_trajectory draws its noise chunks on one worker thread; the thread
    never outlives the run, and its exceptions reach the caller."""

    def test_worker_joined_after_return(self, model):
        before = threading.enumerate()
        seen = []

        def schedule(t):  # called on the main thread before each chunk's steps
            seen.append([th.name for th in threading.enumerate()])
            return np.full(np.shape(t), 0.1)

        cfg = ChainConfig(N=32, t_end=0.02, seed=2, tension_schedule=schedule)
        assert len(microchain._chunk_sizes(cfg.n_coarse, 32, 0)) > 2
        run_trajectory(cfg, 0.1, model)
        assert any(name.startswith("hydrochain-noise") for names in seen for name in names)
        assert threading.enumerate() == before

    def test_worker_joined_after_blow_up(self, model):
        before = threading.enumerate()
        cfg = blow_up_at_step_11_config()
        with pytest.raises(BlowUpError, match="step 11,"):
            run_trajectory(cfg, 0.1, model)
        assert threading.enumerate() == before

    def test_worker_joined_after_late_nonfinite_tension(self, model):
        # the tension turns NaN in the third chunk, with the next one drawn
        before = threading.enumerate()
        dt = 0.1 / (16 * 8)
        cfg = ChainConfig(N=16, t_end=40 * dt, seed=1, tension_schedule=lambda t: np.where(
            np.asarray(t) < 9.5 * dt, 0.1, np.nan))
        assert microchain._chunk_sizes(cfg.n_coarse, 16, 0)[:3] == [2, 4, 8]
        with pytest.raises(ValueError, match="boundary tension nan for step 11$"):
            run_trajectory(cfg, 0.1, model)
        assert threading.enumerate() == before

    def test_worker_exception_reaches_caller(self, model, monkeypatch):
        before = threading.enumerate()
        boom = OSError("noise source failed")
        draw = BridgedNoise.next_chunk
        calls = []

        def failing(self, n_coarse):
            calls.append(n_coarse)
            if len(calls) == 2:
                raise boom
            return draw(self, n_coarse)

        monkeypatch.setattr(BridgedNoise, "next_chunk", failing)
        cfg = ChainConfig(N=32, t_end=0.02, seed=2)
        with pytest.raises(OSError) as err:
            run_trajectory(cfg, 0.1, model)
        assert err.value is boom
        assert len(calls) == 2
        assert threading.enumerate() == before

    def test_concurrent_runs_under_fast_switching_change_no_bit(self, model):
        # four runs at once, each with its own worker, with the interpreter
        # switching threads every microsecond: a chunk handed over before it
        # is drawn, or drawn out of order, would change the bits
        t_end = 30 * 0.1 / (32 * 14)
        cfgs = [
            ChainConfig(N=32, t_end=t_end, seed=seed, refine_level=1,
                        tension_schedule=RampSchedule(0.1, 0.6, t1=t_end))
            for seed in (41, 42, 43, 44)
        ]
        expected = [run_trajectory(cfg, 0.1, model) for cfg in cfgs]
        results = [None] * len(cfgs)

        def run(i):
            results[i] = run_trajectory(cfgs[i], 0.1, model)

        before = threading.enumerate()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(cfgs))]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
                assert not th.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert threading.enumerate() == before
        for a, b in zip(expected, results):
            assert np.array_equal(a.snapshots[-1].r, b.snapshots[-1].r)
            assert np.array_equal(a.snapshots[-1].p, b.snapshots[-1].p)
            for col in ("E", "W", "Q_p", "Q_r", "martingale_p", "martingale_r"):
                assert np.array_equal(getattr(a.ledger, col), getattr(b.ledger, col))

    @pytest.mark.parametrize("level", [0, 2])
    @pytest.mark.parametrize("cap_rows", [None, 5])
    def test_chunk_schedule_draws_one_call_to_the_bit(self, level, cap_rows, monkeypatch):
        # cap_rows = 5 shrinks the byte budget so that the cap binds
        n, n_coarse = 32, 37
        if cap_rows is not None:
            row_bytes = 2**level * 2 * (n - 1) * 8
            monkeypatch.setattr(microchain, "_CHUNK_BYTES", cap_rows * row_bytes)
        cap = microchain._chunk_rows(n, level)
        assert cap == (cap_rows or microchain._CHUNK_COARSE)
        sizes = microchain._chunk_sizes(n_coarse, n, level)
        assert sum(sizes) == n_coarse
        assert sizes[0] <= 2 and max(sizes) <= cap
        if cap_rows is not None:
            assert sizes.count(cap) > 1
        one = BridgedNoise(17, n - 1, 1e-3, level).next_chunk(n_coarse)
        noise = BridgedNoise(17, n - 1, 1e-3, level)
        parts = [noise.next_chunk(size) for size in sizes]
        for col in (0, 1):
            assert np.array_equal(one[col], np.concatenate([q[col] for q in parts]))


class TestLedger:
    def test_recorded_energy_is_snapshot_energy(self, model):
        # a record reads E from the V that the step carries, not from a
        # second potential call; both must give the same bits
        t_end = 30 * 0.1 / (32 * 14)
        cfg = ChainConfig(
            N=32,
            t_end=t_end,
            seed=13,
            refine_level=1,
            tension_schedule=RampSchedule(0.0, 0.5, t1=t_end),
            record_times=np.linspace(0.0, t_end, 7),
        )
        res = run_trajectory(cfg, 0.0, model)
        assert len(res.snapshots) == 7
        energies = [energy_per_particle(snap, model) for snap in res.snapshots]
        assert res.ledger.E.tolist() == energies
        assert len(set(energies)) == 7

    def test_frozen_chain_net_zero(self, model):
        # zero increments at the drift fixed point: no energy, work or heat
        # moves; the QV counterterm only shifts between Q and M columns
        cfg = ChainConfig(N=24, t_end=0.01)
        st, taub = fixed_point_state(model, 24)
        zero = (np.zeros(23), np.zeros(23))
        st2 = step(st, cfg, zero, model, tau_bar=taub)
        led = accumulate_ledger(st, st2, taub, cfg, zero, model)
        e1 = np.mean(st.p**2) / 2 + np.mean(model.V(st.r))
        assert led.W == 0.0
        assert led.heat == pytest.approx(0.0, abs=1e-15)
        assert led.E == pytest.approx(e1, abs=1e-15)
        assert led.Q_p == pytest.approx(-led.martingale_p, abs=1e-15)

    def test_work_is_taubar_dL_exactly(self, model):
        cfg = ChainConfig(N=64, t_end=0.01, seed=3)
        st = make_initial_state(cfg, 0.4, model)
        rng = np.random.default_rng(8)
        inc = draw_increments(rng, cfg.N, cfg.dt_fine)
        st2 = step(st, cfg, inc, model, tau_bar=0.9)
        led = accumulate_ledger(st, st2, 0.9, cfg, inc, model)
        assert led.W == pytest.approx(0.9 * (st2.r.mean() - st.r.mean()), abs=1e-16)

    def test_public_ops_match_kernel(self, model):
        """step + accumulate_ledger replayed stepwise reproduce run_trajectory."""
        cfg = ChainConfig(
            N=32,
            t_end=20 * 0.1 / (32 * 14),
            seed=13,
            tension_schedule=RampSchedule(0.1, 0.6, t1=0.01),
            record_times=np.array([0.0, 20 * 0.1 / (32 * 14)]),
        )
        res = run_trajectory(cfg, 0.1, model)
        st = make_initial_state(cfg, 0.1, model)
        noise = BridgedNoise(cfg.seed, cfg.N - 1, cfg.dt, 0)
        dw, dwt = noise.next_chunk(cfg.n_coarse)
        acc = {"W": 0.0, "Q_p": 0.0, "Q_r": 0.0, "M_p": 0.0, "M_r": 0.0}
        for k in range(cfg.n_steps):
            taub = float(cfg.tension_schedule(k * cfg.dt))
            st2 = step(st, cfg, (dw[k], dwt[k]), model, tau_bar=taub)
            led = accumulate_ledger(st, st2, taub, cfg, (dw[k], dwt[k]), model)
            acc["W"] += led.W
            acc["Q_p"] += led.Q_p
            acc["Q_r"] += led.Q_r
            acc["M_p"] += led.martingale_p
            acc["M_r"] += led.martingale_r
            st = st2
        assert np.allclose(st.r, res.snapshots[-1].r, atol=1e-12)
        assert np.allclose(st.p, res.snapshots[-1].p, atol=1e-12)
        assert acc["W"] == pytest.approx(res.ledger.W[-1], abs=1e-12)
        assert acc["Q_p"] == pytest.approx(res.ledger.Q_p[-1], abs=1e-10)
        assert acc["Q_r"] == pytest.approx(res.ledger.Q_r[-1], abs=1e-10)
        assert acc["M_p"] == pytest.approx(res.ledger.martingale_p[-1], abs=1e-10)
        assert acc["M_r"] == pytest.approx(res.ledger.martingale_r[-1], abs=1e-10)

    def test_first_law_refinement_smoke(self, model):
        sched = RampSchedule(tau0=0.0, tau1=0.5, t1=0.025)
        res = []
        for lev in range(2):
            cfg = ChainConfig(
                N=64,
                t_end=0.05,
                seed=6,
                tension_schedule=sched,
                refine_level=lev,
                record_times=np.array([0.0, 0.05]),
            )
            out = run_trajectory(cfg, 0.0, model)
            res.append(out.ledger.first_law_residual[-1])
        assert 0.25 <= res[1] / res[0] <= 0.75


class TestTrajectoryStatistics:
    def test_stationarity_smoke(self, model):
        cfg = ChainConfig(
            N=128,
            t_end=0.2,
            seed=31,
            tension_schedule=ConstantSchedule(0.5),
            record_times=np.linspace(0.0, 0.2, 41),
        )
        res = run_trajectory(cfg, 0.5, model)
        rho = model.mean_strain(0.5)
        tail = [s for s in res.snapshots if s.t >= 0.1]
        r_avg = np.mean([s.r.mean() for s in tail])
        p_avg = np.mean([s.p.mean() for s in tail])
        vp_avg = np.mean([model.dV(s.r).mean() for s in tail])
        # single replica: allow generous Monte Carlo bands ~ 3 sd of a single
        # site mean (time correlation of the conserved fields is long)
        band = 3.0 * math.sqrt(1.4 / cfg.N)
        assert abs(r_avg - rho) <= band
        assert abs(p_avg) <= band
        assert abs(vp_avg - 0.5) <= band

    def test_energy_bound_uniform_in_n(self, model):
        vals = {}
        for n in (128, 256):
            cfg = ChainConfig(
                N=n,
                t_end=0.05,
                seed=7,
                tension_schedule=ConstantSchedule(0.3),
                record_times=np.array([0.05]),
            )
            res = run_trajectory(cfg, 0.3, model)
            st = res.snapshots[-1]
            vals[n] = float(np.mean(st.p**2 + st.r**2))
        assert vals[128] < 4.0 and vals[256] < 4.0

    def test_step_schedule_runs(self, model):
        cfg = ChainConfig(
            N=32,
            t_end=0.02,
            seed=3,
            tension_schedule=StepSchedule(0.0, 0.5, t_step=0.01),
            record_times=np.array([0.0, 0.02]),
        )
        res = run_trajectory(cfg, 0.0, model)
        assert math.isfinite(res.ledger.W[-1])


class TestBridgedNoise:
    def test_children_sum_to_parent(self):
        coarse = BridgedNoise(99, 10, 1e-4, 0)
        fine = BridgedNoise(99, 10, 1e-4, 2)
        dw0, dwt0 = coarse.next_chunk(8)
        dw2, dwt2 = fine.next_chunk(8)
        assert np.allclose(dw2.reshape(8, 4, 10).sum(axis=1), dw0, atol=1e-15)
        assert np.allclose(dwt2.reshape(8, 4, 10).sum(axis=1), dwt0, atol=1e-15)

    def test_variance_scaling(self):
        fine = BridgedNoise(5, 200, 1e-4, 3)
        dw, dwt = fine.next_chunk(256)
        assert dw.var() == pytest.approx(1e-4 / 8, rel=0.05)
        assert dwt.var() == pytest.approx(1e-4 / 8, rel=0.05)

    def test_chunking_invariance(self):
        a = BridgedNoise(42, 31, 2e-5, 1)
        b = BridgedNoise(42, 31, 2e-5, 1)
        one = a.next_chunk(64)
        parts = [b.next_chunk(16) for _ in range(4)]
        assert np.array_equal(one[0], np.concatenate([q[0] for q in parts]))
        assert np.array_equal(one[1], np.concatenate([q[1] for q in parts]))
