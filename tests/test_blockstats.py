"""Block-average tests: hand-computed kernel values, the exact hat/bar
difference identity, statistic trivia and manufactured-solution residuals."""

import math

import numpy as np
import pytest

from hydrochain.blockstats import (
    BlockSpec,
    ConfigurationError,
    EmpiricalField,
    bar_average,
    default_block_width,
    empirical_pairing,
    etahat_identity_gap,
    hat_average,
    hat_bar_gap_statistic,
    hat_profile,
    one_block_statistic,
    triangular_kernel,
    two_block_statistic,
    weak_residual,
)
from hydrochain.microchain import ChainState
from hydrochain.testfunctions import SpaceTimeTestFunction, default_test_functions
from hydrochain.thermo import PotentialParams, ThermoModel


@pytest.fixture(scope="module")
def model():
    return ThermoModel(beta=1.0, potential=PotentialParams(kappa=0.25, moll_width=0.1))


@pytest.fixture(scope="module")
def harmonic():
    return ThermoModel(beta=1.0, potential=PotentialParams(kappa=0.0, moll_width=0.1))


class TestKernels:
    @pytest.mark.parametrize("l", [1, 2, 3, 8, 21])
    def test_normalization(self, l):
        assert triangular_kernel(l).sum() == pytest.approx(1.0, abs=1e-14)

    def test_hat_constant(self):
        u = np.full(30, 3.7)
        for l in (1, 2, 5):
            assert hat_average(u, l, 10) == pytest.approx(3.7, abs=1e-13)

    def test_hat_hand_value(self):
        u = np.arange(1.0, 11.0)  # u_j = j, 1-based
        assert hat_average(u, 2, 3) == pytest.approx(3.0, abs=1e-14)

    def test_hat_degenerate(self):
        u = np.array([5.0, -1.0, 2.0])
        assert hat_average(u, 1, 2) == -1.0

    def test_bar_hand_value(self):
        u = np.arange(1.0, 11.0) ** 2  # u_j = j^2
        assert bar_average(u, 2, 5) == pytest.approx(20.5, abs=1e-14)

    def test_bar_degenerate_and_constant(self):
        u = np.full(12, -0.4)
        assert bar_average(u, 1, 7) == pytest.approx(-0.4)
        assert bar_average(u, 4, 12) == pytest.approx(-0.4, abs=1e-14)

    def test_window_validation(self):
        u = np.arange(10.0)
        with pytest.raises(ConfigurationError):
            hat_average(u, 3, 2)
        with pytest.raises(ConfigurationError):
            hat_average(u, 3, 9)
        with pytest.raises(ConfigurationError):
            bar_average(u, 4, 3)

    def test_default_width(self):
        assert default_block_width(512) == 64
        assert default_block_width(128) == 26


class TestEtahatIdentity:
    def test_hand_value(self):
        u = np.arange(1.0, 11.0) ** 2
        # hat side: 16.5 - 9.5 = 7; bar side: (20.5 - 6.5)/2 = 7
        assert hat_average(u, 2, 4) == pytest.approx(16.5)
        assert hat_average(u, 2, 3) == pytest.approx(9.5)
        assert bar_average(u, 2, 3) == pytest.approx(6.5)
        assert etahat_identity_gap(u, 2, 3) == pytest.approx(0.0, abs=1e-13)

    def test_constant_exact(self):
        u = np.full(20, 2.5)
        assert etahat_identity_gap(u, 4, 9) == 0.0

    def test_random_all_admissible(self):
        rng = np.random.default_rng(3)
        u = rng.normal(scale=10.0, size=40)
        scale = np.abs(u).max()
        for l in (2, 3, 5, 8):
            for i in range(l, 40 - l + 1):
                if i + l <= 40:
                    assert etahat_identity_gap(u, l, i) <= 1e-12 * scale


class TestOneBlock:
    def test_uniform_state_value(self, model):
        n, l, rho = 64, 4, 0.9
        st = ChainState(r=np.full(n, rho), p=np.zeros(n), t=0.0)
        expected = (model.dV(rho) - model.tension_of_strain(rho)) ** 2
        got = one_block_statistic(st, BlockSpec(l=l, N=n), model)
        count = n - 2 * l + 2
        assert got == pytest.approx(count / n * expected, rel=1e-5)
        assert got > 0.0  # V' != tau pointwise for the asymmetric potential

    def test_harmonic_uniform_is_zero(self, harmonic):
        # kappa=0: V'(rho) = tau(rho) = rho, so the statistic vanishes
        st = ChainState(r=np.full(64, 0.9), p=np.zeros(64), t=0.0)
        got = one_block_statistic(st, BlockSpec(l=4, N=64), harmonic)
        assert got <= 1e-13

    def test_harmonic_any_state_near_zero(self, harmonic):
        rng = np.random.default_rng(5)
        st = ChainState(r=rng.normal(0.5, 1.0, 128), p=np.zeros(128), t=0.0)
        got = one_block_statistic(st, BlockSpec(l=8, N=128), harmonic)
        assert got <= 1e-12


class TestTwoBlock:
    def test_constant_state(self, model):
        st = ChainState(r=np.full(50, 1.1), p=np.full(50, -0.3), t=0.0)
        spec = BlockSpec(l=5, N=50)
        for sel in ("r", "p", "Vp", "tau"):
            assert two_block_statistic(st, spec, sel, model) == pytest.approx(
                0.0, abs=1e-16
            )

    def test_linear_profile_exact(self, model):
        n, l, a = 100, 8, 2.0
        st = ChainState(r=a * np.arange(1, n + 1) / n, p=np.zeros(n), t=0.0)
        got = two_block_statistic(st, BlockSpec(l=l, N=n), "r", model)
        expected = (n - 2 * l + 1) * a**2 / n**3
        assert got == pytest.approx(expected, rel=1e-10)

    def test_momentum_shift_invariance(self, model):
        rng = np.random.default_rng(8)
        p = rng.normal(size=80)
        spec = BlockSpec(l=6, N=80)
        a = two_block_statistic(ChainState(np.zeros(80), p, 0.0), spec, "p", model)
        b = two_block_statistic(ChainState(np.zeros(80), p + 5.0, 0.0), spec, "p", model)
        assert a == pytest.approx(b, rel=1e-10)


class TestHatBarGap:
    def test_constant_state(self, model):
        st = ChainState(r=np.full(40, 0.2), p=np.zeros(40), t=0.0)
        assert hat_bar_gap_statistic(st, BlockSpec(l=4, N=40), "r", model) == pytest.approx(
            0.0, abs=1e-16
        )

    def test_linear_sequence_closed_form(self, model):
        # hat average of u_j = j is i; bar average is i - (l-1)/2
        n, l = 60, 5
        st = ChainState(r=np.arange(1.0, n + 1), p=np.zeros(n), t=0.0)
        got = hat_bar_gap_statistic(st, BlockSpec(l=l, N=n), "r", model)
        expected = (n - 2 * l + 2) * ((l - 1) / 2.0) ** 2 / n
        assert got == pytest.approx(expected, rel=1e-10)

    def test_tau_selector_rejected(self, model):
        st = ChainState(r=np.zeros(40), p=np.zeros(40), t=0.0)
        with pytest.raises(ConfigurationError):
            hat_bar_gap_statistic(st, BlockSpec(l=4, N=40), "tau", model)


class TestEmpiricalField:
    def test_coverage_and_zero_outside(self):
        st = ChainState(r=np.full(64, 1.5), p=np.zeros(64), t=0.0)
        f = EmpiricalField.from_state(st, BlockSpec(l=8, N=64))
        r_in, _ = f.evaluate(0.5)
        assert r_in[0] == pytest.approx(1.5, abs=1e-13)
        r_out, _ = f.evaluate(0.01)
        assert r_out[0] == 0.0

    def test_pairing_constant_state(self, model):
        n, l, rho = 64, 8, 0.7
        st = ChainState(r=np.full(n, rho), p=np.zeros(n), t=0.0)
        res = empirical_pairing(st, BlockSpec(l=l, N=n), lambda x: 1.0, "r")
        assert res.raw == pytest.approx(rho, abs=1e-13)
        assert res.field == pytest.approx(rho * (n - 2 * l + 2) / n, abs=1e-13)

    def test_pairing_gap_shrinks_with_n(self):
        J = lambda x: math.sin(math.pi * x)
        gaps = []
        for n in (100, 400):
            st = ChainState(r=np.arange(1, n + 1) / n, p=np.zeros(n), t=0.0)
            spec = BlockSpec(l=default_block_width(n), N=n)
            gaps.append(empirical_pairing(st, spec, J, "r").gap)
        assert gaps[1] < 0.5 * gaps[0]


def dalembert_fields(n, times, amp=0.25):
    """Exact harmonic p-system solution r = f(x+t) + g(x-t), p = f(x+t) - g(x-t)."""

    def f(y):
        u = (y - 0.45) / 0.18
        return amp * (1 - u * u) ** 3 if abs(u) < 1 else 0.0

    def g(y):
        u = (y - 0.55) / 0.18
        return 0.5 * amp * (1 - u * u) ** 3 if abs(u) < 1 else 0.0

    fields = []
    x = np.arange(1, n + 1) / n
    for t in times:
        r = np.array([f(xi + t) + g(xi - t) for xi in x])
        p = np.array([f(xi + t) - g(xi - t) for xi in x])
        fields.append(EmpiricalField(r_hat=r, p_hat=p, N=n, l=1, t=t))
    return fields


def pointwise_weak_residual(fields, phi, psi, model):
    """weak_residual written as a loop over sites with scalar calls."""
    res_r, res_p = [], []
    for f in fields:
        tau = model.tau_of_rho(f.r_hat)
        s_r = s_p = 0.0
        for xi, r, p, ta in zip(f.x, f.r_hat, f.p_hat, tau):
            s_r += r * phi.dt(f.t, xi) - p * phi.dx(f.t, xi)
            s_p += p * psi.dt(f.t, xi) - ta * psi.dx(f.t, xi)
        res_r.append(s_r / f.N)
        res_p.append(s_p / f.N)
    times = [f.t for f in fields]
    return float(np.trapezoid(res_r, times)), float(np.trapezoid(res_p, times))


class TestWeakResidual:
    def test_frozen_equilibrium(self, model):
        n = 80
        st = ChainState(r=np.full(n, 0.6), p=np.zeros(n), t=0.0)
        spec = BlockSpec(l=8, N=n)
        times = np.linspace(0.0, 1.0, 81)
        fields = [
            EmpiricalField.from_state(ChainState(st.r, st.p, t), spec) for t in times
        ]
        phi, psi, _ = default_test_functions(1.0)
        res_r, res_p = weak_residual(fields, phi, psi, model)
        # time integral of a derivative with compact support: pure quadrature dust
        assert abs(res_r) <= 1e-4
        assert abs(res_p) <= 1e-4

    def test_manufactured_dalembert_convergence(self, harmonic):
        phi = SpaceTimeTestFunction(0.01, 0.09, 0.3, 0.7, mode=0)
        psi = SpaceTimeTestFunction(0.01, 0.09, 0.3, 0.7, mode=1)
        errs = []
        for n, nt in ((100, 41), (400, 161)):
            fields = dalembert_fields(n, np.linspace(0.0, 0.1, nt))
            res_r, res_p = weak_residual(fields, phi, psi, harmonic)
            errs.append(abs(res_r) + abs(res_p))
        assert errs[1] < errs[0] / 4.0

    def test_support_violation(self, model):
        n = 64
        spec = BlockSpec(l=8, N=n)
        fields = [
            EmpiricalField.from_state(
                ChainState(np.zeros(n), np.zeros(n), t), spec
            )
            for t in np.linspace(0, 0.5, 11)
        ]
        late = SpaceTimeTestFunction(0.0, 1.0, 0.3, 0.7)  # extends past data
        ok = SpaceTimeTestFunction(0.05, 0.45, 0.3, 0.7)
        with pytest.raises(ConfigurationError):
            weak_residual(fields, late, ok, model)
        wide = SpaceTimeTestFunction(0.05, 0.45, 0.01, 0.99)  # outside coverage
        with pytest.raises(ConfigurationError):
            weak_residual(fields, ok, wide, model)

    def test_matches_pointwise_reference(self, model):
        # the stacked evaluation against the scalar loop it replaced
        n = 64
        spec = BlockSpec(default_block_width(n), n)
        rng = np.random.default_rng(2024)
        fields = [
            EmpiricalField.from_state(
                ChainState(rng.uniform(-0.5, 1.0, n), rng.normal(0.0, 1.0, n), t), spec
            )
            for t in np.linspace(0.0, 1.0, 31)
        ]
        for m_phi, m_psi in ((0, 1), (1, 2), (2, 0)):
            phi = SpaceTimeTestFunction(0.05, 0.95, 0.3, 0.7, mode=m_phi)
            psi = SpaceTimeTestFunction(0.1, 0.8, 0.35, 0.72, mode=m_psi)
            ref = pointwise_weak_residual(fields, phi, psi, model)
            got = weak_residual(fields, phi, psi, model)
            assert got[0] == pytest.approx(ref[0], rel=1e-13, abs=0.0)
            assert got[1] == pytest.approx(ref[1], rel=1e-13, abs=0.0)


class TestTestFunctions:
    def test_compact_support_and_smoothness(self):
        phi = SpaceTimeTestFunction(0.1, 0.9, 0.2, 0.8, mode=1)
        assert phi(0.05, 0.5) == 0.0
        assert phi(0.5, 0.9) == 0.0
        assert phi.dt(0.1, 0.5) == pytest.approx(0.0, abs=1e-12)
        assert phi.dx(0.5, 0.8) == pytest.approx(0.0, abs=1e-12)

    def test_analytic_derivatives_match_fd(self):
        phi = SpaceTimeTestFunction(0.1, 0.9, 0.2, 0.8, mode=2)
        eps = 1e-6
        for (t, x) in ((0.3, 0.33), (0.6, 0.51), (0.52, 0.77)):
            fd_t = (phi(t + eps, x) - phi(t - eps, x)) / (2 * eps)
            fd_x = (phi(t, x + eps) - phi(t, x - eps)) / (2 * eps)
            assert phi.dt(t, x) == pytest.approx(fd_t, abs=1e-7)
            assert phi.dx(t, x) == pytest.approx(fd_x, abs=1e-7)

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_broadcast_matches_scalar_calls(self, mode):
        phi = SpaceTimeTestFunction(0.1, 0.9, 0.2, 0.8, mode=mode)
        rng = np.random.default_rng(mode)
        t = rng.uniform(0.0, 1.0, 23)
        x = rng.uniform(0.0, 1.0, 37)
        for fn in (phi, phi.dt, phi.dx):
            grid = fn(t[:, None], x[None, :])
            assert grid.shape == (23, 37)
            ref = np.array([[fn(ti, xi) for xi in x] for ti in t])
            assert np.max(np.abs(grid - ref)) <= 1e-15

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_exactly_zero_outside_support(self, mode):
        # dyadic support ends make |u| = 1 exact at the boundary points
        phi = SpaceTimeTestFunction(0.25, 0.75, 0.25, 0.5, mode=mode)
        t_in, x_in = np.array([0.3, 0.5, 0.7]), np.array([0.3, 0.375, 0.45])
        t_out, x_out = np.array([0.0, 0.25, 0.75, 1.0]), np.array([0.0, 0.25, 0.5, 0.9])
        for fn in (phi, phi.dt, phi.dx):
            assert np.all(fn(t_out[:, None], x_in[None, :]) == 0.0)
            assert np.all(fn(t_in[:, None], x_out[None, :]) == 0.0)
            assert all(fn(ti, xi) == 0.0 for ti in t_out for xi in x_out)
        assert np.all(phi(t_in[:, None], x_in[None, :]) != 0.0)

    def test_scalar_input_returns_float(self):
        phi = SpaceTimeTestFunction(0.1, 0.9, 0.2, 0.8, mode=1)
        for t, x in ((0.5, 0.4), (0.05, 0.4), (0.5, 1)):
            for fn in (phi, phi.dt, phi.dx):
                assert type(fn(t, x)) is float
        assert type(phi(np.float64(0.5), 0.4)) is float
