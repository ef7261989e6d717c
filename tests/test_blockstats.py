"""Block-average tests: hand-computed kernel values, the exact hat/bar
difference identity, statistic trivia and manufactured-solution residuals.

The statistics are read from the columns of statistics_row, the one function
that computes them."""

import math

import numpy as np
import pytest

from hydrochain import thermo
from hydrochain.blockstats import (
    STATISTICS_HEADER,
    BlockSpec,
    EmpiricalField,
    default_block_width,
    statistics_row,
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


def statistics(state, spec, model, sigma=1.0):
    """statistics_row keyed by its column names."""
    return dict(zip(STATISTICS_HEADER, statistics_row(state, spec, sigma, model)))


def profiles(u, l):
    """(hat, bar) profiles of u under BlockSpec(l, u.size)."""
    spec = BlockSpec(l, u.size)
    return spec.hat(u), spec.bar(u)


def etahat_identity_gaps(u, l):
    """|(hat_{l,i+1} - hat_{l,i}) - (bar_{l,i+l} - bar_{l,i})/l| for every
    i = l..N-l, entry i - l: an exact algebraic identity (zero up to rounding)
    for any sequence."""
    hat, bar = profiles(u, l)
    return np.abs(np.diff(hat) - (bar[l:] - bar[:-l]) / l)


class TestKernels:
    @pytest.mark.parametrize("l", [1, 2, 3, 8, 21])
    def test_normalization(self, l):
        spec = BlockSpec(l, 2 * l)
        assert spec.triangular.sum() == pytest.approx(1.0, abs=1e-14)
        assert spec.flat.sum() == pytest.approx(1.0, abs=1e-14)

    def test_cached_kernels_are_read_only(self):
        # the weights are built once per spec and shared by every profile it
        # gives, so a caller's write must raise rather than change every
        # later block average
        u = np.random.default_rng(3).normal(size=40)
        spec = BlockSpec(5, 40)
        hat, bar = spec.hat(u), spec.bar(u)
        for weights in (spec.triangular, spec.flat):
            with pytest.raises(ValueError, match="read-only"):
                weights[0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                weights *= 2.0
        assert np.array_equal(spec.triangular, [1, 2, 3, 4, 5, 4, 3, 2, 1] / np.float64(25))
        assert np.array_equal(spec.flat, np.full(5, 0.2))
        assert np.array_equal(spec.hat(u), hat)
        assert np.array_equal(spec.bar(u), bar)

    def test_hat_constant(self):
        u = np.full(30, 3.7)
        for l in (1, 2, 5):
            assert profiles(u, l)[0][10 - l] == pytest.approx(3.7, abs=1e-13)

    def test_hat_hand_value(self):
        u = np.arange(1.0, 11.0)  # u_j = j, 1-based
        assert profiles(u, 2)[0][3 - 2] == pytest.approx(3.0, abs=1e-14)

    def test_hat_degenerate(self):
        u = np.array([5.0, -1.0, 2.0])
        assert profiles(u, 1)[0][2 - 1] == -1.0
        # at l = 1 both kernels are [1.0]: the profiles are u to the bit
        u = np.random.default_rng(11).normal(size=1000)
        hat, bar = profiles(u, 1)
        assert np.array_equal(hat, u)
        assert np.array_equal(bar, u)

    def test_bar_hand_value(self):
        u = np.arange(1.0, 11.0) ** 2  # u_j = j^2
        assert profiles(u, 2)[1][5 - 2] == pytest.approx(20.5, abs=1e-14)

    def test_bar_degenerate_and_constant(self):
        u = np.full(12, -0.4)
        assert profiles(u, 1)[1][7 - 1] == pytest.approx(-0.4)
        assert profiles(u, 4)[1][12 - 4] == pytest.approx(-0.4, abs=1e-14)

    def test_window_validation(self):
        # the widest window N allows is 2l <= N, for hat and bar alike
        u = np.arange(10.0)
        hat, bar = profiles(u, 5)
        assert (hat.size, bar.size) == (2, 6)
        with pytest.raises(ValueError, match="no admissible hat window for l=6, N=10"):
            BlockSpec(6, 10)
        with pytest.raises(ValueError, match="no admissible hat window for l=11, N=10"):
            BlockSpec(11, 10)

    def test_window_must_be_a_positive_integer(self):
        # l = 0 used to raise ZeroDivisionError, l = -2 numpy's negative
        # dimensions error and l = 2.5 and l = True a TypeError
        u = np.arange(10.0)
        for bad in (0, -2, 2.5, 2.0, True):
            with pytest.raises(ValueError, match="l must be an integer >= 1"):
                BlockSpec(bad, u.size)
        for a, b in zip(profiles(u, np.int64(2)), profiles(u, 2)):
            assert np.array_equal(a, b)

    def test_profiles_need_the_specs_n_values(self):
        # a u of another length used to give a profile of another length,
        # which the caller then paired with the spec's sites
        spec = BlockSpec(4, 40)
        for bad in (np.zeros(39), np.zeros(41), np.zeros((2, 20)), np.float64(1.0)):
            for profile in (spec.hat, spec.bar):
                with pytest.raises(ValueError, match=r"need \(40,\) for N=40"):
                    profile(bad)

    def test_block_spec_sizes_must_be_integers(self):
        # l = 2.5 used to pass, and EmpiricalField.from_state then raised a
        # bare TypeError from the kernel build
        for name, bad in (("l", 2.5), ("l", 2.0), ("N", 32.0), ("N", "32"), ("N", True)):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                BlockSpec(**{"l": 2, "N": 32, name: bad})
        assert BlockSpec(np.int64(2), np.int32(32)) == BlockSpec(2, 32)

    def test_default_width(self):
        assert default_block_width(512) == 64
        assert default_block_width(128) == 26
        assert default_block_width(np.int64(128)) == 26
        # True gave 1, 2.5 gave 2 and -8 leaked a TypeError (a complex power)
        for bad in (True, 2.5, -8, 1, "64"):
            with pytest.raises(ValueError, match="N must be an integer >= 2"):
                default_block_width(bad)


class TestEtahatIdentity:
    def test_hand_value(self):
        u = np.arange(1.0, 11.0) ** 2
        hat, bar = profiles(u, 2)
        # hat side: 16.5 - 9.5 = 7; bar side: (20.5 - 6.5)/2 = 7
        assert hat[4 - 2] == pytest.approx(16.5)
        assert hat[3 - 2] == pytest.approx(9.5)
        assert bar[3 - 2] == pytest.approx(6.5)
        assert etahat_identity_gaps(u, 2)[3 - 2] == pytest.approx(0.0, abs=1e-13)

    def test_constant_exact(self):
        u = np.full(20, 2.5)
        gaps = etahat_identity_gaps(u, 4)
        assert gaps.size == 20 - 2 * 4 + 1
        assert np.all(gaps == 0.0)

    def test_random_all_admissible(self):
        rng = np.random.default_rng(3)
        u = rng.normal(scale=10.0, size=40)
        scale = np.abs(u).max()
        for l in (2, 3, 5, 8):
            gaps = etahat_identity_gaps(u, l)
            assert gaps.size == 40 - 2 * l + 1
            assert gaps.max() <= 1e-12 * scale


class TestStatisticsRow:
    def test_columns(self, model):
        rng = np.random.default_rng(1)
        st = ChainState(r=rng.normal(0.3, 1.0, 40), p=rng.normal(size=40), t=0.25)
        row = statistics_row(st, BlockSpec(l=4, N=40), 7.0, model)
        assert len(row) == len(STATISTICS_HEADER)
        assert STATISTICS_HEADER[:4] == ["t", "N", "l", "sigma"]
        assert row[:4] == (0.25, 40, 4, 7.0)
        assert all(type(v) is float and v >= 0.0 for v in row[4:])

    def test_reads_only_the_slope(self, model, monkeypatch):
        # the row reads V' of the snapshot; V'' is never computed for it
        rng = np.random.default_rng(2)
        st = ChainState(r=rng.normal(0.3, 1.0, 40), p=rng.normal(size=40), t=0.25)
        row = statistics_row(st, BlockSpec(l=4, N=40), 7.0, model)

        def curvature(*args):
            raise AssertionError("V'' evaluated")

        monkeypatch.setattr(thermo, "_potential_curvature", curvature)
        assert statistics_row(st, BlockSpec(l=4, N=40), 7.0, model) == row

    def test_state_of_the_wrong_size_rejected(self, model):
        # a 512-site state under N = 256 would give 494 r_hat values on 238
        # positions, and sums divided by the wrong N
        spec = BlockSpec(l=10, N=256)
        wrong = [
            ChainState(r=np.zeros(512), p=np.zeros(512), t=0.0),
            ChainState(r=np.zeros(256), p=np.zeros(512), t=0.0),
            ChainState(r=np.zeros((2, 128)), p=np.zeros(256), t=0.0),
        ]
        for st in wrong:
            with pytest.raises(ValueError, match=r"need \(256,\)"):
                statistics_row(st, spec, 7.0, model)
            with pytest.raises(ValueError, match=r"need \(256,\)"):
                EmpiricalField.from_state(st, spec)


class TestOneBlock:
    def test_uniform_state_value(self, model):
        n, l, rho = 64, 4, 0.9
        st = ChainState(r=np.full(n, rho), p=np.zeros(n), t=0.0)
        expected = (model.dV(rho) - model.tension_of_strain(rho)) ** 2
        got = statistics(st, BlockSpec(l=l, N=n), model)["one_block"]
        count = n - 2 * l + 2
        assert got == pytest.approx(count / n * expected, rel=1e-5)
        assert got > 0.0  # V' != tau pointwise for the asymmetric potential

    def test_harmonic_uniform_is_zero(self, harmonic):
        # kappa=0: V'(rho) = tau(rho) = rho, so the statistic vanishes
        st = ChainState(r=np.full(64, 0.9), p=np.zeros(64), t=0.0)
        got = statistics(st, BlockSpec(l=4, N=64), harmonic)["one_block"]
        assert got <= 1e-13

    def test_harmonic_any_state_near_zero(self, harmonic):
        rng = np.random.default_rng(5)
        st = ChainState(r=rng.normal(0.5, 1.0, 128), p=np.zeros(128), t=0.0)
        got = statistics(st, BlockSpec(l=8, N=128), harmonic)["one_block"]
        assert got <= 1e-12


class TestTwoBlock:
    def test_constant_state(self, model):
        st = ChainState(r=np.full(50, 1.1), p=np.full(50, -0.3), t=0.0)
        got = statistics(st, BlockSpec(l=5, N=50), model)
        for sel in ("r", "p", "Vp", "tau"):
            assert got[f"two_block_{sel}"] == pytest.approx(0.0, abs=1e-16)

    def test_linear_profile_exact(self, model):
        n, l, a = 100, 8, 2.0
        st = ChainState(r=a * np.arange(1, n + 1) / n, p=np.zeros(n), t=0.0)
        got = statistics(st, BlockSpec(l=l, N=n), model)["two_block_r"]
        expected = (n - 2 * l + 1) * a**2 / n**3
        assert got == pytest.approx(expected, rel=1e-10)

    def test_momentum_shift_invariance(self, model):
        rng = np.random.default_rng(8)
        p = rng.normal(size=80)
        spec = BlockSpec(l=6, N=80)
        a = statistics(ChainState(np.zeros(80), p, 0.0), spec, model)["two_block_p"]
        b = statistics(ChainState(np.zeros(80), p + 5.0, 0.0), spec, model)["two_block_p"]
        assert a == pytest.approx(b, rel=1e-10)


class TestHatBarGap:
    def test_constant_state(self, model):
        st = ChainState(r=np.full(40, 0.2), p=np.zeros(40), t=0.0)
        got = statistics(st, BlockSpec(l=4, N=40), model)["hat_bar_gap_r"]
        assert got == pytest.approx(0.0, abs=1e-16)

    def test_linear_sequence_closed_form(self, model):
        # hat average of u_j = j is i; bar average is i - (l-1)/2. The
        # sequence is the momentum: as a strain, j = 60 is off the thermo table
        n, l = 60, 5
        st = ChainState(r=np.zeros(n), p=np.arange(1.0, n + 1), t=0.0)
        got = statistics(st, BlockSpec(l=l, N=n), model)["hat_bar_gap_p"]
        expected = (n - 2 * l + 2) * ((l - 1) / 2.0) ** 2 / n
        assert got == pytest.approx(expected, rel=1e-10)


def pairings(state, spec, J):
    """(lattice, field): the raw lattice pairing (1/N) sum J(i/N) r_i, and the
    pairing of J with the piecewise-constant hat field, midpoint-exact on its
    cells of width 1/N."""
    n = spec.N
    field = EmpiricalField.from_state(state, spec)
    lattice = float(np.sum(np.vectorize(J)(np.arange(1, n + 1) / n) * state.r) / n)
    return lattice, float(np.sum(np.vectorize(J)(field.x) * field.r_hat) / n)


class TestEmpiricalField:
    def test_pairing_constant_state(self, model):
        n, l, rho = 64, 8, 0.7
        st = ChainState(r=np.full(n, rho), p=np.zeros(n), t=0.0)
        lattice, field = pairings(st, BlockSpec(l=l, N=n), lambda x: 1.0)
        assert lattice == pytest.approx(rho, abs=1e-13)
        assert field == pytest.approx(rho * (n - 2 * l + 2) / n, abs=1e-13)

    def test_pairing_gap_shrinks_with_n(self):
        J = lambda x: math.sin(math.pi * x)
        gaps = []
        for n in (100, 400):
            st = ChainState(r=np.arange(1, n + 1) / n, p=np.zeros(n), t=0.0)
            spec = BlockSpec(l=default_block_width(n), N=n)
            lattice, field = pairings(st, spec, J)
            gaps.append(abs(lattice - field))
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
        with pytest.raises(ValueError, match="time support"):
            weak_residual(fields, late, ok, model)
        wide = SpaceTimeTestFunction(0.05, 0.45, 0.01, 0.99)  # outside coverage
        with pytest.raises(ValueError, match=r"space support .* \(0.1172, 0.8984\)"):
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

    @staticmethod
    def random_fields(n, l, times, seed=7):
        rng = np.random.default_rng(seed)
        spec = BlockSpec(l, n)
        return [
            EmpiricalField.from_state(
                ChainState(rng.uniform(-0.5, 1.0, n), rng.normal(0.0, 1.0, n), t), spec
            )
            for t in times
        ]

    def test_decreasing_times_rejected(self, model):
        # integrated in the given order, a reversed run of fields moved both
        # residuals by orders of magnitude without an error
        fields = self.random_fields(64, 8, np.linspace(0.0, 1.0, 20))
        phi = SpaceTimeTestFunction(0.05, 0.95, 0.3, 0.7, mode=0)
        psi = SpaceTimeTestFunction(0.1, 0.8, 0.35, 0.72, mode=1)
        weak_residual(fields, phi, psi, model)
        shuffled = fields[:5] + fields[5:15][::-1] + fields[15:]
        with pytest.raises(ValueError, match="field times must not decrease"):
            weak_residual(shuffled, phi, psi, model)
        # repeated times, as records snapped to one step give, are accepted
        weak_residual(fields[:10] + fields[9:], phi, psi, model)

    def test_field_of_another_size_rejected(self, model):
        # N = 64, l = 8 and N = 66, l = 9 both give 50 hat values
        times = np.linspace(0.0, 1.0, 6)
        fields = self.random_fields(64, 8, times)
        other = self.random_fields(66, 9, times)[3]
        assert other.r_hat.size == fields[3].r_hat.size
        fields[3] = other
        phi = SpaceTimeTestFunction(0.05, 0.95, 0.3, 0.7, mode=0)
        with pytest.raises(ValueError, match=r"\(N, l\) = \(66, 9\), not \(64, 8\)"):
            weak_residual(fields, phi, phi, model)


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

    def test_fields_validated(self):
        # t1 = inf gave NaN values; t0 = True and modes True, 1.5 and -2 were
        # taken; None and "a" leaked a TypeError
        base = {"t0": 0.0, "t1": 1.0, "x0": 0.2, "x1": 0.8, "mode": 0}
        bad_fields = [("t1", math.inf), ("t0", True), ("t0", "a"), ("x0", None),
                      ("x1", math.nan), ("t0", -math.inf)]
        for name, bad in bad_fields:
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                SpaceTimeTestFunction(**{**base, name: bad})
        for bad in (True, 1.5, -2, None):
            with pytest.raises(ValueError, match="mode must be an integer >= 0"):
                SpaceTimeTestFunction(**{**base, "mode": bad})
        # the support checks stay
        with pytest.raises(ValueError, match="empty support"):
            SpaceTimeTestFunction(**{**base, "t1": 0.0})
        with pytest.raises(ValueError, match=r"inside \[0,1\]"):
            SpaceTimeTestFunction(**{**base, "x1": 1.5})
        assert SpaceTimeTestFunction(0, 1, 0, 1, mode=np.int64(2))(0.5, 0.25) != 0.0
        # default_test_functions(True) built supports on (0.05, 0.95), and
        # "1" leaked a TypeError
        for bad in (True, "1", 0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="t_end must be positive and finite"):
                default_test_functions(bad)

    def test_scalar_input_returns_float(self):
        phi = SpaceTimeTestFunction(0.1, 0.9, 0.2, 0.8, mode=1)
        for t, x in ((0.5, 0.4), (0.05, 0.4), (0.5, 1)):
            for fn in (phi, phi.dt, phi.dx):
                assert type(fn(t, x)) is float
        assert type(phi(np.float64(0.5), 0.4)) is float
