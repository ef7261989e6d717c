"""Thermodynamics tests: closed-form harmonic oracles, an independent Simpson
quadrature oracle for the anharmonic case, and the convexity/conjugacy
invariants."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad, simpson
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from hydrochain import GibbsSample, PotentialParams, ThermoError, ThermoModel, eval_potential
from hydrochain import thermo


def simpson_oracle(model, tau, what="G"):
    """Brute-force fixed-grid Simpson quadrature at ~10x the production node
    count, independent of the Gauss-Legendre path."""
    beta = model.beta
    width = 14.0 / math.sqrt(beta * model.c1)
    rstar = float(model._argmax_exponents(np.array([tau], dtype=float))[0])
    r = np.linspace(rstar - width, rstar + width, 6401)
    v = model.V(r)
    shift = beta * (tau * rstar - model.V(rstar))
    f = np.exp(beta * (tau * r - v) - shift)
    z = simpson(f, x=r)
    if what == "G":
        return shift + math.log(z)
    if what == "rho":
        return simpson(f * r, x=r) / z
    if what == "U":
        return 0.5 / beta + simpson(f * v, x=r) / z
    raise ValueError(what)


@pytest.fixture(scope="module")
def harmonic():
    return ThermoModel(beta=1.0, potential=PotentialParams(kappa=0.0, moll_width=0.1))


@pytest.fixture(scope="module")
def anharmonic():
    return ThermoModel(beta=1.0, potential=PotentialParams(kappa=0.25, moll_width=0.1))


class TestPotential:
    def test_extension_branch(self):
        params = PotentialParams(kappa=0.25, moll_width=0.1)
        v, d1, d2 = eval_potential(params, 2.0)
        # antiderivative oracle: integrate the pinned V'' blend twice from -h,
        # where V matches the piecewise quadratic exactly
        h, k = 0.1, 0.25
        dv_num = quad(lambda s: eval_potential(params, s)[2], -h, 2.0, limit=200)[0]
        assert d1 == pytest.approx((1 - k) * (-h) + dv_num, abs=1e-10)
        v_num = quad(lambda s: eval_potential(params, s)[1], -h, 2.0, limit=200)[0]
        assert v == pytest.approx((1 - k) * h**2 / 2 + v_num, abs=1e-9)
        # closed-form piecewise quadratic, up to the known kappa*h^2/10 offset
        assert d1 == pytest.approx(2.0, abs=0)
        assert d2 == pytest.approx(1.0, abs=0)
        assert v == pytest.approx(2.0 + k * h**2 / 10.0, abs=1e-14)

    def test_compression_branch(self):
        v, d1, d2 = eval_potential(PotentialParams(kappa=0.25, moll_width=0.1), -2.0)
        assert (v, d1, d2) == pytest.approx((1.5, -1.5, 0.75), abs=1e-14)

    def test_harmonic_origin(self):
        v, d1, d2 = eval_potential(PotentialParams(kappa=0.0, moll_width=0.3), 0.0)
        assert (v, d1, d2) == pytest.approx((0.0, 0.0, 1.0), abs=1e-15)

    def test_c2_smoothness_at_band_edges(self):
        params = PotentialParams(kappa=0.25, moll_width=0.1)
        for r0 in (-0.1, 0.1):
            for eps in (1e-7, 1e-9):
                lo = eval_potential(params, r0 - eps)
                hi = eval_potential(params, r0 + eps)
                assert hi[0] - lo[0] == pytest.approx(0.0, abs=1e-6)
                assert hi[1] - lo[1] == pytest.approx(0.0, abs=1e-6)
                assert hi[2] - lo[2] == pytest.approx(0.0, abs=1e-5)

    def test_curvature_bounds_on_grid(self):
        params = PotentialParams(kappa=0.25, moll_width=0.1)
        d2 = eval_potential(params, np.linspace(-6, 6, 5001))[2]
        assert d2.min() >= 0.75 - 1e-12 and d2.max() <= 1.0 + 1e-12

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            eval_potential(PotentialParams(), float("nan"))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            PotentialParams(kappa=0.4)
        with pytest.raises(ValueError):
            PotentialParams(kappa=1.0 / 3.0)
        with pytest.raises(ValueError):
            PotentialParams(moll_width=0.0)


params_st = st.builds(
    PotentialParams,
    kappa=st.floats(0.0, 0.33),
    moll_width=st.floats(0.01, 1.0),
)
strain_st = st.floats(-10.0, 10.0)
prop_settings = settings(max_examples=300, deadline=None, derandomize=True)


class TestPotentialProperties:
    @prop_settings
    @given(params_st, strain_st)
    def test_first_derivative_matches_central_difference(self, params, r):
        # the third derivative is at most 3 kappa / (4 h), so truncation stays
        # below 1e-10; rounding adds about eps |V| / e
        e = 1e-5
        lo = eval_potential(params, r - e)[0]
        hi = eval_potential(params, r + e)[0]
        assert (hi - lo) / (2 * e) == pytest.approx(eval_potential(params, r)[1], abs=1e-7)

    @prop_settings
    @given(params_st, st.floats(-1e6, 1e6))
    def test_curvature_within_bounds(self, params, r):
        d2 = eval_potential(params, r)[2]
        assert 1.0 - params.kappa <= d2 <= 1.0

    @prop_settings
    @given(params_st, strain_st)
    def test_closed_forms_outside_band(self, params, r):
        k, h = params.kappa, params.moll_width
        v, d1, d2 = eval_potential(params, r)
        if r >= h:
            # (1-kappa) r + kappa (h + (r - h)) rounds to within two ulps of r
            assert abs(d1 - r) <= 2 * math.ulp(r)
            assert d2 == 1.0
            assert v == pytest.approx(r * r / 2 + k * h * h / 10, rel=1e-14)
        elif r <= -h:
            assert d1 == (1 - k) * r
            assert v == (1 - k) * (r * r) / 2
            assert d2 == 1 - k

    @prop_settings
    @given(params_st, strain_st)
    def test_scalar_in_floats_out(self, params, r):
        for arg in (r, np.float64(r), np.array(r)):
            assert all(type(x) is float for x in eval_potential(params, arg))
        out = eval_potential(params, np.array([r, r]))
        assert all(isinstance(x, np.ndarray) and x.shape == (2,) for x in out)

    @prop_settings
    @given(params_st, st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=40))
    def test_scalar_equals_array_call(self, params, rs):
        # the scalar call must give the array call's bits, element for element,
        # on a band-resolving grid around the mollifier as well as at the draws
        h = params.moll_width
        r = np.concatenate((rs, np.linspace(-1.5 * h, 1.5 * h, 61)))
        arrays = eval_potential(params, r.reshape(-1, 1))
        for i, x in enumerate(r.tolist()):
            assert eval_potential(params, x) == tuple(a[i, 0] for a in arrays)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(params_st, st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=40))
    def test_model_halves_equal_eval_potential(self, params, rs):
        # V and dV each evaluate one half of the potential; their bits are
        # those of eval_potential's columns, for arrays and for scalars
        model = ThermoModel(potential=params)
        r = np.concatenate((rs, np.linspace(-1.5, 1.5, 61) * params.moll_width))
        v, d1, _ = eval_potential(params, r)
        assert np.array_equal(model.V(r), v) and np.array_equal(model.dV(r), d1)
        for i, x in enumerate(r.tolist()):
            assert type(model.V(x)) is float and model.V(x) == v[i]
            assert type(model.dV(x)) is float and model.dV(x) == d1[i]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_raises(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            eval_potential(PotentialParams(), bad)
        with pytest.raises(ValueError, match="non-finite"):
            eval_potential(PotentialParams(), np.array([[0.0, 1.0], [bad, 2.0]]))
        model = ThermoModel()
        for half in (model.V, model.dV):
            with pytest.raises(ValueError, match="non-finite"):
                half(np.array([0.0, bad]))


class TestLogPartition:
    def test_gaussian_normalization(self, harmonic):
        assert harmonic.log_partition(0.0) == pytest.approx(
            0.5 * math.log(2 * math.pi), abs=1e-10
        )

    def test_complete_the_square(self, harmonic):
        assert harmonic.log_partition(1.0) == pytest.approx(
            0.5 * math.log(2 * math.pi) + 0.5, abs=1e-10
        )

    def test_beta_scaling(self):
        m = ThermoModel(beta=2.0, potential=PotentialParams(kappa=0.0))
        assert m.log_partition(0.7) == pytest.approx(
            0.5 * math.log(2 * math.pi / 2.0) + 2.0 * 0.49 / 2.0, abs=1e-10
        )

    def test_against_simpson_oracle(self, anharmonic):
        for tau in (-1.0, 0.0, 0.5, 3.0):
            assert anharmonic.log_partition(tau) == pytest.approx(
                simpson_oracle(anharmonic, tau, "G"), abs=1e-8
            )

    def test_beta_validated(self):
        # the one beta check: chain and PDE read beta from the model
        for bad in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="beta must be positive"):
                ThermoModel(beta=bad)


class TestMeanStrain:
    def test_harmonic_identity(self, harmonic):
        assert harmonic.mean_strain(0.7) == pytest.approx(0.7, abs=1e-10)

    def test_harmonic_any_beta(self):
        m = ThermoModel(beta=2.0, potential=PotentialParams(kappa=0.0))
        assert m.mean_strain(-0.3) == pytest.approx(-0.3, abs=1e-10)

    def test_against_simpson_oracle(self, anharmonic):
        for tau in (-2.0, 0.25, 3.0):
            assert anharmonic.mean_strain(tau) == pytest.approx(
                simpson_oracle(anharmonic, tau, "rho"), abs=1e-6
            )

    def test_large_tau_near_identity(self, anharmonic):
        # V = r^2/2 on r > h, so rho(tau) ~ tau for large positive tau
        assert anharmonic.mean_strain(3.0) == pytest.approx(3.0, abs=1e-3)


class TestTensionOfStrain:
    def test_harmonic_identity(self, harmonic):
        assert harmonic.tension_of_strain(1.3) == pytest.approx(1.3, abs=1e-9)

    def test_round_trip(self, anharmonic):
        rho = anharmonic.mean_strain(0.42)
        assert anharmonic.tension_of_strain(rho) == pytest.approx(0.42, abs=1e-8)

    def test_residual_contract(self, anharmonic):
        # at -30 a stop at a step of 1e-15 cycles between two tensions
        for rho in (-40.0, -30.0, -10.0, -3.0, -0.2, 0.9, 4.0, 10.0, 40.0):
            tau = anharmonic.tension_of_strain(rho)
            assert abs(anharmonic.mean_strain(tau) - rho) <= 1e-12

    def test_residual_contract_at_slowest_contraction(self):
        # kappa = 0.33: each Newton step shrinks the error by at most
        # kappa/(1 - kappa) = 0.49; a small beta spreads r over the band
        model = ThermoModel(beta=0.2, potential=PotentialParams(kappa=0.33))
        for rho in (-40.0, -10.0, -0.05, 0.0, 0.3, 10.0, 40.0):
            tau = model.tension_of_strain(rho)
            assert abs(model.mean_strain(tau) - rho) <= 1e-12

    def test_inversion_failure_names_the_strain(self, anharmonic, monkeypatch):
        monkeypatch.setattr(anharmonic, "_moments", lambda tau: (0, [np.nan], [1.0], 0))
        with pytest.raises(ThermoError, match="rho=0.5"):
            anharmonic.tension_of_strain(0.5)

    def test_slope_bounds_spot(self, anharmonic):
        for rho in np.arange(-4.0, 4.0 + 1e-9, 1.0):
            tp = anharmonic.tau_prime_of_rho(rho)
            assert 0.75 - 1e-6 <= tp <= 1.0 + 1e-6


class TestFreeEnergy:
    def test_harmonic_closed_form(self, harmonic):
        for rho in (-1.0, 0.0, 2.0):
            assert harmonic.free_energy(rho) == pytest.approx(
                rho**2 / 2 - 0.5 * math.log(2 * math.pi), abs=1e-9
            )

    def test_convexity_on_triples(self, anharmonic):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a, b = sorted(rng.uniform(-3, 3, 2))
            mid = 0.5 * (a + b)
            assert (
                anharmonic.free_energy(a) + anharmonic.free_energy(b)
                >= 2 * anharmonic.free_energy(mid) - 1e-10
            )

    def test_second_derivative_bounds(self, anharmonic):
        eps = 1e-3
        for rho in (-2.0, 0.0, 1.5):
            f2 = (
                anharmonic.free_energy(rho + eps)
                - 2 * anharmonic.free_energy(rho)
                + anharmonic.free_energy(rho - eps)
            ) / eps**2
            assert 0.75 - 1e-3 <= f2 <= 1.0 + 1e-3

    def test_legendre_involution(self, anharmonic):
        # beta^-1 G(beta,tau) = sup_rho { tau rho - F(rho) } on a dense grid;
        # grid-max misses the true sup by ~F'' h^2 / 8, so keep h <= 1.4e-3
        rho_grid = np.linspace(-5.5, 5.5, 8001)
        f_grid = anharmonic.free_energy_of_rho(rho_grid)
        for tau in np.linspace(-3.5, 3.5, 20):
            sup = np.max(tau * rho_grid - f_grid)
            assert sup == pytest.approx(
                anharmonic.log_partition(float(tau)) / anharmonic.beta, abs=1e-6
            )


class TestInternalEnergy:
    def test_equipartition(self, harmonic):
        assert harmonic.internal_energy(0.0) == pytest.approx(1.0, abs=1e-9)

    def test_gaussian_shift(self, harmonic):
        for tau in (0.5, -1.2):
            assert harmonic.internal_energy(tau) == pytest.approx(
                1.0 + tau**2 / 2, abs=1e-9
            )

    def test_against_simpson_oracle(self, anharmonic):
        assert anharmonic.internal_energy(0.5) == pytest.approx(
            simpson_oracle(anharmonic, 0.5, "U"), abs=1e-7
        )


def band_spanning_tensions(model):
    """Tensions across the table range, dense in and around the band, with
    the band edges of the maximiser and their neighbours."""
    k, h = model.potential.kappa, model.potential.moll_width
    edges = np.array([h, -h, -(1.0 - k) * h, 0.0, -0.0])
    return np.concatenate(
        (
            np.linspace(-9.0, 9.0, 241),
            np.linspace(-2.0 * h, 2.0 * h, 61),
            edges,
            np.nextafter(edges, np.inf),
            np.nextafter(edges, -np.inf),
        )
    )


class TestQuadratureBlocks:
    @pytest.fixture(
        scope="class",
        params=[{}, {"beta": 2.0, "potential": PotentialParams(kappa=0.0)}],
        ids=["default", "beta2-harmonic"],
    )
    def blocked(self, request):
        model = ThermoModel(**request.param)
        return model, band_spanning_tensions(model)

    @pytest.mark.parametrize("block", [1, 7, 10**6])
    def test_block_size_changes_no_bit(self, blocked, block, monkeypatch):
        # each tension's sums run over its own row, whatever block holds it
        model, taus = blocked
        assert taus.size > thermo._BLOCK
        reference = model._moments(taus)
        monkeypatch.setattr(thermo, "_BLOCK", block)
        for got, want in zip(model._moments(taus), reference):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_table_build_traced_peak(self):
        # whole (3600, n_quad) panels would take about 27 MiB, 256-tension blocks about 2
        model = ThermoModel()
        tracemalloc.start()
        try:
            model.table
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20


class TestSampler:
    def test_tension_moment(self, anharmonic):
        s = anharmonic.sample_canonical(0.0, 0.5, 10**6, seed=123)
        vp = anharmonic.dV(s.r)
        se = vp.std() / 1000.0
        assert abs(vp.mean() - 0.5) <= 3 * se

    def test_momentum_temperature(self, anharmonic):
        s = anharmonic.sample_canonical(0.25, 0.5, 10**6, seed=42)
        se_mean = s.p.std() / 1000.0
        assert abs(s.p.mean() - 0.25) <= 3 * se_mean
        var = s.p.var()
        se_var = var * math.sqrt(2.0) / 1000.0
        assert abs(var - 1.0) <= 3 * se_var

    def test_harmonic_marginal_ks(self, harmonic):
        s = harmonic.sample_canonical(0.0, 0.7, 10**5, seed=7)
        stat = kstest(s.r, "norm", args=(0.7, 1.0))
        assert stat.pvalue >= 0.01

    def test_sampler_matches_quadrature(self, anharmonic):
        n = 10**6
        s = anharmonic.sample_canonical(0.0, 0.8, n, seed=99)
        se = s.r.std() / math.sqrt(n)
        assert abs(s.r.mean() - anharmonic.mean_strain(0.8)) <= 4 * se

    @pytest.mark.parametrize("name", ["tau", "pbar"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_input_named(self, anharmonic, name, bad):
        args = {"pbar": 0.0, "tau": 0.5, "n": 4, "seed": 1}
        args[name] = bad
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            anharmonic.sample_canonical(**args)

    def test_overflowing_tension_raises(self, anharmonic):
        # rejected as a collapsing tension before V could overflow at r* = 1e308
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ThermoError, match="tau=1e\\+308"):
                anharmonic.sample_canonical(0.0, 1e308, 4, 1)

    def test_huge_finite_tension_keeps_distinct_draws(self, anharmonic):
        s = anharmonic.sample_canonical(0.0, 1e10, 1000, seed=3)
        assert np.unique(s.r).size == 1000

    @pytest.mark.parametrize("tau", [1e13, 1e16, 1e100, -1e16])
    def test_collapsing_tension_raises(self, anharmonic, tau):
        # at |r*| >= 2**43 fewer than 1024 doubles fit in one envelope sd
        with pytest.raises(ThermoError, match=re.escape(f"tau={tau}:")):
            anharmonic.sample_canonical(0.0, tau, 1000, seed=3)

    def test_deterministic(self, anharmonic):
        a = anharmonic.sample_canonical(0.1, 0.3, 5000, seed=5)
        b = anharmonic.sample_canonical(0.1, 0.3, 5000, seed=5)
        assert np.array_equal(a.r, b.r) and np.array_equal(a.p, b.p)
        assert isinstance(a, GibbsSample)


class TestConjugacyInvariants:
    def test_monotone_conjugacy_grid(self, anharmonic):
        grid = np.linspace(-5, 5, 101)
        taus = np.array([anharmonic.tension_of_strain(float(r)) for r in grid])
        slopes = np.diff(taus) / np.diff(grid)
        assert np.all(np.diff(taus) > 0)
        assert slopes.min() >= 0.75 - 1e-6 and slopes.max() <= 1.0 + 1e-6

    def test_genuine_nonlinearity_spot(self, anharmonic):
        grid = np.arange(-2.0, 2.0 + 1e-9, 0.05)
        taus = np.array([anharmonic.tension_of_strain(float(r)) for r in grid])
        assert np.all(np.diff(taus, 2) > 0)

    def test_table_certificate(self, anharmonic):
        cert = anharmonic.table["certificate"]
        assert cert["max_tau_error"] < 5e-8
        assert cert["monotone_within_bounds"]

    def test_invert_tau_table_matches_fresh_derivative(self, anharmonic):
        # the cached slope spline is bit-identical to a freshly built one
        fresh = anharmonic.table["tau_of_rho"].derivative()
        grid = np.linspace(-10.0, 10.0, 2001)
        assert np.array_equal(anharmonic.table["tau_of_rho_slope"](grid), fresh(grid))


class TestTable:
    def test_too_few_quadrature_nodes_fail_certification(self):
        with pytest.raises(ThermoError, match="certification"):
            ThermoModel(n_quad=16).table

    @pytest.mark.parametrize("bad", [1, 0, 2.5, True])
    def test_quadrature_node_count_validated(self, bad):
        with pytest.raises(ValueError, match="n_quad"):
            ThermoModel(n_quad=bad)

    def test_strain_nodes_span_the_table_range(self, anharmonic):
        rho = anharmonic.table["rho"]
        assert rho[0] == pytest.approx(-10.0, abs=1e-12)
        assert rho[-1] == pytest.approx(10.0, abs=1e-12)

    def test_nodes_are_exact_conjugate_pairs(self, anharmonic):
        table = anharmonic.table
        for k in np.linspace(0, table["rho"].size - 1, 5).astype(int):
            tau = anharmonic.tension_of_strain(float(table["rho"][k]))
            assert tau == pytest.approx(table["tau"][k], abs=1e-11)

    def test_tau_prime_is_inverse_beta_variance(self, anharmonic):
        for rho in (-7.0, -0.05, 0.0, 0.08, 2.5, 9.0):
            tau = anharmonic.tension_of_strain(rho)
            var = anharmonic._moments(tau)[2][0]
            assert anharmonic.tau_prime_of_rho(rho) == pytest.approx(
                1.0 / (anharmonic.beta * var), abs=1e-9
            )

    def test_table_conjugacy_by_finite_differences(self, anharmonic):
        # on the table, dF/drho = tau and dtau/drho = tau'
        F, tau = anharmonic.free_energy_of_rho, anharmonic.tau_of_rho
        eps = 1e-5
        for r in (0.3, -1.2):
            fd_f = (F(r + eps) - F(r - eps)) / (2 * eps)
            fd_tau = (tau(r + eps) - tau(r - eps)) / (2 * eps)
            assert float(fd_f) == pytest.approx(float(tau(r)), abs=1e-6)
            assert float(fd_tau) == pytest.approx(float(anharmonic.tau_prime_of_rho(r)), abs=1e-6)

    @pytest.mark.parametrize(
        "lookup, key",
        [
            ("tau_of_rho", "rho"),
            ("free_energy_of_rho", "rho"),
            ("tau_prime_of_rho", "rho"),
        ],
    )
    def test_lookups_reject_arguments_off_the_table(self, anharmonic, lookup, key):
        f = getattr(anharmonic, lookup)
        lo, hi = (float(v) for v in anharmonic.table[key][[0, -1]])
        for edge in (lo, hi):
            assert math.isfinite(float(f(edge)))
        for off in (lo - 1e-9, hi + 1e-9, -20.0, 20.0, math.nan, np.array([0.0, hi + 0.5])):
            with pytest.raises(ValueError, match="outside the thermo table"):
                f(off)
