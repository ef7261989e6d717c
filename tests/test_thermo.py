"""Thermodynamics tests: closed-form harmonic oracles, an independent Simpson
quadrature oracle for the anharmonic case, and the convexity/conjugacy
invariants."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad, simpson
from scipy.interpolate import CubicSpline
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from hydrochain import PotentialParams, ThermoError, ThermoModel
from hydrochain import thermo
from hydrochain.schedules import ChainState
from hydrochain.thermo import _potential_curvature, _potential_slope, _potential_value


def simpson_oracle(model, tau, what="G"):
    """Brute-force fixed-grid Simpson quadrature at ~10x the production node
    count, independent of the Gauss-Legendre path."""
    beta = model.beta
    width = 14.0 / math.sqrt(beta * model.c1)
    rstar = model._argmax_exponent(float(tau))
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


def log_partition(model, tau):
    """G(beta, tau), the log of the single-spring partition integral, from the
    quadrature that builds the table."""
    return float(model._moments(tau)[0][0])


def potential(params, r):
    """(V, V', V'') at r, a number or an array, from thermo's three parts."""
    r = np.asarray(r, dtype=float)[()]
    parts = (_potential_value, _potential_slope, _potential_curvature)
    return tuple(part(params, r) for part in parts)


@pytest.fixture(scope="module")
def harmonic():
    return ThermoModel(beta=1.0, potential=PotentialParams(kappa=0.0, moll_width=0.1))


@pytest.fixture(scope="module")
def anharmonic():
    return ThermoModel(beta=1.0, potential=PotentialParams(kappa=0.25, moll_width=0.1))


class TestPotential:
    def test_extension_branch(self):
        params = PotentialParams(kappa=0.25, moll_width=0.1)
        v, d1, d2 = potential(params, 2.0)
        # antiderivative oracle: integrate the pinned V'' blend twice from -h,
        # where V matches the piecewise quadratic exactly
        h, k = 0.1, 0.25
        dv_num = quad(lambda s: potential(params, s)[2], -h, 2.0, limit=200)[0]
        assert d1 == pytest.approx((1 - k) * (-h) + dv_num, abs=1e-10)
        v_num = quad(lambda s: potential(params, s)[1], -h, 2.0, limit=200)[0]
        assert v == pytest.approx((1 - k) * h**2 / 2 + v_num, abs=1e-9)
        # closed-form piecewise quadratic, up to the known kappa*h^2/10 offset
        assert d1 == pytest.approx(2.0, abs=0)
        assert d2 == pytest.approx(1.0, abs=0)
        assert v == pytest.approx(2.0 + k * h**2 / 10.0, abs=1e-14)

    def test_compression_branch(self):
        v, d1, d2 = potential(PotentialParams(kappa=0.25, moll_width=0.1), -2.0)
        assert (v, d1, d2) == pytest.approx((1.5, -1.5, 0.75), abs=1e-14)

    def test_harmonic_origin(self):
        v, d1, d2 = potential(PotentialParams(kappa=0.0, moll_width=0.3), 0.0)
        assert (v, d1, d2) == pytest.approx((0.0, 0.0, 1.0), abs=1e-15)

    def test_c2_smoothness_at_band_edges(self):
        params = PotentialParams(kappa=0.25, moll_width=0.1)
        for r0 in (-0.1, 0.1):
            for eps in (1e-7, 1e-9):
                lo = potential(params, r0 - eps)
                hi = potential(params, r0 + eps)
                assert hi[0] - lo[0] == pytest.approx(0.0, abs=1e-6)
                assert hi[1] - lo[1] == pytest.approx(0.0, abs=1e-6)
                assert hi[2] - lo[2] == pytest.approx(0.0, abs=1e-5)

    def test_curvature_bounds_on_grid(self):
        params = PotentialParams(kappa=0.25, moll_width=0.1)
        d2 = potential(params, np.linspace(-6, 6, 5001))[2]
        assert d2.min() >= 0.75 - 1e-12 and d2.max() <= 1.0 + 1e-12

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            ThermoModel(potential=PotentialParams()).V(float("nan"))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            PotentialParams(kappa=0.4)
        with pytest.raises(ValueError):
            PotentialParams(kappa=1.0 / 3.0)
        with pytest.raises(ValueError):
            PotentialParams(moll_width=0.0)
        # a bool ran as a number: moll_width = 1, and kappa = 0, the harmonic spring
        with pytest.raises(ValueError, match="moll_width"):
            PotentialParams(moll_width=True)
        with pytest.raises(ValueError, match="kappa"):
            PotentialParams(kappa=False)


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
        lo = potential(params, r - e)[0]
        hi = potential(params, r + e)[0]
        assert (hi - lo) / (2 * e) == pytest.approx(potential(params, r)[1], abs=1e-7)

    @prop_settings
    @given(params_st, st.floats(-1e6, 1e6))
    def test_curvature_within_bounds(self, params, r):
        d2 = potential(params, r)[2]
        assert 1.0 - params.kappa <= d2 <= 1.0

    @prop_settings
    @given(params_st, strain_st)
    def test_closed_forms_outside_band(self, params, r):
        k, h = params.kappa, params.moll_width
        v, d1, d2 = potential(params, r)
        if r >= h:
            # (1-kappa) r + kappa (h + (r - h)) rounds to within two ulps of r
            assert abs(d1 - r) <= 2 * math.ulp(r)
            assert d2 == 1.0
            assert v == pytest.approx(r * r / 2 + k * h * h / 10, rel=1e-14)
        elif r <= -h:
            assert d1 == (1 - k) * r
            assert v == (1 - k) * (r * r) / 2
            assert d2 == 1 - k

    @pytest.mark.parametrize("kappa", [0.0, 0.1, 0.25])
    @pytest.mark.parametrize("h", [0.1, 1.0])
    def test_extension_offset_matches_the_potential(self, kappa, h):
        # the quadrature's right panel takes V = r^2/2 + extension_offset on r >= h
        params = PotentialParams(kappa=kappa, moll_width=h)
        assert params.extension_offset == kappa * h**2 / 10.0
        r = np.concatenate((h * np.linspace(1.0, 3.0, 2001), np.geomspace(h, 1e6, 2001)))
        v = potential(params, r)[0]
        assert np.all(np.abs(v - (0.5 * r * r + params.extension_offset)) <= np.spacing(v))

    @prop_settings
    @given(params_st, strain_st)
    def test_scalar_in_floats_out(self, params, r):
        for arg in (r, np.float64(r), np.array(r)):
            assert all(type(x) is float for x in potential(params, arg))
        out = potential(params, np.array([r, r]))
        assert all(isinstance(x, np.ndarray) and x.shape == (2,) for x in out)

    @prop_settings
    @given(params_st, st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=40))
    def test_scalar_equals_array_call(self, params, rs):
        # the scalar call must give the array call's bits, element for element,
        # on a band-resolving grid around the mollifier as well as at the draws
        h = params.moll_width
        r = np.concatenate((rs, np.linspace(-1.5 * h, 1.5 * h, 61)))
        arrays = potential(params, r.reshape(-1, 1))
        for i, x in enumerate(r.tolist()):
            assert potential(params, x) == tuple(a[i, 0] for a in arrays)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(params_st, st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=40))
    def test_model_halves_equal_the_parts(self, params, rs):
        # V and dV each evaluate one part of the potential on the checked
        # strain; their bits are those of the parts, for arrays and scalars
        model = ThermoModel(potential=params)
        r = np.concatenate((rs, np.linspace(-1.5, 1.5, 61) * params.moll_width))
        v, d1, _ = potential(params, r)
        assert np.array_equal(model.V(r), v) and np.array_equal(model.dV(r), d1)
        for i, x in enumerate(r.tolist()):
            assert type(model.V(x)) is float and model.V(x) == v[i]
            assert type(model.dV(x)) is float and model.dV(x) == d1[i]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_raises(self, bad):
        model = ThermoModel(potential=PotentialParams())
        for half in (model.V, model.dV):
            for r in (bad, np.array([0.0, bad]), np.array([[0.0, 1.0], [bad, 2.0]])):
                with pytest.raises(ValueError, match="non-finite"):
                    half(r)


class TestLogPartition:
    def test_gaussian_normalization(self, harmonic):
        assert log_partition(harmonic, 0.0) == pytest.approx(
            0.5 * math.log(2 * math.pi), abs=1e-10
        )

    def test_complete_the_square(self, harmonic):
        assert log_partition(harmonic, 1.0) == pytest.approx(
            0.5 * math.log(2 * math.pi) + 0.5, abs=1e-10
        )

    def test_beta_scaling(self):
        m = ThermoModel(beta=2.0, potential=PotentialParams(kappa=0.0))
        assert log_partition(m, 0.7) == pytest.approx(
            0.5 * math.log(2 * math.pi / 2.0) + 2.0 * 0.49 / 2.0, abs=1e-10
        )

    def test_against_simpson_oracle(self, anharmonic):
        for tau in (-1.0, 0.0, 0.5, 3.0):
            assert log_partition(anharmonic, tau) == pytest.approx(
                simpson_oracle(anharmonic, tau, "G"), abs=1e-8
            )

    def test_beta_validated(self):
        # the one beta check: chain and PDE read beta from the model
        # beta = True ran beta = 1, and None or "1" leaked a TypeError
        for bad in (-1.0, 0.0, math.nan, math.inf, True, None, "1"):
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

    def test_tension_validated(self, anharmonic):
        # True and "1" read as tau = 1, and NaN ran the quadrature's own check
        for bad in (math.nan, math.inf, True, "1", None):
            for exact in (anharmonic.mean_strain, anharmonic.internal_energy):
                with pytest.raises(ValueError, match="tau must be finite"):
                    exact(bad)

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

    @pytest.mark.parametrize(
        "model",
        [ThermoModel(), ThermoModel(beta=20.0, potential=PotentialParams(kappa=0.1))],
        ids=["default", "beta20-kappa0.1"],
    )
    def test_newton_converges_far_off_the_table(self, model):
        # the outer panels carry no rounding of size ulp(r^2), so the stop of
        # 1e-14 (1 + |tau|) is reached without cycling; tension_of_strain raises
        # ThermoError on a run that does not converge
        for rho in np.linspace(-3000.0, 3000.0, 521):
            tau = model.tension_of_strain(float(rho))
            assert abs(model.mean_strain(tau) - rho) <= 1e-13 * (1.0 + abs(rho))

    def test_strain_validated(self, anharmonic):
        # rho = True inverted rho = 1, and None leaked a TypeError
        for bad in (math.nan, math.inf, True, None):
            with pytest.raises(ValueError, match="rho must be finite"):
                anharmonic.tension_of_strain(bad)

    def test_inversion_failure_names_the_strain(self, anharmonic, monkeypatch):
        monkeypatch.setattr(anharmonic, "_moments", lambda tau: (0, [np.nan], [1.0], 0))
        with pytest.raises(ThermoError, match="rho=0.5"):
            anharmonic.tension_of_strain(0.5)

    def test_slope_bounds_spot(self, anharmonic):
        for rho in np.arange(-4.0, 4.0 + 1e-9, 1.0):
            tp = anharmonic.tau_prime_of_rho(rho)
            assert 0.75 - 1e-6 <= tp <= 1.0 + 1e-6


def table_free_energy(model, rho):
    """F(beta, rho) from the table, the one free energy the pipeline reads."""
    return float(model.tau_and_free_energy_of_rho(rho)[1])


class TestFreeEnergy:
    """The table's F pieces, the free energy of advance, entropy_pair_residual
    and clausius_gap."""

    def test_harmonic_closed_form(self, harmonic):
        for rho in (-1.0, 0.0, 2.0):
            assert table_free_energy(harmonic, rho) == pytest.approx(
                rho**2 / 2 - 0.5 * math.log(2 * math.pi), abs=1e-12
            )

    def test_convexity_on_triples(self, anharmonic):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a, b = sorted(rng.uniform(-3, 3, 2))
            mid = 0.5 * (a + b)
            assert (
                table_free_energy(anharmonic, a) + table_free_energy(anharmonic, b)
                >= 2 * table_free_energy(anharmonic, mid) - 1e-10
            )

    def test_second_derivative_bounds(self, anharmonic):
        eps = 1e-3
        for rho in (-2.0, 0.0, 1.5):
            f2 = (
                table_free_energy(anharmonic, rho + eps)
                - 2 * table_free_energy(anharmonic, rho)
                + table_free_energy(anharmonic, rho - eps)
            ) / eps**2
            assert 0.75 - 1e-3 <= f2 <= 1.0 + 1e-3

    def test_legendre_involution(self, anharmonic):
        # beta^-1 G(beta,tau) = sup_rho { tau rho - F(rho) } on a dense grid;
        # grid-max misses the true sup by ~F'' h^2 / 8, so keep h <= 1.4e-3
        rho_grid = np.linspace(-5.5, 5.5, 8001)
        f_grid = anharmonic.tau_and_free_energy_of_rho(rho_grid)[1]
        for tau in np.linspace(-3.5, 3.5, 20):
            sup = np.max(tau * rho_grid - f_grid)
            assert sup == pytest.approx(
                log_partition(anharmonic, float(tau)) / anharmonic.beta, abs=1e-6
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


class TestMomentPanels:
    @pytest.mark.parametrize(
        "beta, kappa, h",
        [
            (1.0, 0.25, 0.1),
            (2.0, 0.0, 0.1),
            (20.0, 0.1, 0.1),
            (2000.0, 0.33, 1.0),
            (4000.0, 0.33, 1.0),
        ],
        # the last two bands are wider than a window, so they are split into
        # panels; at beta kappa h^2 = 1320 a shift that bounds the band by the
        # left quadratic overshoots its peak by ~800 and every weight underflows
        ids=["default", "harmonic", "cold", "wide-band", "wide-band-cold"],
    )
    def test_against_simpson_oracle(self, beta, kappa, h):
        # maximisers on both outer pieces, at both band edges and inside the band
        model = ThermoModel(beta=beta, potential=PotentialParams(kappa=kappa, moll_width=h))
        taus = [-50.0, -5.0, -model.c1 * h, 0.0, h, 5.0, 50.0]
        g, rho, _, ev = model._moments(taus)
        for i, tau in enumerate(taus):
            assert g[i] == pytest.approx(simpson_oracle(model, tau, "G"), abs=1e-8)
            assert rho[i] == pytest.approx(simpson_oracle(model, tau, "rho"), abs=1e-6)
            assert 0.5 / beta + ev[i] == pytest.approx(simpson_oracle(model, tau, "U"), abs=1e-7)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 20.0])
    def test_harmonic_closed_forms(self, beta):
        model = ThermoModel(beta=beta, potential=PotentialParams(kappa=0.0))
        h = model.potential.moll_width
        taus = np.concatenate((np.linspace(-50.0, 50.0, 41), [-h, h, np.nextafter(h, 0.0)]))
        g, rho, var, ev = model._moments(taus)
        expected = (
            (g, beta * taus**2 / 2.0 + 0.5 * np.log(2.0 * np.pi / beta)),
            (rho, taus),
            (ev, (taus**2 + 1.0 / beta) / 2.0),
        )
        for got, want in expected:
            assert np.all(np.abs(got - want) <= 1e-14 * (1.0 + np.abs(want)))
        # var = E r^2 - rho^2 cancels to about an ulp of rho^2
        assert np.all(np.abs(var - 1.0 / beta) <= 1e-14 * (1.0 + taus**2))

    def test_table_build_runs_no_root_solve(self, monkeypatch):
        def no_root_solve(*args, **kwargs):
            raise AssertionError("band root solved")

        monkeypatch.setattr(thermo, "_band_root", no_root_solve)
        table = ThermoModel().table
        assert table["certificate"]["max_tau_error"] < 5e-8


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


@pytest.mark.parametrize("kappa", [0.0, 0.25])
def test_argmax_exponent_closed_forms_off_the_band(kappa):
    model = ThermoModel(potential=PotentialParams(kappa=kappa, moll_width=0.1))
    h, c1 = 0.1, 1.0 - kappa
    # above the band r* = tau, below it r* = tau / c1
    for tau in (h, 0.5, 7.0, 1e10):
        assert model._argmax_exponent(tau) == tau
    for tau in (-c1 * h, -0.5, -7.0, -1e10):
        assert model._argmax_exponent(tau) == tau / c1
    # on the band r* solves V'(r*) = tau, which is r* = tau when kappa = 0
    for tau in (-0.05, 0.0, 0.03, 0.0999):
        rstar = model._argmax_exponent(tau)
        assert isinstance(rstar, float) and -h <= rstar <= h
        if kappa == 0.0:
            assert rstar == tau
        else:
            assert abs(model.dV(rstar) - tau) <= 4e-15


@pytest.mark.parametrize("kappa, h", [(0.25, 0.1), (0.33, 1.0), (0.05, 0.3)])
def test_band_root_matches_the_newton_step_written_out(kappa, h):
    # _band_root reads V' and V'' through _potential_slope and
    # _potential_curvature; on the band ext = 0 and the operations are those
    # of the plain-float Newton step below, so the roots agree to the bit
    def written_out(tau):
        r = h
        for _ in range(thermo._NEWTON_STEPS):
            y = min(max(r / h, -1.0), 1.0) + 1.0
            excess = r * (1.0 - kappa) + (4.0 - y) * (y * y * y) * (h / 16.0) * kappa - tau
            if not excess > 0.0:
                return r
            step = r - excess / ((3.0 - y) * (y * y) * (0.25 * kappa) + (1.0 - kappa))
            if not step < r:
                return r
            r = step
        raise AssertionError(f"no root for tau={tau}")

    params = PotentialParams(kappa=kappa, moll_width=h)
    for tau in np.linspace(-(1.0 - kappa) * h, h, 203)[1:-1].tolist():
        root = thermo._band_root(params, tau)
        assert isinstance(root, float) and -h <= root <= h
        assert root == written_out(tau)


class TestSampler:
    def test_tension_moment(self, anharmonic):
        s = anharmonic.sample_canonical(0.5, 10**6, np.random.default_rng(123))
        vp = anharmonic.dV(s.r)
        se = vp.std() / 1000.0
        assert abs(vp.mean() - 0.5) <= 3 * se

    def test_momentum_temperature(self, anharmonic):
        # the wall fixes p_0 = 0: momenta have mean 0 and variance 1/beta
        s = anharmonic.sample_canonical(0.5, 10**6, np.random.default_rng(42))
        se_mean = s.p.std() / 1000.0
        assert abs(s.p.mean()) <= 3 * se_mean
        var = s.p.var()
        se_var = var * math.sqrt(2.0) / 1000.0
        assert abs(var - 1.0) <= 3 * se_var

    def test_harmonic_marginal_ks(self, harmonic):
        s = harmonic.sample_canonical(0.7, 10**5, np.random.default_rng(7))
        stat = kstest(s.r, "norm", args=(0.7, 1.0))
        assert stat.pvalue >= 0.01

    def test_sampler_matches_quadrature(self, anharmonic):
        n = 10**6
        s = anharmonic.sample_canonical(0.8, n, np.random.default_rng(99))
        se = s.r.std() / math.sqrt(n)
        assert abs(s.r.mean() - anharmonic.mean_strain(0.8)) <= 4 * se

    @pytest.mark.parametrize("name", ["tau"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True, None, "1"])
    def test_nonfinite_input_named(self, anharmonic, name, bad):
        args = {"tau": 0.5, "n": 4, "rng": np.random.default_rng(1)}
        args[name] = bad
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            anharmonic.sample_canonical(**args)

    def test_sample_count_validated(self, anharmonic):
        # n = 2.5 used to raise a bare TypeError from the momentum draw
        for bad in (0, -1, 2.5, 2.0, True):
            with pytest.raises(ValueError, match="n must be an integer >= 1"):
                anharmonic.sample_canonical(0.0, bad, np.random.default_rng(0))

    def test_overflowing_tension_raises(self, anharmonic):
        # rejected as a collapsing tension before V could overflow at r* = 1e308
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ThermoError, match="tau=1e\\+308"):
                anharmonic.sample_canonical(1e308, 4, np.random.default_rng(1))

    def test_huge_finite_tension_keeps_distinct_draws(self, anharmonic):
        # the target N(tau, 1/beta) lies on a grid of ulp(tau) = 1.9e-6, so
        # even exact draws share doubles: the shared pairs are about Poisson
        # with mean lam = C(n, 2) ulp(tau) sqrt(beta/(4 pi)) = 0.27. Allow the
        # fewest shares that exact draws exceed with probability below 1e-6
        # (5); a collapse leaves a handful of distinct values
        n, tau = 1000, 1e10
        s = anharmonic.sample_canonical(tau, n, np.random.default_rng(3))
        lam = n * (n - 1) / 2 * math.ulp(tau) * math.sqrt(anharmonic.beta / (4.0 * math.pi))
        term = math.exp(-lam)
        tail, allowed = 1.0 - term, 0
        while tail >= 1e-6:
            allowed += 1
            term *= lam / allowed
            tail -= term
        assert allowed == 5
        assert np.unique(s.r).size >= n - allowed

    @pytest.mark.parametrize("tau", [1e8, 1e10])
    def test_huge_tension_has_the_exact_variance(self, anharmonic, tau):
        # far above the band the target is exactly N(tau, 1/beta)
        n = 200_000
        s = anharmonic.sample_canonical(tau, n, np.random.default_rng(1))
        se = math.sqrt(2.0 / n) / anharmonic.beta
        assert abs(np.var(s.r - tau) - 1.0 / anharmonic.beta) <= 5 * se

    @pytest.mark.parametrize("tau", [1e13, 1e16, 1e100, -1e16])
    def test_collapsing_tension_raises(self, anharmonic, tau):
        # at |r*| >= 2**43 fewer than 1024 doubles fit in one envelope sd
        with pytest.raises(ThermoError, match=re.escape(f"tau={tau}:")):
            anharmonic.sample_canonical(tau, 1000, np.random.default_rng(3))

    def test_deterministic(self, anharmonic):
        a = anharmonic.sample_canonical(0.3, 5000, np.random.default_rng(5))
        b = anharmonic.sample_canonical(0.3, 5000, np.random.default_rng(5))
        assert np.array_equal(a.r, b.r) and np.array_equal(a.p, b.p)
        assert isinstance(a, ChainState) and a.t == 0.0


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
        assert cert["max_F_error"] < 5e-8
        assert cert["monotone_within_bounds"]

    def test_tau_prime_is_the_derivative_of_the_tau_piece(self, anharmonic):
        # the five-point difference is exact on a cubic, so inside each piece
        # it leaves only rounding, 4e-12 at most at e = gap/16
        rho = anharmonic.table["rho"]
        gaps = np.diff(rho)
        e = gaps / 16.0
        for frac in (0.25, 0.5, 0.75):
            x = rho[:-1] + frac * gaps
            tau = anharmonic.tau_of_rho
            fd = (8.0 * (tau(x + e) - tau(x - e)) - (tau(x + 2 * e) - tau(x - 2 * e))) / (12.0 * e)
            assert np.max(np.abs(fd - anharmonic.tau_prime_of_rho(x))) <= 5e-11


@pytest.fixture(scope="module")
def tau_spline(anharmonic):
    """tau(rho) fitted alone: a cubic spline of the table's tensions on its
    strain nodes."""
    table = anharmonic.table
    return CubicSpline(table["rho"], table["tau"])


@pytest.fixture(scope="module")
def f_spline(anharmonic):
    """F(rho) fitted alone: a cubic spline of tau rho - G/beta on the table's
    strain nodes."""
    table = anharmonic.table
    g = anharmonic._moments(table["tau"])[0]
    return CubicSpline(table["rho"], table["tau"] * table["rho"] - g / anharmonic.beta)


class TestTable:
    def test_too_few_quadrature_nodes_fail_certification(self):
        with pytest.raises(ThermoError, match="certification"):
            ThermoModel(n_quad=16).table
        # beta Var r = 0 at these rules used to raise a bare ZeroDivisionError
        for n in (2, 3, 5):
            with pytest.raises(ThermoError, match="tension inversion failed for rho="):
                ThermoModel(n_quad=n).table

    def test_free_energy_error_fails_certification(self, monkeypatch):
        # F pieces shifted by twice the bound, the tau pieces untouched
        pieces, calls = thermo._hermite_pieces, []

        def shifted_f(gaps, y, slope):
            calls.append(y)
            y, slope, c2, c3 = pieces(gaps, y, slope)
            return (y + 1e-7 if len(calls) == 2 else y), slope, c2, c3

        monkeypatch.setattr(thermo, "_hermite_pieces", shifted_f)
        with pytest.raises(ThermoError, match="certification") as failed:
            ThermoModel().table
        errors = dict(re.findall(r"'max_(tau|F)_error': ([^,]+)", str(failed.value)))
        assert float(errors["tau"]) < 5e-8 < float(errors["F"])

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
        tau = anharmonic.tau_of_rho

        def F(rho):
            return anharmonic.tau_and_free_energy_of_rho(rho)[1]

        eps = 1e-5
        for r in (0.3, -1.2):
            fd_f = (F(r + eps) - F(r - eps)) / (2 * eps)
            fd_tau = (tau(r + eps) - tau(r - eps)) / (2 * eps)
            assert float(fd_f) == pytest.approx(float(tau(r)), abs=1e-6)
            assert float(fd_tau) == pytest.approx(float(anharmonic.tau_prime_of_rho(r)), abs=1e-6)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50))
    def test_table_stays_near_the_spline_oracle(
        self, anharmonic, tau_spline, f_spline, fractions
    ):
        # Hermite pieces with exact slopes and not-a-knot splines of the same
        # nodes agree to 1e-13 at random strains, every node and every
        # midpoint; tau_and_free_energy_of_rho's tau is tau_of_rho's to the bit
        rho_nodes = anharmonic.table["rho"]
        rho = rho_nodes[0] + np.asarray(fractions) * (rho_nodes[-1] - rho_nodes[0])
        midpoints = 0.5 * (rho_nodes[:-1] + rho_nodes[1:])
        rho = np.clip(np.concatenate((rho, rho_nodes, midpoints)), rho_nodes[0], rho_nodes[-1])
        tau, f = anharmonic.tau_and_free_energy_of_rho(rho)
        assert np.max(np.abs(tau - tau_spline(rho))) <= 1e-13
        assert np.max(np.abs(f - f_spline(rho))) <= 1e-13
        assert np.array_equal(anharmonic.tau_of_rho(rho), tau)

    def test_tau_and_free_energy_reject_strains_off_the_table(self, anharmonic):
        lo, hi = (float(v) for v in anharmonic.table["rho"][[0, -1]])
        for off in (lo - 1e-9, hi + 1e-9, math.nan, np.array([0.0, hi + 0.5])):
            for lookup in (anharmonic.tau_of_rho, anharmonic.tau_and_free_energy_of_rho):
                with pytest.raises(ValueError, match="outside the thermo table"):
                    lookup(off)

    @pytest.mark.parametrize(
        "lookup, key",
        [
            ("tau_of_rho", "rho"),
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


class TestHermiteTable:
    def test_node_values_and_slopes_are_the_quadratures(self, anharmonic):
        # at a node the pieces give the node's tau, F = tau rho - G/beta and
        # the exact slopes 1/(beta Var r) and tau, to the bit
        rho = anharmonic.table["rho"]
        taus = anharmonic.table["tau"]
        g, _, var, _ = anharmonic._moments(taus)
        tau, f = anharmonic.tau_and_free_energy_of_rho(rho)
        assert np.array_equal(tau, taus)
        assert np.array_equal(f, taus * rho - g / anharmonic.beta)
        assert np.array_equal(anharmonic.tau_prime_of_rho(rho), 1.0 / (anharmonic.beta * var))
        i, t = thermo._locate(anharmonic.table, rho)
        assert np.array_equal(thermo._slope(anharmonic.table["F_pieces"], i, t), taus)

    def test_pieces_are_continuous_across_nodes(self, anharmonic):
        # each piece ends on the next node's value and slope: tau, F and both
        # slopes are continuous to rounding (measured: 2e-18 and 6e-15 at most)
        table = anharmonic.table
        gaps = np.diff(table["rho"])
        left = np.arange(gaps.size)
        for pieces in (table["tau_pieces"], table["F_pieces"]):
            assert np.max(np.abs(thermo._horner(pieces, left, gaps) - pieces[0][1:])) <= 1e-14
            assert np.max(np.abs(thermo._slope(pieces, left, gaps) - pieces[1][1:])) <= 1e-13

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=50))
    def test_bucket_lookup_equals_searchsorted(self, anharmonic, strains):
        # the piece is the last node at or below the strain: nodes, their float
        # neighbours, midpoints, both ends and drawn strains
        rho = anharmonic.table["rho"]
        lo, hi = rho[0], rho[-1]
        inner = rho[1:-1]
        x = np.concatenate(
            (
                rho,
                np.nextafter(inner, -np.inf),
                np.nextafter(inner, np.inf),
                0.5 * (rho[:-1] + rho[1:]),
                [lo, np.nextafter(lo, np.inf), np.nextafter(hi, -np.inf), hi],
                np.clip(strains, lo, hi),
            )
        )
        i, t = thermo._locate(anharmonic.table, x)
        assert np.array_equal(i, np.searchsorted(rho, x, side="right") - 1)
        assert np.array_equal(t, x - rho[i])

    def test_stacked_input_equals_its_rows(self, anharmonic):
        rng = np.random.default_rng(17)
        lo, hi = anharmonic.table["rho"][[0, -1]]
        rho = rng.uniform(lo, hi, size=(5, 33))
        rho[0, :2] = lo, hi
        tau, f = anharmonic.tau_and_free_energy_of_rho(rho)
        for k, row in enumerate(rho):
            assert np.array_equal(anharmonic.tau_of_rho(row), tau[k])
            assert np.array_equal(anharmonic.tau_and_free_energy_of_rho(row)[1], f[k])
            assert np.array_equal(anharmonic.tau_prime_of_rho(row), anharmonic.tau_prime_of_rho(rho)[k])
