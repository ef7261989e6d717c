"""Thermodynamics of the anharmonic spring: potential, Gibbs function, conjugate
pair (strain <-> tension), free/internal energy and canonical sampling.

Every other module gets its equilibrium quantities from here. All quadratures
run over Gauss-Legendre panels split at the mollification band edges, so
evaluation errors vary smoothly with the arguments and finite differences of
tabulated values stay meaningful down to ~1e-12. Off the band the spring is
exactly quadratic, so each outer panel integrates one Gaussian about its
centre, with no root solve, no V evaluation and no cancellation between
terms of size r^2; the band panel is the same for every tension, its V
values computed once per model. A batch of tensions is integrated in blocks
of _BLOCK, which bounds the panels' memory, and every tension's sums run
along its own row, so the result does not depend on the blocking.

The table is built on nodes uniform in tension, where the quadrature needs no
inversion; tension_of_strain, a Newton loop from tau = rho, is the one
inversion of rho(tau). The quadrature also gives each node's exact slopes,
dtau/drho = 1/(beta Var r) and dF/drho = tau, so tau(rho) and F(rho) are cubic
Hermite pieces with no linear solve, found through uniform strain buckets and
read at a strain; a strain outside the tabulated range raises instead of
extrapolating. The table's F is the package's one free energy. The module
needs numpy only; sample_canonical draws from the caller's generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# numpy 2 loads this on first use: imported here, a first model does not pay
from numpy.polynomial.legendre import leggauss

from .schedules import ChainState, checked_integer, checked_positive, checked_real

_QUAD_TOL = 1e-30
_TABLE_RHO_MIN, _TABLE_RHO_MAX = -10.0, 10.0
_TABLE_NODES = 3600
_BLOCK = 256  # tensions per quadrature block: bounds the panels' memory
_NEWTON_STEPS = 50  # a scalar Newton loop that has not stopped by then raises


class ThermoError(RuntimeError):
    """Numerical failure inside the thermodynamic engine."""


@dataclass(frozen=True)
class PotentialParams:
    """Anharmonic spring: quadratic with stiffness 1 under extension, 1-kappa
    under compression, blended by a cubic smoothstep on |r| <= moll_width.

    kappa = 0 degenerates to the harmonic spring (used by exact oracles).
    """

    kappa: float = 0.25
    moll_width: float = 0.1

    def __post_init__(self) -> None:
        checked_real("kappa", self.kappa, lambda k: 0.0 <= k < 1.0 / 3.0, "in [0, 1/3)")
        checked_positive("moll_width", self.moll_width)

    @property
    def c1(self) -> float:
        return 1.0 - self.kappa

    @property
    def c2(self) -> float:
        return 1.0

    @property
    def extension_offset(self) -> float:
        """V(r) - r^2/2 for r >= h: kappa h^2/10."""
        return self.kappa * self.moll_width**2 / 10.0


def _strain(r):
    """r as a float array, or a numpy scalar when 0-d; non-finite raises."""
    r = np.asarray(r, dtype=float)
    if not np.isfinite(r).all():
        raise ValueError("potential evaluated at non-finite strain")
    return r[()]


# The mollified potential V, V' and V'' at r, each formula written once, so a
# caller computes only the part it reads. With x = r/h clipped to [-1, 1] and
# y = x + 1, the blend of V'' is the cubic smoothstep s = y^2 (3 - y)/4; its
# integrals from -1 are I1 = y^3 (4 - y)/16 and I2 = y^4 (5 - y)/80, and
# ext = max(r - h, 0) carries V' and V on past the band:
#
#     V'' = (1-kappa) + kappa s
#     V'  = (1-kappa) r + kappa (h I1 + ext)
#     V   = (1-kappa) r^2/2 + kappa (h^2 I2 + h ext + ext^2/2)
#
# For r <= -h the kappa terms vanish exactly, so V and V' equal the
# compression quadratic to the bit; for r >= h, V' = r and V'' = 1 up to
# rounding, and V carries the constant kappa*h^2/10 (antiderivative
# continuity). Each part takes r as a float array or numpy scalar, unchecked:
# callers that know r is finite (the chain's step, the quadrature panels) skip
# _strain's check. The arithmetic follows the operation order of these
# formulas, in place on a few buffers for an array r; a scalar r runs the same
# statements on numpy scalars, where the in-place operators rebind, and
# returns floats. The V' and V'' formulas read the band y from _band, so a
# caller that also needs V'' where it took V' (the chain's steps) keeps y and
# skips a second band pass; an out array, where given, receives the result.


def _band(params: PotentialParams, r, out=None):
    """y = clip(r/h, -1, 1) + 1, written into out when given."""
    y = np.minimum(np.maximum(r / params.moll_width, -1.0), 1.0, out=out)
    y += 1.0
    return y


def _excess(params: PotentialParams, r):
    """ext = max(r - h, 0)."""
    return np.maximum(r - params.moll_width, 0.0)


def _potential_value(params: PotentialParams, r):
    """V at r."""
    k, h = params.kappa, params.moll_width
    y, ext = _band(params, r), _excess(params, r)
    power = y * y
    power *= y
    power *= y  # y^4
    scratch = 5.0 - y
    scratch *= power
    scratch *= h * h / 80.0
    y = ext * 0.5
    y += h
    y *= ext
    scratch += y
    scratch *= k
    v = r * r
    v *= 0.5 * (1.0 - k)
    v += scratch
    return float(v) if v.ndim == 0 else v


def _slope_on_band(params: PotentialParams, r, y, out=None):
    """V' at r from its band y = _band(params, r), written into out when given."""
    k, h = params.kappa, params.moll_width
    power = y * y
    power *= y  # y^3
    scratch = 4.0 - y
    scratch *= power
    scratch *= h / 16.0
    scratch += _excess(params, r)
    scratch *= k
    d1 = np.multiply(r, 1.0 - k, out=out)
    d1 += scratch
    return float(d1) if d1.ndim == 0 else d1


def _potential_slope(params: PotentialParams, r):
    """V' at r."""
    return _slope_on_band(params, r, _band(params, r))


def _curvature_on_band(params: PotentialParams, y):
    """V'' from the band y = _band(params, r) of r."""
    k = params.kappa
    d2 = 3.0 - y
    d2 *= y * y
    d2 *= 0.25 * k
    d2 += 1.0 - k
    return float(d2) if d2.ndim == 0 else d2


def _potential_curvature(params: PotentialParams, r):
    """V'' at r."""
    return _curvature_on_band(params, _band(params, r))


def _band_root(params: PotentialParams, tau: float) -> float:
    """The strain r on the band with V'(r) = tau, for -c1 h < tau < h and
    kappa > 0, by Newton's method in plain floats.

    On the band V'' = c1 + kappa s rises with r, so V' is convex there, and
    Newton's method from r = h, where V' = h > tau, falls monotonically onto
    the root: each tangent lies below V'. The loop stops once V'(r) no longer
    exceeds tau or a step would not lower r, and raises ThermoError after
    _NEWTON_STEPS steps."""
    r = params.moll_width
    for _ in range(_NEWTON_STEPS):
        excess = _potential_slope(params, r) - tau
        if not excess > 0.0:
            return r
        step = r - excess / _potential_curvature(params, r)
        if not step < r:
            return r
        r = step
    raise ThermoError(f"band root of V'(r) = {tau} did not converge")


class ThermoModel:
    """Canonical thermodynamics at inverse temperature beta.

    Exposes the potential shorthands V and dV, the exact quadrature path
    (mean_strain, tension_of_strain and internal_energy), the canonical
    sampler sample_canonical, and a lazily built, certified table of cubic
    Hermite pieces (tau_of_rho, tau_prime_of_rho and
    tau_and_free_energy_of_rho, one lookup for tau and F), each read at a
    strain. The table's F is the only free energy; G = log Z is read from
    _moments. tau' = 1/(beta Var r) exists once, as tau_prime_of_rho, the
    derivative of tau_of_rho's piece. Construction runs no quadrature and
    no check of V'': its formula (_potential_curvature) keeps it in [c1, c2]
    for every kappa that PotentialParams admits. It lays out the quadrature's
    fixed parts: the n_quad-point Gauss-Legendre rule, the outer panels'
    scaled nodes, and the band panel's nodes, V values and weights.
    """

    def __init__(
        self,
        beta: float = 1.0,
        potential: PotentialParams = PotentialParams(),
        n_quad: int = 80,
    ):
        checked_positive("beta", beta)
        if not isinstance(potential, PotentialParams):
            raise ValueError(f"potential must be a PotentialParams, got {potential!r}")
        checked_integer("n_quad", n_quad, 2)
        self.beta = float(beta)
        self.potential = potential
        self.c1 = self.potential.c1
        self.c2 = self.potential.c2
        # integration half-width: Gaussian domination V >= V(r*) + c1 (r-r*)^2/2
        # puts the tail mass below _QUAD_TOL at this distance from the maximizer
        self._halfwidth = math.sqrt(2.0 * math.log(1.0 / _QUAD_TOL) / (self.beta * self.c1))
        nodes, weights = leggauss(n_quad)
        # the outer panels, left then right, where V = c r^2/2 + offset
        self._side = np.array([[-1.0], [1.0]])
        self._curvature = np.array([[self.c1], [self.c2]])
        self._offset = np.array([[0.0], [self.potential.extension_offset]])
        self._scale = np.sqrt(0.5 * self.beta * self._curvature)
        self._outer_nodes = (self._scale * nodes)[:, np.newaxis, :]
        self._log_weights = np.log(weights)
        # the band [-h, h], the same for every tension: one panel, or as many
        # as keep each no wider than an outer window, 2w; their nodes r, V(r),
        # beta V(r) and log weights
        h = self.potential.moll_width
        pieces = math.ceil(h / self._halfwidth)
        half = h / pieces
        centres = half * (2.0 * np.arange(pieces) + 1.0) - h
        self._band_r = (centres[:, np.newaxis] + half * nodes)[:, np.newaxis, :]
        self._band_v = _potential_value(self.potential, self._band_r)
        self._band_bv = self.beta * self._band_v
        self._band_log_weights = np.log(half * weights)
        self._table = None

    # -- potential shorthands ------------------------------------------------

    def V(self, r):
        return _potential_value(self.potential, _strain(r))

    def dV(self, r):
        return _potential_slope(self.potential, _strain(r))

    # -- exact quadrature core ----------------------------------------------

    def _argmax_exponent(self, tau: float) -> float:
        """Maximiser r* of tau r - V(r), i.e. V'(r*) = tau (V' strictly
        increasing): the closed forms off the band, _band_root on it if
        kappa > 0."""
        k, h = self.potential.kappa, self.potential.moll_width
        if tau >= h:
            return tau
        if k == 0.0 or tau <= -(1.0 - k) * h:  # kappa = 0: V' = r on the band too
            return tau / (1.0 - k)
        return _band_root(self.potential, tau)

    def _moments(self, tau_values):
        """Batched canonical moments at each tau.

        Returns arrays (G, rho, var, EV): log partition, mean strain, strain
        variance and mean potential energy under exp(beta (tau r - V(r))).
        The integral is split at the band edges into Gauss-Legendre panels
        of n_quad nodes. Off the band V is quadratic, so each outer panel
        integrates one Gaussian, with no root solve and no V evaluation:

            r <= -h:  beta (tau r - V) = K - beta c1 (r - mu)^2 / 2,
                      mu = tau/c1, K = beta tau mu/2;
            r >= h:   beta (tau r - V) = K - beta c2 (r - mu)^2 / 2,
                      mu = tau, K = beta tau^2/2 - beta extension_offset.

        The left window is [min(mu, -h) - w, min(mu + w, -h)] and the right
        one [max(mu - w, h), max(mu, h) + w]: the Gaussian's own window cut
        at the band edge, or a width w out from the edge when mu lies across
        it. An outer panel runs in u = sqrt(beta c/2) side (r - mu), side
        being -1 on the left and 1 on the right, so its exponent K - u^2
        cancels no two terms of size r^2, and its moments of r follow from
        sum fw, sum fw u and sum fw u^2 about mu. The band [-h, h] is one
        panel, or ceil(h/w) equal ones when it is wider than a window, with
        nodes, V values and weights built once per model; there u is r, and
        E V sums fw V.

        Every tension is shifted by S, the largest log-integrand of its
        panels: each outer Gaussian's peak on its window, and the band's
        largest value on its nodes. So G = S + log z, and weights enter the
        exponents as logs, fw = exp(log-integrand + log weight - S). The
        panels run over blocks of _BLOCK tensions (fewer when the band is
        split), which bounds their memory however many tensions are asked
        for; every sum runs along one tension's row, so the result does not
        depend on the blocking.
        """
        taus = np.atleast_1d(np.asarray(tau_values, dtype=float))
        if not np.all(np.isfinite(taus)):
            raise ValueError("non-finite tension in quadrature")
        beta, h, w = self.beta, self.potential.moll_width, self._halfwidth
        # outer panels, one row each (left, right): mu, K and the window
        # [lo, hi] of side (r - mu), and the Gaussian's peak on it
        mu = np.stack((taus / self.c1, taus))
        k = (0.5 * beta) * taus * mu - beta * self._offset
        past = h - self._side * mu
        lo = np.maximum(past, -w)
        hi = np.maximum(past, 0.0) + w
        peak = np.max(k - (self._scale * np.maximum(past, 0.0)) ** 2, axis=0)
        half = (hi - lo) / 2.0
        centre = self._scale * ((hi + lo) / 2.0)  # u at the window's middle
        level = k + np.log(half)

        # per panel (left, right, band...) and tension: sum fw, sum fw u,
        # sum fw u^2, and sum fw V on the band; u is r on the band
        slots = 2 + self._band_r.shape[0]
        shift = np.empty(taus.size)
        sums = np.empty((3, slots, taus.size))
        mv = np.empty((slots - 2, taus.size))
        step = max(1, 3 * _BLOCK // slots)  # _BLOCK tensions' worth of three panels
        for i in range(0, taus.size, step):
            j = min(i + step, taus.size)
            # log-integrands: the band's on its fixed nodes, the outer ones in u
            band = (beta * taus[i:j, np.newaxis]) * self._band_r - self._band_bv
            s = np.maximum(peak[i:j], np.max(band, axis=(0, 2)))
            u = half[:, i:j, np.newaxis] * self._outer_nodes + centre[:, i:j, np.newaxis]
            outer = (level[:, i:j] - s)[:, :, np.newaxis] + self._log_weights - u * u
            band += self._band_log_weights - s[:, np.newaxis]
            fo, fb = np.exp(outer), np.exp(band)
            for panels, fw, x in ((slice(0, 2), fo, u), (slice(2, None), fb, self._band_r)):
                fx = fw * x
                sums[0, panels, i:j] = np.sum(fw, axis=2)
                sums[1, panels, i:j] = np.sum(fx, axis=2)
                sums[2, panels, i:j] = np.sum(fx * x, axis=2)
            mv[:, i:j] = np.sum(fb * self._band_v, axis=2)
            shift[i:j] = s

        z = np.sum(sums[0], axis=0)
        bad = ~(np.isfinite(z) & (z > 0.0))
        if np.any(bad):
            raise ThermoError(f"quadrature non-convergence at tau={taus[bad]}, Z={z[bad]}")
        # outer panels: moments of r = mu + side u/scale from those of u
        z_out = sums[0, :2]
        p1 = sums[1, :2] * (self._side / self._scale)  # sum fw (r - mu)
        m1 = mu * z_out + p1
        m2 = mu * (m1 + p1) + sums[2, :2] / self._scale**2
        mv_out = 0.5 * self._curvature * m2 + self._offset * z_out
        g = shift + np.log(z)
        rho = (np.sum(m1, axis=0) + np.sum(sums[1, 2:], axis=0)) / z
        var = (np.sum(m2, axis=0) + np.sum(sums[2, 2:], axis=0)) / z - rho**2
        ev = (np.sum(mv_out, axis=0) + np.sum(mv, axis=0)) / z
        return g, rho, var, ev

    def mean_strain(self, tau: float) -> float:
        """rho(beta, tau): canonical mean of r (direct quadrature)."""
        checked_real("tau", tau, math.isfinite, "finite")
        return float(self._moments(tau)[1][0])

    def internal_energy(self, tau: float) -> float:
        """U(beta, tau) = 1/(2 beta) + E[V(r)] (kinetic part exact)."""
        checked_real("tau", tau, math.isfinite, "finite")
        return 0.5 / self.beta + float(self._moments(tau)[3][0])

    def tension_of_strain(self, rho: float) -> float:
        """Invert rho(tau) = rho by Newton's method from tau = rho, one
        quadrature giving the residual and its slope beta Var r per step.

        No bracket is needed: beta Var r lies in [1/c2, 1/c1], so each step
        multiplies the error by at most kappa/(1 - kappa) < 1/2 (as
        PotentialParams requires kappa < 1/3). The loop returns the first
        iterate whose step is at most 1e-14 (1 + |tau|), or a tau with zero
        residual, and raises ThermoError after _NEWTON_STEPS steps, or once a
        quadrature too coarse to resolve the spread gives beta Var r <= 0.
        """
        checked_real("rho", rho, math.isfinite, "finite")
        tau = float(rho)
        for _ in range(_NEWTON_STEPS):
            _, rh, var, _ = self._moments(tau)
            residual = float(rh[0]) - rho
            if residual == 0.0:
                return tau
            slope = self.beta * float(var[0])
            if not slope > 0.0:
                raise ThermoError(f"tension inversion failed for rho={rho}: beta Var r = {slope}")
            step = tau - residual / slope
            if abs(step - tau) <= 1e-14 + 1e-14 * abs(tau):
                return step
            tau = step
        raise ThermoError(f"tension inversion failed for rho={rho}: {_NEWTON_STEPS} steps")

    # -- sampling -------------------------------------------------------------

    def sample_canonical(self, tau: float, n: int, rng) -> ChainState:
        """n i.i.d. draws from the canonical single-spring measure, taken
        from the numpy Generator rng, as a ChainState at t = 0.

        Momenta are exactly Gaussian(0, 1/beta): the chain's wall fixes p_0 = 0,
        so 0 is its only equilibrium mean momentum. Strains come from rejection
        against the Gaussian envelope N(r*, 1/(beta c1)), valid because
        V'' >= c1 makes the target log-concave under that envelope. When r*
        lies off the band, a candidate on its piece takes the acceptance
        ratio's closed form in cand - r*, so a huge tension loses no digits
        to V(cand) - V(r*). A tension so large that fewer than 1024
        representable strains fit in one envelope standard deviation about
        r*, where the draws would collapse onto a few values, raises
        ThermoError, as does an acceptance ratio that is not finite.
        """
        checked_integer("n", n, 1)
        checked_real("tau", tau, math.isfinite, "finite")
        beta = self.beta
        p = rng.standard_normal(n) / math.sqrt(beta)
        rstar = self._argmax_exponent(float(tau))
        sd = 1.0 / math.sqrt(beta * self.c1)
        if math.ulp(rstar) > sd / 1024.0:
            raise ThermoError(
                f"canonical sampler at tau={tau}: fewer than 1024 doubles lie within "
                f"one envelope sd = {sd:.6g} of r* = {rstar:.6g}; the draws would collapse"
            )
        vstar = self.V(rstar)
        h = self.potential.moll_width
        out = np.empty(n)
        filled = 0
        while filled < n:
            m = max(int(1.25 * (n - filled)) + 16, 64)
            cand = rstar + sd * rng.standard_normal(m)
            d = cand - rstar
            v = _potential_value(self.potential, cand)
            log_acc = beta * (tau * d - v + vstar + self.c1 * d**2 / 2.0)
            # off the band, on r*'s own piece, the closed form in d needs no
            # V(cand) - V(r*), which loses ulp(r*^2) at a huge tension
            if rstar >= h:
                piece = cand >= h
                log_acc[piece] = -0.5 * beta * self.potential.kappa * d[piece] ** 2
            elif rstar <= -h:
                log_acc[cand <= -h] = 0.0
            if not np.isfinite(log_acc).all():
                raise ThermoError(
                    f"canonical sampler at tau={tau}: the acceptance ratio is not finite"
                )
            keep = cand[np.log(rng.random(m)) < log_acc]
            take = min(keep.size, n - filled)
            out[filled : filled + take] = keep[:take]
            filled += take
        return ChainState(r=out, p=p, t=0.0)

    # -- tabulated fast path ----------------------------------------------------

    def _build_table(self):
        """Cubic Hermite pieces of tau(rho) and F(rho) = tau rho - G/beta on
        _TABLE_NODES nodes uniform in tau, from the exact tension of
        _TABLE_RHO_MIN to that of _TABLE_RHO_MAX. One batched quadrature gives
        (G, rho, Var r) at every node, and with them each column's exact node
        slopes, dtau/drho = 1/(beta Var r) and dF/drho = tau, so no linear
        solve fits the slopes; a piece errs by at most h^4 max|f''''|/384.
        The slope bounds keep the strain spacing within c2/c1 of uniform.

        A strain's piece is found through uniform strain buckets no wider than
        the closest two nodes, so a bucket holds at most one node: the bucket
        names the piece left of that node, and one compare steps past it (see
        _locate). Certified against exact tensions and free energies midway
        between nodes, and the slope bounds."""
        taus = np.linspace(
            self.tension_of_strain(_TABLE_RHO_MIN),
            self.tension_of_strain(_TABLE_RHO_MAX),
            _TABLE_NODES,
        )
        g, rho, var, _ = self._moments(taus)
        gaps = np.diff(rho)
        if np.any(gaps <= 0.0):
            raise ThermoError("tabulated strain is not strictly increasing")
        # buckets per unit strain: the 2^-20 margin dwarfs the rounding of
        # (rho - rho_0) * scale, so two nodes never share a bucket
        scale = (1.0 + 2.0**-20) / gaps.min()
        node_bucket = ((rho - rho[0]) * scale).astype(np.intp)
        # the piece left of each bucket: one less than the nodes in earlier buckets
        first = np.searchsorted(node_bucket, np.arange(node_bucket[-1] + 1)) - 1
        table = {
            "tau": taus,
            "rho": rho,
            "tau_pieces": _hermite_pieces(gaps, taus, 1.0 / (self.beta * var)),
            "F_pieces": _hermite_pieces(gaps, taus * rho - g / self.beta, taus),
            "bucket_scale": scale,
            "bucket_first": first,
            "bucket_edge": rho[first + 1],
        }
        probe = 0.5 * (taus[:-1:40] + taus[1::40])
        g_p, rho_p, _, _ = self._moments(probe)
        at = _locate(table, rho_p)
        err_tau = np.max(np.abs(_horner(table["tau_pieces"], *at) - probe))
        err_f = np.max(np.abs(_horner(table["F_pieces"], *at) - (probe * rho_p - g_p / self.beta)))
        dense = np.linspace(rho[0], rho[-1], 20001)
        slope_dense = _slope(table["tau_pieces"], *_locate(table, dense))
        mono_ok = slope_dense.min() >= self.c1 - 1e-6 and slope_dense.max() <= self.c2 + 1e-6
        table["certificate"] = {
            "max_tau_error": float(err_tau),
            "max_F_error": float(err_f),
            "slope_range": (float(slope_dense.min()), float(slope_dense.max())),
            "monotone_within_bounds": bool(mono_ok),
        }
        if err_tau > 5e-8 or err_f > 5e-8 or not mono_ok:
            raise ThermoError(f"thermo table failed certification: {table['certificate']}")
        return table

    @property
    def table(self):
        if self._table is None:
            self._table = self._build_table()
        return self._table

    def _in_table(self, rho) -> np.ndarray:
        """rho as a float array, checked to lie within the table's strain nodes."""
        nodes = self.table["rho"]
        lo, hi = nodes[0], nodes[-1]
        v = np.asarray(rho, dtype=float)
        if v.size and not (lo <= v.min() and v.max() <= hi):
            bad = v.max() if lo <= v.min() else v.min()
            raise ValueError(f"rho = {bad} lies outside the thermo table [{lo}, {hi}]")
        return v

    def tau_of_rho(self, rho):
        """Tabulated tension, vectorized: the Hermite piece of tau at each
        strain; certified against the exact inversion."""
        table = self.table
        return _horner(table["tau_pieces"], *_locate(table, self._in_table(rho)))

    def tau_and_free_energy_of_rho(self, rho):
        """(tau(rho), F(rho)) from one range check and one piece lookup."""
        table = self.table
        i, t = _locate(table, self._in_table(rho))
        return _horner(table["tau_pieces"], i, t), _horner(table["F_pieces"], i, t)

    def tau_prime_of_rho(self, rho):
        """d tau/d rho = 1/(beta Var r): the derivative of tau_of_rho's piece,
        equal to the exact slope at every node."""
        table = self.table
        return _slope(table["tau_pieces"], *_locate(table, self._in_table(rho)))


# The table's pieces: four 1-D coefficient arrays per column, one entry per
# node, so each gather is one take. Entry i holds the piece on
# [rho_i, rho_i+1] in powers of t = rho - rho_i; the last entry, read at
# rho = rho_n-1 only, holds that node's value and slope and no t^2, t^3 terms.


def _hermite_pieces(gaps, y, slope):
    """(y, slope, c2, c3): on each interval of width gaps, the cubic that
    takes the given values and slopes at both its nodes."""
    secant = np.diff(y) / gaps
    c2, c3 = np.zeros_like(y), np.zeros_like(y)
    c2[:-1] = (3.0 * secant - 2.0 * slope[:-1] - slope[1:]) / gaps
    c3[:-1] = (slope[:-1] + slope[1:] - 2.0 * secant) / gaps**2
    return y, slope, c2, c3


def _locate(table, rho):
    """(i, t): each strain's piece and its offset t = rho - rho_i, from the
    strain's bucket and one compare with the bucket's next node. rho lies on
    the table, in any shape."""
    bucket = ((rho - table["rho"][0]) * table["bucket_scale"]).astype(np.intp)
    i = table["bucket_first"].take(bucket)
    i += rho >= table["bucket_edge"].take(bucket)
    return i, rho - table["rho"].take(i)


def _horner(pieces, i, t):
    """The pieces' value at offsets t into pieces i."""
    y, slope, c2, c3 = pieces
    v = c3.take(i)
    v *= t
    v += c2.take(i)
    v *= t
    v += slope.take(i)
    v *= t
    v += y.take(i)
    return v


def _slope(pieces, i, t):
    """The pieces' derivative at offsets t into pieces i."""
    _, slope, c2, c3 = pieces
    v = 3.0 * c3.take(i)
    v *= t
    v += 2.0 * c2.take(i)
    v *= t
    v += slope.take(i)
    return v
