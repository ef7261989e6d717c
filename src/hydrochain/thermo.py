"""Thermodynamics of the anharmonic spring: potential, Gibbs function, conjugate
pair (strain <-> tension), free/internal energy and canonical sampling.

Every other module gets its equilibrium quantities from here. All quadratures
run over fixed Gauss-Legendre panels split at the mollification band edges, so
evaluation errors vary smoothly with the arguments and finite differences of
tabulated values stay meaningful down to ~1e-12. A batch of tensions is
integrated in blocks of _BLOCK, so a panel's arrays stay cache-sized, and each
panel forms its weighted integrand once for all four moments; every tension's
sums run along its own row, so the result does not depend on the blocking.

The spline table is built on nodes uniform in tension, where the quadrature
needs no inversion; tension_of_strain, one library Newton call from
tau = rho, is the one inversion of rho(tau). The table holds tau(rho), its
slope and a two-column spline of (tau, F)(rho), all read at a strain; a strain
outside the tabulated range raises instead of extrapolating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline, PPoly
from scipy.optimize import brentq, root_scalar


_QUAD_TOL = 1e-30
_TABLE_RHO_MIN, _TABLE_RHO_MAX = -10.0, 10.0
_TABLE_NODES = 3600
_BLOCK = 256  # tensions per quadrature block: a (256, n_quad) panel stays in cache


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
        if not (math.isfinite(self.kappa) and 0.0 <= self.kappa < 1.0 / 3.0):
            raise ValueError(f"kappa must lie in [0, 1/3), got {self.kappa}")
        if not (math.isfinite(self.moll_width) and self.moll_width > 0.0):
            raise ValueError(f"moll_width must be positive, got {self.moll_width}")

    @property
    def c1(self) -> float:
        return 1.0 - self.kappa

    @property
    def c2(self) -> float:
        return 1.0


def eval_potential(params: PotentialParams, r):
    """Return (V, V', V'') of the mollified potential at r (scalar or array):
    the parts _potential_value, _potential_slope and _potential_curvature on
    the checked strain. A non-finite entry of r raises ValueError, and a
    scalar r gives floats.

    With x = r/h clipped to [-1, 1] and y = x + 1, the blend of V'' is the
    cubic smoothstep s = y^2 (3 - y)/4; its integrals from -1 are
    I1 = y^3 (4 - y)/16 and I2 = y^4 (5 - y)/80, and ext = max(r - h, 0)
    carries V' and V on past the band:

        V'' = (1-kappa) + kappa s
        V'  = (1-kappa) r + kappa (h I1 + ext)
        V   = (1-kappa) r^2/2 + kappa (h^2 I2 + h ext + ext^2/2)

    For r <= -h the kappa terms vanish exactly, so V and V' equal the
    compression quadratic to the bit; for r >= h, V' = r and V'' = 1 up to
    rounding, and V carries the constant kappa*h^2/10 (antiderivative
    continuity).
    """
    r = _strain(r)
    return (
        _potential_value(params, r),
        _potential_slope(params, r),
        _potential_curvature(params, r),
    )


def _strain(r):
    """r as a float array, or a numpy scalar when 0-d; non-finite raises."""
    r = np.asarray(r, dtype=float)
    if not np.isfinite(r).all():
        raise ValueError("potential evaluated at non-finite strain")
    return r[()]


# The three parts of eval_potential, V, V' and V'', each formula written once,
# so a caller computes only the part it reads. Each takes r as a float array
# or numpy scalar, unchecked: callers that know r is finite (the chain's step,
# the quadrature panels) skip the check. The arithmetic follows the operation
# order of the formulas in eval_potential, in place on a few buffers for an
# array r; a scalar r runs the same statements on numpy scalars, where the
# in-place operators rebind, and returns floats.


def _band(params: PotentialParams, r):
    """y = clip(r/h, -1, 1) + 1."""
    y = np.minimum(np.maximum(r / params.moll_width, -1.0), 1.0)
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


def _potential_slope(params: PotentialParams, r):
    """V' at r."""
    k, h = params.kappa, params.moll_width
    y = _band(params, r)
    power = y * y
    power *= y  # y^3
    scratch = 4.0 - y
    scratch *= power
    scratch *= h / 16.0
    scratch += _excess(params, r)
    scratch *= k
    d1 = r * (1.0 - k)
    d1 += scratch
    return float(d1) if d1.ndim == 0 else d1


def _potential_curvature(params: PotentialParams, r):
    """V'' at r."""
    k = params.kappa
    y = _band(params, r)
    d2 = 3.0 - y
    d2 *= y * y
    d2 *= 0.25 * k
    d2 += 1.0 - k
    return float(d2) if d2.ndim == 0 else d2


@dataclass(frozen=True)
class GibbsSample:
    """i.i.d. draws from the single-spring canonical measure."""

    r: np.ndarray
    p: np.ndarray


class ThermoModel:
    """Canonical thermodynamics at inverse temperature beta.

    Exposes the potential shorthands V and dV, the exact quadrature path
    (log_partition, mean_strain, tension_of_strain, free_energy,
    internal_energy, sample_canonical) and a lazily built, certified spline
    table for hot loops (tau_of_rho, tau_prime_of_rho, free_energy_of_rho and
    tau_and_free_energy_of_rho, one spline call for both), each read at a
    strain. tau' = 1/(beta Var r) exists once, as tau_prime_of_rho, the
    derivative of the tau_of_rho spline. Construction runs no quadrature and
    no check of V'': its formula (eval_potential) keeps it in [c1, c2] for
    every kappa that PotentialParams admits.
    """

    def __init__(
        self,
        beta: float = 1.0,
        potential: PotentialParams | None = None,
        n_quad: int = 80,
    ):
        if not (math.isfinite(beta) and beta > 0.0):
            raise ValueError(f"beta must be positive, got {beta}")
        if not (isinstance(n_quad, (int, np.integer)) and n_quad >= 2):
            raise ValueError(f"n_quad must be an integer >= 2, got {n_quad!r}")
        self.beta = float(beta)
        self.potential = potential if potential is not None else PotentialParams()
        self.c1 = self.potential.c1
        self.c2 = self.potential.c2
        # integration half-width: Gaussian domination V >= V(r*) + c1 (r-r*)^2/2
        # puts the tail mass below _QUAD_TOL at this distance from the maximizer
        self._halfwidth = math.sqrt(2.0 * math.log(1.0 / _QUAD_TOL) / (self.beta * self.c1))
        self._gl_nodes, self._gl_weights = np.polynomial.legendre.leggauss(n_quad)
        self._table = None

    # -- potential shorthands ------------------------------------------------

    def V(self, r):
        return _potential_value(self.potential, _strain(r))

    def dV(self, r):
        return _potential_slope(self.potential, _strain(r))

    # -- exact quadrature core ----------------------------------------------

    def _argmax_exponents(self, taus: np.ndarray) -> np.ndarray:
        """Maximiser r* of tau r - V(r), i.e. V'(r*) = tau (V' strictly
        increasing), for each entry of a 1-d taus: the closed forms off the
        band as array operations, brentq only inside it, where kappa > 0."""
        k, h = self.potential.kappa, self.potential.moll_width
        rstar = taus / (1.0 - k)
        ext = taus >= h
        rstar[ext] = taus[ext]
        if k == 0.0:  # V' = r on the band too
            return rstar
        for i in np.flatnonzero(~ext & (taus > -(1.0 - k) * h)):
            rstar[i] = brentq(
                lambda r, tau: self.dV(r) - tau, -h, h, args=(taus[i],), xtol=1e-15, rtol=8.9e-16
            )
        return rstar

    def _moments(self, tau_values):
        """Batched canonical moments at each tau.

        Returns arrays (G, rho, var, EV): log partition, mean strain, strain
        variance and mean potential energy under exp(-beta V + beta tau r).
        The quadrature runs over blocks of _BLOCK tensions, so its panels stay
        cache-sized however many tensions are asked for; each tension's sums
        are the same whatever block holds it.
        """
        taus = np.atleast_1d(np.asarray(tau_values, dtype=float))
        if not np.all(np.isfinite(taus)):
            raise ValueError("non-finite tension in quadrature")
        blocks = [
            self._moments_block(taus[i : i + _BLOCK]) for i in range(0, taus.size, _BLOCK)
        ]
        return tuple(np.concatenate(cols) for cols in zip(*blocks))

    def _moments_block(self, taus: np.ndarray):
        """_moments on one block of finite tensions.

        Each window [r* - w, r* + w] is split at the band edges into three
        Gauss-Legendre panels. A panel forms the weighted integrand
        fw = f (half w_i) once: z = sum fw, the strain moments share the
        product fw r (m1 = sum fw r, m2 = sum (fw r) r), and mv = sum fw v.
        """
        beta = self.beta
        h = self.potential.moll_width
        w = self._halfwidth
        rstar = self._argmax_exponents(taus)
        vstar = self.V(rstar)

        lo = rstar - w
        hi = rstar + w
        # split each window at the band edges that fall inside it
        cuts = [lo, np.clip(-h, lo, hi), np.clip(h, lo, hi), hi]
        z = np.zeros_like(taus)
        m1 = np.zeros_like(taus)
        m2 = np.zeros_like(taus)
        mv = np.zeros_like(taus)
        for a, b in zip(cuts[:-1], cuts[1:]):
            half = (b - a) / 2.0
            mid = (b + a) / 2.0
            r = mid[:, None] + half[:, None] * self._gl_nodes[None, :]
            v = _potential_value(self.potential, r)
            f = np.exp(beta * (taus[:, None] * (r - rstar[:, None]) - v + vstar[:, None]))
            fw = f * (half[:, None] * self._gl_weights[None, :])
            fwr = fw * r
            z += np.sum(fw, axis=1)
            m1 += np.sum(fwr, axis=1)
            m2 += np.sum(fwr * r, axis=1)
            mv += np.sum(fw * v, axis=1)
        if np.any(z <= 0.0) or not np.all(np.isfinite(z)):
            raise ThermoError(f"quadrature non-convergence at tau={taus}, Z={z}")
        g = beta * (taus * rstar - vstar) + np.log(z)
        rho = m1 / z
        var = m2 / z - rho**2
        ev = mv / z
        return g, rho, var, ev

    def log_partition(self, tau: float) -> float:
        """G(beta, tau) = log of the single-spring partition integral."""
        return float(self._moments(tau)[0][0])

    def mean_strain(self, tau: float) -> float:
        """rho(beta, tau): canonical mean of r (direct quadrature)."""
        return float(self._moments(tau)[1][0])

    def internal_energy(self, tau: float) -> float:
        """U(beta, tau) = 1/(2 beta) + E[V(r)] (kinetic part exact)."""
        return 0.5 / self.beta + float(self._moments(tau)[3][0])

    def tension_of_strain(self, rho: float) -> float:
        """Invert rho(tau) = rho by Newton's method from tau = rho, one
        quadrature giving the residual and its slope beta Var r per step.

        No bracket is needed: beta Var r lies in [1/c2, 1/c1], so each step
        multiplies the error by at most kappa/(1 - kappa) < 1/2 (as
        PotentialParams requires kappa < 1/3), and a last step below
        1e-12 (1 + |tau|) bounds it. A tighter stop can cycle between two
        tensions: the quadrature's rounding in rho is ~1e-12 at |rho| = 100.
        """
        if not math.isfinite(rho):
            raise ValueError(f"non-finite strain {rho}")

        def residual(tau):
            _, rh, var, _ = self._moments(tau)
            return float(rh[0]) - rho, self.beta * float(var[0])

        sol = root_scalar(residual, x0=rho, fprime=True, method="newton", xtol=1e-12, rtol=1e-12)
        if not sol.converged:
            raise ThermoError(f"tension inversion failed for rho={rho}: {sol.flag}")
        return float(sol.root)

    def free_energy(self, rho: float) -> float:
        """F(beta, rho) = tau rho - G(beta,tau)/beta at the conjugate tau."""
        tau = self.tension_of_strain(rho)
        return tau * rho - self.log_partition(tau) / self.beta

    # -- sampling -------------------------------------------------------------

    def sample_canonical(self, pbar: float, tau: float, n: int, seed) -> GibbsSample:
        """n i.i.d. draws from the canonical single-spring measure.

        Momenta are exactly Gaussian(pbar, 1/beta). Strains come from rejection
        against the Gaussian envelope N(r*, 1/(beta c1)), valid because
        V'' >= c1 makes the target log-concave under that envelope. A tension
        so large that fewer than 1024 representable strains fit in one
        envelope standard deviation about r*, where the draws would collapse
        onto a few values, raises ThermoError, as does an acceptance ratio
        that is not finite.
        """
        if n < 1:
            raise ValueError(f"need n >= 1 samples, got {n}")
        for name, value in (("pbar", pbar), ("tau", tau)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        beta = self.beta
        p = pbar + rng.standard_normal(n) / math.sqrt(beta)
        rstar = float(self._argmax_exponents(np.array([float(tau)]))[0])
        sd = 1.0 / math.sqrt(beta * self.c1)
        if math.ulp(rstar) > sd / 1024.0:
            raise ThermoError(
                f"canonical sampler at tau={tau}: fewer than 1024 doubles lie within "
                f"one envelope sd = {sd:.6g} of r* = {rstar:.6g}; the draws would collapse"
            )
        vstar = self.V(rstar)
        out = np.empty(n)
        filled = 0
        while filled < n:
            m = max(int(1.25 * (n - filled)) + 16, 64)
            cand = rstar + sd * rng.standard_normal(m)
            v = _potential_value(self.potential, cand)
            log_acc = beta * (
                tau * (cand - rstar) - v + vstar + self.c1 * (cand - rstar) ** 2 / 2.0
            )
            if not np.isfinite(log_acc).all():
                raise ThermoError(
                    f"canonical sampler at tau={tau}: the acceptance ratio is not finite"
                )
            keep = cand[np.log(rng.random(m)) < log_acc]
            take = min(keep.size, n - filled)
            out[filled : filled + take] = keep[:take]
            filled += take
        return GibbsSample(r=out, p=p)

    # -- tabulated fast path ----------------------------------------------------

    def _build_table(self):
        """Splines of tau(rho) and F(rho) on _TABLE_NODES nodes uniform in tau,
        from the exact tension of _TABLE_RHO_MIN to that of _TABLE_RHO_MAX, with
        tau_F_of_rho stacking their coefficients, so its columns equal them to
        the bit. One batched quadrature gives (G, rho) at every node; the slope
        bounds keep the strain spacing within c2/c1 of uniform. Certified
        against exact tensions midway between nodes and the slope bounds."""
        taus = np.linspace(
            self.tension_of_strain(_TABLE_RHO_MIN),
            self.tension_of_strain(_TABLE_RHO_MAX),
            _TABLE_NODES,
        )
        g, rho, _, _ = self._moments(taus)
        if np.any(np.diff(rho) <= 0.0):
            raise ThermoError("tabulated strain is not strictly increasing")
        tau_of_rho = CubicSpline(rho, taus)
        f_of_rho = CubicSpline(rho, taus * rho - g / self.beta)
        table = {
            "tau": taus,
            "rho": rho,
            "tau_of_rho": tau_of_rho,
            # built once: tau_prime_of_rho and the certificate read it
            "tau_of_rho_slope": tau_of_rho.derivative(),
            "tau_F_of_rho": PPoly(np.stack((tau_of_rho.c, f_of_rho.c), axis=-1), tau_of_rho.x),
        }
        probe = 0.5 * (taus[:-1:40] + taus[1::40])
        _, rho_p, _, _ = self._moments(probe)
        err_tau = np.max(np.abs(table["tau_of_rho"](rho_p) - probe))
        dense = np.linspace(rho[0], rho[-1], 20001)
        slope_dense = table["tau_of_rho_slope"](dense)
        mono_ok = slope_dense.min() >= self.c1 - 1e-6 and slope_dense.max() <= self.c2 + 1e-6
        table["certificate"] = {
            "max_tau_error": float(err_tau),
            "slope_range": (float(slope_dense.min()), float(slope_dense.max())),
            "monotone_within_bounds": bool(mono_ok),
        }
        if err_tau > 5e-8 or not mono_ok:
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
        """Spline tension, vectorized; certified against the exact inversion."""
        return self.table["tau_of_rho"](self._in_table(rho))

    def tau_and_free_energy_of_rho(self, rho):
        """(tau(rho), F(rho)) from one range check and one spline evaluation."""
        return tuple(np.moveaxis(self.table["tau_F_of_rho"](self._in_table(rho)), -1, 0))

    def free_energy_of_rho(self, rho):
        return self.tau_and_free_energy_of_rho(rho)[1]

    def tau_prime_of_rho(self, rho):
        """d tau/d rho = 1/(beta Var r): the derivative of the tau_of_rho spline."""
        return self.table["tau_of_rho_slope"](self._in_table(rho))
