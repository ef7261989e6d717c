"""Block averages, empirical fields and the micro/macro bridge statistics.

Index convention: site sequences are 1-based in the math (u_1..u_N); array
arguments are plain 0-based numpy arrays. hat_profile and bar_profile start at
site i = l, so the average at site i is entry i - l.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .microchain import ChainState
from .thermo import ThermoModel


class ConfigurationError(ValueError):
    """Inadmissible statistic request (window, support, field)."""


def default_block_width(n: int) -> int:
    """ceil(N^(2/3)): with sigma = ceil(N^(3/4)) this gives l/sigma -> 0 and
    N sigma / l^3 -> 0."""
    return int(math.ceil(n ** (2.0 / 3.0) - 1e-9))


@dataclass(frozen=True)
class BlockSpec:
    l: int
    N: int

    def __post_init__(self):
        for name in ("l", "N"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        if not (1 <= self.l <= self.N):
            raise ConfigurationError(f"need 1 <= l <= N, got l={self.l}, N={self.N}")
        if 2 * self.l > self.N:
            raise ConfigurationError(
                f"no admissible hat window for l={self.l}, N={self.N}"
            )


@functools.lru_cache(maxsize=64)
def _kernels(l: int) -> tuple[np.ndarray, np.ndarray]:
    """(triangular, flat) weights for window l, built once per l; they are
    shared, so read-only."""
    j = np.arange(-(l - 1), l)
    kernels = ((l - np.abs(j)) / l**2, np.full(l, 1.0 / l))
    for kernel in kernels:
        kernel.flags.writeable = False
    return kernels


def triangular_kernel(l: int) -> np.ndarray:
    """Weights (l - |j|)/l^2 for |j| < l; read-only (see _kernels)."""
    return _kernels(l)[0]


def _check_window(l) -> None:
    """BlockSpec's rule for the window: an integer >= 1."""
    if not (isinstance(l, (int, np.integer)) and l >= 1):
        raise ConfigurationError(f"l must be an integer >= 1, got {l!r}")


def hat_profile(u: np.ndarray, l: int) -> np.ndarray:
    """Triangular block averages for i = l..N-l+1 (length N-2l+2)."""
    _check_window(l)
    u = np.asarray(u, dtype=float)
    if 2 * l > u.size:
        raise ConfigurationError(f"l={l} too large for N={u.size}")
    return np.convolve(u, triangular_kernel(l), mode="valid")


def bar_profile(u: np.ndarray, l: int) -> np.ndarray:
    """Flat left-window means for i = l..N (length N-l+1)."""
    _check_window(l)
    u = np.asarray(u, dtype=float)
    if l > u.size:
        raise ConfigurationError(f"l={l} too large for N={u.size}")
    return np.convolve(u, _kernels(l)[1], mode="valid")


def _check_size(state: ChainState, spec: BlockSpec) -> None:
    """A state of spec.N sites: r and p of shape (N,)."""
    for name, x in (("r", state.r), ("p", state.p)):
        if np.shape(x) != (spec.N,):
            raise ConfigurationError(f"state {name} has shape {np.shape(x)}, need ({spec.N},)")


@dataclass
class EmpiricalField:
    """Piecewise-constant (r_hat, p_hat)(x) built from triangular averages,
    supported on the balls of diameter 1/N centered at i/N, i = l..N-l+1."""

    r_hat: np.ndarray
    p_hat: np.ndarray
    N: int
    l: int
    t: float

    @classmethod
    def from_state(cls, state: ChainState, spec: BlockSpec) -> "EmpiricalField":
        _check_size(state, spec)
        return cls(
            r_hat=hat_profile(state.r, spec.l),
            p_hat=hat_profile(state.p, spec.l),
            N=spec.N,
            l=spec.l,
            t=state.t,
        )

    @property
    def sites(self) -> np.ndarray:
        """1-based site indices carrying values."""
        return np.arange(self.l, self.N - self.l + 2)

    @property
    def x(self) -> np.ndarray:
        return self.sites / self.N

    @property
    def x_coverage(self) -> tuple[float, float]:
        return (self.l - 0.5) / self.N, (self.N - self.l + 1.5) / self.N


def _check_support(fields, phi, label: str):
    t_lo, t_hi = fields[0].t, fields[-1].t
    if phi.t1 > t_hi + 1e-12 or phi.t0 < t_lo - 1e-12:
        raise ConfigurationError(
            f"{label} time support ({phi.t0}, {phi.t1}) exceeds data range ({t_lo}, {t_hi})"
        )
    cov_lo, cov_hi = fields[0].x_coverage
    if phi.x0 < cov_lo - 1e-12 or phi.x1 > cov_hi + 1e-12:
        raise ConfigurationError(
            f"{label} space support ({phi.x0}, {phi.x1}) exceeds field coverage "
            f"({cov_lo:.4f}, {cov_hi:.4f})"
        )


def weak_residual(fields, phi, psi, model: ThermoModel) -> tuple[float, float]:
    """Weak-form residuals of the p-system tested against (phi, psi):

    int int (r_hat dphi/dt - p_hat dphi/dx) and
    int int (p_hat dpsi/dt - tau(r_hat) dpsi/dx),

    midpoint in x on the piecewise-constant field, trapezoid in t over the
    recorded snapshots. The K fields are stacked into (K, S) arrays, and each
    derivative is evaluated once on the (K, S) grid of times and sites."""
    if len(fields) < 2:
        raise ConfigurationError("need at least two recorded fields")
    _check_support(fields, phi, "phi")
    _check_support(fields, psi, "psi")
    times = np.array([f.t for f in fields])
    n = fields[0].N
    t, x = times[:, None], fields[0].x[None, :]
    r_hat = np.stack([f.r_hat for f in fields])
    p_hat = np.stack([f.p_hat for f in fields])
    tau_hat = np.asarray(model.tau_of_rho(r_hat))
    res_r = np.sum(r_hat * phi.dt(t, x) - p_hat * phi.dx(t, x), axis=1) / n
    res_p = np.sum(p_hat * psi.dt(t, x) - tau_hat * psi.dx(t, x), axis=1) / n
    return float(np.trapezoid(res_r, times)), float(np.trapezoid(res_p, times))


def statistics_row(state: ChainState, spec: BlockSpec, sigma: float, model: ThermoModel):
    """One row of the statistics CSV at a snapshot, in the columns of
    STATISTICS_HEADER: t, N, l, sigma, then each statistic (1/N) sum_i d_i^2
    over its window, for the differences d_i

        one_block:         hat V'_{l,i} - tau(hat r_{l,i}),     i = l..N-l+1
        two_block_<f>:     hat f_{l,i+1} - hat f_{l,i},         i = l..N-l
        hat_bar_gap_<f>:   hat f_{l,i} - bar f_{l,i},           i = l..N-l+1

    with f = r, p, Vp = V'(r) and, for two_block only, tau = tau(hat r).
    V'(r), each hat profile and tau(hat r) are computed once; the differences
    are stacked by window length, so two reductions give all eight sums."""
    _check_size(state, spec)
    l, n = spec.l, spec.N
    sites = (state.r, state.p, model.dV(state.r))
    hats = [hat_profile(u, l) for u in sites]
    hats = np.array(hats + [model.tau_of_rho(hats[0])])  # rows r, p, Vp, tau
    bars = [zh - bar_profile(u, l)[: zh.size] for zh, u in zip(hats, sites)]
    one_block_and_bars = np.array([hats[2] - hats[3], *bars])
    two_block = hats[:, 1:] - hats[:, :-1]
    sums = [np.sum(d * d, axis=1) / n for d in (one_block_and_bars, two_block)]
    one_block, *hat_bar = sums[0].tolist()
    return (state.t, n, l, sigma, one_block, *sums[1].tolist(), *hat_bar)


STATISTICS_HEADER = [
    "t",
    "N",
    "l",
    "sigma",
    "one_block",
    "two_block_r",
    "two_block_p",
    "two_block_Vp",
    "two_block_tau",
    "hat_bar_gap_r",
    "hat_bar_gap_p",
    "hat_bar_gap_Vp",
]

