"""Block averages, empirical fields and the micro/macro bridge statistics.

Index convention: site sequences are 1-based in the math (u_1..u_N); array
arguments are plain 0-based numpy arrays. BlockSpec owns the block window:
its hat and bar profiles start at site i = l, so the average at site i is
entry i - l.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .schedules import ChainState, checked_integer, checked_start
from .thermo import ThermoModel


def default_block_width(n: int) -> int:
    """ceil(N^(2/3)): with sigma = ceil(N^(3/4)) this gives l/sigma -> 0 and
    N sigma / l^3 -> 0."""
    checked_integer("N", n, 2)
    return int(math.ceil(n ** (2.0 / 3.0) - 1e-9))


@dataclass(frozen=True)
class BlockSpec:
    """Block width l on N sites, 1 <= l and 2l <= N, with the window's
    triangular weights (l - |j|)/l^2, |j| < l, and flat weights 1/l, built
    once and read-only."""

    l: int
    N: int
    triangular: np.ndarray = field(init=False, repr=False, compare=False)
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        checked_integer("l", self.l, 1)
        checked_integer("N", self.N, 2)
        if 2 * self.l > self.N:
            raise ValueError(f"no admissible hat window for l={self.l}, N={self.N}")
        j = np.arange(-(self.l - 1), self.l)
        for name, weights in (
            ("triangular", (self.l - np.abs(j)) / self.l**2),
            ("flat", np.full(self.l, 1.0 / self.l)),
        ):
            weights.flags.writeable = False
            object.__setattr__(self, name, weights)

    def hat(self, u) -> np.ndarray:
        """Triangular block averages of u for i = l..N-l+1 (length N-2l+2)."""
        return self._profile(u, self.triangular)

    def bar(self, u) -> np.ndarray:
        """Flat left-window means of u for i = l..N (length N-l+1)."""
        return self._profile(u, self.flat)

    def _profile(self, u, weights: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if u.shape != (self.N,):
            raise ValueError(f"u has shape {u.shape}, need ({self.N},) for N={self.N}")
        return np.convolve(u, weights, mode="valid")


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
        checked_start(state, spec.N, "N")
        return cls(
            r_hat=spec.hat(state.r),
            p_hat=spec.hat(state.p),
            N=spec.N,
            l=spec.l,
            t=state.t,
        )

    @property
    def x(self) -> np.ndarray:
        """Centres i/N of the cells, 1-based sites i = l..N-l+1."""
        return np.arange(self.l, self.N - self.l + 2) / self.N


def weak_residual(fields, phi, psi, model: ThermoModel) -> tuple[float, float]:
    """Weak-form residuals of the p-system tested against (phi, psi):

    int int (r_hat dphi/dt - p_hat dphi/dx) and
    int int (p_hat dpsi/dt - tau(r_hat) dpsi/dx),

    each one SpaceTimeTestFunction.pair of the K fields stacked into (K, S)
    arrays, with tau(r_hat) evaluated once. The pair checks the field times
    and the supports; fewer than two fields, or a field whose (N, l) is not
    the first field's, raise ValueError here."""
    if len(fields) < 2:
        raise ValueError("need at least two recorded fields")
    n, l = fields[0].N, fields[0].l
    for f in fields:
        if (f.N, f.l) != (n, l):
            raise ValueError(f"field at t={f.t} has (N, l) = {(f.N, f.l)}, not {(n, l)}")
    times, x = np.array([f.t for f in fields]), fields[0].x
    r_hat = np.stack([f.r_hat for f in fields])
    p_hat = np.stack([f.p_hat for f in fields])
    tau_hat = np.asarray(model.tau_of_rho(r_hat))
    return phi.pair(times, x, n, r_hat, -p_hat), psi.pair(times, x, n, p_hat, -tau_hat)


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
    checked_start(state, spec.N, "N")
    l, n = spec.l, spec.N
    sites = (state.r, state.p, model.dV(state.r))
    hats = [spec.hat(u) for u in sites]
    hats = np.array(hats + [model.tau_of_rho(hats[0])])  # rows r, p, Vp, tau
    bars = [zh - spec.bar(u)[: zh.size] for zh, u in zip(hats, sites)]
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

