"""Block averages, empirical fields and the micro/macro bridge statistics.

Index convention: site sequences are 1-based in the math (u_1..u_N); array
arguments are plain 0-based numpy arrays, and scalar operations taking a site
index i use the 1-based convention of the block-average definitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .microchain import ChainState
from .thermo import ThermoModel


class ConfigurationError(ValueError):
    """Inadmissible statistic request (window, support, selector)."""


def default_block_width(n: int) -> int:
    """ceil(N^(2/3)): with sigma = ceil(N^(3/4)) this gives l/sigma -> 0 and
    N sigma / l^3 -> 0."""
    return int(math.ceil(n ** (2.0 / 3.0) - 1e-9))


@dataclass(frozen=True)
class BlockSpec:
    l: int
    N: int

    def __post_init__(self):
        if not (1 <= self.l <= self.N):
            raise ConfigurationError(f"need 1 <= l <= N, got l={self.l}, N={self.N}")
        if 2 * self.l > self.N:
            raise ConfigurationError(
                f"no admissible hat window for l={self.l}, N={self.N}"
            )


def triangular_kernel(l: int) -> np.ndarray:
    j = np.arange(-(l - 1), l)
    return (l - np.abs(j)) / l**2


def hat_profile(u: np.ndarray, l: int) -> np.ndarray:
    """Triangular block averages for i = l..N-l+1 (length N-2l+2)."""
    u = np.asarray(u, dtype=float)
    if 2 * l > u.size:
        raise ConfigurationError(f"l={l} too large for N={u.size}")
    if l == 1:
        return u.copy()
    return np.convolve(u, triangular_kernel(l), mode="valid")


def bar_profile(u: np.ndarray, l: int) -> np.ndarray:
    """Flat left-window means for i = l..N (length N-l+1)."""
    u = np.asarray(u, dtype=float)
    if l > u.size:
        raise ConfigurationError(f"l={l} too large for N={u.size}")
    if l == 1:
        return u.copy()
    return np.convolve(u, np.full(l, 1.0 / l), mode="valid")


def hat_average(u, l: int, i: int) -> float:
    """Triangular block average at 1-based site i, l <= i <= N-l+1."""
    u = np.asarray(u, dtype=float)
    n = u.size
    if not (l <= i <= n - l + 1):
        raise ConfigurationError(f"i={i} outside the hat window [{l}, {n - l + 1}]")
    return float(hat_profile(u, l)[i - l])


def bar_average(u, l: int, i: int) -> float:
    """Flat left-window mean at 1-based site i, l <= i <= N."""
    u = np.asarray(u, dtype=float)
    n = u.size
    if not (l <= i <= n):
        raise ConfigurationError(f"i={i} outside the bar window [{l}, {n}]")
    return float(bar_profile(u, l)[i - l])


def etahat_identity_gap(u, l: int, i: int) -> float:
    """|(hat_{l,i+1} - hat_{l,i}) - (bar_{l,i+l} - bar_{l,i})/l|, which is an
    exact algebraic identity (zero up to rounding) for any sequence."""
    lhs = hat_average(u, l, i + 1) - hat_average(u, l, i)
    rhs = (bar_average(u, l, i + l) - bar_average(u, l, i)) / l
    return abs(lhs - rhs)


_FIELD_SELECTORS = ("r", "p", "Vp", "tau")


def _field_values(state: ChainState, selector: str, model: ThermoModel) -> np.ndarray:
    if selector == "r":
        return state.r
    if selector == "p":
        return state.p
    if selector == "Vp":
        return model.dV(state.r)
    if selector == "tau":
        raise ConfigurationError("tau acts on hat-averaged strain, not site values")
    raise ConfigurationError(f"unknown field selector {selector!r}; use {_FIELD_SELECTORS}")


def _mean_square(d: np.ndarray, n: int) -> float:
    return float(np.sum(d**2) / n)


def one_block_statistic(state: ChainState, spec: BlockSpec, model: ThermoModel) -> float:
    """(1/N) sum_i (hat V'_{l,i} - tau_beta(hat r_{l,i}))^2 over the window."""
    vp_hat = hat_profile(model.dV(state.r), spec.l)
    tau_hat = model.tau_of_rho(hat_profile(state.r, spec.l))
    return _mean_square(vp_hat - tau_hat, spec.N)


def _hat_of_selector(state, spec, selector, model):
    if selector == "tau":
        return np.asarray(model.tau_of_rho(hat_profile(state.r, spec.l)))
    return hat_profile(_field_values(state, selector, model), spec.l)


def two_block_statistic(
    state: ChainState, spec: BlockSpec, selector: str, model: ThermoModel
) -> float:
    """(1/N) sum_i (zeta_hat_{l,i+1} - zeta_hat_{l,i})^2, i = l..N-l."""
    zh = _hat_of_selector(state, spec, selector, model)
    return _mean_square(np.diff(zh), spec.N)


def hat_bar_gap_statistic(
    state: ChainState, spec: BlockSpec, selector: str, model: ThermoModel
) -> float:
    """(1/N) sum_i (eta_hat_{l,i} - eta_bar_{l,i})^2 over the hat window."""
    if selector == "tau":
        raise ConfigurationError("hat/bar comparison applies to site fields r, p, Vp")
    u = _field_values(state, selector, model)
    hat = hat_profile(u, spec.l)
    bar = bar_profile(u, spec.l)[: hat.size]
    return _mean_square(hat - bar, spec.N)


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

    def evaluate(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(r_hat, p_hat) at positions x; zero outside the covered range."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        i = np.floor(x * self.N + 0.5).astype(int)
        ok = (i >= self.l) & (i <= self.N - self.l + 1)
        idx = np.clip(i - self.l, 0, self.r_hat.size - 1)
        r = np.where(ok, self.r_hat[idx], 0.0)
        p = np.where(ok, self.p_hat[idx], 0.0)
        return r, p


@dataclass(frozen=True)
class PairingResult:
    raw: float
    field: float

    @property
    def gap(self) -> float:
        return abs(self.raw - self.field)


def empirical_pairing(state: ChainState, spec: BlockSpec, J, selector: str = "r") -> PairingResult:
    """Raw lattice pairing (1/N) sum J(i/N) u_i against the field pairing
    int J(x) u_hat(x) dx (midpoint-exact on the piecewise-constant field)."""
    if selector not in ("r", "p"):
        raise ConfigurationError("pairing applies to the conserved fields r, p")
    u = state.r if selector == "r" else state.p
    n = spec.N
    sites = np.arange(1, n + 1)
    raw = float(np.sum(np.vectorize(J)(sites / n) * u) / n)
    field = EmpiricalField.from_state(state, spec)
    vals = field.r_hat if selector == "r" else field.p_hat
    field_pair = float(np.sum(np.vectorize(J)(field.x) * vals) / n)
    return PairingResult(raw=raw, field=field_pair)


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
    """One row of the statistics CSV at a snapshot: the statistics above, with
    V'(r), each hat profile and tau(hat r) computed once."""
    l, n = spec.l, spec.N
    sites = {"r": state.r, "p": state.p, "Vp": model.dV(state.r)}
    hats = {key: hat_profile(u, l) for key, u in sites.items()}
    tau_hat = np.asarray(model.tau_of_rho(hats["r"]))
    one_block = hats["Vp"] - tau_hat
    two_block = [np.diff(zh) for zh in (*hats.values(), tau_hat)]
    hat_bar = [hats[key] - bar_profile(u, l)[: hats[key].size] for key, u in sites.items()]
    return (state.t, n, l, sigma, *(_mean_square(d, n) for d in (one_block, *two_block, *hat_bar)))


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


def write_statistics_csv(path, snapshots, spec: BlockSpec, sigma: float, model: ThermoModel):
    from .csvio import write_csv

    rows = [statistics_row(s, spec, sigma, model) for s in snapshots]
    write_csv(path, STATISTICS_HEADER, rows)
