"""Analytical positioning-error pipeline.

Three layers: the transmitter clock-edge error model, an upper bound on the
receiver synchronization MSE under photon counting, and the linearized
2-D positioning MSE that combines per-anchor timing variances through the
anchor geometry.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import erfc

from .channel import LinkBudget, SignalParams, los_photon_rate
from .scene import GridSpec, Scene, inside_triangle, ranges


class TheoryError(ValueError):
    """Invalid error-theory input."""


class SingularGeometryError(TheoryError):
    """Linearization matrix is numerically singular at the requested point."""

    def __init__(self, message: str, condition_number: float):
        super().__init__(message)
        self.condition_number = condition_number


class SyncBoundTailWarning(RuntimeWarning):
    """Truncated tail of the sync MSE bound is not negligible."""


def normal_cdf(x):
    """Standard normal CDF via the complementary error function."""
    return 0.5 * erfc(-np.asarray(x, dtype=float) / np.sqrt(2.0))


@dataclass(frozen=True)
class ClockModel:
    """Transmitter clock-edge error: uniform on [lo, hi] seconds, or ideal."""

    distribution: str = "uniform"
    lo_s: float = 0.0
    hi_s: float = 0.0

    def __post_init__(self):
        if self.distribution not in ("uniform", "none"):
            raise TheoryError(f"unknown clock distribution {self.distribution!r}")
        if self.distribution == "uniform" and self.hi_s < self.lo_s:
            raise TheoryError("clock model needs lo_s <= hi_s")

    @classmethod
    def uniform(cls, lo_s: float, hi_s: float) -> "ClockModel":
        return cls("uniform", lo_s, hi_s)

    @classmethod
    def ideal(cls) -> "ClockModel":
        return cls("none", 0.0, 0.0)

    @property
    def variance_s2(self) -> float:
        """Analytic variance (seconds^2) of the clock-edge error model."""
        if self.distribution == "none":
            return 0.0
        return (self.hi_s - self.lo_s) ** 2 / 12.0

    def sample(self, rng: np.random.Generator, size=None):
        if self.distribution == "none":
            return np.zeros(size if size is not None else ())
        return rng.uniform(self.lo_s, self.hi_s, size=size)


@dataclass(frozen=True)
class SyncBoundParams:
    """Inputs of the synchronization-MSE upper bound for one anchor link."""

    lambda_s: float
    lambda_b: float
    length: int
    chips_per_symbol: int
    symbol_s: float
    m_max: int = 8
    eps_quadrature_points: int = 33

    def __post_init__(self):
        if self.lambda_s < 0 or self.lambda_b < 0:
            raise TheoryError("photon rates must be >= 0")
        if self.length < 2:
            raise TheoryError(f"pilot length must be >= 2, got {self.length}")
        if self.chips_per_symbol < 1:
            raise TheoryError("chips_per_symbol must be >= 1")
        if not self.symbol_s > 0:
            raise TheoryError("symbol_s must be > 0")
        if self.m_max < 1:
            raise TheoryError("m_max must be >= 1")
        if self.eps_quadrature_points < 8:
            raise TheoryError("eps_quadrature_points must be >= 8")

    @property
    def chip_s(self) -> float:
        return self.symbol_s / self.chips_per_symbol

    @classmethod
    def from_signal(cls, params: SignalParams, lambda_s: float, lambda_b: float,
                    m_max: int = 8, eps_quadrature_points: int = 33) -> "SyncBoundParams":
        return cls(
            lambda_s=lambda_s,
            lambda_b=lambda_b,
            length=params.length,
            chips_per_symbol=params.chips_per_symbol,
            symbol_s=params.symbol_s,
            m_max=m_max,
            eps_quadrature_points=eps_quadrature_points,
        )


def _p_within(params: SyncBoundParams, k, eps_s):
    """Misdetection-probability bound for a |k|-chip offset inside one symbol.

    Gaussian approximation of the correlation-score gap between the true
    start and a start offset by k chips; broadcasts over k and eps arrays.
    """
    lam_s, lam_b = params.lambda_s, params.lambda_b
    big_l, n, t_s = params.length, params.chips_per_symbol, params.symbol_s
    k = np.asarray(k, dtype=float)
    e = np.asarray(eps_s, dtype=float) / t_s
    num = 0.5 * lam_s * (2.0 * e - k / n) * (big_l - 1)
    var = 2.0 * (k / n) * (0.5 * lam_s + lam_b) * (big_l - 1) + e * lam_s
    if lam_s == 0:
        # No signal: the score gap is pure noise, even odds per comparison.
        return np.broadcast_to(0.5, np.broadcast(num, var).shape).copy()
    return normal_cdf(num / np.sqrt(var))


def _p_cross(params: SyncBoundParams, m, k, eps_s):
    """Misdetection-probability bound for offsets of 2m*n + k chips, m >= 1.

    Where the Gaussian variance term degenerates (possible for extreme m at
    small pilot lengths) the limiting value of the CDF is used.
    """
    lam_s, lam_b = params.lambda_s, params.lambda_b
    big_l, n, t_s = params.length, params.chips_per_symbol, params.symbol_s
    m = np.asarray(m, dtype=float)
    k = np.asarray(k, dtype=float)
    e = np.asarray(eps_s, dtype=float) / t_s
    num = (
        (-2.0 * m) * 0.5 * lam_s * (1.0 - 2.0 * (k / n - e))
        - big_l * 0.5 * lam_s * (1.0 - e)
        - 0.5 * lam_s * (2.0 * e - k / n)
    )
    var = (
        2.0 * (0.5 * lam_s + lam_b)
        * ((big_l - m) - (-2.0 * m) * (1.0 - 2.0 * k / n) - k / n)
        + e * lam_s
    )
    num, var = np.broadcast_arrays(num, var)
    ok = var > 0
    out = np.where(num >= 0, 1.0, 0.0)  # limit of the CDF as the variance vanishes
    safe = np.where(ok, var, 1.0)
    out = np.where(ok, normal_cdf(num / np.sqrt(safe)), out)
    if lam_s == 0:
        out = np.full_like(out, 0.5)
    return out


def misdetect_prob_within_symbol(params: SyncBoundParams, k: int, eps_s: float) -> float:
    """Scalar within-symbol misdetection bound; k = 0 is the complement case.

    Negative k is evaluated at |k|: the bound treats the two offset
    directions symmetrically.
    """
    n = params.chips_per_symbol
    if k == 0 or not 1 <= abs(k) <= n - 1:
        raise TheoryError(f"k must satisfy 1 <= |k| <= {n - 1}, got {k}")
    return float(np.clip(_p_within(params, abs(k), eps_s), 0.0, 1.0))


def misdetect_prob_cross_symbol(params: SyncBoundParams, m: int, k: int, eps_s: float) -> float:
    """Scalar cross-symbol misdetection bound for an offset of 2m*n + k chips."""
    n = params.chips_per_symbol
    if m < 1:
        raise TheoryError(f"m must be >= 1, got {m}")
    if not -n <= k <= n - 1:
        raise TheoryError(f"k must satisfy -{n} <= k <= {n - 1}, got {k}")
    return float(np.clip(_p_cross(params, m, k, eps_s), 0.0, 1.0))


# Truncation is declared unconverged when the last m-term carries more than
# this fraction of the accumulated bound.
TAIL_FRACTION_LIMIT = 1e-6


def sync_mse_bound(params: SyncBoundParams) -> float:
    """Upper bound (seconds^2) on the correlation-sync MSE for one anchor.

    Integrates the squared timing error of every candidate misdetection
    offset, weighted by its probability bound, over the uniform fractional
    offset of the arrival within one chip. Gauss-Legendre quadrature over the
    offset; the cross-symbol sum is truncated at ``m_max`` and a warning is
    emitted if the last term is not negligible.
    """
    value, tail_fraction = _sync_mse_bound_detail(params)
    if tail_fraction > TAIL_FRACTION_LIMIT:
        warnings.warn(
            f"sync MSE bound truncation at m_max={params.m_max} leaves a tail "
            f"fraction of {tail_fraction:.2e}",
            SyncBoundTailWarning,
            stacklevel=2,
        )
    return value


def _sync_mse_bound_detail(params: SyncBoundParams) -> tuple[float, float]:
    n = params.chips_per_symbol
    t_c = params.chip_s
    nodes, weights = np.polynomial.legendre.leggauss(params.eps_quadrature_points)
    eps = nodes * (t_c / 2.0)  # quadrature nodes in (-Tc/2, Tc/2)

    # Exact detection: timing error is just the fractional offset.
    p01 = np.clip(_p_within(params, 1, eps), 0.0, 1.0) if n > 1 else np.zeros_like(eps)
    p00 = np.clip(1.0 - p01, 0.0, None)
    integrand = eps**2 * p00

    # Offsets of 1..n-1 chips within a symbol, both directions.
    if n > 1:
        k = np.arange(1, n, dtype=float)[:, None]
        e_k = k * t_c - eps[None, :]
        p0k = np.clip(_p_within(params, k, eps[None, :]), 0.0, 1.0)
        integrand = integrand + 2.0 * np.sum(e_k**2 * p0k, axis=0)

    # Offsets beyond a symbol: 2m*n + k chips for m = 1..m_max, doubled for
    # the mirrored direction.
    m = np.arange(1, params.m_max + 1, dtype=float)[:, None, None]
    k = np.arange(-n, n, dtype=float)[None, :, None]
    e_mk = (2.0 * m * n + k) * t_c - eps[None, None, :]
    pmk = np.clip(_p_cross(params, m, k, eps[None, None, :]), 0.0, 1.0)
    cross = 2.0 * np.sum(e_mk**2 * pmk, axis=(0, 1))
    tail = 2.0 * np.sum((e_mk**2 * pmk)[-1], axis=0)
    integrand = integrand + cross

    # Average over the fractional offset: density 1/Tc over a Tc-wide
    # interval cancels the interval half-width against the node scaling.
    value = float(0.5 * np.sum(weights * integrand))
    tail_value = float(0.5 * np.sum(weights * tail))
    tail_fraction = tail_value / value if value > 0 else 0.0
    return value, tail_fraction


@dataclass(frozen=True)
class ErrorBudget:
    """Per-anchor timing variances and the resulting positioning MSE."""

    sigma2_a: float
    sigma2_b: float
    sigma2_c: float
    mse_matrix: tuple[tuple[float, float], tuple[float, float]]
    e_p: float
    condition_number: float

    def mse_array(self) -> np.ndarray:
        return np.asarray(self.mse_matrix, dtype=float)


# Condition numbers above this declare the geometry matrix singular.
CONDITION_LIMIT = 1e8


def geometry_matrix(scene: Scene, at=None) -> np.ndarray:
    """Partials of the two range differences w.r.t. the receiver position."""
    p = np.asarray(at if at is not None else scene.rx_true, dtype=float)
    r1, r2, r3 = ranges(scene, p)
    (ax, ay), (bx, by), (cx, cy) = scene.tx_a, scene.tx_b, scene.tx_c
    x0, y0 = p
    return np.array(
        [
            [(ax - x0) / r1 - (bx - x0) / r2, (ay - y0) / r1 - (by - y0) / r2],
            [(bx - x0) / r2 - (cx - x0) / r3, (by - y0) / r2 - (cy - y0) / r3],
        ]
    )


def positioning_mse(
    scene: Scene,
    sigma2_a: float,
    sigma2_b: float,
    sigma2_c: float,
    at=None,
) -> ErrorBudget:
    """Linearized positioning MSE from per-anchor arrival-time variances.

    The timing covariance of the two measured differences (B-A and C-B
    arrival errors share the B term, hence the negative off-diagonal) is
    propagated through the inverted geometry matrix; the scalar error is the
    square root of the trace.
    """
    for name, s2 in (("sigma2_a", sigma2_a), ("sigma2_b", sigma2_b), ("sigma2_c", sigma2_c)):
        if s2 < 0:
            raise TheoryError(f"{name} must be >= 0, got {s2}")
    g = geometry_matrix(scene, at)
    cond = float(np.linalg.cond(g))
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise SingularGeometryError(
            f"geometry matrix is singular at {at if at is not None else scene.rx_true} "
            f"(condition number {cond:.3e})",
            condition_number=cond,
        )
    c2 = scene.c**2
    hh = c2 * np.array(
        [
            [sigma2_a + sigma2_b, -sigma2_b],
            [-sigma2_b, sigma2_b + sigma2_c],
        ]
    )
    g_inv = np.linalg.inv(g)
    mse = g_inv @ hh @ g_inv.T
    mse = 0.5 * (mse + mse.T)  # symmetrize away last-bit asymmetry
    e_p = float(np.sqrt(max(np.trace(mse), 0.0)))
    return ErrorBudget(
        sigma2_a=float(sigma2_a),
        sigma2_b=float(sigma2_b),
        sigma2_c=float(sigma2_c),
        mse_matrix=((float(mse[0, 0]), float(mse[0, 1])), (float(mse[1, 0]), float(mse[1, 1]))),
        e_p=e_p,
        condition_number=cond,
    )


@dataclass(frozen=True)
class TheoryPoint:
    """Per-grid-point theoretical error entry."""

    x: float
    y: float
    e_p: float
    condition_number: float
    singular: bool
    inside: bool


@dataclass(frozen=True)
class TheoryMap:
    """Theoretical error over a receiver grid."""

    points: tuple[TheoryPoint, ...]

    def average_ep(self, inside_only: bool = False) -> float:
        vals = [
            p.e_p
            for p in self.points
            if not p.singular and (p.inside or not inside_only)
        ]
        if not vals:
            raise SingularGeometryError("no non-singular grid points", float("inf"))
        return float(np.mean(vals))


@lru_cache(maxsize=4096)
def _cached_bound(params: SyncBoundParams) -> float:
    return sync_mse_bound(params)


def anchor_sigma2(
    scene: Scene,
    point,
    budget: LinkBudget,
    params: SignalParams,
    clock: ClockModel,
    m_max: int = 8,
    eps_quadrature_points: int = 33,
) -> tuple[float, float, float]:
    """Total per-anchor arrival-time variance at a receiver point.

    Clock-edge variance plus the sync-MSE bound at the link's photon rate.
    The bound is cached per rate, which pays off once the clip flattens the
    rates across the grid.
    """
    dists = ranges(scene, point)
    out = []
    for d in dists:
        lam_s = los_photon_rate(budget, d, params.symbol_s)
        bound = _cached_bound(
            SyncBoundParams.from_signal(
                params, lam_s, budget.lambda_b, m_max, eps_quadrature_points
            )
        )
        out.append(clock.variance_s2 + bound)
    return out[0], out[1], out[2]


def theory_grid(
    scene: Scene,
    grid: GridSpec,
    budget: LinkBudget,
    params: SignalParams,
    clock: ClockModel,
) -> TheoryMap:
    """Theoretical scalar positioning error for every grid point.

    Points where the geometry matrix is singular are flagged rather than
    aborting the map.
    """
    entries = []
    for p in grid.points():
        try:
            s2a, s2b, s2c = anchor_sigma2(scene, p, budget, params, clock)
            budget_out = positioning_mse(scene, s2a, s2b, s2c, at=p)
            entries.append(
                TheoryPoint(
                    x=float(p[0]),
                    y=float(p[1]),
                    e_p=budget_out.e_p,
                    condition_number=budget_out.condition_number,
                    singular=False,
                    inside=inside_triangle(scene, p),
                )
            )
        except SingularGeometryError as exc:
            entries.append(
                TheoryPoint(
                    x=float(p[0]),
                    y=float(p[1]),
                    e_p=float("nan"),
                    condition_number=exc.condition_number,
                    singular=True,
                    inside=inside_triangle(scene, p),
                )
            )
    return TheoryMap(tuple(entries))
