"""Analytical positioning-error pipeline.

Three layers: the transmitter clock-edge error model, an upper bound on the
receiver synchronization MSE under photon counting, and the linearized
2-D positioning MSE that combines per-anchor timing variances through the
anchor geometry.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.special import erfc

from .channel import LinkBudget, SignalParams, los_photon_rate
from .scene import Scene, anchor_ranges, inside_triangle


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


# Cross-symbol terms summed by default: offsets of up to 2 * 8 symbols.
DEFAULT_M_MAX = 8


@dataclass(frozen=True)
class SyncBoundParams:
    """Inputs of the synchronization-MSE upper bound for one anchor link."""

    lambda_s: float
    lambda_b: float
    length: int
    chips_per_symbol: int
    symbol_s: float
    m_max: int = DEFAULT_M_MAX
    eps_quadrature_points: int = 33

    def __post_init__(self):
        for name, rate in (("lambda_s", self.lambda_s), ("lambda_b", self.lambda_b)):
            # a NaN rate passes and gives a NaN bound
            if rate < 0 or math.isinf(rate):
                raise TheoryError(f"{name} must be finite and >= 0, got {rate}")
        if self.length < 2:
            raise TheoryError(f"pilot length must be >= 2, got {self.length}")
        if self.chips_per_symbol < 1:
            raise TheoryError("chips_per_symbol must be >= 1")
        if not (math.isfinite(self.symbol_s) and self.symbol_s > 0):
            raise TheoryError(f"symbol_s must be finite and > 0, got {self.symbol_s}")
        if self.m_max < 1:
            raise TheoryError("m_max must be >= 1")
        if 2 * self.m_max >= self.length:
            # offsets of 2m >= L symbols leave no overlap with the shifted pilot
            raise TheoryError(
                f"m_max must be < length/2 = {self.length / 2:g}, got {self.m_max}"
            )
        if self.eps_quadrature_points < 8:
            raise TheoryError("eps_quadrature_points must be >= 8")

    @property
    def chip_s(self) -> float:
        return self.symbol_s / self.chips_per_symbol


def _within_factors(k, e, n: int):
    """Rate-free factors of the within-symbol gap: mean ``2e - k/n``, variance ``2k/n``."""
    return 2.0 * e - k / n, 2.0 * (k / n)


def _cross_factors(m, k, e, n: int, big_l: int):
    """Rate-free factors of the gap for an offset of 2m*n + k chips.

    Returns ``-2m``, ``1 - 2(k/n - e)``, ``1 - e``, ``2e - k/n`` and the
    variance factor ``(L - m) - (-2m)(1 - 2k/n) - k/n``.
    """
    return (
        -2.0 * m,
        1.0 - 2.0 * (k / n - e),
        1.0 - e,
        2.0 * e - k / n,
        (big_l - m) - (-2.0 * m) * (1.0 - 2.0 * k / n) - k / n,
    )


# normal_cdf is exactly 0.0 in double precision at and below this point: the
# true value is under 1e-349, past the smallest subnormal, and erfc already
# returns 0 beyond 26.64 (a standardized gap of -37.7).
_CDF_ZERO_BELOW = -40.0


# The cross-symbol pass is skipped only when every block's gap bound lies
# below _CDF_ZERO_BELOW by this relative margin, which covers rounding: on a
# grid that has the bound (see _cross_maxima), N and A stay far from
# cancelling the terms they are summed from (|N| was at least 0.14 of their
# magnitude and A at least 0.6 in a sweep of L up to 65535 and n up to
# 4096), so a cell's gap and the bound are each computed to within ~1e-14.
_SKIP_MARGIN = 1e-9


def _sparse_normal_cdf(z: np.ndarray) -> np.ndarray:
    """Overwrite ``z`` with normal_cdf(z), running erfc only where it can be non-zero.

    The mask is ``z <= _CDF_ZERO_BELOW`` rather than its converse, so a NaN
    still goes through erfc and comes out NaN.
    """
    live = ~(z <= _CDF_ZERO_BELOW)
    z[live] = normal_cdf(z[live])
    z[~live] = 0.0
    return z


def _p_within(params: SyncBoundParams, factors, e):
    """Misdetection-probability bound for a |k|-chip offset inside one symbol.

    Gaussian approximation of the correlation-score gap between the true
    start and a start offset by k chips, from ``_within_factors`` and the
    fractional offset ``e`` in symbols; broadcasts over their arrays.
    """
    lam_s, lam_b, big_l = params.lambda_s, params.lambda_b, params.length
    mean_f, var_f = factors
    num = 0.5 * lam_s * mean_f * (big_l - 1)
    var = var_f * (0.5 * lam_s + lam_b) * (big_l - 1) + e * lam_s
    if lam_s == 0:
        # No signal: the score gap is pure noise, even odds per comparison.
        return np.full(np.broadcast(num, var).shape, 0.5)
    return _sparse_normal_cdf(num / np.sqrt(var))


def _p_cross(params: SyncBoundParams, factors, e):
    """Misdetection-probability bound for offsets of 2m*n + k chips, m >= 1.

    Takes ``_cross_factors`` and the fractional offset ``e`` in symbols.
    ``-2m * x`` must already have the output's shape: the other terms are
    subtracted from it in place. Where the Gaussian variance term
    degenerates (possible for extreme m at small pilot lengths) the limiting
    value of the CDF is used.
    """
    lam_s, lam_b, big_l = params.lambda_s, params.lambda_b, params.length
    neg_2m, x, y, z, var_f = factors
    # In place on two full-size buffers: fresh large arrays cost page faults.
    num = neg_2m * 0.5 * lam_s * x
    num -= big_l * 0.5 * lam_s * y
    num -= 0.5 * lam_s * z
    if lam_s == 0:
        return np.full(num.shape, 0.5)
    var = 2.0 * (0.5 * lam_s + lam_b) * var_f
    var += e * lam_s
    ok = var > 0
    limit = None
    if not ok.all():
        limit = np.where(num >= 0, 1.0, 0.0)  # limit of the CDF as the variance vanishes
        var[~ok] = 1.0
    num /= np.sqrt(var, out=var)
    p = _sparse_normal_cdf(num)
    return p if limit is None else np.where(ok, p, limit)


def misdetect_prob_within_symbol(params: SyncBoundParams, k: int, eps_s: float) -> float:
    """Scalar within-symbol misdetection bound; k = 0 is the complement case.

    Negative k is evaluated at |k|: the bound treats the two offset
    directions symmetrically.
    """
    n = params.chips_per_symbol
    if k == 0 or not 1 <= abs(k) <= n - 1:
        raise TheoryError(f"k must satisfy 1 <= |k| <= {n - 1}, got {k}")
    e = np.full(1, eps_s, dtype=float) / params.symbol_s
    return _p_within(params, _within_factors(float(abs(k)), e, n), e).item()


def misdetect_prob_cross_symbol(params: SyncBoundParams, m: int, k: int, eps_s: float) -> float:
    """Scalar cross-symbol misdetection bound for an offset of 2m*n + k chips."""
    n = params.chips_per_symbol
    if m < 1:
        raise TheoryError(f"m must be >= 1, got {m}")
    if not -n <= k <= n - 1:
        raise TheoryError(f"k must satisfy -{n} <= k <= {n - 1}, got {k}")
    e = np.full(1, eps_s, dtype=float) / params.symbol_s
    return _p_cross(params, _cross_factors(float(m), float(k), e, n, params.length), e).item()


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


class _BoundGrid(NamedTuple):
    """Everything in the sync-MSE bound that does not depend on the rates.

    The cross-symbol factors are laid out as (m_max or 1, 2n * Q) rows, so
    each rate-dependent pass runs over long contiguous inner loops.
    """

    weights: np.ndarray  # Gauss-Legendre weights over the fractional offset, (Q,)
    eps: np.ndarray  # fractional offsets in seconds: the quadrature nodes, (Q,)
    e_within: np.ndarray  # the same in symbols, (1, Q)
    within: tuple  # _within_factors over k = 1..n-1
    e_k2: np.ndarray  # squared timing errors of the within-symbol offsets, (n-1, Q)
    e_cross: np.ndarray  # fractional offsets in symbols, (1, 2n * Q)
    cross: tuple  # _cross_factors over m = 1..m_max and k = -n..n-1
    shift_mk: np.ndarray  # cross-symbol offsets (2m*n + k) * Tc in seconds, (m_max, 2n, 1)
    cross_max: tuple | None  # _cross_maxima: per-(m, k) maxima of N, A and B, (m_max * 2n,)


def _cross_maxima(neg_2m, x, y, z, var_f, e, big_l: int):
    """Per-(m, k) block maxima of the rate-free factors of the cross cells' gaps.

    A cross cell's standardized gap is lam_s*N / sqrt(lam_s*A + lam_b*B) with
    N = (-2m*x - L*y - z) / 2, A = var_f + e and B = 2*var_f. In a block of
    Q nodes where N < 0 and A, B >= 0, every cell's gap is therefore at most
    lam_s*N_max / sqrt(lam_s*A_max + lam_b*B_max). Returns (N_max, A_max,
    B_max), or None when some cell has no such bound (N >= 0, A <= 0 or
    B < 0). Takes the factors unbroadcast and works one m at a time, so no
    full-size temporary is made.
    """
    maxima = []
    for i in range(len(neg_2m)):
        num = 0.5 * (neg_2m[i] * x - big_l * y - z)
        a, b = var_f[i] + e, 2.0 * var_f[i]
        if np.any(num >= 0) or np.any(a <= 0) or np.any(b < 0):
            return None
        maxima.append([f.max(axis=-1).ravel() for f in (num, a, b)])
    return tuple(np.concatenate(f) for f in zip(*maxima))


@lru_cache(maxsize=64)
def _bound_grid(n: int, big_l: int, symbol_s: float, m_max: int, points: int) -> _BoundGrid:
    t_c = symbol_s / n
    nodes, weights = np.polynomial.legendre.leggauss(points)
    eps = nodes * (t_c / 2.0)  # quadrature nodes in (-Tc/2, Tc/2)
    e = eps / symbol_s

    # Offsets of 1..n-1 chips within a symbol.
    k = np.arange(1, n, dtype=float)[:, None]
    e_k = k * t_c - eps[None, :]

    # Offsets beyond a symbol: 2m*n + k chips for m = 1..m_max.
    m = np.arange(1, m_max + 1, dtype=float)[:, None, None]
    k_c = np.arange(-n, n, dtype=float)[None, :, None]
    e_c = e[None, None, :]

    def rows(a):
        return np.broadcast_to(a, (len(a), 2 * n, points)).reshape(len(a), -1)

    neg_2m, *block = _cross_factors(m, k_c, e_c, n, big_l)
    grid = _BoundGrid(
        weights, eps, e[None, :], _within_factors(k, e[None, :], n), e_k**2,
        rows(e_c), (neg_2m.reshape(-1, 1), *map(rows, block)), (2.0 * m * n + k_c) * t_c,
        _cross_maxima(neg_2m, *block, e_c, big_l),
    )
    for arr in (*grid[:3], *grid.within, grid.e_k2, grid.e_cross, *grid.cross, grid.shift_mk,
                *(grid.cross_max or ())):
        arr.setflags(write=False)  # shared by every call with the same grid
    return grid


def _cross_is_zero(params: SyncBoundParams, g: _BoundGrid) -> bool:
    """True when every cross-symbol probability is provably exactly 0.0.

    That is, when each block's gap bound (see ``_cross_maxima``) lies below
    ``_CDF_ZERO_BELOW`` by the relative margin ``_SKIP_MARGIN``. Never true
    at lam_s = 0, on a grid without maxima, or for a NaN rate, whose bound
    fails the comparison.
    """
    if g.cross_max is None or params.lambda_s == 0:
        return False
    lam_s = params.lambda_s
    n_max, a_max, b_max = g.cross_max
    bound = lam_s * n_max / np.sqrt(lam_s * a_max + params.lambda_b * b_max)
    return bool(np.all(bound < _CDF_ZERO_BELOW * (1.0 + _SKIP_MARGIN)))


def _sync_mse_bound_detail(params: SyncBoundParams) -> tuple[float, float]:
    g = _bound_grid(
        params.chips_per_symbol, params.length, params.symbol_s,
        params.m_max, params.eps_quadrature_points,
    )

    # Exact detection: timing error is just the fractional offset. Offsets of
    # 1..n-1 chips within a symbol count in both directions; the 1-chip row
    # is the exact detection's complement.
    if params.chips_per_symbol > 1:
        p0k = _p_within(params, g.within, g.e_within)
        integrand = g.eps**2 * (1.0 - p0k[0])
        integrand = integrand + 2.0 * np.sum(g.e_k2 * p0k, axis=0)
    else:
        integrand = g.eps**2

    # Offsets beyond a symbol, doubled for the mirrored direction; where every
    # probability underflows to 0.0 the block adds exactly nothing, so the
    # pass is skipped when the cached maxima already prove it. Averaging
    # over the fractional offset, the density 1/Tc over a Tc-wide interval
    # cancels the interval half-width against the node scaling.
    tail_value = 0.0
    if not _cross_is_zero(params, g) and (pmk := _p_cross(params, g.cross, g.e_cross)).any():
        terms = (g.shift_mk - g.eps) ** 2  # squared timing errors, (m_max, 2n, Q)
        terms *= pmk.reshape(terms.shape)
        integrand = integrand + 2.0 * np.sum(terms, axis=(0, 1))
        tail = 2.0 * np.sum(terms[-1], axis=0)
        tail_value = float(0.5 * np.sum(g.weights * tail))
    value = float(0.5 * np.sum(g.weights * integrand))
    tail_fraction = tail_value / value if value > 0 else 0.0
    return value, tail_fraction


# Condition numbers above this declare the geometry matrix singular.
CONDITION_LIMIT = 1e8


@dataclass(frozen=True)
class ErrorBudget:
    """Positioning MSE matrix, its scalar error and the geometry's conditioning.

    For one point the fields are a nested tuple and floats; for a batch of
    points of shape (...) they are arrays of shape (..., 2, 2) and (...).
    """

    mse_matrix: tuple[tuple[float, float], tuple[float, float]] | np.ndarray
    e_p: float | np.ndarray
    condition_number: float | np.ndarray


def _is_singular(cond) -> np.ndarray:
    """True where a condition number is above ``CONDITION_LIMIT`` or not finite."""
    return ~(np.asarray(cond) <= CONDITION_LIMIT)


def geometry_matrix(scene: Scene, at=None) -> np.ndarray:
    """Partials of the two range differences w.r.t. the receiver position.

    ``at`` (default: the scene's receiver) is one point or an array of
    shape (..., 2); the result has shape (..., 2, 2).
    """
    p = scene.rx_true if at is None else at
    r = anchor_ranges(scene, p)
    p = np.asarray(p, dtype=float)
    x0, y0 = p[..., 0], p[..., 1]
    r1, r2, r3 = r[..., 0], r[..., 1], r[..., 2]
    (ax, ay), (bx, by), (cx, cy) = scene.tx_a, scene.tx_b, scene.tx_c
    g = np.empty(p.shape[:-1] + (2, 2))
    g[..., 0, 0] = (ax - x0) / r1 - (bx - x0) / r2
    g[..., 0, 1] = (ay - y0) / r1 - (by - y0) / r2
    g[..., 1, 0] = (bx - x0) / r2 - (cx - x0) / r3
    g[..., 1, 1] = (by - y0) / r2 - (cy - y0) / r3
    return g


def positioning_mse(
    scene: Scene,
    sigma2_a,
    sigma2_b,
    sigma2_c,
    at=None,
) -> ErrorBudget:
    """Linearized positioning MSE from per-anchor arrival-time variances.

    The timing covariance of the two measured differences (B-A and C-B
    arrival errors share the B term, hence the negative off-diagonal) is
    propagated through the inverted geometry matrix; the scalar error is the
    square root of the trace.

    ``at`` (default: the scene's receiver) is one point or an array of
    points of shape (..., 2), and each variance is a scalar or an array of
    that batch shape (...). All points go through one stacked pass. At one
    point a singular geometry matrix raises ``SingularGeometryError``; in a
    batch it gives a NaN MSE and ``e_p`` there, with the matrix's condition
    number.
    """
    sigmas = []
    for name, s2 in (("sigma2_a", sigma2_a), ("sigma2_b", sigma2_b), ("sigma2_c", sigma2_c)):
        s2 = np.asarray(s2, dtype=float)
        if (s2 < 0).any():
            raise TheoryError(f"{name} must be >= 0, got {float(s2[s2 < 0][0])}")
        sigmas.append(s2)
    g = geometry_matrix(scene, at)
    batch = g.shape[:-2]
    g = g.reshape(-1, 2, 2)
    s_a, s_b, s_c = (np.broadcast_to(s2, batch).reshape(-1) for s2 in sigmas)
    cond = np.linalg.cond(g)
    singular = _is_singular(cond)
    if not batch and singular[0]:
        raise SingularGeometryError(
            f"geometry matrix is singular at {at if at is not None else scene.rx_true} "
            f"(condition number {cond[0]:.3e})",
            condition_number=float(cond[0]),
        )
    hh = np.empty_like(g)
    hh[:, 0, 0] = s_a + s_b
    hh[:, 0, 1] = hh[:, 1, 0] = -s_b
    hh[:, 1, 1] = s_b + s_c
    hh *= scene.c**2
    ok = ~singular
    g_inv = np.linalg.inv(g[ok])
    m = g_inv @ hh[ok] @ np.swapaxes(g_inv, -1, -2)
    mse = np.full_like(g, np.nan)
    mse[ok] = 0.5 * (m + np.swapaxes(m, -1, -2))  # symmetrize away last-bit asymmetry
    trace = mse[:, 0, 0] + mse[:, 1, 1]
    e_p = np.sqrt(np.where(0.0 > trace, 0.0, trace))  # max(trace, 0.0), NaN kept
    if not batch:
        (m00, m01), (m10, m11) = mse[0].tolist()
        return ErrorBudget(((m00, m01), (m10, m11)), float(e_p[0]), float(cond[0]))
    return ErrorBudget(mse.reshape(batch + (2, 2)), e_p.reshape(batch), cond.reshape(batch))


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
        """Mean ``e_p`` over the non-singular points; NaN when there are none."""
        vals = [
            p.e_p
            for p in self.points
            if not p.singular and (p.inside or not inside_only)
        ]
        return float(np.mean(vals)) if vals else float("nan")


@lru_cache(maxsize=4096)
def _cached_bound(params: SyncBoundParams) -> float:
    return sync_mse_bound(params)


def anchor_sigma2(
    scene: Scene,
    points,
    budget: LinkBudget,
    params: SignalParams,
    clock: ClockModel,
) -> np.ndarray:
    """Total per-anchor arrival-time variances at receiver points.

    Clock-edge variance plus the sync-MSE bound at each link's photon rate,
    shape (..., 3) for points of shape (..., 2). The bound is evaluated once
    per distinct rate, in order of first appearance (point by point, anchors
    A, B, C), and cached across calls, which pays off once the clip flattens
    the rates across the grid.
    """
    rates = los_photon_rate(budget, anchor_ranges(scene, points), params.symbol_s)
    flat = rates.ravel().tolist()
    bounds = {
        lam_s: _cached_bound(SyncBoundParams(
            lam_s, budget.lambda_b, params.length, params.chips_per_symbol, params.symbol_s))
        for lam_s in dict.fromkeys(flat)  # the distinct rates, in first-appearance order
    }
    return clock.variance_s2 + np.array([bounds[lam_s] for lam_s in flat]).reshape(rates.shape)


def theory_points(
    scene: Scene,
    points,
    budget: LinkBudget,
    params: SignalParams,
    clock: ClockModel,
) -> TheoryMap:
    """Theoretical scalar positioning error at each of an (P, 2) array of points.

    One pass over all points: ``anchor_sigma2`` then ``positioning_mse``. A
    singular geometry matrix is flagged with a NaN ``e_p`` and the matrix's
    condition number rather than raised.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    s2 = anchor_sigma2(scene, pts, budget, params, clock)
    err = positioning_mse(scene, s2[:, 0], s2[:, 1], s2[:, 2], at=pts)
    return TheoryMap(tuple(
        TheoryPoint(x, y, e_p, cond, singular, inside)
        for (x, y), e_p, cond, singular, inside in zip(
            pts.tolist(), err.e_p.tolist(), err.condition_number.tolist(),
            _is_singular(err.condition_number).tolist(),
            inside_triangle(scene, pts).tolist(),
        )
    ))
