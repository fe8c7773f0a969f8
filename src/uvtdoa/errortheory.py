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

from .channel import LinkBudget, SignalParams, los_photon_rate
from .scene import SPEED_OF_LIGHT, Scene, anchor_ranges, inside_triangle


class TheoryError(ValueError):
    """Invalid error-theory input."""


class SyncBoundTailWarning(RuntimeWarning):
    """Truncated tail of the sync MSE bound is not negligible."""


# Cephes' rational forms of the complementary error function (ndtr.c):
# erfc(x) = 1 - x T(x^2)/U(x^2) for |x| < 1, exp(-x^2) P(|x|)/Q(|x|) for
# 1 <= |x| < 8 and exp(-x^2) R(|x|)/S(|x|) beyond; Q, S and U are monic.
# Every branch matches math.erfc to a few ulps.
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_ERFC_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
           7.00332514112805075473e3, 5.55923013010394962768e4)
_ERFC_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
           2.26290000613890934246e4, 4.92673942608635921086e4)
# Past x^2 = MAXLOG, exp(-x^2) is below the smallest normal double and erfc is 0.
_MAXLOG = 7.09782712893383996843e2


def _horner(x, coef):
    """Polynomial in ``x`` with coefficients from the highest power down."""
    y = x * coef[0]
    y += coef[1]
    for c in coef[2:]:
        y *= x
        y += c
    return y


def _erfc(x) -> np.ndarray:
    """Complementary error function of a float array, element by element.

    Exactly 0 (or 2 for negative x) where x^2 > MAXLOG; NaN stays NaN.
    """
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    y = np.zeros(x.shape)
    near, mid = a < 1.0, a < 8.0
    if near.any():
        s = x[near]
        z = s * s
        t = _horner(z, _ERFC_T)
        t *= s
        t /= _horner(z, _ERFC_U)
        y[near] = np.subtract(1.0, t, out=t)
    # 1 <= |x| < 8, then |x| >= 8 short of the underflow; NaN lands there and stays NaN
    tail = ~(mid | (a * a > _MAXLOG))
    for rows, num, den in ((mid ^ near, _ERFC_P, _ERFC_Q), (tail, _ERFC_R, _ERFC_S)):
        if rows.any():
            b = a[rows]
            p = _horner(b, num)
            q = _horner(b, den)
            b *= b
            np.negative(b, out=b)
            z = np.exp(b, out=b)
            z *= p
            z /= q
            y[rows] = z
    np.subtract(2.0, y, out=y, where=x <= -1.0)  # erfc(-|x|) = 2 - erfc(|x|)
    return y


def normal_cdf(x):
    """Standard normal CDF via the complementary error function."""
    y = _erfc(np.asarray(x, dtype=float) / -np.sqrt(2.0))
    y *= 0.5
    return y if y.ndim else y[()]


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
    """Inputs of the synchronization-MSE upper bound.

    ``lambda_s`` is one link's photon rate or a 1-D array of rates that
    share the other inputs.
    """

    lambda_s: float | np.ndarray
    lambda_b: float
    length: int
    chips_per_symbol: int
    symbol_s: float
    m_max: int = DEFAULT_M_MAX
    eps_quadrature_points: int = 33

    def __post_init__(self):
        if np.ndim(self.lambda_s) > 1:
            raise TheoryError("lambda_s must be a float or a 1-D array")
        for name, rate in (("lambda_s", self.lambda_s), ("lambda_b", self.lambda_b)):
            # a NaN rate passes and gives a NaN bound
            rate = np.asarray(rate)
            if (bad := rate[(rate < 0) | np.isinf(rate)]).size:
                raise TheoryError(f"{name} must be finite and >= 0, got {bad[0].item()}")
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


def _within_gap(lam_s, params: SyncBoundParams, factors, e):
    """Standardized within-symbol score gap at rate(s) ``lam_s`` (not 0).

    Gaussian approximation of the correlation-score gap between the true
    start and a start offset by k chips, from ``_within_factors`` and the
    fractional offset ``e`` in symbols; broadcasts over their arrays and
    ``lam_s``. The other inputs come from ``params``.
    """
    lam_b, big_l = params.lambda_b, params.length
    mean_f, var_f = factors
    # in place on two full-size arrays: fresh large arrays cost page faults
    num = 0.5 * lam_s * mean_f
    num *= big_l - 1
    var = var_f * (0.5 * lam_s + lam_b) * (big_l - 1) + e * lam_s
    num /= np.sqrt(var, out=var)
    return num


# A within-symbol term below this fraction of the k = 1 term leaves the k-sum
# unchanged: see _within_integrands.
_ROUND_AWAY = 2.0**-54


def _round_away_below(t1, e_max):
    """Gap below which a within-symbol cell's term cannot change the k-sum.

    For z <= -1, normal_cdf(z) < exp(-z^2/2), so a cell's term e_k^2 * p is
    under ``t1 * _ROUND_AWAY`` once z < -sqrt(-2 ln(t1 * _ROUND_AWAY / e_max)),
    with ``t1`` the k = 1 term and ``e_max`` the largest e_k^2 at its node.
    The threshold is below -8.6 (t1 <= e_max), -inf where t1 is 0 (nothing
    is skipped) and NaN where it is NaN (nothing is skipped either).
    """
    with np.errstate(divide="ignore"):
        return -np.sqrt(-2.0 * np.log(t1 * _ROUND_AWAY / e_max))


def _p_cross(lam_s: float, params: SyncBoundParams, factors, e):
    """Misdetection-probability bound for offsets of 2m*n + k chips, m >= 1.

    Takes the rate ``lam_s``, ``_cross_factors`` and the fractional offset
    ``e`` in symbols; the other inputs come from ``params``.
    ``-2m * x`` must already have the output's shape: the other terms are
    subtracted from it in place. Where the Gaussian variance term
    degenerates (possible for extreme m at small pilot lengths) the limiting
    value of the CDF is used.
    """
    lam_b, big_l = params.lambda_b, params.length
    neg_2m, x, y, z, var_f = factors
    num = neg_2m * 0.5 * lam_s * x
    num -= big_l * 0.5 * lam_s * y
    num -= 0.5 * lam_s * z
    if lam_s == 0:
        return np.full(num.shape, 0.5)
    var = 2.0 * (0.5 * lam_s + lam_b) * var_f + e * lam_s
    ok = var > 0
    limit = None
    if not ok.all():
        limit = np.where(num >= 0, 1.0, 0.0)  # limit of the CDF as the variance vanishes
        var[~ok] = 1.0
    num /= np.sqrt(var, out=var)
    p = _sparse_normal_cdf(num)
    return p if limit is None else np.where(ok, p, limit)


# Truncation is declared unconverged when the last m-term carries more than
# this fraction of the accumulated bound.
TAIL_FRACTION_LIMIT = 1e-6


def sync_mse_bound(params: SyncBoundParams) -> float | np.ndarray:
    """Upper bound (seconds^2) on the correlation-sync MSE for one anchor link.

    Integrates the squared timing error of every candidate misdetection
    offset, weighted by its probability bound, over the uniform fractional
    offset of the arrival within one chip. Gauss-Legendre quadrature over the
    offset; the cross-symbol sum is truncated at ``m_max`` and a warning is
    emitted if the last term is not negligible.

    A float rate gives a float; an array of rates gives an array of their
    bounds, each equal bit for bit to the bound at that rate alone, with one
    warning per rate over the limit, in rate order.
    """
    value, tail_fraction = _sync_mse_bound_detail(params)
    for tail in np.atleast_1d(tail_fraction).tolist():
        if tail > TAIL_FRACTION_LIMIT:
            warnings.warn(
                f"sync MSE bound truncation at m_max={params.m_max} leaves a tail "
                f"fraction of {tail:.2e}",
                SyncBoundTailWarning,
                stacklevel=2,
            )
    return value


class _BoundGrid(NamedTuple):
    """Everything in the sync-MSE bound that does not depend on the rates.

    Each factor keeps its broadcast shape over (m, k, node), with length 1
    along an axis it does not vary on.
    """

    weights: np.ndarray  # Gauss-Legendre weights over the fractional offset, (Q,)
    eps: np.ndarray  # fractional offsets in seconds: the quadrature nodes, (Q,)
    e_within: np.ndarray  # the same in symbols, (1, Q)
    within: tuple  # _within_factors over k = 1..n-1
    e_k2: np.ndarray  # squared timing errors of the within-symbol offsets, (n-1, Q)
    e_cross: np.ndarray  # the same, (1, 1, Q)
    cross: tuple  # _cross_factors: -2m (m, 1, 1), x, z (1, 2n, Q), y (1, 1, Q), var (m, 2n, 1)
    shift_mk: np.ndarray  # cross-symbol offsets (2m*n + k) * Tc in seconds, (m_max, 2n, 1)
    cross_max: tuple | None  # _cross_maxima: per-(m, k) maxima of N, A and B, (m_max * 2n,)
    e2_max: np.ndarray  # per-(m, k) maxima of the squared cross timing errors, (m_max * 2n,)
    key: tuple  # the arguments of _bound_grid that built it


def _cross_maxima(neg_2m, x, y, z, var_f, e, big_l: int):
    """Per-(m, k) block maxima of the rate-free factors of the cross cells' gaps.

    A cross cell's standardized gap is lam_s*N / sqrt(lam_s*A + lam_b*B) with
    N = (-2m*x - L*y - z) / 2, A = var_f + e and B = 2*var_f. In a block of
    Q nodes where N < 0 and A, B >= 0, every cell's gap is therefore at most
    lam_s*N_max / sqrt(lam_s*A_max + lam_b*B_max). Returns (N_max, A_max,
    B_max), each (m_max * 2n,), or None when some cell has no such bound
    (N >= 0, A <= 0 or B < 0).

    Closed form on the end nodes e[0] and e[-1], with a node scan's float
    operations. B does not depend on e, and A = var_f + e rises with e in
    floats too (rounding is monotone): A's extremes are the scan's. N is
    linear in e with slope (L - 4m - 2)/2: where that is not 0, the end
    node's exact N exceeds the next node's by far more than the ~1e-14
    relative rounding of each, so the maximum is the scan's; where it is
    0, N is constant and the scan's maximum may exceed the ends' by a few
    ulps (at most 3 for n <= 4096, L <= 65535, Q <= 200). ``_SKIP_MARGIN``
    covers that, and N stays far from 0 where the bound exists, so the
    sign test on the ends decides as the scan's.
    """
    ends = [0, -1]
    num = 0.5 * (neg_2m * x[..., ends] - big_l * y[..., ends] - z[..., ends])
    a, b = var_f + e[..., ends], 2.0 * var_f
    if np.any(num >= 0) or np.any(a <= 0) or np.any(b < 0):
        return None
    return tuple(f.max(axis=-1).ravel() for f in (num, a, b))


def _legval(x, c):
    """Legendre series ``c`` (2 or more terms, low degree first) at ``x``, by Clenshaw."""
    nd = len(c)
    c0, c1 = c[-2], c[-1]
    for i in range(3, len(c) + 1):
        tmp = c0
        nd = nd - 1
        c0 = c[-i] - c1 * ((nd - 1) / nd)
        c1 = tmp + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


def _leggauss(points: int):
    """Gauss-Legendre nodes and weights on [-1, 1], for 2 or more points.

    numpy 2.4's ``numpy.polynomial.legendre.leggauss`` step for step, with
    its Clenshaw form ``c1 * ((nd - 1) / nd)``, so the same floats as that
    numpy's rule; a numpy that rounds ``(c1 * (nd - 1)) / nd`` instead has
    weights up to ~1e-11 relative away. It does not import
    numpy.polynomial, which costs a few ms in the first bound of a process.
    The steps: the eigenvalues of the symmetric companion matrix of L_n,
    one Newton step, then weights from L_n' and L_{n-1}, symmetrised and
    normalised to a sum of 2. The companion matrix's last-column term vanishes for L_n
    (its lower coefficients are 0), and L_n's derivative series, 2i + 1 at
    the degrees i of the other parity, is exact in floats, as numpy's
    ``legder`` computes it.
    """
    n = points
    scl = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    mat = np.zeros((n, n))
    top = mat.reshape(-1)[1::n + 1]
    top[...] = np.arange(1, n) * scl[:n - 1] * scl[1:n]
    mat.reshape(-1)[n::n + 1] = top
    x = np.linalg.eigvalsh(mat)

    c = np.zeros(n + 1)
    c[-1] = 1.0
    i = np.arange(n)
    dy = _legval(x, c)
    df = _legval(x, np.where(i % 2 == (n - 1) % 2, 2.0 * i + 1.0, 0.0))
    x -= dy / df

    fm = _legval(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2. / w.sum()
    return x, w


@lru_cache(maxsize=64)
def _bound_grid(n: int, big_l: int, symbol_s: float, m_max: int, points: int) -> _BoundGrid:
    t_c = symbol_s / n
    nodes, weights = _leggauss(points)
    eps = nodes * (t_c / 2.0)  # quadrature nodes in (-Tc/2, Tc/2)
    e = eps / symbol_s

    # Offsets of 1..n-1 chips within a symbol.
    k = np.arange(1, n, dtype=float)[:, None]
    e_k = k * t_c - eps[None, :]

    # Offsets beyond a symbol: 2m*n + k chips for m = 1..m_max.
    m = np.arange(1, m_max + 1, dtype=float)[:, None, None]
    k_c = np.arange(-n, n, dtype=float)[None, :, None]
    e_c = e[None, None, :]
    cross = _cross_factors(m, k_c, e_c, n, big_l)
    shift_mk = (2.0 * m * n + k_c) * t_c
    grid = _BoundGrid(
        weights, eps, e[None, :], _within_factors(k, e[None, :], n), e_k**2,
        e_c, cross, shift_mk, _cross_maxima(*cross, e_c, big_l),
        ((shift_mk - eps[[0, -1]]) ** 2).max(axis=-1).ravel(),  # shift - eps > 0 falls with eps
        (n, big_l, symbol_s, m_max, points),
    )
    for arr in (*grid[:3], *grid.within, grid.e_k2, grid.e_cross, *grid.cross, grid.shift_mk,
                *(grid.cross_max or ()), grid.e2_max):
        arr.setflags(write=False)  # shared by every call with the same grid
    return grid


@lru_cache(maxsize=64)
def _cross_zero_from(n: int, big_l: int, symbol_s: float, m_max: int, points: int,
                     lam_b: float) -> float:
    """Rate from which every cross-symbol probability is provably exactly 0.0.

    One threshold per grid (the ``_bound_grid`` arguments) and lam_b. A
    block's gap bound lam*N/sqrt(lam*A + lam_b*B) (see ``_cross_maxima``)
    falls as lam grows, and meets -c, c = -_CDF_ZERO_BELOW * (1 +
    _SKIP_MARGIN), at the positive root of lam^2 N^2 = c^2 (lam A + lam_b B).
    From the largest root, raised by the margin once more to cover the
    rounding of the root and of the bound, every block's bound, computed
    at the rate, is below -c, so every cell's CDF is 0.0. inf on a grid
    without maxima, NaN for a NaN lam_b; no rate reaches either.
    """
    cross_max = _bound_grid(n, big_l, symbol_s, m_max, points).cross_max
    if cross_max is None:
        return math.inf
    n_max, a_max, b_max = cross_max
    c2 = (_CDF_ZERO_BELOW * (1.0 + _SKIP_MARGIN)) ** 2
    half = c2 * a_max / (2.0 * n_max**2)
    roots = half + np.sqrt(half**2 + c2 * lam_b * b_max / n_max**2)
    return float(roots.max()) * (1.0 + _SKIP_MARGIN)


def _cross_is_zero(lam_s, params: SyncBoundParams, g: _BoundGrid):
    """True where every cross-symbol probability at a rate is provably exactly 0.0.

    That is, from the grid's threshold rate on (see ``_cross_zero_from``);
    a bool for a float rate, a bool array for an array of rates. Never true
    at lam_s = 0 (every root is > 0), on a grid without maxima, or for a
    NaN rate, which fails the comparison.
    """
    return lam_s >= _cross_zero_from(*g.key, params.lambda_b)


# The skip test of a cross-symbol pass asks its threshold to be at least
# this, far above the subnormals: see _cross_is_negligible.
_NEGLIGIBLE_FLOOR = 2.0**-1000


def _cross_is_negligible(lam_s: float, params: SyncBoundParams, g: _BoundGrid,
                         integrand: np.ndarray) -> bool:
    """True when the cross-symbol pass at ``lam_s`` provably leaves ``integrand`` unchanged.

    ``integrand`` is the rate's within-symbol integrand x_q at the Q nodes.
    The pass adds 2 S_q to it, S_q the float sum over the M = m_max * 2n
    blocks (m, k) of the terms e^2 * normal_cdf(z) at node q, and
    x_q + 2 S_q rounds back to x_q > 0 when 2 S_q <= x_q * 2**-54, which is
    under half an ulp of x_q (as in ``_within_integrands``).

    Every cell's gap z is at most its block's bound z_b = lam_s N_max /
    sqrt(lam_s A_max + lam_b B_max) (see ``_cross_maxima``). Both are
    computed to within ~1e-14 (see ``_SKIP_MARGIN``), so z_b moved toward 0
    by ``_SKIP_MARGIN`` is above every computed cell gap; it is used here
    squared, z_b^2 = lam_s^2 N_max^2 / (lam_s A_max + lam_b B_max), with no
    cancellation. For z <= -1, normal_cdf(z) < exp(-z^2/2) / (|z| sqrt(2 pi))
    < 0.4 exp(-z^2/2), and each cell's e^2 is at most ``e2_max`` of its
    block, the same floats. So with B = sum over blocks of e2_max
    exp(-z_b^2/2), the exact sum of a node's terms is under 0.4 B, and the
    test is: every z_b <= -1 and 2 B <= x_min * 2**-54, x_min the smallest
    x_q. B is the same at every node, so testing node by node decides the
    same. The factor 0.4 covers the rounding: a few ulps in erfc, in each
    product and in B, and (M - 1) 2**-53 relative in a float sum of M
    terms >= 0 (M < 2**40 on any grid that fits in memory). Subnormal terms
    and parts of B round by an absolute 2**-1074 per operation instead, a
    few per block; asking x_min * 2**-54 >= ``_NEGLIGIBLE_FLOOR`` keeps
    their total under 2**-30 of it.

    Never true at lam_s = 0 or NaN, for a NaN lam_b, or on a grid without
    maxima.
    """
    if g.cross_max is None or not lam_s > 0:
        return False
    n_max, a_max, b_max = g.cross_max
    q = lam_s * a_max  # becomes -z_b^2 / 2, moved toward 0 by the margin
    q += params.lambda_b * b_max
    np.divide(n_max * n_max, q, out=q)
    q *= -0.5 * (lam_s * (1.0 - _SKIP_MARGIN)) ** 2
    threshold = integrand.min() * _ROUND_AWAY
    if not (q.max() <= -0.5 and threshold >= _NEGLIGIBLE_FLOOR):
        return False
    return bool(2.0 * np.dot(g.e2_max, np.exp(q, out=q)) <= threshold)


# Gap cells per within-symbol pass, in full-width rate rows: a pass holds at
# most _RATE_BLOCK * (n-1) * Q cells, ~200 KB per temporary at n = 100 and
# Q = 33, whatever prefix of k it evaluates (99 rates on k = 1..8). On the
# 435 rates of `theory` over a 25 x 25 Geometry III grid, 4 made more
# passes, each with its fixed cost, and ran 20 % slower; 16 ran no faster
# and its traced peak was 0.75 MB larger, as the CDF's temporaries grow
# with a pass's live cells, which are most cells of a cut pass.
_RATE_BLOCK = 8

# Rows of k evaluated first, k = 1.._HEAD_ROWS. On `theory` over a dense
# Geometry III grid at 150 mW no (rate, node) has a live cell past k = 6.
# Weak rates then go to the full n-1 rows in one more round: at 1 mW, and
# for a weak rate's bound on its own, that was faster than doubling the
# rows round by round, each round with its own CDF call.
_HEAD_ROWS = 8


def _within_integrands(params: SyncBoundParams) -> np.ndarray:
    """Within-symbol part of the bound's integrand at each rate of ``params``, (rates, Q).

    ``eps^2 (1 - p_1) + 2 sum_k e_k^2 p_k``: exact detection, whose timing
    error is just the fractional offset, then offsets of 1..n-1 chips in
    both directions; the other inputs come from ``params`` (n > 1). The
    k-sum adds k = 1..n-1 in order, starting from the k = 1 term t1, and
    every term is >= 0, so the running sum is >= t1 and a term below
    ``t1 * _ROUND_AWAY`` is under half its ulp: adding it changes nothing.
    Such cells (see ``_round_away_below``; e_k^2 grows with k, so its
    largest value at a node is the last row) and those at or below
    ``_CDF_ZERO_BELOW`` are dead: 0.0, without evaluating the CDF.

    The gap z(k) = -c (k/n - 2e) / sqrt(a k + b) of ``_within_gap``, with
    c = lam_s (L-1)/2, a = (lam_s + 2 lam_b)(L-1)/n and b = e lam_s (e the
    fractional offset in symbols, |e| < 1/(2n)), does not rise with k
    from k = 2 on: dz/dk has the sign of -(a k/(2n) + e lam_s/n + e a),
    and for k >= 2 that bracket is at least a/(2n) - lam_s/(2n^2) >= 0,
    since a >= lam_s (L-1)/n. So a rate's live cells at a node are
    k = 1..K, and the k-sum may stop at K: the later terms are exact zeros.
    Each rate is evaluated on k = 1.._HEAD_ROWS first, and on the rest of
    the rows only if its last row has a cell that is not below the
    thresholds by a relative margin. Each CDF call costs tens of numpy
    operations whatever its size, so the rates of each round go through
    passes of at most ``_RATE_BLOCK`` full-width rows of cells. A rate of 0
    (even odds at every offset) takes its row from the closed form; a NaN
    rate gives a NaN row from its first rows.
    """
    g = _bound_grid(
        params.chips_per_symbol, params.length, params.symbol_s,
        params.m_max, params.eps_quadrature_points,
    )
    rates = np.asarray(params.lambda_s, dtype=float).reshape(-1)
    full = len(g.e_k2)
    out = np.empty((len(rates), len(g.eps)))  # eps^2 (1 - p_1), then the integrand
    ksum, floor = np.empty_like(out), np.empty_like(out)  # running k-sum, round-away floor
    if (silent := rates == 0).any():
        # no signal: the score gap is pure noise, even odds at every offset
        out[silent] = g.eps**2 * 0.5
        ksum[silent] = np.sum(0.5 * g.e_k2, axis=0)
    todo, lo, hi = np.flatnonzero(~silent), 0, min(_HEAD_ROWS, full)
    while todo.size:
        per_pass = max(1, _RATE_BLOCK * full // (hi - lo))
        longer = []
        for i in range(0, todo.size, per_pass):
            idx = todo[i:i + per_pass]
            lam = rates[idx]
            p = _within_gap(lam[:, None, None], params, [f[lo:hi] for f in g.within], g.e_within)
            rest = p
            if lo == 0:  # the k = 1 row
                rest = p[:, 1:]
                first = _sparse_normal_cdf(p[:, 0])
                out[idx] = g.eps**2 * (1.0 - first)
                floor[idx] = _round_away_below(g.e_k2[0] * first, g.e_k2[-1])
            f = floor[idx]
            # later rows can count only where this pass's last one is not
            # below both thresholds by the margin
            below = np.maximum(f, _CDF_ZERO_BELOW) * (1.0 + _SKIP_MARGIN)
            counts = ~np.all(p[:, -1] < below, axis=-1) & ~np.isnan(lam)
            longer.append(idx[counts & (hi < full)])
            dead = (rest <= _CDF_ZERO_BELOW) | (rest < f[:, None, :])
            live = ~dead
            rest[live] = normal_cdf(rest[live])
            rest[dead] = 0.0
            p *= g.e_k2[lo:hi]
            if lo:  # carry on the running sum, in order
                p = np.concatenate([ksum[idx, None], p], axis=1)
            ksum[idx] = np.sum(p, axis=1)
        todo = np.concatenate(longer)
        lo, hi = hi, full
    out += 2.0 * ksum
    return out


def _sync_mse_bound_detail(params: SyncBoundParams) -> tuple:
    """The bound and the tail fraction of its last m-term, at each rate of ``params``.

    Floats for a float rate, arrays for an array. The within-symbol rows of
    all the rates come from one ``_within_integrands`` call, which spreads
    the numpy erfc's fixed per-call cost, and the bounds of all the rates
    from one weighted sum over them; then each rate below the grid's
    threshold (see ``_cross_zero_from``) that ``_cross_is_negligible`` does
    not clear runs its own cross-symbol pass. A pass that runs and a pass
    that is skipped leave the same bound; a skipped pass leaves a tail of 0.
    """
    g = _bound_grid(
        params.chips_per_symbol, params.length, params.symbol_s,
        params.m_max, params.eps_quadrature_points,
    )
    rates = np.asarray(params.lambda_s, dtype=float).reshape(-1)

    # With one chip per symbol there is no within-symbol offset: the timing
    # error of an exact detection is just the fractional offset.
    if params.chips_per_symbol == 1:
        rows = np.broadcast_to(g.eps**2, (len(rates), len(g.eps)))
    else:
        rows = _within_integrands(params)

    # Averaging over the fractional offset, the density 1/Tc over a Tc-wide
    # interval cancels the interval half-width against the node scaling.
    value, tail_value = 0.5 * np.sum(g.weights * rows, axis=1), np.zeros(len(rates))
    # Offsets beyond a symbol, doubled for the mirrored direction; where every
    # probability underflows to 0.0 the block adds exactly nothing, so only
    # the rates below the grid's threshold rate (and NaN) can run the pass.
    for i in np.flatnonzero(~_cross_is_zero(rates, params, g)).tolist():
        lam_s, integrand = rates[i].item(), rows[i]
        if (not _cross_is_negligible(lam_s, params, g, integrand)
                and (pmk := _p_cross(lam_s, params, g.cross, g.e_cross)).any()):
            terms = (g.shift_mk - g.eps) ** 2  # squared timing errors, (m_max, 2n, Q)
            terms *= pmk.reshape(terms.shape)
            integrand = integrand + 2.0 * np.sum(terms, axis=(0, 1))
            tail = 2.0 * np.sum(terms[-1], axis=0)
            tail_value[i] = 0.5 * np.sum(g.weights * tail)
            value[i] = 0.5 * np.sum(g.weights * integrand)
    tail_fraction = np.divide(tail_value, value, out=np.zeros_like(value), where=value > 0)
    if np.ndim(params.lambda_s):
        return value, tail_fraction
    return float(value[0]), float(tail_fraction[0])


# Condition numbers above this declare the geometry matrix singular.
CONDITION_LIMIT = 1e8


@dataclass(frozen=True)
class ErrorBudget:
    """Positioning MSE matrix, its scalar error and the geometry's conditioning.

    For points of batch shape (...) the fields have shape (..., 2, 2), (...)
    and (...); one point is the batch of shape ().
    """

    mse_matrix: np.ndarray
    e_p: np.ndarray
    condition_number: np.ndarray


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

    ``at`` (default: the scene's receiver) is an array of points of shape
    (..., 2), one point being the batch of shape (), and each variance is a
    scalar or an array of that batch shape (...). All points go through one
    stacked pass. A singular geometry matrix (see ``CONDITION_LIMIT``) gives
    a NaN MSE and ``e_p`` there, with the matrix's condition number.
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
    hh = np.empty_like(g)
    hh[:, 0, 0] = s_a + s_b
    hh[:, 0, 1] = hh[:, 1, 0] = -s_b
    hh[:, 1, 1] = s_b + s_c
    hh *= SPEED_OF_LIGHT**2
    ok = ~_is_singular(cond)
    g_inv = np.linalg.inv(g[ok])
    m = g_inv @ hh[ok] @ np.swapaxes(g_inv, -1, -2)
    mse = np.full_like(g, np.nan)
    mse[ok] = 0.5 * (m + np.swapaxes(m, -1, -2))  # symmetrize away last-bit asymmetry
    trace = mse[:, 0, 0] + mse[:, 1, 1]
    e_p = np.sqrt(np.where(0.0 > trace, 0.0, trace))  # max(trace, 0.0), NaN kept
    return ErrorBudget(mse.reshape(batch + (2, 2)), e_p.reshape(batch), cond.reshape(batch))


def grid_average(values, inside=None, inside_only: bool = False) -> float:
    """Mean of the non-NaN ``values``, over the ``inside`` points only if asked.

    NaN marks a point without a value (a singular geometry, a point without
    a fix); NaN when no point is left.
    """
    values = np.asarray(values, dtype=float)
    keep = ~np.isnan(values)
    if inside_only:
        keep &= np.asarray(inside, dtype=bool)
    return float(np.mean(values[keep])) if keep.any() else math.nan


@dataclass(frozen=True)
class TheoryMap:
    """Theoretical error over P receiver points, as (P,) columns."""

    x: np.ndarray
    y: np.ndarray
    e_p: np.ndarray  # NaN where the geometry is singular
    condition_number: np.ndarray
    singular: np.ndarray
    inside: np.ndarray

    def average_ep(self, inside_only: bool = False) -> float:
        """Mean ``e_p`` over the non-singular points; NaN when there are none."""
        return grid_average(self.e_p, self.inside, inside_only)


def anchor_sigma2(
    scene: Scene,
    points,
    budget: LinkBudget,
    params: SignalParams,
    clock: ClockModel,
) -> np.ndarray:
    """Total per-anchor arrival-time variances at receiver points.

    Clock-edge variance plus the sync-MSE bound at each link's photon rate,
    shape (..., 3) for points of shape (..., 2). One ``sync_mse_bound`` call
    evaluates the bound at the distinct rates, in order of first appearance
    (point by point, anchors A, B, C), which pays off once the clip
    flattens the rates across the grid.
    """
    rates = los_photon_rate(budget, anchor_ranges(scene, points), params.symbol_s)
    flat = rates.ravel().tolist()
    distinct = list(dict.fromkeys(flat))
    bounds = dict(zip(distinct, sync_mse_bound(SyncBoundParams(
        np.array(distinct), budget.lambda_b, params.length, params.chips_per_symbol,
        params.symbol_s)).tolist()))
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
    singular geometry matrix is flagged in ``singular``, with a NaN ``e_p``
    and the matrix's condition number.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    s2 = anchor_sigma2(scene, pts, budget, params, clock)
    err = positioning_mse(scene, s2[:, 0], s2[:, 1], s2[:, 2], at=pts)
    return TheoryMap(
        pts[:, 0], pts[:, 1], err.e_p, err.condition_number,
        _is_singular(err.condition_number), inside_triangle(scene, pts),
    )
