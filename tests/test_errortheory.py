import dataclasses
import inspect
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import erfc

from uvtdoa import (
    ClockModel,
    GridSpec,
    Scene,
    SyncBoundParams,
    default_grid,
    inside_triangle,
    positioning_mse,
    sync_mse_bound,
    sync_mse_empirical,
    theory_points,
)
import uvtdoa.errortheory as errortheory
from uvtdoa.errortheory import (
    _CDF_ZERO_BELOW,
    _MAXLOG,
    _RATE_BLOCK,
    _ROUND_AWAY,
    _SKIP_MARGIN,
    SyncBoundTailWarning,
    TheoryError,
    _bound_grid,
    _cross_factors,
    _cross_is_negligible,
    _cross_is_zero,
    _cross_zero_from,
    _erfc,
    _leggauss,
    _p_cross,
    _round_away_below,
    _sync_mse_bound_detail,
    _within_factors,
    _within_gap,
    _within_integrands,
    anchor_sigma2,
    normal_cdf,
)

from conftest import GEOMETRY_II, GEOMETRY_III, make_budget, make_scene, make_signal


def phi_oracle(x):
    # Independent scalar evaluation of the standard normal CDF.
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def bound_params(lam_s=5.0, lam_b=1.0, length=256, n=100, **kw):
    return SyncBoundParams(
        lambda_s=lam_s, lambda_b=lam_b, length=length, chips_per_symbol=n,
        symbol_s=1e-6, **kw,
    )


def within_cell(params, k, eps_s):
    # The bound's misdetection probability for an offset of |k| chips inside
    # one symbol at a fractional offset of eps_s seconds: the CDF of its gap.
    e = np.full(1, eps_s, dtype=float) / params.symbol_s
    factors = _within_factors(float(abs(k)), e, params.chips_per_symbol)
    return normal_cdf(_within_gap(params.lambda_s, params, factors, e)).item()


def cross_cell(params, m, k, eps_s):
    # The bound's misdetection probability for an offset of 2m*n + k chips.
    e = np.full(1, eps_s, dtype=float) / params.symbol_s
    factors = _cross_factors(float(m), float(k), e, params.chips_per_symbol, params.length)
    return _p_cross(params.lambda_s, params, factors, e).item()


def within_rows(params, rates):
    # The within-symbol integrand rows of the bound at each of the rates.
    return _within_integrands(dataclasses.replace(params, lambda_s=np.asarray(rates, dtype=float)))


def grid_of(params):
    return _bound_grid(params.chips_per_symbol, params.length, params.symbol_s,
                       params.m_max, params.eps_quadrature_points)


class TestClockVariance:
    def test_degenerate(self):
        assert ClockModel.ideal().variance_s2 == 0.0

    def test_uniform_100ns_closed_form_and_monte_carlo(self):
        model = ClockModel.uniform(0.0, 100e-9)
        expected = (1e-7) ** 2 / 12.0
        assert model.variance_s2 == pytest.approx(expected, rel=1e-12)
        assert model.variance_s2 == pytest.approx(8.333e-16, rel=1e-3)
        draws = model.sample(np.random.default_rng(1), 1_000_000)
        assert np.var(draws) == pytest.approx(expected, rel=0.01)

    def test_quadratic_scaling(self):
        full = ClockModel.uniform(0.0, 100e-9).variance_s2
        half = ClockModel.uniform(0.0, 50e-9).variance_s2
        assert half == pytest.approx(full / 4.0, rel=1e-12)


class TestMisdetectWithinSymbol:
    def test_vanishes_at_huge_rate(self):
        p = within_cell(bound_params(lam_s=1e6), 1, 0.0)
        assert p == pytest.approx(0.0, abs=1e-12)

    def test_against_independent_oracle(self):
        lam_s, lam_b, length, n, t_s = 5.0, 1.0, 256, 100, 1e-6
        k, eps = 1, 0.0
        num = 0.5 * lam_s * (2.0 * eps / t_s - k / n) * (length - 1)
        den = math.sqrt(
            2.0 * (k / n) * (0.5 * lam_s + lam_b) * (length - 1) + (eps / t_s) * lam_s
        )
        expected = phi_oracle(num / den)
        got = within_cell(bound_params(), k, eps)
        assert got == pytest.approx(expected, abs=1e-12)
        assert 0.0 <= got <= 1.0

    def test_monotone_in_eps(self):
        params = bound_params()
        t_c = params.chip_s
        lo = within_cell(params, 1, -t_c / 2)
        hi = within_cell(params, 1, +t_c / 2)
        assert hi > lo

    def test_negative_k_symmetric(self):
        # The bound treats the two offset directions symmetrically: its
        # within-symbol integrand takes an offset of -k chips from the cell
        # of +k, eps^2 (1 - p_1) + sum over k = +-1..+-(n-1) of e_|k|^2 p_|k|.
        params = bound_params()
        grid = grid_of(params)
        p = normal_cdf(_within_gap(params.lambda_s, params, grid.within, grid.e_within))
        both = np.concatenate([grid.e_k2 * p, (grid.e_k2 * p)[::-1]])
        expected = grid.eps**2 * (1.0 - p[0]) + np.sum(both, axis=0)
        assert _within_integrands(params)[0] == pytest.approx(expected)
        assert within_cell(params, -3, 1e-9) == within_cell(params, 3, 1e-9)

    def test_k_zero_rejected(self):
        # A 0-chip offset is the exact detection, not a misdetection: the
        # bound's within-symbol cells are k = 1..n-1 and nothing else.
        params = bound_params()
        n = params.chips_per_symbol
        grid = grid_of(params)
        k = np.arange(1, n, dtype=float)[:, None]
        assert np.rint(grid.within[1] * n / 2.0).ravel().tolist() == list(range(1, n))
        assert np.allclose(grid.e_k2, (k * params.chip_s - grid.eps) ** 2, rtol=1e-12, atol=0)


class TestMisdetectCrossSymbol:
    def test_vanishes_at_huge_rate(self):
        for m in (1, 3, 8):
            p = cross_cell(bound_params(lam_s=1e6), m, 0, 0.0)
            assert p == pytest.approx(0.0, abs=1e-12)

    def test_against_independent_oracle(self):
        lam_s, lam_b, length, n, t_s = 5.0, 1.0, 256, 100, 1e-6
        m, k, eps = 1, 0, 0.0
        e = eps / t_s
        num = (
            (-2.0 * m) * 0.5 * lam_s * (1.0 - 2.0 * (k / n - e))
            - length * 0.5 * lam_s * (1.0 - e)
            - 0.5 * lam_s * (2.0 * e - k / n)
        )
        den = math.sqrt(
            2.0 * (0.5 * lam_s + lam_b)
            * ((length - m) - (-2.0 * m) * (1.0 - 2.0 * k / n) - k / n)
            + e * lam_s
        )
        expected = phi_oracle(num / den)
        got = cross_cell(bound_params(), m, k, eps)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_decreasing_in_m(self):
        params = bound_params(lam_s=2.0, lam_b=1.0, length=64)
        p1 = cross_cell(params, 1, 0, 0.0)
        p3 = cross_cell(params, 3, 0, 0.0)
        assert p3 <= p1

    def test_domain_rejections(self):
        # The bound's cross-symbol cells are offsets of 2m*n + k chips for
        # m = 1..m_max and k = -n..n-1 only: no m = 0 and no k = n.
        params = bound_params()
        n, m_max = params.chips_per_symbol, params.m_max
        grid = grid_of(params)
        m = np.arange(1, m_max + 1)[:, None]
        assert grid.cross[0].ravel().tolist() == (-2.0 * m).ravel().tolist()
        chips = np.rint(grid.shift_mk[..., 0] / params.chip_s)
        assert np.array_equal(chips, 2 * m * n + np.arange(-n, n)[None, :])
        assert grid.e_cross.shape == (1, 1, params.eps_quadrature_points)


class TestSyncMseBound:
    def test_perfect_detection_limit(self):
        params = bound_params(lam_s=1e6, lam_b=0.0)
        t_c = params.chip_s
        assert sync_mse_bound(params) == pytest.approx(t_c**2 / 12.0, rel=1e-3)

    def test_halving_length_increases_bound(self):
        full = sync_mse_bound(bound_params(length=256))
        half = sync_mse_bound(bound_params(length=128))
        assert half > full

    def test_quadrature_convergence(self):
        base = sync_mse_bound(bound_params(eps_quadrature_points=33))
        fine = sync_mse_bound(bound_params(eps_quadrature_points=66))
        assert abs(fine - base) / base < 1e-4

    def test_dominates_empirical_mse(self):
        lam_s, lam_b, length, n = 5.0, 1.0, 256, 100
        bound = sync_mse_bound(bound_params(lam_s, lam_b, length, n))
        emp = sync_mse_empirical(lam_s, lam_b, length, n, 1e6, trials=10_000, seed=17)
        assert bound >= emp


class TestPositioningMse:
    def test_zero_variance_zero_error(self):
        scene = make_scene(GEOMETRY_II)
        budget = positioning_mse(scene, 0.0, 0.0, 0.0)
        assert budget.e_p == 0.0

    def test_equilateral_rotation_symmetry(self):
        r = 40.0
        angles = np.deg2rad([90.0, 210.0, 330.0])
        anchors = np.c_[r * np.cos(angles), r * np.sin(angles)]
        scene = Scene(tx_a=anchors[0], tx_b=anchors[1], tx_c=anchors[2], rx_true=(0, 0))
        s2 = 1e-15
        base = positioning_mse(scene, s2, s2, s2, at=(0.0, 0.0)).e_p
        rotated = Scene(tx_a=anchors[1], tx_b=anchors[2], tx_c=anchors[0], rx_true=(0, 0))
        assert positioning_mse(rotated, s2, s2, s2, at=(0.0, 0.0)).e_p == pytest.approx(
            base, rel=1e-9
        )

    def test_symmetric_psd_over_random_scenes(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            anchors = rng.uniform(-80, 80, size=(3, 2))
            scene_try = None
            try:
                scene_try = Scene(tx_a=anchors[0], tx_b=anchors[1], tx_c=anchors[2],
                                  rx_true=anchors.mean(axis=0))
            except Exception:
                continue
            s2 = rng.uniform(0, 1e-15, size=3)
            budget = positioning_mse(scene_try, *s2)
            if np.isnan(budget.e_p):  # singular geometry
                continue
            m = np.asarray(budget.mse_matrix)
            assert m[0, 1] == pytest.approx(m[1, 0], abs=1e-18)
            eigs = np.linalg.eigvalsh(m)
            assert eigs.min() >= -1e-12 * max(eigs.max(), 1.0)

    def test_monotone_in_each_sigma(self):
        scene = make_scene(GEOMETRY_II)
        base = positioning_mse(scene, 1e-16, 1e-16, 1e-16).e_p
        for idx in range(3):
            s2 = [1e-16, 1e-16, 1e-16]
            s2[idx] *= 4.0
            assert positioning_mse(scene, *s2).e_p >= base

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(21)
        scene = make_scene(GEOMETRY_II, rx=(36.0, 25.0))
        s2 = (8e-16, 9e-16, 7e-16)
        base = positioning_mse(scene, *s2).e_p
        for _ in range(10):
            theta = rng.uniform(0, 2 * np.pi)
            shift = rng.uniform(-300, 300, size=2)
            rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
            moved = Scene(
                tx_a=rot @ scene.tx_a + shift,
                tx_b=rot @ scene.tx_b + shift,
                tx_c=rot @ scene.tx_c + shift,
                rx_true=rot @ np.asarray(scene.rx_true) + shift,
            )
            assert positioning_mse(moved, *s2).e_p == pytest.approx(base, rel=1e-9)

    def test_singular_geometry_gives_nan_with_condition_number(self):
        scene = make_scene(GEOMETRY_II)
        # very distant receiver: both gradient rows become parallel
        budget = positioning_mse(scene, 1e-16, 1e-16, 1e-16, at=(4.0e9, 3.9e9))
        assert np.isnan(budget.e_p)
        assert budget.condition_number > 1e8

    def test_clock_dominated_magnitude_at_centroid(self):
        scene = make_scene(GEOMETRY_II, rx=tuple(make_scene(GEOMETRY_II).centroid()))
        budget = make_budget(power_w=0.15)
        signal = make_signal()
        s2 = anchor_sigma2(scene, scene.rx_true, budget, signal, ClockModel.uniform(0, 100e-9))
        e_p = positioning_mse(scene, *s2).e_p
        assert 7.0 <= e_p <= 14.0

    def test_negative_sigma_rejected(self):
        with pytest.raises(TheoryError):
            positioning_mse(make_scene(GEOMETRY_II), -1e-16, 0.0, 0.0)


class TestNormalCdf:
    def test_against_math_erf(self):
        for x in (-8.0, -2.5, -0.3, 0.0, 0.7, 4.2):
            assert normal_cdf(x) == pytest.approx(phi_oracle(x), abs=1e-12)

    def test_matches_scipy_over_dense_sweep(self):
        # normal_cdf against the scipy formula it replaces, and erfc itself,
        # over arguments that cross every branch edge and the underflow.
        x = np.linspace(-40.0, 40.0, 400_001)
        for got, ref in ((normal_cdf(x), 0.5 * erfc(-x / np.sqrt(2.0))), (_erfc(x), erfc(x))):
            normal = ref >= 2.2e-308
            assert np.all(np.abs(got[normal] - ref[normal]) <= 1e-15 * ref[normal])
            assert np.array_equal(got == 0.0, ref == 0.0)  # zero exactly where scipy is

    def test_exact_at_signed_zero_infinity_and_nan(self):
        assert _erfc(np.array([0.0, -0.0, np.inf, -np.inf])).tolist() == [1.0, 1.0, 0.0, 2.0]
        assert normal_cdf(0.0) == normal_cdf(-0.0) == 0.5
        assert normal_cdf(np.inf) == 1.0 and normal_cdf(-np.inf) == 0.0
        assert math.isnan(normal_cdf(math.nan)) and np.isnan(_erfc(np.array([np.nan]))).all()

    def test_scalars_and_shapes(self):
        assert isinstance(normal_cdf(0.3), float)
        assert np.ndim(normal_cdf(np.array(0.3))) == 0
        assert normal_cdf(np.zeros((2, 3))).shape == (2, 3)
        grid = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        assert np.array_equal(normal_cdf(grid.T), normal_cdf(grid).T)  # not C-contiguous
        assert normal_cdf(np.zeros(0)).shape == (0,)
        x = np.linspace(-9.0, 9.0, 3001)
        assert np.array_equal(normal_cdf(x), [normal_cdf(v) for v in x.tolist()])

    def test_each_branch_and_edge_against_math_erfc(self):
        # No scipy: |x| < 1, 1 <= |x| < 8 and |x| >= 8 on both sides of each
        # edge. The tolerance grows with x^2, which carries the rounding of
        # x^2 into exp(-x^2); below 1 the 1 - erf cancellation costs ~6 ulps.
        edge = math.sqrt(_MAXLOG)
        xs = [0.0, 1e-300, 0.25, 0.5, 0.999, math.nextafter(1.0, 0.0), 1.0, 2.5, 5.0,
              math.nextafter(8.0, 0.0), 8.0, 12.0, 20.0, 26.0, 26.5]
        for x in xs + [-x for x in xs]:
            got, ref = float(_erfc(np.array([x]))[0]), math.erfc(x)
            assert abs(got - ref) <= 8 * np.finfo(float).eps * (1 + x * x) * ref, x
        below = math.nextafter(edge, 0.0)
        assert _erfc(np.array([below]))[0] > 0.0  # still a (subnormal) value
        past = math.nextafter(edge, 30.0)
        assert past * past > _MAXLOG
        assert _erfc(np.array([past, -past])).tolist() == [0.0, 2.0]


class TestTheoryGrid:
    def test_zero_sigma_zero_map(self):
        scene = make_scene(GEOMETRY_II)
        grid = GridSpec(20.0, 50.0, 15.0, 45.0, steps_x=3, steps_y=3)
        budget = make_budget(power_w=100.0, lambda_clip=1e9, lambda_b=0.0)
        signal = make_signal(length=64)
        # with an ideal clock and an effectively infinite photon rate the
        # only error left is chip quantization, which stays tiny
        tmap = theory_points(scene, grid.points(), budget, signal, ClockModel.ideal())
        assert (tmap.e_p < 2.0).all()

    def test_matches_pointwise_calls(self):
        scene = make_scene(GEOMETRY_II)
        budget = make_budget(power_w=0.15)
        signal = make_signal()
        clock = ClockModel.uniform(0, 100e-9)
        grids = {
            GridSpec(20.0, 50.0, 15.0, 45.0, steps_x=3, steps_y=3): 0,
            # the far column is singular: a mixed stack
            GridSpec(30.0, 5.0e9, 20.0, 30.0, steps_x=2, steps_y=2): 2,
        }
        for grid, n_singular in grids.items():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", SyncBoundTailWarning)
                tmap = theory_points(scene, grid.points(), budget, signal, clock)
                for x, y, e_p, cond, singular, inside in zip(
                    tmap.x.tolist(), tmap.y.tolist(), tmap.e_p.tolist(),
                    tmap.condition_number.tolist(), tmap.singular.tolist(), tmap.inside.tolist(),
                ):
                    at = (x, y)
                    s2 = anchor_sigma2(scene, at, budget, signal, clock)
                    assert inside == inside_triangle(scene, at)
                    direct = positioning_mse(scene, *s2, at=at)
                    assert singular == np.isnan(direct.e_p)
                    assert cond == direct.condition_number
                    if singular:
                        assert math.isnan(e_p)
                    else:
                        assert e_p == direct.e_p
            assert tmap.singular.sum() == n_singular

    def test_center_lower_than_edges_ideal_clock(self):
        scene = make_scene(GEOMETRY_II)
        grid = GridSpec(15.0, 60.0, 15.0, 60.0, steps_x=5, steps_y=5)
        budget = make_budget(power_w=0.1)
        signal = make_signal()
        tmap = theory_points(scene, grid.points(), budget, signal, ClockModel.ideal())
        eps = tmap.e_p.reshape(5, 5)
        center = eps[2, 2]
        corners = [eps[0, 0], eps[0, -1], eps[-1, 0], eps[-1, -1]]
        assert all(center < c for c in corners)

    def test_singular_points_flagged_not_fatal(self):
        scene = make_scene(GEOMETRY_II)
        # one grid column sits so far out that the geometry degenerates
        grid = GridSpec(30.0, 5.0e9, 20.0, 30.0, steps_x=2, steps_y=2)
        budget = make_budget(power_w=0.15)
        # the far column's links are weak enough that the truncated bound warns
        with pytest.warns(SyncBoundTailWarning):
            tmap = theory_points(scene, grid.points(), budget, make_signal(), ClockModel.ideal())
        assert tmap.singular.any() and not tmap.singular.all()
        assert np.isnan(tmap.e_p[tmap.singular]).all()
        assert np.isfinite(tmap.average_ep())

    def test_second_call_warns_as_the_first(self):
        # At 1 mW every link of a 3x3 Geometry III grid is weak, and 13 of
        # its distinct rates leave a truncation tail above the limit. A bound
        # is not remembered between calls, so a second call warns again.
        scene = make_scene(GEOMETRY_III)
        points = dataclasses.replace(default_grid(scene), steps_x=3, steps_y=3).points()
        calls = []
        for _ in range(2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                theory_points(scene, points, make_budget(power_w=1e-3), make_signal(),
                              ClockModel.uniform(0, 100e-9))
            calls.append([(w.category, str(w.message)) for w in caught])
        assert len(calls[0]) == 13
        assert {category for category, _ in calls[0]} == {SyncBoundTailWarning}
        assert calls[1] == calls[0]


# Verbatim copy of the sync-MSE bound as it was before the sparse evaluation,
# the cached rate-free grid and the pruned within-symbol cells, on the
# package's own normal_cdf (tested on its own below); the bound
# must still equal it bit for bit.
def _oracle_cdf(x):
    return normal_cdf(x)


def _oracle_p_within(params, k, eps_s):
    lam_s, lam_b = params.lambda_s, params.lambda_b
    big_l, n, t_s = params.length, params.chips_per_symbol, params.symbol_s
    k = np.asarray(k, dtype=float)
    e = np.asarray(eps_s, dtype=float) / t_s
    num = 0.5 * lam_s * (2.0 * e - k / n) * (big_l - 1)
    var = 2.0 * (k / n) * (0.5 * lam_s + lam_b) * (big_l - 1) + e * lam_s
    if lam_s == 0:
        return np.broadcast_to(0.5, np.broadcast(num, var).shape).copy()
    return _oracle_cdf(num / np.sqrt(var))


def _oracle_p_cross(params, m, k, eps_s):
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
    out = np.where(num >= 0, 1.0, 0.0)
    safe = np.where(ok, var, 1.0)
    out = np.where(ok, _oracle_cdf(num / np.sqrt(safe)), out)
    if lam_s == 0:
        out = np.full_like(out, 0.5)
    return out


def _oracle_bound_detail(params):
    n = params.chips_per_symbol
    t_c = params.chip_s
    nodes, weights = np.polynomial.legendre.leggauss(params.eps_quadrature_points)
    eps = nodes * (t_c / 2.0)
    p01 = np.clip(_oracle_p_within(params, 1, eps), 0.0, 1.0) if n > 1 else np.zeros_like(eps)
    p00 = np.clip(1.0 - p01, 0.0, None)
    integrand = eps**2 * p00
    if n > 1:
        k = np.arange(1, n, dtype=float)[:, None]
        e_k = k * t_c - eps[None, :]
        p0k = np.clip(_oracle_p_within(params, k, eps[None, :]), 0.0, 1.0)
        integrand = integrand + 2.0 * np.sum(e_k**2 * p0k, axis=0)
    m = np.arange(1, params.m_max + 1, dtype=float)[:, None, None]
    k = np.arange(-n, n, dtype=float)[None, :, None]
    e_mk = (2.0 * m * n + k) * t_c - eps[None, None, :]
    pmk = np.clip(_oracle_p_cross(params, m, k, eps[None, None, :]), 0.0, 1.0)
    cross = 2.0 * np.sum(e_mk**2 * pmk, axis=(0, 1))
    tail = 2.0 * np.sum((e_mk**2 * pmk)[-1], axis=0)
    integrand = integrand + cross
    value = float(0.5 * np.sum(weights * integrand))
    tail_value = float(0.5 * np.sum(weights * tail))
    tail_fraction = tail_value / value if value > 0 else 0.0
    return value, tail_fraction


def matches_oracle(got, want):
    # The bound bit for bit, and its tail fraction too, except where the
    # cross-symbol pass was skipped as unable to move the bound: there the
    # tail reads 0, and the oracle's is under 2**-54.
    (value, tail), (want_value, want_tail) = got, want
    if tail == 0.0 and want_tail != 0.0:
        return value == want_value and want_tail < 2.0**-54
    return np.array_equal(got, want, equal_nan=True)


SWEEP_RATES_S = [float(v) for v in np.logspace(-2, 3, 40)] + [0.0]


class TestSyncBoundExactness:
    @pytest.mark.parametrize("length", [8, 16, 64, 256])
    @pytest.mark.parametrize("n", [1, 2, 10, 100])
    def test_equals_dense_oracle_over_sweep(self, length, n):
        cases = 0
        for m_max in (m for m in (1, 8, 22) if 2 * m < length):
            for lam_s, lam_b, t_s in itertools.product(
                SWEEP_RATES_S, (0.0, 0.5, 1.0, 5.0), (1e-6, 0.33e-6)
            ):
                params = SyncBoundParams(
                    lambda_s=lam_s, lambda_b=lam_b, length=length,
                    chips_per_symbol=n, symbol_s=t_s, m_max=m_max,
                )
                assert matches_oracle(_sync_mse_bound_detail(params),
                                      _oracle_bound_detail(params)), params
                cases += 1
        assert cases == {8: 1, 16: 1, 64: 3, 256: 3}[length] * 41 * 4 * 2

    def test_degenerate_variance_cells_use_the_limit(self):
        # At L = 64, m = 22, n = 100 the variance factor goes negative for
        # offsets near +n chips, so these cells take the CDF's limit value.
        length, m, n = 64, 22, 100
        k = np.arange(-n, n)
        assert ((length - m) - (-2.0 * m) * (1.0 - 2.0 * k / n) - k / n).min() < 0
        for lam_s in (0.01, 1.0, 100.0):
            params = SyncBoundParams(
                lambda_s=lam_s, lambda_b=5.0, length=length,
                chips_per_symbol=n, symbol_s=1e-6, m_max=m,
            )
            assert _sync_mse_bound_detail(params) == _oracle_bound_detail(params)

    @pytest.mark.parametrize("rates", [(math.nan, 1.0), (5.0, math.nan), (math.nan, math.nan)])
    def test_nan_rate_gives_nan_bound(self, rates):
        lam_s, lam_b = rates
        with np.errstate(invalid="ignore"):
            assert math.isnan(sync_mse_bound(bound_params(lam_s=lam_s, lam_b=lam_b, length=64)))

    @pytest.mark.parametrize("length", [8, 16, 64, 256])
    @pytest.mark.parametrize("n", [1, 2, 10, 100])
    def test_cross_skip_fires_only_on_all_zero_cells(self, length, n):
        # Over the oracle sweep, wherever the cross-symbol pass is skipped
        # every one of its cells would have come out exactly 0.0.
        for m_max in (m for m in (1, 8, 22) if 2 * m < length):
            for t_s in (1e-6, 0.33e-6):
                grid = _bound_grid(n, length, t_s, m_max, 33)
                for lam_s, lam_b in itertools.product(SWEEP_RATES_S, (0.0, 0.5, 1.0, 5.0)):
                    params = SyncBoundParams(
                        lambda_s=lam_s, lambda_b=lam_b, length=length,
                        chips_per_symbol=n, symbol_s=t_s, m_max=m_max,
                    )
                    if _cross_is_zero(lam_s, params, grid):
                        assert not _p_cross(lam_s, params, grid.cross, grid.e_cross).any(), params

    def test_cross_skip_never_fires_on_degenerate_variance(self):
        # At L = 64, m_max = 22, n = 100 some cells have a negative variance
        # factor, so the grid has no gap bound and every rate runs the pass.
        grid = _bound_grid(100, 64, 1e-6, 22, 33)
        for lam_s, lam_b in itertools.product(SWEEP_RATES_S, (0.0, 0.5, 1.0, 5.0)):
            params = SyncBoundParams(
                lambda_s=lam_s, lambda_b=lam_b, length=64,
                chips_per_symbol=100, symbol_s=1e-6, m_max=22,
            )
            assert not _cross_is_zero(lam_s, params, grid)

    def test_cross_skip_engages_at_high_rates(self):
        # At L = 256, n = 100, lam_b = 1 every cross cell is zero from lam_s
        # of about 25 on, and the cached bound proves it from about 28.
        grid = _bound_grid(100, 256, 1e-6, 8, 33)
        for lam_s in range(36, 101):
            assert _cross_is_zero(float(lam_s), bound_params(lam_b=1.0), grid), lam_s
        for lam_s in (0.0, 2.0):
            assert not _cross_is_zero(lam_s, bound_params(lam_b=1.0), grid)

    @pytest.mark.parametrize("length", [8, 64, 256])
    @pytest.mark.parametrize("n", [10, 100])
    def test_pruned_cells_are_under_half_an_ulp(self, length, n):
        # Over the oracle sweep's within-symbol cells, every cell below the
        # round-away threshold has a term under 2**-54 of its node's k = 1
        # term, so leaving it out cannot change the k-sum.
        for t_s in (1e-6, 0.33e-6):
            grid = _bound_grid(n, length, t_s, 1, 33)
            for lam_s, lam_b in itertools.product(SWEEP_RATES_S[:-1], (0.0, 0.5, 1.0, 5.0)):
                params = SyncBoundParams(
                    lambda_s=lam_s, lambda_b=lam_b, length=length,
                    chips_per_symbol=n, symbol_s=t_s, m_max=1,
                )
                z = _within_gap(lam_s, params, grid.within, grid.e_within)
                terms = grid.e_k2 * np.clip(_oracle_p_within(
                    params, np.arange(1, n, dtype=float)[:, None], grid.eps[None, :]), 0.0, 1.0)
                floor = _round_away_below(terms[0], grid.e_k2[-1])
                assert np.all(floor < -8.6)
                pruned = z[1:] < floor
                assert np.all(terms[1:] < _ROUND_AWAY * terms[0], where=pruned)

    @staticmethod
    def _cells_evaluated(monkeypatch, params):
        # Cells of a one-rate within-symbol pass that reach normal_cdf.
        seen = []
        monkeypatch.setattr(errortheory, "normal_cdf",
                            lambda z: seen.append(np.size(z)) or normal_cdf(z))
        _within_integrands(params)
        monkeypatch.undo()
        return sum(seen)

    def test_pruning_engages_on_most_live_cells(self, monkeypatch):
        # At L = 256, n = 100, lam_b = 1 the rule skips most cells above
        # _CDF_ZERO_BELOW: 56 % at lam_s = 5, 87-93 % from about 15 on
        # (measured), and none at 2 or below. At lam_s = 0 the row is the
        # closed form of even odds, with no CDF call.
        grid = _bound_grid(100, 256, 1e-6, 8, 33)
        for lam_s in (15.0, 20.0, 25.0, 30.0, 50.0, 75.0, 100.0):
            params = bound_params(lam_s=lam_s, lam_b=1.0)
            z = _within_gap(lam_s, params, grid.within, grid.e_within)
            live = int(np.sum(z > _CDF_ZERO_BELOW))
            assert self._cells_evaluated(monkeypatch, params) <= 0.15 * live, lam_s
        assert self._cells_evaluated(monkeypatch, bound_params(lam_s=2.0, lam_b=1.0)) == 99 * 33
        assert self._cells_evaluated(monkeypatch, bound_params(lam_s=0.0, lam_b=1.0)) == 0

    def test_cdf_is_exactly_zero_at_the_skip_threshold(self):
        assert normal_cdf(_CDF_ZERO_BELOW) == 0.0
        assert normal_cdf(-np.inf) == 0.0

    @pytest.mark.parametrize("lam_s", [0.0, 2.0, 50.0])
    def test_scalar_helpers_equal_bound_cells(self, lam_s):
        params = bound_params(lam_s=lam_s, lam_b=1.0, length=64, n=10)
        n, t_s = params.chips_per_symbol, params.symbol_s
        # The bound's grid of cells, evaluated in one pass, equals each cell
        # evaluated on its own at its (m, k, eps).
        grid = _bound_grid(n, params.length, t_s, params.m_max, params.eps_quadrature_points)
        p0k = normal_cdf(_within_gap(lam_s, params, grid.within, grid.e_within))
        pmk = _p_cross(lam_s, params, grid.cross, grid.e_cross).reshape(params.m_max, 2 * n, -1)
        if lam_s == 2.0:
            assert pmk.any()  # the cross cells are not all zero here
        for q, eps in enumerate(grid.eps):
            for k in range(1, n):
                assert within_cell(params, k, eps) == p0k[k - 1, q]
                assert within_cell(params, -k, eps) == p0k[k - 1, q]
            for m in range(1, params.m_max + 1):
                for k in range(-n, n):
                    got = cross_cell(params, m, k, eps)
                    assert got == pmk[m - 1, k + n, q]

    def test_scalar_helpers_equal_oracle_off_grid(self):
        params = bound_params(lam_s=3.0, lam_b=0.5, length=64, n=10)
        for eps in (-3e-8, 0.0, 1.7e-8, 2e-6, -2e-6):
            for k in (1, 4, 9):
                assert within_cell(params, k, eps) == float(
                    np.clip(_oracle_p_within(params, k, eps), 0.0, 1.0))
            for m, k in ((1, -10), (3, 0), (8, 9)):
                assert cross_cell(params, m, k, eps) == float(
                    np.clip(_oracle_p_cross(params, m, k, eps), 0.0, 1.0))


class TestBatchedRates:
    RATES = [0.0, 0.3, 2.0, 5.0, 5.0, 8.5, 17.0, 26.0, 31.0, 40.0, 64.0, 100.0, 1e3,
             0.05, 1.5, 3.0, 12.0, 90.0, 0.7, *np.geomspace(0.01, 500.0, 20).tolist()]

    @pytest.mark.parametrize("length, n", [(64, 10), (256, 100)])
    def test_batched_rows_equal_one_rate_rows(self, length, n):
        assert len(self.RATES) > 2 * _RATE_BLOCK  # three blocks, the last one short
        params = bound_params(lam_b=1.0, length=length, n=n)
        rows = within_rows(params, self.RATES)
        assert rows.shape == (len(self.RATES), 33)
        for row, lam_s in zip(rows, self.RATES):
            assert np.array_equal(row, within_rows(params, [lam_s])[0]), lam_s

    def test_nan_rate_in_a_batch_gives_nan_there_only(self):
        params = bound_params(lam_b=1.0)
        rows = within_rows(params, [5.0, math.nan, 50.0])
        assert np.isnan(rows[1]).all()
        assert np.array_equal(rows[[0, 2]], within_rows(params, [5.0, 50.0]))

    @staticmethod
    def _bounds_and_warnings(params, rates):
        # The bound over an array of the rates, then at each rate on its own,
        # with the warnings each way emits.
        with warnings.catch_warnings(record=True) as batched, np.errstate(invalid="ignore"):
            warnings.simplefilter("always")
            got = sync_mse_bound(dataclasses.replace(params, lambda_s=np.array(rates)))
        with warnings.catch_warnings(record=True) as alone, np.errstate(invalid="ignore"):
            warnings.simplefilter("always")
            want = [sync_mse_bound(dataclasses.replace(params, lambda_s=lam_s)) for lam_s in rates]
        assert isinstance(got, np.ndarray) and got.shape == (len(rates),)
        assert all(isinstance(value, float) for value in want)
        assert np.array_equal(got, want, equal_nan=True)
        assert [str(w.message) for w in batched] == [str(w.message) for w in alone]
        return batched

    @pytest.mark.parametrize("length, n", [(64, 10), (256, 100)])
    def test_array_equals_one_rate_calls(self, length, n):
        # Rates of 0, a duplicate and NaN included; the weak ones warn.
        rates = [*self.RATES, math.nan]
        warned = self._bounds_and_warnings(bound_params(lam_b=1.0, length=length, n=n), rates)
        assert warned

    def test_array_with_one_chip_per_symbol(self):
        rates = [*self.RATES, math.nan]
        warned = self._bounds_and_warnings(bound_params(lam_b=1.0, length=64, n=1), rates)
        assert warned

    def test_anchor_sigma2_batches_the_within_pass(self, monkeypatch):
        # One bound call over the grid's distinct rates, with one
        # within-symbol pass over them all; each bound equals the bound
        # computed on its own, warning in the same order.
        calls, passes = [], []
        def counting_bound(params):
            calls.append(np.size(params.lambda_s))
            return sync_mse_bound(params)
        def counting_within(params):
            passes.append(np.size(params.lambda_s))
            return _within_integrands(params)
        monkeypatch.setattr(errortheory, "sync_mse_bound", counting_bound)
        monkeypatch.setattr(errortheory, "_within_integrands", counting_within)
        # weak links: 47 of the 48 distinct rates warn
        scene, budget, signal = make_scene(GEOMETRY_II), make_budget(power_w=1e-4), make_signal()
        points = GridSpec(20.0, 50.0, 15.0, 45.0, steps_x=4, steps_y=4).points()
        with warnings.catch_warnings(record=True) as batched:
            warnings.simplefilter("always")
            got = anchor_sigma2(scene, points, budget, signal, ClockModel.ideal())
        monkeypatch.undo()
        rates = errortheory.los_photon_rate(
            budget, errortheory.anchor_ranges(scene, points), signal.symbol_s).ravel().tolist()
        assert calls == passes == [len(set(rates))] and passes[0] > _RATE_BLOCK
        with warnings.catch_warnings(record=True) as alone:
            warnings.simplefilter("always")
            want = {lam_s: sync_mse_bound(SyncBoundParams(
                lam_s, budget.lambda_b, signal.length, signal.chips_per_symbol, signal.symbol_s))
                for lam_s in dict.fromkeys(rates)}
        assert got.ravel().tolist() == [want[lam_s] for lam_s in rates]
        assert batched and [str(w.message) for w in batched] == [str(w.message) for w in alone]


def _cross_blocks_prove_zero(params, grid):
    # The cross-symbol skip test the rate threshold replaced: every block's
    # gap bound below _CDF_ZERO_BELOW by the relative margin, rate by rate.
    if grid.cross_max is None or params.lambda_s == 0:
        return False
    lam_s = params.lambda_s
    n_max, a_max, b_max = grid.cross_max
    bound = lam_s * n_max / np.sqrt(lam_s * a_max + params.lambda_b * b_max)
    return bool(np.all(bound < _CDF_ZERO_BELOW * (1.0 + _SKIP_MARGIN)))


class TestPrunedPasses:
    @pytest.mark.parametrize("length", [8, 16, 64, 256])
    @pytest.mark.parametrize("n", [2, 3, 10, 100])
    def test_within_gap_does_not_rise_with_k(self, length, n):
        # The within-symbol pass stops at a rate's last row that can count:
        # that needs the computed gap, not only the exact one, to be
        # non-increasing in k at every node.
        grid = _bound_grid(n, length, 1e-6, 1, 33)
        for lam_s, lam_b in itertools.product(SWEEP_RATES_S[:-1], (0.0, 0.5, 1.0, 5.0)):
            params = SyncBoundParams(lambda_s=lam_s, lambda_b=lam_b, length=length,
                                     chips_per_symbol=n, symbol_s=1e-6, m_max=1)
            z = _within_gap(lam_s, params, grid.within, grid.e_within)
            assert np.all(np.diff(z, axis=0) <= 0), params

    @pytest.mark.parametrize("length, n", [(64, 10), (256, 100)])
    def test_mixed_block_equals_one_rate_calls_and_the_oracle(self, length, n, monkeypatch):
        # A weak rate extends its rows alone: neither the rate of 0 (closed
        # form) nor the NaN rate (NaN from its first rows) nor the strong
        # rate, done within the first rows, goes with it.
        rates = [0.01, 0.0, math.nan, 100.0]
        params = bound_params(lam_s=np.array(rates), lam_b=1.0, length=length, n=n)
        passes = []
        def recording(lam_s, params, factors, e):
            passes.append((np.size(lam_s), len(factors[0])))
            return _within_gap(lam_s, params, factors, e)
        monkeypatch.setattr(errortheory, "_within_gap", recording)
        values, tails = _sync_mse_bound_detail(params)
        monkeypatch.undo()
        assert passes == {10: [(3, 8), (1, 1)],
                          100: [(3, 8), (1, 91)]}[n]
        rows = _within_integrands(params)
        assert np.isnan(rows[2]).all() and not np.isnan(rows[[0, 1, 3]]).any()
        for row, value, tail, lam_s in zip(rows, values.tolist(), tails.tolist(), rates):
            assert np.array_equal(row, within_rows(params, [lam_s])[0], equal_nan=True)
            one = dataclasses.replace(params, lambda_s=lam_s)
            assert matches_oracle((value, tail), _oracle_bound_detail(one)), lam_s

    @pytest.mark.parametrize("length", [8, 16, 64, 256])
    @pytest.mark.parametrize("n", [1, 2, 10, 100])
    def test_cross_threshold_is_never_bolder_than_the_block_test(self, length, n):
        # From the threshold rate on, the per-block gap bounds prove every
        # cross cell zero too, and the cells are zero. At L >= 64 the sweep
        # reaches the threshold.
        engaged = 0
        for m_max in (m for m in (1, 8, 22) if 2 * m < length):
            grid = _bound_grid(n, length, 1e-6, m_max, 33)
            for lam_s, lam_b in itertools.product(SWEEP_RATES_S, (0.0, 0.5, 1.0, 5.0)):
                params = SyncBoundParams(
                    lambda_s=lam_s, lambda_b=lam_b, length=length,
                    chips_per_symbol=n, symbol_s=1e-6, m_max=m_max,
                )
                if _cross_is_zero(lam_s, params, grid):
                    engaged += 1
                    assert _cross_blocks_prove_zero(params, grid), params
                    assert not _p_cross(lam_s, params, grid.cross, grid.e_cross).any(), params
        assert engaged > 0 or length < 64

    def test_cross_threshold_is_one_root_per_grid_and_background(self):
        # On the degenerate grid there is no threshold; on a regular one the
        # threshold sits just above the rate where the block test starts to
        # prove zero, and it is computed once per lam_b.
        assert _cross_zero_from(100, 64, 1e-6, 22, 33, 1.0) == math.inf
        _cross_zero_from.cache_clear()
        grid = _bound_grid(100, 256, 1e-6, 8, 33)
        for lam_b in (0.5, 1.0):
            threshold = _cross_zero_from(*grid.key, lam_b)
            at = bound_params(lam_s=threshold, lam_b=lam_b)
            below = bound_params(lam_s=threshold * (1.0 - 1e-6), lam_b=lam_b)
            assert _cross_blocks_prove_zero(at, grid) and not _cross_blocks_prove_zero(below, grid)
            for lam_s in np.linspace(0.0, 100.0, 201):
                _cross_is_zero(float(lam_s), bound_params(lam_b=lam_b), grid)
        assert _cross_zero_from.cache_info().misses == 2

    def test_anchor_sigma2_peak_memory(self, monkeypatch):
        # `theory` on a 25 x 25 Geometry III grid at 150 mW: 435 distinct
        # rates, most below the clip, in one bound call. The traced peak of
        # the bound part, with the rate-free grid already built, was
        # 1 754 592 bytes at the least before the within-symbol pass stopped
        # at each rate's last live row (numpy 2.4.6, x86-64 Linux).
        scene, budget, signal = make_scene(GEOMETRY_III), make_budget(power_w=0.15), make_signal()
        points = dataclasses.replace(default_grid(scene), steps_x=25, steps_y=25).points()
        _bound_grid(100, 256, signal.symbol_s, 8, 33)
        calls = []
        def recording(params):
            calls.append(np.size(params.lambda_s))
            return sync_mse_bound(params)
        monkeypatch.setattr(errortheory, "sync_mse_bound", recording)
        tracemalloc.start()
        try:
            anchor_sigma2(scene, points, budget, signal, ClockModel.ideal())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == [435]
        assert peak <= 1_754_592


def grid_rates(power_w, steps=6):
    # The distinct link rates of a Geometry III grid at a transmit power.
    scene, budget, signal = make_scene(GEOMETRY_III), make_budget(power_w=power_w), make_signal()
    points = dataclasses.replace(default_grid(scene), steps_x=steps, steps_y=steps).points()
    rates = errortheory.los_photon_rate(
        budget, errortheory.anchor_ranges(scene, points), signal.symbol_s).ravel().tolist()
    return np.array(list(dict.fromkeys(rates)))


class TestNegligibleCrossPass:
    @pytest.mark.parametrize("length", [64, 256])
    def test_skipped_pass_leaves_the_bound_of_a_forced_one(self, length, monkeypatch):
        # Weak links of a Geometry III grid from 1 to 30 mW: each bound whose
        # cross-symbol pass the proof skips equals, bit for bit, the bound
        # with the pass run, and the pass's tail is under 2**-54 there.
        skipped_total = 0
        for power_w in (1e-3, 3e-3, 1e-2, 3e-2):
            params = bound_params(lam_s=grid_rates(power_w), lam_b=1.0, length=length)
            skipped = []
            def recording(lam_s, params, g, integrand):
                negligible = _cross_is_negligible(lam_s, params, g, integrand)
                if negligible:
                    skipped.append(lam_s)
                return negligible
            monkeypatch.setattr(errortheory, "_cross_is_negligible", recording)
            values, tails = _sync_mse_bound_detail(params)
            monkeypatch.setattr(errortheory, "_cross_is_negligible", lambda *args: False)
            forced, forced_tails = _sync_mse_bound_detail(params)
            monkeypatch.undo()
            assert np.array_equal(values, forced), power_w
            was_skipped = np.isin(params.lambda_s, skipped)
            assert np.all(tails[was_skipped] == 0.0)
            assert np.all(forced_tails[was_skipped] < 2.0**-54)
            assert np.array_equal(tails[~was_skipped], forced_tails[~was_skipped])
            skipped_total += len(skipped)
            if power_w >= 1e-2 and length == 256:
                assert skipped, power_w
        assert skipped_total > 0

    @pytest.mark.parametrize("length", [8, 16, 64, 256])
    @pytest.mark.parametrize("n", [1, 2, 10, 100])
    def test_skip_never_fires_where_the_pass_moves_a_node(self, length, n):
        # Over the oracle sweep, wherever the proof skips a pass, adding the
        # pass to the within-symbol integrand leaves every node unchanged.
        fired = 0
        for m_max in (m for m in (1, 8, 22) if 2 * m < length):
            for t_s in (1e-6, 0.33e-6):
                grid = _bound_grid(n, length, t_s, m_max, 33)
                for lam_s, lam_b in itertools.product(SWEEP_RATES_S, (0.0, 0.5, 1.0, 5.0)):
                    params = SyncBoundParams(
                        lambda_s=lam_s, lambda_b=lam_b, length=length,
                        chips_per_symbol=n, symbol_s=t_s, m_max=m_max,
                    )
                    row = grid.eps**2 if n == 1 else within_rows(params, [lam_s])[0]
                    if _cross_is_zero(lam_s, params, grid) or not _cross_is_negligible(
                            lam_s, params, grid, row):
                        continue
                    fired += 1
                    pmk = _p_cross(lam_s, params, grid.cross, grid.e_cross)
                    terms = (grid.shift_mk - grid.eps) ** 2 * pmk.reshape(m_max, 2 * n, -1)
                    assert np.array_equal(row + 2.0 * np.sum(terms, axis=(0, 1)), row), params
        # with one chip per symbol the middle node's integrand is 0: no skip
        assert fired > 0 or length < 64 or n == 1

    def test_proof_never_fires_at_rate_zero_nan_or_without_maxima(self):
        grid = _bound_grid(100, 256, 1e-6, 8, 33)
        row = within_rows(bound_params(lam_b=1.0), [20.0])[0]
        assert _cross_is_negligible(20.0, bound_params(lam_b=1.0), grid, row)
        for lam_s, lam_b in ((0.0, 1.0), (math.nan, 1.0), (20.0, math.nan)):
            assert not _cross_is_negligible(lam_s, bound_params(lam_b=lam_b), grid, row)
        assert not _cross_is_negligible(20.0, bound_params(lam_b=1.0), grid, row * 2.0**-1000)
        degenerate = _bound_grid(100, 64, 1e-6, 22, 33)
        params = bound_params(lam_s=1e3, lam_b=1.0, length=64, m_max=22)
        assert degenerate.cross_max is None
        assert not _cross_is_negligible(1e3, params, degenerate, within_rows(params, [1e3])[0])

    def test_strong_links_pay_for_no_cross_pass(self, monkeypatch):
        # `theory` at 150 mW on a 25 x 25 Geometry III grid: every rate is
        # at or above its grid's threshold, so neither the cross-symbol pass
        # nor the proof that would skip it runs.
        calls = {"_p_cross": 0, "_cross_is_negligible": 0}
        for name in calls:
            def counting(*args, _name=name, _f=getattr(errortheory, name)):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(errortheory, name, counting)
        scene, budget, signal = make_scene(GEOMETRY_III), make_budget(power_w=0.15), make_signal()
        points = dataclasses.replace(default_grid(scene), steps_x=25, steps_y=25).points()
        tmap = theory_points(scene, points, budget, signal, ClockModel.uniform(0, 100e-9))
        assert not np.isnan(tmap.e_p).all()
        assert calls == {"_p_cross": 0, "_cross_is_negligible": 0}


def _node_scan_maxima(neg_2m, x, y, z, var_f, e, big_l):
    # _cross_maxima as a scan of every node, one m at a time: the reference
    # for its closed form on the end nodes.
    maxima = []
    for i in range(len(neg_2m)):
        num = 0.5 * (neg_2m[i] * x - big_l * y - z)
        a, b = var_f[i] + e, 2.0 * var_f[i]
        if np.any(num >= 0) or np.any(a <= 0) or np.any(b < 0):
            return None
        maxima.append([f.max(axis=-1).ravel() for f in (num, a, b)])
    return tuple(np.concatenate(f) for f in zip(*maxima))


def _grid_arrays(grid):
    # Every array the cached grid holds.
    for field in grid:
        for item in (field if isinstance(field, tuple) else (field,)):
            if isinstance(item, np.ndarray):
                yield item


# The closed-form sweep: every m_max with 2 m_max < L on each pilot length.
CLOSED_FORM_GRIDS = [
    (n, length, m_max)
    for n in (1, 2, 7, 20, 100) for length in (8, 16, 34, 64, 256)
    for m_max in (1, 3, 8, 15, 22, 31) if 2 * m_max < length
]
CLOSED_FORM_RATES = [0.0, 0.3, 1.0, 2.0, 3.0, 5.0, 8.0, 10.0, 20.0, 50.0, 100.0, math.nan]


class TestBoundGridShapes:
    @pytest.mark.parametrize("m_max, cache_limit", [(8, 250_000), (22, 400_000)])
    def test_grid_memory(self, m_max, cache_limit):
        # The rate-free grid keeps each factor at its broadcast shape: no
        # cached array is as large as the (m, k, node) grid of cells.
        n, length, points = 100, 256, 33
        _leggauss(points)  # numpy's first eigvalsh call allocates once
        tracemalloc.start()
        try:
            grid = _bound_grid.__wrapped__(n, length, 1e-6, m_max, points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = list(_grid_arrays(grid))
        assert all(a.size < m_max * 2 * n * points for a in arrays)
        assert sum(a.nbytes for a in arrays) <= cache_limit
        if m_max == 8:
            assert peak <= 500_000

    @pytest.mark.parametrize("n, length, m_max", CLOSED_FORM_GRIDS)
    def test_closed_form_maxima_equal_the_node_scan(self, n, length, m_max):
        # A, B and the squared errors' maxima are the scan's exactly; N's
        # differ by a few ulps at most, where it is constant over a block.
        for points in (8, 33):
            grid = _bound_grid(n, length, 1e-6, m_max, points)
            assert np.array_equal(grid.e2_max,
                                  ((grid.shift_mk - grid.eps) ** 2).max(axis=-1).ravel())
            want = _node_scan_maxima(*grid.cross, grid.e_cross, length)
            if want is None:
                assert grid.cross_max is None
                continue
            n_max, a_max, b_max = grid.cross_max
            assert np.array_equal(a_max, want[1]) and np.array_equal(b_max, want[2])
            assert np.all(np.abs(n_max - want[0]) <= 4 * np.spacing(np.abs(want[0])))

    @pytest.mark.parametrize("n", [1, 2, 7, 20, 100])
    def test_closed_form_leaves_every_bound(self, n, monkeypatch):
        # Bounds and tail fractions with the closed-form maxima equal, bit
        # for bit, those with the node scan's, over the whole sweep.
        def detail():
            out = []
            with np.errstate(invalid="ignore"):
                for (_, length, m_max), lam_b in itertools.product(
                        (g for g in CLOSED_FORM_GRIDS if g[0] == n), (0.0, 0.5, 1.0, 3.0)):
                    params = SyncBoundParams(
                        lambda_s=np.array(CLOSED_FORM_RATES), lambda_b=lam_b, length=length,
                        chips_per_symbol=n, symbol_s=1e-6, m_max=m_max,
                    )
                    out.append([a.tobytes() for a in _sync_mse_bound_detail(params)])
            return out

        got = detail()
        try:
            _bound_grid.cache_clear()
            _cross_zero_from.cache_clear()
            monkeypatch.setattr(errortheory, "_cross_maxima", _node_scan_maxima)
            assert detail() == got
        finally:
            monkeypatch.undo()
            _bound_grid.cache_clear()
            _cross_zero_from.cache_clear()


def _legval_has_the_numpy_2_4_form():
    """True when the installed numpy's Clenshaw step is ``c1 * ((nd - 1) / nd)``.

    ``_legval`` copies that form. An older numpy's ``(c1 * (nd - 1)) / nd``
    rounds differently, which moves the rule's weights by up to ~1e-11
    relative, so only numpy with the same form can give the same floats.
    """
    try:
        source = inspect.getsource(np.polynomial.legendre.legval)
    except (OSError, TypeError):
        return False
    return "c0=c[-i]-c1*((nd-1)/nd)" in "".join(source.split())


class TestQuadrature:
    @pytest.mark.parametrize("points", [8, 9, 33, 64, 101, 200])
    def test_rule_integrates_polynomials_of_degree_below_2q(self, points):
        # Independent of numpy's version: a Q-point rule is exact for x^d,
        # d < 2Q, whose integral over [-1, 1] is 2 / (d + 1) for even d.
        nodes, weights = _leggauss(points)
        assert np.array_equal(nodes, -nodes[::-1])
        assert np.array_equal(weights, weights[::-1])
        assert np.all(np.diff(nodes) > 0) and np.all(weights > 0)
        assert np.all(np.abs(nodes) < 1.0)
        for d in range(0, 2 * points, 2):
            assert np.sum(weights * nodes**d) == pytest.approx(2.0 / (d + 1), rel=1e-13), d

    def test_nodes_and_weights_match_numpy_leggauss(self):
        # On any numpy: within the rounding of numpy's own rule, whose
        # weights move by up to ~1e-11 relative with the Clenshaw form.
        for points in range(8, 201):
            nodes, weights = _leggauss(points)
            want_nodes, want_weights = np.polynomial.legendre.leggauss(points)
            np.testing.assert_allclose(nodes, want_nodes, rtol=0, atol=1e-15)
            np.testing.assert_allclose(weights, want_weights, rtol=1e-10, atol=0)

    @pytest.mark.skipif(not _legval_has_the_numpy_2_4_form(),
                        reason="the installed numpy's legval rounds its Clenshaw step differently")
    def test_nodes_and_weights_equal_numpy_leggauss(self):
        # The installed numpy's own rule, float for float, for every rule
        # size a bound accepts up to 200 points.
        for points in range(8, 201):
            nodes, weights = _leggauss(points)
            want_nodes, want_weights = np.polynomial.legendre.leggauss(points)
            assert np.array_equal(nodes, want_nodes), points
            assert np.array_equal(weights, want_weights), points


class TestSyncBoundDomain:
    @pytest.mark.parametrize(
        "field, value",
        [("lambda_s", math.inf), ("lambda_b", math.inf), ("symbol_s", math.inf),
         ("symbol_s", math.nan), ("symbol_s", 0.0), ("lambda_s", -1.0)],
    )
    def test_rejects_infinite_rates_and_bad_symbol_time(self, field, value):
        kwargs = {"lambda_s": 5.0, "lambda_b": 1.0, "symbol_s": 1e-6, field: value}
        with pytest.raises(TheoryError, match=f"^{field} must be finite and"):
            SyncBoundParams(length=64, chips_per_symbol=10, **kwargs)

    @pytest.mark.parametrize("value", [-1.0, math.inf])
    def test_rejects_a_bad_rate_in_an_array(self, value):
        with pytest.raises(TheoryError, match=f"^lambda_s must be finite and >= 0, got {value}$"):
            bound_params(lam_s=np.array([5.0, math.nan, value, -2.0]))

    def test_rejects_a_rate_array_of_two_dimensions(self):
        with pytest.raises(TheoryError, match="^lambda_s must be a float or a 1-D array"):
            bound_params(lam_s=np.full((2, 2), 5.0))

    def test_m_max_at_half_length_rejected(self):
        bound_params(length=64, m_max=31)
        with pytest.raises(TheoryError, match="m_max"):
            bound_params(length=64, m_max=32)

    def test_default_m_max_needs_length_above_16(self):
        bound_params(length=17)
        with pytest.raises(TheoryError, match="m_max"):
            bound_params(length=16)
