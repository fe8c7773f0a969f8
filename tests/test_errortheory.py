import itertools
import math

import numpy as np
import pytest
from scipy.special import erfc

from uvtdoa import (
    ClockModel,
    GridSpec,
    Scene,
    SingularGeometryError,
    SyncBoundParams,
    misdetect_prob_cross_symbol,
    misdetect_prob_within_symbol,
    positioning_mse,
    sync_mse_bound,
    sync_mse_empirical,
    theory_grid,
)
from uvtdoa.errortheory import (
    _CDF_ZERO_BELOW,
    TheoryError,
    _bound_grid,
    _p_cross,
    _p_within,
    _sync_mse_bound_detail,
    anchor_sigma2,
    normal_cdf,
)

from conftest import GEOMETRY_II, make_budget, make_scene, make_signal


def phi_oracle(x):
    # Independent scalar evaluation of the standard normal CDF.
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def bound_params(lam_s=5.0, lam_b=1.0, length=256, n=100, **kw):
    return SyncBoundParams(
        lambda_s=lam_s, lambda_b=lam_b, length=length, chips_per_symbol=n,
        symbol_s=1e-6, **kw,
    )


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
        p = misdetect_prob_within_symbol(bound_params(lam_s=1e6), 1, 0.0)
        assert p == pytest.approx(0.0, abs=1e-12)

    def test_against_independent_oracle(self):
        lam_s, lam_b, length, n, t_s = 5.0, 1.0, 256, 100, 1e-6
        k, eps = 1, 0.0
        num = 0.5 * lam_s * (2.0 * eps / t_s - k / n) * (length - 1)
        den = math.sqrt(
            2.0 * (k / n) * (0.5 * lam_s + lam_b) * (length - 1) + (eps / t_s) * lam_s
        )
        expected = phi_oracle(num / den)
        got = misdetect_prob_within_symbol(bound_params(), k, eps)
        assert got == pytest.approx(expected, abs=1e-12)
        assert 0.0 <= got <= 1.0

    def test_monotone_in_eps(self):
        params = bound_params()
        t_c = params.chip_s
        lo = misdetect_prob_within_symbol(params, 1, -t_c / 2)
        hi = misdetect_prob_within_symbol(params, 1, +t_c / 2)
        assert hi > lo

    def test_negative_k_symmetric(self):
        params = bound_params()
        assert misdetect_prob_within_symbol(params, -3, 1e-9) == pytest.approx(
            misdetect_prob_within_symbol(params, 3, 1e-9)
        )

    def test_k_zero_rejected(self):
        with pytest.raises(TheoryError):
            misdetect_prob_within_symbol(bound_params(), 0, 0.0)


class TestMisdetectCrossSymbol:
    def test_vanishes_at_huge_rate(self):
        for m in (1, 3, 8):
            p = misdetect_prob_cross_symbol(bound_params(lam_s=1e6), m, 0, 0.0)
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
        got = misdetect_prob_cross_symbol(bound_params(), m, k, eps)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_decreasing_in_m(self):
        params = bound_params(lam_s=2.0, lam_b=1.0, length=64)
        p1 = misdetect_prob_cross_symbol(params, 1, 0, 0.0)
        p3 = misdetect_prob_cross_symbol(params, 3, 0, 0.0)
        assert p3 <= p1

    def test_domain_rejections(self):
        with pytest.raises(TheoryError):
            misdetect_prob_cross_symbol(bound_params(), 0, 0, 0.0)
        with pytest.raises(TheoryError):
            misdetect_prob_cross_symbol(bound_params(), 1, 100, 0.0)


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
            try:
                budget = positioning_mse(scene_try, *s2)
            except SingularGeometryError:
                continue
            m = budget.mse_array()
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

    def test_singular_geometry_raises_with_condition_number(self):
        scene = make_scene(GEOMETRY_II)
        # very distant receiver: both gradient rows become parallel
        with pytest.raises(SingularGeometryError) as err:
            positioning_mse(scene, 1e-16, 1e-16, 1e-16, at=(4.0e9, 3.9e9))
        assert err.value.condition_number > 1e8

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


class TestTheoryGrid:
    def test_zero_sigma_zero_map(self):
        scene = make_scene(GEOMETRY_II)
        grid = GridSpec(20.0, 50.0, 15.0, 45.0, steps_x=3, steps_y=3)
        budget = make_budget(power_w=100.0, lambda_clip=1e9, lambda_b=0.0)
        signal = make_signal(length=64)
        # with an ideal clock and an effectively infinite photon rate the
        # only error left is chip quantization, which stays tiny
        tmap = theory_grid(scene, grid, budget, signal, ClockModel.ideal())
        assert all(p.e_p < 2.0 for p in tmap.points)

    def test_matches_pointwise_calls(self):
        scene = make_scene(GEOMETRY_II)
        grid = GridSpec(20.0, 50.0, 15.0, 45.0, steps_x=3, steps_y=3)
        budget = make_budget(power_w=0.15)
        signal = make_signal()
        clock = ClockModel.uniform(0, 100e-9)
        tmap = theory_grid(scene, grid, budget, signal, clock)
        for point in tmap.points:
            s2 = anchor_sigma2(scene, (point.x, point.y), budget, signal, clock)
            direct = positioning_mse(scene, *s2, at=(point.x, point.y))
            assert point.e_p == pytest.approx(direct.e_p, rel=1e-12)

    def test_center_lower_than_edges_ideal_clock(self):
        scene = make_scene(GEOMETRY_II)
        grid = GridSpec(15.0, 60.0, 15.0, 60.0, steps_x=5, steps_y=5)
        budget = make_budget(power_w=0.1)
        signal = make_signal()
        tmap = theory_grid(scene, grid, budget, signal, ClockModel.ideal())
        eps = np.array([p.e_p for p in tmap.points]).reshape(5, 5)
        center = eps[2, 2]
        corners = [eps[0, 0], eps[0, -1], eps[-1, 0], eps[-1, -1]]
        assert all(center < c for c in corners)

    def test_singular_points_flagged_not_fatal(self):
        scene = make_scene(GEOMETRY_II)
        # one grid column sits so far out that the geometry degenerates
        grid = GridSpec(30.0, 5.0e9, 20.0, 30.0, steps_x=2, steps_y=2)
        budget = make_budget(power_w=0.15)
        tmap = theory_grid(scene, grid, budget, make_signal(), ClockModel.ideal())
        flags = [p.singular for p in tmap.points]
        assert any(flags) and not all(flags)
        for p in tmap.points:
            if p.singular:
                assert np.isnan(p.e_p)
        assert np.isfinite(tmap.average_ep())


# Verbatim copy of the sync-MSE bound as it was before the sparse evaluation
# and the cached rate-free grid; the bound must still equal it bit for bit.
def _oracle_cdf(x):
    return 0.5 * erfc(-np.asarray(x, dtype=float) / np.sqrt(2.0))


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
                assert _sync_mse_bound_detail(params) == _oracle_bound_detail(params), params
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

    def test_cdf_is_exactly_zero_at_the_skip_threshold(self):
        assert normal_cdf(_CDF_ZERO_BELOW) == 0.0
        assert normal_cdf(-np.inf) == 0.0

    @pytest.mark.parametrize("lam_s", [0.0, 2.0, 50.0])
    def test_scalar_helpers_equal_bound_cells(self, lam_s):
        params = bound_params(lam_s=lam_s, lam_b=1.0, length=64, n=10)
        n, t_s = params.chips_per_symbol, params.symbol_s
        grid = _bound_grid(n, params.length, t_s, params.m_max, params.eps_quadrature_points)
        p0k = _p_within(params, grid.within, grid.e_within)
        pmk = _p_cross(params, grid.cross, grid.e_cross).reshape(params.m_max, 2 * n, -1)
        if lam_s == 2.0:
            assert pmk.any()  # the cross cells are not all zero here
        for q, eps in enumerate(grid.eps):
            for k in range(1, n):
                assert misdetect_prob_within_symbol(params, k, eps) == p0k[k - 1, q]
                assert misdetect_prob_within_symbol(params, -k, eps) == p0k[k - 1, q]
            for m in range(1, params.m_max + 1):
                for k in range(-n, n):
                    got = misdetect_prob_cross_symbol(params, m, k, eps)
                    assert got == pmk[m - 1, k + n, q]

    def test_scalar_helpers_equal_oracle_off_grid(self):
        params = bound_params(lam_s=3.0, lam_b=0.5, length=64, n=10)
        for eps in (-3e-8, 0.0, 1.7e-8, 2e-6, -2e-6):
            for k in (1, 4, 9):
                assert misdetect_prob_within_symbol(params, k, eps) == float(
                    np.clip(_oracle_p_within(params, k, eps), 0.0, 1.0))
            for m, k in ((1, -10), (3, 0), (8, 9)):
                assert misdetect_prob_cross_symbol(params, m, k, eps) == float(
                    np.clip(_oracle_p_cross(params, m, k, eps), 0.0, 1.0))


class TestSyncBoundDomain:
    def test_m_max_at_half_length_rejected(self):
        bound_params(length=64, m_max=31)
        with pytest.raises(TheoryError, match="m_max"):
            bound_params(length=64, m_max=32)

    def test_default_m_max_needs_length_above_16(self):
        bound_params(length=17)
        with pytest.raises(TheoryError, match="m_max"):
            bound_params(length=16)
