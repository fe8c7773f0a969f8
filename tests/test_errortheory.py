import math

import numpy as np
import pytest

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
from uvtdoa.errortheory import TheoryError, anchor_sigma2, normal_cdf

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
