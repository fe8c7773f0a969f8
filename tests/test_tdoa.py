import numpy as np
import pytest

from uvtdoa import (
    inside_triangle,
    measurement_from_times,
    positioning_mse,
    ranges,
    solve_position,
)
from uvtdoa.scene import SPEED_OF_LIGHT, Scene

from conftest import ALL_GEOMETRIES, GEOMETRY_I, GEOMETRY_II, make_scene


def exact_measurement(scene, p):
    r1, r2, r3 = ranges(scene, p)
    return measurement_from_times((r2 - r1) / scene.c, (r3 - r2) / scene.c, c=scene.c)


def random_inside_points(scene, count, rng):
    a = scene.anchors
    pts = []
    while len(pts) < count:
        w = rng.dirichlet((1.0, 1.0, 1.0))
        p = w @ a
        if inside_triangle(scene, p):
            pts.append(p)
    return np.array(pts)


class TestMeasurementFromTimes:
    def test_zero_times(self):
        m = measurement_from_times(0.0, 0.0)
        assert (m.r21_m, m.r32_m) == (0.0, 0.0)
        assert not m.clamped

    def test_hundred_nanoseconds(self):
        m = measurement_from_times(100e-9, 0.0)
        assert m.r21_m == pytest.approx(SPEED_OF_LIGHT * 1e-7, rel=1e-12)
        assert m.r21_m == pytest.approx(29.9792458, rel=1e-9)

    def test_infeasible_clamped_with_flag(self):
        scene = make_scene(GEOMETRY_II)
        ab = float(np.linalg.norm(np.asarray(scene.tx_b) - np.asarray(scene.tx_a)))
        t_chip = 1e-8
        tol = 2.0 * scene.c * t_chip
        t_ba = (ab + 3.0 * scene.c * t_chip) / scene.c  # three chips past the bound
        m = measurement_from_times(t_ba, 0.0, c=scene.c, scene=scene, feasibility_tol_m=tol)
        assert m.clamped
        assert m.r21_m == pytest.approx(ab + tol, rel=1e-12)

    def test_feasible_not_clamped(self):
        scene = make_scene(GEOMETRY_II)
        m = exact_measurement(scene, (36.0, 25.0))
        assert not m.clamped


class TestSolvePosition:
    def test_experiment_ii_exact_recovery(self):
        scene = make_scene(GEOMETRY_II, rx=(36.0, 25.0))
        fix = solve_position(scene, exact_measurement(scene, (36.0, 25.0)))
        assert fix.converged
        assert np.linalg.norm(np.asarray(fix.position) - (36.0, 25.0)) <= 1e-6

    def test_perpendicular_bisector_symmetry(self):
        scene = Scene(tx_a=(-5, 0), tx_b=(5, 0), tx_c=(0, 8), rx_true=(0, 3))
        m = measurement_from_times(0.0, (ranges(scene, (0, 3))[2] - ranges(scene, (0, 3))[1]) / scene.c,
                                   c=scene.c)
        fix = solve_position(scene, m)
        r1, r2, _ = ranges(scene, fix.position)
        assert abs(r1 - r2) <= 1e-6

    def test_one_sigma_clock_perturbation_matches_theory_scale(self):
        # Perturb both range differences by one clock sigma and compare the
        # deterministic position error against the theoretical RMS error.
        scene = make_scene(GEOMETRY_II, rx=tuple(make_scene(GEOMETRY_II).centroid()))
        centroid = scene.centroid()
        sigma = 100e-9 / np.sqrt(12.0)
        r1, r2, r3 = ranges(scene, centroid)
        m = measurement_from_times(
            (r2 - r1) / scene.c + sigma, (r3 - r2) / scene.c + sigma, c=scene.c
        )
        fix = solve_position(scene, m)
        err = np.linalg.norm(np.asarray(fix.position) - np.asarray(centroid))
        e_p = positioning_mse(scene, sigma**2, sigma**2, sigma**2, at=centroid).e_p
        assert 0.5 <= err / e_p <= 2.0

    def test_round_trip_small_sample(self):
        rng = np.random.default_rng(2024)
        for name, geometry in ALL_GEOMETRIES.items():
            scene = make_scene(geometry, rx=tuple(make_scene(geometry).centroid()))
            for p in random_inside_points(scene, 100, rng):
                fix = solve_position(scene, exact_measurement(scene, p))
                assert np.linalg.norm(np.asarray(fix.position) - p) <= 1e-6, (name, p)

    def test_rigid_motion_equivariance(self):
        rng = np.random.default_rng(9)
        scene = make_scene(GEOMETRY_I, rx=(25.0, 20.0))
        p = np.array([28.0, 22.0])
        m = exact_measurement(scene, p)
        fix = solve_position(scene, m)
        for _ in range(10):
            theta = rng.uniform(0, 2 * np.pi)
            shift = rng.uniform(-200, 200, size=2)
            rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
            moved = Scene(
                tx_a=rot @ scene.tx_a + shift,
                tx_b=rot @ scene.tx_b + shift,
                tx_c=rot @ scene.tx_c + shift,
                rx_true=rot @ np.asarray(scene.rx_true) + shift,
            )
            fix_moved = solve_position(moved, m)
            expected = rot @ np.asarray(fix.position) + shift
            assert np.linalg.norm(np.asarray(fix_moved.position) - expected) <= 1e-9

    def test_residual_never_above_init_residual(self):
        rng = np.random.default_rng(31)
        scene = make_scene(GEOMETRY_II, rx=(36.0, 25.0))
        for _ in range(50):
            # noisy, possibly infeasible measurements
            t_ba = rng.normal(0, 2e-7)
            t_cb = rng.normal(0, 2e-7)
            m = measurement_from_times(t_ba, t_cb, c=scene.c, scene=scene)
            init = np.asarray(scene.centroid())
            fix = solve_position(scene, m, init=init)
            a = scene.anchors
            d = np.linalg.norm(a - init, axis=1)
            init_res = np.linalg.norm(
                [d[1] - d[0] - m.r21_m, d[2] - d[1] - m.r32_m]
            )
            assert fix.residual_norm <= init_res + 1e-12

    def test_nonconverged_flag_on_infeasible(self):
        scene = make_scene(GEOMETRY_II)
        ab = float(np.linalg.norm(np.asarray(scene.tx_b) - np.asarray(scene.tx_a)))
        m = measurement_from_times(ab * 2 / scene.c, 0.0, c=scene.c, scene=scene)
        fix = solve_position(scene, m)
        assert m.clamped
        # clamped bound still lies outside the feasible set, so the residual
        # cannot vanish; the solver must say so rather than pretend
        assert not fix.converged
        assert fix.residual_norm > 1e-3

    def test_infeasible_iterates_stay_bounded(self):
        # the residual of an infeasible measurement keeps shrinking along an
        # asymptote ray; the solver must return a bounded best iterate, not
        # wander off toward infinity
        scene = make_scene(GEOMETRY_II)
        ab = float(np.linalg.norm(np.asarray(scene.tx_b) - np.asarray(scene.tx_a)))
        m = measurement_from_times((ab + 5000.0) / scene.c, -1e-6, c=scene.c, scene=scene)
        fix = solve_position(scene, m)
        dist = np.linalg.norm(np.asarray(fix.position) - np.asarray(scene.centroid()))
        assert dist < 2e4
        assert not fix.converged


class TestDefaultInit:
    def test_simple_centroid(self):
        scene = Scene(tx_a=(0, 0), tx_b=(3, 0), tx_c=(0, 3), rx_true=(1, 1))
        assert scene.centroid() == pytest.approx((1.0, 1.0))

    def test_experiment_i_centroid(self):
        scene = make_scene(GEOMETRY_I)
        expected = ((30.2 + 0 + 60.7) / 3.0, (53.9 + 0 + 0) / 3.0)
        assert scene.centroid() == pytest.approx(expected)
