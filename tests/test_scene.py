import math

import numpy as np
import pytest

from uvtdoa import GridSpec, Scene, SceneError, anchor_ranges, default_grid, inside_triangle

from conftest import GEOMETRY_I, GEOMETRY_II, GEOMETRY_III, make_scene


def dist_oracle(p, q):
    # Independent distance computation, term by term.
    return math.sqrt((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2)


class TestRanges:
    def test_coincident_point(self):
        scene = Scene(tx_a=(0, 0), tx_b=(2, 0), tx_c=(1, 3), rx_true=(0, 0))
        r1, _, _ = anchor_ranges(scene, (0.0, 0.0)).tolist()
        assert r1 == 0.0

    def test_perpendicular_bisector(self):
        scene = Scene(tx_a=(0, 0), tx_b=(2, 0), tx_c=(1, 3), rx_true=(1, 5))
        r1, r2, _ = anchor_ranges(scene, (1.0, 5.0)).tolist()
        assert r1 == pytest.approx(math.sqrt(26.0), abs=1e-12)
        assert r2 == pytest.approx(math.sqrt(26.0), abs=1e-12)

    def test_experiment_i_point_against_oracle(self):
        scene = make_scene(GEOMETRY_I, rx=(30.2, 20.0))
        p = (30.2, 20.0)
        r = anchor_ranges(scene, p).tolist()
        expected = tuple(dist_oracle(p, q) for q in GEOMETRY_I)
        assert r == pytest.approx(expected, abs=1e-12)
        assert all(v >= 0 for v in r)

    def test_same_bits_as_numpy_norm(self):
        # Seeded points near and far, on all three geometries: the distances
        # equal numpy's row norms exactly, one point at a time and in a batch.
        rng = np.random.default_rng(11)
        for geometry in (GEOMETRY_I, GEOMETRY_II, GEOMETRY_III):
            scene = make_scene(geometry)
            for scale in (1.0, 100.0, 1e4):
                points = rng.uniform(-scale, scale, size=(200, 2))
                batch = anchor_ranges(scene, points.reshape(10, 20, 2)).reshape(200, 3)
                for p, row in zip(points, batch):
                    expected = np.linalg.norm(scene.anchors - p, axis=1)
                    assert anchor_ranges(scene, p).tolist() == expected.tolist()
                    assert row.tolist() == expected.tolist()

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(7)
        scene = make_scene(GEOMETRY_I)
        for _ in range(25):
            theta = rng.uniform(0, 2 * np.pi)
            shift = rng.uniform(-500, 500, size=2)
            rot = np.array(
                [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
            )
            p = rng.uniform(-100, 100, size=2)
            moved = Scene(
                tx_a=rot @ scene.tx_a + shift,
                tx_b=rot @ scene.tx_b + shift,
                tx_c=rot @ scene.tx_c + shift,
                rx_true=rot @ np.asarray(scene.rx_true) + shift,
            )
            assert anchor_ranges(moved, rot @ p + shift).tolist() == pytest.approx(
                anchor_ranges(scene, p).tolist(), abs=1e-9
            )


class TestInsideTriangle:
    def test_centroid_inside(self):
        scene = Scene(tx_a=(0, 0), tx_b=(1, 0), tx_c=(0.5, math.sqrt(3) / 2), rx_true=(0.5, 0.3))
        assert inside_triangle(scene, scene.centroid())

    def test_far_point_outside(self):
        scene = Scene(tx_a=(0, 0), tx_b=(1, 0), tx_c=(0.5, math.sqrt(3) / 2), rx_true=(0.5, 0.3))
        # circumradius of the unit equilateral triangle is 1/sqrt(3)
        assert not inside_triangle(scene, (0.5 + 10.0 / math.sqrt(3), 0.29))

    def test_experiment_ii_point_against_cross_product_oracle(self):
        scene = make_scene(GEOMETRY_II)
        p = (36.0, 25.0)

        def cross(o, a, b):
            return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

        a, b, c = GEOMETRY_II
        signs = [cross(a, b, p), cross(b, c, p), cross(c, a, p)]
        oracle = all(s >= 0 for s in signs) or all(s <= 0 for s in signs)
        assert inside_triangle(scene, p) is True
        assert inside_triangle(scene, p) == oracle

    def test_array_matches_point_by_point(self):
        scene = make_scene(GEOMETRY_II)
        points = np.random.default_rng(4).uniform(-20, 100, size=(6, 50, 2))
        inside = inside_triangle(scene, points)
        assert inside.shape == (6, 50) and inside.any() and not inside.all()
        for p, flag in zip(points.reshape(-1, 2), inside.ravel()):
            assert inside_triangle(scene, p) is bool(flag)

    def test_vertex_permutation_invariance(self):
        rng = np.random.default_rng(3)
        a, b, c = GEOMETRY_II
        for _ in range(50):
            p = rng.uniform(-20, 100, size=2)
            results = {
                inside_triangle(Scene(tx_a=x, tx_b=y, tx_c=z, rx_true=(1, 1)), p)
                for x, y, z in [(a, b, c), (b, c, a), (c, a, b), (a, c, b)]
            }
            assert len(results) == 1


class TestSceneValidation:
    def test_collinear_rejected(self):
        with pytest.raises(SceneError, match="collinear"):
            Scene(tx_a=(0, 0), tx_b=(1, 0), tx_c=(2, 0), rx_true=(0, 0))

    def test_non_finite_rejected(self):
        with pytest.raises(SceneError):
            Scene(tx_a=(0, np.nan), tx_b=(1, 0), tx_c=(0, 1), rx_true=(0, 0))

    @pytest.mark.parametrize("p", [(1.0,), (1, 2, 3), 5.0, None, np.zeros(3), (1.0, "x")])
    def test_malformed_point_rejected(self, p):
        with pytest.raises(SceneError, match="2-D point"):
            anchor_ranges(make_scene(), p)

    def test_array_point_accepted_in_any_shape(self):
        assert make_scene(rx=np.array([[36.0], [25.0]])).rx_true == (36.0, 25.0)

    def test_with_receiver(self):
        scene = make_scene()
        moved = scene.with_receiver((1.0, 2.0))
        assert moved.rx_true == (1.0, 2.0)
        assert moved.tx_a == scene.tx_a


class TestGridSpec:
    def test_point_count_and_bounds(self):
        grid = GridSpec(0.0, 1.0, 0.0, 2.0, steps_x=3, steps_y=5)
        pts = grid.points()
        assert pts.shape == (15, 2)
        assert grid.n_points == 15
        assert pts[:, 0].min() == 0.0 and pts[:, 0].max() == 1.0
        assert pts[:, 1].min() == 0.0 and pts[:, 1].max() == 2.0

    def test_bad_bounds_rejected(self):
        with pytest.raises(SceneError):
            GridSpec(1.0, 0.0, 0.0, 1.0)
        with pytest.raises(SceneError):
            GridSpec(0.0, 1.0, 0.0, 1.0, steps_x=0)

    def test_default_grid_inset(self):
        scene = make_scene(GEOMETRY_II)
        grid = default_grid(scene)
        assert grid.steps_x == grid.steps_y == 9
        assert grid.x_min == pytest.approx(0.2 * 75.6)
        assert grid.x_max == pytest.approx(0.8 * 75.6)
        assert grid.y_min == pytest.approx(0.2 * 76.6)
        assert grid.y_max == pytest.approx(0.8 * 76.6)
