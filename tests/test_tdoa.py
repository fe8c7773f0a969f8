import math
from typing import NamedTuple

import numpy as np
import pytest

from uvtdoa import (
    TdoaMeasurement,
    anchor_ranges,
    inside_triangle,
    measurement_from_times,
    positioning_mse,
    solve_position,
)
from uvtdoa.scene import SPEED_OF_LIGHT, Scene
from uvtdoa.tdoa import NO_FIX, PositionFix

from conftest import ALL_GEOMETRIES, GEOMETRY_I, GEOMETRY_II, make_scene

# The 10 ns reference chip: range differences are clamped 6 m past the
# anchor separation.
CHIP_S = 10e-9


def exact_measurement(scene, p):
    r1, r2, r3 = anchor_ranges(scene, p).tolist()
    return measurement_from_times(
        scene, (r2 - r1) / SPEED_OF_LIGHT, (r3 - r2) / SPEED_OF_LIGHT, CHIP_S
    )


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
        m = measurement_from_times(make_scene(GEOMETRY_II), 0.0, 0.0, CHIP_S)
        assert (m.r21_m, m.r32_m) == (0.0, 0.0)
        assert not m.clamped

    def test_hundred_nanoseconds(self):
        m = measurement_from_times(make_scene(GEOMETRY_II), 100e-9, 0.0, CHIP_S)
        assert m.r21_m == pytest.approx(SPEED_OF_LIGHT * 1e-7, rel=1e-12)
        assert m.r21_m == pytest.approx(29.9792458, rel=1e-9)

    def test_infeasible_clamped_with_flag(self):
        scene = make_scene(GEOMETRY_II)
        ab = float(np.linalg.norm(np.asarray(scene.tx_b) - np.asarray(scene.tx_a)))
        t_chip = 1e-8
        tol = 2.0 * SPEED_OF_LIGHT * t_chip
        t_ba = (ab + 3.0 * SPEED_OF_LIGHT * t_chip) / SPEED_OF_LIGHT  # three chips past the bound
        m = measurement_from_times(scene, t_ba, 0.0, t_chip)
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
        r1, r2, r3 = anchor_ranges(scene, (0, 3)).tolist()
        m = measurement_from_times(scene, 0.0, (r3 - r2) / SPEED_OF_LIGHT, CHIP_S)
        fix = solve_position(scene, m)
        r1, r2, _ = anchor_ranges(scene, fix.position).tolist()
        assert abs(r1 - r2) <= 1e-6

    def test_one_sigma_clock_perturbation_matches_theory_scale(self):
        # Perturb both range differences by one clock sigma and compare the
        # deterministic position error against the theoretical RMS error.
        scene = make_scene(GEOMETRY_II, rx=tuple(make_scene(GEOMETRY_II).centroid()))
        centroid = scene.centroid()
        sigma = 100e-9 / np.sqrt(12.0)
        r1, r2, r3 = anchor_ranges(scene, centroid).tolist()
        m = measurement_from_times(
            scene, (r2 - r1) / SPEED_OF_LIGHT + sigma, (r3 - r2) / SPEED_OF_LIGHT + sigma, CHIP_S
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

    def test_noisy_measurement_gives_crossing_or_outage(self):
        rng = np.random.default_rng(31)
        scene = make_scene(GEOMETRY_II, rx=(36.0, 25.0))
        fixes = outages = 0
        for _ in range(50):
            # noisy, possibly infeasible measurements
            t_ba = rng.normal(0, 2e-7)
            t_cb = rng.normal(0, 2e-7)
            m = measurement_from_times(scene, t_ba, t_cb, CHIP_S)
            fix = solve_position(scene, m)
            if fix.converged:
                fixes += 1
                # a fix lies on both branches
                assert np.linalg.norm(_residual(scene, m, np.asarray(fix.position))) <= 1e-6
            else:
                outages += 1
                assert fix.position == NO_FIX
            assert fix.iterations == 0
        assert fixes > 0 and outages > 0

    def test_nonconverged_flag_on_infeasible(self):
        scene = make_scene(GEOMETRY_II)
        ab = float(np.linalg.norm(np.asarray(scene.tx_b) - np.asarray(scene.tx_a)))
        m = measurement_from_times(scene, ab * 2 / SPEED_OF_LIGHT, 0.0, CHIP_S)
        fix = solve_position(scene, m)
        assert m.clamped
        # the clamped bound still lies outside the feasible set, so the
        # branches do not cross: an outage, not a pretend fix
        assert not fix.converged
        assert all(math.isnan(v) for v in fix.position)

    def test_far_infeasible_measurement_is_outage(self):
        # the residual of an infeasible measurement keeps shrinking along an
        # asymptote ray, so no point would be a fix; the solver says outage
        scene = make_scene(GEOMETRY_II)
        ab = float(np.linalg.norm(np.asarray(scene.tx_b) - np.asarray(scene.tx_a)))
        m = measurement_from_times(scene, (ab + 5000.0) / SPEED_OF_LIGHT, -1e-6, CHIP_S)
        fix = solve_position(scene, m)
        assert fix == PositionFix(NO_FIX, False)


class TestDefaultInit:
    def test_simple_centroid(self):
        scene = Scene(tx_a=(0, 0), tx_b=(3, 0), tx_c=(0, 3), rx_true=(1, 1))
        assert scene.centroid() == pytest.approx((1.0, 1.0))

    def test_experiment_i_centroid(self):
        scene = make_scene(GEOMETRY_I)
        expected = ((30.2 + 0 + 60.7) / 3.0, (53.9 + 0 + 0) / 3.0)
        assert scene.centroid() == pytest.approx(expected)


class TestFeasibilityBound:
    # Times in units of T = 2**-28 s and lengths in units of the flight U of
    # one T: |AB| = 5 U and |BC| = 10 U exactly, and T / 4 chips give a
    # slack of exactly U / 2. Every product below is exact, so the bound is
    # hit to the last bit.
    T = 2.0**-28
    U = SPEED_OF_LIGHT * T
    scene = Scene(tx_a=(0.0, 0.0), tx_b=(3 * U, 4 * U), tx_c=(9 * U, -4 * U), rx_true=(4 * U, 0.0))
    chip_s = T / 4

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_exactly_at_bound_is_kept(self, sign):
        t_ba, t_cb = sign * 5.5 * self.T, sign * 10.5 * self.T
        m = measurement_from_times(self.scene, t_ba, t_cb, self.chip_s)
        assert (m.r21_m, m.r32_m, m.clamped) == (sign * 5.5 * self.U, sign * 10.5 * self.U, False)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("pair", ["ba", "cb"])
    def test_one_ulp_past_bound_is_clamped(self, sign, pair):
        past_ba = math.nextafter(sign * 5.5 * self.T, sign * math.inf)
        past_cb = math.nextafter(sign * 10.5 * self.T, sign * math.inf)
        t_ba, t_cb = (past_ba, 0.0) if pair == "ba" else (0.0, past_cb)
        m = measurement_from_times(self.scene, t_ba, t_cb, self.chip_s)
        assert m.clamped
        if pair == "ba":
            assert (m.r21_m, m.r32_m) == (sign * 5.5 * self.U, 0.0)
        else:
            assert (m.r21_m, m.r32_m) == (0.0, sign * 10.5 * self.U)


# --- Oracle: the iterative numpy solver (branch-crossing starts, damped
# Gauss-Newton, 5x5 multistart) that the closed form replaced, verbatim
# except that ``solve_position`` is renamed ``oracle_solve_position`` and
# returns an ``OracleFix``. Its polish rounds differently from the bare
# crossing, so positions are compared with a tolerance, not bit for bit.

def _residual(scene: Scene, meas: TdoaMeasurement, p: np.ndarray) -> np.ndarray:
    a = scene.anchors
    d = np.linalg.norm(a - p, axis=1)
    return np.array([d[1] - d[0] - meas.r21_m, d[2] - d[1] - meas.r32_m])


def _jacobian(scene: Scene, p: np.ndarray) -> np.ndarray:
    a = scene.anchors
    d = np.linalg.norm(a - p, axis=1)
    d = np.maximum(d, 1e-12)  # guard against iterates landing on an anchor
    u = (p - a) / d[:, None]
    return np.array([u[1] - u[0], u[2] - u[1]])


def _iterate_region(scene: Scene) -> tuple[np.ndarray, float]:
    a = scene.anchors
    center = a.mean(axis=0)
    diagonal = float(np.linalg.norm(a.max(axis=0) - a.min(axis=0)))
    return center, 100.0 * (diagonal + 1.0)


def _damped_gauss_newton(
    scene: Scene,
    meas: TdoaMeasurement,
    start: np.ndarray,
    step_tol: float,
    max_iter: int,
) -> tuple[np.ndarray, float, int, bool]:
    p = start.astype(float).copy()
    f = _residual(scene, meas, p)
    cost = float(f @ f)
    mu = 0.0
    step_converged = False
    it = 0
    eye = np.eye(2)
    center, radius = _iterate_region(scene)
    for it in range(1, max_iter + 1):
        jac = _jacobian(scene, p)
        jtj = jac.T @ jac
        jtf = jac.T @ f
        accepted = False
        for _ in range(60):
            try:
                delta = np.linalg.solve(jtj + mu * eye, -jtf)
            except np.linalg.LinAlgError:
                mu = max(mu * 10.0, 1e-12)
                continue
            if not np.all(np.isfinite(delta)):
                mu = max(mu * 10.0, 1e-12)
                continue
            p_new = p + delta
            if float(np.linalg.norm(p_new - center)) > radius:
                # walking the asymptote of an infeasible measurement; damp
                # harder so the iterate stays bounded
                mu = max(mu * 10.0, 1e-12)
                continue
            f_new = _residual(scene, meas, p_new)
            cost_new = float(f_new @ f_new)
            if cost_new <= cost:
                p, f, cost = p_new, f_new, cost_new
                mu = mu * 0.25 if mu > 1e-14 else 0.0
                accepted = True
                break
            mu = max(mu * 10.0, 1e-12)  # Levenberg shift: damp and retry
        if not accepted:
            break
        if float(np.linalg.norm(delta)) < step_tol:
            step_converged = True
            break
    return p, float(np.sqrt(cost)), it, step_converged


def _branch_intersections(scene: Scene, meas: TdoaMeasurement) -> list[np.ndarray]:
    a = scene.anchors
    r21, s = meas.r21_m, meas.r21_m + meas.r32_m
    m = 2.0 * np.array([a[1] - a[0], a[2] - a[0]])
    norms = np.sum(a * a, axis=1)
    b0 = np.array([norms[1] - norms[0] - r21 * r21, norms[2] - norms[0] - s * s])
    b1 = np.array([-2.0 * r21, -2.0 * s])
    try:
        u = np.linalg.solve(m, b0)
        v = np.linalg.solve(m, b1)
    except np.linalg.LinAlgError:  # pragma: no cover - anchors are non-collinear
        return []
    ua = u - a[0]
    qa = float(v @ v - 1.0)
    qb = 2.0 * float(ua @ v)
    qc = float(ua @ ua)
    roots = []
    if abs(qa) < 1e-14:
        if abs(qb) > 1e-14:
            roots.append(-qc / qb)
    else:
        disc = qb * qb - 4.0 * qa * qc
        if disc >= 0.0:
            sq = np.sqrt(disc)
            roots.extend([(-qb - sq) / (2.0 * qa), (-qb + sq) / (2.0 * qa)])
    out = []
    for d1 in roots:
        # admissible only if every implied anchor distance is non-negative
        if d1 >= 0.0 and d1 + r21 >= -1e-9 and d1 + s >= -1e-9:
            out.append(u + v * d1)
    return out


class OracleFix(NamedTuple):
    position: tuple[float, float]
    residual_norm: float
    iterations: int
    converged: bool


def oracle_solve_position(
    scene: Scene,
    meas: TdoaMeasurement,
    init=None,
    step_tol: float = 1e-9,
    max_iter: int = 100,
    residual_tol: float = 1e-6,
) -> PositionFix:
    p0 = np.asarray(init if init is not None else scene.centroid(), dtype=float).reshape(2)
    seeds = _branch_intersections(scene, meas)
    if not seeds:
        seeds = [p0]
    best = None
    best_key = None
    def consider(start):
        nonlocal best, best_key
        p, res, it, step_ok = _damped_gauss_newton(scene, meas, start, step_tol, max_iter)
        d0 = float(np.linalg.norm(p - p0))
        key = (res, d0)
        if best is None or res < best_key[0] - 1e-12 or (
            abs(res - best_key[0]) <= 1e-12 and d0 < best_key[1]
        ):
            best, best_key = (p, res, it, step_ok), key
    for seed in seeds:
        consider(seed)
    if not (best[3] and best[1] < residual_tol):
        a = scene.anchors
        lo = a.min(axis=0)
        hi = a.max(axis=0)
        for y in np.linspace(lo[1], hi[1], 5):
            for x in np.linspace(lo[0], hi[0], 5):
                consider(np.array([x, y]))
    best_p, best_res, best_it, best_step = best
    converged = bool(best_step and best_res < residual_tol)
    return OracleFix(
        (float(best_p[0]), float(best_p[1])), best_res, best_it, converged
    )


ORACLE_CHIP_S = 10e-9
ORACLE_SYMBOL_S = 100 * ORACLE_CHIP_S  # paper signal: 100 chips per symbol


def oracle_cases():
    """Seeded (scene, measurement, inside) rows for the oracle test.

    Per geometry: a 4x4 grid over the anchor box widened by 30 % on each
    side (points inside and outside the triangle), each with its exact and
    its chip-quantised time differences; on two of those points, one inside
    and one outside, every +-1 and +-2 symbol misdetection on each anchor
    (all clamped at this symbol length).
    """
    rng = np.random.default_rng(515)
    rows = []
    for geometry in ALL_GEOMETRIES.values():
        scene = make_scene(geometry)
        lo, hi = scene.anchors.min(axis=0), scene.anchors.max(axis=0)
        lo, hi = lo - 0.3 * (hi - lo), hi + 0.3 * (hi - lo)
        points = [(x, y) for y in np.linspace(lo[1], hi[1], 4)
                  for x in np.linspace(lo[0], hi[0], 4)]
        points = [tuple(p + rng.uniform(-2.0, 2.0, size=2)) for p in points]
        inside = [p for p in points if inside_triangle(scene, p)]
        outside = [p for p in points if not inside_triangle(scene, p)]
        for p in points:
            r1, r2, r3 = anchor_ranges(scene, p).tolist()
            t_ba, t_cb = (r2 - r1) / SPEED_OF_LIGHT, (r3 - r2) / SPEED_OF_LIGHT
            times = [(t_ba, t_cb), (round(t_ba / ORACLE_CHIP_S) * ORACLE_CHIP_S,
                                    round(t_cb / ORACLE_CHIP_S) * ORACLE_CHIP_S)]
            if p in (inside[0], outside[0]):
                for k in (-2, -1, 1, 2):
                    shift = k * ORACLE_SYMBOL_S
                    # a start chip found k symbols late on A, B or C
                    times += [(t_ba - shift, t_cb), (t_ba + shift, t_cb - shift),
                              (t_ba, t_cb + shift)]
            for t in times:
                meas = measurement_from_times(scene, *t, ORACLE_CHIP_S)
                rows.append((scene, meas, p in inside))
    return rows


class TestOracle:
    def test_cases_cover_the_paths(self):
        rows = oracle_cases()
        assert sum(inside for *_, inside in rows) >= 3 * 2
        assert sum(not inside for *_, inside in rows) >= 3 * 10
        assert sum(m.clamped for _, m, _ in rows) >= 60
        assert sum(len(_branch_intersections(scene, m)) == 2 for scene, m, _ in rows) >= 10

    def test_matches_numpy_solver(self):
        # The oracle polishes a branch crossing with Gauss-Newton, so each of
        # its converged fixes is the crossing the closed form returns, the
        # same one of two; where it does not converge the branches miss.
        converged = nonconverged = 0
        for scene, meas, _ in oracle_cases():
            new = solve_position(scene, meas)
            old = oracle_solve_position(scene, meas)
            assert isinstance(new.iterations, int) and isinstance(new.converged, bool)
            assert new.converged == old.converged, (meas, new, old)
            if old.converged:
                converged += 1
                assert math.dist(new.position, old.position) <= 1e-9, (meas, new, old)
            else:
                nonconverged += 1
                assert new.position == NO_FIX, (meas, new, old)
        assert converged > 0 and nonconverged > 0


class TestGuards:
    def test_receiver_on_an_anchor(self):
        # a receiver on an anchor makes the branches touch: the discriminant
        # rounds to either sign and one implied distance to about -1e-14,
        # and the tangency must still count as a fix
        for name, geometry in ALL_GEOMETRIES.items():
            scene = make_scene(geometry)
            for anchor in (scene.tx_a, scene.tx_b, scene.tx_c):
                fix = solve_position(scene, exact_measurement(scene, anchor))
                assert fix.converged, (name, anchor)
                assert math.dist(fix.position, anchor) <= 1e-9, (name, anchor)

    def test_nan_range_difference_returns_unconverged_fix(self):
        scene = make_scene(GEOMETRY_II)
        m = measurement_from_times(scene, math.nan, 0.0, CHIP_S)
        fix = solve_position(scene, m)
        old = oracle_solve_position(scene, m)
        assert not fix.converged and not old.converged
        assert fix.position == NO_FIX

    def test_feasible_fix_and_clamped_outage(self):
        scene = make_scene(GEOMETRY_II)
        feasible = measurement_from_times(scene, 5e-8, 3e-8, CHIP_S)
        clamped = measurement_from_times(scene, 1e-6, -1e-6, CHIP_S)
        assert not feasible.clamped and clamped.clamped
        fix = solve_position(scene, feasible)
        assert fix.converged
        assert np.linalg.norm(_residual(scene, feasible, np.asarray(fix.position))) <= 1e-9
        assert solve_position(scene, clamped) == PositionFix(NO_FIX, False)
