"""Range-difference measurements and the hyperbolic position solver.

The solver works on one measurement at a time in plain Python floats: every
quantity is a 2-vector or a 2x2 matrix, where closed-form algebra is far
cheaper than an array call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .scene import SPEED_OF_LIGHT, Scene, anchor_distances

# Default slack added to the geometric feasibility bound |r21| < |AB|:
# two chips of flight at the 10 ns reference chip, since clock error can
# legitimately push a measurement past the bound.
DEFAULT_FEASIBILITY_TOL_M = 2.0 * SPEED_OF_LIGHT * 10e-9


@dataclass(frozen=True)
class TdoaMeasurement:
    """Flying-time and range differences between anchor pairs B-A and C-B."""

    t_ba_s: float
    t_cb_s: float
    r21_m: float
    r32_m: float
    clamped: bool = False


@dataclass
class SessionTdoa:
    """Time differences of one A/B/C detection session.

    ``chip_s`` is the chip duration the arrivals were quantised to; ``truth``
    is the receiver position when it is known.
    """

    session: str
    t_ba_s: float
    t_cb_s: float
    chip_s: float
    truth: tuple[float, float] | None


def time_differences(start_chips, chip_s: float) -> tuple[float, float]:
    """Flying-time differences B-A and C-B from slot-relative start chips.

    A slot-relative start chip already excludes its anchor's nominal slot
    offset, so chip differences are arrival-time differences.
    """
    a, b, c = start_chips
    return (b - a) * chip_s, (c - b) * chip_s


def measurement_from_times(
    t_ba_s: float,
    t_cb_s: float,
    c: float = SPEED_OF_LIGHT,
    scene: Scene | None = None,
    feasibility_tol_m: float = DEFAULT_FEASIBILITY_TOL_M,
) -> TdoaMeasurement:
    """Convert arrival-time differences into range differences.

    When a scene is given, each range difference is clamped into the feasible
    hyperbola interval (anchor separation plus tolerance) and the measurement
    is flagged; without a scene no feasibility check is possible.
    """
    r21 = c * float(t_ba_s)
    r32 = c * float(t_cb_s)
    clamped = False
    if scene is not None:
        (ax, ay), (bx, by), (cx, cy) = scene.tx_a, scene.tx_b, scene.tx_c
        bound_ba = math.hypot(bx - ax, by - ay) + feasibility_tol_m
        bound_cb = math.hypot(cx - bx, cy - by) + feasibility_tol_m
        if abs(r21) > bound_ba:
            r21 = math.copysign(bound_ba, r21)
            clamped = True
        if abs(r32) > bound_cb:
            r32 = math.copysign(bound_cb, r32)
            clamped = True
    return TdoaMeasurement(r21 / c, r32 / c, r21, r32, clamped)


@dataclass(frozen=True)
class PositionFix:
    """Solver output: position estimate plus convergence diagnostics."""

    position: tuple[float, float]
    residual_norm: float
    iterations: int
    converged: bool


# Anchors A, B, C as ((ax, ay), (bx, by), (cx, cy)).
_Anchors = tuple[tuple[float, float], tuple[float, float], tuple[float, float]]


def _iterate_region(scene: Scene) -> tuple[tuple[float, float], float]:
    """Generous bound on solver iterates, centered on the anchors.

    An infeasible range difference (|r21| beyond the anchor separation) has
    no finite residual minimizer: the cost keeps shrinking along an asymptote
    ray, so undamped iterates would run off to infinity. Any physically
    meaningful fix lies far inside this region.
    """
    (ax, ay), (bx, by), (cx, cy) = scene.tx_a, scene.tx_b, scene.tx_c
    diagonal = math.hypot(
        max(ax, bx, cx) - min(ax, bx, cx), max(ay, by, cy) - min(ay, by, cy)
    )
    return scene.centroid(), 100.0 * (diagonal + 1.0)


def _damped_gauss_newton(
    anchors: _Anchors,
    r21: float,
    r32: float,
    start: tuple[float, float],
    region: tuple[tuple[float, float], float],
    step_tol: float,
    max_iter: int,
) -> tuple[float, float, float, int, bool]:
    """Levenberg-damped Gauss-Newton from ``start``.

    Returns (x, y, residual norm, iterations, step converged).
    """
    (ax, ay), (bx, by), (cx, cy) = anchors
    (ox, oy), radius = region
    x, y = start
    d0, d1, d2 = anchor_distances(anchors, x, y)
    f0, f1 = d1 - d0 - r21, d2 - d1 - r32
    cost = f0 * f0 + f1 * f1
    mu = 0.0
    step_converged = False
    it = 0
    for it in range(1, max_iter + 1):
        # unit vectors from each anchor to the iterate; the floor guards
        # against an iterate landing on an anchor
        d0, d1, d2 = max(d0, 1e-12), max(d1, 1e-12), max(d2, 1e-12)
        uax, uay = (x - ax) / d0, (y - ay) / d0
        ubx, uby = (x - bx) / d1, (y - by) / d1
        ucx, ucy = (x - cx) / d2, (y - cy) / d2
        j00, j01 = ubx - uax, uby - uay
        j10, j11 = ucx - ubx, ucy - uby
        # normal equations (J^T J + mu I) delta = -J^T f
        n00 = j00 * j00 + j10 * j10
        n01 = j00 * j01 + j10 * j11
        n11 = j01 * j01 + j11 * j11
        g0 = j00 * f0 + j10 * f1
        g1 = j01 * f0 + j11 * f1
        accepted = False
        for _ in range(60):
            a00, a11 = n00 + mu, n11 + mu
            det = a00 * a11 - n01 * n01
            if det == 0.0:  # singular system
                mu = max(mu * 10.0, 1e-12)
                continue
            dx = (n01 * g1 - a11 * g0) / det
            dy = (n01 * g0 - a00 * g1) / det
            if not (math.isfinite(dx) and math.isfinite(dy)):
                mu = max(mu * 10.0, 1e-12)
                continue
            x_new, y_new = x + dx, y + dy
            if math.hypot(x_new - ox, y_new - oy) > radius:
                # walking the asymptote of an infeasible measurement; damp
                # harder so the iterate stays bounded
                mu = max(mu * 10.0, 1e-12)
                continue
            e0, e1, e2 = anchor_distances(anchors, x_new, y_new)
            h0, h1 = e1 - e0 - r21, e2 - e1 - r32
            cost_new = h0 * h0 + h1 * h1
            if cost_new <= cost:
                x, y, cost = x_new, y_new, cost_new
                d0, d1, d2, f0, f1 = e0, e1, e2, h0, h1
                mu = mu * 0.25 if mu > 1e-14 else 0.0
                accepted = True
                break
            mu = max(mu * 10.0, 1e-12)  # Levenberg shift: damp and retry
        if not accepted:
            break
        if math.hypot(dx, dy) < step_tol:
            step_converged = True
            break
    return x, y, math.sqrt(cost), it, step_converged


def _branch_intersections(
    anchors: _Anchors, r21: float, r32: float
) -> list[tuple[float, float]]:
    """Exact intersection points of the two signed hyperbola branches.

    Squaring both range equations against the distance to anchor A makes the
    position affine in that distance, which then satisfies a quadratic; each
    admissible root gives one intersection. Used only to seed the iterative
    solver, so every branch crossing is visited. Returns an empty list when
    the branches do not intersect (infeasible measurement).
    """
    (ax, ay), (bx, by), (cx, cy) = anchors
    s = r21 + r32
    # position = u + v * d1 solves M position = b0 + b1 * d1 (Cramer's rule;
    # M is invertible because Scene rejects collinear anchors)
    m00, m01 = 2.0 * (bx - ax), 2.0 * (by - ay)
    m10, m11 = 2.0 * (cx - ax), 2.0 * (cy - ay)
    na = ax * ax + ay * ay
    b00 = bx * bx + by * by - na - r21 * r21
    b01 = cx * cx + cy * cy - na - s * s
    b10, b11 = -2.0 * r21, -2.0 * s
    det = m00 * m11 - m01 * m10
    ux, uy = (b00 * m11 - m01 * b01) / det, (m00 * b01 - m10 * b00) / det
    vx, vy = (b10 * m11 - m01 * b11) / det, (m00 * b11 - m10 * b10) / det
    uax, uay = ux - ax, uy - ay
    qa = vx * vx + vy * vy - 1.0
    qb = 2.0 * (uax * vx + uay * vy)
    qc = uax * uax + uay * uay
    roots = []
    if abs(qa) < 1e-14:
        if abs(qb) > 1e-14:
            roots.append(-qc / qb)
    else:
        disc = qb * qb - 4.0 * qa * qc
        if disc >= 0.0:
            sq = math.sqrt(disc)
            roots.extend([(-qb - sq) / (2.0 * qa), (-qb + sq) / (2.0 * qa)])
    out = []
    for d1 in roots:
        # admissible only if every implied anchor distance is non-negative
        if d1 >= 0.0 and d1 + r21 >= -1e-9 and d1 + s >= -1e-9:
            out.append((ux + vx * d1, uy + vy * d1))
    return out


def _grid5(lo: float, hi: float) -> list[float]:
    """Five evenly spaced values from lo to hi, both ends included."""
    step = (hi - lo) / 4.0
    return [lo + i * step for i in range(4)] + [hi]


def solve_position(
    scene: Scene,
    meas: TdoaMeasurement,
    init=None,
    step_tol: float = 1e-9,
    max_iter: int = 100,
    residual_tol: float = 1e-6,
) -> PositionFix:
    """Least-squares receiver position from two range differences.

    Damped Gauss-Newton on the two-hyperbola residual. Starts are the exact
    branch intersections (so both crossings of a feasible measurement are
    visited), else the caller's ``init`` point (anchor centroid by default);
    when no start converges, a 5x5 multi-start over the anchor bounding box
    follows. The returned fix has the smallest residual, ties broken toward
    the point nearest the initialization. ``converged`` means the step shrank
    below tolerance and the residual is below ``residual_tol`` meters.
    """
    anchors = (scene.tx_a, scene.tx_b, scene.tx_c)
    x0, y0 = scene.centroid() if init is None else map(float, init)
    r21, r32 = meas.r21_m, meas.r32_m
    region = _iterate_region(scene)
    best = None  # (x, y, residual, iterations, step converged, distance to init)

    def consider(start):
        nonlocal best
        x, y, res, it, step_ok = _damped_gauss_newton(
            anchors, r21, r32, start, region, step_tol, max_iter
        )
        dist = math.hypot(x - x0, y - y0)
        if best is None or res < best[2] - 1e-12 or (
            abs(res - best[2]) <= 1e-12 and dist < best[5]
        ):
            best = (x, y, res, it, step_ok, dist)

    for seed in _branch_intersections(anchors, r21, r32) or [(x0, y0)]:
        consider(seed)
    if not (best[4] and best[2] < residual_tol):
        (ax, ay), (bx, by), (cx, cy) = anchors
        xs = _grid5(min(ax, bx, cx), max(ax, bx, cx))
        for gy in _grid5(min(ay, by, cy), max(ay, by, cy)):
            for gx in xs:
                consider((gx, gy))
    x, y, res, it, step_ok, _ = best
    return PositionFix((x, y), res, it, step_ok and res < residual_tol)


def measure_and_solve(
    scene: Scene, t_ba_s: float, t_cb_s: float, chip_s: float
) -> tuple[TdoaMeasurement, PositionFix]:
    """Measurement and position fix from time differences taken on ``chip_s`` chips.

    Range differences are clamped at the anchor separation plus two chips of
    flight, since clock error and chip quantisation can legitimately push a
    measurement past the geometric bound.
    """
    meas = measurement_from_times(
        t_ba_s, t_cb_s, c=scene.c, scene=scene, feasibility_tol_m=2.0 * scene.c * chip_s
    )
    return meas, solve_position(scene, meas)
