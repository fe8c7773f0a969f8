"""Range-difference measurements and the closed-form hyperbolic position solver.

The solver works on one measurement at a time in plain Python floats: every
quantity is a 2-vector or a 2x2 matrix, where closed-form algebra is far
cheaper than an array call.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .scene import SPEED_OF_LIGHT, Scene


class TdoaMeasurement(NamedTuple):
    """Range differences between anchor pairs B-A and C-B, and whether either
    was clamped into the feasible interval."""

    r21_m: float
    r32_m: float
    clamped: bool


class SessionTdoa(NamedTuple):
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
    scene: Scene, t_ba_s: float, t_cb_s: float, chip_s: float
) -> TdoaMeasurement:
    """Range differences from time differences taken on ``chip_s`` chips.

    Each range difference is clamped at the anchor separation plus two chips
    of flight, since clock error and chip quantisation can legitimately push
    a measurement past the geometric bound; a clamp flags the measurement.
    """
    c = SPEED_OF_LIGHT
    tol = 2.0 * c * chip_s
    r21 = c * float(t_ba_s)
    r32 = c * float(t_cb_s)
    clamped = False
    sep_ba, sep_cb = scene.separations
    bound_ba = sep_ba + tol
    bound_cb = sep_cb + tol
    if abs(r21) > bound_ba:
        r21 = math.copysign(bound_ba, r21)
        clamped = True
    if abs(r32) > bound_cb:
        r32 = math.copysign(bound_cb, r32)
        clamped = True
    return TdoaMeasurement(r21, r32, clamped)


# Position of a no-fix (outage) result: the two branches do not cross.
NO_FIX = (math.nan, math.nan)


class PositionFix(NamedTuple):
    """Solver output: the branch crossing, or ``NO_FIX`` on outage.

    ``converged`` means the measurement has a fix.
    """

    position: tuple[float, float]
    converged: bool

    @property
    def iterations(self) -> int:
        """Always 0: the closed form takes no iterations. Kept for readers that
        count solver work."""
        return 0


# Anchors A, B, C as ((ax, ay), (bx, by), (cx, cy)).
_Anchors = tuple[tuple[float, float], tuple[float, float], tuple[float, float]]


def _branch_intersections(
    anchors: _Anchors, r21: float, r32: float
) -> list[tuple[float, float]]:
    """Exact intersection points of the two signed hyperbola branches.

    Squaring both range equations against the distance to anchor A makes the
    position affine in that distance, which then satisfies a quadratic; each
    admissible root gives one intersection (Fang 1990; Chan & Ho 1994).
    Returns an empty list when the branches do not intersect, which includes
    an infeasible or NaN measurement.
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
        # A tangency (a receiver on an anchor) rounds to a discriminant of
        # either sign; within rounding it is a double root.
        tol = 1e-15 * (qb * qb + 4.0 * abs(qa * qc))
        if disc >= -tol:
            sq = math.sqrt(disc) if disc > tol else 0.0
            roots.extend([(-qb - sq) / (2.0 * qa), (-qb + sq) / (2.0 * qa)])
    out = []
    for d1 in roots:
        # admissible only if every implied anchor distance is non-negative
        if d1 >= -1e-9 and d1 + r21 >= -1e-9 and d1 + s >= -1e-9:
            out.append((ux + vx * d1, uy + vy * d1))
    return out


def solve_position(scene: Scene, meas: TdoaMeasurement) -> PositionFix:
    """Receiver position from two range differences, in closed form.

    The fix is the crossing of the two hyperbola branches; of two crossings,
    the one nearest the anchor centroid. When the branches do not cross, the
    result is an outage: position ``NO_FIX`` and ``converged`` False.
    """
    anchors = (scene.tx_a, scene.tx_b, scene.tx_c)
    crossings = _branch_intersections(anchors, meas.r21_m, meas.r32_m)
    if not crossings:
        return PositionFix(NO_FIX, False)
    if len(crossings) == 1:
        return PositionFix(crossings[0], True)
    x0, y0 = scene.centroid()
    return PositionFix(min(crossings, key=lambda p: math.hypot(p[0] - x0, p[1] - y0)), True)


def solve_sessions(
    scene: Scene, sessions, bias_ba_s: float = 0.0, bias_cb_s: float = 0.0
) -> tuple[list[PositionFix], np.ndarray]:
    """Each session's fix on its own chips, and the fix's distance to the
    session's truth: NaN where the truth is unknown or there is no fix.

    The biases come off the raw time differences before the one clamp of
    ``measurement_from_times``, so a bias past its slack is still removed.
    """
    fixes, errors = [], []
    for sess in sessions:
        t_ba, t_cb = sess.t_ba_s - bias_ba_s, sess.t_cb_s - bias_cb_s
        fix = solve_position(scene, measurement_from_times(scene, t_ba, t_cb, sess.chip_s))
        fixes.append(fix)
        errors.append(math.nan if sess.truth is None else math.dist(fix.position, sess.truth))
    return fixes, np.array(errors)
