"""Range-difference measurements and the hyperbolic position solver."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scene import SPEED_OF_LIGHT, Scene

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
        a = scene.anchors
        bound_ba = float(np.linalg.norm(a[1] - a[0])) + feasibility_tol_m
        bound_cb = float(np.linalg.norm(a[2] - a[1])) + feasibility_tol_m
        if abs(r21) > bound_ba:
            r21 = float(np.sign(r21)) * bound_ba
            clamped = True
        if abs(r32) > bound_cb:
            r32 = float(np.sign(r32)) * bound_cb
            clamped = True
    return TdoaMeasurement(r21 / c, r32 / c, r21, r32, clamped)


@dataclass(frozen=True)
class PositionFix:
    """Solver output: position estimate plus convergence diagnostics."""

    position: tuple[float, float]
    residual_norm: float
    iterations: int
    converged: bool


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
    """Generous bound on solver iterates, centered on the anchors.

    An infeasible range difference (|r21| beyond the anchor separation) has
    no finite residual minimizer: the cost keeps shrinking along an asymptote
    ray, so undamped iterates would run off to infinity. Any physically
    meaningful fix lies far inside this region.
    """
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
    """Exact intersection points of the two signed hyperbola branches.

    Squaring both range equations against the distance to anchor A makes the
    position affine in that distance, which then satisfies a quadratic; each
    admissible root gives one intersection. Used only to seed the iterative
    solver, so every branch crossing is visited. Returns an empty list when
    the branches do not intersect (infeasible measurement).
    """
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
    visited) plus the caller's ``init`` (anchor centroid by default); an
    infeasible measurement with no intersections falls back to a 5x5
    multi-start over the anchor bounding box. The returned fix has the
    smallest residual, ties broken toward the point nearest the
    initialization. ``converged`` means the step shrank below tolerance and
    the residual is below ``residual_tol`` meters.
    """
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
    return PositionFix(
        (float(best_p[0]), float(best_p[1])), best_res, best_it, converged
    )
