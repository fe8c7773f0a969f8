"""Anchor geometry, units, and scenario definitions shared by all other modules.

All lengths are meters, times seconds, internally double precision. Unit
conversions happen only at I/O boundaries (see the config module).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s

# Anchor triangles flatter than this are rejected: the linearized error
# matrix becomes singular for collinear anchors, so fail fast.
MIN_TRIANGLE_AREA_M2 = 1e-9


class SceneError(ValueError):
    """Degenerate or non-finite scene geometry."""


def _as_point(p, name: str) -> tuple[float, float]:
    if isinstance(p, np.ndarray):
        p = p.reshape(-1)
    try:
        x, y = p
        x, y = float(x), float(y)
    except (TypeError, ValueError):
        raise SceneError(f"{name} must be a 2-D point, got {p!r}") from None
    if not (math.isfinite(x) and math.isfinite(y)):
        raise SceneError(f"{name} has non-finite coordinates: {p!r}")
    return x, y


def _as_points(p, name: str) -> np.ndarray:
    """``p`` as a float array of finite 2-D points, shape (..., 2)."""
    try:
        pts = np.asarray(p, dtype=float)
    except (TypeError, ValueError):
        raise SceneError(f"{name} must hold 2-D points, got {p!r}") from None
    if pts.ndim == 0 or pts.shape[-1] != 2:
        raise SceneError(f"{name} must hold 2-D points, got {p!r}")
    if not np.isfinite(pts).all():
        raise SceneError(f"{name} has non-finite coordinates: {p!r}")
    return pts


def triangle_area(a, b, c) -> float:
    """Unsigned area of the triangle spanned by three 2-D points."""
    ax, ay = a
    bx, by = b
    cx, cy = c
    return 0.5 * abs((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))


@dataclass(frozen=True)
class Scene:
    """Three transmitter anchors and the true receiver position, in meters.

    The receiver defaults to the anchor centroid.
    """

    tx_a: tuple[float, float]
    tx_b: tuple[float, float]
    tx_c: tuple[float, float]
    rx_true: tuple[float, float] | None = None

    def __post_init__(self):
        object.__setattr__(self, "tx_a", _as_point(self.tx_a, "tx_a"))
        object.__setattr__(self, "tx_b", _as_point(self.tx_b, "tx_b"))
        object.__setattr__(self, "tx_c", _as_point(self.tx_c, "tx_c"))
        rx = self.centroid() if self.rx_true is None else self.rx_true
        object.__setattr__(self, "rx_true", _as_point(rx, "rx_true"))
        area = triangle_area(self.tx_a, self.tx_b, self.tx_c)
        if area <= MIN_TRIANGLE_AREA_M2:
            raise SceneError(
                f"anchors are (near-)collinear: triangle area {area:.3e} m^2 "
                f"<= {MIN_TRIANGLE_AREA_M2:.0e} m^2"
            )

    @property
    def anchors(self) -> np.ndarray:
        """Anchor coordinates as a (3, 2) array in A, B, C order."""
        return np.array([self.tx_a, self.tx_b, self.tx_c], dtype=float)

    @cached_property
    def separations(self) -> tuple[float, float]:
        """Anchor separations |B - A| and |C - B|, worked out once per scene."""
        (ax, ay), (bx, by), (cx, cy) = self.tx_a, self.tx_b, self.tx_c
        return math.hypot(bx - ax, by - ay), math.hypot(cx - bx, cy - by)

    def centroid(self) -> tuple[float, float]:
        (ax, ay), (bx, by), (cx, cy) = self.tx_a, self.tx_b, self.tx_c
        return (ax + bx + cx) / 3.0, (ay + by + cy) / 3.0

    def with_receiver(self, p) -> "Scene":
        """Copy of this scene with the true receiver moved to ``p``."""
        return Scene(self.tx_a, self.tx_b, self.tx_c, p)


def anchor_ranges(scene: Scene, points) -> np.ndarray:
    """Distances from points of shape (..., 2) to anchors A, B, C, shape (..., 3).

    One point is the batch of shape (), giving shape (3,). The same bits as
    ``np.linalg.norm(scene.anchors - p, axis=1)`` point by point.
    """
    pts = _as_points(points, "points")
    x, y = pts[..., 0], pts[..., 1]
    out = np.empty(pts.shape[:-1] + (3,))
    for i, (ax, ay) in enumerate((scene.tx_a, scene.tx_b, scene.tx_c)):
        dx, dy = ax - x, ay - y
        out[..., i] = np.sqrt(dx * dx + dy * dy)
    return out


# Barycentric slack: points this far outside an edge still count as inside,
# so boundary points survive floating-point noise.
_EDGE_TOL = -1e-12


def inside_triangle(scene: Scene, p):
    """True where ``p`` lies inside or on the anchor triangle.

    ``p`` is one point, giving a bool, or an array of shape (..., 2), giving
    a bool array of shape (...).
    """
    pts = _as_points(p, "p")
    px, py = pts[..., 0], pts[..., 1]
    (ax, ay), (bx, by), (cx, cy) = scene.tx_a, scene.tx_b, scene.tx_c
    den = (by - cy) * (ax - cx) + (cx - bx) * (ay - cy)
    w1 = ((by - cy) * (px - cx) + (cx - bx) * (py - cy)) / den
    w2 = ((cy - ay) * (px - cx) + (ax - cx) * (py - cy)) / den
    w3 = 1.0 - w1 - w2
    inside = (w1 >= _EDGE_TOL) & (w2 >= _EDGE_TOL) & (w3 >= _EDGE_TOL)
    return bool(inside) if inside.ndim == 0 else inside


@dataclass(frozen=True)
class GridSpec:
    """Rectangular evaluation grid of steps_x * steps_y receiver points."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    steps_x: int = 9
    steps_y: int = 9

    def __post_init__(self):
        for name in ("x_min", "x_max", "y_min", "y_max"):  # no numpy scalar in a config's repr
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise SceneError(
                f"grid bounds must satisfy x_min < x_max and y_min < y_max, got "
                f"[{self.x_min}, {self.x_max}] x [{self.y_min}, {self.y_max}]"
            )
        if self.steps_x < 1 or self.steps_y < 1:
            raise SceneError("grid steps must be positive integers")

    @property
    def n_points(self) -> int:
        return self.steps_x * self.steps_y

    def points(self) -> np.ndarray:
        """Grid points as an (n_points, 2) array, row-major (y outer, x inner)."""
        xs = np.linspace(self.x_min, self.x_max, self.steps_x)
        ys = np.linspace(self.y_min, self.y_max, self.steps_y)
        gx, gy = np.meshgrid(xs, ys)
        return np.column_stack([gx.ravel(), gy.ravel()])


# Fraction by which the anchor bounding box is shrunk on each side to form
# the default evaluation grid.
DEFAULT_GRID_INSET = 0.20


def default_grid(scene: Scene) -> GridSpec:
    """Default evaluation grid: anchor bounding box inset on each side, 9 x 9 points.

    The inset keeps the grid away from the anchors themselves, where the
    hyperbolic geometry degenerates and the linearized error model blows up.
    """
    a = scene.anchors
    x0, y0 = a.min(axis=0)
    x1, y1 = a.max(axis=0)
    dx, dy = x1 - x0, y1 - y0
    return GridSpec(
        x_min=x0 + DEFAULT_GRID_INSET * dx,
        x_max=x1 - DEFAULT_GRID_INSET * dx,
        y_min=y0 + DEFAULT_GRID_INSET * dy,
        y_max=y1 - DEFAULT_GRID_INSET * dy,
    )
