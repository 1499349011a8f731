"""Reference paths and the planar geometry queries used by the tracking laws.

All angles are radians in standard math convention (counter-clockwise
positive, zero along +x). Paths are polylines through ordered waypoints;
distance queries include segment interiors, not just the waypoints.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DegenerateGeometryError, ParameterError

_TWO_PI = 2.0 * math.pi


def wrap_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    wrapped = math.fmod(theta + math.pi, _TWO_PI)
    if wrapped <= 0.0:
        wrapped += _TWO_PI
    return wrapped - math.pi


@dataclass(frozen=True)
class Pose2D:
    """Planar pose; the heading is stored wrapped to (-pi, pi]."""

    x: float
    y: float
    theta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.theta)):
            raise ParameterError("pose components must be finite")
        object.__setattr__(self, "theta", wrap_angle(self.theta))


@dataclass(frozen=True)
class RobotState:
    """Pose plus the linear and angular velocity currently being executed."""

    pose: Pose2D
    v: float
    omega: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.v) and math.isfinite(self.omega)):
            raise ParameterError("state velocities must be finite")


class ReferencePath:
    """Ordered planar waypoints with cumulative arc-length metadata.

    Instances are immutable after construction; the exposed arrays are
    read-only views and safe to share between threads.
    """

    def __init__(self, waypoints) -> None:
        points = np.array(waypoints, dtype=float)
        if points.ndim != 2 or points.shape[1] != 2 or points.shape[0] < 2:
            raise ParameterError("a path needs at least two planar waypoints")
        if not np.all(np.isfinite(points)):
            raise ParameterError("waypoints must be finite")
        segments = np.diff(points, axis=0)
        seg_lengths = np.hypot(segments[:, 0], segments[:, 1])
        if np.any(seg_lengths == 0.0):
            raise ParameterError("consecutive waypoints must be distinct")
        self._waypoints = points
        self._segments = segments
        self._seg_lengths = seg_lengths
        self._cumlen = np.concatenate(([0.0], np.cumsum(seg_lengths)))
        # Computed once for the per-step kernels: contiguous per-segment rows
        # for the projection, plain floats for the lookahead scan.
        starts, deltas, self._seg_len_sq = points[:-1].T.copy(), segments.T.copy(), seg_lengths**2
        for arr in (points, segments, seg_lengths, self._cumlen, starts, deltas, self._seg_len_sq):
            arr.setflags(write=False)
        (self._sx, self._sy), (self._dx, self._dy) = starts, deltas
        self._xs, self._ys = map(tuple, points.T.tolist())

    def __len__(self) -> int:
        return self._waypoints.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ReferencePath({len(self)} waypoints, {self.length:.3f} m)"

    @property
    def waypoints(self) -> np.ndarray:
        return self._waypoints

    @property
    def cumulative_arclength(self) -> np.ndarray:
        return self._cumlen

    @property
    def length(self) -> float:
        """Total arc length of the polyline."""
        return float(self._cumlen[-1])

    @property
    def goal(self) -> np.ndarray:
        """Final waypoint."""
        return self._waypoints[-1]

    def to_csv(self, file: str | Path) -> None:
        """Write the waypoints as a two-column CSV with header ``x,y``."""
        with open(file, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["x", "y"])
            for x, y in self._waypoints:
                writer.writerow([repr(float(x)), repr(float(y))])

    @classmethod
    def from_csv(cls, file: str | Path) -> "ReferencePath":
        """Read a path written by :meth:`to_csv` (header ``x,y`` required)."""
        with open(file, newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != ["x", "y"]:
                raise ParameterError(f"{file}: expected CSV header 'x,y'")
            try:
                points = [(float(row[0]), float(row[1])) for row in reader if row]
            except (IndexError, ValueError) as exc:
                raise ParameterError(f"{file}: malformed waypoint row") from exc
        return cls(points)


@dataclass(frozen=True)
class CornerPathSpec:
    """Two equal straight legs joined at a single corner.

    ``corner_angle`` is the counter-clockwise heading change between the legs
    and must stay strictly inside (0, pi); 0 would be a straight line and pi a
    fold back onto the first leg.
    """

    segment_length: float
    corner_angle: float
    waypoint_spacing: float = 0.05

    def __post_init__(self) -> None:
        if not (math.isfinite(self.segment_length) and self.segment_length > 0.0):
            raise ParameterError("segment_length must be positive")
        if not (0.0 < self.waypoint_spacing < self.segment_length):
            raise ParameterError("waypoint_spacing must be in (0, segment_length)")
        if not (0.0 < self.corner_angle < math.pi):
            raise ParameterError("corner_angle must be strictly inside (0, pi)")


def generate_corner_path(spec: CornerPathSpec) -> ReferencePath:
    """Sample a corner path that starts at the origin.

    The first leg runs along +x; the second leg's heading deviates
    counter-clockwise by ``corner_angle``. Waypoints are evenly spaced at
    approximately ``waypoint_spacing`` with both leg endpoints included, so
    the total arc length is exactly twice the segment length.
    """
    intervals = max(1, round(spec.segment_length / spec.waypoint_spacing))
    offsets = np.linspace(0.0, spec.segment_length, intervals + 1)
    leg_1 = np.column_stack((offsets, np.zeros_like(offsets)))
    direction = np.array([math.cos(spec.corner_angle), math.sin(spec.corner_angle)])
    leg_2 = leg_1[-1] + np.outer(offsets[1:], direction)
    return ReferencePath(np.vstack((leg_1, leg_2)))


class PathProjection(NamedTuple):
    """Result of projecting a position onto the path polyline.

    Attributes
    ----------
    point : np.ndarray
        Closest point on the polyline.
    segment_index : int
        Index of the segment containing the closest point.
    distance : float
        Unsigned distance from the queried position to ``point``.
    arc_length : float
        Arc length from the path start to ``point``.
    """

    point: np.ndarray
    segment_index: int
    distance: float
    arc_length: float


def nearest_point_on_path(path: ReferencePath, pose: Pose2D) -> PathProjection:
    """Closest point on the path polyline, segment interiors included.

    Ties between equidistant segments resolve to the lowest segment index so
    repeated queries are reproducible.
    """
    x, y = pose.x, pose.y
    sx, sy, dx, dy = path._sx, path._sy, path._dx, path._dy
    t = np.clip(((x - sx) * dx + (y - sy) * dy) / path._seg_len_sq, 0.0, 1.0)
    ox = x - (sx + t * dx)
    oy = y - (sy + t * dy)
    dist_sq = ox * ox + oy * oy
    index = int(dist_sq.argmin())
    fraction = t[index]
    point = path._waypoints[index] + fraction * path._segments[index]
    arc = float(path._cumlen[index] + fraction * path._seg_lengths[index])
    return PathProjection(point, index, math.sqrt(float(dist_sq[index])), arc)


def lookahead_from_projection(
    path: ReferencePath, projection: PathProjection, lookahead: float
) -> np.ndarray:
    """Lookahead search from a precomputed projection; ``lookahead`` must be positive."""
    if not lookahead > 0.0:
        raise ParameterError("lookahead must be positive")
    xs, ys = path._xs, path._ys
    rx, ry = float(projection.point[0]), float(projection.point[1])
    start = projection.segment_index
    previous = math.hypot(xs[start] - rx, ys[start] - ry)
    for index in range(start + 1, len(xs)):
        distance = math.hypot(xs[index] - rx, ys[index] - ry)
        if previous < lookahead <= distance:
            return path._waypoints[index].copy()
        previous = distance
    return path._waypoints[-1].copy()


def compute_curvature(pose: Pose2D, target) -> float:
    """Signed curvature of the circular arc from ``pose`` to ``target``.

    Positive curvature turns counter-clockwise (target on the robot's left).
    Raises :class:`DegenerateGeometryError` when the target coincides with
    the robot position.
    """
    dx = float(target[0]) - pose.x
    dy = float(target[1]) - pose.y
    distance = math.hypot(dx, dy)
    if distance == 0.0:
        raise DegenerateGeometryError("lookahead target coincides with the robot position")
    heading_to_target = math.atan2(dy, dx) - pose.theta
    return 2.0 * math.sin(heading_to_target) / distance
