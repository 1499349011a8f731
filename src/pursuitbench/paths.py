"""Reference paths and the planar geometry queries used by the tracking laws.

All angles are radians in standard math convention (counter-clockwise
positive, zero along +x). Paths are polylines through ordered waypoints;
distance queries include segment interiors, not just the waypoints.
"""

from __future__ import annotations

import csv
import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DegenerateGeometryError, ParameterError

_TWO_PI = 2.0 * math.pi

# A cell of the projection grid is this many mean segment lengths wide.
_CELL_SEGMENTS = 4.0
# The grid lists a segment in at most this many cells on average; a path whose
# long segments would need more gets wider cells.
_CELL_BUDGET = 32


def wrap_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    wrapped = math.fmod(theta + math.pi, _TWO_PI)
    if wrapped <= 0.0:
        wrapped += _TWO_PI
    return wrapped - math.pi


def require_finite_pose(x: float, y: float, theta: float) -> None:
    """Raise :class:`ParameterError` unless every pose component is finite."""
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(theta)):
        raise ParameterError("pose components must be finite")


class ReferencePath:
    """Ordered planar waypoints with cumulative arc-length metadata.

    Instances are immutable after construction (the projection's cell grid
    is derived from the waypoints on first use); the exposed arrays are
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
        # for the projection's scan, plain floats for the lookahead scan.
        starts, deltas, self._seg_len_sq = points[:-1].T.copy(), segments.T.copy(), seg_lengths**2
        for arr in (points, segments, seg_lengths, self._cumlen, starts, deltas, self._seg_len_sq):
            arr.setflags(write=False)
        (self._sx, self._sy), (self._dx, self._dy) = starts, deltas
        self._xs, self._ys = map(tuple, points.T.tolist())
        self._cum = self._cumlen.tolist()
        # Bounds the rounding of the cumulative sums (one per waypoint), the
        # cell quotients and the distances, with a wide margin.
        self._slack = (
            16.0 * sys.float_info.epsilon * (len(points) + 16) * (float(np.abs(points).max()) + self.length)
        )

    def __len__(self) -> int:
        return self._waypoints.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ReferencePath({len(self)} waypoints, {self.length:.3f} m)"

    @cached_property
    def _grid(self) -> "_CellGrid | None":
        """The projection's cell grid, built on the first query; None if unusable."""
        return _CellGrid.build(self)

    @property
    def waypoints(self) -> np.ndarray:
        return self._waypoints

    @property
    def length(self) -> float:
        """Total arc length of the polyline."""
        return self._cum[-1]

    @property
    def goal(self) -> np.ndarray:
        """Final waypoint."""
        return self._waypoints[-1]

    def to_csv(self, file: str | Path) -> None:
        """Write the waypoints as a two-column CSV with header ``x,y``."""
        write_csv_columns(file, ("x", "y"), self._waypoints.T)

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


class _CellGrid(NamedTuple):
    """Square cells over a path, each listing the segments near it.

    A cell lists every segment whose bounding box touches the 3 x 3 block of
    cells around it, as ascending index runs ``(first, stop)``. A segment
    that a cell does not list lies outside that block, so it is at least one
    cell width away from any point in the cell. A listed segment nearer than
    ``limit`` (the cell width less the path's rounding slack) is therefore
    nearer than every unlisted one.
    """

    x0: float
    y0: float
    scale: float  # cells per metre: 1 / cell width
    columns: int
    rows: int
    cells: dict  # column * rows + row -> (first, stop, first, stop, ...)
    limit: float
    # Per segment, as floats: its direction, squared length and length.
    dx: list
    dy: list
    len_sq: list
    lengths: list

    @staticmethod
    def build(path: ReferencePath) -> "_CellGrid | None":
        """The grid of ``path``; None if the float kernel cannot run on it or no answer could be certified."""
        len_sq = path._seg_len_sq
        if not np.all((len_sq > 0.0) & (len_sq < math.inf)):
            return None  # a squared length under- or overflowed: the scan answers
        points = path._waypoints
        lo, hi = np.minimum(points[:-1], points[1:]), np.maximum(points[:-1], points[1:])
        # The mean, not the median: np.median imports numpy.ma, which costs memory.
        size = _CELL_SEGMENTS * float(path._seg_lengths.mean())
        while math.isfinite(size):
            # A margin of two cells keeps every listed index non-negative.
            scale, origin = 1.0 / size, points.min(axis=0) - 2.0 * size
            first = np.floor((lo - origin) * scale) - 1.0
            last = np.floor((hi - origin) * scale) + 1.0
            if np.prod(last - first + 1.0, axis=1).sum() <= _CELL_BUDGET * len(lo):
                break
            size *= 2.0
        if not math.isfinite(size) or not size > path._slack:
            return None
        (c0s, r0s), (c1s, r1s) = first.T.astype(np.int64).tolist(), last.T.astype(np.int64).tolist()
        rows = max(r1s) + 1
        cells: dict[int, list] = {}  # key -> flat [first, stop, first, stop, ...]
        for index, (c0, r0, c1, r1) in enumerate(zip(c0s, r0s, c1s, r1s)):
            for column in range(c0, c1 + 1):
                for key in range(column * rows + r0, column * rows + r1 + 1):
                    runs = cells.setdefault(key, [])
                    if runs and runs[-1] == index:
                        runs[-1] = index + 1
                    else:
                        runs += (index, index + 1)
        shared: dict[tuple, tuple] = {}  # neighbouring cells often list the same runs
        for key, runs in cells.items():
            runs = tuple(runs)
            cells[key] = shared.setdefault(runs, runs)
        return _CellGrid(
            float(origin[0]),
            float(origin[1]),
            scale,
            max(c1s) + 1,
            rows,
            cells,
            size - path._slack,
            *(column.tolist() for column in (path._dx, path._dy, len_sq, path._seg_lengths)),
        )


def project_onto_path(path: ReferencePath, x: float, y: float) -> tuple[float, float, int, float, float]:
    """Closest point on the path polyline to (x, y), segment interiors included.

    Returns ``(px, py, segment_index, distance, arc_length)``: the closest
    point, the index of the segment containing it, the unsigned distance
    from (x, y) to it and the arc length from the path start to it. Ties
    between equidistant segments resolve to the lowest segment index so
    repeated queries are reproducible. The path's cell grid answers when it
    certifies its result (see ``_CellGrid``); otherwise every segment is
    scanned. Both evaluate a segment with the same
    floating-point operations, so the result does not depend on which one
    answered.
    """
    grid = path._grid
    if grid is not None:
        column, row = (x - grid.x0) * grid.scale, (y - grid.y0) * grid.scale
        if 0.0 <= column < grid.columns and 0.0 <= row < grid.rows:
            best, xs, ys, dxs, dys, len_sq = math.inf, path._xs, path._ys, grid.dx, grid.dy, grid.len_sq
            runs = iter(grid.cells.get(int(column) * grid.rows + int(row), ()))
            for first, stop in zip(runs, runs):
                for index in range(first, stop):
                    sx, sy, dx, dy = xs[index], ys[index], dxs[index], dys[index]
                    t = ((x - sx) * dx + (y - sy) * dy) / len_sq[index]
                    t = 0.0 if t < 0.0 else 1.0 if t > 1.0 else t  # np.clip's rule: -0.0 stays
                    px = sx + t * dx
                    py = sy + t * dy
                    ox = x - px
                    oy = y - py
                    dist_sq = ox * ox + oy * oy
                    if dist_sq < best:
                        best, nearest, fraction, point = dist_sq, index, t, (px, py)
            distance = math.sqrt(best)
            if distance < grid.limit:
                return (*point, nearest, distance, path._cum[nearest] + fraction * grid.lengths[nearest])
    return _nearest_by_scan(path, x, y)


def _nearest_by_scan(path: ReferencePath, x: float, y: float) -> tuple[float, float, int, float, float]:
    """The projection from every segment at once, in numpy."""
    sx, sy, dx, dy = path._sx, path._sy, path._dx, path._dy
    t = np.clip(((x - sx) * dx + (y - sy) * dy) / path._seg_len_sq, 0.0, 1.0)
    ox = x - (sx + t * dx)
    oy = y - (sy + t * dy)
    dist_sq = ox * ox + oy * oy
    index = int(dist_sq.argmin())
    fraction = t[index]
    px, py = (path._waypoints[index] + fraction * path._segments[index]).tolist()
    arc = float(path._cumlen[index] + fraction * path._seg_lengths[index])
    return px, py, index, math.sqrt(float(dist_sq[index])), arc


def lookahead_point(
    path: ReferencePath, px: float, py: float, segment_index: int, arc_length: float, lookahead: float
) -> tuple[float, float]:
    """Lookahead target from the projection ``project_onto_path(path, x, y)``.

    ``(px, py)``, ``segment_index`` and ``arc_length`` are that projection's
    point, segment and arc length. Returns, as ``(x, y)``, the first waypoint
    after the projection's segment whose distance from the projected point
    reaches ``lookahead`` (which must be positive) while the waypoint before
    it is nearer, or the goal if none does.
    """
    if not lookahead > 0.0:
        raise ParameterError("lookahead must be positive")
    xs, ys = path._xs, path._ys
    # A waypoint less than ``lookahead`` further along the path is nearer than
    # ``lookahead`` in a straight line too, since a chord is never longer than
    # its arc; so the scan may start at the last of them.
    target = arc_length + lookahead - path._slack
    start = bisect_left(path._cum, target, segment_index + 1) - 1
    previous = math.hypot(xs[start] - px, ys[start] - py)
    for index in range(start + 1, len(xs)):
        distance = math.hypot(xs[index] - px, ys[index] - py)
        if previous < lookahead <= distance:
            return xs[index], ys[index]
        previous = distance
    return xs[-1], ys[-1]


def arc_curvature(x: float, y: float, theta: float, tx: float, ty: float) -> float:
    """Signed curvature of the circular arc from the pose (x, y, theta) to the target (tx, ty).

    Positive curvature turns counter-clockwise (target on the robot's left).
    Raises :class:`DegenerateGeometryError` when the target coincides with
    the robot position.
    """
    dx = tx - x
    dy = ty - y
    distance = math.hypot(dx, dy)
    if distance == 0.0:
        raise DegenerateGeometryError("lookahead target coincides with the robot position")
    heading_to_target = math.atan2(dy, dx) - theta
    return 2.0 * math.sin(heading_to_target) / distance


def write_csv_columns(file: str | Path, header, columns) -> None:
    """Write equal-length numeric columns under ``header`` as CSV.

    Floats are written as ``repr`` and bool columns as 0/1, with ``\\r\\n``
    line ends: the bytes ``csv.writer`` writes for the same cells, which
    never need quoting. Rows stream through the file's buffer, so no
    whole-file string is built.
    """
    cells = [
        map(repr, column.view(np.uint8).tolist() if column.dtype == bool else column.tolist())
        for column in columns
    ]
    with open(file, "w", newline="") as handle:
        handle.write(",".join(header) + "\r\n")
        handle.writelines(",".join(row) + "\r\n" for row in zip(*cells))
