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
# The grid is built from this many segments at a time.
_CHUNK_SEGMENTS = 64


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
        with np.errstate(over="ignore"):  # an overflowing segment is rejected below
            segments = np.diff(points, axis=0)
            seg_lengths = np.hypot(segments[:, 0], segments[:, 1])
            seg_len_sq = seg_lengths**2
        if np.any(seg_lengths == 0.0):
            raise ParameterError("consecutive waypoints must be distinct")
        # The projection divides by the squared length, which must neither
        # underflow to 0 nor overflow.
        unmeasurable = np.flatnonzero(~((seg_len_sq > 0.0) & (seg_len_sq < math.inf)))
        if unmeasurable.size:
            index = int(unmeasurable[0])
            raise ParameterError(
                f"segment {index} (waypoints {index} to {index + 1}) is {seg_lengths[index]:g} m long;"
                " its squared length must be a positive finite float"
            )
        self._waypoints = points
        self._seg_lengths = seg_lengths
        # Computed once for the per-step kernels: contiguous per-segment rows
        # for the projection's scan, plain floats for the lookahead scan.
        starts, deltas, self._seg_len_sq = points[:-1].T.copy(), segments.T.copy(), seg_len_sq
        for arr in (points, seg_lengths, starts, deltas, self._seg_len_sq):
            arr.setflags(write=False)
        (self._sx, self._sy), (self._dx, self._dy) = starts, deltas
        self._xs, self._ys = map(tuple, points.T.tolist())
        self._cum = np.concatenate(([0.0], np.cumsum(seg_lengths))).tolist()
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
        """Write the waypoints under the header ``x,y``, as ``csv.writer`` writes ``repr`` of each."""
        with open(file, "w", newline="") as handle:
            handle.write("x,y\r\n")
            handle.writelines(f"{x!r},{y!r}\r\n" for x, y in self._waypoints.tolist())

    @classmethod
    def from_csv(cls, file: str | Path) -> "ReferencePath":
        """Read a path written by :meth:`to_csv` (header ``x,y`` required, then rows of two numbers)."""
        try:
            # utf-8-sig also reads the byte-order mark spreadsheet programs write.
            with open(file, newline="", encoding="utf-8-sig") as handle:
                rows = list(csv.reader(handle))
        except (OSError, UnicodeDecodeError, csv.Error) as exc:
            raise ParameterError(f"{file}: cannot read: {getattr(exc, 'strerror', None) or exc}") from exc
        if not rows or [h.strip() for h in rows[0]] != ["x", "y"]:
            raise ParameterError(f"{file}: expected CSV header 'x,y'")
        try:
            points = [(float(x), float(y)) for x, y in filter(None, rows[1:])]
        except ValueError as exc:  # a cell that is no number, or a row of other than two cells
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
    """Square cells over a path, each listing the segments near it, nearest first.

    A cell lists every segment whose bounding box touches the 3 x 3 block of
    cells around it. A segment that a cell does not list lies outside that
    block, so it is at least one cell width away from any point in the cell.
    A listed segment nearer than ``limit`` (the cell width less the path's
    rounding slack) is therefore nearer than every unlisted one.

    ``segments`` holds the listed segment indices cell after cell, each
    cell's in ascending order of their bound: the distance from the cell's
    centre to the segment, which ``bounds`` holds at the same positions. The
    ``k``-th cell of ``cells`` owns positions ``starts[k]`` up to
    ``starts[k + 1]``. By the triangle inequality a segment is at least its
    bound, less the query's distance from the centre, away from a query.
    Each segment has one record, which every cell listing it shares.
    """

    x0: float
    y0: float
    size: float  # cell width
    scale: float  # cells per metre: 1 / size
    columns: int
    rows: int
    cells: dict  # column * rows + row -> k
    # Flat arrays, read through memoryviews, which index to Python ints and floats.
    starts: memoryview
    bounds: memoryview
    segments: memoryview
    limit: float
    records: list  # per segment, as floats: (sx, sy, dx, dy, len_sq, length)

    @staticmethod
    def build(path: ReferencePath) -> "_CellGrid | None":
        """The grid of ``path``; None if no answer could be certified."""
        len_sq, lengths = path._seg_len_sq, path._seg_lengths
        points = path._waypoints
        lo, hi = np.minimum(points[:-1], points[1:]), np.maximum(points[:-1], points[1:])
        # The mean, not the median: np.median imports numpy.ma, which costs memory.
        size = _CELL_SEGMENTS * float(lengths.mean())
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
        first, last = first.astype(np.int64), last.astype(np.int64)
        rows = int(last[:, 1].max()) + 1
        # One (cell, segment) pair per cell of each segment's block, block
        # after block and column by column within one, with the distance from
        # the cell's centre to the segment by the scan's rule. The pairs are
        # made a chunk of segments at a time, which keeps the temporaries small.
        heights = last[:, 1] - first[:, 1] + 1
        counts = (last[:, 0] - first[:, 0] + 1) * heights
        begins = np.cumsum(counts) - counts
        total = int(begins[-1] + counts[-1])
        key, bound, segment = np.empty(total, np.int64), np.empty(total), np.empty(total, np.int32)
        for chunk in range(0, len(counts), _CHUNK_SEGMENTS):
            chunk_counts = counts[chunk : chunk + _CHUNK_SEGMENTS]
            index = np.arange(chunk, chunk + len(chunk_counts)).repeat(chunk_counts)
            pairs = slice(begins[chunk], begins[chunk] + len(index))
            offset = np.arange(pairs.start, pairs.stop) - begins[index]
            column = first[index, 0] + offset // heights[index]
            row = first[index, 1] + offset % heights[index]
            cx, cy = origin[0] + (column + 0.5) * size, origin[1] + (row + 0.5) * size
            sx, sy, dx, dy = path._sx[index], path._sy[index], path._dx[index], path._dy[index]
            t = np.clip(((cx - sx) * dx + (cy - sy) * dy) / len_sq[index], 0.0, 1.0)
            bound[pairs] = np.hypot(cx - (sx + t * dx), cy - (sy + t * dy))
            key[pairs], segment[pairs] = column * rows + row, index
        # lexsort is stable: equal bounds in a cell keep ascending segment order.
        order = np.lexsort((bound, key))
        key = key[order]  # one array at a time: each is freed before the next is made
        starts = np.flatnonzero(np.diff(key, prepend=-1))
        cells = {cell: k for k, cell in enumerate(key[starts].tolist())}
        del key
        bound = bound[order]
        segment = segment[order]
        return _CellGrid(
            float(origin[0]),
            float(origin[1]),
            size,
            scale,
            int(last[:, 0].max()) + 1,
            rows,
            cells,
            *(memoryview(values).toreadonly() for values in (np.append(starts, total), bound, segment)),
            size - path._slack,
            list(
                zip(path._xs, path._ys, *(values.tolist() for values in (path._dx, path._dy, len_sq, lengths)))
            ),
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
        x0, y0, size, scale, columns, rows, cells, starts, bounds, segments, limit, records = grid
        column, row = (x - x0) * scale, (y - y0) * scale
        if 0.0 <= column < columns and 0.0 <= row < rows:
            column, row = int(column), int(row)
            cell = cells.get(column * rows + row)
            if cell is not None:
                # The cell's segments come nearest bound first. Once a bound,
                # less the query's distance from the centre and the rounding
                # slack, exceeds the best distance, that segment and every
                # later one are farther than the best. Before a best under
                # ``limit`` is found, ``limit`` stands in for it: a segment
                # past that is too far to be certified.
                cx, cy = x0 + (column + 0.5) * size, y0 + (row + 0.5) * size
                reach = math.sqrt((x - cx) * (x - cx) + (y - cy) * (y - cy)) + path._slack
                best = distance = math.inf
                cutoff = limit + reach
                nearest = -1
                for position in range(starts[cell], starts[cell + 1]):
                    if bounds[position] > cutoff:
                        break
                    index = segments[position]
                    sx, sy, dx, dy, len_sq, _ = records[index]
                    t = ((x - sx) * dx + (y - sy) * dy) / len_sq
                    t = 0.0 if t < 0.0 else 1.0 if t > 1.0 else t  # np.clip's rule: -0.0 stays
                    px = sx + t * dx
                    py = sy + t * dy
                    ox = x - px
                    oy = y - py
                    dist_sq = ox * ox + oy * oy
                    if dist_sq < best or dist_sq == best and index < nearest:
                        best, nearest, fraction, best_x, best_y = dist_sq, index, t, px, py
                        distance = math.sqrt(dist_sq)
                        if distance < limit:
                            cutoff = distance + reach
                if distance < limit:
                    return best_x, best_y, nearest, distance, path._cum[nearest] + fraction * records[nearest][5]
    return _nearest_by_scan(path, x, y)


def _nearest_by_scan(path: ReferencePath, x: float, y: float) -> tuple[float, float, int, float, float]:
    """The projection from every segment at once, in numpy."""
    sx, sy, dx, dy = path._sx, path._sy, path._dx, path._dy
    t = np.clip(((x - sx) * dx + (y - sy) * dy) / path._seg_len_sq, 0.0, 1.0)
    ox = x - (sx + t * dx)
    oy = y - (sy + t * dy)
    dist_sq = ox * ox + oy * oy
    index = int(dist_sq.argmin())
    fraction = float(t[index])
    px = path._xs[index] + fraction * float(dx[index])
    py = path._ys[index] + fraction * float(dy[index])
    arc = path._cum[index] + fraction * float(path._seg_lengths[index])
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
