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
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .config import CornerPathSpec, ParameterError

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

    Each segment's geometry is held once, in one numpy table and the same
    values as float records; the projection's cell grid (built on first use)
    is only an index over them. Immutable after construction; the exposed
    arrays are read-only views and safe to share between threads.
    """

    def __init__(self, waypoints) -> None:
        points = np.array(waypoints, dtype=float)
        if points.ndim != 2 or points.shape[1] != 2 or points.shape[0] < 2:
            raise ParameterError("a path needs at least two planar waypoints")
        infinite = np.flatnonzero(~np.isfinite(points).all(axis=1))
        if infinite.size:
            index = int(infinite[0])
            x, y = points[index].tolist()
            raise ParameterError(f"waypoint {index} is ({x!r}, {y!r}); waypoints must be finite")
        with np.errstate(over="ignore"):  # an overflowing segment is rejected below
            segments = np.diff(points, axis=0)
            seg_lengths = np.hypot(segments[:, 0], segments[:, 1])
            seg_len_sq = seg_lengths**2
        # The projection divides by the squared length, which must neither
        # underflow to 0 (a repeated waypoint is a 0 m segment) nor overflow.
        unmeasurable = np.flatnonzero(~((seg_len_sq > 0.0) & (seg_len_sq < math.inf)))
        if unmeasurable.size:
            index = int(unmeasurable[0])
            raise ParameterError(
                f"segment {index} (waypoints {index} to {index + 1}) is {seg_lengths[index]:g} m long;"
                " its squared length must be a positive finite float"
            )
        self._waypoints = points
        # One row per segment fact, one column per segment: start x, start y,
        # delta x, delta y, squared length, length. The per-step kernels read
        # the same values as float records, which share the waypoint floats.
        self._segments = np.vstack((points[:-1].T, segments.T, seg_len_sq, seg_lengths))
        for arr in (points, self._segments):
            arr.setflags(write=False)
        self._xs, self._ys = map(tuple, points.T.tolist())
        self._records = list(zip(self._xs, self._ys, *self._segments[2:].tolist()))
        self._cum = np.concatenate(([0.0], np.cumsum(seg_lengths))).tolist()
        # Bounds the rounding of the cumulative sums (one per waypoint), the
        # cell quotients and the distances, with a wide margin.
        self._slack = (
            16.0 * sys.float_info.epsilon * (len(points) + 16) * (float(np.abs(points).max()) + self.length)
        )

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
        with open(file, "w", newline="", encoding="utf-8") as handle:
            handle.write("x,y\r\n")
            handle.writelines(f"{x!r},{y!r}\r\n" for x, y in self._waypoints.tolist())

    @classmethod
    def from_csv(cls, file: str | Path) -> "ReferencePath":
        """Read a path written by :meth:`to_csv` (header ``x,y`` required, then rows of two numbers)."""
        try:
            # utf-8-sig also reads the byte-order mark spreadsheet programs write.
            with open(file, newline="", encoding="utf-8-sig") as handle:
                reader = csv.reader(handle)
                rows = [(reader.line_num, row) for row in reader]
        except (OSError, UnicodeDecodeError, csv.Error) as exc:
            raise ParameterError(f"{file}: cannot read: {getattr(exc, 'strerror', None) or exc}") from exc
        if not rows or [h.strip() for h in rows[0][1]] != ["x", "y"]:
            raise ParameterError(f"{file}: expected CSV header 'x,y'")
        points = []
        for line, row in rows[1:]:
            if row:  # a blank line reads as []
                try:
                    x, y = row
                    points.append((float(x), float(y)))
                except ValueError:  # a cell that is no number, or a row of other than two cells
                    raise ParameterError(f"{file}: line {line}: malformed waypoint row {','.join(row)!r}") from None
        try:
            return cls(points)
        except ParameterError as exc:
            raise ParameterError(f"{file}: {exc}") from exc


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


def _foot_offsets(path: ReferencePath, which, x, y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Foot points of (x, y) on the segments ``which`` (index array or slice): fractions, offsets to (x, y)."""
    sx, sy, dx, dy, len_sq, _ = path._segments[:, which]
    t = np.clip(((x - sx) * dx + (y - sy) * dy) / len_sq, 0.0, 1.0)
    return t, x - (sx + t * dx), y - (sy + t * dy)


class _CellGrid(NamedTuple):
    """Square cells over a path, each listing the segments near it, nearest first.

    A cell lists every segment whose bounding box touches the 3 x 3 block of
    cells around it. A segment that a cell does not list lies outside that
    block, so it is at least one cell width away from any point in the cell.
    A listed segment nearer than ``limit`` (the cell width less the path's
    rounding slack) is therefore nearer than every unlisted one.

    ``segments`` holds the listed segment indices cell after cell, each
    cell's in ascending order of their bound: the distance from the cell's
    centre to the segment, which ``bounds`` holds at the same positions.
    ``cells`` maps a cell to the range of its positions. By the triangle
    inequality a segment is at least its bound, less the query's distance
    from the centre, away from a query. The grid is only an index: a
    segment's geometry stays in the path's tables.
    """

    x0: float
    y0: float
    size: float  # cell width
    scale: float  # cells per metre: 1 / size
    columns: int
    rows: int
    cells: dict  # column * rows + row -> range of positions
    # Flat arrays, read through memoryviews, which index to Python ints and floats.
    bounds: memoryview
    segments: memoryview
    limit: float

    @staticmethod
    def build(path: ReferencePath) -> "_CellGrid | None":
        """The grid of ``path``; None if no answer could be certified."""
        points = path._waypoints
        lo, hi = np.minimum(points[:-1], points[1:]), np.maximum(points[:-1], points[1:])
        # The mean, not the median: np.median imports numpy.ma, which costs memory.
        size = _CELL_SEGMENTS * float(path._segments[5].mean())  # row 5: the segment lengths
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
            bound[pairs] = np.hypot(*_foot_offsets(path, index, cx, cy)[1:])
            key[pairs], segment[pairs] = column * rows + row, index
        # lexsort is stable: equal bounds in a cell keep ascending segment order.
        order = np.lexsort((bound, key))
        key = key[order]  # one array at a time: each is freed before the next is made
        starts = np.flatnonzero(np.diff(key, prepend=-1))
        edges = [*starts.tolist(), total]
        cells = dict(zip(key[starts].tolist(), map(range, edges, edges[1:])))
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
            *(memoryview(values).toreadonly() for values in (bound, segment)),
            size - path._slack,
        )


def project_onto_path(path: ReferencePath, x: float, y: float) -> tuple[float, float, int, float, float]:
    """Closest point on the path polyline to (x, y), segment interiors included.

    Returns ``(px, py, segment_index, distance, arc_length)``: the closest
    point, the index of the segment containing it, the unsigned distance
    from (x, y) to it and the arc length from the path start to it. Ties
    between equidistant segments resolve to the lowest segment index so
    repeated queries are reproducible. The path's cell grid picks the
    segments to evaluate and answers when it certifies its result (see
    ``_CellGrid``); otherwise every segment is scanned. Both read the
    path's segment tables and evaluate a segment with the same
    floating-point operations, so the result does not depend on which one
    answered.
    """
    grid = path._grid
    if grid is not None:
        x0, y0, size, scale, columns, rows, cells, bounds, segments, limit = grid
        column, row = (x - x0) * scale, (y - y0) * scale
        if 0.0 <= column < columns and 0.0 <= row < rows:
            column, row = int(column), int(row)
            positions = cells.get(column * rows + row)
            if positions is not None:
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
                records = path._records
                for position in positions:
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
    t, ox, oy = _foot_offsets(path, slice(None), x, y)
    dist_sq = ox * ox + oy * oy
    index = int(dist_sq.argmin())
    fraction = float(t[index])
    sx, sy, dx, dy, _, length = path._records[index]
    arc = path._cum[index] + fraction * length
    return sx + fraction * dx, sy + fraction * dy, index, math.sqrt(float(dist_sq[index])), arc


def lookahead_point(path: ReferencePath, projection: tuple, lookahead: float) -> tuple[float, float]:
    """Lookahead target from ``projection = project_onto_path(path, x, y)``.

    Of that projection it reads the point, the segment and the arc length.
    Returns, as ``(x, y)``, the first waypoint after the projection's segment
    whose distance from the projected point reaches ``lookahead`` (which must
    be positive) while the waypoint before it is nearer, or the goal if none
    does.
    """
    if not lookahead > 0.0:
        raise ParameterError("lookahead must be positive")
    px, py, segment_index, _, arc_length = projection
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
    Raises :class:`ParameterError` when the target coincides with the robot
    position.
    """
    dx = tx - x
    dy = ty - y
    distance = math.hypot(dx, dy)
    if distance == 0.0:
        raise ParameterError("lookahead target coincides with the robot position")
    heading_to_target = math.atan2(dy, dx) - theta
    return 2.0 * math.sin(heading_to_target) / distance
