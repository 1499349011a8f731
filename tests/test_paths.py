import csv
import math
import re
from unittest import mock

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    bits,
    corner_path,
    lookahead_oracle,
    nearest_point_oracle,
    polyline_distances,
    project_all,
    straight_path,
    waypoint_arc_lengths,
)
from pursuitbench import (
    CornerPathSpec,
    ParameterError,
    ReferencePath,
    generate_corner_path,
)
from pursuitbench import paths
from pursuitbench.paths import (
    arc_curvature,
    lookahead_point,
    project_onto_path,
    require_finite_pose,
    wrap_angle,
)


def brute_nearest(path, x, y):
    """Exhaustive per-segment scan; ties resolve to the first (lowest) index."""
    best = None
    pts = path.waypoints
    for i in range(len(pts) - 1):
        ax, ay = pts[i]
        bx, by = pts[i + 1]
        dx, dy = bx - ax, by - ay
        t = ((x - ax) * dx + (y - ay) * dy) / (dx * dx + dy * dy)
        t = min(max(t, 0.0), 1.0)
        d = math.hypot(x - (ax + t * dx), y - (ay + t * dy))
        if best is None or d < best[0]:
            best = (d, i)
    return best


class TestWrapAngle:
    def test_identity_inside_range(self):
        assert wrap_angle(0.5) == 0.5

    def test_pi_maps_to_pi(self):
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)

    def test_large_angles(self):
        assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-5 * math.pi / 2) == pytest.approx(-math.pi / 2)


class TestTypes:
    def test_pose_wraps_heading(self):
        assert wrap_angle(2 * math.pi + 0.25) == pytest.approx(0.25)

    def test_pose_rejects_non_finite(self):
        with pytest.raises(ParameterError):
            require_finite_pose(math.nan, 0.0, 0.0)

    def test_path_needs_two_waypoints(self):
        with pytest.raises(ParameterError):
            ReferencePath([[0.0, 0.0]])

    def test_path_rejects_duplicate_waypoints(self):
        with pytest.raises(ParameterError):
            ReferencePath([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])

    @pytest.mark.parametrize(
        "points, index",
        [
            ([(0.0, 0.0), (1e-170, 0.0), (3.0, 0.0)], 0),  # the squared length underflows to 0
            ([(0.0, 0.0), (1.0, 0.0), (2e154, 0.0)], 1),  # the squared length overflows
            ([(-1e308, 0.0), (1e308, 0.0)], 0),  # the length itself overflows
        ],
        ids=["underflow", "overflow", "infinite"],
    )
    def test_path_rejects_a_segment_the_projection_cannot_measure(self, points, index):
        with pytest.raises(ParameterError, match=f"^segment {index} \\(waypoints {index} to {index + 1}\\) is "):
            ReferencePath(points)

    def test_path_names_its_first_non_finite_waypoint(self):
        with pytest.raises(ParameterError, match=r"^waypoint 2 is \(1\.0, inf\); waypoints must be finite$"):
            ReferencePath([(0.0, 0.0), (1.0, 0.0), (1.0, math.inf), (math.nan, 0.0)])

    def test_corner_rejects_a_non_positive_segment_length(self):
        with pytest.raises(ParameterError, match="^segment_length must be positive$"):
            CornerPathSpec(0.0, 1.0)

    def test_arclength_starts_at_zero_and_increases(self):
        path = corner_path(90.0)
        arc = [project_onto_path(path, x, y)[4] for x, y in path.waypoints.tolist()]
        assert arc[0] == 0.0
        assert np.all(np.diff(arc) > 0)

    def test_waypoints_are_read_only(self):
        path = straight_path()
        with pytest.raises(ValueError):
            path.waypoints[0, 0] = 5.0


class TestCornerPathGeneration:
    def test_right_angle_layout(self):
        path = generate_corner_path(CornerPathSpec(3.0, math.radians(90.0), 0.1))
        assert len(path) == 61
        np.testing.assert_allclose(path.waypoints[30], [3.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(path.waypoints[-1], [3.0, 3.0], atol=1e-12)
        assert path.length == pytest.approx(6.0)

    def test_second_leg_heading_is_corner_angle(self):
        angle = math.radians(135.0)
        path = generate_corner_path(CornerPathSpec(3.0, angle, 0.1))
        second_leg = np.diff(path.waypoints[30:], axis=0)
        headings = np.arctan2(second_leg[:, 1], second_leg[:, 0])
        np.testing.assert_allclose(headings, angle, atol=1e-12)

    def test_total_length_is_twice_segment(self):
        path = generate_corner_path(CornerPathSpec(3.0, math.radians(45.0), 0.07))
        assert path.length == pytest.approx(6.0, abs=1e-9)

    @pytest.mark.parametrize("angle", [0.0, math.pi, -0.3])
    def test_degenerate_corner_angle_rejected(self, angle):
        with pytest.raises(ParameterError):
            CornerPathSpec(3.0, angle, 0.1)

    def test_spacing_must_fit_in_segment(self):
        with pytest.raises(ParameterError):
            CornerPathSpec(1.0, math.radians(90.0), 1.5)


class TestNearestPoint:
    def test_path_too_far_out_for_a_certified_grid_is_scanned(self):
        # 1 mm segments at x = 1e11 m: a 4 mm cell is narrower than the path's
        # rounding slack, so no grid is built and every query scans.
        path = ReferencePath([(1e11 + 0.001 * i, 0.0) for i in range(11)])
        assert path._grid is None
        rng = np.random.default_rng(11)
        for x, y in np.column_stack((1e11 + rng.uniform(-0.01, 0.02, 50), rng.uniform(-0.01, 0.01, 50))).tolist():
            assert project_onto_path(path, x, y) == nearest_point_oracle(path, x, y)

    def test_perpendicular_foot(self):
        px, py, _, distance, _ = project_onto_path(straight_path(), 1.0, 0.1)
        np.testing.assert_allclose((px, py), [1.0, 0.0], atol=1e-12)
        assert distance == pytest.approx(0.1)

    def test_on_waypoint_identity(self):
        path = straight_path(spacing=0.1)
        px, py, _, distance, _ = project_onto_path(path, 0.5, 0.0)
        np.testing.assert_allclose((px, py), [0.5, 0.0], atol=1e-12)
        assert distance == 0.0

    def test_corner_tie_picks_lower_segment_index(self):
        # (2.5, 0.5) is exactly 0.5 from both legs of the right-angle corner.
        path = corner_path(90.0, spacing=0.1)
        px, py, index, distance, _ = project_onto_path(path, 2.5, 0.5)
        expected_distance, expected_index = brute_nearest(path, 2.5, 0.5)
        assert index == expected_index
        assert distance == pytest.approx(expected_distance)
        np.testing.assert_allclose((px, py), [2.5, 0.0], atol=1e-12)

    def test_matches_exhaustive_scan(self):
        path = corner_path(135.0)
        rng = np.random.default_rng(3)
        for _ in range(200):
            x, y = rng.uniform(-1.0, 4.0, size=2)
            _, _, index, distance, _ = project_onto_path(path, x, y)
            expected_distance, expected_index = brute_nearest(path, x, y)
            assert index == expected_index
            assert distance == pytest.approx(expected_distance, abs=1e-12)

    def test_distance_dominates_waypoint_distances(self):
        path = corner_path(45.0)
        rng = np.random.default_rng(4)
        for _ in range(100):
            x, y = rng.uniform(-2.0, 6.0, size=2)
            distance = project_onto_path(path, x, y)[3]
            waypoint_distances = np.hypot(path.waypoints[:, 0] - x, path.waypoints[:, 1] - y)
            assert distance <= waypoint_distances.min() + 1e-12


# Half-metre grid coordinates make exact ties and U-turns common; free floats
# cover everything else.
_grid = st.integers(-4, 4).map(lambda k: 0.5 * k)
_coordinate = st.one_of(_grid, st.floats(-5.0, 5.0))
polylines = st.one_of(
    st.lists(st.tuples(_grid, _grid), min_size=2, max_size=12),
    st.lists(st.tuples(_coordinate, _coordinate), min_size=2, max_size=30),
).filter(lambda points: all(math.dist(a, b) >= 1e-6 for a, b in zip(points, points[1:])))
_U_TURN = [(0.0, 0.0), (2.0, 0.0), (2.0, 0.3), (0.0, 0.3)]
# Half-metre segments: the grid's cells are 2 m wide, and the cell around
# (1, 0.25) is centred on (1, 1), nearer the upper leg (segments 7 to 12)
# than the lower one (0 to 5).
_HALF_METRE_U_TURN = [(0.5 * k, 0.0) for k in range(7)] + [(3.0 - 0.5 * k, 0.5) for k in range(7)]
_ROTATED_U_TURN = [
    (2.1401508436843137, -1.1076922956151585),
    (2.445729016736739, -1.5593200991015002),
    (2.7096559536257034, -1.3807431590387487),
    (2.404077780573278, -0.9291153555524071),
]


def _walk(steps) -> list[tuple[float, float]]:
    """Waypoints from the origin along (heading, length) steps."""
    points = [(0.0, 0.0)]
    for heading, length in steps:
        x, y = points[-1]
        points.append((x + length * math.cos(heading), y + length * math.sin(heading)))
    return points


def _steps(lengths):
    return st.lists(st.tuples(st.floats(-math.pi, math.pi), lengths), min_size=1, max_size=60)


_fine = st.floats(1e-4, 0.01)
_shift = st.one_of(st.just(0.0), st.sampled_from([-1e6, 1e6]), st.floats(-1e6, 1e6))
# The polylines above, plus fine (at most 1 cm) and mixed segment lengths,
# all shifted by up to 1e6 m.
shifted_polylines = st.builds(
    lambda points, dx, dy: [(x + dx, y + dy) for x, y in points],
    st.one_of(
        polylines,
        _steps(_fine).map(_walk),
        _steps(st.one_of(_fine, st.floats(0.01, 2.0))).map(_walk),
    ),
    _shift,
    _shift,
).filter(lambda points: all(math.dist(a, b) >= 1e-6 for a, b in zip(points, points[1:])))


def cell_edge(origin: float, scale: float, k: int) -> float:
    """The least float whose cell quotient ``(v - origin) * scale`` reaches ``k``."""
    below, edge = origin + (k - 1) / scale, origin + (k + 1) / scale
    while math.nextafter(below, math.inf) < edge:  # bisect down to adjacent floats
        middle = (below + edge) / 2.0
        if (middle - origin) * scale < k:
            below = middle
        else:
            edge = middle
    return edge


def draw_query(data, path) -> tuple[float, float]:
    """A point within one cell of the path, or 1 to 20 cells from it, possibly on cell edges.

    The far points reach the fallback scan, also from outside the grid's bounding box.
    """
    grid = path._grid
    index = data.draw(st.integers(0, len(path) - 2), label="segment")
    a, b = path.waypoints[index], path.waypoints[index + 1]
    u = data.draw(st.floats(0.0, 1.0), label="fraction")
    cells = st.one_of(st.floats(0.0, 1.0), st.floats(1.0, 20.0))
    radius = data.draw(cells, label="radius in cells") / grid.scale
    angle = data.draw(st.floats(-math.pi, math.pi), label="angle")
    query = [
        float(a[0] + u * (b[0] - a[0]) + radius * math.cos(angle)),
        float(a[1] + u * (b[1] - a[1]) + radius * math.sin(angle)),
    ]
    for axis, origin in enumerate((grid.x0, grid.y0)):
        edge = data.draw(st.sampled_from(["inside", "on edge", "below edge"]), label=f"axis {axis}")
        if edge != "inside":
            query[axis] = cell_edge(origin, grid.scale, round((query[axis] - origin) * grid.scale))
            if edge == "below edge":
                query[axis] = math.nextafter(query[axis], -math.inf)
    return query[0], query[1]


def project_counting_scans(path, x, y):
    """``project_onto_path`` and whether it fell back to the full scan."""
    with mock.patch.object(paths, "_nearest_by_scan", wraps=paths._nearest_by_scan) as scan:
        projection = project_onto_path(path, x, y)
    return projection, scan.called


def assert_same_projection(actual, expected):
    (px, py, index, distance, arc_length), (ex, ey, e_index, e_distance, e_arc_length) = actual, expected
    assert index == e_index
    assert distance == e_distance
    assert arc_length == e_arc_length
    assert bits((px, py)) == bits((ex, ey))


class TestKernelsMatchOracles:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(points=polylines, x=_coordinate, y=_coordinate)
    @example(points=_U_TURN, x=1.0, y=0.15)  # equidistant from both legs of a U-turn
    @example(points=[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)], x=1.5, y=-0.5)  # at a shared vertex
    @example(points=[(-0.0, 0.0), (-1.0, -1.0)], x=-0.0, y=0.0)  # a fraction of -0.0
    # Equidistant from segments 2 and 10; segment 10 has the smaller bound,
    # so it is evaluated first, and segment 2 must still win the tie.
    @example(points=_HALF_METRE_U_TURN, x=1.25, y=0.25)
    # Equidistant from segments 1 and 10, on the line from the centre to
    # segment 1: its bound less the query's distance from the centre is
    # exactly the best distance, so the stop rule must not skip it.
    @example(points=_HALF_METRE_U_TURN, x=1.0, y=0.25)
    # The same on a rotated U-turn, where segment 0's bound less the query's
    # distance from the centre rounds to above the best distance: the stop
    # rule skips segment 0 unless it allows for the rounding slack.
    @example(points=_ROTATED_U_TURN, x=2.3407162564957655, y=-1.1197937420816186)
    # 2.0156 m from its nearest segment, 12, just beyond the grid's limit of
    # 2 m: the stop rule skips the cell's later segments before any best is
    # found, and the scan answers.
    @example(points=_HALF_METRE_U_TURN, x=-0.25, y=2.5)
    def test_nearest_point_is_the_batch_oracle(self, points, x, y):
        path = ReferencePath(points)
        projection = project_onto_path(path, x, y)
        assert_same_projection(projection, nearest_point_oracle(path, x, y))
        _, dist_sq = project_all(path, [[x, y]])
        index = projection[2]
        assert np.all(dist_sq[0, :index] > dist_sq[0, index])

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        points=polylines,
        x=_coordinate,
        y=_coordinate,
        lookahead=st.one_of(st.integers(1, 12).map(lambda k: 0.25 * k), st.floats(1e-3, 10.0)),
    )
    @example(points=_U_TURN, x=1.0, y=0.15, lookahead=0.3)
    @example(points=[(0.0, 0.0), (0.5, 0.0), (1.0, 0.0)], x=0.0, y=0.0, lookahead=0.5)
    def test_lookahead_is_the_numpy_scan(self, points, x, y, lookahead):
        path = ReferencePath(points)
        projection = project_onto_path(path, x, y)
        target = lookahead_point(path, *projection[:3], projection[4], lookahead)
        assert bits(target) == bits(lookahead_oracle(path, projection, lookahead))

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(points=shifted_polylines, data=st.data())
    def test_shifted_fine_and_mixed_paths_project_exactly(self, points, data):
        path = ReferencePath(points)
        x, y = draw_query(data, path)
        projection, scanned = project_counting_scans(path, x, y)
        assert_same_projection(projection, nearest_point_oracle(path, x, y))
        # The grid certifies exactly the projections nearer than its limit.
        assert scanned == (projection[3] >= path._grid.limit)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(points=shifted_polylines, data=st.data())
    def test_shifted_fine_and_mixed_paths_find_the_lookahead_exactly(self, points, data):
        path = ReferencePath(points)
        projection = project_onto_path(path, *draw_query(data, path))
        _, _, segment_index, _, arc_length = projection
        # Also lookaheads beyond the path's end and ones that end exactly at a
        # waypoint's arc length, where the skip stops.
        remaining = path.length - arc_length
        ahead = waypoint_arc_lengths(path)[segment_index + 1 :] - arc_length
        at_waypoint = st.sampled_from(ahead.tolist()).filter(lambda value: value > 0.0)
        lookahead = data.draw(
            st.one_of(
                st.floats(1e-3, 10.0),
                st.floats(0.0, 5.0).map(lambda extra: remaining + extra).filter(lambda value: value > 0.0),
                at_waypoint,
                at_waypoint.map(lambda value: math.nextafter(value, 0.0)),
            ),
            label="lookahead",
        )
        target = lookahead_point(path, *projection[:3], projection[4], lookahead)
        assert bits(target) == bits(lookahead_oracle(path, projection, lookahead))

    def test_long_diagonal_segment_widens_the_cells(self):
        # 2,000 one-centimetre segments, then one 1.4 km diagonal: at four
        # mean segment lengths per cell the diagonal alone would be listed in
        # about 120,000 cells.
        fine = np.column_stack((np.linspace(0.0, 20.0, 2001), np.zeros(2001)))
        path = ReferencePath(np.vstack((fine, [[1020.0, 1000.0]])))
        grid = path._grid
        listed = len(grid.segments)
        assert listed <= 32 * (len(path) - 1)
        for x, y in [(3.004, 0.01), (19.999, -0.02), (520.0, 500.3), (1020.0, 1000.0)]:
            projection, scanned = project_counting_scans(path, x, y)
            assert_same_projection(projection, nearest_point_oracle(path, x, y))
            assert not scanned


def find_lookahead_point(path, x, y, lookahead):
    projection = project_onto_path(path, x, y)
    return lookahead_point(path, *projection[:3], projection[4], lookahead)


def remaining_distance(path, x, y):
    return path.length - project_onto_path(path, x, y)[4]


class TestLookaheadPoint:
    def test_straight_path_from_origin(self):
        path = straight_path(spacing=0.1)
        target = find_lookahead_point(path, 0.0, 0.0, 0.6)
        np.testing.assert_allclose(target, [0.6, 0.0], atol=1e-12)

    def test_falls_back_to_final_waypoint_near_end(self):
        path = straight_path(length=6.0, spacing=0.1)
        target = find_lookahead_point(path, 5.6, 0.0, 0.6)
        np.testing.assert_allclose(target, [6.0, 0.0], atol=1e-12)

    def test_corner_vicinity_target_moves_to_second_leg(self):
        path = corner_path(90.0, spacing=0.1)
        target = find_lookahead_point(path, 2.7, 0.0, 0.6)
        # Independent linear scan: distances from the projected point.
        px, py, segment_index, _, _ = project_onto_path(path, 2.7, 0.0)
        distances = np.hypot(path.waypoints[:, 0] - px, path.waypoints[:, 1] - py)
        chosen = None
        for i in range(segment_index + 1, len(path)):
            if distances[i - 1] < 0.6 <= distances[i]:
                chosen = path.waypoints[i]
                break
        assert chosen is not None
        np.testing.assert_allclose(target, chosen, atol=1e-15)
        assert target[1] > 0.0  # on the second leg

    def test_matches_independent_linear_scan(self):
        path = corner_path(135.0)
        rng = np.random.default_rng(11)
        for _ in range(200):
            x, y = rng.uniform(-0.5, 3.5), rng.uniform(-0.5, 2.5)
            lookahead = rng.uniform(0.1, 1.0)
            px, py, segment_index, _, _ = project_onto_path(path, x, y)
            target = find_lookahead_point(path, x, y, lookahead)
            distances = np.hypot(path.waypoints[:, 0] - px, path.waypoints[:, 1] - py)
            expected = None
            for i in range(segment_index + 1, len(path)):
                if distances[i - 1] < lookahead <= distances[i]:
                    expected = path.waypoints[i]
                    break
            if expected is None:
                expected = path.waypoints[-1]
            np.testing.assert_array_equal(target, expected)

    @pytest.mark.parametrize("lookahead", [0.0, -1.0])
    def test_rejects_non_positive_lookahead(self, lookahead):
        with pytest.raises(ParameterError, match="lookahead must be positive"):
            find_lookahead_point(corner_path(90.0), 2.7, 0.0, lookahead)


class TestCurvature:
    def test_diagonal_target_gives_unit_curvature(self):
        assert arc_curvature(0.0, 0.0, 0.0, 1.0, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_straight_ahead_gives_zero(self):
        assert arc_curvature(0.0, 0.0, 0.0, 2.0, 0.0) == 0.0

    def test_mirror_target_flips_sign(self):
        assert arc_curvature(0.0, 0.0, 0.0, 1.0, -1.0) == pytest.approx(-1.0, abs=1e-12)

    def test_coincident_target_rejected(self):
        with pytest.raises(ParameterError, match="^lookahead target coincides with the robot position$"):
            arc_curvature(1.0, 2.0, 0.3, 1.0, 2.0)

    def test_reflection_across_heading_axis_negates_curvature(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            x, y = rng.uniform(-1, 1), rng.uniform(-1, 1)
            theta = wrap_angle(rng.uniform(-math.pi, math.pi))
            dx, dy = rng.uniform(-2, 2, size=2)
            if math.hypot(dx, dy) < 1e-6:
                continue
            cos_t, sin_t = math.cos(theta), math.sin(theta)
            forward = dx * cos_t + dy * sin_t
            lateral = -dx * sin_t + dy * cos_t
            target = (x + dx, y + dy)
            mirrored = (
                x + forward * cos_t + lateral * sin_t,
                y + forward * sin_t - lateral * cos_t,
            )
            kappa = arc_curvature(x, y, theta, *target)
            assert arc_curvature(x, y, theta, *mirrored) == pytest.approx(-kappa, abs=1e-9)

    def test_magnitude_bounded_by_two_over_distance(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            x, y = rng.uniform(-1, 1), rng.uniform(-1, 1)
            theta = wrap_angle(rng.uniform(-math.pi, math.pi))
            target = (rng.uniform(-3, 3), rng.uniform(-3, 3))
            distance = math.hypot(target[0] - x, target[1] - y)
            if distance < 1e-9:
                continue
            assert abs(arc_curvature(x, y, theta, *target)) <= 2.0 / distance + 1e-12


class TestCrossTrackAndGoalDistance:
    def test_cross_track_matches_nearest_distance(self):
        path = corner_path(90.0, spacing=0.1)
        points = ((1.0, 0.1), (0.5, 0.0), (2.5, 0.5))
        batch = polyline_distances(path, points)
        for (x, y), expected, batch_distance in zip(points, (0.1, 0.0, 0.5), batch):
            distance = project_onto_path(path, x, y)[3]
            assert distance == pytest.approx(expected, abs=1e-12)
            assert batch_distance == distance

    def test_remaining_distance_at_start(self):
        path = corner_path(45.0)
        assert remaining_distance(path, 0.0, 0.0) == pytest.approx(6.0)

    def test_remaining_distance_at_goal(self):
        path = corner_path(45.0)
        goal = path.goal
        assert remaining_distance(path, goal[0], goal[1]) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_remaining_distance_mid_first_leg(self):
        path = corner_path(45.0)
        assert remaining_distance(path, 1.3, 0.0) == pytest.approx(
            4.7, abs=1e-9
        )

    def test_remaining_distance_non_increasing_along_straight_path(self):
        path = straight_path()
        xs = np.linspace(0.0, 6.0, 200)
        remaining = [remaining_distance(path, x, 0.02) for x in xs]
        assert np.all(np.diff(remaining) <= 1e-12)

    def test_polyline_distances_matches_scalar_query(self):
        # The batch oracle and the per-step kernel do the same IEEE operations.
        rng = np.random.default_rng(8)
        long_path = corner_path(90.0, segment_length=10.0, spacing=0.01)  # 2,000 segments
        for path, high in ((corner_path(135.0), 4.0), (long_path, 11.0)):
            points = rng.uniform(-1.0, high, size=(50, 2))
            batch = polyline_distances(path, points)
            for (x, y), expected in zip(points, batch):
                assert project_onto_path(path, x, y)[3] == expected


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        path = corner_path(90.0, spacing=0.25)
        file = tmp_path / "path.csv"
        path.to_csv(file)
        loaded = ReferencePath.from_csv(file)
        np.testing.assert_array_equal(loaded.waypoints, path.waypoints)

    def test_byte_order_mark_is_read_past(self, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(b"x,y\r\n0,0\r\n1,0\r\n1,1\r\n")
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        np.testing.assert_array_equal(
            ReferencePath.from_csv(marked).waypoints, ReferencePath.from_csv(plain).waypoints
        )

    def test_header_required(self, tmp_path):
        file = tmp_path / "bad.csv"
        file.write_text("0.0,0.0\n1.0,0.0\n")
        with pytest.raises(ParameterError):
            ReferencePath.from_csv(file)

    @pytest.mark.parametrize("row", ["0,0,5", "1", "1,y"])
    def test_row_of_other_than_two_numbers_rejected(self, tmp_path, row):
        file = tmp_path / "bad.csv"
        file.write_text(f"x,y\n{row}\n2,0\n")
        with pytest.raises(ParameterError, match="malformed waypoint row"):
            ReferencePath.from_csv(file)

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "x,y\n0,0\n1,0\n1,0\n2,0\n",
                "segment 1 (waypoints 1 to 2) is 0 m long; its squared length must be a positive finite float",
            ),
            ("x,y\n", "a path needs at least two planar waypoints"),
            ("x,y\n0,0\nnan,1\n2,0\n", "waypoint 1 is (nan, 1.0); waypoints must be finite"),
            ("x,y\n0,0\n\n1,0,\n2,0\n", "line 4: malformed waypoint row '1,0,'"),
            (
                f"x,y\n0,0\n{'1' * (csv.field_size_limit() + 1)},0\n",
                f"cannot read: field larger than field limit ({csv.field_size_limit()})",
            ),
        ],
        ids=["repeated", "header_only", "nan", "trailing_cell", "cell_beyond_the_csv_field_limit"],
    )
    def test_rejection_names_the_file_and_the_bad_row(self, tmp_path, text, message):
        file = tmp_path / "trail.csv"
        file.write_text(text)
        with pytest.raises(ParameterError, match=f"^{re.escape(f'{file}: {message}')}$"):
            ReferencePath.from_csv(file)

    def test_directory_rejected_by_name(self, tmp_path):
        with pytest.raises(ParameterError, match=f"^{re.escape(str(tmp_path))}: cannot read"):
            ReferencePath.from_csv(tmp_path)

    def test_unreadable_file_rejected_by_name(self, tmp_path):
        file = tmp_path / "path.csv"
        file.write_text("x,y\n0,0\n1,0\n")
        denied = PermissionError(13, "Permission denied")
        with mock.patch.object(paths, "open", side_effect=denied, create=True):
            with pytest.raises(ParameterError, match=f"^{re.escape(str(file))}: cannot read: Permission denied$"):
                ReferencePath.from_csv(file)

    def test_undecodable_file_rejected_by_name(self, tmp_path):
        file = tmp_path / "path.csv"
        file.write_bytes(b"x,y\n\xff,0\n")
        with pytest.raises(ParameterError, match=f"^{re.escape(str(file))}: cannot read"):
            ReferencePath.from_csv(file)
