import csv
import math
from dataclasses import fields

import numpy as np
import pytest

from pursuitbench import (
    ControllerKind,
    CornerPathSpec,
    KinodynamicLimits,
    LookaheadConfig,
    NoiseModel,
    ParameterError,
    ReferencePath,
    RegulationConfig,
    ScenarioResult,
    TrajectoryLog,
    generate_corner_path,
)
from pursuitbench.controllers import FIXED_LOOKAHEAD, require_finite_command
from pursuitbench.paths import arc_curvature, require_finite_pose, wrap_angle
from pursuitbench.simulator import arc_step


def straight_path(length: float = 6.0, spacing: float = 0.05) -> ReferencePath:
    n = round(length / spacing)
    xs = np.linspace(0.0, length, n + 1)
    return ReferencePath(np.column_stack((xs, np.zeros(n + 1))))


def corner_path(angle_deg: float, segment_length: float = 3.0, spacing: float = 0.05) -> ReferencePath:
    return generate_corner_path(
        CornerPathSpec(segment_length, math.radians(angle_deg), spacing)
    )


def u_turn_path(gap: float = 0.3, leg: float = 2.0, spacing: float = 0.05) -> ReferencePath:
    """Out along +x, across by ``gap`` and back along -x: two legs ``gap`` apart."""
    out = np.linspace(0.0, leg, round(leg / spacing) + 1)
    across = np.linspace(0.0, gap, round(gap / spacing) + 1)[1:]
    return ReferencePath(
        np.vstack(
            (
                np.column_stack((out, np.zeros_like(out))),
                np.column_stack((np.full_like(across, leg), across)),
                np.column_stack((out[::-1][1:], np.full(len(out) - 1, gap))),
            )
        )
    )


@pytest.fixture
def bench_limits() -> KinodynamicLimits:
    return KinodynamicLimits()


@pytest.fixture
def bench_lookahead() -> LookaheadConfig:
    return LookaheadConfig()


@pytest.fixture
def bench_regulation() -> RegulationConfig:
    return RegulationConfig()


def distance_point_to_line(v: float, omega: float, curvature: float) -> float:
    """Euclidean distance from (v, omega) to the line omega = curvature * v."""
    return abs(curvature * v - omega) / math.sqrt(curvature * curvature + 1.0)


def bits(values) -> tuple[str, ...]:
    """The values as exact hex strings, so -0.0 differs from 0.0."""
    return tuple(map(float.hex, values))


# Exactness oracles: the batch projection, the numpy lookahead scan and the
# row-wise trajectory CSV writer that the package used before its per-step
# kernels were rewritten. The package must reproduce them bit for bit. A
# projection is ``(px, py, segment_index, distance, arc_length)``, as
# ``paths.project_onto_path`` returns it.


def waypoint_arc_lengths(path: ReferencePath) -> np.ndarray:
    """Arc length from the path start to each waypoint, from the waypoints alone."""
    segments = np.diff(path.waypoints, axis=0)
    return np.concatenate(([0.0], np.cumsum(np.hypot(segments[:, 0], segments[:, 1]))))


def project_all(path: ReferencePath, points) -> tuple[np.ndarray, np.ndarray]:
    """Clamped segment parameters and squared distances, both (n, segments)."""
    points = np.asarray(points, dtype=float)
    x, y = points[:, 0:1], points[:, 1:2]
    segments = np.diff(path.waypoints, axis=0)
    sx, sy = path.waypoints[:-1, 0], path.waypoints[:-1, 1]
    dx, dy = segments[:, 0], segments[:, 1]
    t = np.clip(((x - sx) * dx + (y - sy) * dy) / np.hypot(dx, dy) ** 2, 0.0, 1.0)
    ox = x - (sx + t * dx)
    oy = y - (sy + t * dy)
    return t, ox * ox + oy * oy


def polyline_distances(path: ReferencePath, points) -> np.ndarray:
    """Unsigned distance from each row of ``points`` to the path."""
    _, dist_sq = project_all(path, points)
    return np.sqrt(dist_sq.min(axis=1))


def nearest_point_oracle(path: ReferencePath, x: float, y: float) -> tuple:
    t, dist_sq = project_all(path, [[x, y]])
    index = int(np.argmin(dist_sq[0]))
    fraction = t[0, index]
    segment = path.waypoints[index + 1] - path.waypoints[index]
    px, py = (path.waypoints[index] + fraction * segment).tolist()
    arc = float(waypoint_arc_lengths(path)[index] + fraction * np.hypot(*segment))
    return px, py, index, math.sqrt(float(dist_sq[0, index])), arc


def lookahead_oracle(path: ReferencePath, projection: tuple, lookahead: float) -> tuple[float, float]:
    """The lookahead target of ``projection = nearest_point_oracle(...)``, as ``(x, y)``."""
    points = path.waypoints
    reference = np.array(projection[:2])
    segment_index = projection[2]
    previous = math.hypot(*(points[segment_index] - reference))
    for index in range(segment_index + 1, len(points)):
        distance = math.hypot(*(points[index] - reference))
        if previous < lookahead <= distance:
            return tuple(points[index].tolist())
        previous = distance
    return tuple(points[-1].tolist())


def write_log_rowwise(log, file) -> None:
    with open(file, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(log._COLUMNS)
        for row in zip(*(getattr(log, name) for name in log._COLUMNS)):
            writer.writerow(
                [int(value) if isinstance(value, np.bool_) else repr(float(value)) for value in row]
            )


# Window oracles: the dynamic window and regulated window as the package
# computed them before both became one clamp rule, as
# ``(v_lo, v_hi, omega_lo, omega_hi)``. The old regulated window left the
# reachable one when its whole linear range was negative; everywhere else the
# package must reproduce them bit for bit.


def dynamic_window_oracle(v: float, omega: float, limits: KinodynamicLimits) -> tuple:
    v_hi = min(limits.v_max, v + limits.accel_max * limits.dt)
    v_lo = max(limits.v_min, v - limits.decel_max * limits.dt)
    omega_hi = min(limits.omega_max, omega + limits.ang_accel_max * limits.dt)
    omega_lo = max(limits.omega_min, omega - limits.ang_decel_max * limits.dt)
    if v_lo > v_hi:
        v_lo = v_hi = limits.v_max if v > limits.v_max else limits.v_min
    if omega_lo > omega_hi:
        omega_lo = omega_hi = limits.omega_max if omega > limits.omega_max else limits.omega_min
    return v_lo, v_hi, omega_lo, omega_hi


def regulated_window_oracle(window: tuple, v_reg: float) -> tuple:
    if v_reg < 0.0:
        raise ParameterError("regulated velocity must be non-negative")
    window_v_lo, window_v_hi, omega_lo, omega_hi = window
    v_lo = max(window_v_lo, 0.0)
    v_hi = min(window_v_hi, v_reg)
    if v_hi < v_lo:
        v_hi = v_lo
    return v_lo, v_hi, omega_lo, omega_hi


# Kernel oracles: the per-step clamps in the builtin min/max form the package
# used before they became conditional expressions. The package's kernels must
# reproduce them bit for bit, signed zeros, infinities and NaN included.


def operative_lookahead_oracle(kind, cfg, v: float) -> float:
    if kind is ControllerKind.PURE_PURSUIT or (
        kind is not ControllerKind.ADAPTIVE and cfg.mode == FIXED_LOOKAHEAD
    ):
        return cfg.fixed_distance
    return min(max(v * cfg.projection_time, cfg.min_distance), cfg.max_distance)


def curvature_heuristic(v: float, turn_radius: float, min_radius: float) -> float:
    return v if turn_radius > min_radius else v * turn_radius / min_radius


def goal_heuristic(v: float, goal_distance: float, slowdown_distance: float) -> float:
    return v if goal_distance > slowdown_distance else v * goal_distance / slowdown_distance


def regulate_linear_velocity_oracle(v_cmd: float, curvature: float, goal_distance: float, cfg) -> float:
    turn_radius = math.inf if curvature == 0.0 else 1.0 / abs(curvature)
    v_curv = (
        curvature_heuristic(v_cmd, turn_radius, cfg.min_turn_radius)
        if cfg.enable_curvature
        else math.inf
    )
    v_reg = v_turn = min(v_cmd, max(v_curv, cfg.min_regulated_speed))
    if cfg.enable_goal:
        scaled = goal_heuristic(v_turn, goal_distance, cfg.goal_slowdown_distance)
        v_reg = min(v_turn, max(scaled, cfg.min_approach_speed))
    return min(v_cmd, v_reg)


def clamp_range_oracle(lo: float, hi: float, lo_bound: float, hi_bound: float) -> tuple[float, float]:
    return min(max(lo_bound, lo), hi_bound), max(min(hi_bound, hi), lo_bound)


def regulated_range_oracle(v_lo: float, v_hi: float, v_reg: float) -> tuple[float, float]:
    if v_reg < 0.0:
        raise ParameterError("regulated velocity must be non-negative")
    return clamp_range_oracle(0.0, v_reg, v_lo, v_hi)


def select_velocity_oracle(v_lo, v_hi, omega_lo, omega_hi, curvature) -> tuple[float, float]:
    if curvature == 0.0:
        return v_hi, min(max(0.0, omega_lo), omega_hi)
    bound = omega_hi if curvature > 0.0 else omega_lo
    v = bound / curvature
    if v_lo <= v < v_hi:
        return v, bound
    v = min(max(v, v_lo), v_hi)
    return v, min(max(curvature * v, omega_lo), omega_hi)


def clip_to_window_oracle(v: float, omega: float, window: tuple) -> tuple[float, float]:
    v_lo, v_hi, omega_lo, omega_hi = window
    return min(max(v, v_lo), v_hi), min(max(omega, omega_lo), omega_hi)


# Simulation oracle: the step loop as the package ran it on the object-level
# per-step functions, before the loop moved to the package's float kernels.
# It projects, finds the lookahead target, computes the dynamic window,
# regulates, selects the dwpp command and clips with the oracles above; the
# curvature and the arc step come from the package. The package's
# run_scenario must reproduce its logs, outcomes and error messages bit for
# bit.


def _violation_flags_oracle(command, velocity, limits) -> tuple[bool, bool, bool, bool]:
    def outside(value, lo, hi):
        return value > hi + 1e-9 or value < lo - 1e-9

    (v_cmd, omega_cmd), (v, omega), dt = command, velocity, limits.dt
    return (
        outside(v_cmd, limits.v_min, limits.v_max),
        outside(omega_cmd, limits.omega_min, limits.omega_max),
        outside(v_cmd, v - limits.decel_max * dt, v + limits.accel_max * dt),
        outside(omega_cmd, omega - limits.ang_decel_max * dt, omega + limits.ang_accel_max * dt),
    )


def _command_oracle(kind, pose, velocity, path, projection, limits, lookahead, regulation):
    target = lookahead_oracle(path, projection, operative_lookahead_oracle(kind, lookahead, velocity[0]))
    curvature = arc_curvature(*pose, *target)
    v_des = limits.v_max
    if kind in (ControllerKind.PURE_PURSUIT, ControllerKind.ADAPTIVE):
        command = v_des, curvature * v_des
    else:
        goal_distance = max(0.0, path.length - projection[4])
        v_reg = regulate_linear_velocity_oracle(v_des, curvature, goal_distance, regulation)
        if kind is ControllerKind.REGULATED:
            command = v_reg, curvature * v_reg
        else:
            v_lo, v_hi, omega_lo, omega_hi = dynamic_window_oracle(*velocity, limits)
            command = select_velocity_oracle(
                *regulated_range_oracle(v_lo, v_hi, v_reg), omega_lo, omega_hi, curvature
            )
    require_finite_command(*command)
    return command


def _clip_oracle(command, velocity, limits) -> tuple[float, float]:
    return clip_to_window_oracle(*command, dynamic_window_oracle(*velocity, limits))


def run_scenario_oracle(
    path, kind, limits, lookahead, regulation, noise=None, *, max_time, goal_tolerance,
) -> ScenarioResult:
    if noise is None:
        noise = NoiseModel()
    rng = np.random.default_rng(noise.seed)
    first, second = path.waypoints[0], path.waypoints[1]
    x, y = float(first[0]), float(first[1])
    theta = math.atan2(float(second[1] - first[1]), float(second[0] - first[0]))
    if noise.sigma_pose_init > 0.0:
        sigma = noise.sigma_pose_init
        x += rng.normal(0.0, sigma)
        y += rng.normal(0.0, sigma)
        theta += rng.normal(0.0, sigma)
    require_finite_pose(x, y, theta)
    pose, velocity = (x, y, wrap_angle(theta)), (0.0, 0.0)
    velocity_noise = noise.sigma_v > 0.0 or noise.sigma_omega > 0.0
    goal_x, goal_y = float(path.goal[0]), float(path.goal[1])

    def goal_distance(pose):
        return math.hypot(pose[0] - goal_x, pose[1] - goal_y)

    def at_goal(pose):
        return goal_distance(pose) <= goal_tolerance

    if at_goal(pose):
        raise ParameterError(
            f"the start lies {goal_distance(pose):.6g} m from the goal,"
            f" within goal_tolerance {goal_tolerance:g} m"
        )
    dt = limits.dt
    rows = []
    for step in range(int(round(max_time / dt))):
        if at_goal(pose):
            break
        try:
            projection = nearest_point_oracle(path, pose[0], pose[1])
            command = _command_oracle(kind, pose, velocity, path, projection, limits, lookahead, regulation)
            flags = _violation_flags_oracle(command, velocity, limits)
            executed = _clip_oracle(command, velocity, limits)
            if velocity_noise:
                executed = (
                    executed[0] + (rng.normal(0.0, noise.sigma_v) if noise.sigma_v > 0.0 else 0.0),
                    executed[1]
                    + (rng.normal(0.0, noise.sigma_omega) if noise.sigma_omega > 0.0 else 0.0),
                )
                require_finite_command(*executed)
                executed = _clip_oracle(executed, velocity, limits)
            rows.append(
                (step * dt, *pose, *velocity, *command, *executed, *flags, projection[3], projection[4])
            )
            x, y, theta = arc_step(*pose, *executed, dt)
            require_finite_pose(x, y, theta)
            pose, velocity = (x, y, wrap_angle(theta)), executed
        except ParameterError as exc:
            raise ParameterError(f"step {step}: {exc}") from exc

    names = [field.name for field in fields(TrajectoryLog)]
    columns = list(zip(*rows)) if rows else [[] for _ in names]
    log = TrajectoryLog(
        **{
            name: np.array(column, dtype=bool if name.startswith("viol_") else float)
            for name, column in zip(names, columns)
        }
    )
    return ScenarioResult(log, at_goal(pose), len(log) * dt)
