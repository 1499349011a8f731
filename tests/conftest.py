import csv
import math
from dataclasses import fields

import numpy as np
import pytest

from pursuitbench import (
    CornerPathSpec,
    DynamicWindow,
    KinodynamicLimits,
    LookaheadConfig,
    NoiseModel,
    ParameterError,
    Pose2D,
    ReferencePath,
    RegulationConfig,
    RobotState,
    ScenarioResult,
    SimulationDivergedError,
    TrajectoryLog,
    VelocityCommand,
    compute_command,
    generate_corner_path,
)
from pursuitbench.paths import PathProjection, nearest_point_on_path
from pursuitbench.simulator import clip_to_feasible, step_unicycle


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


# Exactness oracles: the batch projection, the numpy lookahead scan and the
# row-wise trajectory CSV writer that the package used before its per-step
# kernels were rewritten. The package must reproduce them bit for bit.


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


def nearest_point_oracle(path: ReferencePath, x: float, y: float) -> PathProjection:
    t, dist_sq = project_all(path, [[x, y]])
    index = int(np.argmin(dist_sq[0]))
    fraction = t[0, index]
    segment = path.waypoints[index + 1] - path.waypoints[index]
    point = path.waypoints[index] + fraction * segment
    arc = float(path.cumulative_arclength[index] + fraction * np.hypot(*segment))
    return PathProjection(point, index, math.sqrt(float(dist_sq[0, index])), arc)


def lookahead_oracle(path: ReferencePath, projection: PathProjection, lookahead: float) -> np.ndarray:
    points = path.waypoints
    reference = projection.point
    previous = math.hypot(*(points[projection.segment_index] - reference))
    for index in range(projection.segment_index + 1, len(points)):
        distance = math.hypot(*(points[index] - reference))
        if previous < lookahead <= distance:
            return points[index].copy()
        previous = distance
    return points[-1].copy()


def write_log_rowwise(log, file) -> None:
    with open(file, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(log._COLUMNS)
        for row in zip(*(getattr(log, name) for name in log._COLUMNS)):
            writer.writerow(
                [int(value) if isinstance(value, np.bool_) else repr(float(value)) for value in row]
            )


# Window oracles: the dynamic window and regulated window as the package
# computed them before both became one clamp rule. The old regulated window
# left the reachable one when its whole linear range was negative; everywhere
# else the package must reproduce them bit for bit.


def dynamic_window_oracle(state: RobotState, limits: KinodynamicLimits) -> DynamicWindow:
    v_hi = min(limits.v_max, state.v + limits.accel_max * limits.dt)
    v_lo = max(limits.v_min, state.v - limits.decel_max * limits.dt)
    omega_hi = min(limits.omega_max, state.omega + limits.ang_accel_max * limits.dt)
    omega_lo = max(limits.omega_min, state.omega - limits.ang_decel_max * limits.dt)
    if v_lo > v_hi:
        v_lo = v_hi = limits.v_max if state.v > limits.v_max else limits.v_min
    if omega_lo > omega_hi:
        omega_lo = omega_hi = (
            limits.omega_max if state.omega > limits.omega_max else limits.omega_min
        )
    return DynamicWindow(v_lo, v_hi, omega_lo, omega_hi)


def regulated_window_oracle(window: DynamicWindow, v_reg: float) -> DynamicWindow:
    if v_reg < 0.0:
        raise ParameterError("regulated velocity must be non-negative")
    v_lo = max(window.v_lo, 0.0)
    v_hi = min(window.v_hi, v_reg)
    if v_hi < v_lo:
        v_hi = v_lo
    return DynamicWindow(v_lo, v_hi, window.omega_lo, window.omega_hi)


def window_bits(window: DynamicWindow) -> tuple[str, ...]:
    """The window's four bounds as exact hex strings, so -0.0 differs from 0.0."""
    return tuple(map(float.hex, (window.v_lo, window.v_hi, window.omega_lo, window.omega_hi)))


# Simulation oracle: the step loop as the package ran it on the object-level
# per-step functions (PathProjection, RobotState, VelocityCommand and
# DynamicWindow per step), before the loop moved to plain floats. The package's
# run_scenario must reproduce its logs and outcomes bit for bit.


def _violation_flags_oracle(command, state, limits) -> tuple[bool, bool, bool, bool]:
    def outside(value, lo, hi):
        return value > hi + 1e-9 or value < lo - 1e-9

    dt = limits.dt
    return (
        outside(command.v, limits.v_min, limits.v_max),
        outside(command.omega, limits.omega_min, limits.omega_max),
        outside(command.v, state.v - limits.decel_max * dt, state.v + limits.accel_max * dt),
        outside(
            command.omega,
            state.omega - limits.ang_decel_max * dt,
            state.omega + limits.ang_accel_max * dt,
        ),
    )


def run_scenario_oracle(
    path, kind, limits, lookahead, regulation, noise=None, *,
    obstacle_distance=math.inf, max_time, goal_tolerance,
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
    state = RobotState(Pose2D(x, y, theta), 0.0, 0.0)
    velocity_noise = noise.sigma_v > 0.0 or noise.sigma_omega > 0.0
    goal_x, goal_y = float(path.goal[0]), float(path.goal[1])

    def at_goal(pose):
        return math.hypot(pose.x - goal_x, pose.y - goal_y) <= goal_tolerance

    dt = limits.dt
    rows = []
    for step in range(int(round(max_time / dt))):
        if at_goal(state.pose):
            break
        try:
            projection = nearest_point_on_path(path, state.pose)
            command = compute_command(
                kind, state, path, projection, limits, lookahead, regulation, obstacle_distance
            )
            flags = _violation_flags_oracle(command, state, limits)
            executed = clip_to_feasible(command, state, limits)
            if velocity_noise:
                executed = VelocityCommand(
                    executed.v + (rng.normal(0.0, noise.sigma_v) if noise.sigma_v > 0.0 else 0.0),
                    executed.omega
                    + (rng.normal(0.0, noise.sigma_omega) if noise.sigma_omega > 0.0 else 0.0),
                )
                executed = clip_to_feasible(executed, state, limits)
            rows.append(
                (
                    step * dt,
                    state.pose.x, state.pose.y, state.pose.theta, state.v, state.omega,
                    command.v, command.omega, executed.v, executed.omega, *flags,
                    projection.distance, projection.arc_length,
                )
            )
            state = step_unicycle(state, executed, dt)
        except ParameterError as exc:
            raise SimulationDivergedError(f"step {step}: {exc}") from exc

    names = [field.name for field in fields(TrajectoryLog)]
    columns = list(zip(*rows)) if rows else [[] for _ in names]
    log = TrajectoryLog(
        **{
            name: np.array(column, dtype=bool if name.startswith("viol_") else float)
            for name, column in zip(names, columns)
        }
    )
    return ScenarioResult(log, at_goal(state.pose), len(log) * dt)
