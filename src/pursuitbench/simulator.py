"""Deterministic discrete-time unicycle simulation.

The execution layer reproduces the gap between commanded and executed
velocities: every command is projected onto the currently reachable velocity
window. A dynamic-window command already lies inside it and executes
unchanged.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .config import ControllerKind, ExperimentConfig, KinodynamicLimits, NoiseModel, ParameterError, require_type
from .controllers import (
    clip_to_window, command_velocities, operative_lookahead, reachable_velocities, require_finite_command,
    window_bounds,
)
from .paths import ReferencePath, arc_curvature, lookahead_point, project_onto_path, require_finite_pose, wrap_angle

# Commands are flagged as violations only beyond this absolute slack.
_VIOLATION_TOL = 1e-9

# The four violation-flag cells of a CSV row, indexed by the flags as a 4-bit number.
_FLAG_CELLS = tuple(",".join(f"{code >> shift & 1}" for shift in (3, 2, 1, 0)) for code in range(16))

# Rows per block of ``TrajectoryLog.to_csv``: each block is formatted and written before the next.
_CSV_BLOCK_ROWS = 256


@dataclass(frozen=True)
class TrajectoryLog:
    """Column-oriented per-step record of a simulated run.

    CSV columns: time, pose and state velocities at command time, the raw
    command, the executed velocities, and the four violation flags (raw
    command vs. the velocity / acceleration limits). In memory only: ``cte``
    and ``arc_length``, the distance and arc length of each pose's projection.
    """

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    theta: np.ndarray
    v: np.ndarray
    omega: np.ndarray
    v_cmd: np.ndarray
    omega_cmd: np.ndarray
    v_exec: np.ndarray
    omega_exec: np.ndarray
    viol_v: np.ndarray
    viol_w: np.ndarray
    viol_a: np.ndarray
    viol_alpha: np.ndarray
    cte: np.ndarray
    arc_length: np.ndarray

    _COLUMNS = (
        "t", "x", "y", "theta", "v", "omega", "v_cmd", "omega_cmd",
        "v_exec", "omega_exec", "viol_v", "viol_w", "viol_a", "viol_alpha",
    )

    def __post_init__(self) -> None:
        # Each column is a read-only view: the caller's arrays stay writable, and nothing is copied.
        size = self.t.size
        for field in fields(self):
            column = getattr(self, field.name).view()
            if column.size != size:
                raise ParameterError("log columns must have equal length")
            if field.name.startswith("viol_") and column.dtype != bool:
                raise ParameterError(f"{field.name} must be a boolean column, got dtype {column.dtype}")
            column.setflags(write=False)
            object.__setattr__(self, field.name, column)

    def __len__(self) -> int:
        return int(self.t.size)

    @property
    def any_violation(self) -> np.ndarray:
        """Per-step flag: the raw command violated at least one limit."""
        return self.viol_v | self.viol_w | self.viol_a | self.viol_alpha

    def to_csv(self, file: str | Path) -> None:
        """Write the CSV columns as ``csv.writer`` writes ``repr`` of each float and 0/1 flags.

        The rows are formatted and written one block of ``_CSV_BLOCK_ROWS`` at
        a time, so the writer's memory does not grow with the log. Within a
        block, each distinct bit pattern among the float cells is formatted
        once, and every cell with those bits writes that string.
        """
        floats = [getattr(self, name) for name in self._COLUMNS[:10]]
        flags = [getattr(self, name) for name in self._COLUMNS[10:]]
        with open(file, "w", newline="", encoding="utf-8") as handle:
            handle.write(",".join(self._COLUMNS) + "\r\n")
            for start in range(0, len(self), _CSV_BLOCK_ROWS):
                rows = slice(start, start + _CSV_BLOCK_ROWS)
                block = np.column_stack([column[rows] for column in floats]).astype(np.float64, copy=False)
                bits, index = np.unique(block.view(np.int64).ravel(), return_inverse=True)
                texts = np.array([*map(repr, bits.view(np.float64).tolist()), *_FLAG_CELLS], dtype=object)
                codes = sum(column[rows] * (8 >> bit) for bit, column in enumerate(flags))
                cells = texts[np.column_stack((index.reshape(block.shape), codes + len(bits)))]
                handle.writelines(",".join(row) + "\r\n" for row in cells.tolist())


@dataclass(frozen=True)
class ScenarioResult:
    """Outcome of one simulated tracking run."""

    log: TrajectoryLog
    reached_goal: bool
    travel_time: float


def arc_step(
    x: float, y: float, theta: float, v: float, omega: float, dt: float
) -> tuple[float, float, float]:
    """Advance the pose (x, y, theta) along the exact constant-velocity arc for ``dt`` seconds.

    The heading comes back unwrapped.
    """
    if abs(omega) > 1e-9:
        radius = v / omega
        return (
            x + radius * (math.sin(theta + omega * dt) - math.sin(theta)),
            y - radius * (math.cos(theta + omega * dt) - math.cos(theta)),
            theta + omega * dt,
        )
    return x + v * math.cos(theta) * dt, y + v * math.sin(theta) * dt, theta + omega * dt


def _violation_flags(v_cmd, omega_cmd, v, omega, limits: KinodynamicLimits) -> tuple:
    """The raw commands against the static limits and the ``reachable_velocities`` of (v, omega).

    The comparisons join with ``|``, so one call flags a run's whole log columns.
    """
    v_lo, v_hi, omega_lo, omega_hi = reachable_velocities(v, omega, limits)
    tol = _VIOLATION_TOL
    return (
        (v_cmd > limits.v_max + tol) | (v_cmd < limits.v_min - tol),
        (omega_cmd > limits.omega_max + tol) | (omega_cmd < limits.omega_min - tol),
        (v_cmd > v_hi + tol) | (v_cmd < v_lo - tol),
        (omega_cmd > omega_hi + tol) | (omega_cmd < omega_lo - tol),
    )


def _initial_pose(
    path: ReferencePath, noise: NoiseModel, rng: np.random.Generator | None
) -> tuple[float, float, float]:
    """``(x, y, theta)`` at the first waypoint, heading along the first segment, perturbed by ``noise``.

    The heading is wrapped to (-pi, pi].
    """
    first, second = path.waypoints[0], path.waypoints[1]
    x, y = float(first[0]), float(first[1])
    theta = math.atan2(float(second[1] - first[1]), float(second[0] - first[0]))
    if noise.sigma_pose_init > 0.0:
        sigma = noise.sigma_pose_init
        x += rng.normal(0.0, sigma)
        y += rng.normal(0.0, sigma)
        theta += rng.normal(0.0, sigma)
    require_finite_pose(x, y, theta)
    return x, y, wrap_angle(theta)


def run_scenario(path: ReferencePath, kind: ControllerKind, config: ExperimentConfig) -> ScenarioResult:
    """Run one tracking scenario under ``config`` until the goal is reached or time runs out.

    It reads the config's ``limits``, ``lookahead``, ``regulation``,
    ``noise``, ``max_time`` and ``goal_tolerance``, each validated when the
    config was built; ``config.noise`` is taken as it stands, so a noise-free
    run is a config with ``noise=NoiseModel()``. ``kind`` must be a
    :class:`ControllerKind`.

    Per step: project the pose onto the path once; from that projection find
    the curvature of the arc to the lookahead target and the arc length left to
    the goal; compute the law's command from them and the dynamic window of
    ``limits``; clip the command to the window (a dynamic-window command is
    inside it and comes back unchanged), add the actuation noise and clip
    again, append the nine values the step computed to one flat ``array("d")``,
    then integrate. No per-step tuple or float object is kept: the log's nine
    columns are views of that record, and the time, state velocities and
    violation flags follow from them once per run. The run ends as soon as the
    robot is within ``goal_tolerance`` of the final waypoint, tested before
    each step and after the last one; a start (after the pose noise) already
    within ``goal_tolerance`` raises :class:`ParameterError`. Identical inputs
    (including the noise seed) reproduce the log bit for bit.
    """
    limits, lookahead, regulation, noise = config.limits, config.lookahead, config.regulation, config.noise
    max_time, goal_tolerance = config.max_time, config.goal_tolerance
    require_type("kind", kind, ControllerKind)
    sigma_v, sigma_omega = noise.sigma_v, noise.sigma_omega
    velocity_noise = sigma_v > 0.0 or sigma_omega > 0.0
    # A noise-free run draws nothing, so it never loads numpy.random.
    noisy = velocity_noise or noise.sigma_pose_init > 0.0
    rng = np.random.default_rng(noise.seed) if noisy else None
    x, y, theta = _initial_pose(path, noise, rng)
    v = omega = 0.0
    goal_x, goal_y = float(path.goal[0]), float(path.goal[1])

    def at_goal(x: float, y: float) -> bool:
        return math.hypot(x - goal_x, y - goal_y) <= goal_tolerance

    if at_goal(x, y):
        raise ParameterError(
            f"the start lies {math.hypot(x - goal_x, y - goal_y):.6g} m from the goal,"
            f" within goal_tolerance {goal_tolerance:g} m"
        )
    # The state is plain floats. Each step checks that the command (before
    # and after the actuation noise) and the new pose are finite; the state
    # velocities are then finite too, a clip of a finite command into a
    # finite window.
    dt, v_max, path_length = limits.dt, limits.v_max, path.length
    rows = array("d")  # the nine values of each step, back to back
    for step in range(int(round(max_time / dt))):
        if at_goal(x, y):
            break
        try:
            projection = project_onto_path(path, x, y)
            target = lookahead_point(path, projection, operative_lookahead(kind, lookahead, v))
            curvature = arc_curvature(x, y, theta, *target)
            goal_distance = path_length - projection[4]
            goal_distance = goal_distance if goal_distance > 0.0 else 0.0
            window = window_bounds(v, omega, limits)
            v_cmd, omega_cmd = command_velocities(kind, curvature, goal_distance, window, v_max, regulation)
            require_finite_command(v_cmd, omega_cmd)
            v_exec, omega_exec = clip_to_window(v_cmd, omega_cmd, window)
            if velocity_noise:
                v_exec += rng.normal(0.0, sigma_v) if sigma_v > 0.0 else 0.0
                omega_exec += rng.normal(0.0, sigma_omega) if sigma_omega > 0.0 else 0.0
                require_finite_command(v_exec, omega_exec)
                v_exec, omega_exec = clip_to_window(v_exec, omega_exec, window)
            rows.extend((x, y, theta, v_cmd, omega_cmd, v_exec, omega_exec, *projection[3:]))
            x, y, theta = arc_step(x, y, theta, v_exec, omega_exec, dt)
            require_finite_pose(x, y, theta)
            theta, v, omega = wrap_angle(theta), v_exec, omega_exec
        except ParameterError as exc:
            raise ParameterError(f"step {step}: {exc}") from exc

    reached_goal = at_goal(x, y)
    # Never empty: max_time >= dt, and a start at the goal raises.
    # The columns are views of the step record; nothing is copied.
    x, y, theta, v_cmd, omega_cmd, v_exec, omega_exec, cte, arc_length = np.frombuffer(rows).reshape(-1, 9).T
    # Each step starts from the previous step's executed velocities, the first from rest.
    v, omega = (np.concatenate(([0.0], column[:-1])) for column in (v_exec, omega_exec))
    log = TrajectoryLog(
        np.arange(x.size) * dt, x, y, theta, v, omega, v_cmd, omega_cmd, v_exec, omega_exec,
        *_violation_flags(v_cmd, omega_cmd, v, omega, limits), cte, arc_length,
    )
    return ScenarioResult(log, reached_goal, len(log) * dt)
