"""Deterministic discrete-time unicycle simulation.

The execution layer reproduces the gap between commanded and executed
velocities: every command is projected onto the currently reachable velocity
window. A dynamic-window command already lies inside it and executes
unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .controllers import (
    ControllerKind,
    KinodynamicLimits,
    LookaheadConfig,
    RegulationConfig,
    clip_to_window,
    command_velocities,
    reachable_velocities,
    require_finite_command,
    window_bounds,
)
from .errors import ParameterError, SimulationDivergedError
from .paths import (
    ReferencePath,
    project_onto_path,
    require_finite_pose,
    wrap_angle,
)

# Commands are flagged as violations only beyond this absolute slack.
_VIOLATION_TOL = 1e-9

# The four violation-flag cells of a CSV row, indexed by the flags as a 4-bit number.
_FLAG_CELLS = tuple(",".join(f"{code >> shift & 1}" for shift in (3, 2, 1, 0)) for code in range(16))


@dataclass(frozen=True)
class NoiseModel:
    """Optional seeded disturbances; all-zero sigmas give a deterministic run.

    ``sigma_pose_init`` perturbs the initial x/y (meters) and heading
    (radians). ``sigma_v``/``sigma_omega`` model actuation noise added to the
    executed command; the noisy velocities are re-projected onto the
    reachable window.
    """

    sigma_v: float = 0.0
    sigma_omega: float = 0.0
    sigma_pose_init: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("sigma_v", "sigma_omega", "sigma_pose_init"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ParameterError(f"noise sigmas must be finite and non-negative: {name}")
        if type(self.seed) is not int or self.seed < 0:
            raise ParameterError("seed must be a non-negative integer")


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
        size = self.t.size
        for field in fields(self):
            column = getattr(self, field.name)
            if column.size != size:
                raise ParameterError("log columns must have equal length")
            column.setflags(write=False)

    def __len__(self) -> int:
        return int(self.t.size)

    @property
    def any_violation(self) -> np.ndarray:
        """Per-step flag: the raw command violated at least one limit."""
        return self.viol_v | self.viol_w | self.viol_a | self.viol_alpha

    def to_csv(self, file: str | Path) -> None:
        """Write the CSV columns as ``csv.writer`` writes ``repr`` of each float and 0/1 flags.

        A ``v``/``omega`` cell with the bits of the previous row's
        ``v_exec``/``omega_exec``, and a ``v_cmd``/``omega_cmd`` cell with its
        own row's, reuses that string; every other float is formatted once.
        """
        floats = [getattr(self, name).astype(np.float64, copy=False) for name in self._COLUMNS[:10]]
        v_bits, omega_bits, v_cmd_bits, omega_cmd_bits, v_exec_bits, omega_exec_bits = (
            column.view(np.int64) for column in floats[4:]
        )
        # Bits 0 and 1: the v and omega cells are the previous row's exec cells;
        # bits 2 and 3: the v_cmd and omega_cmd cells are their own row's.
        reuse = (v_cmd_bits == v_exec_bits) * 4 + (omega_cmd_bits == omega_exec_bits) * 8
        reuse[1:] += (v_bits[1:] == v_exec_bits[:-1]) + (omega_bits[1:] == omega_exec_bits[:-1]) * 2
        flags = sum(getattr(self, name) * (8 >> bit) for bit, name in enumerate(self._COLUMNS[10:]))
        columns = [column.tolist() for column in floats]
        with open(file, "w", newline="") as handle:
            write = handle.write
            write(",".join(self._COLUMNS) + "\r\n")
            v_exec = omega_exec = ""
            for t, x, y, theta, v, omega, v_cmd, omega_cmd, v_next, omega_next, cells, flag in zip(
                *columns, reuse.tolist(), flags.tolist()
            ):
                v = v_exec if cells & 1 else repr(v)
                omega = omega_exec if cells & 2 else repr(omega)
                v_exec, omega_exec = repr(v_next), repr(omega_next)
                v_cmd = v_exec if cells & 4 else repr(v_cmd)
                omega_cmd = omega_exec if cells & 8 else repr(omega_cmd)
                write(
                    f"{t!r},{x!r},{y!r},{theta!r},{v},{omega},{v_cmd},{omega_cmd},"
                    f"{v_exec},{omega_exec},{_FLAG_CELLS[flag]}\r\n"
                )


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


def _violation_flags(
    v_cmd: float, omega_cmd: float, reachable: tuple, limits: KinodynamicLimits
) -> tuple[bool, bool, bool, bool]:
    """The raw command against the static limits and the ``reachable_velocities`` ranges."""
    v_lo, v_hi, omega_lo, omega_hi = reachable
    tol = _VIOLATION_TOL
    return (
        v_cmd > limits.v_max + tol or v_cmd < limits.v_min - tol,
        omega_cmd > limits.omega_max + tol or omega_cmd < limits.omega_min - tol,
        v_cmd > v_hi + tol or v_cmd < v_lo - tol,
        omega_cmd > omega_hi + tol or omega_cmd < omega_lo - tol,
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


def run_scenario(
    path: ReferencePath,
    kind: ControllerKind,
    limits: KinodynamicLimits,
    lookahead: LookaheadConfig,
    regulation: RegulationConfig,
    noise: NoiseModel | None = None,
    *,
    max_time: float,
    goal_tolerance: float,
) -> ScenarioResult:
    """Run one tracking scenario until the goal is reached or time runs out.

    Per step: project the pose onto the path once, compute the command from
    that projection, record violation flags against ``limits``, clip the
    command to the dynamic window of ``limits`` (a dynamic-window command is
    inside it and comes back unchanged), add the actuation noise and clip
    again, then integrate. The run ends as soon as the robot is within
    ``goal_tolerance`` of the final waypoint, tested before each step and
    after the last one; a start (after the pose noise) already within
    ``goal_tolerance`` raises :class:`ParameterError`. Identical inputs
    (including the noise seed) reproduce the log bit for bit.
    """
    if not limits.dt <= max_time < math.inf:
        raise ParameterError("max_time must be finite and at least limits.dt")
    if not 0.0 < goal_tolerance < math.inf:
        raise ParameterError("goal_tolerance must be positive and finite")
    if noise is None:
        noise = NoiseModel()
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
    dt = limits.dt
    rows: list[tuple] = []
    for step in range(int(round(max_time / dt))):
        if at_goal(x, y):
            break
        try:
            projection = project_onto_path(path, x, y)
            reachable = reachable_velocities(v, omega, limits)
            window = window_bounds(reachable, limits)
            v_cmd, omega_cmd = command_velocities(
                kind, x, y, theta, v, path, projection, window,
                limits, lookahead, regulation,
            )
            require_finite_command(v_cmd, omega_cmd)
            flags = _violation_flags(v_cmd, omega_cmd, reachable, limits)
            v_exec, omega_exec = clip_to_window(v_cmd, omega_cmd, window)
            if velocity_noise:
                v_exec += rng.normal(0.0, sigma_v) if sigma_v > 0.0 else 0.0
                omega_exec += rng.normal(0.0, sigma_omega) if sigma_omega > 0.0 else 0.0
                require_finite_command(v_exec, omega_exec)
                v_exec, omega_exec = clip_to_window(v_exec, omega_exec, window)
            rows.append(
                (
                    step * dt, x, y, theta, v, omega, v_cmd, omega_cmd, v_exec, omega_exec, *flags,
                    projection[3], projection[4],  # the projection's distance and arc length
                )
            )
            x, y, theta = arc_step(x, y, theta, v_exec, omega_exec, dt)
            require_finite_pose(x, y, theta)
            theta, v, omega = wrap_angle(theta), v_exec, omega_exec
        except ParameterError as exc:
            raise SimulationDivergedError(f"step {step}: {exc}") from exc

    names = [field.name for field in fields(TrajectoryLog)]
    columns = list(zip(*rows))  # never empty: max_time >= dt, and a start at the goal raises
    log = TrajectoryLog(
        **{
            name: np.array(column, dtype=bool if name.startswith("viol_") else float)
            for name, column in zip(names, columns)
        }
    )
    return ScenarioResult(log, at_goal(x, y), len(log) * dt)
