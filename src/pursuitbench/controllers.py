"""Command-velocity laws for path tracking.

Four variants share the same geometric core (lookahead point and arc
curvature): plain pure pursuit with a fixed lookahead, the adaptive variant
that scales the lookahead with speed, the regulated variant that additionally
caps the linear velocity with curvature and goal heuristics, and the
dynamic-window variant that selects the command inside the set of velocities
actually reachable in one control period.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields

from .errors import ParameterError
from .paths import ReferencePath, arc_curvature, lookahead_point

FIXED_LOOKAHEAD = "fixed"
VELOCITY_SCALED_LOOKAHEAD = "velocity_scaled"

COMBINE_LOWER_BOUND = "lower_bound"


def _require_finite(config) -> None:
    """Reject the first float field of a config dataclass that is NaN or infinite."""
    for field in fields(config):
        value = getattr(config, field.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ParameterError(f"{field.name} must be finite")


class ControllerKind(enum.Enum):
    """The four tracking laws the benchmark compares."""

    PURE_PURSUIT = "pp"
    ADAPTIVE = "app"
    REGULATED = "rpp"
    DYNAMIC_WINDOW = "dwpp"

    @classmethod
    def from_name(cls, name: str) -> "ControllerKind":
        for kind in cls:
            if kind.value == name:
                return kind
        valid = ", ".join(kind.value for kind in cls)
        raise ParameterError(f"unknown controller '{name}' (expected one of: {valid})")


@dataclass(frozen=True)
class KinodynamicLimits:
    """Velocity and acceleration envelope plus the control period."""

    v_max: float = 0.5
    v_min: float = 0.0
    omega_max: float = 1.0
    omega_min: float = -1.0
    accel_max: float = 0.5
    decel_max: float = 0.5
    ang_accel_max: float = 1.0
    ang_decel_max: float = 1.0
    dt: float = 0.033

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.v_max < 0.0:
            raise ParameterError("v_max must be non-negative")
        # Every run starts at rest, so the static limits must contain v = omega = 0.
        if self.v_min > 0.0:
            raise ParameterError("v_min must not be positive (runs start at rest)")
        if self.omega_min > 0.0:
            raise ParameterError("omega_min must not be positive (runs start at rest)")
        if self.omega_max < 0.0:
            raise ParameterError("omega_max must not be negative (runs start at rest)")
        for name in ("accel_max", "decel_max", "ang_accel_max", "ang_decel_max"):
            if getattr(self, name) <= 0.0:
                raise ParameterError(f"{name} must be positive")
        if self.dt <= 0.0:
            raise ParameterError("dt must be positive")


def require_finite_command(v: float, omega: float) -> None:
    """Raise :class:`ParameterError` unless both command velocities are finite."""
    if not (math.isfinite(v) and math.isfinite(omega)):
        raise ParameterError("command velocities must be finite")


@dataclass(frozen=True)
class LookaheadConfig:
    """How the lookahead distance is chosen.

    ``velocity_scaled`` projects the current speed ``projection_time`` seconds
    ahead and clamps the result to [min_distance, max_distance]; ``fixed``
    always uses ``fixed_distance``.
    """

    mode: str = VELOCITY_SCALED_LOOKAHEAD
    fixed_distance: float = 0.6
    min_distance: float = 0.3
    max_distance: float = 0.7
    projection_time: float = 1.4

    def __post_init__(self) -> None:
        if self.mode not in (FIXED_LOOKAHEAD, VELOCITY_SCALED_LOOKAHEAD):
            raise ParameterError(
                f"mode must be '{FIXED_LOOKAHEAD}' or '{VELOCITY_SCALED_LOOKAHEAD}'"
            )
        _require_finite(self)
        if not 0.0 < self.min_distance <= self.max_distance:
            raise ParameterError("need 0 < min_distance <= max_distance")
        if not self.projection_time > 0.0:
            raise ParameterError("projection_time must be positive")
        if not self.fixed_distance > 0.0:
            raise ParameterError("fixed_distance must be positive")


@dataclass(frozen=True)
class RegulationConfig:
    """Linear-velocity regulation heuristics.

    ``min_regulated_speed`` and ``min_approach_speed`` are floors under the
    curvature- and goal-scaled velocities. ``combination_mode`` names that
    rule and must be ``lower_bound``; it is kept so that configs which spell
    it out still load. The benchmark has no obstacles, so
    ``enable_proximity``, ``proximity_threshold`` and ``proximity_gain`` are
    checked but have no effect.
    """

    enable_curvature: bool = True
    min_turn_radius: float = 0.9
    enable_proximity: bool = False
    proximity_threshold: float = 1.0
    proximity_gain: float = 0.5
    enable_goal: bool = True
    goal_slowdown_distance: float = 1.0
    min_regulated_speed: float = 0.25
    min_approach_speed: float = 0.05
    combination_mode: str = COMBINE_LOWER_BOUND

    def __post_init__(self) -> None:
        _require_finite(self)
        if not self.min_turn_radius > 0.0:
            raise ParameterError("min_turn_radius must be positive")
        if not self.proximity_threshold > 0.0:
            raise ParameterError("proximity_threshold must be positive")
        if not 0.0 < self.proximity_gain <= 1.0:
            raise ParameterError("proximity_gain must be in (0, 1]")
        if not self.goal_slowdown_distance > 0.0:
            raise ParameterError("goal_slowdown_distance must be positive")
        for name in ("min_regulated_speed", "min_approach_speed"):
            if not getattr(self, name) >= 0.0:
                raise ParameterError(f"{name} must be non-negative")
        if self.combination_mode != COMBINE_LOWER_BOUND:
            raise ParameterError(f"combination_mode must be '{COMBINE_LOWER_BOUND}'")


@dataclass(frozen=True)
class StabilityConfig:
    """Advisory stability threshold on the lookahead distance."""

    steering_time_constant: float = 0.4
    min_dimensionless_lookahead: float = 2.0

    def __post_init__(self) -> None:
        _require_finite(self)
        if not self.steering_time_constant > 0.0:
            raise ParameterError("steering_time_constant must be positive")
        if not self.min_dimensionless_lookahead > 0.0:
            raise ParameterError("min_dimensionless_lookahead must be positive")


def operative_lookahead(kind: ControllerKind, cfg: LookaheadConfig, v: float) -> float:
    """Lookahead distance the given law uses at speed ``v``.

    Plain pure pursuit always uses the fixed distance and the adaptive variant
    always scales it with speed; the regulated and dynamic-window variants
    honor ``cfg.mode``.
    """
    if kind is ControllerKind.PURE_PURSUIT or (
        kind is not ControllerKind.ADAPTIVE and cfg.mode == FIXED_LOOKAHEAD
    ):
        return cfg.fixed_distance
    return min(max(v * cfg.projection_time, cfg.min_distance), cfg.max_distance)


def curvature_heuristic(v: float, turn_radius: float, min_radius: float) -> float:
    """Scale the speed down linearly once the turn radius drops to ``min_radius``."""
    if turn_radius > min_radius:
        return v
    return v * turn_radius / min_radius


def goal_heuristic(v: float, goal_distance: float, slowdown_distance: float) -> float:
    """Scale the speed down linearly over the final ``slowdown_distance``."""
    if goal_distance > slowdown_distance:
        return v
    return v * goal_distance / slowdown_distance


def regulate_linear_velocity(
    v_cmd: float, curvature: float, goal_distance: float, cfg: RegulationConfig
) -> float:
    """Apply the enabled speed heuristics to a nominal linear command.

    Curvature scaling acts first, then goal slowdown, each floored by its
    minimum speed (``min_regulated_speed``, ``min_approach_speed``) and
    never raised above the stage before it; disabled heuristics impose no
    cap. The result never exceeds ``v_cmd``.
    """
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


def _clamp_range(lo: float, hi: float, lo_bound: float, hi_bound: float) -> tuple[float, float]:
    """The range [lo, hi] with each end clamped into [lo_bound, hi_bound].

    Each end meets its own bound first (``max`` for the low end, ``min`` for
    the high end), so a range that overlaps the bounds is intersected with
    them exactly; one that misses them collapses to the bound nearest to it.
    """
    return min(max(lo_bound, lo), hi_bound), max(min(hi_bound, hi), lo_bound)


def reachable_velocities(
    v: float, omega: float, limits: KinodynamicLimits
) -> tuple[float, float, float, float]:
    """``(v_lo, v_hi, omega_lo, omega_hi)`` that one control period of acceleration reaches.

    The ranges start from (v, omega) and ignore the static limits;
    :func:`window_bounds` clamps them into those limits.
    """
    dt = limits.dt
    return (
        v - limits.decel_max * dt,
        v + limits.accel_max * dt,
        omega - limits.ang_decel_max * dt,
        omega + limits.ang_accel_max * dt,
    )


def window_bounds(reachable: tuple, limits: KinodynamicLimits) -> tuple[float, float, float, float]:
    """The dynamic window ``(v_lo, v_hi, omega_lo, omega_hi)`` from ``reachable_velocities(...)``.

    These are the velocities reachable within one control period, clamped
    into the static limits. A state outside the static limits cannot
    re-enter them in one step; its window collapses to the nearest static
    bound.
    """
    v_lo, v_hi, omega_lo, omega_hi = reachable
    return (
        *_clamp_range(v_lo, v_hi, limits.v_min, limits.v_max),
        *_clamp_range(omega_lo, omega_hi, limits.omega_min, limits.omega_max),
    )


def regulated_range(v_lo: float, v_hi: float, v_reg: float) -> tuple[float, float]:
    """Clamp the admissible linear range [0, v_reg] into the window's [v_lo, v_hi].

    The result never leaves the window. When the two ranges do not overlap
    (the regulated ceiling is unreachable this step, or the robot is reversing
    faster than it can stop), the linear range collapses to the window bound
    nearest to them: the robot brakes as hard as the window allows.
    """
    if v_reg < 0.0:
        raise ParameterError("regulated velocity must be non-negative")
    return _clamp_range(0.0, v_reg, v_lo, v_hi)


def select_velocity(
    v_lo: float, v_hi: float, omega_lo: float, omega_hi: float, curvature: float
) -> tuple[float, float]:
    """The dynamic-window law's command: the point of the window closest to omega = curvature * v.

    This is DWPP's rule: in the (v, omega) plane, select the command as the
    point within the dynamic window [v_lo, v_hi] x [omega_lo, omega_hi] that
    is closest to the tracking line omega = curvature * v. Ties go to the
    larger v. With omega clamped into the window the distance is
    piecewise linear in v, so the optimum is one clamp: v is where the line
    leaves through the omega bound it heads for, clamped into [v_lo, v_hi],
    and omega is the line at that v, clamped into [omega_lo, omega_hi]. Zero
    curvature takes v_hi and the feasible omega nearest zero.
    """
    if curvature == 0.0:
        return v_hi, min(max(0.0, omega_lo), omega_hi)
    bound = omega_hi if curvature > 0.0 else omega_lo
    v = bound / curvature  # where the line leaves through the omega bound
    if v_lo <= v < v_hi:
        return v, bound  # on the line; curvature * v could round past bound
    v = min(max(v, v_lo), v_hi)
    return v, min(max(curvature * v, omega_lo), omega_hi)


def min_stable_lookahead(v: float, cfg: StabilityConfig) -> float:
    """Smallest lookahead distance the stability advisory accepts at speed ``v``."""
    return v * cfg.steering_time_constant * cfg.min_dimensionless_lookahead


def command_velocities(
    kind: ControllerKind,
    x: float,
    y: float,
    theta: float,
    v: float,
    path: ReferencePath,
    projection: tuple,
    window: tuple,
    limits: KinodynamicLimits,
    lookahead_cfg: LookaheadConfig,
    regulation_cfg: RegulationConfig,
) -> tuple[float, float]:
    """One control step of the selected tracking law, as ``(v, omega)``.

    The robot is at (x, y) with heading ``theta`` and speed ``v``;
    ``projection`` is ``project_onto_path(path, x, y)`` and ``window`` the
    robot's ``window_bounds``, which only the dynamic-window law reads. The
    lookahead distance comes from :func:`operative_lookahead` and the
    nominal linear command is ``limits.v_max``. Only the dynamic-window
    variant guarantees its output is reachable within one control period; the
    other laws may command velocities the execution layer has to clip. The
    result is not checked for finiteness.
    """
    px, py, segment_index, _, arc_length = projection
    lookahead = operative_lookahead(kind, lookahead_cfg, v)
    curvature = arc_curvature(
        x, y, theta, *lookahead_point(path, px, py, segment_index, arc_length, lookahead)
    )
    v_des = limits.v_max
    if kind is ControllerKind.PURE_PURSUIT or kind is ControllerKind.ADAPTIVE:
        return v_des, curvature * v_des

    goal_distance = max(0.0, path.length - arc_length)
    v_reg = regulate_linear_velocity(v_des, curvature, goal_distance, regulation_cfg)
    if kind is ControllerKind.REGULATED:
        return v_reg, curvature * v_reg

    v_lo, v_hi, omega_lo, omega_hi = window
    return select_velocity(*regulated_range(v_lo, v_hi, v_reg), omega_lo, omega_hi, curvature)
