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
from dataclasses import dataclass

from .errors import ParameterError
from .paths import ReferencePath, arc_curvature, lookahead_point, require_field_types, require_type

FIXED_LOOKAHEAD = "fixed"
VELOCITY_SCALED_LOOKAHEAD = "velocity_scaled"

COMBINE_LOWER_BOUND = "lower_bound"

# The per-step clamps spell out the builtins, saving a call each: max(a, b) is
# ``b if b > a else a`` and min(a, b) is ``b if b < a else a``, an operand
# order that keeps their results on ties (0.0 against -0.0) and NaN.


class ControllerKind(enum.Enum):
    """The four tracking laws the benchmark compares."""

    PURE_PURSUIT = "pp"
    ADAPTIVE = "app"
    REGULATED = "rpp"
    DYNAMIC_WINDOW = "dwpp"

    @classmethod
    def _missing_(cls, name: object) -> None:
        """Reject a name that is no law's value, listing the valid ones."""
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
        require_field_types(self)
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


def require_run_bounds(max_time: float, goal_tolerance: float, limits: KinodynamicLimits) -> None:
    """Reject a ``max_time`` or ``goal_tolerance`` that is no finite number, below ``limits.dt`` or not positive.

    ``max_time / limits.dt``, the run's step count, must be finite too.
    """
    max_time = require_type("max_time", max_time, float)
    goal_tolerance = require_type("goal_tolerance", goal_tolerance, float)
    if max_time < limits.dt:
        raise ParameterError(f"max_time must be at least limits.dt ({limits.dt:g} s), got {max_time!r}")
    if not math.isfinite(max_time / limits.dt):
        raise ParameterError(f"max_time / limits.dt must be finite, got {max_time!r} / {limits.dt!r}")
    if not goal_tolerance > 0.0:
        raise ParameterError(f"goal_tolerance must be positive, got {goal_tolerance!r}")


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
        require_field_types(self)
        if self.mode not in (FIXED_LOOKAHEAD, VELOCITY_SCALED_LOOKAHEAD):
            raise ParameterError(
                f"mode must be '{FIXED_LOOKAHEAD}' or '{VELOCITY_SCALED_LOOKAHEAD}'"
            )
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
        require_field_types(self)
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
        require_field_types(self)
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
    lookahead = v * cfg.projection_time
    lookahead = cfg.min_distance if cfg.min_distance > lookahead else lookahead
    return cfg.max_distance if cfg.max_distance < lookahead else lookahead


def regulate_linear_velocity(
    v_cmd: float, curvature: float, goal_distance: float, cfg: RegulationConfig
) -> float:
    """Apply the enabled speed heuristics to a nominal linear command.

    Curvature scaling acts first, linear in the turn radius once it drops to
    ``min_turn_radius``, then goal slowdown, linear over the final
    ``goal_slowdown_distance``. Each is floored by its minimum speed
    (``min_regulated_speed``, ``min_approach_speed``) and never raised above
    the stage before it; disabled heuristics impose no cap. The result never
    exceeds ``v_cmd``.
    """
    v_turn = math.inf
    if cfg.enable_curvature:
        turn_radius = math.inf if curvature == 0.0 else 1.0 / abs(curvature)
        r_min = cfg.min_turn_radius
        v_turn = v_cmd if turn_radius > r_min else v_cmd * turn_radius / r_min
    floor = cfg.min_regulated_speed
    v_turn = floor if floor > v_turn else v_turn
    v_turn = v_turn if v_turn < v_cmd else v_cmd
    if not cfg.enable_goal:
        return v_turn
    d_slow = cfg.goal_slowdown_distance
    scaled = v_turn if goal_distance > d_slow else v_turn * goal_distance / d_slow
    floor = cfg.min_approach_speed
    scaled = floor if floor > scaled else scaled
    return scaled if scaled < v_turn else v_turn


def _clamp_range(lo: float, hi: float, lo_bound: float, hi_bound: float) -> tuple[float, float]:
    """The range [lo, hi] with each end clamped into [lo_bound, hi_bound].

    Each end meets its own bound first (``max`` for the low end, ``min`` for
    the high end), so a range that overlaps the bounds is intersected with
    them exactly; one that misses them collapses to the bound nearest to it.
    """
    lo = lo if lo > lo_bound else lo_bound
    hi = hi if hi < hi_bound else hi_bound
    return (hi_bound if hi_bound < lo else lo), (lo_bound if lo_bound > hi else hi)


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


def window_bounds(v: float, omega: float, limits: KinodynamicLimits) -> tuple[float, float, float, float]:
    """The dynamic window ``(v_lo, v_hi, omega_lo, omega_hi)`` of the state (v, omega).

    These are the :func:`reachable_velocities`, clamped into the static
    limits. A state outside the static limits cannot re-enter them in one
    step; its window collapses to the nearest static bound.
    """
    v_lo, v_hi, omega_lo, omega_hi = reachable_velocities(v, omega, limits)
    return _clamp_range(v_lo, v_hi, limits.v_min, limits.v_max) + _clamp_range(
        omega_lo, omega_hi, limits.omega_min, limits.omega_max
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


def clip_to_window(v: float, omega: float, window: tuple) -> tuple[float, float]:
    """Project (v, omega) onto the dynamic window ``window_bounds(...)``, one axis at a time.

    This is the execution layer's clip, which every law's command goes
    through. A command already inside the window comes back bit for bit.
    Each axis is ``min(max(value, lo), hi)``, spelled out.
    """
    v_lo, v_hi, omega_lo, omega_hi = window
    v = v_lo if v_lo > v else v
    omega = omega_lo if omega_lo > omega else omega
    return (v_hi if v_hi < v else v), (omega_hi if omega_hi < omega else omega)


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
    and omega is the line at that v, clipped into the window by
    :func:`clip_to_window`. Zero curvature takes v_hi and the feasible omega
    nearest zero. So the clip returns every selection unchanged.
    """
    window = (v_lo, v_hi, omega_lo, omega_hi)
    if curvature == 0.0:
        return clip_to_window(v_hi, 0.0, window)
    bound = omega_hi if curvature > 0.0 else omega_lo
    v = bound / curvature  # where the line leaves through the omega bound
    if v_lo <= v < v_hi:
        return v, bound  # on the line; curvature * v could round past bound
    v = v_lo if v_lo > v else v
    v = v_hi if v_hi < v else v
    return clip_to_window(v, curvature * v, window)


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

    goal_distance = path.length - arc_length
    goal_distance = goal_distance if goal_distance > 0.0 else 0.0
    v_reg = regulate_linear_velocity(v_des, curvature, goal_distance, regulation_cfg)
    if kind is ControllerKind.REGULATED:
        return v_reg, curvature * v_reg

    v_lo, v_hi, omega_lo, omega_hi = window
    return select_velocity(*regulated_range(v_lo, v_hi, v_reg), omega_lo, omega_hi, curvature)
