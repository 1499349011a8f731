"""Command-velocity laws for path tracking.

Four variants map the curvature of the arc to the lookahead point to a
command: plain pure pursuit with a fixed lookahead, the adaptive variant that
scales the lookahead with speed, the regulated variant that additionally caps
the linear velocity with curvature and goal heuristics, and the
dynamic-window variant that selects the command inside the set of velocities
actually reachable in one control period. The simulator finds the curvature.
"""

from __future__ import annotations

import math

from .config import (
    FIXED_LOOKAHEAD, ControllerKind, KinodynamicLimits, LookaheadConfig, ParameterError, RegulationConfig,
)

# The per-step clamps spell out the builtins, saving a call each: max(a, b) is
# ``b if b > a else a`` and min(a, b) is ``b if b < a else a``, an operand
# order that keeps their results on ties (0.0 against -0.0) and NaN.


def require_finite_command(v: float, omega: float) -> None:
    """Raise :class:`ParameterError` unless both command velocities are finite."""
    if not (math.isfinite(v) and math.isfinite(omega)):
        raise ParameterError("command velocities must be finite")


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


def select_velocity(window: tuple, v_reg: float, curvature: float) -> tuple[float, float]:
    """DWPP's command: the point of the window, capped to v in [0, v_reg], closest to omega = curvature * v.

    ``window`` is the robot's ``window_bounds`` and ``v_reg``, which must be
    non-negative, the regulated speed. :func:`_clamp_range` first clamps
    [0, v_reg] into the window's [v_lo, v_hi]; if they do not overlap (the
    ceiling is unreachable this step, or the robot reverses faster than it
    can stop), the range collapses to the nearest window bound, so the robot
    brakes as hard as the window allows. With omega clamped into the window
    the distance to the line is piecewise linear in v, so the optimum is one
    clamp: v is where the line leaves through the omega bound it heads for,
    clamped into the capped range, and omega is the line at that v, clipped
    by :func:`clip_to_window`. Ties go to the larger v; zero curvature takes
    the capped v_hi and the feasible omega nearest zero. So the clip returns
    every selection unchanged.
    """
    if v_reg < 0.0:
        raise ParameterError("regulated velocity must be non-negative")
    v_lo, v_hi, omega_lo, omega_hi = window
    v_lo, v_hi = _clamp_range(0.0, v_reg, v_lo, v_hi)
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


def command_velocities(
    kind: ControllerKind,
    curvature: float,
    goal_distance: float,
    window: tuple,
    v_max: float,
    regulation_cfg: RegulationConfig,
) -> tuple[float, float]:
    """One control step of the selected tracking law, as ``(v, omega)``.

    ``curvature`` is that of the arc to the lookahead target, ``goal_distance``
    the non-negative arc length left to the goal (read by ``rpp`` and ``dwpp``)
    and ``window`` the robot's ``window_bounds`` (read by ``dwpp`` only); the
    nominal linear command is ``v_max``. Only ``dwpp`` guarantees its output is
    reachable within one control period; the others may command velocities the
    execution layer has to clip. The result is not checked for finiteness.
    """
    if kind is ControllerKind.PURE_PURSUIT or kind is ControllerKind.ADAPTIVE:
        return v_max, curvature * v_max
    v_reg = regulate_linear_velocity(v_max, curvature, goal_distance, regulation_cfg)
    if kind is ControllerKind.REGULATED:
        return v_reg, curvature * v_reg

    return select_velocity(window, v_reg, curvature)
