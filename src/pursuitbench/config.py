"""Every config type, the rule for what each field takes, and the one exception the package raises.

Each config dataclass alone checks its field types, then its ranges. The
loader, in ``harness``, only maps YAML onto these classes; this module
imports no other module of the package.
"""

from __future__ import annotations

import contextlib
import enum
import math
import numbers
import os
import sys
from dataclasses import dataclass, fields
from functools import cache
from typing import get_origin, get_type_hints


class ParameterError(ValueError):
    """A value outside a contract, a config that does not load, or a run whose state stopped being finite."""


FIXED_LOOKAHEAD = "fixed"
VELOCITY_SCALED_LOOKAHEAD = "velocity_scaled"

COMBINE_LOWER_BOUND = "lower_bound"

# The most waypoints a corner path may have: with its projection grid, a path takes about 870 bytes per waypoint.
MAX_CORNER_WAYPOINTS = 1_000_000

# The most steps a run may take: a run and its log hold about 150 bytes per step.
MAX_RUN_STEPS = 6_000_000

# How an error names what a config field of each type takes.
_EXPECTED = {float: "a finite number", int: "an integer", bool: "true or false", str: "a string"}


def require_type(name: str, value, kind: type):
    """``value`` as a config field ``name`` of type ``kind`` stores it, else :class:`ParameterError`.

    A float field takes any real number but a bool whose float value is
    finite (ints and numpy floats included) and stores that float, so no
    float field is NaN or infinite. Any other field, a nested config
    included, takes exactly its type. The loader leaves each value to its
    dataclass, so a loaded config fails in these words, after the section name.
    """
    if kind is float and isinstance(value, numbers.Real) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # an int beyond the float range is no float
            number = float(value)
            if math.isfinite(number):
                return number
    elif type(value) is kind:
        return value
    raise ParameterError(f"{name} must be {_EXPECTED.get(kind, f'of type {kind.__name__}')}, got {value!r}")


@cache
def _typed_fields(cls: type) -> dict[str, type]:
    """The resolved annotation of each field of dataclass ``cls``, ``tuple`` for a tuple's, in field order."""
    hints = get_type_hints(cls)
    return {field.name: get_origin(hints[field.name]) or hints[field.name] for field in fields(cls)}


def require_field_types(config) -> None:
    """:func:`require_type` for each field of a config dataclass; a tuple's owner then checks each entry."""
    for name, kind in _typed_fields(type(config)).items():
        object.__setattr__(config, name, require_type(name, getattr(config, name), kind))


def _require_positive(config, *names: str) -> None:
    """:class:`ParameterError` for the first of the fields ``names`` of ``config`` that is not above 0."""
    for name in names:
        if not getattr(config, name) > 0.0:
            raise ParameterError(f"{name} must be positive")


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
        _require_positive(self, "accel_max", "decel_max", "ang_accel_max", "ang_decel_max", "dt")


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
        _require_positive(self, "projection_time", "fixed_distance")


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
        _require_positive(self, "min_turn_radius", "proximity_threshold")
        if not 0.0 < self.proximity_gain <= 1.0:
            raise ParameterError("proximity_gain must be in (0, 1]")
        _require_positive(self, "goal_slowdown_distance")
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
        _require_positive(self, "steering_time_constant", "min_dimensionless_lookahead")


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
        require_field_types(self)
        for name in ("sigma_v", "sigma_omega", "sigma_pose_init"):
            if getattr(self, name) < 0.0:
                raise ParameterError(f"noise sigmas must be non-negative: {name}")
        if self.seed < 0:
            raise ParameterError("seed must be a non-negative integer")


@dataclass(frozen=True)
class CornerPathSpec:
    """Two equal straight legs joined at a single corner.

    ``corner_angle`` is the counter-clockwise heading change between the legs
    and must stay strictly inside (0, pi); 0 would be a straight line and pi a
    fold back onto the first leg.
    """

    segment_length: float = 3.0
    corner_angle: float = math.radians(90.0)
    waypoint_spacing: float = 0.05

    def __post_init__(self) -> None:
        require_field_types(self)
        _require_positive(self, "segment_length")
        if not (0.0 < self.waypoint_spacing < self.segment_length):
            raise ParameterError("waypoint_spacing must be in (0, segment_length)")
        # Each leg has round(segment_length / waypoint_spacing) intervals: finitely many, and few enough.
        ratio = f"{self.segment_length!r} / {self.waypoint_spacing!r}"
        if not math.isfinite(self.segment_length / self.waypoint_spacing):
            raise ParameterError(f"segment_length / waypoint_spacing must be finite, got {ratio}")
        waypoints = 2 * max(1, round(self.segment_length / self.waypoint_spacing)) + 1
        if waypoints > MAX_CORNER_WAYPOINTS:
            raise ParameterError(
                f"segment_length / waypoint_spacing = {ratio} makes {waypoints} waypoints;"
                f" a corner path takes at most {MAX_CORNER_WAYPOINTS}"
            )
        if not (0.0 < self.corner_angle < math.pi):
            raise ParameterError("corner_angle must be strictly inside (0, pi)")


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully validated experiment; the defaults are ``experiment_table1``."""

    limits: KinodynamicLimits = KinodynamicLimits()
    lookahead: LookaheadConfig = LookaheadConfig()
    regulation: RegulationConfig = RegulationConfig()
    stability: StabilityConfig = StabilityConfig()
    paths: tuple[tuple[str, CornerPathSpec], ...] = tuple(
        (name, CornerPathSpec(corner_angle=math.radians(angle)))
        for name, angle in (("A", 45.0), ("B", 90.0), ("C", 135.0))
    )
    controllers: tuple[ControllerKind, ...] = tuple(ControllerKind)
    trials: int = 5
    # Experiments perturb the initial pose; a bare ``NoiseModel()`` is noise-free.
    noise: NoiseModel = NoiseModel(sigma_pose_init=0.01, seed=7)
    goal_tolerance: float = 0.15
    max_time: float = 60.0
    output_dir: str = "results"

    def __post_init__(self) -> None:
        require_field_types(self)
        if not (self.paths and self.controllers):
            raise ParameterError("paths and controllers must be non-empty")
        for position, entry in enumerate(self.paths):
            if type(entry) is not tuple or len(entry) != 2:
                raise ParameterError(f"paths[{position}] must be a (name, spec) pair, got {entry!r}")
            name, spec = entry
            require_type(f"paths[{position}]: name", name, str)
            require_type(f"paths[{position}]: spec", spec, CornerPathSpec)
            if not name:
                raise ParameterError(f"paths[{position}]: name must be non-empty")
            if name in [other for other, _ in self.paths[:position]]:
                raise ParameterError(f"paths[{position}]: duplicate path name '{name}'")
            # A name becomes part of its output file names and of the report.
            try:
                os.fsencode(name)
            except UnicodeEncodeError:
                encoding = sys.getfilesystemencoding()
                raise ParameterError(f"paths[{position}]: name {name!r} is not a file name in {encoding}") from None
            for char in name:
                if char in ("/", os.sep, os.altsep) or not char.isprintable():
                    raise ParameterError(f"paths[{position}]: name {name!r} must not contain {char!r}")
        for position, kind in enumerate(self.controllers):
            require_type(f"controllers[{position}]", kind, ControllerKind)
            if kind in self.controllers[:position]:
                raise ParameterError(f"controllers[{position}]: duplicate controller '{kind.value}'")
        if self.trials < 1:
            raise ParameterError(f"trials must be at least 1, got {self.trials!r}")
        # A run takes round(max_time / dt) steps: at least one, and few enough.
        max_time, dt = self.max_time, self.limits.dt
        if max_time < dt:
            raise ParameterError(f"max_time must be at least limits.dt ({dt:g} s), got {max_time!r}")
        if not math.isfinite(max_time / dt):
            raise ParameterError(f"max_time / limits.dt must be finite, got {max_time!r} / {dt!r}")
        steps = round(max_time / dt)
        if steps > MAX_RUN_STEPS:
            raise ParameterError(
                f"max_time / limits.dt = {max_time!r} / {dt!r} makes {steps} steps; a run takes at most {MAX_RUN_STEPS}"
            )
        if not self.goal_tolerance > 0.0:
            raise ParameterError(f"goal_tolerance must be positive, got {self.goal_tolerance!r}")
        if not self.output_dir:
            raise ParameterError("output_dir must be non-empty")


@dataclass(frozen=True)
class SweepConfig:
    """A base experiment plus the fixed lookahead values to sweep over."""

    base: ExperimentConfig = ExperimentConfig()
    lookahead_values: tuple[float, ...] = (0.26, 0.39, 0.52, 0.65, 0.78, 0.91, 1.04)

    def __post_init__(self) -> None:
        require_field_types(self)
        values = self.lookahead_values
        values = tuple(require_type(f"lookahead_values[{i}]", value, float) for i, value in enumerate(values))
        object.__setattr__(self, "lookahead_values", values)
        if not values or not all(a < b for a, b in zip((0.0, *values), values)):
            raise ParameterError("lookahead_values must be non-empty, positive and strictly increasing")
