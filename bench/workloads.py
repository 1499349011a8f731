"""The benchmark's workloads: each one builds its YAML config from a seed.

The configs are written out here in full rather than read from the package's
shipped profiles, so the benchmark's inputs stay fixed when the package
changes. ``sample.py`` checks that the ``table1`` and ``sweep6`` configs
still load to the same objects as the shipped profiles, apart from the seed.

Stdlib only: ``run.py`` imports this module without importing the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

# The noise seed of both shipped profiles; golden digests hold at this seed.
DEFAULT_SEED = 7

_LIMITS_TABLE1 = {
    "v_max": 0.5, "v_min": 0.0, "omega_max": 1.0, "omega_min": -1.0,
    "accel_max": 0.5, "decel_max": 0.5, "ang_accel_max": 1.0, "ang_decel_max": 1.0,
    "dt": 0.033,
}
_LOOKAHEAD_TABLE1 = {
    "mode": "velocity_scaled", "fixed_distance": 0.6, "min_distance": 0.3,
    "max_distance": 0.7, "projection_time": 1.4,
}
_REGULATION_TABLE1 = {
    "enable_curvature": True, "min_turn_radius": 0.9,
    "enable_proximity": False, "proximity_threshold": 1.0, "proximity_gain": 0.5,
    "enable_goal": True, "goal_slowdown_distance": 1.0,
    "min_regulated_speed": 0.25, "min_approach_speed": 0.05,
    "combination_mode": "lower_bound",
}
_CONTROLLERS = ["pp", "app", "rpp", "dwpp"]


def _corner(name: str, angle_deg: float, length: float, spacing: float) -> dict:
    return {
        "name": name, "corner_angle_deg": angle_deg,
        "segment_length": length, "waypoint_spacing": spacing,
    }


def _table1(seed: int) -> dict:
    """The ``experiment_table1`` profile with the given noise seed."""
    return {
        "limits": dict(_LIMITS_TABLE1),
        "lookahead": dict(_LOOKAHEAD_TABLE1),
        "regulation": dict(_REGULATION_TABLE1),
        "stability": {"steering_time_constant": 0.4, "min_dimensionless_lookahead": 2.0},
        "paths": [
            _corner("A", 45.0, 3.0, 0.05),
            _corner("B", 90.0, 3.0, 0.05),
            _corner("C", 135.0, 3.0, 0.05),
        ],
        "controllers": list(_CONTROLLERS),
        "trials": 5,
        "noise": {"sigma_v": 0.0, "sigma_omega": 0.0, "sigma_pose_init": 0.01, "seed": seed},
        "goal_tolerance": 0.15,
        "max_time": 60.0,
        "output_dir": "results",
    }


def _sweep6(seed: int) -> dict:
    """The ``simulation_table6`` profile with the given noise seed."""
    return {
        "limits": {
            "v_max": 0.26, "v_min": 0.0, "omega_max": 0.5, "omega_min": -0.5,
            "accel_max": 0.26, "decel_max": 0.26, "ang_accel_max": 0.5, "ang_decel_max": 0.5,
            "dt": 0.033,
        },
        "lookahead": {
            "mode": "fixed", "fixed_distance": 0.52, "min_distance": 0.3,
            "max_distance": 0.7, "projection_time": 1.4,
        },
        "regulation": {"enable_curvature": False, "enable_proximity": False, "enable_goal": False},
        "paths": [_corner("C", 135.0, 3.0, 0.05)],
        "controllers": ["dwpp"],
        "trials": 1,
        "noise": {"sigma_v": 0.0, "sigma_omega": 0.0, "sigma_pose_init": 0.0, "seed": seed},
        "lookahead_values": [0.26, 0.39, 0.52, 0.65, 0.78, 0.91, 1.04],
        "goal_tolerance": 0.15,
        "max_time": 60.0,
        "output_dir": "results_sweep",
    }


def _longpath(seed: int) -> dict:
    """One 90-degree corner with 10 m legs at 0.01 m spacing: 2,000 segments."""
    return {
        "limits": dict(_LIMITS_TABLE1),
        "lookahead": dict(_LOOKAHEAD_TABLE1),
        "regulation": dict(_REGULATION_TABLE1),
        "paths": [_corner("L", 90.0, 10.0, 0.01)],
        "controllers": list(_CONTROLLERS),
        "trials": 2,
        "noise": {"sigma_v": 0.0, "sigma_omega": 0.0, "sigma_pose_init": 0.01, "seed": seed},
        "goal_tolerance": 0.15,
        "max_time": 120.0,
        "output_dir": "results",
    }


@dataclass(frozen=True)
class Workload:
    """One benchmark input and how it is run.

    ``command`` is ``compare`` (``run_comparison`` + ``emit_report``) or
    ``sweep`` (``run_lookahead_sweep``). ``profile`` names the shipped
    profile the config must match, if any. ``golden`` lists the output
    files whose digests are pinned at ``DEFAULT_SEED``; when
    ``seed_free`` is set the outputs do not depend on the seed (all noise
    sigmas are 0), so the digests are pinned at every seed.
    """

    command: str
    config: Callable[[int], dict]
    golden: tuple[str, ...]
    profile: str | None = None
    seed_free: bool = False


WORKLOADS = {
    "table1": Workload("compare", _table1, ("metrics.csv", "summary.csv"), "experiment_table1"),
    "sweep6": Workload("sweep", _sweep6, ("sweep.csv",), "simulation_table6", seed_free=True),
    "longpath": Workload("compare", _longpath, ("metrics.csv", "summary.csv")),
}
