"""Experiment orchestration: config loading, comparison grid, lookahead sweep.

Configuration is a single YAML file. Every key is optional. A missing key in
the ``limits``, ``lookahead``, ``regulation``, ``stability`` or ``noise``
section takes the default of the dataclass that section builds, except that
``noise`` defaults to ``sigma_pose_init: 0.01`` and ``seed: 7``; with these
defaults a config equals the shipped ``experiment_table1`` profile. Unknown
keys are rejected. ``load_config`` accepts either a file path or the name of
a shipped profile (``experiment_table1``, ``simulation_table6``).
"""

from __future__ import annotations

import csv
import importlib.resources
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Mapping

import yaml

from .controllers import (
    FIXED_LOOKAHEAD,
    ControllerKind,
    KinodynamicLimits,
    LookaheadConfig,
    RegulationConfig,
    StabilityConfig,
    min_stable_lookahead,
    operative_lookahead,
)
from .errors import ConfigError, ParameterError, PursuitBenchError
from .metrics import AggregateMetrics, ScenarioMetrics, aggregate, cross_track_stats, scenario_metrics
from .paths import CornerPathSpec, generate_corner_path
from .simulator import NoiseModel, run_scenario

# The one place the YAML defaults differ from the dataclass defaults:
# experiments perturb the initial pose and seed their trials from 7, while a
# bare ``NoiseModel()`` stays noise-free for single runs and the sweep.
_NOISE_OVERRIDES = {"sigma_pose_init": 0.01, "seed": 7}
_PATH_ENTRY_DEFAULTS = {"name": "", "corner_angle_deg": 90.0, "segment_length": 3.0, "waypoint_spacing": 0.05}
_PATHS_DEFAULT = [
    {"name": "A", "corner_angle_deg": 45.0},
    {"name": "B", "corner_angle_deg": 90.0},
    {"name": "C", "corner_angle_deg": 135.0},
]
_CONTROLLERS_DEFAULT = ["pp", "app", "rpp", "dwpp"]
_LOOKAHEAD_VALUES_DEFAULT = [0.26, 0.39, 0.52, 0.65, 0.78, 0.91, 1.04]

PROFILE_NAMES = ("experiment_table1", "simulation_table6")


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully validated experiment description."""

    limits: KinodynamicLimits
    lookahead: LookaheadConfig
    regulation: RegulationConfig
    stability: StabilityConfig
    paths: tuple[tuple[str, CornerPathSpec], ...]
    controllers: tuple[ControllerKind, ...]
    trials: int
    noise: NoiseModel
    goal_tolerance: float
    max_time: float
    output_dir: str


@dataclass(frozen=True)
class SweepConfig:
    """A base experiment plus the fixed lookahead values to sweep over."""

    base: ExperimentConfig
    lookahead_values: tuple[float, ...]


_TOP_LEVEL_KEYS = {field.name for field in fields(ExperimentConfig)} | {"lookahead_values"}


def _read_config_text(source: str | Path) -> str:
    path = Path(source)
    if path.exists():
        return path.read_text()
    resource = importlib.resources.files("pursuitbench").joinpath("profiles", f"{source}.yaml")
    if resource.is_file():
        return resource.read_text()
    raise ConfigError(f"'{source}' is neither a config file nor a shipped profile {PROFILE_NAMES}")


def _section(raw: Mapping, key: str, cls, overrides: Mapping | None = None):
    """Build dataclass ``cls`` from ``raw[key]`` over ``overrides`` and its own defaults."""
    section = raw.get(key, {})
    if section is None:
        section = {}
    if not isinstance(section, Mapping):
        raise ConfigError(f"{key}: expected a mapping")
    unknown = set(section) - {field.name for field in fields(cls)}
    if unknown:
        raise ConfigError(f"{key}: unknown key '{sorted(unknown)[0]}'")
    return _build(cls, key, {**(overrides or {}), **section})


def _build(factory, key: str, values: Mapping):
    try:
        return factory(**values)
    except (ParameterError, TypeError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _parse_paths(raw: Mapping) -> tuple[tuple[str, CornerPathSpec], ...]:
    entries = raw.get("paths", _PATHS_DEFAULT)
    if not isinstance(entries, list) or not entries:
        raise ConfigError("paths: expected a non-empty list")
    parsed = []
    seen = set()
    for position, entry in enumerate(entries):
        if not isinstance(entry, Mapping):
            raise ConfigError(f"paths[{position}]: expected a mapping")
        unknown = set(entry) - set(_PATH_ENTRY_DEFAULTS)
        if unknown:
            raise ConfigError(f"paths[{position}]: unknown key '{sorted(unknown)[0]}'")
        merged = {**_PATH_ENTRY_DEFAULTS, **entry}
        name = merged["name"]
        if not isinstance(name, str) or not name:
            raise ConfigError(f"paths[{position}].name: expected a non-empty string")
        if name in seen:
            raise ConfigError(f"paths[{position}].name: duplicate path name '{name}'")
        seen.add(name)
        spec = _build(
            CornerPathSpec,
            f"paths[{position}]",
            {
                "segment_length": merged["segment_length"],
                "corner_angle": math.radians(merged["corner_angle_deg"]),
                "waypoint_spacing": merged["waypoint_spacing"],
            },
        )
        parsed.append((name, spec))
    return tuple(parsed)


def _parse_controllers(raw: Mapping) -> tuple[ControllerKind, ...]:
    names = raw.get("controllers", _CONTROLLERS_DEFAULT)
    if not isinstance(names, list) or not names:
        raise ConfigError("controllers: expected a non-empty list")
    try:
        return tuple(ControllerKind.from_name(name) for name in names)
    except ParameterError as exc:
        raise ConfigError(f"controllers: {exc}") from exc


def _parse_lookahead_values(raw: Mapping) -> tuple[float, ...]:
    values = raw.get("lookahead_values", _LOOKAHEAD_VALUES_DEFAULT)
    if not isinstance(values, list) or not values:
        raise ConfigError("lookahead_values: expected a non-empty list")
    floats = []
    for value in values:
        if not isinstance(value, (int, float)) or isinstance(value, bool) or value <= 0:
            raise ConfigError("lookahead_values: entries must be positive numbers")
        floats.append(float(value))
    if any(b <= a for a, b in zip(floats, floats[1:])):
        raise ConfigError("lookahead_values: entries must be strictly increasing")
    return tuple(floats)


def _parse_raw(source: str | Path) -> dict:
    text = _read_config_text(source)
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{source}: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, Mapping):
        raise ConfigError(f"{source}: top level must be a mapping")
    unknown = set(raw) - _TOP_LEVEL_KEYS
    if unknown:
        raise ConfigError(f"unknown key '{sorted(unknown)[0]}'")
    return dict(raw)


def _build_config(raw: Mapping) -> ExperimentConfig:
    trials = raw.get("trials", 5)
    if not isinstance(trials, int) or isinstance(trials, bool) or trials < 1:
        raise ConfigError("trials: must be a positive integer")
    goal_tolerance = raw.get("goal_tolerance", 0.15)
    if not isinstance(goal_tolerance, (int, float)) or goal_tolerance <= 0:
        raise ConfigError("goal_tolerance: must be a positive number")
    max_time = raw.get("max_time", 60.0)
    if not isinstance(max_time, (int, float)) or max_time <= 0:
        raise ConfigError("max_time: must be a positive number")
    output_dir = raw.get("output_dir", "results")
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError("output_dir: must be a non-empty string")
    return ExperimentConfig(
        limits=_section(raw, "limits", KinodynamicLimits),
        lookahead=_section(raw, "lookahead", LookaheadConfig),
        regulation=_section(raw, "regulation", RegulationConfig),
        stability=_section(raw, "stability", StabilityConfig),
        paths=_parse_paths(raw),
        controllers=_parse_controllers(raw),
        trials=trials,
        noise=_section(raw, "noise", NoiseModel, _NOISE_OVERRIDES),
        goal_tolerance=float(goal_tolerance),
        max_time=float(max_time),
        output_dir=output_dir,
    )


def load_config(source: str | Path = "experiment_table1") -> ExperimentConfig:
    """Load and validate an experiment config from a file or shipped profile."""
    return _build_config(_parse_raw(source))


def load_sweep_config(source: str | Path = "simulation_table6") -> SweepConfig:
    """Load a sweep description: a base config plus its ``lookahead_values``."""
    raw = _parse_raw(source)
    return SweepConfig(base=_build_config(raw), lookahead_values=_parse_lookahead_values(raw))


def _trial_noise(config: ExperimentConfig, trial: int) -> NoiseModel:
    # Single-trial runs stay unperturbed; SD columns need >= 2 trials anyway.
    sigma_pose = config.noise.sigma_pose_init if config.trials > 1 else 0.0
    return NoiseModel(
        sigma_v=config.noise.sigma_v,
        sigma_omega=config.noise.sigma_omega,
        sigma_pose_init=sigma_pose,
        seed=config.noise.seed + trial,
    )


_METRICS_HEADER = (
    "path", "controller", "trial", "seed",
    "violation_ratio", "mean_cte", "max_cte", "travel_time", "reached_goal",
)


def run_comparison(
    config: ExperimentConfig, out_dir: str | Path | None = None
) -> dict[tuple[str, str], AggregateMetrics]:
    """Run every (path, controller, trial) scenario and write CSV artifacts.

    Trial ``i`` uses seed ``noise.seed + i``. Outputs: one trajectory CSV per
    scenario, the generated reference paths, and ``metrics.csv`` with one row
    per scenario. Re-running the same config reproduces the files byte for
    byte.
    """
    out = Path(out_dir) if out_dir is not None else Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    aggregates: dict[tuple[str, str], AggregateMetrics] = {}
    metric_rows = []
    for name, spec in config.paths:
        reference = generate_corner_path(spec)
        reference.to_csv(out / f"path_{name}.csv")
        for kind in config.controllers:
            per_trial: list[ScenarioMetrics] = []
            for trial in range(config.trials):
                noise = _trial_noise(config, trial)
                try:
                    result = run_scenario(
                        reference,
                        kind,
                        config.limits,
                        config.lookahead,
                        config.regulation,
                        noise=noise,
                        max_time=config.max_time,
                        goal_tolerance=config.goal_tolerance,
                    )
                except PursuitBenchError as exc:
                    raise type(exc)(
                        f"path {name}, controller {kind.value}, trial {trial}: {exc}"
                    ) from exc
                result.log.to_csv(out / f"traj_{name}_{kind.value}_trial{trial}.csv")
                metrics = scenario_metrics(result, reference)
                per_trial.append(metrics)
                metric_rows.append(
                    (
                        name, kind.value, trial, noise.seed,
                        repr(metrics.violation_ratio), repr(metrics.mean_cte),
                        repr(metrics.max_cte), repr(metrics.travel_time),
                        int(metrics.reached_goal),
                    )
                )
            aggregates[(name, kind.value)] = aggregate(per_trial)
    with open(out / "metrics.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_METRICS_HEADER)
        writer.writerows(metric_rows)
    return aggregates


def run_lookahead_sweep(
    sweep: SweepConfig, out_dir: str | Path | None = None
) -> list[tuple[float, float, float]]:
    """Trade-off sweep: one dynamic-window run per fixed lookahead value.

    Uses the first configured path, forces the dynamic-window controller with
    a fixed lookahead, and disables every regulation heuristic so the sweep
    isolates the lookahead's effect. Returns and writes rows of
    (lookahead, mean_cte, travel_time) sorted by lookahead.
    """
    config = sweep.base
    out = Path(out_dir) if out_dir is not None else Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    name, spec = config.paths[0]
    reference = generate_corner_path(spec)
    regulation = replace(
        config.regulation, enable_curvature=False, enable_proximity=False, enable_goal=False
    )
    rows = []
    for value in sweep.lookahead_values:
        lookahead = replace(config.lookahead, mode=FIXED_LOOKAHEAD, fixed_distance=value)
        try:
            result = run_scenario(
                reference,
                ControllerKind.DYNAMIC_WINDOW,
                config.limits,
                lookahead,
                regulation,
                noise=NoiseModel(seed=config.noise.seed),
                max_time=config.max_time,
                goal_tolerance=config.goal_tolerance,
            )
        except PursuitBenchError as exc:
            raise type(exc)(f"path {name}, lookahead {value}: {exc}") from exc
        mean_cte, _ = cross_track_stats(result.log, reference)
        rows.append((value, mean_cte, result.travel_time))
    with open(out / "sweep.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["lookahead", "mean_cte", "travel_time"])
        for value, mean_cte, travel_time in rows:
            writer.writerow([repr(value), repr(mean_cte), repr(travel_time)])
    return rows


_TABLE_TITLES = (
    ("violation_ratio", "Constraint violation ratio [%]", "{:.1f}"),
    ("mean_cte", "Mean cross track error [m]", "{:.2f}"),
    ("max_cte", "Max cross track error [m]", "{:.2f}"),
    ("travel_time", "Travel time [s]", "{:.1f}"),
)


def emit_report(
    results: Mapping[tuple[str, str], AggregateMetrics],
    config: ExperimentConfig,
    out_dir: str | Path | None = None,
) -> str:
    """Write the four mean +/- SD summary tables plus stability advisories.

    Produces ``summary.txt`` (plain text, one table per metric, paths as rows
    and controllers as columns) and ``summary.csv`` alongside. Returns the
    report text.
    """
    if not results:
        raise ParameterError("no results to report")
    out = Path(out_dir) if out_dir is not None else Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    path_names = [name for name, _ in config.paths]
    controller_names = [kind.value for kind in config.controllers]

    lines = [
        "Controller comparison summary",
        f"{len(path_names)} path(s) x {len(controller_names)} controller(s) x {config.trials} trial(s)",
        "SD columns come from seeded initial-pose perturbation"
        f" (sigma = {config.noise.sigma_pose_init:g} m / rad when trials > 1); they measure",
        "repeatability of the deterministic simulator, not real-world variability.",
        "",
    ]
    cell_width = 16
    for field, title, fmt in _TABLE_TITLES:
        lines.append(f"{title} (mean ± sd)")
        header = "path".ljust(8) + "".join(name.upper().rjust(cell_width) for name in controller_names)
        lines.append(header)
        for path_name in path_names:
            row = path_name.ljust(8)
            for controller in controller_names:
                stats = getattr(results[(path_name, controller)], field)
                row += f"{fmt.format(stats.mean)} ± {fmt.format(stats.sd)}".rjust(cell_width)
            lines.append(row)
        lines.append("")

    v_max = config.limits.v_max
    threshold = min_stable_lookahead(v_max, config.stability)
    lines.append(
        "Stability advisory"
        f" (steering time constant {config.stability.steering_time_constant:g} s,"
        f" dimensionless-lookahead floor {config.stability.min_dimensionless_lookahead:g}):"
    )
    lines.append(f"  minimum stable lookahead at v_max={v_max:g} m/s: {threshold:.3f} m")
    for kind in config.controllers:
        operative = operative_lookahead(kind, config.lookahead, v_max)
        verdict = "ok" if operative >= threshold else "BELOW ADVISORY THRESHOLD"
        lines.append(f"  {kind.value:<5}: lookahead {operative:.3f} m at v_max -> {verdict}")
    lines.append("")

    text = "\n".join(lines)
    (out / "summary.txt").write_text(text)
    with open(out / "summary.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            [
                "path", "controller", "trials", "reached",
                "violation_ratio_mean", "violation_ratio_sd",
                "mean_cte_mean", "mean_cte_sd",
                "max_cte_mean", "max_cte_sd",
                "travel_time_mean", "travel_time_sd",
            ]
        )
        for path_name in path_names:
            for controller in controller_names:
                agg = results[(path_name, controller)]
                writer.writerow(
                    [
                        path_name, controller, agg.trial_count, agg.reached_count,
                        repr(agg.violation_ratio.mean), repr(agg.violation_ratio.sd),
                        repr(agg.mean_cte.mean), repr(agg.mean_cte.sd),
                        repr(agg.max_cte.mean), repr(agg.max_cte.sd),
                        repr(agg.travel_time.mean), repr(agg.travel_time.sd),
                    ]
                )
    return text
