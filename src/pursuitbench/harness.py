"""Experiment orchestration: config loading, comparison grid, lookahead sweep.

Configuration is a single YAML file and every key is optional. The schema is
the config dataclasses themselves: a missing key takes the field default of
``ExperimentConfig`` (for ``lookahead_values``, of ``SweepConfig``), so an
empty file equals ``ExperimentConfig()``, which is the shipped
``experiment_table1`` profile. A section mapping (``limits``, ``lookahead``,
``regulation``, ``stability``, ``noise``) is merged over the default instance
of that section and a ``paths`` entry over ``_PATH_ENTRY``. Every given key
must exist in those defaults, and ``paths.require_type`` checks its value
against the type of its default, as every config dataclass checks its own
fields: a float takes any finite int or float, while an int, bool or str
takes exactly that type, so a bool is never read as a number. The
dataclasses then check the ranges. ``load_config`` accepts
either a file path or the name of a shipped profile (``experiment_table1``,
``simulation_table6``).
"""

from __future__ import annotations

import contextlib
import csv
import importlib.resources
import math
import os
import sys
from dataclasses import dataclass, fields, is_dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

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
    require_run_bounds,
)
from .errors import ParameterError
from .metrics import METRICS, ScenarioMetrics, cross_track_stats, mean_sd, scenario_metrics
from .paths import CornerPathSpec, ReferencePath, generate_corner_path, require_field_types, require_type
from .simulator import NoiseModel, ScenarioResult, run_scenario

PROFILE_NAMES = ("experiment_table1", "simulation_table6")

# One ``paths`` entry as written in YAML; a missing key takes its value here.
_PATH_ENTRY = {
    "name": "",
    "corner_angle_deg": 90.0,
    "segment_length": 3.0,
    "waypoint_spacing": CornerPathSpec.waypoint_spacing,
}


def _corner(entry: Mapping) -> tuple[str, CornerPathSpec]:
    """A ``paths`` entry merged over ``_PATH_ENTRY``, as (name, spec)."""
    merged = {**_PATH_ENTRY, **entry}
    angle = math.radians(merged["corner_angle_deg"])
    return merged["name"], CornerPathSpec(merged["segment_length"], angle, merged["waypoint_spacing"])


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully validated experiment; the defaults are ``experiment_table1``."""

    limits: KinodynamicLimits = KinodynamicLimits()
    lookahead: LookaheadConfig = LookaheadConfig()
    regulation: RegulationConfig = RegulationConfig()
    stability: StabilityConfig = StabilityConfig()
    paths: tuple[tuple[str, CornerPathSpec], ...] = tuple(
        _corner({"name": name, "corner_angle_deg": angle})
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
            # A name becomes part of its output file names.
            for char in ("/", os.sep, os.altsep, "\0"):
                if char and char in name:
                    raise ParameterError(f"paths[{position}]: name {name!r} must not contain {char!r}")
            try:
                os.fsencode(name)
            except UnicodeEncodeError:
                encoding = sys.getfilesystemencoding()
                raise ParameterError(f"paths[{position}]: name {name!r} is not a file name in {encoding}") from None
        for position, kind in enumerate(self.controllers):
            require_type(f"controllers[{position}]", kind, ControllerKind)
            if kind in self.controllers[:position]:
                raise ParameterError(f"controllers[{position}]: duplicate controller '{kind.value}'")
        if self.trials < 1:
            raise ParameterError(f"trials must be at least 1, got {self.trials!r}")
        require_run_bounds(self.max_time, self.goal_tolerance, self.limits)
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
        for position, value in enumerate(values):
            require_type(f"lookahead_values[{position}]", value, float)
        if not values or not all(a < b for a, b in zip((0.0, *values), values)):
            raise ParameterError("lookahead_values must be non-empty, positive and strictly increasing")


# Every top-level key with a default of the type it takes in YAML: the fields
# of ``ExperimentConfig``, except that ``paths`` and ``controllers`` are lists
# of entries like their first one, plus the sweep's ``lookahead_values``.
_TOP_LEVEL = {
    **{field.name: getattr(ExperimentConfig, field.name) for field in fields(ExperimentConfig)},
    "paths": [_PATH_ENTRY],
    "controllers": [kind.value for kind in ControllerKind],
    "lookahead_values": list(SweepConfig.lookahead_values),
}

# How each entry of a top-level list becomes part of the config value.
_LIST_ENTRY = {"paths": _corner, "controllers": ControllerKind, "lookahead_values": float}


def _label(key: str, name) -> str:
    return f"{key}: {name}" if key else str(name)


def _build(key: str, factory, *args, **kwargs):
    """``factory(*args, **kwargs)``; a ``ParameterError`` it raises is re-raised with ``key`` in front."""
    try:
        return factory(*args, **kwargs)
    except ParameterError as exc:
        raise ParameterError(_label(key, exc)) from exc


def _check(key: str, value, default):
    """YAML ``value`` checked against ``default``; see the module docstring.

    A mapping default returns only the keys given, for the caller to merge;
    a dataclass default returns the dataclass with the given fields replaced;
    a list default takes a non-empty list of entries like its first one and
    returns them as a tuple, each converted by ``_LIST_ENTRY`` once checked.
    """
    if is_dataclass(default):
        own = {field.name: getattr(default, field.name) for field in fields(default)}
        return _build(key, replace, default, **_check(key, value, own))
    if isinstance(default, dict):
        if value is None:
            value = {}
        if not isinstance(value, Mapping):
            raise ParameterError(f"{key} must be a mapping")
        for name in value:
            if name not in default:
                raise ParameterError(_label(key, f"unknown key '{name}'"))
        return {name: _check(_label(key, name), item, default[name]) for name, item in value.items()}
    if isinstance(default, list):
        if not isinstance(value, list) or not value:
            raise ParameterError(f"{key} must be a non-empty list")
        labels = [f"{key}[{position}]" for position in range(len(value))]
        return tuple(
            _build(label, _LIST_ENTRY[key], _check(label, item, default[0])) for label, item in zip(labels, value)
        )
    return require_type(key, value, type(default))


def _read_config_text(source: str | Path) -> str:
    path = Path(source)
    if path.exists():
        try:
            return path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ParameterError(f"{source}: cannot read: {getattr(exc, 'strerror', None) or exc}") from exc
    resource = importlib.resources.files("pursuitbench").joinpath("profiles", f"{source}.yaml")
    if resource.is_file():
        return resource.read_text(encoding="utf-8")
    raise ParameterError(f"'{source}' is neither a config file nor a shipped profile {PROFILE_NAMES}")


class _UniqueKeyLoader(yaml.SafeLoader):
    """``yaml.SafeLoader`` that rejects a mapping whose own keys repeat; ``<<`` merges still yield to them."""

    def __init__(self, stream) -> None:
        super().__init__(stream)
        self._checked: set = set()

    def flatten_mapping(self, node) -> None:
        # A merge flattens its source mapping in place, which may happen before
        # that mapping is built; so each mapping is checked when first flattened.
        if node not in self._checked:
            self._checked.add(node)
            seen = set()
            for key_node, _ in node.value:
                if isinstance(key_node, yaml.ScalarNode) and key_node.tag != "tag:yaml.org,2002:merge":
                    key = self.construct_object(key_node)
                    if key in seen:
                        raise ParameterError(f"line {key_node.start_mark.line + 1}: repeated key '{key_node.value}'")
                    seen.add(key)
        super().flatten_mapping(node)


def _parse(source: str | Path) -> dict:
    """The keys a config file sets, checked and converted to config values."""
    text = _read_config_text(source)
    try:
        raw = yaml.load(text, _UniqueKeyLoader)
    except (yaml.YAMLError, ParameterError) as exc:
        raise ParameterError(f"{source}: {exc}") from exc
    if raw is not None and not isinstance(raw, Mapping):
        raise ParameterError(f"{source}: top level must be a mapping")
    return _check("", raw, _TOP_LEVEL)


def load_sweep_config(source: str | Path = "simulation_table6") -> SweepConfig:
    """Load a sweep description: a base config plus its ``lookahead_values``."""
    values = _parse(source)
    lookahead_values = values.pop("lookahead_values", SweepConfig.lookahead_values)
    return _build("", SweepConfig, _build("", replace, ExperimentConfig(), **values), lookahead_values)


def load_config(source: str | Path = "experiment_table1") -> ExperimentConfig:
    """Load and validate an experiment config from a file or shipped profile."""
    return load_sweep_config(source).base


def _trial_noise(config: ExperimentConfig, trial: int) -> NoiseModel:
    # Single-trial runs stay unperturbed; SD columns need >= 2 trials anyway.
    sigma_pose = config.noise.sigma_pose_init if config.trials > 1 else 0.0
    return replace(config.noise, sigma_pose_init=sigma_pose, seed=config.noise.seed + trial)


def _run(
    config: ExperimentConfig, reference: ReferencePath, kind: ControllerKind, label: str,
    noise: NoiseModel = NoiseModel(),
) -> ScenarioResult:
    """One scenario under ``config``'s limits, lookahead, regulation and stop rule; errors carry ``label``."""
    return _build(
        label, run_scenario, reference, kind, config.limits, config.lookahead, config.regulation,
        noise=noise, max_time=config.max_time, goal_tolerance=config.goal_tolerance,
    )


def _output_dir(config: ExperimentConfig, out_dir: str | Path | None) -> Path:
    """``out_dir``, or the config's ``output_dir`` when it is None; created if missing."""
    out = Path(out_dir) if out_dir is not None else Path(config.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # a path holding a NUL byte raises ValueError, which has no strerror
        reason = getattr(exc, "strerror", None) or exc
        raise ParameterError(f"{out}: cannot create output directory: {reason}") from exc
    return out


def _write_csv(file: Path, header, rows) -> None:
    with open(file, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def run_comparison(
    config: ExperimentConfig, out_dir: str | Path | None = None
) -> dict[tuple[str, str], list[ScenarioMetrics]]:
    """Run every (path, controller, trial) scenario and write CSV artifacts.

    Returns each (path name, controller name)'s per-trial metrics, trial
    ``i`` at index ``i``, in config order. Trial ``i`` uses seed
    ``noise.seed + i``. Outputs: one trajectory CSV per scenario, the
    generated reference paths, and ``metrics.csv`` with one row per scenario.
    Re-running the same config reproduces the files byte for byte. Every CSV
    is written as ``<name>.partial`` and, once every scenario has run and
    ``metrics.csv.partial`` is written, renamed into place, ``metrics.csv``
    first. A run that raises before that first rename succeeds, whether a
    scenario's ``ParameterError`` (labelled with its path, controller and
    trial), an ``OSError`` or an interrupt, leaves ``out`` as it was.
    """
    out = _output_dir(config, out_dir)
    results: dict[tuple[str, str], list[ScenarioMetrics]] = {}
    written: list[Path] = []
    try:
        for name, spec in config.paths:
            reference = generate_corner_path(spec)
            written.append(out / f"path_{name}.csv.partial")
            reference.to_csv(written[-1])
            for kind in config.controllers:
                trials = results[(name, kind.value)] = []
                for trial in range(config.trials):
                    label = f"path {name}, controller {kind.value}, trial {trial}"
                    result = _run(config, reference, kind, label, _trial_noise(config, trial))
                    written.append(out / f"traj_{name}_{kind.value}_trial{trial}.csv.partial")
                    result.log.to_csv(written[-1])
                    trials.append(scenario_metrics(result))
        header = ("path", "controller", "trial", "seed", *(metric.name for metric in METRICS), "reached_goal")
        rows = (
            (
                name, controller, trial, _trial_noise(config, trial).seed,
                *(getattr(metrics, metric.name) for metric in METRICS), int(metrics.reached_goal),
            )
            for (name, controller), trials in results.items()
            for trial, metrics in enumerate(trials)
        )
        written.insert(0, out / "metrics.csv.partial")
        _write_csv(written[0], header, rows)
        for file in written:
            file.replace(file.with_suffix(""))
    except BaseException:
        for file in written:
            with contextlib.suppress(OSError):
                file.unlink()
        raise
    return results


def run_lookahead_sweep(
    sweep: SweepConfig, out_dir: str | Path | None = None
) -> list[tuple[float, float, float]]:
    """Trade-off sweep: one dynamic-window run per fixed lookahead value.

    Uses the first configured path, forces the dynamic-window controller with
    a fixed lookahead, and disables every regulation heuristic so the sweep
    isolates the lookahead's effect. Every run is noise-free, whatever the
    config's ``noise`` says. Returns and writes rows of
    (lookahead, mean_cte, travel_time) sorted by lookahead.
    """
    config = sweep.base
    out = _output_dir(config, out_dir)
    name, spec = config.paths[0]
    reference = generate_corner_path(spec)
    regulation = replace(config.regulation, enable_curvature=False, enable_goal=False)
    rows = []
    for value in sweep.lookahead_values:
        lookahead = replace(config.lookahead, mode=FIXED_LOOKAHEAD, fixed_distance=value)
        fixed = replace(config, lookahead=lookahead, regulation=regulation)
        result = _run(fixed, reference, ControllerKind.DYNAMIC_WINDOW, f"path {name}, lookahead {value}")
        mean_cte, _ = cross_track_stats(result.log)
        rows.append((value, mean_cte, result.travel_time))
    header = ("lookahead", "mean_cte", "travel_time")
    _write_csv(out / "sweep.csv", header, rows)
    return rows


def emit_report(
    results: Mapping[tuple[str, str], Sequence[ScenarioMetrics]],
    config: ExperimentConfig,
    out_dir: str | Path | None = None,
) -> str:
    """Write the four mean +/- SD summary tables plus stability advisories.

    ``results`` maps each (path name, controller name) to its per-trial
    metrics, as ``run_comparison`` returns them; each cell is their
    ``mean_sd``. Produces ``summary.txt`` (UTF-8 plain text, one table per
    metric, paths as rows and controllers as columns) and ``summary.csv``
    alongside. Returns the report text.
    """
    if not results:
        raise ParameterError("no results to report")
    out = _output_dir(config, out_dir)
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
    # Each (path, controller)'s mean_sd per metric, in config order: both files render these.
    keys = [(path_name, controller) for path_name in path_names for controller in controller_names]
    cells = {key: [mean_sd(results[key], metric.name) for metric in METRICS] for key in keys}
    cell_width = 16
    for index, metric in enumerate(METRICS):
        fmt = metric.metadata["format"]
        lines.append(f"{metric.metadata['title']} (mean ± sd)")
        lines.append("path".ljust(8) + "".join(name.upper().rjust(cell_width) for name in controller_names))
        for path_name in path_names:
            stats = (cells[(path_name, controller)][index] for controller in controller_names)
            row = "".join(f"{fmt.format(cell.mean)} ± {fmt.format(cell.sd)}".rjust(cell_width) for cell in stats)
            lines.append(path_name.ljust(8) + row)
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
    (out / "summary.txt").write_text(text, encoding="utf-8")
    header = ["path", "controller", "trials", "reached"]
    header += [f"{metric.name}_{stat}" for metric in METRICS for stat in ("mean", "sd")]
    rows = []
    for (path_name, controller), stats in cells.items():
        trials = results[(path_name, controller)]
        reached = sum(trial.reached_goal for trial in trials)
        rows.append([path_name, controller, len(trials), reached, *(value for cell in stats for value in cell)])
    _write_csv(out / "summary.csv", header, rows)
    return text
