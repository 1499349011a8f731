"""Experiment orchestration: config loading, comparison grid, lookahead sweep.

Configuration is a single YAML file and every key is optional. The schema is
the config dataclasses themselves: a missing key takes the field default of
``ExperimentConfig`` (for ``lookahead_values``, of ``SweepConfig``), so an
empty file equals ``ExperimentConfig()``, which is the shipped
``experiment_table1`` profile. A section mapping (``limits``, ``lookahead``,
``regulation``, ``stability``, ``noise``) is merged over the default instance
of that section and a ``paths`` entry over ``_PATH_ENTRY``. The loader only
maps YAML onto that shape: sections must be mappings and lists non-empty
lists, a key absent from the defaults is rejected, ``controllers`` names
become ``ControllerKind`` and ``corner_angle_deg`` radians. Every other value
goes as given to its config dataclass, which checks its type and range, so a
loaded config fails as one built in code does, after the section name.
``load_config`` accepts either a file path or the name of a shipped profile
(``experiment_table1``, ``simulation_table6``).
"""

from __future__ import annotations

import contextlib
import csv
import importlib.resources
import math
import re
from dataclasses import fields, is_dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

import yaml

from .config import (
    FIXED_LOOKAHEAD, ControllerKind, CornerPathSpec, ExperimentConfig, NoiseModel, ParameterError, SweepConfig,
    require_type,
)
from .controllers import operative_lookahead
from .metrics import METRICS, ScenarioMetrics, cross_track_stats, mean_sd, scenario_metrics
from .paths import generate_corner_path
from .simulator import run_scenario

PROFILE_NAMES = ("experiment_table1", "simulation_table6")

# One ``paths`` entry as written in YAML; a missing key takes its value here.
_PATH_ENTRY = {
    "name": "",
    "corner_angle_deg": math.degrees(CornerPathSpec.corner_angle),
    "segment_length": CornerPathSpec.segment_length,
    "waypoint_spacing": CornerPathSpec.waypoint_spacing,
}


def _corner(entry: Mapping) -> tuple[str, CornerPathSpec]:
    """A ``paths`` entry merged over ``_PATH_ENTRY``, as (name, spec)."""
    merged = {**_PATH_ENTRY, **entry}
    angle = math.radians(require_type("corner_angle_deg", merged["corner_angle_deg"], float))
    return merged["name"], CornerPathSpec(merged["segment_length"], angle, merged["waypoint_spacing"])


# Every top-level key with a default of the shape it takes in YAML: the fields
# of ``ExperimentConfig``, except that ``paths`` and ``controllers`` are lists
# of entries like their first one, plus the sweep's ``lookahead_values``.
_TOP_LEVEL = {
    **{field.name: getattr(ExperimentConfig, field.name) for field in fields(ExperimentConfig)},
    "paths": [_PATH_ENTRY],
    "controllers": [kind.value for kind in ControllerKind],
    "lookahead_values": list(SweepConfig.lookahead_values),
}

# How an entry of a top-level list becomes part of the config value; a ``lookahead_values`` entry stays as given.
_LIST_ENTRY = {"paths": _corner, "controllers": ControllerKind}


def _label(key: str, name) -> str:
    return f"{key}: {name}" if key else str(name)


def _build(key: str, factory, *args, **kwargs):
    """``factory(*args, **kwargs)``; a ``ParameterError`` it raises is re-raised with ``key`` in front."""
    try:
        return factory(*args, **kwargs)
    except ParameterError as exc:
        raise ParameterError(_label(key, exc)) from exc


def _check(key: str, value, default):
    """YAML ``value`` mapped onto the shape of ``default``; see the module docstring.

    A mapping default returns only the keys given, for the caller to merge;
    a dataclass default returns the dataclass with the given fields replaced;
    a list default takes a non-empty list of entries like its first one and
    returns them as a tuple, each converted by ``_LIST_ENTRY`` once mapped.
    Any other value is returned as given, for its dataclass to check.
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
        convert = _LIST_ENTRY.get(key, lambda entry: entry)
        return tuple(_build(label, convert, _check(label, item, default[0])) for label, item in zip(labels, value))
    return value


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
    """``yaml.SafeLoader`` that rejects a mapping whose own keys repeat; ``<<`` merges still yield to them.

    Unlike YAML 1.1, it reads ``5e-2``, ``1e3`` and ``1.5e3`` as floats, as YAML 1.2 does.
    """

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


_UniqueKeyLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."),
)


def _parse(source: str | Path) -> dict:
    """The keys a config file sets, mapped onto config values."""
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


def _trial_config(config: ExperimentConfig, trial: int) -> ExperimentConfig:
    # Seed noise.seed + trial. One trial keeps any actuation noise but starts unperturbed (SD needs >= 2).
    sigma_pose = config.noise.sigma_pose_init if config.trials > 1 else 0.0
    return replace(config, noise=replace(config.noise, sigma_pose_init=sigma_pose, seed=config.noise.seed + trial))


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
    ``i`` at index ``i``, in config order. Trial ``i`` runs ``config`` with
    seed ``noise.seed + i``. Outputs: one trajectory CSV per scenario, the
    generated reference paths, and ``metrics.csv`` with one row per scenario.
    Re-running the same config reproduces the files byte for byte. Every CSV
    is written as ``<name>.partial`` and, once every scenario has run and
    ``metrics.csv.partial`` is written, renamed into place, ``metrics.csv``
    first. A run that raises before that first rename succeeds, whether a
    scenario's ``ParameterError`` (labelled with its path, controller and
    trial), an ``OSError`` or an interrupt, leaves ``out`` as it was.
    """
    out = _output_dir(config, out_dir)
    trial_configs = [_trial_config(config, trial) for trial in range(config.trials)]
    results: dict[tuple[str, str], list[ScenarioMetrics]] = {}
    written: list[Path] = []
    try:
        for name, spec in config.paths:
            reference = _build(f"path {name}", generate_corner_path, spec)
            written.append(out / f"path_{name}.csv.partial")
            reference.to_csv(written[-1])
            for kind in config.controllers:
                trials = results[(name, kind.value)] = []
                for trial, trial_config in enumerate(trial_configs):
                    label = f"path {name}, controller {kind.value}, trial {trial}"
                    result = _build(label, run_scenario, reference, kind, trial_config)
                    written.append(out / f"traj_{name}_{kind.value}_trial{trial}.csv.partial")
                    result.log.to_csv(written[-1])
                    trials.append(scenario_metrics(result))
        header = ("path", "controller", "trial", "seed", *(metric.name for metric in METRICS), "reached_goal")
        rows = (
            (
                name, controller, trial, trial_configs[trial].noise.seed,
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
    reference = _build(f"path {name}", generate_corner_path, spec)
    regulation = replace(config.regulation, enable_curvature=False, enable_goal=False)
    rows = []
    for value in sweep.lookahead_values:
        lookahead = replace(config.lookahead, mode=FIXED_LOOKAHEAD, fixed_distance=value)
        fixed = replace(config, lookahead=lookahead, regulation=regulation, noise=NoiseModel())
        label = f"path {name}, lookahead {value}"
        result = _build(label, run_scenario, reference, ControllerKind.DYNAMIC_WINDOW, fixed)
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

    ``results`` maps each configured (path name, controller name) to its
    per-trial metrics, as ``run_comparison`` returns them; each cell is their
    ``mean_sd``. Produces ``summary.txt`` (UTF-8 plain text, one table per
    metric, paths as rows and controllers as columns) and ``summary.csv``
    alongside. Returns the report text.
    """
    path_names = [name for name, _ in config.paths]
    controller_names = [kind.value for kind in config.controllers]
    # Each (path, controller) in config order: both files render its mean_sd per metric.
    keys = [(path_name, controller) for path_name in path_names for controller in controller_names]
    missing = next((key for key in keys if key not in results), None)
    if missing is not None:
        raise ParameterError(f"no results for path '{missing[0]}' and controller '{missing[1]}'")
    out = _output_dir(config, out_dir)

    noise = config.noise
    actuation = f" and actuation noise (sigma_v = {noise.sigma_v:g} m/s, sigma_omega = {noise.sigma_omega:g} rad/s)"
    lines = [
        "Controller comparison summary",
        f"{len(path_names)} path(s) x {len(controller_names)} controller(s) x {config.trials} trial(s)",
        "SD columns come from seeded initial-pose perturbation"
        f" (sigma = {noise.sigma_pose_init:g} m / rad when trials > 1)"
        f"{actuation if noise.sigma_v > 0.0 or noise.sigma_omega > 0.0 else ''}; they measure",
        "repeatability of the deterministic simulator, not real-world variability.",
        "",
    ]
    cells = {key: [mean_sd(results[key], metric.name) for metric in METRICS] for key in keys}
    cell_width, path_width = 16, max(8, 1 + max(map(len, path_names)))
    for index, metric in enumerate(METRICS):
        fmt = metric.metadata["format"]
        lines.append(f"{metric.metadata['title']} (mean ± sd)")
        lines.append("path".ljust(path_width) + "".join(name.upper().rjust(cell_width) for name in controller_names))
        for path_name in path_names:
            stats = (cells[(path_name, controller)][index] for controller in controller_names)
            row = "".join(f"{fmt.format(cell.mean)} ± {fmt.format(cell.sd)}".rjust(cell_width) for cell in stats)
            lines.append(path_name.ljust(path_width) + row)
        lines.append("")

    v_max, stability = config.limits.v_max, config.stability
    threshold = v_max * stability.steering_time_constant * stability.min_dimensionless_lookahead
    lines.append(
        "Stability advisory"
        f" (steering time constant {stability.steering_time_constant:g} s,"
        f" dimensionless-lookahead floor {stability.min_dimensionless_lookahead:g}):"
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
