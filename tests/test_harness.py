import ast
import csv
import errno
import hashlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields, is_dataclass, replace
from pathlib import Path
from types import ModuleType
from unittest import mock

import numpy as np
import pytest
import yaml

import pursuitbench
from pursuitbench import (
    ControllerKind,
    CornerPathSpec,
    ExperimentConfig,
    KinodynamicLimits,
    LookaheadConfig,
    NoiseModel,
    ParameterError,
    RegulationConfig,
    ScenarioMetrics,
    StabilityConfig,
    SweepConfig,
    emit_report,
    generate_corner_path,
    load_config,
    load_sweep_config,
    run_comparison,
    run_lookahead_sweep,
    run_scenario,
)
from pursuitbench import harness
from pursuitbench.cli import main
from pursuitbench.metrics import METRICS, mean_sd

GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden.json"
GOLDEN_TRAJECTORIES = Path(__file__).resolve().parent / "golden_trajectories.json"

# The 178-degree corner with 3 m legs ends 0.105 m from its start.
FOLD_CONFIG = """
paths:
  - {name: F, corner_angle_deg: 178.0, segment_length: 3.0, waypoint_spacing: 0.05}
controllers: [dwpp]
trials: 1
"""
FOLD_ERROR = "the start lies 0.104714 m from the goal, within goal_tolerance 0.15 m"

SMALL_CONFIG = """
paths:
  - {name: B, corner_angle_deg: 90.0, segment_length: 1.5, waypoint_spacing: 0.05}
controllers: [rpp, dwpp]
trials: 2
noise: {sigma_pose_init: 0.01, seed: 3}
"""


def _run_corner(limits=KinodynamicLimits(), spec=CornerPathSpec(1.5, 1.0), max_time=30.0, goal_tolerance=0.15):
    return run_scenario(
        generate_corner_path(spec), ControllerKind.DYNAMIC_WINDOW, limits, LookaheadConfig(), RegulationConfig(),
        max_time=max_time, goal_tolerance=goal_tolerance,
    )


# Each config section by its YAML key; "" is the top level.
SECTIONS = {
    "": ExperimentConfig, "limits": KinodynamicLimits, "lookahead": LookaheadConfig,
    "regulation": RegulationConfig, "stability": StabilityConfig, "noise": NoiseModel,
}
# (section, field, value): NaN and inf in every float field, and a wrong type in an int or str field.
LOADER_CASES = [
    (section, field.name, value)
    for section, cls in SECTIONS.items()
    for field in fields(cls)
    if type(getattr(cls(), field.name)) is float
    for value in (math.nan, math.inf)
] + [
    ("", "trials", True), ("", "trials", 1.5), ("noise", "seed", True), ("noise", "seed", 1.5),
    ("lookahead", "mode", 5), ("", "output_dir", 5),
]


@pytest.fixture
def small_config(tmp_path):
    file = tmp_path / "small.yaml"
    file.write_text(SMALL_CONFIG)
    return load_config(file)


class TestLoadConfig:
    def test_default_profile_values(self):
        cfg = load_config("experiment_table1")
        limits = cfg.limits
        assert (limits.v_max, limits.v_min) == (0.5, 0.0)
        assert (limits.omega_max, limits.omega_min) == (1.0, -1.0)
        assert (limits.accel_max, limits.decel_max) == (0.5, 0.5)
        assert (limits.ang_accel_max, limits.ang_decel_max) == (1.0, 1.0)
        assert limits.dt == 0.033
        assert cfg.lookahead.mode == "velocity_scaled"
        assert cfg.lookahead.fixed_distance == 0.6
        assert (cfg.lookahead.min_distance, cfg.lookahead.max_distance) == (0.3, 0.7)
        assert cfg.lookahead.projection_time == 1.4
        assert cfg.regulation.min_turn_radius == 0.9
        assert cfg.regulation.min_regulated_speed == 0.25
        assert cfg.regulation.enable_proximity is False
        assert [name for name, _ in cfg.paths] == ["A", "B", "C"]
        assert [math.degrees(spec.corner_angle) for _, spec in cfg.paths] == pytest.approx(
            [45.0, 90.0, 135.0]
        )
        assert all(spec.segment_length == 3.0 for _, spec in cfg.paths)
        assert [kind.value for kind in cfg.controllers] == ["pp", "app", "rpp", "dwpp"]
        assert cfg.trials == 5

    def test_sweep_profile_values(self):
        sweep = load_sweep_config("simulation_table6")
        limits = sweep.base.limits
        assert (limits.v_max, limits.accel_max, limits.decel_max) == (0.26, 0.26, 0.26)
        assert (limits.omega_max, limits.omega_min) == (0.5, -0.5)
        assert (limits.ang_accel_max, limits.ang_decel_max) == (0.5, 0.5)
        assert limits.dt == 0.033
        assert sweep.base.lookahead.mode == "fixed"
        assert not sweep.base.regulation.enable_curvature
        assert not sweep.base.regulation.enable_proximity
        assert not sweep.base.regulation.enable_goal
        assert sweep.lookahead_values == (0.26, 0.39, 0.52, 0.65, 0.78, 0.91, 1.04)
        assert [name for name, _ in sweep.base.paths] == ["C"]

    def test_empty_file_means_all_defaults(self, tmp_path):
        file = tmp_path / "empty.yaml"
        file.write_text("")
        assert load_config(file) == load_config("experiment_table1")

    def test_override_merges_with_defaults(self, tmp_path):
        file = tmp_path / "override.yaml"
        file.write_text("limits: {v_max: 0.3}\ntrials: 2\n")
        cfg = load_config(file)
        assert cfg.limits.v_max == 0.3
        assert cfg.limits.dt == 0.033
        assert cfg.trials == 2

    def test_defaults_are_the_table1_profile(self):
        assert ExperimentConfig() == load_config("experiment_table1")
        assert SweepConfig().lookahead_values == load_sweep_config("simulation_table6").lookahead_values

    @pytest.mark.parametrize(
        "text, key",
        [
            ("goal_tolerance: true", "goal_tolerance"),
            ("max_time: true", "max_time"),
            ("limits: {v_max: true}", "limits: v_max"),
            ("regulation: {enable_goal: 0}", "regulation: enable_goal"),
            ("paths: [{corner_angle_deg: true}]", "paths[0]: corner_angle_deg"),
            ("noise: {sigma_v: .nan}", "noise: sigma_v"),
            ("regulation: {min_turn_radius: .nan}", "regulation: min_turn_radius"),
            ("stability: {steering_time_constant: .nan}", "stability: steering_time_constant"),
            ("max_time: .inf", "max_time"),
            ("max_time: .nan", "max_time"),
            ("goal_tolerance: .inf", "goal_tolerance"),
            ("max_time: 0.01", "max_time"),
            ("noise: {seed: 1.5}", "noise: seed"),
            ("noise: {seed: -1}", "noise: seed"),
            ("trials: 2.0", "trials"),
            ("lookahead: {mode: 3}", "lookahead: mode"),
            ("paths: [{name: 3}]", "paths[0]: name"),
            ("lookahead_values: [true]", "lookahead_values[0]"),
        ],
    )
    def test_mistyped_or_non_finite_value_rejected(self, tmp_path, text, key):
        file = tmp_path / "bad.yaml"
        file.write_text(text + "\n")
        with pytest.raises(ParameterError, match=f"^{re.escape(key)} must be "):
            load_config(file)

    def test_zero_trials_rejected(self, tmp_path):
        file = tmp_path / "bad.yaml"
        file.write_text("trials: 0\n")
        with pytest.raises(ParameterError, match="trials"):
            load_config(file)

    @pytest.mark.parametrize("trials", [2.0, True])
    def test_trials_must_be_an_int(self, trials):
        with pytest.raises(ParameterError, match="^trials must be an integer"):
            ExperimentConfig(trials=trials)

    @pytest.mark.parametrize("name", ["goal_tolerance", "max_time"])
    def test_bool_is_not_a_number(self, name):
        with pytest.raises(ParameterError, match=f"^{name} must be .*, got True$"):
            ExperimentConfig(**{name: True})

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"paths": ()}, "paths and controllers must be non-empty"),
            ({"controllers": ()}, "paths and controllers must be non-empty"),
            (
                {"paths": (("A", CornerPathSpec(3.0, 1.0)), ("", CornerPathSpec(3.0, 1.0)))},
                "paths[1]: name must be non-empty",
            ),
            ({"output_dir": ""}, "output_dir must be non-empty"),
        ],
        ids=["no_paths", "no_controllers", "unnamed_path", "no_output_dir"],
    )
    def test_experiment_config_names_an_empty_value(self, overrides, message):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            ExperimentConfig(**overrides)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: KinodynamicLimits(v_max=True), "v_max must be a finite number, got True"),
            (lambda: KinodynamicLimits(v_max="0.5"), "v_max must be a finite number, got '0.5'"),
            (lambda: LookaheadConfig(fixed_distance=True), "fixed_distance must be a finite number, got True"),
            (lambda: RegulationConfig(enable_goal=0), "enable_goal must be true or false, got 0"),
            (
                lambda: StabilityConfig(steering_time_constant=True),
                "steering_time_constant must be a finite number, got True",
            ),
            (lambda: NoiseModel(sigma_v=True), "sigma_v must be a finite number, got True"),
            (lambda: CornerPathSpec(True, 1.0), "segment_length must be a finite number, got True"),
            (
                lambda: SweepConfig(lookahead_values=(True, 2.0)),
                "lookahead_values[0] must be a finite number, got True",
            ),
            (lambda: _run_corner(max_time=True), "max_time must be a finite number, got True"),
            (lambda: _run_corner(goal_tolerance=True), "goal_tolerance must be a finite number, got True"),
            (lambda: KinodynamicLimits(v_max=10**400), f"v_max must be a finite number, got {10**400}"),
            (
                lambda: KinodynamicLimits(dt=np.float32("nan")),
                f"dt must be a finite number, got {np.float32('nan')!r}",
            ),
            (
                lambda: KinodynamicLimits(v_max=np.float32("nan")),
                f"v_max must be a finite number, got {np.float32('nan')!r}",
            ),
            (
                lambda: LookaheadConfig(fixed_distance=np.float32("inf")),
                f"fixed_distance must be a finite number, got {np.float32('inf')!r}",
            ),
        ],
        ids=[
            "v_max_bool", "v_max_str", "fixed_distance", "enable_goal", "steering_time_constant", "sigma_v",
            "segment_length", "lookahead_values", "max_time", "goal_tolerance", "v_max_huge_int",
            "dt_float32_nan", "v_max_float32_nan", "fixed_distance_float32_inf",
        ],
    )
    def test_library_config_rejects_what_the_loader_rejects(self, build, message):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            build()

    @pytest.mark.parametrize(
        "base",
        [
            KinodynamicLimits(), LookaheadConfig(), RegulationConfig(), StabilityConfig(), NoiseModel(),
            CornerPathSpec(3.0, 1.0), ExperimentConfig(), SweepConfig(),
        ],
        ids=lambda base: type(base).__name__,
    )
    def test_every_config_field_rejects_the_wrong_type(self, base):
        # Fields are found by their values, not their annotations, so a field
        # the type check skipped would show here. A nested config takes exactly
        # its class and a tuple field exactly a tuple, whose owner then checks
        # each entry.
        wrong_values = {
            float: (True, "a finite number"), bool: (0, "true or false"), int: (True, "an integer"),
            str: (5, "a string"), tuple: (None, "of type tuple"),
        }
        checked = 0
        for field in fields(base):
            value = getattr(base, field.name)
            if is_dataclass(value):
                wrong, expected = None, f"of type {type(value).__name__}"
            else:
                wrong, expected = wrong_values[type(value)]
            with pytest.raises(ParameterError, match=f"^{field.name} must be {expected}, got {wrong}$"):
                replace(base, **{field.name: wrong})
            checked += 1
        assert checked

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"output_dir": 5}, "output_dir must be a string, got 5"),
            ({"limits": None}, "limits must be of type KinodynamicLimits, got None"),
            ({"controllers": ("dwpp",)}, "controllers[0] must be of type ControllerKind, got 'dwpp'"),
            ({"noise": None}, "noise must be of type NoiseModel, got None"),
            ({"paths": (("A", None),)}, "paths[0]: spec must be of type CornerPathSpec, got None"),
        ],
        ids=["output_dir", "limits", "controllers", "noise", "paths_spec"],
    )
    def test_experiment_config_rejects_a_wrong_typed_section_or_entry(self, overrides, message):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            ExperimentConfig(**overrides)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: ExperimentConfig(paths=(("A",),)), "paths[0] must be a (name, spec) pair, got ('A',)"),
            (lambda: SweepConfig(lookahead_values=None), "lookahead_values must be of type tuple, got None"),
            (lambda: ExperimentConfig(controllers="pp"), "controllers must be of type tuple, got 'pp'"),
        ],
        ids=["path_entry_not_a_pair", "lookahead_values_none", "controllers_str"],
    )
    def test_config_checks_a_tuple_field_before_its_entries(self, build, message):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            build()

    @pytest.mark.parametrize("section, name, value", LOADER_CASES, ids=lambda case: str(case) or "top")
    def test_loader_and_library_reject_a_value_in_the_same_words(self, tmp_path, section, name, value):
        with pytest.raises(ParameterError) as library:
            SECTIONS[section](**{name: value})
        file = tmp_path / "bad.yaml"
        file.write_text(yaml.safe_dump({section: {name: value}} if section else {name: value}))
        prefix = f"{section}: " if section else ""
        with pytest.raises(ParameterError, match=f"^{re.escape(prefix + str(library.value))}$"):
            load_config(file)

    def test_library_config_takes_ints_and_numpy_floats(self):
        limits = KinodynamicLimits(v_max=1, accel_max=np.float64(0.5), dt=np.float32(0.05))
        # Each is stored as the Python float of the same value, as a loaded config's is.
        assert [type(value) for value in (limits.v_max, limits.accel_max, limits.dt)] == [float] * 3
        assert (limits.v_max, limits.dt) == (1.0, float(np.float32(0.05)))
        spec = CornerPathSpec(3, np.float64(1.0))
        SweepConfig(lookahead_values=(1, np.float64(2.0)))
        result = _run_corner(limits=limits, spec=spec, max_time=np.int64(30), goal_tolerance=np.float64(0.15))
        assert result.reached_goal

    def test_unknown_top_level_key_rejected(self, tmp_path):
        file = tmp_path / "bad.yaml"
        file.write_text("lookahed: {}\n")
        with pytest.raises(ParameterError, match="lookahed"):
            load_config(file)

    @pytest.mark.parametrize("section", ["limits", "lookahead", "regulation", "stability", "noise"])
    def test_unknown_nested_key_rejected(self, tmp_path, section):
        file = tmp_path / "bad.yaml"
        file.write_text(f"{section}: {{vmax: 0.5}}\n")
        with pytest.raises(ParameterError, match=f"{section}: unknown key 'vmax'"):
            load_config(file)

    def test_invalid_value_names_section(self, tmp_path):
        file = tmp_path / "bad.yaml"
        file.write_text("limits: {dt: -1.0}\n")
        with pytest.raises(ParameterError, match="limits"):
            load_config(file)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("trials: 1\ntrials: 2\n", "line 2: repeated key 'trials'"),
            ("limits: {v_max: 0.5, v_max: 0.7}\n", "line 1: repeated key 'v_max'"),
            ("paths:\n  - {name: A}\n  - {name: B,\n     name: C}\n", "line 4: repeated key 'name'"),
        ],
        ids=["top_level", "section", "list_entry"],
    )
    def test_repeated_key_rejected_with_its_line(self, tmp_path, text, message):
        file = tmp_path / "twice.yaml"
        file.write_text(text)
        with pytest.raises(ParameterError, match=f"^{re.escape(f'{file}: {message}')}$"):
            load_config(file)

    def test_merge_key_yields_to_the_mapping_own_keys(self, tmp_path):
        file = tmp_path / "merge.yaml"
        file.write_text("paths:\n  - &a {name: A, corner_angle_deg: 45.0}\n  - {<<: *a, name: B}\n")
        spec = CornerPathSpec(3.0, math.radians(45.0))
        assert load_config(file).paths == (("A", spec), ("B", spec))

    @pytest.mark.parametrize("profile", harness.PROFILE_NAMES)
    def test_shipped_profile_parses_as_the_safe_loader_reads_it(self, profile):
        text = harness._read_config_text(profile)
        assert yaml.load(text, harness._UniqueKeyLoader) == yaml.safe_load(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("limits: 3\n", "limits must be a mapping"),
            ("- 1\n", "{file}: top level must be a mapping"),
            (
                "limits: {v_max: 0.5\n",
                "{file}: while parsing a flow mapping\n"
                '  in "<unicode string>", line 1, column 9:\n'
                "    limits: {v_max: 0.5\n"
                "            ^\n"
                "expected ',' or '}', but got '<stream end>'\n"
                '  in "<unicode string>", line 2, column 1:\n'
                "    \n"
                "    ^",
            ),
        ],
        ids=["section", "top_level", "syntax"],
    )
    def test_malformed_file_rejected_with_its_message(self, tmp_path, text, message):
        file = tmp_path / "bad.yaml"
        file.write_text(text)
        with pytest.raises(ParameterError, match=f"^{re.escape(message.replace('{file}', str(file)))}$"):
            load_config(file)

    def test_unknown_controller_rejected(self, tmp_path):
        file = tmp_path / "bad.yaml"
        file.write_text("controllers: [pp, teb]\n")
        with pytest.raises(ParameterError, match="teb"):
            load_config(file)

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "paths: [{name: A}, {name: B, corner_angle_deg: 180}]\n",
                "paths[1]: corner_angle must be strictly inside (0, pi)",
            ),
            (
                "paths: [{name: A, waypoint_spacing: 5.0}]\n",
                "paths[0]: waypoint_spacing must be in (0, segment_length)",
            ),
            (
                "controllers: [pp, teb]\n",
                "controllers[1]: unknown controller 'teb' (expected one of: pp, app, rpp, dwpp)",
            ),
            ("paths: []\n", "paths must be a non-empty list"),
            ("controllers: dwpp\n", "controllers must be a non-empty list"),
            ("lookahead_values: [0.5, x]\n", "lookahead_values[1] must be a finite number, got 'x'"),
        ],
        ids=["corner_angle", "waypoint_spacing", "controller", "empty_paths", "scalar_controllers", "sweep_value"],
    )
    def test_list_entry_error_message(self, tmp_path, text, message):
        file = tmp_path / "bad.yaml"
        file.write_text(text)
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            load_sweep_config(file)

    def test_list_entries_load_as_tuples_of_config_values(self, tmp_path):
        file = tmp_path / "lists.yaml"
        file.write_text(
            "paths:\n  - {name: A, corner_angle_deg: 60, segment_length: 2}\n"
            "controllers: [dwpp, pp]\nlookahead_values: [1, 2.5]\n"
        )
        config = load_config(file)
        assert config.paths == (("A", CornerPathSpec(2.0, math.radians(60.0))),)
        assert type(config.paths) is tuple and type(config.paths[0]) is tuple
        assert config.controllers == (ControllerKind.DYNAMIC_WINDOW, ControllerKind.PURE_PURSUIT)
        assert type(config.controllers) is tuple
        values = load_sweep_config(file).lookahead_values
        assert values == (1.0, 2.5) and type(values) is tuple
        assert [type(value) for value in values] == [float, float]

    @pytest.mark.parametrize(
        "sections, message",
        [
            (("paths", "limits"), "paths[1]: corner_angle must be strictly inside (0, pi)"),
            (("limits", "paths"), "limits: v_max must be a finite number, got True"),
        ],
        ids=["paths_first", "limits_first"],
    )
    def test_first_error_in_file_order_is_reported(self, tmp_path, sections, message):
        text = {
            "paths": "paths:\n  - {name: A}\n  - {name: B, corner_angle_deg: 180}\n",
            "limits": "limits: {v_max: true}\n",
        }
        file = tmp_path / "bad.yaml"
        file.write_text("".join(text[section] for section in sections))
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            load_config(file)

    def test_duplicate_path_name_rejected(self, tmp_path):
        file = tmp_path / "bad.yaml"
        file.write_text(
            "paths:\n  - {name: A, corner_angle_deg: 45}\n  - {name: A, corner_angle_deg: 90}\n"
        )
        with pytest.raises(ParameterError, match="duplicate"):
            load_config(file)

    def test_duplicate_controller_rejected(self, tmp_path):
        file = tmp_path / "bad.yaml"
        file.write_text("controllers: [dwpp, pp, dwpp]\n")
        with pytest.raises(ParameterError, match=r"^controllers\[2\]: duplicate controller 'dwpp'$"):
            load_config(file)

    def test_directory_source_rejected_by_name(self, tmp_path):
        with pytest.raises(ParameterError, match=f"^{re.escape(str(tmp_path))}: cannot read"):
            load_config(tmp_path)

    def test_unreadable_source_rejected_by_name(self, tmp_path, monkeypatch):
        file = tmp_path / "cfg.yaml"
        file.write_text("trials: 2\n")
        denied = PermissionError(13, "Permission denied")
        monkeypatch.setattr(Path, "read_text", mock.Mock(side_effect=denied))
        with pytest.raises(ParameterError, match=f"^{re.escape(str(file))}: cannot read: Permission denied$"):
            load_config(file)

    def test_undecodable_source_rejected_by_name(self, tmp_path):
        file = tmp_path / "cfg.yaml"
        file.write_bytes(b"trials: \xff\n")
        with pytest.raises(ParameterError, match=f"^{re.escape(str(file))}: cannot read"):
            load_config(file)

    def test_non_increasing_sweep_values_rejected(self, tmp_path):
        file = tmp_path / "bad.yaml"
        file.write_text("lookahead_values: [0.5, 0.4]\n")
        with pytest.raises(ParameterError, match="lookahead_values"):
            load_sweep_config(file)

    def test_infinite_sweep_value_rejected_before_any_run(self):
        base = load_sweep_config("simulation_table6").base
        with pytest.raises(ParameterError, match=r"^lookahead_values\[1\] must be a finite number, got inf$"):
            SweepConfig(base, (0.52, math.inf))

    def test_missing_source_rejected(self):
        with pytest.raises(ParameterError, match="neither"):
            load_config("no_such_profile")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("limits: {v_max: -0.1, v_min: -0.5}\n", "limits: v_max"),
            ("regulation: {min_regulated_speed: -0.1}\n", "regulation: min_regulated_speed"),
            ("regulation: {min_approach_speed: -0.1}\n", "regulation: min_approach_speed"),
        ],
        ids=["v_max", "min_regulated_speed", "min_approach_speed"],
    )
    def test_negative_speed_ceiling_rejected(self, tmp_path, text, message):
        file = tmp_path / "bad.yaml"
        file.write_text(text)
        with pytest.raises(ParameterError, match=f"^{message} must be non-negative$"):
            load_config(file)

    def test_removed_combination_mode_rejected(self, tmp_path):
        file = tmp_path / "bad.yaml"
        file.write_text("regulation: {combination_mode: hard_cap}\n")
        with pytest.raises(ParameterError, match="^regulation: combination_mode must be 'lower_bound'$"):
            load_config(file)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("limits: {v_min: 0.1}\n", "limits: v_min must not be positive"),
            ("limits: {omega_min: 0.1}\n", "limits: omega_min must not be positive"),
            ("limits: {omega_max: -0.1}\n", "limits: omega_max must not be negative"),
        ],
        ids=["v_min", "omega_min", "omega_max"],
    )
    def test_limits_excluding_rest_rejected(self, tmp_path, text, message):
        # Every run starts at v = omega = 0; from outside its static limits
        # dwpp's first command could not be reached in one step.
        file = tmp_path / "bad.yaml"
        file.write_text(text)
        with pytest.raises(ParameterError, match=f"^{message} \\(runs start at rest\\)$"):
            load_config(file)

    def test_sweep_config_reads_its_file_once(self, monkeypatch):
        reads = []
        read = harness._read_config_text

        def counting_read(source):
            reads.append(source)
            return read(source)

        monkeypatch.setattr(harness, "_read_config_text", counting_read)
        sweep = load_sweep_config("simulation_table6")
        assert reads == ["simulation_table6"]
        assert sweep.base == load_config("simulation_table6")


class TestRunComparison:
    def test_writes_expected_artifacts(self, small_config, tmp_path):
        out = tmp_path / "out"
        results = run_comparison(small_config, out)
        assert set(results) == {("B", "rpp"), ("B", "dwpp")}
        assert (out / "path_B.csv").exists()
        for controller in ("rpp", "dwpp"):
            for trial in range(2):
                assert (out / f"traj_B_{controller}_trial{trial}.csv").exists()
        lines = (out / "metrics.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 2  # header + |paths|*|controllers|*trials
        assert lines[0].startswith("path,controller,trial,seed,")

    def test_output_dir_holding_a_nul_byte_is_a_parameter_error(self, small_config):
        with pytest.raises(ParameterError, match="^a\x00b: cannot create output directory: embedded null byte$"):
            run_comparison(small_config, "a\0b")

    def test_trial_seeds_offset_from_base(self, small_config, tmp_path):
        run_comparison(small_config, tmp_path / "out")
        rows = (tmp_path / "out" / "metrics.csv").read_text().strip().splitlines()[1:]
        seeds = [int(row.split(",")[3]) for row in rows]
        assert sorted(set(seeds)) == [3, 4]

    def test_rerun_is_byte_identical(self, small_config, tmp_path):
        run_comparison(small_config, tmp_path / "a")
        run_comparison(small_config, tmp_path / "b")
        assert (tmp_path / "a" / "metrics.csv").read_bytes() == (
            tmp_path / "b" / "metrics.csv"
        ).read_bytes()

    def test_multi_trial_noise_gives_positive_sd(self, small_config, tmp_path):
        results = run_comparison(small_config, tmp_path / "out")
        assert mean_sd(results[("B", "rpp")], "mean_cte").sd > 0.0
        assert mean_sd(results[("B", "dwpp")], "violation_ratio") == (0.0, 0.0)

    def test_single_trial_sd_is_zero(self, tmp_path):
        file = tmp_path / "one.yaml"
        file.write_text(SMALL_CONFIG.replace("trials: 2", "trials: 1"))
        results = run_comparison(load_config(file), tmp_path / "out")
        assert len(results[("B", "rpp")]) == 1
        assert mean_sd(results[("B", "rpp")], "mean_cte").sd == 0.0

    def test_metrics_and_summary_csv_are_the_returned_trials(self, small_config, tmp_path):
        out = tmp_path / "out"
        results = run_comparison(small_config, out)
        emit_report(results, small_config, out)
        names = [metric.name for metric in METRICS]
        with open(out / "metrics.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [(row["path"], row["controller"], int(row["trial"])) for row in rows] == [
            (*key, trial) for key, trials in results.items() for trial in range(len(trials))
        ]
        for row in rows:
            metrics = results[(row["path"], row["controller"])][int(row["trial"])]
            assert [float(row[name]) for name in names] == [getattr(metrics, name) for name in names]
            assert row["reached_goal"] == str(int(metrics.reached_goal))
        with open(out / "summary.csv", newline="") as handle:
            summary = list(csv.DictReader(handle))
        assert [(row["path"], row["controller"]) for row in summary] == list(results)
        for row in summary:
            trials = results[(row["path"], row["controller"])]
            assert len(trials) == small_config.trials
            assert (int(row["trials"]), int(row["reached"])) == (len(trials), sum(t.reached_goal for t in trials))
            for name in names:
                stats = mean_sd(trials, name)
                assert (float(row[f"{name}_mean"]), float(row[f"{name}_sd"])) == stats, name

    @pytest.mark.parametrize("interrupt", [KeyboardInterrupt(), OSError(28, "No space left on device")])
    def test_any_exception_mid_run_leaves_out_as_it_was(self, small_config, tmp_path, monkeypatch, interrupt):
        run = harness._run
        calls = []

        def run_then_fail(*args, **kwargs):
            calls.append(args)
            if len(calls) == 3:
                raise interrupt
            return run(*args, **kwargs)

        monkeypatch.setattr(harness, "_run", run_then_fail)
        out = tmp_path / "out"
        with pytest.raises(type(interrupt)):
            run_comparison(small_config, out)
        assert len(calls) == 3
        assert list(out.iterdir()) == []

    def test_cleanup_removes_the_rest_when_one_partial_file_cannot_be_removed(
        self, small_config, tmp_path, monkeypatch
    ):
        run = harness._run
        calls = []
        failure = OSError(28, "No space left on device")

        def run_then_fail(*args, **kwargs):
            calls.append(args)
            if len(calls) == 3:
                raise failure
            return run(*args, **kwargs)

        unlink = Path.unlink

        def unlink_except_path_file(file, *args, **kwargs):
            if file.name == "path_B.csv.partial":
                raise PermissionError(13, "Permission denied")
            return unlink(file, *args, **kwargs)

        monkeypatch.setattr(harness, "_run", run_then_fail)
        monkeypatch.setattr(Path, "unlink", unlink_except_path_file)
        out = tmp_path / "out"
        with pytest.raises(OSError) as raised:
            run_comparison(small_config, out)
        assert raised.value is failure
        # Both trajectory files of controller rpp were written before the third run failed.
        assert [file.name for file in out.iterdir()] == ["path_B.csv.partial"]

    def test_failed_metrics_write_leaves_out_as_it_was(self, small_config, tmp_path, monkeypatch):
        write_csv = harness._write_csv
        failure = OSError(errno.ENOSPC, "No space left on device")

        def write_csv_except_metrics(file, *args):
            if file.name.startswith("metrics.csv"):
                file.write_text("path,")
                raise failure
            return write_csv(file, *args)

        monkeypatch.setattr(harness, "_write_csv", write_csv_except_metrics)
        out = tmp_path / "out"
        with pytest.raises(OSError) as raised:
            run_comparison(small_config, out)
        assert raised.value is failure
        assert list(out.iterdir()) == []

    def test_metrics_csv_that_cannot_be_replaced_leaves_out_as_it_was(self, tmp_path):
        config = tmp_path / "one.yaml"
        config.write_text(SMALL_CONFIG.replace("[rpp, dwpp]", "[dwpp]").replace("trials: 2", "trials: 1"))
        out = tmp_path / "out"
        (out / "metrics.csv").mkdir(parents=True)
        with pytest.raises(IsADirectoryError):
            run_comparison(load_config(config), out)
        assert [file.name for file in out.iterdir()] == ["metrics.csv"]
        assert list((out / "metrics.csv").iterdir()) == []


class TestRunLookaheadSweep:
    def test_single_value_single_row(self, tmp_path):
        file = tmp_path / "sweep.yaml"
        file.write_text(SMALL_CONFIG + "lookahead_values: [0.4]\n")
        rows = run_lookahead_sweep(load_sweep_config(file), tmp_path / "out")
        assert len(rows) == 1
        assert rows[0][0] == 0.4

    def test_rows_cover_configured_values_in_order(self, tmp_path):
        file = tmp_path / "sweep.yaml"
        file.write_text(SMALL_CONFIG + "lookahead_values: [0.3, 0.5, 0.7]\n")
        out = tmp_path / "out"
        rows = run_lookahead_sweep(load_sweep_config(file), out)
        assert [row[0] for row in rows] == [0.3, 0.5, 0.7]
        csv_lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "lookahead,mean_cte,travel_time"
        assert len(csv_lines) == 4
        assert [float(line.split(",")[0]) for line in csv_lines[1:]] == [0.3, 0.5, 0.7]


class TestEmitReport:
    def test_report_layout(self, small_config, tmp_path):
        out = tmp_path / "out"
        results = run_comparison(small_config, out)
        text = emit_report(results, small_config, out)
        for title in (
            "Constraint violation ratio [%]",
            "Mean cross track error [m]",
            "Max cross track error [m]",
            "Travel time [s]",
        ):
            assert title in text
        assert "RPP" in text and "DWPP" in text
        assert "±" in text
        assert (out / "summary.txt").read_text() == text
        assert (out / "summary.csv").exists()

    def test_stability_advisory_reference_case(self, small_config, tmp_path):
        # v_max 0.5 with the default stability settings needs 0.4 m; every
        # configured controller operates at or above that.
        text = emit_report(
            run_comparison(small_config, tmp_path / "out"), small_config, tmp_path / "out"
        )
        assert "minimum stable lookahead at v_max=0.5 m/s: 0.400 m" in text
        assert "BELOW ADVISORY THRESHOLD" not in text

    def test_advisory_flags_short_lookahead(self, tmp_path):
        file = tmp_path / "short.yaml"
        file.write_text(SMALL_CONFIG + "lookahead: {mode: fixed, fixed_distance: 0.2}\n")
        cfg = load_config(file)
        results = run_comparison(cfg, tmp_path / "out")
        text = emit_report(results, cfg, tmp_path / "out")
        assert "BELOW ADVISORY THRESHOLD" in text

    def test_empty_results_rejected(self, small_config, tmp_path):
        with pytest.raises(ParameterError):
            emit_report({}, small_config, tmp_path / "out")

    def test_summary_counts_trials_and_reached_goals(self, small_config, tmp_path):
        config = replace(small_config, controllers=small_config.controllers[:1])
        trials = [
            ScenarioMetrics(1.0, 0.05, 0.2, 20.0, reached_goal=True),
            ScenarioMetrics(1.0, 0.05, 0.2, 60.0, reached_goal=False),
        ]
        emit_report({("B", "rpp"): trials}, config, tmp_path)
        with open(tmp_path / "summary.csv", newline="") as handle:
            (row,) = csv.DictReader(handle)
        assert (row["trials"], row["reached"], row["travel_time_mean"]) == ("2", "1", "40.0")


class TestCli:
    def test_compare_subcommand(self, tmp_path, capsys):
        config = tmp_path / "cfg.yaml"
        config.write_text(SMALL_CONFIG)
        out = tmp_path / "out"
        assert main(["compare", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "metrics.csv").exists()
        assert (out / "summary.txt").exists()
        assert "Travel time [s]" in capsys.readouterr().out

    def test_sweep_subcommand(self, tmp_path, capsys):
        config = tmp_path / "cfg.yaml"
        config.write_text(SMALL_CONFIG + "lookahead_values: [0.3, 0.6]\n")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "sweep.csv").exists()
        assert "mean_cte" in capsys.readouterr().out

    def test_simulate_named_path(self, tmp_path, capsys):
        config = tmp_path / "cfg.yaml"
        config.write_text(SMALL_CONFIG)
        out = tmp_path / "out"
        code = main(
            ["simulate", "--controller", "dwpp", "--path", "B", "--config", str(config), "--out", str(out)]
        )
        assert code == 0
        assert (out / "traj_B_dwpp.csv").exists()
        assert "reached=True" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "controller, encoding",
        [("pp", "utf-8"), ("app", "utf-8"), ("rpp", "utf-8"), ("dwpp", "utf-8"), ("dwpp", "utf-8-sig")],
        ids=["pp", "app", "rpp", "dwpp", "dwpp-bom"],
    )
    def test_simulate_every_law_on_a_u_turn_csv(self, tmp_path, capsys, controller, encoding):
        # The legs are 0.3 m apart; pp and app cut the turn, so they drive the
        # projection's full-scan fallback hardest. Spreadsheet programs save a
        # CSV with a UTF-8 byte-order mark ("utf-8-sig").
        rows = ["x,y", *(f"{i / 20},0.0" for i in range(41)), *(f"2.0,{i / 20}" for i in range(1, 7))]
        rows += [f"{i / 20},0.3" for i in range(39, -1, -1)]
        waypoints = tmp_path / "uturn.csv"
        waypoints.write_text("\n".join(rows) + "\n", encoding=encoding)
        assert waypoints.read_bytes().startswith(b"\xef\xbb\xbf") == (encoding == "utf-8-sig")
        out = tmp_path / "out"
        assert main(["simulate", "--controller", controller, "--path", str(waypoints), "--out", str(out)]) == 0
        assert (out / f"traj_uturn_{controller}.csv").stat().st_size > 0

    def test_simulate_unknown_path_fails(self, tmp_path, capsys):
        assert main(["simulate", "--controller", "pp", "--path", "Z", "--out", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["compare", "--config", "{dir}"], ["simulate", "--controller", "pp", "--path", "{dir}"]],
        ids=["compare --config", "simulate --path"],
    )
    def test_directory_argument_fails_with_a_named_error(self, tmp_path, capsys, argv):
        argv = [arg.format(dir=tmp_path) for arg in argv]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {tmp_path}: cannot read")

    @pytest.mark.parametrize(
        "argv",
        [["compare"], ["sweep"], ["simulate", "--controller", "pp", "--path", "B"]],
        ids=["compare", "sweep", "simulate"],
    )
    def test_out_naming_a_file_fails_with_a_named_error(self, tmp_path, capsys, argv):
        file = tmp_path / "taken"
        file.write_text("")
        assert main([*argv, "--out", str(file)]) == 1
        assert capsys.readouterr().err == f"error: {file}: cannot create output directory: File exists\n"

    def test_output_dir_holding_a_nul_byte_fails_with_a_named_error(self, tmp_path, capsys, monkeypatch):
        config = tmp_path / "nul.yaml"
        config.write_text(SMALL_CONFIG + 'output_dir: "a\\0b"\n')
        monkeypatch.chdir(tmp_path)
        assert main(["compare", "--config", str(config)]) == 1
        assert capsys.readouterr().err == "error: a\0b: cannot create output directory: embedded null byte\n"
        assert sorted(file.name for file in tmp_path.iterdir()) == ["nul.yaml"]

    @pytest.mark.parametrize(
        "rows, segment",
        [
            # The middle waypoint is 1e-170 m from the first: that length squared underflows to 0.
            ("0,0\n1e-170,0\n3,0\n", 0),
            ("0,0\n1,0\n1,0\n2,0\n", 1),
        ],
        ids=["underflow", "repeated_row"],
    )
    def test_simulate_rejects_a_segment_the_projection_cannot_measure(self, tmp_path, capsys, rows, segment):
        waypoints = tmp_path / "waypoints.csv"
        waypoints.write_text("x,y\n" + rows)
        argv = ["simulate", "--controller", "dwpp", "--path", str(waypoints), "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {waypoints}: segment {segment} ")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("trials: 0\n", "trials must be at least 1, got 0"),
            ("max_time: .inf\n", "max_time must be a finite number, got inf"),
            ("trials: 1\ntrials: 2\n", "{file}: line 2: repeated key 'trials'"),
            ("max_time: 1.0e+308\n", "max_time / limits.dt must be finite, got 1e+308 / 0.033"),
        ],
        ids=["zero_trials", "infinite_max_time", "repeated_key", "overflowing_step_count"],
    )
    def test_bad_config_exits_nonzero(self, tmp_path, capsys, text, message):
        config = tmp_path / "bad.yaml"
        config.write_text(text)
        assert main(["compare", "--config", str(config), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {message.format(file=config)}\n"

    def test_compare_rejects_a_path_that_starts_inside_the_goal(self, tmp_path, capsys):
        # Path A runs and writes its files before F fails; the failure removes them all.
        config = tmp_path / "fold.yaml"
        config.write_text(FOLD_CONFIG.replace("paths:\n", "paths:\n  - {name: A, corner_angle_deg: 90.0}\n"))
        out = tmp_path / "out"
        assert main(["compare", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: path F, controller dwpp, trial 0: {FOLD_ERROR}\n"
        assert list(out.iterdir()) == []

    def test_compare_that_fails_leaves_an_earlier_run_in_the_same_out_as_it_was(self, tmp_path, capsys):
        # The A-only run's files are all rewritten by the A+F run before F fails.
        path_a = "paths:\n  - {name: A, corner_angle_deg: 90.0}\n"
        first, second = tmp_path / "a.yaml", tmp_path / "fold.yaml"
        first.write_text(path_a + "controllers: [dwpp]\ntrials: 1\n")
        second.write_text(FOLD_CONFIG.replace("paths:\n", path_a))
        out = tmp_path / "out"
        assert main(["compare", "--config", str(first), "--out", str(out)]) == 0
        before = {file.name: file.read_bytes() for file in out.iterdir()}
        assert main(["compare", "--config", str(second), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: path F, controller dwpp, trial 0: {FOLD_ERROR}\n"
        assert {file.name: file.read_bytes() for file in out.iterdir()} == before
        assert sorted(before) == [
            "metrics.csv", "path_A.csv", "summary.csv", "summary.txt", "traj_A_dwpp_trial0.csv",
        ]

    @pytest.mark.parametrize(
        "yaml_name, message",
        [("b/c", "paths[1]: name 'b/c' must not contain '/'"),
         ('"b\\0c"', "paths[1]: name 'b\\x00c' must not contain '\\x00'")],
        ids=["slash", "nul"],
    )
    def test_compare_rejects_a_path_name_that_is_not_a_file_name(self, tmp_path, capsys, yaml_name, message):
        config = tmp_path / "names.yaml"
        config.write_text(f"paths:\n  - {{name: A}}\n  - {{name: {yaml_name}}}\ncontrollers: [dwpp]\ntrials: 1\n")
        out = tmp_path / "out"
        out.mkdir()
        assert main(["compare", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "name, blocked, code",
        [
            # The file system's name limit is unknown when the config loads, so the write itself fails.
            ("a" * 300, False, errno.ENAMETOOLONG),
            # Every CSV is written as .partial; metrics.csv is renamed into place first.
            ("A", True, errno.EISDIR),
        ],
        ids=["name_too_long", "metrics_csv_is_a_directory"],
    )
    def test_compare_reports_a_file_it_cannot_write_as_an_error(self, tmp_path, capsys, name, blocked, code):
        config = tmp_path / "one.yaml"
        config.write_text(f"paths:\n  - {{name: {name}, segment_length: 1.5}}\ncontrollers: [dwpp]\ntrials: 1\n")
        out = tmp_path / "out"
        if blocked:
            (out / "metrics.csv").mkdir(parents=True)
        assert main(["compare", "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: [Errno {code}] ")
        assert err.count("\n") == 1
        assert [file.name for file in out.iterdir()] == (["metrics.csv"] if blocked else [])
        if blocked:
            assert list((out / "metrics.csv").iterdir()) == []

    def test_compare_under_an_ascii_locale_writes_utf8_files(self, tmp_path):
        # The config's comment and the report's "±" are not ASCII.
        config = tmp_path / "one.yaml"
        config.write_text(
            "# one corner, ±1 trial, Ä\npaths:\n  - {name: A, segment_length: 1.5}\n"
            "controllers: [dwpp]\ntrials: 1\n",
            encoding="utf-8",
        )
        src = str(Path(pursuitbench.__file__).resolve().parent.parent)
        ascii_locale = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}

        def compare(locale_env, out):
            env = {**os.environ, **locale_env, "PYTHONIOENCODING": "utf-8", "PYTHONPATH": src}
            argv = [sys.executable, "-m", "pursuitbench.cli", "compare", "--config", str(config), "--out", str(out)]
            return subprocess.run(argv, env=env, capture_output=True, timeout=120)

        summaries = []
        for locale_env in (ascii_locale, {"PYTHONUTF8": "1"}):
            out = tmp_path / f"out{len(summaries)}"
            done = compare(locale_env, out)
            assert done.returncode == 0, done.stderr.decode("utf-8", "replace")
            summaries.append((out / "summary.txt").read_bytes())
        assert "± ".encode() in summaries[0]
        assert summaries[0] == summaries[1]
        # A path name the ASCII file system encoding cannot hold is rejected before any run.
        config.write_text(config.read_text(encoding="utf-8").replace("name: A", "name: Ä"), encoding="utf-8")
        done = compare(ascii_locale, tmp_path / "out_ascii_name")
        assert done.returncode == 1
        assert done.stderr.decode("utf-8") == "error: paths[0]: name 'Ä' is not a file name in ascii\n"

    def test_no_file_is_opened_in_the_locale_encoding(self, tmp_path):
        # Under these flags an open() that leaves its encoding to the locale raises.
        config = tmp_path / "one.yaml"
        config.write_text("paths:\n  - {name: A, segment_length: 1.5}\ncontrollers: [dwpp]\ntrials: 1\n")
        src = str(Path(pursuitbench.__file__).resolve().parent.parent)
        write_path = (
            "import sys, pursuitbench as p\n"
            "p.generate_corner_path(p.CornerPathSpec(1.0, 1.0)).to_csv(sys.argv[1] + '/corner.csv')"
        )
        # Each command with the CSV files it must write.
        commands = {
            "simulate": (
                ["-m", "pursuitbench.cli", "simulate", "--controller", "dwpp", "--path", "B", "--out"],
                ["traj_B_dwpp.csv"],
            ),
            "compare": (
                ["-m", "pursuitbench.cli", "compare", "--config", str(config), "--out"],
                ["metrics.csv", "path_A.csv", "summary.csv", "traj_A_dwpp_trial0.csv"],
            ),
            "path": (["-c", write_path], ["corner.csv"]),
        }
        for name, (command, written) in commands.items():
            out = tmp_path / name
            out.mkdir()
            argv = [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning", *command, str(out)]
            done = subprocess.run(argv, env={**os.environ, "PYTHONPATH": src}, capture_output=True, timeout=120)
            assert done.returncode == 0, done.stderr.decode("utf-8", "replace")
            assert sorted(file.name for file in out.glob("*.csv")) == written
            assert all((out / file).stat().st_size > 0 for file in written)

    def test_compare_to_an_ascii_stdout_escapes_the_report(self, tmp_path):
        # With PYTHONIOENCODING unset, stdout takes the locale's ASCII encoding.
        config = tmp_path / "one.yaml"
        config.write_text("paths:\n  - {name: A, segment_length: 1.5}\ncontrollers: [dwpp]\ntrials: 1\n")
        src = str(Path(pursuitbench.__file__).resolve().parent.parent)
        environ = {name: value for name, value in os.environ.items() if name != "PYTHONIOENCODING"}
        runs = []
        for locale_env in ({"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}, {"PYTHONUTF8": "1"}):
            out = tmp_path / f"out{len(runs)}"
            env = {**environ, **locale_env, "PYTHONPATH": src}
            argv = [sys.executable, "-m", "pursuitbench.cli", "compare", "--config", str(config), "--out", str(out)]
            runs.append((subprocess.run(argv, env=env, capture_output=True, timeout=120), out))
        (ascii_run, ascii_out), (_, utf8_out) = runs
        assert ascii_run.returncode == 0, ascii_run.stderr.decode("utf-8", "replace")
        assert b"Traceback" not in ascii_run.stderr
        assert b"(mean \\xb1 sd)" in ascii_run.stdout
        assert "(mean ± sd)".encode() in (ascii_out / "summary.txt").read_bytes()
        assert (ascii_out / "summary.txt").read_bytes() == (utf8_out / "summary.txt").read_bytes()

    @pytest.mark.parametrize(
        "argv, label",
        [
            (["compare"], "path F, controller dwpp, trial 0"),
            (["sweep"], "path F, lookahead 0.26"),
            (["simulate", "--controller", "dwpp", "--path", "F"], "path F, controller dwpp"),
        ],
        ids=["compare", "sweep", "simulate"],
    )
    def test_a_failed_run_is_labelled_by_every_command(self, tmp_path, capsys, argv, label):
        config = tmp_path / "fold.yaml"
        config.write_text(FOLD_CONFIG)
        assert main([*argv, "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {label}: {FOLD_ERROR}\n"


def test_package_root_exports_exactly_the_library_api():
    exported = {
        name
        for name, value in vars(pursuitbench).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert exported == {
        "ControllerKind", "CornerPathSpec", "ExperimentConfig",
        "KinodynamicLimits", "LookaheadConfig", "NoiseModel", "ParameterError",
        "ReferencePath", "RegulationConfig", "ScenarioMetrics",
        "ScenarioResult", "StabilityConfig", "SweepConfig",
        "TrajectoryLog", "emit_report", "generate_corner_path", "load_config",
        "load_sweep_config", "operative_lookahead", "run_comparison", "run_lookahead_sweep",
        "run_scenario", "scenario_metrics",
    }


def test_package_raises_only_parameter_error():
    # Every raise in the package either re-raises or raises ParameterError(...).
    others = []
    for file in sorted(Path(pursuitbench.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(file.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                func = node.exc.func if isinstance(node.exc, ast.Call) else None
                if not (isinstance(func, ast.Name) and func.id == "ParameterError"):
                    others.append(f"{file.name}:{node.lineno}: {ast.unparse(node)}")
    assert others == []


def trajectory_digest(out: Path) -> tuple[int, str]:
    """The count of trajectory and path CSVs in ``out`` and one SHA-256 over their names and bytes.

    Files are taken in sorted name order; each contributes its name, its size
    and its bytes.
    """
    files = sorted(file for file in out.iterdir() if file.name.startswith(("traj_", "path_")))
    digest = hashlib.sha256()
    for file in files:
        data = file.read_bytes()
        digest.update(f"{file.name}\n{len(data)}\n".encode())
        digest.update(data)
    return len(files), digest.hexdigest()


def test_shipped_profiles_match_golden_digests(tmp_path):
    """``compare`` and ``sweep`` on the shipped profiles write the bytes pinned in bench/golden.json,
    and ``compare``'s trajectory and path CSVs the bytes pinned in golden_trajectories.json."""
    golden = json.loads(GOLDEN.read_text())
    assert main(["compare", "--config", "experiment_table1", "--out", str(tmp_path / "table1")]) == 0
    # sweep's default config is the simulation_table6 profile.
    assert main(["sweep", "--out", str(tmp_path / "sweep6")]) == 0
    for workload in ("table1", "sweep6"):
        for file, digest in golden[workload].items():
            written = hashlib.sha256((tmp_path / workload / file).read_bytes()).hexdigest()
            assert written == digest, f"{workload}/{file}"
    pinned = json.loads(GOLDEN_TRAJECTORIES.read_text())["table1"]
    assert trajectory_digest(tmp_path / "table1") == (pinned["files"], pinned["sha256"])
    summary = hashlib.sha256((tmp_path / "table1" / "summary.txt").read_bytes()).hexdigest()
    assert summary == pinned["summary.txt"]


def test_longpath_workload_matches_golden_digests(tmp_path, monkeypatch):
    """``compare`` on the benchmark's 2,000-segment corner writes the bytes pinned in bench/golden.json."""
    spec = importlib.util.spec_from_file_location("bench_workloads", GOLDEN.parent / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    config = tmp_path / "longpath.yaml"
    config.write_text(
        yaml.safe_dump(workloads.WORKLOADS["longpath"].config(workloads.DEFAULT_SEED), sort_keys=False)
    )
    assert main(["compare", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    for file, digest in json.loads(GOLDEN.read_text())["longpath"].items():
        assert hashlib.sha256((tmp_path / "out" / file).read_bytes()).hexdigest() == digest, file
