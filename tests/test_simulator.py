import csv
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import pursuitbench.paths as paths
import pursuitbench.simulator as simulator
from conftest import (
    corner_path,
    nearest_point_oracle,
    polyline_distances,
    run_scenario_oracle,
    straight_path,
    u_turn_path,
    write_log_rowwise,
)
from pursuitbench import (
    ControllerKind,
    ExperimentConfig,
    KinodynamicLimits,
    LookaheadConfig,
    NoiseModel,
    ParameterError,
    ReferencePath,
    RegulationConfig,
    TrajectoryLog,
    run_scenario,
)
from pursuitbench.config import FIXED_LOOKAHEAD, VELOCITY_SCALED_LOOKAHEAD
from pursuitbench.controllers import (
    clip_to_window,
    window_bounds,
)
from pursuitbench.metrics import violation_ratio
from pursuitbench.paths import project_onto_path, wrap_angle
from pursuitbench.simulator import _CSV_BLOCK_ROWS, arc_step


def euler_reference(x, y, theta, v, omega, dt, substeps=1000):
    """Independent fine-step Euler integration of the unicycle kinematics."""
    h = dt / substeps
    for _ in range(substeps):
        x += v * math.cos(theta) * h
        y += v * math.sin(theta) * h
        theta += omega * h
    return x, y


def run(path, kind, simulate=run_scenario, noise=NoiseModel(), **settings):
    """``simulate(path, kind, ExperimentConfig(noise=noise, **settings))``; noise-free unless ``noise`` is given.

    Unset settings are table1's.
    """
    return simulate(path, kind, ExperimentConfig(noise=noise, **settings))


def outcome(simulate, *args, **kwargs):
    """The exact bits of a run: every log column, the goal flag and travel time, or the error."""
    try:
        result = simulate(*args, **kwargs)
    except ParameterError as exc:
        return type(exc), str(exc)
    columns = {}
    for field in fields(TrajectoryLog):
        column = getattr(result.log, field.name)
        columns[field.name] = (column.dtype.str, cells(column))
    return columns, result.reached_goal, float.hex(result.travel_time)


def zero_columns(size: int) -> dict:
    """Every ``TrajectoryLog`` column as ``size`` zeros: the flags boolean, the rest float."""
    return {
        field.name: np.zeros(size, dtype=bool if field.name.startswith("viol_") else float)
        for field in fields(TrajectoryLog)
    }


def cells(column) -> list:
    """A log column as exact hex strings, or as bools."""
    return column.tolist() if column.dtype == bool else list(map(float.hex, column.tolist()))


class TestExecutionAndNoiseModels:
    def test_rejects_negative_sigma(self):
        with pytest.raises(ParameterError):
            NoiseModel(sigma_v=-0.1)

    @pytest.mark.parametrize("field", ["sigma_v", "sigma_omega", "sigma_pose_init"])
    def test_rejects_nan_sigma(self, field):
        with pytest.raises(ParameterError, match=f"^{field} must be a finite number, got nan$"):
            NoiseModel(**{field: math.nan})

    @pytest.mark.parametrize("field", ["sigma_v", "sigma_omega", "sigma_pose_init"])
    def test_rejects_infinite_sigma(self, field):
        with pytest.raises(ParameterError, match=f"^{field} must be a finite number, got inf$"):
            NoiseModel(**{field: math.inf})

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_rejects_seed_that_is_not_a_non_negative_int(self, seed):
        with pytest.raises(ParameterError, match="seed"):
            NoiseModel(seed=seed)


class TestClipToFeasible:
    def setup_method(self):
        self.limits = KinodynamicLimits()

    def test_command_inside_window_unchanged(self):
        window = window_bounds(0.4, 0.0, self.limits)
        assert clip_to_window(0.41, 0.01, window) == (0.41, 0.01)

    def test_linear_velocity_clamped_to_window(self):
        window = window_bounds(0.4, 0.0, self.limits)
        v, _ = clip_to_window(0.5, 0.0, window)
        assert v == pytest.approx(0.4165, abs=1e-12)

    def test_angular_velocity_clamped_to_window(self):
        window = window_bounds(0.0, 0.0, self.limits)
        _, omega = clip_to_window(0.0, 1.0, window)
        assert omega == pytest.approx(0.033, abs=1e-12)


class TestStepUnicycle:
    def test_straight_motion(self):
        x, y, theta = arc_step(0.0, 0.0, 0.0, 1.0, 0.0, 1.0)
        assert (x, y, wrap_angle(theta)) == (1.0, 0.0, 0.0)

    def test_spin_in_place(self):
        x, y, theta = arc_step(0.5, -0.5, 0.0, 0.0, math.pi, 1.0)
        assert x == 0.5
        assert y == -0.5
        assert wrap_angle(theta) == pytest.approx(math.pi)

    def test_quarter_circle(self):
        x, y, theta = arc_step(0.0, 0.0, 0.0, math.pi / 2, math.pi / 2, 1.0)
        assert x == pytest.approx(1.0, abs=1e-12)
        assert y == pytest.approx(1.0, abs=1e-12)
        assert wrap_angle(theta) == pytest.approx(math.pi / 2)

    def test_velocities_updated_to_executed(self):
        # Each step's state velocities are the previous step's executed ones.
        log = run(corner_path(90.0), ControllerKind.PURE_PURSUIT).log
        assert (log.v[0], log.omega[0]) == (0.0, 0.0)
        np.testing.assert_array_equal(log.v[1:], log.v_exec[:-1])
        np.testing.assert_array_equal(log.omega[1:], log.omega_exec[:-1])

    def test_agrees_with_fine_euler_integration(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            x, y = rng.uniform(-1, 1), rng.uniform(-1, 1)
            theta = wrap_angle(rng.uniform(-math.pi, math.pi))
            v, omega = rng.uniform(0, 0.5), rng.uniform(-1, 1)
            dt = rng.uniform(0.001, 0.05)
            stepped_x, stepped_y, _ = arc_step(x, y, theta, v, omega, dt)
            ex, ey = euler_reference(x, y, theta, v, omega, dt)
            assert math.hypot(stepped_x - ex, stepped_y - ey) < 1e-6


class TestRunScenario:
    def test_straight_dynamic_window_run_is_clean(self):
        result = run(straight_path(), ControllerKind.DYNAMIC_WINDOW)
        assert result.reached_goal
        assert not result.log.any_violation.any()
        assert result.travel_time == pytest.approx(len(result.log) * 0.033)

    def test_goal_distance_decreases_while_moving(self):
        path = straight_path()
        result = run(path, ControllerKind.DYNAMIC_WINDOW)
        log = result.log
        remaining = [
            path.length - project_onto_path(path, x, y)[4]
            for x, y in zip(log.x, log.y)
        ]
        moving = log.v[:-1] > 0
        deltas = np.diff(remaining)[moving]
        assert np.all(deltas < 0)

    def test_corner_pure_pursuit_violates_and_gets_clipped(self):
        result = run(corner_path(135.0), ControllerKind.PURE_PURSUIT)
        log = result.log
        assert log.any_violation.any()
        clipped = (log.v_exec != log.v_cmd) | (log.omega_exec != log.omega_cmd)
        assert clipped.any()

    def test_kind_that_is_not_a_controller_kind_is_rejected(self):
        # command_velocities takes any kind it does not name for dwpp.
        with pytest.raises(ParameterError, match=r"^kind must be of type ControllerKind, got 'pp'$"):
            run(corner_path(90.0), "pp")

    def test_corner_dynamic_window_never_violates(self):
        result = run(corner_path(135.0), ControllerKind.DYNAMIC_WINDOW)
        assert result.reached_goal
        assert not result.log.any_violation.any()

    def test_dynamic_window_never_violates_while_reversing(self):
        # With reversing allowed, velocity noise leaves the robot below zero
        # speed; dwpp must brake inside the window, not jump to v = 0.
        limits = KinodynamicLimits(v_min=-0.5)
        violating = [
            seed
            for seed in range(40)
            if run(
                corner_path(90.0), ControllerKind.DYNAMIC_WINDOW,
                limits=limits, noise=NoiseModel(sigma_v=0.05, seed=seed),
            ).log.any_violation.any()
        ]
        assert violating == []

    def test_dynamic_window_commands_pass_through_unchanged(self):
        result = run(corner_path(135.0), ControllerKind.DYNAMIC_WINDOW)
        log = result.log
        np.testing.assert_array_equal(log.v_exec, log.v_cmd)
        np.testing.assert_array_equal(log.omega_exec, log.omega_cmd)

    def test_executed_velocities_respect_acceleration_bounds(self):
        limits = KinodynamicLimits()
        for kind in ControllerKind:
            log = run(corner_path(90.0), kind).log
            dv = log.v_exec - log.v
            dw = log.omega_exec - log.omega
            assert np.all(dv <= limits.accel_max * limits.dt + 1e-9)
            assert np.all(dv >= -limits.decel_max * limits.dt - 1e-9)
            assert np.all(dw <= limits.ang_accel_max * limits.dt + 1e-9)
            assert np.all(dw >= -limits.ang_decel_max * limits.dt - 1e-9)
            assert np.all((log.v_exec >= limits.v_min) & (log.v_exec <= limits.v_max))

    def test_bit_identical_repeat_runs(self):
        noise = NoiseModel(sigma_pose_init=0.01, seed=42)
        first = run(corner_path(90.0), ControllerKind.REGULATED, noise=noise)
        second = run(corner_path(90.0), ControllerKind.REGULATED, noise=noise)
        for column in TrajectoryLog._COLUMNS:
            np.testing.assert_array_equal(
                getattr(first.log, column), getattr(second.log, column)
            )
        assert first.reached_goal == second.reached_goal
        assert first.travel_time == second.travel_time

    def test_seed_changes_initial_pose(self):
        path = corner_path(90.0)
        log_a = run(path, ControllerKind.PURE_PURSUIT, noise=NoiseModel(sigma_pose_init=0.01, seed=1)).log
        log_b = run(path, ControllerKind.PURE_PURSUIT, noise=NoiseModel(sigma_pose_init=0.01, seed=2)).log
        assert (log_a.x[0], log_a.y[0]) != (log_b.x[0], log_b.y[0])

    def test_velocity_noise_stays_within_limits_under_clipping(self):
        noise = NoiseModel(sigma_v=0.05, sigma_omega=0.05, seed=0)
        limits = KinodynamicLimits()
        log = run(straight_path(), ControllerKind.REGULATED, noise=noise).log
        assert np.all((log.v_exec >= limits.v_min - 1e-12) & (log.v_exec <= limits.v_max + 1e-12))
        assert (log.v_exec != log.v_cmd).any()

    def test_hardware_clip_uses_the_run_limits(self):
        limits = KinodynamicLimits(
            v_max=0.26, omega_max=0.5, omega_min=-0.5,
            accel_max=0.26, decel_max=0.26, ang_accel_max=0.5, ang_decel_max=0.5,
        )
        log = run(corner_path(135.0), ControllerKind.PURE_PURSUIT, limits=limits).log
        dv, dw = limits.accel_max * limits.dt, limits.ang_accel_max * limits.dt
        assert log.any_violation.any()
        assert np.all(log.v_exec <= limits.v_max)
        assert np.all(np.abs(log.omega_exec) <= limits.omega_max)
        assert np.all(np.abs(log.v_exec - log.v) <= dv + 1e-12)
        assert np.all(np.abs(log.omega_exec - log.omega) <= dw + 1e-12)

    def test_parameter_error_inside_loop_keeps_its_message(self):
        # At ~1.7e308 m/s the second step carries x past the largest float;
        # the projection overflows on the way there.
        limits = KinodynamicLimits(v_max=1.7e308, accel_max=1.7e308, decel_max=1.7e308, dt=1.0)
        message = "step 1: pose components must be finite"
        with np.errstate(over="ignore"), pytest.raises(ParameterError, match=message):
            run(straight_path(), ControllerKind.DYNAMIC_WINDOW, limits=limits)

    def test_command_overflow_diverges_at_its_step(self):
        # Once the lookahead turns the corner, curvature * v_max overflows.
        limits = KinodynamicLimits(v_max=1.7e308)
        message = "step 94: command velocities must be finite"
        for simulate in (run_scenario, run_scenario_oracle):
            with pytest.raises(ParameterError) as error:
                run(corner_path(90.0), ControllerKind.PURE_PURSUIT, simulate, limits=limits)
            assert str(error.value) == message

    @pytest.mark.parametrize(
        "noise, message",
        [
            (NoiseModel(sigma_v=1.7e308, seed=3), "step 0: command velocities must be finite"),
            (NoiseModel(sigma_omega=1.7e308, seed=1), "step 3: command velocities must be finite"),
        ],
        ids=["sigma_v", "sigma_omega"],
    )
    def test_actuation_noise_overflow_diverges_at_its_step(self, noise, message):
        # dwpp's own commands are finite; the noise added to them overflows.
        for simulate in (run_scenario, run_scenario_oracle):
            with pytest.raises(ParameterError) as error:
                run(straight_path(), ControllerKind.DYNAMIC_WINDOW, simulate, noise=noise)
            assert str(error.value) == message

    def test_goal_reached_on_the_final_step_counts(self):
        path = straight_path()
        steps = len(run(path, ControllerKind.DYNAMIC_WINDOW).log)
        result = run(path, ControllerKind.DYNAMIC_WINDOW, max_time=steps * 0.033)
        assert len(result.log) == steps
        assert result.reached_goal

    @pytest.mark.parametrize("kind", list(ControllerKind), ids=lambda kind: kind.value)
    def test_start_inside_the_goal_tolerance_is_rejected(self, kind):
        # The 178-degree corner with 3 m legs ends 0.105 m from its start.
        message = "the start lies 0.104714 m from the goal, within goal_tolerance 0.15 m"
        for simulate in (run_scenario, run_scenario_oracle):
            with pytest.raises(ParameterError) as error:
                run(corner_path(178.0), kind, simulate)
            assert str(error.value) == message

    def test_start_is_checked_after_the_pose_noise(self):
        # Without noise the start is 0.2 m from the goal and the run goes ahead.
        path = straight_path(length=0.2)
        assert run(path, ControllerKind.DYNAMIC_WINDOW).reached_goal
        message = "the start lies 0.133569 m from the goal, within goal_tolerance 0.15 m"
        noise = NoiseModel(sigma_pose_init=0.05, seed=24)
        for simulate in (run_scenario, run_scenario_oracle):
            with pytest.raises(ParameterError) as error:
                run(path, ControllerKind.DYNAMIC_WINDOW, simulate, noise=noise)
            assert str(error.value) == message

    def test_projects_once_per_step(self, monkeypatch):
        calls = []

        def counting(path, x, y):
            calls.append((x, y))
            return project_onto_path(path, x, y)

        monkeypatch.setattr(simulator, "project_onto_path", counting)
        log = run(corner_path(90.0), ControllerKind.REGULATED).log
        assert len(calls) == len(log)
        assert calls == list(zip(log.x, log.y))

    def test_cell_grid_answers_most_projections(self):
        # Every projection is exact either way; this shows the grid is used.
        with mock.patch.object(paths, "_nearest_by_scan", wraps=paths._nearest_by_scan) as scan:
            log = run(corner_path(90.0), ControllerKind.REGULATED).log
        assert scan.call_count < 0.1 * len(log)

    @pytest.mark.parametrize("kind", list(ControllerKind), ids=lambda kind: kind.value)
    def test_u_turn_logs_the_global_projection(self, kind):
        # Legs 0.3 m apart: the projection may jump between them, and the
        # log must still hold the global nearest point at every step.
        path = u_turn_path()
        log = run(path, kind).log
        oracle = [nearest_point_oracle(path, x, y) for x, y in zip(log.x, log.y)]
        assert log.cte.tolist() == [projection[3] for projection in oracle]
        assert log.arc_length.tolist() == [projection[4] for projection in oracle]

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(ControllerKind),
        sigma=st.sampled_from([0.0, 0.01, 0.05]),
        seed=st.integers(0, 2**16),
    )
    def test_logged_projection_is_the_oracle_projection(self, kind, sigma, seed):
        path = corner_path(135.0)
        noise = NoiseModel(sigma_v=sigma, sigma_omega=sigma, sigma_pose_init=sigma, seed=seed)
        log = run(path, kind, noise=noise).log
        points = np.column_stack((log.x, log.y))
        assert log.cte.tobytes() == polyline_distances(path, points).tobytes()
        assert log.arc_length.tolist() == [nearest_point_oracle(path, x, y)[4] for x, y in points]

    def test_times_out_without_reaching_goal(self):
        result = run(straight_path(), ControllerKind.PURE_PURSUIT, max_time=1.0)
        assert not result.reached_goal
        assert len(result.log) == round(1.0 / 0.033)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ParameterError):
            run(straight_path(), ControllerKind.PURE_PURSUIT, max_time=0.0)
        with pytest.raises(ParameterError):
            run(straight_path(), ControllerKind.PURE_PURSUIT, goal_tolerance=-0.1)
        with pytest.raises(ParameterError):
            run(straight_path(), ControllerKind.PURE_PURSUIT, goal_tolerance=0.0)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"max_time": math.inf}, "max_time"),
            ({"max_time": math.nan}, "max_time"),
            ({"max_time": 0.02}, "max_time"),
            ({"goal_tolerance": math.nan}, "goal_tolerance"),
            ({"goal_tolerance": math.inf}, "goal_tolerance"),
            ({"max_time": 1e10, "limits": KinodynamicLimits(dt=1e-300)}, r"^max_time / limits\.dt must be finite"),
        ],
        ids=[
            "inf_max_time", "nan_max_time", "max_time_below_dt", "nan_goal_tolerance",
            "inf_goal_tolerance", "max_time_overflows_the_step_count",
        ],
    )
    def test_rejects_non_finite_or_too_short_run(self, overrides, message):
        with pytest.raises(ParameterError, match=message):
            run(straight_path(), ControllerKind.PURE_PURSUIT, **overrides)


_U_TURN = u_turn_path()


class TestFloatLoopIsTheObjectLoop:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(ControllerKind),
        path=st.one_of(
            st.floats(10.0, 170.0).map(lambda angle: corner_path(angle, segment_length=1.5)),
            st.just(_U_TURN),
        ),
        lookahead=st.builds(
            LookaheadConfig,
            mode=st.sampled_from([FIXED_LOOKAHEAD, VELOCITY_SCALED_LOOKAHEAD]),
            fixed_distance=st.floats(0.2, 1.0),
        ),
        regulation=st.builds(
            RegulationConfig,
            enable_curvature=st.booleans(),
            enable_proximity=st.booleans(),
            enable_goal=st.booleans(),
        ),
        v_min=st.floats(-0.5, 0.0),
        sigmas=st.tuples(*[st.sampled_from([0.0, 0.01, 0.05])] * 3),
        seed=st.integers(0, 2**16),
    )
    def test_every_column_matches_the_oracle(self, kind, path, lookahead, regulation, v_min, sigmas, seed):
        sigma_v, sigma_omega, sigma_pose_init = sigmas
        arguments = dict(
            limits=KinodynamicLimits(v_min=v_min),
            lookahead=lookahead,
            regulation=regulation,
            noise=NoiseModel(sigma_v, sigma_omega, sigma_pose_init, seed),
            max_time=12.0,
            goal_tolerance=0.15,
        )
        expected = outcome(run, path, kind, run_scenario_oracle, **arguments)
        assert outcome(run, path, kind, run_scenario, **arguments) == expected


@st.composite
def random_walk(draw):
    """A polyline of 2-4 legs at 0.05 m spacing, turning up to 100 whole degrees per leg.

    Whole degrees keep the geometry clear of subnormal numbers, where scaling
    by a power of two is not exact.
    """
    heading, points = 0.0, [np.zeros((1, 2))]
    for leg in range(draw(st.integers(2, 4))):
        heading += math.radians(draw(st.integers(-100, 100))) if leg else 0.0
        length = draw(st.floats(0.5, 1.5))
        steps = np.linspace(0.0, length, round(length / 0.05) + 1)[1:]
        points.append(points[-1][-1] + np.outer(steps, (math.cos(heading), math.sin(heading))))
    waypoints = np.vstack(points)
    assume(math.hypot(*(waypoints[-1] - waypoints[0])) > 0.5)
    return ReferencePath(waypoints)


def scaled_settings(k, limits, lookahead, regulation, goal_tolerance):
    """Every length-bearing setting times ``k``; dt, projection_time and the angular limits kept."""
    return dict(
        limits=replace(
            limits, v_max=k * limits.v_max, v_min=k * limits.v_min,
            accel_max=k * limits.accel_max, decel_max=k * limits.decel_max,
        ),
        lookahead=replace(
            lookahead, fixed_distance=k * lookahead.fixed_distance,
            min_distance=k * lookahead.min_distance, max_distance=k * lookahead.max_distance,
        ),
        regulation=replace(
            regulation, min_turn_radius=k * regulation.min_turn_radius,
            goal_slowdown_distance=k * regulation.goal_slowdown_distance,
            min_regulated_speed=k * regulation.min_regulated_speed,
            min_approach_speed=k * regulation.min_approach_speed,
        ),
        goal_tolerance=k * goal_tolerance,
    )


class TestScaleRelation:
    # Scaling a path and every length-bearing setting by a power of two is
    # exact in binary floating point, and every kernel is homogeneous in
    # lengths or takes a ratio of them: the scaled run is the run, scaled.
    LENGTH_COLUMNS = ("x", "y", "v", "v_cmd", "v_exec", "cte", "arc_length")

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        k=st.sampled_from([2.0, 0.5, 4.0]),
        path=st.one_of(
            st.floats(10.0, 170.0).map(lambda angle: corner_path(angle, segment_length=1.5)),
            random_walk(),
            st.just(_U_TURN),
        ),
        lookahead=st.builds(
            LookaheadConfig,
            mode=st.sampled_from([FIXED_LOOKAHEAD, VELOCITY_SCALED_LOOKAHEAD]),
            fixed_distance=st.floats(0.2, 1.0),
        ),
        v_min=st.sampled_from([0.0, -0.3]),
    )
    def test_scaled_run_is_the_run_scaled(self, k, path, lookahead, v_min):
        limits, tol = KinodynamicLimits(v_min=v_min), simulator._VIOLATION_TOL
        arguments = dict(
            limits=limits, lookahead=lookahead, regulation=RegulationConfig(), goal_tolerance=0.15
        )
        scaled_path = ReferencePath(k * path.waypoints)
        for kind in ControllerKind:
            original = run(path, kind, max_time=12.0, **arguments)
            scaled = run(scaled_path, kind, max_time=12.0, **scaled_settings(k, **arguments))
            assert (scaled.reached_goal, scaled.travel_time) == (original.reached_goal, original.travel_time)
            log, scaled_log = original.log, scaled.log
            for field in fields(TrajectoryLog):
                if field.name not in ("viol_v", "viol_a"):
                    column = getattr(log, field.name)
                    expected = k * column if field.name in self.LENGTH_COLUMNS else column
                    assert cells(getattr(scaled_log, field.name)) == cells(expected), field.name
            # The flags' absolute tolerance does not scale: skip the rows whose
            # v_cmd lies within it of the limit it is tested against, in either run.
            tested = {
                "viol_v": (limits.v_max, limits.v_min),
                "viol_a": (log.v + limits.accel_max * limits.dt, log.v - limits.decel_max * limits.dt),
            }
            for name, bounds in tested.items():
                gap = np.min([np.abs(log.v_cmd - bound) for bound in bounds], axis=0)
                clear = (gap > tol) & (k * gap > tol)
                assert cells(getattr(scaled_log, name)[clear]) == cells(getattr(log, name)[clear]), name


class TestStressCells:
    # Random cells of the stress grid: corner angle, waypoint spacing,
    # lookahead, speed limits, reversing and the pose-noise seed. Every run
    # finishes or fails with a precise error, dwpp never violates, and every
    # executed command lies inside its step's dynamic window.
    LEG, TOLERANCE, SIGMA = 1.5, 0.15, 0.01
    START_IN_GOAL = re.compile(r"the start lies \S+ m from the goal, within goal_tolerance 0\.15 m")
    EXECUTED = ("v", "omega", "v_exec", "omega_exec")

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        angle=st.floats(10.0, 178.0),
        spacing=st.floats(0.01, 0.3),
        lookahead=st.one_of(
            st.builds(LookaheadConfig, mode=st.just(FIXED_LOOKAHEAD), fixed_distance=st.floats(0.26, 1.04)),
            st.just(LookaheadConfig(mode=VELOCITY_SCALED_LOOKAHEAD)),
        ),
        speeds=st.tuples(st.floats(0.1, 1.0), st.floats(0.1, 1.0)),
        v_min=st.sampled_from([0.0, -0.1]),
        seed=st.integers(0, 2**16),
    )
    @example(angle=178.0, spacing=0.05, lookahead=LookaheadConfig(), speeds=(0.5, 0.5), v_min=0.0, seed=0)
    def test_every_run_finishes_inside_the_window(self, angle, spacing, lookahead, speeds, v_min, seed):
        (v_max, accel_max), noise = speeds, NoiseModel(sigma_pose_init=self.SIGMA, seed=seed)
        limits = KinodynamicLimits(v_max=v_max, v_min=v_min, accel_max=accel_max)
        path = corner_path(angle, segment_length=self.LEG, spacing=spacing)
        # The noise-free distance from the start to the goal.
        gap = 2.0 * self.LEG * math.sin(math.radians(180.0 - angle) / 2.0)
        for kind in ControllerKind:
            try:
                result = run(
                    path, kind, limits=limits, lookahead=lookahead, noise=noise,
                    max_time=30.0, goal_tolerance=self.TOLERANCE,
                )
            except ParameterError as exc:
                assert type(exc) is ParameterError and self.START_IN_GOAL.fullmatch(str(exc)), exc
                assert gap < self.TOLERANCE + 6.0 * self.SIGMA
                continue
            assert gap > self.TOLERANCE - 6.0 * self.SIGMA
            log = result.log
            if kind is ControllerKind.DYNAMIC_WINDOW:
                assert violation_ratio(log) == 0.0
            executed = (getattr(log, name).tolist() for name in self.EXECUTED)
            for v, omega, v_exec, omega_exec in zip(*executed):
                v_lo, v_hi, omega_lo, omega_hi = window_bounds(v, omega, limits)
                assert v_lo <= v_exec <= v_hi and omega_lo <= omega_exec <= omega_hi


def test_noise_free_run_never_loads_numpy_random():
    # The first generator a process builds loads numpy.random, which costs
    # milliseconds and megabytes of peak memory that a noise-free run never uses.
    code = """
import sys
import tracemalloc
from pursuitbench import ControllerKind, CornerPathSpec, ExperimentConfig, NoiseModel, generate_corner_path, run_scenario
if "numpy.random" in sys.modules:
    print("preloaded")
    sys.exit()
path = generate_corner_path(CornerPathSpec(1.5, 1.5, 0.05))
result = run_scenario(path, ControllerKind.DYNAMIC_WINDOW, ExperimentConfig(max_time=12.0, noise=NoiseModel(seed=3)))
print(len(result.log) > 0, "numpy.random" in sys.modules)
"""
    src = str(Path(simulator.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    if done.stdout.strip() == "preloaded":
        pytest.skip("importing numpy already loads numpy.random")
    assert done.stdout.split() == ["True", "False"]


class TestTrajectoryLogIO:
    def test_csv_round_trip(self, tmp_path):
        result = run(corner_path(90.0), ControllerKind.DYNAMIC_WINDOW)
        file = tmp_path / "traj.csv"
        result.log.to_csv(file)
        with open(file, newline="") as handle:
            header, *rows = csv.reader(handle)
        assert tuple(header) == TrajectoryLog._COLUMNS
        assert len(rows) == len(result.log)
        for index, name in enumerate(TrajectoryLog._COLUMNS):
            column = getattr(result.log, name)
            if name.startswith("viol_"):
                expected = [str(int(value)) for value in column]
            else:
                expected = [repr(float(value)) for value in column]
            assert [row[index] for row in rows] == expected

    def test_column_length_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            TrajectoryLog(
                t=np.array([0.0, 0.033]),
                x=np.array([0.0]),
                y=np.array([0.0]),
                theta=np.array([0.0]),
                v=np.array([0.0]),
                omega=np.array([0.0]),
                v_cmd=np.array([0.0]),
                omega_cmd=np.array([0.0]),
                v_exec=np.array([0.0]),
                omega_exec=np.array([0.0]),
                viol_v=np.array([False]),
                viol_w=np.array([False]),
                viol_a=np.array([False]),
                viol_alpha=np.array([False]),
                cte=np.array([0.0]),
                arc_length=np.array([0.0]),
            )

    @pytest.mark.parametrize("name", ["cte", "arc_length"])
    def test_projection_column_length_checked(self, name):
        columns = zero_columns(2)
        columns[name] = np.zeros(1)
        with pytest.raises(ParameterError):
            TrajectoryLog(**columns)

    def test_columns_are_read_only_views_of_the_callers_arrays(self):
        columns = zero_columns(2)
        log = TrajectoryLog(**columns)
        columns["x"][0] = 1.0
        assert log.x[0] == 1.0  # a view, not a copy
        for name, array in columns.items():
            assert array.flags.writeable and not getattr(log, name).flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            log.x[0] = 2.0
        columns["y"] = np.zeros(3)
        with pytest.raises(ParameterError, match="^log columns must have equal length$"):
            TrajectoryLog(**columns)

    @pytest.mark.parametrize("dtype", [float, int, np.uint8])
    def test_flag_column_must_be_boolean(self, dtype):
        # A flag column of another dtype would break ``any_violation`` and ``to_csv``.
        columns = zero_columns(2)
        columns["viol_a"] = np.zeros(2, dtype=dtype)
        message = f"^viol_a must be a boolean column, got dtype {np.dtype(dtype)}$"
        with pytest.raises(ParameterError, match=message):
            TrajectoryLog(**columns)

    @settings(
        max_examples=200, deadline=None, derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        columns=st.integers(0, 8).flatmap(
            lambda n: st.fixed_dictionaries(
                {
                    field.name: st.lists(
                        st.booleans() if field.name.startswith("viol_") else st.floats(),
                        min_size=n,
                        max_size=n,
                    )
                    for field in fields(TrajectoryLog)
                }
            )
        )
    )
    def test_csv_bytes_are_the_rowwise_writer(self, tmp_path, columns):
        log = TrajectoryLog(
            **{
                name: np.array(values, dtype=bool if name.startswith("viol_") else float)
                for name, values in columns.items()
            }
        )
        log.to_csv(tmp_path / "columns.csv")
        write_log_rowwise(log, tmp_path / "rows.csv")
        assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    @settings(
        max_examples=200, deadline=None, derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        n=st.one_of(
            st.integers(0, 8),
            st.sampled_from([_CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1, 2 * _CSV_BLOCK_ROWS + 3]),
        ),
        data=st.data(),
    )
    def test_csv_bytes_are_the_rowwise_writer_where_cells_repeat(self, tmp_path, n, data):
        # Every float cell is drawn from one small pool, so equal bits recur
        # within and across rows, columns and blocks: the writer formats each
        # distinct bit pattern of a block once. The pool holds 0.0 and -0.0
        # (equal, with other bits), both infinities and NaNs of either sign
        # with several payloads (unequal to themselves), beside a few
        # arbitrary floats. Logs of one row short of a block, one block, one
        # row past it and two blocks plus a partial one cross block edges.
        nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001], np.uint64)
        pool = np.concatenate(
            (nans.view(np.float64), [0.0, -0.0, math.inf, -math.inf], data.draw(st.lists(st.floats(), max_size=5)))
        )
        # One byte per cell, drawn at once: each picks a pool entry or a flag.
        picks = st.binary(min_size=n, max_size=n).map(lambda raw: np.frombuffer(raw, np.uint8))
        columns = {name: pool[data.draw(picks) % len(pool)] for name in TrajectoryLog._COLUMNS[:10]}
        for name in ("viol_v", "viol_w", "viol_a", "viol_alpha"):
            columns[name] = (data.draw(picks) & 1).astype(bool)
        log = TrajectoryLog(**columns, cte=np.zeros(n), arc_length=np.zeros(n))
        log.to_csv(tmp_path / "columns.csv")
        write_log_rowwise(log, tmp_path / "rows.csv")
        assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def traced_peak(call):
    """``(result, peak, kept)``: the bytes ``call`` held at its peak and after it returned, by ``tracemalloc``."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        kept, peak = tracemalloc.get_traced_memory()
        return result, peak - before, kept - before
    finally:
        tracemalloc.stop()


class TestTrajectoryMemory:
    def test_csv_writer_memory_does_not_grow_with_the_log(self, tmp_path):
        # Distinct random floats are the writer's worst case: no cell repeats.
        rng = np.random.default_rng(0)

        def random_log(rows):
            return TrajectoryLog(
                **{
                    field.name: rng.random(rows) < 0.5 if field.name.startswith("viol_") else rng.standard_normal(rows)
                    for field in fields(TrajectoryLog)
                }
            )

        one_block, twenty_blocks = random_log(_CSV_BLOCK_ROWS), random_log(20 * _CSV_BLOCK_ROWS)
        _, small, _ = traced_peak(lambda: one_block.to_csv(tmp_path / "one.csv"))
        _, large, _ = traced_peak(lambda: twenty_blocks.to_csv(tmp_path / "twenty.csv"))
        assert large < 3 * small

    def test_run_holds_little_more_than_the_log_it_returns(self):
        path = corner_path(90.0, segment_length=10.0)
        # The first run builds the path's projection grid, which the path keeps.
        run(path, ControllerKind.DYNAMIC_WINDOW, max_time=300.0)
        result, peak, kept = traced_peak(lambda: run(path, ControllerKind.DYNAMIC_WINDOW, max_time=300.0))
        assert len(result.log) > 1000  # long enough that what each step keeps dominates
        assert peak < 2 * kept
