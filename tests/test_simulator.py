import csv
import math
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
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
    KinodynamicLimits,
    LookaheadConfig,
    NoiseModel,
    ParameterError,
    PursuitBenchError,
    RegulationConfig,
    SimulationDivergedError,
    TrajectoryLog,
    run_scenario,
)
from pursuitbench.controllers import (
    FIXED_LOOKAHEAD,
    VELOCITY_SCALED_LOOKAHEAD,
    reachable_velocities,
    window_bounds,
)
from pursuitbench.paths import project_onto_path, wrap_angle
from pursuitbench.simulator import arc_step, clip_to_window


def euler_reference(x, y, theta, v, omega, dt, substeps=1000):
    """Independent fine-step Euler integration of the unicycle kinematics."""
    h = dt / substeps
    for _ in range(substeps):
        x += v * math.cos(theta) * h
        y += v * math.sin(theta) * h
        theta += omega * h
    return x, y


def run(path, kind, simulate=run_scenario, **overrides):
    defaults = dict(
        limits=KinodynamicLimits(),
        lookahead=LookaheadConfig(),
        regulation=RegulationConfig(),
        max_time=60.0,
        goal_tolerance=0.15,
    )
    defaults.update(overrides)
    return simulate(path, kind, **defaults)


def outcome(simulate, *args, **kwargs):
    """The exact bits of a run: every log column, the goal flag and travel time, or the error."""
    try:
        result = simulate(*args, **kwargs)
    except PursuitBenchError as exc:
        return type(exc), str(exc)
    columns = {}
    for field in fields(TrajectoryLog):
        column = getattr(result.log, field.name)
        values = column.tolist() if column.dtype == bool else list(map(float.hex, column.tolist()))
        columns[field.name] = (column.dtype.str, values)
    return columns, result.reached_goal, float.hex(result.travel_time)


class TestExecutionAndNoiseModels:
    def test_rejects_negative_sigma(self):
        with pytest.raises(ParameterError):
            NoiseModel(sigma_v=-0.1)

    @pytest.mark.parametrize("field", ["sigma_v", "sigma_omega", "sigma_pose_init"])
    def test_rejects_nan_sigma(self, field):
        with pytest.raises(ParameterError, match="sigmas"):
            NoiseModel(**{field: math.nan})

    @pytest.mark.parametrize("field", ["sigma_v", "sigma_omega", "sigma_pose_init"])
    def test_rejects_infinite_sigma(self, field):
        with pytest.raises(ParameterError, match=f"sigmas must be finite.*{field}"):
            NoiseModel(**{field: math.inf})

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_rejects_seed_that_is_not_a_non_negative_int(self, seed):
        with pytest.raises(ParameterError, match="seed"):
            NoiseModel(seed=seed)


class TestClipToFeasible:
    def setup_method(self):
        self.limits = KinodynamicLimits()

    def test_command_inside_window_unchanged(self):
        window = window_bounds(reachable_velocities(0.4, 0.0, self.limits), self.limits)
        assert clip_to_window(0.41, 0.01, window) == (0.41, 0.01)

    def test_linear_velocity_clamped_to_window(self):
        window = window_bounds(reachable_velocities(0.4, 0.0, self.limits), self.limits)
        v, _ = clip_to_window(0.5, 0.0, window)
        assert v == pytest.approx(0.4165, abs=1e-12)

    def test_angular_velocity_clamped_to_window(self):
        window = window_bounds(reachable_velocities(0.0, 0.0, self.limits), self.limits)
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
        with np.errstate(over="ignore"), pytest.raises(SimulationDivergedError, match=message):
            run(straight_path(), ControllerKind.DYNAMIC_WINDOW, limits=limits)

    def test_command_overflow_diverges_at_its_step(self):
        # Once the lookahead turns the corner, curvature * v_max overflows.
        limits = KinodynamicLimits(v_max=1.7e308)
        message = "step 94: command velocities must be finite"
        for simulate in (run_scenario, run_scenario_oracle):
            with pytest.raises(SimulationDivergedError) as error:
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
            with pytest.raises(SimulationDivergedError) as error:
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
        ],
        ids=[
            "inf_max_time", "nan_max_time", "max_time_below_dt", "nan_goal_tolerance",
            "inf_goal_tolerance",
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
        expected = outcome(run_scenario_oracle, path, kind, **arguments)
        assert outcome(run_scenario, path, kind, **arguments) == expected


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
        columns = {field.name: np.zeros(2, dtype=float) for field in fields(TrajectoryLog)}
        columns[name] = np.zeros(1)
        with pytest.raises(ParameterError):
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
