import math
import re
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    bits,
    clamp_range_oracle,
    clip_to_window_oracle,
    command_velocities_oracle,
    distance_point_to_line,
    dwpp_selection_oracle,
    dynamic_window_oracle,
    operative_lookahead_oracle,
    regulate_linear_velocity_oracle,
    regulated_window_oracle,
    select_velocity_oracle,
)
from pursuitbench import (
    ControllerKind,
    KinodynamicLimits,
    LookaheadConfig,
    ParameterError,
    RegulationConfig,
    StabilityConfig,
    operative_lookahead,
)
from pursuitbench.config import FIXED_LOOKAHEAD, VELOCITY_SCALED_LOOKAHEAD
from pursuitbench.controllers import (
    _clamp_range,
    clip_to_window,
    command_velocities,
    regulate_linear_velocity,
    require_finite_command,
    select_velocity,
    window_bounds,
)

# A window is ``(v_lo, v_hi, omega_lo, omega_hi)``, as ``window_bounds`` returns it.


def grid_distances(window, kappa, n=201):
    """Brute-force sampling of the line distance over the window."""
    v_lo, v_hi, omega_lo, omega_hi = window
    vs = np.linspace(v_lo, v_hi, n)
    ws = np.linspace(omega_lo, omega_hi, n)
    dists = np.abs(kappa * vs[:, None] - ws[None, :]) / math.sqrt(kappa * kappa + 1.0)
    return vs, ws, dists


def line_crosses_window(window, kappa):
    """The line omega = kappa * v meets the window (exact interval test)."""
    v_lo, v_hi, omega_lo, omega_hi = window
    lo, hi = sorted((kappa * v_lo, kappa * v_hi))
    return lo <= omega_hi and hi >= omega_lo


def ordered_pairs(value):
    """Ordered (low, high) pairs of ``value``, equal pairs included."""
    return st.one_of(value.map(lambda x: (x, x)), st.tuples(value, value).map(sorted).map(tuple))


def bounds(lo, hi):
    """Ordered (low, high) pairs in [lo, hi], equal pairs included."""
    return ordered_pairs(st.floats(lo, hi))


positive = st.floats(0.0, 10.0, exclude_min=True)


@st.composite
def any_limits(draw):
    """Any valid envelope, a negative v_min (reversing) included."""
    return KinodynamicLimits(
        v_max=draw(st.floats(0.0, 2.0)),
        v_min=draw(st.floats(-2.0, 0.0)),
        omega_min=draw(st.floats(-2.0, 0.0)),
        omega_max=draw(st.floats(0.0, 2.0)),
        accel_max=draw(positive),
        decel_max=draw(positive),
        ang_accel_max=draw(positive),
        ang_decel_max=draw(positive),
        dt=draw(st.floats(0.0, 1.0, exclude_min=True)),
    )


# The (v, omega) of any state, also one outside the static limits.
any_state = st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))


# Every float field of the lookahead, regulation and stability sections.
SECTION_FLOATS = [
    pytest.param(cls, field.name, id=f"{cls.__name__}.{field.name}")
    for cls in (LookaheadConfig, RegulationConfig, StabilityConfig)
    for field in fields(cls)
    if type(field.default) is float
]


def random_window(rng, v_range=(0.0, 0.5), w_range=(-1.0, 1.0)):
    v_lo, v_hi = sorted(rng.uniform(*v_range, size=2))
    w_lo, w_hi = sorted(rng.uniform(*w_range, size=2))
    return v_lo, v_hi, w_lo, w_hi


class TestTypeValidation:
    def test_limits_reject_inverted_velocity_range(self):
        with pytest.raises(ParameterError):
            KinodynamicLimits(v_max=0.1, v_min=0.2)

    def test_limits_reject_non_positive_acceleration(self):
        with pytest.raises(ParameterError):
            KinodynamicLimits(decel_max=0.0)

    def test_limits_reject_non_positive_dt(self):
        with pytest.raises(ParameterError):
            KinodynamicLimits(dt=0.0)

    def test_command_must_be_finite(self):
        with pytest.raises(ParameterError):
            require_finite_command(math.inf, 0.0)

    def test_lookahead_config_rejects_unknown_mode(self):
        with pytest.raises(ParameterError):
            LookaheadConfig(mode="adaptive")

    def test_lookahead_config_rejects_non_positive_fixed_distance(self):
        with pytest.raises(ParameterError):
            LookaheadConfig(fixed_distance=0.0)

    def test_lookahead_config_rejects_inverted_bounds(self):
        with pytest.raises(ParameterError):
            LookaheadConfig(min_distance=0.8, max_distance=0.7)

    def test_regulation_config_rejects_bad_gain(self):
        with pytest.raises(ParameterError):
            RegulationConfig(proximity_gain=0.0)

    def test_regulation_config_still_checks_the_inert_proximity_keys(self):
        with pytest.raises(ParameterError, match="proximity_gain"):
            RegulationConfig(proximity_gain=1.5)
        with pytest.raises(ParameterError, match="proximity_threshold"):
            RegulationConfig(proximity_threshold=0.0)

    @pytest.mark.parametrize("mode", ["strict", "hard_cap"])
    def test_regulation_config_rejects_unknown_mode(self, mode):
        with pytest.raises(ParameterError, match="^combination_mode must be 'lower_bound'$"):
            RegulationConfig(combination_mode=mode)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("cls, name", SECTION_FLOATS)
    def test_section_config_rejects_non_finite_value(self, cls, name, value):
        with pytest.raises(ParameterError, match=f"^{name} must be a finite number, got {value!r}$"):
            cls(**{name: value})

    def test_stability_config_rejects_non_positive_values(self):
        with pytest.raises(ParameterError):
            StabilityConfig(steering_time_constant=0.0)

    @pytest.mark.parametrize(
        "cls, name",
        [
            (LookaheadConfig, "projection_time"),
            (RegulationConfig, "min_turn_radius"),
            (RegulationConfig, "goal_slowdown_distance"),
            (StabilityConfig, "min_dimensionless_lookahead"),
        ],
    )
    def test_section_config_names_a_non_positive_value(self, cls, name):
        with pytest.raises(ParameterError, match=f"^{name} must be positive$"):
            cls(**{name: 0.0})

    def test_controller_kind_lookup(self):
        assert ControllerKind("dwpp") is ControllerKind.DYNAMIC_WINDOW
        message = "unknown controller 'mpc' (expected one of: pp, app, rpp, dwpp)"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            ControllerKind("mpc")


class TestEffectiveLookahead:
    def test_scaled_clamps_at_max(self):
        cfg = LookaheadConfig()
        assert operative_lookahead(ControllerKind.REGULATED, cfg, 0.5) == pytest.approx(0.7)

    def test_scaled_clamps_at_min_when_stopped(self):
        cfg = LookaheadConfig()
        assert operative_lookahead(ControllerKind.REGULATED, cfg, 0.0) == 0.3

    def test_fixed_mode_ignores_speed(self):
        cfg = LookaheadConfig(mode=FIXED_LOOKAHEAD)
        assert operative_lookahead(ControllerKind.REGULATED, cfg, 0.0) == 0.6
        assert operative_lookahead(ControllerKind.REGULATED, cfg, 5.0) == 0.6

    def test_pure_pursuit_fixed_and_adaptive_scaled_in_either_mode(self):
        for cfg in (LookaheadConfig(), LookaheadConfig(mode=FIXED_LOOKAHEAD)):
            assert operative_lookahead(ControllerKind.PURE_PURSUIT, cfg, 5.0) == 0.6
            assert operative_lookahead(ControllerKind.ADAPTIVE, cfg, 0.0) == 0.3
            assert operative_lookahead(ControllerKind.ADAPTIVE, cfg, 0.4) == pytest.approx(0.56)
            assert operative_lookahead(ControllerKind.DYNAMIC_WINDOW, cfg, 0.0) == (
                0.6 if cfg.mode == FIXED_LOOKAHEAD else 0.3
            )


class TestNominalCommand:
    def test_command_lies_on_tracking_line(self, bench_limits, bench_regulation):
        # pp, app and rpp drive along the arc of the given curvature: omega = kappa * v exactly.
        regulated_speeds = []
        for kappa, goal_distance, v in [(0.37, 3.0, 0.5), (-1.9, 0.4, 0.2), (2.6, 0.0, 0.0), (0.0, 5.0, 0.3)]:
            window = window_bounds(v, 0.0, bench_limits)
            for kind in (ControllerKind.PURE_PURSUIT, ControllerKind.ADAPTIVE, ControllerKind.REGULATED):
                v_cmd, omega_cmd = command_velocities(
                    kind, kappa, goal_distance, window, bench_limits.v_max, bench_regulation
                )
                assert omega_cmd == kappa * v_cmd
                if kind is ControllerKind.REGULATED:
                    regulated_speeds.append(v_cmd)
                else:
                    assert v_cmd == bench_limits.v_max
        assert min(regulated_speeds) < bench_limits.v_max  # the regulated speed is on the line too


class TestHeuristics:
    # Each stage alone: the other stage disabled and both speed floors at 0.
    CURVATURE = RegulationConfig(
        enable_goal=False, min_turn_radius=0.9, min_regulated_speed=0.0, min_approach_speed=0.0
    )
    GOAL = RegulationConfig(
        enable_curvature=False, goal_slowdown_distance=1.0, min_regulated_speed=0.0,
        min_approach_speed=0.0,
    )

    def test_curvature_above_threshold_passes_through(self):
        assert regulate_linear_velocity(0.5, 1.0 / 2.0, 10.0, self.CURVATURE) == 0.5

    def test_curvature_scales_below_threshold(self):
        assert regulate_linear_velocity(0.5, 1.0 / 0.45, 10.0, self.CURVATURE) == pytest.approx(0.25)

    def test_curvature_continuous_at_threshold(self):
        assert regulate_linear_velocity(0.5, 1.0 / 0.9, 10.0, self.CURVATURE) == pytest.approx(0.5)

    def test_goal_far_passes_through(self):
        assert regulate_linear_velocity(0.5, 0.0, 5.0, self.GOAL) == 0.5

    def test_goal_scales_when_close(self):
        assert regulate_linear_velocity(0.5, 0.0, 0.5, self.GOAL) == pytest.approx(0.25)

    def test_goal_reached_stops(self):
        assert regulate_linear_velocity(0.5, 0.0, 0.0, self.GOAL) == 0.0


class TestRegulateLinearVelocity:
    def test_all_disabled_is_identity(self):
        cfg = RegulationConfig(enable_curvature=False, enable_proximity=False, enable_goal=False)
        assert regulate_linear_velocity(0.5, 5.0, 0.1, cfg) == 0.5

    def test_lower_bound_floors_curvature_scaling(self):
        cfg = RegulationConfig(enable_proximity=False, enable_goal=False)
        kappa = 1.0 / 0.45
        assert regulate_linear_velocity(0.5, kappa, 10.0, cfg) == 0.25

    def test_lower_bound_keeps_gentle_turns_unscaled(self):
        cfg = RegulationConfig(enable_proximity=False, enable_goal=False)
        assert regulate_linear_velocity(0.5, 0.01, 10.0, cfg) == 0.5

    def test_lower_bound_proximity_switch_changes_nothing(self):
        cfg = RegulationConfig(enable_curvature=False, enable_goal=False)
        on = replace(cfg, enable_proximity=True)
        for v_cmd in (0.1, 0.5):
            assert regulate_linear_velocity(v_cmd, 0.0, 10.0, on) == v_cmd
            assert regulate_linear_velocity(v_cmd, 0.0, 10.0, cfg) == v_cmd

    def test_goal_stage_lower_bound(self):
        cfg = RegulationConfig(enable_curvature=False, enable_proximity=False)
        assert regulate_linear_velocity(0.5, 0.0, 0.5, cfg) == pytest.approx(0.25)
        # The approach floor engages once scaling would go below it.
        assert regulate_linear_velocity(0.5, 0.0, 0.01, cfg) == pytest.approx(0.05)

    def test_never_exceeds_nominal_command(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            cfg = RegulationConfig(
                enable_curvature=bool(rng.integers(2)),
                enable_proximity=bool(rng.integers(2)),
                enable_goal=bool(rng.integers(2)),
                min_turn_radius=rng.uniform(0.1, 2.0),
                proximity_threshold=rng.uniform(0.1, 2.0),
                proximity_gain=rng.uniform(0.05, 1.0),
                goal_slowdown_distance=rng.uniform(0.1, 2.0),
                min_regulated_speed=rng.uniform(0.0, 0.6),
                min_approach_speed=rng.uniform(0.0, 0.3),
            )
            v_cmd = rng.uniform(0.0, 1.0)
            v_reg = regulate_linear_velocity(v_cmd, rng.uniform(-20, 20), rng.uniform(0.0, 8.0), cfg)
            assert v_reg <= v_cmd + 1e-15

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(
        cfg=st.builds(
            RegulationConfig,
            enable_curvature=st.booleans(),
            enable_proximity=st.booleans(),
            enable_goal=st.booleans(),
            min_turn_radius=st.floats(0.05, 3.0),
            goal_slowdown_distance=st.floats(0.05, 3.0),
            min_regulated_speed=st.floats(0.0, 1.0),
            min_approach_speed=st.floats(0.0, 0.5),
        ),
        threshold=st.floats(1e-3, 5.0),
        gain=st.floats(1e-3, 1.0),
        v_cmd=st.floats(0.0, 2.0),
        goal_distance=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
        data=st.data(),
    )
    def test_proximity_keys_never_change_the_rule(self, cfg, threshold, gain, v_cmd, goal_distance, data):
        # There are no obstacles: enable_proximity, the threshold and the gain never matter.
        at_min_radius = 1.0 / cfg.min_turn_radius
        curvature = data.draw(
            st.one_of(st.floats(-20.0, 20.0), st.sampled_from([0.0, at_min_radius, -at_min_radius]))
        )
        v_reg = regulate_linear_velocity(v_cmd, curvature, goal_distance, cfg)
        others = [
            replace(cfg, proximity_threshold=threshold, proximity_gain=gain),
            replace(cfg, enable_proximity=not cfg.enable_proximity),
        ]
        for other in others:
            assert bits([regulate_linear_velocity(v_cmd, curvature, goal_distance, other)]) == bits([v_reg])


class TestWindowBounds:
    def test_window_from_cruise_state(self):
        limits = KinodynamicLimits()
        v_lo, v_hi, omega_lo, omega_hi = window_bounds(0.4, 0.0, limits)
        assert v_lo == pytest.approx(0.3835, abs=1e-12)
        assert v_hi == pytest.approx(0.4165, abs=1e-12)
        assert omega_lo == pytest.approx(-0.033, abs=1e-12)
        assert omega_hi == pytest.approx(0.033, abs=1e-12)

    def test_saturates_at_v_max(self):
        limits = KinodynamicLimits()
        _, v_hi, _, _ = window_bounds(0.5, 0.0, limits)
        assert v_hi == 0.5

    def test_lower_clamp_at_rest(self):
        limits = KinodynamicLimits()
        v_lo, _, _, _ = window_bounds(0.0, 0.0, limits)
        assert v_lo == 0.0

    def test_state_beyond_limits_collapses_to_bound(self):
        limits = KinodynamicLimits()
        v_lo, v_hi, _, _ = window_bounds(0.7, 0.0, limits)
        assert v_lo == v_hi == 0.5

    def test_nested_in_static_limits(self):
        limits = KinodynamicLimits()
        rng = np.random.default_rng(2)
        for _ in range(300):
            v, omega = rng.uniform(0, 0.5), rng.uniform(-1, 1)
            v_lo, v_hi, omega_lo, omega_hi = window_bounds(v, omega, limits)
            assert limits.v_min <= v_lo <= v_hi <= limits.v_max
            assert limits.omega_min <= omega_lo <= omega_hi <= limits.omega_max

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(limits=any_limits(), state=any_state)
    def test_matches_the_old_rule_bit_for_bit(self, limits, state):
        window = window_bounds(*state, limits)
        assert bits(window) == bits(dynamic_window_oracle(*state, limits))


class TestApplyRegulation:
    # ``select_velocity`` caps the window's linear range to [0, v_reg] before
    # it selects; at zero curvature it takes the capped range's top.
    def test_caps_upper_bound(self):
        assert select_velocity((0.38, 0.42, -1.0, 1.0), 0.40, 0.0) == (0.40, 0.0)

    def test_no_op_when_regulation_above_window(self):
        assert select_velocity((0.38, 0.42, -1.0, 1.0), 0.5, 0.0) == (0.42, 0.0)

    def test_empty_intersection_collapses_to_lower_bound(self):
        assert select_velocity((0.38, 0.42, -1.0, 1.0), 0.10, 0.0) == (0.38, 0.0)

    def test_reversing_window_brakes_instead_of_leaving_it(self):
        # Reversing at -0.03 m/s with v_min = -0.5: the reachable range lies
        # below zero, so [0, v_reg] collapses to its nearest end, not to 0.
        assert select_velocity((-0.0465, -0.0135, -1.0, 1.0), 0.5, 0.0) == (-0.0135, 0.0)

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(
        v_bounds=bounds(-2.0, 2.0),
        omega_bounds=bounds(-2.0, 2.0),
        v_reg=st.floats(-0.0, 3.0),
        kappa=st.one_of(st.just(0.0), st.floats(-1e3, 1e3)),
    )
    @example(v_bounds=(-0.0, -0.0), omega_bounds=(0.0, 0.0), v_reg=0.0, kappa=0.0)
    @example(v_bounds=(-1.0, -0.0), omega_bounds=(0.0, 0.0), v_reg=-0.0, kappa=0.0)
    @example(v_bounds=(-0.0, 0.0), omega_bounds=(0.0, 0.0), v_reg=0.0, kappa=0.0)
    def test_matches_the_old_rule_unless_the_window_is_all_reverse(self, v_bounds, omega_bounds, v_reg, kappa):
        window = (*v_bounds, *omega_bounds)
        selection = select_velocity(window, v_reg, kappa)
        if v_bounds[1] >= 0.0:
            assert bits(selection) == bits(select_velocity_oracle(*regulated_window_oracle(window, v_reg), kappa))
        else:
            # The old rule returned v = 0 here, outside the window.
            assert selection[0] == v_bounds[1]

    def test_rejects_negative_regulation(self):
        with pytest.raises(ParameterError, match="regulated velocity must be non-negative"):
            select_velocity((0.0, 1.0, -1.0, 1.0), -0.1, 0.0)

    def test_speed_is_monotone_in_the_cap_and_the_cap_idempotent(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            window = random_window(rng)
            kappa = rng.uniform(-20, 20)
            small, large = sorted(rng.uniform(0.0, 0.6, size=2))
            v_small = select_velocity(window, small, kappa)[0]
            assert v_small <= select_velocity(window, large, kappa)[0]
            assert select_velocity(window, v_small, kappa)[0] == v_small


class TestDistancePointToLine:
    def test_point_on_line(self):
        assert distance_point_to_line(0.3, 2.0 * 0.3, 2.0) == 0.0

    def test_horizontal_line(self):
        assert distance_point_to_line(0.4, 0.3, 0.0) == pytest.approx(0.3)

    def test_steep_line(self):
        assert distance_point_to_line(0.2, 1.0, 10.0) == pytest.approx(
            1.0 / math.sqrt(101.0), abs=1e-12
        )


class TestOptimalVelocity:
    def test_line_through_window_picks_fastest_crossing(self):
        assert select_velocity((0.0, 0.5, -1.0, 1.0), 0.5, 1.0) == (0.5, 0.5)

    def test_steep_line_misses_window_picks_nearest_vertex(self):
        assert select_velocity((0.2, 0.5, -1.0, 1.0), 0.5, 10.0) == (0.2, 1.0)

    def test_zero_curvature_outside_band(self):
        assert select_velocity((0.3, 0.4, 0.2, 0.6), 0.4, 0.0) == (0.4, 0.2)

    def test_zero_curvature_inside_band(self):
        assert select_velocity((0.3, 0.4, -0.2, 0.2), 0.4, 0.0) == (0.4, 0.0)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            window = random_window(rng)
            kappa = rng.uniform(-20, 20)
            v, omega = select_velocity(window, window[1], kappa)
            analytic = distance_point_to_line(v, omega, kappa)
            vs, ws, dists = grid_distances(window, kappa)
            assert analytic <= dists.min() + 1e-9
            # Among grid points at least as close to the line, none may be
            # faster than the analytic choice by more than one grid step.
            tied = dists <= analytic + 1e-9
            if tied.any():
                v_cell = (window[1] - window[0]) / 200.0
                assert vs[tied.any(axis=1)].max() <= v + v_cell + 1e-9

    def test_stays_inside_window(self):
        rng = np.random.default_rng(5)
        limits = KinodynamicLimits()
        for _ in range(500):
            v, omega = rng.uniform(0, 0.5), rng.uniform(-1, 1)
            window = v_lo, v_hi, omega_lo, omega_hi = window_bounds(v, omega, limits)
            v_reg = rng.uniform(0.0, 0.6)
            v_cmd, omega_cmd = select_velocity(window, v_reg, rng.uniform(-20, 20))
            assert v_lo <= v_cmd <= v_hi
            assert omega_lo <= omega_cmd <= omega_hi
            assert v_cmd <= v_reg or v_cmd == v_lo

    def test_exact_line_membership_when_crossing(self):
        rng = np.random.default_rng(6)
        checked = 0
        for _ in range(500):
            window = random_window(rng)
            kappa = rng.uniform(-20, 20)
            if not line_crosses_window(window, kappa):
                continue
            v, omega = select_velocity(window, window[1], kappa)
            assert abs(kappa * v - omega) <= 1e-9
            checked += 1
        assert checked > 50

    def test_mirror_symmetry_in_curvature(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            v_lo, v_hi, omega_lo, omega_hi = random_window(rng)
            kappa = rng.uniform(-20, 20)
            v, omega = select_velocity((v_lo, v_hi, omega_lo, omega_hi), v_hi, kappa)
            mirrored_v, mirrored_omega = select_velocity((v_lo, v_hi, -omega_hi, -omega_lo), v_hi, -kappa)
            assert mirrored_v == pytest.approx(v, abs=1e-12)
            assert mirrored_omega == pytest.approx(-omega, abs=1e-12)

    def test_degenerate_window_single_point(self):
        assert select_velocity((0.3, 0.3, 0.1, 0.1), 0.3, -5.0) == (0.3, 0.1)

    def test_crossing_next_to_v_hi_stays_on_the_line(self):
        # The omega_hi crossing lies 5e-10 below v_hi: the command must be
        # that crossing, not the nearby vertex (0.4, 0.5) off the line.
        kappa = 0.5 / (0.4 - 5e-10)
        assert select_velocity((0.1, 0.4, -0.5, 0.5), 0.4, kappa) == (0.5 / kappa, 0.5)

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(
        limits=any_limits(),
        state=any_state,
        v_reg=st.floats(0.0, 3.0),
        kappa=st.one_of(st.just(0.0), st.floats(-1e3, 1e3)),
    )
    def test_dwpp_selection_is_reachable(self, limits, state, v_reg, kappa):
        window = v_lo, v_hi, omega_lo, omega_hi = window_bounds(*state, limits)
        v, omega = select_velocity(window, v_reg, kappa)
        assert v_lo <= v <= v_hi
        assert omega_lo <= omega <= omega_hi

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(
        v_bounds=bounds(0.0, 2.0),
        omega_bounds=bounds(-2.0, 2.0),
        kappa=st.one_of(st.just(0.0), st.floats(-1e3, 1e3)),
    )
    @example(v_bounds=(0.3, 0.3), omega_bounds=(0.1, 0.1), kappa=-5.0)
    @example(v_bounds=(0.3, 0.4), omega_bounds=(0.2, 0.6), kappa=0.0)
    def test_selection_is_feasible_and_optimal(self, v_bounds, omega_bounds, kappa):
        (v_lo, v_hi), (omega_lo, omega_hi) = v_bounds, omega_bounds
        v_cmd, omega_cmd = select_velocity((v_lo, v_hi, omega_lo, omega_hi), v_hi, kappa)
        assert v_lo <= v_cmd <= v_hi
        assert omega_lo <= omega_cmd <= omega_hi
        distance = distance_point_to_line(v_cmd, omega_cmd, kappa)
        for v in v_bounds:
            for omega in omega_bounds:
                assert distance <= distance_point_to_line(v, omega, kappa) + 1e-12
        if line_crosses_window((*v_bounds, *omega_bounds), kappa):
            assert abs(kappa * v_cmd - omega_cmd) <= 1e-12
            # The feasible stretch of the line ends where it leaves through
            # the omega bound it heads for, or at v_hi.
            if kappa == 0.0:
                fastest = v_hi
            else:
                exit_omega = omega_hi if kappa > 0.0 else omega_lo
                fastest = min(v_hi, exit_omega / kappa)
            assert v_cmd >= fastest

    signed_bound = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0))

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(
        v_bounds=ordered_pairs(signed_bound),
        omega_bounds=ordered_pairs(signed_bound),
        v_reg=st.one_of(st.sampled_from([0.0, -0.0, math.inf, math.nan]), st.floats(0.0)),
        kappa=st.one_of(st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]), st.floats()),
    )
    @example(v_bounds=(0.0, -0.0), omega_bounds=(0.0, -0.0), v_reg=0.0, kappa=1.0)
    @example(v_bounds=(-0.0, 0.0), omega_bounds=(-0.0, 0.0), v_reg=-0.0, kappa=-1.0)
    @example(v_bounds=(0.1, 0.4), omega_bounds=(-0.5, 0.5), v_reg=0.4, kappa=math.inf)
    @example(v_bounds=(0.1, 0.4), omega_bounds=(-0.5, 0.5), v_reg=0.4, kappa=math.nan)
    def test_selection_comes_back_from_the_clip_unchanged(self, v_bounds, omega_bounds, v_reg, kappa):
        # DWPP's command lies in the window, so the execution clip is the identity on it.
        window = (*v_bounds, *omega_bounds)
        selection = select_velocity(window, v_reg, kappa)
        assert bits(clip_to_window(*selection, window)) == bits(selection)


# Floats that probe min/max's tie and NaN rules: signed zeros, infinities and
# NaN, often equal to one another, plus any float.
edge_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, math.inf, -math.inf, math.nan]), st.floats()
)


# Regulation configs as the kernels read them; a namespace lets the draw
# reach values the config class rejects.
regulation_namespaces = st.builds(
    SimpleNamespace,
    enable_curvature=st.booleans(),
    enable_goal=st.booleans(),
    min_turn_radius=edge_floats,
    goal_slowdown_distance=edge_floats,
    min_regulated_speed=edge_floats,
    min_approach_speed=edge_floats,
)


def outcome(function, *args):
    """``function(*args)`` as exact hex strings, or the type and message of what it raised."""
    try:
        result = function(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return bits(result if isinstance(result, tuple) else (result,))


class TestKernelsAreTheirMinMaxForms:
    # The kernels read only these attributes of a config; a namespace lets the
    # draw reach values the config classes reject.
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(ControllerKind),
        cfg=st.builds(
            SimpleNamespace,
            mode=st.sampled_from([FIXED_LOOKAHEAD, VELOCITY_SCALED_LOOKAHEAD]),
            fixed_distance=edge_floats,
            min_distance=edge_floats,
            max_distance=edge_floats,
            projection_time=edge_floats,
        ),
        v=edge_floats,
    )
    def test_operative_lookahead(self, kind, cfg, v):
        assert outcome(operative_lookahead, kind, cfg, v) == outcome(operative_lookahead_oracle, kind, cfg, v)

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(
        cfg=regulation_namespaces,
        args=st.tuples(edge_floats, edge_floats, edge_floats),
    )
    def test_regulate_linear_velocity(self, cfg, args):
        expected = outcome(regulate_linear_velocity_oracle, *args, cfg)
        assert outcome(regulate_linear_velocity, *args, cfg) == expected

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(args=st.tuples(*[edge_floats] * 4))
    def test_clamp_range(self, args):
        assert outcome(_clamp_range, *args) == outcome(clamp_range_oracle, *args)

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(window=st.tuples(*[edge_floats] * 4), v_reg=edge_floats, kappa=edge_floats)
    def test_select_velocity(self, window, v_reg, kappa):
        expected = outcome(dwpp_selection_oracle, window, v_reg, kappa)
        assert outcome(select_velocity, window, v_reg, kappa) == expected

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(ControllerKind),
        kappa=edge_floats,
        goal_distance=edge_floats,
        window=st.tuples(*[edge_floats] * 4),
        v_max=edge_floats,
        cfg=regulation_namespaces,
    )
    def test_command_velocities(self, kind, kappa, goal_distance, window, v_max, cfg):
        args = kind, kappa, goal_distance, window, v_max, cfg
        assert outcome(command_velocities, *args) == outcome(command_velocities_oracle, *args)

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(v=edge_floats, omega=edge_floats, window=st.tuples(*[edge_floats] * 4))
    def test_clip_to_window(self, v, omega, window):
        assert outcome(clip_to_window, v, omega, window) == outcome(clip_to_window_oracle, v, omega, window)


class TestComputeCommand:
    # A sharp turn: a 0.5 m radius, inside the regulation's 0.9 m minimum turn radius.
    KAPPA = 2.0

    def setup_method(self):
        self.limits = KinodynamicLimits()
        self.regulation = RegulationConfig()

    def command(self, kind, kappa, goal_distance, v=0.5):
        window = window_bounds(v, 0.0, self.limits)
        return command_velocities(kind, kappa, goal_distance, window, self.limits.v_max, self.regulation)

    def test_straight_cruise_all_controllers(self):
        for kind in ControllerKind:
            assert self.command(kind, 0.0, 5.0) == (0.5, 0.0)

    def test_pure_pursuit_corner_command_exceeds_window(self):
        v, omega = self.command(ControllerKind.PURE_PURSUIT, self.KAPPA, 3.0)
        reachable = 0.0 + self.limits.ang_accel_max * self.limits.dt
        assert v == 0.5
        assert abs(omega) > reachable

    def test_dynamic_window_corner_command_stays_feasible(self):
        window = window_bounds(0.5, 0.0, self.limits)
        v, omega = self.command(ControllerKind.DYNAMIC_WINDOW, self.KAPPA, 3.0)
        v_lo, v_hi, omega_lo, omega_hi = window
        assert v_lo <= v <= v_hi
        assert omega_lo <= omega <= omega_hi

    def test_regulated_slows_down_and_recomputes_omega(self):
        v, omega = self.command(ControllerKind.REGULATED, self.KAPPA, 3.0)
        assert v == 0.5 * 0.5 / 0.9  # scaled by the turn radius over min_turn_radius
        assert omega == self.KAPPA * v

    def test_pure_pursuit_ignores_regulation_and_the_goal(self):
        # Plain and adaptive pure pursuit differ only in their lookahead
        # (see TestEffectiveLookahead): both command v_max on the arc.
        disabled = RegulationConfig(enable_curvature=False, enable_goal=False)
        for kind in (ControllerKind.PURE_PURSUIT, ControllerKind.ADAPTIVE):
            for goal_distance, regulation in ((0.0, self.regulation), (3.0, disabled)):
                window = window_bounds(0.0, 0.0, self.limits)
                command = command_velocities(kind, self.KAPPA, goal_distance, window, 0.5, regulation)
                assert command == (0.5, 1.0)

    def test_regulated_slows_to_the_approach_speed_at_the_goal(self):
        assert self.command(ControllerKind.REGULATED, 0.0, 0.0) == (0.05, 0.0)
        v, omega = self.command(ControllerKind.DYNAMIC_WINDOW, 0.0, 0.0, v=0.05)
        assert (v, omega) == (0.05, 0.0)
