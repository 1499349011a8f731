import math

import numpy as np
import pytest

from conftest import corner_path, polyline_distances, straight_path
from pursuitbench import (
    ControllerKind,
    ExperimentConfig,
    NoiseModel,
    ParameterError,
    ScenarioMetrics,
    TrajectoryLog,
    run_scenario,
    scenario_metrics,
)
from pursuitbench.metrics import cross_track_stats, mean_sd, violation_ratio


def make_log(xs, ys, violations=None, path=None):
    """A log at the given positions; ``cte`` is their distance to ``path`` (0 without one)."""
    n = len(xs)
    violations = violations if violations is not None else [False] * n
    zeros = np.zeros(n)
    cte = polyline_distances(path, np.column_stack((xs, ys))) if path is not None and n else zeros
    return TrajectoryLog(
        t=0.033 * np.arange(n),
        x=np.asarray(xs, dtype=float),
        y=np.asarray(ys, dtype=float),
        theta=zeros.copy(),
        v=zeros.copy(),
        omega=zeros.copy(),
        v_cmd=zeros.copy(),
        omega_cmd=zeros.copy(),
        v_exec=zeros.copy(),
        omega_exec=zeros.copy(),
        viol_v=np.asarray(violations, dtype=bool),
        viol_w=np.zeros(n, dtype=bool),
        viol_a=np.zeros(n, dtype=bool),
        viol_alpha=np.zeros(n, dtype=bool),
        cte=cte.copy(),
        arc_length=zeros.copy(),
    )


def empty_log():
    return make_log([], [])


def run(path, kind):
    return run_scenario(path, kind, ExperimentConfig(noise=NoiseModel()))


class TestViolationRatio:
    def test_clean_log_is_zero(self):
        assert violation_ratio(make_log([0, 1], [0, 0])) == 0.0

    def test_one_of_four_steps(self):
        log = make_log([0, 1, 2, 3], [0, 0, 0, 0], [False, True, False, False])
        assert violation_ratio(log) == 25.0

    def test_dynamic_window_run_is_exactly_zero(self):
        result = run(corner_path(135.0), ControllerKind.DYNAMIC_WINDOW)
        assert violation_ratio(result.log) == 0.0

    def test_empty_log_rejected(self):
        with pytest.raises(ParameterError):
            violation_ratio(empty_log())


class TestCrossTrackStats:
    def test_on_path_every_step(self):
        path = straight_path()
        mean_cte, max_cte = cross_track_stats(make_log([0.5, 1.0, 1.5], [0, 0, 0], path=path))
        assert (mean_cte, max_cte) == (0.0, 0.0)

    def test_two_lateral_samples(self):
        path = straight_path()
        mean_cte, max_cte = cross_track_stats(make_log([1.0, 2.0], [0.1, 0.3], path=path))
        assert mean_cte == pytest.approx(0.2)
        assert max_cte == pytest.approx(0.3)

    def test_sharp_corner_overshoot_ordering(self):
        path = corner_path(135.0)
        _, max_pp = cross_track_stats(run(path, ControllerKind.PURE_PURSUIT).log)
        _, max_dw = cross_track_stats(run(path, ControllerKind.DYNAMIC_WINDOW).log)
        assert max_dw < max_pp

    def test_mean_never_exceeds_max(self):
        path = corner_path(90.0)
        rng = np.random.default_rng(12)
        log = make_log(rng.uniform(0, 3, 50), rng.uniform(-1, 1, 50), path=path)
        mean_cte, max_cte = cross_track_stats(log)
        assert 0.0 <= mean_cte <= max_cte

    def test_empty_log_rejected(self):
        with pytest.raises(ParameterError):
            cross_track_stats(empty_log())


class TestScenarioMetrics:
    def test_assembles_all_fields(self):
        path = straight_path()
        result = run(path, ControllerKind.DYNAMIC_WINDOW)
        metrics = scenario_metrics(result)
        assert metrics.violation_ratio == 0.0
        assert metrics.reached_goal
        assert metrics.travel_time == result.travel_time
        assert metrics.max_cte >= metrics.mean_cte >= 0.0


def sample_metrics(**overrides):
    base = dict(violation_ratio=1.0, mean_cte=0.05, max_cte=0.2, travel_time=20.0, reached_goal=True)
    base.update(overrides)
    return ScenarioMetrics(**base)


class TestMeanSD:
    def test_identical_trials_have_zero_sd(self):
        trials = [sample_metrics(), sample_metrics(), sample_metrics()]
        assert mean_sd(trials, "violation_ratio").sd == 0.0
        assert mean_sd(trials, "travel_time") == (20.0, 0.0)

    def test_two_point_sample_sd(self):
        stats = mean_sd([sample_metrics(travel_time=1.0), sample_metrics(travel_time=3.0)], "travel_time")
        assert stats.mean == pytest.approx(2.0)
        assert stats.sd == pytest.approx(math.sqrt(2.0))

    def test_single_trial_sd_is_zero(self):
        assert mean_sd([sample_metrics()], "mean_cte") == (0.05, 0.0)

    def test_permutation_invariant(self):
        trials = [sample_metrics(mean_cte=value) for value in (0.01, 0.07, 0.03)]
        assert mean_sd(trials, "mean_cte") == mean_sd(list(reversed(trials)), "mean_cte")

    def test_duplicating_the_mean_keeps_the_mean(self):
        trials = [sample_metrics(max_cte=0.1), sample_metrics(max_cte=0.3)]
        with_mean = trials + [sample_metrics(max_cte=0.2)]
        assert mean_sd(with_mean, "max_cte").mean == pytest.approx(mean_sd(trials, "max_cte").mean)

    def test_empty_trials_rejected(self):
        with pytest.raises(ParameterError):
            mean_sd([], "travel_time")
