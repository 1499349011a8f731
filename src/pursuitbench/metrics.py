"""Evaluation metrics over trajectory logs and multi-trial aggregation."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ParameterError
from .simulator import ScenarioResult, TrajectoryLog


class MeanSD(NamedTuple):
    mean: float
    sd: float


def _metric(title: str, fmt: str):
    """A metric field; ``title`` and ``fmt`` head and format its summary table."""
    return field(metadata={"title": title, "format": fmt})


@dataclass(frozen=True)
class ScenarioMetrics:
    """The four per-run metrics plus whether the goal was reached."""

    violation_ratio: float = _metric("Constraint violation ratio [%]", "{:.1f}")
    mean_cte: float = _metric("Mean cross track error [m]", "{:.2f}")
    max_cte: float = _metric("Max cross track error [m]", "{:.2f}")
    travel_time: float = _metric("Travel time [s]", "{:.1f}")
    reached_goal: bool


# The four metric fields in report order; they name every metric column.
METRICS = tuple(metric for metric in fields(ScenarioMetrics) if metric.metadata)


@dataclass(frozen=True)
class AggregateMetrics:
    """Mean and sample standard deviation of each metric over trials."""

    trial_count: int
    reached_count: int
    violation_ratio: MeanSD
    mean_cte: MeanSD
    max_cte: MeanSD
    travel_time: MeanSD


def violation_ratio(log: TrajectoryLog) -> float:
    """Percentage of steps whose raw command violated any limit."""
    if len(log) == 0:
        raise ParameterError("cannot compute metrics over an empty log")
    return 100.0 * float(np.count_nonzero(log.any_violation)) / len(log)


def cross_track_stats(log: TrajectoryLog) -> tuple[float, float]:
    """(mean, max) of the logged distance from each pose to the path."""
    if len(log) == 0:
        raise ParameterError("cannot compute metrics over an empty log")
    return float(log.cte.mean()), float(log.cte.max())


def scenario_metrics(result: ScenarioResult) -> ScenarioMetrics:
    """Assemble all four metrics for one run."""
    mean_cte, max_cte = cross_track_stats(result.log)
    return ScenarioMetrics(
        violation_ratio=violation_ratio(result.log),
        mean_cte=mean_cte,
        max_cte=max_cte,
        travel_time=result.travel_time,
        reached_goal=result.reached_goal,
    )


def _mean_sd(values: Sequence[float]) -> MeanSD:
    arr = np.asarray(values, dtype=float)
    sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return MeanSD(float(arr.mean()), sd)


def aggregate(trials: Sequence[ScenarioMetrics]) -> AggregateMetrics:
    """Mean and sample SD (n-1 denominator; 0 for a single trial) per metric."""
    if not trials:
        raise ParameterError("cannot aggregate an empty trial list")
    return AggregateMetrics(
        trial_count=len(trials),
        reached_count=sum(1 for trial in trials if trial.reached_goal),
        **{
            metric.name: _mean_sd([getattr(trial, metric.name) for trial in trials])
            for metric in METRICS
        },
    )
