import math

import numpy as np
import pytest

from pursuitbench import (
    CornerPathSpec,
    KinodynamicLimits,
    LookaheadConfig,
    ReferencePath,
    RegulationConfig,
    generate_corner_path,
)


def straight_path(length: float = 6.0, spacing: float = 0.05) -> ReferencePath:
    n = round(length / spacing)
    xs = np.linspace(0.0, length, n + 1)
    return ReferencePath(np.column_stack((xs, np.zeros(n + 1))))


def corner_path(angle_deg: float, segment_length: float = 3.0, spacing: float = 0.05) -> ReferencePath:
    return generate_corner_path(
        CornerPathSpec(segment_length, math.radians(angle_deg), spacing)
    )


@pytest.fixture
def bench_limits() -> KinodynamicLimits:
    return KinodynamicLimits()


@pytest.fixture
def bench_lookahead() -> LookaheadConfig:
    return LookaheadConfig()


@pytest.fixture
def bench_regulation() -> RegulationConfig:
    return RegulationConfig()


def distance_point_to_line(v: float, omega: float, curvature: float) -> float:
    """Euclidean distance from (v, omega) to the line omega = curvature * v."""
    return abs(curvature * v - omega) / math.sqrt(curvature * curvature + 1.0)
