"""Acceptance gate for the benchmark package.

Each test checks one release criterion at its stated tolerance and prints a
PASS/FAIL line (visible with ``pytest tests/test_acceptance.py -v -s``).
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from conftest import distance_point_to_line, straight_path
from pursuitbench import (
    ControllerKind,
    NoiseModel,
    generate_corner_path,
    load_config,
    load_sweep_config,
    run_lookahead_sweep,
    run_scenario,
    scenario_metrics,
)
from pursuitbench.cli import main
from pursuitbench.controllers import select_velocity
from pursuitbench.metrics import violation_ratio
from pursuitbench.paths import wrap_angle
from pursuitbench.simulator import arc_step


def report(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {criterion}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def bench_profile():
    return load_config("experiment_table1")


@pytest.fixture(scope="module")
def comparison_runs(bench_profile):
    """One deterministic run per (path, controller) under the default profile."""
    runs = {}
    for name, spec in bench_profile.paths:
        reference = generate_corner_path(spec)
        for kind in bench_profile.controllers:
            result = run_scenario(
                reference,
                kind,
                bench_profile.limits,
                bench_profile.lookahead,
                bench_profile.regulation,
                noise=NoiseModel(seed=bench_profile.noise.seed),
                max_time=bench_profile.max_time,
                goal_tolerance=bench_profile.goal_tolerance,
            )
            runs[(name, kind)] = (reference, result)
    return runs


def sample_window(rng):
    v_lo, v_hi = sorted(rng.uniform(0.0, 0.5, size=2))
    w_lo, w_hi = sorted(rng.uniform(-1.0, 1.0, size=2))
    return v_lo, v_hi, w_lo, w_hi


def test_criterion_1_dynamic_window_zero_violations(bench_profile):
    start = time.monotonic()
    ratios = {}
    for name, spec in bench_profile.paths:
        reference = generate_corner_path(spec)
        result = run_scenario(
            reference,
            ControllerKind.DYNAMIC_WINDOW,
            bench_profile.limits,
            bench_profile.lookahead,
            bench_profile.regulation,
            noise=NoiseModel(seed=bench_profile.noise.seed),
            max_time=bench_profile.max_time,
            goal_tolerance=bench_profile.goal_tolerance,
        )
        ratios[name] = violation_ratio(result.log)
    elapsed = time.monotonic() - start
    ok = all(ratio == 0.0 for ratio in ratios.values()) and elapsed < 10.0
    report(
        "criterion 1: dynamic-window violation ratio is exactly 0.0 on A/B/C",
        ok,
        f"ratios={ratios}, {elapsed:.2f}s",
    )


def test_criterion_2_conventional_controllers_violate(comparison_runs):
    ratios = {
        (name, kind.value): violation_ratio(result.log)
        for (name, kind), (_, result) in comparison_runs.items()
    }
    conventional = ("pp", "app", "rpp")
    positive = all(ratios[(path, c)] > 0.0 for path in ("B", "C") for c in conventional)
    ordering = ratios[("C", "pp")] >= ratios[("C", "rpp")]
    ok = positive and ordering
    report(
        "criterion 2: pp/app/rpp violate on B and C; pp >= rpp on C",
        ok,
        f"B={[round(ratios[('B', c)], 1) for c in conventional]}, "
        f"C={[round(ratios[('C', c)], 1) for c in conventional]}",
    )


def test_criterion_3_max_cte_ordering_on_sharpest_corner(comparison_runs):
    max_cte = {}
    for kind in ControllerKind:
        _, result = comparison_runs[("C", kind)]
        max_cte[kind.value] = scenario_metrics(result).max_cte
    ok = (
        max_cte["dwpp"] < max_cte["rpp"] < max_cte["pp"]
        and max_cte["dwpp"] < max_cte["app"]
        and max_cte["dwpp"] <= 0.30
    )
    report(
        "criterion 3: max CTE on C orders dwpp < rpp < pp (dwpp <= 0.30 m)",
        ok,
        ", ".join(f"{name}={value:.3f}" for name, value in max_cte.items()),
    )


def test_criterion_4_closed_form_matches_grid_oracle():
    rng = np.random.default_rng(2024)
    start = time.monotonic()
    worst_distance_gap = 0.0
    worst_speed_gap = 0.0
    for _ in range(10_000):
        v_lo, v_hi, omega_lo, omega_hi = sample_window(rng)
        kappa = rng.uniform(-20.0, 20.0)
        v, omega = select_velocity(v_lo, v_hi, omega_lo, omega_hi, kappa)
        analytic = distance_point_to_line(v, omega, kappa)
        vs = np.linspace(v_lo, v_hi, 201)
        ws = np.linspace(omega_lo, omega_hi, 201)
        dists = np.abs(kappa * vs[:, None] - ws[None, :]) / math.sqrt(kappa * kappa + 1.0)
        worst_distance_gap = max(worst_distance_gap, analytic - float(dists.min()))
        # Tie-break check: no grid point at least as close to the line may be
        # faster than the analytic choice by more than one grid step.
        tied_rows = (dists <= analytic + 1e-9).any(axis=1)
        if tied_rows.any():
            v_cell = (v_hi - v_lo) / 200.0
            worst_speed_gap = max(worst_speed_gap, float(vs[tied_rows].max()) - v - v_cell)
    elapsed = time.monotonic() - start
    ok = worst_distance_gap <= 1e-9 and worst_speed_gap <= 1e-9 and elapsed < 30.0
    report(
        "criterion 4: analytic selection beats the 201x201 grid on 10k windows",
        ok,
        f"max distance gap={worst_distance_gap:.2e}, max speed gap={worst_speed_gap:.2e}, {elapsed:.1f}s",
    )


def test_criterion_5_on_line_whenever_line_crosses_window():
    rng = np.random.default_rng(55)
    crossing = 0
    on_line = 0
    for _ in range(10_000):
        v_lo, v_hi, omega_lo, omega_hi = sample_window(rng)
        kappa = rng.uniform(-20.0, 20.0)
        lo, hi = sorted((kappa * v_lo, kappa * v_hi))
        if not (lo <= omega_hi and hi >= omega_lo):
            continue
        crossing += 1
        v, omega = select_velocity(v_lo, v_hi, omega_lo, omega_hi, kappa)
        if abs(kappa * v - omega) <= 1e-9:
            on_line += 1
    ok = crossing > 1000 and on_line == crossing
    report(
        "criterion 5: crossing-line selections satisfy |kappa*v - omega| <= 1e-9",
        ok,
        f"{on_line}/{crossing} intersecting instances",
    )


def test_criterion_6_lookahead_tradeoff_trend(tmp_path):
    sweep = load_sweep_config("simulation_table6")
    start = time.monotonic()
    rows = run_lookahead_sweep(sweep, tmp_path)
    elapsed = time.monotonic() - start
    lookaheads = [row[0] for row in rows]
    cte_corr = float(spearmanr(lookaheads, [row[1] for row in rows]).statistic)
    time_corr = float(spearmanr(lookaheads, [row[2] for row in rows]).statistic)
    ok = cte_corr >= 0.7 and time_corr <= -0.7 and elapsed < 20.0
    report(
        "criterion 6: sweep trend (error rises, travel time falls with lookahead)",
        ok,
        f"spearman cte={cte_corr:+.2f}, time={time_corr:+.2f}, {elapsed:.1f}s",
    )


def test_criterion_7_executed_velocities_always_feasible(bench_profile, comparison_runs):
    limits = bench_profile.limits
    tol = 1e-9
    ok = True
    for (_, _), (_, result) in comparison_runs.items():
        log = result.log
        dv = log.v_exec - log.v
        dw = log.omega_exec - log.omega
        ok = ok and bool(
            np.all(log.v_exec <= limits.v_max + tol)
            and np.all(log.v_exec >= limits.v_min - tol)
            and np.all(log.omega_exec <= limits.omega_max + tol)
            and np.all(log.omega_exec >= limits.omega_min - tol)
            and np.all(dv <= limits.accel_max * limits.dt + tol)
            and np.all(dv >= -limits.decel_max * limits.dt - tol)
            and np.all(dw <= limits.ang_accel_max * limits.dt + tol)
            and np.all(dw >= -limits.ang_decel_max * limits.dt - tol)
        )
    steps = sum(len(result.log) for _, result in comparison_runs.values())
    report(
        "criterion 7: executed velocities satisfy every limit within 1e-9",
        ok,
        f"{steps} steps across {len(comparison_runs)} runs",
    )


def test_criterion_8_compare_is_byte_deterministic(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    code_a = main(["compare", "--out", str(out_a)])
    code_b = main(["compare", "--out", str(out_b)])
    bytes_a = (out_a / "metrics.csv").read_bytes()
    bytes_b = (out_b / "metrics.csv").read_bytes()
    ok = code_a == 0 and code_b == 0 and bytes_a == bytes_b
    report(
        "criterion 8: two default-profile compare runs emit identical metrics.csv",
        ok,
        f"{len(bytes_a)} bytes",
    )


def test_criterion_9_arc_integration_matches_fine_euler():
    rng = np.random.default_rng(99)
    n = 10_000
    xs = rng.uniform(-1.0, 1.0, n)
    ys = rng.uniform(-1.0, 1.0, n)
    thetas = rng.uniform(-math.pi, math.pi, n)
    vs = rng.uniform(0.0, 0.5, n)
    ws = rng.uniform(-1.0, 1.0, n)
    dts = rng.uniform(0.001, 0.05, n)

    # Independent oracle: 1000-substep explicit Euler, vectorized over samples.
    ex, ey, eth = xs.copy(), ys.copy(), thetas.copy()
    h = dts / 1000.0
    for _ in range(1000):
        ex += vs * np.cos(eth) * h
        ey += vs * np.sin(eth) * h
        eth += ws * h

    worst = 0.0
    for i in range(n):
        x, y, _ = arc_step(xs[i], ys[i], wrap_angle(thetas[i]), vs[i], ws[i], dts[i])
        worst = max(worst, math.hypot(x - ex[i], y - ey[i]))
    ok = worst < 1e-6
    report(
        "criterion 9: exact-arc step within 1e-6 m of 1000-substep Euler",
        ok,
        f"worst error={worst:.2e} over {n} samples",
    )
