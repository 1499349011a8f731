"""Acceptance gate for the benchmark package.

Each test checks one release criterion at its stated tolerance and prints a
PASS/FAIL line (visible with ``pytest tests/test_acceptance.py -v -s``).
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.stats import spearmanr

from conftest import arc_path, distance_point_to_line, straight_path
from pursuitbench import (
    ControllerKind,
    ExperimentConfig,
    KinodynamicLimits,
    LookaheadConfig,
    NoiseModel,
    generate_corner_path,
    load_config,
    load_sweep_config,
    run_lookahead_sweep,
    run_scenario,
    scenario_metrics,
)
from pursuitbench.cli import main
from pursuitbench.config import FIXED_LOOKAHEAD
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
    noise_free = replace(bench_profile, noise=NoiseModel(seed=bench_profile.noise.seed))
    for name, spec in bench_profile.paths:
        reference = generate_corner_path(spec)
        for kind in bench_profile.controllers:
            result = run_scenario(reference, kind, noise_free)
            runs[(name, kind)] = (reference, result)
    return runs


def sample_window(rng):
    v_lo, v_hi = sorted(rng.uniform(0.0, 0.5, size=2))
    w_lo, w_hi = sorted(rng.uniform(-1.0, 1.0, size=2))
    return v_lo, v_hi, w_lo, w_hi


def test_criterion_1_dynamic_window_zero_violations(bench_profile):
    start = time.monotonic()
    ratios = {}
    noise_free = replace(bench_profile, noise=NoiseModel(seed=bench_profile.noise.seed))
    for name, spec in bench_profile.paths:
        reference = generate_corner_path(spec)
        result = run_scenario(reference, ControllerKind.DYNAMIC_WINDOW, noise_free)
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
        v, omega = select_velocity((v_lo, v_hi, omega_lo, omega_hi), v_hi, kappa)
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
        v, omega = select_velocity((v_lo, v_hi, omega_lo, omega_hi), v_hi, kappa)
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


def linear_theory_gap(log, lookahead: float) -> float:
    """Largest gap between ``log.y`` and linear pure-pursuit theory over s = x - x0 < 4 L.

    On a straight path along +x, the target lies L ahead of the projection,
    so the arc curvature to it is -2 (e + L psi) / L^2 to first order in the
    cross-track error e and heading error psi. With de/ds = psi and
    dpsi/ds = curvature, L^2 e'' + 2 L e' + 2 e = 0, whose roots are
    (-1 +- i) / L: e(s) = exp(-s/L) (e0 cos(s/L) + (L psi0 + e0) sin(s/L)).
    The start (x0, e0, psi0) is the log's first row, and the gap is relative
    to max(|e0|, L |psi0|).
    """
    x0, e0, psi0 = log.x[0], log.y[0], log.theta[0]
    u = (log.x - x0) / lookahead
    within = u < 4.0
    u = u[within]
    theory = np.exp(-u) * (e0 * np.cos(u) + (lookahead * psi0 + e0) * np.sin(u))
    return float(np.max(np.abs(log.y[within] - theory))) / max(abs(e0), lookahead * abs(psi0))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(lookahead=st.floats(0.3, 1.0), seed=st.integers(0, 2**16))
def test_criterion_10_dwpp_follows_linear_pure_pursuit_theory(bench_profile, lookahead, seed):
    # The theory is in arc length, so it holds for any speed profile that keeps
    # the commanded curvature. dwpp's window selection keeps it: only the 1 cm
    # waypoint snap and the control period part dwpp from the theory (at most
    # 0.50 % over 150 random draws of L and seed). pp's commands are clipped
    # from rest, which bends its path off the curvature it asked for (0.27 %
    # to 40 % over the same draws, and in each more than 4 times dwpp's), so
    # its gap is reported, not bounded.
    config = replace(
        bench_profile,
        lookahead=replace(bench_profile.lookahead, mode=FIXED_LOOKAHEAD, fixed_distance=lookahead),
        regulation=replace(bench_profile.regulation, enable_curvature=False, enable_goal=False),
        noise=NoiseModel(sigma_pose_init=0.01, seed=seed),
    )
    path = straight_path(6.0, spacing=0.01)
    dwpp = run_scenario(path, ControllerKind.DYNAMIC_WINDOW, config).log
    pp = run_scenario(path, ControllerKind.PURE_PURSUIT, config).log
    dwpp_gap, pp_gap = linear_theory_gap(dwpp, lookahead), linear_theory_gap(pp, lookahead)
    pp_clipped = bool(np.all(pp.v_exec[:10] != pp.v_cmd[:10]))
    ok = dwpp_gap <= 0.01 and pp_clipped and pp_gap > dwpp_gap
    report(
        "criterion 10: dwpp follows linear pure-pursuit theory on a straight path within 1 %",
        ok,
        f"L={lookahead:.3f} m, seed={seed}: dwpp gap={dwpp_gap:.3%}, pp gap={pp_gap:.3%},"
        f" pp clipped on its first 10 steps: {pp_clipped}",
    )


@settings(max_examples=30, deadline=None, derandomize=True)
@given(radius=st.floats(0.4, 1.0), v_max=st.floats(0.3, 0.6), omega_max=st.floats(0.7, 1.4))
@example(radius=0.45, v_max=0.5, omega_max=1.0)
@example(radius=0.6, v_max=0.5, omega_max=1.0)
@example(radius=0.4, v_max=0.5, omega_max=1.0)
def test_criterion_11_pure_pursuit_is_clipped_on_an_arc_iff_its_turn_rate_exceeds_omega_max(radius, v_max, omega_max):
    # On an arc of radius R the lookahead target lies on the circle, so pp's
    # steady command is omega = v_max / R: clipped on the whole arc iff
    # v_max / (R omega_max) > 1. Near 1 the entry transient decides (with
    # table1's limits pp's interior is 100 % clipped at R = 0.50 m, 40 % at
    # 0.52 m and 0 % from 0.55 m), so the ratio band [0.9, 1.0] is left out.
    # Each acceleration limit is its speed limit per second, as in both
    # shipped profiles; v_max 0.5 and omega_max 1.0 are table1's limits. The
    # interior is arc length 1.5 m (0.5 m into the arc) to 1.05 m before the
    # goal. dwpp never violates and stays within 12 mm of the circle there
    # (10.7 mm at worst, at R = 0.4 m, over 600 random draws and a grid of the
    # smallest radii). app is reported, not asserted: its speed-scaled
    # lookahead lets it settle off the circle, and it missed the goal of the
    # R = 0.4 m arc at table1's limits.
    ratio = v_max / (radius * omega_max)
    assume(not 0.9 <= ratio <= 1.0)
    limits = KinodynamicLimits(
        v_max=v_max, omega_max=omega_max, omega_min=-omega_max, accel_max=v_max, decel_max=v_max,
        ang_accel_max=omega_max, ang_decel_max=omega_max,
    )
    lookahead = LookaheadConfig(mode=FIXED_LOOKAHEAD, fixed_distance=0.3)
    config = ExperimentConfig(limits=limits, lookahead=lookahead, noise=NoiseModel())
    path = arc_path(radius)
    runs = {kind: run_scenario(path, kind, config) for kind in ControllerKind if kind is not ControllerKind.REGULATED}

    def interior(log):
        return (log.arc_length >= 1.5) & (log.arc_length <= path.length - 1.05)

    def radial_error(log):
        return float(np.abs(np.hypot(log.x - 1.0, log.y - radius) - radius)[interior(log)].max())

    pp, dwpp = runs[ControllerKind.PURE_PURSUIT].log, runs[ControllerKind.DYNAMIC_WINDOW].log
    clipped = pp.any_violation[interior(pp)]
    if ratio > 1.0:
        pp_ok = bool(clipped.all() and np.all(pp.omega_exec[interior(pp)] == omega_max))
    else:
        pp_ok = not clipped.any()
    dwpp_error = radial_error(dwpp)
    app = runs[ControllerKind.ADAPTIVE]
    print(f"      app: radial error {radial_error(app.log) * 1000:.1f} mm, reached goal: {app.reached_goal}")
    report(
        "criterion 11: on an arc pp is clipped iff v_max / (R omega_max) > 1; dwpp never violates",
        bool(clipped.size) and pp_ok and violation_ratio(dwpp) == 0.0 and dwpp_error < 0.012,
        f"R={radius:.3f} m, v_max={v_max:.3f}, omega_max={omega_max:.3f}, ratio={ratio:.3f}:"
        f" pp clipped on {clipped.mean():.0%} of {clipped.size} interior steps,"
        f" its largest executed omega {pp.omega_exec[interior(pp)].max():.3f} rad/s,"
        f" dwpp violation ratio {violation_ratio(dwpp):.1f} %, radial error {dwpp_error * 1000:.1f} mm",
    )


def test_projection_moves_back_less_than_a_segment_per_step(bench_profile):
    # Arc-length progress is not monotone: where a law cuts the 135-degree
    # corner, the projection of the next pose can lie a few millimetres behind
    # the last one. A step back by a whole segment would be a jump to another leg.
    sweep = load_sweep_config("simulation_table6")
    fixed = [
        replace(
            sweep.base,
            lookahead=replace(sweep.base.lookahead, mode=FIXED_LOOKAHEAD, fixed_distance=value),
            regulation=replace(sweep.base.regulation, enable_curvature=False, enable_goal=False),
            noise=NoiseModel(),
        )
        for value in sweep.lookahead_values
    ]
    seed = bench_profile.noise.seed
    runs = [
        ("table1", replace(bench_profile, noise=replace(bench_profile.noise, seed=seed + trial)), spec, kind)
        for _, spec in bench_profile.paths
        for kind in bench_profile.controllers
        for trial in range(bench_profile.trials)
    ] + [("table6", config, config.paths[0][1], ControllerKind.DYNAMIC_WINDOW) for config in fixed]
    worst, ok = {}, True
    for profile, config, spec, kind in runs:
        back = -float(np.diff(run_scenario(generate_corner_path(spec), kind, config).log.arc_length).min())
        ok = ok and back < spec.waypoint_spacing
        worst[f"{profile} {kind.value}"] = max(worst.get(f"{profile} {kind.value}", 0.0), back)
    report(
        "the projection moves back less than one segment per step on both shipped profiles",
        ok,
        ", ".join(f"{label}: {1000.0 * back:.2f} mm" for label, back in worst.items()),
    )
