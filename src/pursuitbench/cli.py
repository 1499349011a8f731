"""Command-line interface for the benchmark harness."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .config import ControllerKind, NoiseModel, ParameterError
from .harness import (
    _build, _output_dir, emit_report, load_config, load_sweep_config, run_comparison, run_lookahead_sweep,
)
from .metrics import scenario_metrics
from .paths import ReferencePath, generate_corner_path
from .simulator import run_scenario


def _cmd_compare(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    results = run_comparison(config, args.out)
    print(emit_report(results, config, args.out))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    sweep = load_sweep_config(args.config)
    rows = run_lookahead_sweep(sweep, args.out)
    print(f"{'lookahead':>10} {'mean_cte':>10} {'travel_time':>12}")
    for lookahead, mean_cte, travel_time in rows:
        print(f"{lookahead:>10.3f} {mean_cte:>10.4f} {travel_time:>12.2f}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = replace(load_config(args.config), noise=NoiseModel())  # noise-free, whatever the config says
    named = dict(config.paths)
    if args.path in named:
        reference = _build(f"path {args.path}", generate_corner_path, named[args.path])
        label = args.path
    elif Path(args.path).exists():
        reference = ReferencePath.from_csv(args.path)
        label = Path(args.path).stem
    else:
        raise ParameterError(
            f"--path '{args.path}' is neither a configured path name {sorted(named)} nor a CSV file"
        )
    kind = ControllerKind(args.controller)
    out = _output_dir(config, args.out)
    result = _build(f"path {label}, controller {kind.value}", run_scenario, reference, kind, config)
    trajectory_file = out / f"traj_{label}_{kind.value}.csv"
    result.log.to_csv(trajectory_file)
    metrics = scenario_metrics(result)
    print(
        f"{kind.value} on {label}: reached={metrics.reached_goal}"
        f" violations={metrics.violation_ratio:.1f}%"
        f" mean_cte={metrics.mean_cte:.4f} m max_cte={metrics.max_cte:.4f} m"
        f" travel_time={metrics.travel_time:.2f} s"
    )
    print(f"trajectory written to {trajectory_file}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pursuitbench",
        description="Benchmark pure pursuit tracking controllers on corner paths.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compare = sub.add_parser("compare", help="run the full controller-by-path comparison grid")
    compare.add_argument("--config", default="experiment_table1", help="config file or profile name")
    compare.add_argument("--out", default=None, help="output directory (default: config output_dir)")
    compare.set_defaults(func=_cmd_compare)

    sweep = sub.add_parser("sweep", help="lookahead trade-off sweep (dynamic-window controller)")
    sweep.add_argument("--config", default="simulation_table6", help="config file or profile name")
    sweep.add_argument("--out", default=None, help="output directory (default: config output_dir)")
    sweep.set_defaults(func=_cmd_sweep)

    simulate = sub.add_parser("simulate", help="run a single scenario and write its trajectory")
    simulate.add_argument("--controller", required=True, choices=[k.value for k in ControllerKind])
    simulate.add_argument("--path", required=True, help="configured path name or waypoint CSV file")
    simulate.add_argument("--config", default="experiment_table1", help="config file or profile name")
    simulate.add_argument("--out", default=None, help="output directory (default: config output_dir)")
    simulate.set_defaults(func=_cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # The report's "±" reaches a stdout that cannot encode it as "\xb1"; the files stay UTF-8.
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(errors="backslashreplace")
    try:
        return args.func(args)
    except (ParameterError, OSError) as exc:
        # A path or name in the message may hold control characters: each is written as its escape.
        message = "".join(char if char.isprintable() or char == "\n" else repr(char)[1:-1] for char in str(exc))
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
