"""One benchmark sample: a fresh interpreter runs one workload once.

Usage: python3 bench/sample.py --workload NAME --seed N --config FILE --out DIR --trace 0|1

Prints one JSON object on stdout: set-up and command times, the step and
scenario counts read back from the output CSVs, peak resident memory, the
SHA-256 of every output file, any problems found, and with ``--trace 1`` the
span totals. ``run.py`` starts this script once per sample.
"""

import sys
import time

_START = time.perf_counter()  # set-up time counts from here: before the package import

import argparse  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _digests(out: Path) -> dict[str, str]:
    import hashlib

    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
        if path.is_file()
    }


def _read_rows(file: Path) -> list[dict]:
    import csv

    with open(file, newline="") as handle:
        return list(csv.DictReader(handle))


def _outcome(workload, config, out: Path) -> tuple[int, int, list[str]]:
    """(steps, scenarios that missed the goal, problems) read from the outputs."""
    if workload.command == "sweep":
        rows = _read_rows(out / "sweep.csv")
        dt, max_time = config.base.limits.dt, config.base.max_time
        problems = []
    else:
        rows = _read_rows(out / "metrics.csv")
        dt, max_time = config.limits.dt, config.max_time
        problems = [
            f"dwpp violation_ratio {row['violation_ratio']} on path {row['path']} trial {row['trial']}"
            for row in rows
            if row["controller"] == "dwpp" and float(row["violation_ratio"]) != 0.0
        ]
    # travel_time is the logged step count times dt, so this recovers the count.
    steps = [round(float(row["travel_time"]) / dt) for row in rows]
    if workload.command == "sweep":
        missed = sum(1 for count in steps if count >= round(max_time / dt))
    else:
        missed = sum(1 for row in rows if row["reached_goal"] != "1")
    return sum(steps), missed, problems


def _profile_problems(harness, workload, config, seed: int) -> list[str]:
    """The generated config must equal the shipped profile apart from the seed."""
    from dataclasses import replace

    if workload.profile is None:
        return []
    if workload.command == "sweep":
        shipped = harness.load_sweep_config(workload.profile)
        base = shipped.base
        expected = replace(shipped, base=replace(base, noise=replace(base.noise, seed=seed)))
    else:
        shipped = harness.load_config(workload.profile)
        expected = replace(shipped, noise=replace(shipped.noise, seed=seed))
    if config != expected:
        return [f"generated config differs from the shipped profile '{workload.profile}'"]
    return []


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    import pursuitbench.harness as harness
    import pursuitbench.paths as paths

    if Path(harness.__file__).resolve().parent != ROOT / "src" / "pursuitbench":
        raise SystemExit(f"imported pursuitbench from {harness.__file__}, not from {ROOT / 'src'}")
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    # Set-up: import (above), load and validate the config, generate the paths.
    if workload.command == "sweep":
        config = harness.load_sweep_config(args.config)
        specs = config.base.paths[:1]
    else:
        config = harness.load_config(args.config)
        specs = config.paths
    for _, spec in specs:
        paths.generate_corner_path(spec)
    setup_s = time.perf_counter() - _START
    import json

    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    out = Path(args.out)
    out.mkdir(parents=True)
    covered_before = tracer.root_s if tracer else 0.0
    problems = []
    start = time.perf_counter()
    try:
        if workload.command == "sweep":
            harness.run_lookahead_sweep(config, out)
        else:
            harness.emit_report(harness.run_comparison(config, out), config, out)
    except Exception as exc:  # any failure of the program fails every scenario of the run
        problems.append(f"{type(exc).__name__}: {exc}")
    wall_s = time.perf_counter() - start

    import resource

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if workload.command == "sweep":
        scenarios = len(config.lookahead_values)
    else:
        scenarios = len(config.paths) * len(config.controllers) * config.trials
    if problems:
        steps, missed = 0, scenarios
    else:
        steps, missed, found = _outcome(workload, config, out)
        problems += found
    if tracer is None:
        problems += _profile_problems(harness, workload, config, args.seed)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "steps": steps,
        "scenarios": scenarios,
        "missed": missed,
        "peak_rss_mb": peak_rss_mb,
        "digests": _digests(out),
        "problems": problems,
    }
    if tracer is not None:
        result["trace"] = {
            "spans": tracer.per_span(),
            "edges": [[parent, name, *totals] for (parent, name), totals in tracer.edges.items()],
            "counters": tracer.counters,
            "absent": tracer.absent,
            "covered_s": tracer.root_s - covered_before,
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
