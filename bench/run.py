"""pursuitbench benchmark: run one workload for a fixed time and report its metrics.

Usage (from the repository root):

    python3 bench/run.py --workload table1 --seed 7 --seconds 55 --trace 0
    python3 bench/run.py --workload all          # every workload, untraced and traced

Each sample is a fresh single-threaded interpreter (``sample.py``) that imports
the package from ``src/``, loads the generated config and runs the workload's
public entry points once. Samples repeat while the next one is expected to
end within ``--seconds``; metrics are medians over samples. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and traced
samples and reports the per-layer metrics. The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 only when every output check passed. See
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import yaml

from tracer import span_names
from workloads import DEFAULT_SEED, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_run"
GOLDEN = json.loads((BENCH / "golden.json").read_text())

MIN_SAMPLES = 3
# Extra fresh interpreters that only set up, so setup_s is a median over many.
SETUP_SAMPLES = 8
DEADLINE_S = 170.0  # a run must end within 180 s
# Traced samples must account for all but this share of the traced command time.
MAX_UNACCOUNTED = 0.05

END_TO_END = (
    ("wall_s", "s"),
    ("steps_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("goal_frac", "frac"),
)


def _single_threaded_env() -> dict[str, str]:
    env = dict(os.environ)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def _environment(args) -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = "unknown"
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        if probe.returncode == 0:
            sha = probe.stdout.strip()
    return {
        "git_sha": sha,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "pyyaml": yaml.__version__,
    }


class Sampler:
    """Starts ``sample.py`` children for one workload and seed."""

    def __init__(self, name: str, seed: int, work: Path, deadline: float) -> None:
        self.name = name
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.config = work / "config.yaml"
        self.config.write_text(yaml.safe_dump(WORKLOADS[name].config(seed), sort_keys=False))
        self.count = 0
        self.env = _single_threaded_env()

    def run(self, trace: int, setup_only: bool = False) -> dict:
        self.count += 1
        out = self.work / f"out{self.count}"
        command = [
            sys.executable, str(BENCH / "sample.py"), "--workload", self.name,
            "--seed", str(self.seed), "--config", str(self.config), "--out", str(out),
            "--trace", str(trace),
        ]
        if setup_only:
            command.append("--setup-only")
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            done = subprocess.run(
                command, cwd=self.work, env=self.env, capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired:
            return {"problems": [f"sample timed out after {timeout:.0f} s"]}
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if done.returncode != 0:
            return {"problems": [f"sample exited with {done.returncode}: {done.stderr.strip()[-2000:]}"]}
        return json.loads(done.stdout.splitlines()[-1])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _check_outputs(name: str, seed: int, samples: list[dict]) -> list[str]:
    """Every sample must write the same bytes; pinned files must match golden.json."""
    problems = []
    reference = samples[0]["digests"]
    for index, sample in enumerate(samples[1:], start=2):
        if sample["digests"] != reference:
            changed = sorted(
                file for file in set(reference) | set(sample["digests"])
                if reference.get(file) != sample["digests"].get(file)
            )
            problems.append(f"sample {index} wrote different bytes than sample 1: {', '.join(changed)}")
    workload = WORKLOADS[name]
    if seed == DEFAULT_SEED or workload.seed_free:
        for file in workload.golden:
            want, got = GOLDEN[name][file], reference.get(file)
            if got != want:
                problems.append(f"golden mismatch: {name} {file} (sha256 {got}, expected {want})")
    return problems


def _fits(started: float, seconds: float, durations: list[float]) -> bool:
    """Whether one more sample of typical duration ends within the measuring time."""
    return time.monotonic() - started + statistics.median(durations) <= seconds


def _measure(args, sampler: Sampler, started: float) -> dict:
    """Set-up-only samples, then full untraced samples: end-to-end metrics."""
    setups = []
    for _ in range(SETUP_SAMPLES):
        sample = sampler.run(trace=0, setup_only=True)
        if "setup_s" not in sample:
            return {"problems": sample["problems"], "samples": []}
        setups.append(sample["setup_s"])
    samples, durations = [], []
    while len(samples) < MIN_SAMPLES or _fits(started, args.seconds, durations):
        begun = time.monotonic()
        sample = sampler.run(trace=0)
        durations.append(time.monotonic() - begun)
        if "digests" not in sample:
            return {"problems": sample["problems"], "samples": samples}
        samples.append(sample)
        if sample["problems"]:
            break
    series = {
        "wall_s": [s["wall_s"] for s in samples],
        "steps_per_s": [s["steps"] / s["wall_s"] for s in samples],
        "setup_s": setups + [s["setup_s"] for s in samples],
        "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
        "goal_frac": [1.0 - s["missed"] / s["scenarios"] for s in samples],
    }
    return {"samples": samples, "series": series}


def _measure_traced(args, sampler: Sampler, started: float) -> dict:
    """Alternating untraced and traced samples: per-layer metrics and trace overhead."""
    plain, traced, durations = [], [], []
    while not traced or _fits(started, args.seconds, durations):
        begun = time.monotonic()
        for trace, into in ((0, plain), (1, traced)):
            sample = sampler.run(trace=trace)
            if "digests" not in sample:
                return {"problems": sample["problems"], "samples": plain + traced}
            into.append(sample)
        durations.append(time.monotonic() - begun)
        if plain[-1]["problems"] or traced[-1]["problems"]:
            break
    problems = []
    for sample in traced:
        if sample["digests"] != plain[0]["digests"]:
            problems.append("traced run wrote different bytes than the untraced run")
            break
    exact = [
        (s["trace"]["counters"], {n: v[0] for n, v in s["trace"]["spans"].items()}) for s in traced
    ]
    if any(entry != exact[0] for entry in exact[1:]):
        problems.append("traced samples disagree on call counts")
    series: dict[str, list[float]] = {}
    for sample in traced:
        trace = sample["trace"]
        for name, (calls, total, self_s) in trace["spans"].items():
            series.setdefault(f"{name}.calls", []).append(calls)
            series.setdefault(f"{name}.self_s", []).append(self_s)
            series.setdefault(f"{name}.us_per_call", []).append(1e6 * total / calls if calls else 0.0)
        counters = dict(trace["counters"])
        changed = counters.pop("simulator.clip_to_feasible.changed")
        clips = trace["spans"]["simulator.clip_to_feasible"][0]
        counters["simulator.clip_to_feasible.changed_frac"] = changed / clips if clips else 0.0
        for key, value in counters.items():
            series.setdefault(key, []).append(value)
        unaccounted = 1.0 - trace["covered_s"] / sample["wall_s"]
        series.setdefault("trace.unaccounted_frac", []).append(unaccounted)
        series.setdefault("trace.absent", []).append(len(trace["absent"]))
        if sample["steps"] != counters["simulator.run_scenario.steps"]:
            problems.append(
                f"traced step count {counters['simulator.run_scenario.steps']:.0f}"
                f" differs from the {sample['steps']} steps in the outputs"
            )
        if unaccounted > MAX_UNACCOUNTED:
            problems.append(
                f"spans cover only {1.0 - unaccounted:.1%} of the traced command time"
                f" (at least {1.0 - MAX_UNACCOUNTED:.0%} required)"
            )
    series["trace.overhead_s"] = [
        statistics.median(s["wall_s"] for s in traced) - statistics.median(s["wall_s"] for s in plain)
    ]
    series["trace.wall_s"] = [s["wall_s"] for s in traced]
    absent = sorted({site for s in traced for site in s["trace"]["absent"]})
    return {
        "samples": plain + traced, "series": series, "problems": problems, "absent": absent,
        "edges": traced[-1]["trace"]["edges"],
    }


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    names = []
    for span in span_names():
        names += [(f"{span}.calls", "count"), (f"{span}.self_s", "s"), (f"{span}.us_per_call", "us")]
    names += [
        ("simulator.run_scenario.steps", "count"),
        ("simulator.clip_to_feasible.changed_frac", "frac"),
        ("simulator.TrajectoryLog.to_csv.bytes", "bytes"),
        ("harness.emit_report.bytes", "bytes"),
        ("metrics.polyline_distances.computed_mb", "MB"),
        ("trace.overhead_s", "s"),
        ("trace.wall_s", "s"),
        ("trace.unaccounted_frac", "frac"),
        ("trace.absent", "count"),
    ]
    return names


def run_workload(args) -> dict:
    """Run one workload; return the result object and print the report lines."""
    started = time.monotonic()
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        sampler = Sampler(args.workload, args.seed, work, started + DEADLINE_S)
        warm = sampler.run(trace=0, setup_only=True)  # compiles bytecode, warms the file cache
        if warm.get("problems"):
            measured = {"problems": warm["problems"], "samples": []}
        elif args.trace:
            measured = _measure_traced(args, sampler, time.monotonic())
        else:
            measured = _measure(args, sampler, time.monotonic())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    samples = measured["samples"]
    problems = [p for s in samples for p in s.get("problems", [])] + measured.get("problems", [])
    plain = [s for s in samples if "trace" not in s]
    if "series" in measured and plain:
        problems += _check_outputs(args.workload, args.seed, plain)
    attempted = sum(s.get("scenarios", 0) for s in samples) or 1
    failed = sum(s.get("missed", 0) for s in samples)
    units = per_layer_names() if args.trace else END_TO_END
    metrics = {}
    report = {"env": _environment(args), "samples": len(samples), "problems": problems}
    if "series" in measured:
        series = measured["series"]
        report["quartiles"] = {}
        for name, unit in units:
            q1, median, q3 = _quartiles(series[name])
            metrics[name] = {"value": median, "unit": unit}
            report["quartiles"][name] = [q1, median, q3]
        report["series"] = series
        if args.trace:
            report["absent"] = measured["absent"]
            report["edges"] = measured["edges"]
    result = {"correct": not problems and bool(metrics), "attempted": attempted, "failed": failed,
              "metrics": metrics}
    report["result"] = result
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1)
    )
    _print_report(args, report, units)
    return result


def _print_report(args, report: dict, units) -> None:
    env = report["env"]
    print(
        f"# {args.workload} seed={args.seed} trace={args.trace}: {report['samples']} samples;"
        f" {env['git_sha'][:12]} nproc={env['nproc']} {env['cpu_model']};"
        f" python {env['python']} numpy {env['numpy']} pyyaml {env['pyyaml']}"
    )
    for name, unit in units:
        if name in report.get("quartiles", {}):
            q1, median, q3 = report["quartiles"][name]
            print(f"{args.workload:>9} {name:<52} {median:>14.6g} {unit:<5} (q1 {q1:.6g}, q3 {q3:.6g})")
    for site in report.get("absent", []):
        print(f"{args.workload:>9} absent: {site}")
    for problem in report["problems"]:
        print(f"{args.workload}: {problem}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "pursuitbench" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'pursuitbench'}", file=sys.stderr)
        return 2

    if args.workload != "all":
        result = run_workload(args)
    else:
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in WORKLOADS:
            for trace in (0, 1):
                part = run_workload(argparse.Namespace(**{**vars(args), "workload": name, "trace": trace}))
                result["correct"] = result["correct"] and part["correct"]
                result["attempted"] += part["attempted"]
                result["failed"] += part["failed"]
                result["metrics"].update({f"{name}.{k}": v for k, v in part["metrics"].items()})
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
