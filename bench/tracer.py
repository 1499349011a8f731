"""Timing spans around pursuitbench functions, installed from outside the package.

Package modules import each other's functions by name (``from .paths import
nearest_point_on_path``), so a call is intercepted by replacing the name in
the namespace of the module that makes the call: ``compute_command`` finds
``nearest_point_on_path`` in ``pursuitbench.controllers``. No file of the
package changes.

Spans nest. Each span's parent is the span open when it started, and its self
time is its duration minus the durations of its child spans. Spans are added
to per-(parent, name) totals as they close, so memory stays flat however many
steps a workload runs. A site the package no longer has is reported as absent
instead of failing, so the benchmark keeps running across refactors.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from pathlib import Path

PACKAGE = "pursuitbench"
COMPUTE_COMMAND = "controllers.compute_command"
CONTROLLER_KINDS = ("pp", "app", "rpp", "dwpp")

# (layer metric name, call sites). A site is "<module>.<attribute>[.<attribute>]"
# under the package: the name the caller looks up, not where it is defined.
SPANS = (
    ("paths.nearest_point_on_path", ("controllers.nearest_point_on_path",)),
    ("paths.lookahead_from_projection", ("controllers.lookahead_from_projection",)),
    ("paths.compute_curvature", ("controllers.compute_curvature",)),
    ("paths.generate_corner_path", ("paths.generate_corner_path", "harness.generate_corner_path")),
    (COMPUTE_COMMAND, ("simulator.compute_command",)),
    ("controllers.regulate_linear_velocity", ("controllers.regulate_linear_velocity",)),
    (
        "controllers.compute_dynamic_window",
        ("controllers.compute_dynamic_window", "simulator.compute_dynamic_window"),
    ),
    ("controllers.apply_regulation_to_window", ("controllers.apply_regulation_to_window",)),
    ("controllers.optimal_velocity_in_window", ("controllers.optimal_velocity_in_window",)),
    ("simulator.run_scenario", ("harness.run_scenario",)),
    ("simulator.clip_to_feasible", ("simulator.clip_to_feasible",)),
    ("simulator.step_unicycle", ("simulator.step_unicycle",)),
    ("simulator.TrajectoryLog.to_csv", ("simulator.TrajectoryLog.to_csv",)),
    ("metrics.cross_track_stats", ("metrics.cross_track_stats", "harness.cross_track_stats")),
    ("metrics.polyline_distances", ("metrics.polyline_distances",)),
    ("harness.load_config", ("harness.load_config",)),
    ("harness.run_comparison", ("harness.run_comparison",)),
    ("harness.run_lookahead_sweep", ("harness.run_lookahead_sweep",)),
    ("harness.emit_report", ("harness.emit_report",)),
)


def span_names() -> list[str]:
    """Every span name the trace reports; compute_command is split by controller."""
    names = []
    for name, _ in SPANS:
        if name == COMPUTE_COMMAND:
            names.extend(f"{name}.{kind}" for kind in CONTROLLER_KINDS)
        else:
            names.append(name)
    return names


# Counters recorded after a call returns, from its arguments and result.
# Each returns the amount to add; it runs outside the span it follows, so its
# cost lands in the parent's self time.

def _scenario_steps(args, kwargs, result):
    return len(result.log)


def _clip_changed(args, kwargs, result):
    command = args[0] if args else kwargs["command"]
    return (result.v, result.omega) != (command.v, command.omega)


def _csv_bytes(args, kwargs, result):
    return os.path.getsize(args[1] if len(args) > 1 else kwargs["file"])


def _report_bytes(args, kwargs, result):
    out = args[2] if len(args) > 2 else kwargs["out_dir"]
    return sum(os.path.getsize(Path(out) / name) for name in ("summary.txt", "summary.csv"))


def _pairwise_mb(args, kwargs, result):
    # Size of one float64 (points x segments x 2) array: the pairwise offsets a
    # projection of every point onto every segment materialises. Computed from
    # the argument shapes, not measured.
    path = args[0] if args else kwargs["path"]
    points = args[1] if len(args) > 1 else kwargs["points"]
    return len(points) * (len(path.waypoints) - 1) * 16 / 1e6


COUNTERS = {
    "simulator.run_scenario": ("simulator.run_scenario.steps", _scenario_steps),
    "simulator.clip_to_feasible": ("simulator.clip_to_feasible.changed", _clip_changed),
    "simulator.TrajectoryLog.to_csv": ("simulator.TrajectoryLog.to_csv.bytes", _csv_bytes),
    "harness.emit_report": ("harness.emit_report.bytes", _report_bytes),
    "metrics.polyline_distances": ("metrics.polyline_distances.computed_mb", _pairwise_mb),
}


def _command_span(args, kwargs):
    kind = args[0] if args else kwargs["kind"]
    return f"{COMPUTE_COMMAND}.{getattr(kind, 'value', kind)}"


class Tracer:
    """Aggregated call spans for the functions in ``SPANS``."""

    def __init__(self) -> None:
        self._stack: list[list] = []  # open spans: [name, seconds spent in children]
        self.edges: dict[tuple[str | None, str], list] = {}  # -> [calls, total_s, child_s]
        self.counters = {counter: 0.0 for counter, _ in COUNTERS.values()}
        self.root_s = 0.0  # summed duration of spans with no parent
        self.absent: list[str] = []

    def install(self) -> None:
        """Replace every call site in ``SPANS`` with a timing wrapper."""
        for name, sites in SPANS:
            counter = COUNTERS.get(name)
            span = _command_span if name == COMPUTE_COMMAND else name
            for site in sites:
                module_name, *attrs = site.split(".")
                try:
                    owner = importlib.import_module(f"{PACKAGE}.{module_name}")
                    for attr in attrs[:-1]:
                        owner = getattr(owner, attr)
                    function = getattr(owner, attrs[-1])
                except (ImportError, AttributeError):
                    self.absent.append(site)
                    continue
                setattr(owner, attrs[-1], self._wrap(span, function, counter))

    def _wrap(self, span, function, counter):
        stack, edges, clock = self._stack, self.edges, time.perf_counter

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            name = span if isinstance(span, str) else span(args, kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    key = (parent[0], name)
                else:
                    self.root_s += elapsed
                    key = (None, name)
                edge = edges.get(key)
                if edge is None:
                    edge = edges[key] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += elapsed
                edge[2] += frame[1]
            if counter is not None:
                self._count(counter, args, kwargs, result)
            return result

        return wrapper

    def _count(self, counter, args, kwargs, result) -> None:
        key, measure = counter
        try:
            self.counters[key] += measure(args, kwargs, result)
        except (AttributeError, IndexError, KeyError, TypeError, OSError):
            # The function's signature or result changed shape; say so once.
            label = f"counter:{key}"
            if label not in self.absent:
                self.absent.append(label)

    def per_span(self) -> dict[str, list]:
        """Totals per span name: [calls, total_s, self_s]."""
        totals = {name: [0, 0.0, 0.0] for name in span_names()}
        for (_, name), (calls, total, child) in self.edges.items():
            entry = totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += total - child
        return totals
