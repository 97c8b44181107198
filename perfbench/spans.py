"""Span tracing of the program's public functions, from outside the program.

``Tracer.install`` replaces each traced function with a wrapper in every
``deadlinenet`` module namespace that holds it, so calls made through a
name imported elsewhere (``cli`` imports ``compute_min_stats`` by name,
``model.validate`` imports it lazily from ``distributions``) are recorded
too, with real parent/child links. Spans stay in memory until ``dump``.

Run as a script, this file is the entry point of a traced cold CLI process:

    python3 perfbench/spans.py SPANS_FILE solve --format json

imports the CLI, installs the tracer, runs the command inside a ``cli.main``
span and writes the spans to SPANS_FILE.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
from time import perf_counter

# span name -> (module, function); "analytic.baselines" covers both
# single-rate approximations
TRACED = {
    "config.parse_scenario": [("deadlinenet.config", "parse_scenario")],
    "model.validate": [("deadlinenet.model", "validate")],
    "distributions.compute_min_stats": [
        ("deadlinenet.distributions", "compute_min_stats")],
    "analytic.solve_traffic": [("deadlinenet.analytic", "solve_traffic")],
    "analytic.product_form": [("deadlinenet.analytic", "product_form")],
    "analytic.expand_network": [("deadlinenet.analytic", "expand_network")],
    "analytic.solve_expanded": [("deadlinenet.analytic", "solve_expanded")],
    "analytic.baselines": [
        ("deadlinenet.analytic", "baseline_full_insensitivity"),
        ("deadlinenet.analytic", "baseline_service_time_insensitivity")],
    "simulate.simulate": [("deadlinenet.simulate", "simulate")],
    "stats.compare": [("deadlinenet.stats", "compare")],
    "stats.product_form_deviation": [
        ("deadlinenet.stats", "product_form_deviation")],
    "stats.total_variation": [("deadlinenet.stats", "total_variation")],
}


def box_cells(result) -> int:
    """Cells of the product box of visited occupancy ranges, the region
    ``product_form_deviation`` scans."""
    return math.prod(max(w) - min(w) + 1 for w in result.marginal_weights)


def sim_events(result) -> int:
    """External arrivals plus departures of one simulation run."""
    counts = result.event_counts
    return int(counts.external.sum() + counts.departures.sum())


def _counts(name: str, args: tuple, kwargs: dict, result) -> dict:
    """Work counts recorded on a span, read from its result or its first
    argument (passed by position or by name)."""
    first = args[0] if args else next(iter(kwargs.values()), None)
    if name == "config.parse_scenario":
        return {"scenario_bytes": len(first.encode())}
    if name == "analytic.solve_traffic":
        return {"system_size": int(result.alpha.size)}
    if name == "simulate.simulate":
        joint = result.joint_weights
        return {"events": sim_events(result),
                "joint_states": 0 if joint is None else len(joint)}
    if name == "stats.product_form_deviation":
        return {"cells": box_cells(first)}
    return {}


class Tracer:
    """In-memory spans: name, start, end, parent index, operation id."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op = None

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        index = len(self.spans)
        record = {"name": name, "op": self.op,
                  "parent": self._stack[-1] if self._stack else None}
        self.spans.append(record)
        self._stack.append(index)
        record["start"] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record["end"] = perf_counter()
            self._stack.pop()
        record.update(_counts(name, args, kwargs, result))
        return result

    def adopt(self, spans: list[dict]) -> None:
        """Append spans recorded in a child process to the current op."""
        base = len(self.spans)
        for span in spans:
            if span["parent"] is not None:
                span["parent"] += base
            span["op"] = self.op
        self.spans.extend(spans)

    def install(self) -> None:
        """Wrap every traced function wherever a deadlinenet module holds
        it. A function the program no longer has is skipped; its layer
        then reads 0."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "deadlinenet" or n.startswith("deadlinenet.")]
        for name, targets in TRACED.items():
            for module_name, attr in targets:
                original = getattr(importlib.import_module(module_name),
                                   attr, None)
                if original is None:
                    continue
                wrapper = functools.wraps(original)(
                    functools.partial(self.span, name, original))
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover. The
    program is serial, so direct children never overlap and their
    durations add."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _main(argv: list[str]) -> int:
    spans_path, args = argv[0], argv[1:]
    from deadlinenet.cli import main

    tracer = Tracer()
    tracer.install()
    code = 0
    try:
        tracer.span("cli.main", main.main, args, prog_name="deadlinenet",
                    standalone_mode=False)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(
            exc.code is not None)
    finally:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
