"""Command-line front end: scenario files in, tables/CSV/JSON out.

Every command is deterministic given (config file, flags): rerunning an
identical invocation produces byte-identical output. Exit codes: 0 on
success, 3 invalid scenario or network, 4 network not open, 5 numerical
failure (2 is reserved by the argument parser for usage errors).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace
from typing import Callable, Iterable, Optional

import click
import numpy as np

from . import __version__
from .analytic import (
    ProductForm,
    baseline_full_insensitivity,
    baseline_service_time_insensitivity,
    product_form,
    solve_expanded,
)
from .config import (
    OUTPUT_FORMATS,
    ScenarioConfig,
    bundled_scenario_path,
    load_scenario,
    setting_items,
)
from .distributions import compute_min_stats
from .errors import (
    ConfigError,
    InfiniteMeanError,
    InvalidNetworkError,
    OpennessError,
    QuadratureError,
)
from .model import NOT_OPEN

__all__ = [
    "main",
    "parse_csv_tables",
    "EXIT_VALIDATION",
    "EXIT_OPENNESS",
    "EXIT_NUMERICAL",
]

EXIT_VALIDATION = 3
EXIT_OPENNESS = 4
EXIT_NUMERICAL = 5

_CSV_HEADER = "# deadlinenet-csv v1"

# rows of the `solve` marginal table; the default truncation grows like
# rho + 12 sqrt(rho), so very large arrival rates would otherwise build an
# unbounded table in memory
_MAX_MARGINAL_ROWS = 1_000_000


# ---------------------------------------------------------------------------
# document model: every command produces named tables, note lines, and a
# JSON-able payload, then one writer streams the chosen format. A table's
# rows may be a generator: only the csv and table formats consume them, once.

class _Doc:
    def __init__(self, kind: str):
        self.kind = kind
        self.tables: list[tuple[str, list[str], Iterable[list[object]]]] = []
        self.notes: list[str] = []
        self.payload: dict = {"kind": kind}

    def table(self, name: str, header: list[str], rows: Iterable[list[object]]):
        self.tables.append((name, header, rows))

    def note(self, text: str):
        self.notes.append(text)


def _text_cell(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return f"{value:.6f}"
    return str(value)


def _csv_cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _json_leaf(value) -> Optional[str]:
    """JSON text of a scalar, None for anything else. numpy scalars are
    written as Python numbers and an infinite float as null."""
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isinf(value):
            return "null"
        return float.__repr__(value) if value == value else "NaN"
    if isinstance(value, str):
        return json.encoder.encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, (int, np.integer)):
        return int.__repr__(int(value))
    return None


def _write_json(value, write: Callable[[str], object], pad: str = "\n"):
    """Write ``value`` exactly as ``json.dumps(value, indent=2)`` lays it
    out; ``pad`` is the newline and indentation of its level. A list of
    scalars, or a finite float array, goes out in one write."""
    inner = pad + "  "
    sep = "," + inner
    if isinstance(value, np.ndarray):
        if value.ndim > 1:
            value = list(value)
        elif value.dtype.kind == "f" and np.isfinite(value).all():
            value = value.tolist()
            if value:
                write("[" + inner + sep.join(map(float.__repr__, value))
                      + pad + "]")
                return
        else:
            value = value.tolist()
    leaf = _json_leaf(value)
    if leaf is not None:
        write(leaf)
        return
    if isinstance(value, dict):
        if not value:
            write("{}")
            return
        write("{")
        for i, (key, item) in enumerate(value.items()):
            write((sep if i else inner)
                  + json.encoder.encode_basestring_ascii(str(key)) + ": ")
            _write_json(item, write, inner)
        write(pad + "}")
        return
    if not isinstance(value, (list, tuple)):
        raise TypeError(
            f"Object of type {type(value).__name__} is not JSON serializable")
    if not value:
        write("[]")
        return
    leaves = [_json_leaf(v) for v in value]
    if None not in leaves:
        write("[" + inner + sep.join(leaves) + pad + "]")
        return
    write("[")
    for i, item in enumerate(value):
        write(sep if i else inner)
        _write_json(item, write, inner)
    write(pad + "]")


def _write(doc: _Doc, fmt: str, write: Callable[[str], object]) -> None:
    """Stream ``doc`` in format ``fmt`` through ``write``."""
    if fmt == "json":
        _write_json(doc.payload, write)
        write("\n")
        return
    if fmt == "csv":
        write(f"{_CSV_HEADER} {doc.kind}\n")
        for name, header, rows in doc.tables:
            write(f"## {name}\n" + ",".join(header) + "\n")
            for row in rows:
                write(",".join(map(_csv_cell, row)) + "\n")
        for note in doc.notes:
            write(f"# {note}\n")
        return
    gap = ""
    for name, header, rows in doc.tables:
        cells = [header] + [list(map(_text_cell, row)) for row in rows]
        widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
        write(f"{gap}== {name} ==\n")
        for r in cells:
            write("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip()
                  + "\n")
        gap = "\n"
    if doc.notes or not doc.tables:
        write(gap + "\n".join(doc.notes) + "\n")


def parse_csv_tables(text: str) -> tuple[str, dict[str, tuple[list[str], list[list[str]]]]]:
    """Read the versioned CSV format back: (kind, {table: (header, rows)})."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith(_CSV_HEADER + " "):
        raise ValueError("not a recognized deadlinenet CSV document")
    kind = lines[0][len(_CSV_HEADER) + 1:]
    tables: dict[str, tuple[list[str], list[list[str]]]] = {}
    name = None
    for line in lines[1:]:
        if line.startswith("## "):
            name = line[3:]
            tables[name] = ([], [])
        elif line.startswith("#") or not line:
            continue
        elif name is None:
            raise ValueError(f"data before first table marker: {line!r}")
        elif not tables[name][0]:
            tables[name][0].extend(line.split(","))
        else:
            tables[name][1].append(line.split(","))
    return kind, tables


# ---------------------------------------------------------------------------
# the command runner

_SCENARIO_OPTIONS = (
    click.option("--config", "config_path",
                 type=click.Path(exists=True, dir_okay=False),
                 default=None,
                 help="Scenario file (default: bundled two-node example)."),
    click.option("--format", "fmt", type=click.Choice(OUTPUT_FORMATS),
                 default=None, help="Override the [outputs] format."),
    click.option("--out", "out_path",
                 type=click.Path(dir_okay=False, writable=True),
                 default=None, help="Write to a file instead of stdout."),
)

_SIM_OPTIONS = (
    click.option("--seed", type=int, default=None,
                 help="Override the [sim] seed."),
    click.option("--horizon", type=float, default=None,
                 help="Override the simulated time horizon."),
    click.option("--warmup", type=float, default=None,
                 help="Override the discarded warmup period."),
    click.option("--no-joint", is_flag=True, default=False,
                 help="Skip the joint occupancy histogram."),
)


def _fail(message: str, code: int):
    click.echo(message, err=True)
    sys.exit(code)


@click.group()
@click.version_option(__version__, prog_name="deadlinenet")
def main():
    """Equilibrium analysis and simulation of infinite-server networks
    with competing service times and outcome-dependent routing."""


def _command(name: str, *extra_options, sim: bool = False):
    """Register ``build(doc, scenario, **extra)`` as command ``name``.

    The runner loads the scenario (the bundled one by default), merges the
    simulation overrides into ``scenario.sim`` when ``sim`` is set, streams
    the document ``build`` fills in the chosen format to stdout or
    ``--out``, and maps errors to exit codes. A message returned by
    ``build`` is reported after the whole document is written, with exit 5.
    """
    def register(build):
        def run(config_path, fmt, out_path, **extra):
            try:
                scenario = load_scenario(config_path or bundled_scenario_path())
                if sim:
                    changes = {key: extra.pop(key)
                               for key in ("seed", "horizon", "warmup")}
                    changes = {k: v for k, v in changes.items() if v is not None}
                    if extra.pop("no_joint"):
                        changes["record_joint"] = False
                    try:
                        scenario = replace(
                            scenario, sim=replace(scenario.sim, **changes))
                    except ValueError as exc:
                        raise ConfigError(str(exc)) from None
                doc = _Doc(name)
                failure = build(doc, scenario, **extra)
                fmt = fmt or scenario.outputs.format
                if out_path:
                    with open(out_path, "w") as out:
                        _write(doc, fmt, out.write)
                else:
                    _write(doc, fmt, sys.stdout.write)
                    sys.stdout.flush()
                if failure:
                    _fail(failure, EXIT_NUMERICAL)
            except ConfigError as exc:
                _fail(f"config error: {exc}", EXIT_VALIDATION)
            except InvalidNetworkError as exc:
                click.echo("invalid network:", err=True)
                for violation in exc.report:
                    click.echo(f"  {violation}", err=True)
                openness_only = all(v.kind == NOT_OPEN for v in exc.report)
                sys.exit(EXIT_OPENNESS if openness_only else EXIT_VALIDATION)
            except InfiniteMeanError as exc:
                _fail(f"contract violation: {exc}", EXIT_VALIDATION)
            except OpennessError as exc:
                _fail(f"openness error: {exc}", EXIT_OPENNESS)
            except QuadratureError as exc:
                _fail(f"numerical failure: {exc}", EXIT_NUMERICAL)

        options = _SCENARIO_OPTIONS + (_SIM_OPTIONS if sim else ()) + extra_options
        for option in reversed(options):
            run = option(run)
        return main.command(name, help=build.__doc__)(run)
    return register


# ---------------------------------------------------------------------------
# commands

def _marginal_uptos(pf: ProductForm, limit: Optional[int],
                    advice: str) -> list[int]:
    """Each node's last marginal state: ``limit``, or its truncation when
    None. Raises ConfigError, ending with ``advice``, past
    _MAX_MARGINAL_ROWS states in all."""
    uptos = [pf.truncation(n) if limit is None else limit
             for n in range(len(pf.rho))]
    n_rows = sum(uptos) + len(uptos)
    if n_rows > _MAX_MARGINAL_ROWS:
        raise ConfigError(
            f"the marginal table would have {n_rows} rows, more than "
            f"{_MAX_MARGINAL_ROWS}; {advice}")
    return uptos


@_command("solve")
def cmd_solve(doc: _Doc, scenario: ScenarioConfig):
    """Exact equilibrium occupancies and Poisson marginals."""
    spec = scenario.network
    pf = product_form(spec)
    doc.table("rho", ["node", "rho"],
              [[n + 1, float(pf.rho[n])] for n in range(spec.n_nodes)])
    doc.table("traffic", ["node", "component", "flow"],
              [[n + 1, k + 1, float(pf.alpha[n, k])]
               for n in range(spec.n_nodes)
               for k in range(spec.n_components)])
    uptos = _marginal_uptos(pf, scenario.outputs.marginals_upto,
                            "set outputs.marginals_upto lower")
    pmf_payload = [{"node": n + 1, "pmf": pf.marginal_pmf(n, upto)}
                   for n, upto in enumerate(uptos)]
    doc.table("marginal", ["node", "state", "probability"],
              ([entry["node"], x, p] for entry in pmf_payload
               for x, p in enumerate(entry["pmf"].tolist())))
    doc.payload.update({
        "rho": pf.rho,
        "traffic": pf.alpha,
        "residual": pf.residual,
        "marginals": pmf_payload,
    })


def _sim_doc(doc: _Doc, scenario: ScenarioConfig, result) -> None:
    spec = scenario.network
    n_nodes = spec.n_nodes
    doc.table("means", ["node", "mean"],
              [[n + 1, float(result.means[n])] for n in range(n_nodes)])
    counts = result.event_counts
    doc.table("events", ["node", "external", "arrivals", "departures"],
              [[n + 1, int(counts.external[n]), int(counts.arrivals[n]),
                int(counts.departures[n].sum())] for n in range(n_nodes)])
    doc.table("component_use", ["node", "component", "departures"],
              [[n + 1, k + 1, int(counts.departures[n, k])]
               for n in range(n_nodes) for k in range(spec.n_components)])
    doc.table("marginal_weights", ["node", "state", "weight"],
              [[n + 1, x, w] for n in range(n_nodes)
               for x, w in result.marginal_weights[n].items()])
    joint = None
    if result.joint_weights is not None and scenario.outputs.joint:
        joint = list(zip(result.joint_states.tolist(),
                         result.joint_weights.tolist()))
        header = [f"state{n + 1}" for n in range(n_nodes)] + ["weight"]
        doc.table("joint_weights", header,
                  [[*state, w] for state, w in joint])
    doc.note(f"effective_duration = {result.effective_duration!r}")
    doc.note(f"ties = {result.ties}")
    doc.payload.update({
        "config": dict(setting_items("sim", result.config)),
        "means": result.means,
        "effective_duration": result.effective_duration,
        "ties": result.ties,
        "final_occupancy": list(result.final_occupancy),
        "event_counts": {
            "external": counts.external,
            "arrivals": counts.arrivals,
            "departures": counts.departures,
        },
        "marginal_weights": [
            [[x, w] for x, w in result.marginal_weights[n].items()]
            for n in range(n_nodes)
        ],
        "joint_weights": joint,
    })


@_command("simulate",
          click.option("--runs", type=int, default=1,
                       help="Independent replications (pooled summary when > 1)."),
          sim=True)
def cmd_simulate(doc: _Doc, scenario: ScenarioConfig, runs: int):
    """Event-driven simulation of the scenario."""
    from .simulate import replicate, simulate

    if runs < 1:
        raise ConfigError(f"--runs must be >= 1, got {runs}")
    if runs == 1:
        _sim_doc(doc, scenario, simulate(scenario.network, scenario.sim))
        return
    summary = replicate(scenario.network, scenario.sim, runs)
    doc.table("pooled_means", ["node", "mean", "standard_error"],
              [[n + 1, float(summary.means[n]),
                float(summary.standard_errors[n])]
               for n in range(scenario.network.n_nodes)])
    doc.table("run_means", ["run", "node", "mean"],
              [[r + 1, n + 1, float(res.means[n])]
               for r, res in enumerate(summary.results)
               for n in range(scenario.network.n_nodes)])
    doc.note(f"runs = {runs}")
    doc.payload.update({
        "runs": runs,
        "pooled_means": summary.means,
        "standard_errors": summary.standard_errors,
        "run_means": summary.per_run_means,
        "config": dict(setting_items("sim", scenario.sim)),
    })


@_command("compare", sim=True)
def cmd_compare(doc: _Doc, scenario: ScenarioConfig):
    """Simulated vs exact vs baseline occupancies."""
    from .simulate import simulate
    from .stats import _exact_side, compare as stats_compare

    spec = scenario.network
    # the exact side first, so that a network it cannot answer fails before
    # the run: the distances read each node's whole truncated exact
    # marginal, bounded here before it is built, and what _exact_side
    # computes is kept on the spec for stats_compare to read
    _marginal_uptos(product_form(spec), None,
                    "the exact marginals are too wide to compare")
    _exact_side(spec)
    report = stats_compare(spec, simulate(spec, scenario.sim))
    doc.table("means",
              ["node", "simulated", "exact", "full_insensitivity",
               "service_time_insensitivity"],
              [[n + 1, row["simulated"], row["exact"],
                row["full_insensitivity"],
                row["service_time_insensitivity"]]
               for n, row in enumerate(report.mean_table)])
    doc.table("marginal_tv", ["node", "tv_distance"],
              [[n + 1, float(report.marginal_distance[n])]
               for n in range(spec.n_nodes)])
    if report.product_form_sup is not None:
        doc.note(f"product_form_sup = {report.product_form_sup!r}")
    doc.payload.update({
        "mean_table": list(report.mean_table),
        "marginal_distance": report.marginal_distance,
        "product_form_sup": report.product_form_sup,
        "sample_info": report.sample_info,
    })


@_command("expand")
def cmd_expand(doc: _Doc, scenario: ScenarioConfig) -> Optional[str]:
    """Equivalent Markovian network, solved both ways as a cross-check."""
    spec = scenario.network
    solution = solve_expanded(spec)
    pf = product_form(spec)
    stats = compute_min_stats(spec)
    header = ["index", "node", "component", "external_rate",
              "achievement", "mean_service", "flow", "rho"]
    node_rows = [[i + 1, n + 1, k + 1,
                  float(solution.external_rates[i]),
                  float(stats.p[n, k]),
                  float(stats.cond_mean[n, k]),
                  float(solution.alpha[i]),
                  float(solution.rho[i])]
                 for i, (n, k) in enumerate(np.ndindex(stats.p.shape))]
    doc.table("expanded_nodes", header, node_rows)
    doc.table("expanded_routing", ["from", "to", "probability"],
              ([i + 1, j + 1, q] for i, row in enumerate(solution.routing)
               for j, q in enumerate(row.tolist()) if q > 0.0))
    diff = np.abs(solution.supernode_rho - pf.rho)
    doc.table("supernode_rho", ["node", "direct", "aggregated", "abs_diff"],
              [[n + 1, float(pf.rho[n]), float(solution.supernode_rho[n]),
                float(diff[n])] for n in range(spec.n_nodes)])
    worst = float(diff.max()) if diff.size else 0.0
    # relative, so that scaling the arrival rates scales the tolerance
    ok = worst <= 1e-9 * float(pf.rho.max(initial=0.0))
    doc.note(f"expansion check: max |direct - aggregated| = {worst:.3e} "
             f"({'OK' if ok else 'MISMATCH'})")
    doc.payload.update({
        "expanded_nodes": [dict(zip(header, row)) for row in node_rows],
        "routing": solution.routing,
        "supernode_rho": solution.supernode_rho,
        "direct_rho": pf.rho,
        "check": {"max_abs_diff": worst, "ok": ok},
    })
    return None if ok else "expansion check failed"


@_command("baselines")
def cmd_baselines(doc: _Doc, scenario: ScenarioConfig):
    """Both naive single-rate approximations."""
    spec = scenario.network
    payload = []
    for solver in (baseline_full_insensitivity,
                   baseline_service_time_insensitivity):
        res = solver(spec)
        doc.table(res.method, ["node", "rho", "service_rate", "flow"],
                  [[n + 1, float(res.rho[n]), float(res.rates_used[n]),
                    float(res.node_flows[n])]
                   for n in range(spec.n_nodes)])
        payload.append({
            "method": res.method,
            "rho": res.rho,
            "service_rate": res.rates_used,
            "flow": res.node_flows,
        })
    doc.payload["baselines"] = payload


if __name__ == "__main__":
    main()
