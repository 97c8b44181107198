"""deadlinenet benchmark: one workload per run, checked, timed, optionally traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the program is imported from the
checkout's ``src`` directory and nothing is installed. Load is closed-loop
and serial: one command or call at a time, and at most one child process.
Every operation's output is checked. The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``); the lines before it are a readable report.
Full results, and the spans of a traced run, are written to
``.perfbench-out/``. perfbench/README.md describes the workloads, the
metrics and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from importlib import metadata
from pathlib import Path
from time import perf_counter

import inputs
from spans import Tracer, box_cells, self_times, sim_events

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
BUNDLED = SRC / "deadlinenet" / "data" / "two_node_deadline.cfg"
BUNDLED_RHO = (1.5819767068693264, 1.0)
RHO_RTOL = 1e-9
# the bounds of acceptance checks c03 (means), c05 (marginal TV), c04 (sup)
MEAN_ERR_MAX, TV_MAX, PF_SUP_MAX = 0.10, 0.02, 0.01
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 120
CONSOLE_SCRIPT = "import sys; from deadlinenet.cli import main; sys.exit(main())"


class CheckFailed(Exception):
    """An operation's output failed its correctness check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(values, expected) -> bool:
    return len(values) == len(expected) and all(
        abs(v - e) <= RHO_RTOL * abs(e) for v, e in zip(values, expected))


def cold_cli(args: list[str], python_flags=(), spans_path=None):
    """Run one cold ``deadlinenet`` process, as its console script does.
    With ``spans_path`` the process runs under the tracer instead and
    writes its spans there. Returns (completed process, wall seconds)."""
    if spans_path is None:
        cmd = [sys.executable, *python_flags, "-c", CONSOLE_SCRIPT, *args]
    else:
        cmd = [sys.executable, str(Path(__file__).with_name("spans.py")),
               str(spans_path), *args]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    start = perf_counter()
    proc = subprocess.run(cmd, capture_output=True, env=env, cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S)
    return proc, perf_counter() - start


IMPORT_GROUPS = {"numpy": "numpy", "scipy_stats": "scipy.stats",
                 "scipy_integrate": "scipy.integrate", "click": "click",
                 "deadlinenet": "deadlinenet"}


def import_breakdown() -> dict[str, float]:
    """Import times (s) from ``python -X importtime`` of one cold solve.

    A group's time is the cumulative time on its package's line. scipy
    imports scipy.integrate as a side effect of scipy.stats and prints no
    line for the package itself; a group without its own line is the sum
    of the self times of its modules. ``python`` is the interpreter's own
    start-up: every top-level import before the program's. Groups nest:
    deadlinenet includes numpy and scipy.
    """
    proc, _ = cold_cli(["solve", "--format", "json"],
                       python_flags=["-X", "importtime"])
    require(proc.returncode == 0, f"importtime solve exited {proc.returncode}")
    rows = []
    for line in proc.stderr.decode().splitlines():
        if line.startswith("import time:") and "imported package" not in line:
            own, cumulative, name = line[len("import time:"):].split("|")
            depth = (len(name) - len(name.lstrip()) - 1) // 2
            rows.append((name.strip(), depth, int(own), int(cumulative)))
    times = {"python": 0.0}
    for name, depth, _, cumulative in rows:
        if name == "deadlinenet.cli":
            break
        if depth == 0:
            times["python"] += cumulative / 1e6
    for key, package in IMPORT_GROUPS.items():
        whole = [c for name, _, _, c in rows if name == package]
        times[key] = (whole[0] if whole else sum(
            own for name, _, own, _ in rows
            if name.startswith(package + "."))) / 1e6
    return {f"import.{k}_s": v for k, v in times.items()}


# ---------------------------------------------------------------------------
# Workloads. Each imports the program, makes its scenario text from the
# seed, loads it, warms up, and then runs rounds of two steps: ``answer``,
# then ``check``. A step returns (work units, seconds of program time, output
# bytes) and raises CheckFailed when the output is wrong. ``named`` gives the
# names the two steps' metrics have in the readable report.

class Workload:
    tracer = None  # set during the traced half of a traced run

    def __init__(self, seed: int):
        self.seed = seed

    def import_program(self) -> None:
        """Each child process of ``cli-cold`` imports the program itself."""

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class ColdCli(Workload):
    """Cold-process ``solve`` and ``compare`` on the bundled scenario."""

    steps = ("cold solve", "cold compare")
    units = ("processes", "processes")
    named = ("cli_solve_s", "cli_compare_s")

    def generate(self) -> str:
        return BUNDLED.read_text()

    def load(self, scenario: Path) -> None:
        """Each child process loads the program itself."""

    def warm_up(self) -> None:
        proc, _ = cold_cli(["solve", "--format", "json"])
        require(proc.returncode == 0, f"warm-up exited {proc.returncode}")

    def _run(self, args: list[str]):
        spans = None if self.tracer is None else OUT / "cli-cold.spans.json"
        if spans is not None:
            spans.unlink(missing_ok=True)
        proc, seconds = cold_cli(args, spans_path=spans)
        if spans is not None:
            self.tracer.adopt(json.loads(spans.read_text()))
        require(proc.returncode == 0, f"{args[0]} exited {proc.returncode}: "
                f"{proc.stderr.decode()[-300:]}")
        return json.loads(proc.stdout), seconds, len(proc.stdout)

    def answer(self):
        doc, seconds, size = self._run(["solve", "--format", "json"])
        require(close(doc["rho"], BUNDLED_RHO), f"rho {doc['rho']}")
        return 1, seconds, size

    def check(self):
        doc, seconds, size = self._run(
            ["compare", "--format", "json", "--horizon", "3000",
             "--warmup", "300", "--seed", str(self.seed)])
        exact = [row["exact"] for row in doc["mean_table"]]
        require(close(exact, BUNDLED_RHO), f"exact means {exact}")
        return 1, seconds, size

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


class ExactN200(Workload):
    """In-process ``solve`` and ``expand`` on a seeded N=200, K=3 network."""

    steps = ("solve", "expand")
    units = ("commands", "commands")
    named = ("solve_s", "expand_s")
    reference = None

    def generate(self) -> str:
        return inputs.random_network(self.seed, 200, 3, max_mass=0.85,
                                     arrival_range=(0.2, 1.5))

    def import_program(self) -> None:
        from deadlinenet.cli import main
        self.main = main

    def load(self, scenario: Path) -> None:
        self.scenario = scenario

    def warm_up(self) -> None:
        # the first output is the reference that every later solve, warm-up
        # or timed, must reproduce byte for byte
        data, _, _ = self._command("solve")
        if self.reference is None:
            self.reference = data
        require(data == self.reference, "solve rerun is not byte-identical")

    def _command(self, name: str):
        out = OUT / f"exact-n200.{name}.json"
        out.unlink(missing_ok=True)
        args = [name, "--config", str(self.scenario), "--format", "json",
                "--out", str(out)]
        kwargs = {"prog_name": "deadlinenet", "standalone_mode": False}
        start = perf_counter()
        try:
            if self.tracer is None:
                self.main.main(args, **kwargs)
            else:
                self.tracer.span("cli.main", self.main.main, args, **kwargs)
        except SystemExit as exc:
            require(exc.code in (0, None), f"{name} exited {exc.code}")
        seconds = perf_counter() - start
        data = out.read_bytes()
        return data, seconds, len(data)

    def answer(self):
        data, seconds, size = self._command("solve")
        require(data == self.reference, "solve rerun is not byte-identical")
        self.rho = json.loads(data)["rho"]
        return 1, seconds, size

    def check(self):
        data, seconds, size = self._command("expand")
        doc = json.loads(data)
        require(doc["check"]["ok"] is True, "expand reports check not ok")
        require(close(doc["supernode_rho"], self.rho),
                "expand supernode_rho differs from solve rho")
        return 1, seconds, size


class Sim(Workload):
    """``simulate`` with the joint histogram on, then ``stats.compare``."""

    steps = ("simulate", "stats.compare")
    horizon = 0.0
    result = None

    def import_program(self) -> None:
        import deadlinenet
        self.dn = deadlinenet

    def load(self, scenario: Path) -> None:
        self.spec = self.dn.parse_scenario(scenario.read_text()).network
        self.cfg = self.dn.SimConfig(seed=self.seed, horizon=self.horizon,
                                     warmup=1000.0, record_joint=True)

    def warm_up(self) -> None:
        # A short run without the joint histogram runs every code path but
        # the box scan, whose size varies several-fold with the seed and
        # would make set-up time a measure of the input. Its output is too
        # short to meet the checks' bounds, so it is not checked.
        short = dataclasses.replace(self.cfg, horizon=2_000.0, warmup=200.0,
                                    record_joint=False)
        self.dn.compare(self.spec, self.dn.simulate(self.spec, short))

    def answer(self):
        self.result = None
        # looked up at call time, so that a traced run calls the wrapper
        start = perf_counter()
        self.result = self.dn.simulate(self.spec, self.cfg)
        seconds = perf_counter() - start
        return sim_events(self.result), seconds, 0

    def check(self):
        require(self.result is not None, "no simulation result to compare")
        start = perf_counter()
        report = self.dn.compare(self.spec, self.result)
        seconds = perf_counter() - start
        err = max(abs(row["simulated"] - row["exact"])
                  for row in report.mean_table)
        require(err <= MEAN_ERR_MAX, f"mean error {err:.4f} > {MEAN_ERR_MAX}")
        tv = float(max(report.marginal_distance))
        require(tv <= TV_MAX, f"marginal TV {tv:.4f} > {TV_MAX}")
        sup = report.product_form_sup
        require(sup is not None and sup <= PF_SUP_MAX,
                f"product-form sup {sup} > {PF_SUP_MAX}")
        return self.compare_units(self.result), seconds, 0


class SimBundled(Sim):
    """The bundled two-node scenario at horizon 1e5."""

    horizon = 100_000.0
    named = ("sim_events_per_s", None)
    # compare's fixed costs (exact solve, baselines) outweigh its ~100-cell
    # box scan here, so its work unit is the call
    units = ("events", "compare calls")

    def compare_units(self, result) -> int:
        return 1

    def generate(self) -> str:
        return BUNDLED.read_text()


class SimJoint8(Sim):
    """A seeded 8-node, K=3 mixed-law network at horizon 2e4."""

    horizon = 20_000.0
    named = ("sim_events_per_s", "compare_cells_per_s")
    # the box scan dominates compare and its size varies several-fold with
    # the seed, so the work unit is the box cell
    units = ("events", "box cells")

    def compare_units(self, result) -> int:
        return box_cells(result)

    def generate(self) -> str:
        return inputs.random_network(self.seed, 8, 3, max_mass=0.6,
                                     arrival_range=(0.2, 0.6))


WORKLOADS = {"cli-cold": ColdCli, "exact-n200": ExactN200,
             "sim-bundled": SimBundled, "sim-joint-8": SimJoint8}


# ---------------------------------------------------------------------------
# harness

def attempt(op: dict, fn) -> dict:
    """Run one operation; a failed check or a raised error marks it failed."""
    try:
        op["result"] = fn()
    except CheckFailed as exc:
        op["error"] = str(exc)
    except Exception:  # any error the program raises is a failed operation
        op["error"] = traceback.format_exc(limit=3)
    return op


def set_up(work: Workload, name: str, ops: list) -> dict:
    """Import the program (numpy included), then SETUP_REPEATS times make
    the inputs, load them and warm up. Set-up time is the import plus the
    median repeat; in a fresh checkout the first repeat of ``cli-cold``
    also compiles bytecode, which the median leaves out."""
    start = perf_counter()
    work.import_program()
    import_s = perf_counter() - start
    scenario = OUT / f"{name}.cfg"
    texts, repeats = [], []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        texts.append(work.generate())
        scenario.write_text(texts[-1])
        work.load(scenario)
        warm = attempt({"round": "warm-up", "step": 0, "traced": False},
                       work.warm_up)
        if "error" in warm:
            ops.append(warm)
        repeats.append(perf_counter() - start)
    if len(set(texts)) != 1:
        raise RuntimeError("input generation is not deterministic")
    repeat_s = statistics.median(repeats)
    return {"scenario_sha256": inputs.sha256(texts[0]),
            "scenario_bytes": len(texts[0].encode()), "import_s": import_s,
            "repeat_s": repeats, "setup_s": import_s + repeat_s}


def run_rounds(work: Workload, seconds: float, ops: list, traced: bool) -> None:
    """Closed loop: rounds of answer-then-check until ``seconds`` pass."""
    start = perf_counter()
    rnd = 1 + max((o["round"] for o in ops if o["round"] != "warm-up"),
                  default=-1)
    while True:
        for index, step in enumerate((work.answer, work.check)):
            if work.tracer is not None:
                work.tracer.op = len(ops)
            op = attempt({"round": rnd, "step": index, "traced": traced},
                         step)
            if "result" in op:
                op["units"], op["seconds"], op["bytes"] = op.pop("result")
            ops.append(op)
        rnd += 1
        if perf_counter() - start >= seconds:
            return


def good(ops: list, step: int, traced=False) -> list[dict]:
    return [o for o in ops if o["step"] == step and o["traced"] == traced
            and "error" not in o]


def median_rate(ops: list, step: int) -> float:
    rates = [o["units"] / o["seconds"] for o in good(ops, step)]
    return statistics.median(rates) if rates else 0.0


def tail_percentile(samples: list[float]):
    """The highest of p99 and p90 with at least ten samples beyond it."""
    for pct in (99, 90):
        if len(samples) * (100 - pct) / 100 >= 10:
            return pct, statistics.quantiles(samples, n=100)[pct - 1]
    return None


def named_report(work: Workload, setup: dict, peak: float, ops: list) -> list[str]:
    """Readable table of the nine end-to-end metrics the workloads are
    specified with, medians with their sample counts; ``-`` marks one
    that belongs to another workload."""
    rows = {"setup_s": ("s", [setup["setup_s"]]),
            "peak_rss_mb": ("MB", [peak]),
            "fail_frac": ("1", [sum("error" in o for o in ops) / len(ops)])}
    for name in ("cli_solve_s", "cli_compare_s", "solve_s", "expand_s",
                 "sim_events_per_s", "compare_cells_per_s"):
        rows[name] = ("1/s" if name.endswith("_per_s") else "s", [])
    for index, name in enumerate(work.named):
        if name is not None:
            rows[name] = (rows[name][0], [
                o["units"] / o["seconds"] if name.endswith("_per_s")
                else o["seconds"] for o in good(ops, index)])
    lines = [f"{'metric':22}{'median':>16} {'unit':6}{'n':>3}  tail"]
    for name, (unit, samples) in rows.items():
        shown = f"{statistics.median(samples):.6g}" if samples else "-"
        tail = tail_percentile(samples)
        tail = f"p{tail[0]}={tail[1]:.6g}" if tail else ""
        lines.append(f"{name:22}{shown:>16} {unit:6}{len(samples):>3}  {tail}")
    lines.append(f"answer_per_s: {work.steps[0]} ({work.units[0]} per s); "
                 f"check_per_s: {work.steps[1]} ({work.units[1]} per s)")
    return lines


def layer_metrics(tracer: Tracer, ops: list) -> dict[str, float]:
    """Per-round span totals, calls and counts, the median over the traced
    rounds; sizes recorded per call are the median over calls."""
    round_of = {i: o["round"] for i, o in enumerate(ops) if o["traced"]}
    totals = {r: defaultdict(float) for r in set(round_of.values())}
    sizes = defaultdict(list)
    own = self_times(tracer.spans)
    for i, span in enumerate(tracer.spans):
        acc = totals[round_of[span["op"]]]
        acc[span["name"] + "_s"] += span["end"] - span["start"]
        acc[span["name"] + "_calls"] += 1
        if span["name"] == "cli.main":
            acc["cli.self_s"] += own[i]
        for key in ("events", "cells"):
            acc[key] += span.get(key, 0)
        for key in ("scenario_bytes", "system_size", "joint_states"):
            if key in span:
                sizes[key].append(span[key])
    for i, r in round_of.items():
        totals[r]["cli.output_bytes"] += ops[i].get("bytes", 0)

    def per_round(key):
        return statistics.median(acc[key] for acc in totals.values())

    def per_call(key):
        return statistics.median(sizes[key]) if sizes[key] else 0
    metrics = {key: per_round(key) for key in (
        "config.parse_scenario_s", "model.validate_s", "model.validate_calls",
        "distributions.compute_min_stats_s",
        "distributions.compute_min_stats_calls", "analytic.solve_traffic_s",
        "analytic.solve_traffic_calls", "analytic.product_form_s",
        "analytic.expand_network_s", "analytic.solve_expanded_s",
        "analytic.baselines_s", "simulate.simulate_s", "stats.compare_s",
        "stats.product_form_deviation_s", "stats.total_variation_s",
        "cli.main_s", "cli.self_s", "cli.output_bytes")}
    metrics["config.scenario_bytes"] = per_call("scenario_bytes")
    metrics["analytic.system_size"] = per_call("system_size")
    metrics["simulate.joint_states"] = per_call("joint_states")
    metrics["simulate.events"] = per_round("events")
    metrics["stats.pfdev_cells"] = per_round("cells")
    return metrics


def tracing_overhead(ops: list) -> float:
    """Median traced round time over median untraced round time, minus 1."""
    medians = []
    for traced in (False, True):
        rounds = defaultdict(float)
        for step in (0, 1):
            for o in good(ops, step, traced):
                rounds[o["round"]] += o["seconds"]
        if not rounds:
            return 0.0
        medians.append(statistics.median(rounds.values()))
    return medians[1] / medians[0] - 1


def per_command(tracer: Tracer, ops: list, steps) -> list[str]:
    """Readable table: calls and seconds in each layer per command, the
    median over the traced operations of each step."""
    by_op = defaultdict(lambda: defaultdict(lambda: (0, 0.0)))
    for s in tracer.spans:
        calls, secs = by_op[s["op"]][s["name"]]
        by_op[s["op"]][s["name"]] = (calls + 1, secs + s["end"] - s["start"])
    lines = ["per command, median over traced operations (calls, seconds):",
             f"  {'layer':34}" + "".join(f"{s:>26}" for s in steps)]
    for name in sorted({s["name"] for s in tracer.spans}):
        cells = []
        for index in range(len(steps)):
            pairs = [by_op[i][name] for i, o in enumerate(ops)
                     if o["traced"] and o["step"] == index]
            calls = statistics.median(c for c, _ in pairs)
            secs = statistics.median(t for _, t in pairs)
            cells.append(f"{calls:>8g} {secs:>16.6f}s")
        lines.append(f"  {name:34}" + "".join(f"{c:>26}" for c in cells))
    return lines


def environment() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "click": metadata.version("click"),
            "load": "closed-loop, serial: one command or call at a time, "
                    "at most one child process"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "deadlinenet" / "__init__.py").is_file():
        print(f"no program source at {SRC}; run from a deadlinenet checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)

    work = WORKLOADS[args.workload](args.seed)
    ops: list[dict] = []
    setup = set_up(work, args.workload, ops)
    report = [f"workload {args.workload}  seed {args.seed}  scenario sha256 "
              f"{setup['scenario_sha256']} ({setup['scenario_bytes']} bytes)"]
    if args.trace:
        # the untraced half is the baseline for the tracing overhead
        run_rounds(work, args.seconds / 2, ops, traced=False)
        tracer = Tracer()
        if not isinstance(work, ColdCli):  # cold children trace themselves
            tracer.install()
        work.tracer = tracer
        run_rounds(work, args.seconds / 2, ops, traced=True)
        work.tracer = None
        metrics = layer_metrics(tracer, ops)
        metrics["trace.overhead_frac"] = tracing_overhead(ops)
        imports = attempt({"round": "importtime", "step": 0, "traced": False},
                          import_breakdown)
        metrics.update(imports.get("result") or dict.fromkeys(
            (f"import.{k}_s" for k in ["python", *IMPORT_GROUPS]), 0.0))
        if "error" in imports:
            ops.append(imports)
        tracer.dump(OUT / f"{args.workload}-seed{args.seed}.spans.json")
        report += per_command(tracer, ops, work.steps)
        wanted = bench["per_layer"]
    else:
        run_rounds(work, args.seconds, ops, traced=False)
        metrics = {"setup_s": setup["setup_s"],
                   "peak_rss_mb": work.peak_rss_mb(),
                   "answer_per_s": median_rate(ops, 0),
                   "check_per_s": median_rate(ops, 1)}
        report += named_report(work, setup, metrics["peak_rss_mb"], ops)
        wanted = bench["end_to_end"]

    failed = [o for o in ops if "error" in o]
    report += [f"FAILED {o['round']} {work.steps[o['step']]}: "
               f"{o['error'].strip()}" for o in failed]
    result = {"correct": not failed, "attempted": len(ops),
              "failed": len(failed),
              "metrics": {m["name"]: {"value": metrics[m["name"]],
                                      "unit": m["unit"]} for m in wanted}}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"args": vars(args), "environment": environment(),
                    "setup": setup, "operations": ops,
                    "all_metrics": metrics, "result": result}, indent=1))
    print("\n".join(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
