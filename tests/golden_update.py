"""Rewrite the golden simulator outputs under ``tests/golden/``.

Run from the repository root as

    PYTHONPATH=src python tests/golden_update.py

It writes the scenario text of each entry of ``SCENARIOS``, runs each case
of ``CASES`` on its scenario through click's ``CliRunner``, and writes the
case's stdout to ``<case>.json``. ``manifest.json`` records every case
(scenario file, arguments, exit code, output file), the numpy version that
produced the outputs and the CPU features its kernels dispatched on.
``tests/test_golden.py`` reruns every case and compares its stdout with the
file byte for byte, or at 1e-12 relative under another numpy version or
another set of CPU features. A change that moves a golden output on purpose
reruns this script and states what moved, and the largest relative change.
"""

import json
import sys
from pathlib import Path

import numpy as np
from click.testing import CliRunner

from deadlinenet import SimConfig, bundled_scenario_path, cli
from deadlinenet.config import OutputOptions, ScenarioConfig

GOLDEN = Path(__file__).resolve().with_name("golden")
SHORT = ["--horizon", "2000", "--warmup", "200", "--seed", "11",
         "--format", "json"]
MIXED8 = ["--horizon", "100", "--warmup", "10", "--seed", "5",
          "--format", "json"]


def cpu_features():
    """The sorted names of the CPU features numpy enables in this process,
    or None when numpy does not say. Its vectorised log1p and power, and
    its unstable sorts, pick their kernels by these features (the
    ``NPY_DISABLE_CPU_FEATURES`` environment variable removes some), so
    the last bits of a simulated value may depend on them."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return None
    return sorted(name for name, enabled in __cpu_features__.items()
                  if enabled)


def _bundled(generator: str) -> str:
    text = bundled_scenario_path().read_text()
    return text.replace("generator = pcg64", f"generator = {generator}")


def _mixed8() -> str:
    """A seeded 8-node network of mixed laws with three components."""
    from helpers import mixed_network, render_scenario

    spec = mixed_network(np.random.default_rng(28), 8, 3, max_total=0.6,
                         rate_range=(0.2, 0.6))
    return render_scenario(ScenarioConfig(network=spec, sim=SimConfig(),
                                          outputs=OutputOptions()))


def _chain64() -> str:
    """64 exponential nodes in series: at least one bit per node, so the
    joint key takes more than one int64 word (three at the case's
    horizon). The joint histogram is recorded but not printed; the
    marginals are summed from it."""
    n_nodes = 64
    lines = ["[network]", f"nodes = {n_nodes}", "components = 1",
             "arrivals = " + ", ".join(["1.0"] + ["0.0"] * (n_nodes - 1))]
    for n in range(1, n_nodes + 1):
        lines.append(f"node{n}.components = exp(rate=1.0)")
        lines.append(f"node{n}.route1 = {n + 1}: 1.0" if n < n_nodes
                     else f"node{n}.route1 =")
    lines += ["", "[outputs]", "joint = false"]
    return "\n".join(lines) + "\n"


SCENARIOS = {
    "bundled_pcg64.cfg": lambda: _bundled("pcg64"),
    "bundled_philox.cfg": lambda: _bundled("philox"),
    "mixed8.cfg": _mixed8,
    "chain64.cfg": _chain64,
}

# (case name, scenario file, command-line arguments after --config)
CASES = [
    ("bundled_pcg64.simulate", "bundled_pcg64.cfg", ["simulate", *SHORT]),
    ("bundled_pcg64.simulate_runs3", "bundled_pcg64.cfg",
     ["simulate", "--runs", "3", *SHORT]),
    ("bundled_pcg64.compare", "bundled_pcg64.cfg", ["compare", *SHORT]),
    ("bundled_philox.simulate", "bundled_philox.cfg", ["simulate", *SHORT]),
    ("bundled_philox.compare", "bundled_philox.cfg", ["compare", *SHORT]),
    ("mixed8.simulate", "mixed8.cfg", ["simulate", *MIXED8]),
    ("mixed8.simulate_no_joint", "mixed8.cfg",
     ["simulate", "--no-joint", *MIXED8]),
    ("mixed8.compare", "mixed8.cfg", ["compare", *MIXED8]),
    ("chain64.simulate", "chain64.cfg",
     ["simulate", "--horizon", "40", "--warmup", "20", "--seed", "3",
      "--format", "json"]),
]


def run_case(scenario: str, args: list) -> tuple[int, str]:
    """(exit code, stdout) of one case, run in this process."""
    command, *rest = args
    result = CliRunner().invoke(
        cli.main, [command, "--config", str(GOLDEN / scenario), *rest],
        catch_exceptions=False)
    return result.exit_code, result.stdout


def main() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, make in SCENARIOS.items():
        (GOLDEN / name).write_text(make())
    cases = []
    for name, scenario, args in CASES:
        code, stdout = run_case(scenario, args)
        output = f"{name}.json"
        (GOLDEN / output).write_text(stdout)
        cases.append({"name": name, "scenario": scenario, "args": args,
                      "exit_code": code, "output": output})
        print(f"{output}: exit {code}, {len(stdout)} bytes")
    manifest = {"numpy": np.__version__, "cpu_features": cpu_features(),
                "cases": cases}
    (GOLDEN / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    main()
