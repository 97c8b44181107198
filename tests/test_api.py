import ast
import importlib
import inspect
import re
import sys
from pathlib import Path

import pytest

import deadlinenet
from helpers import run_from_source

SRC = Path(__file__).resolve().parents[1] / "src" / "deadlinenet"

MODULES = ("analytic", "config", "distributions", "errors", "model",
           "simulate", "stats")

ROOT_NAMES = [
    "BaselineResult", "ComparisonReport", "ConfigError", "DeadlinenetError",
    "Deterministic", "EventCounts", "ExpandedSolution",
    "Exponential", "Infinite", "InfiniteMeanError", "InvalidNetworkError",
    "MinStats", "NetworkSpec", "NodeSpec", "OpennessError", "OutputOptions",
    "ProductForm", "QuadratureError", "ReplicateSummary", "ScenarioConfig",
    "SimConfig", "SimResult", "Uniform", "Violation", "Weibull",
    "baseline_full_insensitivity",
    "baseline_service_time_insensitivity", "bundled_scenario_path", "compare",
    "compute_min_stats", "empirical_marginal",
    "load_scenario", "parse_scenario", "product_form", "product_form_deviation",
    "replicate", "simulate", "solve_expanded", "structural_violations",
    "total_variation", "two_node_deadline_example", "validate",
]


def test_root_exports_exactly_the_module_lists():
    assert sorted(deadlinenet.__all__) == ROOT_NAMES
    for name in MODULES:
        module = importlib.import_module(f"deadlinenet.{name}")
        for public in module.__all__:
            assert getattr(deadlinenet, public) is getattr(module, public), public
    # the star import rebinds the package attribute to the function
    assert inspect.isfunction(deadlinenet.simulate)
    assert deadlinenet.simulate is importlib.import_module(
        "deadlinenet.simulate").simulate


def test_root_dir_lists_every_public_name():
    # a fresh root holds a name only once it is read; dir() lists them all
    proc = run_from_source(
        "import deadlinenet\n"
        "listed = set(dir(deadlinenet))\n"
        "assert set(deadlinenet.__all__) <= listed, listed")
    assert (proc.returncode, proc.stderr) == (0, "")


# ways a fresh process can first load the simulator module: each binds it
# to the package attribute of the same name, which must stay the function
IMPORT_ORDERS = {
    "simulate module": "import deadlinenet.simulate",
    "stats module": "import deadlinenet.stats",
    "compare first": "import deadlinenet; deadlinenet.compare",
    "cli compare": "from deadlinenet.cli import main; main.main(['compare', "
                   "'--horizon', '100', '--warmup', '10', '--format', 'json'], "
                   "standalone_mode=False)",
    "star import": "from deadlinenet import *; assert simulate.__name__ == "
                   "'simulate', simulate",
}


@pytest.mark.parametrize("order", IMPORT_ORDERS)
def test_root_simulate_is_the_function_in_any_import_order(order):
    proc = run_from_source(
        IMPORT_ORDERS[order] + "\n"
        "import inspect, sys, deadlinenet\n"
        "found = deadlinenet.simulate\n"
        "assert inspect.isfunction(found), found\n"
        "assert found is sys.modules['deadlinenet.simulate'].simulate, found")
    assert (proc.returncode, proc.stderr) == (0, "")


def test_exact_solvers_take_only_the_spec():
    # their answers are kept on the spec, so no caller passes one in
    for solver in (deadlinenet.product_form, deadlinenet.solve_expanded,
                   deadlinenet.baseline_full_insensitivity,
                   deadlinenet.baseline_service_time_insensitivity):
        assert list(inspect.signature(solver).parameters) == ["spec"], solver


def _imported_top_modules(path):
    """The top-level module of every absolute import in ``path``, at any
    depth (imports inside functions too); relative imports are the
    package's own."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_src_imports_only_declared_dependencies():
    # scipy and hypothesis are installed for the tests, so importing the
    # package cannot tell whether a module needs one of them at run time
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(
        (SRC.parents[1] / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", requirement)[0].lower()
                .replace("-", "_") for requirement in project["dependencies"]}
    allowed = set(sys.stdlib_module_names) | declared | {"deadlinenet"}
    paths = sorted(SRC.glob("*.py"))
    assert paths
    undeclared = {(path.name, module) for path in paths
                  for module in _imported_top_modules(path)
                  if module not in allowed}
    assert not undeclared
