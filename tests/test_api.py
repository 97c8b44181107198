import importlib
import inspect

import deadlinenet

MODULES = ("analytic", "config", "distributions", "errors", "model",
           "simulate", "stats")

ROOT_NAMES = [
    "BaselineResult", "ComparisonReport", "ConfigError", "DeadlinenetError",
    "Deterministic", "EventCounts", "ExpandedSolution",
    "Exponential", "Infinite", "InfiniteMeanError", "InvalidNetworkError",
    "MinStats", "NetworkSpec", "NodeSpec", "OpennessError", "OutputOptions",
    "ProductForm", "QuadratureError", "ReplicateSummary", "ScenarioConfig",
    "SimConfig", "SimResult", "TrafficSolution", "Uniform", "Violation",
    "Weibull", "baseline_full_insensitivity",
    "baseline_service_time_insensitivity", "bundled_scenario_path", "compare",
    "compute_min_stats", "empirical_marginal",
    "load_scenario", "parse_scenario", "product_form", "product_form_deviation",
    "replicate", "simulate", "solve_expanded", "solve_traffic",
    "structural_violations", "total_variation", "two_node_deadline_example",
    "validate",
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


def test_exact_solvers_take_only_the_spec():
    # their answers are kept on the spec, so no caller passes one in
    for solver in (deadlinenet.solve_traffic, deadlinenet.product_form,
                   deadlinenet.solve_expanded,
                   deadlinenet.baseline_full_insensitivity,
                   deadlinenet.baseline_service_time_insensitivity):
        assert list(inspect.signature(solver).parameters) == ["spec"], solver
