import importlib
import json
import math
import textwrap
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, seed, settings

import deadlinenet
from deadlinenet import SimConfig, product_form, simulate, two_node_deadline_example
from deadlinenet.cli import (
    EXIT_NUMERICAL,
    EXIT_OPENNESS,
    EXIT_VALIDATION,
    main,
    parse_csv_tables,
)
from deadlinenet.config import bundled_scenario_path

from helpers import count_calls, run_from_source, scenario_texts

FAST = ["--horizon", "2000", "--warmup", "200"]


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args, code=0):
    result = runner.invoke(main, list(args), catch_exceptions=False)
    assert result.exit_code == code, result.output + result.stderr
    return result


def write_config(tmp_path, body, name="net.cfg"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    return str(path)


CLOSED = """\
    [network]
    nodes = 1
    components = 1
    arrivals = 1.0
    node1.components = exp(rate=1.0)
    node1.route1 = 1: 1.0
    """

INFINITE_COMPONENT = """\
    [network]
    nodes = 1
    components = 2
    arrivals = 1.0
    node1.components = exp(rate=1.0), inf
    node1.route1 =
    node1.route2 =
    """


def test_solve_defaults_to_bundled_scenario(runner):
    result = invoke(runner, "solve")
    assert "== rho ==" in result.output
    assert "1.581977" in result.output
    assert "1.000000" in result.output


def test_solve_csv_round_trips_exact_values(runner):
    result = invoke(runner, "solve", "--format", "csv")
    kind, tables = parse_csv_tables(result.output)
    assert kind == "solve"
    rho = {int(row[0]): float(row[1]) for row in tables["rho"][1]}
    pf = product_form(two_node_deadline_example())
    assert rho == {1: pf.rho[0], 2: pf.rho[1]}
    header, rows = tables["marginal"]
    assert header == ["node", "state", "probability"]
    states = [int(r[1]) for r in rows if r[0] == "1"]
    assert states == list(range(pf.truncation(0) + 1))


def test_solve_json_matches_api(runner):
    result = invoke(runner, "solve", "--format", "json")
    payload = json.loads(result.output)
    pf = product_form(two_node_deadline_example())
    np.testing.assert_allclose(payload["rho"], pf.rho, atol=0.0)
    assert payload["kind"] == "solve"
    assert len(payload["marginals"][0]["pmf"]) == pf.truncation(0) + 1


def test_simulate_csv_matches_api(runner):
    result = invoke(runner, "simulate", "--format", "csv", *FAST)
    kind, tables = parse_csv_tables(result.output)
    assert kind == "simulate"
    res = simulate(two_node_deadline_example(),
                   SimConfig(horizon=2000.0, warmup=200.0))
    means = {int(r[0]): float(r[1]) for r in tables["means"][1]}
    assert means == {1: res.means[0], 2: res.means[1]}
    joint_rows = tables["joint_weights"][1]
    assert sum(float(r[2]) for r in joint_rows) == pytest.approx(
        res.effective_duration, rel=1e-9)


def test_simulate_replications(runner):
    result = invoke(runner, "simulate", "--runs", "3", "--format", "csv", *FAST)
    _, tables = parse_csv_tables(result.output)
    assert len(tables["pooled_means"][1]) == 2
    assert len(tables["run_means"][1]) == 6
    se = [float(r[2]) for r in tables["pooled_means"][1]]
    assert all(s > 0 for s in se)


def test_byte_identical_reruns(runner):
    for args in (["simulate", "--format", "csv", *FAST],
                 ["compare", *FAST],
                 ["solve", "--format", "json"]):
        first = invoke(runner, *args)
        second = invoke(runner, *args)
        assert first.output == second.output


def test_seed_override_changes_output(runner):
    base = invoke(runner, "simulate", "--format", "csv", *FAST)
    other = invoke(runner, "simulate", "--seed", "123", "--format", "csv",
                   *FAST)
    assert base.output != other.output


def test_compare_renders_all_columns(runner):
    result = invoke(runner, "compare", *FAST)
    assert "simulated" in result.output
    assert "full_insensitivity" in result.output
    assert "service_time_insensitivity" in result.output
    assert "product_form_sup" in result.output
    assert "2.000000" in result.output  # full-insensitivity stage-1 value


def test_compare_no_joint_omits_sup(runner):
    result = invoke(runner, "compare", "--no-joint", *FAST)
    assert "product_form_sup" not in result.output
    as_json = invoke(runner, "compare", "--no-joint", "--format", "json",
                     *FAST)
    assert json.loads(as_json.output)["product_form_sup"] is None


def test_expand_reports_equivalence(runner):
    result = invoke(runner, "expand")
    assert "expansion check" in result.output
    assert "(OK)" in result.output
    assert "0.632121" in result.output  # achievement split of the forward hop
    assert "0.367879" in result.output


def test_expand_check_is_relative_to_the_occupancies(runner, tmp_path):
    # the two solves round differently: at arrivals x 3e9 their occupancies
    # differ by about 5e-7, far more than 1e-9, but only by 1e-16 relative
    body = bundled_scenario_path().read_text().replace(
        "arrivals = 1.0, 0.0", "arrivals = 3e9, 0.0")
    result = invoke(runner, "expand", "--config", write_config(tmp_path, body))
    assert "(OK)" in result.output


def test_expand_single_component_network(runner, tmp_path):
    cfg = write_config(tmp_path, """\
        [network]
        nodes = 2
        components = 1
        arrivals = 1.0, 0.0
        node1.components = exp(rate=2.0)
        node1.route1 = 2: 0.5
        node2.components = exp(rate=1.0)
        node2.route1 =
        """)
    result = invoke(runner, "expand", "--config", cfg, "--format", "csv")
    _, tables = parse_csv_tables(result.output)
    # one expanded node per original node; routing mirrors the original
    assert len(tables["expanded_nodes"][1]) == 2
    assert tables["expanded_routing"][1] == [["1", "2", "0.5"]]


@pytest.mark.parametrize("command", ["solve", "expand", "compare", "baselines"])
def test_each_exact_quantity_computed_once_per_command(runner, monkeypatch, command):
    import deadlinenet.analytic
    import deadlinenet.distributions
    import deadlinenet.model

    # the computations themselves, not the cached entry points: validation,
    # the solvers and simulate's check all ask for the structural report
    checks = count_calls(monkeypatch, deadlinenet.model, "_structure_report")
    races = count_calls(monkeypatch, deadlinenet.distributions, "_race_stats")
    exact = count_calls(monkeypatch, deadlinenet.analytic, "_product_form")
    solves = count_calls(monkeypatch, deadlinenet.analytic, "_solve_open")
    invoke(runner, command, "--format", "json")
    assert (len(checks), len(races), len(exact)) == (1, 1, 1)
    # expand adds the expanded network's solve, compare and baselines the
    # full-insensitivity one; the service-time baseline reuses the flows
    assert len(solves) == {"solve": 1, "expand": 2, "compare": 2,
                           "baselines": 2}[command]


def test_baselines_values(runner):
    result = invoke(runner, "baselines", "--format", "csv")
    _, tables = parse_csv_tables(result.output)
    full = {int(r[0]): float(r[1]) for r in tables["full_insensitivity"][1]}
    svc = {int(r[0]): float(r[1])
           for r in tables["service_time_insensitivity"][1]}
    assert full == {1: 2.0, 2: 1.0}
    assert svc[1] == pytest.approx(1.2513251505385594, abs=1e-12)
    assert svc[2] == pytest.approx(0.79098835343466321, abs=1e-12)


def test_out_writes_file(runner, tmp_path):
    target = tmp_path / "result.csv"
    result = invoke(runner, "solve", "--format", "csv", "--out", str(target))
    assert result.output == ""
    kind, tables = parse_csv_tables(target.read_text())
    assert kind == "solve"
    assert "rho" in tables


def test_invalid_config_exits_3(runner, tmp_path):
    cfg = write_config(tmp_path, """\
        [network]
        nodes = 1
        components = 1
        arrivals = 1.0
        node1.components = exp(rate=1.0)
        node1.route1 =
        typo = 1
        """)
    result = runner.invoke(main, ["solve", "--config", cfg])
    assert result.exit_code == EXIT_VALIDATION
    assert "unknown keys" in result.stderr


def test_substochastic_violation_exits_3(runner, tmp_path):
    cfg = write_config(tmp_path, CLOSED.replace("1: 1.0", "1: 1.5"))
    result = runner.invoke(main, ["solve", "--config", cfg])
    assert result.exit_code == EXIT_VALIDATION
    assert "substochastic" in result.stderr


def test_non_finite_routing_exits_3(runner, tmp_path):
    cfg = write_config(tmp_path, CLOSED.replace("1: 1.0", "1: nan"))
    result = runner.invoke(main, ["solve", "--config", cfg])
    assert result.exit_code == EXIT_VALIDATION
    assert "node 1 component 1" in result.stderr
    assert "finite" in result.stderr


def test_closed_network_exits_4(runner, tmp_path):
    cfg = write_config(tmp_path, CLOSED)
    result = runner.invoke(main, ["solve", "--config", cfg])
    assert result.exit_code == EXIT_OPENNESS
    assert "not open" in result.stderr


def test_openness_error_after_validation_exits_4(runner, tmp_path):
    # the exponential can win by its support, so validate accepts the loop,
    # but its 1e-15 win probability is floored to 0 and the traffic solve
    # finds node 1 trapped
    cfg = write_config(tmp_path, """\
        [network]
        nodes = 1
        components = 2
        arrivals = 1.0
        node1.components = exp(rate=1e-15), det(value=1.0)
        node1.route1 =
        node1.route2 = 1: 1.0
        """)
    result = runner.invoke(main, ["solve", "--config", cfg])
    assert result.exit_code == EXIT_OPENNESS
    assert result.stdout == ""
    assert result.stderr == (
        "openness error: traffic equations: customers at node(s) 1 can never "
        "leave — network not open\n")


def test_solve_refuses_an_unbounded_default_marginal_table(runner, tmp_path):
    # rho is about 1.6e7, so the default truncation would write some 1.6e7
    # marginal rows; an explicit marginals_upto bounds the table
    body = bundled_scenario_path().read_text().replace(
        "arrivals = 1.0, 0.0", "arrivals = 1e7, 0.0")
    cfg = write_config(tmp_path, body)
    result = runner.invoke(main, ["solve", "--config", cfg])
    assert result.exit_code == EXIT_VALIDATION
    assert "outputs.marginals_upto" in result.stderr
    bounded = write_config(
        tmp_path, body + "marginals_upto = 3\n", name="bounded.cfg")
    result = invoke(runner, "solve", "--config", bounded, "--format", "json")
    payload = json.loads(result.output)
    assert payload["rho"][0] == pytest.approx(1.5819767068693265e7, rel=1e-12)
    assert [len(m["pmf"]) for m in payload["marginals"]] == [4, 4]


# the exact rho of node 1 is about 6.3e10: its Poisson marginal would have
# some 6.3e10 states, while a short simulation stays small
WIDE = """\
    [network]
    nodes = 1
    components = 2
    arrivals = 1.0
    node1.components = exp(rate=1.0), det(value=1.0)
    node1.route1 = 1: 0.99999999999
    node1.route2 = 1: 0.99999999999
    """


@pytest.mark.parametrize("command", [["solve"],
                                     ["compare", "--horizon", "100",
                                      "--warmup", "10"]])
def test_an_unbounded_exact_marginal_exits_3(runner, tmp_path, command):
    cfg = write_config(tmp_path, WIDE)
    result = runner.invoke(main, [*command, "--config", cfg])
    assert result.exit_code == EXIT_VALIDATION, result.stderr
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.stderr
    assert "63215067725 rows, more than 1000000" in result.stderr


def test_compare_checks_the_exact_side_before_the_run(runner, tmp_path,
                                                     monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("simulated before the exact side was checked")

    # cmd_compare imports the simulator when it runs; the package attribute
    # deadlinenet.simulate is the function, so patch it in its module
    monkeypatch.setattr(importlib.import_module("deadlinenet.simulate"),
                        "simulate", no_run)
    cfg = write_config(tmp_path, WIDE)
    result = runner.invoke(main, ["compare", "--config", cfg,
                                  "--horizon", "100", "--warmup", "10"])
    assert result.exit_code == EXIT_VALIDATION, result.stderr
    assert "63215067725 rows, more than 1000000" in result.stderr


def test_baselines_infinite_component_exits_3(runner, tmp_path):
    cfg = write_config(tmp_path, INFINITE_COMPONENT)
    result = runner.invoke(main, ["baselines", "--config", cfg])
    assert result.exit_code == EXIT_VALIDATION
    assert "contract violation" in result.stderr
    # the exact solver has no such restriction
    solve = runner.invoke(main, ["solve", "--config", cfg])
    assert solve.exit_code == 0


def test_never_winning_mean_renders_as_inf_and_null(runner, tmp_path):
    cfg = write_config(tmp_path, INFINITE_COMPONENT)
    table = invoke(runner, "expand", "--config", cfg).output
    assert table.splitlines()[3].split() == [
        "2", "1", "2", "0.000000", "0.000000", "inf", "0.000000", "0.000000"]
    csv = invoke(runner, "expand", "--config", cfg, "--format", "csv").output
    _, tables = parse_csv_tables(csv)
    header, rows = tables["expanded_nodes"]
    assert [row[header.index("mean_service")] for row in rows] == ["1.0", "inf"]
    payload = json.loads(
        invoke(runner, "expand", "--config", cfg, "--format", "json").output)
    assert [row["mean_service"] for row in payload["expanded_nodes"]] == [1.0, None]


def _numbers(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [x for item in value for x in _numbers(item)]
    return [value] if isinstance(value, (int, float)) else []


@pytest.mark.parametrize("command", [["solve"], ["expand"], ["baselines"],
                                     ["compare", *FAST]])
def test_deadline_far_past_the_mean_is_answered(runner, tmp_path, command):
    # an Exp(1) transaction racing a 1000 s timeout: the race's truncated
    # exponential mean at x = 1000 once overflowed math.expm1
    text = bundled_scenario_path().read_text().replace(
        "det(value=1.0)", "det(value=1000.0)")
    cfg = tmp_path / "far.cfg"
    cfg.write_text(text)
    result = invoke(runner, *command, "--config", str(cfg), "--format", "json")
    numbers = _numbers(json.loads(result.output))
    assert numbers and all(np.isfinite(numbers))


@pytest.mark.parametrize("partner", ["exp(rate=1.0)", "inf"])
def test_tiny_weibull_shape_exits_with_a_reserved_code(runner, tmp_path, partner):
    # Weibull(0.005, 1)'s mean and its 1e-16 tail time overflow a float:
    # the race cannot be integrated (solve, expand and compare exit 5) and
    # the baselines need finite means (exit 3)
    cfg = write_config(tmp_path, f"""\
        [network]
        nodes = 1
        components = 2
        arrivals = 1.0
        node1.components = weibull(0.005, 1.0), {partner}
        node1.route1 =
        node1.route2 =
        """)
    for command, code in [("solve", EXIT_NUMERICAL), ("expand", EXIT_NUMERICAL),
                          ("compare", EXIT_NUMERICAL),
                          ("baselines", EXIT_VALIDATION)]:
        extra = FAST if command == "compare" else []
        result = runner.invoke(main, [command, "--config", cfg, *extra])
        assert result.exit_code == code, (command, result.output, result.stderr)
        assert "node 1" in result.stderr and "component 1" in result.stderr


@pytest.mark.parametrize("partner, code", [("exp(rate=1.0)", 0),
                                           ("inf", EXIT_NUMERICAL)])
def test_simulate_needs_a_component_with_a_finite_mean(runner, tmp_path,
                                                       partner, code):
    # Weibull(0.005, 1)'s mean overflows a float; with no partner of finite
    # mean, customers pile up and a simulated mean only grows with the
    # horizon
    cfg = write_config(tmp_path, f"""\
        [network]
        nodes = 1
        components = 2
        arrivals = 1.0
        node1.components = weibull(0.005, 1.0), {partner}
        node1.route1 =
        node1.route2 =
        """)
    for extra in ([], ["--runs", "2"]):
        result = runner.invoke(main, ["simulate", "--config", cfg, *FAST,
                                      *extra])
        assert result.exit_code == code, (result.output, result.stderr)
    if code:
        assert ("mean of node 1 component 1 is not finite"
                in result.stderr)


@pytest.mark.parametrize("override, message", [
    (["--seed", "-1"], "config error: seed must be >= 0, got -1"),
    (["--horizon", "inf"], "config error: horizon must be finite, got inf"),
], ids=["seed", "horizon"])
@pytest.mark.parametrize("command", [["simulate"], ["simulate", "--runs", "2"],
                                     ["compare"]],
                         ids=["simulate", "replicate", "compare"])
def test_negative_seed_and_infinite_horizon_exit_3(runner, tmp_path, command,
                                                   override, message):
    # without arrivals a run to an infinite horizon would end at once
    cfg = write_config(tmp_path, INFINITE_COMPONENT.replace("arrivals = 1.0",
                                                            "arrivals = 0.0"))
    result = invoke(runner, *command, "--config", cfg, *override,
                    code=EXIT_VALIDATION)
    assert result.stderr == message + "\n"


# the fixed seed pins the 40 draws: under derandomize alone they are drawn
# from a digest of this test's source, and any edit to it would redraw them
@seed(2022)
@settings(derandomize=True, max_examples=40, deadline=None)
@given(scenario_texts())
@example(textwrap.dedent(WIDE))
# (1.0 / 0.1) ** 1000 overflows a float in the Weibull survival at the atom
@example(textwrap.dedent(INFINITE_COMPONENT).replace(
    "exp(rate=1.0), inf", "det(value=1.0), weibull(1000.0, 0.1)"))
# a draw of Weibull(0.001, 1.0) overflows to inf in the simulator
@example(textwrap.dedent(INFINITE_COMPONENT).replace(
    "exp(rate=1.0), inf", "exp(rate=1.0), weibull(0.001, 1.0)"))
def test_front_door_exits_with_a_reserved_code(tmp_path_factory, text):
    # every command on any scenario text either answers with finite numbers
    # (infinities are the documented nulls) or exits 3, 4 or 5 with a message
    runner = CliRunner()
    path = tmp_path_factory.mktemp("fuzz") / "net.cfg"
    path.write_text(text)
    short = ["--horizon", "50", "--warmup", "5"]
    for command in (["solve"], ["expand"], ["baselines"],
                    ["simulate", *short], ["compare", *short]):
        result = runner.invoke(main, [*command, "--config", str(path),
                                      "--format", "json"])
        assert result.exception is None or isinstance(result.exception,
                                                      SystemExit), command
        assert result.exit_code in (0, EXIT_VALIDATION, EXIT_OPENNESS,
                                    EXIT_NUMERICAL), (command, result.stderr)
        if result.exit_code == 0:
            numbers = _numbers(json.loads(result.stdout))
            assert all(map(math.isfinite, numbers)), command
            if command[0] == "simulate":
                assert result.stderr == "", result.stderr


def test_simulate_rejects_zero_runs(runner):
    result = invoke(runner, "simulate", "--runs", "0", code=EXIT_VALIDATION)
    assert result.stderr == "config error: --runs must be >= 1, got 0\n"


@pytest.mark.parametrize("command, names", [
    ("solve", ["config_path", "fmt", "out_path"]),
    ("expand", ["config_path", "fmt", "out_path"]),
    ("baselines", ["config_path", "fmt", "out_path"]),
    ("compare", ["config_path", "fmt", "out_path", "seed", "horizon",
                 "warmup", "no_joint"]),
    ("simulate", ["config_path", "fmt", "out_path", "seed", "horizon",
                  "warmup", "no_joint", "runs"]),
])
def test_command_options_in_order(command, names):
    assert [p.name for p in main.commands[command].params] == names


def test_usage_errors_use_reserved_exit_code(runner):
    result = runner.invoke(main, ["solve", "--format", "yaml"])
    assert result.exit_code == 2


def test_parse_csv_tables_rejects_foreign_text():
    for text, message in [
            ("state,probability\n0,1.0\n", "not a recognized"),
            ("# deadlinenet-csv v1 solve\n0,1.0\n",
             "data before first table marker: '0,1.0'")]:
        with pytest.raises(ValueError, match=message):
            parse_csv_tables(text)


def test_version_from_a_source_checkout():
    proc = run_from_source(
        "import sys; from deadlinenet.cli import main; sys.exit(main())",
        "--version")
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, f"deadlinenet, version {deadlinenet.__version__}\n", "")


def test_baselines_overflowing_flows_print_one_message(tmp_path):
    # arrivals of 1e308 overflow the full-insensitivity flows: the residual
    # is nan, which exits 4 with a message and no interpreter warning
    text = bundled_scenario_path().read_text().replace(
        "arrivals = 1.0, 0.0", "arrivals = 1e308, 0.0")
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(text)
    proc = run_from_source(
        "import sys; from deadlinenet.cli import main; sys.exit(main())",
        "baselines", "--config", str(cfg))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        EXIT_OPENNESS, "",
        "openness error: full_insensitivity flow equations: residual nan "
        "exceeds 1.000e+298 (1e-10 of the largest inflow) — network not open "
        "or numerically degenerate\n")


def test_cli_import_loads_no_scipy():
    # the command-line start-up cost is dominated by imports; scipy alone
    # once took most of it, so the CLI must not load it even indirectly
    proc = run_from_source(
        "import sys, deadlinenet.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc.check_returncode()
    assert proc.stdout.strip() == "[]"


def test_exact_commands_load_no_simulator():
    # a cold exact command imports only what its answer needs: the
    # simulator, the comparison and numpy.random are for simulate and compare
    proc = run_from_source(
        "import sys; from deadlinenet.cli import main\n"
        "for command in ('solve', 'expand', 'baselines'):\n"
        "    main.main([command, '--format', 'json'], standalone_mode=False)\n"
        "print(sorted(m for m in ('numpy.random', 'deadlinenet.simulate',\n"
        "                         'deadlinenet.stats') if m in sys.modules))")
    proc.check_returncode()
    assert proc.stdout.splitlines()[-1] == "[]"
    assert proc.stderr == ""


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_cold_simulating_commands_exit_0(command):
    proc = run_from_source(
        "import sys; from deadlinenet.cli import main; sys.exit(main())",
        command, *FAST, "--format", "json")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["kind"] == command


# an arrival rate so small that an exponential gap overflows to inf (and,
# under seed 2, so does a sum of two finite gaps), and a Weibull scale
# times a tail so large that a service time does: these are the right
# draws, and the run reports them without a numpy warning
OVERFLOWING_DRAWS = {
    "gap": """\
        [network]
        nodes = 1
        components = 2
        arrivals = 1.1125369292536007e-308
        node1.components = exp(rate=1.0), exp(rate=0.7132878255950256)
        """,
    "service": """\
        [network]
        nodes = 1
        components = 2
        arrivals = 2.6401755470737642
        node1.components = uniform(0.03230312607263904, 1.000000137244776), weibull(0.0014193086604881132, 3.0011669937682925)
        node1.route2 = 1: 0.6476599929349097
        """,
}


@pytest.mark.parametrize("draw, seed", [("gap", 36), ("gap", 2),
                                        ("service", 36)])
def test_simulate_overflowing_draw_writes_no_warning(runner, tmp_path, draw,
                                                     seed):
    cfg = write_config(tmp_path, OVERFLOWING_DRAWS[draw])
    with warnings.catch_warnings(record=True) as caught:
        # a plain interpreter prints each of these to stderr
        warnings.simplefilter("always")
        result = runner.invoke(main, ["simulate", "--config", cfg,
                                      "--seed", str(seed),
                                      "--horizon", "50", "--warmup", "5"])
    assert [str(w.message) for w in caught] == []
    assert (result.exit_code, result.stderr) == (0, "")
