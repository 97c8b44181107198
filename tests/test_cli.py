import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

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


def _count_calls(monkeypatch, module, name):
    """Wrap module.name in every deadlinenet namespace that holds it and
    return the list its calls are appended to."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "deadlinenet" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize("command", ["solve", "expand"])
def test_each_exact_quantity_computed_once_per_command(runner, monkeypatch, command):
    import deadlinenet.analytic
    import deadlinenet.distributions

    stats_calls = _count_calls(monkeypatch, deadlinenet.distributions, "compute_min_stats")
    traffic_calls = _count_calls(monkeypatch, deadlinenet.analytic, "solve_traffic")
    invoke(runner, command, "--format", "json")
    assert (len(stats_calls), len(traffic_calls)) == (1, 1)


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


def test_baselines_infinite_component_exits_3(runner, tmp_path):
    cfg = write_config(tmp_path, INFINITE_COMPONENT)
    result = runner.invoke(main, ["baselines", "--config", cfg])
    assert result.exit_code == EXIT_VALIDATION
    assert "contract violation" in result.stderr
    # the exact solver has no such restriction
    solve = runner.invoke(main, ["solve", "--config", cfg])
    assert solve.exit_code == 0


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


def test_usage_errors_use_reserved_exit_code(runner):
    result = runner.invoke(main, ["solve", "--format", "yaml"])
    assert result.exit_code == 2


def test_parse_csv_tables_rejects_foreign_text():
    with pytest.raises(ValueError):
        parse_csv_tables("state,probability\n0,1.0\n")


def test_cli_import_loads_no_scipy():
    # the command-line start-up cost is dominated by imports; scipy alone
    # once took most of it, so the CLI must not load it even indirectly
    src = str(Path(deadlinenet.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, deadlinenet.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"
