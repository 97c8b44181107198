import dataclasses
import textwrap
import tracemalloc

import pytest

from deadlinenet import config
from deadlinenet import (
    ConfigError,
    Deterministic,
    Exponential,
    Infinite,
    InvalidNetworkError,
    OutputOptions,
    ScenarioConfig,
    SimConfig,
    Uniform,
    Weibull,
    bundled_scenario_path,
    load_scenario,
    parse_scenario,
    two_node_deadline_example,
)
from deadlinenet.model import NOT_OPEN

from helpers import render_scenario

CANONICAL = ScenarioConfig(network=two_node_deadline_example())


def test_render_parse_round_trip():
    text = render_scenario(CANONICAL)
    back = parse_scenario(text)
    assert back == CANONICAL
    assert render_scenario(back) == text


def test_bundled_scenario_is_canonical():
    path = bundled_scenario_path()
    scenario = load_scenario(path)
    assert scenario == CANONICAL
    assert path.read_text() == render_scenario(CANONICAL)


def test_default_sections_optional():
    text = render_scenario(CANONICAL)
    network_only = text.split("\n[sim]")[0]
    scenario = parse_scenario(network_only)
    assert scenario.network == CANONICAL.network
    assert scenario.sim == SimConfig()
    assert scenario.outputs == OutputOptions()


def test_all_distribution_tokens_round_trip():
    text = textwrap.dedent("""\
        [network]
        nodes = 1
        components = 5
        arrivals = 0.5
        node1.components = exp(rate=1.5), det(value=2.0), uniform(0.5, 2.5), weibull(1.3, 0.7), inf
        node1.route1 =
        node1.route2 =
        node1.route3 =
        node1.route4 =
        node1.route5 =
        """)
    scenario = parse_scenario(text)
    assert scenario.network.nodes[0].components == (
        Exponential(1.5), Deterministic(2.0), Uniform(0.5, 2.5),
        Weibull(1.3, 0.7), Infinite())
    assert parse_scenario(render_scenario(scenario)) == scenario


def test_positional_and_named_parameters_agree():
    a = parse_scenario(_single_node("exp(1.5)"))
    b = parse_scenario(_single_node("exp(rate=1.5)"))
    assert a == b
    c = parse_scenario(_single_node("uniform(hi=2.0, lo=1.0)"))
    d = parse_scenario(_single_node("uniform(1.0, 2.0)"))
    assert c == d


def _single_node(token, route="", arrivals="0.5"):
    return textwrap.dedent(f"""\
        [network]
        nodes = 1
        components = 1
        arrivals = {arrivals}
        node1.components = {token}
        node1.route1 = {route}
        """)


def test_sparse_routing_targets_are_one_based():
    text = textwrap.dedent("""\
        [network]
        nodes = 3
        components = 1
        arrivals = 1.0, 0.0, 0.0
        node1.components = exp(rate=1.0)
        node1.route1 = 2: 0.25, 3: 0.5
        node2.components = exp(rate=1.0)
        node2.route1 =
        node3.components = exp(rate=1.0)
        node3.route1 = 1: 0.1
        """)
    spec = parse_scenario(text).network
    assert spec.nodes[0].routing == ((0.0, 0.25, 0.5),)
    assert spec.nodes[1].routing == ((0.0, 0.0, 0.0),)
    assert spec.nodes[2].routing == ((0.1, 0.0, 0.0),)


@pytest.mark.parametrize("mutation, fragment", [
    ("[extra]\nkey = 1\n", "unknown sections"),
    ("", r"missing \[network\]"),
])
def test_section_level_errors(mutation, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_scenario(mutation)


@pytest.mark.parametrize("text, fragment", [
    (_single_node("exp(rate=1.0)") + "node1.route9 = 1: 0.5\n", "unknown keys"),
    (_single_node("exp(rate=1.0)").replace("node1.components", "node1.comps"),
     "unknown keys"),
    (_single_node("gauss(1.0)"), "unknown distribution"),
    (_single_node("exp(rate=1.0, scale=2.0)"), "no parameter"),
    (_single_node("exp()"), "needs parameters"),
    (_single_node("exp(1.0, 2.0)"), "too many"),
    (_single_node("exp(rate=oops)"), "expected a number"),
    (_single_node("exp(rate=-1.0)"), "rate"),
    (_single_node("inf(1.0)"), "no parameters"),
    (_single_node("exp(rate=1.0)", route="4: 0.5"), "out of range"),
    (_single_node("exp(rate=1.0)", route="1: 0.2, 1: 0.3"), "duplicate target"),
    (_single_node("exp(rate=1.0)", route="0.5"), "expected 'target"),
    (_single_node("exp(rate=1.0)", arrivals="1.0, 2.0"), "expected 1 rates"),
    (_single_node("exp(rate=1.0)") + "\n[sim]\nhorizon = fast\n",
     "expected a number"),
    (_single_node("exp(rate=1.0)") + "\n[sim]\nwarmup = -3.0\n", "warmup"),
    (_single_node("exp(rate=1.0)") + "\n[sim]\ngenerator = doom\n",
     "unknown generator"),
    (_single_node("exp(rate=1.0)") + "\n[sim]\nseed = -1\n",
     r"\[sim\] seed must be >= 0, got -1"),
    (_single_node("exp(rate=1.0)") + "\n[sim]\nhorizon = inf\n",
     r"\[sim\] horizon must be finite, got inf"),
    (_single_node("exp(rate=1.0)") + "\n[outputs]\nformat = yaml\n", "format"),
    (_single_node("exp(rate=1.0)") + "\n[outputs]\nplot = true\n",
     "unknown keys"),
    (_single_node("exp(rate=1.0)", route="1: 0.0, 1: 0.3"), "duplicate target"),
])
def test_key_level_errors(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_scenario(text)


def test_invalid_network_reported_with_violations():
    text = _single_node("exp(rate=1.0)", route="1: 1.4")
    with pytest.raises(InvalidNetworkError) as err:
        parse_scenario(text)
    assert any("substochastic" in str(v) for v in err.value.report)


def test_non_finite_routing_reported_with_violation():
    text = render_scenario(CANONICAL).replace("node1.route1 = 2: 1.0",
                                              "node1.route1 = 2: nan")
    with pytest.raises(InvalidNetworkError) as err:
        parse_scenario(text)
    [violation] = err.value.report
    assert violation.where == "node 1 component 1"
    assert "finite" in violation.message


def test_closed_network_reported_as_not_open():
    text = _single_node("exp(rate=1.0)", route="1: 1.0")
    with pytest.raises(InvalidNetworkError) as err:
        parse_scenario(text)
    assert [v.kind for v in err.value.report] == [NOT_OPEN]


def test_whitespace_insensitive_parsing():
    text = _single_node("  exp( rate = 1.5 )  ", route=" 1 :  0.25 ")
    spec = parse_scenario(text).network
    assert spec.nodes[0].components == (Exponential(1.5),)
    assert spec.nodes[0].routing == ((0.25,),)


def _three_nodes(route):
    return textwrap.dedent("""\
        [network]
        nodes = 3
        components = 1
        arrivals = 1.0, 0.0, 0.0
        node1.components = exp(rate=1.0)
        node1.route1 = {}
        node2.components = exp(rate=1.0)
        node3.components = exp(rate=1.0)
        """).format(route)


@pytest.mark.parametrize("route, message", [
    ("0.5", "expected 'target: probability', got '0.5'"),
    ("1: 0.2, 0.5", "expected 'target: probability', got '0.5'"),
    ("1: 0.5,", "expected 'target: probability', got ''"),
    (" , ", "expected 'target: probability', got ''"),
    ("x: 0.5", "expected an integer, got 'x'"),
    ("1.5: 0.2", "expected an integer, got '1.5'"),
    (": 0.5", "expected an integer, got ''"),
    ("1 0: 0.5", "expected an integer, got '1 0'"),
    ("9" * 5000 + ": 0.1", f"expected an integer, got '{'9' * 5000}'"),
    ("0: 0.5", "target 0 out of range 1..3"),
    ("4: 0.5", "target 4 out of range 1..3"),
    ("1: 0.2, 1: 0.3", "duplicate target 1"),
    ("1: abc", "expected a number, got 'abc'"),
    ("1:", "expected a number, got ''"),
    # each entry has exactly one colon, even when the colons and commas
    # balance across the row
    ("1: 0.2: 3, 0.4", "expected a number, got '0.2: 3'"),
    ("1: 0.2: 3, 2: 0.4", "expected a number, got '0.2: 3'"),
    # the first bad entry is reported, whatever the later ones hold
    ("1: x, 0: 0.5", "expected a number, got 'x'"),
    ("3: 0.1, 1: y, 4: 0.1", "expected a number, got 'y'"),
    ("5: 0.1, 1: y", "target 5 out of range 1..3"),
    ("2: 0.1, 2: oops", "duplicate target 2"),
])
def test_malformed_route_messages(route, message):
    with pytest.raises(ConfigError) as err:
        parse_scenario(_three_nodes(route))
    assert str(err.value) == f"[network] node1.route1: {message}"


@pytest.mark.parametrize("route, row", [
    ("", (0.0, 0.0, 0.0)),
    (" 1 :  0.25 ", (0.25, 0.0, 0.0)),
    ("1: 1e-3", (1e-3, 0.0, 0.0)),
    ("0_1: 1_0e-2, 3:.5", (0.1, 0.0, 0.5)),
    ("+2: 0.1, 03: 0.2", (0.0, 0.1, 0.2)),
    ("3: 0.25, 1: -0.0", (-0.0, 0.0, 0.25)),
])
def test_route_spellings_that_int_and_float_accept(route, row):
    [parsed] = parse_scenario(_three_nodes(route)).network.nodes[0].routing
    assert parsed == row
    assert [str(q) for q in parsed] == [str(q) for q in row]


def test_sim_and_output_overrides_parsed():
    text = render_scenario(ScenarioConfig(
        network=two_node_deadline_example(),
        sim=SimConfig(seed=99, generator_name="philox", horizon=512.0,
                      warmup=2.0, record_joint=False),
        outputs=OutputOptions(format="json", joint=False, marginals_upto=12)))
    scenario = parse_scenario(text)
    assert scenario.sim.seed == 99
    assert scenario.sim.generator_name == "philox"
    assert scenario.sim.record_joint is False
    assert scenario.outputs.format == "json"
    assert scenario.outputs.marginals_upto == 12
    assert parse_scenario(render_scenario(scenario)) == scenario


def test_output_options_validation():
    with pytest.raises(ValueError):
        OutputOptions(format="xml")
    with pytest.raises(ValueError):
        OutputOptions(marginals_upto=-1)


def test_unknown_network_keys_are_listed_sorted():
    # node and component numbers are decimal, 1-based, without a leading
    # zero, and within the declared counts
    bad = ["node01.components", "node0.route1", "node2.components",
           "node1.route2", "node1.route0", "node1.route01", "node1.route",
           "node1.Components", "node" + "9" * 5000 + ".route1",
           "node1.route" + "9" * 5000]
    text = _single_node("exp(rate=1.0)") + "".join(f"{k} =\n" for k in bad)
    with pytest.raises(ConfigError) as err:
        parse_scenario(text)
    assert str(err.value) == f"[network] unknown keys: {', '.join(sorted(bad))}"


def test_unknown_key_check_does_not_grow_with_the_declared_node_count():
    text = "[network]\nnodes = 50000\ncomponents = 1\narrivals = 1.0\n"
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="expected 50000 rates, got 1"):
            parse_scenario(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("section, cls", [("sim", SimConfig),
                                          ("outputs", OutputOptions)])
def test_settings_table_names_every_field_once(section, cls):
    _, table = config._SETTINGS[section]
    assert sorted(name for _, name, _ in table) == sorted(
        f.name for f in dataclasses.fields(cls))
    assert len({key for key, _, _ in table}) == len(table)
