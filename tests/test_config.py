import dataclasses
import textwrap
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, seed, settings, strategies as st

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

from helpers import mixed_network, reference_parse_route, render_scenario

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


def test_example_network_is_read_from_the_bundled_file():
    example = two_node_deadline_example()
    assert example == load_scenario(bundled_scenario_path()).network
    # each call reads the file again: a new spec, with nothing kept on it
    assert example is not two_node_deadline_example()


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
    ("node1.route1 = 1: 0.5\n", "malformed scenario file: File contains no "
     "section headers"),
    ("[network]\ncomponents = 1\narrivals = 1.0\n",
     r"^\[network\] nodes: missing required key$"),
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
    (_single_node("exp(rate=1.0)") + "\n[sim]\nrecord_joint = maybe\n",
     r"^\[sim\] record_joint: expected true/false, got 'maybe'$"),
    (_single_node("exp(rate=1.0"), r"bad distribution token 'exp\(rate=1\.0'"),
    (_single_node("exp(rate=1.0, rate=2.0)"), "duplicate parameter 'rate'"),
    (_single_node("exp(rate=1.0)").replace("nodes = 1", "nodes = 0"),
     r"^\[network\] nodes and components must be >= 1$"),
    (_single_node("exp(rate=1.0)").replace("components = 1", "components = 0"),
     r"^\[network\] nodes and components must be >= 1$"),
    (_single_node("exp(rate=1.0)").replace("node1.components = exp(rate=1.0)\n",
                                           ""),
     r"^\[network\] node1\.components: missing required key$"),
    (_single_node("exp(rate=1.0), det(value=1.0)"),
     "node1.components: expected 1 components, got 2"),
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


# spellings of a routing entry's parts that int, float or the entry split
# treat specially
_TARGET_SPELLINGS = ["+2", "03", "0_1", "1_", "\u0661", "\uff12", "\ud800",
                     "1.5", "x", "", "1 0", "9" * 40]
_PROB_SPELLINGS = ["1_0e-2", ".5", "-0.0", "3", "inf", "-inf", "nan",
                   "1e400", "0x1", "1e", "abc", ""]
_SPACES = ["", " ", "  ", "\t", "\n", " \n\t", "\xa0"]
_COLONS = [":"] * 7 + ["", "::", ": 1:"]


@st.composite
def _route_rows(draw):
    """(node count, routing row text): all, leading, some or shuffled
    targets, one out of range, or any integers or odd spellings, each maybe
    repeated, in the canonical spelling or with odd spacing, missing or
    doubled colons, an empty entry and a trailing comma; or aligned target
    and probability texts whose separators are shuffled, so that colons and
    commas balance across misaligned entries."""
    n_nodes = draw(st.integers(1, 5))
    probs = st.one_of(st.floats().map(repr), st.sampled_from(_PROB_SPELLINGS))
    layout = draw(st.sampled_from(
        ["dense", "leading", "sparse", "shuffled", "outside", "integers",
         "spellings", "separators"]))
    if layout == "separators":
        k = draw(st.integers(1, 4))
        texts = [draw(st.integers(1, n_nodes).map(str)) if i % 2 == 0
                 else draw(probs) for i in range(2 * k)]
        seps = draw(st.permutations([": "] * k + [", "] * (k - 1)))
        return n_nodes, texts[0] + "".join(map(str.__add__, seps, texts[1:]))
    targets = [str(m) for m in range(1, n_nodes + 1)]
    if layout == "leading":
        targets = targets[:draw(st.integers(0, n_nodes))]
    elif layout == "sparse":
        targets = [t for t in targets if draw(st.booleans())]
    elif layout == "shuffled":
        targets = draw(st.permutations(targets))
    elif layout == "outside":
        targets[draw(st.integers(0, n_nodes - 1))] = draw(
            st.sampled_from(["0", "-1", str(n_nodes + 1)]))
    elif layout == "integers":
        targets = draw(st.lists(st.integers(-1, n_nodes + 1).map(str),
                                max_size=n_nodes + 1))
    elif layout == "spellings":
        targets = draw(st.lists(st.sampled_from(_TARGET_SPELLINGS),
                                max_size=3))
    if targets and draw(st.integers(0, 3)) == 0:
        targets.append(draw(st.sampled_from(targets)))
    if draw(st.booleans()):
        # the spelling the canonical renderer writes
        return n_nodes, ", ".join(f"{t}: {draw(probs)}" for t in targets)
    pad = draw(st.sampled_from(_SPACES))
    entries = [pad + t + draw(st.sampled_from(_COLONS)) + pad + draw(probs)
               for t in targets]
    if draw(st.integers(0, 3)) == 0:
        entries.insert(draw(st.integers(0, len(entries))), pad)
    row = draw(st.sampled_from([",", ", ", ",\t", ",\n "])).join(entries)
    return n_nodes, pad + row + draw(st.sampled_from(["", "", ",", ", "]))


def _route_outcome(parse, *args):
    """The reprs of a parsed row, so that -0.0 and 0.0 differ, or the
    message of its ConfigError."""
    try:
        return [repr(q) for q in parse("network", "node1.route1", *args)]
    except ConfigError as exc:
        return str(exc)


# 150 generated rows, about 0.5 s, and the edge of each check by hand; the
# fixed seed pins the draws: under derandomize alone they are drawn from a
# digest of this test's source, and any edit to it would redraw them
@seed(2024)
@settings(derandomize=True, max_examples=150, deadline=None)
@given(_route_rows())
@example((3, "1: 0.5, 2: 0.25"))
@example((3, "1: 0.5, 4: 0.25"))
@example((3, "3: 0.25, 1: -0.0"))
@example((3, "1: 0.2: 3, 0.4"))
@example((2, "1: 0.5, \ud800: 0.1"))
def test_route_parse_matches_the_reference(case):
    n_nodes, raw = case
    dense = ["1", *(f" {m}" for m in range(2, n_nodes + 1))]
    assert (_route_outcome(config._parse_route, raw, n_nodes, dense)
            == _route_outcome(reference_parse_route, raw, n_nodes))


def _refuse_route_ints(monkeypatch):
    """Make the entry-by-entry reading of any routing row fail."""
    parse_int = config._parse_int

    def refuse(section, key, raw):
        assert ".route" not in key, f"{key} was read entry by entry"
        return parse_int(section, key, raw)

    monkeypatch.setattr(config, "_parse_int", refuse)


def test_rendered_dense_rows_take_the_fast_path(monkeypatch):
    spec = mixed_network(np.random.default_rng(7), 25, 3)
    assert all(all(row) for node in spec.nodes for row in node.routing)
    text = render_scenario(ScenarioConfig(network=spec))
    _refuse_route_ints(monkeypatch)
    assert parse_scenario(text).network == spec


def test_rendered_sparse_rows_take_the_fast_path(monkeypatch):
    spec = mixed_network(np.random.default_rng(7), 25, 3)
    # every third target left out, so the renderer skips those entries
    spec = dataclasses.replace(spec, nodes=tuple(
        dataclasses.replace(node, routing=tuple(
            tuple(0.0 if m % 3 == i % 3 else q for m, q in enumerate(row))
            for row in node.routing))
        for i, node in enumerate(spec.nodes)))
    text = render_scenario(ScenarioConfig(network=spec))
    _refuse_route_ints(monkeypatch)
    assert parse_scenario(text).network == spec


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
