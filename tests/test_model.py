import math

import numpy as np
import pytest

from deadlinenet import (
    Deterministic,
    Exponential,
    Infinite,
    NetworkSpec,
    NodeSpec,
    Uniform,
    Violation,
    Weibull,
    compute_min_stats,
    structural_violations,
    two_node_deadline_example,
    validate,
)
from deadlinenet.config import _parse_distribution
from deadlinenet.model import (
    ALL_COMPONENTS_INFINITE,
    BAD_ARRIVAL_RATE,
    BAD_SHAPE,
    NOT_OPEN,
    ROW_NOT_SUBSTOCHASTIC,
    TIE_PROBABILITY_POSITIVE,
    _can_win,
)

from helpers import (
    decimal_closed_network,
    law_token,
    min_probability,
    random_exponential_network,
    random_general_network,
)


def single_node(component, loop=0.0, rate=1.0):
    return NetworkSpec(
        nodes=(NodeSpec(components=(component,), routing=((loop,),)),),
        arrival_rates=(rate,))


@pytest.mark.parametrize("bad", [
    lambda: Exponential(0.0),
    lambda: Exponential(-1.0),
    lambda: Exponential(float("nan")),
    lambda: Deterministic(0.0),
    lambda: Deterministic(-2.0),
    lambda: Uniform(-0.5, 1.0),
    lambda: Uniform(1.0, 1.0),
    lambda: Uniform(2.0, 1.0),
    lambda: Weibull(0.0, 1.0),
    lambda: Weibull(1.0, -1.0),
])
def test_distribution_parameter_bounds(bad):
    with pytest.raises(ValueError):
        bad()


def test_distribution_values_coerced_to_float():
    d = Exponential(2)
    assert isinstance(d.rate, float)
    u = Uniform(0, 2)
    assert (u.lo, u.hi) == (0.0, 2.0)


@pytest.mark.parametrize("law", [
    Exponential(2.5), Deterministic(1.5), Uniform(0.5, 2.0),
    Weibull(0.7, 1.3), Weibull(2.0, 0.5), Weibull(0.005, 1.0), Infinite(),
], ids=repr)
def test_law_contract(law):
    """Each law's token, inverse transform, tail time and support agree
    with its survival function."""
    assert _parse_distribution("network", "node1.components",
                               law_token(law)) == law
    lo, hi = law.support()
    shift, span, scale, power = law.sampling_row()

    def inverse(u):
        return shift + span * u + scale * (-np.log1p(-u)) ** power

    if lo < hi:  # atomless
        for u in (0.1, 0.5, 0.9):
            assert abs(law.survival(float(inverse(u))) - (1.0 - u)) <= 1e-12
    tail = law.tail_time(1e-16)
    if lo == math.inf:
        assert tail == math.inf
    else:
        assert law.survival(tail) <= 1e-16 * (1.0 + 1e-12)
    samples = inverse(np.random.default_rng(11).random(1000))
    assert ((lo <= samples) & (samples <= hi)).all()


def test_example_network_shape():
    spec = two_node_deadline_example()
    assert spec.n_nodes == 2
    assert spec.n_components == 2
    assert spec.arrival_rates == (1.0, 0.0)
    assert spec.nodes[0].components == (Exponential(1.0), Deterministic(1.0))
    # task completion at stage 1 forwards, missed deadlines restart
    assert spec.nodes[0].routing == ((0.0, 1.0), (1.0, 0.0))
    assert spec.nodes[1].routing == ((0.0, 0.0), (1.0, 0.0))
    assert validate(spec) == []


def test_no_arrivals_is_valid():
    spec = NetworkSpec(
        nodes=two_node_deadline_example().nodes, arrival_rates=(0.0, 0.0))
    assert validate(spec) == []


def kinds(report):
    return [v.kind for v in report]


def test_bad_arrival_rates_reported():
    spec = NetworkSpec(nodes=two_node_deadline_example().nodes,
                       arrival_rates=(-1.0, float("inf")))
    assert kinds(structural_violations(spec)) == [BAD_ARRIVAL_RATE] * 2


def test_arrival_rate_count_mismatch():
    spec = NetworkSpec(nodes=two_node_deadline_example().nodes,
                       arrival_rates=(1.0,))
    assert BAD_SHAPE in kinds(structural_violations(spec))


def test_component_count_mismatch():
    base = two_node_deadline_example()
    lopsided = NodeSpec(components=(Exponential(1.0),),
                        routing=((0.0, 0.0),))
    spec = NetworkSpec(nodes=(base.nodes[0], lopsided),
                       arrival_rates=(1.0, 0.0))
    assert BAD_SHAPE in kinds(structural_violations(spec))


def test_routing_row_length_mismatch():
    node = NodeSpec(components=(Exponential(1.0),), routing=((0.2, 0.3),))
    spec = NetworkSpec(nodes=(node,), arrival_rates=(1.0,))
    assert kinds(structural_violations(spec)) == [BAD_SHAPE]


@pytest.mark.parametrize("nodes, where, message", [
    ((), "network", "network has no nodes"),
    ((NodeSpec(components=(), routing=()),), "node 1", "node has no components"),
    ((NodeSpec(components=(Exponential(1.0),), routing=((0.0,), (0.0,))),),
     "node 1", "expected 1 routing rows, got 2"),
], ids=["no nodes", "no components", "routing rows"])
def test_shape_violations_are_located(nodes, where, message):
    spec = NetworkSpec(nodes=nodes, arrival_rates=(1.0,) * len(nodes))
    assert validate(spec) == [Violation(BAD_SHAPE, where, message)]


def test_negative_routing_probability():
    spec = single_node(Exponential(1.0), loop=-0.2)
    assert kinds(structural_violations(spec)) == [ROW_NOT_SUBSTOCHASTIC]


@pytest.mark.parametrize("loop", [math.nan, math.inf, -math.inf])
def test_non_finite_routing_probability(loop):
    report = structural_violations(single_node(Exponential(1.0), loop=loop))
    assert kinds(report) == [ROW_NOT_SUBSTOCHASTIC]
    assert report[0].where == "node 1 component 1"
    assert "finite" in report[0].message


def test_routing_row_exceeding_one():
    spec = single_node(Exponential(1.0), loop=1.2)
    assert kinds(structural_violations(spec)) == [ROW_NOT_SUBSTOCHASTIC]


def test_all_infinite_node_rejected():
    node = NodeSpec(components=(Infinite(), Infinite()),
                    routing=((0.0,), (0.0,)))
    spec = NetworkSpec(nodes=(node,), arrival_rates=(1.0,))
    assert kinds(structural_violations(spec)) == [ALL_COMPONENTS_INFINITE]


def test_duplicate_deterministic_values_rejected():
    node = NodeSpec(components=(Deterministic(1.0), Deterministic(1.0)),
                    routing=((0.0,), (0.0,)))
    spec = NetworkSpec(nodes=(node,), arrival_rates=(1.0,))
    assert kinds(structural_violations(spec)) == [TIE_PROBABILITY_POSITIVE]


def test_distinct_deterministic_values_allowed():
    node = NodeSpec(components=(Deterministic(1.0), Deterministic(2.0)),
                    routing=((0.0,), (0.0,)))
    spec = NetworkSpec(nodes=(node,), arrival_rates=(1.0,))
    assert structural_violations(spec) == []


def test_self_loop_network_not_open():
    spec = single_node(Exponential(1.0), loop=1.0)
    report = validate(spec)
    assert kinds(report) == [NOT_OPEN]


def test_validate_reports_not_open_once_per_call():
    # the structural report is kept on the spec; validate must not add its
    # openness violation to the kept one
    spec = single_node(Exponential(1.0), loop=1.0)
    for _ in range(2):
        assert kinds(validate(spec)) == [NOT_OPEN]
    assert structural_violations(spec) == []


def test_two_node_cycle_not_open():
    node_a = NodeSpec(components=(Exponential(1.0),), routing=((0.0, 1.0),))
    node_b = NodeSpec(components=(Exponential(2.0),), routing=((1.0, 0.0),))
    spec = NetworkSpec(nodes=(node_a, node_b), arrival_rates=(1.0, 0.0))
    assert kinds(validate(spec)) == [NOT_OPEN]


def test_not_open_names_the_trapped_nodes():
    # node 1 leaks; its second component feeds node 3, whose only
    # component routes back to node 3: customers of node 3, and the share
    # of node 1 that reaches it, never leave. Node 2 is not involved.
    node1 = NodeSpec(components=(Exponential(1.0), Exponential(2.0)),
                     routing=((0.0, 0.5, 0.0), (0.0, 0.0, 1.0)))
    node2 = NodeSpec(components=(Exponential(1.0), Infinite()),
                     routing=((0.0, 0.0, 0.0), (0.0, 0.0, 0.0)))
    node3 = NodeSpec(components=(Exponential(1.0), Infinite()),
                     routing=((0.0, 0.0, 1.0), (0.0, 0.0, 0.0)))
    spec = NetworkSpec(nodes=(node1, node2, node3),
                       arrival_rates=(1.0, 1.0, 0.0))
    [violation] = validate(spec)
    assert violation.kind == NOT_OPEN
    assert violation.where == "nodes 1, 3"
    loop = single_node(Exponential(1.0), loop=1.0)
    assert [v.where for v in validate(loop)] == ["node 1"]


def test_row_that_misses_1_by_rounding_does_not_leak():
    spec = decimal_closed_network()
    assert sum(spec.nodes[0].routing[0]) < 1.0
    [violation] = validate(spec)
    assert violation.kind == NOT_OPEN
    assert violation.where == "nodes 1, 2, 3"


@pytest.mark.parametrize("components", [
    (Deterministic(1.0), Deterministic(2.0)),
    (Deterministic(1.0), Uniform(1.0, 2.0)),
])
def test_closed_row_of_a_component_that_never_wins_is_open(components):
    # the second component's routing row is closed (back to the node with
    # probability 1), but its support starts where the first one's ends,
    # so no customer ever follows it
    assert _can_win(NodeSpec(components=components,
                             routing=((0.0,), (0.0,)))) == (True, False)
    node = NodeSpec(components=components, routing=((0.0,), (1.0,)))
    spec = NetworkSpec(nodes=(node,), arrival_rates=(1.0,))
    assert validate(spec) == []
    flipped = NodeSpec(components=components, routing=((1.0,), (0.0,)))
    assert [v.kind for v in validate(
        NetworkSpec(nodes=(flipped,), arrival_rates=(1.0,)))] == [NOT_OPEN]


def test_can_win_matches_nonzero_achievement_probability():
    # compute_min_stats reports p < 1e-12 as exactly 0, so a component the
    # supports say can win may show p = 0: its true probability must then
    # be positive and below that floor. The first node is such a case.
    floored = (Weibull(2.3481003522613477, 0.4305533485873014),
               Uniform(0.23753026811089173, 1.9637721391794085),
               Deterministic(1.7541319546826253))
    races = [floored]
    rng = np.random.default_rng(31)
    for _ in range(60):
        races.extend(node.components for node in random_general_network(rng).nodes)
    seen_floored = 0
    for comps in races:
        node = NodeSpec(components=comps, routing=((0.0,),) * len(comps))
        mask = np.array(_can_win(node))
        p = compute_min_stats(NetworkSpec(nodes=(node,), arrival_rates=(1.0,))).p[0]
        below_floor = mask & (p == 0)
        np.testing.assert_array_equal(mask & ~below_floor, p > 0, err_msg=str(comps))
        for k in np.flatnonzero(below_floor):
            assert 0 < min_probability(comps, k) < 1e-12, comps
            seen_floored += 1
    assert seen_floored >= 1


def test_can_win_never_for_infinite():
    node = NodeSpec(components=(Infinite(), Deterministic(3.0), Exponential(1.0)),
                    routing=((0.0,),) * 3)
    assert _can_win(node) == (False, True, True)


def test_validate_runs_no_quadrature_or_solve(monkeypatch):
    import deadlinenet.analytic
    import deadlinenet.distributions

    def fail(*args, **kwargs):
        raise AssertionError("validate must not call the solver stack")

    monkeypatch.setattr(deadlinenet.distributions, "compute_min_stats", fail)
    monkeypatch.setattr(deadlinenet.analytic, "_solve_open", fail)
    assert validate(two_node_deadline_example()) == []
    assert kinds(validate(single_node(Exponential(1.0), loop=1.0))) == [NOT_OPEN]


def test_validate_stops_at_structural_problems():
    # a structurally broken spec never reaches the openness probe
    spec = single_node(Exponential(1.0), loop=1.5)
    assert kinds(validate(spec)) == [ROW_NOT_SUBSTOCHASTIC]


def test_violation_string_form():
    v = Violation(ROW_NOT_SUBSTOCHASTIC, "node 2 component 1", "sums to 1.2")
    assert str(v) == "[row not substochastic] node 2 component 1: sums to 1.2"


def test_random_networks_validate():
    rng = np.random.default_rng(7)
    for _ in range(10):
        spec = random_exponential_network(rng)
        assert validate(spec) == []


def test_specs_are_hashable_and_comparable():
    assert two_node_deadline_example() == two_node_deadline_example()
    assert hash(two_node_deadline_example()) == hash(two_node_deadline_example())


def test_route_tensor_built_once_and_read_only():
    spec = two_node_deadline_example()
    routes = spec.route_tensor
    assert routes is spec.route_tensor
    np.testing.assert_array_equal(
        routes, [[[0.0, 1.0], [1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]])
    with pytest.raises(ValueError):
        routes[0, 0, 0] = 0.5
    assert spec == two_node_deadline_example()


def test_ragged_routing_reported_before_the_tensor_is_built():
    first, second = two_node_deadline_example().nodes
    node = NodeSpec(components=first.components, routing=((0.0, 1.0), (1.0,)))
    ragged = NetworkSpec(nodes=(node, second), arrival_rates=(1.0, 0.0))
    assert kinds(validate(ragged)) == [BAD_SHAPE]
    assert "route_tensor" not in vars(ragged)
