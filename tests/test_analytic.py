import copy
import math
import pickle
from dataclasses import fields, replace

import numpy as np
import pytest

from deadlinenet import (
    Exponential,
    Infinite,
    InfiniteMeanError,
    InvalidNetworkError,
    NetworkSpec,
    NodeSpec,
    OpennessError,
    ProductForm,
    Uniform,
    baseline_full_insensitivity,
    baseline_service_time_insensitivity,
    compute_min_stats,
    product_form,
    solve_expanded,
    structural_violations,
    two_node_deadline_example,
)
from deadlinenet.analytic import _solve_open

from helpers import (
    conditional_sampler,
    count_calls,
    decimal_closed_network,
    joint_pmf,
    loop_expansion,
    loop_traffic,
    poisson_pmf,
    random_exponential_network,
    random_general_network,
)

E_INV = math.exp(-1.0)

# closed forms for the two-stage deadline example, hand-derived:
# with q = 1 - e^{-1}, the stage-1 inflow solves A1 = 1/q^2 and stage-2
# inflow A2 = 1/q; occupancies come out to rho = (1/q, 1).
Q = 1.0 - E_INV
ALPHA = np.array([[1.0 / Q, E_INV / Q**2],
                  [Q / Q, E_INV / Q]])
RHO = np.array([1.0 / Q, 1.0])


def test_traffic_solution_closed_form():
    sol = product_form(two_node_deadline_example())
    np.testing.assert_allclose(sol.alpha, ALPHA, atol=1e-12)
    np.testing.assert_allclose(
        sol.alpha,
        [[1.5819767068693264, 0.92067359420779232],
         [1.0, 0.58197670686932642]], atol=1e-12)
    assert sol.residual <= 1e-10
    np.testing.assert_allclose(
        sol.flows, [2.5026503010771187, 1.5819767068693264], atol=1e-12)


def test_traffic_flows_vanish_for_never_achieving_components():
    node = NodeSpec(components=(Exponential(1.0), Infinite()),
                    routing=((0.0,), (0.0,)))
    spec = NetworkSpec(nodes=(node,), arrival_rates=(2.0,))
    sol = product_form(spec)
    np.testing.assert_allclose(sol.alpha, [[2.0, 0.0]], atol=1e-12)


def test_product_form_example():
    pf = product_form(two_node_deadline_example())
    np.testing.assert_allclose(pf.rho, RHO, atol=1e-12)
    np.testing.assert_allclose(
        pf.rho, [1.5819767068693264, 1.0], atol=1e-12)


def test_product_form_single_node_means():
    # one infinite-server node: occupancy mean = arrival rate x mean service
    for dist, mean_s in [(Exponential(2.0), 0.5), (Uniform(1.0, 3.0), 2.0)]:
        node = NodeSpec(components=(dist,), routing=((0.0,),))
        spec = NetworkSpec(nodes=(node,), arrival_rates=(0.7,))
        pf = product_form(spec)
        assert pf.rho[0] == pytest.approx(0.7 * mean_s, abs=1e-12)


def test_no_arrivals_means_empty_network():
    spec = NetworkSpec(nodes=two_node_deadline_example().nodes,
                       arrival_rates=(0.0, 0.0))
    pf = product_form(spec)
    np.testing.assert_allclose(pf.rho, [0.0, 0.0], atol=0.0)
    assert pf.marginal_pmf(0, 0)[0] == 1.0


def test_marginals_are_poisson():
    pf = product_form(two_node_deadline_example())
    rho = pf.rho[0]
    assert pf.marginal_pmf(0, 0)[0] == pytest.approx(math.exp(-rho), rel=1e-12)
    assert pf.marginal_pmf(0, 2)[2] == pytest.approx(
        math.exp(-rho) * rho**2 / 2.0, rel=1e-12)
    pmf = pf.marginal_pmf(0)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
    assert pmf.size == pf.truncation(0) + 1


@pytest.mark.parametrize("rho", [1e-6, 1e-3, 0.37, 1.0, 7.5, 40.0])
def test_marginal_pmf_matches_closed_form(rho):
    pf = ProductForm(rho=np.array([rho]), alpha=np.array([[rho]]),
                     flows=np.array([rho]), residual=0.0)
    pmf = pf.marginal_pmf(0)
    reference = np.array([poisson_pmf(x, rho) for x in range(pmf.size)])
    np.testing.assert_allclose(pmf, reference, rtol=1e-12, atol=0.0)


def test_truncation_rule():
    pf = product_form(two_node_deadline_example())
    assert pf.truncation(0) == 47
    assert pf.truncation(1) == 43


def test_joint_is_product_of_marginals():
    pf = product_form(two_node_deadline_example())
    for state in [(0, 0), (1, 2), (3, 1), (5, 5)]:
        expected = (pf.marginal_pmf(0, state[0])[state[0]]
                    * pf.marginal_pmf(1, state[1])[state[1]])
        assert joint_pmf(pf, state) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError):
        joint_pmf(pf, (1, 2, 3))


def test_closed_network_raises_openness_error():
    node = NodeSpec(components=(Exponential(1.0),), routing=((1.0,),))
    spec = NetworkSpec(nodes=(node,), arrival_rates=(1.0,))
    with pytest.raises(OpennessError):
        product_form(spec)


def _reference_networks():
    rng = np.random.default_rng(5)
    return ([two_node_deadline_example()]
            + [random_general_network(rng, max_nodes=5) for _ in range(8)]
            + [random_exponential_network(rng) for _ in range(4)])


def test_vectorised_assembly_equals_loop_reference():
    # the node-level solve and the (NK) x (NK) loop reference round
    # differently, so their flows agree normwise to 1e-12; every entry of
    # the expansion is the same single product as in its loop assembly, so
    # those agree bit for bit
    for spec in _reference_networks():
        stats = compute_min_stats(spec)
        alpha = product_form(spec).alpha
        reference = loop_traffic(spec, stats)
        assert (np.abs(alpha - reference).max()
                <= 1e-12 * np.abs(reference).max())
        routing, external = loop_expansion(spec, stats)
        expanded = solve_expanded(spec)
        assert np.array_equal(expanded.routing, routing)
        assert np.array_equal(expanded.external_rates, external)


def test_exact_answers_are_kept_on_the_spec_read_only():
    from deadlinenet.stats import _exact_side

    spec = two_node_deadline_example()
    pf = product_form(spec)
    stats = compute_min_stats(spec)
    full = baseline_full_insensitivity(spec)
    svc = baseline_service_time_insensitivity(spec)
    side = _exact_side(spec)
    kept_pf, full_rho, svc_rho, pmfs = side
    assert product_form(spec) is pf
    assert compute_min_stats(spec) is stats
    assert _exact_side(spec) is side
    assert kept_pf is pf
    # the baselines are plain functions: each call answers afresh, equally
    for solve, first, kept in ((baseline_full_insensitivity, full, full_rho),
                               (baseline_service_time_insensitivity, svc,
                                svc_rho)):
        again = solve(spec)
        assert again is not first and again.rho is not first.rho
        assert again.rho is not kept
        assert np.array_equal(again.rho, first.rho)
        assert np.array_equal(kept, first.rho)
    assert [pmf.tolist() for pmf in pmfs] == [
        pf.marginal_pmf(n).tolist() for n in range(spec.n_nodes)]
    assert [field.name for field in fields(pf)] == [
        "rho", "alpha", "flows", "residual"]
    for array in (pf.rho, pf.alpha, pf.flows,
                  stats.p, stats.cond_mean, stats.mean_min, svc.node_flows,
                  full_rho, svc_rho, *pmfs):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
    with pytest.raises(AttributeError):
        full.rho = full.rho.copy()
    np.testing.assert_allclose(pf.rho, RHO, atol=1e-12)
    # a copy or an unpickled spec carries no record: it solves afresh, into
    # read-only arrays
    for twin in (copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
        assert twin == spec
        assert product_form(twin) is not pf
        assert np.array_equal(product_form(twin).rho, pf.rho)
        assert not product_form(twin).rho.flags.writeable
        assert not twin.route_tensor.flags.writeable
        twin_side = _exact_side(twin)
        assert twin_side is not side
        assert twin_side[0] is product_form(twin)
        for kept, twin_kept in zip((full_rho, svc_rho, *pmfs),
                                   (*twin_side[1:3], *twin_side[3])):
            assert twin_kept is not kept
            assert np.array_equal(twin_kept, kept)
            assert not twin_kept.flags.writeable


def test_each_spec_object_gets_its_own_answer():
    spec = two_node_deadline_example()
    rho = product_form(spec).rho
    doubled = replace(spec, arrival_rates=[2 * lam for lam in spec.arrival_rates])
    assert np.array_equal(product_form(doubled).rho, 2 * rho)
    # an equal spec is a new object with its own answer: nothing is hashed
    twin = replace(spec)
    assert twin == spec
    assert product_form(twin) is not product_form(spec)
    assert np.array_equal(product_form(twin).rho, rho)


def test_a_failed_solve_is_not_kept(monkeypatch):
    import deadlinenet.analytic

    calls = count_calls(monkeypatch, deadlinenet.analytic, "_product_form")
    node = NodeSpec(components=(Exponential(1.0),), routing=((1.0,),))
    spec = NetworkSpec(nodes=(node,), arrival_rates=(1.0,))
    for _ in range(2):
        with pytest.raises(OpennessError):
            product_form(spec)
    assert len(calls) == 2


@pytest.mark.parametrize("c", [1e-6, 1e3, 1e7, 1e9])
def test_rho_scales_linearly_with_arrivals(c):
    for spec in _reference_networks():
        scaled = NetworkSpec(nodes=spec.nodes,
                             arrival_rates=[c * lam for lam in spec.arrival_rates])
        np.testing.assert_allclose(product_form(scaled).rho,
                                   c * product_form(spec).rho, rtol=1e-9, atol=0.0)


def _raises_not_open(spec):
    """Every solver rejects ``spec`` as not open."""
    for solve in (product_form, solve_expanded, baseline_full_insensitivity,
                  baseline_service_time_insensitivity):
        with pytest.raises(OpennessError, match="not open"):
            solve(spec)


def test_closed_networks_raise_even_when_rounding_hides_it():
    # every routing row sums to exactly 1, but the achievement split of two
    # exponentials makes the elimination inexact, so the computed matrix is
    # often not exactly singular and its flows are huge yet can leave a
    # zero residual; every solver rejects these networks by reachability
    # on the routing graph before it solves
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        nodes = []
        for _ in range(n):
            rows = []
            for _ in range(2):
                row = [0.0] * n
                for target in rng.integers(0, n, 2):
                    row[target] += 0.5
                rows.append(tuple(row))
            comps = tuple(Exponential(float(rng.uniform(0.4, 3.0))) for _ in range(2))
            nodes.append(NodeSpec(components=comps, routing=tuple(rows)))
        _raises_not_open(NetworkSpec(nodes=tuple(nodes),
                                     arrival_rates=(1.0,) + (0.0,) * (n - 1)))


def test_every_solver_rejects_a_network_closed_up_to_rounding():
    # rows of (0.7, 0.2, 0.1) sum to 1 - 1.1e-16: the systems are within
    # rounding of singular, so no flow they yield can be trusted
    _raises_not_open(decimal_closed_network())


def _one_exponential(routing, arrival_rates):
    node = NodeSpec(components=(Exponential(1.0),), routing=routing)
    return NetworkSpec(nodes=(node,), arrival_rates=arrival_rates)


@pytest.mark.parametrize("spec", [
    _one_exponential(((-0.5,),), (1.0,)),
    NetworkSpec(nodes=(), arrival_rates=()),
    NetworkSpec(nodes=(NodeSpec(components=(Exponential(1.0),),
                                routing=((0.5,),)),
                       NodeSpec(components=(Exponential(1.0),),
                                routing=((0.0, 0.0),))),
                arrival_rates=(1.0, 0.0)),
    _one_exponential(((0.0,),), (1.0, 1.0)),
], ids=["negative-route", "no-nodes", "ragged-row", "two-arrival-rates"])
def test_every_exact_entry_point_rejects_an_invalid_spec(spec):
    report = structural_violations(spec)
    assert report
    for solve in (compute_min_stats, product_form, solve_expanded,
                  baseline_full_insensitivity,
                  baseline_service_time_insensitivity):
        with pytest.raises(InvalidNetworkError) as info:
            solve(spec)
        assert info.value.report == report, solve


@pytest.mark.parametrize("A, b, message", [
    ([[0.0]], [1.0], "singular system"),
    ([[1.0]], [-1.0], "negative flow -1.000e+00 at index 0 "),
], ids=["singular", "negative-flow"])
def test_solve_open_rejects_a_degenerate_system(A, b, message):
    # an open 1 x 1 route tensor, so the trapped-node check passes first
    routes = np.zeros((1, 1, 1))
    with pytest.raises(OpennessError) as info:
        _solve_open(np.array(A), np.array(b), "test system", routes,
                    np.ones((1, 1), dtype=bool))
    assert str(info.value).startswith(f"test system: {message}")


def test_nearly_closed_network_still_solves():
    node = NodeSpec(components=(Exponential(1.0),), routing=((0.999,),))
    spec = NetworkSpec(nodes=(node,), arrival_rates=(1.0,))
    sol = product_form(spec)
    assert sol.alpha[0, 0] == pytest.approx(1000.0, rel=1e-9)


# --- expanded Markovian-equivalent network ----------------------------------

def test_expanded_network_structure():
    spec = two_node_deadline_example()
    expanded = solve_expanded(spec)
    np.testing.assert_allclose(expanded.external_rates, [Q, E_INV, 0.0, 0.0],
                               atol=1e-12)
    # stage-1 task completion forwards to stage 2, split by achievement
    np.testing.assert_allclose(expanded.routing[0], [0, 0, Q, E_INV],
                               atol=1e-12)
    # stage-1 deadline restarts stage 1
    np.testing.assert_allclose(expanded.routing[1], [Q, E_INV, 0, 0],
                               atol=1e-12)
    # stage-2 task completion leaves the system
    np.testing.assert_allclose(expanded.routing[2], [0, 0, 0, 0], atol=0.0)
    # stage-2 deadline restarts stage 1
    np.testing.assert_allclose(expanded.routing[3], [Q, E_INV, 0, 0],
                               atol=1e-12)
    np.testing.assert_allclose(
        compute_min_stats(spec).cond_mean.ravel(),
        [0.41802329313067358, 1.0] * 2, atol=1e-12)


def test_expanded_flows_match_traffic_solution():
    spec = two_node_deadline_example()
    direct = product_form(spec)
    sol = solve_expanded(spec)
    np.testing.assert_allclose(sol.alpha.reshape(2, 2), direct.alpha,
                               atol=1e-12)
    assert sol.residual <= 1e-10


def test_supernode_aggregation_matches_product_form():
    spec = two_node_deadline_example()
    pf = product_form(spec)
    sol = solve_expanded(spec)
    np.testing.assert_allclose(sol.supernode_rho, pf.rho, atol=1e-12)


def test_expansion_equivalence_on_random_networks():
    rng = np.random.default_rng(2024)
    for _ in range(5):
        spec = random_general_network(rng)
        pf = product_form(spec)
        sol = solve_expanded(spec)
        np.testing.assert_allclose(sol.supernode_rho, pf.rho, atol=1e-11)


def test_conditional_sampler_matches_conditional_mean():
    spec = two_node_deadline_example()
    rng = np.random.default_rng(99)
    draw = conditional_sampler(spec, 0, 0)
    samples = np.array([draw(rng) for _ in range(20_000)])
    se = samples.std(ddof=1) / math.sqrt(samples.size)
    assert abs(samples.mean() - 0.41802329313067358) < 4 * se
    assert samples.max() < 1.0  # the winner beat a unit deadline
    # the deadline side always returns exactly the deadline
    deadline_draw = conditional_sampler(spec, 0, 1)
    assert {deadline_draw(rng) for _ in range(50)} == {1.0}


def test_conditional_sampler_rejects_never_achieving_component():
    node = NodeSpec(components=(Exponential(1.0), Infinite()),
                    routing=((0.0,), (0.0,)))
    spec = NetworkSpec(nodes=(node,), arrival_rates=(1.0,))
    with pytest.raises(ValueError):
        conditional_sampler(spec, 0, 1)


# --- naive single-rate approximations ---------------------------------------

def test_baseline_values_for_example():
    spec = two_node_deadline_example()
    full = baseline_full_insensitivity(spec)
    np.testing.assert_allclose(full.rho, [2.0, 1.0], atol=1e-12)
    assert full.method == "full_insensitivity"
    np.testing.assert_allclose(full.rates_used, [2.0, 2.0], atol=1e-12)

    svc = baseline_service_time_insensitivity(spec)
    np.testing.assert_allclose(
        svc.rho, [1.2513251505385594, 0.79098835343466321], atol=1e-12)
    assert svc.method == "service_time_insensitivity"
    # same service rates as the full version; only the routing mix differs
    np.testing.assert_allclose(svc.rates_used, full.rates_used, atol=0.0)


def test_baselines_disagree_with_exact_for_example():
    # the whole point: mean-only reasoning misses the true occupancies
    spec = two_node_deadline_example()
    pf = product_form(spec)
    assert abs(baseline_full_insensitivity(spec).rho[0] - pf.rho[0]) > 0.4
    assert abs(baseline_service_time_insensitivity(spec).rho[0]
               - pf.rho[0]) > 0.3


def test_baselines_reject_infinite_components():
    node = NodeSpec(components=(Exponential(1.0), Infinite()),
                    routing=((0.0,), (0.0,)))
    spec = NetworkSpec(nodes=(node,), arrival_rates=(1.0,))
    with pytest.raises(InfiniteMeanError):
        baseline_full_insensitivity(spec)
    with pytest.raises(InfiniteMeanError):
        baseline_service_time_insensitivity(spec)


def test_all_exponential_collapse():
    # with exponential components everything is insensitive: the exact
    # solution and both approximations coincide
    rng = np.random.default_rng(11)
    for _ in range(5):
        spec = random_exponential_network(rng)
        exact = product_form(spec).rho
        np.testing.assert_allclose(
            baseline_full_insensitivity(spec).rho, exact, atol=1e-11)
        np.testing.assert_allclose(
            baseline_service_time_insensitivity(spec).rho, exact, atol=1e-11)
