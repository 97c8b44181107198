import dataclasses
import itertools
import math

import numpy as np
import pytest

from deadlinenet import (
    EventCounts,
    Exponential,
    Infinite,
    NetworkSpec,
    NodeSpec,
    SimConfig,
    SimResult,
    baseline_full_insensitivity,
    baseline_service_time_insensitivity,
    compare,
    empirical_marginal,
    product_form,
    product_form_deviation,
    simulate,
    total_variation,
    two_node_deadline_example,
)

from helpers import (
    box_scan_deviation,
    candidate_scan_deviation,
    count_calls,
    mixed_network,
    poisson_pmf,
    random_exponential_network,
    union_total_variation,
)


def fake_result(marginals, joint, duration, n_nodes=2):
    """A SimResult with the given marginal weights and, unless None, the
    joint weights of a {state: weight} dict, as the simulator's arrays."""
    zeros = np.zeros(n_nodes, dtype=np.int64)
    counts = EventCounts(external=zeros.copy(), arrivals=zeros.copy(),
                         departures=np.zeros((n_nodes, 1), dtype=np.int64))
    means = np.array([
        sum(x * w for x, w in m.items()) / duration for m in marginals
    ])
    states = weights = None
    if joint is not None:
        items = sorted(joint.items())
        states = np.array([state for state, _ in items],
                          dtype=np.int64).reshape(len(items), n_nodes)
        weights = np.array([w for _, w in items])
    return SimResult(
        marginal_weights=tuple(marginals), joint_states=states,
        joint_weights=weights, means=means,
        event_counts=counts, effective_duration=duration,
        final_occupancy=(0,) * n_nodes, ties=0,
        config=SimConfig(seed=0, horizon=duration, warmup=0.0))


@pytest.fixture(scope="module")
def example_run():
    return simulate(two_node_deadline_example(),
                    SimConfig(seed=8, horizon=4_000.0, warmup=400.0))


# --- empirical marginals ----------------------------------------------------

def test_empirical_marginal_normalization():
    res = fake_result([{0: 75.0, 1: 25.0}, {0: 100.0}], None, 100.0)
    assert empirical_marginal(res, 0).tolist() == [0.75, 0.25]
    assert empirical_marginal(res, 1).tolist() == [1.0]
    # dense from 0: unvisited occupancies read 0
    res = fake_result([{1: 60.0, 3: 40.0}, {0: 100.0}], None, 100.0)
    assert empirical_marginal(res, 0).tolist() == [0.0, 0.6, 0.0, 0.4]


def test_empirical_marginal_sums_to_one(example_run):
    for n in range(2):
        pmf = empirical_marginal(example_run, n)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-9)


def test_empirical_marginal_requires_positive_duration():
    res = fake_result([{0: 0.0}, {0: 0.0}], None, 100.0)
    res.effective_duration = 0.0
    with pytest.raises(ValueError):
        empirical_marginal(res, 0)


# --- total variation --------------------------------------------------------

def test_total_variation_identical_is_zero():
    p = np.array([0.4, 0.6])
    assert total_variation(p, p.copy()) == 0.0


def test_total_variation_disjoint_point_masses():
    assert total_variation(np.array([1.0]), np.array([0.0, 1.0])) == 1.0


def test_total_variation_poisson_pair():
    # direct-summation value for Poisson(1) vs Poisson(1.1), frozen
    p = np.array([poisson_pmf(x, 1.0) for x in range(45)])
    q = np.array([poisson_pmf(x, 1.1) for x in range(45)])
    assert total_variation(p, q) == pytest.approx(0.03672960657691758,
                                                  abs=1e-12)


def test_total_variation_accepts_arrays():
    assert total_variation([0.5, 0.5], np.array([0.5, 0.5])) == 0.0
    assert total_variation(np.array([1.0]), [0.0, 1.0]) == 1.0


def test_total_variation_of_unequal_lengths():
    # the shorter pmf is zero past its end, whichever argument it is
    p = np.array([0.5, 0.5])
    q = np.array([0.5, 0.25, 0.25])
    assert total_variation(p, q) == 0.25
    assert total_variation(q, p) == 0.25
    assert total_variation(p, np.array([0.5, 0.5, 0.0, 0.0])) == 0.0
    # inputs are read, not padded in place
    assert p.tolist() == [0.5, 0.5] and q.tolist() == [0.5, 0.25, 0.25]


def test_total_variation_symmetry_and_triangle():
    rng = np.random.default_rng(13)
    for _ in range(25):
        size = int(rng.integers(2, 8))
        p, q, r = (rng.dirichlet(np.ones(size)) for _ in range(3))
        d_pq = total_variation(p, q)
        assert d_pq == total_variation(q, p)
        assert 0.0 <= d_pq <= 1.0
        assert d_pq <= total_variation(p, r) + total_variation(r, q) + 1e-15


@pytest.mark.parametrize("seed", [1, 3, 11])
def test_total_variation_equals_union_sum_on_seeded_runs(seed):
    # bit for bit the sum over the union of the supports, in occupancy
    # order, of the empirical and the exact Poisson pmf
    mixed = mixed_network(np.random.default_rng(seed), 8, 3, max_total=0.5,
                          rate_range=(0.05, 0.25))
    for spec in (two_node_deadline_example(), mixed):
        res = simulate(spec, SimConfig(seed=seed, horizon=2_000.0,
                                       warmup=100.0, record_joint=False))
        pf = product_form(spec)
        for n in range(spec.n_nodes):
            empirical = {x: w / res.effective_duration
                         for x, w in res.marginal_weights[n].items()}
            exact = pf.marginal_pmf(n)
            assert total_variation(empirical_marginal(res, n), exact) == (
                union_total_variation(empirical,
                                      dict(enumerate(exact.tolist()))))


# --- joint-vs-product deviation ---------------------------------------------

def test_deviation_zero_for_exact_product():
    w1 = {0: 60.0, 1: 30.0, 2: 10.0}
    w2 = {0: 80.0, 1: 20.0}
    duration = 100.0
    joint = {(x, y): w1[x] * w2[y] / duration for x in w1 for y in w2}
    res = fake_result([w1, w2], joint, duration)
    assert product_form_deviation(res) < 1e-12


def test_deviation_requires_joint():
    res = fake_result([{0: 1.0}, {0: 1.0}], None, 1.0)
    with pytest.raises(ValueError):
        product_form_deviation(res)


def test_deviation_detects_dependence():
    # all mass on (0,0) and (1,1): marginals are uniform, product is 1/4
    joint = {(0, 0): 50.0, (1, 1): 50.0}
    res = fake_result([{0: 50.0, 1: 50.0}, {0: 50.0, 1: 50.0}], joint, 100.0)
    assert product_form_deviation(res) == pytest.approx(0.25)


def test_deviation_invariant_under_node_permutation(example_run):
    value = product_form_deviation(example_run)
    flipped = fake_result(
        [example_run.marginal_weights[1], example_run.marginal_weights[0]],
        {(y, x): w for (x, y), w in zip(example_run.joint_states.tolist(),
                                        example_run.joint_weights.tolist())},
        example_run.effective_duration)
    assert product_form_deviation(flipped) == value


def test_deviation_small_for_independent_nodes():
    # two infinite-server nodes with no transfer between them: the joint
    # law is a product by construction, so the deviation is pure noise
    node = NodeSpec(components=(Exponential(1.0),), routing=((0.0, 0.0),))
    spec = NetworkSpec(nodes=(node, node), arrival_rates=(1.0, 1.0))
    res = simulate(spec, SimConfig(seed=17, horizon=100_000.0, warmup=1_000.0))
    assert product_form_deviation(res) <= 0.005


# --- exact sparse search against the box scan -------------------------------

@pytest.mark.parametrize("seed", [1, 4, 7])
def test_deviation_equals_box_scan_on_mixed_networks(seed):
    spec = mixed_network(np.random.default_rng(seed), 8, 3, max_total=0.5,
                         rate_range=(0.05, 0.25))
    res = simulate(spec, SimConfig(seed=seed, horizon=2_000.0, warmup=100.0))
    assert product_form_deviation(res) == box_scan_deviation(res)


@pytest.mark.parametrize("seed", [1, 3, 11])
def test_deviation_equals_box_scan_on_bundled_scenario(seed):
    res = simulate(two_node_deadline_example(),
                   SimConfig(seed=seed, horizon=5_000.0, warmup=500.0))
    assert product_form_deviation(res) == box_scan_deviation(res)


def test_deviation_equals_box_scan_on_one_node():
    spec = mixed_network(np.random.default_rng(5), 1, 3, rate_range=(1.0, 3.0))
    res = simulate(spec, SimConfig(seed=5, horizon=2_000.0, warmup=100.0))
    assert product_form_deviation(res) == box_scan_deviation(res)


def test_deviation_with_unvisited_occupancy_inside_range():
    # node 1 never holds exactly one customer, so its marginal is zero there
    joint = {(0, 0): 30.0, (0, 2): 10.0, (2, 1): 40.0, (2, 2): 20.0}
    res = fake_result([{0: 40.0, 2: 60.0}, {0: 30.0, 1: 40.0, 2: 30.0}],
                      joint, 100.0)
    value = product_form_deviation(res)
    assert value == box_scan_deviation(res)
    assert value == pytest.approx(0.18)


def test_deviation_with_occupancies_past_one_byte():
    # visited states are searched as rows of big-endian bytes: in
    # little-endian bytes (256, 5) would sort before (1, 0), and the
    # visited all-top cell (256, 5) would be taken as unvisited
    joint = {(1, 0): 20.0, (1, 5): 10.0, (256, 5): 70.0}
    res = fake_result([{1: 30.0, 256: 70.0}, {0: 20.0, 5: 80.0}], joint, 100.0)
    value = product_form_deviation(res)
    assert type(value) is float
    assert value == box_scan_deviation(res)
    assert value == pytest.approx(0.14)


def test_deviation_supremum_outside_visited_states():
    # the largest deviation is at the unvisited cell (2, 1): its product
    # 0.2 * 0.5 is one rank below the visited (0, 1) at node 1, and exceeds
    # every deviation at a visited state (at most 0.06)
    joint = {(0, 0): 10.0, (0, 1): 40.0, (0, 2): 20.0, (1, 1): 10.0,
             (2, 0): 10.0, (2, 2): 10.0}
    res = fake_result([{0: 70.0, 1: 10.0, 2: 20.0},
                       {0: 20.0, 1: 50.0, 2: 30.0}], joint, 100.0)
    value = product_form_deviation(res)
    assert value == box_scan_deviation(res)
    assert value == 0.2 * 0.5
    # with the all-top cell (0, 1) unvisited instead, it is the supremum
    joint[(2, 1)] = joint.pop((0, 1))
    res = fake_result([{0: 30.0, 1: 10.0, 2: 60.0},
                       {0: 20.0, 1: 50.0, 2: 30.0}], joint, 100.0)
    assert product_form_deviation(res) == box_scan_deviation(res)


def test_deviation_supremum_next_to_visited_states_only_in_rank():
    # the supremum is at the unvisited (0, 3), 12/39 * 12/39, against
    # 0.079 at the visited states. Neither (0, 2) nor (-1, 3) is visited,
    # so (0, 3) is next to no visited state in occupancy order; ranked by
    # marginal (2, 0, 1 at node 0 and 1, 3, 2, 4 at node 1) it is one rank
    # below the visited (2, 3)
    joint = {(0, 1): 8.0, (0, 4): 4.0, (1, 1): 2.0, (1, 3): 3.0,
             (1, 4): 1.0, (2, 1): 6.0, (2, 2): 6.0, (2, 3): 9.0}
    res = fake_result([{0: 12.0, 1: 6.0, 2: 21.0},
                       {1: 16.0, 2: 6.0, 3: 12.0, 4: 5.0}], joint, 39.0)
    value = product_form_deviation(res)
    assert value == box_scan_deviation(res)
    assert value == (12.0 / 39.0) * (12.0 / 39.0)


def test_deviation_equals_box_scan_on_sparse_histograms():
    # product-form weights on small boxes with about 30% of the cells left
    # unvisited and some visited with zero time: the supremum often lies
    # outside the visited states
    rng = np.random.default_rng(31)
    outside = 0
    for _ in range(300):
        n_nodes = int(rng.integers(1, 5))
        lo = rng.integers(0, 3, n_nodes)
        hi = lo + rng.integers(0, 4, n_nodes)
        axes = [rng.integers(0, 6, h - l + 1) for l, h in zip(lo, hi)]
        joint = {}
        for state in itertools.product(*map(range, lo, hi + 1)):
            if rng.random() >= 0.3:
                joint[state] = float(math.prod(
                    int(a[x - l]) for a, x, l in zip(axes, state, lo)))
        duration = sum(joint.values())
        if duration == 0:
            continue
        marginals = [{} for _ in range(n_nodes)]
        for state, w in sorted(joint.items()):
            for n, x in enumerate(state):
                if w:
                    marginals[n][x] = marginals[n].get(x, 0.0) + w
        res = fake_result(marginals, joint, duration, n_nodes)
        value = product_form_deviation(res)
        assert value == box_scan_deviation(res)
        inside = max(abs(w / duration - math.prod(
            marginals[n].get(x, 0.0) / duration for n, x in enumerate(s)))
            for s, w in joint.items())
        outside += value > inside
    assert outside >= 30


def test_deviation_keeps_candidates_within_the_rounding_allowance():
    # four nodes, each at occupancy 0 with marginal u and at 1 with v. The
    # supremum is at the unvisited (1, 0, 0, 0), one rank worse than the
    # visited (0, 0, 0, 0) at node 0: left to right ((v * u) * u) * u =
    # 0.09345747437500002. Its bound, v times the other factors multiplied
    # right to left, ((u * u) * u) * v = 0.09345747437499999, is below the
    # term at the visited (0, 0, 1, 0), held for no time, whose product is
    # ((u * u) * v) * u = 0.093457474375. The other two visited states are
    # held for their products. u and v were found by a search over pmfs
    # with three decimals
    u, v = 0.635, 0.365
    joint = {(0, 0, 0, 0): u * u * u * u, (0, 1, 0, 0): u * v * u * u,
             (0, 0, 1, 0): 0.0}
    res = fake_result([{0: u, 1: v}] * 4, joint, 1.0, 4)
    value = product_form_deviation(res)
    assert value == box_scan_deviation(res)
    assert value == v * u * u * u == 0.09345747437500002


def test_deviation_keeps_candidates_whose_products_underflow():
    # every product is below 2**-1022, where only its bits above 2**-1074
    # are kept, so two orders of rounding can differ by far more than any
    # relative allowance. The supremum is at the unvisited (1, 0, 0): left
    # to right (x1 * u) * u = 5e-323, while its bound x1 * (u * u) =
    # 4.4e-323 equals the term at the visited (0, 0, 0), whose weight
    # exceeds its product by exactly that. The other two visited states
    # are held for their products
    x0, x1, u, v = 2e-322, 1e-322, 0.68, 0.32
    joint = {(0, 0, 0): x0 * u * u + x1 * (u * u), (0, 1, 0): x0 * v * u,
             (0, 0, 1): x0 * u * v}
    res = fake_result([{0: x0, 1: x1}, {0: u, 1: v}, {0: u, 1: v}], joint,
                      1.0, 3)
    value = product_form_deviation(res)
    assert value == box_scan_deviation(res)
    assert value == x1 * u * u == 5e-323


@pytest.mark.parametrize("n_nodes, horizon, seed",
                         [(12, 2_000.0, 2), (12, 2_000.0, 5),
                          (30, 500.0, 3), (30, 500.0, 6)])
def test_deviation_equals_candidate_scan_past_the_box_scan(n_nodes, horizon,
                                                           seed):
    # boxes of 10**6 to 10**16 cells; up to four blocks of visited states
    spec = mixed_network(np.random.default_rng(seed), n_nodes, 3,
                         max_total=0.5, rate_range=(0.05, 0.25))
    res = simulate(spec, SimConfig(seed=seed, horizon=horizon, warmup=100.0))
    assert product_form_deviation(res) == candidate_scan_deviation(res)


def test_deviation_with_no_visited_state_inside_the_box():
    # a result built by hand whose only joint state lies past the marginals'
    # occupancies: inside the box the joint is zero, and the supremum is
    # the all-top-rank cell's product
    res = fake_result([{0: 60.0, 1: 40.0}, {0: 30.0, 1: 70.0}],
                      {(5, 5): 100.0}, 100.0)
    value = product_form_deviation(res)
    assert value == box_scan_deviation(res)
    assert value == 0.6 * 0.7


def test_deviation_on_70_nodes_scans_no_box():
    # half the time everyone is empty, half the time everyone holds one
    # customer: the box has 2**70 cells
    n_nodes = 70
    joint = {(0,) * n_nodes: 50.0, (1,) * n_nodes: 50.0}
    res = fake_result([{0: 50.0, 1: 50.0}] * n_nodes, joint, 100.0, n_nodes)
    assert product_form_deviation(res) == abs(0.5 - 0.5**70)


# --- full comparison report -------------------------------------------------

def test_compare_columns_match_sources(example_run):
    spec = two_node_deadline_example()
    report = compare(spec, example_run)
    pf = product_form(spec)
    full = baseline_full_insensitivity(spec)
    svc = baseline_service_time_insensitivity(spec)
    for n, row in enumerate(report.mean_table):
        assert row["simulated"] == example_run.means[n]
        assert row["exact"] == pf.rho[n]
        assert row["full_insensitivity"] == full.rho[n]
        assert row["service_time_insensitivity"] == svc.rho[n]
    assert report.product_form_sup == product_form_deviation(example_run)
    assert set(report.sample_info) == {"horizon", "warmup", "seed"}
    assert report.sample_info["horizon"] == 4_000.0
    assert report.sample_info["seed"] == 8
    assert np.all(report.marginal_distance >= 0.0)
    assert np.all(report.marginal_distance <= 1.0)


def test_repeated_compare_solves_the_spec_once(example_run, monkeypatch):
    import deadlinenet.analytic
    import deadlinenet.distributions
    import deadlinenet.model
    import deadlinenet.stats

    # read from the bundled file, and so validated, before counting starts
    spec, other = two_node_deadline_example(), two_node_deadline_example()
    calls = {name: count_calls(monkeypatch, module, name)
             for module, name in [
                 (deadlinenet.distributions, "_race_stats"),
                 (deadlinenet.analytic, "_solve_open"),
                 (deadlinenet.model, "trapped_nodes"),
                 (deadlinenet.analytic, "_poisson_pmf"),
                 (deadlinenet.analytic, "baseline_full_insensitivity"),
                 (deadlinenet.analytic, "baseline_service_time_insensitivity"),
                 (deadlinenet.stats, "empirical_marginal")]}

    def made():
        return {name: len(log) for name, log in calls.items()}

    first = compare(spec, example_run)
    once = made()
    # the traffic equations and the full-insensitivity baseline are solved,
    # and each node's exact pmf is evaluated, on the first call only; each
    # node's empirical pmf is built once per call, for the distances and
    # the product-form deviation both
    assert once == {"_race_stats": 1, "_solve_open": 2, "trapped_nodes": 2,
                    "_poisson_pmf": 2, "baseline_full_insensitivity": 1,
                    "baseline_service_time_insensitivity": 1,
                    "empirical_marginal": 2}
    later = [compare(spec, example_run) for _ in range(3)]
    assert made() == {**once, "empirical_marginal": 4 * 2}
    # a new spec object computes again and must agree with the kept answer
    fresh = compare(other, example_run)
    assert made() == {**{name: 2 * count for name, count in once.items()},
                      "empirical_marginal": 5 * 2}
    for report in (*later, fresh):
        assert report.mean_table == first.mean_table
        assert np.array_equal(report.marginal_distance, first.marginal_distance)
        assert report.product_form_sup == first.product_form_sup
        assert report.sample_info == first.sample_info


def test_compare_rejects_a_run_of_another_network(example_run):
    def network(n_nodes):
        node = NodeSpec(components=(Exponential(1.0),),
                        routing=((0.0,) * n_nodes,))
        return NetworkSpec(nodes=(node,) * n_nodes,
                           arrival_rates=(1.0,) * n_nodes)

    # the two-node run against a spec with fewer nodes and one with more
    for n_nodes in (1, 3):
        with pytest.raises(ValueError) as raised:
            compare(network(n_nodes), example_run)
        assert str(raised.value) == (
            "the result has 2 node means and 2 marginals; the spec has "
            f"{n_nodes} nodes")


@pytest.mark.parametrize("states, weights", [
    (lambda s: np.hstack([s, s[:, :1]]), lambda w: w),
    (lambda s: s[:, :1], lambda w: w),
    (lambda s: s, lambda w: w[:-1]),
    (lambda s: s[:0], lambda w: w[:0]),
], ids=["wider", "narrower", "short-weights", "empty"])
def test_deviation_rejects_a_joint_histogram_of_the_wrong_shape(
        example_run, states, weights):
    res = dataclasses.replace(example_run,
                              joint_states=states(example_run.joint_states),
                              joint_weights=weights(example_run.joint_weights))
    message = (
        f"the joint histogram has states of shape {res.joint_states.shape} "
        f"and weights of shape {res.joint_weights.shape}; a run of 2 nodes "
        "needs shapes (J, 2) and (J,), J > 0")
    for check in (product_form_deviation,
                  lambda r: compare(two_node_deadline_example(), r)):
        with pytest.raises(ValueError) as raised:
            check(res)
        assert str(raised.value) == message


def test_compare_empty_network_all_zero():
    spec = NetworkSpec(nodes=two_node_deadline_example().nodes,
                       arrival_rates=(0.0, 0.0))
    res = simulate(spec, SimConfig(seed=1, horizon=500.0, warmup=50.0))
    report = compare(spec, res)
    for row in report.mean_table:
        assert row["simulated"] == 0.0
        assert row["exact"] == 0.0
    np.testing.assert_allclose(report.marginal_distance, 0.0, atol=1e-12)
    assert report.product_form_sup == 0.0


def test_compare_analytic_columns_collapse_for_exponential_networks():
    rng = np.random.default_rng(23)
    spec = random_exponential_network(rng)
    res = simulate(spec, SimConfig(seed=2, horizon=300.0, warmup=30.0))
    report = compare(spec, res)
    for row in report.mean_table:
        assert row["full_insensitivity"] == pytest.approx(row["exact"],
                                                          abs=1e-9)
        assert row["service_time_insensitivity"] == pytest.approx(
            row["exact"], abs=1e-9)


def test_compare_tolerates_baseline_rejection(monkeypatch):
    import deadlinenet.analytic

    solves = count_calls(monkeypatch, deadlinenet.analytic, "_solve_open")
    rates = count_calls(monkeypatch, deadlinenet.analytic, "_component_rates")
    node = NodeSpec(components=(Exponential(1.0), Infinite()),
                    routing=((0.0,), (0.0,)))
    spec = NetworkSpec(nodes=(node,), arrival_rates=(1.0,))
    res = simulate(spec, SimConfig(seed=3, horizon=500.0, warmup=50.0))
    report = compare(spec, res)
    row = report.mean_table[0]
    assert row["full_insensitivity"] is None
    assert row["service_time_insensitivity"] is None
    assert row["exact"] == pytest.approx(1.0, abs=1e-12)
    # the rejection depends on the spec alone and is kept with the exact
    # side: each baseline asks once, and two more compares report None
    # again without asking
    for _ in range(2):
        again = compare(spec, res)
        assert again.mean_table == report.mean_table
        assert np.array_equal(again.marginal_distance,
                              report.marginal_distance)
        assert again.product_form_sup == report.product_form_sup
    assert len(solves) == 1
    # a rate table that raises is not kept, so each baseline computes it
    assert len(rates) == 2


def test_compare_without_joint_skips_sup(example_run):
    spec = two_node_deadline_example()
    res = simulate(spec, SimConfig(seed=8, horizon=1_000.0, warmup=100.0,
                                   record_joint=False))
    report = compare(spec, res)
    assert report.product_form_sup is None
