import math

import numpy as np
import pytest

from deadlinenet import (
    Exponential,
    InvalidNetworkError,
    NetworkSpec,
    NodeSpec,
    SimConfig,
    compute_min_stats,
    replicate,
    simulate,
    total_variation,
    two_node_deadline_example,
)

from helpers import poisson_pmf

CFG = SimConfig(seed=7, horizon=3_000.0, warmup=300.0)


@pytest.fixture(scope="module")
def example_run():
    return simulate(two_node_deadline_example(), CFG)


def test_config_invariants():
    with pytest.raises(ValueError):
        SimConfig(warmup=-1.0)
    with pytest.raises(ValueError):
        SimConfig(horizon=10.0, warmup=10.0)
    with pytest.raises(ValueError):
        SimConfig(horizon=5.0, warmup=50.0)
    with pytest.raises(ValueError):
        SimConfig(generator_name="mt19937")
    assert SimConfig(seed=3.0).seed == 3


def test_simulate_rejects_structurally_invalid_spec():
    node = NodeSpec(components=(Exponential(1.0),), routing=((1.5,),))
    spec = NetworkSpec(nodes=(node,), arrival_rates=(1.0,))
    with pytest.raises(InvalidNetworkError):
        simulate(spec, CFG)


def test_repeat_runs_are_identical(example_run):
    again = simulate(two_node_deadline_example(), CFG)
    assert np.array_equal(example_run.means, again.means)
    assert example_run.joint_weights == again.joint_weights
    assert example_run.marginal_weights == again.marginal_weights
    assert example_run.final_occupancy == again.final_occupancy
    assert example_run.ties == again.ties
    assert np.array_equal(example_run.event_counts.departures,
                          again.event_counts.departures)


def test_alternate_generator_runs_and_differs(example_run):
    cfg = SimConfig(seed=7, generator_name="philox",
                    horizon=3_000.0, warmup=300.0)
    other = simulate(two_node_deadline_example(), cfg)
    assert other.means.shape == (2,)
    assert not np.array_equal(other.means, example_run.means)


def test_customer_conservation(example_run):
    counts = example_run.event_counts
    left = counts.arrivals
    right = counts.departures.sum(axis=1) + np.array(
        example_run.final_occupancy)
    assert np.array_equal(left, right)
    # stage 2 is fed only by stage-1 task completions
    assert counts.external[1] == 0
    assert counts.routed[1] == counts.departures[0, 0]


def test_time_weight_accounting(example_run):
    duration = example_run.effective_duration
    assert duration == CFG.horizon - CFG.warmup
    for weights in example_run.marginal_weights:
        assert sum(weights.values()) == pytest.approx(duration, rel=1e-9)
    assert sum(example_run.joint_weights.values()) == pytest.approx(
        duration, rel=1e-9)


def test_marginals_are_exact_sums_of_joint(example_run):
    derived = [{} for _ in range(2)]
    for state in sorted(example_run.joint_weights):
        w = example_run.joint_weights[state]
        for n, x in enumerate(state):
            derived[n][x] = derived[n].get(x, 0.0) + w
    for n in range(2):
        assert derived[n] == example_run.marginal_weights[n]


def test_means_match_marginal_weights(example_run):
    for n in range(2):
        expected = sum(
            x * w for x, w in example_run.marginal_weights[n].items()
        ) / example_run.effective_duration
        assert example_run.means[n] == pytest.approx(expected, rel=1e-12)


def test_no_arrivals_stays_empty():
    spec = NetworkSpec(nodes=two_node_deadline_example().nodes,
                       arrival_rates=(0.0, 0.0))
    res = simulate(spec, SimConfig(seed=1, horizon=100.0, warmup=10.0))
    assert res.joint_weights == {(0, 0): 90.0}
    assert res.marginal_weights == ({0: 90.0}, {0: 90.0})
    assert np.array_equal(res.means, [0.0, 0.0])
    assert res.event_counts.arrivals.sum() == 0


def test_single_markovian_node_matches_poisson():
    node = NodeSpec(components=(Exponential(1.0),), routing=((0.0,),))
    spec = NetworkSpec(nodes=(node,), arrival_rates=(1.0,))
    res = simulate(spec, SimConfig(seed=5, horizon=100_000.0, warmup=1_000.0))
    assert abs(res.means[0] - 1.0) < 0.05
    duration = res.effective_duration
    empirical = {x: w / duration for x, w in res.marginal_weights[0].items()}
    support = max(empirical) + 1
    reference = {x: poisson_pmf(x, 1.0) for x in range(support + 1)}
    assert total_variation(empirical, reference) < 0.02


def test_routing_frequencies_match_achievement_probabilities(example_run):
    spec = two_node_deadline_example()
    p = compute_min_stats(spec).p
    dep = example_run.event_counts.departures
    totals = dep.sum(axis=1, keepdims=True)
    freq = dep / totals
    se = np.sqrt(p * (1.0 - p) / totals)
    assert np.all(np.abs(freq - p) <= 4.0 * se)


def test_no_ties_with_continuous_components(example_run):
    # exponential vs a single atom: simultaneous minima have probability 0
    assert example_run.ties == 0


def test_joint_recording_optional():
    cfg = SimConfig(seed=7, horizon=3_000.0, warmup=300.0, record_joint=False)
    res = simulate(two_node_deadline_example(), cfg)
    assert res.joint_weights is None
    with_joint = simulate(two_node_deadline_example(), CFG)
    # same event stream either way; only the accumulation path differs
    for n in range(2):
        a, b = res.marginal_weights[n], with_joint.marginal_weights[n]
        assert set(a) == set(b)
        for x in a:
            assert a[x] == pytest.approx(b[x], rel=1e-9)


def test_replicate_single_run_is_pooled():
    summary = replicate(two_node_deadline_example(), CFG, 1)
    assert summary.runs == 1
    assert np.array_equal(summary.means, summary.results[0].means)
    assert np.array_equal(summary.standard_errors, [0.0, 0.0])


def test_replicate_pools_across_independent_streams():
    summary = replicate(two_node_deadline_example(), CFG, 3)
    per_run = summary.per_run_means
    assert per_run.shape == (3, 2)
    # distinct streams: the runs genuinely differ
    assert not np.array_equal(per_run[0], per_run[1])
    np.testing.assert_allclose(summary.means, per_run.mean(axis=0), atol=0.0)
    np.testing.assert_allclose(
        summary.standard_errors,
        per_run.std(axis=0, ddof=1) / math.sqrt(3), atol=0.0)
    assert np.all(summary.standard_errors > 0)


def test_replicate_is_deterministic():
    a = replicate(two_node_deadline_example(), CFG, 2)
    b = replicate(two_node_deadline_example(), CFG, 2)
    assert np.array_equal(a.means, b.means)
    assert a.results[1].joint_weights == b.results[1].joint_weights


def test_replicate_rejects_bad_run_count():
    with pytest.raises(ValueError):
        replicate(two_node_deadline_example(), CFG, 0)
