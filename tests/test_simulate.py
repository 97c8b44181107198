import dataclasses
import math

import numpy as np
import pytest

from deadlinenet import (
    Deterministic,
    Exponential,
    InvalidNetworkError,
    NetworkSpec,
    NodeSpec,
    SimConfig,
    Weibull,
    compute_min_stats,
    empirical_marginal,
    product_form,
    replicate,
    simulate,
    total_variation,
    two_node_deadline_example,
)

from deadlinenet.simulate import _route_tables, _Sweep

from helpers import (
    mixed_network,
    poisson_pmf,
    random_general_network,
    random_signed_zero_network,
    reference_route_tables,
    reference_sweep,
    rescale_spec,
)

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
    assert np.array_equal(example_run.joint_states, again.joint_states)
    assert np.array_equal(example_run.joint_weights, again.joint_weights)
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
    assert counts.arrivals[1] - counts.external[1] == counts.departures[0, 0]


def test_time_weight_accounting(example_run):
    duration = example_run.effective_duration
    assert duration == CFG.horizon - CFG.warmup
    for weights in example_run.marginal_weights:
        assert sum(weights.values()) == pytest.approx(duration, rel=1e-9)
    assert example_run.joint_weights.sum() == pytest.approx(
        duration, rel=1e-9)


def test_joint_arrays_are_sorted_and_read_only(example_run):
    states, weights = example_run.joint_states, example_run.joint_weights
    assert states.dtype == np.int64 and weights.dtype == np.float64
    assert states.shape == (len(weights), 2) and weights.shape == (len(weights),)
    rows = states.tolist()
    assert all(a < b for a, b in zip(rows, rows[1:]))
    with pytest.raises(ValueError):
        states[0, 0] = 1
    with pytest.raises(ValueError):
        weights[0] = 0.0


def test_marginals_are_exact_sums_of_joint(example_run):
    derived = [{} for _ in range(2)]
    for state, w in zip(example_run.joint_states.tolist(),
                        example_run.joint_weights.tolist()):
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
    assert res.joint_states.tolist() == [[0, 0]]
    assert res.joint_weights.tolist() == [90.0]
    assert res.marginal_weights == ({0: 90.0}, {0: 90.0})
    assert np.array_equal(res.means, [0.0, 0.0])
    assert res.event_counts.arrivals.sum() == 0


def test_single_markovian_node_matches_poisson():
    node = NodeSpec(components=(Exponential(1.0),), routing=((0.0,),))
    spec = NetworkSpec(nodes=(node,), arrival_rates=(1.0,))
    res = simulate(spec, SimConfig(seed=5, horizon=100_000.0, warmup=1_000.0))
    assert abs(res.means[0] - 1.0) < 0.05
    empirical = empirical_marginal(res, 0)
    reference = np.array([poisson_pmf(x, 1.0)
                          for x in range(len(empirical) + 1)])
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


def test_tied_minimum_goes_to_the_lowest_component():
    # a Weibull of shape 1e20 samples exactly its scale, so both components
    # reach the minimum together on every visit
    node = NodeSpec(components=(Weibull(1e20, 1.0), Weibull(1e20, 1.0)),
                    routing=((0.0,), (0.0,)))
    spec = NetworkSpec(nodes=(node,), arrival_rates=(1.0,))
    res = simulate(spec, SimConfig(seed=1, horizon=200.0, warmup=20.0))
    counts = res.event_counts
    assert counts.arrivals[0] > 0
    assert res.ties == counts.arrivals[0]
    assert counts.departures[0, 1] == 0
    assert counts.departures[0, 0] == counts.arrivals[0] - res.final_occupancy[0]


def test_route_tables_match_the_entry_by_entry_reference():
    rng = np.random.default_rng(17)
    # rows longer than 16 entries, where an unstable sort would show
    specs = [random_signed_zero_network(rng, max_nodes=40 if i % 8 == 1 else 6,
                                        empty=(i % 25 == 0))
             for i in range(400)]
    for spec in specs:
        for got, want in zip(_route_tables(spec), reference_route_tables(spec)):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
    # some networks have only empty rows: no threshold, every customer exits
    assert any(_route_tables(spec)[0].shape[1] == 0 for spec in specs)


def test_joint_recording_optional():
    cfg = SimConfig(seed=7, horizon=3_000.0, warmup=300.0, record_joint=False)
    res = simulate(two_node_deadline_example(), cfg)
    assert res.joint_states is None and res.joint_weights is None
    with_joint = simulate(two_node_deadline_example(), CFG)
    # same event stream either way; only the accumulation path differs
    for n in range(2):
        a, b = res.marginal_weights[n], with_joint.marginal_weights[n]
        assert set(a) == set(b)
        for x in a:
            assert a[x] == pytest.approx(b[x], rel=1e-9)


def assert_same_trajectories(spec, cfg):
    """Runs with and without the joint histogram draw the same stream: the
    counts agree exactly and the histograms up to summation order."""
    with_joint = simulate(spec, cfg)
    without = simulate(spec, dataclasses.replace(cfg, record_joint=False))
    assert without.joint_states is None and without.joint_weights is None
    for name in ("external", "arrivals", "departures"):
        assert np.array_equal(getattr(with_joint.event_counts, name),
                              getattr(without.event_counts, name))
    assert with_joint.final_occupancy == without.final_occupancy
    assert with_joint.ties == without.ties
    np.testing.assert_allclose(without.means, with_joint.means,
                               rtol=1e-12, atol=0.0)
    for a, b in zip(without.marginal_weights, with_joint.marginal_weights):
        assert list(a) == list(b)
        np.testing.assert_allclose(list(a.values()), list(b.values()),
                                   rtol=1e-12, atol=0.0)
    return with_joint, without


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_joint_recording_does_not_touch_the_stream(seed):
    spec = random_general_network(np.random.default_rng(seed))
    assert_same_trajectories(
        spec, SimConfig(seed=seed, horizon=2_000.0, warmup=200.0))


def test_sojourns_spanning_many_blocks():
    # an exp(1e-3) task against a 2000 deadline at 10 arrivals per unit
    # time: a sojourn of ~865 spans ~8 blocks of 1024 arrivals
    node = NodeSpec(components=(Exponential(1e-3), Deterministic(2000.0)),
                    routing=((0.0,), (0.0,)))
    spec = NetworkSpec(nodes=(node,), arrival_rates=(10.0,))
    cfg = SimConfig(seed=3, horizon=6_000.0, warmup=2_500.0)
    res, _ = assert_same_trajectories(spec, cfg)
    counts = res.event_counts
    assert counts.arrivals[0] > 50_000
    assert (counts.arrivals - counts.departures.sum(axis=1)
            == np.array(res.final_occupancy)).all()
    duration = cfg.horizon - cfg.warmup
    assert res.joint_weights.sum() == pytest.approx(duration, rel=1e-12)
    assert sum(res.marginal_weights[0].values()) == pytest.approx(
        duration, rel=1e-12)
    # mean occupancy 10 * 1000 * (1 - e^-2) ~ 8647, sd of the time average
    # well under 100
    assert res.means[0] == pytest.approx(product_form(spec).rho[0], rel=0.05)


def test_joint_of_a_long_chain_needs_several_key_words():
    # 70 exponential nodes in series: at least one bit per node, so the
    # joint state cannot be one int64 mixed-radix key
    n_nodes = 70
    nodes = tuple(
        NodeSpec(components=(Exponential(1.0),),
                 routing=(tuple(1.0 if m == n + 1 else 0.0
                                for m in range(n_nodes)),))
        for n in range(n_nodes))
    spec = NetworkSpec(nodes=nodes,
                       arrival_rates=(1.0,) + (0.0,) * (n_nodes - 1))
    res, _ = assert_same_trajectories(
        spec, SimConfig(seed=4, horizon=120.0, warmup=80.0))
    states = res.joint_states
    assert states.shape == (len(res.joint_weights), n_nodes)
    assert math.prod(int(top) + 1 for top in states.max(axis=0)) > 2**63
    rows = states.tolist()
    assert all(a < b for a, b in zip(rows, rows[1:]))
    derived = [{} for _ in range(n_nodes)]
    for state, w in zip(rows, res.joint_weights.tolist()):
        for n, x in enumerate(state):
            derived[n][x] = derived[n].get(x, 0.0) + w
    assert derived == list(res.marginal_weights)


def _zero_length_race():
    # a Weibull of shape 0.001 draws exactly 0, a time absorbed by the
    # entry time, or one past any horizon: about 63% of visits last no
    # time and retry at once through the self-loop row, so a customer
    # makes several moves at one instant
    node = NodeSpec(components=(Exponential(1.0), Weibull(0.001, 1.0)),
                    routing=((0.0,), (1.0,)))
    return NetworkSpec(nodes=(node,), arrival_rates=(1.0,))


@pytest.mark.parametrize("spec, cfg", [
    (_zero_length_race(), SimConfig(seed=2, horizon=300.0, warmup=30.0)),
    # node 1's deadline row is a self-loop
    (two_node_deadline_example(),
     SimConfig(seed=9, horizon=2_000.0, warmup=200.0)),
], ids=["zero-length-visits", "bundled"])
def test_moves_at_equal_times_keep_every_state_valid(spec, cfg):
    res, _ = assert_same_trajectories(spec, cfg)
    states, weights = res.joint_states, res.joint_weights
    assert (states >= 0).all()
    assert weights.sum() == pytest.approx(cfg.horizon - cfg.warmup, rel=1e-12)
    derived = [{} for _ in range(spec.n_nodes)]
    for state, w in zip(states.tolist(), weights.tolist()):
        for n, x in enumerate(state):
            derived[n][x] = derived[n].get(x, 0.0) + w
    assert derived == list(res.marginal_weights)


def _zero_length_visits(pairs=30, instants=20):
    """Moves of a block, as the simulator records them: at each integer
    instant one customer arrives at each node i < pairs, moves at once to
    node pairs + i (a zero-length visit at i) and leaves half a unit
    later. Its arrival, its hop and its exit are moves of three recorded
    batches, which a stable sort of the times keeps in that order; numpy's
    default sort reorders ties this many."""
    n_nodes = 2 * pairs
    t = np.repeat(np.arange(1.0, instants + 1.0), pairs)
    i = np.tile(np.arange(pairs), instants)
    return n_nodes, [(t, np.full(t.size, n_nodes), i),
                     (t, i, pairs + i),
                     (t + 0.5, pairs + i, np.full(t.size, n_nodes))]


@pytest.mark.parametrize("joint", [True, False], ids=["joint", "no-joint"])
def test_tied_moves_keep_each_customers_order(joint):
    n_nodes, batches = _zero_length_visits()
    cfg = SimConfig(horizon=30.0, warmup=2.0, record_joint=joint)
    sweep = _Sweep(n_nodes, 1, cfg)
    # in recorded order no node ever holds two customers, so no one-bit
    # digit overflows and the joint sweep never groups its moves by node;
    # a hop swept before its arrival would borrow from the next digit and
    # send the sweep there
    grouped = []
    by_node = sweep._by_node

    def counted(*moves):
        grouped.append(moves)
        return by_node(*moves)

    sweep._by_node = counted
    for batch in batches:
        sweep.move(*batch)
    marginals, states, weights, _ = sweep.finish()
    times, rows, targets = (np.concatenate(x).tolist() for x in zip(*batches))
    # every time is a multiple of 1/2, so every sum is exact in any order
    want = reference_sweep(times, rows, targets, n_nodes, 1, cfg.warmup,
                           cfg.horizon)
    derived = [{} for _ in range(n_nodes)]
    for state, w in want.items():
        for n, x in enumerate(state):
            derived[n][x] = derived[n].get(x, 0.0) + w
    assert list(marginals) == derived
    if joint:
        assert dict(zip(map(tuple, states.tolist()), weights.tolist())) == want
        assert grouped == []


@pytest.mark.parametrize("n_nodes", [3, 300, 70_000])
def test_moves_group_by_node_on_either_side_of_the_uint16_limit(n_nodes):
    rng = np.random.default_rng(n_nodes)
    sweep = _Sweep(n_nodes, 1, SimConfig(record_joint=False))
    sweep.occ[:] = rng.integers(0, 50, n_nodes)
    # node n_nodes is the outside for a source and the exit for a target
    src, dst = rng.integers(0, n_nodes + 1, size=(2, 5_000))
    by, nb, sb, after, count, seen, first = sweep._by_node(src, dst)
    n = np.stack((src, dst), axis=1).ravel()
    # by node, then by position: each node's events keep their time order
    want = np.lexsort((np.arange(n.size), n))
    want = want[n[want] < n_nodes]
    signs = np.where(want % 2 == 1, 1, -1)
    assert np.array_equal(by, want)
    assert np.array_equal(nb, n[want])
    assert np.array_equal(sb, signs)
    # each event's node's occupancy just after it
    running = {}
    occupancy = []
    for node, sign in zip(n[want].tolist(), signs.tolist()):
        running[node] = running.get(node, int(sweep.occ[node])) + sign
        occupancy.append(running[node])
    assert after.tolist() == occupancy
    assert np.array_equal(count, np.bincount(n, minlength=n_nodes + 1)[:-1])
    assert np.array_equal(seen, np.unique(n[want]))
    assert np.array_equal(first, np.searchsorted(n[want], seen))


@pytest.mark.parametrize("k", [-7, 5, 20])
def test_power_of_two_time_rescaling_is_exact(k):
    c = 2.0 ** k
    cases = [
        (two_node_deadline_example(),
         SimConfig(seed=3, horizon=2_000.0, warmup=200.0)),
        (mixed_network(np.random.default_rng(8), 8, 3),
         SimConfig(seed=8, horizon=200.0, warmup=20.0)),
    ]
    for spec, cfg in cases:
        scaled = rescale_spec(spec, c)
        for joint in (True, False):
            cfg = dataclasses.replace(cfg, record_joint=joint)
            a = simulate(spec, cfg)
            b = simulate(scaled, dataclasses.replace(
                cfg, horizon=cfg.horizon * c, warmup=cfg.warmup * c))
            assert np.array_equal(a.means, b.means)
            for name in ("external", "arrivals", "departures"):
                assert np.array_equal(getattr(a.event_counts, name),
                                      getattr(b.event_counts, name))
            assert a.ties == b.ties
            assert a.final_occupancy == b.final_occupancy
            assert b.marginal_weights == tuple(
                {x: w * c for x, w in m.items()} for m in a.marginal_weights)
            if joint:
                assert np.array_equal(a.joint_states, b.joint_states)
                assert np.array_equal(a.joint_weights * c, b.joint_weights)


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
    assert np.array_equal(a.results[1].joint_states, b.results[1].joint_states)
    assert np.array_equal(a.results[1].joint_weights,
                          b.results[1].joint_weights)


@pytest.mark.parametrize("kwargs, message", [
    ({"seed": -1}, "seed must be >= 0, got -1"),
    ({"horizon": math.inf}, "horizon must be finite, got inf"),
])
def test_config_rejects_negative_seed_and_infinite_horizon(kwargs, message):
    with pytest.raises(ValueError, match=message):
        SimConfig(**kwargs)


def test_replicate_rejects_bad_run_count():
    with pytest.raises(ValueError):
        replicate(two_node_deadline_example(), CFG, 0)
