import math

import numpy as np
import pytest

from deadlinenet import (
    Deterministic,
    Exponential,
    Infinite,
    InvalidNetworkError,
    NetworkSpec,
    NodeSpec,
    QuadratureError,
    Uniform,
    Weibull,
    compute_min_stats,
    two_node_deadline_example,
)
from deadlinenet.distributions import _truncated_exp_mean
from helpers import (
    conditional_mean_given_min,
    density,
    expected_min,
    mc_min_stats,
    min_probability,
    random_component,
    sample,
)

E_INV = math.exp(-1.0)  # P(unit exponential exceeds a unit deadline)


# --- pointwise laws ---------------------------------------------------------

def test_survival_closed_forms():
    assert Exponential(2.0).survival(0.5) == pytest.approx(math.exp(-1.0))
    assert Deterministic(1.0).survival(0.999) == 1.0
    assert Deterministic(1.0).survival(1.0) == 0.0
    assert Uniform(1.0, 3.0).survival(0.5) == 1.0
    assert Uniform(1.0, 3.0).survival(2.0) == 0.5
    assert Uniform(1.0, 3.0).survival(3.5) == 0.0
    assert Weibull(2.0, 1.0).survival(1.0) == pytest.approx(E_INV)
    assert Infinite().survival(1e12) == 1.0


def test_density_closed_forms():
    assert density(Exponential(2.0), 0.0) == pytest.approx(2.0)
    assert density(Uniform(1.0, 3.0), 2.0) == pytest.approx(0.5)
    assert density(Uniform(1.0, 3.0), 0.5) == 0.0
    # Weibull with shape 2: f(t) = 2 t exp(-t^2)
    assert density(Weibull(2.0, 1.0), 1.0) == pytest.approx(2.0 * E_INV)
    assert density(Weibull(2.0, 1.0), 0.0) == 0.0


def test_density_rejects_atoms():
    with pytest.raises(TypeError):
        density(Deterministic(1.0), 1.0)
    with pytest.raises(TypeError):
        density(Infinite(), 1.0)


def test_means():
    assert Exponential(4.0).mean() == 0.25
    assert Deterministic(2.5).mean() == 2.5
    assert Uniform(1.0, 3.0).mean() == 2.0
    assert Weibull(1.0, 2.0).mean() == pytest.approx(2.0)
    # shape 2: scale * gamma(1.5) = scale * sqrt(pi)/2
    assert Weibull(2.0, 1.0).mean() == pytest.approx(math.sqrt(math.pi) / 2)
    assert Infinite().mean() == math.inf


@pytest.mark.parametrize("dist", [
    Exponential(0.7),
    Uniform(0.5, 2.5),
    Weibull(1.7, 1.2),
])
def test_sample_matches_mean(dist):
    rng = np.random.default_rng(42)
    draws = np.array([sample(dist, rng) for _ in range(50_000)])
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - dist.mean()) < 4 * se


def test_sample_deterministic_consumes_no_uniform():
    rng_a = np.random.default_rng(5)
    rng_b = np.random.default_rng(5)
    assert sample(Deterministic(3.0), rng_a) == 3.0
    # stream untouched: next uniforms agree
    assert rng_a.random() == rng_b.random()


def test_sample_infinite_rejected():
    with pytest.raises(ValueError):
        sample(Infinite(), np.random.default_rng(0))


# --- minimum statistics: frozen closed-form values --------------------------

RACE = (Exponential(1.0), Deterministic(1.0))


def test_achievement_probability_exponential_vs_deadline():
    # P(Exp(1) < 1) = 1 - e^{-1}
    assert min_probability(RACE, 0) == pytest.approx(1.0 - E_INV, abs=1e-12)
    assert min_probability(RACE, 1) == pytest.approx(E_INV, abs=1e-12)


def test_conditional_means_exponential_vs_deadline():
    # E[S | S < 1] for unit exponential = (1 - 2e^{-1}) / (1 - e^{-1})
    expected = (1.0 - 2.0 * E_INV) / (1.0 - E_INV)
    assert conditional_mean_given_min(RACE, 0) == pytest.approx(
        0.41802329313067358, abs=1e-12)
    assert conditional_mean_given_min(RACE, 0) == pytest.approx(expected, abs=1e-12)
    assert conditional_mean_given_min(RACE, 1) == pytest.approx(1.0, abs=1e-12)


def test_expected_min_exponential_vs_deadline():
    assert expected_min(RACE) == pytest.approx(1.0 - E_INV, abs=1e-12)
    assert expected_min(RACE) == pytest.approx(0.63212055882855768, abs=1e-12)


@pytest.mark.parametrize("x", [709.0, 710.0, 1e3, 1e308, math.inf])
def test_truncated_exp_mean_is_one_far_past_the_mean(x):
    # math.expm1 overflows above about 709.78; the mean is 1 to the last bit
    assert _truncated_exp_mean(x) == 1.0


def test_exponential_against_a_far_deadline():
    far = (Exponential(1.0), Deterministic(1000.0))
    assert min_probability(far, 1) == 0.0
    assert conditional_mean_given_min(far, 0) == 1.0
    assert expected_min(far) == pytest.approx(1.0, rel=1e-12)


def test_competing_exponentials_closed_form():
    pair = (Exponential(2.0), Exponential(0.5))
    assert min_probability(pair, 0) == pytest.approx(0.8, abs=1e-12)
    assert min_probability(pair, 1) == pytest.approx(0.2, abs=1e-12)
    # minimum of independent exponentials is Exp(sum of rates)
    assert expected_min(pair) == pytest.approx(0.4, abs=1e-12)
    assert conditional_mean_given_min(pair, 0) == pytest.approx(0.4, abs=1e-12)
    assert conditional_mean_given_min(pair, 1) == pytest.approx(0.4, abs=1e-12)


def test_exponential_vs_uniform():
    # P(Exp(1) < U(0,2)) = 1 - (1/2)∫_0^2 e^{-t} dt = (1 + e^{-2}) / 2
    pair = (Exponential(1.0), Uniform(0.0, 2.0))
    expected = 0.5 * (1.0 + math.exp(-2.0))
    assert min_probability(pair, 0) == pytest.approx(expected, abs=1e-12)
    assert min_probability(pair, 0) == pytest.approx(0.56766764161830635, abs=1e-12)


def test_weibull_vs_deadline():
    # P(Weibull(2,1) < 1) = 1 - e^{-1}, same as the unit exponential race
    pair = (Weibull(2.0, 1.0), Deterministic(1.0))
    assert min_probability(pair, 0) == pytest.approx(1.0 - E_INV, abs=1e-12)


def test_infinite_component_never_achieves():
    trio = (Exponential(1.0), Infinite())
    assert min_probability(trio, 1) == 0.0
    assert min_probability(trio, 0) == pytest.approx(1.0, abs=1e-12)
    assert conditional_mean_given_min(trio, 0) == pytest.approx(1.0, abs=1e-12)
    assert expected_min(trio) == pytest.approx(1.0, abs=1e-12)


def test_single_component_shortcuts():
    assert min_probability((Uniform(1.0, 2.0),), 0) == 1.0
    assert conditional_mean_given_min((Uniform(1.0, 2.0),), 0) == 1.5
    assert expected_min((Uniform(1.0, 2.0),)) == 1.5


def test_conditional_mean_rejects_zero_probability_component():
    with pytest.raises(ValueError):
        conditional_mean_given_min((Exponential(1.0), Infinite()), 1)


@pytest.mark.parametrize("shape", [0.2, 0.5, 0.8, 2.5])
def test_equal_shape_weibull_race(shape):
    # W^shape is exponential, so the race is won in proportion to
    # scale^-shape, and the minimum, independent of the winner, is Weibull
    race = (Weibull(shape, 1.0), Weibull(shape, 2.0))
    weights = np.array([1.0, 2.0 ** -shape])
    min_mean = weights.sum() ** (-1.0 / shape) * math.gamma(1.0 + 1.0 / shape)
    for k in range(2):
        assert min_probability(race, k) == pytest.approx(
            weights[k] / weights.sum(), rel=1e-12)
        assert conditional_mean_given_min(race, k) == pytest.approx(
            min_mean, rel=1e-12)
    assert expected_min(race) == pytest.approx(min_mean, rel=1e-12)


def test_two_deterministic_components():
    pair = (Deterministic(0.5), Deterministic(1.5))
    assert min_probability(pair, 0) == 1.0
    assert min_probability(pair, 1) == 0.0
    assert expected_min(pair) == 0.5


# --- aggregate per-network statistics ---------------------------------------

def test_compute_min_stats_example():
    stats = compute_min_stats(two_node_deadline_example())
    assert stats.p.shape == (2, 2)
    np.testing.assert_allclose(
        stats.p, [[1.0 - E_INV, E_INV]] * 2, atol=1e-12)
    np.testing.assert_allclose(
        stats.cond_mean, [[0.41802329313067358, 1.0]] * 2, atol=1e-12)
    np.testing.assert_allclose(stats.mean_min, [1.0 - E_INV] * 2, atol=1e-12)
    np.testing.assert_allclose(stats.p.sum(axis=1), 1.0, atol=1e-9)
    # E[min] decomposes over achieving components
    np.testing.assert_allclose(
        (stats.p * stats.cond_mean).sum(axis=1), stats.mean_min, atol=1e-8)


def test_compute_min_stats_rejects_invalid_spec():
    node = NodeSpec(components=(Infinite(),), routing=((0.0,),))
    spec = NetworkSpec(nodes=(node,), arrival_rates=(1.0,))
    with pytest.raises(InvalidNetworkError):
        compute_min_stats(spec)


@pytest.mark.parametrize("halved, message", [
    (0, "achievement probabilities at node 2 sum to 0.500000000000, expected 1"),
    (1, "total expectation mismatch at node 2: "),
], ids=["p", "cond_mean"])
def test_inconsistent_race_statistics_name_their_node(monkeypatch, halved,
                                                      message):
    import deadlinenet.distributions

    race_stats = deadlinenet.distributions._race_stats

    def inconsistent(races, labels):
        # halve node 2's row of p or of cond_mean
        stats = race_stats(races, labels)
        stats[halved][1] *= 0.5
        return stats

    monkeypatch.setattr(deadlinenet.distributions, "_race_stats",
                        inconsistent)
    nodes = tuple(NodeSpec(components=(Exponential(rate), Deterministic(1.0)),
                           routing=((0.0, 0.0), (0.0, 0.0)))
                  for rate in (1.0, 2.0))
    spec = NetworkSpec(nodes=nodes, arrival_rates=(1.0, 1.0))
    with pytest.raises(QuadratureError) as info:
        compute_min_stats(spec)
    assert str(info.value).startswith(message)


def test_infinite_component_stats():
    node = NodeSpec(components=(Exponential(2.0), Infinite()),
                    routing=((0.0,), (0.0,)))
    spec = NetworkSpec(nodes=(node,), arrival_rates=(1.0,))
    stats = compute_min_stats(spec)
    np.testing.assert_allclose(stats.p, [[1.0, 0.0]], atol=1e-12)
    assert stats.cond_mean[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert math.isinf(stats.cond_mean[0, 1])


# --- Monte Carlo cross-checks (independent sampler) -------------------------

@pytest.mark.parametrize("components", [
    (Exponential(1.0), Deterministic(1.0)),
    (Exponential(1.3), Uniform(0.2, 1.8)),
    (Weibull(1.6, 0.9), Exponential(0.8)),
    (Uniform(0.0, 1.0), Deterministic(0.6), Exponential(2.0)),
])
def test_quadrature_against_monte_carlo(components):
    rng = np.random.default_rng(hash(components) % (2**32))
    n = 200_000
    p_hat, p_se, cond_hat, cond_se, min_hat, min_se = mc_min_stats(
        components, n, rng)
    for k in range(len(components)):
        p = min_probability(components, k)
        assert abs(p - p_hat[k]) < 4 * p_se[k] + 1e-9
        if p > 1e-6:
            cm = conditional_mean_given_min(components, k)
            assert abs(cm - cond_hat[k]) < 4 * cond_se[k] + 1e-9
    assert abs(expected_min(components) - min_hat) < 4 * min_se


# --- quadrature failure and the SciPy oracle --------------------------------

def test_unresolvable_singularity_names_node_and_component():
    # a Weibull density ~ t^-0.95 at 0 is beyond the panel-split cap
    steady = NodeSpec(components=(Exponential(1.0), Exponential(2.0)),
                      routing=((0.0, 0.0), (0.0, 0.0)))
    spiky = NodeSpec(components=(Exponential(1.0), Weibull(0.05, 1.0)),
                     routing=((0.0, 0.0), (0.0, 0.0)))
    spec = NetworkSpec(nodes=(steady, spiky), arrival_rates=(1.0, 1.0))
    with pytest.raises(QuadratureError, match="node 2 component 2"):
        compute_min_stats(spec)


def test_unresolved_weibull_race_raises():
    # min of Weibull(0.1, 1) and Weibull(0.1, 2) has mean 10! / (1 +
    # 2^-0.1)^10 = 4981.6 and p_1 = 0.517; without the accuracy bound the
    # kernel would return 6.3e-5 and 6.8e-18
    race = (Weibull(0.1, 1.0), Weibull(0.1, 2.0))
    with pytest.raises(QuadratureError):
        expected_min(race)
    with pytest.raises(QuadratureError):
        min_probability(race, 0)


def test_race_with_no_finite_tail_raises():
    # at shape 0.001 no component's survival falls to 1e-16 within the
    # float range, so the race has no finite range to integrate over
    with pytest.raises(QuadratureError, match="integration range for race"):
        expected_min((Weibull(0.001, 1.0), Weibull(0.001, 2.0)))
    with pytest.raises(QuadratureError, match="mean of race component 1"):
        expected_min((Weibull(0.001, 1.0), Infinite()))


def _scipy_min_stats(components):
    """p, cond_mean and mean_min of one race by scipy.integrate.quad on the
    panels between kinks, from the pointwise survival and density."""
    from scipy.integrate import quad

    finite = [c for c in components if not isinstance(c, Infinite)]
    upper = min(c.tail_time(1e-16) for c in finite)
    edges = [0.0, *sorted({t for c in finite for t in c.support() if 0 < t < upper}),
             upper]

    def integral(fn):
        return sum(quad(fn, a, b, epsabs=1e-15, epsrel=1e-13, limit=400)[0]
                   for a, b in zip(edges, edges[1:]))

    def others(k, t):
        return math.prod(c.survival(t) for j, c in enumerate(components) if j != k)

    p, cond = [], []
    for k, d in enumerate(components):
        if isinstance(d, Infinite):
            p.append(0.0)
        elif isinstance(d, Deterministic):
            p.append(others(k, d.value))
        else:
            p.append(integral(lambda t: density(d, t) * others(k, t)))
        # MinStats holds p below 1e-12 as exactly 0, with cond_mean +inf
        if p[k] < 1e-12:
            p[k] = 0.0
            cond.append(math.inf)
        elif isinstance(d, Deterministic):
            cond.append(d.value)
        else:
            cond.append(integral(lambda t: t * density(d, t) * others(k, t)) / p[k])
    return p, cond, integral(lambda t: math.prod(c.survival(t) for c in finite))


def test_quadrature_against_scipy():
    pytest.importorskip("scipy")
    rng = np.random.default_rng(20160919)
    races = []
    while len(races) < 12:
        race = (Weibull(0.8, float(rng.uniform(0.4, 2.0))),
                *(random_component(rng) for _ in range(2)))
        atoms = [c.value for c in race if isinstance(c, Deterministic)]
        if len(atoms) == len(set(atoms)):
            races.append(tuple(race[i] for i in rng.permutation(3)))
    # closed-form races of exponentials and deadlines, one deadline short
    races += [(Exponential(2.0), Deterministic(1e-7), Exponential(0.5)),
              (Deterministic(2.0), Exponential(0.7), Deterministic(1.3))]
    spec = NetworkSpec(
        nodes=tuple(NodeSpec(components=race, routing=((0.0,) * len(races),) * 3)
                    for race in races),
        arrival_rates=(1.0,) * len(races))
    stats = compute_min_stats(spec)
    for n, race in enumerate(races):
        p, cond, mean_min = _scipy_min_stats(race)
        np.testing.assert_allclose(stats.p[n], p, rtol=1e-11, atol=0.0)
        np.testing.assert_allclose(stats.cond_mean[n], cond, rtol=1e-11, atol=0.0)
        assert stats.mean_min[n] == pytest.approx(mean_min, rel=1e-11, abs=0.0)
