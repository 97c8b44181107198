"""Shared test utilities: an independent Monte Carlo oracle for minimum
statistics, a reference Poisson pmf, and random network generators for
property checks."""

import math

import numpy as np

from deadlinenet import (
    Deterministic,
    Exponential,
    Infinite,
    NetworkSpec,
    NodeSpec,
    Uniform,
    Weibull,
    validate,
)


def poisson_pmf(x, rho):
    """Poisson(rho) pmf at the integer x, by its closed form."""
    return math.exp(-rho) * rho**x / math.factorial(x)


def mc_draws(dist, n, rng):
    """Draw n variates using numpy's own samplers — deliberately a
    different code path from the package's inverse transforms."""
    if isinstance(dist, Exponential):
        return rng.exponential(1.0 / dist.rate, n)
    if isinstance(dist, Deterministic):
        return np.full(n, dist.value)
    if isinstance(dist, Uniform):
        return rng.uniform(dist.lo, dist.hi, n)
    if isinstance(dist, Weibull):
        return dist.scale * rng.weibull(dist.shape, n)
    raise TypeError(f"cannot draw from {dist!r}")


def mc_min_stats(components, n, rng):
    """Empirical achievement probabilities, conditional means, and mean
    minimum from n joint draws, with standard errors.

    Returns (p, p_se, cond_mean, cond_mean_se, mean_min, mean_min_se);
    conditional entries are NaN for components that never won.
    """
    finite = [k for k, d in enumerate(components)
              if not isinstance(d, Infinite)]
    draws = np.vstack([mc_draws(components[k], n, rng) for k in finite])
    winner = draws.argmin(axis=0)
    minima = draws.min(axis=0)
    n_comp = len(components)
    p = np.zeros(n_comp)
    p_se = np.zeros(n_comp)
    cond = np.full(n_comp, np.nan)
    cond_se = np.full(n_comp, np.nan)
    for slot, k in enumerate(finite):
        won = winner == slot
        count = int(won.sum())
        p[k] = count / n
        p_se[k] = np.sqrt(p[k] * (1.0 - p[k]) / n)
        if count:
            winners = draws[slot][won]
            cond[k] = winners.mean()
            cond_se[k] = (winners.std(ddof=1) / np.sqrt(count)
                          if count > 1 else 0.0)
    return p, p_se, cond, cond_se, minima.mean(), minima.std(ddof=1) / np.sqrt(n)


def random_routing_row(rng, n_nodes, max_total=0.85):
    """Strictly substochastic row: total mass in [0.2, max_total]."""
    total = rng.uniform(0.2, max_total)
    parts = rng.dirichlet(np.ones(n_nodes)) * total
    return tuple(float(x) for x in parts)


def random_exponential_network(rng, max_nodes=4, max_components=3):
    n_nodes = int(rng.integers(1, max_nodes + 1))
    n_comp = int(rng.integers(1, max_components + 1))
    nodes = []
    for _ in range(n_nodes):
        comps = tuple(Exponential(float(rng.uniform(0.4, 3.0)))
                      for _ in range(n_comp))
        routing = tuple(random_routing_row(rng, n_nodes)
                        for _ in range(n_comp))
        nodes.append(NodeSpec(components=comps, routing=routing))
    rates = tuple(float(rng.uniform(0.2, 1.5)) for _ in range(n_nodes))
    spec = NetworkSpec(nodes=tuple(nodes), arrival_rates=rates)
    assert validate(spec) == []
    return spec


def random_component(rng):
    kind = int(rng.integers(4))
    if kind == 0:
        return Exponential(float(rng.uniform(0.4, 3.0)))
    if kind == 1:
        return Deterministic(float(rng.uniform(0.3, 2.5)))
    if kind == 2:
        lo = float(rng.uniform(0.0, 1.0))
        return Uniform(lo, lo + float(rng.uniform(0.3, 2.0)))
    return Weibull(float(rng.uniform(0.8, 2.5)), float(rng.uniform(0.4, 2.0)))


def random_general_network(rng, max_nodes=3, max_components=3):
    n_nodes = int(rng.integers(1, max_nodes + 1))
    n_comp = int(rng.integers(1, max_components + 1))
    nodes = []
    for _ in range(n_nodes):
        while True:
            comps = tuple(random_component(rng) for _ in range(n_comp))
            values = [d.value for d in comps if isinstance(d, Deterministic)]
            if len(values) == len(set(values)):
                break
        routing = tuple(random_routing_row(rng, n_nodes)
                        for _ in range(n_comp))
        nodes.append(NodeSpec(components=comps, routing=routing))
    rates = tuple(float(rng.uniform(0.2, 1.5)) for _ in range(n_nodes))
    spec = NetworkSpec(nodes=tuple(nodes), arrival_rates=rates)
    assert validate(spec) == []
    return spec
