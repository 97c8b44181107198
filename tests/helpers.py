"""Shared test utilities: an independent Monte Carlo oracle for minimum
statistics, a single-draw inverse-transform sampler, the densities of the
atomless laws, a reference Poisson pmf, the loop assembly of the traffic and expanded-network systems as a
reference for the vectorised one, samplers and the joint pmf of the exact
solution, and random network generators for property checks."""

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
from deadlinenet.analytic import TrafficSolution, _solve_open


def sample(d, rng):
    """One draw from ``d`` by inverse transform of one uniform of ``rng``
    (none for a deterministic law), for single-draw checks."""
    if isinstance(d, Deterministic):
        return d.value
    if isinstance(d, Infinite):
        raise ValueError("an infinite component is never sampled")
    u = rng.random()
    if isinstance(d, Exponential):
        return -math.log1p(-u) / d.rate
    if isinstance(d, Uniform):
        return d.lo + u * (d.hi - d.lo)
    if isinstance(d, Weibull):
        return d.scale * (-math.log1p(-u)) ** (1.0 / d.shape)
    raise TypeError(f"unknown distribution {d!r}")


def density(d, t):
    """Density at t for the atomless laws; only evaluated at t > 0."""
    if isinstance(d, Exponential):
        return d.rate * math.exp(-d.rate * t)
    if isinstance(d, Uniform):
        if d.lo <= t < d.hi:
            return 1.0 / (d.hi - d.lo)
        return 0.0
    if isinstance(d, Weibull):
        if t <= 0:
            return 0.0
        z = t / d.scale
        return (d.shape / d.scale) * z ** (d.shape - 1) * math.exp(-(z ** d.shape))
    raise TypeError(f"{type(d).__name__} has no density")


def poisson_pmf(x, rho):
    """Poisson(rho) pmf at the integer x, by its closed form."""
    return math.exp(-rho) * rho**x / math.factorial(x)


def joint_pmf(pf, occupancy):
    """P(X_1 = x_1, ..., X_N = x_N) under the product form ``pf``: the
    product of the node marginals."""
    xs = tuple(occupancy)
    if len(xs) != len(pf.rho):
        raise ValueError(
            f"occupancy vector has {len(xs)} entries, expected {len(pf.rho)}")
    return float(np.prod([pf.marginal_pmf(n, x)[x] for n, x in enumerate(xs)]))


def conditional_sampler(expanded, n, k):
    """Sampler for S_{n,k} of an expanded network given that it achieves
    the minimum (rejection on joint draws of node n's finite components)."""
    node = expanded.spec.nodes[n]
    finite = [(j, d) for j, d in enumerate(node.components)
              if not isinstance(d, Infinite)]
    if all(j != k for j, _ in finite):
        raise ValueError(f"component {k + 1} of node {n + 1} is infinite")
    p = expanded.achievement[n * expanded.spec.n_components + k]
    if p == 0:
        raise ValueError(
            f"component {k + 1} of node {n + 1} never achieves the minimum")

    def draw(rng):
        while True:
            best = math.inf
            best_j = -1
            for j, d in finite:
                s = sample(d, rng)
                if s < best:
                    best = s
                    best_j = j
            if best_j == k:
                return best

    return draw


def loop_traffic(spec, stats):
    """solve_traffic with its system assembled entry by entry: the reference
    for the vectorised assembly."""
    n_nodes, n_comp = stats.p.shape
    size = n_nodes * n_comp

    def idx(n, k):
        return n * n_comp + k

    coeff = np.eye(size)
    b = np.zeros(size)
    for n in range(n_nodes):
        for k in range(n_comp):
            row = idx(n, k)
            p_nk = stats.p[n, k]
            b[row] = p_nk * spec.arrival_rates[n]
            for m in range(n_nodes):
                routing = spec.nodes[m].routing
                for l in range(n_comp):
                    coeff[row, idx(m, l)] -= p_nk * routing[l][n]
    alpha, residual = _solve_open(coeff, b, "traffic equations")
    alpha = alpha.reshape(n_nodes, n_comp)
    alpha[stats.p == 0] = 0.0
    return TrafficSolution(alpha=alpha, residual=residual)


def loop_expansion(spec, stats):
    """(routing, external_rates) of the expanded network assembled entry by
    entry: the reference for expand_network."""
    n_nodes, n_comp = stats.p.shape
    size = n_nodes * n_comp
    node_ids = [(n, k) for n in range(n_nodes) for k in range(n_comp)]
    routing = np.zeros((size, size))
    external = np.zeros(size)
    for i, (n, k) in enumerate(node_ids):
        external[i] = stats.p[n, k] * spec.arrival_rates[n]
        row = spec.nodes[n].routing[k]
        for j, (m, l) in enumerate(node_ids):
            routing[i, j] = row[m] * stats.p[m, l]
    return routing, external


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


def decimal_closed_network():
    """Three exponential nodes that route every customer onward as
    (0.7, 0.2, 0.1): closed, but each row sums to 0.9999999999999999 in
    floating point."""
    row = (0.7, 0.2, 0.1)
    nodes = tuple(NodeSpec(components=(Exponential(rate),), routing=(row,))
                  for rate in (1.0, 2.0, 3.0))
    return NetworkSpec(nodes=nodes, arrival_rates=(1.0, 0.0, 0.0))
