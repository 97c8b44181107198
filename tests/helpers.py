"""Shared test utilities: the single-race statistics, the canonical
scenario text, the earlier routing-row parser as the reference for the
one-pass one, the earlier simulator routing table as the reference for
the one built from route_tensor, an independent Monte Carlo oracle for minimum
statistics, a single-draw inverse-transform sampler, the densities of the atomless
laws, a reference Poisson pmf, the per-(node, component) traffic
equations and the expanded network assembled entry by entry as references
for the node-level solve and the vectorised expansion, the box scan of
the product-form deviation, the earlier unpruned scan of its rank-neighbour
candidates and the total variation over the union of two supports as
references, samplers and the joint pmf of the exact solution,
random network generators for property checks, the whole-string
renderer of CLI documents as the reference for the streaming writer, a
call counter for the functions the program computes once, and a runner of
code in a fresh interpreter on the source tree."""

import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

import deadlinenet
from deadlinenet import (
    Deterministic,
    Exponential,
    Infinite,
    NetworkSpec,
    NodeSpec,
    Uniform,
    Weibull,
    compute_min_stats,
    empirical_marginal,
    validate,
)
from deadlinenet.cli import _CSV_HEADER, _csv_cell, _text_cell
from deadlinenet.config import _fail, _parse_float, _parse_int, setting_items
from deadlinenet.distributions import _race_stats


def min_probability(components, k, context="race"):
    """P(component k achieves the minimum of the given components)."""
    p, _, _ = _race_stats([tuple(components)], [context])
    return float(p[0, k])


def conditional_mean_given_min(components, k, context="race"):
    """E[S_k | S_k achieved the minimum]; requires min_probability > 0."""
    p, cond, _ = _race_stats([tuple(components)], [context])
    if not p[0, k] > 0:
        raise ValueError(
            f"conditional mean undefined for {context} component {k + 1}: "
            "it never achieves the minimum")
    return float(cond[0, k])


def expected_min(components, context="race"):
    """E[min of the components] = integral of the survival product."""
    if all(isinstance(c, Infinite) for c in components):
        raise ValueError("expected_min requires at least one finite component")
    _, _, mean_min = _race_stats([tuple(components)], [context])
    return float(mean_min[0])


def _render_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def render_scenario(cfg):
    """Canonical text form; parse_scenario(render_scenario(cfg)) == cfg."""
    spec = cfg.network
    lines = ["[network]",
             f"nodes = {spec.n_nodes}",
             f"components = {spec.n_components}",
             "arrivals = " + ", ".join(repr(r) for r in spec.arrival_rates)]
    for i, node in enumerate(spec.nodes, start=1):
        comps = ", ".join(d.token() for d in node.components)
        lines.append(f"node{i}.components = {comps}")
        for k, row in enumerate(node.routing, start=1):
            entries = ", ".join(f"{m}: {q!r}"
                                for m, q in enumerate(row, start=1) if q > 0.0)
            if entries:
                lines.append(f"node{i}.route{k} = {entries}")
            else:
                lines.append(f"node{i}.route{k} =")
    for section, obj in (("sim", cfg.sim), ("outputs", cfg.outputs)):
        lines += ["", f"[{section}]"]
        lines += [f"{key} = {_render_value(value)}"
                  for key, value in setting_items(section, obj)
                  if value is not None]
    return "\n".join(lines) + "\n"


def reference_parse_route(section: str, key: str, raw: str,
                          n_nodes: int) -> tuple[float, ...]:
    """config._parse_route as it was before its one-pass fast path: the
    reference for the values and errors of every routing row."""
    row = [0.0] * n_nodes
    raw = raw.strip()
    if not raw:
        return tuple(row)
    # fast path for a well-formed row: int and float accept the same
    # spellings here as below, and strict zip fails unless every entry has
    # exactly one colon; any failure re-reads the row entry by entry below,
    # which raises the located error
    try:
        targets, probs = zip(*[entry.split(":") for entry in raw.split(",")],
                             strict=True)
        targets = list(map(int, targets))
        probs = list(map(float, probs))
    except ValueError:
        targets = []
    if (targets and min(targets) >= 1 and max(targets) <= n_nodes
            and len(set(targets)) == len(targets)):
        for target, prob in zip(targets, probs):
            row[target - 1] = prob
        return tuple(row)
    seen = set()
    for entry in raw.split(","):
        target_text, sep, prob_text = entry.partition(":")
        if not sep:
            raise _fail(section, key,
                        f"expected 'target: probability', got {entry.strip()!r}")
        target = _parse_int(section, key, target_text.strip())
        if not 1 <= target <= n_nodes:
            raise _fail(section, key,
                        f"target {target} out of range 1..{n_nodes}")
        if target in seen:
            raise _fail(section, key, f"duplicate target {target}")
        seen.add(target)
        row[target - 1] = _parse_float(section, key, prob_text.strip())
    return tuple(row)


def reference_route_tables(spec):
    """simulate._route_tables as it was when it walked the routing tuples
    entry by entry: the reference for the table built from route_tensor."""
    rows = [[(m, q) for m, q in enumerate(row) if q > 0.0]
            for node in spec.nodes for row in node.routing]
    width = max(len(row) for row in rows)
    thresholds = np.zeros((len(rows), width))
    targets = np.full((len(rows), width + 1), spec.n_nodes)
    for r, row in enumerate(rows):
        acc = 0.0
        for j, (m, q) in enumerate(row):
            acc += q
            thresholds[r, j] = acc
            targets[r, j] = m
        thresholds[r, len(row):] = acc
    return thresholds, targets


def random_signed_zero_network(rng, max_nodes=6, empty=False):
    """Network of 1 to max_nodes nodes and 1-3 exponential components whose
    routing rows mix positive entries with 0.0 and -0.0; every row is empty
    (zeros of either sign) when ``empty`` is set. Only the routing is
    meant to be read: the rows are not checked for openness."""
    n_nodes = int(rng.integers(1, max_nodes + 1))
    n_comp = int(rng.integers(1, 4))
    nodes = []
    for _ in range(n_nodes):
        kind = rng.integers(3, size=(n_comp, n_nodes))
        if empty:
            kind[kind == 2] = 0
        mass = rng.dirichlet(np.ones(n_nodes), size=n_comp)
        mass *= rng.uniform(0.1, 1.0, size=(n_comp, 1))
        rows = np.where(kind == 2, mass, np.where(kind == 1, -0.0, 0.0))
        nodes.append(NodeSpec(
            components=tuple(Exponential(1.0) for _ in range(n_comp)),
            routing=tuple(tuple(map(float, row)) for row in rows)))
    return NetworkSpec(nodes=tuple(nodes), arrival_rates=(1.0,) * n_nodes)


def _law_tokens():
    """Scenario tokens of every law, parameters log-uniform in [1e-3, 1e3]."""
    param = st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)
    pair = st.tuples(param, param)
    return st.one_of(
        param.map("exp(rate={!r})".format),
        param.map("det(value={!r})".format),
        pair.map(lambda b: "uniform({!r}, {!r})".format(*sorted(b))),
        pair.map(lambda b: "weibull({!r}, {!r})".format(*b)),
        st.just("inf"))


@st.composite
def scenario_texts(draw, max_nodes=3, max_components=3, max_rate=3.0):
    """Scenario text of 1 to max_nodes nodes with 1 to max_components
    components of any law, arrival rates in [0, max_rate] and sparse routing
    rows whose masses include 0, 1 and 1 - 10^-k. Most texts are valid;
    the rest hold ties, closed rows or overfull rows."""
    n_nodes = draw(st.integers(1, max_nodes))
    n_comp = draw(st.integers(1, max_components))
    rates = draw(st.lists(st.floats(0.0, max_rate), min_size=n_nodes,
                          max_size=n_nodes))
    lines = ["[network]", f"nodes = {n_nodes}", f"components = {n_comp}",
             "arrivals = " + ", ".join(map(repr, rates))]
    masses = st.one_of(st.floats(0.0, 1.0), st.sampled_from(
        [0.0, 1.0] + [1.0 - 10.0 ** -k for k in (1, 3, 7, 11, 15)]))
    for i in range(1, n_nodes + 1):
        tokens = draw(st.lists(_law_tokens(), min_size=n_comp,
                               max_size=n_comp))
        lines.append(f"node{i}.components = " + ", ".join(tokens))
        for k in range(1, n_comp + 1):
            targets = draw(st.lists(st.integers(1, n_nodes), unique=True,
                                    max_size=n_nodes))
            mass = draw(masses)
            share = mass / max(len(targets), 1)
            probs = [share] * (len(targets) - 1) + [
                mass - share * (len(targets) - 1)]
            lines.append(f"node{i}.route{k} = " + ", ".join(
                f"{m}: {q!r}" for m, q in zip(targets, probs)))
    return "\n".join(lines) + "\n"


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


def conditional_sampler(spec, n, k):
    """Sampler for S_{n,k}, the service of expanded node (n, k), given that
    it achieves the minimum (rejection on joint draws of node n's finite
    components)."""
    node = spec.nodes[n]
    finite = [(j, d) for j, d in enumerate(node.components)
              if not isinstance(d, Infinite)]
    if all(j != k for j, _ in finite):
        raise ValueError(f"component {k + 1} of node {n + 1} is infinite")
    p = compute_min_stats(spec).p[n, k]
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
    """Flows alpha[n, k] from the per-(node, component) traffic equations
    alpha_{n,k} = p_{n,k} lambda_n + sum_{m,l} p_{n,k} P^l_{m,n} alpha_{m,l},
    assembled entry by entry and solved as one (NK) x (NK) system: the
    reference for the node-level solve in product_form."""
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
    return np.linalg.solve(coeff, b).reshape(n_nodes, n_comp)


def loop_expansion(spec, stats):
    """(routing, external_rates) of the expanded network assembled entry by
    entry: the reference for solve_expanded."""
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


def box_scan_deviation(result):
    """sup |empirical joint - product of empirical marginals| by a scan of
    every cell of the box spanned by each node's visited occupancy range:
    the reference for product_form_deviation."""
    if result.joint_weights is None:
        raise ValueError("joint occupancy was not recorded; "
                         "rerun with record_joint=True")
    duration = result.effective_duration
    visited = dict(zip(map(tuple, result.joint_states.tolist()),
                       result.joint_weights.tolist()))
    ranges = []
    per_node = []
    for weights in result.marginal_weights:
        lo, hi = min(weights), max(weights)
        ranges.append(range(lo, hi + 1))
        per_node.append({x: weights.get(x, 0.0) / duration
                         for x in range(lo, hi + 1)})
    worst = 0.0
    for state in itertools.product(*ranges):
        joint = visited.get(state, 0.0) / duration
        prod = 1.0
        for n, x in enumerate(state):
            prod *= per_node[n][x]
        dev = abs(joint - prod)
        if dev > worst:
            worst = dev
    return worst


def candidate_scan_deviation(result):
    """sup |empirical joint - product of empirical marginals| from the
    visited states and every one of their rank-neighbour candidates, each
    product multiplied out in full, node by node: the reference for the
    pruned search of product_form_deviation where the box is too large to
    scan."""
    pmfs = [empirical_marginal(result, n)
            for n in range(result.joint_states.shape[1])]
    states, weights = result.joint_states, result.joint_weights
    n_nodes = len(pmfs)
    nodes = np.arange(n_nodes)[:, None]
    size = np.array([len(pmf) for pmf in pmfs])
    # marginal[n, x]: zero at unvisited occupancies and in the padding past
    # the largest, which ends every node's rank order
    marginal = np.zeros((n_nodes, size.max() + 1))
    for n, pmf in enumerate(pmfs):
        marginal[n, :len(pmf)] = pmf
    # stable, so in-range zeros rank before the padding
    order = np.argsort(-marginal, axis=1, kind="stable")
    ranked = marginal[nodes, order]
    # the position in order of the occupancy one rank worse
    worse = np.empty_like(order)
    worse[nodes, order] = np.arange(1, order.shape[1] + 1)

    # one column per visited state
    cells = states.T
    # the simulator records only states held for a positive time, all
    # inside the box; a result built by hand may list others
    inside = (cells < size[:, None]).all(axis=0)
    if not inside.all():
        cells, weights = cells[:, inside], weights[inside]
    product = marginal[0, cells[0]]
    for n in range(1, n_nodes):
        product *= marginal[n, cells[n]]
    worst = float(np.abs(weights / result.effective_duration - product)
                  .max(initial=0.0))

    # node by node, the products at the cells one rank worse at node n
    # than a visited state, formed left to right on top of that state's
    # product over the nodes before n
    products = [np.cumprod(ranked[:, 0])[-1:]]
    candidates = [order[:, :1]]
    for n in range(n_nodes):
        position = worse[n, cells[n]]
        product = ranked[n, position]
        if n:
            product *= prefix
        for k in range(n + 1, n_nodes):
            product *= marginal[k, cells[k]]
        keep = (product > worst).nonzero()[0]
        moved = cells[:, keep]
        moved[n] = order[n, position[keep]]
        products.append(product[keep])
        candidates.append(moved)
        factor = marginal[n, cells[n]]
        prefix = factor * prefix if n else factor
    products = np.concatenate(products)
    cells = np.concatenate(candidates, axis=1).T
    # a row of non-negative integers, each written as big-endian bytes,
    # compares bytewise as the rows compare, node 1 first: the order of
    # the visited states, so membership is one binary search
    row = f"V{8 * n_nodes}"
    visited = np.ascontiguousarray(states, ">u8").view(row)[:, 0]
    queries = np.ascontiguousarray(cells, ">u8").view(row)[:, 0]
    at = visited.searchsorted(queries).clip(max=len(visited) - 1)
    return float(products[visited[at] != queries].max(initial=worst))


def union_total_variation(p, q):
    """(1/2) sum |p(x) - q(x)| of two pmfs given as {occupancy: probability}
    mappings, over the union of their supports in increasing order: the
    reference for total_variation."""
    support = sorted(set(p) | set(q))
    return 0.5 * sum(abs(p.get(x, 0.0) - q.get(x, 0.0)) for x in support)


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
    return mixed_network(rng, n_nodes, n_comp)


def mixed_network(rng, n_nodes, n_comp, max_total=0.85,
                  rate_range=(0.2, 1.5)):
    """Valid network of n_nodes nodes with n_comp components of mixed laws,
    routing rows of total mass at most max_total and arrival rates drawn
    uniformly from ``rate_range``."""
    nodes = []
    for _ in range(n_nodes):
        while True:
            comps = tuple(random_component(rng) for _ in range(n_comp))
            values = [d.value for d in comps if isinstance(d, Deterministic)]
            if len(values) == len(set(values)):
                break
        routing = tuple(random_routing_row(rng, n_nodes, max_total)
                        for _ in range(n_comp))
        nodes.append(NodeSpec(components=comps, routing=routing))
    rates = tuple(float(rng.uniform(*rate_range)) for _ in range(n_nodes))
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


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f" and np.isfinite(value).all():
            return value.tolist()
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        value = float(value)
    if isinstance(value, float) and math.isinf(value):
        return None
    return value


def reference_render(doc, fmt):
    """A CLI document (tables with list rows, notes, payload) as one string:
    json.dumps(indent=2) of the converted payload, the joined CSV lines or
    the padded text tables. The reference for cli._write."""
    if fmt == "json":
        return json.dumps(_jsonable(doc.payload), indent=2) + "\n"
    if fmt == "csv":
        lines = [f"{_CSV_HEADER} {doc.kind}"]
        for name, header, rows in doc.tables:
            lines.append(f"## {name}")
            lines.append(",".join(header))
            for row in rows:
                lines.append(",".join(_csv_cell(v) for v in row))
        for note in doc.notes:
            lines.append(f"# {note}")
        return "\n".join(lines) + "\n"
    blocks = []
    for name, header, rows in doc.tables:
        cells = [header] + [[_text_cell(v) for v in row] for row in rows]
        widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
        lines = [f"== {name} =="]
        for r in cells:
            lines.append("  ".join(c.ljust(w)
                                   for c, w in zip(r, widths)).rstrip())
        blocks.append("\n".join(lines))
    body = "\n\n".join(blocks)
    if doc.notes:
        body += ("\n\n" if body else "") + "\n".join(doc.notes)
    return body + "\n"


def count_calls(monkeypatch, module, name):
    """Wrap module.name in every deadlinenet namespace that holds it and
    return the list its calls are appended to."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "deadlinenet" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def run_from_source(code, *args):
    """``python -c code *args`` with the source tree first on PYTHONPATH,
    as a source checkout runs the program."""
    src = str(Path(deadlinenet.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
