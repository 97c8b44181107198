"""Exact equilibrium analysis.

The total flow into each (node, component) pair solves a linear system:
the flow is the achievement probability times the node's total inflow,
summed over external arrivals and internal transfers. In equilibrium every
node's occupancy is Poisson with mean rho_n = sum_k alpha_{n,k} *
cond_mean_{n,k}, and the joint law is the product of the marginals.

Also provided: the equivalent expanded network (one single-outcome node per
(node, component), Markovian routing weighted by downstream achievement
probabilities) solved as an independent cross-check, and the two naive
mean-value approximations (treat every component as exponential; or keep
the true routing split but use summed reciprocal means as the rate) that
the exact solution corrects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .distributions import MinStats, compute_min_stats, mean as dist_mean, sample
from .errors import InfiniteMeanError, OpennessError
from .model import Infinite, NetworkSpec

__all__ = [
    "TrafficSolution",
    "ProductForm",
    "ExpandedNetwork",
    "ExpandedSolution",
    "BaselineResult",
    "solve_traffic",
    "product_form",
    "expand_network",
    "solve_expanded",
    "baseline_full_insensitivity",
    "baseline_service_time_insensitivity",
]

_RESIDUAL_TOL = 1e-10


def _solve_open(A: np.ndarray, b: np.ndarray, what: str) -> tuple[np.ndarray, float]:
    """Solve A x = b by dense elimination and enforce the openness contract:
    the solution must be nonnegative with residual <= 1e-10 in max norm."""
    try:
        x = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise OpennessError(
            f"{what}: singular system — network not open "
            f"or numerically degenerate ({exc})") from exc
    residual = float(np.max(np.abs(A @ x - b))) if b.size else 0.0
    if residual > _RESIDUAL_TOL:
        raise OpennessError(
            f"{what}: residual {residual:.3e} exceeds {_RESIDUAL_TOL:.0e} — "
            "network not open or numerically degenerate")
    worst = int(np.argmin(x)) if x.size else 0
    if x.size and x[worst] < -_RESIDUAL_TOL:
        raise OpennessError(
            f"{what}: negative flow {x[worst]:.3e} at index {worst} — "
            "network not open or numerically degenerate")
    np.clip(x, 0.0, None, out=x)
    return x, residual


@dataclass
class TrafficSolution:
    """Flows alpha[n, k] into each (node, component) in equilibrium."""

    alpha: np.ndarray
    residual: float

    @property
    def node_totals(self) -> np.ndarray:
        """Total arrival rate into each node (external plus internal)."""
        return self.alpha.sum(axis=1)


def solve_traffic(spec: NetworkSpec, stats: MinStats) -> TrafficSolution:
    """Solve the flow equations alpha_{n,k} = p_{n,k} lambda_n +
    sum_{m,l} p_{n,k} P^l_{m,n} alpha_{m,l} as one dense linear system."""
    n_nodes, n_comp = stats.p.shape
    size = n_nodes * n_comp

    def idx(n: int, k: int) -> int:
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


def _poisson_pmf(x: np.ndarray, rho: float) -> np.ndarray:
    """Poisson(rho) pmf at the integers x >= 0, in log space:
    exp(x log rho - rho - lgamma(x + 1))."""
    x = np.asarray(x)
    if rho == 0:
        return (x == 0).astype(float)
    log_fact = np.array([math.lgamma(v + 1.0) for v in x.ravel()]).reshape(x.shape)
    return np.exp(x * math.log(rho) - rho - log_fact)


@dataclass
class ProductForm:
    """Equilibrium occupancy: independent Poisson(rho[n]) at each node."""

    rho: np.ndarray

    def marginal(self, n: int, x: int) -> float:
        """P(X_n = x)."""
        return float(_poisson_pmf(x, float(self.rho[n])))

    def joint(self, occupancy) -> float:
        """P(X_1 = x_1, ..., X_N = x_N) — the product of the marginals."""
        xs = tuple(occupancy)
        if len(xs) != len(self.rho):
            raise ValueError(
                f"occupancy vector has {len(xs)} entries, expected {len(self.rho)}")
        return float(np.prod([self.marginal(n, x) for n, x in enumerate(xs)]))

    def truncation(self, n: int) -> int:
        """Support bound used for tables and metrics; the tail mass beyond
        it is below 1e-12."""
        rho = float(self.rho[n])
        return math.ceil(rho + 12.0 * math.sqrt(rho) + 30.0)

    def marginal_pmf(self, n: int) -> np.ndarray:
        """pmf over 0..truncation(n) inclusive."""
        return _poisson_pmf(np.arange(self.truncation(n) + 1), float(self.rho[n]))


def product_form(spec: NetworkSpec, stats: Optional[MinStats] = None) -> ProductForm:
    """Exact equilibrium distribution of the network."""
    if stats is None:
        stats = compute_min_stats(spec)
    traffic = solve_traffic(spec, stats)
    rho = np.zeros(spec.n_nodes)
    mask = stats.p > 0
    contrib = np.zeros_like(stats.p)
    contrib[mask] = traffic.alpha[mask] * stats.cond_mean[mask]
    rho = contrib.sum(axis=1)
    return ProductForm(rho=rho)


@dataclass
class ExpandedNetwork:
    """The equivalent Markovian network with one node per (node, component).

    Expanded node i = node_ids[i] = (n, k) serves the original component k
    of node n conditioned on achieving the minimum; customers leaving it are
    routed to (m, l) with probability routing_from_original * achievement of
    (m, l), which makes the routing Markovian while preserving the joint law
    of every supernode (the group of expanded nodes sharing an original n).
    """

    spec: NetworkSpec
    node_ids: tuple[tuple[int, int], ...]
    routing: np.ndarray        # (NK, NK)
    external_rates: np.ndarray  # (NK,)
    cond_means: np.ndarray     # (NK,) mean service time; +inf where p = 0
    achievement: np.ndarray    # (NK,) flattened p
    supernode: tuple[int, ...]  # original node of each expanded node

    @property
    def n_expanded(self) -> int:
        return len(self.node_ids)

    def conditional_sampler(self, n: int, k: int) -> Callable[[np.random.Generator], float]:
        """Sampler for S_{n,k} given it achieves the minimum (rejection on
        joint draws of node n's finite components)."""
        node = self.spec.nodes[n]
        finite = [(j, d) for j, d in enumerate(node.components)
                  if not isinstance(d, Infinite)]
        if all(j != k for j, _ in finite):
            raise ValueError(f"component {k + 1} of node {n + 1} is infinite")
        p = self.achievement[n * self.spec.n_components + k]
        if p == 0:
            raise ValueError(
                f"component {k + 1} of node {n + 1} never achieves the minimum")

        def draw(rng: np.random.Generator) -> float:
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


def expand_network(spec: NetworkSpec, stats: Optional[MinStats] = None) -> ExpandedNetwork:
    """Build the equivalent expanded network: external rate p_{n,k} lambda_n
    into (n, k), routing (n,k) -> (m,l) with probability P^k_{n,m} p_{m,l}."""
    if stats is None:
        stats = compute_min_stats(spec)
    n_nodes, n_comp = stats.p.shape
    size = n_nodes * n_comp
    node_ids = tuple((n, k) for n in range(n_nodes) for k in range(n_comp))
    routing = np.zeros((size, size))
    external = np.zeros(size)
    for i, (n, k) in enumerate(node_ids):
        external[i] = stats.p[n, k] * spec.arrival_rates[n]
        row = spec.nodes[n].routing[k]
        for j, (m, l) in enumerate(node_ids):
            routing[i, j] = row[m] * stats.p[m, l]
    return ExpandedNetwork(
        spec=spec,
        node_ids=node_ids,
        routing=routing,
        external_rates=external,
        cond_means=stats.cond_mean.reshape(size).copy(),
        achievement=stats.p.reshape(size).copy(),
        supernode=tuple(n for n, _ in node_ids),
    )


@dataclass
class ExpandedSolution:
    """Per-expanded-node flows and occupancies plus supernode aggregates."""

    alpha: np.ndarray          # (NK,)
    rho: np.ndarray            # (NK,)
    supernode_rho: np.ndarray  # (N,)
    residual: float


def solve_expanded(expanded: ExpandedNetwork) -> ExpandedSolution:
    """Standard open-network infinite-server solve on the expanded network.

    This is an independent path to the same occupancies: supernode
    aggregates must match product_form's rho within 1e-9.
    """
    size = expanded.n_expanded
    coeff = np.eye(size) - expanded.routing.T
    alpha, residual = _solve_open(coeff, expanded.external_rates.copy(),
                                  "expanded network flow equations")
    alpha[expanded.achievement == 0] = 0.0
    rho = np.zeros(size)
    mask = expanded.achievement > 0
    rho[mask] = alpha[mask] * expanded.cond_means[mask]
    n_nodes = expanded.spec.n_nodes
    supernode_rho = np.zeros(n_nodes)
    np.add.at(supernode_rho, np.asarray(expanded.supernode), rho)
    return ExpandedSolution(alpha=alpha, rho=rho,
                            supernode_rho=supernode_rho, residual=residual)


@dataclass
class BaselineResult:
    """Occupancies from one of the naive single-rate approximations."""

    method: str
    rho: np.ndarray
    routing_used: np.ndarray  # (N, N) aggregated routing matrix
    rates_used: np.ndarray    # (N,) node service rates
    node_flows: np.ndarray    # (N,) solved node arrival rates


def _component_rates(spec: NetworkSpec) -> np.ndarray:
    """Reciprocal means per (node, component); Infinite components are a
    contract violation for the baseline methods."""
    rates = np.zeros((spec.n_nodes, spec.n_components))
    for n, node in enumerate(spec.nodes):
        for k, comp in enumerate(node.components):
            if isinstance(comp, Infinite):
                raise InfiniteMeanError(
                    f"baseline methods need finite means; component "
                    f"{k + 1} of node {n + 1} is infinite")
            rates[n, k] = 1.0 / dist_mean(comp)
    return rates


def _route_tensor(spec: NetworkSpec) -> np.ndarray:
    """routing[n, k, m] as one array."""
    return np.array([[list(row) for row in node.routing] for node in spec.nodes])


def _baseline_solve(spec: NetworkSpec, weights: np.ndarray,
                    node_rates: np.ndarray, method: str) -> BaselineResult:
    routes = _route_tensor(spec)
    q = np.einsum("nk,nkm->nm", weights, routes)
    lam = np.asarray(spec.arrival_rates, dtype=float)
    flows, _ = _solve_open(np.eye(spec.n_nodes) - q.T, lam.copy(),
                           f"{method} flow equations")
    return BaselineResult(method=method, rho=flows / node_rates,
                          routing_used=q, rates_used=node_rates,
                          node_flows=flows)


def baseline_full_insensitivity(spec: NetworkSpec) -> BaselineResult:
    """Pretend every component is exponential with its mean preserved: node
    rate sum of reciprocal means, routing mixed by rate share."""
    rates = _component_rates(spec)
    node_rates = rates.sum(axis=1)
    return _baseline_solve(spec, rates / node_rates[:, None], node_rates,
                           "full_insensitivity")


def baseline_service_time_insensitivity(
        spec: NetworkSpec, stats: Optional[MinStats] = None) -> BaselineResult:
    """Keep the true achievement probabilities in the routing mix but still
    use the summed reciprocal means as each node's service rate."""
    rates = _component_rates(spec)
    if stats is None:
        stats = compute_min_stats(spec)
    return _baseline_solve(spec, stats.p, rates.sum(axis=1),
                           "service_time_insensitivity")
