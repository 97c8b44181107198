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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distributions import MinStats, compute_min_stats
from .errors import InfiniteMeanError, OpennessError
from .model import NetworkSpec, route_tensor

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
    the residual ||A x - b|| must be at most 1e-10 ||b|| and no flow may be
    below -1e-10 ||x|| (max norms). Both bounds scale with the arrival
    rates; a near-singular system, whose solution blows up, still fails the
    first. Returns x, clipped at 0, and the absolute residual."""
    try:
        x = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise OpennessError(
            f"{what}: singular system — network not open "
            f"or numerically degenerate ({exc})") from exc
    if not b.size:
        return x, 0.0
    # ndarray methods: np.max and friends cost several times more per call
    # on the small systems that compare solves three times
    residual = float(np.abs(A @ x - b).max())
    bound = _RESIDUAL_TOL * float(np.abs(b).max())
    if not residual <= bound:
        raise OpennessError(
            f"{what}: residual {residual:.3e} exceeds {bound:.3e} "
            f"({_RESIDUAL_TOL:.0e} of the largest inflow) — "
            "network not open or numerically degenerate")
    worst = int(x.argmin())
    if x[worst] < -_RESIDUAL_TOL * float(np.abs(x).max()):
        raise OpennessError(
            f"{what}: negative flow {x[worst]:.3e} at index {worst} — "
            "network not open or numerically degenerate")
    np.maximum(x, 0.0, out=x)
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
    sum_{m,l} p_{n,k} P^l_{m,n} alpha_{m,l} as one dense linear system.

    Raises OpennessError when the system is singular or the solve is
    numerically degenerate, as it is for a network that is not open."""
    n_nodes, n_comp = stats.p.shape
    size = n_nodes * n_comp
    coeff = np.eye(size) - np.einsum(
        "nk,mln->nkml", stats.p, route_tensor(spec)).reshape(size, size)
    alpha, residual = _solve_open(coeff, _external_inflow(spec, stats),
                                  "traffic equations")
    alpha = alpha.reshape(n_nodes, n_comp)
    alpha[stats.p == 0] = 0.0
    return TrafficSolution(alpha=alpha, residual=residual)


def _external_inflow(spec: NetworkSpec, stats: MinStats) -> np.ndarray:
    """External arrival rate p_{n,k} lambda_n into each (node, component),
    flattened in (n, k) order."""
    return (stats.p * np.asarray(spec.arrival_rates)[:, None]).ravel()


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
    """Equilibrium occupancy: independent Poisson(rho[n]) at each node.

    ``traffic`` is the solution of the traffic equations that rho was
    computed from."""

    rho: np.ndarray
    traffic: TrafficSolution

    def truncation(self, n: int) -> int:
        """Support bound used for tables and metrics; the tail mass beyond
        it is below 1e-12."""
        rho = float(self.rho[n])
        return math.ceil(rho + 12.0 * math.sqrt(rho) + 30.0)

    def marginal_pmf(self, n: int, upto: Optional[int] = None) -> np.ndarray:
        """pmf over 0..upto inclusive; upto defaults to truncation(n)."""
        if upto is None:
            upto = self.truncation(n)
        return _poisson_pmf(np.arange(upto + 1), float(self.rho[n]))


def product_form(spec: NetworkSpec, stats: Optional[MinStats] = None) -> ProductForm:
    """Exact equilibrium distribution of the network."""
    if stats is None:
        stats = compute_min_stats(spec)
    traffic = solve_traffic(spec, stats)
    mask = stats.p > 0
    contrib = np.zeros_like(stats.p)
    contrib[mask] = traffic.alpha[mask] * stats.cond_mean[mask]
    return ProductForm(rho=contrib.sum(axis=1), traffic=traffic)


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


def expand_network(spec: NetworkSpec, stats: Optional[MinStats] = None) -> ExpandedNetwork:
    """Build the equivalent expanded network: external rate p_{n,k} lambda_n
    into (n, k), routing (n,k) -> (m,l) with probability P^k_{n,m} p_{m,l}."""
    if stats is None:
        stats = compute_min_stats(spec)
    n_nodes, n_comp = stats.p.shape
    size = n_nodes * n_comp
    node_ids = tuple((n, k) for n in range(n_nodes) for k in range(n_comp))
    routing = np.einsum("nkm,ml->nkml", route_tensor(spec), stats.p)
    return ExpandedNetwork(
        spec=spec,
        node_ids=node_ids,
        routing=routing.reshape(size, size),
        external_rates=_external_inflow(spec, stats),
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
    """Reciprocal means per (node, component); a component whose mean is
    not finite (an Infinite one, or a heavy-tailed law) is a contract
    violation for the baseline methods."""
    rates = np.zeros((spec.n_nodes, spec.n_components))
    for n, node in enumerate(spec.nodes):
        for k, comp in enumerate(node.components):
            mean = comp.mean()
            if not math.isfinite(mean):
                raise InfiniteMeanError(
                    f"baseline methods need finite means; component "
                    f"{k + 1} of node {n + 1} is infinite")
            rates[n, k] = 1.0 / mean
    return rates


def _baseline_solve(spec: NetworkSpec, weights: np.ndarray,
                    node_rates: np.ndarray, method: str) -> BaselineResult:
    routes = route_tensor(spec)
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
