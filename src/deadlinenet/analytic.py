"""Exact equilibrium analysis.

The race at a node is decided afresh at each visit, so the flow into
(node n, component k) is p_{n,k} Lambda_n, where Lambda_n is the node's
total inflow. The total inflows solve the node-level traffic equations
Lambda = lambda + Q^T Lambda with the achievement-weighted routing
Q_{n,m} = sum_k p_{n,k} P^k_{n,m}: one N x N linear system, the classical
form for product-form networks (Kelly, Reversibility and Stochastic
Networks, 1979, ch. 3). In equilibrium every node's occupancy is Poisson
with mean rho_n = sum_k alpha_{n,k} * cond_mean_{n,k}, and the joint law is
the product of the marginals. product_form solves this once per spec and
returns it as one ProductForm record: rho, alpha, the node flows Lambda and
the residual of the solve.

Also provided: the equivalent expanded network (one single-outcome node per
(node, component), Markovian routing weighted by downstream achievement
probabilities), which solve_expanded builds from the spec and solves as
an independent cross-check, one (NK) x (NK) flow system returned with its
routing and external rates; and the two naive mean-value approximations
(treat every component as exponential; or keep the true routing split but
use summed reciprocal means as the rate) that the exact solution corrects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distributions import compute_min_stats
from .errors import InfiniteMeanError, InvalidNetworkError, OpennessError
from .model import (
    NetworkSpec,
    once_per_spec,
    structural_violations,
    trapped_nodes,
)

__all__ = [
    "ProductForm",
    "ExpandedSolution",
    "BaselineResult",
    "product_form",
    "solve_expanded",
    "baseline_full_insensitivity",
    "baseline_service_time_insensitivity",
]

_RESIDUAL_TOL = 1e-10


def _solve_open(A: np.ndarray, b: np.ndarray, what: str, routes: np.ndarray,
                wins: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve A x = b by dense elimination and enforce the openness contract.

    Openness is decided exactly first: the system is rejected when
    :func:`model.trapped_nodes` finds a node on ``routes`` whose customers,
    served by the pairs in ``wins``, can never leave. The solve then must
    have a residual ||A x - b|| of at most 1e-10 ||b|| and no flow below
    -1e-10 ||x|| (max norms). Both bounds scale with the arrival rates; a
    near-singular system, whose solution blows up, still fails the first.
    Returns x, clipped at 0, and the absolute residual."""
    trapped = trapped_nodes(routes, wins)
    if trapped:
        raise OpennessError(
            f"{what}: customers at node(s) "
            f"{', '.join(str(n + 1) for n in trapped)} can never leave — "
            "network not open")
    try:
        x = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise OpennessError(
            f"{what}: singular system — network not open "
            f"or numerically degenerate ({exc})") from exc
    # ndarray methods: np.max and friends cost several times more per call
    # on the small systems that compare solves twice. An overflowed flow
    # makes the residual inf or nan, which the bound below rejects with its
    # own message, so numpy's warning would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
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


def _solve_node_flows(spec: NetworkSpec, weights: np.ndarray,
                      what: str) -> tuple[np.ndarray, float]:
    """Node inflows Lambda = lambda + Q^T Lambda, when a customer leaves
    node n by component k's routing row with probability weights[n, k]:
    Q_{n,m} = sum_k weights[n, k] P^k_{n,m}. Returns Lambda, residual."""
    routes = spec.route_tensor
    q = np.einsum("nk,nkm->nm", weights, routes)
    lam = np.asarray(spec.arrival_rates, dtype=float)
    return _solve_open(np.eye(spec.n_nodes) - q.T, lam, what, routes,
                       weights > 0)


def _poisson_pmf(x: np.ndarray, rho: float) -> np.ndarray:
    """Poisson(rho) pmf at the integers x >= 0, in log space:
    exp(x log rho - rho - lgamma(x + 1))."""
    x = np.asarray(x)
    if rho == 0:
        return (x == 0).astype(float)
    log_fact = np.fromiter(map(math.lgamma, (x.ravel() + 1.0).tolist()),
                           float, x.size).reshape(x.shape)
    return np.exp(x * math.log(rho) - rho - log_fact)


@dataclass(frozen=True)
class ProductForm:
    """Equilibrium of the network: independent Poisson(rho[n]) occupancy at
    each node, with the solution of the traffic equations it comes from:
    flows[n] into each node (external plus internal), alpha[n, k] =
    p_{n,k} flows[n] into each (node, component), and the absolute
    residual of the node solve. From :func:`product_form`, all three
    arrays are read-only."""

    rho: np.ndarray
    alpha: np.ndarray
    flows: np.ndarray
    residual: float

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


def product_form(spec: NetworkSpec) -> ProductForm:
    """Exact equilibrium distribution of the network, solved once per spec
    object (see :func:`model.once_per_spec`).

    Each visit to node n starts a fresh race, so the node inflows solve the
    N x N traffic equations Lambda_n = lambda_n + sum_{m,k} Lambda_m
    p_{m,k} P^k_{m,n}, and alpha_{n,k} = p_{n,k} Lambda_n solves the
    per-(node, component) equations alpha_{n,k} = p_{n,k} (lambda_n +
    sum_{m,l} P^l_{m,n} alpha_{m,l}) exactly. Then rho_n = sum_k alpha_{n,k}
    cond_mean_{n,k}.

    Raises OpennessError when customers at some node can never leave, or
    when the solve is singular or numerically degenerate."""
    return once_per_spec(spec, _product_form)


def _product_form(spec: NetworkSpec) -> ProductForm:
    stats = compute_min_stats(spec)
    flows, residual = _solve_node_flows(spec, stats.p, "traffic equations")
    alpha = stats.p * flows[:, None]
    mask = stats.p > 0
    contrib = np.zeros_like(stats.p)
    contrib[mask] = alpha[mask] * stats.cond_mean[mask]
    rho = contrib.sum(axis=1)
    for array in (rho, alpha, flows):
        array.flags.writeable = False
    return ProductForm(rho=rho, alpha=alpha, flows=flows, residual=residual)


@dataclass
class ExpandedSolution:
    """The equivalent Markovian network with one node per (node, component),
    solved: its routing and external rates, per-expanded-node flows and
    occupancies, and supernode aggregates.

    Expanded node i = n K + k serves component k of node n conditioned on
    achieving the minimum (its p and cond_mean in compute_min_stats). Its
    external rate is p_{n,k} lambda_n, and customers leaving it are routed
    to (m, l) with probability P^k_{n,m} p_{m,l}, which makes the routing
    Markovian while preserving the joint law of every supernode (the group
    of expanded nodes sharing an original n).
    """

    routing: np.ndarray         # (NK, NK)
    external_rates: np.ndarray  # (NK,)
    alpha: np.ndarray           # (NK,)
    rho: np.ndarray             # (NK,)
    supernode_rho: np.ndarray   # (N,)
    residual: float


def solve_expanded(spec: NetworkSpec) -> ExpandedSolution:
    """Build the expanded network and solve it as a standard open
    infinite-server network.

    This is the one (NK) x (NK) solve, an independent path to the
    occupancies that product_form gets from the N x N node system: the
    supernode aggregates must match its rho to within 1e-9 relative.
    """
    stats = compute_min_stats(spec)
    p = stats.p.ravel()
    routing = np.einsum("nkm,ml->nkml", spec.route_tensor,
                        stats.p).reshape(p.size, p.size)
    external = (stats.p * np.asarray(spec.arrival_rates)[:, None]).ravel()
    alpha, residual = _solve_open(np.eye(p.size) - routing.T, external,
                                  "expanded network flow equations",
                                  spec.route_tensor, stats.p > 0)
    mask = p > 0
    alpha[~mask] = 0.0
    rho = np.zeros(p.size)
    rho[mask] = alpha[mask] * stats.cond_mean.ravel()[mask]
    # column by column, left to right: each node's K terms in index order
    supernode_rho = np.zeros(spec.n_nodes)
    for column in rho.reshape(spec.n_nodes, spec.n_components).T:
        supernode_rho += column
    return ExpandedSolution(routing=routing, external_rates=external,
                            alpha=alpha, rho=rho,
                            supernode_rho=supernode_rho, residual=residual)


@dataclass(frozen=True)
class BaselineResult:
    """Occupancies from one of the naive single-rate approximations."""

    method: str
    rho: np.ndarray
    rates_used: np.ndarray    # (N,) node service rates
    node_flows: np.ndarray    # (N,) solved node arrival rates


def _component_rates(spec: NetworkSpec) -> np.ndarray:
    """Reciprocal means per (node, component) of a structurally valid
    spec, read-only; a component whose mean is not finite (an Infinite
    one, or a heavy-tailed law) is a contract violation for the baseline
    methods. Both baselines read it through :func:`model.once_per_spec`."""
    report = structural_violations(spec)
    if report:
        raise InvalidNetworkError(report)
    rates = np.zeros((spec.n_nodes, spec.n_components))
    for n, node in enumerate(spec.nodes):
        for k, comp in enumerate(node.components):
            mean = comp.mean()
            if not math.isfinite(mean):
                raise InfiniteMeanError(
                    f"baseline methods need finite means; component "
                    f"{k + 1} of node {n + 1} is infinite")
            rates[n, k] = 1.0 / mean
    rates.flags.writeable = False
    return rates


def baseline_full_insensitivity(spec: NetworkSpec) -> BaselineResult:
    """Pretend every component is exponential with its mean preserved: node
    rate sum of reciprocal means, routing mixed by rate share."""
    rates = once_per_spec(spec, _component_rates)
    node_rates = rates.sum(axis=1)
    flows, _ = _solve_node_flows(spec, rates / node_rates[:, None],
                                 "full_insensitivity flow equations")
    return BaselineResult(method="full_insensitivity", rho=flows / node_rates,
                          rates_used=node_rates, node_flows=flows)


def baseline_service_time_insensitivity(spec: NetworkSpec) -> BaselineResult:
    """Keep the true achievement probabilities in the routing mix but still
    use the summed reciprocal means as each node's service rate. That
    routing mix is the exact one, so the node flows are the read-only
    ``flows`` of :func:`product_form`."""
    node_rates = once_per_spec(spec, _component_rates).sum(axis=1)
    flows = product_form(spec).flows
    return BaselineResult(method="service_time_insensitivity",
                          rho=flows / node_rates,
                          rates_used=node_rates, node_flows=flows)
