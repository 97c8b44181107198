"""Comparison of simulated, exact, and baseline occupancy distributions.

Every pmf here is a dense 1-d numpy array over occupancies 0, 1, ...; the
joint histogram is read as the simulator leaves it, the sorted arrays
``SimResult.joint_states`` and ``SimResult.joint_weights``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .analytic import (
    ProductForm,
    baseline_full_insensitivity,
    baseline_service_time_insensitivity,
    product_form,
)
from .errors import InfiniteMeanError
from .model import NetworkSpec, once_per_spec
from .simulate import SimResult

__all__ = [
    "ComparisonReport",
    "empirical_marginal",
    "product_form_deviation",
    "total_variation",
    "compare",
]


def empirical_marginal(result: SimResult, n: int) -> np.ndarray:
    """Time-average occupancy pmf of node n (weights / effective duration),
    dense on 0, 1, ..., the largest occupancy visited."""
    if not result.effective_duration > 0:
        raise ValueError("effective duration must be positive")
    weights = result.marginal_weights[n]
    pmf = np.zeros(max(weights) + 1)
    pmf[list(weights)] = list(weights.values())
    pmf /= result.effective_duration
    return pmf


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """(1/2) sum |p(x) - q(x)| of two pmfs given as 1-d arrays on 0, 1, ...;
    the shorter one is zero past its end."""
    gap = np.zeros(max(len(p), len(q)))
    gap[:len(p)] = p
    gap[:len(q)] -= q
    # left to right in occupancy order: numpy's pairwise sum rounds
    # differently in the last digits
    return 0.5 * sum(np.abs(gap).tolist())


def product_form_deviation(result: SimResult) -> float:
    """sup |empirical joint - product of empirical marginals|.

    The supremum runs over the box spanned by each node's visited
    occupancies; outside it the empirical joint is zero and so is the
    product. It is found exactly without enumerating the box, from the
    visited states J (``result.joint_states``), as the larger of two terms:

    - the maximum of |joint - product| over J. Each product is formed left
      to right, node by node, with the same float operations as a scan of
      the box, so this term is the scan's value bit for bit;
    - the largest product at a box cell outside J, where the joint is
      zero. Rank each node's occupancies by descending marginal. Rounded
      multiplication of non-negative floats is monotone in each factor,
      so a cell that is no worse in rank at every node has a product at
      least as large. The maximum over the complement of J is therefore
      reached at a minimal cell of the complement, one whose every
      neighbour a rank better at a single node lies in J. Such a cell is
      the all-top-rank cell, or d + e_n: a state d of J one rank worse at
      a single node n. Only these at most N |J| + 1 candidates are
      evaluated, one node at a time; the largest product among those
      outside J is found by binary search for each in the sorted rows of
      J, after dropping those that cannot exceed the first term.
    """
    if result.joint_states is None:
        raise ValueError("joint occupancy was not recorded; "
                         "rerun with record_joint=True")
    return _deviation(result, [empirical_marginal(result, n)
                               for n in range(result.joint_states.shape[1])])


def _deviation(result: SimResult, pmfs: list[np.ndarray]) -> float:
    """:func:`product_form_deviation` of ``result``, whose nodes' empirical
    pmfs are ``pmfs``."""
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


@dataclass
class ComparisonReport:
    """Side-by-side occupancy means plus distribution distances.

    ``mean_table[n]`` holds the four mean estimates for node n; baseline
    entries are None when a baseline rejects the network (infinite-mean
    component). ``marginal_distance[n]`` is the total-variation distance
    between node n's empirical pmf and its exact Poisson law.
    """

    mean_table: tuple[dict[str, Optional[float]], ...]
    marginal_distance: np.ndarray
    product_form_sup: Optional[float]
    sample_info: dict[str, float]


def _baseline_rho(solve, spec: NetworkSpec) -> Optional[np.ndarray]:
    """A baseline's occupancies, read-only; None when it rejects ``spec``."""
    try:
        rho = solve(spec).rho
    except InfiniteMeanError:
        return None
    rho.flags.writeable = False
    return rho


def _exact_side(spec: NetworkSpec) -> tuple[
        ProductForm, Optional[np.ndarray], Optional[np.ndarray],
        tuple[np.ndarray, ...]]:
    """Everything :func:`compare` reads of ``spec`` alone: the product
    form, each baseline's rho (None when it rejects the network) and each
    node's exact pmf over 0..truncation(n), all read-only. Computed once
    per spec object and kept on it (see :func:`model.once_per_spec`)."""
    return once_per_spec(spec, _solve_exact_side)


def _solve_exact_side(spec: NetworkSpec):
    pf = product_form(spec)
    full = _baseline_rho(baseline_full_insensitivity, spec)
    service = _baseline_rho(baseline_service_time_insensitivity, spec)
    exact = tuple(pf.marginal_pmf(n) for n in range(spec.n_nodes))
    for pmf in exact:
        pmf.flags.writeable = False
    return pf, full, service, exact


def compare(spec: NetworkSpec, result: SimResult) -> ComparisonReport:
    """Assemble the verification report for a run of ``spec``. Everything
    it reads of ``spec`` alone (the exact solution, both baselines, each
    node's exact marginal) is kept on ``spec``, a baseline's rejection
    included, so comparing many runs of one spec object computes it once;
    each later call pays only for the run's side, whose empirical pmfs it
    builds once. Raises ValueError when ``result`` is not a run of
    ``spec.n_nodes`` nodes."""
    if not len(result.means) == len(result.marginal_weights) == spec.n_nodes:
        raise ValueError(
            f"the result has {len(result.means)} node means and "
            f"{len(result.marginal_weights)} marginals; the spec has "
            f"{spec.n_nodes} nodes")
    pf, full, service, exact = _exact_side(spec)
    table = tuple(
        {
            "simulated": float(result.means[n]),
            "exact": float(pf.rho[n]),
            "full_insensitivity": None if full is None else float(full[n]),
            "service_time_insensitivity":
                None if service is None else float(service[n]),
        }
        for n in range(spec.n_nodes)
    )
    pmfs = [empirical_marginal(result, n) for n in range(spec.n_nodes)]
    distances = np.array([total_variation(pmf, exact[n])
                          for n, pmf in enumerate(pmfs)])
    sup = (_deviation(result, pmfs)
           if result.joint_weights is not None else None)
    cfg = result.config
    info = {"horizon": cfg.horizon, "warmup": cfg.warmup, "seed": cfg.seed}
    return ComparisonReport(
        mean_table=table,
        marginal_distance=distances,
        product_form_sup=sup,
        sample_info=info,
    )
