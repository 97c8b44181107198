"""Comparison of simulated, exact, and baseline occupancy distributions.

Every pmf here is a dense 1-d numpy array over occupancies 0, 1, ...; the
joint histogram is read as the simulator leaves it, the sorted arrays
``SimResult.joint_states`` and ``SimResult.joint_weights``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .analytic import (
    ProductForm,
    baseline_full_insensitivity,
    baseline_service_time_insensitivity,
    product_form,
)
from .errors import InfiniteMeanError
from .model import NetworkSpec, once_per_spec

if TYPE_CHECKING:
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
      a single node n. Only these at most N |J| + 1 candidates can hold
      it, and the largest product among those outside J is found by
      binary search for each in the sorted rows of J.

    Most candidates cannot exceed the first term and are dropped on a
    bound before any is multiplied out. The bound of d + e_n is the
    product of d's factors before n, formed left to right, times the
    demoted factor, times the product of d's factors after n, formed right
    to left. It and the candidate's left-to-right product are two
    roundings of one product of N factors in [0, 1], which differ by less
    than a relative factor 1 + 8 (N + 1) u, u = 2^-53, plus an absolute
    N 2^-1022 where they underflow (the rounding-error bound for products,
    Higham, Accuracy and Stability of Numerical Algorithms, ch. 3). A
    candidate whose bound, so inflated, cannot exceed the first term is
    dropped; the others are multiplied out left to right as the scan does,
    so the value is the scan's bit for bit. J is read in blocks of a fixed
    number of states, each pruned against the first term's maximum so
    far, which is never above its final value and so only keeps more.
    The cost is O(N |J|) time and O(N) times the block size in working
    memory, beside one copy of the states in the narrowest unsigned type
    that holds them, for the search.

    Raises ValueError when the joint histogram was not recorded or its
    arrays are not of shapes (|J|, N) and (|J|,) with |J| > 0.
    """
    if result.joint_states is None:
        raise ValueError("joint occupancy was not recorded; "
                         "rerun with record_joint=True")
    return _deviation(result, [empirical_marginal(result, n)
                               for n in range(len(result.marginal_weights))])


# visited states per block of the candidate search: its working arrays
# hold a few times N * _BLOCK numbers, whatever the number of states
_BLOCK = 1024
# the unit roundoff of a float64, and its smallest normal number
_UNIT_ROUNDOFF = 2.0**-53
_TINY = 2.0**-1022


def _deviation(result: SimResult, pmfs: list[np.ndarray]) -> float:
    """:func:`product_form_deviation` of ``result``, whose nodes' empirical
    pmfs are ``pmfs``."""
    states, weights = result.joint_states, result.joint_weights
    n_nodes = len(pmfs)
    if (states.shape[1:] != (n_nodes,) or weights.shape != states.shape[:1]
            or not len(weights)):
        raise ValueError(
            f"the joint histogram has states of shape {states.shape} and "
            f"weights of shape {weights.shape}; a run of {n_nodes} nodes "
            f"needs shapes (J, {n_nodes}) and (J,), J > 0")
    nodes = np.arange(n_nodes)[:, None]
    size = [len(pmf) for pmf in pmfs]
    # marginal[n, x]: zero at unvisited occupancies and in the padding past
    # the largest, which ends every node's rank order
    width = max(size) + 1
    marginal = np.zeros((n_nodes, width))
    for n, pmf in enumerate(pmfs):
        marginal[n, :len(pmf)] = pmf
    # stable, so in-range zeros rank before the padding
    order = np.argsort(-marginal, axis=1, kind="stable")
    # at each occupancy, the occupancy one rank worse; the last padding
    # occupancy, which no state holds, is left at 0
    worse = np.zeros(order.shape, order.dtype)
    worse[nodes, order[:, :-1]] = order[:, 1:]
    demoted = marginal[nodes, worse]
    # marginal[n, x] is marginal.flat[x + offset[n]]
    offset = nodes * width

    # one column per visited state
    cells = states.T
    # the simulator records only states held for a positive time, all
    # inside the box; a result built by hand may list others
    largest = states.max(axis=0)
    if not (largest < size).all():
        inside = (states < size).all(axis=1)
        cells, weights = cells[:, inside], weights[inside]
    # a candidate's bound and its left-to-right product round one product
    # of N factors in [0, 1] in two orders, which differ by less than a
    # factor slack plus n_nodes * _TINY: a candidate whose bound is at most
    # (worst - n_nodes * _TINY) / slack cannot exceed worst (slack holds
    # four times the relative gap, which covers the rounding of that bar)
    slack = 1.0 + 8 * (n_nodes + 1) * _UNIT_ROUNDOFF
    worst = 0.0
    # the surviving candidates' nodes and states; empty, not missing, when
    # a result built by hand has no state inside the box
    found_node, found_state = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)]
    for start in range(0, cells.shape[1], _BLOCK):
        at = cells[:, start:start + _BLOCK] + offset
        factors = marginal.take(at)
        # each state's products over its first n + 1 nodes, left to right,
        # as the scan multiplies
        prefix = factors.copy()
        for n in range(1, n_nodes):
            prefix[n] *= prefix[n - 1]
        joint = weights[start:start + _BLOCK] / result.effective_duration
        worst = max(worst, float(np.abs(joint - prefix[-1]).max()))
        # and over its nodes from n on, right to left
        for n in range(n_nodes - 2, 0, -1):
            factors[n] *= factors[n + 1]
        # the bounds: the product before n, times the demoted factor, times
        # the product after n
        bound = demoted.take(at)
        bound[1:] *= prefix[:-1]
        bound[:-1] *= factors[1:]
        # the candidates that may exceed worst
        bar = (worst - n_nodes * _TINY) / slack
        survivors = (bound > bar).ravel().nonzero()[0]
        node, state = np.divmod(survivors, at.shape[1])
        found_node.append(node)
        found_state.append(state + start)
    node = np.concatenate(found_node)
    state = np.concatenate(found_state)
    # the all-top-rank cell, then each survivor's state demoted at its node
    candidates = np.concatenate([order[:, :1], cells[:, state]], axis=1)
    column = np.arange(1, len(state) + 1)
    candidates[node, column] = worse[node, candidates[node, column]]
    # multiplied out left to right, as the scan does
    products = marginal.take(candidates + offset)
    for n in range(1, n_nodes):
        products[n] *= products[n - 1]
    products = products[-1]
    # a row of non-negative integers, each written as big-endian bytes of
    # the narrowest unsigned type that holds every occupancy here, compares
    # bytewise as the rows compare, node 1 first: the order of the visited
    # states, so membership is one binary search
    key = np.min_scalar_type(max(largest.max(), width - 1)).newbyteorder(">")
    row = f"V{key.itemsize * n_nodes}"
    visited = np.ascontiguousarray(states, key).view(row)[:, 0]
    queries = np.ascontiguousarray(candidates.T, key).view(row)[:, 0]
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
    ``spec.n_nodes`` nodes, or its joint histogram is not of shapes
    (|J|, N) and (|J|,) with |J| > 0."""
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
