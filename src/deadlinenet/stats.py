"""Comparison of simulated, exact, and baseline occupancy distributions."""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .analytic import (
    baseline_full_insensitivity,
    baseline_service_time_insensitivity,
    product_form,
)
from .errors import InfiniteMeanError
from .model import NetworkSpec
from .simulate import SimResult

__all__ = [
    "Pmf",
    "ComparisonReport",
    "empirical_marginal",
    "product_form_deviation",
    "total_variation",
    "compare",
]

Pmf = Union[Mapping[int, float], "np.ndarray", list, tuple]


def _as_map(pmf: Pmf) -> Mapping[int, float]:
    if isinstance(pmf, Mapping):
        return pmf
    arr = np.asarray(pmf, dtype=float)
    if arr.ndim != 1:
        raise ValueError("a pmf must be a mapping or a 1-d array")
    return dict(enumerate(arr.tolist()))


def empirical_marginal(result: SimResult, n: int) -> dict[int, float]:
    """Time-average occupancy pmf of node n (weights / effective duration)."""
    if not result.effective_duration > 0:
        raise ValueError("effective duration must be positive")
    duration = result.effective_duration
    return {x: w / duration for x, w in result.marginal_weights[n].items()}


def total_variation(p: Pmf, q: Pmf) -> float:
    """(1/2) sum |p(x) - q(x)| over the union of the supports."""
    pm, qm = _as_map(p), _as_map(q)
    support = sorted(set(pm) | set(qm))
    return 0.5 * sum(abs(pm.get(x, 0.0) - qm.get(x, 0.0)) for x in support)


def product_form_deviation(result: SimResult) -> float:
    """sup |empirical joint - product of empirical marginals|.

    The supremum runs over the box spanned by each node's visited
    occupancy range; outside it the empirical joint is zero and the
    product term is smaller than anything inside.
    """
    if result.joint_weights is None:
        raise ValueError("joint occupancy was not recorded; "
                         "rerun with record_joint=True")
    duration = result.effective_duration
    marginals = [empirical_marginal(result, n)
                 for n in range(len(result.marginal_weights))]
    ranges = []
    per_node = []
    for pmf in marginals:
        lo, hi = min(pmf), max(pmf)
        ranges.append(range(lo, hi + 1))
        per_node.append({x: pmf.get(x, 0.0) for x in range(lo, hi + 1)})
    worst = 0.0
    for state in itertools.product(*ranges):
        joint = result.joint_weights.get(state, 0.0) / duration
        prod = 1.0
        for n, x in enumerate(state):
            prod *= per_node[n][x]
        dev = abs(joint - prod)
        if dev > worst:
            worst = dev
    return worst


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


def compare(spec: NetworkSpec, result: SimResult) -> ComparisonReport:
    """Assemble the verification report for a run of ``spec``."""
    pf = product_form(spec)
    try:
        full = baseline_full_insensitivity(spec).rho
    except InfiniteMeanError:
        full = None
    try:
        service = baseline_service_time_insensitivity(spec, pf.traffic).rho
    except InfiniteMeanError:
        service = None
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
    distances = np.array([
        total_variation(
            empirical_marginal(result, n),
            dict(enumerate(pf.marginal_pmf(n).tolist())),
        )
        for n in range(spec.n_nodes)
    ])
    sup = (product_form_deviation(result)
           if result.joint_weights is not None else None)
    cfg = result.config
    info = {"horizon": cfg.horizon, "warmup": cfg.warmup, "seed": cfg.seed}
    return ComparisonReport(
        mean_table=table,
        marginal_distance=distances,
        product_form_sup=sup,
        sample_info=info,
    )
