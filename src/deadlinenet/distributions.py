"""The competing-minimum statistics the equilibrium solver consumes — for
each (node, component): the probability that the component achieves the
minimum and the component's mean given that it did. Each law's own
formulas (survival, mean, support, tail) live on its class in ``model``.

Closed forms cover a race with one finite component, a deterministic
component (a product of the others' survival at its atom), and races whose
laws are all exponential or deterministic (the minimum of the exponentials
is exponential, cut off at the earliest deadline). Every other race is
integrated numerically. Its integrands are products of survival functions,
which are piecewise smooth with jumps at deterministic atoms and kinks at
uniform endpoints, so the range is split at those points into panels,
truncated where the survival product is numerically extinct (every
truncation bound has a closed form), and each panel is integrated by an
adaptive Gauss–Kronrod G7/K15 rule (QUADPACK, Piessens et al. 1983). The
rule runs on all races at once: every integrand of a race shares one set of
15 nodes per panel, and only the panels whose K15 and G7 estimates disagree
are split: halved, or cut geometrically when they start at 0, which
resolves the t^(shape-1) singularity there of a Weibull law with shape < 1.
A race whose statistics are not finite (its only finite component has an
infinite mean, or no component's survival falls to the truncation level
within the float range) raises QuadratureError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidNetworkError, QuadratureError
from .model import (
    Deterministic,
    Exponential,
    Infinite,
    NetworkSpec,
    structural_violations,
)

__all__ = [
    "MinStats",
    "min_probability",
    "conditional_mean_given_min",
    "expected_min",
    "compute_min_stats",
]

# survival level below which the integration range is truncated; the
# neglected tail of every integral is then far below _QUAD_TOL
_TAIL_EPS = 1e-16
# required absolute accuracy of each integral
_QUAD_TOL = 1e-9
# achievement probabilities below this are treated as exactly zero
_P_FLOOR = 1e-12
# a panel is accepted once |K15 - G7| of each of its integrals is below
# _PANEL_REL times that integral's current total, or below _PANEL_ABS; the
# integrals are taken over the range rescaled to [0, 1], so both are
# relative to the race's time scale
_PANEL_REL = 1e-14
_PANEL_ABS = 1e-17
# splits a panel may undergo before the integral is declared failed
_MAX_DEPTH = 100
# a panel starting at 0 is split at this fraction of its width rather than
# halved: the geometric grading reaches the singularity of a Weibull density
# with shape < 1 in few levels (down to shape 0.1 within _MAX_DEPTH)
_GRADE = 1.0 / 64.0

# Gauss-Kronrod 15-point rule on [-1, 1] (QUADPACK qk15). The Kronrod
# abscissae of [0, 1) in decreasing order, then their weights; the 7-point
# Gauss rule uses every second abscissa.
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245, 0.0)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327)
_X15 = np.array([-x for x in _XGK] + list(_XGK[-2::-1]))
_W15 = np.array(_WGK + _WGK[-2::-1])
_W7 = np.array(_WG + _WG[-2::-1])  # weights at _X15[1::2]


def _truncated_exp_mean(x: float) -> float:
    """E[E | E < x] for a unit-rate exponential E: 1 - x / (e^x - 1), by its
    Bernoulli series where the direct form would cancel."""
    if x < 1e-2:
        return x / 2 - x**2 / 12 + x**4 / 720 - x**6 / 30240
    if math.isinf(x):
        return 1.0
    return 1.0 - x / math.expm1(x)


def _law_table(races) -> tuple[np.ndarray, ...]:
    """The quadrature rows (shape, scale, lo, hi, 1 / (hi - lo)) of every
    race's laws, each column as a (races, K) array."""
    table = np.array([[c.quadrature_row() for c in comps] for comps in races])
    return tuple(np.moveaxis(table, 2, 0))


def _integrands(laws, upper, race, u) -> np.ndarray:
    """The race integrals' integrands at u in [0, 1] (time t = upper * u),
    shape (1 + 2K, panels, 15): the survival product (expected minimum),
    then upper * f_k * prod_{j != k} S_j (achievement of each component k),
    then u times those (its conditional mean)."""
    shape, scale, lo, hi, inv_width = (v[race].T[:, :, None] for v in laws)
    span = upper[race][:, None]
    t = span * u
    z = t / scale
    weibull = np.exp(-(z**shape))
    surv = weibull * np.where(t < lo, 1.0, (hi - t) * inv_width)
    dens = (shape / scale) * z ** (shape - 1.0) * weibull + np.where(t >= lo, inv_width, 0.0)
    before = np.ones_like(surv)
    after = np.ones_like(surv)
    before[1:] = np.cumprod(surv[:-1], axis=0)
    after[:-1] = np.cumprod(surv[:0:-1], axis=0)[::-1]
    achieve = span * dens * before * after
    return np.concatenate([(before[-1] * surv[-1])[None], achieve, achieve * u])


def _gauss_kronrod(laws, upper, race, a, b, labels):
    """Adaptive G7/K15 integration of every race's integrands over the
    panels [a, b] of race ``race``; returns (integrals, error estimates),
    each of shape (races, 1 + 2K). Each round accepts the panels whose
    estimates agree and splits the rest."""
    n_races, n_comp = laws[0].shape
    n_int = 1 + 2 * n_comp
    totals = np.zeros((n_races, n_int))
    errors = np.zeros((n_races, n_int))
    for depth in range(_MAX_DEPTH + 1):
        half = 0.5 * (b - a)
        u = (0.5 * (a + b))[:, None] + half[:, None] * _X15
        g = _integrands(laws, upper, race, u)
        k15 = (g @ _W15) * half
        err = np.abs(k15 - (g[:, :, 1::2] @ _W7) * half)
        estimate = totals.copy()
        np.add.at(estimate, race, k15.T)
        failed = err > np.maximum(_PANEL_ABS, _PANEL_REL * np.abs(estimate))[race].T
        done = ~failed.any(axis=0)
        np.add.at(totals, race[done], k15[:, done].T)
        np.add.at(errors, race[done], err[:, done].T)
        if done.all():
            return totals, errors
        if depth == _MAX_DEPTH:
            m, i = np.argwhere(failed)[0]
            raise QuadratureError(
                f"integral for {labels[race[i]]} {_integral_name(m, n_comp)} "
                f"did not converge within {_MAX_DEPTH} panel splits "
                f"(error estimate {err[m, i]:.3e})")
        race, a, b = race[~done], a[~done], b[~done]
        mid = np.where(a == 0.0, _GRADE * b, 0.5 * (a + b))
        race = np.concatenate([race, race])
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])


def _integral_name(m: int, n_comp: int) -> str:
    """Name of integral m of a race, in the order of _integrands."""
    return "expected minimum" if m == 0 else f"component {(m - 1) % n_comp + 1}"


def _race_stats(races, labels) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """p, cond_mean and mean_min (as in MinStats) of each race, a tuple of
    K component laws; ``labels`` locate the races in error messages.

    cond_mean is +inf where p = 0, and mean_min is +inf for a race with no
    finite component.
    """
    n_races, n_comp = len(races), len(races[0])
    p = np.zeros((n_races, n_comp))
    cond = np.full((n_races, n_comp), np.inf)
    mean_min = np.full(n_races, np.inf)
    quad = {}
    for r, comps in enumerate(races):
        finite = [(k, c) for k, c in enumerate(comps) if not isinstance(c, Infinite)]
        if len(finite) == 1:
            k, c = finite[0]
            p[r, k] = 1.0
            cond[r, k] = mean_min[r] = c.mean()
            if not math.isfinite(mean_min[r]):
                raise QuadratureError(
                    f"mean of {labels[r]} component {k + 1} is not finite")
            continue
        for k, c in finite:
            if isinstance(c, Deterministic):
                p[r, k] = math.prod(o.survival(c.value) for j, o in finite if j != k)
                cond[r, k] = c.value
        if all(isinstance(c, (Exponential, Deterministic)) for _, c in finite):
            mean_min[r] = _exp_deadline_race(finite, p[r], cond[r])
        else:
            quad[r] = finite
    if quad:
        _quadrature(races, quad, labels, p, cond, mean_min)
    return p, cond, mean_min


def _exp_deadline_race(finite, p_row, cond_row) -> float:
    """Closed form of a race of exponentials and deadlines: it ends at
    min(Exp(total rate), earliest deadline). Fills the exponentials' entries
    of p_row and cond_row and returns the expected minimum."""
    total = sum(c.rate for _, c in finite if isinstance(c, Exponential))
    deadline = min((c.value for _, c in finite if isinstance(c, Deterministic)),
                   default=math.inf)
    if total == 0:
        return deadline
    x = total * deadline
    fired = -math.expm1(-x)
    for k, c in finite:
        if isinstance(c, Exponential):
            p_row[k] = c.rate / total * fired
            cond_row[k] = _truncated_exp_mean(x) / total
    return fired / total


def _quadrature(races, finite, labels, p, cond, mean_min) -> None:
    """Integrate the races whose rows are the keys of ``finite``, which
    maps each to its finite (k, law) pairs, and fill their entries of p,
    cond and mean_min for the atomless components."""
    n_comp = p.shape[1]
    rows = list(finite)
    upper = np.empty(len(rows))
    edges = []
    for q, r in enumerate(rows):
        laws = [c for _, c in finite[r]]
        upper[q] = min(c.tail_time(_TAIL_EPS) for c in laws)
        if not math.isfinite(upper[q]):
            raise QuadratureError(
                f"integration range for {labels[r]} is not finite: no "
                f"component's survival falls to {_TAIL_EPS:.0e} at a finite time")
        cuts = sorted({t for c in laws for t in c.support() if 0.0 < t < upper[q]})
        edges.append(np.array([0.0, *cuts, upper[q]]) / upper[q])
    race = np.concatenate([np.full(len(e) - 1, q) for q, e in enumerate(edges)])
    a = np.concatenate([e[:-1] for e in edges])
    b = np.concatenate([e[1:] for e in edges])
    totals, errors = _gauss_kronrod(_law_table([races[r] for r in rows]), upper,
                                    race, a, b, [labels[r] for r in rows])
    # back from [0, 1] to time: the t-weighted integrals and the expected
    # minimum scale with the range, the achievement probabilities do not
    errors[:, 0] *= upper
    errors[:, 1 + n_comp:] *= upper[:, None]
    bad = np.argwhere(~(errors <= _QUAD_TOL))
    if bad.size:
        q, m = bad[0]
        raise QuadratureError(
            f"integral for {labels[rows[q]]} {_integral_name(m, n_comp)} "
            f"reached accuracy {errors[q, m]:.3e} (required {_QUAD_TOL:.0e})")
    for q, r in enumerate(rows):
        for k, c in finite[r]:
            if not isinstance(c, Deterministic):
                p[r, k] = totals[q, 1 + k]
                if p[r, k] > 0:
                    cond[r, k] = upper[q] * totals[q, 1 + n_comp + k] / p[r, k]
        mean_min[r] = upper[q] * totals[q, 0]


def min_probability(components, k: int, context: str = "race") -> float:
    """P(component k achieves the minimum of the given components)."""
    p, _, _ = _race_stats([tuple(components)], [context])
    return float(p[0, k])


def conditional_mean_given_min(components, k: int, context: str = "race") -> float:
    """E[S_k | S_k achieved the minimum]; requires min_probability > 0."""
    p, cond, _ = _race_stats([tuple(components)], [context])
    if not p[0, k] > 0:
        raise ValueError(
            f"conditional mean undefined for {context} component {k + 1}: "
            "it never achieves the minimum")
    return float(cond[0, k])


def expected_min(components, context: str = "race") -> float:
    """E[min of the components] = integral of the survival product."""
    if all(isinstance(c, Infinite) for c in components):
        raise ValueError("expected_min requires at least one finite component")
    _, _, mean_min = _race_stats([tuple(components)], [context])
    return float(mean_min[0])


@dataclass
class MinStats:
    """Competing-minimum statistics for every (node, component).

    p[n, k]        — probability that component k achieves node n's minimum
    cond_mean[n, k] — E[S_{n,k} | it achieved the minimum]; +inf where p = 0
    mean_min[n]    — E[node n's total service time]
    """

    p: np.ndarray
    cond_mean: np.ndarray
    mean_min: np.ndarray

    @property
    def rates(self) -> np.ndarray:
        """Conditional service rates (reciprocal conditional means)."""
        return 1.0 / self.cond_mean


def compute_min_stats(spec: NetworkSpec) -> MinStats:
    """Assemble MinStats for a structurally valid spec.

    Nodes with equal component tuples share one computation. Verifies, per
    node, that the achievement probabilities sum to 1 within 1e-9 and that
    total expectation holds within 1e-8; a failed check is a numerical
    failure, reported with its (node, component) location.
    """
    report = structural_violations(spec)
    if report:
        raise InvalidNetworkError(report)
    row: dict[tuple, int] = {}
    labels = []
    for n, node in enumerate(spec.nodes):
        if node.components not in row:
            row[node.components] = len(row)
            labels.append(f"node {n + 1}")
    p, cond_mean, mean_min = _race_stats(list(row), labels)
    index = [row[node.components] for node in spec.nodes]
    p, cond_mean, mean_min = p[index], cond_mean[index], mean_min[index]
    p[p < _P_FLOOR] = 0.0
    cond_mean[p == 0] = np.inf
    for n in range(spec.n_nodes):
        if abs(p[n].sum() - 1.0) > 1e-9:
            raise QuadratureError(
                f"achievement probabilities at node {n + 1} sum to "
                f"{p[n].sum():.12f}, expected 1")
        mask = p[n] > 0
        recombined = float(np.dot(p[n][mask], cond_mean[n][mask]))
        if abs(recombined - mean_min[n]) > 1e-8:
            raise QuadratureError(
                f"total expectation mismatch at node {n + 1}: "
                f"sum p*cond_mean = {recombined:.12f}, "
                f"expected minimum = {mean_min[n]:.12f}")
    return MinStats(p=p, cond_mean=cond_mean, mean_min=mean_min)
