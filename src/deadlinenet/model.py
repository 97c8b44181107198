"""Network description: competing service-time laws per node, one routing
row per competing component, and Poisson external arrivals.

A network has N infinite-server nodes. Each node carries K independent
competing service times; an arriving customer's service time is their
minimum, and the component that achieved the minimum selects the routing
row used when the customer departs. Nodes needing fewer than K real
components are padded with :class:`Infinite` so all per-(node, component)
arrays stay rectangular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "Exponential",
    "Deterministic",
    "Uniform",
    "Weibull",
    "Infinite",
    "ServiceDistribution",
    "NodeSpec",
    "NetworkSpec",
    "Violation",
    "structural_violations",
    "can_win",
    "route_tensor",
    "trapped_nodes",
    "validate",
    "two_node_deadline_example",
]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


@dataclass(frozen=True)
class Exponential:
    """Exponential law with the given rate (events per unit time)."""

    rate: float

    def __post_init__(self):
        object.__setattr__(self, "rate", float(self.rate))
        _require(self.rate > 0 and math.isfinite(self.rate),
                 f"exponential rate must be positive and finite, got {self.rate}")


@dataclass(frozen=True)
class Deterministic:
    """Point mass at a fixed positive duration (a hard deadline)."""

    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        _require(self.value > 0 and math.isfinite(self.value),
                 f"deterministic value must be positive and finite, got {self.value}")


@dataclass(frozen=True)
class Uniform:
    """Uniform law on [lo, hi), 0 <= lo < hi."""

    lo: float
    hi: float

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        _require(self.lo >= 0 and math.isfinite(self.lo),
                 f"uniform lo must be >= 0 and finite, got {self.lo}")
        _require(self.hi > self.lo and math.isfinite(self.hi),
                 f"uniform hi must exceed lo, got lo={self.lo} hi={self.hi}")


@dataclass(frozen=True)
class Weibull:
    """Weibull law with the given shape and scale."""

    shape: float
    scale: float

    def __post_init__(self):
        object.__setattr__(self, "shape", float(self.shape))
        object.__setattr__(self, "scale", float(self.scale))
        _require(self.shape > 0 and math.isfinite(self.shape),
                 f"weibull shape must be positive and finite, got {self.shape}")
        _require(self.scale > 0 and math.isfinite(self.scale),
                 f"weibull scale must be positive and finite, got {self.scale}")


@dataclass(frozen=True)
class Infinite:
    """A component that never fires: survival is identically 1.

    Used to pad nodes with fewer than K real components; never sampled.
    """


ServiceDistribution = Union[Exponential, Deterministic, Uniform, Weibull, Infinite]


@dataclass(frozen=True)
class NodeSpec:
    """One node: K competing laws and one length-N routing row per law.

    ``routing[k][m]`` is the probability of moving to node ``m`` (0-based)
    when component ``k`` achieved the minimum; the row's deficit from 1 is
    the exit probability. Rows may violate invariants — :func:`validate`
    reports violations as data rather than raising.
    """

    components: tuple[ServiceDistribution, ...]
    routing: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(
            self, "routing",
            tuple(tuple(float(p) for p in row) for row in self.routing))


@dataclass(frozen=True)
class NetworkSpec:
    """N nodes (all with the same K) plus external Poisson arrival rates."""

    nodes: tuple[NodeSpec, ...]
    arrival_rates: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "arrival_rates",
                           tuple(float(r) for r in self.arrival_rates))

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_components(self) -> int:
        return len(self.nodes[0].components) if self.nodes else 0


@dataclass(frozen=True)
class Violation:
    """One violated invariant; ``where`` locates it (e.g. ``node 2``)."""

    kind: str
    where: str
    message: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.where}: {self.message}"


# violation kinds
BAD_SHAPE = "bad shape"
ROW_NOT_SUBSTOCHASTIC = "row not substochastic"
TIE_PROBABILITY_POSITIVE = "tie probability positive"
ALL_COMPONENTS_INFINITE = "all components infinite"
BAD_ARRIVAL_RATE = "bad arrival rate"
NOT_OPEN = "not open"

_ROW_SUM_TOL = 1e-12


def structural_violations(spec: NetworkSpec) -> list[Violation]:
    """Check every invariant that needs no numerical solve."""
    report: list[Violation] = []
    n = spec.n_nodes
    if n < 1:
        report.append(Violation(BAD_SHAPE, "network", "network has no nodes"))
        return report

    k = spec.n_components
    if k < 1:
        report.append(Violation(BAD_SHAPE, "node 1", "node has no components"))
        return report

    if len(spec.arrival_rates) != n:
        report.append(Violation(
            BAD_SHAPE, "network",
            f"expected {n} arrival rates, got {len(spec.arrival_rates)}"))
    for i, lam in enumerate(spec.arrival_rates):
        if not (lam >= 0 and math.isfinite(lam)):
            report.append(Violation(
                BAD_ARRIVAL_RATE, f"node {i + 1}",
                f"arrival rate must be finite and >= 0, got {lam}"))

    for i, node in enumerate(spec.nodes):
        where = f"node {i + 1}"
        if len(node.components) != k:
            report.append(Violation(
                BAD_SHAPE, where,
                f"expected {k} components, got {len(node.components)}"))
            continue
        if len(node.routing) != k:
            report.append(Violation(
                BAD_SHAPE, where,
                f"expected {k} routing rows, got {len(node.routing)}"))
            continue
        for j, row in enumerate(node.routing):
            rwhere = f"node {i + 1} component {j + 1}"
            if len(row) != n:
                report.append(Violation(
                    BAD_SHAPE, rwhere,
                    f"routing row has {len(row)} entries, expected {n}"))
                continue
            if not all(map(math.isfinite, row)) or min(row) < 0:
                report.append(Violation(
                    ROW_NOT_SUBSTOCHASTIC, rwhere,
                    "routing probabilities must be finite and >= 0"))
            elif sum(row) > 1 + _ROW_SUM_TOL:
                report.append(Violation(
                    ROW_NOT_SUBSTOCHASTIC, rwhere,
                    f"routing row sums to {sum(row)} > 1"))
        if all(isinstance(c, Infinite) for c in node.components):
            report.append(Violation(
                ALL_COMPONENTS_INFINITE, where,
                "at least one component must be finite"))
        atoms = [c.value for c in node.components if isinstance(c, Deterministic)]
        if len(atoms) != len(set(atoms)):
            report.append(Violation(
                TIE_PROBABILITY_POSITIVE, where,
                "two deterministic components share the same value"))
    return report


def _support(d: ServiceDistribution) -> tuple[float, float]:
    """Closed support [lower, upper] of a law. An Infinite component never
    fires, so its support is the point +inf."""
    if isinstance(d, (Exponential, Weibull)):
        return 0.0, math.inf
    if isinstance(d, Deterministic):
        return d.value, d.value
    if isinstance(d, Uniform):
        return d.lo, d.hi
    if isinstance(d, Infinite):
        return math.inf, math.inf
    raise TypeError(f"unknown distribution {d!r}")


def can_win(node: NodeSpec) -> tuple[bool, ...]:
    """Whether each component achieves the node's minimum with positive
    probability: its support starts below the upper end of every other
    component's support."""
    bounds = [_support(c) for c in node.components]
    return tuple(
        lo < min((hi for j, (_, hi) in enumerate(bounds) if j != k),
                 default=math.inf)
        for k, (lo, _) in enumerate(bounds))


def route_tensor(spec: NetworkSpec) -> np.ndarray:
    """routing[n, k, m] of a structurally valid spec as one array."""
    return np.array([node.routing for node in spec.nodes], dtype=float)


def trapped_nodes(routes: np.ndarray, wins: np.ndarray) -> list[int]:
    """Nodes with a winning (node, component) pair from which no chain of
    winning pairs reaches a routing row that sums to less than 1 (by more
    than the rounding that :func:`structural_violations` forgives above 1).

    ``routes`` is :func:`route_tensor`, ``wins[n, k]`` whether component k
    can achieve node n's minimum. A customer leaving (n, k) moves to node m
    when routes[n, k, m] > 0 and is then served by every winning component
    of m, so a node escapes once one of its winning pairs leads out. With
    wins = p > 0, the traffic equations are singular, or within rounding of
    it, when this list is not empty.
    """
    leaks = routes.sum(axis=2) < 1.0 - _ROW_SUM_TOL
    feeds = routes > 0.0
    escapes = (wins & leaks).any(axis=1)
    while True:
        good = wins & (leaks | (feeds & escapes).any(axis=2))
        grown = good.any(axis=1)
        if (grown == escapes).all():
            return (wins & ~good).any(axis=1).nonzero()[0].tolist()
        escapes = grown


def validate(spec: NetworkSpec) -> list[Violation]:
    """Full validation: structural invariants plus openness.

    The network is open when, from every (node, component) pair that can
    achieve the minimum (see :func:`can_win`), some chain of such pairs
    reaches a routing row that sums to less than 1 - 1e-12; this is a
    reachability check on the routing graph, with no quadrature or linear
    solve. The nodes it finds trapped are reported as one violation of a
    distinct kind. Pure: the same spec always produces the same report. An
    empty report means the spec is valid.
    """
    report = structural_violations(spec)
    if report:
        return report
    trapped = trapped_nodes(route_tensor(spec),
                            np.array([can_win(node) for node in spec.nodes]))
    if trapped:
        where = ("node " if len(trapped) == 1 else "nodes ") + ", ".join(
            str(n + 1) for n in trapped)
        report.append(Violation(
            NOT_OPEN, where,
            "some customers served here never leave the network: no chain of "
            "components that can win reaches a routing row summing to < 1"))
    return report


def two_node_deadline_example() -> NetworkSpec:
    """Two stages in sequence (e.g. sign-in, then payment), each racing a
    unit-rate exponential task against a unit deterministic deadline.

    Completing stage 1's task moves the customer to stage 2; completing
    stage 2's task exits the system; missing either deadline restarts the
    customer at stage 1. External arrivals (rate 1) enter at stage 1.
    """
    stage = (Exponential(1.0), Deterministic(1.0))
    node1 = NodeSpec(components=stage, routing=((0.0, 1.0), (1.0, 0.0)))
    node2 = NodeSpec(components=stage, routing=((0.0, 0.0), (1.0, 0.0)))
    return NetworkSpec(nodes=(node1, node2), arrival_rates=(1.0, 0.0))
