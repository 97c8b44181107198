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


def validate(spec: NetworkSpec) -> list[Violation]:
    """Full validation: structural invariants plus openness.

    Openness is checked by attempting the traffic-equation solve and is
    reported as a distinct violation kind. Pure: the same spec always
    produces the same report. An empty report means the spec is valid.
    """
    report = structural_violations(spec)
    if report:
        return report

    # deferred import: the openness check needs the solver stack, which in
    # turn depends on the types defined here
    from .analytic import solve_traffic
    from .distributions import compute_min_stats
    from .errors import OpennessError

    try:
        solve_traffic(spec, compute_min_stats(spec))
    except OpennessError as exc:
        report.append(Violation(NOT_OPEN, "network", str(exc)))
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
