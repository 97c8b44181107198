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
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable, ClassVar, TypeVar, Union

import numpy as np

__all__ = [
    "Exponential",
    "Deterministic",
    "Uniform",
    "Weibull",
    "Infinite",
    "NodeSpec",
    "NetworkSpec",
    "Violation",
    "structural_violations",
    "validate",
]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


class _Law:
    """Base of the service-time laws; each law class holds all of its own
    formulas:

    - ``mean()``;
    - ``survival(t)``, P(S > t) for t >= 0;
    - ``support()``, the closed support [lower, upper]: its finite ends are
      the only points where the survival function is not smooth, and a law
      whose lower end is inf never fires;
    - ``tail_time(eps)``, the smallest t with survival(t) <= eps;
    - ``quadrature_row()``, its factor of the race integrands;
    - ``sampling_row()``, the coefficients (shift, span, scale, power) of
      its inverse transform shift + span * u + scale * (-log(1 - u)) **
      power of a uniform u;
    - ``name`` and ``params()``, the name and parameters of its scenario
      token.
    """

    name: ClassVar[str]

    @classmethod
    def params(cls) -> tuple[str, ...]:
        """Parameter names of the scenario token, in positional order."""
        return tuple(f.name for f in fields(cls))

    def quadrature_row(self) -> tuple[float, float, float, float, float]:
        """(shape, scale, lo, hi, 1 / (hi - lo)): the race integrands'
        factor exp(-(t / scale)^shape) times a uniform factor that is 1
        before lo and falls linearly to 0 at hi. A law with no density (an
        atom, or a component that never fires) keeps this neutral row,
        whose factor is 1 and whose density is 0."""
        return 1.0, math.inf, math.inf, 0.0, 0.0


@dataclass(frozen=True)
class Exponential(_Law):
    """Exponential law with the given rate (events per unit time)."""

    name: ClassVar[str] = "exp"
    rate: float

    def __post_init__(self):
        object.__setattr__(self, "rate", float(self.rate))
        _require(self.rate > 0 and math.isfinite(self.rate),
                 f"exponential rate must be positive and finite, got {self.rate}")

    def mean(self) -> float:
        return 1.0 / self.rate

    def survival(self, t: float) -> float:
        return math.exp(-self.rate * t)

    def support(self) -> tuple[float, float]:
        return 0.0, math.inf

    def tail_time(self, eps: float) -> float:
        return -math.log(eps) / self.rate

    def quadrature_row(self) -> tuple[float, float, float, float, float]:
        return 1.0, 1.0 / self.rate, math.inf, 0.0, 0.0

    def sampling_row(self) -> tuple[float, float, float, float]:
        return 0.0, 0.0, 1.0 / self.rate, 1.0


@dataclass(frozen=True)
class Deterministic(_Law):
    """Point mass at a fixed positive duration (a hard deadline)."""

    name: ClassVar[str] = "det"
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        _require(self.value > 0 and math.isfinite(self.value),
                 f"deterministic value must be positive and finite, got {self.value}")

    def mean(self) -> float:
        return self.value

    def survival(self, t: float) -> float:
        return 1.0 if t < self.value else 0.0

    def support(self) -> tuple[float, float]:
        return self.value, self.value

    def tail_time(self, eps: float) -> float:
        return self.value

    def sampling_row(self) -> tuple[float, float, float, float]:
        return self.value, 0.0, 0.0, 1.0


@dataclass(frozen=True)
class Uniform(_Law):
    """Uniform law on [lo, hi), 0 <= lo < hi."""

    name: ClassVar[str] = "uniform"
    lo: float
    hi: float

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        _require(self.lo >= 0 and math.isfinite(self.lo),
                 f"uniform lo must be >= 0 and finite, got {self.lo}")
        _require(self.hi > self.lo and math.isfinite(self.hi),
                 f"uniform hi must exceed lo, got lo={self.lo} hi={self.hi}")

    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def survival(self, t: float) -> float:
        if t < self.lo:
            return 1.0
        if t >= self.hi:
            return 0.0
        return (self.hi - t) / (self.hi - self.lo)

    def support(self) -> tuple[float, float]:
        return self.lo, self.hi

    def tail_time(self, eps: float) -> float:
        return self.hi

    def quadrature_row(self) -> tuple[float, float, float, float, float]:
        return 1.0, math.inf, self.lo, self.hi, 1.0 / (self.hi - self.lo)

    def sampling_row(self) -> tuple[float, float, float, float]:
        return self.lo, self.hi - self.lo, 0.0, 1.0


@dataclass(frozen=True)
class Weibull(_Law):
    """Weibull law with the given shape and scale."""

    name: ClassVar[str] = "weibull"
    shape: float
    scale: float

    def __post_init__(self):
        object.__setattr__(self, "shape", float(self.shape))
        object.__setattr__(self, "scale", float(self.scale))
        _require(self.shape > 0 and math.isfinite(self.shape),
                 f"weibull shape must be positive and finite, got {self.shape}")
        _require(self.scale > 0 and math.isfinite(self.scale),
                 f"weibull scale must be positive and finite, got {self.scale}")

    def mean(self) -> float:
        """scale * Gamma(1 + 1/shape); inf where that overflows (shape
        below about 0.0058)."""
        try:
            return self.scale * math.gamma(1.0 + 1.0 / self.shape)
        except OverflowError:
            return math.inf

    def survival(self, t: float) -> float:
        """0 where (t / scale) ** shape overflows (large shapes)."""
        try:
            return math.exp(-((t / self.scale) ** self.shape))
        except OverflowError:
            return 0.0

    def support(self) -> tuple[float, float]:
        return 0.0, math.inf

    def tail_time(self, eps: float) -> float:
        """inf where the closed form overflows (very small shapes)."""
        try:
            return self.scale * (-math.log(eps)) ** (1.0 / self.shape)
        except OverflowError:
            return math.inf

    def quadrature_row(self) -> tuple[float, float, float, float, float]:
        return self.shape, self.scale, math.inf, 0.0, 0.0

    def sampling_row(self) -> tuple[float, float, float, float]:
        return 0.0, 0.0, self.scale, 1.0 / self.shape


@dataclass(frozen=True)
class Infinite(_Law):
    """A component that never fires: survival is identically 1.

    Used to pad nodes with fewer than K real components. Its inverse
    transform is the constant inf, which takes no uniform and never wins.
    """

    name: ClassVar[str] = "inf"

    def mean(self) -> float:
        return math.inf

    def survival(self, t: float) -> float:
        return 1.0

    def support(self) -> tuple[float, float]:
        return math.inf, math.inf

    def tail_time(self, eps: float) -> float:
        return math.inf

    def sampling_row(self) -> tuple[float, float, float, float]:
        return math.inf, 0.0, 0.0, 1.0


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
            tuple(tuple(map(float, row)) for row in self.routing))


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

    @cached_property
    def route_tensor(self) -> np.ndarray:
        """routing[n, k, m] of a structurally valid spec as one read-only
        array, built once per spec."""
        routes = np.array([node.routing for node in self.nodes], dtype=float)
        routes.flags.writeable = False
        return routes

    @cached_property
    def _answers(self) -> dict:
        """The results :func:`once_per_spec` keeps for this spec."""
        return {}

    def __getstate__(self) -> dict:
        """Copies and pickles carry the fields only: what is cached stays
        with the spec object that computed it, where it is read-only."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


T = TypeVar("T")


def once_per_spec(spec: NetworkSpec, compute: Callable[[NetworkSpec], T]) -> T:
    """``compute(spec)``, run at most once per spec object and kept on it
    as :attr:`NetworkSpec.route_tensor` is, so a result lives exactly as
    long as its spec. Nothing is hashed: a spec made by
    ``dataclasses.replace`` starts with no results, however equal it is. A
    compute that raises keeps nothing, and runs again on the next call.
    Every caller gets the same object, so ``compute`` returns one that
    cannot be changed: a tuple, a frozen dataclass, read-only arrays."""
    answers = spec._answers
    if compute not in answers:
        answers[compute] = compute(spec)
    return answers[compute]


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
    """Check every invariant that needs no numerical solve. The check runs
    once per spec (see :func:`once_per_spec`); each call returns a new
    list."""
    return list(once_per_spec(spec, _structure_report))


def _structure_report(spec: NetworkSpec) -> tuple[Violation, ...]:
    report: list[Violation] = []
    n = spec.n_nodes
    if n < 1:
        report.append(Violation(BAD_SHAPE, "network", "network has no nodes"))
        return tuple(report)

    k = spec.n_components
    if k < 1:
        report.append(Violation(BAD_SHAPE, "node 1", "node has no components"))
        return tuple(report)

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
        bounds = [c.support() for c in node.components]
        if all(lo == math.inf for lo, _ in bounds):
            report.append(Violation(
                ALL_COMPONENTS_INFINITE, where,
                "at least one component must be finite"))
        # a finite point mass: a deterministic deadline
        atoms = [lo for lo, hi in bounds if lo == hi < math.inf]
        if len(atoms) != len(set(atoms)):
            report.append(Violation(
                TIE_PROBABILITY_POSITIVE, where,
                "two deterministic components share the same value"))
    return tuple(report)


def _can_win(node: NodeSpec) -> tuple[bool, ...]:
    """Whether each component achieves the node's minimum with positive
    probability: its support starts below the upper end of every other
    component's support."""
    bounds = [c.support() for c in node.components]
    return tuple(
        lo < min((hi for j, (_, hi) in enumerate(bounds) if j != k),
                 default=math.inf)
        for k, (lo, _) in enumerate(bounds))


def trapped_nodes(routes: np.ndarray, wins: np.ndarray) -> list[int]:
    """Nodes with a winning (node, component) pair from which no chain of
    winning pairs reaches a routing row that sums to less than 1 (by more
    than the rounding that :func:`structural_violations` forgives above 1).

    ``routes`` is :attr:`NetworkSpec.route_tensor`, ``wins[n, k]`` whether
    component k can achieve node n's minimum. A customer leaving (n, k)
    moves to node m when routes[n, k, m] > 0 and is then served by every
    winning component of m, so a node escapes once one of its winning
    pairs leads out. With wins = p > 0, the traffic equations are
    singular, or within rounding of it, when this list is not empty.
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
    achieve the minimum (see :func:`_can_win`), some chain of such pairs
    reaches a routing row that sums to less than 1 - 1e-12; this is a
    reachability check on the routing graph, with no quadrature or linear
    solve. The nodes it finds trapped are reported as one violation of a
    distinct kind. Pure: the same spec always produces the same report. An
    empty report means the spec is valid.
    """
    report = structural_violations(spec)
    if report:
        return report
    trapped = trapped_nodes(spec.route_tensor,
                            np.array([_can_win(node) for node in spec.nodes]))
    if trapped:
        where = ("node " if len(trapped) == 1 else "nodes ") + ", ".join(
            str(n + 1) for n in trapped)
        report.append(Violation(
            NOT_OPEN, where,
            "some customers served here never leave the network: no chain of "
            "components that can win reaches a routing row summing to < 1"))
    return report

