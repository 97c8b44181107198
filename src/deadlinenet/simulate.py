"""Per-customer simulation of the original (non-Markovian-routing) network.

Every node is an infinite-server queue, so customers never interact and each
trajectory can be drawn on its own. At each visit a customer draws every
finite competing time at its node, stays for the minimum, and on departure
is routed by the row belonging to the component that achieved the minimum.
External arrivals are generated in blocks of ``BLOCK`` customers, and the
customers of a block are advanced together one hop at a time in numpy until
all have left; a customer whose departure falls after the horizon stops
there. Each visit adds a +1 event at entry and, unless it outlasts the
horizon, a -1 event at exit. A block's events are swept in time order
together with those carried over from earlier blocks; events after the
block's last arrival are carried forward again, since later blocks may still
add events before them. The sweep accumulates time-weighted occupancy inside
the measurement window [warmup, horizon].

Determinism contract (given identical spec and config):
  * one uniform stream drives everything, consumed block by block. A block
    first takes a (2, BLOCK) array: its first row gives the exponential gaps
    of the merged external arrival stream (rate: the sum of the arrival
    rates), its second row each arrival's entry node (node n with
    probability lambda_n over that sum). Then each hop takes, for the m
    customers of the block still in the network in arrival order, one
    uniform per exponential, uniform or Weibull component, customer by
    customer in component index order (deterministic and infinite
    components consume none), followed by m routing uniforms;
  * the histograms consume no randomness, so runs with and without the
    joint histogram follow identical trajectories;
  * a tied minimum goes to the lowest component index, and ``ties`` counts
    the visits whose minimum was reached by more than one finite component;
  * replicate() derives the stream of run r from
    numpy.random.SeedSequence(seed).spawn(runs)[r].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidNetworkError, QuadratureError
from .model import Infinite, NetworkSpec, structural_violations

__all__ = [
    "SimConfig",
    "EventCounts",
    "SimResult",
    "ReplicateSummary",
    "simulate",
    "replicate",
]

GENERATORS = {
    "pcg64": np.random.PCG64,
    "philox": np.random.Philox,
}

# external arrivals per block; it bounds every per-block array to a few
# thousand entries (tens of kilobytes)
BLOCK = 1024
# a joint-state key word holds the digits of consecutive nodes in at most
# this many bits, so it never overflows int64
_WORD_BITS = 63


@dataclass(frozen=True)
class SimConfig:
    """Run parameters. ``warmup`` is discarded; averages cover
    [warmup, horizon]."""

    seed: int = 36
    generator_name: str = "pcg64"
    horizon: float = 10_000.0
    warmup: float = 1_000.0
    record_joint: bool = True

    def __post_init__(self):
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "horizon", float(self.horizon))
        object.__setattr__(self, "warmup", float(self.warmup))
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.generator_name not in GENERATORS:
            raise ValueError(
                f"unknown generator {self.generator_name!r}; "
                f"choose from {sorted(GENERATORS)}")
        if not self.warmup >= 0.0:
            raise ValueError(f"warmup must be >= 0, got {self.warmup}")
        if not self.horizon > self.warmup:
            raise ValueError(
                f"horizon ({self.horizon}) must exceed warmup ({self.warmup})")
        if not math.isfinite(self.horizon):
            raise ValueError(f"horizon must be finite, got {self.horizon}")


@dataclass
class EventCounts:
    """Integer event tallies for one run."""

    external: np.ndarray    # (N,) external arrivals per node
    arrivals: np.ndarray    # (N,) all arrivals per node (external + routed)
    departures: np.ndarray  # (N, K) departures by winning component


@dataclass
class SimResult:
    """Time-averaged occupancy data from one run.

    ``marginal_weights[n]`` maps occupancy -> accumulated time. The joint
    histogram, when recorded, is two read-only arrays: ``joint_states``
    (|J|, N) int64 holds the visited states, one per row, in strictly
    increasing lexicographic order (node 1 first), and ``joint_weights``
    (|J|,) the time accumulated in each; both are None without it. The
    marginals are then derived from it by summing in that row order, so
    the marginal of the joint over node n reproduces
    ``marginal_weights[n]`` bit-exactly.
    """

    marginal_weights: tuple[dict[int, float], ...]
    joint_states: Optional[np.ndarray]
    joint_weights: Optional[np.ndarray]
    means: np.ndarray
    event_counts: EventCounts
    effective_duration: float
    final_occupancy: tuple[int, ...]
    ties: int
    config: SimConfig


def _sampling_plan(spec: NetworkSpec) -> np.ndarray:
    """Law table of shape (4, N, K): for each (node, component) the
    coefficients (shift, span, scale, power) of its inverse transform
    shift + span * u + scale * (-log(1 - u)) ** power of a uniform u (see
    each law's ``sampling_row``). An infinite component is (inf, 0, 0, 1),
    so it never achieves the minimum."""
    table = np.array([[d.sampling_row() for d in node.components]
                      for node in spec.nodes])
    return np.moveaxis(table, 2, 0)


def _route_tables(spec: NetworkSpec) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative routing table for the N*K rows, row n*K + k being the row
    used when component k wins at node n: ``thresholds`` (N*K, W) holds the
    running sums of the row's positive entries, padded with the row total,
    and ``targets`` (N*K, W + 1) their nodes, padded with N (the exit). A
    customer whose routing uniform is u goes to
    targets[r, count of thresholds[r] <= u]."""
    routes = spec.route_tensor.reshape(-1, spec.n_nodes)
    positive = routes > 0.0
    width = int(positive.sum(axis=1).max())
    # each row's positive entries first, in node order; the +0.0 added
    # after them pads with the row total, and an empty row with +0.0
    order = np.argsort(~positive, axis=1, kind="stable")[:, :width]
    thresholds = np.cumsum(np.take_along_axis(
        np.where(positive, routes, 0.0), order, axis=1), axis=1)
    targets = np.full((len(routes), width + 1), spec.n_nodes)
    targets[:, :width] = np.where(
        np.take_along_axis(positive, order, axis=1), order, spec.n_nodes)
    return thresholds, targets


class _Sweep:
    """Time-weighted occupancy histogram fed with +1/-1 events block by
    block.

    Events are swept in time order up to each block's cutoff. With the joint
    histogram, a state is a row of int64 words: the nodes' occupancies are
    mixed-radix digits, node 1 first, packed into words of at most
    ``_WORD_BITS`` bits, so the lexicographic order of the rows is the
    tuple order of the states, for any number of nodes. Each node's radix
    is a power of two above the largest occupancy observed so far; when a
    node outgrows it, the recorded states are re-encoded with a wider
    digit. Without the joint histogram, each node's occupancy is constant
    between its own events, and the key is node * 2**32 + occupancy.
    Either way the weights of all intervals swept so far are held as one
    sorted array of distinct keys and their summed weights.
    """

    def __init__(self, n_nodes: int, cfg: SimConfig):
        self.n_nodes = n_nodes
        self.warmup = cfg.warmup
        self.horizon = cfg.horizon
        self.joint = cfg.record_joint
        self.occ = np.zeros(n_nodes, dtype=np.int64)  # after the last event
        self.time = 0.0                               # of the last event
        self.node_time = np.zeros(n_nodes)    # of each node's last event
        # (times, nodes, sign) of the events recorded since the last flush
        self.batch: list = []
        # (times, nodes, signs) of the events carried to the next flush
        self.pending = (np.zeros(0), np.zeros(0, dtype=np.intp),
                        np.zeros(0, dtype=np.int8))
        self.n_words = 1
        if self.joint:
            self._layout(np.ones(n_nodes, dtype=np.int64))
        self.keys = np.zeros((0, self.n_words), dtype=np.int64)
        self.weights = np.zeros(0)

    # -- joint-state encoding ------------------------------------------------

    def _layout(self, bits: np.ndarray) -> None:
        """Pack digits of the given widths into words, node 1 most
        significant."""
        word = np.zeros(self.n_nodes, dtype=np.intp)
        used = 0
        for n, b in enumerate(bits.tolist()):
            if used + b > _WORD_BITS:
                word[n:] += 1
                used = 0
            used += b
        shift = np.zeros(self.n_nodes, dtype=np.int64)
        for n in range(self.n_nodes - 2, -1, -1):
            if word[n] == word[n + 1]:
                shift[n] = shift[n + 1] + bits[n + 1]
        self.bits = bits
        self.word = word
        self.shift = shift
        self.stride = np.left_shift(1, shift)
        self.mask = np.left_shift(1, bits) - 1
        self.n_words = int(word[-1]) + 1

    def _encode(self, digits: np.ndarray) -> np.ndarray:
        """(..., N) occupancies -> (..., words) keys."""
        keys = np.zeros(digits.shape[:-1] + (self.n_words,), dtype=np.int64)
        for w in range(self.n_words):
            mine = self.word == w
            keys[..., w] = (digits[..., mine] << self.shift[mine]).sum(axis=-1)
        return keys

    def _digit(self, keys: np.ndarray, n) -> np.ndarray:
        return (keys[:, self.word[n]] >> self.shift[n]) & self.mask[n]

    def _fit(self, nodes: np.ndarray, top: np.ndarray) -> None:
        """Widen the digits of ``nodes`` whose observed maxima ``top`` no
        longer fit, re-encoding the states recorded so far."""
        need = np.frexp(top.astype(float))[1]    # bits that hold top
        over = need > self.bits[nodes]
        if over.any():
            digits = self._digit(self.keys, np.arange(self.n_nodes))
            bits = self.bits.copy()
            bits[nodes[over]] = need[over] + 1
            self._layout(bits)
            self.keys = self._encode(digits)

    # -- sweep ---------------------------------------------------------------

    def visit(self, nodes: np.ndarray, enter: np.ndarray, leave: np.ndarray,
              done: np.ndarray) -> None:
        """Record one hop's visits: +1 at entry, and -1 at exit for the
        visits ``done`` by the horizon."""
        self.batch.append((enter, nodes, 1))
        self.batch.append((leave[done], nodes[done], -1))

    def flush(self, cutoff: float) -> None:
        """Sweep every recorded event before ``cutoff`` and carry the rest,
        which later blocks may still precede."""
        batch, self.batch = self.batch, []
        t = np.concatenate([self.pending[0]] + [b[0] for b in batch])
        n = np.concatenate([self.pending[1]] + [b[1] for b in batch])
        s = np.concatenate([self.pending[2]] + [
            np.full(b[0].size, b[2], dtype=np.int8) for b in batch])
        del batch
        # events at equal times bound only zero-width intervals, so their
        # order does not matter
        order = np.argsort(t)
        t, n, s = t[order], n[order], s[order]
        del order
        cut = int(np.searchsorted(t, cutoff))
        self.pending = (t[cut:].copy(), n[cut:].copy(), s[cut:].copy())
        if cut:
            self._sweep(t[:cut], n[:cut], s[:cut])

    def _sweep(self, t: np.ndarray, n: np.ndarray, s: np.ndarray) -> None:
        # each event's node occupancy just after it, from a running sum of
        # the signs grouped by node (time order kept within a node)
        by = n * t.size
        by += np.arange(t.size)
        by = by.argsort()
        nb, sb = n[by], s[by]
        count = np.bincount(nb, minlength=self.n_nodes)
        seen = np.flatnonzero(count)
        first = (np.cumsum(count) - count)[seen]
        last = first + count[seen] - 1
        after = np.cumsum(sb)
        after -= np.repeat(after[first] - sb[first], count[seen])
        after += self.occ[nb]
        if self.joint:
            self._fit(seen, np.maximum.reduceat(after, first))
            final = after[last]
            del by, nb, sb, after
            # the interval ending at event i holds the state before it
            delta = np.zeros((t.size, self.n_words), dtype=np.int64)
            delta[np.arange(t.size), self.word[n]] = s * self.stride[n]
            before = np.cumsum(delta, axis=0)
            before -= delta
            del delta
            before += self._encode(self.occ)
            starts = np.concatenate(([self.time], t[:-1]))
            self._accumulate(before, starts, t)
            self.time = t[-1]
        else:
            final = after[last]
            tb = t[by]
            starts = np.empty(t.size)
            starts[1:] = tb[:-1]
            starts[first] = self.node_time[seen]
            after -= sb
            after |= nb << 32
            del by, sb
            self._accumulate(after, starts, tb)
            self.node_time[seen] = tb[last]
        self.occ[seen] = final

    def _accumulate(self, keys: np.ndarray, starts: np.ndarray,
                    ends: np.ndarray) -> None:
        """Add the intervals' clipped weights to the running histogram."""
        weights = np.clip(ends, self.warmup, self.horizon)
        weights -= np.clip(starts, self.warmup, self.horizon)
        keep = weights > 0.0
        keys = np.concatenate((self.keys, keys.reshape(keys.shape[0], -1)[keep]))
        weights = np.concatenate((self.weights, weights[keep]))
        del keep
        if keys.shape[1] == 1:
            order = keys[:, 0].argsort()
        else:
            order = np.lexsort(keys.T[::-1])
        keys, weights = keys[order], weights[order]
        del order
        new = np.ones(keys.shape[0], dtype=bool)
        new[1:] = (keys[1:] != keys[:-1]).any(axis=1)
        self.weights = np.bincount(np.cumsum(new) - 1, weights)
        self.keys = keys[new]

    def finish(self):
        """Sweep the carried events and close every interval at the horizon;
        returns (marginal weights, joint states or None, joint weights or
        None, final occupancy)."""
        self.flush(math.inf)
        n_nodes = self.n_nodes
        if self.joint:
            self._accumulate(self._encode(self.occ)[None], np.array([self.time]),
                             np.array([self.horizon]))
            states = self._digit(self.keys, np.arange(n_nodes))
            weights = self.weights
            marginals = []
            for n in range(n_nodes):
                sums = np.bincount(states[:, n], weights)
                seen = np.flatnonzero(sums)
                marginals.append(dict(zip(seen.tolist(), sums[seen].tolist())))
            states.flags.writeable = False
            weights.flags.writeable = False
        else:
            self._accumulate((np.arange(n_nodes) << 32) | self.occ,
                             self.node_time, np.full(n_nodes, self.horizon))
            key = self.keys[:, 0]
            bounds = np.searchsorted(key >> 32, np.arange(n_nodes + 1))
            x = (key & 0xFFFFFFFF).tolist()
            w = self.weights.tolist()
            marginals = [dict(zip(x[a:b], w[a:b]))
                         for a, b in zip(bounds[:-1], bounds[1:])]
            states = weights = None
        return tuple(marginals), states, weights, tuple(self.occ.tolist())


def _run(spec: NetworkSpec, cfg: SimConfig, rng: np.random.Generator) -> SimResult:
    n_nodes = spec.n_nodes
    n_comp = spec.n_components
    shift, span, scale, power = _sampling_plan(spec)
    drawn = (span > 0.0) | (scale > 0.0)
    has_span = bool(span.any())
    has_tail = bool(scale.any())
    has_power = bool((power != 1.0).any())
    thresholds, targets = _route_tables(spec)
    lam = np.array(spec.arrival_rates, dtype=float)
    total = float(lam.sum())
    if total > 0.0:
        entry_cdf = np.cumsum(lam) / total
        entry_cdf[np.flatnonzero(lam)[-1]:] = 1.0
    horizon = cfg.horizon

    external = np.zeros(n_nodes, dtype=np.int64)
    arrivals = np.zeros(n_nodes, dtype=np.int64)
    departures = np.zeros(n_nodes * n_comp, dtype=np.int64)
    ties = 0
    sweep = _Sweep(n_nodes, cfg)
    clock = 0.0
    while total > 0.0 and clock <= horizon:
        u = rng.random((2, BLOCK))
        gaps = -np.log1p(-u[0]) / total
        gaps[0] += clock
        t = np.cumsum(gaps)
        clock = float(t[-1])
        node = np.searchsorted(entry_cdf, u[1], side="right")
        if clock > horizon:
            inside = t <= horizon
            t, node = t[inside], node[inside]
        external += np.bincount(node, minlength=n_nodes)

        while t.size:
            m = t.size
            random = drawn[node]
            draws = np.zeros((m, n_comp))
            draws[random] = rng.random(int(np.count_nonzero(random)))
            route = rng.random(m)
            service = shift[node]
            if has_span:
                service += span[node] * draws
            if has_tail:
                tail = -np.log1p(-draws)
                if has_power:
                    # a tiny shape overflows to inf: the right draw
                    with np.errstate(over="ignore"):
                        tail **= power[node]
                service += scale[node] * tail
            k = service.argmin(axis=1)
            best = service[np.arange(m), k]
            level = service == best[:, None]
            if np.count_nonzero(level) > m:
                ties += int(np.count_nonzero(level.sum(axis=1) > 1))
            exit_time = t + best
            done = exit_time <= horizon
            row = node * n_comp + k
            arrivals += np.bincount(node, minlength=n_nodes)
            departures += np.bincount(row[done], minlength=n_nodes * n_comp)
            sweep.visit(node, t, exit_time, done)
            step = (thresholds[row] <= route[:, None]).sum(axis=1)
            node = targets[row, step]
            stay = done & (node < n_nodes)
            t, node = exit_time[stay], node[stay]
        sweep.flush(clock)

    marginals, states, weights, final = sweep.finish()
    duration = horizon - cfg.warmup
    means = np.array([
        sum(x * w for x, w in marginals[n].items()) / duration
        for n in range(n_nodes)
    ])
    counts = EventCounts(
        external=external,
        arrivals=arrivals,
        departures=departures.reshape(n_nodes, n_comp),
    )
    return SimResult(
        marginal_weights=marginals,
        joint_states=states,
        joint_weights=weights,
        means=means,
        event_counts=counts,
        effective_duration=duration,
        final_occupancy=final,
        ties=ties,
        config=cfg,
    )


def _check(spec: NetworkSpec) -> None:
    """Reject a spec that cannot be simulated: a structural violation, or a
    node none of whose components has a finite mean, where customers pile
    up without limit and no time average settles. The latter raises the
    QuadratureError that the race statistics raise on the same node."""
    report = structural_violations(spec)
    if report:
        raise InvalidNetworkError(report)
    for n, node in enumerate(spec.nodes):
        if not any(math.isfinite(c.mean()) for c in node.components):
            k = next(k for k, c in enumerate(node.components)
                     if not isinstance(c, Infinite))
            raise QuadratureError(
                f"mean of node {n + 1} component {k + 1} is not finite")


def simulate(spec: NetworkSpec, cfg: SimConfig = SimConfig()) -> SimResult:
    """Run one simulation. Fully deterministic given (spec, cfg)."""
    _check(spec)
    rng = np.random.Generator(GENERATORS[cfg.generator_name](cfg.seed))
    return _run(spec, cfg, rng)


@dataclass
class ReplicateSummary:
    """Independent replications plus pooled means with standard errors."""

    results: list[SimResult]
    per_run_means: np.ndarray    # (runs, N) each run's means, in run order
    means: np.ndarray            # (N,) pooled across runs
    standard_errors: np.ndarray  # (N,) zero when runs == 1
    runs: int


def replicate(spec: NetworkSpec, cfg: SimConfig, runs: int) -> ReplicateSummary:
    """Run ``runs`` independent replications.

    Run r uses the stream SeedSequence(cfg.seed).spawn(runs)[r]; results
    are ordered by run index, so output is independent of scheduling.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    _check(spec)
    children = np.random.SeedSequence(cfg.seed).spawn(runs)
    bitgen = GENERATORS[cfg.generator_name]
    results = [_run(spec, cfg, np.random.Generator(bitgen(child)))
               for child in children]
    per_run = np.vstack([r.means for r in results])
    means = per_run.mean(axis=0)
    if runs > 1:
        errors = per_run.std(axis=0, ddof=1) / math.sqrt(runs)
    else:
        errors = np.zeros_like(means)
    return ReplicateSummary(results=results, per_run_means=per_run,
                            means=means, standard_errors=errors, runs=runs)
