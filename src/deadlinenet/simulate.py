"""Per-customer simulation of the original (non-Markovian-routing) network.

Every node is an infinite-server queue, so customers never interact and each
trajectory can be drawn on its own. At each visit a customer draws every
finite competing time at its node, stays for the minimum, and on departure
is routed by the row belonging to the component that achieved the minimum.
External arrivals are generated in blocks of ``BLOCK`` customers, and the
customers of a block are advanced together one hop at a time in numpy until
all have left; a customer whose departure falls after the horizon stops
there. Each external arrival, and each visit that ends by the horizon, is
recorded as one move at its instant: from the outside or the visit's
(node, winner) row, to the entry node, the next node or the exit. A block's
moves are swept in time order together with those carried over from
earlier blocks; moves after the block's last arrival are carried forward
again, since later blocks may still add moves before them. The sweep
accumulates time-weighted occupancy inside the measurement window
[warmup, horizon], and the event counts are tallied from the swept moves.

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
    numpy.random.SeedSequence(seed).spawn(runs)[r];
  * the uniforms are drawn from the generator in chunks and served in
    order, which does not change which uniform feeds which draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import GENERATORS, SimConfig
from .errors import InvalidNetworkError, QuadratureError
from .model import Infinite, NetworkSpec, structural_violations

__all__ = [
    "EventCounts",
    "SimResult",
    "ReplicateSummary",
    "simulate",
    "replicate",
]

# external arrivals per block; it bounds every per-block array to a few
# thousand entries (tens of kilobytes)
BLOCK = 1024
# a joint-state key word holds the digits of consecutive nodes in at most
# this many bits, so it never overflows int64
_WORD_BITS = 63
# uniforms drawn at a time; the buffer holds at most this many, or one
# request's worth when that is larger
_CHUNK = 8192


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


class _Uniforms:
    """The generator's uniforms, served in order from a buffer refilled
    ``_CHUNK`` at a time. For PCG64 and Philox, random(a) followed by
    random(b) gives the same doubles as random(a + b), so each uniform
    feeds the same draw as when drawn on its own."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.buffer = np.zeros(0)
        self.used = 0

    def take(self, n: int) -> np.ndarray:
        """The next ``n`` uniforms, valid until the next call."""
        end = self.used + n
        if end > self.buffer.size:
            rest = self.buffer[self.used:]
            self.buffer = np.concatenate(
                (rest, self.rng.random(max(n, _CHUNK) - rest.size)))
            self.used, end = 0, n
        start, self.used = self.used, end
        return self.buffer[start:end]


class _Sweep:
    """Time-weighted occupancy histogram fed with customer moves block by
    block.

    A move is one customer leaving row r (node r // K, or the outside for
    r = N*K) for node o (or the exit, o = N) at one instant: an external
    arrival, or the end of a visit and the start of the next. Moves are
    swept in time order up to each block's cutoff. A customer's moves at
    one instant must keep the order in which they were recorded, or a
    zero-length visit would end before it starts, so a flush whose times
    tie is sorted again, stably. The event counts are bincounts of the
    swept moves' targets and rows.

    With the joint histogram, a state is a row of int64 words: the nodes'
    occupancies are mixed-radix digits, node 1 first, packed into words of
    at most ``_WORD_BITS`` bits, so the lexicographic order of the rows is
    the tuple order of the states, for any number of nodes. Each node's
    radix is a power of two above the largest occupancy observed so far.
    A move into node o from another node overflows o's digit exactly when
    that digit equals its mask before the move; only then are the flush's
    per-node maxima found, the digits widened and the recorded states
    re-encoded, and the flush's keys built once more. Without the joint
    histogram, each move is a -1 event at its node and a +1 event at its
    target, each node's occupancy is constant between its own events, and
    the key is node * 2**32 + occupancy. Both that path and the overflow
    fallback group the events by node with one stable sort of their node
    ids, cast to the narrowest unsigned type that holds N: a radix sort
    for up to 65,535 nodes. Either way the weights of all
    intervals swept so far are held as one sorted array of distinct keys
    and their summed weights.
    """

    def __init__(self, n_nodes: int, n_comp: int, cfg: SimConfig):
        self.n_nodes = n_nodes
        self.warmup = cfg.warmup
        self.horizon = cfg.horizon
        self.joint = cfg.record_joint
        # each row's node; the outside row N*K is node N
        self.row_node = np.arange(n_nodes * n_comp + 1) // n_comp
        self.occ = np.zeros(n_nodes, dtype=np.int64)  # after the last move
        self.time = 0.0                               # of the last move
        self.node_time = np.zeros(n_nodes)    # of each node's last event
        # moves into each node or the exit, and out of each row or the
        # outside, over the swept moves
        self.arrivals = np.zeros(n_nodes + 1, dtype=np.int64)
        self.departures = np.zeros(n_nodes * n_comp + 1, dtype=np.int64)
        # (times, rows, targets) of the moves recorded since the last flush
        self.batch: list = []
        # (times, rows, targets) of the moves carried to the next flush
        self.pending = (np.zeros(0), np.zeros(0, dtype=np.intp),
                        np.zeros(0, dtype=np.intp))
        self.n_words = 1
        if self.joint:
            self._layout(np.ones(n_nodes, dtype=np.int64))
        self.keys = np.zeros((0, self.n_words), dtype=np.int64)
        self.weights = np.zeros(0)

    # -- joint-state encoding ------------------------------------------------

    def _layout(self, bits: np.ndarray) -> None:
        """Pack digits of the given widths into words, node 1 most
        significant. Each table has one more entry, for the outside and
        the exit: stride 0, and a mask that no digit equals."""
        word = np.zeros(self.n_nodes + 1, dtype=np.intp)
        used = 0
        for n, b in enumerate(bits.tolist()):
            if used + b > _WORD_BITS:
                word[n:-1] += 1
                used = 0
            used += b
        shift = np.zeros(self.n_nodes + 1, dtype=np.int64)
        for n in range(self.n_nodes - 2, -1, -1):
            if word[n] == word[n + 1]:
                shift[n] = shift[n + 1] + bits[n + 1]
        self.bits = bits
        self.word = word
        self.shift = shift
        self.stride = np.append(np.left_shift(1, shift[:-1]), 0)
        self.mask = np.append(np.left_shift(1, bits) - 1, -1)
        self.n_words = int(word[self.n_nodes - 1]) + 1

    def _encode(self, digits: np.ndarray) -> np.ndarray:
        """(..., N) occupancies -> (..., words) keys."""
        keys = np.zeros(digits.shape[:-1] + (self.n_words,), dtype=np.int64)
        word, shift = self.word[:-1], self.shift[:-1]
        for w in range(self.n_words):
            mine = word == w
            keys[..., w] = (digits[..., mine] << shift[mine]).sum(axis=-1)
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

    def _walk(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """The joint key before each move, (moves, words)."""
        if self.n_words == 1:
            delta = (self.stride[dst] - self.stride[src])[:, None]
        else:
            delta = np.zeros((src.size, self.n_words), dtype=np.int64)
            each = np.arange(src.size)
            delta[each, self.word[dst]] = self.stride[dst]
            delta[each, self.word[src]] -= self.stride[src]
        before = np.cumsum(delta, axis=0)
        before -= delta
        before += self._encode(self.occ)
        return before

    def _overflows(self, before: np.ndarray, src: np.ndarray,
                   dst: np.ndarray) -> bool:
        """Whether a move into a node from another finds the node's digit
        at its mask: the first such move carries into the next digit."""
        if self.n_words == 1:
            keys = before[:, 0]
        else:
            keys = before[np.arange(dst.size), self.word[dst]]
        mask = self.mask[dst]
        full = ((keys >> self.shift[dst]) & mask) == mask
        return bool((src[full] != dst[full]).any())

    # -- sweep ---------------------------------------------------------------

    def move(self, times: np.ndarray, rows: np.ndarray,
             targets: np.ndarray) -> None:
        """Record moves: at ``times``, from ``rows`` to ``targets``."""
        self.batch.append((times, rows, targets))

    def flush(self, cutoff: float) -> None:
        """Sweep every recorded move before ``cutoff`` and carry the rest,
        which later blocks may still precede."""
        batch, self.batch = self.batch, []
        t, r, o = (np.concatenate([self.pending[i]] + [b[i] for b in batch])
                   for i in range(3))
        del batch
        order = np.argsort(t)
        ts = t[order]
        if (ts[1:] == ts[:-1]).any():
            # the concatenation holds each customer's moves in its own
            # order (carried moves first, then the block's arrivals and
            # each hop's moves), which a stable sort keeps at equal times
            order = np.argsort(t, kind="stable")
            ts = t[order]
        r, o = r[order], o[order]
        del order, t
        cut = int(np.searchsorted(ts, cutoff))
        self.pending = (ts[cut:].copy(), r[cut:].copy(), o[cut:].copy())
        if cut:
            self._sweep(ts[:cut], r[:cut], o[:cut])

    def _by_node(self, src: np.ndarray, dst: np.ndarray):
        """The moves as a -1 event at their node and then a +1 event at
        their target, grouped by node with time order kept within a node,
        the outside's and the exit's left out: (event index into the
        interleaved pairs, node, sign, occupancy just after, count per
        node, nodes seen, index of each seen node's first event)."""
        n_nodes = self.n_nodes
        n = np.empty(2 * src.size, dtype=src.dtype)
        n[0::2] = src
        n[1::2] = dst
        by = np.argsort(n.astype(np.min_scalar_type(n_nodes)), kind="stable")
        count = np.bincount(n, minlength=n_nodes + 1)
        # node N, the outside and the exit, sorts last
        by = by[:by.size - count[n_nodes]]
        count = count[:n_nodes]
        nb = n[by]
        sb = (by & 1) * 2 - 1
        seen = np.flatnonzero(count)
        first = (np.cumsum(count) - count)[seen]
        after = np.cumsum(sb)
        after -= np.repeat(after[first] - sb[first], count[seen])
        after += self.occ[nb]
        return by, nb, sb, after, count, seen, first

    def _sweep(self, t: np.ndarray, r: np.ndarray, o: np.ndarray) -> None:
        n_nodes = self.n_nodes
        into = np.bincount(o, minlength=n_nodes + 1)
        out = np.bincount(r, minlength=self.departures.size)
        self.arrivals += into
        self.departures += out
        src = self.row_node[r]
        if self.joint:
            before = self._walk(src, o)
            if self._overflows(before, src, o):
                _, _, _, after, _, seen, first = self._by_node(src, o)
                self._fit(seen, np.maximum.reduceat(after, first))
                del after
                before = self._walk(src, o)
            # the interval ending at move i holds the state before it
            starts = np.concatenate(([self.time], t[:-1]))
            self._accumulate(before, starts, t)
            self.time = t[-1]
        else:
            by, nb, sb, after, count, seen, first = self._by_node(src, o)
            last = first + count[seen] - 1
            tb = t[by >> 1]
            del by
            starts = np.empty(tb.size)
            starts[1:] = tb[:-1]
            starts[first] = self.node_time[seen]
            after -= sb
            after |= nb << 32
            del sb
            self._accumulate(after, starts, tb)
            self.node_time[seen] = tb[last]
        self.occ += into[:n_nodes]
        self.occ -= out[:-1].reshape(n_nodes, -1).sum(axis=1)

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
        """Sweep the carried moves and close every interval at the horizon;
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


# every overflow in a run is to inf and gives the right draw: a gap, or a sum
# of gaps, under a tiny arrival rate, a power under a tiny Weibull shape, a
# service time under a large scale. Set once per run, not per hop, where it
# would cost a few percent of the run
@np.errstate(over="ignore")
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
    outside = np.full(BLOCK, n_nodes * n_comp)

    external = np.zeros(n_nodes, dtype=np.int64)
    ties = 0
    uniforms = _Uniforms(rng)
    sweep = _Sweep(n_nodes, n_comp, cfg)
    clock = 0.0
    while total > 0.0 and clock <= horizon:
        u = uniforms.take(2 * BLOCK).reshape(2, BLOCK)
        gaps = -np.log1p(-u[0]) / total
        gaps[0] += clock
        t = np.cumsum(gaps)
        clock = float(t[-1])
        node = np.searchsorted(entry_cdf, u[1], side="right")
        if clock > horizon:
            inside = t <= horizon
            t, node = t[inside], node[inside]
        external += np.bincount(node, minlength=n_nodes)
        sweep.move(t, outside[:t.size], node)

        while t.size:
            m = t.size
            random = drawn.take(node, axis=0)
            n_draws = int(np.count_nonzero(random))
            u = uniforms.take(n_draws + m)
            draws = np.zeros((m, n_comp))
            draws[random] = u[:n_draws]
            route = u[n_draws:]
            service = shift.take(node, axis=0)
            if has_span:
                service += span.take(node, axis=0) * draws
            if has_tail:
                tail = -np.log1p(-draws)
                if has_power:
                    tail **= power.take(node, axis=0)
                service += scale.take(node, axis=0) * tail
            k = service.argmin(axis=1)
            best = service[np.arange(m), k]
            level = service == best[:, None]
            if np.count_nonzero(level) > m:
                ties += int(np.count_nonzero(level.sum(axis=1) > 1))
            exit_time = t + best
            done = exit_time <= horizon
            t = exit_time[done]
            row = node[done] * n_comp + k[done]
            step = thresholds.take(row, axis=0) <= route[done, None]
            step = step.sum(axis=1)
            node = targets[row, step]
            sweep.move(t, row, node)
            stay = node < n_nodes
            t, node = t[stay], node[stay]
        sweep.flush(clock)

    marginals, states, weights, final = sweep.finish()
    duration = horizon - cfg.warmup
    means = np.array([
        sum(x * w for x, w in marginals[n].items()) / duration
        for n in range(n_nodes)
    ])
    counts = EventCounts(
        external=external,
        arrivals=sweep.arrivals[:n_nodes],
        departures=sweep.departures[:-1].reshape(n_nodes, n_comp),
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
    bitgen = getattr(np.random, GENERATORS[cfg.generator_name])
    rng = np.random.Generator(bitgen(cfg.seed))
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
    bitgen = getattr(np.random, GENERATORS[cfg.generator_name])
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
