"""Seeded scenario generation for the benchmark, independent of the program.

Scenarios are written as scenario-file text in the format the program reads
(see the README's "Scenario files"), using only numpy, so the inputs do not
change when the program's own renderer or model classes change. The same
seed always gives byte-identical text; ``sha256`` fingerprints it so that
two commits can be shown to have run on identical inputs. numpy is imported
only when a network is drawn, after the program (which imports it) has been
timed in set-up.
"""

from __future__ import annotations

import hashlib


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _component(rng, kind: int) -> tuple[str, float | None]:
    """One random law of the given kind as a scenario token, plus its atom
    for det laws."""
    if kind == 0:
        return f"exp(rate={float(rng.uniform(0.4, 3.0))!r})", None
    if kind == 1:
        value = float(rng.uniform(0.3, 2.5))
        return f"det(value={value!r})", value
    if kind == 2:
        lo = float(rng.uniform(0.0, 1.0))
        hi = lo + float(rng.uniform(0.3, 2.0))
        return f"uniform({lo!r}, {hi!r})", None
    shape = float(rng.uniform(0.8, 2.5))
    scale = float(rng.uniform(0.4, 2.0))
    return f"weibull({shape!r}, {scale!r})", None


def _node_components(rng, kinds) -> str:
    """Laws of the given kinds with no two deterministic atoms equal (a tie
    of positive probability would make the network invalid)."""
    while True:
        drawn = [_component(rng, int(kind)) for kind in kinds]
        atoms = [a for _, a in drawn if a is not None]
        if len(atoms) == len(set(atoms)):
            return ", ".join(token for token, _ in drawn)


def _route(rng, n_nodes: int, max_mass: float) -> str:
    """Dense row: every target has positive probability, total mass in
    [0.1, max_mass], so every network is open."""
    total = float(rng.uniform(0.1, max_mass))
    parts = rng.dirichlet([1.0] * n_nodes) * total
    return ", ".join(f"{m}: {float(q)!r}" for m, q in enumerate(parts, start=1))


def random_network(seed: int, n_nodes: int, n_comp: int, max_mass: float,
                   arrival_range: tuple[float, float]) -> str:
    """The [network] section of a seeded mixed-law network."""
    import numpy as np

    rng = np.random.default_rng(seed)
    arrivals = rng.uniform(*arrival_range, size=n_nodes)
    # every law appears equally often (up to rounding), so that networks
    # drawn from different seeds cost about the same to solve and simulate
    kinds = rng.permutation(np.arange(n_nodes * n_comp) % 4).reshape(
        n_nodes, n_comp)
    lines = ["[network]",
             f"nodes = {n_nodes}",
             f"components = {n_comp}",
             "arrivals = " + ", ".join(repr(float(a)) for a in arrivals)]
    for i in range(1, n_nodes + 1):
        lines.append(
            f"node{i}.components = {_node_components(rng, kinds[i - 1])}")
        for k in range(1, n_comp + 1):
            lines.append(f"node{i}.route{k} = {_route(rng, n_nodes, max_mass)}")
    return "\n".join(lines) + "\n"
