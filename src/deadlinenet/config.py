"""Scenario files: parse, validate, and render round-trippable configs.

A scenario is an INI-style file with three sections::

    [network]
    nodes = 2
    components = 2
    arrivals = 1.0, 0.0
    node1.components = exp(rate=1.0), det(value=1.0)
    node1.route1 = 2: 1.0
    node1.route2 = 1: 1.0
    ...

    [sim]
    seed = 12345
    generator = pcg64
    horizon = 10000.0
    warmup = 1000.0
    record_joint = true

    [outputs]
    format = table
    joint = true
    marginals_upto = 20

``nodeI.routeK`` lists, sparsely, where a customer goes when component K of
node I achieves the minimum: comma-separated ``target: probability`` pairs
with 1-based targets; probability not listed is exit probability, and an
empty value means the customer always leaves. Distribution tokens are
``exp(rate=r)``, ``det(value=v)``, ``uniform(lo, hi)``,
``weibull(shape, scale)``, and ``inf``. Unknown sections or keys are
rejected. ``render_scenario`` emits a canonical form that
``parse_scenario`` maps back to an equal ScenarioConfig, byte for byte.
"""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Optional, get_args

from .errors import ConfigError, InvalidNetworkError
from .model import NetworkSpec, NodeSpec, ServiceDistribution, validate
from .simulate import SimConfig

__all__ = [
    "OutputOptions",
    "ScenarioConfig",
    "parse_scenario",
    "load_scenario",
    "render_scenario",
    "bundled_scenario_path",
    "OUTPUT_FORMATS",
]

OUTPUT_FORMATS = ("table", "csv", "json")

_BOOLEAN = {"1": True, "yes": True, "true": True, "on": True,
            "0": False, "no": False, "false": False, "off": False}

_DIST_RE = re.compile(r"^([a-z]+)\s*(?:\((.*)\))?$")

# scenario token name -> law class
_LAWS = {law.name: law for law in get_args(ServiceDistribution)}


@dataclass(frozen=True)
class OutputOptions:
    """What the CLI emits and how."""

    format: str = "table"
    joint: bool = True
    marginals_upto: Optional[int] = None

    def __post_init__(self):
        if self.format not in OUTPUT_FORMATS:
            raise ValueError(
                f"format must be one of {OUTPUT_FORMATS}, got {self.format!r}")
        if self.marginals_upto is not None:
            object.__setattr__(self, "marginals_upto", int(self.marginals_upto))
            if self.marginals_upto < 0:
                raise ValueError("marginals_upto must be >= 0")


@dataclass(frozen=True)
class ScenarioConfig:
    network: NetworkSpec
    sim: SimConfig = field(default_factory=SimConfig)
    outputs: OutputOptions = field(default_factory=OutputOptions)


def _fail(section: str, key: str, message: str) -> ConfigError:
    return ConfigError(f"[{section}] {key}: {message}")


def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise _fail(section, key, f"expected a number, got {raw!r}") from None


def _parse_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise _fail(section, key, f"expected an integer, got {raw!r}") from None


def _parse_bool(section: str, key: str, raw: str) -> bool:
    try:
        return _BOOLEAN[raw.strip().lower()]
    except KeyError:
        raise _fail(section, key, f"expected true/false, got {raw!r}") from None


def _parse_distribution(section: str, key: str, token: str) -> ServiceDistribution:
    token = token.strip()
    match = _DIST_RE.match(token)
    if not match:
        raise _fail(section, key, f"bad distribution token {token!r}")
    name, argtext = match.groups()
    if name not in _LAWS:
        raise _fail(section, key, f"unknown distribution {name!r}")
    law = _LAWS[name]
    params = law.params()
    if not params:
        if argtext:
            raise _fail(section, key, f"{name} takes no parameters")
        return law()
    values: dict[str, float] = {}
    args = [a.strip() for a in argtext.split(",")] if argtext else []
    for pos, arg in enumerate(args):
        if "=" in arg:
            pname, _, raw = arg.partition("=")
            pname = pname.strip()
            if pname not in params:
                raise _fail(section, key,
                            f"{name} has no parameter {pname!r}")
        else:
            if pos >= len(params):
                raise _fail(section, key, f"too many parameters for {name}")
            pname, raw = params[pos], arg
        if pname in values:
            raise _fail(section, key, f"duplicate parameter {pname!r}")
        values[pname] = _parse_float(section, key, raw.strip())
    if set(values) != set(params):
        raise _fail(section, key,
                    f"{name} needs parameters {', '.join(params)}")
    try:
        return law(**values)
    except ValueError as exc:
        raise _fail(section, key, str(exc)) from None


def _parse_route(section: str, key: str, raw: str, n_nodes: int) -> tuple[float, ...]:
    row = [0.0] * n_nodes
    raw = raw.strip()
    if not raw:
        return tuple(row)
    seen = set()
    for entry in raw.split(","):
        target_text, sep, prob_text = entry.partition(":")
        if not sep:
            raise _fail(section, key,
                        f"expected 'target: probability', got {entry.strip()!r}")
        target = _parse_int(section, key, target_text.strip())
        if not 1 <= target <= n_nodes:
            raise _fail(section, key,
                        f"target {target} out of range 1..{n_nodes}")
        if target in seen:
            raise _fail(section, key, f"duplicate target {target}")
        seen.add(target)
        row[target - 1] = _parse_float(section, key, prob_text.strip())
    return tuple(row)


def _parse_network(cp: configparser.ConfigParser) -> NetworkSpec:
    section = "network"
    if not cp.has_section(section):
        raise ConfigError("missing [network] section")
    items = dict(cp.items(section))
    for required in ("nodes", "components", "arrivals"):
        if required not in items:
            raise _fail(section, required, "missing required key")
    n_nodes = _parse_int(section, "nodes", items["nodes"])
    n_comp = _parse_int(section, "components", items["components"])
    if n_nodes < 1 or n_comp < 1:
        raise ConfigError("[network] nodes and components must be >= 1")
    known = {"nodes", "components", "arrivals"}
    for i in range(1, n_nodes + 1):
        known.add(f"node{i}.components")
        for k in range(1, n_comp + 1):
            known.add(f"node{i}.route{k}")
    unknown = sorted(set(items) - known)
    if unknown:
        raise ConfigError(f"[network] unknown keys: {', '.join(unknown)}")

    rates = [s.strip() for s in items["arrivals"].split(",")]
    if len(rates) != n_nodes:
        raise _fail(section, "arrivals",
                    f"expected {n_nodes} rates, got {len(rates)}")
    arrivals = tuple(_parse_float(section, "arrivals", r) for r in rates)

    nodes = []
    for i in range(1, n_nodes + 1):
        ckey = f"node{i}.components"
        if ckey not in items:
            raise _fail(section, ckey, "missing required key")
        tokens = items[ckey].split(",")
        # uniform(0.0, 2.0) splits on its inner comma; re-join by balance
        merged: list[str] = []
        depth = 0
        for piece in tokens:
            if depth > 0:
                merged[-1] += "," + piece
            else:
                merged.append(piece)
            depth += piece.count("(") - piece.count(")")
        if len(merged) != n_comp:
            raise _fail(section, ckey,
                        f"expected {n_comp} components, got {len(merged)}")
        components = tuple(_parse_distribution(section, ckey, t) for t in merged)
        routing = tuple(
            _parse_route(section, f"node{i}.route{k}",
                         items.get(f"node{i}.route{k}", ""), n_nodes)
            for k in range(1, n_comp + 1)
        )
        nodes.append(NodeSpec(components=components, routing=routing))
    return NetworkSpec(nodes=tuple(nodes), arrival_rates=arrivals)


def _parse_sim(cp: configparser.ConfigParser) -> SimConfig:
    section = "sim"
    if not cp.has_section(section):
        return SimConfig()
    items = dict(cp.items(section))
    known = {"seed", "generator", "horizon", "warmup", "record_joint"}
    unknown = sorted(set(items) - known)
    if unknown:
        raise ConfigError(f"[sim] unknown keys: {', '.join(unknown)}")
    kwargs = {}
    if "seed" in items:
        kwargs["seed"] = _parse_int(section, "seed", items["seed"])
    if "generator" in items:
        kwargs["generator_name"] = items["generator"].strip()
    if "horizon" in items:
        kwargs["horizon"] = _parse_float(section, "horizon", items["horizon"])
    if "warmup" in items:
        kwargs["warmup"] = _parse_float(section, "warmup", items["warmup"])
    if "record_joint" in items:
        kwargs["record_joint"] = _parse_bool(section, "record_joint",
                                             items["record_joint"])
    try:
        return SimConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"[sim] {exc}") from None


def _parse_outputs(cp: configparser.ConfigParser) -> OutputOptions:
    section = "outputs"
    if not cp.has_section(section):
        return OutputOptions()
    items = dict(cp.items(section))
    known = {"format", "joint", "marginals_upto"}
    unknown = sorted(set(items) - known)
    if unknown:
        raise ConfigError(f"[outputs] unknown keys: {', '.join(unknown)}")
    kwargs = {}
    if "format" in items:
        kwargs["format"] = items["format"].strip()
    if "joint" in items:
        kwargs["joint"] = _parse_bool(section, "joint", items["joint"])
    if "marginals_upto" in items:
        kwargs["marginals_upto"] = _parse_int(section, "marginals_upto",
                                              items["marginals_upto"])
    try:
        return OutputOptions(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"[outputs] {exc}") from None


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse scenario text; the embedded network must pass full validation."""
    cp = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed scenario file: {exc}") from None
    unknown = sorted(set(cp.sections()) - {"network", "sim", "outputs"})
    if unknown:
        raise ConfigError(f"unknown sections: {', '.join(unknown)}")
    spec = _parse_network(cp)
    report = validate(spec)
    if report:
        raise InvalidNetworkError(report)
    return ScenarioConfig(network=spec, sim=_parse_sim(cp),
                          outputs=_parse_outputs(cp))


def load_scenario(path) -> ScenarioConfig:
    return parse_scenario(Path(path).read_text())


def render_scenario(cfg: ScenarioConfig) -> str:
    """Canonical text form; parse_scenario(render_scenario(cfg)) == cfg."""
    spec = cfg.network
    lines = ["[network]",
             f"nodes = {spec.n_nodes}",
             f"components = {spec.n_components}",
             "arrivals = " + ", ".join(repr(r) for r in spec.arrival_rates)]
    for i, node in enumerate(spec.nodes, start=1):
        comps = ", ".join(d.token() for d in node.components)
        lines.append(f"node{i}.components = {comps}")
        for k, row in enumerate(node.routing, start=1):
            entries = ", ".join(f"{m}: {q!r}"
                                for m, q in enumerate(row, start=1) if q > 0.0)
            if entries:
                lines.append(f"node{i}.route{k} = {entries}")
            else:
                lines.append(f"node{i}.route{k} =")
    sim = cfg.sim
    lines += ["",
              "[sim]",
              f"seed = {sim.seed}",
              f"generator = {sim.generator_name}",
              f"horizon = {sim.horizon!r}",
              f"warmup = {sim.warmup!r}",
              f"record_joint = {'true' if sim.record_joint else 'false'}"]
    out = cfg.outputs
    lines += ["",
              "[outputs]",
              f"format = {out.format}",
              f"joint = {'true' if out.joint else 'false'}"]
    if out.marginals_upto is not None:
        lines.append(f"marginals_upto = {out.marginals_upto}")
    return "\n".join(lines) + "\n"


def bundled_scenario_path() -> Path:
    """Path of the packaged two-node deadline-routing scenario."""
    return Path(resources.files("deadlinenet") / "data" / "two_node_deadline.cfg")
