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
rejected.
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, get_args

from .errors import ConfigError, InvalidNetworkError
from .model import NetworkSpec, NodeSpec, ServiceDistribution, validate

__all__ = [
    "SimConfig",
    "OutputOptions",
    "ScenarioConfig",
    "parse_scenario",
    "load_scenario",
    "bundled_scenario_path",
]

OUTPUT_FORMATS = ("table", "csv", "json")

# [sim] generator -> the numpy.random bit generator class the simulator
# seeds; by name, so that reading a scenario does not load numpy.random
GENERATORS = {"pcg64": "PCG64", "philox": "Philox"}

_BOOLEAN = {"1": True, "yes": True, "true": True, "on": True,
            "0": False, "no": False, "false": False, "off": False}

_DIST_RE = re.compile(r"^([a-z]+)\s*(?:\((.*)\))?$")
# node<i>.components or node<i>.route<k>, 1-based with no leading zero
_NODE_KEY_RE = re.compile(r"node([1-9][0-9]*)\.(?:components|route([1-9][0-9]*))")
# every byte but the routing separators ":" and ","
_NOT_SEPARATORS = bytes(range(256)).translate(None, b":,")

# scenario token name -> law class
_LAWS = {law.name: law for law in get_args(ServiceDistribution)}


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


def _parse_word(section: str, key: str, raw: str) -> str:
    return raw.strip()


# every [sim] and [outputs] setting, in render order:
# section -> (class, ((scenario key, field, parser), ...))
_SETTINGS = {
    "sim": (SimConfig, (("seed", "seed", _parse_int),
                        ("generator", "generator_name", _parse_word),
                        ("horizon", "horizon", _parse_float),
                        ("warmup", "warmup", _parse_float),
                        ("record_joint", "record_joint", _parse_bool))),
    "outputs": (OutputOptions, (("format", "format", _parse_word),
                                ("joint", "joint", _parse_bool),
                                ("marginals_upto", "marginals_upto",
                                 _parse_int))),
}


def setting_items(section: str, obj) -> list[tuple[str, object]]:
    """(scenario key, value) of each setting of ``obj``, the SimConfig or
    OutputOptions of ``section``, in render order."""
    return [(key, getattr(obj, name)) for key, name, _ in _SETTINGS[section][1]]


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


def _parse_route(section: str, key: str, raw: str, n_nodes: int,
                 dense: list[str]) -> tuple[float, ...]:
    """The routing row of ``raw``. ``dense`` holds the target texts of a
    row that lists every node as the canonical renderer writes it: "1",
    " 2", ..., " N"."""
    row = [0.0] * n_nodes
    raw = raw.strip()
    if not raw:
        return tuple(row)
    # fast path, one pass over an ASCII row. With every other byte deleted,
    # its separators read ":,:,...,:" exactly when each comma-separated
    # entry holds one colon; one split then alternates target and
    # probability texts, which int and float accept in the same spellings
    # as the loop below. Every other row, and every failure, is read again
    # by that loop, the only fallback, so each parsed value and each
    # located error message has one source
    if raw.isascii():
        shape = raw.encode().translate(None, _NOT_SEPARATORS)
        if shape == b":," * (len(shape) // 2) + b":":
            texts = raw.replace(":", ",").split(",")
            try:
                probs = list(map(float, texts[1::2]))
                if texts[::2] == dense:
                    return tuple(probs)
                targets = list(map(int, texts[::2]))
            except ValueError:
                targets = []
            if (targets and min(targets) >= 1 and max(targets) <= n_nodes
                    and len(set(targets)) == len(targets)):
                for target, prob in zip(targets, probs):
                    row[target - 1] = prob
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


def _at_most(digits: str, bound: int) -> bool:
    # lengths first: int() refuses a string of more than 4300 digits
    return len(digits) <= len(str(bound)) and int(digits) <= bound


def _is_network_key(key: str, n_nodes: int, n_comp: int) -> bool:
    if key in ("nodes", "components", "arrivals"):
        return True
    match = _NODE_KEY_RE.fullmatch(key)
    return match is not None and _at_most(match[1], n_nodes) and (
        match[2] is None or _at_most(match[2], n_comp))


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
    unknown = sorted(key for key in items
                     if not _is_network_key(key, n_nodes, n_comp))
    if unknown:
        raise ConfigError(f"[network] unknown keys: {', '.join(unknown)}")

    rates = [s.strip() for s in items["arrivals"].split(",")]
    if len(rates) != n_nodes:
        raise _fail(section, "arrivals",
                    f"expected {n_nodes} rates, got {len(rates)}")
    arrivals = tuple(_parse_float(section, "arrivals", r) for r in rates)
    dense = ["1", *(f" {m}" for m in range(2, n_nodes + 1))]

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
                         items.get(f"node{i}.route{k}", ""), n_nodes, dense)
            for k in range(1, n_comp + 1)
        )
        nodes.append(NodeSpec(components=components, routing=routing))
    return NetworkSpec(nodes=tuple(nodes), arrival_rates=arrivals)


def _parse_settings(cp: configparser.ConfigParser, section: str):
    cls, table = _SETTINGS[section]
    if not cp.has_section(section):
        return cls()
    items = dict(cp.items(section))
    unknown = sorted(set(items) - {key for key, _, _ in table})
    if unknown:
        raise ConfigError(f"[{section}] unknown keys: {', '.join(unknown)}")
    kwargs = {name: parse(section, key, items[key])
              for key, name, parse in table if key in items}
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from None


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
    return ScenarioConfig(network=spec, sim=_parse_settings(cp, "sim"),
                          outputs=_parse_settings(cp, "outputs"))


def load_scenario(path) -> ScenarioConfig:
    return parse_scenario(Path(path).read_text())


def bundled_scenario_path() -> Path:
    """Path of the packaged two-node deadline-routing scenario."""
    return Path(__file__).with_name("data") / "two_node_deadline.cfg"
