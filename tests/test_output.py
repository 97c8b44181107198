"""The streaming writer against the whole-string reference renderer: every
command's document in every format, byte for byte."""

import dataclasses
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from deadlinenet import ScenarioConfig, SimConfig
from deadlinenet import cli
from deadlinenet.cli import EXIT_NUMERICAL, main

from helpers import mixed_network, reference_render, render_scenario

FAST = ["--horizon", "1000", "--warmup", "100"]
COMMANDS = {"solve": [], "expand": [], "baselines": [], "compare": FAST,
            "simulate": FAST}
FORMATS = ["json", "csv", "table"]


@pytest.fixture(scope="module")
def mixed_config(tmp_path_factory):
    """A seeded 25-node, K = 3 mixed-law scenario whose simulation is short
    enough to record the joint histogram."""
    spec = mixed_network(np.random.default_rng(13), 25, 3, max_total=0.6,
                         rate_range=(0.02, 0.1))
    path = tmp_path_factory.mktemp("mixed") / "mixed.cfg"
    path.write_text(render_scenario(ScenarioConfig(
        network=spec, sim=SimConfig(seed=5))))
    return str(path)


def _write_and_reference(monkeypatch):
    """Make cli._write also render the document with the reference
    renderer; returns the list the reference strings go to."""
    references = []
    write = cli._write

    def both(doc, fmt, out):
        doc.tables = [(name, header, list(rows))
                      for name, header, rows in doc.tables]
        references.append(reference_render(doc, fmt))
        write(doc, fmt, out)

    monkeypatch.setattr(cli, "_write", both)
    return references


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("scenario", ["bundled", "mixed"])
def test_output_matches_reference_renderer(monkeypatch, mixed_config,
                                           scenario, command, fmt):
    references = _write_and_reference(monkeypatch)
    args = [command, "--format", fmt, *COMMANDS[command]]
    if scenario == "mixed":
        args += ["--config", mixed_config]
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.stderr
    assert result.stdout == references[0]


def _synthetic_doc(rows):
    doc = cli._Doc("synthetic")
    inf, nan = math.inf, math.nan
    doc.table("cells", ["int", "float", "none", "word"],
              rows([[1, 0.5, None, "a"], [np.int64(2), inf, None, "bc"],
                    [3, nan, -inf, "é"], [4, -0.0, 1e300, ""]]))
    doc.table("empty", ["a", "b"], rows([]))
    doc.table("no_columns", [], rows([[], []]))
    doc.note("first note")
    doc.note("second note")
    doc.payload.update({
        "scalars": [inf, -inf, nan, 1.5, np.float64(inf), np.float64(nan),
                    np.float32(0.25), np.int64(-7), True, False, None],
        "inf": inf,
        "nan": nan,
        "numpy_inf": np.float64(-inf),
        "float_array": np.array([1.0, inf, nan, -inf, 0.1]),
        "finite_array": np.array([0.1, 2.0, -0.0, 1e-300]),
        "matrix": np.array([[0.1, np.inf], [3.0, -0.0]]),
        "finite_matrix": np.arange(6.0).reshape(2, 3) / 7,
        "int_array": np.arange(3),
        "bool_array": np.array([True, False]),
        "empty_list": [],
        "empty_tuple": (),
        "empty_dict": {},
        "empty_array": np.zeros(0),
        "empty_matrix": np.zeros((2, 0)),
        "nested": {"pairs": [[1, 2.5], (3, [inf, nan]), {}], 7: "ключ\n\""},
        "rows": [{"a": 1, "b": [0.5, None]}, {"a": inf}],
    })
    return doc


@pytest.mark.parametrize("fmt", FORMATS)
def test_non_finite_and_empty_values_match_reference(fmt):
    chunks = []
    cli._write(_synthetic_doc(iter), fmt, chunks.append)
    assert "".join(chunks) == reference_render(_synthetic_doc(list), fmt)


@pytest.mark.parametrize("fmt", FORMATS)
def test_empty_document_matches_reference(fmt):
    chunks = []
    cli._write(cli._Doc("nothing"), fmt, chunks.append)
    assert "".join(chunks) == reference_render(cli._Doc("nothing"), fmt)


def test_json_never_builds_the_tables():
    def unbuilt():
        raise AssertionError("a table was built for JSON output")
        yield

    doc = _synthetic_doc(lambda rows: unbuilt())
    chunks = []
    cli._write(doc, "json", chunks.append)
    assert json.loads("".join(chunks))["nested"]["7"] == "ключ\n\""


def test_expand_stdout_equals_out_file(tmp_path, mixed_config):
    target = tmp_path / "expand.json"
    runner = CliRunner()
    args = ["expand", "--config", mixed_config, "--format", "json"]
    to_stdout = runner.invoke(main, args, catch_exceptions=False)
    to_file = runner.invoke(main, [*args, "--out", str(target)],
                            catch_exceptions=False)
    assert (to_stdout.exit_code, to_file.exit_code, to_file.output) == (0, 0, "")
    assert target.read_text() == to_stdout.stdout


def test_failed_expansion_check_writes_the_whole_document(monkeypatch, tmp_path):
    solve_expanded = cli.solve_expanded

    def mismatched(spec):
        solution = solve_expanded(spec)
        return dataclasses.replace(
            solution, supernode_rho=solution.supernode_rho * (1 + 1e-6))

    monkeypatch.setattr(cli, "solve_expanded", mismatched)
    references = _write_and_reference(monkeypatch)
    target = tmp_path / "expand.json"
    runner = CliRunner()
    to_stdout = runner.invoke(main, ["expand", "--format", "json"])
    to_file = runner.invoke(main, ["expand", "--format", "json",
                                   "--out", str(target)])
    for result in (to_stdout, to_file):
        assert result.exit_code == EXIT_NUMERICAL
        assert result.stderr == "expansion check failed\n"
    assert to_stdout.stdout == target.read_text() == references[0]
    assert json.loads(to_stdout.stdout)["check"]["ok"] is False
