"""Golden simulator outputs: every case of ``tests/golden/manifest.json``
rerun and compared with its committed stdout. ``tests/golden_update.py``
rewrites the files."""

import json
import math
import warnings

import numpy as np
import pytest

from golden_update import GOLDEN, cpu_features, run_case

MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())
# the simulator's draws use numpy's vectorised log1p and power, and its
# sweep an unstable sort, whose last bits may differ between numpy builds
# and between the CPU features their kernels dispatch on; a set that
# cannot be read matches nothing
FEATURES = cpu_features()
SAME_BUILD = (MANIFEST["numpy"] == np.__version__ and FEATURES is not None
              and MANIFEST.get("cpu_features") == FEATURES)
RTOL = 1e-12


def first_difference(want, got, rtol=0.0, path="$"):
    """The path of the first value where two JSON documents differ, or
    None; numbers agree within ``rtol`` relative."""
    if isinstance(want, dict) and isinstance(got, dict):
        if list(want) != list(got):
            return f"{path} (keys {list(want)} != {list(got)})"
        for key in want:
            found = first_difference(want[key], got[key], rtol, f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return f"{path} (length {len(want)} != {len(got)})"
        for i, (a, b) in enumerate(zip(want, got)):
            found = first_difference(a, b, rtol, f"{path}[{i}]")
            if found:
                return found
        return None
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                  for v in (want, got))
    if want == got or (numbers and math.isclose(want, got, rel_tol=rtol,
                                                abs_tol=0.0)):
        return None
    return f"{path} ({want!r} != {got!r})"


@pytest.mark.parametrize("case", MANIFEST["cases"], ids=lambda c: c["name"])
def test_golden_output_is_reproduced(case):
    code, stdout = run_case(case["scenario"], case["args"])
    name = case["output"]
    assert code == case["exit_code"], f"{name}: exit {code}"
    want = (GOLDEN / name).read_text()
    if SAME_BUILD:
        if stdout != want:
            where = first_difference(json.loads(want), json.loads(stdout))
            pytest.fail(f"{name} differs at {where or 'the byte level'}")
        return
    why = (f"written under numpy {MANIFEST['numpy']}, run under "
           f"{np.__version__}" if MANIFEST["numpy"] != np.__version__ else
           "numpy's CPU features differ from those that wrote it")
    warnings.warn(f"{name}: {why}; numbers compared at {RTOL} relative, "
                  "not byte for byte")
    where = first_difference(json.loads(want), json.loads(stdout), RTOL)
    assert where is None, f"{name} differs at {where}"
