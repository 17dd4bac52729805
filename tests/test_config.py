"""Config rule tables: the constructors' checks, fuzzed documents through
the CLI, and a runtime that needs numpy only."""

import copy
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonstats import cli
from photonstats.errors import DomainError
from photonstats.heralding import HeraldConfig
from photonstats.montecarlo import Contaminant, ExperimentConfig

VALID = {
    "parametric_gain": 0.3,
    "herald": {
        "kind": "single_apd", "eta_trigger": 0.25, "dark_click_prob": 1e-3, "resolve_k": 1
    },
    "eta_signal": 0.373,
    "extra_transmission": 0.9,
    "bins": [0.25, 0.25, 0.25, 0.25],
    "contaminant": {"kind": "coherent", "mean": 0.2},
    "pulses": 2_000,
    "seed": 3,
}
FIELDS = (
    [f"/{key}" for key in VALID]
    + [f"/herald/{key}" for key in VALID["herald"]]
    + [f"/contaminant/{key}" for key in VALID["contaminant"]]
)
REQUIRED = {
    "/parametric_gain", "/herald", "/eta_signal", "/herald/kind", "/contaminant/kind",
    "/contaminant/mean",
}
DROP, ABOVE = object(), object()
# just past the upper end of each field's range; 1.5 is mistyped wherever absent
ABOVE_RANGE = {
    "/parametric_gain": 1.0,
    "/extra_transmission": 1.0 + 1e-9,
    "/pulses": 2**53 + 1,
    "/seed": 2**64,
    "/herald/dark_click_prob": 1.0,
    "/herald/resolve_k": 0.5,
    "/contaminant/mean": math.inf,
}
# every one of these breaks every field it replaces
BAD = st.sampled_from([
    math.nan, math.inf, -math.inf, "", "x", "0.5", True, False,
    [], ["x"], [0.5], [math.nan, 1.0], {"kind": 1}, -1, -0.5, -(2**64), ABOVE,
])


def run_simulate(doc) -> tuple[int, list[str]]:
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "config.json")
        path.write_text(json.dumps(doc))
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = cli.main(["simulate", "--config", str(path), "--out-dir", tmp])
    return code, err.getvalue().splitlines()


def parent_of(doc, pointer):
    """The object holding the field at pointer, or None once an ancestor
    is gone or no longer an object."""
    node = doc
    for key in pointer.split("/")[1:-1]:
        node = node.get(key) if isinstance(node, dict) else None
    return node if isinstance(node, dict) else None


def test_constructors_check_the_same_rules():
    herald = HeraldConfig(**VALID["herald"])
    with pytest.raises(DomainError, match="/parametric_gain"):
        ExperimentConfig(parametric_gain=math.nan, herald=herald, eta_signal=0.5)
    with pytest.raises(DomainError, match="/seed"):
        ExperimentConfig(parametric_gain=0.1, herald=herald, eta_signal=0.5, seed=True)
    with pytest.raises(DomainError, match="/eta_trigger"):
        HeraldConfig(kind="single_apd", eta_trigger=math.nan)
    with pytest.raises(DomainError, match="/mean"):
        Contaminant(kind="thermal", mean=math.inf)
    assert HeraldConfig(kind="ideal_k_resolving", resolve_k=2.0).resolve_k == 2
    assert ExperimentConfig.from_dict(VALID).to_dict() == VALID


@settings(max_examples=120, deadline=None)
@given(
    changes=st.dictionaries(
        st.sampled_from(FIELDS), st.one_of(st.just(DROP), BAD), max_size=4
    ),
    unknown=st.sets(st.sampled_from(["", "/herald", "/contaminant"])),
)
def test_fuzzed_config_exits_0_or_2_naming_each_violation(changes, unknown):
    doc = copy.deepcopy(VALID)
    expected = []
    for pointer in changes:
        if any(pointer.startswith(f"{other}/") for other in changes):
            continue  # its ancestor was dropped or replaced
        parent, key = parent_of(doc, pointer), pointer.rsplit("/", 1)[1]
        value = changes[pointer]
        if value is DROP:
            del parent[key]
            if pointer in REQUIRED:
                expected.append(pointer)
            continue
        parent[key] = ABOVE_RANGE.get(pointer, 1.5) if value is ABOVE else copy.deepcopy(value)
        expected.append(pointer)
    for container in unknown:
        parent = parent_of(doc, f"{container}/bogus")
        if parent is not None:
            parent["bogus"] = 1
            expected.append(f"{container}/bogus")
    code, err = run_simulate(doc)
    if not expected:
        assert code == 0, err
        return
    assert code == 2
    assert len(err) == 1 and err[0].startswith("photonstats: error:"), err
    for pointer in expected:  # a replaced object may be named by its fields
        assert f"{pointer}:" in err[0] or f"{pointer}/" in err[0], (pointer, err[0])


def test_runtime_needs_numpy_only(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(VALID | {"pulses": 20_000}))
    argv = ["pipeline", "--config", str(config), "--out-dir", str(tmp_path / "out")]
    script = (
        "import sys\n"
        "sys.modules['scipy'] = sys.modules['jsonschema'] = None\n"
        "from photonstats import cli\n"
        f"sys.exit(cli.main({argv!r}))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = os.environ | {"PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["inversion"] is not None
