"""The benchmark must keep running against the package.

perfbench/tracing.py wraps module attributes such as cli.write_csv and
pipeline.em_invert to time each layer.  A rename or removal of one of
those names breaks the traced run, so install and remove its hooks here.
The smoke run drives every workload once at a tiny size, so a change that
breaks a workload's inputs or its correctness gate fails here too.
"""

import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    yield tracing
    for name in ("tracing", "workloads"):
        sys.modules.pop(name, None)


def test_tracer_hooks_install_and_uninstall(tracing):
    originals = [getattr(module, attr) for module, attr, _, _ in tracing.BOUNDARIES]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (module, attr, _, _), original in zip(tracing.BOUNDARIES, originals):
            assert getattr(module, attr) is not original, attr
    finally:
        tracer.uninstall()
    restored = [getattr(module, attr) for module, attr, _, _ in tracing.BOUNDARIES]
    assert restored == originals


def test_cli_writes_through_traced_names(tracing, tmp_path):
    from photonstats import cli

    rho = tmp_path / "rho.csv"
    rho.write_text("n,rho\n0,0.2\n1,0.7\n2,0.1\n")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(["analyze", "--rho", str(rho), "--out-dir", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    names = {span.name for span in tracer.spans}
    assert {"main", "write_json", "write_csv"} <= names
    assert tracer.counts["cli.bytes_written"] > 0


def test_smoke_run_passes():
    result = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
