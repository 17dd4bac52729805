"""End-to-end pipeline and command-line behavior."""

import json
import re

import numpy as np
import pytest

from photonstats import cli
from photonstats.artifacts import read_histogram, read_rho
from photonstats.calibration import CountHistogram
from photonstats.heralding import HeraldConfig, TriggerKind
from photonstats.montecarlo import Contaminant, ExperimentConfig
from photonstats.pipeline import run_pipeline, witness_tolerance

SINGLE = HeraldConfig(kind=TriggerKind.SINGLE_APD, eta_trigger=0.25)
DOUBLE = HeraldConfig(
    kind=TriggerKind.DOUBLE_APD_COINCIDENCE, eta_trigger=0.8, dark_click_prob=5e-4
)


def single_config(**overrides) -> ExperimentConfig:
    base = dict(
        parametric_gain=0.3,
        herald=SINGLE,
        eta_signal=0.373,
        pulses=200_000,
        seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def config_file(tmp_path, name="config.json", **overrides):
    doc = single_config(**overrides).to_dict()
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def strip_timestamps(text: str) -> str:
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": null', text)


# ------------------------------------------------------------ run_pipeline


def test_report_sections_complete_for_single_trigger():
    report = run_pipeline(single_config())
    assert report["schema_version"] == "1"
    assert report["herald_count"] > 0
    assert sum(report["histogram"]["counts"]) == report["herald_count"]
    orders = [e["order"] for e in report["efficiency"]["estimates"]]
    assert orders == ["single_trigger", "klyshko"]
    assert report["efficiency"]["eta_source"] == "single_trigger"
    inv = report["inversion"]
    assert inv["target_photon_number"] == 1
    assert 0.0 < inv["fidelity_to_target"] <= 1.0
    assert inv["converged"]
    nc = report["nonclassicality"]
    assert isinstance(nc["q_negative"], bool)
    assert len(nc["b_values"]) > 0
    assert nc["detected_mean"] > 0


def test_pipeline_feeds_calibrated_eta_into_inversion():
    report = run_pipeline(single_config())
    assert report["inversion"]["eta"] == report["efficiency"]["eta_for_inversion"]


def test_double_trigger_report_lists_each_estimator_once():
    config = single_config(
        parametric_gain=0.18, herald=DOUBLE, eta_signal=0.315, pulses=2_000_000
    )
    report = run_pipeline(config)
    orders = [e["order"] for e in report["efficiency"]["estimates"]]
    assert orders == ["j0", "j1", "j2", "klyshko"]
    assert set(report["efficiency"]["combined"]) == {"average", "weighted_average"}
    assert report["efficiency"]["eta_source"] == "weighted_average"
    assert report["inversion"]["target_photon_number"] == 2


def test_empty_heralds_short_circuit():
    report = run_pipeline(single_config(parametric_gain=0.0, pulses=1000))
    assert report["herald_count"] == 0
    assert report["efficiency"] is None
    assert report["inversion"] is None
    assert any("no heralds" in w for w in report["warnings"])


def test_report_independent_of_thread_count():
    # above one generator chunk, so threads actually split the work
    config = single_config(pulses=2_200_000)
    a = run_pipeline(config, threads=1)
    b = run_pipeline(config, threads=3)
    a["provenance"].pop("timestamp")
    b["provenance"].pop("timestamp")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_target_photon_number_by_trigger_kind():
    assert SINGLE.photon_number == 1 and SINGLE.trigger_label == "t1"
    assert DOUBLE.photon_number == 2 and DOUBLE.trigger_label == "t2"
    ideal = HeraldConfig(kind=TriggerKind.IDEAL_K_RESOLVING, resolve_k=3)
    assert ideal.photon_number == 3 and ideal.trigger_label == "t3"


def test_witness_tolerance_shrinks_with_counts():
    rho = np.array([0.1, 0.8, 0.08, 0.02])
    loose = witness_tolerance(rho, 1_000)
    tight = witness_tolerance(rho, 100_000)
    assert loose > tight > 0
    assert loose / tight == pytest.approx(10.0, rel=0.05)


# ------------------------------------------------------------ CLI


def test_cli_simulate_writes_artifacts(tmp_path):
    cfg = config_file(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
    hist = read_histogram(out / "histogram_t1.csv")
    assert hist.total > 0
    meta = json.loads((out / "simulation.json").read_text())
    assert meta["provenance"]["seed"] == 11
    assert meta["herald_count"] == hist.total
    blob = json.loads((out / "histogram_t1.json").read_text())
    assert blob["histogram"]["counts"] == [int(c) for c in hist.counts]


def test_cli_schema_violation_reports_json_pointer(tmp_path, capsys):
    doc = single_config().to_dict()
    doc["parametric_gain"] = 1.2
    doc["herald"]["eta_trigger"] = 1.5
    del doc["eta_signal"]
    doc["herald"]["eta_trig"] = 0.5
    doc["pulses"] = "2000"
    doc["contaminant"] = {"kind": "coherent", "mean": float("nan")}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = cli.main(["simulate", "--config", str(bad), "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "/parametric_gain" in err
    assert "/herald/eta_trigger" in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("photonstats: error:")
    for pointer in ("/eta_signal", "/herald/eta_trig", "/pulses", "/contaminant/mean"):
        assert f"{pointer}:" in lines[0]


def test_cli_simulate_rejects_nan_bins(tmp_path, capsys):
    doc = single_config().to_dict()
    doc["bins"] = [float("nan"), float("nan")]  # json.load accepts NaN
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = cli.main(["simulate", "--config", str(bad), "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and "non-finite" in err[0]


def test_cli_invert_rejects_eta_zero(tmp_path, capsys):
    cfg = config_file(tmp_path)
    out = tmp_path / "out"
    cli.main(["simulate", "--config", str(cfg), "--out-dir", str(out)])
    code = cli.main(
        ["invert", "--histogram", str(out / "histogram_t1.csv"), "--eta", "0",
         "--out-dir", str(out)]
    )
    assert code == 2
    assert "efficiency" in capsys.readouterr().err


def test_cli_invert_then_analyze_chain(tmp_path):
    cfg = config_file(tmp_path)
    out = tmp_path / "out"
    cli.main(["simulate", "--config", str(cfg), "--out-dir", str(out)])
    hist_file = str(out / "histogram_t1.csv")
    assert cli.main(
        ["invert", "--histogram", hist_file, "--eta", "0.373", "--out-dir", str(out)]
    ) == 0
    rho = read_rho(out / "rho.csv")
    assert rho.sum() == pytest.approx(1.0, abs=1e-9)
    trace = json.loads((out / "likelihood_trace.json").read_text())
    assert len(trace["log_likelihood"]) >= 2
    overlay = (out / "overlay.csv").read_text().splitlines()
    assert overlay[1] == "clicks,frequency,poisson_reference"
    assert cli.main(
        ["analyze", "--rho", str(out / "rho.csv"), "--histogram", hist_file,
         "--out-dir", str(out)]
    ) == 0
    nc = json.loads((out / "nonclassicality.json").read_text())["nonclassicality"]
    assert nc["q_inferred"] < 0
    b_lines = (out / "b_values.csv").read_text().splitlines()
    assert b_lines[1] == "n,b"


def test_cli_analyze_tolerance_uses_normalized_rho(tmp_path):
    rho_file, hist_file = tmp_path / "rho.csv", tmp_path / "h.csv"
    rho_file.write_text("n,rho\n0,0.1\n1,0.8\n2,0.15\n3,-0.05\n")
    counts = [6000, 3500, 400, 100, 0, 0, 0, 0, 0]
    hist_file.write_text("clicks,count\n" + "".join(f"{k},{c}\n" for k, c in enumerate(counts)))
    out = tmp_path / "out"
    assert cli.main(
        ["analyze", "--rho", str(rho_file), "--histogram", str(hist_file),
         "--out-dir", str(out)]
    ) == 0
    nc = json.loads((out / "nonclassicality.json").read_text())["nonclassicality"]
    rho = np.array([0.1, 0.8, 0.15, 0.0]) / 1.05
    assert nc["tol"] == pytest.approx(witness_tolerance(rho, 10_000), rel=1e-12)


def test_cli_calibrate_single_trigger(tmp_path):
    cfg = config_file(tmp_path)
    out = tmp_path / "out"
    cli.main(["simulate", "--config", str(cfg), "--out-dir", str(out)])
    assert cli.main(
        ["calibrate", "--histogram", str(out / "histogram_t1.csv"),
         "--trigger", "t1", "--out-dir", str(out)]
    ) == 0
    blob = json.loads((out / "calibration.json").read_text())
    assert blob["efficiency"]["eta_for_inversion"] == pytest.approx(0.373, abs=0.05)
    assert blob["efficiency"]["consistent"] is None


def test_cli_calibrate_strict_flags_inconsistency(tmp_path):
    # a hot source piles n > 2 events into a double trigger, pushing the
    # three estimators apart by far more than their standard errors
    cfg = config_file(
        tmp_path,
        parametric_gain=0.45,
        herald=DOUBLE,
        eta_signal=0.315,
        pulses=2_000_000,
        seed=21,
    )
    out = tmp_path / "out"
    cli.main(["simulate", "--config", str(cfg), "--out-dir", str(out), "--threads", "2"])
    hist = str(out / "histogram_t2.csv")
    assert cli.main(
        ["calibrate", "--histogram", hist, "--trigger", "t2", "--out-dir", str(out)]
    ) == 0
    assert cli.main(
        ["calibrate", "--histogram", hist, "--trigger", "t2", "--out-dir", str(out),
         "--strict"]
    ) == 1
    blob = json.loads((out / "calibration.json").read_text())
    assert blob["efficiency"]["consistent"] is False


def test_cli_pipeline_byte_identical_across_threads(tmp_path):
    cfg = config_file(tmp_path, pulses=2_200_000)
    out1, out4 = tmp_path / "p1", tmp_path / "p4"
    assert cli.main(
        ["pipeline", "--config", str(cfg), "--out-dir", str(out1), "--threads", "1"]
    ) == 0
    assert cli.main(
        ["pipeline", "--config", str(cfg), "--out-dir", str(out4), "--threads", "4"]
    ) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out4.iterdir())
    for name in names:
        a = strip_timestamps((out1 / name).read_text())
        b = strip_timestamps((out4 / name).read_text())
        assert a == b, name


def test_cli_pipeline_strict_escalates_empty_heralds(tmp_path):
    cfg = config_file(tmp_path, parametric_gain=0.0, pulses=1000, seed=3)
    out = tmp_path / "out"
    assert cli.main(["pipeline", "--config", str(cfg), "--out-dir", str(out)]) == 0
    assert cli.main(
        ["pipeline", "--config", str(cfg), "--out-dir", str(out), "--strict"]
    ) == 1


def test_pipeline_direct_refusal_is_a_warning(tmp_path):
    # eta_s = 0.02 leaves the direct solve with condition number ~5e18
    low = dict(
        parametric_gain=0.14,
        herald=HeraldConfig(kind=TriggerKind.SINGLE_APD, eta_trigger=0.9),
        eta_signal=0.02,
        pulses=400_000,
        seed=1,
    )
    report = run_pipeline(single_config(**low), method="direct")
    assert report["efficiency"]["eta_for_inversion"] is not None
    assert report["inversion"] is None
    assert report["nonclassicality"] is None
    assert any("refused" in w for w in report["warnings"])
    assert not any("allow_ill_conditioned" in w for w in report["warnings"])
    cfg = config_file(tmp_path, **low)
    argv = ["pipeline", "--config", str(cfg), "--method", "direct", "--out-dir", str(tmp_path)]
    assert cli.main(argv) == 0
    assert cli.main(argv + ["--strict"]) == 1


def test_pipeline_calibration_refusal_is_a_warning(tmp_path):
    # 24 equal bins: the deconvolution block has condition number ~7.6e12
    cfg = config_file(tmp_path, bins=np.full(24, 1 / 24), pulses=20_000)
    out = tmp_path / "out"
    argv = ["pipeline", "--config", str(cfg), "--out-dir", str(out)]
    assert cli.main(argv) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["herald_count"] > 0
    assert report["efficiency"] is None and report["inversion"] is None
    assert any(w.startswith("calibration refused") for w in report["warnings"])
    assert cli.main(argv + ["--strict"]) == 1


def test_cli_calibrate_refusal_names_a_remedy(tmp_path, capsys):
    cfg = config_file(tmp_path)
    out = tmp_path / "out"
    cli.main(["simulate", "--config", str(cfg), "--out-dir", str(out)])
    capsys.readouterr()
    code = cli.main(
        ["calibrate", "--histogram", str(out / "histogram_t1.csv"), "--bins", "24",
         "--out-dir", str(out)]
    )
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and "coarser binning" in err[0]
    assert "allow_ill_conditioned" not in err[0]


def test_cli_direct_refusal_states_only_the_condition(tmp_path, capsys):
    cfg = config_file(tmp_path)
    out = tmp_path / "out"
    cli.main(["simulate", "--config", str(cfg), "--out-dir", str(out)])
    capsys.readouterr()
    code = cli.main(
        ["invert", "--histogram", str(out / "histogram_t1.csv"), "--method", "direct",
         "--eta", "0.012", "--out-dir", str(out)]
    )
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and "condition number" in err[0]
    assert "allow_ill_conditioned" not in err[0]


def test_cli_analyze_matches_pipeline_on_a_direct_quasi_distribution(tmp_path):
    # a bright coherent contaminant drives the direct solve negative
    cfg = config_file(tmp_path, contaminant=Contaminant("coherent", 1.0))
    out = tmp_path / "out"
    assert cli.main(
        ["pipeline", "--config", str(cfg), "--method", "direct", "--out-dir", str(out)]
    ) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["inversion"]["min_entry"] < 0
    assert cli.main(
        ["analyze", "--rho", str(out / "rho.csv"), "--histogram",
         str(out / "histogram_t1.csv"), "--out-dir", str(out)]
    ) == 0
    nc = json.loads((out / "nonclassicality.json").read_text())["nonclassicality"]
    for key in ("q_inferred", "b_values", "tol"):
        assert nc[key] == report["nonclassicality"][key], key


def test_cli_pipeline_strict_on_unequal_bins(tmp_path, capsys):
    # 16 fiber-loop bins with routing falling 7 % per bin; a convolution
    # matrix with roundoff of either sign fakes a quasi-distribution dip here
    bins = 0.93 ** np.arange(16)
    cfg = config_file(
        tmp_path,
        parametric_gain=0.14,
        herald=HeraldConfig(kind=TriggerKind.SINGLE_APD, eta_trigger=0.9),
        bins=bins / bins.sum(),
        pulses=400_000,
        seed=3,
    )
    argv = ["pipeline", "--config", str(cfg), "--out-dir", str(tmp_path), "--strict"]
    assert cli.main(argv) == 0
    assert "deconvolution" not in capsys.readouterr().err


def test_cli_seed_override(tmp_path):
    cfg = config_file(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cli.main(["simulate", "--config", str(cfg), "--out-dir", str(out_a), "--seed", "99"])
    cli.main(["simulate", "--config", str(cfg), "--out-dir", str(out_b), "--seed", "99"])
    assert (out_a / "histogram_t1.csv").read_text() == (
        out_b / "histogram_t1.csv"
    ).read_text()
    meta = json.loads((out_a / "simulation.json").read_text())
    assert meta["provenance"]["seed"] == 99


def test_cli_out_dir_from_environment(tmp_path, monkeypatch):
    cfg = config_file(tmp_path, pulses=50_000)
    env_out = tmp_path / "env_out"
    monkeypatch.setenv("PHOTONSTATS_OUT_DIR", str(env_out))
    assert cli.main(["simulate", "--config", str(cfg)]) == 0
    assert (env_out / "histogram_t1.csv").exists()


def test_cli_bins_accepts_probability_list(tmp_path):
    cfg = config_file(tmp_path)
    out = tmp_path / "out"
    cli.main(["simulate", "--config", str(cfg), "--out-dir", str(out)])
    # wrong bin model for the data, but it must parse and run
    code = cli.main(
        ["invert", "--histogram", str(out / "histogram_t1.csv"), "--eta", "0.373",
         "--bins", "0.4,0.3,0.2,0.1", "--n-max", "4", "--out-dir", str(out)]
    )
    assert code == 0
    assert read_rho(out / "rho.csv").size == 5


def test_cli_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_histogram_csv_comment_lines_round_trip(tmp_path):
    hist = CountHistogram(np.array([5, 3, 1], dtype=np.int64), trigger_label="t1")
    path = tmp_path / "h.csv"
    path.write_text("# provenance comment\nclicks,count\n0,5\n1,3\n2,1\n")
    loaded = read_histogram(path)
    assert np.array_equal(loaded.counts, hist.counts)
