"""End-to-end pipeline and command-line behavior."""

import json
import re
import threading

import numpy as np
import pytest

from photonstats import cli, pipeline
from photonstats.artifacts import (
    HISTOGRAM_HEADER,
    RHO_HEADER,
    count_rows,
    float_rows,
    read_histogram,
    read_rho,
    write_csv,
)
from photonstats.calibration import CountHistogram
from photonstats.heralding import HeraldConfig, TriggerKind
from photonstats.montecarlo import Contaminant, ExperimentConfig
from photonstats.detector import uniform_bins
from photonstats.pipeline import calibrate_histogram, run_pipeline, witness_tolerance

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


def histogram_file(tmp_path, counts, name="histogram.csv"):
    path = tmp_path / name
    write_csv(path, HISTOGRAM_HEADER, count_rows(np.array(counts, dtype=np.int64)), None)
    return path


# these counts deconvolve, on 8 equal bins, to survivors that dip to -5.714e-03
DIPPING = [600, 390, 0, 10, 0, 0, 0, 0, 0]


def dip_note(dip: str) -> str:
    return f"deconvolution: deconvolved statistics dip to {dip}; treating as a quasi-distribution"


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


def test_cli_bin_sum_error_prints_a_plain_number(tmp_path, capsys):
    hist = tmp_path / "h.csv"
    hist.write_text("clicks,count\n0,600\n1,350\n2,50\n")
    code = cli.main(
        ["calibrate", "--histogram", str(hist), "--bins", "0.5,0.6",
         "--out-dir", str(tmp_path / "out")]
    )
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and "sum to 1.1, not 1" in err[0]


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


def test_cli_simulate_strict_escalates_empty_heralds(tmp_path, capsys):
    cfg = config_file(tmp_path, parametric_gain=0.0, pulses=1000, seed=3)
    argv = ["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]
    assert cli.main(argv) == 0
    assert "warning: no heralds recorded" in capsys.readouterr().err
    assert cli.main(argv + ["--strict"]) == 1


def test_pipeline_direct_refusal_at_21_bins_and_low_eta(tmp_path):
    # 21 equal bins at eta_s = 0.04: the composite response is far past the
    # conditioning gate, so the run ends in a complete report
    cfg = config_file(
        tmp_path,
        parametric_gain=0.14,
        herald=HeraldConfig(kind=TriggerKind.SINGLE_APD, eta_trigger=0.9),
        eta_signal=0.04,
        bins=uniform_bins(21),
        pulses=2_000_000,
        seed=5,
    )
    out = tmp_path / "out"
    argv = ["pipeline", "--config", str(cfg), "--method", "direct", "--out-dir", str(out)]
    assert cli.main(argv) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["efficiency"]["eta_for_inversion"] is not None
    assert report["inversion"] is None
    refusal = re.compile(
        r"reconstruction refused \(composite response has condition number \S+ > 1e\+12; "
    )
    assert any(refusal.match(w) for w in report["warnings"]), report["warnings"]
    assert cli.main(argv + ["--strict"]) == 1


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


# ------------------------------------------------------------ one warnings channel


def test_calibrations_in_threads_keep_their_own_notes(monkeypatch, capfd):
    # forced crossing order: A enters, B enters, A deconvolves and returns,
    # then B deconvolves
    real = pipeline.deconvolve_clicks
    a_in, b_in, a_done = threading.Event(), threading.Event(), threading.Event()

    def gated(*args):
        if threading.current_thread().name == "A":
            a_in.set()
            assert b_in.wait(10)
        else:
            b_in.set()
            assert a_done.wait(10)
        return real(*args)

    monkeypatch.setattr(pipeline, "deconvolve_clicks", gated)
    hists = {
        "A": CountHistogram(np.array(DIPPING), trigger_label="t1"),
        "B": CountHistogram(np.array([600, 380, 0, 20, 0, 0, 0, 0, 0]), trigger_label="t1"),
    }
    notes, errors = {}, []

    def calibrate(name):
        try:
            notes[name] = calibrate_histogram(hists[name], uniform_bins(8), 1)[1]
        except Exception as err:  # reported by the assertion below
            errors.append(err)
        finally:
            if name == "A":
                a_done.set()

    a = threading.Thread(target=calibrate, args=("A",), name="A")
    b = threading.Thread(target=calibrate, args=("B",), name="B")
    a.start()
    assert a_in.wait(10)
    b.start()
    a.join(10)
    b.join(10)
    assert not a.is_alive() and not b.is_alive()
    assert errors == []
    assert notes == {"A": [dip_note("-5.714e-03")], "B": [dip_note("-1.143e-02")]}
    assert capfd.readouterr().err == ""


def test_cli_calibrate_strict_escalates_a_dip(tmp_path, capsys):
    hist = histogram_file(tmp_path, DIPPING)
    argv = ["calibrate", "--histogram", str(hist), "--out-dir", str(tmp_path)]
    assert cli.main(argv) == 0
    assert capsys.readouterr().err == f"warning: {dip_note('-5.714e-03')}\n"
    assert cli.main(argv + ["--strict"]) == 1
    assert capsys.readouterr().err == f"warning: {dip_note('-5.714e-03')}\n"
    blob = json.loads((tmp_path / "calibration.json").read_text())
    assert blob["warnings"] == [dip_note("-5.714e-03")]


@pytest.mark.parametrize("label", ["2", "t", "T2", "t-1", "t+1", "t2.0", "t02", "t 2", "x1", ""])
def test_cli_calibrate_rejects_a_malformed_trigger(tmp_path, capsys, label):
    hist = histogram_file(tmp_path, DIPPING)
    code = cli.main(
        ["calibrate", "--histogram", str(hist), "--trigger", label, "--out-dir", str(tmp_path)]
    )
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("photonstats: error:")
    assert not (tmp_path / "calibration.json").exists()


def test_cli_calibrate_falls_back_to_klyshko_above_order_two(tmp_path, capsys):
    cfg = config_file(tmp_path)
    out = tmp_path / "out"
    cli.main(["simulate", "--config", str(cfg), "--out-dir", str(out)])
    argv = ["calibrate", "--histogram", str(out / "histogram_t1.csv"), "--trigger", "t3",
            "--out-dir", str(out)]
    capsys.readouterr()
    assert cli.main(argv) == 0
    note = "no order-3 estimator; falling back to the Klyshko ratio"
    assert f"warning: {note}" in capsys.readouterr().err.splitlines()
    blob = json.loads((out / "calibration.json").read_text())
    assert blob["efficiency"]["eta_source"] == "klyshko"
    assert [e["order"] for e in blob["efficiency"]["estimates"]] == ["klyshko"]
    assert blob["efficiency"]["trigger_label"] == "t3"
    assert note in blob["warnings"]
    assert cli.main(argv + ["--strict"]) == 1


def test_pipeline_stops_when_eta_is_undefined(tmp_path):
    # no pairs: every herald is a dark click, so no signal photon survives
    dark_only = dict(
        parametric_gain=0.0,
        herald=HeraldConfig(kind=TriggerKind.SINGLE_APD, eta_trigger=0.25, dark_click_prob=0.01),
        bins=[0.5, 0.5],
        pulses=20_000,
        seed=1,
    )
    report = run_pipeline(single_config(**dark_only))
    assert report["herald_count"] > 0
    assert report["efficiency"]["eta_for_inversion"] is None
    assert report["inversion"] is None and report["nonclassicality"] is None
    assert "calibrated efficiency undefined; reconstruction cannot proceed" in report["warnings"]
    argv = ["pipeline", "--config", str(config_file(tmp_path, **dark_only)),
            "--out-dir", str(tmp_path)]
    assert cli.main(argv) == 0
    assert cli.main(argv + ["--strict"]) == 1


def test_cli_pipeline_warns_at_the_sweep_budget(tmp_path, capsys):
    cfg = config_file(tmp_path, pulses=50_000)
    argv = ["pipeline", "--config", str(cfg), "--max-iter", "1", "--out-dir", str(tmp_path)]
    assert cli.main(argv) == 0
    err = capsys.readouterr().err.splitlines()
    assert "warning: reconstruction stopped at the sweep budget" in err
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["inversion"]["converged"] is False
    assert "reconstruction stopped at the sweep budget" in report["warnings"]
    assert cli.main(argv + ["--strict"]) == 1


def test_cli_invert_strict_escalates_the_sweep_budget(tmp_path, capsys):
    hist = histogram_file(tmp_path, DIPPING)
    argv = ["invert", "--histogram", str(hist), "--eta", "0.39", "--max-iter", "1",
            "--out-dir", str(tmp_path)]
    assert cli.main(argv) == 0
    assert capsys.readouterr().err == "warning: reconstruction stopped at the sweep budget\n"
    assert cli.main(argv + ["--strict"]) == 1


def test_cli_analyze_strict_escalates_a_vacuum_note(tmp_path, capsys):
    rho = tmp_path / "rho.csv"
    write_csv(rho, RHO_HEADER, float_rows([1.0, 0.0, 0.0]), None)
    argv = ["analyze", "--rho", str(rho), "--out-dir", str(tmp_path)]
    assert cli.main(argv) == 0
    note = "inferred statistics are vacuum; Q undefined"
    assert capsys.readouterr().err == f"warning: {note}\n"
    assert cli.main(argv + ["--strict"]) == 1
    blob = json.loads((tmp_path / "nonclassicality.json").read_text())
    assert blob["nonclassicality"]["notes"] == [note]
