"""CSV artifact layout, loader validation and exit codes on malformed input."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from photonstats import cli
from photonstats.artifacts import (
    HISTOGRAM_HEADER,
    count_rows,
    read_histogram,
    read_rho,
    write_csv,
)
from photonstats.calibration import CountHistogram
from photonstats.errors import ShapeError

MALFORMED_BODIES = {
    "index_past_body": "0,5\n7,3\n",
    "short_row": "0,5\n1\n",
    "negative_index": "-1,3\n",
    "duplicate_index": "0,5\n0,3\n",
}


def test_histogram_csv_round_trip(tmp_path):
    hist = CountHistogram(np.array([5, 3, 1]), trigger_label="t2")
    path = tmp_path / "hist.csv"
    write_csv(path, HISTOGRAM_HEADER, count_rows(hist.counts), seed=4)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("# photonstats ") and lines[0].endswith(" seed=4")
    assert lines[1] == "clicks,count"
    assert lines[2] == "0,5"
    back = read_histogram(path, trigger_label="t2")
    assert np.array_equal(back.counts, hist.counts)
    assert back.trigger_label == "t2"


def test_rows_may_come_in_any_order(tmp_path):
    path = tmp_path / "rho.csv"
    path.write_text("n,rho\n1,0.75\n# a comment\n0,0.25\n")
    assert np.array_equal(read_rho(path), [0.25, 0.75])


@pytest.mark.parametrize("body", MALFORMED_BODIES.values(), ids=MALFORMED_BODIES.keys())
@pytest.mark.parametrize(
    "header, reader",
    [("clicks,count", read_histogram), ("n,rho", read_rho)],
    ids=["histogram", "rho"],
)
def test_malformed_table_raises_shape_error(tmp_path, header, reader, body):
    path = tmp_path / "table.csv"
    path.write_text(f"# photonstats\n{header}\n{body}")
    with pytest.raises(ShapeError):
        reader(path)


@pytest.mark.parametrize("body", MALFORMED_BODIES.values(), ids=MALFORMED_BODIES.keys())
@pytest.mark.parametrize("command", ["invert", "calibrate", "analyze"])
def test_cli_malformed_csv_exits_2(tmp_path, capsys, command, body):
    path = tmp_path / "input.csv"
    header = "n,rho" if command == "analyze" else "clicks,count"
    path.write_text(f"{header}\n{body}")
    argv = {
        "invert": ["invert", "--histogram", str(path), "--eta", "0.5"],
        "calibrate": ["calibrate", "--histogram", str(path)],
        "analyze": ["analyze", "--rho", str(path)],
    }[command]
    assert cli.main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("photonstats: error:")


HISTOGRAM = "clicks,count\n" + "".join(
    f"{k},{c}\n" for k, c in enumerate([4000, 3000, 900, 90, 10, 0, 0, 0, 0])
)
CONFIG = (
    '{"parametric_gain": 0.3, "herald": {"kind": "single_apd", "eta_trigger": 0.25}, '
    '"eta_signal": 0.373, "pulses": 20000, "seed": 11}'
)
NO_HERALD_CONFIG = CONFIG.replace('"parametric_gain": 0.3', '"parametric_gain": 0')


@pytest.mark.parametrize(
    "argv, text",
    [
        (["calibrate", "--histogram"], "clicks,count\n0,9223372036854775808\n"),
        (["invert", "--eta", "0.5", "--histogram"], "clicks,count\n0,9223372036854775808\n"),
        (["analyze", "--rho"], "n,rho\n0,inf\n1,0.5\n"),
        (["analyze", "--rho"], "n,rho\n0,0\n1,-0.5\n"),
        (
            ["invert", "--eta", "0.5", "--n-max", "1100", "--histogram"],
            "clicks,count\n" + "".join(f"{k},5\n" for k in range(9)),
        ),
        (["invert", "--eta", "0.4", "--max-iter", "50", "--tol", "nan", "--histogram"],
         HISTOGRAM),
        (["analyze", "--tol", "nan", "--rho"], "n,rho\n0,0.1\n1,0.9\n"),
        (["calibrate", "--trigger", "t2", "--sigma-threshold", "nan", "--histogram"],
         HISTOGRAM),
        (["calibrate", "--trigger", "t2", "--sigma-threshold", "-1", "--histogram"],
         HISTOGRAM),
        (["pipeline", "--sigma-threshold", "nan", "--config"], CONFIG),
        (["pipeline", "--sigma-threshold", "-1", "--config"], CONFIG),
        (["pipeline", "--sigma-threshold", "nan", "--config"], NO_HERALD_CONFIG),
        (["invert", "--method", "direct", "--eta", "0", "--histogram"], HISTOGRAM),
        (["invert", "--method", "direct", "--eta", "1.5", "--histogram"], HISTOGRAM),
        (["invert", "--method", "direct", "--eta", "nan", "--histogram"], HISTOGRAM),
    ],
    ids=[
        "calibrate_count_overflow",
        "invert_count_overflow",
        "analyze_infinite_rho",
        "analyze_no_positive_mass",
        "invert_n_max_overflows_binomials",
        "invert_tol_nan",
        "analyze_tol_nan",
        "calibrate_sigma_threshold_nan",
        "calibrate_sigma_threshold_negative",
        "pipeline_sigma_threshold_nan",
        "pipeline_sigma_threshold_negative",
        "pipeline_sigma_threshold_nan_no_heralds",
        "invert_direct_eta_zero",
        "invert_direct_eta_above_one",
        "invert_direct_eta_nan",
    ],
)
def test_cli_out_of_range_values_exit_2(tmp_path, capsys, argv, text):
    path = tmp_path / "input.csv"
    path.write_text(text)
    assert cli.main(argv + [str(path), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("photonstats: error:")


FIELD = st.one_of(
    st.integers(-3, 12).map(str),
    st.integers(-(2**70), 2**70).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text("0123456789.-e# x", max_size=6),
)
HEADER = st.sampled_from(["clicks,count", "n,rho", "#c\nclicks,count", "n"])
CSV_TEXT = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=200),
    # arbitrary rows under a header
    st.builds(
        lambda header, rows: "\n".join([header] + [",".join(r) for r in rows]),
        HEADER,
        st.lists(st.lists(FIELD, max_size=3), max_size=12),
    ),
    # well-shaped tables with arbitrary values
    st.builds(
        lambda header, values: "\n".join([header, *(f"{n},{v}" for n, v in enumerate(values))]),
        HEADER,
        st.lists(FIELD, max_size=12),
    ),
)

FUZZ = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@FUZZ
@given(text=CSV_TEXT)
def test_fuzzed_text_loads_or_raises_value_error(tmp_path, text):
    path = tmp_path / "fuzz.csv"
    path.write_text(text, encoding="utf-8")
    for reader in (read_histogram, read_rho):
        try:
            reader(path)
        except ValueError:
            pass


@FUZZ
@given(text=CSV_TEXT, trigger=st.sampled_from(["t1", "t2"]))
def test_fuzzed_csv_calibrate_and_analyze_exit_0_or_2(tmp_path, text, trigger):
    path = tmp_path / "fuzz.csv"
    path.write_text(text, encoding="utf-8")
    out = str(tmp_path / "out")
    calibrate = ["calibrate", "--histogram", str(path), "--trigger", trigger]
    assert cli.main(calibrate + ["--out-dir", out]) in (0, 2)
    assert cli.main(["analyze", "--rho", str(path), "--out-dir", out]) in (0, 2)
