"""Unit tests for the Monte Carlo oracle of the measurement chain."""

import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from photonstats import (
    HeraldConfig,
    TriggerKind,
    coherent,
    forward_model,
    herald,
    herald_rate,
    heralded_click_distribution,
    mix,
    thermal,
    uniform_bins,
)
from photonstats import montecarlo
from photonstats.artifacts import provenance_block
from photonstats.errors import DomainError
from photonstats.montecarlo import Contaminant, ExperimentConfig, run

SINGLE = HeraldConfig(kind=TriggerKind.SINGLE_APD, eta_trigger=0.25)


def empirical_tv(hist, analytic) -> float:
    freq = hist.counts / hist.total
    return 0.5 * float(np.abs(freq - analytic.probs).sum())


def test_same_seed_is_bit_identical():
    config = ExperimentConfig(
        parametric_gain=0.2, herald=SINGLE, eta_signal=0.5, pulses=200_000, seed=77
    )
    a, b = run(config), run(config)
    assert a.herald_count == b.herald_count
    assert np.array_equal(a.histogram.counts, b.histogram.counts)


def test_thread_count_does_not_change_output():
    # pulses span several chunks so the thread pool actually splits work
    config = ExperimentConfig(
        parametric_gain=0.25, herald=SINGLE, eta_signal=0.6, pulses=3_500_000, seed=5
    )
    serial = run(config, threads=1)
    threaded = run(config, threads=4)
    assert serial.herald_count == threaded.herald_count
    assert np.array_equal(
        serial.histogram.counts, threaded.histogram.counts
    )


def test_different_seeds_agree_statistically():
    config = ExperimentConfig(
        parametric_gain=0.3, herald=SINGLE, eta_signal=0.5, pulses=400_000, seed=10
    )
    a = run(config).histogram.counts
    b = run(replace(config, seed=11)).histogram.counts
    keep = (a + b) > 0
    _, p, _, _ = stats.chi2_contingency(np.vstack([a[keep], b[keep]]))
    assert p > 0.001


def test_herald_rate_matches_analytic():
    herald_cfg = HeraldConfig(
        kind=TriggerKind.SINGLE_APD, eta_trigger=0.25, dark_click_prob=1e-3
    )
    config = ExperimentConfig(
        parametric_gain=0.3, herald=herald_cfg, eta_signal=0.5, pulses=500_000, seed=3
    )
    out = run(config)
    rate = herald_rate(0.3, herald_cfg)
    sigma = math.sqrt(rate * (1 - rate) * config.pulses)
    assert abs(out.herald_count - rate * config.pulses) < 4 * sigma


def test_conditional_clicks_match_forward_model_single():
    config = ExperimentConfig(
        parametric_gain=0.1, herald=SINGLE, eta_signal=0.373, pulses=10_000_000, seed=21
    )
    out = run(config)
    analytic = heralded_click_distribution(0.1, SINGLE, 0.373, uniform_bins(8))
    total = out.herald_count
    assert total > 10_000
    assert empirical_tv(out.histogram, analytic) < 5 * math.sqrt(9 / total)


def test_conditional_clicks_match_forward_model_double():
    herald_cfg = HeraldConfig(
        kind=TriggerKind.DOUBLE_APD_COINCIDENCE, eta_trigger=0.8, dark_click_prob=5e-4
    )
    config = ExperimentConfig(
        parametric_gain=0.35, herald=herald_cfg, eta_signal=0.45, pulses=2_000_000, seed=9
    )
    out = run(config)
    analytic = heralded_click_distribution(0.35, herald_cfg, 0.45, uniform_bins(8))
    assert empirical_tv(out.histogram, analytic) < 5 * math.sqrt(
        9 / out.herald_count
    )


def test_conditional_clicks_with_contaminant():
    herald_cfg = HeraldConfig(kind=TriggerKind.SINGLE_APD, eta_trigger=0.3)
    config = ExperimentConfig(
        parametric_gain=0.12,
        herald=herald_cfg,
        eta_signal=0.5,
        contaminant=Contaminant(kind="coherent", mean=0.4),
        pulses=3_000_000,
        seed=13,
    )
    out = run(config)
    source = mix(
        herald(0.12, herald_cfg).signal_dist,
        coherent(0.4, n_max=20),
        mode="convolve",
    )
    analytic = forward_model(source, 0.5, uniform_bins(8))
    assert empirical_tv(out.histogram, analytic) < 5 * math.sqrt(
        9 / out.herald_count
    )


def test_thermal_contaminant_through_dark_heralds():
    herald_cfg = HeraldConfig(
        kind=TriggerKind.SINGLE_APD, eta_trigger=0.25, dark_click_prob=0.02
    )
    config = ExperimentConfig(
        parametric_gain=0.0,
        herald=herald_cfg,
        eta_signal=0.6,
        contaminant=Contaminant(kind="thermal", mean=0.5),
        pulses=2_000_000,
        seed=17,
    )
    out = run(config)
    # heralds are pure darks, so the signal is the contaminant alone
    expected = config.pulses * 0.02
    assert abs(out.herald_count - expected) < 4 * math.sqrt(expected)
    analytic = forward_model(thermal(0.5, n_max=40), 0.6, uniform_bins(8))
    assert empirical_tv(out.histogram, analytic) < 5 * math.sqrt(
        9 / out.herald_count
    )


def _per_pulse_signal_clicks(rng, photons, transmission, bins):
    """Reference for montecarlo._signal_clicks: each pulse draws its photons'
    bin uniforms in one call and counts the distinct bins they hit."""
    edges = np.cumsum(bins)
    clicks = []
    for survivors in rng.binomial(photons, transmission):
        cols = np.searchsorted(edges, rng.random(survivors), side="right")
        clicks.append(np.unique(np.minimum(cols, bins.size - 1)).size)
    return np.array(clicks, dtype=np.int64)


def test_bright_contaminant_memory_is_bounded(monkeypatch):
    # about 2.3M surviving photons: one array entry per photon would peak
    # near 54 MiB; routing them in slices keeps the chunk's peak small
    config = ExperimentConfig(
        parametric_gain=0.3,
        herald=SINGLE,
        eta_signal=0.5,
        contaminant=Contaminant(kind="thermal", mean=1e4),
        pulses=20_000,
        seed=4,
    )
    tracemalloc.start()
    try:
        out = run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    monkeypatch.setattr(montecarlo, "_signal_clicks", _per_pulse_signal_clicks)
    reference = run(config)
    assert out.herald_count == reference.herald_count > 0
    assert np.array_equal(out.histogram.counts, reference.histogram.counts)

def test_zero_gain_no_contaminant_clicks_stay_at_zero():
    herald_cfg = HeraldConfig(
        kind=TriggerKind.SINGLE_APD, eta_trigger=0.25, dark_click_prob=0.01
    )
    config = ExperimentConfig(
        parametric_gain=0.0, herald=herald_cfg, eta_signal=0.6, pulses=300_000, seed=2
    )
    out = run(config)
    counts = out.histogram.counts
    assert counts[0] == out.herald_count
    assert counts[1:].sum() == 0
    assert out.herald_count > 0


def test_ideal_k_trigger_selects_exact_pair_number():
    herald_cfg = HeraldConfig(kind=TriggerKind.IDEAL_K_RESOLVING, resolve_k=2)
    config = ExperimentConfig(
        parametric_gain=0.45, herald=herald_cfg, eta_signal=1.0, pulses=400_000, seed=8
    )
    out = run(config)
    q = 0.45**2
    rate = (1 - q) * q**2
    sigma = math.sqrt(rate * (1 - rate) * config.pulses)
    assert abs(out.herald_count - rate * config.pulses) < 4 * sigma
    analytic = heralded_click_distribution(0.45, herald_cfg, 1.0, uniform_bins(8))
    assert empirical_tv(out.histogram, analytic) < 5 * math.sqrt(
        9 / out.herald_count
    )


def test_histogram_totals_equal_herald_count():
    for seed in (1, 2):
        config = ExperimentConfig(
            parametric_gain=0.3, herald=SINGLE, eta_signal=0.4, pulses=150_000, seed=seed
        )
        out = run(config)
        assert int(out.histogram.counts.sum()) == out.herald_count


def test_extra_transmission_scales_klyshko_ratio():
    base = dict(parametric_gain=0.15, herald=SINGLE, eta_signal=0.5, pulses=2_000_000)
    full = run(ExperimentConfig(**base, seed=31))
    damped = run(ExperimentConfig(**base, extra_transmission=0.35, seed=32))

    def klyshko(out):
        counts = out.histogram.counts
        return counts[1:].sum() / counts.sum()

    assert klyshko(damped) / klyshko(full) == pytest.approx(0.35, abs=0.02)


def test_config_validation():
    with pytest.raises(DomainError):
        ExperimentConfig(parametric_gain=1.0, herald=SINGLE, eta_signal=0.5)
    with pytest.raises(DomainError):
        ExperimentConfig(parametric_gain=0.2, herald=SINGLE, eta_signal=1.5)
    with pytest.raises(DomainError):
        ExperimentConfig(
            parametric_gain=0.2, herald=SINGLE, eta_signal=0.5, extra_transmission=0.0
        )
    with pytest.raises(DomainError):
        ExperimentConfig(parametric_gain=0.2, herald=SINGLE, eta_signal=0.5, pulses=0)
    with pytest.raises(DomainError):
        ExperimentConfig(parametric_gain=0.2, herald=SINGLE, eta_signal=0.5, seed=-1)
    with pytest.raises(DomainError):
        Contaminant(kind="laser", mean=0.5)
    with pytest.raises(DomainError):
        Contaminant(kind="thermal", mean=-0.1)


def test_config_round_trip_and_output_json():
    config = ExperimentConfig(
        parametric_gain=0.2,
        herald=HeraldConfig(kind=TriggerKind.DOUBLE_APD_COINCIDENCE, eta_trigger=0.9),
        eta_signal=0.373,
        extra_transmission=0.135,
        contaminant=Contaminant(kind="coherent", mean=0.3),
        pulses=50_000,
        seed=123,
    )
    clone = ExperimentConfig.from_dict(config.to_dict())
    assert clone.to_dict() == config.to_dict()
    out = run(config)
    assert provenance_block(config.seed)["generator"] == "philox4x64"
    echo = json.loads(json.dumps(config.to_dict()))
    assert ExperimentConfig.from_dict(echo).to_dict() == config.to_dict()


_D = TriggerKind.DOUBLE_APD_COINCIDENCE
_K = TriggerKind.IDEAL_K_RESOLVING
_TWO_CHUNKS = (1 << 20) + 300_000
# (config fields, herald count, histogram counts); the counts pin the exact
# random stream of every trigger path, so a sampler change that moves it fails
STREAM_PINS = {
    "single": (
        dict(parametric_gain=0.3, herald=HeraldConfig(kind=TriggerKind.SINGLE_APD,
             eta_trigger=0.25), eta_signal=0.5, pulses=_TWO_CHUNKS, seed=101),
        32719, [15038, 16439, 1175, 64, 3, 0, 0, 0, 0],
    ),
    "single_dark_eta1": (
        dict(parametric_gain=0.2, herald=HeraldConfig(kind=TriggerKind.SINGLE_APD,
             eta_trigger=1.0, dark_click_prob=1e-3), eta_signal=0.4,
             pulses=_TWO_CHUNKS, seed=102),
        55419, [33386, 21723, 306, 4, 0, 0, 0, 0, 0],
    ),
    "single_dark_eta0": (
        dict(parametric_gain=0.25, herald=HeraldConfig(kind=TriggerKind.SINGLE_APD,
             eta_trigger=0.0, dark_click_prob=2e-3), eta_signal=0.6,
             pulses=_TWO_CHUNKS, seed=103),
        2654, [2567, 82, 5, 0, 0, 0, 0, 0, 0],
    ),
    "double": (
        dict(parametric_gain=0.19, herald=HeraldConfig(kind=_D, eta_trigger=0.9),
             eta_signal=0.315, pulses=(2 << 20) + 5, seed=104),
        1155, [521, 527, 107, 0, 0, 0, 0, 0, 0],
    ),
    "double_dark_eta1": (
        dict(parametric_gain=0.3, herald=HeraldConfig(kind=_D, eta_trigger=1.0,
             dark_click_prob=6e-4), eta_signal=0.5, extra_transmission=0.5,
             pulses=_TWO_CHUNKS, seed=105),
        5688, [3057, 2259, 365, 7, 0, 0, 0, 0, 0],
    ),
    "double_dark_gain0": (
        dict(parametric_gain=0.0, herald=HeraldConfig(kind=_D, eta_trigger=0.9,
             dark_click_prob=0.03), eta_signal=0.5,
             contaminant=Contaminant(kind="thermal", mean=0.7),
             pulses=_TWO_CHUNKS, seed=106),
        1219, [899, 247, 53, 16, 4, 0, 0, 0, 0],
    ),
    "ideal_k0_coherent": (
        dict(parametric_gain=0.2, herald=HeraldConfig(kind=_K, resolve_k=0),
             eta_signal=0.7, bins=[0.4, 0.3, 0.2, 0.1],
             contaminant=Contaminant(kind="coherent", mean=0.5),
             pulses=_TWO_CHUNKS, seed=107),
        1294377, [911181, 337857, 43060, 2238, 41],
    ),
    "ideal_k2_thermal": (
        dict(parametric_gain=0.4, herald=HeraldConfig(kind=_K, resolve_k=2),
             eta_signal=0.8, contaminant=Contaminant(kind="thermal", mean=0.3),
             pulses=_TWO_CHUNKS, seed=108),
        28937, [919, 9774, 15391, 2462, 342, 43, 6, 0, 0],
    ),
    # g^2 above 2/3: pair numbers come from numpy's own geometric inversion
    "single_geometric_inversion": (
        dict(parametric_gain=0.85, herald=HeraldConfig(kind=TriggerKind.SINGLE_APD,
             eta_trigger=0.25), eta_signal=0.5, pulses=50_000, seed=109),
        19862, [2764, 5818, 5019, 3242, 1820, 776, 310, 94, 19],
    ),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", list(STREAM_PINS))
def test_stream_is_pinned(name, threads):
    fields, herald_count, counts = STREAM_PINS[name]
    config = ExperimentConfig(**fields)
    out = run(config, threads=threads)
    assert out.herald_count == herald_count
    assert out.histogram.counts.tolist() == counts


def _philox(key):
    return np.random.Generator(np.random.Philox(key=key))


# The first uniform u of a stream is k / 2^53 for some k.  With p = u (the
# pair sampler) or dark = u (the dark test) that pulse sits exactly on the
# sampler's threshold.
_U13 = float(_philox(13).random())
_U11 = float(_philox(11).random())


# At this p numpy's second partial sum p + p(1 - p) equals _U13 exactly.
_P_SUM_AT_U13 = 0.7811823022694925


# g^2 = 2/3 is the last value numpy's geometric(1 - g^2) samples by search
# (p >= 1/3); the next double above it takes numpy's inversion branch
@pytest.mark.parametrize(
    "q",
    [1e-18, 0.0361, 0.16, 1.0 - _U13, 1.0 - _P_SUM_AT_U13, 2 / 3,
     float(np.nextafter(2 / 3, 1))],
)
def test_pair_sampler_replays_numpy_geometric(q):
    size = 3 * montecarlo.WORD_BLOCK + 1000  # ends in a partial block
    ours, ref = _philox(13), _philox(13)
    busy, pairs = montecarlo._pair_numbers(ours, q, size)
    expected = ref.geometric(1.0 - q, size) - 1
    assert np.array_equal(busy, np.flatnonzero(expected))
    assert np.array_equal(pairs, expected[busy])
    assert ours.random() == ref.random()


def test_pair_sampler_draws_nothing_at_zero_gain():
    ours, ref = _philox(13), _philox(13)
    busy, pairs = montecarlo._pair_numbers(ours, 0.0, 1000)
    assert busy.size == pairs.size == 0
    assert ours.random() == ref.random()


@pytest.mark.parametrize("mean", [0.3, 0.7, 2.0])  # 2.0: p = 1/3, numpy's branch point
def test_thermal_sampler_replays_numpy_geometric(mean):
    size = 3 * montecarlo.WORD_BLOCK + 1000  # ends in a partial block
    ours, ref = _philox(17), _philox(17)
    busy, extra = montecarlo._geometric_excess(ours, 1 / (1 + mean), size)
    expected = ref.geometric(1 / (1 + mean), size) - 1
    assert np.array_equal(busy, np.flatnonzero(expected))
    assert np.array_equal(extra, expected[busy])
    assert ours.random() == ref.random()


def test_search_sums_stop_where_they_stop_growing():
    # at this p numpy's partial sums round to a limit below 1 - 2^-53
    sums = montecarlo._search_sums(0.5131911425092469, 1.0 - 2.0**-53)
    assert sums[-1] < 1.0 - 2.0**-53
    assert np.all(np.diff(sums) > 0)


@pytest.mark.parametrize(
    "dark",
    [5e-324, 6e-4, 1e-3, _U11, float(np.nextafter(_U11, 1.0)),
     float(np.nextafter(1.0, 0.0))],
)
def test_dark_clicks_replay_numpy_uniforms(dark):
    size = 3 * montecarlo.WORD_BLOCK + 1000  # ends in a partial block
    ours, ref = _philox(11), _philox(11)
    click = montecarlo._apd_clicks(ours, size, dark, np.zeros(0, dtype=np.int64))
    assert np.array_equal(click, ref.random(size) < dark)
    assert ours.random() == ref.random()
