import io

import numpy as np
import pytest

from spkid.corpus import VoicedRegion, extract_voiced_regions, max_period, min_period
from spkid.gci import (
    EpochList,
    cycles_from_region,
    detect_gci,
    dump_epochs_csv,
    map_to_peaks,
    segment_cycles,
)
from spkid.synth import SynthSpeaker, VOICED_PHONE, _voiced_run, formant_response

SR = 16000


def impulse_train_region(period=160, n=8000, start=20):
    x = np.zeros(n)
    truth = np.arange(start, n, period)
    x[truth] = 1.0
    return VoicedRegion(x, 0, SR, f"train{period}"), truth


def formant_region(pitch_hz, n=8000, formants=(500.0, 1500.0, 2500.0)):
    speaker = SynthSpeaker("t", pitch_hz, formants, (80.0, 90.0, 100.0))
    samples, truth = _voiced_run(speaker, n, SR, 0.8, 20, formant_response(speaker, n, SR))
    return VoicedRegion(samples, 0, SR, f"form{pitch_hz}"), truth


def test_detect_gci_100hz_impulse_train():
    region, truth = impulse_train_region(160)
    epochs = detect_gci(region)
    # ~50 excitation instants in 0.5 s at 100 Hz (edge guard trims a couple)
    assert 44 <= len(epochs) <= 50
    gaps = np.diff(epochs.positions)
    assert np.all(np.abs(gaps - 160) <= 4)
    dist = np.min(np.abs(epochs.positions[:, None] - truth[None, :]), axis=1)
    assert np.all(dist <= 4)


def test_detect_gci_200hz_median_gap():
    region, _ = impulse_train_region(80)
    epochs = detect_gci(region)
    assert np.median(np.diff(epochs.positions)) == pytest.approx(80, abs=1)


def test_detect_gci_silence_yields_too_few_epochs():
    region = VoicedRegion(np.zeros(1000), 0, SR, "sil")
    epochs = detect_gci(region)
    assert len(epochs) < 2


def test_detect_gci_too_short_raises():
    region = VoicedRegion(np.zeros(max_period(SR) - 1), 0, SR, "short")
    with pytest.raises(ValueError, match="short"):
        detect_gci(region)


def test_detect_gci_is_deterministic():
    region, _ = formant_region(137.0)
    a = detect_gci(region)
    b = detect_gci(region)
    assert np.array_equal(a.positions, b.positions)
    assert np.all(np.diff(a.positions) > 0)


def test_detect_gci_on_synthetic_corpus(corpus12):
    """>=95% of epochs within 4 samples of a true impulse (here: all of them)."""
    distances = []
    for utt in corpus12[:8]:
        for region in extract_voiced_regions(utt, frozenset({VOICED_PHONE})):
            epochs = detect_gci(region)
            truth = utt.impulses - region.source_offset
            truth = truth[(truth >= 0) & (truth < len(region))]
            if len(epochs) == 0:
                continue
            distances.extend(
                np.min(np.abs(epochs.positions[:, None] - truth[None, :]), axis=1).tolist()
            )
    distances = np.array(distances)
    assert distances.size > 500
    assert np.mean(distances <= 4) >= 0.95


def test_map_to_peaks_fixed_point():
    x = np.zeros(500)
    x[250] = 1.0
    region = VoicedRegion(x, 0, SR, "fp")
    peaks = map_to_peaks(region, EpochList(np.array([250])))
    assert peaks.tolist() == [250]


def test_map_to_peaks_finds_nearby_peak():
    # epoch 5 samples left of the only peak; window is T/4 = 40 wide
    x = np.zeros(800)
    x[300] = 1.0
    x[460] = 1.0
    region = VoicedRegion(x, 0, SR, "near")
    peaks = map_to_peaks(region, EpochList(np.array([295, 455])))
    assert peaks.tolist() == [300, 460]


def test_map_to_peaks_collapses_duplicates():
    # one broad hill: both epochs climb to the same summit
    x = -np.abs(np.arange(500, dtype=float) - 115)
    region = VoicedRegion(x, 0, SR, "hill")
    peaks = map_to_peaks(region, EpochList(np.array([90, 130])))
    assert peaks.tolist() == [115]


def reference_map_to_peaks(region, epochs):
    """The per-epoch window argmax and hill-climb that map_to_peaks must reproduce."""
    x = region.samples
    pos = epochs.positions
    if pos.size >= 2:
        gaps = np.diff(pos)
        local_t = np.append(gaps, gaps[-1])
    else:
        local_t = np.array([min_period(region.sample_rate)])
    peaks = []
    for e, t in zip(pos, local_t):
        half = max(1, int(t) // 4)
        win_lo = max(0, int(e) - half)
        win_hi = min(x.size, int(e) + half + 1)
        p = win_lo + int(np.argmax(x[win_lo:win_hi]))
        while p + 1 < x.size and x[p + 1] > x[p]:
            p += 1
        while p - 1 >= 0 and x[p - 1] > x[p]:
            p -= 1
        if not peaks or p > peaks[-1]:
            peaks.append(p)
    return np.array(peaks, dtype=np.int64)


def reference_segment_cycles(region, peaks):
    """(start, end) of the cycles segment_cycles must cut, from a per-pair loop."""
    lo, hi = min_period(region.sample_rate), max_period(region.sample_rate)
    return [
        (int(p), int(q))
        for p, q in zip(peaks[:-1], peaks[1:])
        if lo <= q - p <= hi and np.any(region.samples[p:q])
    ]


def random_epochs(rng, n, mean_gap):
    """Strictly increasing positions in [0, n) with irregular gaps."""
    gaps = rng.integers(1, 2 * mean_gap, size=n // mean_gap + 2)
    pos = np.cumsum(gaps) + int(rng.integers(0, mean_gap))
    return pos[pos < n]


@pytest.mark.parametrize("seed", range(12))
def test_map_to_peaks_matches_reference_loop(seed):
    # random walks put window maxima on window edges, so the hill-climb runs
    rng = np.random.default_rng(seed)
    n = int(rng.integers(300, 3000))
    x = np.cumsum(rng.normal(size=n)) if seed % 2 else rng.normal(size=n)
    region = VoicedRegion(x, 0, SR, f"r{seed}")
    for mean_gap in (3, 40, 160):
        epochs = EpochList(random_epochs(rng, n, mean_gap))
        got = map_to_peaks(region, epochs)
        assert got.dtype == np.int64
        assert np.array_equal(got, reference_map_to_peaks(region, epochs))


@pytest.mark.parametrize(
    "x, positions",
    [
        (np.arange(400, dtype=float), [100, 260]),  # every maximum on a right window edge
        (-np.arange(400, dtype=float), [100, 260]),  # every maximum on a left window edge
        (np.arange(400, dtype=float), [395]),  # a single epoch, window cut by the end
        (np.sin(np.arange(1000) / 7.0), [5, 60, 61, 62, 300, 700, 998]),  # overlapping windows
        (np.round(np.sin(np.arange(1000) / 9.0), 1), [20, 80, 150, 151, 400]),  # plateaus and ties
        # peaks 21, 18, 21: the last one repeats a peak before its predecessor
        (np.concatenate((np.zeros(18), [2.0, 0.5, 0.6], 1.0 - 0.01 * np.arange(279))), [20, 24, 64]),
    ],
)
def test_map_to_peaks_matches_reference_on_edge_cases(x, positions):
    region = VoicedRegion(x, 0, SR, "edge")
    epochs = EpochList(np.array(positions, dtype=np.int64))
    assert np.array_equal(map_to_peaks(region, epochs), reference_map_to_peaks(region, epochs))


def test_front_end_matches_reference_on_corpus(corpus12):
    for utt in corpus12[:4]:
        for region in extract_voiced_regions(utt, frozenset({VOICED_PHONE})):
            epochs = detect_gci(region)
            peaks = map_to_peaks(region, epochs)
            assert np.array_equal(peaks, reference_map_to_peaks(region, epochs))
            cycles = segment_cycles(region, peaks)
            assert [(c.start_peak, c.end_peak) for c in cycles] == reference_segment_cycles(region, peaks)


def test_map_to_peaks_empty():
    region = VoicedRegion(np.zeros(100), 0, SR, "e")
    assert map_to_peaks(region, EpochList(np.empty(0, dtype=np.int64))).size == 0


def test_segment_cycles_pairwise():
    rng = np.random.default_rng(0)
    region = VoicedRegion(rng.normal(size=400), 0, SR, "c")
    cycles = segment_cycles(region, [10, 170, 330])
    assert [len(c) for c in cycles] == [160, 160]
    assert cycles[0].start_peak == 10 and cycles[0].end_peak == 170
    assert np.array_equal(cycles[0].samples, region.samples[10:170])


def test_segment_cycles_are_views_of_the_region():
    rng = np.random.default_rng(1)
    x = rng.normal(size=2000)
    x[600:900] = 0.0
    region = VoicedRegion(x, 0, SR, "v")
    peaks = np.array([5, 30, 190, 400, 600, 800, 1000, 1100, 1500, 1600])
    cycles = segment_cycles(region, peaks)
    assert [(c.start_peak, c.end_peak) for c in cycles] == reference_segment_cycles(region, peaks)
    for c in cycles:
        assert np.array_equal(c.samples, region.samples[c.start_peak : c.end_peak])
        assert np.shares_memory(c.samples, region.samples)
        assert c.region_id == "v"


def test_segment_cycles_filters_out_of_range_gaps():
    region = VoicedRegion(np.ones(400), 0, SR, "c")
    assert segment_cycles(region, [10, 20]) == []  # gap 10 < min_period 40
    assert segment_cycles(region, [10, 350]) == []  # gap 340 > max_period 267


def test_segment_cycles_skips_zero_energy():
    region = VoicedRegion(np.zeros(400), 0, SR, "z")
    assert segment_cycles(region, [10, 170]) == []


def test_segment_cycles_requires_increasing_peaks():
    region = VoicedRegion(np.ones(400), 0, SR, "c")
    with pytest.raises(ValueError):
        segment_cycles(region, [170, 10])


def test_full_chain_on_100hz_region():
    region, _ = formant_region(100.0)
    cycles = cycles_from_region(region)
    assert len(cycles) >= 45
    lengths = np.array([len(c) for c in cycles])
    assert np.all(np.abs(lengths - 160) <= 4)
    lo, hi = min_period(SR), max_period(SR)
    for c in cycles:
        assert lo <= len(c) <= hi
        assert np.any(c.samples)
        for endpoint in (c.start_peak, c.end_peak):
            v = region.samples[endpoint]
            if endpoint > 0:
                assert v >= region.samples[endpoint - 1]
            if endpoint + 1 < len(region):
                assert v >= region.samples[endpoint + 1]


def test_dump_epochs_csv():
    region, _ = impulse_train_region(160)
    epochs = detect_gci(region)
    peaks = map_to_peaks(region, epochs)
    buf = io.StringIO()
    dump_epochs_csv(buf, region, epochs, peaks)
    lines = buf.getvalue().strip().splitlines()
    assert len(lines) == len(epochs)
    assert lines[0].startswith("train160,")
