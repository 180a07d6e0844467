import numpy as np
import pytest

from spkid.corpus import VoicedRegion
from spkid.mfcc import (
    MfccConfig,
    frame_signal,
    hz_to_mel,
    mel_filterbank,
    mel_to_hz,
    mfcc_feature,
    mfcc_features_for_region,
)
from spkid.psdct import KIND_MFCC, dct2

SR = 16000


def region_of(samples):
    return VoicedRegion(np.asarray(samples, dtype=np.float64), 0, SR, "t")


def test_frame_signal_offsets():
    frames = frame_signal(region_of(np.arange(800) / 1000.0))
    assert frames.shape == (4, 320)
    assert frames[1][0] == 160 / 1000.0
    assert frames[3][0] == 480 / 1000.0


def test_frame_signal_boundaries():
    assert frame_signal(region_of(np.zeros(319))).shape[0] == 0
    assert frame_signal(region_of(np.zeros(320))).shape[0] == 1


def test_frame_signal_is_a_view_of_the_region():
    region = region_of(np.arange(800) / 1000.0)
    frames = frame_signal(region, MfccConfig(frame_ms=10.0, shift_ms=5.0))
    assert frames.shape == (9, 160)
    assert np.shares_memory(frames, region.samples)
    assert np.array_equal(frames[2], region.samples[160:320])


def test_mel_scale_round_trip():
    f = np.array([0.0, 300.0, 1000.0, 8000.0])
    assert np.allclose(mel_to_hz(hz_to_mel(f)), f)


def test_mel_filterbank_shape_and_weights():
    fb = mel_filterbank(SR, 512)
    assert fb.shape == (26, 257)
    assert np.all(fb >= 0.0)
    assert np.all(fb <= 1.0)
    # overlapping triangles never stack a bin's weight above 1
    assert np.max(fb.sum(axis=0)) <= 1.0 + 1e-12
    # triangular and continuous: one interior maximum per filter
    for row in fb[1:-1]:
        support = np.nonzero(row > 0)[0]
        assert support.size > 0
        peak = np.argmax(row)
        assert np.all(np.diff(row[support[0] : peak + 1]) >= -1e-12)
        assert np.all(np.diff(row[peak : support[-1] + 1]) <= 1e-12)


def test_cached_filterbank_is_read_only():
    frame = np.random.default_rng(3).normal(size=320)
    before = mfcc_feature(frame, SR).values
    with pytest.raises(ValueError):
        mel_filterbank(SR, 512)[:] = 0.0
    assert np.array_equal(mfcc_feature(frame, SR).values, before)


def test_mfcc_zero_frame_is_flat_floor():
    f = mfcc_feature(np.zeros(320), SR)
    assert f.kind == KIND_MFCC
    # constant log-floor vector: only the first DCT coefficient survives
    assert f.values[0] != 0.0
    assert np.max(np.abs(f.values[1:])) < 1e-9


def test_mfcc_dimension_is_13():
    rng = np.random.default_rng(0)
    assert mfcc_feature(rng.normal(size=320), SR).dim == 13


def test_mfcc_1khz_sine_peaks_in_the_right_band():
    t = np.arange(320) / SR
    frame = np.sin(2 * np.pi * 1000.0 * t)
    from spkid.dsp import dft, hanning

    power = np.abs(dft(frame * hanning(320), n=512)[:257]) ** 2
    fb = mel_filterbank(SR, 512)
    energies = fb @ power
    edges = mel_to_hz(np.linspace(0.0, float(hz_to_mel(SR / 2)), 28))
    best = int(np.argmax(energies))
    assert edges[best] <= 1000.0 <= edges[best + 2]


def test_mfcc_amplitude_scaling_shifts_only_c0():
    rng = np.random.default_rng(1)
    frame = rng.normal(size=320)
    a = mfcc_feature(frame, SR).values
    b = mfcc_feature(frame * 9.0, SR).values
    assert abs(b[0] - a[0]) > 1.0
    assert np.max(np.abs(b[1:] - a[1:])) < 1e-6


def test_mfcc_wrong_frame_length_raises():
    with pytest.raises(ValueError):
        mfcc_feature(np.zeros(300), SR)


def test_mfcc_features_for_region():
    rng = np.random.default_rng(3)
    feats = mfcc_features_for_region(region_of(rng.normal(size=1000) * 0.1))
    assert len(feats) == 5
    assert all(f.dim == 13 for f in feats)


@pytest.mark.parametrize("sample_rate", [32000, 48000])
def test_mfcc_uses_every_sample_of_long_frames(sample_rate):
    # 20 ms is 640 or 960 samples here, more than the 512-point default
    rng = np.random.default_rng(4)
    frame = rng.normal(size=sample_rate // 50)
    changed = frame.copy()
    changed[512:] = rng.normal(size=frame.size - 512)
    assert np.max(np.abs(mfcc_feature(frame, sample_rate).values - mfcc_feature(changed, sample_rate).values)) > 1e-3


@pytest.mark.parametrize("sample_rate", [8000, 16000])
def test_mfcc_short_frames_keep_the_512_point_spectrum(sample_rate):
    from spkid.dsp import dft, hanning

    rng = np.random.default_rng(5)
    frame = rng.normal(size=sample_rate // 50)
    power = np.abs(dft(frame * hanning(frame.size), n=512)[:257]) ** 2
    log_energies = np.log(np.maximum(mel_filterbank(sample_rate, 512) @ power, 1e-10))
    assert np.array_equal(mfcc_feature(frame, sample_rate).values, dct2(log_energies)[:13])
