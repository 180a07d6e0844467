"""MFCC baseline: sliding Hanning-windowed frames over voiced regions.

Pipeline per frame: Hanning window -> power spectrum zero-padded to 512 points,
or to the next power of two for longer frames (never cropped) ->
26 triangular mel filters spanning 0..sr/2 -> floored log energies -> DCT-II
-> 13 cepstral coefficients (c0..c12).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .corpus import VoicedRegion
from .dsp import dft, hanning
from .psdct import FeatureVector, dct2

MIN_FFT = 512  # a longer frame gets the next power of two
N_FILTERS = 26
LOG_FLOOR = 1e-10
N_MFCC = 13


@dataclass(frozen=True)
class MfccConfig:
    frame_ms: float = 20.0
    shift_ms: float = 10.0


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@lru_cache(maxsize=None)
def mel_filterbank(sample_rate: int, n_fft: int) -> np.ndarray:
    """N_FILTERS triangular filters on the mel scale, (N_FILTERS, n_fft//2 + 1), read-only.

    Continuous triangles evaluated at the bin frequencies: overlapping
    neighbors sum to exactly 1 between the first and last centers. One bank
    is built per (rate, FFT size) and shared by every caller.
    """
    bin_hz = np.arange(n_fft // 2 + 1) * (sample_rate / n_fft)
    edges_hz = mel_to_hz(np.linspace(0.0, float(hz_to_mel(sample_rate / 2.0)), N_FILTERS + 2))
    left, center, right = edges_hz[:-2, None], edges_hz[1:-1, None], edges_hz[2:, None]
    fb = np.clip(np.minimum((bin_hz - left) / (center - left), (right - bin_hz) / (right - center)), 0.0, None)
    fb.flags.writeable = False
    return fb


def frame_length(sample_rate: int, config: MfccConfig = MfccConfig()) -> int:
    return int(round(config.frame_ms * sample_rate / 1000.0))


def frame_signal(region: VoicedRegion, config: MfccConfig = MfccConfig()) -> np.ndarray:
    """Full frames of a region as a view of its samples; a trailing partial frame is dropped.

    Raises if the frame or the shift rounds to less than one sample at the region's rate.
    """
    flen = frame_length(region.sample_rate, config)
    shift = int(round(config.shift_ms * region.sample_rate / 1000.0))
    if flen < 1 or shift < 1:
        raise ValueError(
            f"MFCC frame_ms {config.frame_ms} and shift_ms {config.shift_ms} must each be at least one sample "
            f"at {region.sample_rate} Hz, got {flen} and {shift}"
        )
    if region.samples.size < flen:
        return np.empty((0, flen))
    return sliding_window_view(region.samples, flen)[::shift]


def mfcc_feature(frame, sample_rate: int, config: MfccConfig = MfccConfig()) -> FeatureVector:
    """Cepstral coefficients of one frame of exactly frame_ms samples."""
    x = np.asarray(frame)
    expected = frame_length(sample_rate, config)
    if x.size != expected:
        raise ValueError(f"frame of {x.size} samples, expected {expected}")
    n_fft = max(MIN_FFT, 1 << (x.size - 1).bit_length())
    spectrum = dft(x * hanning(x.size), n=n_fft)  # the float64 window widens a float32 frame
    power = np.abs(spectrum[: n_fft // 2 + 1]) ** 2
    energies = mel_filterbank(sample_rate, n_fft) @ power
    log_energies = np.log(np.maximum(energies, LOG_FLOOR))
    coeffs = dct2(log_energies)
    return FeatureVector(coeffs[:N_MFCC])


def mfcc_features_for_region(region: VoicedRegion, config: MfccConfig = MfccConfig()) -> list[FeatureVector]:
    frames = frame_signal(region, config)
    return [mfcc_feature(frame, region.sample_rate, config) for frame in frames]
