"""Shared numeric kernels: DFT, Hanning window, autocorrelation pitch, resonators."""

from __future__ import annotations

import math

import numpy as np
import scipy.fft
import scipy.ndimage
import scipy.signal


def dft(x, n: int | None = None) -> np.ndarray:
    """Complex spectrum of a sequence, optionally zero padded to length n."""
    x = np.asarray(x)
    if x.size == 0:
        raise ValueError("dft of an empty sequence")
    return np.fft.fft(x, n=n)


def hanning(m: int) -> np.ndarray:
    """Hanning window w[n] = 0.5 - 0.5*cos(2*pi*n/(M-1))."""
    if m < 1:
        raise ValueError("window length must be >= 1")
    return np.hanning(m)


def autocorr_pitch(x, min_period: int, max_period: int) -> int:
    """Lag of the autocorrelation maximum within [min_period, max_period].

    The search range is clipped to the available lags; raises if the
    signal is too short to cover min_period.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ValueError("empty signal")
    if min_period < 1 or max_period < min_period:
        raise ValueError(f"invalid period range [{min_period}, {max_period}]")
    hi = min(max_period, x.size - 1)
    if min_period > hi:
        raise ValueError(f"signal of length {x.size} too short for lag {min_period}")
    # lags up to hi are free of circular wrap once nfft >= x.size + hi
    nfft = scipy.fft.next_fast_len(x.size + hi + 1, real=True)
    spectrum = scipy.fft.rfft(x, nfft)
    r = scipy.fft.irfft(np.abs(spectrum) ** 2, nfft)
    return int(np.argmax(r[min_period : hi + 1])) + min_period


def moving_average(x, win: int) -> np.ndarray:
    """Centered moving average with edge correction (divide by actual overlap).

    Sample i averages x[i - win//2 : i + (win-1)//2 + 1] clipped to the
    signal, in one O(N) running-sum pass.
    """
    x = np.asarray(x, dtype=np.float64)
    if win < 1:
        raise ValueError("window must be >= 1")
    if x.size == 0:
        raise ValueError("empty signal")
    i = np.arange(x.size)
    counts = np.minimum(i + (win - 1) // 2 + 1, x.size) - np.maximum(i - win // 2, 0)
    # uniform_filter1d updates its running sum by differences, so rounding
    # does not grow with the region length as a prefix sum's does
    return scipy.ndimage.uniform_filter1d(x, win, mode="constant") * win / counts


# lfilter taps (b, a) of a radius-1 integrator pair at 0 Hz; only ever used
# followed by trend removal
ZERO_FREQUENCY_RESONATOR = ((1.0,), (1.0, -2.0, 1.0))


def resonator(center_hz: float, bandwidth_hz: float, sample_rate: int) -> tuple[list[float], list[float]]:
    """Stable two-pole resonator with unity DC gain (pole radius < 1), as lfilter taps (b, a).

    y[n] = gain*x[n] + b1*y[n-1] + b2*y[n-2], so b = [gain] and a = [1, -b1, -b2].
    """
    if bandwidth_hz <= 0:
        raise ValueError("bandwidth must be positive for a stable resonator")
    if sample_rate <= 0:
        raise ValueError("sample_rate must be positive")
    r = math.exp(-math.pi * bandwidth_hz / sample_rate)
    theta = 2.0 * math.pi * center_hz / sample_rate
    b1 = 2.0 * r * math.cos(theta)
    b2 = -r * r
    return [1.0 - b1 - b2], [1.0, -b1, -b2]


def resonate(x, ba) -> np.ndarray:
    """Run a signal through lfilter taps ``(b, a)`` (zero initial state)."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ValueError("empty signal")
    return scipy.signal.lfilter(*ba, x)
