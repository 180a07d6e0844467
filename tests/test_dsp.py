import numpy as np
import pytest
import scipy.fft
import scipy.signal
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spkid.dsp import _fast_len, autocorr_pitch, dft, hanning, moving_average, resonate
from spkid.synth import SynthSpeaker, _voiced_run, formant_response


def naive_dft(x):
    x = np.asarray(x, dtype=complex)
    m = x.size
    n = np.arange(m)
    return np.array([np.sum(x * np.exp(-2j * np.pi * k * n / m)) for k in range(m)])


def test_dft_of_impulse_is_flat():
    assert np.allclose(dft([1.0, 0.0, 0.0, 0.0]), np.ones(4))


@pytest.mark.parametrize("m", [1, 2, 3, 7, 16, 100, 257, 512])
def test_dft_matches_naive_reference(m):
    rng = np.random.default_rng(m)
    x = rng.normal(size=m)
    assert np.max(np.abs(dft(x) - naive_dft(x))) < 1e-9 * max(1.0, np.abs(x).sum())


def test_dft_zero_padding():
    x = np.array([1.0, -2.0, 3.0])
    assert np.allclose(dft(x, n=8), np.fft.fft(x, 8))


def test_dft_empty_raises():
    with pytest.raises(ValueError):
        dft([])


def test_hanning_endpoints_and_peak():
    w = hanning(33)
    assert w[0] == 0.0 and w[-1] == 0.0
    assert np.argmax(w) == 16
    n = np.arange(33)
    assert np.allclose(w, 0.5 - 0.5 * np.cos(2 * np.pi * n / 32))


def test_hanning_length_one():
    assert hanning(1).tolist() == [1.0]
    with pytest.raises(ValueError):
        hanning(0)


def test_hanning_is_numpys_window_built_once_and_read_only():
    for m in (1, 2, 33, 320, 960):
        w = hanning(m)
        assert w.dtype == np.float64 and w.tobytes() == np.hanning(m).tobytes()
        assert hanning(m) is w
        with pytest.raises(ValueError):
            w[0] = 0.5
    for m in (0, -3):
        with pytest.raises(ValueError, match="window length must be >= 1"):
            hanning(m)


def test_autocorr_pitch_impulse_train():
    x = np.zeros(8000)
    x[np.arange(20, 8000, 160)] = 1.0
    assert abs(autocorr_pitch(x, 40, 267) - 160) <= 1


def test_autocorr_pitch_sine():
    t = np.arange(4000)
    x = np.sin(2 * np.pi * t / 100.0)
    assert abs(autocorr_pitch(x, 40, 267) - 100) <= 1


def test_autocorr_pitch_errors():
    with pytest.raises(ValueError):
        autocorr_pitch([], 40, 267)
    with pytest.raises(ValueError):
        autocorr_pitch(np.ones(100), 267, 40)
    with pytest.raises(ValueError):
        autocorr_pitch(np.ones(10), 40, 267)


def test_moving_average_constant_and_edges():
    assert np.allclose(moving_average(np.ones(50), 9), np.ones(50))
    assert np.allclose(moving_average([1.0, 2.0, 3.0], 3), [1.5, 2.0, 2.5])
    assert np.allclose(moving_average([4.0, 5.0, 6.0], 1), [4.0, 5.0, 6.0])


def test_moving_average_keeps_length_when_window_exceeds_signal():
    assert moving_average([1.0, 2.0], 5).tolist() == [1.5, 1.5]
    assert moving_average([3.0], 4).tolist() == [3.0]


def reference_moving_average(x, win):
    """The O(N*T) convolution that moving_average must reproduce."""
    kernel = np.ones(win)
    return np.convolve(x, kernel, mode="same") / np.convolve(np.ones(x.size), kernel, mode="same")


def reference_autocorr_pitch(x, min_period, max_period):
    """Autocorrelation lag from a power-of-two FFT of at least 2N points."""
    x = np.asarray(x, dtype=np.float64)
    hi = min(max_period, x.size - 1)
    nfft = 1 << int(np.ceil(np.log2(2 * x.size)))
    spectrum = np.fft.rfft(x, nfft)
    r = np.fft.irfft(spectrum * np.conj(spectrum), nfft)[: x.size]
    return int(np.argmax(r[min_period : hi + 1])) + min_period


@pytest.fixture(scope="module")
def voiced_48k():
    """3 s of a 48 kHz voiced run, mean removed."""
    sr = 48000
    speaker = SynthSpeaker("t", 118.0, (600.0, 1400.0, 2600.0), (80.0, 90.0, 100.0))
    x, _ = _voiced_run(speaker, 3 * sr, sr, 0.8, 30, formant_response(speaker, 3 * sr, sr))
    return x - x.mean()


@pytest.fixture(scope="module")
def zff_48k(voiced_48k):
    """The voiced run integrated by the zero-frequency resonator twice."""
    return resonate(resonate(voiced_48k))


def test_resonate_matches_lfilter_on_zff_48k(voiced_48k, zff_48k):
    # the recursion y[n] = x[n] + 2y[n-1] - y[n-2] rounds worse than two
    # running sums: ~8e-9 of the peak after one resonator on this run, where
    # the running sums stay within ~5e-14 of a long-double reference
    reference = voiced_48k
    for got in (resonate(voiced_48k), zff_48k):
        reference = scipy.signal.lfilter([1.0], [1.0, -2.0, 1.0], reference)
        assert np.max(np.abs(got - reference)) <= 1e-7 * np.max(np.abs(reference))


@pytest.mark.parametrize("win", [407, 406, 801, 800])
def test_moving_average_matches_convolution_on_zff_trend(zff_48k, win):
    # the trend reaches ~1e14, so compare against the sum of |y| over each window
    y = zff_48k
    got, want = moving_average(y, win), reference_moving_average(y, win)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-9 * reference_moving_average(np.abs(y), win))


@pytest.mark.parametrize("win", [407, 406])
def test_trend_removal_residue_matches_convolution(zff_48k, win):
    # two mean-subtraction passes leave a residue ~1e-9 of the trend; a plain
    # prefix-sum running mean is off by ~2e-4 of the residue peak here
    got = want = zff_48k
    for _ in range(2):
        got = got - moving_average(got, win)
        want = want - reference_moving_average(want, win)
    scale = np.max(np.abs(want[win:-win]))
    assert np.max(np.abs(got - want)) <= 5e-5 * scale


@given(
    n=st.integers(50, 3000),
    min_period=st.integers(1, 200),
    span=st.integers(0, 600),
    period=st.integers(20, 400),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_autocorr_pitch_matches_power_of_two_fft(n, min_period, span, period, seed):
    max_period = min_period + span
    assume(min_period < n)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    x[rng.integers(0, period) :: period] += 4.0
    assert autocorr_pitch(x, min_period, max_period) == reference_autocorr_pitch(x, min_period, max_period)


def test_fast_len_is_scipys_real_fast_length():
    # autocorr_pitch's FFT length without importing scipy.fft
    for n in [*range(1, 3000), 16_001, 48_001, 65_537, 99_999]:
        assert _fast_len(n) == scipy.fft.next_fast_len(n, real=True)


def test_zero_frequency_resonator_integrates():
    impulse = np.zeros(10)
    impulse[0] = 1.0
    # double integration of an impulse is a unit-slope ramp
    assert np.allclose(resonate(impulse), np.arange(1, 11))
    with pytest.raises(ValueError):
        resonate([])
