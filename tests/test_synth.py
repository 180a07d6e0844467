import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st

import spkid.synth as synth
from spkid.synth import (
    BANDWIDTH_RANGE,
    FORMANT_RANGES,
    MIN_PHASE,
    PITCH_HI_HZ,
    PITCH_LO_HZ,
    RUN_S,
    SILENCE_PHONE,
    VOICED_PHONE,
    SynthSpeaker,
    _voiced_run,
    formant_response,
    synth_corpus,
    synth_speakers,
    synth_utterance,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def test_corpus_is_deterministic():
    a = synth_corpus(3, 2, seed=7)
    b = synth_corpus(3, 2, seed=7)
    assert len(a) == len(b) == 6
    for ua, ub in zip(a, b):
        assert np.array_equal(ua.samples, ub.samples)
        assert ua.segments == ub.segments
        assert np.array_equal(ua.impulses, ub.impulses)


def test_different_seed_differs():
    a = synth_corpus(2, 1, seed=7)[0]
    b = synth_corpus(2, 1, seed=8)[0]
    assert not np.array_equal(a.samples, b.samples)


def test_speaker_parameters_in_range_and_distinct():
    speakers = synth_speakers(12, np.random.default_rng(5))
    pitches = [s.pitch_hz for s in speakers]
    assert all(PITCH_LO_HZ <= p <= PITCH_HI_HZ for p in pitches)
    assert len(set(pitches)) == 12
    assert len({s.formants_hz for s in speakers}) == 12
    for s in speakers:
        f1, f2, f3 = s.formants_hz
        assert f1 < f2 < f3


def test_requires_two_speakers():
    with pytest.raises(ValueError):
        synth_corpus(1, 2, seed=0)
    with pytest.raises(ValueError):
        synth_corpus(2, 0, seed=0)


def test_segment_structure_and_impulses():
    (utt,) = synth_corpus(2, 1, seed=9)[:1]
    assert {seg.phone for seg in utt.segments} == {VOICED_PHONE, SILENCE_PHONE}
    # segments tile the utterance
    cursor = 0
    for seg in utt.segments:
        assert seg.begin == cursor
        cursor = seg.end
    assert cursor == utt.samples.size
    # impulses all inside voiced segments, evenly spaced within each run
    voiced = [s for s in utt.segments if s.phone == VOICED_PHONE]
    for pos in utt.impulses:
        assert any(s.begin <= pos < s.end for s in voiced)
    for seg in voiced:
        inside = utt.impulses[(utt.impulses >= seg.begin) & (utt.impulses < seg.end)]
        gaps = np.diff(inside)
        assert gaps.size > 0 and np.all(gaps == gaps[0])
        # silence really is silent
    for seg in utt.segments:
        if seg.phone == SILENCE_PHONE:
            assert not np.any(utt.samples[seg.begin : seg.end])


def test_samples_on_pcm_grid_and_peak():
    utt = synth_corpus(2, 1, seed=13)[0]
    assert np.max(np.abs(utt.samples)) <= 1.0
    scaled = utt.samples * 32768.0
    assert np.allclose(scaled, np.rint(scaled))


def lfilter_voiced_run(speaker, n_samples, sample_rate, amplitude, phase, response):
    """``_voiced_run`` as three scipy ``lfilter`` recursions over the impulse train; ``response`` is unused."""
    period = int(round(sample_rate / speaker.pitch_hz))
    positions = np.arange(phase, n_samples, period)
    out = np.zeros(n_samples)
    out[positions] = amplitude
    for f, bw in zip(speaker.formants_hz, speaker.bandwidths_hz):
        r = math.exp(-math.pi * bw / sample_rate)
        b1, b2 = 2.0 * r * math.cos(2.0 * math.pi * f / sample_rate), -r * r
        out = scipy.signal.lfilter([1.0 - b1 - b2], [1.0, -b1, -b2], out)
    return out, positions


@pytest.mark.parametrize("sample_rate", [1430, 8000, 16000, 48000])
def test_utterance_is_byte_identical_to_lfilter_cascade(monkeypatch, sample_rate):
    # at 1430 Hz, F2 and F3 lie above the 715 Hz Nyquist frequency
    speaker = synth_speakers(2, np.random.default_rng(sample_rate))[1]
    response = formant_response(speaker, int(round(RUN_S[1] * sample_rate)), sample_rate)
    got = synth_utterance(speaker, "u00", np.random.default_rng(1), response, sample_rate)
    monkeypatch.setattr(synth, "_voiced_run", lfilter_voiced_run)
    want = synth_utterance(speaker, "u00", np.random.default_rng(1), response, sample_rate)
    assert got.samples.tobytes() == want.samples.tobytes()
    assert np.array_equal(got.impulses, want.impulses) and got.segments == want.segments


def test_voiced_run_matches_lfilter_cascade_before_rounding():
    sr = 16000
    speaker = SynthSpeaker("t", 118.0, (600.0, 1400.0, 2600.0), (60.0, 90.0, 120.0))
    got, positions = _voiced_run(speaker, 9000, sr, 0.8, 30, formant_response(speaker, 9600, sr))
    want, want_positions = lfilter_voiced_run(speaker, 9000, sr, 0.8, 30, None)
    assert np.array_equal(positions, want_positions)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@given(
    st.tuples(*(st.floats(lo, hi) for lo, hi in FORMANT_RANGES)),
    st.tuples(*(st.floats(*BANDWIDTH_RANGE) for _ in range(3))),
    st.sampled_from([8000, 16000, 48000]),
)
@settings(max_examples=50, deadline=None)
def test_formant_response_has_unity_dc_gain_and_decays(formants, bandwidths, sr):
    # at 8-48 kHz no formant range holds a multiple of sr/2, where the closed form's sin(theta) is 0
    h = formant_response(SynthSpeaker("t", 118.0, formants, bandwidths), int(round(RUN_S[1] * sr)), sr)
    assert np.all(np.isfinite(h))
    assert math.isclose(h.sum(), 1.0, abs_tol=1e-9)  # unity gain at 0 Hz
    # stable: every pole radius is below 1, so the response dies out well within the longest run
    assert np.max(np.abs(h[h.size // 2 :])) <= 1e-12 * np.max(np.abs(h))


@given(st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=400))
@settings(max_examples=50, deadline=None)
def test_resonate_stable_bounded(xs):
    h = formant_response(SynthSpeaker("t", 118.0, (800.0, 1500.0, 2500.0), (100.0, 90.0, 120.0)), 4000, 16000)
    gain_budget = np.abs(h).sum()
    y = np.convolve(xs, h)[: len(xs)]
    assert np.all(np.isfinite(y))
    assert np.max(np.abs(y)) <= gain_budget * 1.0 + 1e-9


def test_sample_rate_floor_is_the_top_pitch_period():
    # 1430 Hz is the lowest rate whose 260 Hz period rounds to more than 5 samples
    assert int(round(1430 / PITCH_HI_HZ)) == MIN_PHASE + 1
    assert len(synth_corpus(2, 1, seed=3, sample_rate=1430)) == 2
    with pytest.raises(ValueError, match="^sample_rate 1429 too low"):
        synth_corpus(2, 1, seed=3, sample_rate=1429)


# spkid's code in a fresh process whose every scipy import fails
NO_SCIPY = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"scipy is blocked: {name}")

sys.meta_path.insert(0, BlockScipy())
try:
    import scipy
except ImportError:
    print("scipy blocked")

import spkid
from spkid.cli import main

corpus, model = sys.argv[1:]
utterances = spkid.synth_corpus(4, 8, seed=5, sample_rate=8000)
report = spkid.run_experiment(spkid.ExperimentConfig(codebook_sizes=(8,), coeff_counts=(15,)), utterances)
print(len(utterances), len(report.trials))
assert main(["synth", "--corpus", corpus, "--speakers", "4", "--utterances", "8", "--seed", "5",
             "--sample-rate", "8000"]) == 0
assert main(["train", "--corpus", corpus, "--model-dir", model, "--kind", "fused", "--codebook-size", "8"]) == 0
assert main(["identify", "--corpus", corpus, "--model-dir", model, "--kind", "psdct", "--report-out",
             model + "/scores.csv"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_numpy_alone_runs_synth_train_and_identify(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-c", NO_SCIPY, str(tmp_path / "corpus"), str(tmp_path / "model")]
    out = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    # 4 speakers x 8 utterances; a psdct, mfcc and fused trial per test speaker; no scipy module loaded
    assert lines[:2] == ["scipy blocked", "32 12"] and lines[-1] == "[]"
    assert len(list((tmp_path / "corpus").glob("*/*.wav"))) == 32
    assert (tmp_path / "model" / "scores.csv").read_text().startswith("test_speaker,")
