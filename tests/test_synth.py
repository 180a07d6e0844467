import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st

from spkid.synth import (
    MIN_PHASE,
    PITCH_HI_HZ,
    PITCH_LO_HZ,
    SILENCE_PHONE,
    VOICED_PHONE,
    resonator,
    synth_corpus,
    synth_speakers,
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


@given(st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=400))
@settings(max_examples=50, deadline=None)
def test_resonate_stable_bounded(xs):
    ba = resonator(800.0, 100.0, 16000)
    h = scipy.signal.lfilter(*ba, np.eye(1, 4000, 0)[0])  # impulse response
    gain_budget = np.abs(h).sum()
    y = scipy.signal.lfilter(*ba, np.array(xs))
    assert np.all(np.isfinite(y))
    assert np.max(np.abs(y)) <= gain_budget * 1.0 + 1e-9


def test_resonator_is_stable_and_validates():
    b, a = resonator(500.0, 80.0, 16000)
    assert np.all(np.abs(np.roots(a)) < 1.0)
    assert np.isclose(np.sum(b) / np.sum(a), 1.0)  # unity gain at 0 Hz
    with pytest.raises(ValueError):
        resonator(500.0, 0.0, 16000)
    with pytest.raises(ValueError):
        resonator(500.0, 80.0, 0)


def test_sample_rate_floor_is_the_top_pitch_period():
    # 1430 Hz is the lowest rate whose 260 Hz period rounds to more than 5 samples
    assert int(round(1430 / PITCH_HI_HZ)) == MIN_PHASE + 1
    assert len(synth_corpus(2, 1, seed=3, sample_rate=1430)) == 2
    with pytest.raises(ValueError, match="^sample_rate 1429 too low"):
        synth_corpus(2, 1, seed=3, sample_rate=1429)


def test_import_loads_no_scipy_until_synth():
    # a fresh process: this test session has scipy loaded already
    code = (
        "import sys, spkid, spkid.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "print(len(spkid.synth_corpus(2, 1, seed=3, sample_rate=8000)))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == ["[]", "2"]
