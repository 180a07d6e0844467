import numpy as np
import pytest

from spkid.synth import (
    PITCH_HI_HZ,
    PITCH_LO_HZ,
    SILENCE_PHONE,
    VOICED_PHONE,
    synth_corpus,
    synth_speakers,
)


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
