"""Input-contract rows: inputs off the happy path either still identify the
speakers or end in one error that names its cause.

Every row starts from ``synth_corpus(4, 8, seed=5, sample_rate=8000)`` and
trains codebooks of size 8. There are no noise rows yet: on this voice even
0 dB white noise leaves every speaker identified, so such a row cannot fail.
"""

import re
from dataclasses import replace

import numpy as np
import pytest

from spkid import cli
from spkid.corpus import PhoneSegment, load_corpus, max_period, save_corpus
from spkid.evaluate import ExperimentConfig, run_experiment
from spkid.synth import SILENCE_PHONE, VOICED_PHONE, synth_corpus

SR = 8000
SIZE = 8
SPEAKERS = ("spk00", "spk01", "spk02", "spk03")


@pytest.fixture(scope="module")
def corpus():
    return synth_corpus(4, 8, seed=5, sample_rate=SR)


def _at_rate(rate):
    return lambda utts: synth_corpus(4, 8, seed=5, sample_rate=rate)


def _samples(fn):
    return lambda utts: [replace(u, samples=fn(u.samples)) for u in utts]


# row -> corpus built from the 8 kHz one; each must identify 3 of the 4 speakers per kind
IDENTIFY = {
    "8 kHz": lambda utts: utts,
    "11.025 kHz": _at_rate(11025),
    "22.05 kHz": _at_rate(22050),
    "44.1 kHz": _at_rate(44100),
    "dc offset": _samples(lambda x: 0.7 * x + 0.3),
    "clipped": _samples(lambda x: np.clip(20.0 * x, -1.0, 1.0)),
    "1e-6 amplitude": _samples(lambda x: 1e-6 * x),
}


@pytest.mark.parametrize("row", IDENTIFY)
def test_row_identifies_the_speakers(corpus, row):
    report = run_experiment(ExperimentConfig(codebook_sizes=(SIZE,)), utterances=IDENTIFY[row](corpus))
    for kind in ("psdct", "mfcc", "fused"):
        assert report.accuracies[kind][SIZE] >= 0.75, (kind, report.accuracies)


def _one_speaker(speaker, fn):
    return lambda utts: [fn(u) if u.speaker_id == speaker else u for u in utts]


def _short_runs(utt):
    """Voiced runs cut into pieces half a max period long, with silence between them."""
    piece = max_period(utt.sample_rate) // 2
    segments, phones = [], (VOICED_PHONE, SILENCE_PHONE)
    for seg in utt.segments:
        if seg.phone != VOICED_PHONE:
            segments.append(seg)
            continue
        for i, begin in enumerate(range(seg.begin, seg.end, piece)):
            segments.append(PhoneSegment(begin, min(begin + piece, seg.end), phones[i % 2]))
    return replace(utt, segments=segments)


def _saved(edit):
    """Writes the corpus with ``edit`` applied to its utterances."""
    return lambda utts, root: save_corpus(edit(utts), root)


def _labels_past_the_end(utts, root):
    save_corpus(utts, root)
    phn = root / "spk00" / "u00.phn"
    *lines, last = phn.read_text().splitlines()
    begin, end, phone = last.split()
    phn.write_text("\n".join(lines + [f"{begin} {int(end) + 4000} {phone}"]) + "\n")


def _malformed_epoch_line(utts, root):
    save_corpus(utts, root)
    gci = root / "spk01" / "u03.gci"
    gci.write_text(gci.read_text() + "12x\n")


NO_PSDCT = re.escape("speaker spk02: no psdct training vectors")
TOO_BIG = re.escape("codebook sizes exceed the distinct training vectors: ") + "; ".join(
    rf"{spk} {kind} k=100000 \(\d+ distinct\)" for spk in SPEAKERS for kind in ("psdct", "mfcc")
)
SILENT = _one_speaker("spk02", lambda u: replace(u, samples=np.zeros_like(u.samples)))
UNVOICED = _one_speaker("spk02", lambda u: replace(u, segments=[PhoneSegment(0, u.samples.size, SILENCE_PHONE)]))

# row -> (writer of the corpus from the 8 kHz one, codebook size, the one error)
FAIL = {
    "silent speaker": (_saved(SILENT), SIZE, NO_PSDCT),
    "labels all unvoiced": (_saved(UNVOICED), SIZE, NO_PSDCT),
    "voiced runs shorter than one max period": (_saved(_one_speaker("spk02", _short_runs)), SIZE, NO_PSDCT),
    "k larger than the data": (save_corpus, 100000, TOO_BIG),
    "labels past the end": (
        _labels_past_the_end, SIZE, r"speaker spk00 utterance u00: segment ends at sample \d+, past the \d+ samples"
    ),
    "malformed epoch line": (
        _malformed_epoch_line, SIZE, r".+/spk01/u03\.gci:\d+: expected one sample index, got '12x\\n'"
    ),
}


@pytest.mark.parametrize("row", FAIL)
def test_row_fails_with_one_named_error(corpus, row, tmp_path, capsys):
    write, size, error = FAIL[row]
    write(corpus, tmp_path)
    with pytest.raises(ValueError) as exc:
        run_experiment(ExperimentConfig(codebook_sizes=(size,)), utterances=load_corpus(tmp_path))
    assert re.fullmatch(error, str(exc.value)), str(exc.value)

    capsys.readouterr()
    assert cli.main(["evaluate", "--corpus", str(tmp_path), "--codebook-size", str(size)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(f"spkid evaluate: error: {error}\n", err), err
