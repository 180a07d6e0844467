"""Input-contract rows: inputs off the happy path either still identify the
speakers or end in one error that names its cause.

Every row starts from ``synth_corpus(4, 8, seed=5, sample_rate=8000)`` and
trains codebooks of size 8; the mixed-rate rows mix it with the same call
at 16 kHz. There are no noise rows yet: on this voice even
0 dB white noise leaves every speaker identified, so such a row cannot fail.
"""

import os
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import spkid.evaluate as evaluate
from conftest import set_workers
from spkid import cli
from spkid.corpus import PhoneSegment, load_corpus, max_period, save_corpus, split_speakers
from spkid.evaluate import ExperimentConfig, run_experiment, split_features, sweep_coefficients
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


def _edited(name, edit):
    """Writes the corpus with the bytes of its file ``name`` passed through ``edit``."""

    def write(utts, root):
        save_corpus(utts, root)
        (root / name).write_bytes(edit((root / name).read_bytes()))

    return write


def _phn_line(line: bytes):
    """Writes the corpus with line 2 of spk01/u02.phn, a training utterance's labels, replaced by ``line``."""

    def edit(data):
        first, _, *rest = data.splitlines(keepends=True)
        return b"".join([first, line, *rest])

    return _edited("spk01/u02.phn", edit)


def _epoch_line(line: bytes):
    """Writes the corpus with ``line`` appended to the epoch file of spk01/u03, a training utterance."""
    return _edited("spk01/u03.gci", lambda data: data + line)


NO_PSDCT = re.escape("speaker spk02: no psdct training vectors")
TOO_BIG = re.escape("codebook sizes exceed the distinct training vectors: ") + "; ".join(
    rf"{spk} {kind} k=100000 \(\d+ distinct\)" for spk in SPEAKERS for kind in ("psdct", "mfcc")
)
SILENT = _one_speaker("spk02", lambda u: replace(u, samples=np.zeros_like(u.samples)))
UNVOICED = _one_speaker("spk02", lambda u: replace(u, segments=[PhoneSegment(0, u.samples.size, SILENCE_PHONE)]))

# row -> (writer of the corpus from the 8 kHz one, codebook size, the one error); {root} stands for the corpus root
FAIL = {
    "silent speaker": (_saved(SILENT), SIZE, NO_PSDCT),
    "labels all unvoiced": (_saved(UNVOICED), SIZE, NO_PSDCT),
    "voiced runs shorter than one max period": (_saved(_one_speaker("spk02", _short_runs)), SIZE, NO_PSDCT),
    "k larger than the data": (save_corpus, 100000, TOO_BIG),
    "labels past the end": (
        _labels_past_the_end, SIZE, r"speaker spk00 utterance u00: segment ends at sample \d+, past the \d+ samples"
    ),
    "malformed epoch line": (
        _epoch_line(b"12x\n"), SIZE, r"{root}/spk01/u03\.gci:\d+: expected one sample index, got '12x\\n'"
    ),
    "epoch index beyond int64": (
        _epoch_line(b"99999999999999999999\n"), SIZE,
        r"{root}/spk01/u03\.gci:\d+: expected one sample index, got '99999999999999999999\\n'",
    ),
    "epoch file not UTF-8": (
        _epoch_line(b"\xff\n"), SIZE, r"{root}/spk01/u03\.gci: not UTF-8 text: invalid start byte at byte offset \d+"
    ),
    # spk01/u02.wav, a training utterance, holds 33326 bytes of samples
    "wav cut 1 byte inside its data": (
        _edited("spk01/u02.wav", lambda data: data[:-1]), SIZE,
        r"{root}/spk01/u02\.wav: file ends inside its data chunk \(33325 of 33326 bytes\)",
    ),
    "wav cut 1000 bytes inside its data": (
        _edited("spk01/u02.wav", lambda data: data[:-1000]), SIZE,
        r"{root}/spk01/u02\.wav: file ends inside its data chunk \(32326 of 33326 bytes\)",
    ),
    "phn bounds not integers": (
        _phn_line(b"1200 x800 ax\n"), SIZE, r"{root}/spk01/u02\.phn:2: non-integer bounds in '1200 x800 ax\\n'"
    ),
    "phn segment ends before it begins": (
        _phn_line(b"1200 1100 ax\n"), SIZE, r"{root}/spk01/u02\.phn:2: bad segment bounds \[1200, 1100\)"
    ),
    # save_corpus writes no .phn for an utterance without segments
    "wav without its .phn": (
        _saved(_one_speaker("spk01", lambda u: replace(u, segments=None) if u.utterance_id == "u03" else u)), SIZE,
        "speaker spk01 utterance u03: no phone segments",
    ),
}


@pytest.mark.parametrize("row", FAIL)
def test_row_fails_with_one_named_error(corpus, row, tmp_path, capsys):
    write, size, error = FAIL[row]
    write(corpus, tmp_path)
    error = error.replace("{root}", re.escape(str(tmp_path)))
    with pytest.raises(ValueError) as exc:
        run_experiment(ExperimentConfig(codebook_sizes=(size,)), utterances=load_corpus(tmp_path))
    assert re.fullmatch(error, str(exc.value)), str(exc.value)

    capsys.readouterr()
    # the report opens before the run: a failure midway keeps an earlier run.md and never removes a device
    (tmp_path / "run.md").write_text("an earlier report\n")
    (tmp_path / "run.csv").symlink_to(os.devnull)
    files = sorted(tmp_path.rglob("*"))
    argv = ["evaluate", "--corpus", str(tmp_path), "--codebook-size", str(size), "--report-out", str(tmp_path / "run")]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(f"spkid evaluate: error: {error}\n", err), err
    assert sorted(tmp_path.rglob("*")) == files
    assert (tmp_path / "run.md").read_text() == "an earlier report\n"
    assert (tmp_path / "run.csv").readlink() == Path(os.devnull)


@pytest.fixture(scope="module")
def wide_corpus():
    return synth_corpus(4, 8, seed=5)


def _mixed_speakers(narrow, wide):
    """spk00 and spk01 at 16 kHz beside spk02 and spk03 at 8 kHz."""
    return [w if w.speaker_id in ("spk00", "spk01") else n for n, w in zip(narrow, wide, strict=True)]


def _mixed_utterances(narrow, wide):
    """Each speaker's even-numbered utterances at 16 kHz, and its odd-numbered ones at 8 kHz."""
    return [w if int(w.utterance_id[1:]) % 2 == 0 else n for n, w in zip(narrow, wide, strict=True)]


MIXED_RATES = "utterances at more than one sample rate: "
# row -> (the corpus from the 8 and 16 kHz ones, the first training and the first test utterance at each rate)
MIXED = {
    "speakers at two rates": (
        _mixed_speakers, "spk00/u00 at 16000 Hz, spk02/u00 at 8000 Hz", "spk00/u06 at 16000 Hz, spk02/u06 at 8000 Hz"
    ),
    "utterances at two rates": (
        _mixed_utterances, "spk00/u00 at 16000 Hz, spk00/u01 at 8000 Hz", "spk00/u06 at 16000 Hz, spk00/u07 at 8000 Hz"
    ),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("row", MIXED)
def test_mixed_sample_rates_are_refused_before_any_codebook(corpus, wide_corpus, row, workers, monkeypatch):
    mix, training, test = MIXED[row]
    utterances = mix(corpus, wide_corpus)
    set_workers(monkeypatch, workers)

    def tripwire(*args, **kwargs):
        raise AssertionError("a codebook was trained on a corpus of mixed sample rates")

    monkeypatch.setattr(evaluate, "train_codebooks", tripwire)
    # the sweep's default K up to 40 finds no 8 kHz cycle long enough; the rates are named first
    for run in (run_experiment, sweep_coefficients):
        with pytest.raises(ValueError) as exc:
            run(ExperimentConfig(codebook_sizes=(SIZE,), sweep_codebook_size=SIZE), utterances=utterances)
        assert str(exc.value) == MIXED_RATES + training
    with pytest.raises(ValueError) as exc:
        split_features(split_speakers(utterances), ExperimentConfig(), "test")
    assert str(exc.value) == MIXED_RATES + test


@pytest.fixture(scope="module")
def narrow_model(corpus, tmp_path_factory):
    """PS-DCT codebooks of size 8 trained on the 8 kHz corpus."""
    root, model = tmp_path_factory.mktemp("narrow"), tmp_path_factory.mktemp("narrow-model")
    save_corpus(corpus, root)
    argv = ["--kind", "psdct", "--codebook-size", str(SIZE)]
    assert cli.main(["train", "--corpus", str(root), "--model-dir", str(model), *argv]) == 0
    return model


@pytest.mark.parametrize("command", ["evaluate", "train", "identify", "sweep"])
@pytest.mark.parametrize("row", MIXED)
def test_cli_refuses_mixed_sample_rates_with_one_line(
    corpus, wide_corpus, narrow_model, row, command, tmp_path, capsys
):
    mix, training, test = MIXED[row]
    named = test if command == "identify" else training  # identify reads the test split alone
    save_corpus(mix(corpus, wide_corpus), tmp_path / "corpus")
    model = narrow_model if command == "identify" else tmp_path / "model"
    argv = [command, "--corpus", str(tmp_path / "corpus")]
    if command in ("train", "identify"):
        argv += ["--model-dir", str(model)]
    capsys.readouterr()
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"spkid {command}: error: {MIXED_RATES}{named}\n")
    assert not (tmp_path / "model").exists()
