import csv
import io
import os
import shutil
import stat
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import spkid.evaluate as ev
from conftest import write_timit_tree
from spkid.cli import main
from spkid.corpus import UtteranceFile, extract_voiced_regions, load_corpus, save_corpus
from spkid.evaluate import ExperimentConfig, run_experiment, sweep_coefficients, sweep_to_markdown
from spkid.gci import detect_gci, map_to_peaks
from spkid.synth import VOICED_PHONE, synth_corpus
from spkid.vq import load_codebook, load_model_dir, save_codebook

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    assert main(["synth", "--corpus", str(root), "--speakers", "4", "--utterances", "8", "--seed", "5"]) == 0
    return root


@pytest.fixture(scope="module")
def fused_model(corpus_dir, tmp_path_factory):
    model = tmp_path_factory.mktemp("model")
    assert main(["train", "--corpus", str(corpus_dir), "--model-dir", str(model), "--codebook-size", "8"]) == 0
    return model


@pytest.fixture
def no_extraction(monkeypatch):
    """Fail the test if any audio file is read, or any voiced region through spkid.evaluate or spkid.cli."""

    def tripwire(*args, **kwargs):
        raise AssertionError("audio was read before the arguments were checked")

    monkeypatch.setattr(UtteranceFile, "read", tripwire)
    monkeypatch.setattr(ev, "extract_voiced_regions", tripwire)
    # extract's --epoch-dump pass reads regions through cli's own binding
    monkeypatch.setattr("spkid.cli.extract_voiced_regions", tripwire)


@pytest.fixture
def reads(monkeypatch):
    """Each file read, in order: (speaker, utterance, speakers of the Utterances still alive just before it).

    A weak set holds every Utterance the reader returned, so it counts only
    those that something still refers to.
    """
    live = weakref.WeakSet()
    seen = []
    read = UtteranceFile.read

    def counting(self):
        seen.append((self.speaker_id, self.utterance_id, sorted(u.speaker_id for u in live)))
        utt = read(self)
        live.add(utt)
        return utt

    monkeypatch.setattr(UtteranceFile, "read", counting)
    return seen


def assert_input_error(capsys, argv, message):
    """``main(argv)`` returns 2 and prints one ``spkid <command>: error:`` line naming ``message``."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"spkid {argv[0]}: error: ") and err.count("\n") == 1
    assert message in err
    return err


def test_synth_writes_corpus_layout(corpus_dir):
    wavs = sorted(corpus_dir.glob("*/*.wav"))
    assert len(wavs) == 32
    assert (corpus_dir / "spk00" / "u00.phn").exists()
    assert (corpus_dir / "spk00" / "u00.gci").exists()
    utts = load_corpus(corpus_dir)
    assert len(utts) == 32
    assert all(u.segments for u in utts)


def test_synth_is_deterministic_on_disk(corpus_dir, tmp_path):
    again = tmp_path / "again"
    main(["synth", "--corpus", str(again), "--speakers", "4", "--utterances", "8", "--seed", "5"])
    a = (corpus_dir / "spk01" / "u03.wav").read_bytes()
    b = (again / "spk01" / "u03.wav").read_bytes()
    assert a == b


def test_extract_psdct_csv(corpus_dir, tmp_path):
    out = tmp_path / "feats.csv"
    assert main(["extract", "--corpus", str(corpus_dir), "--kind", "psdct", "--report-out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "speaker,utterance,cycle_index," + ",".join(f"k{i}" for i in range(1, 16))
    assert len(lines) > 500
    assert all(len(line.split(",")) == 18 for line in lines[1:50])


def test_extract_mfcc_csv(corpus_dir, tmp_path):
    out = tmp_path / "mf.csv"
    assert main(["extract", "--corpus", str(corpus_dir), "--kind", "mfcc", "--report-out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("speaker,utterance,frame_index,k1")
    assert len(lines[1].split(",")) == 16


def test_train_then_identify(corpus_dir, tmp_path, capsys):
    model = tmp_path / "model"
    assert main([
        "train", "--corpus", str(corpus_dir), "--model-dir", str(model),
        "--kind", "fused", "--codebook-size", "8", "--seed", "42",
    ]) == 0
    books = load_model_dir(model)
    assert len(books) == 8  # 4 speakers x 2 kinds
    assert (model / "manifest.json").exists()

    out = tmp_path / "scores.csv"
    assert main([
        "identify", "--corpus", str(corpus_dir), "--model-dir", str(model),
        "--kind", "psdct", "--report-out", str(out),
    ]) == 0
    assert "identified 4/4" in capsys.readouterr().err
    assert out.read_text().count("\n") == 1 + 4 * 4  # one header, 4 candidates per test speaker

    out2 = tmp_path / "fused.csv"
    assert main([
        "identify", "--corpus", str(corpus_dir), "--model-dir", str(model),
        "--kind", "fused", "--acc-dct", "1.0", "--acc-mfcc", "1.0",
        "--report-out", str(out2),
    ]) == 0
    assert "identified 4/4" in capsys.readouterr().err
    assert "d_com" in out2.read_text()


def test_evaluate_writes_reports(corpus_dir, tmp_path, capsys):
    prefix = tmp_path / "report"
    assert main([
        "evaluate", "--corpus", str(corpus_dir), "--codebook-size", "8,16",
        "--seed", "42", "--report-out", str(prefix),
    ]) == 0
    captured = capsys.readouterr()
    assert "Accuracy by codebook size" in captured.out
    md = (tmp_path / "report.md").read_text()
    assert "| 8 |" in md and "| 16 |" in md
    csv_text = (tmp_path / "report.csv").read_text()
    assert csv_text.startswith("test_speaker,kind,codebook_size")


def test_evaluate_report_names_the_mfcc_width_when_it_scores_mfcc_alone(corpus_dir, tmp_path):
    prefix = tmp_path / "report"
    assert main(["evaluate", "--corpus", str(corpus_dir), "--kind", "mfcc", "--codebook-size", "8",
                 "--report-out", str(prefix)]) == 0
    assert "- feature dim: 13 (mfcc)" in (tmp_path / "report.md").read_text().splitlines()


def test_sweep_writes_reports(corpus_dir, tmp_path, capsys):
    prefix = tmp_path / "sweep"
    assert main([
        "sweep", "--corpus", str(corpus_dir), "--coeffs", "10,15",
        "--codebook-size", "8", "--report-out", str(prefix),
    ]) == 0
    assert "Coefficient-count sweep" in capsys.readouterr().out
    assert (tmp_path / "sweep.md").exists()
    rows = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert rows[0] == "n_coeffs,mec_total,mec_ac,accuracy"
    assert len(rows) == 3


@pytest.mark.parametrize("command, args", [
    ("evaluate", ["--codebook-size", "8"]),
    ("sweep", ["--coeffs", "10", "--codebook-size", "8"]),
])
def test_report_out_appends_to_a_dotted_prefix(command, args, corpus_dir, tmp_path, capsys):
    # .md and .csv are appended, so neither prefix loses its ".x"/".y" or overwrites the other's files
    for prefix in ("run.x", "run.y"):
        assert main([command, "--corpus", str(corpus_dir), *args, "--report-out", str(tmp_path / prefix)]) == 0
        assert capsys.readouterr().err == f"wrote {tmp_path / prefix}.md and {tmp_path / prefix}.csv\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.x.csv", "run.x.md", "run.y.csv", "run.y.md"]


def test_voiced_set_flag(corpus_dir, tmp_path):
    vset = tmp_path / "voiced.txt"
    vset.write_text(f"{VOICED_PHONE}\n")
    out = tmp_path / "f.csv"
    assert main([
        "extract", "--corpus", str(corpus_dir), "--kind", "psdct",
        "--voiced-set", str(vset), "--report-out", str(out),
    ]) == 0
    assert len(out.read_text().strip().splitlines()) > 500


@pytest.mark.parametrize("kind, index, width", [("psdct", "cycle_index", 15), ("mfcc", "frame_index", 13)])
def test_extract_with_no_voiced_region_writes_only_the_header(corpus_dir, tmp_path, kind, index, width):
    vset = tmp_path / "voiced.txt"
    vset.write_text("no-such-phone\n")
    out = tmp_path / "f.csv"
    assert main([
        "extract", "--corpus", str(corpus_dir), "--kind", kind,
        "--voiced-set", str(vset), "--report-out", str(out),
    ]) == 0
    assert out.read_text() == f"speaker,utterance,{index}," + ",".join(f"k{i}" for i in range(1, width + 1)) + "\n"


def test_train_rejects_oversized_codebooks_before_training(corpus_dir, tmp_path, monkeypatch, capsys):
    def no_training(*args, **kwargs):
        raise AssertionError("a codebook was trained before the size check")

    monkeypatch.setattr(ev, "train_codebook", no_training)
    err = assert_input_error(
        capsys, ["train", "--corpus", str(corpus_dir), "--model-dir", str(tmp_path / "m"), "--codebook-size", "5000"],
        "codebook sizes exceed the distinct training vectors",
    )
    for spk in ("spk00", "spk01", "spk02", "spk03"):
        for kind in ("psdct", "mfcc"):
            assert f"{spk} {kind} k=5000 (" in err


@pytest.mark.parametrize("command, flag", [("evaluate", "--codebook-size"), ("sweep", "--coeffs")])
def test_int_list_flag_names_expected_format(command, flag, corpus_dir, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--corpus", str(corpus_dir), flag, "16,x"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"spkid {command}: error: argument {flag}: expected comma-separated integers, got '16,x'" in err
    assert "_int_list" not in err


def test_train_names_speaker_without_voiced_vectors(corpus_dir, tmp_path, capsys):
    vset = tmp_path / "voiced.txt"
    vset.write_text("zz\n")
    assert_input_error(
        capsys, ["train", "--corpus", str(corpus_dir), "--model-dir", str(tmp_path / "m"), "--voiced-set", str(vset)],
        "speaker spk00: no psdct training vectors",
    )


@pytest.mark.parametrize("kind, extra", [
    ("psdct", []), ("mfcc", []), ("fused", ["--acc-dct", "0.9", "--acc-mfcc", "0.8"]),
])
def test_identify_csv_has_one_header(kind, extra, corpus_dir, fused_model, tmp_path):
    out = tmp_path / "scores.csv"
    argv = ["identify", "--corpus", str(corpus_dir), "--model-dir", str(fused_model), "--kind", kind, *extra]
    assert main([*argv, "--report-out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert [i for i, line in enumerate(lines) if line.startswith("test_speaker,")] == [0]
    assert len(lines) == 1 + 4 * 4


def test_cli_scores_match_run_experiment(corpus_dir, tmp_path):
    model, out = tmp_path / "model", tmp_path / "scores.csv"
    common = ["--corpus", str(corpus_dir), "--model-dir", str(model), "--kind", "psdct"]
    assert main(["train", *common, "--codebook-size", "8", "--seed", "42"]) == 0
    assert main(["identify", *common, "--report-out", str(out)]) == 0
    with open(out, newline="") as fh:
        cli_scores = {(r["test_speaker"], r["speaker"]): r["cmd"] for r in csv.DictReader(fh)}

    config = ExperimentConfig(codebook_sizes=(8,), kinds=("psdct",), seed=42)
    report = run_experiment(config, utterances=load_corpus(corpus_dir))
    lib_scores = {(t.speaker_id, cand): f"{score:.9g}" for t in report.trials for cand, score in t.scores}
    assert len(cli_scores) == 16
    assert cli_scores == lib_scores


def _tree(root):
    """Each path under ``root``, with a file's bytes or None for a directory."""
    return {path: path.read_bytes() if path.is_file() else None for path in sorted(root.rglob("*"))}


def assert_refused(capsys, argv, message, root):
    """``main(argv)`` returns 2 and prints one line, ``spkid <command>: error: <message>``; ``root`` is as it was."""
    before = _tree(root)
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"spkid {argv[0]}: error: {message}\n")
    assert _tree(root) == before


IDENTIFY = "identify --corpus {corpus} --model-dir {model}"
NO_SUCH_FILE = "[Errno 2] No such file or directory: '{tmp}/"
# row -> (argv, the one error), each refused before any audio is read and leaving the row's directory as it was:
# no output written, and kept.csv, as if an earlier run wrote it, byte for byte;
# {corpus}, {model} and {tmp} stand for the corpus, a fused model and the row's own directory
ARGUMENTS = {
    **{f"synth-sample-rate-{rate}": (f"synth --corpus {{tmp}}/bad-sr --speakers 2 --utterances 2 --sample-rate {rate}",
                                     f"sample_rate {rate} too low: 260 Hz needs a period over 5 samples")
       for rate in ("0", "-8000", "1000")},
    "synth-one-speaker": ("synth --corpus {tmp}/c --speakers 1", "need at least 2 speakers"),
    "synth-no-utterances": ("synth --corpus {tmp}/c --utterances 0", "need at least 1 utterance per speaker"),
    "fused-without-accuracies": (f"{IDENTIFY} --kind fused",
                                 "--kind fused requires --acc-dct and --acc-mfcc (accuracies in [0,1])"),
    "identify-accuracy-above-1": (f"{IDENTIFY} --kind fused --acc-dct 1.5 --acc-mfcc 1.0",
                                  "accuracies must lie in [0, 1]"),
    "identify-both-accuracies-0": (f"{IDENTIFY} --kind fused --acc-dct 0 --acc-mfcc 0",
                                   "at least one accuracy must be positive"),
    **{f"identify-{kind}-{flag}": (f"{IDENTIFY} --kind {kind} {flag} 0.5",
                                   "--acc-dct and --acc-mfcc apply only to --kind fused")
       for kind, flag in (("psdct", "--acc-dct"), ("mfcc", "--acc-mfcc"))},
    "evaluate-repeated-sizes": ("evaluate --corpus {corpus} --codebook-size 8,8",
                                "codebook_sizes must list each value once, got 8,8"),
    "sweep-repeated-coeffs": ("sweep --corpus {corpus} --coeffs 10,10",
                              "coeff_counts must list each value once, got 10,10"),
    "sweep-no-coeffs": ("sweep --corpus {corpus} --coeffs ,", "coeff_counts must be a non-empty list of counts >= 1"),
    "train-codebook-size-0": ("train --corpus {corpus} --model-dir {tmp}/m --codebook-size 0",
                              "codebook_sizes must be a non-empty list of sizes >= 1"),
    **{f"sweep-codebook-size-{size}": (f"sweep --corpus {{corpus}} --codebook-size {size}",
                                       "sweep_codebook_size must be >= 1") for size in ("0", "-3")},
    **{f"{command}-seed-{name}": (f"{command} --corpus {{corpus}} --seed {seed}{model_dir}",
                                  f"seed must be in [0, 2**63), got {seed}")
       for command, model_dir in (("train", " --model-dir {tmp}/m"), ("evaluate", ""), ("sweep", ""))
       for name, seed in (("2**64", "18446744073709551616"), ("-1", "-1"))},
    "extract-coeffs-0": (
        "extract --corpus {corpus} --coeffs 0 --report-out {tmp}/kept.csv --epoch-dump {tmp}/epochs.csv",
        "n_coeffs must be >= 1"),
    "train-coeffs-0": ("train --corpus {corpus} --coeffs 0 --model-dir {tmp}/m", "n_coeffs must be >= 1"),
    "evaluate-coeffs-0": ("evaluate --corpus {corpus} --coeffs 0", "n_coeffs must be >= 1"),
    "missing-voiced-set": ("extract --corpus {corpus} --voiced-set {tmp}/no-such-voiced.txt",
                           NO_SUCH_FILE + "no-such-voiced.txt'"),
    "empty-voiced-set": ("evaluate --corpus {corpus} --voiced-set {tmp}/empty.txt",
                         "{tmp}/empty.txt: voiced-set file is empty"),
    "extract-missing-corpus-root": (
        "extract --corpus {tmp}/no-such-corpus --report-out {tmp}/feats.csv --epoch-dump {tmp}/epochs.csv",
        "corpus root {tmp}/no-such-corpus is not a directory"),
    # whichever of extract's two outputs cannot be opened, neither is left behind
    "extract-report-out-unopenable": (
        "extract --corpus {corpus} --report-out {tmp}/no-dir/x.csv --epoch-dump {tmp}/d.csv",
        NO_SUCH_FILE + "no-dir/x.csv'"),
    "extract-epoch-dump-unopenable": (
        "extract --corpus {corpus} --report-out {tmp}/x.csv --epoch-dump {tmp}/no-dir/d.csv",
        NO_SUCH_FILE + "no-dir/d.csv'"),
    "extract-two-outputs-at-one-path": (
        "extract --corpus {corpus} --report-out {tmp}/kept.csv --epoch-dump {tmp}/./kept.csv",
        "two outputs at one path: {tmp}/./kept.csv"),
    "identify-report-out-unopenable": (f"{IDENTIFY} --report-out {{tmp}}/no-dir/s.csv", NO_SUCH_FILE + "no-dir/s.csv'"),
    **{f"{command}-report-out-unopenable": (f"{command} --corpus {{corpus}} --report-out {{tmp}}/no-dir/r",
                                            NO_SUCH_FILE + "no-dir/r.md'") for command in ("evaluate", "sweep")},
    **{f"{command}-corpus-too-small-to-split": (f"{command} --corpus {{tmp}}/small --report-out {{tmp}}/kept",
                                                "speaker spk00 has 1 utterances, needs 8 for a 6/2 split")
       for command in ("evaluate", "sweep")},
    # the .md opens, then the .csv, a directory, does not: the .md is removed
    "evaluate-csv-is-a-directory": ("evaluate --corpus {corpus} --report-out {tmp}/dir",
                                    "[Errno 21] Is a directory: '{tmp}/dir.csv'"),
}


@pytest.mark.parametrize("row", ARGUMENTS)
def test_bad_arguments_are_refused_before_reading_audio(
    row, corpus_dir, fused_model, tmp_path, no_extraction, capsys
):
    argv, message = ARGUMENTS[row]
    (tmp_path / "empty.txt").touch()
    (tmp_path / "kept.csv").write_text("speaker,utterance\n")
    (tmp_path / "dir.csv").mkdir()
    (tmp_path / "small" / "spk00").mkdir(parents=True)
    (tmp_path / "small" / "spk00" / "u00.wav").touch()  # listed, never read
    paths = {"corpus": corpus_dir, "model": fused_model, "tmp": tmp_path}
    assert_refused(capsys, [arg.format(**paths) for arg in argv.split()], message.format(**paths), tmp_path)


def _manifest(text):
    return lambda model: (model / "manifest.json").write_text(text)


def _edit_bytes(name, edit):
    return lambda model: (model / name).write_bytes(edit((model / name).read_bytes()))


def _cut_spk01_psdct(rows, cols):
    """spk01's PS-DCT codebook cut to its first ``rows`` entries and ``cols`` columns."""

    def edit(model):
        cb = load_codebook(model / "spk01.psdct.cb")
        save_codebook(replace(cb, centroids=cb.centroids[:rows, :cols]), model / "spk01.psdct.cb")

    return edit


PSDCT = ["--kind", "psdct"]
# row -> (edit of a copy of the fused model, identify's flags, the one error); {model} stands for the copy
MALFORMED_MODEL = {
    "cut-json": (_manifest('{"version": 2, "codebooks": ['), PSDCT,
                 "{model}/manifest.json: not a valid JSON manifest: Expecting value: line 1 column 30 (char 29)"),
    "entry-outside-the-model": (_manifest('{"version": 2, "codebooks": ["../other/spk00.psdct.cb"]}'), PSDCT,
                                "{model}/manifest.json: codebook entry 0 is not a file name"),
    "listed-twice": (
        _manifest('{"version": 2, "codebooks": ["spk00.psdct.cb", "spk01.psdct.cb", "spk00.psdct.cb"]}'), PSDCT,
        "{model}/manifest.json: two psdct codebooks of spk00: spk00.psdct.cb, spk00.psdct.cb"),
    # identify --kind psdct reads every codebook the manifest lists, the MFCC ones too; the kind's first byte
    # follows the magic, the <IIIqQ fields and the kind's length
    "kind-not-utf8": (_edit_bytes("spk00.mfcc.cb", lambda data: data[:36] + b"\xff" + data[37:]), PSDCT,
                      "{model}/spk00.mfcc.cb: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    "no-manifest": (lambda model: (model / "manifest.json").unlink(), [],
                    "{model}: no manifest.json; not a model directory"),
    "entry-without-file": (_manifest('{"version": 2, "codebooks": [{"kind": "psdct"}]}'), [],
                           "{model}/manifest.json: codebook entry 0 is not a file name"),
    "version-1-manifest": (
        _manifest('{"version": 1, "codebooks": [{"file": "spk00.psdct.cb", "speaker_id": "spk00", "kind": "psdct"}]}'),
        [], "{model}/manifest.json: manifest version 1, not 2; train the model again"),
    "codebook-header-cut": (_edit_bytes("spk00.psdct.cb", lambda data: data[:20]), [],
                            "{model}/spk00.psdct.cb: codebook header is truncated"),
    # the version, a little-endian uint32, follows the 4-byte magic
    "codebook-version-2": (_edit_bytes("spk00.psdct.cb", lambda data: data[:4] + b"\x02" + data[5:]), [],
                           "{model}/spk00.psdct.cb: unsupported codebook version 2"),
    "not-a-codebook": (_edit_bytes("spk00.psdct.cb", lambda data: b"other bytes"), PSDCT,
                       "{model}/spk00.psdct.cb: not a codebook file"),
    "psdct-widths-differ": (_cut_spk01_psdct(8, 12), PSDCT, "{model}/manifest.json: psdct codebooks differ in width: "
                            "spk00.psdct.cb has dim 15, spk01.psdct.cb has dim 12"),
    "psdct-sizes-differ": (_cut_spk01_psdct(4, 15), PSDCT, "{model}/manifest.json: psdct codebooks differ in size: "
                           "spk00.psdct.cb has 8 entries, spk01.psdct.cb has 4"),
    "no-mfcc-codebooks": (_manifest('{"version": 2, "codebooks": ["spk00.psdct.cb", "spk01.psdct.cb"]}'),
                          ["--kind", "mfcc"], "model dir {model} has no mfcc codebooks"),
    "kinds-enroll-different-speakers": (
        _manifest('{"version": 2, "codebooks": ["spk00.mfcc.cb", "spk02.mfcc.cb", "spk03.mfcc.cb", '
                  '"spk00.psdct.cb", "spk01.psdct.cb", "spk02.psdct.cb", "spk03.psdct.cb"]}'),
        ["--kind", "fused", "--acc-dct", "0.5", "--acc-mfcc", "0.5"],
        "{model}/manifest.json: spk01 has no mfcc codebook; every kind must enroll the same speakers"),
}


@pytest.mark.parametrize("row", MALFORMED_MODEL)
def test_identify_refuses_a_malformed_model_before_extracting(
    row, corpus_dir, fused_model, tmp_path, no_extraction, capsys
):
    edit, flags, message = MALFORMED_MODEL[row]
    model = tmp_path / "model"
    shutil.copytree(fused_model, model)
    edit(model)
    argv = ["identify", "--corpus", str(corpus_dir), "--model-dir", str(model), *flags]
    assert_refused(capsys, argv, message.format(model=model), tmp_path)


def test_extract_that_fails_midway_leaves_neither_output(corpus_dir, tmp_path, capsys):
    corpus = tmp_path / "corpus"
    shutil.copytree(corpus_dir, corpus)
    wav = corpus / "spk01" / "u02.wav"
    data = wav.read_bytes()
    wav.write_bytes(data[:-10])
    size = len(data) - 44  # the samples after the 44-byte header
    argv = ["extract", "--corpus", str(corpus), "--report-out", str(tmp_path / "part.csv"),
            "--epoch-dump", str(tmp_path / "part_e.csv")]
    assert_refused(capsys, argv, f"{wav}: file ends inside its data chunk ({size - 10} of {size} bytes)", tmp_path)


def test_an_interrupted_command_keeps_an_earlier_file_and_a_device(corpus_dir, tmp_path, monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    (tmp_path / "feats.csv").write_text("speaker,utterance\n")  # as if an earlier run wrote it
    (tmp_path / "null").symlink_to(os.devnull)  # not a regular file: written in place, never removed
    before = _tree(tmp_path)
    monkeypatch.setattr(ev, "collect_features", interrupted)  # once the headers and the first epochs are written
    with pytest.raises(KeyboardInterrupt):
        main(["extract", "--corpus", str(corpus_dir), "--report-out", str(tmp_path / "feats.csv"),
              "--epoch-dump", str(tmp_path / "null")])
    assert _tree(tmp_path) == before
    assert Path(os.devnull).is_char_device()


def test_report_out_replaces_a_file_through_its_symlink_keeping_its_mode(corpus_dir, tmp_path):
    umask = os.umask(0)
    os.umask(umask)
    earlier = tmp_path / "earlier.csv"
    earlier.write_text("an earlier run\n")
    earlier.chmod(0o640)
    (tmp_path / "link.csv").symlink_to(earlier)
    argv = ["extract", "--corpus", str(corpus_dir), "--kind", "mfcc", "--report-out", str(tmp_path / "link.csv"),
            "--epoch-dump", str(tmp_path / "new.csv")]
    assert main(argv) == 0
    assert earlier.read_text().startswith("speaker,utterance,frame_index,k1,")
    assert (tmp_path / "new.csv").read_text().startswith("region_id,epoch,mapped_peak\n")
    assert (tmp_path / "link.csv").readlink() == earlier
    assert stat.S_IMODE(earlier.stat().st_mode) == 0o640
    assert stat.S_IMODE((tmp_path / "new.csv").stat().st_mode) == 0o666 & ~umask
    assert sorted(p.name for p in tmp_path.iterdir()) == ["earlier.csv", "link.csv", "new.csv"]


def test_timit_tree_runs_through_the_cli(timit_tree, tmp_path, capsys):
    root, _ = timit_tree
    assert main(["evaluate", "--corpus", str(root), "--kind", "psdct", "--codebook-size", "4"]) == 0
    config = ExperimentConfig(codebook_sizes=(4,), kinds=("psdct",))
    expected = run_experiment(config, utterances=load_corpus(root)).to_markdown()
    assert capsys.readouterr().out == expected + "\n"
    assert "- speakers: 30" in expected

    common = ["--corpus", str(root), "--model-dir", str(tmp_path / "model"), "--kind", "psdct"]
    assert main(["train", *common, "--codebook-size", "4"]) == 0
    assert main(["identify", *common]) == 0
    assert "test speakers correctly" in capsys.readouterr().err


def test_evaluate_names_a_timit_tree_with_too_few_speakers(tmp_path, capsys):
    write_timit_tree(tmp_path, 15, 14)
    assert_input_error(capsys, ["evaluate", "--corpus", str(tmp_path)], "found 15 male / 14 female speakers, need 16/14")


def test_train_refuses_a_speaker_directory_whose_name_is_not_utf8_before_writing(corpus_dir, tmp_path):
    corpus, model = tmp_path / "corpus", tmp_path / "m"
    shutil.copytree(corpus_dir, corpus)
    os.rename(os.fsencode(corpus / "spk01"), os.fsencode(corpus) + b"/spk\xff")
    # in a process of its own, whose stderr escapes the path's surrogate as Python's stderr always does
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "spkid.cli", "train", "--corpus", str(corpus), "--model-dir", str(model),
         "--codebook-size", "8"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    # the directory name is os.fsdecode's "spk\udcff", refused where the corpus is listed
    assert proc.returncode == 2
    assert proc.stderr == f"spkid train: error: {corpus}/spk\\udcff: name is not UTF-8\n"
    assert not model.exists()


@pytest.mark.parametrize("command", ["extract", "evaluate", "train", "identify", "sweep"])
def test_corpus_name_that_is_not_utf8_is_refused_before_any_file_is_read_or_written(
    command, corpus_dir, fused_model, tmp_path, monkeypatch
):
    corpus, out = tmp_path / "corpus", tmp_path / "out"
    shutil.copytree(corpus_dir, corpus)
    bad = corpus / os.fsdecode(b"spk\xff")
    (corpus / "spk01").rename(bad)
    out.mkdir()
    argv = {
        "extract": ["--report-out", str(out / "x.csv"), "--epoch-dump", str(out / "e.csv")],
        "evaluate": ["--report-out", str(out / "r")],
        "train": ["--model-dir", str(out / "m")],
        "identify": ["--model-dir", str(fused_model), "--report-out", str(out / "s.csv")],
        "sweep": ["--report-out", str(out / "sw")],
    }[command]
    monkeypatch.setattr(UtteranceFile, "read", lambda self: pytest.fail(f"{self.path} was read"))
    # the message holds the surrogate "\udcff", which capsys's strict UTF-8 stream cannot take
    monkeypatch.setattr(sys, "stderr", io.StringIO())
    assert main([command, "--corpus", str(corpus), *argv]) == 2
    assert sys.stderr.getvalue() == f"spkid {command}: error: {bad}: name is not UTF-8\n"
    assert list(out.iterdir()) == []


def test_input_error_exits_2_without_traceback(corpus_dir, tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "spkid.cli", "train", "--corpus", str(corpus_dir),
         "--model-dir", str(tmp_path / "m"), "--codebook-size", "0"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr == "spkid train: error: codebook_sizes must be a non-empty list of sizes >= 1\n"


def test_identify_fuses_a_model_whose_two_kinds_differ_in_size(corpus_dir, fused_model, tmp_path, capsys):
    model, small = tmp_path / "model", tmp_path / "small"
    shutil.copytree(fused_model, model)
    assert main(["train", "--corpus", str(corpus_dir), "--model-dir", str(small), "--kind", "mfcc",
                 "--codebook-size", "4"]) == 0
    for path in small.glob("*.mfcc.cb"):
        shutil.copyfile(path, model / path.name)
    common = ["identify", "--corpus", str(corpus_dir), "--model-dir", str(model)]
    assert main([*common, "--kind", "mfcc", "--report-out", str(tmp_path / "mfcc.csv")]) == 0
    fused = ["--kind", "fused", "--acc-dct", "0.5", "--acc-mfcc", "0.5", "--report-out", str(tmp_path / "fused.csv")]
    assert main([*common, *fused]) == 0
    assert capsys.readouterr().err.count("identified ") == 2
    with open(tmp_path / "mfcc.csv", newline="") as fh:
        mfcc = {(r["test_speaker"], r["speaker"]): r["cmd"] for r in csv.DictReader(fh)}
    with open(tmp_path / "fused.csv", newline="") as fh:
        assert {(r["test_speaker"], r["speaker"]): r["d_mfcc"] for r in csv.DictReader(fh)} == mfcc


def test_identify_reads_psdct_width_from_model(corpus_dir, tmp_path):
    model, out = tmp_path / "model", tmp_path / "scores.csv"
    common = ["--corpus", str(corpus_dir), "--model-dir", str(model), "--kind", "psdct"]
    assert main(["train", *common, "--codebook-size", "8", "--coeffs", "20"]) == 0
    assert main(["identify", *common, "--report-out", str(out)]) == 0
    with open(out, newline="") as fh:
        cli_scores = {(r["test_speaker"], r["speaker"]): r["cmd"] for r in csv.DictReader(fh)}

    config = ExperimentConfig(codebook_sizes=(8,), kinds=("psdct",), n_coeffs=20)
    report = run_experiment(config, utterances=load_corpus(corpus_dir))
    lib_scores = {(t.speaker_id, cand): f"{score:.9g}" for t in report.trials for cand, score in t.scores}
    assert len(cli_scores) == 16
    assert cli_scores == lib_scores


def test_evaluate_and_sweep_match_in_memory_synth_corpus(corpus_dir, capsys):
    """``spkid synth`` then ``evaluate``/``sweep`` print what the library gives on ``synth_corpus`` in memory."""
    corpus = synth_corpus(4, 8, seed=5)  # the arguments corpus_dir was written with
    assert main(["evaluate", "--corpus", str(corpus_dir), "--codebook-size", "8,16"]) == 0
    report = run_experiment(ExperimentConfig(codebook_sizes=(8, 16)), utterances=corpus)
    assert capsys.readouterr().out == report.to_markdown() + "\n"

    assert main(["sweep", "--corpus", str(corpus_dir), "--coeffs", "10,15", "--codebook-size", "8"]) == 0
    rows = sweep_coefficients(ExperimentConfig(coeff_counts=(10, 15), sweep_codebook_size=8), utterances=corpus)
    assert capsys.readouterr().out == sweep_to_markdown(rows, 8) + "\n"


def test_extract_epoch_dump(corpus_dir, tmp_path):
    dump = tmp_path / "epochs.csv"
    assert main([
        "extract", "--corpus", str(corpus_dir), "--report-out", str(tmp_path / "feats.csv"),
        "--epoch-dump", str(dump),
    ]) == 0
    with open(dump, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["region_id", "epoch", "mapped_peak"]
    assert b"\r" not in dump.read_bytes()  # every line, the header's and the rows', ends with a bare \n

    expected = []
    voiced = ExperimentConfig().effective_voiced_set()
    for utt in load_corpus(corpus_dir):
        for region in extract_voiced_regions(utt, voiced):
            epochs = detect_gci(region)
            peaks = map_to_peaks(region, epochs)
            for e in epochs.positions:
                nearest = peaks[np.argmin(np.abs(peaks - e))]
                expected.append([region.region_id, str(e), str(nearest)])
    assert len(expected) > 1000
    assert rows[1:] == expected


def test_extract_quotes_a_speaker_id_that_holds_a_comma(corpus_dir, tmp_path):
    corpus = tmp_path / "corpus"
    shutil.copytree(corpus_dir, corpus)
    (corpus / "spk01").rename(corpus / "spk,01")
    out = tmp_path / "feats.csv"
    assert main(["extract", "--corpus", str(corpus), "--kind", "mfcc", "--report-out", str(out)]) == 0
    with open(out, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert len(header) == 16 and all(len(row) == len(header) for row in rows)
    assert {row[0] for row in rows} == {"spk00", "spk,01", "spk02", "spk03"}


@pytest.mark.parametrize("kind", ["psdct", "mfcc"])
def test_extract_features_same_with_and_without_epoch_dump(corpus_dir, tmp_path, kind):
    plain, dumped = tmp_path / "plain.csv", tmp_path / "dumped.csv"
    assert main(["extract", "--corpus", str(corpus_dir), "--kind", kind, "--report-out", str(plain)]) == 0
    assert main([
        "extract", "--corpus", str(corpus_dir), "--kind", kind,
        "--report-out", str(dumped), "--epoch-dump", str(tmp_path / "epochs.csv"),
    ]) == 0
    assert dumped.read_bytes() == plain.read_bytes()
    # and both are the features evaluate collects
    config = ExperimentConfig(kinds=(kind,))
    rows = plain.read_text().splitlines()[1:]
    feats = [f for utt in load_corpus(corpus_dir) for f in ev.collect_features([utt], config)[kind]]
    assert len(rows) == len(feats) > 100
    assert all(r.split(",", 3)[3] == ",".join(f"{v:.9g}" for v in f) for r, f in zip(rows, feats))


TRAIN_IDS = [f"u{i:02d}" for i in range(6)]
TEST_IDS = ["u06", "u07"]
SPEAKERS = ["spk00", "spk01", "spk02", "spk03"]


@pytest.mark.parametrize("argv", [
    ["train", "--kind", "fused", "--codebook-size", "8"],
    ["identify", "--kind", "psdct"],
    ["identify", "--kind", "fused", "--acc-dct", "0.9", "--acc-mfcc", "0.8"],
])
def test_train_and_identify_read_their_split_one_speaker_at_a_time(
    argv, corpus_dir, fused_model, tmp_path, reads, one_worker
):
    model = tmp_path / "model" if argv[0] == "train" else fused_model
    assert main([argv[0], "--corpus", str(corpus_dir), "--model-dir", str(model), *argv[1:]]) == 0
    ids = TRAIN_IDS if argv[0] == "train" else TEST_IDS
    assert [(spk, utt) for spk, utt, _ in reads] == [(spk, utt) for spk in SPEAKERS for utt in ids]
    # before each read, only Utterances of the speaker being read are alive
    for spk, utt, alive in reads:
        assert set(alive) <= {spk}, (spk, utt, alive)


@pytest.mark.parametrize("argv, kinds", [
    (["train", "--kind", "psdct"], [("psdct",)]),
    (["train"], [("psdct", "mfcc")]),
    (["identify", "--kind", "mfcc"], [("mfcc",)]),
    (["identify", "--kind", "fused", "--acc-dct", "0.9", "--acc-mfcc", "0.8"], [("psdct", "mfcc")]),
    (["evaluate", "--kind", "mfcc", "--codebook-size", "8"], [("mfcc",), ("mfcc",)]),
    (["sweep", "--coeffs", "10,15", "--codebook-size", "8"], [("psdct",)]),
])
def test_config_kinds_are_the_kinds_each_command_collects(argv, kinds, corpus_dir, fused_model, tmp_path, monkeypatch):
    seen = []
    real_split = ev.split_features

    def recording_split(splits, config, role):
        feats = real_split(splits, config, role)
        seen.append(config.kinds)
        assert sorted({kind for _, kind in feats}) == sorted(config.kinds)
        return feats

    monkeypatch.setattr(ev, "split_features", recording_split)
    model = {"train": ["--model-dir", str(tmp_path / "model")], "identify": ["--model-dir", str(fused_model)]}
    assert main([argv[0], "--corpus", str(corpus_dir), *model.get(argv[0], []), *argv[1:]]) == 0
    assert seen == kinds


def test_extract_reads_one_utterance_at_a_time(corpus_dir, tmp_path, reads):
    assert main(["extract", "--corpus", str(corpus_dir), "--report-out", str(tmp_path / "feats.csv")]) == 0
    assert [(spk, utt) for spk, utt, _ in reads] == [(spk, utt) for spk in SPEAKERS for utt in TRAIN_IDS + TEST_IDS]
    # the utterance just written out, at most, is alive while the next is read
    assert max(len(alive) for _, _, alive in reads) <= 1


def test_sweep_reads_each_file_of_its_split_once(corpus_dir, reads, one_worker):
    assert main(["sweep", "--corpus", str(corpus_dir), "--coeffs", "10,15", "--codebook-size", "8"]) == 0
    # the training side a speaker at a time, then the test side
    train = [(spk, utt) for spk in SPEAKERS for utt in TRAIN_IDS]
    assert [(spk, utt) for spk, utt, _ in reads] == train + [(spk, utt) for spk in SPEAKERS for utt in TEST_IDS]


@pytest.mark.parametrize("kind", ["psdct", "mfcc"])
def test_extract_rows_come_from_collect_features(kind, corpus_dir, tmp_path, monkeypatch):
    calls = []
    real_collect = ev.collect_features

    def recording_collect(utterances, config):
        calls.append(([(u.speaker_id, u.utterance_id) for u in utterances], config.kinds))
        return real_collect(utterances, config)

    monkeypatch.setattr(ev, "collect_features", recording_collect)
    assert main(["extract", "--corpus", str(corpus_dir), "--kind", kind, "--report-out", str(tmp_path / "f.csv")]) == 0
    listed = [(spk, utt) for spk in SPEAKERS for utt in TRAIN_IDS + TEST_IDS]
    assert calls == [([utt], (kind,)) for utt in listed]


@pytest.mark.parametrize("bad, fails, passes", [("u03", "train", "identify"), ("u07", "identify", "train")])
def test_a_bad_file_fails_only_the_command_whose_split_holds_it(bad, fails, passes, corpus_dir, fused_model, tmp_path, capsys):
    corpus = tmp_path / "corpus"
    shutil.copytree(corpus_dir, corpus)
    gci = corpus / "spk01" / f"{bad}.gci"
    lines = gci.read_text().count("\n")
    gci.write_text(gci.read_text() + "12x\n")

    def argv(command):
        model = tmp_path / "model" if command == "train" else fused_model
        return [command, "--corpus", str(corpus), "--model-dir", str(model), "--kind", "psdct"]

    assert main(argv(passes)) == 0
    capsys.readouterr()
    assert_input_error(capsys, argv(fails), f"{gci}:{lines + 1}: expected one sample index, got '12x\\n'")


def test_evaluate_reads_crlf_labels_and_upper_case_label_names_as_the_plain_corpus(corpus_dir, tmp_path):
    corpus = tmp_path / "corpus"
    shutil.copytree(corpus_dir, corpus)
    for i, phn in enumerate(sorted(corpus.glob("*/*.phn"))):
        phn.write_bytes(phn.read_bytes().replace(b"\n", b"\r\n"))
        if i % 2:
            phn.rename(phn.with_suffix(".PHN"))
    assert len(list(corpus.glob("*/*.PHN"))) == 16 and b"\r\n" in (corpus / "spk00" / "u00.phn").read_bytes()
    written = []
    for root, prefix in ((corpus_dir, tmp_path / "plain"), (corpus, tmp_path / "crlf")):
        assert main(["evaluate", "--corpus", str(root), "--codebook-size", "8", "--report-out", str(prefix)]) == 0
        written.append([prefix.with_suffix(suffix).read_bytes() for suffix in (".md", ".csv")])
    assert written[0] == written[1]


def test_evaluate_and_sweep_read_only_their_split(tmp_path, capsys):
    # 9 utterances a speaker: the 6/2 split leaves u06 out, so a bad u06 file is never read
    corpus = tmp_path / "corpus"
    save_corpus(synth_corpus(3, 9, seed=5, sample_rate=8000), corpus)
    commands = {
        "evaluate": ["--codebook-size", "4,8"],
        "sweep": ["--coeffs", "10,15", "--codebook-size", "8"],
    }

    def run(command, out):
        assert main([command, "--corpus", str(corpus), *commands[command], "--report-out", str(out)]) == 0
        return {suffix: out.with_suffix(suffix).read_bytes() for suffix in (".md", ".csv")}

    clean = {command: run(command, tmp_path / f"{command}-clean") for command in commands}
    outside = corpus / "spk01" / "u06.gci"
    outside.write_text(outside.read_text() + "12x\n")
    for command in commands:
        assert run(command, tmp_path / f"{command}-bad-u06") == clean[command]
    capsys.readouterr()

    # a bad file inside the split still fails the command
    inside = corpus / "spk01" / "u03.gci"
    lines = inside.read_text().count("\n")
    inside.write_text(inside.read_text() + "12x\n")
    for command in commands:
        assert_input_error(capsys, [command, "--corpus", str(corpus), *commands[command]],
                           f"{inside}:{lines + 1}: expected one sample index, got '12x\\n'")
