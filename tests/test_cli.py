import csv

import pytest

import spkid.cli as cli
import spkid.evaluate as ev
from spkid.cli import main
from spkid.corpus import load_corpus
from spkid.evaluate import ExperimentConfig, run_experiment
from spkid.vq import load_model_dir


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    assert main(["synth", "--corpus", str(root), "--speakers", "4", "--utterances", "8", "--seed", "5"]) == 0
    return root


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
    assert out.read_text().count("\n") >= 4 * 5

    out2 = tmp_path / "fused.csv"
    assert main([
        "identify", "--corpus", str(corpus_dir), "--model-dir", str(model),
        "--kind", "fused", "--acc-dct", "1.0", "--acc-mfcc", "1.0",
        "--report-out", str(out2),
    ]) == 0
    assert "identified 4/4" in capsys.readouterr().err
    assert "d_com" in out2.read_text()


def test_identify_fused_requires_accuracies(corpus_dir, tmp_path):
    model = tmp_path / "m"
    main(["train", "--corpus", str(corpus_dir), "--model-dir", str(model), "--codebook-size", "8"])
    rc = main(["identify", "--corpus", str(corpus_dir), "--model-dir", str(model), "--kind", "fused"])
    assert rc == 2


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


def test_voiced_set_flag(corpus_dir, tmp_path):
    vset = tmp_path / "voiced.txt"
    vset.write_text("v\n")
    out = tmp_path / "f.csv"
    assert main([
        "extract", "--corpus", str(corpus_dir), "--kind", "psdct",
        "--voiced-set", str(vset), "--report-out", str(out),
    ]) == 0
    assert len(out.read_text().strip().splitlines()) > 500


def test_train_rejects_oversized_codebooks_before_training(corpus_dir, tmp_path, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("a codebook was trained before the size check")

    monkeypatch.setattr(cli, "train_codebook", no_training)
    with pytest.raises(ValueError, match="codebook sizes exceed the distinct training vectors") as err:
        main(["train", "--corpus", str(corpus_dir), "--model-dir", str(tmp_path / "m"), "--codebook-size", "5000"])
    for spk in ("spk00", "spk01", "spk02", "spk03"):
        for kind in ("psdct", "mfcc"):
            assert f"{spk} {kind} k=5000 (" in str(err.value)


def test_train_names_speaker_without_voiced_vectors(corpus_dir, tmp_path):
    vset = tmp_path / "voiced.txt"
    vset.write_text("zz\n")
    with pytest.raises(ValueError, match="speaker spk00: no psdct training vectors"):
        main(["train", "--corpus", str(corpus_dir), "--model-dir", str(tmp_path / "m"), "--voiced-set", str(vset)])


def test_cli_scores_match_run_experiment(corpus_dir, tmp_path):
    model, out = tmp_path / "model", tmp_path / "scores.csv"
    common = ["--corpus", str(corpus_dir), "--model-dir", str(model), "--kind", "psdct"]
    assert main(["train", *common, "--codebook-size", "8", "--seed", "42"]) == 0
    assert main(["identify", *common, "--report-out", str(out)]) == 0
    with open(out, newline="") as fh:
        cli_scores = {(r["test_speaker"], r["speaker"]): r["cmd"] for r in csv.DictReader(fh) if r["rank"] != "rank"}

    config = ExperimentConfig(codebook_sizes=(8,), kinds=("psdct",), seed=42)
    report = run_experiment(config, utterances=load_corpus(corpus_dir))
    lib_scores = {(t.speaker_id, cand): f"{score:.9g}" for t in report.trials for cand, score in t.scores}
    assert len(cli_scores) == 16
    assert cli_scores == lib_scores


def test_identify_checks_model_dir_before_extracting(corpus_dir, tmp_path, monkeypatch):
    def no_extraction(*args, **kwargs):
        raise AssertionError("test features were extracted before the model directory was read")

    monkeypatch.setattr(ev, "extract_voiced_regions", no_extraction)
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(ValueError, match="no manifest.json; not a model directory"):
        main(["identify", "--corpus", str(corpus_dir), "--model-dir", str(empty)])
