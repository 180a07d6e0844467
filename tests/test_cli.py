import csv
import os
import shutil
import subprocess
import sys
import weakref
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
from spkid.vq import load_model_dir

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
    """Fail the test if any voiced region is read through spkid.evaluate or spkid.cli."""

    def tripwire(*args, **kwargs):
        raise AssertionError("features were extracted before the arguments were checked")

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


def test_synth_rejects_unusable_sample_rate(capsys, tmp_path):
    out = tmp_path / "bad-sr"
    for rate in ("0", "-8000", "1000"):
        argv = ["synth", "--corpus", str(out), "--speakers", "2", "--utterances", "2", "--sample-rate", rate]
        assert_input_error(capsys, argv, f"sample_rate {rate} too low")
    assert not out.exists()


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


def test_identify_fused_requires_accuracies(corpus_dir, fused_model, capsys):
    assert_input_error(
        capsys, ["identify", "--corpus", str(corpus_dir), "--model-dir", str(fused_model), "--kind", "fused"],
        "--kind fused requires --acc-dct and --acc-mfcc",
    )


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


def test_identify_rejects_truncated_codebook_file(corpus_dir, fused_model, tmp_path, no_extraction, capsys):
    model = tmp_path / "model"
    shutil.copytree(fused_model, model)
    cut = model / "spk00.psdct.cb"
    cut.write_bytes(cut.read_bytes()[:20])
    assert_input_error(capsys, ["identify", "--corpus", str(corpus_dir), "--model-dir", str(model)],
                       f"{cut}: codebook header is truncated")


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


@pytest.mark.parametrize("command, flag, values, field", [
    ("evaluate", "--codebook-size", "8,8", "codebook_sizes"), ("sweep", "--coeffs", "10,10", "coeff_counts"),
])
def test_repeated_values_rejected_before_extracting(command, flag, values, field, corpus_dir, no_extraction, capsys):
    assert_input_error(capsys, [command, "--corpus", str(corpus_dir), flag, values],
                       f"{field} must list each value once, got {values}")


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


def test_identify_rejects_manifest_entry_without_file(corpus_dir, tmp_path, no_extraction, capsys):
    model = tmp_path / "model"
    model.mkdir()
    (model / "manifest.json").write_text('{"version": 2, "codebooks": [{"kind": "psdct"}]}')
    assert_input_error(capsys, ["identify", "--corpus", str(corpus_dir), "--model-dir", str(model)],
                       f"{model / 'manifest.json'}: codebook entry 0 is not a file name\n")


def test_identify_rejects_a_version_1_manifest(corpus_dir, tmp_path, no_extraction, capsys):
    model = tmp_path / "model"
    model.mkdir()
    (model / "manifest.json").write_text(
        '{"version": 1, "codebooks": [{"file": "spk00.psdct.cb", "speaker_id": "spk00", "kind": "psdct"}]}'
    )
    assert_input_error(capsys, ["identify", "--corpus", str(corpus_dir), "--model-dir", str(model)],
                       f"{model / 'manifest.json'}: manifest version 1, not 2; train the model again\n")


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


def test_identify_checks_model_dir_before_extracting(corpus_dir, tmp_path, no_extraction, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert_input_error(capsys, ["identify", "--corpus", str(corpus_dir), "--model-dir", str(empty)],
                       "no manifest.json; not a model directory")


def test_identify_rejects_bad_accuracy_before_extracting(corpus_dir, fused_model, no_extraction, capsys):
    assert_input_error(capsys, [
        "identify", "--corpus", str(corpus_dir), "--model-dir", str(fused_model),
        "--kind", "fused", "--acc-dct", "1.5", "--acc-mfcc", "1.0",
    ], "accuracies must lie in [0, 1]")


def test_train_rejects_codebook_size_zero_before_extracting(corpus_dir, tmp_path, no_extraction, capsys):
    assert_input_error(
        capsys, ["train", "--corpus", str(corpus_dir), "--model-dir", str(tmp_path / "m"), "--codebook-size", "0"],
        "codebook_sizes must be a non-empty list of sizes >= 1",
    )
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("size", ["0", "-3"])
def test_sweep_rejects_codebook_size_below_one_before_extracting(size, corpus_dir, no_extraction, capsys):
    assert_input_error(capsys, ["sweep", "--corpus", str(corpus_dir), "--codebook-size", size],
                       "sweep_codebook_size must be >= 1")


@pytest.mark.parametrize("command", ["extract", "train", "evaluate"])
def test_zero_coeffs_rejected_before_extracting(command, corpus_dir, tmp_path, no_extraction, capsys):
    argv = [command, "--corpus", str(corpus_dir), "--coeffs", "0"]
    if command == "train":
        argv += ["--model-dir", str(tmp_path / "m")]
    if command == "extract":
        argv += ["--report-out", str(tmp_path / "out.csv"), "--epoch-dump", str(tmp_path / "epochs.csv")]
    assert_input_error(capsys, argv, "n_coeffs must be >= 1")


def test_missing_voiced_set_file_is_an_input_error(corpus_dir, tmp_path, no_extraction, capsys):
    missing = tmp_path / "no-such-voiced.txt"
    assert_input_error(capsys, ["extract", "--corpus", str(corpus_dir), "--voiced-set", str(missing)],
                       f"No such file or directory: '{missing}'")


def test_input_error_exits_2_without_traceback(corpus_dir, tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "spkid.cli", "train", "--corpus", str(corpus_dir),
         "--model-dir", str(tmp_path / "m"), "--codebook-size", "0"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr == "spkid train: error: codebook_sizes must be a non-empty list of sizes >= 1\n"


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


def test_extract_bad_corpus_root_writes_no_file(tmp_path, capsys):
    missing, feats, dump = tmp_path / "no-such-corpus", tmp_path / "feats.csv", tmp_path / "epochs.csv"
    assert_input_error(capsys, ["extract", "--corpus", str(missing), "--report-out", str(feats),
                                "--epoch-dump", str(dump)], f"corpus root {missing} is not a directory")
    assert not feats.exists() and not dump.exists()


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
