"""The process-parallel map that the report, the sweep and the CLI share out their units with.

Each test sets the CPU count the map sees, so the parallel path runs on a
one-CPU machine too, and checks that no worker process outlives the call.
"""

import dataclasses
import io
import multiprocessing
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import spkid.evaluate as evaluate
from conftest import set_workers
from spkid.cli import main
from spkid.corpus import PhoneSegment, list_corpus, load_corpus, split_speakers
from spkid.evaluate import (
    ExperimentConfig,
    _parallel_map,
    run_experiment,
    split_features,
    sweep_coefficients,
    sweep_to_markdown,
    train_codebooks,
    write_sweep_csv,
)
from spkid.gci import PitchCycle

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    argv = ["--speakers", "4", "--utterances", "8", "--seed", "5", "--sample-rate", "8000"]
    assert main(["synth", "--corpus", str(root), *argv]) == 0
    return root


@pytest.mark.parametrize("n", [1, 2, 3])
def test_map_deals_out_strides_and_keeps_the_unit_order(monkeypatch, n):
    set_workers(monkeypatch, n)
    results = _parallel_map(lambda x: (x * x, os.getpid()), list(range(8)))
    assert [square for square, _ in results] == [x * x for x in range(8)]
    pids = [pid for _, pid in results]
    # process w computes units w, w + n, ...; this process is w = 0
    assert [pids[w::n] == [pids[w]] * len(pids[w::n]) for w in range(n)] == [True] * n
    assert pids[0] == os.getpid() and len(set(pids)) == n
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("failing, first", [({3, 6}, 3), ({4, 5}, 4), ({1}, 1), ({0, 7}, 0)],
                         ids=["worker-first", "caller-first", "worker-only", "caller-only"])
def test_map_raises_the_failure_earliest_in_unit_order(monkeypatch, failing, first):
    set_workers(monkeypatch, 2)

    def fn(x):
        if x in failing:
            raise ValueError(f"unit {x}")
        return x

    with pytest.raises(ValueError, match=f"^unit {first}$"):
        _parallel_map(fn, list(range(8)))
    assert multiprocessing.active_children() == []


def test_map_names_the_exit_code_of_a_worker_that_dies_without_a_result(monkeypatch):
    set_workers(monkeypatch, 2)

    def fn(x):
        if x == 1:
            os._exit(3)
        return x

    with pytest.raises(RuntimeError, match="^a worker process exited with code 3 without a result$"):
        _parallel_map(fn, list(range(4)))
    assert multiprocessing.active_children() == []


def test_map_reports_a_worker_result_that_does_not_pickle(monkeypatch):
    set_workers(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="^a worker's result could not be sent back: "):
        _parallel_map(lambda x: (lambda: x), list(range(4)))
    assert multiprocessing.active_children() == []


def test_map_terminates_and_joins_its_workers_on_keyboard_interrupt(monkeypatch):
    set_workers(monkeypatch, 2)

    def fn(x):
        if x == 0:
            raise KeyboardInterrupt
        time.sleep(60)  # unit 1, in the worker

    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        _parallel_map(fn, [0, 1])
    assert time.perf_counter() - start < 30
    assert multiprocessing.active_children() == []


def test_map_inside_a_map_is_the_plain_loop(monkeypatch):
    set_workers(monkeypatch, 2)
    inner = _parallel_map(lambda x: (os.getpid(), _parallel_map(lambda y: os.getpid(), [0, 1, 2])), [0, 1])
    # in the caller's stride and in the worker alike, the inner map stays in that process
    assert [set(pids) for _, pids in inner] == [{pid} for pid, _ in inner]
    assert inner[0][0] == os.getpid() != inner[1][0]
    assert _parallel_map(lambda x: os.getpid(), [0, 1])[1] != os.getpid()  # and the map forks again after


def test_map_while_another_thread_runs_is_the_plain_loop(monkeypatch):
    set_workers(monkeypatch, 2)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(30,))
    waiter.start()
    try:
        pids = _parallel_map(lambda x: os.getpid(), [0, 1, 2])
    finally:
        release.set()
        waiter.join(30)
    assert not waiter.is_alive() and pids == [os.getpid()] * 3


def _pids_of_a_map(units):
    return os.getpid(), _parallel_map(lambda x: os.getpid(), units)


def test_map_in_a_daemonic_process_is_the_plain_loop(monkeypatch):
    # a multiprocessing.Pool worker is daemonic, and a daemonic process may not start one
    set_workers(monkeypatch, 2)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        pid, pids = pool.apply(_pids_of_a_map, ([0, 1, 2],))
    assert pid != os.getpid() and pids == [pid] * 3


def test_report_sweep_and_codebooks_are_the_same_bytes_with_one_and_two_workers(corpus_dir, monkeypatch):
    files = list_corpus(corpus_dir)
    config = ExperimentConfig(codebook_sizes=(4, 8), coeff_counts=(10, 15, 20), sweep_codebook_size=8)
    outputs = []
    for n in (1, 2):
        set_workers(monkeypatch, n)
        report = run_experiment(config, utterances=files)
        report_csv, sweep_csv = io.StringIO(), io.StringIO()
        report.write_csv(report_csv)
        write_sweep_csv(sweep_csv, sweep_coefficients(config, utterances=files))
        train = split_features(split_speakers(files, config.n_train, config.n_test), config, "training")
        books = [
            (cb.speaker_id, cb.kind, cb.seed, cb.train_vector_count, cb.centroids.tobytes())
            for by_size in train_codebooks(train, config).values() for codebooks in by_size.values() for cb in codebooks
        ]
        outputs.append((report.to_markdown(), report_csv.getvalue(), sweep_csv.getvalue(), books))
        assert multiprocessing.active_children() == []
    assert outputs[0] == outputs[1]


SWEEP = ExperimentConfig(coeff_counts=(10, 15, 20, 25), sweep_codebook_size=8)


def _sweep_error(config, utterances) -> str:
    with pytest.raises(ValueError) as err:
        sweep_coefficients(config, utterances=utterances)
    assert multiprocessing.active_children() == []
    return str(err.value)


def _unvoiced(utterances, speaker, role):
    """The utterances, with each of ``speaker``'s ``role`` ("training" or "test") utterances labelled silence."""
    (split,) = [s for s in split_speakers(utterances, SWEEP.n_train, SWEEP.n_test) if s.speaker_id == speaker]
    chosen = {id(u) for u in (split.train_utterances if role == "training" else split.test_utterances)}
    return [
        dataclasses.replace(u, segments=[PhoneSegment(0, u.samples.size, "h#")]) if id(u) in chosen else u
        for u in utterances
    ]


def test_sweep_is_the_same_bytes_with_one_to_four_workers(corpus_dir, monkeypatch):
    files = list_corpus(corpus_dir)  # as the CLI gives it
    outputs = []
    for n in (1, 2, 3, 4):
        set_workers(monkeypatch, n)
        rows = sweep_coefficients(SWEEP, utterances=files)
        sweep_csv = io.StringIO()
        write_sweep_csv(sweep_csv, rows)
        outputs.append((sweep_csv.getvalue(), sweep_to_markdown(rows, SWEEP.sweep_codebook_size)))
        assert multiprocessing.active_children() == []
    assert len(outputs[0][0].splitlines()) == 1 + 4
    assert outputs == [outputs[0]] * 4


# spk01 is unit 1 of the per-speaker map, so a worker's at 2-4 workers; its cycles are 54 samples long
@pytest.mark.parametrize("change, message", [
    (lambda utts: (dataclasses.replace(SWEEP, coeff_counts=(10, 60)), utts),
     "speaker spk01: no psdct training vectors"),
    (lambda utts: (SWEEP, _unvoiced(utts, "spk01", "test")), "speaker spk01: no psdct test vectors"),
    # every speaker's training side is checked before any speaker's test side, as in the plain loop
    (lambda utts: (SWEEP, _unvoiced(_unvoiced(utts, "spk01", "test"), "spk02", "training")),
     "speaker spk02: no psdct training vectors"),
], ids=["cycles-too-short", "no-test-vectors", "training-checked-first"])
def test_a_sweep_error_in_a_workers_stride_is_the_plain_loops(corpus_dir, monkeypatch, change, message):
    config, utterances = change(load_corpus(corpus_dir))
    for n in (1, 2, 3, 4):
        set_workers(monkeypatch, n)
        assert _sweep_error(config, utterances) == message


def test_an_oversized_sweep_codebook_fails_with_the_smallest_ks_error(corpus_dir, monkeypatch):
    files = list_corpus(corpus_dir)
    oversized = dataclasses.replace(SWEEP, sweep_codebook_size=5000)
    errors = []
    for n in (1, 2, 3, 4):
        set_workers(monkeypatch, n)
        errors.append(_sweep_error(oversized, files))
    assert errors[0].startswith("codebook sizes exceed the distinct training vectors: spk00 psdct k=5000 (")
    assert errors == [errors[0]] * 4

    # with every K's codebooks failing on an error of their own, the smallest K's is raised
    def failing(train, config):
        raise ValueError(f"K={next(iter(train.values())).matrix.shape[1]}")

    monkeypatch.setattr(evaluate, "train_codebooks", failing)
    for n in (1, 2, 3, 4):
        set_workers(monkeypatch, n)
        assert _sweep_error(SWEEP, files) == "K=10"


def _logged(log, name, fn):
    """``fn``, appending ``(name, pid)`` to ``log`` on each call, in whichever process makes it."""

    def call(*args, **kwargs):
        log.append((name, os.getpid()))
        return fn(*args, **kwargs)

    return call


@pytest.mark.parametrize("n", [2, 3, 4])
def test_the_sweep_caller_makes_mec_and_codebook_calls_itself(corpus_dir, monkeypatch, call_log, n):
    # a benchmark that traces the calling process alone needs both kinds of call there
    set_workers(monkeypatch, n)
    for name in ("mec", "train_codebook"):
        monkeypatch.setattr(evaluate, name, _logged(call_log, name, getattr(evaluate, name)))
    sweep_coefficients(SWEEP, utterances=list_corpus(corpus_dir))
    assert multiprocessing.active_children() == []
    calls = call_log.read()
    pids = {name: {pid for called, pid in calls if called == name} for name in ("mec", "train_codebook")}
    # two mec calls per speaker and K, and one codebook per speaker and K: 4 speakers, 4 K
    assert [called for called, _ in calls].count("mec") == 2 * 4 * 4
    assert [called for called, _ in calls].count("train_codebook") == 4 * 4
    assert os.getpid() in pids["mec"] and os.getpid() in pids["train_codebook"]
    # the training map, then the K map, each in n processes
    assert len(pids["mec"]) == len(pids["train_codebook"]) == n


def _logged_by_key(log, name, fn, key_of):
    """``fn``, logging ``((name, key), pid)`` through ``_logged`` on each call, with key = ``key_of(*args)``."""
    return lambda *args, **kwargs: _logged(log, (name, key_of(*args)), fn)(*args, **kwargs)


def _speakers(cycles) -> tuple[str, ...]:
    """The speakers whose audio ``cycles`` were cut from, sorted (a region id starts ``<speaker>/``)."""
    return tuple(sorted({c.region_id.split("/")[0] for c in cycles}))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_each_speakers_mec_and_each_ks_codebooks_are_made_in_one_process(corpus_dir, monkeypatch, call_log, n):
    set_workers(monkeypatch, n)
    key_of = {
        "mec": lambda cycles, k: (_speakers(cycles), k),
        "train_codebook": lambda features, size: features.matrix.shape[1],
    }
    for name, key in key_of.items():
        monkeypatch.setattr(evaluate, name, _logged_by_key(call_log, name, getattr(evaluate, name), key))
    sweep_coefficients(SWEEP, utterances=list_corpus(corpus_dir))
    assert multiprocessing.active_children() == []
    calls = call_log.read()
    speakers = [f"spk{i:02d}" for i in range(4)]
    mec_calls = [(key, pid) for (name, key), pid in calls if name == "mec"]
    # 2 x |K| x speakers calls, each on one speaker's cycles, and each speaker's in one process
    wanted = [((spk,), k) for spk in speakers for k in SWEEP.coeff_counts]
    assert sorted(key for key, _ in mec_calls) == sorted(wanted * 2)
    for spk in speakers:
        assert len({pid for ((spks, _), pid) in mec_calls if spks == (spk,)}) == 1
    for k in SWEEP.coeff_counts:
        assert len([key for (name, key), _ in calls if name == "train_codebook" and key == k]) == 4
        assert len({pid for (name, key), pid in calls if name == "train_codebook" and key == k}) == 1
    assert all(len({pid for (called, _), pid in calls if called == name}) == n for name in key_of)


def _cycles_in(value) -> int:
    """How many ``PitchCycle``s ``value`` holds, looking through tuples, lists and dicts."""
    if isinstance(value, PitchCycle):
        return 1
    if isinstance(value, dict):
        value = [*value.keys(), *value.values()]
    return sum(map(_cycles_in, value)) if isinstance(value, (tuple, list)) else 0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_no_sweep_cycle_crosses_processes(corpus_dir, monkeypatch, n):
    set_workers(monkeypatch, n)
    caller, seen, returned = os.getpid(), [], []
    plain_mec, plain_map = evaluate.mec, evaluate._parallel_map

    def recording_mec(cycles, k, include_dc=True):
        if os.getpid() == caller:
            seen.append(_speakers(cycles))
        return plain_mec(cycles, k, include_dc=include_dc)

    def recording_map(fn, units):
        results = plain_map(fn, units)
        returned.append(results)
        return results

    monkeypatch.setattr(evaluate, "mec", recording_mec)
    monkeypatch.setattr(evaluate, "_parallel_map", recording_map)
    files = list_corpus(corpus_dir)
    sweep_coefficients(SWEEP, utterances=files)
    assert multiprocessing.active_children() == []
    # this process takes mec over its own stride's speakers alone, each speaker's cycles on their own
    speakers = [s.speaker_id for s in split_speakers(files, SWEEP.n_train, SWEEP.n_test)]
    assert seen == [(spk,) for spk in speakers[::n] for _ in range(2 * len(SWEEP.coeff_counts))]
    # and no unit of any of the sweep's maps returns a cycle
    assert len(returned) >= 2 and _cycles_in(returned) == 0


def test_cli_train_and_identify_write_the_same_bytes_with_one_and_two_workers(
    corpus_dir, tmp_path, monkeypatch, capsys
):
    outputs = []
    for n in (1, 2):
        set_workers(monkeypatch, n)
        model = tmp_path / f"model{n}"
        common = ["--corpus", str(corpus_dir), "--model-dir", str(model)]
        assert main(["train", *common, "--codebook-size", "8"]) == 0
        for kind, extra in (("psdct", []), ("mfcc", []), ("fused", ["--acc-dct", "0.75", "--acc-mfcc", "1"])):
            assert main(["identify", *common, "--kind", kind, "--report-out", str(model / f"{kind}.csv"), *extra]) == 0
        written = {p.name: p.read_bytes() for p in sorted(model.iterdir())}
        outputs.append((written, capsys.readouterr().err.replace(str(model), "MODEL")))
        assert multiprocessing.active_children() == []
    assert len(outputs[0][0]) == 4 * 2 + 1 + 3
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("speaker", ["spk00", "spk01"], ids=["caller-stride", "worker-stride"])
def test_a_cut_wav_gives_the_one_line_error_of_the_plain_loop(corpus_dir, tmp_path, monkeypatch, capsys, speaker):
    corpus = tmp_path / "corpus"
    shutil.copytree(corpus_dir, corpus)
    wav = corpus / speaker / "u00.wav"
    wav.write_bytes(wav.read_bytes()[:20])
    errors = []
    for n in (1, 2):
        set_workers(monkeypatch, n)
        assert main(["evaluate", "--corpus", str(corpus), "--codebook-size", "4"]) == 2
        errors.append(capsys.readouterr().err)
        assert multiprocessing.active_children() == []
    assert errors[0] == errors[1] == f"spkid evaluate: error: {wav}: file ends inside its header\n"


def test_importing_spkid_does_not_import_multiprocessing():
    # the set-up time of a fresh process: the map imports it only when it forks
    code = "import sys, spkid, spkid.cli; sys.exit('multiprocessing' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
