"""spkid's outputs on one small corpus against the committed reference ``tests/golden.json``.

``tools/golden.py`` writes the reference. Rankings, predictions, accuracies
and shapes must match exactly. Float statistics must match within
``REL_TOL``, and scores within ``REL_TOL`` plus an absolute floor of
``ABS_TOL_PER_NORM`` per unit of test-vector norm: a test vector lying on a
centroid leaves a rounding residue of up to a few ``eps * |x|^2`` under the
square root, so its distance is ``sqrt(eps) * |x|`` rather than 0, and which
residue depends on how the distance kernel orders its sums. The sum of the
norms is bounded by ``sqrt(n * sum |x|^2)`` from the test matrix's stored
shape and sum of squares. The byte digests of codebooks, feature matrices,
epoch lists and the files the CLI writes have a test of their own, which names
the BLAS core that wrote the file and the one running: on another OpenBLAS
kernel the matrix products round differently, and that test alone fails. The
mutation tests diff a mutated run against an unmutated run in the same
process, so they hold on every kernel.
"""

import dataclasses
import importlib.util
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import spkid.cli
import spkid.evaluate
from spkid.corpus import split_speakers
from spkid.mfcc import N_MFCC

ROOT = Path(__file__).resolve().parents[1]
REL_TOL = 1e-9
ABS_TOL_PER_NORM = 1e-7


def load_golden_tool():
    spec = importlib.util.spec_from_file_location("golden", ROOT / "tools" / "golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = load_golden_tool()
EXPECTED = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))


def close(got: float, want: float, abs_tol: float = 0.0) -> bool:
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=abs_tol)


def score_floor(expected: dict, trial: str) -> float:
    """The absolute score tolerance of one trial: ABS_TOL_PER_NORM times a bound on its test vectors' norm sum."""
    kind, _, spk = trial.split("/")
    kinds = ("psdct", "mfcc") if kind == "fused" else (kind,)  # a fused score is a convex combination
    stats = [expected["features"][f"test/{k}/{spk}"] for k in kinds]
    return ABS_TOL_PER_NORM * sum(math.sqrt(f["shape"][0] * f["sq_sum"]) for f in stats)


def tolerance_mismatches(expected: dict, actual: dict) -> list[str]:
    """Every output of ``actual`` that differs from ``expected`` beyond the stated tolerances."""
    out = []
    if set(actual["trials"]) != set(expected["trials"]):
        out.append(f"trial keys: {sorted(set(actual['trials']) ^ set(expected['trials']))}")
    for key in sorted(set(actual["trials"]) & set(expected["trials"])):
        want, got = expected["trials"][key], actual["trials"][key]
        if [c for c, _ in got] != [c for c, _ in want]:
            out.append(f"ranking {key}: {[c for c, _ in got]} != {[c for c, _ in want]}")
            continue
        floor = score_floor(expected, key)
        out += [f"score {key} {c}: {g!r} != {w!r}" for (c, w), (_, g) in zip(want, got) if not close(g, w, floor)]
    for name in ("accuracies", "alphas", "corpus"):
        if actual[name] != expected[name]:
            out.append(f"{name}: {actual[name]} != {expected[name]}")
    if set(actual["sweep"]) != set(expected["sweep"]):
        out.append(f"sweep K: {sorted(actual['sweep'])} != {sorted(expected['sweep'])}")
    for k in sorted(set(actual["sweep"]) & set(expected["sweep"])):
        (mec_total, mec_ac, acc), (want_total, want_ac, want_acc) = actual["sweep"][k], expected["sweep"][k]
        if acc != want_acc or not (close(mec_total, want_total) and close(mec_ac, want_ac)):
            out.append(f"sweep K={k}: {actual['sweep'][k]} != {expected['sweep'][k]}")
    if set(actual["features"]) != set(expected["features"]):
        out.append(f"feature keys: {sorted(set(actual['features']) ^ set(expected['features']))}")
    for key in sorted(set(actual["features"]) & set(expected["features"])):
        got, want = actual["features"][key], expected["features"][key]
        if got["shape"] != want["shape"] or not close(got["sq_sum"], want["sq_sum"]):
            out.append(f"features {key}: {got} != {want}")
    return out


def byte_mismatches(expected: dict, actual: dict) -> list[str]:
    """The name of every stage output, then of every CLI file, whose digest differs from ``expected``."""
    out = []
    for section in ("digests", "files"):
        want, got = expected[section], actual[section]
        out += sorted(key for key in set(want) | set(got) if want.get(key) != got.get(key))
    return out


@pytest.fixture(scope="module")
def utterances():
    return golden.corpus()


@pytest.fixture(scope="module")
def actual():
    return golden.build()


def test_golden_rankings_predictions_and_scores(actual):
    assert tolerance_mismatches(EXPECTED, actual) == []


def test_golden_codebook_feature_and_epoch_bytes(actual):
    cores = f"tests/golden.json written on BLAS core {EXPECTED['blas_core']}, running on {actual['blas_core']}"
    assert byte_mismatches(EXPECTED, actual) == [], cores


def test_golden_bytes_fail_on_a_one_ulp_centroid_change(monkeypatch, utterances, actual):
    train_codebook = spkid.evaluate.train_codebook

    def nudged(features, k, *args, **kwargs):
        cb = train_codebook(features, k, *args, **kwargs)
        if (cb.kind, k, cb.speaker_id) == ("psdct", 8, "spk01"):
            centroids = cb.centroids.copy()
            centroids[3, 7] = np.nextafter(centroids[3, 7], np.inf)
            cb = dataclasses.replace(cb, centroids=centroids)
        return cb

    monkeypatch.setattr(spkid.evaluate, "train_codebook", nudged)
    stages = {**actual, **golden.stage_outputs(utterances)}
    assert byte_mismatches(actual, stages) == ["codebooks/psdct/8/spk01"]


def test_golden_bytes_fail_on_a_one_sample_shift_in_the_epoch_dump(monkeypatch, utterances, actual):
    dump_epochs_csv = spkid.cli.dump_epochs_csv
    calls = []

    def shifted(fh, region, epochs, peaks):
        calls.append(region.region_id)
        if len(calls) == 1:  # the first region's mapped peaks, in the dump only
            peaks = np.asarray(peaks) + 1
        dump_epochs_csv(fh, region, epochs, peaks)

    monkeypatch.setattr(spkid.cli, "dump_epochs_csv", shifted)
    files = {**actual, **golden.file_outputs(utterances)}
    assert byte_mismatches(actual, files) == ["epochs.csv"]


def test_golden_rankings_fail_on_a_swapped_ranking_pair(monkeypatch, utterances, one_worker):
    identify = spkid.evaluate.identify
    calls = []

    def swapped(test, codebooks):
        ranked, predicted = identify(test, codebooks)
        calls.append(codebooks[0].kind)
        if len(calls) == 3:  # psdct, size 4, the third test speaker
            ranked[1], ranked[2] = ranked[2], ranked[1]
        return ranked, predicted

    monkeypatch.setattr(spkid.evaluate, "identify", swapped)
    report = {**EXPECTED, **golden.stage_outputs(utterances)}
    mismatches = tolerance_mismatches(EXPECTED, report)
    assert len(mismatches) == 1 and mismatches[0].startswith("ranking psdct/4/spk02: ")


def test_golden_tool_trains_each_codebook_once_in_process(monkeypatch, call_log):
    """One run of the report's steps and one sweep; only the CLI's own ``evaluate`` (stubbed here) trains again."""
    train_codebook = spkid.evaluate.train_codebook
    calls = call_log  # counted in every process

    def counting(features, k, *args, **kwargs):
        calls.append((features.kind, k, features.matrix.shape[1]))
        return train_codebook(features, k, *args, **kwargs)

    monkeypatch.setattr(spkid.evaluate, "train_codebook", counting)
    monkeypatch.setattr(golden, "file_outputs", lambda utterances: {})
    golden.build()
    cfg, n_speakers = golden.config(), golden.CORPUS["n_speakers"]
    dims = {"psdct": cfg.n_coeffs, "mfcc": N_MFCC}
    report = Counter({(kind, size, dim): n_speakers for kind, dim in dims.items() for size in golden.SIZES})
    sweep = Counter({("psdct", golden.SWEEP_SIZE, k): n_speakers for k in golden.COEFF_COUNTS})
    assert Counter(calls.read()) == report + sweep
    assert len(calls.read()) == 2 * 3 * 4 + 5 * 4


def test_golden_scores_fail_beyond_the_tolerance():
    trial = "mfcc/16/spk03"
    candidate, score = EXPECTED["trials"][trial][1]
    tolerance = REL_TOL * score + score_floor(EXPECTED, trial)
    assert 0.0 < tolerance < 1e-5 * score
    for step, mismatches in ((2.0, 1), (0.5, 0)):
        moved = json.loads(json.dumps(EXPECTED))
        moved["trials"][trial][1][1] = score + step * tolerance
        assert tolerance_mismatches(EXPECTED, moved) == [
            f"score {trial} {candidate}: {score + step * tolerance!r} != {score!r}"
        ][:mismatches]


def test_benchmark_reference_rows_are_split_features_bytes(utterances):
    """The per-row paths the benchmark's enroll check takes its reference rows from give the report's matrices."""
    cfg = golden.config()
    voiced = cfg.effective_voiced_set()
    splits = split_speakers(utterances, cfg.n_train, cfg.n_test)
    for role in ("training", "test"):
        matrices = spkid.evaluate.split_features(splits, cfg, role)
        for split in splits:
            utts = split.train_utterances if role == "training" else split.test_utterances
            reference = {
                "psdct": spkid.evaluate.psdct_features(spkid.evaluate.collect_cycles(utts, voiced), cfg.n_coeffs),
                "mfcc": spkid.evaluate.collect_mfcc_features(utts, voiced, cfg.mfcc),
            }
            for kind, rows in reference.items():
                stacked, want = np.stack([v.values for v in rows]), matrices[split.speaker_id, kind].matrix
                assert (stacked.dtype, stacked.shape) == (want.dtype, want.shape), (role, split.speaker_id, kind)
                assert stacked.tobytes() == want.tobytes(), (role, split.speaker_id, kind)
