"""Reference outputs of spkid on one small synthetic corpus: ``tests/golden.json``.

    PYTHONPATH=src python3 tools/golden.py [--out tests/golden.json]

Runs the report's steps once, ``split_features``, ``train_codebooks`` and
``score_report`` (codebook sizes 4, 8 and 16), and ``sweep_coefficients``
(K = 10..30, size 16) on ``synth_corpus(4, 8, seed=5, sample_rate=8000)``,
and writes, as one JSON object:

- ``trials``: each (kind, size, test speaker) ranking, as [candidate, score]
  pairs in rank order, with the scores as exact floats (up to 17
  significant digits);
- ``accuracies`` and ``alphas`` per kind and size;
- ``sweep``: each K's sweep row, [mec_total, mec_ac, accuracy];
- ``features``: the shape and the sum of squares of each (role, kind, speaker)
  feature matrix;
- ``digests``: one SHA-256 per codebook (its float64 centroid bytes), per
  feature matrix and per speaker's epoch lists (the ``detect_gci`` positions
  of every region of every utterance, as int64, each list preceded by its
  length);
- ``files``: one SHA-256 per file that the CLI writes from the corpus saved
  with ``save_corpus``: ``spkid evaluate`` (the same sizes), ``sweep`` (the
  same K and size), ``train --kind fused`` (the largest size), ``identify``
  for each kind, and ``extract`` for each kind with the psdct run's
  ``--epoch-dump``; plus one over the ``load_corpus`` round trip (ids, rates,
  samples, labels and epochs of every utterance);
- ``blas_core``: the OpenBLAS kernel family that numpy's BLAS ran on (its
  ``scipy_openblas_get_corename64_``; ``unknown`` where numpy's library has
  no such symbol or cannot be loaded). Matrix products round differently on
  other kernels, so a digest mismatch under another core may be the
  platform, not a regression.

``tests/test_golden.py`` checks a fresh run against the file: rankings,
predictions, accuracies and shapes exactly, scores and float statistics within
a stated tolerance, and the digests byte for byte in a test of their own. A
change that moves an output regenerates the file with this command, and the
file's diff is the re-baseline. To compare two checkouts, run this command in
each with ``PYTHONPATH=<checkout>/src`` and ``--out`` pointing at two files,
then diff them: the diff names each output that moved.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from spkid import cli
from spkid.corpus import extract_voiced_regions, load_corpus, save_corpus, split_speakers
from spkid.evaluate import (
    ExperimentConfig,
    score_report,
    split_features,
    sweep_coefficients,
    train_codebooks,
)
from spkid.gci import detect_gci
from spkid.synth import synth_corpus

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "golden.json"
CORPUS = {"n_speakers": 4, "n_utterances": 8, "seed": 5, "sample_rate": 8000}
SIZES = (4, 8, 16)
COEFF_COUNTS = (10, 15, 20, 25, 30)
SWEEP_SIZE = 16


def corpus():
    return synth_corpus(CORPUS["n_speakers"], CORPUS["n_utterances"], seed=CORPUS["seed"],
                        sample_rate=CORPUS["sample_rate"])


def config():
    return ExperimentConfig(codebook_sizes=SIZES, coeff_counts=COEFF_COUNTS, sweep_codebook_size=SWEEP_SIZE)


def blas_core() -> str:
    """The OpenBLAS core numpy's linear algebra runs on, or ``unknown``."""
    try:
        library = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return "unknown"
    corename = getattr(library, "scipy_openblas_get_corename64_", None)
    if corename is None:
        return "unknown"
    corename.restype = ctypes.c_char_p
    return corename().decode()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_outputs(report) -> dict:
    """Rankings, accuracies and fusion weights of one report."""
    return {
        "trials": {
            f"{t.kind}/{t.codebook_size}/{t.speaker_id}": [[c, s] for c, s in t.scores]
            for t in report.trials
        },
        "accuracies": {f"{kind}/{size}": acc for kind, by_size in report.accuracies.items()
                       for size, acc in by_size.items()},
        "alphas": {str(size): alpha for size, alpha in report.alphas.items()},
    }


def sweep_outputs(utterances) -> dict:
    rows = sweep_coefficients(config(), utterances)
    return {"sweep": {str(r.n_coeffs): [r.mec_total, r.mec_ac, r.accuracy] for r in rows}}


def stage_outputs(utterances) -> dict:
    """From one run of the report's steps: its outputs, and the statistics and byte digests of its stages."""
    cfg = config()
    splits = split_speakers(utterances, cfg.n_train, cfg.n_test)
    features, digests = {}, {}
    matrices = {role: split_features(splits, cfg, role) for role in ("training", "test")}
    for role, by_key in matrices.items():
        for (spk, kind), m in by_key.items():
            features[f"{role}/{kind}/{spk}"] = {"shape": list(m.matrix.shape), "sq_sum": float(np.sum(m.matrix**2))}
            digests[f"features/{role}/{kind}/{spk}"] = _sha(m.matrix.astype("<f8").tobytes())
    books = train_codebooks(matrices["training"], cfg)
    for kind, by_size in books.items():
        for size, codebooks in by_size.items():
            for cb in codebooks:
                digests[f"codebooks/{kind}/{size}/{cb.speaker_id}"] = _sha(cb.centroids.astype("<f8").tobytes())
    epochs: dict[str, list[bytes]] = {}
    for utt in utterances:
        for region in extract_voiced_regions(utt, cfg.effective_voiced_set()):
            positions = detect_gci(region).positions.astype("<i8")
            length = np.array([positions.size], dtype="<i8")
            epochs.setdefault(utt.speaker_id, []).append(length.tobytes() + positions.tobytes())
    for spk, lists in epochs.items():
        digests[f"epochs/{spk}"] = _sha(b"".join(lists))
    return {**report_outputs(score_report(matrices["test"], books, cfg)), "features": features, "digests": digests}


def file_outputs(utterances) -> dict:
    """The digests of the ``load_corpus`` round trip and of every file the CLI writes, run in-process."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        corpus_dir, model = work / "corpus", work / "model"
        save_corpus(utterances, corpus_dir)
        round_trip = hashlib.sha256()
        for utt in load_corpus(corpus_dir):
            round_trip.update(f"{utt.speaker_id}/{utt.utterance_id} {utt.sample_rate}\n".encode())
            round_trip.update(utt.samples.astype("<f8").tobytes())
            for seg in utt.segments or ():
                round_trip.update(f"{seg.begin} {seg.end} {seg.phone}\n".encode())
            if utt.impulses is not None:
                round_trip.update(utt.impulses.astype("<i8").tobytes())
        files = {"load_corpus": round_trip.hexdigest()}
        runs = [
            ["evaluate", "--codebook-size", ",".join(map(str, SIZES)), "--report-out", str(work / "evaluate")],
            ["sweep", "--coeffs", ",".join(map(str, COEFF_COUNTS)), "--codebook-size", str(SWEEP_SIZE),
             "--report-out", str(work / "sweep")],
            ["train", "--model-dir", str(model), "--kind", "fused", "--codebook-size", str(SIZES[-1])],
            *(["identify", "--model-dir", str(model), "--kind", kind, *extra,
               "--report-out", str(work / f"identify-{kind}.csv")]
              for kind, extra in (("psdct", []), ("mfcc", []), ("fused", ["--acc-dct", "0.9", "--acc-mfcc", "0.8"]))),
            ["extract", "--kind", "psdct", "--report-out", str(work / "extract-psdct.csv"),
             "--epoch-dump", str(work / "epochs.csv")],
            ["extract", "--kind", "mfcc", "--report-out", str(work / "extract-mfcc.csv")],
        ]
        for command, *args in runs:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
                code = cli.main([command, "--corpus", str(corpus_dir), *args])
            if code != 0:
                raise RuntimeError(f"spkid {command} exited {code}: {err.getvalue().strip()}")
        for path in sorted(work.rglob("*")):
            if path.is_file() and corpus_dir not in path.parents:
                files[path.relative_to(work).as_posix()] = _sha(path.read_bytes())
    return {"files": files}


def build() -> dict:
    utterances = corpus()
    return {"corpus": CORPUS, "blas_core": blas_core(), **stage_outputs(utterances), **sweep_outputs(utterances),
            **file_outputs(utterances)}


def dumps(outputs: dict) -> str:
    """JSON with one line per entry of each top-level object, so that a diff names each moved output."""
    lines = []
    for key, value in sorted(outputs.items()):
        if isinstance(value, dict):
            entries = [f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(value.items())]
            lines.append(f" {json.dumps(key)}: {{\n" + ",\n".join(entries) + "\n }")
        else:
            lines.append(f" {json.dumps(key)}: {json.dumps(value)}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=GOLDEN, help="where to write (default: tests/golden.json)")
    args = parser.parse_args(argv)
    args.out.write_text(dumps(build()), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
