"""The three workloads: corpus make-up, the timed operation, its accounting and checks.

- ``report``: ``run_experiment`` at the paper's scale (30 speakers, 6 train /
  2 test utterances, 16 kHz, both feature kinds, codebook sizes 16-128).
  k-means and feature extraction dominate; no disk I/O.
- ``enroll_identify``: the CLI as a user drives it on twice as many speakers:
  ``train --kind fused`` at one size, then ``identify`` for psdct, mfcc and
  fused. CMD scoring grows with the square of the speaker count; corpus and
  codebook files are written and read.
- ``sweep_48k``: ``sweep_coefficients`` for K = 10..40 at size 32 on a 48 kHz
  corpus of a few speakers, 6 train / 3 test utterances. Epoch detection,
  PS-DCT and ``mec`` on long cycles dominate; MFCC does not run at all.

Functions of spkid are always looked up through their module at call time,
so the wrappers that the traced run installs are the ones called.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from corpusgen import CorpusSpec

SIZES = (16, 32, 64, 128)
SWEEP_KS = (10, 15, 20, 25, 30, 35, 40)
CODEBOOK_SIZE = 32
N_TRAIN, N_TEST = 6, 2
# sweep_48k has only 10 speakers, so its accuracy rests on few trials; a third
# test utterance per speaker keeps that accuracy from swinging with the seed
SWEEP_N_TEST = 3


@dataclass
class Workload:
    name: str
    spec: CorpusSpec
    run: Callable  # run(ctx) -> output of one round
    ops_per_round: Callable  # ops_per_round(speakers) -> attempted operations
    failed_ops: Callable  # failed_ops(output, speakers) -> failed operations in a round
    final_check: Callable  # final_check(ctx, output) -> id_accuracy
    expected: tuple[str, ...]  # trace names that must fire


@dataclass
class Context:
    spkid: object  # the imported package
    corpus: Path
    utterances: list
    work: Path  # scratch directory for this run's files
    program_hash: str  # digest of the spkid sources
    round: int = 0


def _speakers(ctx):
    return sorted({u.speaker_id for u in ctx.utterances})


# ---------------------------------------------------------------- report


def run_report(ctx):
    sp = ctx.spkid
    config = sp.evaluate.ExperimentConfig(codebook_sizes=SIZES, n_train=N_TRAIN, n_test=N_TEST)
    return sp.evaluate.run_experiment(config, utterances=ctx.utterances)


def check_report(ctx, report):
    speakers = _speakers(ctx)
    by_cell: dict[tuple[str, int], list] = {}
    for t in report.trials:
        by_cell.setdefault((t.kind, t.codebook_size), []).append(t)
    recount = {}
    for (kind, size), trials in by_cell.items():
        if sorted(t.speaker_id for t in trials) != speakers:
            raise checks.CheckError(f"{kind}/{size}: trials do not cover each speaker once")
        for t in trials:
            if sorted(c for c, _ in t.scores) != speakers:
                raise checks.CheckError(f"{kind}/{size}/{t.speaker_id}: ranking does not list every speaker")
            checks.ascending([s for _, s in t.scores], f"{kind}/{size}/{t.speaker_id} ranking")
            if t.predicted != t.scores[0][0] or t.correct != (t.predicted == t.speaker_id):
                raise checks.CheckError(f"{kind}/{size}/{t.speaker_id}: prediction is not the rank-1 speaker")
        correct = sum(t.scores[0][0] == t.speaker_id for t in trials)
        recount[(kind, size)] = correct / len(trials)
        checks.accuracy(f"{kind}/{size}", report.accuracies[kind][size], correct, len(trials))
    for size in SIZES:
        a_dct, a_mfcc = recount[("psdct", size)], recount[("mfcc", size)]
        dct = {t.speaker_id: dict(t.scores) for t in by_cell[("psdct", size)]}
        mfcc = {t.speaker_id: dict(t.scores) for t in by_cell[("mfcc", size)]}
        for t in by_cell[("fused", size)]:
            rows = [(dct[t.speaker_id][c], mfcc[t.speaker_id][c], s) for c, s in t.scores]
            checks.fused(rows, a_dct, a_mfcc, alpha=t.alpha)
    cells = [v for (kind, _), v in recount.items() if kind in ("psdct", "mfcc")]
    if len(cells) != 2 * len(SIZES):
        raise checks.CheckError(f"report scored {len(cells)} psdct/mfcc cells, expected {2 * len(SIZES)}")
    return float(np.mean(cells))


def report_failed(output, speakers):
    return 0 if output is not None else _report_ops(speakers)


def _report_ops(speakers):
    n = len(speakers)
    # one codebook per speaker, kind and size; one trial per speaker and cell (psdct, mfcc, fused)
    return 2 * len(SIZES) * n + 3 * len(SIZES) * n


# ---------------------------------------------------------------- enroll_identify


@dataclass
class EnrollOutput:
    model: dict[str, bytes]  # codebook file name -> bytes
    csv_rows: dict[str, list[dict]]  # kind -> identify CSV rows
    cli_accuracy: dict[str, tuple[int, int]]  # kind -> (correct, total) printed by the CLI
    accuracy: dict[str, float]  # kind -> recount from the rank-1 rows
    failed_commands: list[str]


def _cli(ctx, argv, log: Path):
    """Run one spkid command in-process, its console output captured to a file."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = ctx.spkid.cli.main(argv)
    log.write_text(out.getvalue(), encoding="utf-8")
    return code, out.getvalue()


def _rank1_accuracy(rows):
    by_test: dict[str, list[dict]] = {}
    for r in rows:
        by_test.setdefault(r["test_speaker"], []).append(r)
    correct = sum(min(group, key=lambda r: int(r["rank"]))["speaker"] == spk for spk, group in by_test.items())
    return correct / len(by_test)


def run_enroll(ctx):
    work = ctx.work / f"round{ctx.round}"
    model = work / "model"
    work.mkdir(parents=True, exist_ok=True)
    common = ["--corpus", str(ctx.corpus), "--model-dir", str(model)]
    failed = []
    code, _ = _cli(ctx, ["train", *common, "--kind", "fused", "--codebook-size", str(CODEBOOK_SIZE)], work / "train.log")
    if code != 0:
        failed.append("train")
    rows, accuracy, printed = {}, {}, {}
    for kind in ("psdct", "mfcc", "fused"):
        argv = ["identify", *common, "--kind", kind, "--report-out", str(work / f"{kind}.csv")]
        if kind == "fused":
            if "psdct" not in accuracy or "mfcc" not in accuracy:
                failed.append(kind)
                continue
            argv += ["--acc-dct", repr(accuracy["psdct"]), "--acc-mfcc", repr(accuracy["mfcc"])]
        try:
            code, text = _cli(ctx, argv, work / f"identify-{kind}.log")
        except (ValueError, OSError) as exc:
            code, text = 1, str(exc)
        if code != 0:
            failed.append(kind)
            continue
        with open(work / f"{kind}.csv", newline="", encoding="utf-8") as fh:
            rows[kind] = [r for r in csv.DictReader(fh) if r["test_speaker"] != "test_speaker"]
        accuracy[kind] = _rank1_accuracy(rows[kind])
        summary = [line for line in text.splitlines() if line.startswith("identified ")]
        if summary:
            correct, total = summary[-1].split()[1].split("/")
            printed[kind] = (int(correct), int(total))
    files = {p.name: p.read_bytes() for p in sorted(model.glob("*"))} if model.is_dir() else {}
    return EnrollOutput(files, rows, printed, accuracy, failed)


def _enroll_ops(speakers):
    # 4 CLI commands, 2 codebooks per speaker, one trial per speaker in each identify
    return 4 + 2 * len(speakers) + 3 * len(speakers)


def enroll_failed(output, speakers):
    if output is None:
        return _enroll_ops(speakers)
    n = len(speakers)
    # a failed train loses its codebooks, a failed identify its trials
    cost = {"train": 1 + 2 * n, "psdct": 1 + n, "mfcc": 1 + n, "fused": 1 + n}
    return sum(cost[c] for c in output.failed_commands)


def _features(ctx, speaker, which):
    """PS-DCT and MFCC matrices of one speaker's train or test split, via spkid."""
    ev = ctx.spkid.evaluate
    config = ev.ExperimentConfig()
    split = next(s for s in ctx.spkid.split_speakers(ctx.utterances, N_TRAIN, N_TEST) if s.speaker_id == speaker)
    utts = split.train_utterances if which == "train" else split.test_utterances
    voiced = config.effective_voiced_set()
    psdct = ev.psdct_features(ev.collect_cycles(utts, voiced), config.n_coeffs)
    mfcc = ev.collect_mfcc_features(utts, voiced, config.mfcc)
    return {"psdct": np.stack([v.values for v in psdct]), "mfcc": np.stack([v.values for v in mfcc])}


def check_enroll(ctx, out):
    speakers = _speakers(ctx)
    # byte-identical to the codebooks of every earlier round of this program on this seed
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in out.model.items()}
    record = ctx.corpus / f"codebooks-{ctx.program_hash}.json"
    if record.exists():
        earlier = json.loads(record.read_text(encoding="utf-8"))
        checks.identical_files(earlier, digests, "codebook files of an earlier run with this seed")
    else:
        tmp = record.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(digests, indent=1, sort_keys=True), encoding="utf-8")
        os.replace(tmp, record)
    expected_files = {f"{s}.{k}.cb" for s in speakers for k in ("psdct", "mfcc")} | {"manifest.json"}
    if set(out.model) != expected_files:
        raise checks.CheckError(f"model directory holds {len(out.model)} files, expected {len(expected_files)}")
    books = {}
    for name, data in out.model.items():
        if name.endswith(".cb"):
            spk, kind, centroids = checks.parse_codebook(data)
            if not np.all(np.isfinite(centroids)) or centroids.shape[0] != CODEBOOK_SIZE:
                raise checks.CheckError(f"{name}: {centroids.shape[0]} centroids, finite={np.all(np.isfinite(centroids))}")
            books[(spk, kind)] = centroids

    scores = {}
    for kind in ("psdct", "mfcc", "fused"):
        score_col = "d_com" if kind == "fused" else "cmd"
        by_test: dict[str, list[dict]] = {}
        for r in out.csv_rows[kind]:
            by_test.setdefault(r["test_speaker"], []).append(r)
        if sorted(by_test) != speakers:
            raise checks.CheckError(f"identify {kind}: CSV does not score every test speaker once")
        correct = 0
        for spk, group in by_test.items():
            group.sort(key=lambda r: int(r["rank"]))
            if [int(r["rank"]) for r in group] != list(range(1, len(speakers) + 1)):
                raise checks.CheckError(f"identify {kind}/{spk}: ranks are not 1..{len(speakers)}")
            if sorted(r["speaker"] for r in group) != speakers:
                raise checks.CheckError(f"identify {kind}/{spk}: ranking does not list every speaker")
            checks.ascending([float(r[score_col]) for r in group], f"identify {kind}/{spk} ranking")
            correct += group[0]["speaker"] == spk
            scores[kind, spk] = {r["speaker"]: r for r in group}
        checks.accuracy(f"identify {kind}", out.accuracy[kind], correct, len(speakers))
        if kind in out.cli_accuracy:
            printed_correct, printed_total = out.cli_accuracy[kind]
            checks.accuracy(f"identify {kind} (printed)", printed_correct / printed_total, correct, len(speakers))

    a_dct, a_mfcc = out.accuracy["psdct"], out.accuracy["mfcc"]
    for spk in speakers:
        fused_rows = scores["fused", spk]
        rows = []
        for cand, r in fused_rows.items():
            d_dct, d_mfcc = float(r["d_dct"]), float(r["d_mfcc"])
            for kind, value in (("psdct", d_dct), ("mfcc", d_mfcc)):
                if not np.isclose(value, float(scores[kind, spk][cand]["cmd"]), rtol=1e-8, atol=0.0):
                    raise checks.CheckError(f"fused {spk}/{cand}: {kind} score differs from the {kind} identify run")
            rows.append((d_dct, d_mfcc, float(r["d_com"])))
            alpha = float(r["alpha"])
        checks.fused(rows, a_dct, a_mfcc, alpha=alpha)

    # brute-force CMD and the Lloyd fixed point on two speakers' own features
    for spk in (speakers[0], speakers[len(speakers) // 2]):
        test = _features(ctx, spk, "test")
        train = _features(ctx, spk, "train")
        for kind in ("psdct", "mfcc"):
            checks.codebook(books[spk, kind], train[kind])
            for cand in speakers:
                checks.cmd_value(test[kind], books[cand, kind], float(scores[kind, spk][cand]["cmd"]))
    return float(np.mean([a_dct, a_mfcc]))


# ---------------------------------------------------------------- sweep_48k


def run_sweep(ctx):
    sp = ctx.spkid
    config = sp.evaluate.ExperimentConfig(
        coeff_counts=SWEEP_KS, sweep_codebook_size=CODEBOOK_SIZE, n_train=N_TRAIN, n_test=SWEEP_N_TEST
    )
    return sp.evaluate.sweep_coefficients(config, utterances=ctx.utterances)


def _sweep_ops(speakers):
    # one row, one codebook per speaker and one trial per speaker at each K
    return len(SWEEP_KS) * (1 + 2 * len(speakers))


def sweep_failed(output, speakers):
    return 0 if output is not None else _sweep_ops(speakers)


def check_sweep(ctx, rows):
    if [r.n_coeffs for r in rows] != list(SWEEP_KS):
        raise checks.CheckError(f"sweep rows for K={[r.n_coeffs for r in rows]}, expected {list(SWEEP_KS)}")
    checks.mec_rows([(r.n_coeffs, r.mec_total, r.mec_ac) for r in rows])
    speakers = _speakers(ctx)
    for r in rows:
        if abs(r.accuracy * len(speakers) - round(r.accuracy * len(speakers))) > 1e-9:
            raise checks.CheckError(f"K={r.n_coeffs}: accuracy {r.accuracy} is not a count over {len(speakers)} speakers")
    return float(np.mean([r.accuracy for r in rows]))


# ---------------------------------------------------------------- registry

COMMON = ("corpus.load", "corpus.regions", "gci.epochs", "gci.peaks", "gci.segment",
          "dsp.resonate", "dsp.moving_average", "dsp.autocorr", "psdct.feature", "psdct.dct",
          "vq.train", "vq.kmeans", "classify.identify", "classify.cmd")
MFCC = ("mfcc.feature", "mfcc.frame", "dsp.fft", "classify.fuse")

WORKLOADS = {
    "report": Workload(
        "report", CorpusSpec(30, N_TRAIN + N_TEST, 16000), run_report,
        _report_ops, report_failed, check_report, COMMON + MFCC + ("evaluate",),
    ),
    "enroll_identify": Workload(
        "enroll_identify", CorpusSpec(60, N_TRAIN + N_TEST, 16000), run_enroll,
        _enroll_ops, enroll_failed, check_enroll, COMMON + MFCC + ("vq.io", "cli.train", "cli.identify"),
    ),
    "sweep_48k": Workload(
        "sweep_48k", CorpusSpec(10, N_TRAIN + SWEEP_N_TEST, 48000), run_sweep,
        _sweep_ops, sweep_failed, check_sweep, COMMON + ("psdct.mec", "evaluate"),
    ),
}
