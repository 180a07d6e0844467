"""Self-test of the correctness checks: each must pass a right output and reject a wrong one.

    python3 perfbench/selftest.py

Needs numpy and scipy only; spkid is not imported. run.py runs it before
every workload, so a check that no longer rejects anything stops the benchmark.
"""

from __future__ import annotations

import struct
import sys
from types import SimpleNamespace

import numpy as np
import scipy.fft

import checks
import workloads


def _lloyd(data, k, iters=200):
    centroids = data[:k].copy()
    for _ in range(iters):
        labels = np.argmin(((data[:, None] - centroids[None]) ** 2).sum(-1), axis=1)
        new = np.stack([data[labels == j].mean(axis=0) for j in range(k)])
        if np.array_equal(new, centroids):
            break
        centroids = new
    return centroids


def _codebook_bytes(speaker, kind, centroids):
    k, dim = centroids.shape
    return (b"VQCB" + struct.pack("<IIIqQ", 1, k, dim, 42, 100)
            + struct.pack("<I", len(kind)) + kind.encode() + struct.pack("<I", len(speaker)) + speaker.encode()
            + centroids.astype("<f8").tobytes())


def _report(rng):
    """A small run_experiment-shaped report whose numbers are consistent."""
    speakers = ["a", "b", "c", "d"]
    trials, accuracies, scores = [], {"psdct": {}, "mfcc": {}, "fused": {}}, {}
    for size in workloads.SIZES:
        for kind in ("psdct", "mfcc"):
            for spk in speakers:
                s = {c: float(rng.uniform(1, 2)) + (0.0 if c == spk else 0.5) for c in speakers}
                scores[kind, size, spk] = s
                ranked = tuple(sorted(s.items(), key=lambda kv: kv[1]))
                trials.append(SimpleNamespace(speaker_id=spk, kind=kind, codebook_size=size, predicted=ranked[0][0],
                                              correct=ranked[0][0] == spk, scores=ranked, alpha=None))
            accuracies[kind][size] = np.mean([t.correct for t in trials if (t.kind, t.codebook_size) == (kind, size)])
        alpha = accuracies["psdct"][size] / (accuracies["psdct"][size] + accuracies["mfcc"][size])
        for spk in speakers:
            s = {c: alpha * scores["psdct", size, spk][c] + (1 - alpha) * scores["mfcc", size, spk][c] for c in speakers}
            ranked = tuple(sorted(s.items(), key=lambda kv: kv[1]))
            trials.append(SimpleNamespace(speaker_id=spk, kind="fused", codebook_size=size, predicted=ranked[0][0],
                                          correct=ranked[0][0] == spk, scores=ranked, alpha=alpha))
        accuracies["fused"][size] = np.mean([t.correct for t in trials if (t.kind, t.codebook_size) == ("fused", size)])
    ctx = SimpleNamespace(utterances=[SimpleNamespace(speaker_id=s) for s in speakers])
    return ctx, SimpleNamespace(trials=trials, accuracies=accuracies)


def _cases():
    rng = np.random.default_rng(0)
    cycle = rng.normal(size=200)
    unit = cycle / np.linalg.norm(cycle)
    row = scipy.fft.dct(unit, type=2, norm="ortho")[1:16]
    yield "psdct row", lambda: checks.psdct_row(cycle, row, 15), [
        ("with the mean coefficient", lambda: checks.psdct_row(cycle, scipy.fft.dct(unit, norm="ortho")[:15], 15)),
        ("of the unnormalized cycle", lambda: checks.psdct_row(cycle, scipy.fft.dct(cycle, norm="ortho")[1:16], 15)),
    ]

    f16, f48 = rng.normal(size=320), rng.normal(size=960)
    yield "mfcc row", lambda: (checks.mfcc_row(f16, 16000, checks.mfcc_reference(f16, 16000)),
                               checks.mfcc_row(f48, 48000, checks.mfcc_reference(f48, 48000))), [
        ("frame cut to 512 samples", lambda: checks.mfcc_row(f48, 48000, checks.mfcc_reference(f48[:512], 48000))),
        ("c1..c13 for c0..c12", lambda: checks.mfcc_row(f16, 16000, checks.mfcc_reference(f16, 16000, n_coeffs=14)[1:])),
    ]

    cycles = [rng.normal(size=int(m)) for m in rng.integers(60, 300, 20)]
    value = checks.mec_reference(cycles, 15, True)
    yield "mec value", lambda: checks.mec_value(cycles, 15, True, value), [
        ("1% off", lambda: checks.mec_value(cycles, 15, True, value * 1.01)),
        ("ac for total", lambda: checks.mec_value(cycles, 15, True, checks.mec_reference(cycles, 15, False))),
    ]
    rows = [(k, checks.mec_reference(cycles, k, True), checks.mec_reference(cycles, k, False)) for k in (10, 20, 40)]
    yield "mec rows", lambda: checks.mec_rows(rows), [
        ("decreasing in K", lambda: checks.mec_rows([rows[0], (20, rows[0][1] - 0.01, rows[0][2])])),
        ("above 1", lambda: checks.mec_rows(rows[:2] + [(40, 1.01, 1.02)])),
        ("ac below total", lambda: checks.mec_rows([(k, ac, total) for k, total, ac in rows])),
        ("K out of order", lambda: checks.mec_rows(rows[::-1])),
    ]

    truth = np.arange(100, 20000, 160)
    yield "epochs", lambda: checks.epochs([(truth + rng.integers(-2, 3, truth.size), truth)], 16000), [
        ("shifted by 10 samples", lambda: checks.epochs([(truth + 10, truth)], 16000)),
    ]
    # 6-10 samples off at 48 kHz: inside the scaled 12-sample tolerance, outside an unscaled 4
    off48 = truth * 3 + rng.integers(6, 11, truth.size)
    yield "epochs at 48 kHz", lambda: checks.epochs([(off48, truth * 3)], 48000), [
        ("20 samples off", lambda: checks.epochs([(truth * 3 + 20, truth * 3)], 48000)),
    ]

    data = np.concatenate([rng.normal(loc, 0.3, size=(40, 3)) for loc in (-2.0, 0.0, 2.0, 4.0)])
    centroids = _lloyd(data, 4)
    moved = centroids.copy()
    moved[1] += 0.1
    broken = centroids.copy()
    broken[2, 0] = np.nan
    yield "codebook", lambda: checks.codebook(centroids, data), [
        ("centroid moved off its cell mean", lambda: checks.codebook(moved, data)),
        ("non-finite centroid", lambda: checks.codebook(broken, data)),
    ]

    test = rng.normal(size=(30, 3))
    brute = sum(min(np.linalg.norm(v - c) for c in centroids) for v in test)
    squared = float(((test[:, None] - centroids[None]) ** 2).sum(-1).min(1).sum())
    yield "cmd", lambda: checks.cmd_value(test, centroids, brute), [
        ("1% off", lambda: checks.cmd_value(test, centroids, brute * 1.01)),
        ("squared distances", lambda: checks.cmd_value(test, centroids, squared)),
    ]

    ranking = np.sort(rng.uniform(size=10))
    yield "ranking", lambda: checks.ascending(ranking), [("shuffled", lambda: checks.ascending(rng.permutation(ranking)))]

    d = rng.uniform(1, 2, size=(10, 2))
    fused_rows = np.column_stack([d, 0.6 * d[:, 0] + 0.4 * d[:, 1]])
    yield "fused", lambda: checks.fused(fused_rows, 0.9, 0.6, alpha=0.6), [
        ("alpha 0.5 instead of from the accuracies", lambda: checks.fused(np.column_stack([d, d.mean(1)]), 0.9, 0.6)),
        ("reported alpha wrong", lambda: checks.fused(fused_rows, 0.9, 0.6, alpha=0.5)),
    ]

    yield "accuracy", lambda: checks.accuracy("x", 0.75, 3, 4), [("recount differs", lambda: checks.accuracy("x", 1.0, 3, 4))]
    yield "accuracy floor", lambda: checks.accuracy_floor(0.9), [
        ("below the floor", lambda: checks.accuracy_floor(0.3)),
        ("above 1", lambda: checks.accuracy_floor(1.2)),
    ]

    blob = _codebook_bytes("s001", "psdct", centroids)
    flipped = blob[:-1] + bytes([blob[-1] ^ 1])
    yield "identical files", lambda: checks.identical_files({"a.cb": blob}, {"a.cb": bytes(blob)}), [
        ("one bit differs", lambda: checks.identical_files({"a.cb": blob}, {"a.cb": flipped})),
        ("file missing", lambda: checks.identical_files({"a.cb": blob}, {})),
    ]
    yield "codebook file", lambda: np.testing.assert_array_equal(checks.parse_codebook(blob)[2], centroids), [
        ("truncated", lambda: checks.parse_codebook(blob[:-8])),
        ("bad magic", lambda: checks.parse_codebook(b"XXXX" + blob[4:])),
    ]

    ctx, _ = _report(rng)

    def tampered(edit):
        def run():
            _, bad = _report(np.random.default_rng(1))
            edit(bad)
            workloads.check_report(ctx, bad)
        return run

    def shuffle(r):
        t = r.trials[0]
        t.scores = t.scores[::-1]

    def misreport(r):
        r.accuracies["mfcc"][32] = 1.0 - r.accuracies["mfcc"][32] + 0.25

    def realpha(r):
        for t in r.trials:
            if t.kind == "fused" and t.codebook_size == 16:
                t.scores = tuple((c, s * 1.1 if i == 0 else s) for i, (c, s) in enumerate(t.scores))

    yield "report", lambda: workloads.check_report(ctx, _report(np.random.default_rng(1))[1]), [
        ("shuffled ranking", tampered(shuffle)),
        ("accuracy not the recount", tampered(misreport)),
        ("fused score off its alpha", tampered(realpha)),
    ]


def main(quiet: bool = False) -> int:
    failures = 0
    for name, good, bad_cases in _cases():
        try:
            good()
        except checks.CheckError as exc:
            failures += 1
            print(f"FAIL {name}: rejected a right output: {exc}")
        for what, bad in bad_cases:
            try:
                bad()
            except checks.CheckError as exc:
                if not quiet:
                    print(f"ok   {name}: rejects {what} ({exc})")
            else:
                failures += 1
                print(f"FAIL {name}: accepted {what}")
    if not quiet or failures:
        print(f"self-test: {failures} failure(s)")
    return failures


if __name__ == "__main__":
    sys.exit(1 if main() else 0)
