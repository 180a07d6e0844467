"""Correctness checks that do not use the program's own code.

Each check compares an output of spkid with a separate computation (scipy's
DCT, a numpy MFCC rebuilt from its formulas, brute-force distances) or with
a property the method must have, and raises ``CheckError`` when it does not
hold. None of them compares against a stored copy of an earlier output.
"""

from __future__ import annotations

import struct

import numpy as np
import scipy.fft

ID_ACCURACY_FLOOR = 0.5  # chance is 1/speakers: 1/30, 1/60 and 1/10 here
EPOCH_TOL_16K = 4  # samples at 16 kHz, scaled with the sample rate
EPOCH_MIN_SHARE = 0.4  # share of detected epochs that must lie within tolerance
LLOYD_TOL = 1e-3  # centroid to cell-mean gap, relative to the RMS vector norm


class CheckError(AssertionError):
    """An output failed a correctness check."""


def _close(name, got, want, rtol=1e-9, atol=1e-9):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        raise CheckError(f"{name}: shape {got.shape} != reference {want.shape}")
    if not np.allclose(got, want, rtol=rtol, atol=atol):
        worst = float(np.max(np.abs(got - want)))
        raise CheckError(f"{name}: differs from the reference by up to {worst:.3g}")


def psdct_row(cycle, row, n_coeffs):
    """Coefficients 1..K of scipy's orthonormal DCT-II of the unit-energy cycle."""
    x = np.asarray(cycle, dtype=np.float64)
    ref = scipy.fft.dct(x / np.sqrt(np.dot(x, x)), type=2, norm="ortho")[1 : n_coeffs + 1]
    _close("psdct row", row, ref)


def mfcc_reference(frame, sample_rate, n_fft=512, n_filters=26, n_coeffs=13, log_floor=1e-10):
    """Hanning window, |rfft|^2 over the whole frame, HTK mel bank, log, ortho DCT (c0..)."""
    x = np.asarray(frame, dtype=np.float64)
    m = x.size
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(m) / (m - 1))
    nfft = max(n_fft, 1 << (m - 1).bit_length())  # zero-pad, never crop
    power = np.abs(np.fft.rfft(x * window, nfft)) ** 2
    bin_hz = np.arange(nfft // 2 + 1) * sample_rate / nfft
    top_mel = 2595.0 * np.log10(1.0 + sample_rate / 2.0 / 700.0)
    edges = 700.0 * (10.0 ** (np.linspace(0.0, top_mel, n_filters + 2) / 2595.0) - 1.0)
    left, center, right = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    bank = np.clip(np.minimum((bin_hz - left) / (center - left), (right - bin_hz) / (right - center)), 0.0, None)
    log_energy = np.log(np.maximum(bank @ power, log_floor))
    return scipy.fft.dct(log_energy, type=2, norm="ortho")[:n_coeffs]


def mfcc_row(frame, sample_rate, row):
    _close("mfcc row", row, mfcc_reference(frame, sample_rate), rtol=1e-8, atol=1e-8)


def mec_reference(cycles, n_coeffs, include_dc):
    ratios = []
    for cycle in cycles:
        c2 = scipy.fft.dct(np.asarray(cycle, dtype=np.float64), type=2, norm="ortho") ** 2
        denom = c2.sum() if include_dc else c2[1:].sum()
        ratios.append(c2[1 : n_coeffs + 1].sum() / denom)
    return float(np.mean(ratios))


def mec_value(cycles, n_coeffs, include_dc, value):
    _close(f"mec(K={n_coeffs}, include_dc={include_dc})", value, mec_reference(cycles, n_coeffs, include_dc))


def mec_rows(rows):
    """rows: (K, mec_total, mec_ac) in the order reported."""
    ks = [k for k, _, _ in rows]
    if ks != sorted(ks) or len(set(ks)) != len(ks):
        raise CheckError(f"sweep rows not in ascending K: {ks}")
    prev = -np.inf
    for k, total, ac in rows:
        if not (0.0 < total <= 1.0 + 1e-12 and 0.0 < ac <= 1.0 + 1e-12):
            raise CheckError(f"K={k}: mec outside (0, 1]: total {total}, ac {ac}")
        if ac < total - 1e-12:
            raise CheckError(f"K={k}: mec_ac {ac} < mec_total {total}")
        if total < prev - 1e-12:
            raise CheckError(f"K={k}: mec_total {total} decreased from {prev}")
        prev = total


def epoch_share(detected, truth, sample_rate):
    """Share of detected epochs within the scaled tolerance of a true epoch."""
    detected, truth = np.asarray(detected), np.sort(np.asarray(truth))
    if detected.size == 0 or truth.size == 0:
        return 0.0, int(detected.size)
    tol = EPOCH_TOL_16K * sample_rate / 16000.0
    idx = np.clip(np.searchsorted(truth, detected), 1, truth.size - 1)
    nearest = np.minimum(np.abs(detected - truth[idx - 1]), np.abs(detected - truth[idx]))
    return float(np.mean(nearest <= tol)), int(detected.size)


def epochs(detected_and_truth, sample_rate):
    """detected_and_truth: (detected, truth) position arrays per region."""
    hits = total = 0
    for detected, truth in detected_and_truth:
        share, n = epoch_share(detected, truth, sample_rate)
        hits += share * n
        total += n
    if total == 0:
        raise CheckError("no detected epochs to check")
    share = hits / total
    if share < EPOCH_MIN_SHARE:
        raise CheckError(f"only {share:.3f} of {total} epochs within tolerance (need {EPOCH_MIN_SHARE})")
    return share


def codebook(centroids, train):
    """Finite centroids, each the mean of the training vectors nearest to it."""
    centroids = np.asarray(centroids, dtype=np.float64)
    train = np.asarray(train, dtype=np.float64)
    if not np.all(np.isfinite(centroids)):
        raise CheckError("codebook has non-finite centroids")
    d2 = ((train[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    labels = np.argmin(d2, axis=1)
    scale = float(np.sqrt(np.mean(np.sum(train**2, axis=1)))) or 1.0
    for j in range(centroids.shape[0]):
        members = train[labels == j]
        if members.size == 0:
            raise CheckError(f"centroid {j} has no training vector in its cell")
        gap = float(np.linalg.norm(members.mean(axis=0) - centroids[j]))
        if gap > LLOYD_TOL * scale:
            raise CheckError(f"centroid {j} is {gap:.3g} from its cell mean (scale {scale:.3g})")


def cmd_value(test, centroids, value):
    """Sum over test vectors of the Euclidean distance to the nearest centroid."""
    test = np.asarray(test, dtype=np.float64)
    centroids = np.asarray(centroids, dtype=np.float64)
    ref = float(np.sqrt(((test[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)).min(axis=1).sum())
    _close("cmd score", value, ref, rtol=1e-8, atol=1e-9)


def ascending(scores, what="ranking"):
    s = np.asarray(scores, dtype=np.float64)
    if s.size and np.any(np.diff(s) < 0):
        raise CheckError(f"{what} is not in ascending score order")


def fused(rows, a_dct, a_mfcc, alpha=None):
    """rows: (d_dct, d_mfcc, d_com); alpha recomputed from the accuracies."""
    want = a_dct / (a_dct + a_mfcc)
    if alpha is not None and abs(alpha - want) > 1e-6:
        raise CheckError(f"fusion weight {alpha} != a_dct/(a_dct+a_mfcc) = {want}")
    rows = np.asarray(rows, dtype=np.float64)
    _close("fused score", rows[:, 2], want * rows[:, 0] + (1.0 - want) * rows[:, 1], rtol=1e-8)


def accuracy(name, reported, correct, total):
    if total == 0 or abs(reported - correct / total) > 1e-9:
        raise CheckError(f"{name}: reported accuracy {reported} != recount {correct}/{total}")


def accuracy_floor(value):
    if not (ID_ACCURACY_FLOOR <= value <= 1.0):
        raise CheckError(f"id_accuracy {value} outside [{ID_ACCURACY_FLOOR}, 1]")


def identical_files(first: dict[str, bytes], second: dict[str, bytes], what="codebook files"):
    if sorted(first) != sorted(second):
        raise CheckError(f"{what}: file sets differ")
    for name in first:
        if first[name] != second[name]:
            raise CheckError(f"{what}: {name} differs between two trainings with the same seed")


def parse_codebook(data: bytes):
    """(speaker_id, kind, centroids) from the documented codebook file layout."""
    if data[:4] != b"VQCB":
        raise CheckError("codebook file without the VQCB magic")
    _, k, dim, _, _ = struct.unpack_from("<IIIqQ", data, 4)
    off = 32
    (n,) = struct.unpack_from("<I", data, off)
    kind = data[off + 4 : off + 4 + n].decode()
    off += 4 + n
    (n,) = struct.unpack_from("<I", data, off)
    speaker = data[off + 4 : off + 4 + n].decode()
    off += 4 + n
    if len(data) != off + 8 * k * dim:
        raise CheckError(f"codebook file of {len(data)} bytes, expected {off + 8 * k * dim}")
    return speaker, kind, np.frombuffer(data, dtype="<f8", offset=off).reshape(k, dim)
