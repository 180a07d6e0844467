"""Cumulative-minimum-distance scoring, nearest-codebook identification, fusion.

The score of a test-vector set against one speaker's codebook is the sum over
vectors of the Euclidean (not squared) distance to the nearest centroid; the
enrolled speaker with the least score wins. Two systems are combined as a
convex combination of their scores, weighted by their measured accuracies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .psdct import FeatureMatrix
from .vq import Codebook


@dataclass(frozen=True)
class CmdScore:
    speaker_id: str
    kind: str
    cmd: float
    n_vectors: int

    def __post_init__(self):
        if self.cmd < 0.0:
            raise ValueError("cumulative minimum distance cannot be negative")


@dataclass(frozen=True)
class FusionWeights:
    """Accuracy-derived convex weight: alpha = a_dct / (a_dct + a_mfcc)."""

    a_dct: float
    a_mfcc: float

    def __post_init__(self):
        if not (0.0 <= self.a_dct <= 1.0 and 0.0 <= self.a_mfcc <= 1.0):
            raise ValueError("accuracies must lie in [0, 1]")
        if self.a_dct + self.a_mfcc <= 0.0:
            raise ValueError("at least one accuracy must be positive")

    @property
    def alpha(self) -> float:
        return self.a_dct / (self.a_dct + self.a_mfcc)


@dataclass(frozen=True)
class FusedScore:
    speaker_id: str
    d_dct: float
    d_mfcc: float
    d_com: float


def cmd(test: FeatureMatrix, codebook: Codebook) -> CmdScore:
    """Sum over test vectors of the min Euclidean distance to any centroid."""
    data, kind = test.matrix, test.kind
    if kind != codebook.kind:
        raise ValueError(f"feature kind {kind} does not match codebook kind {codebook.kind}")
    if data.shape[1] != codebook.centroids.shape[1]:
        raise ValueError(f"dimension {data.shape[1]} does not match codebook dim {codebook.centroids.shape[1]}")
    # (centroids, vectors) layout: the minimum runs down the centroid axis, and |x|^2 goes on the n minima only
    shifted = np.matmul(-2.0 * codebook.centroids, data.T)
    shifted += codebook.sq_norms[:, None]
    nearest = np.min(shifted, axis=0)
    nearest += test.sq_norms
    min_d = np.sqrt(np.maximum(nearest, 0.0, out=nearest), out=nearest)
    return CmdScore(codebook.speaker_id, kind, float(np.sum(min_d)), data.shape[0])


def identify(test: FeatureMatrix, codebooks: list[Codebook]) -> tuple[list[CmdScore], str]:
    """Score against every enrolled codebook; least distance wins.

    Returns the scores ranked ascending plus the predicted speaker id; ties
    break lexicographically on speaker id.
    """
    if not codebooks:
        raise ValueError("no enrolled codebooks")
    kinds = {cb.kind for cb in codebooks}
    if len(kinds) != 1:
        raise ValueError(f"mixed codebook kinds: {sorted(kinds)}")
    scores = [cmd(test, cb) for cb in codebooks]
    scores.sort(key=lambda s: (s.cmd, s.speaker_id))
    return scores, scores[0].speaker_id


def fuse(
    scores_dct: list[CmdScore],
    scores_mfcc: list[CmdScore],
    weights: FusionWeights,
) -> tuple[list[FusedScore], str]:
    """Convex combination d_com = alpha*d_dct + (1-alpha)*d_mfcc of the raw CMD sums per speaker."""
    by_dct = {s.speaker_id: s for s in scores_dct}
    by_mfcc = {s.speaker_id: s for s in scores_mfcc}
    if set(by_dct) != set(by_mfcc):
        raise ValueError(
            f"speaker sets differ: {sorted(set(by_dct) ^ set(by_mfcc))} present in only one system"
        )
    alpha = weights.alpha
    fused = []
    for speaker_id in sorted(by_dct):
        d_dct = by_dct[speaker_id].cmd
        d_mfcc = by_mfcc[speaker_id].cmd
        fused.append(
            FusedScore(speaker_id, d_dct, d_mfcc, alpha * d_dct + (1.0 - alpha) * d_mfcc)
        )
    fused.sort(key=lambda s: (s.d_com, s.speaker_id))
    return fused, fused[0].speaker_id
