"""Truncated DCT features of unit-energy pitch cycles, plus retained-energy stats.

A cycle is normalized to unit energy and transformed with the orthonormal
DCT-II; the first coefficient (the frame mean) is dropped and the next K kept.
No pre-emphasis and no shaping window: the frames already start and end on
waveform peaks, matching the transform's basis endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gci import PitchCycle

KIND_PSDCT = "psdct"
KIND_MFCC = "mfcc"

DEFAULT_NUM_COEFFS = 15


@dataclass(frozen=True, eq=False)
class FeatureVector:
    """A 1-D float64 feature row; unchecked, as ``FeatureMatrix`` checks each matrix."""

    values: np.ndarray


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """One speaker's features of one kind: a checked, read-only, C-contiguous (N, dim) float64 matrix.

    The constructor copies the matrix and checks the copy once (2-D,
    non-empty, finite), so its consumers (``train_codebook``,
    ``kmeanspp_seeds``, ``cmd``) check nothing per call. The copy is read-only
    and no caller holds it, so the check, and the row norms ``sq_norms`` that
    ``cmd`` takes from it, hold for every later use.
    Iterating yields each row as a ``FeatureVector`` view.
    """

    matrix: np.ndarray
    kind: str

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.float64, order="C")
        if m.ndim != 2:
            raise ValueError(f"feature matrix must be 2-D, got shape {m.shape}")
        if not m.shape[0]:
            raise ValueError("empty vector list")
        if not m.shape[1]:
            raise ValueError("feature values must be a non-empty 1-D vector")
        if not np.isfinite(m).all():
            raise ValueError("feature values must be finite")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @cached_property
    def sq_norms(self) -> np.ndarray:
        """``np.sum(matrix**2, axis=1)``, read-only: taken once for every ``cmd`` against this matrix."""
        norms = np.sum(self.matrix**2, axis=1)
        norms.flags.writeable = False
        return norms

    def __len__(self) -> int:
        return self.matrix.shape[0]

    def __iter__(self):
        return (FeatureVector(row) for row in self.matrix)


# length M -> the first rows of its DCT-II basis, as many as any caller has asked for
_BASES: dict[int, np.ndarray] = {}


def _dct_basis(m: int, rows: int) -> np.ndarray:
    """First ``rows`` rows of the M-point orthonormal DCT-II matrix, read-only.

    One basis is kept per length and rebuilt only when a caller asks for more
    rows than it holds, so truncated callers never pay for an M x M matrix.
    Every caller shares it, so it cannot be written through.
    """
    basis = _BASES.get(m)
    if basis is None or basis.shape[0] < rows:
        # c[k] = s(k) * sum_n x[n] cos(pi*(2n+1)*k / 2M), s(0)=sqrt(1/M), s(k)=sqrt(2/M)
        n = np.arange(m)
        basis = np.cos(np.pi * (2.0 * n[None, :] + 1.0) * np.arange(rows)[:, None] / (2.0 * m))
        basis *= np.sqrt(2.0 / m)
        basis[0] *= np.sqrt(0.5)
        basis.flags.writeable = False
        _BASES[m] = basis
    return basis[:rows]


def dct2(frame, n: int | None = None) -> np.ndarray:
    """First ``n`` coefficients (all by default) of the orthonormal DCT-II.

    With all coefficients Parseval holds (sum c^2 = sum x^2).
    """
    x = np.asarray(frame, dtype=np.float64)
    if x.size == 0:
        raise ValueError("empty frame")
    if n is not None and n < 1:
        raise ValueError(f"need at least 1 coefficient, got {n}")
    return _dct_basis(x.size, x.size if n is None else min(n, x.size)) @ x


def normalize_energy(frame) -> np.ndarray:
    """Scale a frame to unit energy. Zero-energy frames are a caller bug."""
    x = np.array(frame, dtype=np.float64)  # a float64 copy, scaled in place
    energy = float(np.dot(x, x))
    if energy <= 0.0:
        raise ValueError("zero-energy frame; caller must filter these out")
    x /= np.sqrt(energy)
    return x


def psdct_feature(cycle: PitchCycle, n_coeffs: int = DEFAULT_NUM_COEFFS) -> FeatureVector:
    """Coefficients 1..K of the unit-energy cycle's DCT (index 0 dropped)."""
    m = len(cycle)
    if m <= n_coeffs:
        raise ValueError(f"cycle of {m} samples too short for {n_coeffs} coefficients")
    coeffs = dct2(normalize_energy(cycle.samples), n_coeffs + 1)
    return FeatureVector(coeffs[1:])


def mec(cycles: list[PitchCycle], n_coeffs: int, include_dc: bool = True) -> float:
    """Mean fraction of cycle energy captured by coefficients 1..K.

    The denominator is the cycle's own coefficient energy, which by Parseval
    is its sample energy; with include_dc=False the mean coefficient is
    excluded from the denominator as well. A ratio of energies does not depend
    on the cycle's scale, so cycles are not normalized. Cycles are grouped
    by length (one stable sort, so each group keeps list order) and each group
    is transformed in one product with the truncated basis, so each cycle is
    transformed once and only coefficients 0..K are computed.
    """
    if not cycles:
        raise ValueError("empty cycle list")
    samples = [c.samples for c in cycles]
    lengths = np.fromiter(map(len, samples), dtype=np.intp, count=len(samples))
    short = np.flatnonzero(lengths <= n_coeffs)
    if short.size:
        raise ValueError(f"cycle of {lengths[short[0]]} samples too short for {n_coeffs} coefficients")
    order = np.argsort(lengths, kind="stable")
    ratios = np.empty(len(cycles))
    for idx in np.split(order, np.flatnonzero(np.diff(lengths[order])) + 1):
        m = int(lengths[idx[0]])
        x = np.concatenate([samples[i] for i in idx], dtype=np.float64).reshape(idx.size, m)
        energy = np.einsum("ij,ij->i", x, x)
        if np.any(energy <= 0.0):
            raise ValueError("zero-energy frame; caller must filter these out")
        c2 = (x @ _dct_basis(m, n_coeffs + 1).T) ** 2
        denom = energy if include_dc else energy - c2[:, 0]
        ratios[idx] = c2[:, 1:].sum(axis=1) / denom
    return float(np.mean(ratios))
