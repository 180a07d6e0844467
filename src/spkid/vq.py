"""Per-speaker k-means codebooks and codebook file IO.

Training is Lloyd's algorithm with k-means++ seeding, fully deterministic
given (data, k, seed): per-iteration distortion is recorded and checked to be
non-increasing, and empty clusters are re-seeded with the point farthest from
its assigned centroid. k-means++ draws its seeds one at a time from one
generator, so the first k seeds of a larger draw are the size-k seeds:
``evaluate.train_codebooks`` draws them once per (speaker, kind), at the
largest size, and starts each size's Lloyd run from their prefix.

sklearn is deliberately not used here; the determinism, iteration-history,
and re-seeding contracts are cheaper to own than to coerce out of a library.
"""

from __future__ import annotations

import json
import logging
import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .psdct import FeatureMatrix, checked_matrix

log = logging.getLogger(__name__)

CODEBOOK_MAGIC = b"VQCB"
CODEBOOK_VERSION = 1
MANIFEST_VERSION = 2
MANIFEST_NAME = "manifest.json"

DEFAULT_SEED = 42
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 300


@dataclass(frozen=True, eq=False)
class Codebook:
    speaker_id: str
    kind: str
    centroids: np.ndarray  # (k, dim) float64, a read-only C-contiguous copy, as FeatureMatrix.matrix
    seed: int
    train_vector_count: int

    def __post_init__(self):
        object.__setattr__(self, "centroids", checked_matrix(self.centroids, "centroids"))

    @cached_property
    def sq_norms(self) -> np.ndarray:
        """``np.sum(centroids**2, axis=1)``, read-only: taken once for every ``cmd`` against this codebook."""
        norms = np.sum(self.centroids**2, axis=1)
        norms.flags.writeable = False
        return norms


def lloyd_kmeans(features: FeatureMatrix, init: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """k-means centroids from the k = ``len(init)`` seeds ``init``, plus the per-iteration distortion history.

    The distortion is the mean squared distance to the nearest centroid. Stops
    when the largest centroid displacement falls below DEFAULT_TOL relative to
    the RMS vector norm of the data, or after DEFAULT_MAX_ITER iterations.
    """
    data, norms = features.matrix, features.sq_norms
    n, dim = data.shape
    centroids = init
    k = len(init)
    scale = float(np.sqrt(np.mean(norms))) or 1.0
    rows = np.arange(n)
    # |x - c|^2 - |x|^2 = [x | 1] . [-2c | |c|^2]: one product per assignment, into one buffer
    augmented = np.hstack([data, np.ones((n, 1))])
    weights = np.empty((k, dim + 1))
    shifted = np.empty((n, k))

    history: list[float] = []
    for _ in range(DEFAULT_MAX_ITER):
        np.multiply(centroids, -2.0, out=weights[:, :dim])
        np.sum(centroids**2, axis=1, out=weights[:, dim])
        labels = np.argmin(np.matmul(augmented, weights.T, out=shifted), axis=1)
        # the row norms and the clip at 0 go on the n minima only
        distortion = float(np.mean(np.maximum(shifted[rows, labels] + norms, 0.0)))
        if history and distortion > history[-1] + 1e-12 * (1.0 + history[-1]):
            raise RuntimeError(
                f"distortion increased ({history[-1]} -> {distortion}); Lloyd update bug"
            )
        history.append(distortion)

        # cell sums accumulate row by row from 0.0, as data[labels == j].mean(axis=0)
        # does for dim >= 2, so the centroids are bit-identical to a per-cell loop
        counts = np.bincount(labels, minlength=k)
        sums = np.bincount(
            (labels[:, None] * dim + np.arange(dim)).ravel(), weights=data.ravel(), minlength=k * dim
        ).reshape(k, dim)
        new_centroids = sums / np.maximum(counts, 1)[:, None]
        # re-seed empty clusters with the points farthest from their centroid
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            point_d2 = np.sum((data - new_centroids[labels]) ** 2, axis=1)
            for j in empty:
                far = int(np.argmax(point_d2))
                new_centroids[j] = data[far]
                point_d2[far] = 0.0

        movement = float(np.max(np.sqrt(np.sum((new_centroids - centroids) ** 2, axis=1))))
        centroids = new_centroids
        if movement < DEFAULT_TOL * scale:
            break
    return centroids, history


def kmeanspp_seeds(features: FeatureMatrix, k: int, seed: int = DEFAULT_SEED) -> np.ndarray:
    """The k-means++ seeds of ``train_codebook(features, k, seed)``, as a (k, dim) matrix.

    k-means++ draws them one at a time from one generator, so the first j
    rows are the seeds of ``train_codebook(features, j, seed)`` for any j <= k.
    It never draws a row equal to one already drawn, so with n < k distinct
    rows the draw stops after n and returns an (n, dim) matrix of them all.
    """
    data = features.matrix
    n = data.shape[0]
    rng = np.random.default_rng(seed)
    # the squared distances to data[i] are summed down the rows of a (dim, n) copy, in one buffer;
    # a row equal to data[i] sums exact zeros, so a chosen row's duplicates are never drawn
    columns = np.ascontiguousarray(data.T)
    diff = np.empty_like(columns)
    chosen = [int(rng.integers(n))]
    d2 = np.square(np.subtract(columns, data[chosen[0], :, None], out=diff), out=diff).sum(axis=0)
    scratch = np.empty(n)
    for _ in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:  # every distinct row is chosen: k-means++ never picks a duplicate
            break
        # the steps of rng.choice(n, p=d2 / total) without its checks of p: the same row
        cdf = np.cumsum(np.divide(d2, total, out=scratch), out=scratch)
        cdf /= cdf[-1]
        idx = int(cdf.searchsorted(rng.random(), side="right"))
        chosen.append(idx)
        np.square(np.subtract(columns, data[idx, :, None], out=diff), out=diff).sum(axis=0, out=scratch)
        np.minimum(d2, scratch, out=d2)
    return data[chosen]


def train_codebook(
    features: FeatureMatrix,
    k: int,
    seed: int = DEFAULT_SEED,
    speaker_id: str = "",
    *,
    init: np.ndarray | None = None,
) -> Codebook:
    """Cluster one speaker's vectors of one kind into a k-entry codebook.

    ``init``, the first k rows of ``kmeanspp_seeds(features, K, seed)`` for
    some K >= k, skips drawing the seeds again; the codebook is the same.
    """
    data = features.matrix
    log.info("training %s codebook k=%d for %r on %d vectors", features.kind, k, speaker_id, len(data))
    if init is None:
        init = kmeanspp_seeds(features, k, seed)
        if len(init) < k:
            raise ValueError(f"k={k} exceeds the {len(init)} distinct training vectors")
    elif init.shape != (k, data.shape[1]):
        raise ValueError(f"init has shape {init.shape}, expected ({k}, {data.shape[1]})")
    centroids, _ = lloyd_kmeans(features, init)
    return Codebook(
        speaker_id=speaker_id,
        kind=features.kind,
        centroids=centroids,
        seed=seed,
        train_vector_count=data.shape[0],
    )


def _codebook_bytes(codebook: Codebook, where) -> bytes:
    """A codebook file's bytes: versioned header + centroids as little-endian float64; refusals name ``where``."""
    seed, count = codebook.seed, codebook.train_vector_count
    try:
        text = [s.encode("utf-8") for s in (codebook.kind, codebook.speaker_id)]
        header = struct.pack("<IIIqQ", CODEBOOK_VERSION, *codebook.centroids.shape, seed, count)
    except UnicodeEncodeError:
        got = f"{codebook.kind!r}, {codebook.speaker_id!r}"
        raise ValueError(f"{where}: kind and speaker id must be UTF-8 text, got {got}") from None
    except struct.error:
        bounds = "must be in [-2**63, 2**63) and [0, 2**64)"
        raise ValueError(f"{where}: seed {seed} and vector count {count} {bounds}") from None
    lengths_and_text = [struct.pack("<I", len(t)) + t for t in text]
    return b"".join([CODEBOOK_MAGIC, header, *lengths_and_text, codebook.centroids.astype("<f8").tobytes()])


def save_codebook(codebook: Codebook, path) -> None:
    """Write ``_codebook_bytes``, built whole before ``path`` is opened, so a refused codebook writes nothing."""
    Path(path).write_bytes(_codebook_bytes(codebook, path))


def load_codebook(path) -> Codebook:
    with open(path, "rb") as fh:
        if fh.read(4) != CODEBOOK_MAGIC:
            raise ValueError(f"{path}: not a codebook file")

        def header(n: int) -> bytes:
            chunk = fh.read(n)
            if len(chunk) != n:
                raise ValueError(f"{path}: codebook header is truncated")
            return chunk

        version, k, dim, seed, count = struct.unpack("<IIIqQ", header(28))
        if version != CODEBOOK_VERSION:
            raise ValueError(f"{path}: unsupported codebook version {version}")
        kind = header(*struct.unpack("<I", header(4)))
        speaker_id = header(*struct.unpack("<I", header(4)))
        block = fh.read()
    if len(block) != k * dim * 8:
        raise ValueError(f"{path}: centroid block has {len(block)} bytes, expected {k * dim * 8} (k={k}, dim={dim})")
    centroids = np.frombuffer(block, dtype="<f8").reshape(k, dim)
    try:  # kind or speaker bytes that are not UTF-8, a header with k=0 or dim=0, or a non-finite centroid
        return Codebook(speaker_id.decode("utf-8"), kind.decode("utf-8"), centroids, seed, count)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def _check_names(names: list, where) -> None:
    """Refuse an entry that is not a bare file name in the model directory: a directory part, ``.`` or ``..``."""
    for i, name in enumerate(names):
        if not isinstance(name, str) or name in ("", ".", "..") or Path(name).name != name:
            raise ValueError(f"{where}: codebook entry {i} is not a file name")


def _check_model(names: list[str], codebooks: list[Codebook], where) -> None:
    """Refuse codebooks that cannot be scored as one model; the error names ``where`` and both files.

    One speaker may have one codebook of each kind, and the codebooks of one
    kind must share one width, then one size.
    """
    owner, shape = {}, {}
    for i, (name, cb) in enumerate(zip(names, codebooks)):
        if (first := owner.setdefault((cb.speaker_id, cb.kind), i)) != i:
            raise ValueError(f"{where}: two {cb.kind} codebooks of {cb.speaker_id}: {names[first]}, {name}")
        k, dim = cb.centroids.shape
        first_name, (first_k, first_dim) = shape.setdefault(cb.kind, (name, (k, dim)))
        if dim != first_dim:
            raise ValueError(
                f"{where}: {cb.kind} codebooks differ in width: "
                f"{first_name} has dim {first_dim}, {name} has dim {dim}"
            )
        if k != first_k:
            raise ValueError(
                f"{where}: {cb.kind} codebooks differ in size: "
                f"{first_name} has {first_k} entries, {name} has {k}"
            )


def save_model_dir(codebooks: list[Codebook], model_dir) -> None:
    """One file per speaker per kind, plus a manifest listing the file names in (kind, speaker) order.

    A list that ``load_model_dir`` would refuse once written, or a codebook
    that its file cannot hold, is refused, with its message, before the
    directory is made or any file written.
    """
    model_dir = Path(model_dir)
    codebooks = sorted(codebooks, key=lambda c: (c.kind, c.speaker_id))
    files = [f"{cb.speaker_id}.{cb.kind}.cb" for cb in codebooks]
    _check_names(files, model_dir)
    _check_model(files, codebooks, model_dir)
    blobs = [_codebook_bytes(cb, model_dir / name) for cb, name in zip(codebooks, files)]
    model_dir.mkdir(parents=True, exist_ok=True)
    for blob, name in zip(blobs, files):
        (model_dir / name).write_bytes(blob)
    with open(model_dir / MANIFEST_NAME, "w", encoding="utf-8") as fh:
        json.dump({"version": MANIFEST_VERSION, "codebooks": files}, fh, indent=2)
        fh.write("\n")


def load_model_dir(model_dir) -> list[Codebook]:
    """Every codebook the manifest lists, in its order; each file's own header says whose it is and what kind.

    Every entry must be a bare file name, checked before any codebook is
    read; the codebooks are then checked by ``_check_model``, whose errors
    name the manifest.
    """
    model_dir = Path(model_dir)
    manifest_path = model_dir / MANIFEST_NAME
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (FileNotFoundError, NotADirectoryError):  # opened unchecked: no manifest, or no directory
        raise ValueError(f"{model_dir}: no {MANIFEST_NAME}; not a model directory") from None
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ValueError(f"{manifest_path}: not a valid JSON manifest: {exc}") from None
    version = manifest.get("version") if isinstance(manifest, dict) else None
    if version != MANIFEST_VERSION:
        raise ValueError(f"{manifest_path}: manifest version {version}, not {MANIFEST_VERSION}; train the model again")
    if not isinstance(files := manifest.get("codebooks"), list):
        raise ValueError(f"{manifest_path}: no codebook list")
    _check_names(files, manifest_path)
    codebooks = [load_codebook(model_dir / name) for name in files]
    _check_model(files, codebooks, manifest_path)
    return codebooks
