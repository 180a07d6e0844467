import json
import re
import struct
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from spkid.classify import cmd
from spkid.psdct import KIND_MFCC, KIND_PSDCT, FeatureMatrix, FeatureVector
from spkid.vq import (
    Codebook,
    kmeanspp_seeds,
    lloyd_kmeans,
    load_codebook,
    load_model_dir,
    save_codebook,
    save_model_dir,
    train_codebook,
)

# Best-of-50 random restarts of a plain Lloyd reference on the fixed 4-blob
# set below (rng seed 999, 200 iterations per restart), computed offline.
BLOB_ORACLE_DISTORTION = 0.7610185291089583


def make_blobs():
    rng = np.random.default_rng(1234)
    centers = np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0], [8.0, 8.0]])
    return np.concatenate([c + rng.normal(scale=0.6, size=(50, 2)) for c in centers])


def matrix(data, kind=KIND_PSDCT):
    return FeatureMatrix(np.asarray(data, dtype=np.float64), kind)


def kmeanspp(data, k, seed=42):
    return kmeanspp_seeds(matrix(data), k, seed)


def test_k1_centroid_is_mean():
    rng = np.random.default_rng(0)
    data = rng.normal(size=(37, 5))
    cb = train_codebook(matrix(data), 1, seed=42, speaker_id="s")
    assert np.allclose(cb.centroids[0], data.mean(axis=0))


def test_k_equals_distinct_gives_zero_distortion():
    data = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
    vecs = matrix(np.repeat(data, 3, axis=0))
    cb = train_codebook(vecs, 4, seed=42, speaker_id="s")
    assert cmd(vecs, cb).cmd == 0
    assert {tuple(c) for c in cb.centroids} == {tuple(r) for r in data}


def test_blob_recovery_within_5pct_of_restart_oracle():
    data = make_blobs()
    centroids, _ = lloyd_kmeans(matrix(data), kmeanspp(data, 4))
    d2 = ((data[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    assert d2.min(axis=1).mean() <= 1.05 * BLOB_ORACLE_DISTORTION


def test_distortion_history_non_increasing():
    rng = np.random.default_rng(5)
    data = rng.normal(size=(300, 8))
    for seed in (0, 1, 2, 3):
        _, history = lloyd_kmeans(matrix(data), kmeanspp(data, 10, seed))
        assert len(history) >= 1
        assert all(b <= a + 1e-12 * (1.0 + a) for a, b in zip(history, history[1:]))


def test_converged_centroids_are_cluster_means():
    data = make_blobs()
    centroids, _ = lloyd_kmeans(matrix(data), kmeanspp(data, 4))
    d2 = ((data[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    labels = d2.argmin(axis=1)
    for j in range(4):
        assert np.any(labels == j)
        assert np.max(np.abs(centroids[j] - data[labels == j].mean(axis=0))) < 1e-6


def test_training_is_bit_reproducible(tmp_path):
    rng = np.random.default_rng(6)
    vecs = matrix(rng.normal(size=(200, 15)))
    a = train_codebook(vecs, 16, seed=42, speaker_id="s")
    b = train_codebook(vecs, 16, seed=42, speaker_id="s")
    assert np.array_equal(a.centroids, b.centroids)
    with pytest.raises(ValueError, match="read-only"):
        a.centroids[0, 0] = 0.0
    save_codebook(a, tmp_path / "a.cb")
    save_codebook(b, tmp_path / "b.cb")
    assert (tmp_path / "a.cb").read_bytes() == (tmp_path / "b.cb").read_bytes()


def test_different_seeds_may_differ_but_stay_valid():
    rng = np.random.default_rng(7)
    vecs = matrix(rng.normal(size=(100, 4)))
    a = train_codebook(vecs, 8, seed=1, speaker_id="s")
    b = train_codebook(vecs, 8, seed=2, speaker_id="s")
    assert a.centroids.shape == b.centroids.shape == (8, 4)
    assert np.all(np.isfinite(a.centroids)) and np.all(np.isfinite(b.centroids))


def test_k_exceeding_distinct_raises():
    vecs = matrix(np.zeros((10, 3)))
    with pytest.raises(ValueError, match="distinct"):
        train_codebook(vecs, 2, speaker_id="s")
    # k-means++ seeding stops once every distinct row is chosen, so the count is exact
    rows = np.repeat(np.array([[0.0, 1.0], [2.0, 0.0], [5.0, 5.0]]), [4, 1, 3], axis=0)
    with pytest.raises(ValueError, match=r"^k=4 exceeds the 3 distinct training vectors$"):
        train_codebook(matrix(rows), 4)


def test_feature_matrix_checks_its_shape_and_values():
    cb = Codebook("s", KIND_PSDCT, np.zeros((1, 2)), 42, 1)
    # a matrix holds one kind and one width, so only its shape and values can be wrong
    bad_matrices = [
        (np.zeros((0, 2)), "feature matrix must be a non-empty 2-D matrix, got shape (0, 2)"),
        (np.zeros((3, 0)), "feature matrix must be a non-empty 2-D matrix, got shape (3, 0)"),
        (np.zeros(4), "feature matrix must be a non-empty 2-D matrix, got shape (4,)"),
        (np.zeros((2, 2, 2)), "feature matrix must be a non-empty 2-D matrix, got shape (2, 2, 2)"),
        (np.array([[1.0, 2.0], [np.inf, 0.0]]), "feature matrix must be finite"),
        (np.array([[1.0, np.nan], [0.0, 1.0]]), "feature matrix must be finite"),
    ]
    for matrix, message in bad_matrices:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            FeatureMatrix(matrix, KIND_PSDCT)
    # and cmd still checks the matrix against the codebook
    with pytest.raises(ValueError, match="^feature kind mfcc does not match codebook kind psdct$"):
        cmd(FeatureMatrix(np.zeros((2, 2)), KIND_MFCC), cb)
    with pytest.raises(ValueError, match="^dimension 3 does not match codebook dim 2$"):
        cmd(FeatureMatrix(np.zeros((2, 3)), KIND_PSDCT), cb)


def test_codebook_checks_its_centroids():
    # the size and width are the centroids' shape, so only the matrix can be wrong
    assert [f.name for f in fields(Codebook)] == ["speaker_id", "kind", "centroids", "seed", "train_vector_count"]
    bad_centroids = [
        (np.zeros(15), "centroids must be a non-empty 2-D matrix, got shape (15,)"),
        (np.zeros((0, 15)), "centroids must be a non-empty 2-D matrix, got shape (0, 15)"),
        (np.zeros((4, 0)), "centroids must be a non-empty 2-D matrix, got shape (4, 0)"),
        (np.array([[1.0, np.nan], [0.0, 1.0]]), "centroids must be finite"),
    ]
    for centroids, message in bad_centroids:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Codebook("s", KIND_PSDCT, centroids, 42, 1)
    cb = Codebook("s", KIND_PSDCT, [[1, 2], [3, 4]], 42, 1)
    assert cb.centroids.dtype == np.float64 and cb.centroids.shape == (2, 2)
    assert not cb.centroids.flags.writeable


def test_feature_matrix_keeps_its_check_when_the_caller_writes_its_array():
    data = np.ones((3, 2))
    features = FeatureMatrix(data, KIND_PSDCT)
    data[0, 0] = np.nan
    assert np.isfinite(features.matrix).all()


def test_codebook_keeps_its_check_and_norms_when_the_caller_writes_its_array():
    centroids = np.ones((2, 3))
    cb = Codebook("s", KIND_PSDCT, centroids, 42, 1)
    assert cb.sq_norms[0] == 3.0
    centroids[0] = np.inf
    assert np.isfinite(cb.centroids).all() and cb.sq_norms[0] == np.sum(cb.centroids[0] ** 2)
    assert cmd(FeatureMatrix(np.ones((4, 3)), KIND_PSDCT), cb).cmd == 0.0


def test_feature_matrix_is_stacked_once_and_iterates_as_row_views():
    rng = np.random.default_rng(5)
    data = rng.normal(size=(40, 6))
    m = FeatureMatrix(data.copy(), KIND_PSDCT)
    assert m.kind == KIND_PSDCT and len(m) == 40
    assert m.matrix.dtype == np.float64 and m.matrix.flags.c_contiguous
    assert np.array_equal(m.matrix, data)
    # read-only through the record; an array handed to the constructor is copied and stays writeable for its owner
    assert not m.matrix.flags.writeable
    owned = FeatureMatrix(data, KIND_PSDCT)
    assert not np.shares_memory(owned.matrix, data) and data.flags.writeable
    # a strided slice is copied to a contiguous matrix
    prefix = FeatureMatrix(m.matrix[:, :3], KIND_PSDCT)
    assert prefix.matrix.flags.c_contiguous and not np.shares_memory(prefix.matrix, m.matrix)
    assert np.array_equal(prefix.matrix, data[:, :3])
    rows = list(m)
    assert len(rows) == 40
    for i, row in enumerate(rows):
        assert isinstance(row, FeatureVector)
        assert np.shares_memory(row.values, m.matrix)
        assert np.array_equal(row.values, m.matrix[i])


def test_codebook_file_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    cb = train_codebook(matrix(rng.normal(size=(50, 6))), 4, seed=7, speaker_id="alice")
    path = tmp_path / "alice.cb"
    save_codebook(cb, path)
    back = load_codebook(path)
    assert back.speaker_id == "alice"
    assert back.kind == cb.kind and back.centroids.shape == cb.centroids.shape == (4, 6)
    assert back.seed == 7 and back.train_vector_count == 50
    assert np.array_equal(back.centroids, cb.centroids)


def test_codebook_file_rejects_garbage(tmp_path):
    good = tmp_path / "good.cb"
    save_codebook(train_codebook(matrix(np.random.default_rng(3).normal(size=(30, 15))), 8, speaker_id="s"), good)
    valid = good.read_bytes()
    header = valid[:-960]  # magic, then version, k and dim as <III
    cases = [
        (b"NOPE" + b"\x00" * 64, "not a codebook"),
        (valid[:20], "codebook header is truncated"),
        (valid[:-8], "centroid block has 952 bytes, expected 960 \\(k=8, dim=15\\)"),
        (valid + b"\x00", "centroid block has 961 bytes, expected 960"),
        (header[:8] + struct.pack("<I", 0) + header[12:], "centroids must be a non-empty 2-D matrix, got shape \\(0, 15\\)"),
        (header[:12] + struct.pack("<I", 0) + header[16:], "centroids must be a non-empty 2-D matrix, got shape \\(8, 0\\)"),
        (valid[:-8] + struct.pack("<d", np.nan), "centroids must be finite"),
        # the kind's first byte, after magic, the <IIIqQ fields and the kind's length
        (valid[:36] + b"\xff" + valid[37:], re.escape("'utf-8' codec can't decode byte 0xff in position 0")),
    ]
    for i, (data, message) in enumerate(cases):
        path = tmp_path / f"bad{i}.cb"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=f"{path.name}: {message}"):
            load_codebook(path)

    model = tmp_path / "model"
    model.mkdir()
    (model / "manifest.json").write_text('{"version": 2}')
    with pytest.raises(ValueError, match="manifest.json: no codebook list"):
        load_model_dir(model)
    for entry in ('{"kind": "psdct"}', '{"file": "good.cb"}', '5', 'null'):
        (model / "manifest.json").write_text(f'{{"version": 2, "codebooks": [{entry}]}}')
        with pytest.raises(ValueError, match="manifest.json: codebook entry 0 is not a file name$"):
            load_model_dir(model)
    # a version-1 manifest, as written before the manifest listed file names alone
    (model / "manifest.json").write_text('{"version": 1, "codebooks": [{"file": "good.cb", "kind": "psdct"}]}')
    with pytest.raises(ValueError, match="manifest.json: manifest version 1, not 2; train the model again$"):
        load_model_dir(model)


def test_model_dir_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    books = [
        train_codebook(matrix(rng.normal(size=(60, 5))), 4, speaker_id=f"spk{i}")
        for i in range(3)
    ]
    books.append(
        train_codebook(matrix(rng.normal(size=(60, 3)), KIND_MFCC), 4, speaker_id="spk0")
    )
    # spk1 and spk2 have no MFCC codebook yet: refused before the directory is made
    with pytest.raises(ValueError) as err:
        save_model_dir(books, tmp_path / "model")
    message = "spk1 has no mfcc codebook; every kind must enroll the same speakers"
    assert str(err.value) == f"{tmp_path / 'model'}: {message}"
    assert list(tmp_path.iterdir()) == []
    books += [train_codebook(matrix(rng.normal(size=(60, 3)), KIND_MFCC), 4, speaker_id=s) for s in ("spk1", "spk2")]
    save_model_dir(books, tmp_path / "model")
    everything = load_model_dir(tmp_path / "model")
    assert len(everything) == 6
    # in (kind, speaker) order, each codebook as it was saved
    assert [(cb.kind, cb.speaker_id) for cb in everything] == [
        (kind, spk) for kind in (KIND_MFCC, KIND_PSDCT) for spk in ("spk0", "spk1", "spk2")
    ]
    saved = {(cb.kind, cb.speaker_id): cb for cb in books}
    for cb in everything:
        assert np.array_equal(cb.centroids, saved[cb.kind, cb.speaker_id].centroids)
    assert json.loads((tmp_path / "model" / "manifest.json").read_text()) == {
        "version": 2, "codebooks": [f"spk{i}.{kind}.cb" for kind in (KIND_MFCC, KIND_PSDCT) for i in range(3)]
    }
    with pytest.raises(ValueError, match="manifest"):
        load_model_dir(tmp_path / "nothing-here")


def test_model_dir_without_a_manifest_is_named_without_a_stat(tmp_path, monkeypatch):
    (tmp_path / "empty").mkdir()
    (tmp_path / "file").write_text("")
    for name in ("empty", "missing", "file"):
        with monkeypatch.context() as patch, pytest.raises(ValueError) as err:
            patch.setattr(Path, "exists", lambda self: pytest.fail(f"exists({self}) was called"))
            load_model_dir(tmp_path / name)
        assert str(err.value) == f"{tmp_path / name}: no manifest.json; not a model directory"


def test_manifest_that_is_not_json_names_the_manifest(tmp_path):
    model = tmp_path / "model"
    save_model_dir([train_codebook(matrix(np.random.default_rng(4).normal(size=(20, 5))), 4, speaker_id="s")], model)
    manifest = model / "manifest.json"
    manifest.write_text('{"version": 1, "codebooks": [\n')
    with pytest.raises(ValueError, match=f"^{re.escape(str(manifest))}: not a valid JSON manifest: Expecting value"):
        load_model_dir(model)


def test_codebook_header_decides_speaker_and_kind(tmp_path):
    model = tmp_path / "model"
    mfcc = matrix(np.random.default_rng(5).normal(size=(20, 3)), KIND_MFCC)
    save_model_dir([train_codebook(mfcc, 4, speaker_id="spk00")], model)
    (model / "spk00.mfcc.cb").rename(model / "spk00.psdct.cb")
    (model / "manifest.json").write_text('{"version": 2, "codebooks": ["spk00.psdct.cb"]}')
    [cb] = load_model_dir(model)
    assert (cb.speaker_id, cb.kind) == ("spk00", KIND_MFCC)


def test_model_dir_rejects_two_codebooks_of_one_speaker_and_kind(tmp_path):
    model = tmp_path / "model"
    rng = np.random.default_rng(6)
    save_model_dir([train_codebook(matrix(rng.normal(size=(20, 3))), 4, speaker_id=s) for s in ("a", "b")], model)
    manifest = model / "manifest.json"
    (model / "copy.cb").write_bytes((model / "a.psdct.cb").read_bytes())
    for names in (["a.psdct.cb", "a.psdct.cb"], ["a.psdct.cb", "b.psdct.cb", "copy.cb"]):
        manifest.write_text(json.dumps({"version": 2, "codebooks": names}))
        with pytest.raises(ValueError) as err:
            load_model_dir(model)
        assert str(err.value) == f"{manifest}: two psdct codebooks of a: a.psdct.cb, {names[-1]}"


def test_model_dir_rejects_codebooks_of_one_kind_that_differ_in_width(tmp_path):
    model = tmp_path / "model"
    rng = np.random.default_rng(7)
    books = [train_codebook(matrix(rng.normal(size=(20, 15))), 4, speaker_id=s) for s in ("a", "b", "c")]
    books += [train_codebook(matrix(rng.normal(size=(20, 13)), KIND_MFCC), 4, speaker_id=s) for s in ("a", "b", "c")]
    save_model_dir(books, model)
    save_codebook(train_codebook(matrix(rng.normal(size=(20, 12))), 4, speaker_id="b"), model / "b.psdct.cb")
    with pytest.raises(ValueError) as err:
        load_model_dir(model)
    assert str(err.value) == (
        f"{model / 'manifest.json'}: psdct codebooks differ in width: a.psdct.cb has dim 15, b.psdct.cb has dim 12"
    )
    # the MFCC codebook's 13 columns are checked against MFCC codebooks alone
    (model / "manifest.json").write_text(json.dumps({"version": 2, "codebooks": ["a.mfcc.cb", "a.psdct.cb"]}))
    assert [cb.centroids.shape[1] for cb in load_model_dir(model)] == [13, 15]


def test_model_dir_rejects_a_manifest_entry_that_is_not_a_bare_file_name(tmp_path):
    rng = np.random.default_rng(10)
    other, model = tmp_path / "other", tmp_path / "model"
    save_model_dir([train_codebook(matrix(rng.normal(size=(20, 3))), 4, speaker_id="spk00")], other)
    save_model_dir([train_codebook(matrix(rng.normal(size=(20, 3))), 4, speaker_id="spk01")], model)
    (model / "sub").mkdir()
    (model / "sub" / "spk00.psdct.cb").write_bytes((other / "spk00.psdct.cb").read_bytes())
    manifest = model / "manifest.json"
    outside = ["../other/spk00.psdct.cb", str(other / "spk00.psdct.cb"), "sub/spk00.psdct.cb", "./spk01.psdct.cb"]
    for name in [*outside, ".", "..", ""]:
        manifest.write_text(json.dumps({"version": 2, "codebooks": ["spk01.psdct.cb", name]}))
        with pytest.raises(ValueError) as err:
            load_model_dir(model)
        assert str(err.value) == f"{manifest}: codebook entry 1 is not a file name"


@pytest.mark.parametrize("shapes, speakers, message", [
    ([(8, 3), (4, 3)], ["spk00", "spk00"], "two psdct codebooks of spk00: spk00.psdct.cb, spk00.psdct.cb"),
    ([(4, 3), (4, 2)], ["spk00", "spk01"], "psdct codebooks differ in width: spk00.psdct.cb has dim 3, spk01.psdct.cb has dim 2"),
    ([(8, 3), (4, 3)], ["spk00", "spk01"], "psdct codebooks differ in size: spk00.psdct.cb has 8 entries, spk01.psdct.cb has 4"),
    ([(4, 3)], ["../spk00"], "codebook entry 0 is not a file name"),
])
@pytest.mark.parametrize("exists", [False, True])
def test_save_model_dir_refuses_what_load_model_dir_would_before_writing(shapes, speakers, message, exists, tmp_path):
    rng = np.random.default_rng(12)
    books = [
        train_codebook(matrix(rng.normal(size=(20, dim))), k, speaker_id=spk) for (k, dim), spk in zip(shapes, speakers)
    ]
    model = tmp_path / "model"
    if exists:
        model.mkdir()
    with pytest.raises(ValueError) as err:
        save_model_dir(books, model)
    assert str(err.value) == f"{model}: {message}"
    assert sorted(tmp_path.rglob("*")) == ([model] if exists else [])


FIELDS = "must be in [-2**63, 2**63) and [0, 2**64)"


# "s\udcff" is what os.fsdecode gives a speaker directory named by the bytes b"s\xff"
@pytest.mark.parametrize("speaker, kind, seed, count, message", [
    ("s", KIND_PSDCT, 2**63, 1, f"seed 9223372036854775808 and vector count 1 {FIELDS}"),
    ("s", KIND_PSDCT, -(2**63) - 1, 1, f"seed -9223372036854775809 and vector count 1 {FIELDS}"),
    ("s", KIND_PSDCT, 1, 2**64, f"seed 1 and vector count 18446744073709551616 {FIELDS}"),
    ("s", KIND_PSDCT, 1, -1, f"seed 1 and vector count -1 {FIELDS}"),
    ("s\udcff", KIND_PSDCT, 1, 1, "kind and speaker id must be UTF-8 text, got 'psdct', 's\\udcff'"),
    ("s", "psdct\udcff", 1, 1, "kind and speaker id must be UTF-8 text, got 'psdct\\udcff', 's'"),
], ids=["seed-high", "seed-low", "count-high", "count-negative", "speaker-not-utf8", "kind-not-utf8"])
def test_a_codebook_its_file_cannot_hold_is_refused_before_writing(speaker, kind, seed, count, message, tmp_path):
    # the good codebook sorts first, so it would be written before the bad one
    good, bad = Codebook("a", KIND_PSDCT, np.ones((2, 2)), 1, 1), Codebook(speaker, kind, np.ones((2, 2)), seed, count)
    model = tmp_path / "model"
    with pytest.raises(ValueError) as err:
        save_model_dir([bad, good], model)
    assert str(err.value) == f"{model / f'{speaker}.{kind}.cb'}: {message}"
    with pytest.raises(ValueError) as err:
        save_codebook(bad, tmp_path / "bad.cb")
    assert str(err.value) == f"{tmp_path / 'bad.cb'}: {message}"
    assert list(tmp_path.iterdir()) == []


def reference_kmeanspp(data, k, seed):
    """k-means++ seeding with one rng.choice draw per step, which kmeanspp_seeds must match row for row."""
    rng = np.random.default_rng(seed)
    n = data.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = np.sum((data - data[chosen[0]]) ** 2, axis=1)
    for _ in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            raise ValueError(f"k={k} exceeds the {len(chosen)} distinct training vectors")
        idx = int(rng.choice(n, p=d2 / total))
        chosen.append(idx)
        d2 = np.minimum(d2, np.sum((data - data[idx]) ** 2, axis=1))
    return data[chosen]


@pytest.mark.parametrize("seed", [0, 7, 42])
@pytest.mark.parametrize("dim", [1, 2, 15, 40])
def test_kmeanspp_draw_matches_rng_choice_reference(seed, dim):
    # 60 distinct rows, most repeated up to 4 times, at mixed scales, in shuffled order
    rng = np.random.default_rng(100 * dim + seed)
    distinct = rng.normal(size=(60, dim)) * rng.choice([1e-3, 1.0, 1e3], size=(60, 1))
    data = rng.permutation(np.repeat(distinct, rng.integers(1, 5, size=60), axis=0))
    for k in (1, 2, 16, 59, 60):
        seeds = kmeanspp(data, k, seed)
        assert np.array_equal(seeds, reference_kmeanspp(data, k, seed))
    # past the 60 distinct rows the draw stops and returns them all; the reference raises
    seeds = kmeanspp(data, 61, seed)
    assert np.array_equal(seeds, reference_kmeanspp(data, 60, seed))
    with pytest.raises(ValueError, match=r"^k=61 exceeds the 60 distinct training vectors$"):
        reference_kmeanspp(data, 61, seed)


def mixed_scale_rows(seed, n, dim):
    """n rows at scales 1e-3, 1 and 1e3, a third of them repeated, in shuffled order."""
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n, dim)) * rng.choice([1e-3, 1.0, 1e3], size=(n, 1))
    return rng.permutation(np.concatenate([rows, rows[: n // 3]]))


@pytest.mark.parametrize("dim", [1, 15])
@pytest.mark.parametrize("k", [1, 128])
def test_lloyd_labels_are_the_brute_force_argmin_away_from_ties(monkeypatch, dim, k):
    # some centroids are data rows (two may be equal rows: an exact tie), the rest moved off them
    rng = np.random.default_rng(10 * dim + k)
    data = mixed_scale_rows(10 * dim + k, 150, dim)
    init = data[rng.choice(data.shape[0], size=k, replace=False)]
    init[1::2] += rng.normal(size=init[1::2].shape)
    labels = []
    argmin = np.argmin

    def spy(a, *args, **kwargs):
        out = argmin(a, *args, **kwargs)
        labels.append(out)
        return out

    monkeypatch.setattr(np, "argmin", spy)
    lloyd_kmeans(matrix(data), init)
    monkeypatch.undo()
    d2 = np.sum((data[:, None, :] - init[None, :, :]) ** 2, axis=2)
    if k == 1:
        assert np.array_equal(labels[0], np.zeros(data.shape[0], dtype=np.intp))
        return
    first, second = np.sort(d2, axis=1)[:, :2].T
    clear = second - first > 1e-9 * (np.sum(data**2, axis=1) + second)
    assert np.mean(clear) > 0.9
    assert np.array_equal(labels[0][clear], argmin(d2, axis=1)[clear])


def reference_lloyd(data, k, seed=42, tol=1e-6, max_iter=300, init=None):
    """The per-cell Lloyd loop that lloyd_kmeans must reproduce bit for bit."""
    n = data.shape[0]
    centroids = kmeanspp(data, k, seed) if init is None else init
    norms = np.sum(data**2, axis=1)
    scale = float(np.sqrt(np.mean(norms))) or 1.0
    history = []
    for _ in range(max_iter):
        # |x - c|^2 - |x|^2 as one product of [x | 1] with [-2c | |c|^2], then |x|^2 on the minima
        weights = np.hstack([-2.0 * centroids, np.sum(centroids**2, axis=1)[:, None]])
        shifted = np.hstack([data, np.ones((n, 1))]) @ weights.T
        labels = np.argmin(shifted, axis=1)
        history.append(float(np.mean(np.maximum(shifted[np.arange(n), labels] + norms, 0.0))))
        new_centroids = centroids.copy()
        for j in range(k):
            mask = labels == j
            if np.any(mask):
                new_centroids[j] = data[mask].mean(axis=0)
        empty = [j for j in range(k) if not np.any(labels == j)]
        if empty:
            point_d2 = np.sum((data - new_centroids[labels]) ** 2, axis=1)
            for j in empty:
                far = int(np.argmax(point_d2))
                new_centroids[j] = data[far]
                point_d2[far] = 0.0
        movement = float(np.max(np.sqrt(np.sum((new_centroids - centroids) ** 2, axis=1))))
        centroids = new_centroids
        if movement < tol * scale:
            break
    return centroids, history


@pytest.mark.parametrize("dim", [2, 3, 15, 40])
@pytest.mark.parametrize("k", [1, 4, 16, 128])
def test_lloyd_update_matches_per_cell_reference(dim, k):
    # a few well-separated blobs plus scale offsets, so sums are not all near zero
    rng = np.random.default_rng(1000 * dim + k)
    data = rng.normal(size=(400, dim)) + 5.0 * rng.integers(0, 6, size=(400, 1))
    centroids, history = lloyd_kmeans(matrix(data), kmeanspp(data, k))
    ref_centroids, ref_history = reference_lloyd(data, k, seed=42)
    assert np.array_equal(centroids, ref_centroids)
    assert history == ref_history


def test_lloyd_update_matches_reference_with_empty_cell():
    rng = np.random.default_rng(11)
    data = rng.normal(size=(300, 3))
    init = kmeanspp(data, 6)
    init[-1] = 1e3  # nearest to no point: its cell is empty after the first assignment
    centroids, history = lloyd_kmeans(matrix(data), init)
    ref_centroids, ref_history = reference_lloyd(data, 6, init=init)
    assert np.array_equal(centroids, ref_centroids)
    assert history == ref_history
    assert np.all(np.abs(centroids) < 1e3)  # the far centroid was re-seeded onto the data


def test_model_dir_rejects_codebooks_of_one_kind_that_differ_in_size(tmp_path):
    model = tmp_path / "model"
    rng = np.random.default_rng(8)
    books = [train_codebook(matrix(rng.normal(size=(40, 15))), 32, speaker_id=s) for s in ("a", "b", "c")]
    books += [train_codebook(matrix(rng.normal(size=(40, 13)), KIND_MFCC), 8, speaker_id=s) for s in ("a", "b", "c")]
    save_model_dir(books, model)
    # each kind of one size, the two kinds of two sizes, as a fused model may be
    assert [cb.centroids.shape[0] for cb in load_model_dir(model)] == [8] * 3 + [32] * 3
    save_codebook(train_codebook(matrix(rng.normal(size=(20, 15))), 4, speaker_id="b"), model / "b.psdct.cb")
    with pytest.raises(ValueError) as err:
        load_model_dir(model)
    assert str(err.value) == (
        f"{model / 'manifest.json'}: psdct codebooks differ in size: a.psdct.cb has 32 entries, b.psdct.cb has 4"
    )
    # a codebook that differs in both is named for its width, which is checked first
    save_codebook(train_codebook(matrix(rng.normal(size=(20, 12))), 4, speaker_id="b"), model / "b.psdct.cb")
    with pytest.raises(ValueError, match="psdct codebooks differ in width: a.psdct.cb has dim 15, b.psdct.cb has dim 12$"):
        load_model_dir(model)
