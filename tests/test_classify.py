import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spkid.classify import CmdScore, FusionWeights, cmd, fuse, identify
from spkid.psdct import KIND_MFCC, KIND_PSDCT, FeatureMatrix
from spkid.vq import Codebook


def fm(rows, kind=KIND_PSDCT):
    return FeatureMatrix(np.asarray(rows, dtype=np.float64), kind)


def book(centroids, speaker="s", kind=KIND_PSDCT):
    centroids = np.asarray(centroids, dtype=np.float64)
    return Codebook(speaker, kind, centroids, 42, 10)


def test_cmd_zero_when_vectors_hit_centroids():
    cb = book([[0.0, 0.0], [1.0, 1.0]])
    score = cmd(fm([[0.0, 0.0], [1.0, 1.0]]), cb)
    assert score.cmd == pytest.approx(0.0, abs=1e-12)
    assert score.n_vectors == 2


def test_cmd_takes_nearest_centroid():
    # ||v-c1|| = 3, ||v-c2|| = 5
    cb = book([[3.0, 0.0], [0.0, 5.0]])
    score = cmd(fm([[0.0, 0.0]]), cb)
    assert score.cmd == pytest.approx(3.0, abs=1e-12)


def test_cmd_matches_brute_force():
    rng = np.random.default_rng(0)
    vecs = fm(rng.normal(size=(50, 15)))
    cb = book(rng.normal(size=(8, 15)))
    expected = sum(
        min(float(np.sqrt(np.sum((v.values - c) ** 2))) for c in cb.centroids) for v in vecs
    )
    assert cmd(vecs, cb).cmd == pytest.approx(expected, abs=1e-9)


def test_codebook_scoring_terms_are_cached_and_read_only():
    rng = np.random.default_rng(1)
    cb = book(rng.normal(size=(8, 15)))
    assert np.array_equal(cb.sq_norms, np.sum(cb.centroids**2, axis=1))
    assert cb.sq_norms is cb.sq_norms
    with pytest.raises(ValueError, match="read-only"):
        cb.sq_norms[0] = 0.0


@pytest.mark.parametrize("dim", [1, 15])
@pytest.mark.parametrize("k", [1, 128])
def test_cmd_matches_brute_force_on_mixed_scales_with_vectors_on_centroids(dim, k):
    # rows at scales 1e-3, 1 and 1e3, a third of them repeated; half the centroids are rows, so
    # some nearest distances are a rounding residue, which the tolerance of tests/test_golden.py
    # (1e-9 relative, plus 1e-7 per unit of test-vector norm) covers
    rng = np.random.default_rng(10 * dim + k)
    rows = rng.normal(size=(150, dim)) * rng.choice([1e-3, 1.0, 1e3], size=(150, 1))
    data = rng.permutation(np.concatenate([rows, rows[:50]]))
    centroids = data[rng.choice(data.shape[0], size=k, replace=False)]
    centroids[1::2] += rng.normal(size=centroids[1::2].shape)
    expected = np.sum(np.min(np.sqrt(np.sum((data[:, None, :] - centroids[None]) ** 2, axis=2)), axis=1))
    norm_sum = np.sum(np.sqrt(np.sum(data**2, axis=1)))
    assert math.isclose(cmd(fm(data), book(centroids)).cmd, expected, rel_tol=1e-9, abs_tol=1e-7 * norm_sum)


def test_cmd_validates_inputs():
    cb = book([[0.0, 0.0]])
    with pytest.raises(ValueError):
        cmd(fm(np.zeros((0, 2))), cb)
    with pytest.raises(ValueError, match="kind"):
        cmd(fm([[1.0, 2.0]], KIND_MFCC), cb)
    with pytest.raises(ValueError, match="imension"):
        cmd(fm([[1.0, 2.0, 3.0]]), cb)


@given(st.lists(st.lists(st.floats(-50.0, 50.0), min_size=3, max_size=3), min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_cmd_monotone_under_appending(rows):
    rng = np.random.default_rng(1)
    cb = book(rng.normal(size=(4, 3)))
    partial = cmd(fm(rows), cb).cmd
    extended = cmd(fm(rows + [[1.0, 2.0, 3.0]]), cb).cmd
    assert extended >= partial - 1e-12


def test_identify_single_speaker():
    cb = book([[0.0, 0.0]], speaker="only")
    ranked, predicted = identify(fm([[5.0, 5.0]]), [cb])
    assert predicted == "only"
    assert len(ranked) == 1


def test_identify_exact_match_wins():
    a = book([[0.0, 0.0], [1.0, 0.0]], speaker="a")
    b = book([[5.0, 5.0], [6.0, 5.0]], speaker="b")
    ranked, predicted = identify(fm([[0.0, 0.0], [1.0, 0.0]]), [a, b])
    assert predicted == "a"
    assert ranked[0].cmd == pytest.approx(0.0, abs=1e-12)
    assert ranked[0].cmd <= ranked[1].cmd


def test_identify_breaks_ties_lexicographically():
    same = [[1.0, 1.0]]
    ranked, predicted = identify(fm([[0.0, 0.0]]), [book(same, speaker="zeta"), book(same, speaker="alpha")])
    assert predicted == "alpha"
    assert [s.speaker_id for s in ranked] == ["alpha", "zeta"]


def test_identify_rejects_mixed_kinds():
    with pytest.raises(ValueError, match="kind"):
        identify(fm([[0.0]]), [book([[0.0]]), book([[0.0]], kind=KIND_MFCC)])
    with pytest.raises(ValueError):
        identify(fm([[0.0]]), [])


def test_fusion_weights_alpha():
    assert FusionWeights(0.5, 0.5).alpha == pytest.approx(0.5)
    # equal measured accuracies give an even split
    assert FusionWeights(0.967, 0.967).alpha == pytest.approx(0.5)
    assert FusionWeights(0.9, 0.3).alpha == pytest.approx(0.75)
    with pytest.raises(ValueError):
        FusionWeights(0.0, 0.0)
    with pytest.raises(ValueError):
        FusionWeights(1.2, 0.5)


def scores_of(values, kind):
    return [CmdScore(f"spk{i}", kind, v, 10) for i, v in enumerate(values)]


def test_fuse_combines_convexly():
    dct = scores_of([1.0, 3.0], KIND_PSDCT)
    mf = scores_of([4.0, 1.0], KIND_MFCC)
    fused, predicted = fuse(dct, mf, FusionWeights(0.5, 0.5))
    by_spk = {f.speaker_id: f.d_com for f in fused}
    assert by_spk["spk0"] == pytest.approx(2.5)
    assert by_spk["spk1"] == pytest.approx(2.0)
    assert predicted == "spk1"


def test_fuse_shared_strict_argmin_preserved_for_all_alpha():
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(2, 10))
        winner = int(rng.integers(n))
        d = rng.uniform(1.0, 2.0, size=n)
        m = rng.uniform(1.0, 2.0, size=n)
        d[winner] = m[winner] = 0.5
        for t in np.linspace(0.0, 1.0, 11):
            weights = FusionWeights(float(t), float(1.0 - t))
            _, predicted = fuse(scores_of(d, KIND_PSDCT), scores_of(m, KIND_MFCC), weights)
            assert predicted == f"spk{winner}"


def test_fuse_argmin_invariant_under_common_scaling():
    rng = np.random.default_rng(3)
    d = rng.uniform(1.0, 5.0, size=6)
    m = rng.uniform(1.0, 5.0, size=6)
    weights = FusionWeights(0.7, 0.3)
    _, before = fuse(scores_of(d, KIND_PSDCT), scores_of(m, KIND_MFCC), weights)
    _, after = fuse(scores_of(d * 37.0, KIND_PSDCT), scores_of(m * 37.0, KIND_MFCC), weights)
    assert before == after


def test_fuse_speaker_set_mismatch():
    with pytest.raises(ValueError, match="speaker sets"):
        fuse(scores_of([1.0], KIND_PSDCT), scores_of([1.0, 2.0], KIND_MFCC), FusionWeights(0.5, 0.5))

