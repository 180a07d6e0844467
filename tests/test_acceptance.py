"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import os
import time

import numpy as np
import pytest

from spkid.classify import CmdScore, FusionWeights, cmd, fuse
from spkid.corpus import extract_voiced_regions, load_corpus, max_period, min_period
from spkid.evaluate import ExperimentConfig, collect_cycles, run_experiment
from spkid.gci import PitchCycle, cycles_from_region, detect_gci
from spkid.psdct import KIND_MFCC, KIND_PSDCT, FeatureMatrix, dct2, mec, normalize_energy, psdct_feature
from spkid.vq import Codebook, kmeanspp_seeds, lloyd_kmeans, save_codebook, train_codebook

VOICED = ExperimentConfig().effective_voiced_set()


def report(n, text):
    print(f"\n[criterion {n}] PASS - {text}")


def seeded_lloyd(data, k, seed):
    """Lloyd's k-means from the k-means++ seeds that ``train_codebook`` draws."""
    return lloyd_kmeans(features := FeatureMatrix(data, KIND_PSDCT), kmeanspp_seeds(features, k, seed))


def dct_via_dft(x):
    """Stated oracle: DFT of the even-symmetric 2M-length extension."""
    x = np.asarray(x, dtype=np.float64)
    m = x.size
    spectrum = np.fft.fft(np.concatenate([x, x[::-1]]))
    k = np.arange(m)
    raw = 0.5 * np.real(np.exp(-1j * np.pi * k / (2 * m)) * spectrum[:m])
    scale = np.full(m, np.sqrt(2.0 / m))
    scale[0] = np.sqrt(1.0 / m)
    return scale * raw


def test_criterion_1_dct_oracle_equivalence():
    rng = np.random.default_rng(100)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(40, 268))
        x = rng.normal(size=m)
        worst = max(worst, float(np.max(np.abs(dct2(x) - dct_via_dft(x)))))
    elapsed = time.perf_counter() - start
    assert worst < 1e-6
    assert elapsed < 5.0
    report(1, f"1000 frames, max |dct2 - dft oracle| = {worst:.3g} in {elapsed:.2f}s")


def test_criterion_2_parseval_and_normalization():
    rng = np.random.default_rng(200)
    worst_parseval = 0.0
    for _ in range(10_000):
        m = int(rng.integers(40, 268))
        x = rng.normal(size=m)
        energy = float(np.dot(x, x))
        c = dct2(x)
        worst_parseval = max(worst_parseval, abs(float(np.dot(c, c)) - energy) / energy)
        u = normalize_energy(x)
        assert abs(float(np.dot(u, u)) - 1.0) <= 1e-9
    assert worst_parseval <= 1e-9

    worst_scale = 0.0
    for _ in range(100):
        m = int(rng.integers(41, 268))
        x = rng.normal(size=m)
        cyc = PitchCycle(x, 0, m, "a")
        scaled = PitchCycle(float(rng.uniform(0.1, 50.0)) * x, 0, m, "b")
        diff = psdct_feature(cyc, 15).values - psdct_feature(scaled, 15).values
        worst_scale = max(worst_scale, float(np.max(np.abs(diff))))
    assert worst_scale < 1e-9
    report(2, f"10,000 frames, worst Parseval residual {worst_parseval:.3g}, "
              f"scale-invariance gap {worst_scale:.3g}")


def test_criterion_3_mec_monotonicity(corpus12):
    cycles = []
    for utt in corpus12:
        cycles.extend(collect_cycles([utt], VOICED))
        if len(cycles) >= 600:
            break
    cycles = [c for c in cycles if len(c) > 40][:600]
    assert len(cycles) >= 500
    ks = (10, 15, 20, 25, 30, 35, 40)
    values = [mec(cycles, k) for k in ks]
    assert all(v <= 1.0 for v in values)
    assert all(b >= a for a, b in zip(values, values[1:]))
    report(3, f"{len(cycles)} cycles, MEC {values[0]*100:.1f}% -> {values[-1]*100:.1f}% over K={ks}")


def test_criterion_4_gci_accuracy_and_cycle_contracts(corpus12):
    lo, hi = min_period(16000), max_period(16000)
    distances = []
    n_cycles = 0
    for utt in corpus12:
        for region in extract_voiced_regions(utt, VOICED):
            epochs = detect_gci(region)
            truth = utt.impulses - region.source_offset
            truth = truth[(truth >= 0) & (truth < len(region))]
            if len(epochs) and truth.size:
                distances.extend(
                    np.min(np.abs(epochs.positions[:, None] - truth[None, :]), axis=1).tolist()
                )
            for cycle in cycles_from_region(region):
                n_cycles += 1
                assert lo <= len(cycle) <= hi
                for endpoint in (cycle.start_peak, cycle.end_peak):
                    v = region.samples[endpoint]
                    if endpoint > 0:
                        assert v >= region.samples[endpoint - 1]
                    if endpoint + 1 < len(region):
                        assert v >= region.samples[endpoint + 1]
    distances = np.asarray(distances)
    hit = float(np.mean(distances <= 4))
    assert hit >= 0.95
    report(4, f"{distances.size} epochs, {hit*100:.2f}% within 4 samples; "
              f"{n_cycles} cycles all in [{lo}, {hi}] with extremal endpoints")


def test_criterion_5_kmeans_suite(tmp_path):
    # monotone distortion on assorted runs (also asserted inside training)
    rng = np.random.default_rng(500)
    for seed in range(4):
        _, history = seeded_lloyd(rng.normal(size=(400, 10)), 12, seed=seed)
        assert all(b <= a + 1e-12 * (1.0 + a) for a, b in zip(history, history[1:]))

    # 4-blob recovery vs the frozen 50-restart oracle (see test_vq.py)
    blob_rng = np.random.default_rng(1234)
    centers = np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0], [8.0, 8.0]])
    data = np.concatenate([c + blob_rng.normal(scale=0.6, size=(50, 2)) for c in centers])
    oracle = 0.7610185291089583
    centroids, _ = seeded_lloyd(data, 4, seed=42)
    d2 = ((data[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    achieved = float(d2.min(axis=1).mean())
    assert achieved <= 1.05 * oracle

    # fixed seed -> bit-identical codebook files
    vecs = FeatureMatrix(rng.normal(size=(300, 15)), KIND_PSDCT)
    for i in (1, 2):
        save_codebook(train_codebook(vecs, 16, seed=42, speaker_id="s"), tmp_path / f"{i}.cb")
    assert (tmp_path / "1.cb").read_bytes() == (tmp_path / "2.cb").read_bytes()
    report(5, f"blob distortion {achieved:.6f} vs oracle {oracle:.6f} "
              f"({achieved/oracle:.4f}x); codebook files bit-identical")


def test_criterion_6_end_to_end_synthetic_identification(corpus12):
    start = time.perf_counter()
    config = ExperimentConfig(codebook_sizes=(16,), n_coeffs=15, seed=42)
    result = run_experiment(config, utterances=corpus12)
    elapsed = time.perf_counter() - start
    acc_dct = result.accuracies[KIND_PSDCT][16]
    acc_mfcc = result.accuracies[KIND_MFCC][16]
    acc_fused = result.accuracies["fused"][16]
    assert acc_dct >= 11 / 12
    assert acc_mfcc >= 11 / 12
    assert acc_fused >= max(acc_dct, acc_mfcc)
    assert elapsed < 60.0
    report(6, f"12 speakers @ size 16: psdct {acc_dct*12:.0f}/12, mfcc {acc_mfcc*12:.0f}/12, "
              f"fused {acc_fused*12:.0f}/12 in {elapsed:.1f}s")


def test_criterion_7_fusion_properties():
    assert FusionWeights(0.967, 0.967).alpha == pytest.approx(0.5, abs=1e-12)

    rng = np.random.default_rng(700)
    alphas = np.linspace(0.0, 1.0, 11)
    for _ in range(1000):
        n = int(rng.integers(2, 12))
        winner = int(rng.integers(n))
        d = rng.uniform(1.0, 3.0, size=n)
        m = rng.uniform(1.0, 3.0, size=n)
        d[winner] = m[winner] = rng.uniform(0.0, 0.9)
        s_d = [CmdScore(f"spk{i:02d}", KIND_PSDCT, float(v), 5) for i, v in enumerate(d)]
        s_m = [CmdScore(f"spk{i:02d}", KIND_MFCC, float(v), 5) for i, v in enumerate(m)]
        for t in alphas:
            _, predicted = fuse(s_d, s_m, FusionWeights(float(t), float(1.0 - t)))
            assert predicted == f"spk{winner:02d}"

    worst = 0.0
    for _ in range(20):
        vecs = FeatureMatrix(rng.normal(size=(50, 15)), KIND_PSDCT)
        cents = rng.normal(size=(8, 15))
        cb = Codebook("s", KIND_PSDCT, cents, 42, 50)
        brute = sum(
            min(float(np.sqrt(np.sum((v.values - c) ** 2))) for c in cents) for v in vecs
        )
        worst = max(worst, abs(cmd(vecs, cb).cmd - brute))
    assert worst < 1e-9
    report(7, f"alpha symmetry, 1000 shared-argmin score pairs x 11 alphas, "
              f"cmd brute-force gap {worst:.2g}")


@pytest.mark.skipif("TIMIT_ROOT" not in os.environ, reason="licensed TIMIT corpus not available")
def test_criterion_8_timit_protocol():
    from spkid.corpus import UnsupportedWavError

    try:
        utterances = load_corpus(os.environ["TIMIT_ROOT"])
    except UnsupportedWavError as exc:
        pytest.skip(f"TIMIT wavs need conversion: {exc}")
    config = ExperimentConfig(codebook_sizes=(16, 32, 64, 128), seed=42)
    result = run_experiment(config, utterances=utterances)
    print(result.to_markdown())  # side-by-side with the reference table
    n = len(result.speakers)
    assert n == 30
    assert result.accuracies[KIND_PSDCT][32] >= 27 / 30
    assert result.accuracies[KIND_MFCC][32] >= 27 / 30
    fused32 = result.accuracies["fused"][32]
    assert fused32 >= max(result.accuracies[KIND_PSDCT][32], result.accuracies[KIND_MFCC][32])
    report(8, f"30-speaker protocol at size 32: psdct {result.accuracies[KIND_PSDCT][32]*100:.1f}%, "
              f"mfcc {result.accuracies[KIND_MFCC][32]*100:.1f}%, fused {fused32*100:.1f}%")
