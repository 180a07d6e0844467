import dataclasses
import io
import logging

import numpy as np
import pytest
import scipy.fft

import spkid.evaluate as evaluate
from spkid.classify import identify
from spkid.corpus import PhoneSegment, Utterance, extract_voiced_regions, load_corpus, save_corpus, split_speakers
from spkid.evaluate import (
    ExperimentConfig,
    collect_cycles,
    psdct_features,
    run_experiment,
    score_report,
    split_features,
    sweep_coefficients,
    sweep_to_markdown,
    train_codebooks,
    write_sweep_csv,
)
from spkid.psdct import KIND_PSDCT, FeatureMatrix
from spkid.synth import synth_corpus
from spkid.vq import save_codebook, train_codebook


@pytest.fixture(scope="module")
def corpus6():
    return synth_corpus(6, 8, seed=21)


@pytest.fixture(scope="module")
def corpus8k():
    return synth_corpus(4, 5, seed=3, sample_rate=8000)


@pytest.fixture(scope="module")
def report6(corpus6):
    return run_experiment(ExperimentConfig(codebook_sizes=(8, 16), seed=42), utterances=corpus6)


@pytest.fixture(scope="module")
def steps8k(corpus8k):
    """The report's steps on corpus8k up to scoring: (config, test matrices, codebooks)."""
    config = ExperimentConfig(codebook_sizes=(4, 8), n_train=3, n_test=2)
    splits = split_speakers(corpus8k, config.n_train, config.n_test)
    test = split_features(splits, config, "test")
    return config, test, train_codebooks(split_features(splits, config, "training"), config)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(codebook_sizes=())
    with pytest.raises(ValueError):
        ExperimentConfig(codebook_sizes=(0,))
    with pytest.raises(ValueError):
        ExperimentConfig(coeff_counts=())
    with pytest.raises(ValueError):
        ExperimentConfig(kinds=())
    with pytest.raises(ValueError, match="n_coeffs"):
        ExperimentConfig(n_coeffs=0)
    with pytest.raises(ValueError, match="^sweep_codebook_size must be >= 1$"):
        ExperimentConfig(sweep_codebook_size=0)
    with pytest.raises(ValueError, match="^codebook_sizes must list each value once, got 8,16,8$"):
        ExperimentConfig(codebook_sizes=(8, 16, 8))
    with pytest.raises(ValueError, match="^coeff_counts must list each value once, got 10,10$"):
        ExperimentConfig(coeff_counts=(10, 10))
    with pytest.raises(ValueError, match="^kinds must list each value once, got psdct,mfcc,psdct$"):
        ExperimentConfig(kinds=("psdct", "mfcc", "psdct"))
    with pytest.raises(ValueError, match="^kinds must each be psdct or mfcc, got fused$"):
        ExperimentConfig(kinds=("fused",))
    with pytest.raises(ValueError, match="^kinds must each be psdct or mfcc, got psdct,mfc$"):
        ExperimentConfig(kinds=("psdct", "mfc"))
    # frozen, so no field escapes the checks by assignment after construction
    c = ExperimentConfig(codebook_sizes=(4,))
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.codebook_sizes = (4, 4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.kinds = ("psdct", "mfc")
    with pytest.raises(ValueError, match="^codebook_sizes must list each value once, got 4,4$"):
        dataclasses.replace(c, codebook_sizes=(4, 4))


def test_config_keeps_copies_of_the_lists_it_checked():
    sizes, kinds, voiced = [16, 32], ["psdct"], {"aa"}
    c = ExperimentConfig(codebook_sizes=sizes, coeff_counts=[10], kinds=kinds, voiced_set=voiced)
    sizes.append(0)
    kinds.append("fused")
    voiced.add("zz")
    assert c.codebook_sizes == (16, 32) and c.coeff_counts == (10,) and c.kinds == ("psdct",)
    assert c.voiced_set == frozenset({"aa"}) and isinstance(c.voiced_set, frozenset)
    assert hash(c) == hash(ExperimentConfig(codebook_sizes=(16, 32), coeff_counts=(10,), kinds=("psdct",),
                                            voiced_set=frozenset({"aa"})))


def test_config_rejects_a_string_as_the_voiced_set():
    # frozenset("aa") is {"a"}: a lone label must not become a set of its characters
    with pytest.raises(ValueError, match="^voiced_set must be a collection of phone labels, not the string 'aa'$"):
        ExperimentConfig(voiced_set="aa")
    assert ExperimentConfig(voiced_set=["aa"]).voiced_set == frozenset({"aa"})


def test_default_voiced_set_stops_at_the_timit_v_fricative():
    phones = [(0, 1000, "h#"), (1000, 2000, "iy"), (2000, 3000, "v"), (3000, 5000, "ah"), (5000, 6000, "h#")]
    utt = Utterance(np.zeros(6000), 16000, "s", "u", segments=[PhoneSegment(*p) for p in phones])
    regions = extract_voiced_regions(utt, ExperimentConfig().effective_voiced_set())
    assert [(r.source_offset, r.source_offset + len(r)) for r in regions] == [(1000, 2000), (3000, 5000)]


def test_accuracies_and_fusion_present(report6):
    for kind in ("psdct", "mfcc", "fused"):
        assert set(report6.accuracies[kind]) == {8, 16}
        for acc in report6.accuracies[kind].values():
            assert 0.0 <= acc <= 1.0
    assert report6.accuracies["psdct"][16] >= 5 / 6
    assert report6.accuracies["mfcc"][16] >= 5 / 6
    for size in (8, 16):
        top = max(report6.accuracies["psdct"][size], report6.accuracies["mfcc"][size])
        assert report6.accuracies["fused"][size] >= top - 1e-12
    assert set(report6.alphas) == {8, 16}


def test_report_internal_consistency(report6):
    trials = [t for t in report6.trials if t.kind == "psdct" and t.codebook_size == 16]
    assert len(trials) == 6
    for t in trials:
        assert t.predicted == t.scores[0][0]
        ranks = [s[1] for s in t.scores]
        assert ranks == sorted(ranks)
        assert t.n_vectors > 0


def test_experiment_is_deterministic(corpus6):
    config = ExperimentConfig(codebook_sizes=(8,), seed=42)
    a = run_experiment(config, utterances=corpus6)
    b = run_experiment(config, utterances=corpus6)
    assert a == b


def test_markdown_and_csv_outputs(report6):
    md = report6.to_markdown()
    assert "| codebook size |" in md
    assert "Reference (30-speaker TIMIT protocol" in md
    buf = io.StringIO()
    report6.write_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0].startswith("test_speaker,kind,codebook_size,rank")
    # one row per candidate per trial: (2 kinds * 2 sizes + fused * 2 sizes) * 6 speakers * 6 candidates
    assert len(lines) - 1 == 6 * 6 * 6


@pytest.mark.parametrize("kinds, header", [
    (("psdct",), "- feature dim: 12 (psdct)"),
    (("mfcc",), "- feature dim: 13 (mfcc)"),
    (("psdct", "mfcc"), "- feature dim: 12 (psdct), 13 (mfcc)"),
], ids=["psdct", "mfcc", "fused"])
def test_report_header_names_the_dim_of_each_kind_it_scored(corpus8k, kinds, header):
    config = ExperimentConfig(codebook_sizes=(4,), n_train=3, n_test=2, n_coeffs=12, kinds=kinds)
    lines = run_experiment(config, utterances=corpus8k).to_markdown().splitlines()
    assert [line for line in lines if line.startswith("- feature dim:")] == [header]


def test_collect_features_without_voiced_regions_gives_empty_matrices(corpus8k):
    config = ExperimentConfig(n_coeffs=12, voiced_set=frozenset({"no-such-phone"}))
    feats = evaluate.collect_features(corpus8k[:2], config)
    assert list(feats) == ["psdct", "mfcc"]
    assert [(m.dtype, m.shape) for m in feats.values()] == [(np.float64, (0, 12)), (np.float64, (0, 13))]


def test_features_of_a_saved_and_loaded_corpus_equal_those_of_the_corpus_in_memory(tmp_path):
    utterances = synth_corpus(4, 8, seed=5, sample_rate=8000)
    save_corpus(utterances, tmp_path)
    config = ExperimentConfig()
    in_memory = evaluate.collect_features(utterances, config)
    loaded = evaluate.collect_features(load_corpus(tmp_path), config)
    assert list(loaded) == list(in_memory) == ["psdct", "mfcc"]
    for kind, rows in in_memory.items():
        assert rows.shape[0] > 0 and loaded[kind].shape == rows.shape
        assert (loaded[kind] == rows).all(), kind


def test_speaker_with_too_few_utterances_is_named():
    utts = synth_corpus(2, 8, seed=3)
    short = [u for u in utts if not (u.speaker_id == "spk01" and u.utterance_id == "u07")]
    with pytest.raises(Exception, match="spk01"):
        run_experiment(ExperimentConfig(codebook_sizes=(8,)), utterances=short)


def test_sweep_mec_monotone_and_accuracy_plateau(corpus6):
    config = ExperimentConfig(coeff_counts=(10, 15, 20, 25), sweep_codebook_size=16, seed=42)
    rows = sweep_coefficients(config, utterances=corpus6)
    assert [r.n_coeffs for r in rows] == [10, 15, 20, 25]
    mecs = [r.mec_total for r in rows]
    assert all(b >= a - 1e-12 for a, b in zip(mecs, mecs[1:]))
    assert all(0.0 <= m <= 1.0 for m in mecs)
    assert all(r.mec_ac >= r.mec_total - 1e-12 for r in rows)
    # accuracy holds up once enough coefficients are kept (within one trial)
    one_trial = 1.0 / 6.0
    for r in rows[1:]:
        assert r.accuracy >= rows[0].accuracy - one_trial - 1e-12

    md = sweep_to_markdown(rows, 16)
    assert "MEC" in md and "Reference" in md
    buf = io.StringIO()
    write_sweep_csv(buf, rows)
    assert len(buf.getvalue().strip().splitlines()) == 5


def psdct_matrix(cycles, k):
    return FeatureMatrix(np.stack([f.values for f in psdct_features(cycles, k)]), KIND_PSDCT)


def reference_sweep(config, utterances):
    """(K, mec_total, mec_ac, accuracy) with features, codebooks and scores recomputed for each K."""
    voiced = config.effective_voiced_set()
    splits = split_speakers(utterances, config.n_train, config.n_test)
    max_k = max(config.coeff_counts)
    train = {s.speaker_id: [c for c in collect_cycles(s.train_utterances, voiced) if len(c) > max_k] for s in splits}
    test = {s.speaker_id: [c for c in collect_cycles(s.test_utterances, voiced) if len(c) > max_k] for s in splits}
    energies = [
        scipy.fft.dct(x / np.linalg.norm(x), type=2, norm="ortho") ** 2
        for cycles in train.values()
        for x in (c.samples.astype(np.float64) for c in cycles)
    ]
    rows = []
    for k in sorted(config.coeff_counts):
        codebooks = [
            train_codebook(psdct_matrix(cycles, k), config.sweep_codebook_size, seed=config.seed, speaker_id=spk)
            for spk, cycles in train.items()
        ]
        correct = sum(identify(psdct_matrix(cycles, k), codebooks)[1] == spk for spk, cycles in test.items())
        mec_total = np.mean([c2[1 : k + 1].sum() / c2.sum() for c2 in energies])
        mec_ac = np.mean([c2[1 : k + 1].sum() / c2[1:].sum() for c2 in energies])
        rows.append((k, mec_total, mec_ac, correct / len(splits)))
    return rows


@pytest.mark.parametrize("sample_rate", [16000, 48000])
def test_sweep_matches_per_k_reference(sample_rate):
    utterances = synth_corpus(4, 5, seed=11, sample_rate=sample_rate)
    config = ExperimentConfig(n_train=3, n_test=2, coeff_counts=(10, 25, 40), sweep_codebook_size=8, seed=3)
    rows = sweep_coefficients(config, utterances=utterances)
    ref = reference_sweep(config, utterances)
    assert [r.n_coeffs for r in rows] == [k for k, _, _, _ in ref]
    for r, (_, mec_total, mec_ac, accuracy) in zip(rows, ref):
        assert r.accuracy == accuracy
        assert abs(r.mec_total - mec_total) < 1e-12
        assert abs(r.mec_ac - mec_ac) < 1e-12


def test_collect_cycles_counts(corpus6):
    voiced = ExperimentConfig().effective_voiced_set()
    cycles = collect_cycles(corpus6[:2], voiced)
    assert len(cycles) > 100
    assert all(len(c) >= 40 for c in cycles)


def test_8khz_smoke(corpus8k):
    config = ExperimentConfig(codebook_sizes=(8, 16), coeff_counts=(10, 20), n_train=3, n_test=2)
    report = run_experiment(config, utterances=corpus8k)
    for kind in ("psdct", "mfcc"):
        assert set(report.accuracies[kind]) == {8, 16}
    assert all(0.0 <= acc <= 1.0 for by_size in report.accuracies.values() for acc in by_size.values())
    rows = sweep_coefficients(config, utterances=corpus8k)
    assert [r.n_coeffs for r in rows] == [10, 20]
    assert all(0.0 <= r.accuracy <= 1.0 for r in rows)


def test_train_codebooks_seeds_once_per_speaker_at_the_largest_size(tmp_path, monkeypatch, call_log):
    rng = np.random.default_rng(17)
    speakers = ["a", "b", "c"]
    train = {
        (spk, KIND_PSDCT): FeatureMatrix(rng.normal(size=(300, 15)) + 4.0 * i, KIND_PSDCT)
        for i, spk in enumerate(speakers)
    }
    draws = call_log  # the seeds may be drawn in forked workers
    plain_seeds = evaluate.kmeanspp_seeds

    def counted_seeds(vectors, k, seed):
        draws.append(k)
        return plain_seeds(vectors, k, seed)

    monkeypatch.setattr(evaluate, "kmeanspp_seeds", counted_seeds)
    sizes = (32, 16, 128, 64)
    books = train_codebooks(train, ExperimentConfig(codebook_sizes=sizes, seed=9, kinds=(KIND_PSDCT,)))[KIND_PSDCT]
    assert draws.read() == [128] * len(speakers)
    assert list(books) == list(sizes)
    for size in sizes:
        assert [cb.speaker_id for cb in books[size]] == speakers
        for cb in books[size]:
            alone = train_codebook(train[cb.speaker_id, KIND_PSDCT], size, seed=9, speaker_id=cb.speaker_id)
            save_codebook(cb, tmp_path / "shared.cb")
            save_codebook(alone, tmp_path / "alone.cb")
            assert (tmp_path / "shared.cb").read_bytes() == (tmp_path / "alone.cb").read_bytes()
    seeds = plain_seeds(train["a", KIND_PSDCT], 16, 9)
    with pytest.raises(ValueError, match=r"^init has shape \(8, 15\), expected \(16, 15\)$"):
        train_codebook(train["a", KIND_PSDCT], 16, seed=9, init=seeds[:8])


def test_oversized_codebooks_fail_before_any_training(corpus8k, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("a codebook was trained before the size check")

    monkeypatch.setattr(evaluate, "train_codebook", no_training)
    speakers = sorted({u.speaker_id for u in corpus8k})

    config = ExperimentConfig(codebook_sizes=(8, 5000, 6000), n_train=3, n_test=2)
    with pytest.raises(ValueError, match="exceed the distinct training vectors") as err:
        run_experiment(config, utterances=corpus8k)
    for spk in speakers:
        for kind in ("psdct", "mfcc"):
            assert f"{spk} {kind} k=5000,6000 (" in str(err.value)
    assert "k=8" not in str(err.value)

    config = ExperimentConfig(coeff_counts=(10, 20), sweep_codebook_size=5000, n_train=3, n_test=2)
    with pytest.raises(ValueError, match="exceed the distinct training vectors") as err:
        sweep_coefficients(config, utterances=corpus8k)
    for spk in speakers:
        assert f"{spk} psdct k=5000 (" in str(err.value)


def test_sweep_names_speaker_without_cycles_longer_than_the_largest_k(corpus8k):
    # at 8 kHz a pitch cycle is at most 8000 / 60 = 133 samples long
    config = ExperimentConfig(coeff_counts=(10, 200), n_train=3, n_test=2)
    with pytest.raises(ValueError, match="^speaker spk00: no psdct training vectors$"):
        sweep_coefficients(config, utterances=corpus8k)


def test_sweep_names_speaker_without_test_vectors_before_training(monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("a codebook was trained before the test vectors were checked")

    monkeypatch.setattr(evaluate, "kmeanspp_seeds", no_training)
    monkeypatch.setattr(evaluate, "train_codebook", no_training)
    utts = synth_corpus(4, 8, seed=5)
    (split,) = [s for s in split_speakers(utts) if s.speaker_id == "spk00"]
    unvoiced = {id(u) for u in split.test_utterances}
    utts = [
        dataclasses.replace(u, segments=[PhoneSegment(0, u.samples.size, "h#")]) if id(u) in unvoiced else u
        for u in utts
    ]
    with pytest.raises(ValueError, match="^speaker spk00: no psdct test vectors$"):
        sweep_coefficients(ExperimentConfig(coeff_counts=(10, 15), sweep_codebook_size=8), utterances=utts)


def test_run_experiment_rejects_split_counts_below_one(corpus8k):
    # n_train=-2 used to train on rest[:-2]; n_test=0 used to blame the data
    with pytest.raises(ValueError, match="^n_train must be >= 1, got -2$"):
        run_experiment(ExperimentConfig(n_train=-2, codebook_sizes=(8,)), utterances=corpus8k)
    with pytest.raises(ValueError, match="^n_test must be >= 1, got 0$"):
        run_experiment(ExperimentConfig(n_test=0, codebook_sizes=(8,)), utterances=corpus8k)


def test_each_utterance_read_once(corpus8k, monkeypatch, call_log):
    calls = call_log  # counted in every process
    real = evaluate.extract_voiced_regions

    def counting(utt, voiced_set):
        calls.append((utt.speaker_id, utt.utterance_id))
        return real(utt, voiced_set)

    monkeypatch.setattr(evaluate, "extract_voiced_regions", counting)
    run_experiment(ExperimentConfig(codebook_sizes=(8,), n_train=3, n_test=2), utterances=corpus8k)
    split_utts = [
        (u.speaker_id, u.utterance_id)
        for s in split_speakers(corpus8k, 3, 2)
        for u in s.train_utterances + s.test_utterances
    ]
    assert sorted(calls.read()) == sorted(split_utts)


def test_features_are_stacked_and_checked_once_per_speaker_kind_and_split(corpus8k, monkeypatch, call_log):
    # every codebook and score of a (speaker, kind, split) reuses its one checked matrix
    made = call_log  # (kind, fresh) per FeatureMatrix constructed, in every process
    plain = FeatureMatrix.__post_init__

    def counting(self):
        # collected rows arrive as a fresh, writeable matrix; a K-prefix of a checked matrix is read-only
        made.append((self.kind, self.matrix.flags.writeable))
        plain(self)

    monkeypatch.setattr(FeatureMatrix, "__post_init__", counting)
    n_speakers = len({u.speaker_id for u in corpus8k})
    run_experiment(ExperimentConfig(codebook_sizes=(4, 8), n_train=3, n_test=2), utterances=corpus8k)
    # two kinds, two splits
    assert sorted(made.read()) == [("mfcc", True)] * 2 * n_speakers + [("psdct", True)] * 2 * n_speakers

    made.clear()
    sweep_coefficients(ExperimentConfig(coeff_counts=(10, 15, 20), sweep_codebook_size=8, n_train=3, n_test=2),
                       utterances=corpus8k)
    # one training and one test matrix per speaker, whatever the number of K
    assert [kind for kind, fresh in made.read() if fresh] == ["psdct"] * 2 * n_speakers
    # and each K takes its columns from those two
    assert [kind for kind, fresh in made.read() if not fresh] == ["psdct"] * 3 * 2 * n_speakers


def test_fusion_skipped_when_both_systems_score_zero(corpus8k, monkeypatch, caplog):
    """With the true speaker ranked last everywhere, no fused trial is made and no alpha reported."""
    owner = {}  # id of a speaker's vector list -> that speaker
    real_split, real_identify = evaluate.split_features, evaluate.identify

    def recording_split(splits, config, role):
        feats = real_split(splits, config, role)
        owner.update({id(vectors): spk for (spk, _), vectors in feats.items()})
        return feats

    def true_speaker_last(test_vectors, codebooks):
        ranked, _ = real_identify(test_vectors, codebooks)
        spk = owner[id(test_vectors)]
        worst = ranked[-1].cmd + 1.0
        ranked = [s for s in ranked if s.speaker_id != spk] + [
            dataclasses.replace(s, cmd=worst) for s in ranked if s.speaker_id == spk
        ]
        return ranked, ranked[0].speaker_id

    monkeypatch.setattr(evaluate, "split_features", recording_split)
    monkeypatch.setattr(evaluate, "identify", true_speaker_last)
    with caplog.at_level(logging.WARNING, logger="spkid.evaluate"):
        report = run_experiment(ExperimentConfig(codebook_sizes=(8,), n_train=3, n_test=2), utterances=corpus8k)

    assert not [t for t in report.trials if t.kind == "fused"]
    assert report.alphas == {}
    assert report.accuracies == {"psdct": {8: 0.0}, "mfcc": {8: 0.0}}
    assert "| 8 | 0.0 | 0.0 | - | - |" in report.to_markdown().splitlines()
    assert "size 8: both systems at zero accuracy; skipping fusion" in caplog.messages


def test_score_report_follows_the_order_of_books_and_test(steps8k, monkeypatch, call_log):
    config, test, books = steps8k
    calls = call_log  # every identify, in any process, is logged before the first fuse
    for name in ("identify", "fuse"):
        def counted(*args, real=getattr(evaluate, name), name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(evaluate, name, counted)
    reordered = {kind: {size: books[kind][size] for size in (8, 4)} for kind in ("mfcc", "psdct")}
    report = score_report(dict(reversed(test.items())), reordered, config)

    speakers = ["spk03", "spk02", "spk01", "spk00"]
    assert report.speakers == speakers
    scored = [(kind, size, spk) for kind in ("mfcc", "psdct") for size in (8, 4) for spk in speakers]
    fused = [("fused", size, spk) for size in (8, 4) for spk in speakers]
    assert [(t.kind, t.codebook_size, t.speaker_id) for t in report.trials] == scored + fused
    assert calls.read() == ["identify"] * len(scored) + ["fuse"] * len(fused)
    # the same trials as in the order of train_codebooks and split_features
    by_key = {(t.kind, t.codebook_size, t.speaker_id): t for t in score_report(test, books, config).trials}
    assert {(t.kind, t.codebook_size, t.speaker_id): t for t in report.trials} == by_key


def test_score_report_fuses_only_when_books_hold_both_kinds(steps8k):
    config, test, books = steps8k
    assert config.kinds == ("psdct", "mfcc")
    report = score_report(test, {"psdct": books["psdct"]}, config)
    assert [t.kind for t in report.trials] == ["psdct"] * 2 * 4
    assert report.alphas == {}
    assert list(report.accuracies) == ["psdct"]


def test_score_report_on_the_steps_output_is_run_experiment(corpus8k, steps8k):
    config, test, books = steps8k
    assert score_report(test, books, config) == run_experiment(config, utterances=corpus8k)
