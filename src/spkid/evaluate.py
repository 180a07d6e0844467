"""Experiment orchestration: train/test runs, codebook-size and coefficient sweeps.

A run trains one codebook per speaker per size per feature kind on the train
utterances, pools each speaker's test utterances into one cumulative decision,
and reports closed-set identification accuracy, per-trial score rankings, and
the accuracy-weighted fusion of the two systems.
"""

from __future__ import annotations

import csv
import logging
import os
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from .classify import CmdScore, FusionWeights, fuse, identify
from .corpus import (
    DEFAULT_VOICED_SET,
    SpeakerSplit,
    Utterance,
    UtteranceFile,
    extract_voiced_regions,
    split_speakers,
)
from .gci import PitchCycle, cycles_from_region
from .mfcc import N_MFCC, MfccConfig, mfcc_features_for_region
from .psdct import DEFAULT_NUM_COEFFS, KIND_MFCC, KIND_PSDCT, FeatureMatrix, FeatureVector, mec, psdct_feature
from .vq import DEFAULT_SEED, Codebook, kmeanspp_seeds, train_codebook

log = logging.getLogger(__name__)

# Reference results of the 30-speaker TIMIT protocol this harness mirrors
# (identification accuracy in percent); reproducing them needs licensed TIMIT.
TIMIT30_REFERENCE_ACCURACY = {
    16: (90.0, 90.0, 100.0),
    32: (96.7, 96.7, 100.0),
    64: (96.7, 100.0, 100.0),
    128: (96.7, 100.0, 100.0),
}
# coefficient count -> (mean energy captured %, accuracy %) at codebook size 32
TIMIT30_REFERENCE_SWEEP = {
    10: (81.7, 93.3),
    15: (90.7, 96.7),
    20: (93.4, 96.7),
    25: (94.5, 96.7),
    30: (95.6, 96.7),
    35: (96.3, 96.7),
    40: (96.9, 96.7),
}

KIND_FUSED = "fused"

# True in a worker of _parallel_map, and in its caller while the caller computes its own stride
_IN_MAP = False


def _cpu_count() -> int:
    """The CPUs this process may run on (its affinity mask); 1 where the platform does not say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _run_stride(fn, units: list) -> tuple[list, Exception | None]:
    """``fn`` of each unit in turn, up to the first that raises: (the results before it, its exception or None)."""
    done = []
    for unit in units:
        try:
            done.append(fn(unit))
        except Exception as exc:
            return done, exc
    return done, None


def _worker(sender, fn, units: list) -> None:
    """A forked worker: computes its stride, then sends ``(True, result)`` per unit and ``(False, exception or None)``.

    One message per unit, so the caller never holds a whole stride's pickled
    bytes at once. A result or exception that does not pickle ends the stride
    at its unit with a ``RuntimeError``.
    """
    global _IN_MAP
    _IN_MAP = True
    done, error = _run_stride(fn, units)
    try:
        for result in done:
            sender.send((True, result))
        sender.send((False, error))
    except Exception as exc:
        sender.send((False, RuntimeError(f"a worker's result could not be sent back: {exc!r}")))


def _receive(receiver) -> tuple[list, Exception | None]:
    """A worker's stride as ``_run_stride`` gives it, read from the messages ``_worker`` sends."""
    done = []
    while True:
        ok, value = receiver.recv()
        if not ok:
            return done, value
        done.append(value)


def _parallel_map(fn, units: list) -> list:
    """``[fn(x) for x in units]``, dealt out in strides to this process and one forked worker per extra CPU.

    With n processes, process w computes ``units[w::n]``; this process takes
    stride 0 while the workers, forked with every argument inherited, compute
    theirs and send their results back through a pipe. The results, and the
    exception raised, are those of the plain loop: a stride stops at its first
    failing unit, and the failure earliest in unit order is raised. A worker
    that dies without a result raises ``RuntimeError`` naming its exit code.
    Every worker is joined before this returns or raises; on
    ``KeyboardInterrupt`` they are terminated first. With one CPU (see
    ``os.sched_getaffinity``), one unit, no ``fork``, inside a worker or a
    stride (so a nested call never forks again), while other threads run
    (a fork copies the locks they hold, never to be released in the
    worker), or in a daemonic process such as a ``multiprocessing.Pool``
    worker, which may not start processes, it is the plain loop.
    """
    global _IN_MAP
    n = min(_cpu_count(), len(units))
    if n < 2 or _IN_MAP or not hasattr(os, "fork") or threading.active_count() > 1:
        return [fn(unit) for unit in units]
    import multiprocessing  # here alone: importing spkid stays as fast as before

    if multiprocessing.current_process().daemon:
        return [fn(unit) for unit in units]
    context = multiprocessing.get_context("fork")
    workers = []
    try:
        for w in range(1, n):
            receiver, sender = context.Pipe(duplex=False)
            proc = context.Process(target=_worker, args=(sender, fn, units[w::n]), daemon=True)
            proc.start()
            sender.close()  # so that a dead worker's pipe reads as EOF
            workers.append((proc, receiver))
        _IN_MAP = True
        try:
            strides = [_run_stride(fn, units[::n])]
        finally:
            _IN_MAP = False
        for proc, receiver in workers:
            try:
                strides.append(_receive(receiver))
            except EOFError:
                proc.join()
                died = RuntimeError(f"a worker process exited with code {proc.exitcode} without a result")
                strides.append(([], died))
    except BaseException:
        for proc, _ in workers:
            proc.terminate()
        raise
    finally:
        for proc, receiver in workers:
            proc.join()
            receiver.close()
    results: list = [None] * len(units)
    failures = []
    for w, (done, error) in enumerate(strides):
        if error is None:
            results[w::n] = done
        else:
            failures.append((w + len(done) * n, error))
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return results


def _markdown_table(header: list, rows: list[list]) -> list[str]:
    """The lines of a markdown table: the header, the ``|---|`` rule and one line per row, each cell as ``str``."""
    lines = ["| " + " | ".join(map(str, cells)) + " |" for cells in [header, *rows]]
    return [lines[0], "|" + "---|" * len(header), *lines[1:]]


def _cell(value: float | None, spec: str = ".1f", scale: float = 100.0) -> str:
    """``value * scale`` in format ``spec`` (by default a fraction as a percentage), or "-" where it is missing."""
    return "-" if value is None else format(value * scale, spec)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's settings, checked once; frozen, its lists held as tuples, so the checks hold for every use."""

    n_train: int = 6
    n_test: int = 2
    codebook_sizes: tuple[int, ...] = (16, 32, 64, 128)
    coeff_counts: tuple[int, ...] = (10, 15, 20, 25, 30, 35, 40)
    n_coeffs: int = DEFAULT_NUM_COEFFS
    seed: int = DEFAULT_SEED
    voiced_set: frozenset[str] | None = None
    kinds: tuple[str, ...] = (KIND_PSDCT, KIND_MFCC)
    mfcc: MfccConfig = field(default_factory=MfccConfig)
    sweep_codebook_size: int = 32

    def __post_init__(self):
        for name in ("codebook_sizes", "coeff_counts", "kinds"):
            values = tuple(getattr(self, name))
            object.__setattr__(self, name, values)
            if len(set(values)) < len(values):
                raise ValueError(f"{name} must list each value once, got {','.join(map(str, values))}")
        if isinstance(self.voiced_set, str):  # frozenset("aa") would be {"a"}
            raise ValueError(f"voiced_set must be a collection of phone labels, not the string {self.voiced_set!r}")
        object.__setattr__(self, "voiced_set", None if self.voiced_set is None else frozenset(self.voiced_set))
        if not self.codebook_sizes or any(k < 1 for k in self.codebook_sizes):
            raise ValueError("codebook_sizes must be a non-empty list of sizes >= 1")
        if not self.coeff_counts or any(k < 1 for k in self.coeff_counts):
            raise ValueError("coeff_counts must be a non-empty list of counts >= 1")
        if self.n_coeffs < 1:
            raise ValueError("n_coeffs must be >= 1")
        if self.sweep_codebook_size < 1:
            raise ValueError("sweep_codebook_size must be >= 1")
        if not self.kinds:
            raise ValueError("at least one feature kind required")
        if not set(self.kinds) <= {KIND_PSDCT, KIND_MFCC}:
            raise ValueError(f"kinds must each be {KIND_PSDCT} or {KIND_MFCC}, got {','.join(self.kinds)}")

    def effective_voiced_set(self) -> frozenset[str]:
        return DEFAULT_VOICED_SET if self.voiced_set is None else self.voiced_set


@dataclass
class TrialResult:
    speaker_id: str
    kind: str
    codebook_size: int
    scores: tuple[tuple[str, float], ...]  # (candidate, score) ascending
    n_vectors: int = 0
    alpha: float | None = None

    @property
    def predicted(self) -> str:
        return self.scores[0][0]

    @property
    def correct(self) -> bool:
        return self.predicted == self.speaker_id


@dataclass
class EvalReport:
    trials: list[TrialResult]
    speakers: list[str]
    n_coeffs: int
    seed: int

    @property
    def accuracies(self) -> dict[str, dict[int, float]]:
        """kind -> codebook size -> fraction of that cell's trials identified correctly."""
        cells: dict[str, dict[int, list[bool]]] = {}
        for t in self.trials:
            cells.setdefault(t.kind, {}).setdefault(t.codebook_size, []).append(t.correct)
        return {kind: {size: sum(c) / len(c) for size, c in by_size.items()} for kind, by_size in cells.items()}

    @property
    def alphas(self) -> dict[int, float]:
        """codebook size -> fusion weight of the fused trials at that size."""
        return {t.codebook_size: t.alpha for t in self.trials if t.kind == KIND_FUSED}

    def to_markdown(self) -> str:
        accuracies, alphas = self.accuracies, self.alphas
        kinds = [k for k in (KIND_PSDCT, KIND_MFCC) if k in accuracies]
        dims = {KIND_PSDCT: self.n_coeffs, KIND_MFCC: N_MFCC}
        sizes = sorted({s for by_size in accuracies.values() for s in by_size})
        cells = [[_cell(accuracies.get(k, {}).get(size)) for k in kinds + [KIND_FUSED]] for size in sizes]
        rows = [[size, *c, _cell(alphas.get(size), ".3f", 1.0)] for size, c in zip(sizes, cells)]
        return "\n".join([
            "# Speaker identification report",
            "",
            f"- speakers: {len(self.speakers)}",
            "- feature dim: " + ", ".join(f"{dims[k]} ({k})" for k in kinds),
            f"- seed: {self.seed}",
            "",
            "## Accuracy by codebook size",
            "",
            *_markdown_table(["codebook size", *kinds, KIND_FUSED, "alpha"], rows),
            "",
            "Reference (30-speaker TIMIT protocol, percent):",
            "",
            *_markdown_table(
                ["codebook size", "psdct", "mfcc", "fused"], [[k, *v] for k, v in TIMIT30_REFERENCE_ACCURACY.items()]
            ),
            "",
        ])

    def write_csv(self, fh) -> None:
        writer = csv.writer(fh)
        writer.writerow(
            ["test_speaker", "kind", "codebook_size", "rank", "candidate", "score",
             "n_vectors", "alpha", "predicted", "correct"]
        )
        for t in self.trials:
            for rank, (candidate, score) in enumerate(t.scores, start=1):
                writer.writerow(
                    [t.speaker_id, t.kind, t.codebook_size, rank, candidate, f"{score:.9g}",
                     t.n_vectors or "", f"{t.alpha:.6f}" if t.alpha is not None else "",
                     t.predicted, int(t.correct)]
                )


def collect_cycles(utterances: list[Utterance] | list[UtteranceFile], voiced_set: frozenset[str]) -> list[PitchCycle]:
    """Pitch cycles of every voiced region, reading each listed file as it comes to it.

    ``sweep_coefficients``' per-speaker units take each speaker's training cycles from it.
    """
    cycles: list[PitchCycle] = []
    for utt in utterances:
        for region in extract_voiced_regions(utt.read(), voiced_set):
            cycles.extend(cycles_from_region(region))
    return cycles


def psdct_features(cycles: list[PitchCycle], n_coeffs: int) -> list[FeatureVector]:
    return [psdct_feature(c, n_coeffs) for c in cycles if len(c) > n_coeffs]


def _stack(rows: list[FeatureVector], dim: int) -> np.ndarray:
    """The rows as one C-contiguous (N, dim) float64 matrix, with one concatenate; N may be 0."""
    return np.concatenate([r.values for r in rows]).reshape(len(rows), dim) if rows else np.empty((0, dim))


def collect_features(utterances: list[Utterance], config: ExperimentConfig) -> dict[str, np.ndarray]:
    """One (N, dim) float64 matrix of each kind in ``config.kinds``, reading every voiced region once.

    ``dim`` is ``config.n_coeffs`` for PS-DCT and ``N_MFCC`` for MFCC; ``N``
    may be 0. Each kind runs over all the regions in turn: alternating the
    two kinds region by region was about 8% slower on a 16 kHz corpus.
    """
    voiced_set = config.effective_voiced_set()
    regions = [region for utt in utterances for region in extract_voiced_regions(utt, voiced_set)]
    feats: dict[str, np.ndarray] = {}
    for kind in config.kinds:
        if kind == KIND_PSDCT:
            rows = [f for region in regions for f in psdct_features(cycles_from_region(region), config.n_coeffs)]
            feats[kind] = _stack(rows, config.n_coeffs)
        else:
            rows = [f for region in regions for f in mfcc_features_for_region(region, config.mfcc)]
            feats[kind] = _stack(rows, N_MFCC)
    return feats


def collect_mfcc_features(
    utterances: list[Utterance], voiced_set: frozenset[str], config: MfccConfig
) -> FeatureMatrix:
    experiment = ExperimentConfig(voiced_set=voiced_set, kinds=(KIND_MFCC,), mfcc=config)
    return FeatureMatrix(collect_features(utterances, experiment)[KIND_MFCC], KIND_MFCC)


def split_features(
    splits: list[SpeakerSplit], config: ExperimentConfig, role: str
) -> dict[tuple[str, str], FeatureMatrix]:
    """(speaker, kind) -> matrix of each split's ``"training"`` or ``"test"`` vectors, per kind in ``config.kinds``.

    The splits are shared out among the CPUs, one speaker per unit of
    ``_parallel_map``; the matrices are the same for any number of processes.
    Each matrix is checked here, in the calling process, once, for every
    codebook and score that uses it. Raises, for the first such speaker in
    order, if a speaker has no vectors of a kind. The splits may list files
    (``UtteranceFile``): those of one role are read a speaker at a time, and
    a speaker's audio is released before the same process opens the next
    speaker's files, so each process holds at most one speaker's audio.
    """

    def collect(split: SpeakerSplit) -> dict[str, np.ndarray]:
        utts = {"training": split.train_utterances, "test": split.test_utterances}[role]
        feats = collect_features([u.read() for u in utts], config)
        for kind in config.kinds:
            if not len(feats[kind]):
                raise ValueError(f"speaker {split.speaker_id}: no {kind} {role} vectors")
        return feats

    collected = _parallel_map(collect, splits)
    out = {}
    for i, split in enumerate(splits):
        feats, collected[i] = collected[i], None  # a speaker's collected rows go once its copies are checked
        for kind in config.kinds:
            out[split.speaker_id, kind] = FeatureMatrix(feats[kind], kind)
    return out


def train_codebooks(
    train: dict[tuple[str, str], FeatureMatrix], config: ExperimentConfig
) -> dict[str, dict[int, list[Codebook]]]:
    """kind -> size -> one codebook per speaker from ``train[speaker, kind]``, at each of ``config.codebook_sizes``.

    Speakers and kinds are those of the keys of ``train``, in order. Each
    (speaker, kind)'s k-means++ seeds are drawn first, once, at the largest
    size; each size's Lloyd run starts from their prefix, so the codebooks are
    those of separate ``train_codebook`` calls with ``config.seed``. A draw
    never repeats a row, so one short of the largest size has found every
    distinct vector. Before any Lloyd run, one error then lists every speaker,
    kind and size that does not fit.

    The seeds, then the Lloyd runs, are shared out among the CPUs, one
    (speaker, kind) per unit of ``_parallel_map``; each codebook is built here
    from its returned centroids, byte-identical for any number of processes.
    """
    speakers = list(dict.fromkeys(spk for spk, _ in train))
    kinds = list(dict.fromkeys(kind for _, kind in train))
    sizes, seed = config.codebook_sizes, config.seed
    largest = max(sizes)
    # kind-major, so that each stride holds both kinds' speakers alike
    keys = sorted(train, key=lambda key: kinds.index(key[1]))
    seeds = dict(zip(keys, _parallel_map(lambda key: kmeanspp_seeds(train[key], largest, seed), keys)))
    misfits = [
        f"{spk} {kind} k={','.join(str(k) for k in sizes if k > distinct)} ({distinct} distinct)"
        for spk, kind in train if (distinct := len(seeds[spk, kind])) < largest
    ]
    if misfits:
        raise ValueError("codebook sizes exceed the distinct training vectors: " + "; ".join(misfits))

    def lloyd(key: tuple[str, str]) -> list[np.ndarray]:
        return [
            train_codebook(train[key], size, seed=seed, speaker_id=key[0], init=seeds[key][:size]).centroids
            for size in sizes
        ]

    centroids = dict(zip(keys, _parallel_map(lloyd, keys)))
    return {
        kind: {
            size: [Codebook(spk, kind, centroids[spk, kind][i], seed, len(train[spk, kind])) for spk in speakers]
            for i, size in enumerate(sizes)
        }
        for kind in kinds
    }


def score_report(
    test: dict[tuple[str, str], FeatureMatrix], books: dict[str, dict[int, list[Codebook]]], config: ExperimentConfig
) -> EvalReport:
    """Rank each ``test[speaker, kind]`` against every codebook of ``books[kind][size]``, then fuse.

    Kinds and sizes come in the order of ``books``, and speakers in the order
    of the keys of ``test``. When ``books`` holds both kinds, each size's
    fusion weight is derived from the two systems' accuracies measured in
    this same report (the closed-loop protocol the reference results use).
    The trials are shared out among the CPUs, one per unit of
    ``_parallel_map``; the fusion runs in the calling process.
    """
    speakers = list(dict.fromkeys(spk for spk, _ in test))
    report = EvalReport(trials=[], speakers=speakers, n_coeffs=config.n_coeffs, seed=config.seed)

    def rank(trial: tuple[str, int, str]) -> list[CmdScore]:
        kind, size, spk = trial
        return identify(test[spk, kind], books[kind][size])[0]

    trials = [(kind, size, spk) for kind, by_size in books.items() for size in by_size for spk in speakers]
    # ranked[(kind, size, test speaker)] -> ranked CmdScore list, which fuse takes
    ranked = dict(zip(trials, _parallel_map(rank, trials)))
    for (kind, size, spk), scores in ranked.items():
        pairs = tuple((s.speaker_id, s.cmd) for s in scores)
        report.trials.append(TrialResult(spk, kind, size, pairs, n_vectors=len(test[spk, kind])))

    if KIND_PSDCT in books and KIND_MFCC in books:
        accuracies = report.accuracies
        for size in books[KIND_PSDCT]:
            a_dct = accuracies[KIND_PSDCT][size]
            a_mfcc = accuracies[KIND_MFCC][size]
            if a_dct + a_mfcc <= 0.0:
                log.warning("size %d: both systems at zero accuracy; skipping fusion", size)
                continue
            weights = FusionWeights(a_dct, a_mfcc)
            for spk in speakers:
                fused, _ = fuse(ranked[KIND_PSDCT, size, spk], ranked[KIND_MFCC, size, spk], weights)
                pairs = tuple((s.speaker_id, s.d_com) for s in fused)
                report.trials.append(TrialResult(spk, KIND_FUSED, size, pairs, alpha=weights.alpha))
    return report


def run_experiment(config: ExperimentConfig, utterances: list[Utterance] | list[UtteranceFile]) -> EvalReport:
    """Train, identify, and fuse over every configured codebook size.

    ``utterances`` may be a listing (``list_corpus``): only the files of the
    split are read, one speaker at a time.
    """
    splits = split_speakers(utterances, config.n_train, config.n_test)
    train = split_features(splits, config, "training")
    test = split_features(splits, config, "test")
    return score_report(test, train_codebooks(train, config), config)


@dataclass
class SweepRow:
    n_coeffs: int
    mec_total: float  # retained energy over full frame energy
    mec_ac: float  # retained energy over non-mean coefficient energy
    accuracy: float


def sweep_coefficients(config: ExperimentConfig, utterances: list[Utterance] | list[UtteranceFile]) -> list[SweepRow]:
    """Accuracy and mean-energy-captured as a function of coefficient count.

    ``utterances`` may be a listing, as for ``run_experiment``. Codebook size
    is fixed (default 32). Only cycles longer than the largest requested
    coefficient count are kept, once up front, so the energy statistics for
    every K are computed over the same cycle set and are monotone in K by
    construction. The training and test features are transformed once, at the
    largest K; every smaller K keeps the first K columns of those matrices.

    The training side is shared out among the CPUs one speaker per unit of
    ``_parallel_map``, as ``split_features`` shares out the test side: a unit
    takes the speaker's kept cycles from ``collect_cycles``, so each training
    file is read once, and returns them with their rows. It raises, as
    ``split_features``' unit does, if the speaker has none. This process
    builds the training matrices from the rows and pools the cycles, in split
    order, for ``mec``; a worker's cycles come back as copies, which give
    ``mec`` the same bits as views.

    Each K is then one unit of a second map: its codebooks and scores, then
    its two ``mec`` calls over the pooled cycles. The smallest K comes first,
    so this process makes both kinds of call whatever the number of CPUs, and
    a codebook size too large for any K fails with the smallest K's error (its
    rows have the fewest distinct values). The other K follow from the largest
    down: a larger K costs more, so this evens out the strides, where
    ascending order would give this process K = 10, 20, 30 and 40 of 10..40
    on two CPUs. The rows, in ascending K, are the same for any number of
    processes.
    """
    voiced_set = config.effective_voiced_set()
    splits = split_speakers(utterances, config.n_train, config.n_test)
    ks = sorted(config.coeff_counts)
    max_k = ks[-1]

    def training(split: SpeakerSplit) -> tuple[list[PitchCycle], np.ndarray]:
        """The speaker's training cycles longer than max_k, and their (N, max_k) rows."""
        cycles = [c for c in collect_cycles(split.train_utterances, voiced_set) if len(c) > max_k]
        if not cycles:
            raise ValueError(f"speaker {split.speaker_id}: no {KIND_PSDCT} training vectors")
        return cycles, _stack(psdct_features(cycles, max_k), max_k)

    collected = _parallel_map(training, splits)
    train_rows = {
        (split.speaker_id, KIND_PSDCT): FeatureMatrix(rows, KIND_PSDCT) for split, (_, rows) in zip(splits, collected)
    }
    pooled = [c for cycles, _ in collected for c in cycles]
    del collected  # the rows live on in the checked copies; freed before the next maps fork
    sweep = replace(config, kinds=(KIND_PSDCT,), n_coeffs=max_k, codebook_sizes=(config.sweep_codebook_size,))
    test_rows = split_features(splits, sweep, "test")

    def first(rows: dict[tuple[str, str], FeatureMatrix], k: int) -> dict[tuple[str, str], FeatureMatrix]:
        return {key: FeatureMatrix(m.matrix[:, :k], KIND_PSDCT) for key, m in rows.items()}

    def row(k: int) -> SweepRow:
        report = score_report(first(test_rows, k), train_codebooks(first(train_rows, k), sweep), sweep)
        accuracy = report.accuracies[KIND_PSDCT][config.sweep_codebook_size]
        return SweepRow(k, mec(pooled, k), mec(pooled, k, include_dc=False), accuracy)

    rows = _parallel_map(row, [ks[0], *reversed(ks[1:])])
    return [rows[0], *reversed(rows[1:])]


def sweep_to_markdown(rows: list[SweepRow], codebook_size: int) -> str:
    return "\n".join([
        "# Coefficient-count sweep",
        "",
        f"- codebook size: {codebook_size}",
        "- MEC = mean fraction of cycle energy captured by the retained coefficients",
        "  (total: denominator includes the mean coefficient; ac: it does not)",
        "",
        *_markdown_table(
            ["coeffs", "MEC total %", "MEC ac %", "accuracy %"],
            [[r.n_coeffs, _cell(r.mec_total), _cell(r.mec_ac), _cell(r.accuracy)] for r in rows],
        ),
        "",
        "Reference (30-speaker TIMIT protocol, percent):",
        "",
        *_markdown_table(["coeffs", "MEC %", "accuracy %"], [[k, *ref] for k, ref in TIMIT30_REFERENCE_SWEEP.items()]),
        "",
    ])


def write_sweep_csv(fh, rows: list[SweepRow]) -> None:
    writer = csv.writer(fh)
    writer.writerow(["n_coeffs", "mec_total", "mec_ac", "accuracy"])
    for r in rows:
        writer.writerow([r.n_coeffs, f"{r.mec_total:.9g}", f"{r.mec_ac:.9g}", f"{r.accuracy:.9g}"])
