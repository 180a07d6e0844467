"""What the traced run wraps, the per-layer metrics it derives, and the sampled layer checks."""

from __future__ import annotations

import numpy as np

import checks
from tracing import Target, Tracer

# sample the 1st, (N+1)-th, ... call of these
EVERY = {"psdct.feature": 400, "mfcc.frame": 400, "classify.cmd": 150, "vq.train": 8, "gci.epochs": 4}


def _n_coeffs(args, kwargs, pos, default):
    return kwargs.get("n_coeffs", args[pos] if len(args) > pos else default)


def _regions(t: Tracer, args, kwargs, result):
    utt = args[0]
    t.keys["utterances"].add((utt.speaker_id, utt.utterance_id))
    for region in result:
        t.lookup[region.region_id] = (utt.speaker_id, utt.utterance_id)


def _epochs(t: Tracer, args, kwargs, result):
    t.counts["gci.epochs"] += len(result)
    if t.sample("gci.epochs", EVERY["gci.epochs"]):
        region = args[0]
        t.samples["epochs"].append((region.region_id, region.source_offset, region.sample_rate, result.positions.copy()))


def _segment(t: Tracer, args, kwargs, result):
    t.counts["gci.pairs"] += max(len(args[1]) - 1, 0)
    t.counts["gci.cycles"] += len(result)


def _psdct(t: Tracer, args, kwargs, result):
    cycle = args[0]
    t.counts["psdct.vectors"] += 1
    t.keys["cycles"].add((cycle.region_id, cycle.start_peak))
    if t.sample("psdct.feature", EVERY["psdct.feature"]):
        t.samples["psdct"].append((cycle.samples.copy(), result.values.copy(), _n_coeffs(args, kwargs, 1, 15)))


def _mec(t: Tracer, args, kwargs, result):
    cycles = args[0]
    t.keys["cycles"].update((c.region_id, c.start_peak) for c in cycles)
    if len(t.samples["mec"]) < 2:
        subset = cycles[:: max(1, len(cycles) // 200)]
        include_dc = kwargs.get("include_dc", args[2] if len(args) > 2 else True)
        t.samples["mec"].append((subset, _n_coeffs(args, kwargs, 1, 15), include_dc))


def _mfcc_region(t: Tracer, args, kwargs, result):
    t.counts["mfcc.frames"] += len(result)


def _mfcc_frame(t: Tracer, args, kwargs, result):
    if t.sample("mfcc.frame", EVERY["mfcc.frame"]):
        t.samples["mfcc"].append((np.array(args[0], dtype=np.float64), args[1], result.values.copy()))


def _train(t: Tracer, args, kwargs, result):
    t.counts["vq.codebooks"] += 1
    t.counts["vq.train_vectors"] += len(args[0])
    if t.sample("vq.train", EVERY["vq.train"]):
        t.samples["codebooks"].append((np.stack([v.values for v in args[0]]), result.centroids.copy()))


def _kmeans(t: Tracer, args, kwargs, result):
    history = result[1]
    t.counts["vq.kmeans_iters"] += len(history)
    t.samples["distortion"].append(history[-1])


def _identify(t: Tracer, args, kwargs, result):
    t.samples["rankings"].append([s.cmd for s in result[0]])


def _cmd(t: Tracer, args, kwargs, result):
    t.counts["classify.vectors_scored"] += len(args[0])
    if t.sample("classify.cmd", EVERY["classify.cmd"]):
        t.samples["cmd"].append((np.stack([v.values for v in args[0]]), args[1].centroids.copy(), result.cmd))


def _fuse(t: Tracer, args, kwargs, result):
    weights = args[2] if len(args) > 2 else kwargs["weights"]
    per_vector = kwargs.get("per_vector", args[3] if len(args) > 3 else False)
    if not per_vector:
        rows = [(s.d_dct, s.d_mfcc, s.d_com) for s in result[0]]
        t.samples["fuse"].append((rows, weights.a_dct, weights.a_mfcc))


TARGETS = [
    Target("spkid.corpus", "load_corpus", "corpus.load"),
    Target("spkid.corpus", "extract_voiced_regions", "corpus.regions", hook=_regions),
    Target("spkid.gci", "detect_gci", "gci.epochs", hook=_epochs),
    Target("spkid.gci", "map_to_peaks", "gci.peaks"),
    Target("spkid.gci", "segment_cycles", "gci.segment", hook=_segment),
    Target("spkid.dsp", "resonate", "dsp.resonate", per_row=True, only_in=("spkid.gci",)),
    Target("spkid.dsp", "moving_average", "dsp.moving_average", per_row=True, only_in=("spkid.gci",)),
    Target("spkid.dsp", "autocorr_pitch", "dsp.autocorr", per_row=True, only_in=("spkid.gci",)),
    Target("spkid.dsp", "dft", "dsp.fft", per_row=True, only_in=("spkid.mfcc",)),
    Target("spkid.dsp", "hanning", "dsp.fft", per_row=True, only_in=("spkid.mfcc",)),
    Target("spkid.psdct", "psdct_feature", "psdct.feature", per_row=True, hook=_psdct),
    # dct2 as psdct_feature and mec call it; mfcc's own dct2 call stays inside mfcc.frame
    Target("spkid.psdct", "dct2", "psdct.dct", per_row=True, only_in=("spkid.psdct",)),
    Target("spkid.psdct", "mec", "psdct.mec", hook=_mec),
    Target("spkid.mfcc", "mfcc_features_for_region", "mfcc.feature", hook=_mfcc_region),
    Target("spkid.mfcc", "mfcc_feature", "mfcc.frame", per_row=True, hook=_mfcc_frame),
    Target("spkid.vq", "train_codebook", "vq.train", hook=_train),
    Target("spkid.vq", "lloyd_kmeans", "vq.kmeans", hook=_kmeans),
    Target("spkid.vq", "save_model_dir", "vq.io"),
    Target("spkid.vq", "load_model_dir", "vq.io"),
    Target("spkid.classify", "identify", "classify.identify", hook=_identify),
    Target("spkid.classify", "cmd", "classify.cmd", per_row=True, hook=_cmd),
    Target("spkid.classify", "fuse", "classify.fuse", hook=_fuse),
    Target("spkid.evaluate", "run_experiment", "evaluate"),
    Target("spkid.evaluate", "sweep_coefficients", "evaluate"),
    Target("spkid.cli", "cmd_train", "cli.train"),
    Target("spkid.cli", "cmd_identify", "cli.identify"),
]

# name -> (unit, better); every traced run reports all of them
METRICS = {
    "corpus.load_s": ("s", "lower"),
    "corpus.regions_s": ("s", "lower"),
    "corpus.region_passes": ("count", "lower"),
    "gci.epochs_s": ("s", "lower"),
    "gci.peaks_s": ("s", "lower"),
    "gci.segment_s": ("s", "lower"),
    "gci.epochs": ("count", "higher"),
    "gci.cycles": ("count", "higher"),
    "gci.cycle_yield": ("ratio", "higher"),
    "dsp.resonate_s": ("s", "lower"),
    "dsp.moving_average_s": ("s", "lower"),
    "dsp.autocorr_s": ("s", "lower"),
    "dsp.fft_s": ("s", "lower"),
    "psdct.feature_s": ("s", "lower"),
    "psdct.vectors": ("count", "higher"),
    "psdct.dct_per_cycle": ("count", "lower"),
    "psdct.mec_s": ("s", "lower"),
    "mfcc.feature_s": ("s", "lower"),
    "mfcc.frames": ("count", "higher"),
    "vq.train_s": ("s", "lower"),
    "vq.codebooks": ("count", "higher"),
    "vq.train_vectors": ("count", "higher"),
    "vq.kmeans_iters": ("count", "lower"),
    "vq.distortion": ("mse", "lower"),
    "vq.io_s": ("s", "lower"),
    "classify.identify_s": ("s", "lower"),
    "classify.cmd_calls": ("count", "lower"),
    "classify.vectors_scored": ("count", "higher"),
    "classify.scored_per_s": ("1/s", "higher"),
    "classify.fuse_s": ("s", "lower"),
    "evaluate.self_s": ("s", "lower"),
    "cli.train_s": ("s", "lower"),
    "cli.identify_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}


def _ratio(num, den):
    return num / den if den else 0.0


def metrics(t: Tracer) -> dict[str, float]:
    s, c, n = t.seconds, t.calls, t.counts
    identify_s = s["classify.identify"]
    return {
        "corpus.load_s": s["corpus.load"],
        "corpus.regions_s": s["corpus.regions"],
        "corpus.region_passes": _ratio(c["corpus.regions"], len(t.keys["utterances"])),
        "gci.epochs_s": s["gci.epochs"],
        "gci.peaks_s": s["gci.peaks"],
        "gci.segment_s": s["gci.segment"],
        "gci.epochs": n["gci.epochs"],
        "gci.cycles": n["gci.cycles"],
        "gci.cycle_yield": _ratio(n["gci.cycles"], n["gci.pairs"]),
        "dsp.resonate_s": s["dsp.resonate"],
        "dsp.moving_average_s": s["dsp.moving_average"],
        "dsp.autocorr_s": s["dsp.autocorr"],
        "dsp.fft_s": s["dsp.fft"],
        "psdct.feature_s": s["psdct.feature"],
        "psdct.vectors": n["psdct.vectors"],
        "psdct.dct_per_cycle": _ratio(c["psdct.dct"], len(t.keys["cycles"])),
        "psdct.mec_s": s["psdct.mec"],
        "mfcc.feature_s": s["mfcc.feature"],
        "mfcc.frames": n["mfcc.frames"],
        "vq.train_s": s["vq.train"],
        "vq.codebooks": n["vq.codebooks"],
        "vq.train_vectors": n["vq.train_vectors"],
        "vq.kmeans_iters": n["vq.kmeans_iters"],
        "vq.distortion": float(np.mean(t.samples["distortion"])) if t.samples["distortion"] else 0.0,
        "vq.io_s": s["vq.io"],
        "classify.identify_s": identify_s,
        "classify.cmd_calls": c["classify.cmd"],
        "classify.vectors_scored": n["classify.vectors_scored"],
        "classify.scored_per_s": _ratio(n["classify.vectors_scored"], identify_s),
        "classify.fuse_s": s["classify.fuse"],
        "evaluate.self_s": t.self_seconds["evaluate"],
        "cli.train_s": s["cli.train"],
        "cli.identify_s": s["cli.identify"],
        "cli.self_s": t.self_seconds["cli.train"] + t.self_seconds["cli.identify"],
        "trace.spans": len(t.spans),
    }


def check(t: Tracer, fired: dict[str, int], expected: tuple[str, ...], utterances, mec_fn) -> dict[str, float]:
    """Sampled layer checks; raises CheckError. Returns what the checks measured.

    ``fired`` holds the call counts of the traced round alone.
    """
    missing = [name for name in expected if not fired.get(name)]
    if missing:
        raise checks.CheckError(f"traced run: expected spans never fired: {missing}")
    for cycle, row, k in t.samples["psdct"]:
        checks.psdct_row(cycle, row, k)
    for frame, sr, row in t.samples["mfcc"]:
        if sr == 16000:
            checks.mfcc_row(frame, sr, row)
    for cycles, k, include_dc in t.samples["mec"]:
        value = mec_fn(cycles, k, include_dc=include_dc)
        checks.mec_value([c.samples for c in cycles], k, include_dc, value)
    truth = {(u.speaker_id, u.utterance_id): u.impulses for u in utterances}
    pairs, sr = [], None
    for region_id, offset, sr, positions in t.samples["epochs"]:
        true = truth[t.lookup[region_id]]
        pairs.append((positions, true - offset))
    share = checks.epochs(pairs, sr) if pairs else float("nan")
    for train, centroids in t.samples["codebooks"]:
        checks.codebook(centroids, train)
    for test, centroids, value in t.samples["cmd"]:
        checks.cmd_value(test, centroids, value)
    for ranking in t.samples["rankings"]:
        checks.ascending(ranking)
    for rows, a_dct, a_mfcc in t.samples["fuse"]:
        checks.fused(rows, a_dct, a_mfcc)
        checks.ascending([r[2] for r in rows], "fused ranking")
    return {"epoch_share": share, "samples": sum(len(v) for v in t.samples.values())}
