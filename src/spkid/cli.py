"""Command-line interface.

Subcommands: synth (generate a synthetic corpus), extract (features to CSV),
train (codebooks to a model directory), identify (score test utterances
against a model directory), evaluate (full accuracy report), sweep
(coefficient-count sweep).
"""

from __future__ import annotations

import argparse
import csv
import sys
from contextlib import nullcontext
from pathlib import Path

from . import evaluate as ev
from .classify import FusionWeights
from .corpus import extract_voiced_regions, list_corpus, load_voiced_set, save_corpus, split_speakers
from .gci import detect_gci, dump_epochs_csv, map_to_peaks
from .mfcc import N_MFCC
from .psdct import DEFAULT_NUM_COEFFS, KIND_MFCC, KIND_PSDCT
from .synth import synth_corpus
from .vq import DEFAULT_SEED, load_model_dir, save_model_dir

COEFFS_HELP = f"PS-DCT coefficients per vector; MFCC always gives {N_MFCC}"


def _add_common(p, model_dir=False, seed=False):
    p.add_argument("--corpus", required=True, help="corpus root directory, or a TIMIT root holding TRAIN/TEST")
    if seed:
        p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="codebook training seed")
    p.add_argument("--voiced-set", help="file with one voiced phone label per line")
    if model_dir:
        p.add_argument("--model-dir", required=True, help="codebook model directory")


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _config_from_args(args, **overrides) -> ev.ExperimentConfig:
    voiced = load_voiced_set(args.voiced_set) if args.voiced_set else None
    return ev.ExperimentConfig(voiced_set=voiced, **overrides)


def _out_stream(path):
    return open(path, "w", encoding="utf-8", newline="") if path else nullcontext(sys.stdout)


def _print_report(markdown: str, report_out, write_csv) -> None:
    """Print the markdown report; with a prefix, also write ``<prefix>.md`` and ``<prefix>.csv``."""
    print(markdown)
    if report_out:
        md, csv_path = Path(f"{report_out}.md"), Path(f"{report_out}.csv")
        md.write_text(markdown, encoding="utf-8")
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            write_csv(fh)
        print(f"wrote {md} and {csv_path}", file=sys.stderr)


def cmd_synth(args) -> int:
    utts = synth_corpus(args.speakers, args.utterances, args.seed, args.sample_rate)
    save_corpus(utts, args.corpus)
    n_spk = len({u.speaker_id for u in utts})
    print(f"wrote {len(utts)} utterances for {n_spk} speakers to {args.corpus}")
    return 0


def cmd_extract(args) -> int:
    config = _config_from_args(args, n_coeffs=args.coeffs, kinds=(args.kind,))
    files = list_corpus(args.corpus)
    voiced = config.effective_voiced_set()
    index, width = ("cycle_index", config.n_coeffs) if args.kind == KIND_PSDCT else ("frame_index", N_MFCC)
    dump_out = open(args.epoch_dump, "w", encoding="utf-8", newline="") if args.epoch_dump else nullcontext()
    with dump_out as dump, _out_stream(args.report_out) as fh:
        if dump is not None:
            csv.writer(dump, lineterminator="\n").writerow(["region_id", "epoch", "mapped_peak"])
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["speaker", "utterance", index, *(f"k{i}" for i in range(1, width + 1))])
        for entry in files:  # read one utterance at a time
            utt = entry.read()
            if dump is not None:  # a pass of its own; under psdct, collect_features detects the epochs again
                for region in extract_voiced_regions(utt, voiced):
                    epochs = detect_gci(region)
                    dump_epochs_csv(dump, region, epochs, map_to_peaks(region, epochs))
            for i, row in enumerate(ev.collect_features([utt], config)[args.kind]):
                writer.writerow([utt.speaker_id, utt.utterance_id, i, *(f"{v:.9g}" for v in row)])
    return 0


def _kinds(args) -> tuple[str, ...]:
    return (KIND_PSDCT, KIND_MFCC) if args.kind == ev.KIND_FUSED else (args.kind,)


def cmd_train(args) -> int:
    config = _config_from_args(
        args, n_coeffs=args.coeffs, codebook_sizes=(args.codebook_size,), kinds=_kinds(args), seed=args.seed
    )
    # split_features reads the training files alone, one speaker at a time
    splits = split_speakers(list_corpus(args.corpus), config.n_train, config.n_test)
    books = ev.train_codebooks(ev.split_features(splits, config, "training"), config)
    codebooks = [cb for by_size in books.values() for cb in by_size[args.codebook_size]]
    save_model_dir(codebooks, args.model_dir)
    print(f"wrote {len(codebooks)} codebooks (k={args.codebook_size}) to {args.model_dir}")
    return 0


def cmd_identify(args) -> int:
    fused_mode = args.kind == ev.KIND_FUSED
    if not fused_mode and (args.acc_dct is not None or args.acc_mfcc is not None):
        raise ValueError("--acc-dct and --acc-mfcc apply only to --kind fused")
    if fused_mode and (args.acc_dct is None or args.acc_mfcc is None):
        raise ValueError("--kind fused requires --acc-dct and --acc-mfcc (accuracies in [0,1])")
    weights = FusionWeights(args.acc_dct, args.acc_mfcc) if fused_mode else None
    kinds = _kinds(args)
    codebooks = load_model_dir(args.model_dir)
    books = {kind: [cb for cb in codebooks if cb.kind == kind] for kind in kinds}
    for kind in kinds:
        if not books[kind]:
            raise ValueError(f"model dir {args.model_dir} has no {kind} codebooks")
    # the PS-DCT width is the one the model was trained with
    n_coeffs = books[KIND_PSDCT][0].centroids.shape[1] if KIND_PSDCT in books else DEFAULT_NUM_COEFFS
    config = _config_from_args(args, n_coeffs=n_coeffs, kinds=kinds)
    # split_features reads the test files alone, one speaker at a time
    splits = split_speakers(list_corpus(args.corpus), config.n_train, config.n_test)
    test_feats = ev.split_features(splits, config, "test")
    # both kinds under one size, which the CSV does not print: a fused model's kinds may differ in size
    size = len(books[kinds[0]][0].centroids)
    report = ev.score_report(test_feats, {kind: {size: books[kind]} for kind in kinds}, config, weights)
    trials = [t for t in report.trials if t.kind == args.kind]
    for t in trials:
        print(f"{t.speaker_id}: predicted {t.predicted}", file=sys.stderr)
    with _out_stream(args.report_out) as fh:
        ev.write_identify_csv(fh, report, args.kind)
    print(f"identified {sum(t.correct for t in trials)}/{len(trials)} test speakers correctly", file=sys.stderr)
    return 0


def cmd_evaluate(args) -> int:
    config = _config_from_args(
        args, n_coeffs=args.coeffs, codebook_sizes=args.codebook_size, kinds=_kinds(args), seed=args.seed
    )
    report = ev.run_experiment(config, utterances=list_corpus(args.corpus))
    _print_report(report.to_markdown(), args.report_out, report.write_csv)
    return 0


def cmd_sweep(args) -> int:
    config = _config_from_args(
        args, coeff_counts=args.coeffs, sweep_codebook_size=args.codebook_size, seed=args.seed
    )
    rows = ev.sweep_coefficients(config, utterances=list_corpus(args.corpus))
    markdown = ev.sweep_to_markdown(rows, args.codebook_size)
    _print_report(markdown, args.report_out, lambda fh: ev.write_sweep_csv(fh, rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    defaults = ev.ExperimentConfig()
    parser = argparse.ArgumentParser(prog="spkid", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--corpus", required=True, help="output corpus directory")
    p.add_argument("--speakers", type=int, default=12)
    p.add_argument("--utterances", type=int, default=8)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--sample-rate", type=int, default=16000)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("extract", help="dump feature vectors to CSV")
    _add_common(p)
    p.add_argument("--kind", choices=[KIND_PSDCT, KIND_MFCC], default=KIND_PSDCT)
    p.add_argument("--coeffs", type=int, default=DEFAULT_NUM_COEFFS, help=COEFFS_HELP)
    p.add_argument("--report-out", help="output CSV path (default stdout)")
    p.add_argument("--epoch-dump", help="also write a (region_id,epoch,mapped_peak) debug CSV")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train per-speaker codebooks")
    _add_common(p, model_dir=True, seed=True)
    p.add_argument("--kind", choices=[KIND_PSDCT, KIND_MFCC, ev.KIND_FUSED], default=ev.KIND_FUSED,
                   help="fused trains both systems")
    p.add_argument("--codebook-size", type=int, default=32)
    p.add_argument("--coeffs", type=int, default=DEFAULT_NUM_COEFFS, help=COEFFS_HELP)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("identify", help="identify test utterances against a model directory")
    _add_common(p, model_dir=True)
    p.add_argument("--kind", choices=[KIND_PSDCT, KIND_MFCC, ev.KIND_FUSED], default=KIND_PSDCT)
    p.add_argument("--acc-dct", type=float, help="measured PS-DCT accuracy in [0,1] (fused mode)")
    p.add_argument("--acc-mfcc", type=float, help="measured MFCC accuracy in [0,1] (fused mode)")
    p.add_argument("--report-out", help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("evaluate", help="full train/test report over codebook sizes")
    _add_common(p, seed=True)
    p.add_argument("--kind", choices=[KIND_PSDCT, KIND_MFCC, ev.KIND_FUSED], default=ev.KIND_FUSED,
                   help="fused evaluates both systems plus their combination")
    p.add_argument("--codebook-size", type=_int_list, default=defaults.codebook_sizes, help="comma-separated sizes")
    p.add_argument("--coeffs", type=int, default=DEFAULT_NUM_COEFFS, help=COEFFS_HELP)
    p.add_argument("--report-out", help="output path prefix (.md and .csv)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="accuracy/energy vs coefficient count")
    _add_common(p, seed=True)
    p.add_argument("--coeffs", type=_int_list, default=defaults.coeff_counts,
                   help="comma-separated PS-DCT coefficient counts")
    p.add_argument("--codebook-size", type=int, default=defaults.sweep_codebook_size)
    p.add_argument("--report-out", help="output path prefix (.md and .csv)")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; bad input (ValueError, OSError) prints one line and returns 2."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"{parser.prog} {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
