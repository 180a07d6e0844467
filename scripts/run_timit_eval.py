#!/usr/bin/env python3
"""30-speaker TIMIT protocol: 16 male + 14 female, 6 train / 2 test utterances.

Requires the licensed TIMIT corpus with its .wav files already converted from
NIST SPHERE to RIFF/WAVE (e.g. sph2pipe -f rif). The SA sentences go to the
test set. Prints the accuracy table side by side with the reference values.
"""

import argparse

from spkid.corpus import load_timit_utterances
from spkid.evaluate import ExperimentConfig, run_experiment, sweep_coefficients, sweep_to_markdown


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("timit_root", help="TIMIT root (contains TRAIN/ and TEST/)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--sizes", default="16,32,64,128")
    parser.add_argument("--sweep", action="store_true", help="also run the coefficient sweep")
    parser.add_argument("--report-out")
    args = parser.parse_args()

    utterances = load_timit_utterances(args.timit_root, n_male=16, n_female=14, seed=args.seed)
    config = ExperimentConfig(
        codebook_sizes=tuple(int(s) for s in args.sizes.split(",")),
        seed=args.seed,
    )
    result = run_experiment(config, utterances=utterances)
    markdown = result.to_markdown()
    if args.sweep:
        rows = sweep_coefficients(config, utterances=utterances)
        markdown += "\n" + sweep_to_markdown(rows, config.sweep_codebook_size)
    print(markdown)
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8") as fh:
            fh.write(markdown)


if __name__ == "__main__":
    main()
