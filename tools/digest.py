"""SHA-256 digests of spkid's outputs on two fixed synthetic corpora.

    python3 tools/digest.py --src <checkout>/src

Imports spkid from the given source tree and prints one JSON object: the
digest of each output and a combined digest over all of them. Run it on two
checkouts; equal combined digests mean every output below is byte-identical,
and the per-output digests name the ones that moved.

For ``synth_corpus(8, 8, seed=21)`` at 16 and 48 kHz, saved with
``save_corpus``:

- ``load_corpus`` of the saved corpus (ids, rates, samples, labels, epochs);
- the ``run_experiment`` markdown and CSV (codebook sizes 8, 16 and 32) and
  the ``sweep_coefficients`` markdown and CSV (the default K, size 32);
- the ``--report-out`` files of ``spkid evaluate`` and ``spkid sweep`` with
  the same settings;
- every file ``spkid train --kind fused`` writes;
- the psdct, mfcc and fused ``spkid identify`` CSVs;
- the psdct and mfcc ``spkid extract`` CSVs and the ``--epoch-dump`` CSV.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

SAMPLE_RATES = (16000, 48000)
SIZES = (8, 16, 32)
TRAIN_SIZE = 32


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _utterance_bytes(utterances) -> bytes:
    out = io.BytesIO()
    for utt in utterances:
        out.write(f"{utt.speaker_id}/{utt.utterance_id} {utt.sample_rate}\n".encode())
        out.write(utt.samples.astype("<f8").tobytes())
        for seg in utt.segments or ():
            out.write(f"{seg.begin} {seg.end} {seg.phone}\n".encode())
        if utt.impulses is not None:
            out.write(utt.impulses.astype("<i8").tobytes())
    return out.getvalue()


def _cli(spkid_cli, argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = spkid_cli.main(argv)
    if code != 0:
        raise SystemExit(f"spkid {' '.join(argv)} exited {code}: {err.getvalue().strip()}")


def corpus_digests(spkid, work: Path, sample_rate: int) -> dict[str, str]:
    from spkid import cli, evaluate

    corpus = work / "corpus"
    spkid.save_corpus(spkid.synth_corpus(8, 8, seed=21, sample_rate=sample_rate), corpus)
    utterances = spkid.load_corpus(corpus)
    out = {"load_corpus": _sha(_utterance_bytes(utterances))}

    report = evaluate.run_experiment(evaluate.ExperimentConfig(codebook_sizes=SIZES), utterances=utterances)
    csv_buf = io.StringIO(newline="")
    report.write_csv(csv_buf)
    out["run_experiment.md"] = _sha(report.to_markdown().encode())
    out["run_experiment.csv"] = _sha(csv_buf.getvalue().encode())

    config = evaluate.ExperimentConfig()
    rows = evaluate.sweep_coefficients(config, utterances=utterances)
    csv_buf = io.StringIO(newline="")
    evaluate.write_sweep_csv(csv_buf, rows)
    out["sweep_coefficients.md"] = _sha(evaluate.sweep_to_markdown(rows, config.sweep_codebook_size).encode())
    out["sweep_coefficients.csv"] = _sha(csv_buf.getvalue().encode())

    common = ["--corpus", str(corpus)]
    sizes = ",".join(map(str, SIZES))
    _cli(cli, ["evaluate", *common, "--codebook-size", sizes, "--report-out", str(work / "evaluate")])
    _cli(cli, ["sweep", *common, "--report-out", str(work / "sweep")])
    model = work / "model"
    _cli(cli, ["train", *common, "--model-dir", str(model), "--kind", "fused", "--codebook-size", str(TRAIN_SIZE)])
    for kind, extra in (("psdct", []), ("mfcc", []), ("fused", ["--acc-dct", "0.9", "--acc-mfcc", "0.8"])):
        path = work / f"identify-{kind}.csv"
        _cli(cli, ["identify", *common, "--model-dir", str(model), "--kind", kind, *extra, "--report-out", str(path)])
    _cli(cli, ["extract", *common, "--kind", "psdct", "--report-out", str(work / "extract-psdct.csv"),
               "--epoch-dump", str(work / "epochs.csv")])
    _cli(cli, ["extract", *common, "--kind", "mfcc", "--report-out", str(work / "extract-mfcc.csv")])

    for path in sorted(work.rglob("*")):
        if path.is_file() and corpus not in path.parents:
            out[str(path.relative_to(work))] = _sha(path.read_bytes())
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="the src directory of the checkout to digest")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import spkid

    if src not in Path(spkid.__file__).resolve().parents:
        parser.error(f"spkid was imported from {spkid.__file__}, not from {src}")

    outputs: dict[str, str] = {}
    for rate in SAMPLE_RATES:
        with tempfile.TemporaryDirectory() as tmp:
            for name, digest in corpus_digests(spkid, Path(tmp), rate).items():
                outputs[f"{rate // 1000}k/{name}"] = digest
    combined = _sha("".join(f"{name} {digest}\n" for name, digest in sorted(outputs.items())).encode())
    print(json.dumps({"combined": combined, "outputs": outputs}, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
