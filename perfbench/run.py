"""Benchmark of the spkid pipeline: three workloads, each in fresh processes.

    python3 perfbench/run.py                 # every workload, timed and traced
    python3 perfbench/run.py --workload report --seed 1 --seconds 5 --trace 0

For one workload it generates (or reuses from perfbench/_cache) the seeded
corpus, times set-up in several fresh processes, then runs rounds of the
workload's operation for --seconds, each round in a fresh worker process
that checks its own outputs, and then one traced round. Without --trace it
reports the end-to-end and the per-layer metrics together; --trace 0 reports
the end-to-end metrics alone and skips the traced round, --trace 1 the
per-layer metrics alone and skips the set-up probes. Times are scaled to a
reference CPU speed (speedclock.py). The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CACHE = BENCH / "_cache"
OUT = BENCH / "_out"
SETUP_PROBES = 3  # timed set-up processes, after one untimed warm-up
BLAS_THREADS = "1"  # at or below nproc; one thread keeps timings steady on a shared host
WORKER_TIMEOUT_S = 150.0  # a round takes 10-25 s here; a hung worker must not hang the run

END_TO_END = {
    "setup_s": ("s", "set-up: import spkid + load_corpus in a fresh process, median of %d"),
    "audio_s_per_s": ("s/s", "corpus audio seconds / median time of a round, %d round(s)"),
    "peak_rss_mb": ("MB", "median over rounds of the worker process's peak resident set size"),
    "id_accuracy": ("fraction", "mean accuracy over the PS-DCT and MFCC cells scored"),
}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _worker(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args],
        env=_env(), cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )


def _round(name: str, corpus: Path, trace: int, tag: str) -> dict:
    """One worker process running one round; returns its result record."""
    work = OUT / f"work-{tag}-{os.getpid()}"
    result_path = OUT / f"{tag}.round.json"
    result_path.unlink(missing_ok=True)
    try:
        proc = _worker(
            ["run", "--workload", name, "--corpus", str(corpus), "--trace", str(trace), "--work", str(work),
             "--result", str(result_path), "--trace-out", str(OUT / f"{tag}.spans.json")],
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0 or not result_path.exists():
        raise RuntimeError(f"worker for {name} failed (exit {proc.returncode}):\n{proc.stdout}{proc.stderr}")
    res = json.loads(result_path.read_text(encoding="utf-8"))
    result_path.unlink()
    return res


def run_one(name: str, seed: int, seconds: float, trace: int | None) -> dict | None:
    """Runs one workload; returns its summary, or None when it could not run."""
    import selftest
    from corpusgen import ensure_corpus
    from layers import METRICS
    from workloads import WORKLOADS

    if not (ROOT / "src" / "spkid" / "__init__.py").is_file():
        print(f"no spkid sources under {ROOT / 'src'}", file=sys.stderr)
        return None
    if selftest.main(quiet=True) != 0:
        print("self-test of the correctness checks failed; run perfbench/selftest.py", file=sys.stderr)
        return None
    wl = WORKLOADS[name]
    corpus, hit = ensure_corpus(wl.spec, seed, name, CACHE)
    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{name}-seed{seed}-trace{'both' if trace is None else trace}"
    timed, traced_run = trace != 1, trace != 0

    setup, setup_wall, rounds = [], [], []
    try:
        for i in range(SETUP_PROBES + 1 if timed else 0):
            probe = _worker(["probe", "--corpus", str(corpus)])
            if probe.returncode != 0:
                raise RuntimeError(f"set-up probe failed (exit {probe.returncode}):\n{probe.stdout}{probe.stderr}")
            if i:
                wall, scaled = map(float, probe.stdout.split()[-2:])
                setup_wall.append(wall)
                setup.append(scaled)
        begin = time.perf_counter()
        while not rounds or time.perf_counter() - begin < seconds:
            rounds.append(_round(name, corpus, 0, tag))
        traced = _round(name, corpus, 1, tag) if traced_run else None
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"workload {name}: {exc}", file=sys.stderr)
        return None

    everything = rounds + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    problems = [r["check_error"] for r in everything if r["check_error"]]
    accuracies = {r.get("id_accuracy") for r in everything}
    if len(accuracies) != 1:
        problems.append(f"id_accuracy differs between rounds on the same corpus: {sorted(map(str, accuracies))}")
    walls = [r["wall_s"] for r in rounds]
    audio_s = rounds[0]["audio_s"]

    spec = wl.spec
    print(f"workload {name}  seed {seed}  seconds {seconds:g}  trace {'0+1' if trace is None else trace}")
    print(f"  corpus   {spec.speakers} speakers x {spec.utterances} utterances, {spec.sample_rate} Hz, "
          f"{audio_s:.1f} s of audio ({'cached' if hit else 'generated'}: {corpus.name})")
    metrics = {}
    if timed:
        scaled = [r["scaled_s"] for r in rounds]
        values = {
            "setup_s": statistics.median(setup),
            "audio_s_per_s": audio_s / statistics.median(scaled),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
            "id_accuracy": rounds[0].get("id_accuracy") or 0.0,
        }
        counts = {"setup_s": len(setup), "audio_s_per_s": len(scaled)}
        metrics.update({k: {"value": v, "unit": END_TO_END[k][0]} for k, v in values.items()})
        for k, (unit, what) in END_TO_END.items():
            print(f"  {k:14s} {values[k]:.6g} {unit}   ({what % counts[k] if k in counts else what})")
        print(f"  unscaled wall clock: set-up {statistics.median(setup_wall):.4g} s, "
              f"{audio_s / statistics.median(walls):.4g} s/s")
    if traced:
        values = dict(traced.get("layers", {}))
        values["trace.overhead_s"] = traced["wall_s"] - statistics.median(walls)
        metrics.update({k: {"value": float(v), "unit": METRICS[k][0]} for k, v in values.items()})
        for k in values:
            print(f"  {k:26s} {values[k]:.6g} {METRICS[k][0]}")
        print(f"  traced round {traced['wall_s']:.3f} s, untraced median {statistics.median(walls):.3f} s "
              f"over {len(walls)} round(s) (both wall clock)")
        if "layer_checks" in traced:
            lc = traced["layer_checks"]
            print(f"  layer checks passed on {lc['samples']} samples; epochs within tolerance {lc['epoch_share']:.3f}")
    print(f"  operations attempted {attempted} failed {failed}")
    print("  record   " + " ".join(f"{k}={v}" for k, v in rounds[0]["record"].items()))
    for r in everything:
        for err in r["errors"]:
            print(err, file=sys.stderr)
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    summary = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace, "setup_probes": setup,
              "setup_probes_wall": setup_wall, "rounds": rounds, "traced": traced, "metrics": metrics}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return summary


def run_all(seed: int, seconds: float, trace: int | None) -> dict | None:
    from workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        summary = run_one(name, seed, seconds, trace)
        if summary is None:
            return None
        merged["correct"] &= summary["correct"]
        merged["attempted"] += summary["attempted"]
        merged["failed"] += summary["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in summary["metrics"].items()})
    return merged


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], help="0: end-to-end metrics only, 1: per-layer only")
    args = parser.parse_args(argv)
    run = run_all if args.workload == "all" else partial(run_one, args.workload)
    summary = run(args.seed, args.seconds, args.trace)
    if summary is None:
        return 1
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
