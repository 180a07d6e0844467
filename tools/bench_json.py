"""Summarise a batch of timed benchmark runs into one ``BENCH_<tag>.json``.

    python3 perfbench/run.py --workload report --seed 301 --seconds 5 --trace 0   # ... per seed
    python3 tools/bench_json.py --checkout . --seeds 301-310 --tag <n>

Reads ``<checkout>/perfbench/_out/<workload>-seed<n>-trace0.json``, the
record each timed run leaves, for every given seed and every workload that
has one; reads nothing else under ``perfbench/`` but its ``BLAS_THREADS``
pin, and writes nothing there. Writes ``<checkout>/BENCH_<tag>.json`` (or
``--out``) with the checkout's commit (and whether ``src/`` or ``perfbench/``
differ from it, new files included), the seeds, a machine record and, per
workload, the median and quartiles of each end-to-end metric over the seeds,
its per-seed values, and the operations attempted and failed. Beside the
scaled ``setup_s`` and ``audio_s_per_s`` it gives the same two on the
unscaled wall clock, as ``run.py`` prints them: the scaled clock samples the
speed of the calling process's own CPU only, so wall time is the check on a
change that puts work on other CPUs. Run it with
the interpreter that ran the batch: the Python and numpy versions recorded
are its own. A rerun of the same seeds on the same commit and machine
reproduces the file up to timing noise.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np


def _seeds(text: str) -> list[int]:
    """``301-310`` or ``301,305,309`` (or a mix of both) as a sorted list of distinct seeds."""
    seeds = set()
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.update(range(int(lo), int(hi or lo) + 1))
    return sorted(seeds)


def _git(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True, check=True).stdout.strip()


def _blas_threads(checkout: Path):
    """The benchmark's ``BLAS_THREADS`` pin, read from its source without importing it."""
    tree = ast.parse((checkout / "perfbench" / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "BLAS_THREADS" for t in node.targets):
            return ast.literal_eval(node.value)
    return None


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def summarise(checkout: Path, seeds: list[int]) -> dict:
    out = checkout / "perfbench" / "_out"
    workloads = {}
    for name in sorted({p.name.split("-seed")[0] for p in out.glob("*-seed*-trace0.json")}):
        records = [out / f"{name}-seed{seed}-trace0.json" for seed in seeds]
        records = [json.loads(p.read_text(encoding="utf-8")) for p in records if p.is_file()]
        if not records:
            continue
        if len(records) != len(seeds):
            found = [r["seed"] for r in records]
            raise SystemExit(f"{name}: records for seeds {found} only, of {seeds}")
        rounds = [r for rec in records for r in rec["rounds"]]
        metrics = {
            key: {"unit": records[0]["metrics"][key]["unit"], **_spread([rec["metrics"][key]["value"] for rec in records])}
            for key in records[0]["metrics"]
        }
        wall = {
            "setup_s": [statistics.median(rec["setup_probes_wall"]) for rec in records],
            "audio_s_per_s": [
                rec["rounds"][0]["audio_s"] / statistics.median(r["wall_s"] for r in rec["rounds"]) for rec in records
            ],
        }
        workloads[name] = {
            "seconds": sorted({rec["seconds"] for rec in records}),
            "rounds": len(rounds),
            "attempted": sum(r["attempted"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds),
            "check_errors": sum(bool(r["check_error"]) for r in rounds),
            "metrics": metrics,
            "unscaled": {key: {"unit": metrics[key]["unit"], **_spread(values)} for key, values in wall.items()},
        }
    if not workloads:
        raise SystemExit(f"no timed records (*-seed<n>-trace0.json) for seeds {seeds} under {out}")
    return {
        "commit": _git(checkout, "rev-parse", "HEAD"),
        # the batch measured the commit only if the code it runs matches it: an edited,
        # deleted or new file counts; what .gitignore names (caches, run outputs) does not
        "dirty": bool(_git(checkout, "status", "--porcelain", "--untracked-files=normal", "--", "src", "perfbench")),
        "seeds": seeds,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": _blas_threads(checkout),
        },
        "workloads": workloads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=Path("."), help="the checkout the batch ran in")
    parser.add_argument("--seeds", type=_seeds, required=True, help="e.g. 301-310 or 301,303,305")
    parser.add_argument("--tag", required=True, help="names the output file BENCH_<tag>.json")
    parser.add_argument("--out", type=Path, help="default: <checkout>/BENCH_<tag>.json")
    args = parser.parse_args(argv)
    summary = summarise(args.checkout.resolve(), args.seeds)
    path = args.out or args.checkout / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}: {', '.join(summary['workloads'])} over seeds {args.seeds}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
