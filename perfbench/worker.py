"""One fresh process of the benchmark: a set-up probe, or the rounds of one workload.

    python3 perfbench/worker.py probe --corpus DIR
    python3 perfbench/worker.py run --workload NAME --corpus DIR --trace 0|1 \
        --work DIR --result FILE [--trace-out FILE]

``run.py`` starts it with the checkout's ``src`` on PYTHONPATH and the BLAS
thread count fixed. Times are taken on a ``SpeedClock`` started at the first
statement: wall seconds, and the same seconds scaled to a reference CPU
speed. A probe prints both for ``import spkid`` plus ``load_corpus``. A run
times one round of the workload's operation, so every round pays what a
fresh process pays, then checks the outputs with the clock stopped; with
``--trace 1`` the round runs with spans around spkid's public functions and
without the speed samples, whose loops would fall inside the spans.
"""

from speedclock import SpeedClock

CLOCK = SpeedClock().start()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def probe(corpus: Path) -> None:
    import spkid

    spkid.load_corpus(corpus)
    wall, scaled = CLOCK.stop()
    print(f"{wall:.6f} {scaled:.6f}")


def _record() -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def _program_hash(spkid) -> str:
    src = Path(spkid.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def run(args) -> dict:
    """One round of the workload in this fresh process, checked after the clock stops."""
    import spkid
    import spkid.cli  # noqa: F401  (the package does not import it; enroll_identify drives it)

    tracer = None
    if args.trace:
        CLOCK.stop()
        import layers
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(layers.TARGETS)
    utterances = spkid.load_corpus(args.corpus)
    setup_wall, setup_scaled = CLOCK.read()

    import checks
    from workloads import WORKLOADS, Context

    wl = WORKLOADS[args.workload]
    ctx = Context(spkid, Path(args.corpus), utterances, Path(args.work), _program_hash(spkid))
    speakers = sorted({u.speaker_id for u in utterances})

    errors = []
    wall0, scaled0 = CLOCK.read()
    start = time.perf_counter()
    try:
        out = wl.run(ctx)
    except Exception:  # a failed operation is counted; the checks then report it
        out = None
        errors.append(traceback.format_exc())
    if args.trace:
        wall, scaled = time.perf_counter() - start, None
    else:
        wall, scaled = (b - a for a, b in zip((wall0, scaled0), CLOCK.stop()))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = wl.failed_ops(out, speakers)
    if tracer is not None:  # before the checks below call into spkid again
        layer_values, fired = layers.metrics(tracer), dict(tracer.calls)
        if args.trace_out:
            tracer.dump(args.trace_out)

    result = {
        "setup_s": setup_wall,
        "setup_scaled_s": setup_scaled,
        "wall_s": wall,
        "scaled_s": scaled,
        "speed_samples": len(CLOCK.loops),
        "speed_loop_median_s": sorted(CLOCK.loops)[len(CLOCK.loops) // 2],
        "peak_rss_mb": peak_rss_mb,
        "audio_s": sum(u.samples.size / u.sample_rate for u in utterances),
        "attempted": wl.ops_per_round(speakers),
        "failed": failed,
        "errors": errors,
        "check_error": None,
        "record": _record(),
    }
    try:
        if out is None or failed:
            raise checks.CheckError("the round had failed operations; nothing to check")
        result["id_accuracy"] = wl.final_check(ctx, out)
        checks.accuracy_floor(result["id_accuracy"])
        if tracer is not None:
            result["layer_checks"] = layers.check(tracer, fired, wl.expected, utterances, spkid.psdct.mec.__wrapped__)
            result["layers"] = layer_values
    except checks.CheckError as exc:
        result["check_error"] = str(exc)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["probe", "run"])
    parser.add_argument("--corpus", required=True)
    parser.add_argument("--workload")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--work")
    parser.add_argument("--result")
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    if args.mode == "probe":
        probe(Path(args.corpus))
        return 0
    result = run(args)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
