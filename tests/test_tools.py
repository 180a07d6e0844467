import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record(seed, speed, attempted, failed=0, check_error=None):
    metrics = {"audio_s_per_s": {"value": speed, "unit": "s/s"}, "setup_s": {"value": 0.25, "unit": "s"}}
    # two rounds of 100 s of audio on the wall clock: 2 s and 4 s, so 100 / 3 s/s
    rounds = [{"attempted": attempted // 2, "failed": 0, "check_error": None, "audio_s": 100.0, "wall_s": w}
              for w in (2.0, 4.0)]
    rounds[0].update(failed=failed, check_error=check_error)
    return {"workload": "report", "seed": seed, "seconds": 5.0, "trace": 0, "rounds": rounds, "metrics": metrics,
            "setup_probes_wall": [0.1, 0.3, 0.2 * seed]}


def init_checkout(path):
    """A one-commit checkout with the benchmark's BLAS pin and the repo's ignore rules; returns its git argv."""
    git = ["git", "-C", str(path), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run([*git, "init", "-q"], check=True)
    (path / "perfbench").mkdir()
    (path / "perfbench" / "run.py").write_text('BLAS_THREADS = "1"\n')
    (path / ".gitignore").write_text((ROOT / ".gitignore").read_text())
    subprocess.run([*git, "add", "perfbench/run.py", ".gitignore"], check=True)
    subprocess.run([*git, "commit", "-q", "-m", "c"], check=True)
    return git


def test_bench_json_summarises_a_batch(tmp_path):
    bench = load_tool("bench_json")
    git = init_checkout(tmp_path)
    out = tmp_path / "perfbench" / "_out"
    out.mkdir()
    for seed, speed in ((1, 50.0), (2, 40.0), (3, 60.0), (4, 30.0), (5, 70.0)):
        (out / f"report-seed{seed}-trace0.json").write_text(json.dumps(record(seed, speed, 600, failed=int(seed == 2))))
    (out / "report-seed9-trace0.json").write_text(json.dumps(record(9, 1.0, 1)))  # not asked for
    (out / "report-seed1-trace1.json").write_text(json.dumps(record(1, 1.0, 1)))  # a traced run

    assert bench.main(["--checkout", str(tmp_path), "--seeds", "1-3,4,5", "--tag", "7"]) == 0
    summary = json.loads((tmp_path / "BENCH_7.json").read_text())
    head = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True, check=True).stdout.strip()
    assert summary["commit"] == head and summary["dirty"] is False
    assert summary["seeds"] == [1, 2, 3, 4, 5]
    assert summary["machine"]["blas_threads"] == "1"
    report = summary["workloads"]["report"]
    assert (report["attempted"], report["failed"], report["check_errors"]) == (3000, 1, 0)
    speed = report["metrics"]["audio_s_per_s"]
    assert (speed["q1"], speed["median"], speed["q3"]) == (40.0, 50.0, 60.0)
    assert speed["values"] == [50.0, 40.0, 60.0, 30.0, 70.0] and speed["unit"] == "s/s"
    # the unscaled wall clock beside them: the median round and the median set-up probe of each seed
    wall = report["unscaled"]
    assert wall["audio_s_per_s"]["values"] == [100.0 / 3.0] * 5 and wall["audio_s_per_s"]["unit"] == "s/s"
    assert wall["setup_s"]["values"] == pytest.approx([0.2, 0.3, 0.3, 0.3, 0.3]) and wall["setup_s"]["unit"] == "s"

    with pytest.raises(SystemExit, match=r"records for seeds \[1, 2\] only"):
        bench.summarise(tmp_path, [1, 2, 6])


def test_bench_json_flags_new_and_edited_program_files_but_not_ignored_ones(tmp_path):
    bench = load_tool("bench_json")
    init_checkout(tmp_path)
    out = tmp_path / "perfbench" / "_out"
    out.mkdir()
    (out / "report-seed1-trace0.json").write_text(json.dumps(record(1, 50.0, 600)))
    # run outputs, cached corpora and bytecode are ignored
    (tmp_path / "perfbench" / "_cache").mkdir()
    (tmp_path / "perfbench" / "_cache" / "corpus.wav").write_bytes(b"x")
    (tmp_path / "perfbench" / "__pycache__").mkdir()
    (tmp_path / "perfbench" / "__pycache__" / "run.cpython-311.pyc").write_bytes(b"x")
    assert bench.summarise(tmp_path, [1])["dirty"] is False
    # a new, uncommitted module under src/ is code the batch ran but the commit lacks
    (tmp_path / "src" / "spkid").mkdir(parents=True)
    (tmp_path / "src" / "spkid" / "new.py").write_text("X = 1\n")
    assert bench.summarise(tmp_path, [1])["dirty"] is True
    (tmp_path / "src" / "spkid" / "new.py").unlink()
    assert bench.summarise(tmp_path, [1])["dirty"] is False
    (tmp_path / "perfbench" / "run.py").write_text('BLAS_THREADS = "2"\n')
    assert bench.summarise(tmp_path, [1])["dirty"] is True
