"""Smoke run of scripts/run_timit_eval.py, loaded by path with small arguments."""

import importlib.util
import sys
from pathlib import Path

from spkid.synth import synth_corpus

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, argv, monkeypatch, patch=None):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for attr, value in (patch or {}).items():
        monkeypatch.setattr(module, attr, value)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv])
    module.main()


def test_run_timit_eval(monkeypatch, capsys):
    calls = []

    def fake_timit(root, n_male, n_female, seed):
        calls.append((root, n_male, n_female, seed))
        return synth_corpus(4, 8, seed=5)

    run_script("run_timit_eval", ["timit-root", "--sizes", "8"], monkeypatch,
               patch={"load_timit_utterances": fake_timit})
    assert calls == [("timit-root", 16, 14, 42)]
    printed = capsys.readouterr().out
    assert "- speakers: 4" in printed
    assert "| 8 |" in printed

