"""The package namespace: each export and submodule is imported on first use, and is the object it was."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import spkid
from spkid.corpus import save_corpus
from spkid.synth import synth_corpus

SRC = Path(__file__).resolve().parent.parent / "src"

# the public API, by defining submodule; dsp exports nothing but is an attribute of the package
EXPORTS = {
    "classify": ["CmdScore", "FusedScore", "FusionWeights", "cmd", "fuse", "identify"],
    "corpus": [
        "DEFAULT_VOICED_SET", "PhoneSegment", "SpeakerSplit", "Utterance", "UtteranceFile", "VoicedRegion",
        "extract_voiced_regions", "list_corpus", "load_corpus", "parse_phn", "save_corpus", "split_speakers",
        "write_wav",
    ],
    "dsp": [],
    "evaluate": ["EvalReport", "ExperimentConfig", "run_experiment", "sweep_coefficients"],
    "gci": ["EpochList", "PitchCycle", "cycles_from_region", "detect_gci", "map_to_peaks", "segment_cycles"],
    "mfcc": ["MfccConfig", "frame_signal", "mfcc_feature"],
    "psdct": ["FeatureMatrix", "FeatureVector", "dct2", "mec", "normalize_energy", "psdct_feature"],
    "synth": ["SynthSpeaker", "synth_corpus", "synth_speakers"],
    "vq": ["Codebook", "load_model_dir", "save_model_dir", "train_codebook"],
}


def _run(code: str, *args: str, options: tuple[str, ...] = ()) -> subprocess.CompletedProcess:
    """``code`` run to success in a new interpreter (with ``options``) that imports spkid from this checkout."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, *options, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def _fresh(code: str, *args: str) -> list[str]:
    """The lines ``code`` prints in a new interpreter that imports spkid from this checkout."""
    return _run(code, *args).stdout.splitlines()


LOADED = "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'spkid'))"


def test_loading_a_corpus_imports_the_corpus_module_alone(tmp_path):
    save_corpus(synth_corpus(2, 2, seed=3, sample_rate=8000), tmp_path)
    code = f"import sys, spkid\n{LOADED}\nspkid.load_corpus(sys.argv[1])\n{LOADED}"
    assert _fresh(code, str(tmp_path)) == ["spkid", "spkid spkid.corpus"]


def test_an_import_time_profile_lists_the_submodule_a_name_loads(tmp_path):
    # -X importtime reports imports made through __import__, as an import statement makes them, and not
    # those of importlib.import_module
    save_corpus(synth_corpus(2, 2, seed=3, sample_rate=8000), tmp_path)
    code = "import sys, spkid\nspkid.load_corpus(sys.argv[1])"
    profile = _run(code, str(tmp_path), options=("-X", "importtime")).stderr
    assert re.search(r"^import time: +\d+ \| +\d+ \| +spkid\.corpus$", profile, re.MULTILINE), profile


def test_each_submodule_is_an_attribute_of_a_bare_import():
    code = "import sys, spkid\n" + "".join(
        f"assert spkid.{name} is sys.modules['spkid.{name}']\n" for name in EXPORTS
    ) + LOADED
    assert _fresh(code) == [" ".join(sorted(["spkid", *(f"spkid.{name}" for name in EXPORTS)]))]


def test_every_export_is_the_object_its_submodule_defines():
    assert sorted(spkid.__all__) == sorted(name for names in EXPORTS.values() for name in names)
    for module, names in EXPORTS.items():
        for name in names:
            assert getattr(spkid, name) is getattr(importlib.import_module(f"spkid.{module}"), name)


def test_an_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        spkid.no_such_name  # noqa: B018


def test_star_import_binds_all_and_dir_lists_it():
    namespace = {}
    exec("from spkid import *", namespace)
    assert sorted(namespace.keys() - {"__builtins__"}) == sorted(spkid.__all__)
    assert set(spkid.__all__) | EXPORTS.keys() <= set(dir(spkid))
