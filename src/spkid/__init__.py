"""Speaker identification from pitch-synchronous DCT and MFCC features.

Voiced speech is cut into peak-to-peak pitch cycles at detected excitation
epochs; each unit-energy cycle's truncated DCT is a feature vector. Speakers
are modeled by k-means codebooks and identified by cumulative minimum
distance, optionally fused with an MFCC system.

``import spkid`` loads no submodule: each exported name, and each submodule
below, is imported on its first use (PEP 562), so ``spkid.load_corpus``
loads ``spkid.corpus`` alone. The submodule is imported through
``__import__``, as an import statement would, so ``python -X importtime``
lists it.
"""

__version__ = "0.1.0"

# the names each submodule exports; dsp exports none but resolves as spkid.dsp
_EXPORTS = {
    "classify": "CmdScore FusedScore FusionWeights cmd fuse identify",
    "corpus": "DEFAULT_VOICED_SET PhoneSegment SpeakerSplit Utterance UtteranceFile VoicedRegion "
    "extract_voiced_regions list_corpus load_corpus parse_phn save_corpus split_speakers write_wav",
    "dsp": "",
    "evaluate": "EvalReport ExperimentConfig run_experiment sweep_coefficients",
    "gci": "EpochList PitchCycle cycles_from_region detect_gci map_to_peaks segment_cycles",
    "mfcc": "MfccConfig frame_signal mfcc_feature",
    "psdct": "FeatureMatrix FeatureVector dct2 mec normalize_energy psdct_feature",
    "synth": "SynthSpeaker synth_corpus synth_speakers",
    "vq": "Codebook load_model_dir save_model_dir train_codebook",
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    """Import the submodule that defines ``name`` (or is ``name``) and keep the value here."""
    module = _SOURCE.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # importing spkid.<module> binds it in this namespace, so this getattr does not come back here
    value = getattr(__import__(f"{__name__}.{module}"), module)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _SOURCE.keys() | _EXPORTS.keys())
