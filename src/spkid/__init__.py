"""Speaker identification from pitch-synchronous DCT and MFCC features.

Voiced speech is cut into peak-to-peak pitch cycles at detected excitation
epochs; each unit-energy cycle's truncated DCT is a feature vector. Speakers
are modeled by k-means codebooks and identified by cumulative minimum
distance, optionally fused with an MFCC system.
"""

from .classify import CmdScore, FusedScore, FusionWeights, cmd, fuse, identify
from .corpus import (
    DEFAULT_VOICED_SET,
    PhoneSegment,
    SpeakerSplit,
    Utterance,
    UtteranceFile,
    VoicedRegion,
    extract_voiced_regions,
    list_corpus,
    load_corpus,
    parse_phn,
    save_corpus,
    split_speakers,
    write_wav,
)
from .evaluate import EvalReport, ExperimentConfig, run_experiment, sweep_coefficients
from .gci import EpochList, PitchCycle, cycles_from_region, detect_gci, map_to_peaks, segment_cycles
from .mfcc import MfccConfig, frame_signal, mfcc_feature
from .psdct import FeatureMatrix, FeatureVector, dct2, mec, normalize_energy, psdct_feature
from .synth import SynthSpeaker, synth_corpus, synth_speakers
from .vq import Codebook, load_model_dir, save_model_dir, train_codebook

__version__ = "0.1.0"

__all__ = [
    "CmdScore",
    "Codebook",
    "DEFAULT_VOICED_SET",
    "EpochList",
    "EvalReport",
    "ExperimentConfig",
    "FeatureMatrix",
    "FeatureVector",
    "FusedScore",
    "FusionWeights",
    "MfccConfig",
    "PhoneSegment",
    "PitchCycle",
    "SpeakerSplit",
    "SynthSpeaker",
    "Utterance",
    "UtteranceFile",
    "VoicedRegion",
    "cmd",
    "cycles_from_region",
    "dct2",
    "detect_gci",
    "extract_voiced_regions",
    "frame_signal",
    "fuse",
    "identify",
    "list_corpus",
    "load_corpus",
    "load_model_dir",
    "map_to_peaks",
    "mec",
    "mfcc_feature",
    "normalize_energy",
    "parse_phn",
    "psdct_feature",
    "run_experiment",
    "save_corpus",
    "save_model_dir",
    "segment_cycles",
    "split_speakers",
    "sweep_coefficients",
    "synth_corpus",
    "synth_speakers",
    "train_codebook",
    "write_wav",
]
