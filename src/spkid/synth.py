"""License-free synthetic test corpus.

Each synthetic speaker is an impulse-train source at a fixed pitch driving a
cascade of three fixed formant resonators; speakers differ in pitch and
formant layout. Utterances alternate voiced runs (phone ``ax``, a TIMIT
sonorant, so the default voiced set takes them) with silence (phone ``h#``),
and the exact impulse positions are kept as ground truth for
excitation-instant tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import PCM_SCALE, PhoneSegment, Utterance

PITCH_LO_HZ = 90.0
PITCH_HI_HZ = 260.0
MIN_PHASE = 5  # a voiced run's first impulse: at this sample or later, within one period

VOICED_PHONE = "ax"
SILENCE_PHONE = "h#"

# (low, high) Hz ranges the three per-speaker resonator centers are drawn from
FORMANT_RANGES = ((300.0, 850.0), (950.0, 2200.0), (2350.0, 3300.0))
BANDWIDTH_RANGE = (60.0, 120.0)


@dataclass(frozen=True)
class SynthSpeaker:
    speaker_id: str
    pitch_hz: float
    formants_hz: tuple[float, float, float]
    bandwidths_hz: tuple[float, float, float]


def synth_speakers(n_speakers: int, rng: np.random.Generator) -> list[SynthSpeaker]:
    """Speaker parameters drawn from ``rng``: distinct pitches and formant sets."""
    if n_speakers < 2:
        raise ValueError("need at least 2 speakers")
    base = np.linspace(PITCH_LO_HZ, PITCH_HI_HZ, n_speakers)
    jitter = rng.uniform(-3.0, 3.0, n_speakers)
    pitches = np.clip(base + jitter, PITCH_LO_HZ, PITCH_HI_HZ)
    speakers = []
    for i in range(n_speakers):
        formants = tuple(float(rng.uniform(lo, hi)) for lo, hi in FORMANT_RANGES)
        bandwidths = tuple(float(rng.uniform(*BANDWIDTH_RANGE)) for _ in range(3))
        speakers.append(
            SynthSpeaker(
                speaker_id=f"spk{i:02d}",
                pitch_hz=float(pitches[i]),
                formants_hz=formants,
                bandwidths_hz=bandwidths,
            )
        )
    return speakers


def resonator(center_hz: float, bandwidth_hz: float, sample_rate: int) -> tuple[list[float], list[float]]:
    """Stable two-pole resonator with unity DC gain (pole radius < 1), as lfilter taps (b, a).

    y[n] = gain*x[n] + b1*y[n-1] + b2*y[n-2], so b = [gain] and a = [1, -b1, -b2].
    """
    if bandwidth_hz <= 0:
        raise ValueError("bandwidth must be positive for a stable resonator")
    if sample_rate <= 0:
        raise ValueError("sample_rate must be positive")
    r = math.exp(-math.pi * bandwidth_hz / sample_rate)
    theta = 2.0 * math.pi * center_hz / sample_rate
    b1 = 2.0 * r * math.cos(theta)
    b2 = -r * r
    return [1.0 - b1 - b2], [1.0, -b1, -b2]


def _voiced_run(speaker: SynthSpeaker, n_samples: int, sample_rate: int, amplitude: float, phase: int):
    """One voiced stretch: impulse train through the speaker's resonators."""
    # imported here, not at module level: scipy.signal takes about 1 s to
    # import, and only corpus generation needs it
    import scipy.signal

    period = int(round(sample_rate / speaker.pitch_hz))
    positions = np.arange(phase, n_samples, period)
    source = np.zeros(n_samples)
    source[positions] = amplitude
    out = source
    for f, bw in zip(speaker.formants_hz, speaker.bandwidths_hz):
        out = scipy.signal.lfilter(*resonator(f, bw, sample_rate), out)
    return out, positions


def synth_utterance(
    speaker: SynthSpeaker,
    utterance_id: str,
    rng: np.random.Generator,
    sample_rate: int = 16000,
) -> Utterance:
    """One utterance: 3-4 voiced runs separated by silence, PCM-grid quantized."""
    period = int(round(sample_rate / speaker.pitch_hz))
    n_runs = int(rng.integers(3, 5))
    chunks: list[np.ndarray] = []
    segments: list[PhoneSegment] = []
    impulses: list[int] = []
    cursor = 0

    def add_silence(dur_s: float):
        nonlocal cursor
        n = int(round(dur_s * sample_rate))
        chunks.append(np.zeros(n))
        segments.append(PhoneSegment(cursor, cursor + n, SILENCE_PHONE))
        cursor += n

    add_silence(rng.uniform(0.08, 0.15))
    for _ in range(n_runs):
        n = int(round(rng.uniform(0.3, 0.6) * sample_rate))
        amplitude = float(rng.uniform(0.5, 1.0))
        phase = int(rng.integers(MIN_PHASE, period))
        run, positions = _voiced_run(speaker, n, sample_rate, amplitude, phase)
        chunks.append(run)
        segments.append(PhoneSegment(cursor, cursor + n, VOICED_PHONE))
        impulses.extend(int(p) + cursor for p in positions)
        cursor += n
        add_silence(rng.uniform(0.08, 0.2))

    samples = np.concatenate(chunks)
    peak = float(np.max(np.abs(samples)))
    samples *= 0.7 / peak
    # quantize onto the 16-bit PCM grid so disk round trips are exact
    samples = np.clip(np.rint(samples * PCM_SCALE), -32768, 32767) / PCM_SCALE
    return Utterance(
        samples=samples,
        sample_rate=sample_rate,
        speaker_id=speaker.speaker_id,
        utterance_id=utterance_id,
        segments=segments,
        impulses=np.array(impulses, dtype=np.int64),
    )


def synth_corpus(
    n_speakers: int,
    utterances_per_speaker: int,
    seed: int,
    sample_rate: int = 16000,
) -> list[Utterance]:
    """Generate a deterministic corpus; same arguments give identical output."""
    if utterances_per_speaker < 1:
        raise ValueError("need at least 1 utterance per speaker")
    if int(round(sample_rate / PITCH_HI_HZ)) <= MIN_PHASE:
        raise ValueError(f"sample_rate {sample_rate} too low: {PITCH_HI_HZ:g} Hz needs a period "
                         f"over {MIN_PHASE} samples")
    rng = np.random.default_rng(seed)
    speakers = synth_speakers(n_speakers, rng)
    utterances = []
    for speaker in speakers:
        for j in range(utterances_per_speaker):
            utterances.append(synth_utterance(speaker, f"u{j:02d}", rng, sample_rate))
    return utterances
