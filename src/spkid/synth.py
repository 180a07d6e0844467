"""License-free synthetic test corpus.

Each synthetic speaker is an impulse-train source at a fixed pitch driving a
cascade of three two-pole formant resonators (Klatt, 1980), numpy only: the
cascade's impulse response is built once per speaker, and each voiced run sums
it at the pitch period. Utterances alternate voiced runs (phone ``ax``, a TIMIT
sonorant, so the default voiced set takes them) with silence (phone ``h#``),
and the exact impulse positions are ground truth for excitation-instant tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import PCM_SCALE, PhoneSegment, Utterance
from .dsp import _fast_len

PITCH_LO_HZ = 90.0
PITCH_HI_HZ = 260.0
MIN_PHASE = 5  # a voiced run's first impulse: at this sample or later, within one period
RUN_S = (0.3, 0.6)  # (shortest, longest) voiced run, seconds

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


def formant_response(speaker: SynthSpeaker, n: int, sample_rate: int) -> np.ndarray:
    """First ``n`` samples of the impulse response of the speaker's resonator cascade, unity gain at 0 Hz.

    Resonator y[m] = g*x[m] + 2r*cos(t)*y[m-1] - r^2*y[m-2], g = 1 - 2r*cos(t) + r^2, has impulse
    response g*r^m*sin((m+1)t)/sin(t); the three are convolved as one FFT product.
    """
    m = np.arange(n)
    nfft = _fast_len(2 * n)
    spectrum = np.ones(nfft // 2 + 1, dtype=complex)
    for f, bw in zip(speaker.formants_hz, speaker.bandwidths_hz):
        r = math.exp(-math.pi * bw / sample_rate)
        theta = 2.0 * math.pi * f / sample_rate
        gain = 1.0 - 2.0 * r * math.cos(theta) + r * r
        spectrum *= np.fft.rfft(gain * r**m * np.sin((m + 1) * theta) / math.sin(theta), nfft)
    return np.fft.irfft(spectrum, nfft)[:n]


def _voiced_run(speaker: SynthSpeaker, n_samples: int, sample_rate: int, amplitude: float, phase: int, response):
    """Constant-amplitude impulse train through the cascade: ``response`` cumulatively summed down period-long rows.

    ``response`` spans at least ``n_samples - phase`` samples.
    """
    period = int(round(sample_rate / speaker.pitch_hz))
    n = n_samples - phase
    combed = np.pad(response[:n], (0, -n % period)).reshape(-1, period).cumsum(axis=0).ravel()[:n]
    return amplitude * np.concatenate([np.zeros(phase), combed]), np.arange(phase, n_samples, period)


def synth_utterance(
    speaker: SynthSpeaker,
    utterance_id: str,
    rng: np.random.Generator,
    response: np.ndarray,
    sample_rate: int = 16000,
) -> Utterance:
    """One utterance: 3-4 voiced runs between silences, PCM-grid quantized; ``response`` spans the longest run."""
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
        n = int(round(rng.uniform(*RUN_S) * sample_rate))
        amplitude = float(rng.uniform(0.5, 1.0))
        phase = int(rng.integers(MIN_PHASE, period))
        run, positions = _voiced_run(speaker, n, sample_rate, amplitude, phase, response)
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
        response = formant_response(speaker, int(round(RUN_S[1] * sample_rate)), sample_rate)
        for j in range(utterances_per_speaker):
            utterances.append(synth_utterance(speaker, f"u{j:02d}", rng, response, sample_rate))
    return utterances
