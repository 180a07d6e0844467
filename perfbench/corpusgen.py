"""Seeded voice corpus for the benchmark, written in the spkid on-disk layout.

The generator is the benchmark's own and imports nothing from spkid, so a
change to ``spkid.synth`` cannot change a workload's inputs. Each speaker is
a pulse train through a one-pole spectral tilt and a cascade of four formant
resonators. Compared with a strictly periodic voice it adds:

- per-cycle jitter of the period and shimmer of the pulse amplitude,
- slow drift of pitch (a slow sinusoid plus declination) and of formants
  (each voiced run glides from one vowel target towards another),
- speaker pitch ranges that overlap (each utterance rescales the speaker's
  pitch by up to +-5%, and drift and declination move it by up to 14% more),
- additive white noise at a fixed SNR over the voiced signal,
- exact ground-truth epoch positions, written to ``<utt>.gci``.

The same (spec, seed) gives byte-identical files; ``GEN_VERSION`` is part of
the cache key and must be raised whenever the output of this module changes.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
import wave
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.signal

GEN_VERSION = 1

# Vowel formant targets F1..F3 in Hz (Peterson & Barney 1952, adult male
# means); every label is in spkid's default voiced-phone set.
VOWELS = {
    "iy": (270.0, 2290.0, 3010.0),
    "ih": (390.0, 1990.0, 2550.0),
    "eh": (530.0, 1840.0, 2480.0),
    "ae": (660.0, 1720.0, 2410.0),
    "aa": (730.0, 1090.0, 2440.0),
    "ao": (570.0, 840.0, 2410.0),
    "uh": (440.0, 1020.0, 2240.0),
    "uw": (300.0, 870.0, 2240.0),
    "ah": (520.0, 1190.0, 2390.0),
    "er": (490.0, 1350.0, 1690.0),
}
F4_RANGE_HZ = (3000.0, 4200.0)  # a speaker's fixed fourth resonance
SILENCE = "h#"

PITCH_RANGE_HZ = (95.0, 230.0)
PITCH_SPREAD = 0.05  # an utterance's pitch is the speaker's times 1 +- this
RUN_S = (0.25, 0.4)  # duration range of one voiced run
RUNS = (2, 3)  # voiced runs per utterance, inclusive range
FORMANT_SCALE = 0.15  # speaker vocal-tract scale drawn from 1 +- this
FORMANT_OFFSET = 0.12  # std of a speaker's own relative shift of F1..F3
JITTER = 0.01  # std of the relative period change per cycle
SHIMMER = 0.08  # std of the relative pulse-amplitude change per cycle
SNR_DB = 30.0
BLOCK_S = 0.02  # formants are held constant over blocks of this length
PCM_SCALE = 32768.0


@dataclass(frozen=True)
class CorpusSpec:
    speakers: int
    utterances: int
    sample_rate: int


@dataclass(frozen=True)
class Speaker:
    speaker_id: str
    pitch_hz: float
    formant_scale: float
    formant_offsets: tuple[float, float, float]
    f4_hz: float
    bandwidths_hz: tuple[float, float, float, float]
    tilt: float


def _speaker(i: int, n: int, scale_stratum: int, rng: np.random.Generator) -> Speaker:
    """Speaker i of n. Pitches sit at the centres of n equal strata of their
    range and vocal-tract scales in a random one of n strata of theirs, so
    every seed spreads its speakers evenly over those two traits (which keeps
    accuracy, cycle lengths and memory steady from seed to seed); the other
    traits are drawn freely."""
    lo, hi = PITCH_RANGE_HZ
    return Speaker(
        speaker_id=f"s{i:03d}",
        pitch_hz=float(lo + (i + 0.5) * (hi - lo) / n),
        formant_scale=float(1.0 - FORMANT_SCALE + (scale_stratum + rng.uniform()) * 2.0 * FORMANT_SCALE / n),
        formant_offsets=tuple(float(v) for v in 1.0 + rng.normal(0.0, FORMANT_OFFSET, 3)),
        f4_hz=float(rng.uniform(*F4_RANGE_HZ)),
        bandwidths_hz=tuple(float(v) for v in rng.uniform(50.0, 130.0, 4)),
        tilt=float(rng.uniform(0.55, 0.95)),
    )


def _resonators(formants_hz, bandwidths_hz, sr: int) -> np.ndarray:
    """Klatt two-pole resonators with unity gain at 0 Hz, as second-order sections."""
    r = np.exp(-np.pi * np.asarray(bandwidths_hz) / sr)
    a1, a2 = -2.0 * r * np.cos(2.0 * np.pi * np.asarray(formants_hz) / sr), r * r
    zeros = np.zeros_like(r)
    return np.column_stack([1.0 + a1 + a2, zeros, zeros, np.ones_like(r), a1, a2])


def _voiced_run(spk: Speaker, n: int, sr: int, f0: float, v_from, v_to, rng):
    """One voiced stretch; returns samples and integer epoch positions."""
    t_run = n / sr
    drift_period = rng.uniform(0.25, 0.6)
    drift_phase = rng.uniform(0.0, 2.0 * np.pi)
    epochs, amps = [], []
    t = float(rng.uniform(0.0, 1.0 / f0))
    while t < t_run:
        f = f0 * (1.0 + 0.06 * np.sin(2.0 * np.pi * t / drift_period + drift_phase)) * (1.0 - 0.08 * t / t_run)
        epochs.append(int(round(t * sr)))
        amps.append(1.0 + SHIMMER * rng.normal())
        t += (1.0 + JITTER * rng.normal()) / f
    pos = np.array(epochs, dtype=np.int64)
    keep = np.concatenate(([True], np.diff(pos) > 0)) & (pos < n)
    pos = pos[keep]
    source = np.zeros(n)
    source[pos] = np.array(amps)[keep]
    x = scipy.signal.lfilter([1.0 - spk.tilt], [1.0, -spk.tilt], source)

    scale = spk.formant_scale * np.array(spk.formant_offsets + (1.0,))
    start = scale * np.array(VOWELS[v_from] + (spk.f4_hz / spk.formant_scale,))
    stop = scale * np.array(VOWELS[v_to] + (spk.f4_hz / spk.formant_scale,))
    block = max(1, int(round(BLOCK_S * sr)))
    out = np.empty(n)
    state = np.zeros((4, 2))
    for b0 in range(0, n, block):
        formants = np.minimum(start + (stop - start) * (b0 / n), 0.45 * sr)
        sos = _resonators(formants, spk.bandwidths_hz, sr)
        out[b0 : b0 + block], state = scipy.signal.sosfilt(sos, x[b0 : b0 + block], zi=state)
    return out, pos


def _utterance(spk: Speaker, sr: int, rng: np.random.Generator):
    """Samples on the 16-bit grid, phone segments and epoch positions."""
    f0 = spk.pitch_hz * (1.0 + rng.uniform(-PITCH_SPREAD, PITCH_SPREAD))
    chunks, segments, epochs = [], [], []
    cursor = 0

    def silence(dur_s):
        nonlocal cursor
        n = int(round(dur_s * sr))
        chunks.append(np.zeros(n))
        segments.append((cursor, cursor + n, SILENCE))
        cursor += n

    silence(rng.uniform(0.05, 0.1))
    names = sorted(VOWELS)
    for _ in range(int(rng.integers(RUNS[0], RUNS[1] + 1))):
        n = int(round(rng.uniform(*RUN_S) * sr))
        v_from, v_to = (names[int(i)] for i in rng.integers(len(names), size=2))
        run, pos = _voiced_run(spk, n, sr, f0, v_from, v_to, rng)
        run *= rng.uniform(0.5, 1.0) / max(float(np.max(np.abs(run))), 1e-12)
        chunks.append(run)
        segments.append((cursor, cursor + n, v_from))
        epochs.append(pos + cursor)
        cursor += n
        silence(rng.uniform(0.05, 0.12))

    x = np.concatenate(chunks)
    voiced = np.concatenate([x[b:e] for b, e, p in segments if p != SILENCE])
    noise_power = float(np.mean(voiced**2)) / 10.0 ** (SNR_DB / 10.0)
    x = x + rng.normal(0.0, np.sqrt(noise_power), x.size)
    x *= 0.7 / float(np.max(np.abs(x)))
    pcm = np.clip(np.rint(x * PCM_SCALE), -32768, 32767).astype("<i2")
    return pcm, segments, np.concatenate(epochs)


def _wav_bytes(pcm: np.ndarray, sr: int) -> bytes:
    buf = io.BytesIO()
    with wave.open(buf, "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(sr)
        wf.writeframes(pcm.tobytes())
    return buf.getvalue()


def generate(spec: CorpusSpec, seed: int, salt: str, speakers=None) -> dict[str, bytes]:
    """Corpus files as {relative path: bytes}; ``salt`` separates workloads.

    Each speaker draws from its own child of the seed, so ``speakers`` (a list
    of indices) regenerates a subset exactly as the whole corpus has it.
    """
    root = np.random.SeedSequence([seed, zlib.crc32(salt.encode()), GEN_VERSION])
    population, *children = root.spawn(spec.speakers + 1)
    scale_strata = np.random.default_rng(population).permutation(spec.speakers)
    files: dict[str, bytes] = {}
    for i, child in enumerate(children):
        if speakers is not None and i not in speakers:
            continue
        rng = np.random.default_rng(child)
        spk = _speaker(i, spec.speakers, int(scale_strata[i]), rng)
        for j in range(spec.utterances):
            pcm, segments, epochs = _utterance(spk, spec.sample_rate, rng)
            stem = f"{spk.speaker_id}/u{j:02d}"
            files[f"{stem}.wav"] = _wav_bytes(pcm, spec.sample_rate)
            files[f"{stem}.phn"] = "".join(f"{b} {e} {p}\n" for b, e, p in segments).encode()
            files[f"{stem}.gci"] = "".join(f"{int(e)}\n" for e in epochs).encode()
    return files


def _digests(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.glob("*/*")) if p.is_file()
    }


def _same_bytes(files: dict[str, bytes], root: Path) -> None:
    for name, data in files.items():
        if (root / name).read_bytes() != data:
            raise RuntimeError(f"{root / name}: not byte-identical to a fresh generation with the same seed")


def ensure_corpus(spec: CorpusSpec, seed: int, salt: str, cache_dir: Path) -> tuple[Path, bool]:
    """Return the cached corpus directory for (spec, seed), generating it on a miss.

    Each call checks every file against the digests written with the corpus,
    and regenerates the first and last speaker to check that the same seed
    still gives byte-identical files. Returns (directory, cache hit).
    """
    key = f"{salt}-{spec.speakers}x{spec.utterances}-{spec.sample_rate}-seed{seed}-gen{GEN_VERSION}"
    root = cache_dir / key
    manifest = root / "manifest.json"
    hit = manifest.exists()
    if not hit:
        tmp = cache_dir / f".{key}.{os.getpid()}.tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        for name, data in generate(spec, seed, salt).items():
            (tmp / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp / name).write_bytes(data)
        (tmp / "manifest.json").write_text(json.dumps({"gen_version": GEN_VERSION, "files": _digests(tmp)}, indent=1))
        shutil.rmtree(root, ignore_errors=True)
        os.replace(tmp, root)
    if json.loads(manifest.read_text())["files"] != _digests(root):
        raise RuntimeError(f"{root}: files differ from the digests written when it was generated")
    _same_bytes(generate(spec, seed, salt, speakers={0, spec.speakers - 1}), root)
    return root, hit
