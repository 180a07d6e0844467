"""Waveform and label IO, voiced-region selection, and train/test splits.

Corpus layout on disk: one directory per speaker, holding ``<utt>.wav``
(RIFF/WAVE, PCM 16-bit mono), ``<utt>.phn`` (TIMIT-style ``begin end phone``
lines), and optionally ``<utt>.gci`` (ground-truth excitation instants written
by the synthetic generator, one sample index per line). A TIMIT tree
(``TRAIN``/``TEST``/``DR*``/``<speaker>``) loads as the 30-speaker protocol's
seeded draw.

Finding a corpus's files (``list_corpus``) is apart from reading them
(``UtteranceFile.read``; ``load_corpus`` reads every listed file), so a
listing can be split by id before any audio is read.
"""

from __future__ import annotations

import io
import os
import struct
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PCM_SCALE = 32768.0  # symmetric 16-bit range

PITCH_MIN_HZ = 60.0
PITCH_MAX_HZ = 400.0

# Sonorant TIMIT labels treated as voiced by default: vowels, semivowels,
# nasals. Overridable via a voiced-set file (one label per line).
DEFAULT_VOICED_SET = frozenset(
    (
        "iy ih eh ae aa aw ay ah ao oy ow uh uw ux er ax ix axr ax-h "
        "l r w y el "
        "m n ng em en eng nx"
    ).split()
)

# Utterance-id prefix of TIMIT's two SA sentences, which go to the test set
TEST_UTTERANCE_PREFIX = "sa"

# Speakers of each gender that the 30-speaker TIMIT protocol draws
TIMIT_MALE, TIMIT_FEMALE = 16, 14


class CorpusError(ValueError):
    """Base class for corpus file problems."""


class MalformedWavError(CorpusError):
    """File is not a readable RIFF/WAVE container."""


class UnsupportedWavError(CorpusError):
    """WAV container is valid but the encoding is not PCM 16-bit mono."""


class PhnParseError(CorpusError):
    """Phone label file could not be parsed."""


def min_period(sample_rate: int) -> int:
    """Shortest plausible pitch period in samples (400 Hz)."""
    return int(round(sample_rate / PITCH_MAX_HZ))


def max_period(sample_rate: int) -> int:
    """Longest plausible pitch period in samples (60 Hz)."""
    return int(round(sample_rate / PITCH_MIN_HZ))


@dataclass(frozen=True)
class PhoneSegment:
    begin: int
    end: int
    phone: str

    def __post_init__(self):
        if self.begin < 0 or self.begin >= self.end:
            raise ValueError(f"bad segment bounds [{self.begin}, {self.end})")


@dataclass(frozen=True, eq=False)
class Utterance:
    """A mono waveform with amplitudes in [-1, 1], plus optional phone labels.

    Checked once, at construction; labels must be sorted, non-overlapping and
    end within the samples. The samples are kept as float32: every stage that
    computes on them widens to float64 first. That is exact for 16-bit PCM
    (k/32768), as read from a wav or made by ``synth_corpus``, and halves the
    memory per sample; other values are checked as given, then rounded to
    float32. The samples are a read-only copy of the caller's array, the
    segments a tuple and the impulses a read-only int64 copy, so the checks
    hold for every later use. Frozen: build a changed copy with
    ``dataclasses.replace``.
    ``impulses`` carries ground-truth excitation positions for synthetic
    utterances (absolute sample indices); None for real recordings.
    """

    samples: np.ndarray
    sample_rate: int
    speaker_id: str
    utterance_id: str
    segments: tuple[PhoneSegment, ...] | None = None
    impulses: np.ndarray | None = None

    def __post_init__(self):
        samples = np.asarray(self.samples)
        where = f"speaker {self.speaker_id} utterance {self.utterance_id}"
        if self.sample_rate <= 0:
            raise ValueError(f"{where}: sample_rate must be positive")
        if samples.size == 0:
            raise ValueError(f"{where}: no samples")
        # checked before narrowing, which could round a value just past 1 to 1
        low, high = float(samples.min()), float(samples.max())  # NaN if any sample is NaN
        if not (np.isfinite(low) and np.isfinite(high)):
            raise ValueError(f"{where}: samples must be finite")
        peak = max(-low, high)
        if peak > 1.0:
            raise ValueError(f"{where}: samples exceed [-1, 1] (peak {peak})")
        object.__setattr__(self, "samples", np.array(samples, dtype=np.float32, order="C"))
        self.samples.flags.writeable = False
        if self.impulses is not None:
            object.__setattr__(self, "impulses", np.array(self.impulses, dtype=np.int64))
            self.impulses.flags.writeable = False
        object.__setattr__(self, "segments", None if self.segments is None else tuple(self.segments))
        prev_end = 0
        for seg in self.segments or ():
            if seg.begin < prev_end:
                raise ValueError(f"{where}: segments overlap or unsorted at {seg}")
            prev_end = seg.end
        if prev_end > self.samples.size:
            raise ValueError(f"{where}: segment ends at sample {prev_end}, past the {self.samples.size} samples")

    def read(self) -> Utterance:
        """The utterance itself: it is in memory already, as an ``UtteranceFile`` is not."""
        return self


@dataclass(frozen=True)
class UtteranceFile:
    """One utterance of a corpus on disk, listed but not read: its ids and its wav path.

    ``list_corpus`` finds them; ``split_speakers`` splits them by id as it
    splits utterances, so a caller reads only the files of the split it uses.
    """

    speaker_id: str
    utterance_id: str
    path: Path

    def read(self) -> Utterance:
        """The wav plus its ``.phn`` (or ``.PHN``) labels and optional ``.gci`` epochs."""
        samples, rate = _read_pcm(self.path)
        # each sibling is opened once, unchecked beforehand: one that is not there is absent
        stem = os.path.splitext(self.path)[0]
        segments = impulses = None
        for phn in (stem + ".phn", stem + ".PHN"):
            with suppress(FileNotFoundError):
                segments = parse_phn(phn)
                break
        with suppress(FileNotFoundError):
            impulses = _parse_gci(stem + ".gci")
        return Utterance(samples, rate, self.speaker_id, self.utterance_id, segments, impulses)


@dataclass(frozen=True, eq=False)
class VoicedRegion:
    """Contiguous voiced slice of an utterance; ``samples`` is a view of the utterance's."""

    samples: np.ndarray
    source_offset: int
    sample_rate: int
    region_id: str = ""

    def __len__(self) -> int:
        return self.samples.size


@dataclass
class SpeakerSplit:
    """One speaker's train and test utterances: ``Utterance``s, or ``UtteranceFile``s not yet read."""

    speaker_id: str
    train_utterances: list[Utterance] | list[UtteranceFile]
    test_utterances: list[Utterance] | list[UtteranceFile]

    def __post_init__(self):
        train_ids = {u.utterance_id for u in self.train_utterances}
        test_ids = {u.utterance_id for u in self.test_utterances}
        if train_ids & test_ids:
            raise ValueError(
                f"speaker {self.speaker_id}: train/test sets overlap: {train_ids & test_ids}"
            )


def _read_pcm(path: Path) -> tuple[np.ndarray, int]:
    """float32 samples (scaled by 1/32768) and sample rate of a RIFF/WAVE PCM 16-bit mono file.

    The file is read in one call and its chunks walked as the standard
    library's ``wave`` walks them, with its messages: no chunk reaches past
    the RIFF size, an odd-sized chunk is followed by a pad byte, ``fmt ``
    must come before ``data`` and the walk stops at ``data``.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] == b"NIST":
        raise UnsupportedWavError(
            f"{path}: NIST SPHERE container; convert to RIFF/WAVE (e.g. with sph2pipe) first"
        )
    if data[:4] != b"RIFF":
        raise MalformedWavError(f"{path}: not a RIFF/WAVE file")
    if len(data) < 8:
        raise MalformedWavError(f"{path}: file ends inside its header")
    end = min(len(data), 8 + int.from_bytes(data[4:8], "little"))
    if data[8:min(12, end)] != b"WAVE":
        raise MalformedWavError(f"{path}: not a WAVE file")
    fmt, pos = None, 12
    while pos + 8 <= end:
        name, size = struct.unpack_from("<4sI", data, pos)
        pos += 8
        if name == b"fmt ":
            fields = data[pos:min(pos + size, end)]
            if len(fields) < 14:
                raise MalformedWavError(f"{path}: file ends inside its header")
            tag, channels, rate = struct.unpack_from("<HHI", fields)
            if tag != 1:
                raise MalformedWavError(f"{path}: unknown format: {tag}")
            if len(fields) < 16:
                raise MalformedWavError(f"{path}: file ends inside its header")
            width = (struct.unpack_from("<H", fields, 14)[0] + 7) // 8
            if not width:
                raise MalformedWavError(f"{path}: bad sample width")
            if not channels:
                raise MalformedWavError(f"{path}: bad # of channels")
            fmt = channels, rate, width
        elif name == b"data":
            if fmt is None:
                raise MalformedWavError(f"{path}: data chunk before fmt chunk")
            break
        pos += size + (size & 1)
    else:
        raise MalformedWavError(f"{path}: fmt chunk and/or data chunk missing")
    channels, rate, width = fmt
    if channels != 1:
        raise UnsupportedWavError(f"{path}: {channels} channels, need mono")
    if width != 2:
        raise UnsupportedWavError(f"{path}: {8 * width}-bit samples, need 16-bit")
    frames = size // 2
    if pos + 2 * frames > end:
        raise MalformedWavError(f"{path}: file ends inside its data chunk ({end - pos} of {2 * frames} bytes)")
    return np.frombuffer(data, "<i2", frames, pos) / np.float32(PCM_SCALE), rate  # exact: k/32768 fits float32


def write_wav(path, samples, sample_rate: int) -> None:
    """Write samples in [-1, 1] as PCM 16-bit mono."""
    import wave  # here, not at the top: reading a corpus does not need it

    samples = np.asarray(samples, dtype=np.float64)
    ints = np.clip(np.rint(samples * PCM_SCALE), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(sample_rate)
        wf.writeframes(ints.tobytes())


def parse_phn(path) -> list[PhoneSegment]:
    """Parse a TIMIT-style label file: one 'begin end phone' triple per line."""
    path = Path(path)
    segments: list[PhoneSegment] = []
    for lineno, line in enumerate(io.StringIO(_read_text(path, PhnParseError)), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 3:
            raise PhnParseError(f"{path}:{lineno}: expected 'begin end phone', got {line!r}")
        try:
            begin, end = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise PhnParseError(f"{path}:{lineno}: non-integer bounds in {line!r}") from exc
        try:
            seg = PhoneSegment(begin, end, parts[2])
        except ValueError as exc:
            raise PhnParseError(f"{path}:{lineno}: {exc}") from exc
        if segments and seg.begin < segments[-1].end:
            raise PhnParseError(
                f"{path}:{lineno}: segment {seg} overlaps or precedes previous {segments[-1]}"
            )
        segments.append(seg)
    return segments


def _read_text(path, error: type[CorpusError] = CorpusError) -> str:
    """A text file's contents; one that is not UTF-8 raises ``error`` naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc.reason} at byte offset {exc.start}") from None


def _parse_gci(path: Path) -> np.ndarray:
    """Read an epoch file: one sample index per line; blank lines are skipped."""
    text = _read_text(path)
    tokens = text.split()
    # one conversion when every line holds one index, as save_corpus writes them
    if "\n".join(tokens) == text.rstrip("\n"):
        try:
            return np.array(tokens, dtype=np.int64)
        except (ValueError, OverflowError):  # the line-by-line pass below names the line
            pass
    epochs: list[int] = []
    for lineno, line in enumerate(io.StringIO(text), start=1):
        try:
            epochs.append(np.int64(int(line)))  # an index beyond int64 overflows here, on its line
        except (ValueError, OverflowError):  # blank lines are skipped
            if line.strip():
                raise CorpusError(f"{path}:{lineno}: expected one sample index, got {line!r}") from None
    return np.array(epochs, dtype=np.int64)


def load_voiced_set(path) -> frozenset[str]:
    """Read a voiced-set file: one phone label per line."""
    labels = {line.strip() for line in io.StringIO(_read_text(path)) if line.strip()}
    if not labels:
        raise CorpusError(f"{path}: voiced-set file is empty")
    return frozenset(labels)


def extract_voiced_regions(utt: Utterance, voiced_set: frozenset[str]) -> list[VoicedRegion]:
    """Merge maximal runs of contiguous voiced segments into regions.

    Each region's samples are a view into the utterance's. Runs shorter than
    one maximum pitch period are dropped; no complete pitch cycle fits in
    them.
    """
    if utt.segments is None:
        raise ValueError(f"speaker {utt.speaker_id} utterance {utt.utterance_id}: no phone segments")
    runs: list[list[int]] = []
    for seg in utt.segments:
        if seg.phone not in voiced_set:
            continue
        if runs and runs[-1][1] == seg.begin:
            runs[-1][1] = seg.end
        else:
            runs.append([seg.begin, seg.end])
    min_length = max_period(utt.sample_rate)
    return [
        VoicedRegion(utt.samples[a:b], a, utt.sample_rate, f"{utt.speaker_id}/{utt.utterance_id}@{a}")
        for a, b in runs
        if b - a >= min_length
    ]


def split_speakers(
    utterances: list[Utterance] | list[UtteranceFile], n_train: int = 6, n_test: int = 2
) -> list[SpeakerSplit]:
    """Group utterances (read, or listed files) by speaker into disjoint train/test sets.

    The split looks at ids only, so a listing splits as its utterances would.
    Utterance ids starting with ``TEST_UTTERANCE_PREFIX`` (case-insensitive)
    are placed in the test set first; remaining test slots are filled from
    the end of the id-sorted list. Deterministic.
    """
    for name, count in (("n_train", n_train), ("n_test", n_test)):
        if count < 1:
            raise ValueError(f"{name} must be >= 1, got {count}")
    by_speaker: dict[str, list] = {}
    for utt in utterances:
        by_speaker.setdefault(utt.speaker_id, []).append(utt)

    splits = []
    for speaker_id in sorted(by_speaker):
        utts = sorted(by_speaker[speaker_id], key=lambda u: u.utterance_id)
        if len(utts) < n_train + n_test:
            raise CorpusError(
                f"speaker {speaker_id} has {len(utts)} utterances, "
                f"needs {n_train + n_test} for a {n_train}/{n_test} split"
            )
        test = [u for u in utts if u.utterance_id.lower().startswith(TEST_UTTERANCE_PREFIX)][:n_test]
        rest = [u for u in utts if all(u is not t for t in test)]
        while len(test) < n_test:
            test.append(rest.pop())
        train = rest[:n_train]
        splits.append(SpeakerSplit(speaker_id, train, sorted(test, key=lambda u: u.utterance_id)))
    return splits


def save_corpus(utterances: list[Utterance], root) -> None:
    """Write utterances to the on-disk corpus layout (wav + phn + gci)."""
    root = Path(root)
    for utt in utterances:
        spk_dir = root / utt.speaker_id
        spk_dir.mkdir(parents=True, exist_ok=True)
        write_wav(spk_dir / f"{utt.utterance_id}.wav", utt.samples, utt.sample_rate)
        if utt.segments is not None:
            with open(spk_dir / f"{utt.utterance_id}.phn", "w", encoding="utf-8") as fh:
                for seg in utt.segments:
                    fh.write(f"{seg.begin} {seg.end} {seg.phone}\n")
        if utt.impulses is not None:
            with open(spk_dir / f"{utt.utterance_id}.gci", "w", encoding="utf-8") as fh:
                for pos in utt.impulses:
                    fh.write(f"{int(pos)}\n")


def list_timit_utterances(root, seed: int = 42) -> list[UtteranceFile]:
    """The files of a seeded draw of TIMIT_MALE male and TIMIT_FEMALE female speakers from a TIMIT tree.

    Expects ``root/{TRAIN,TEST}/DR*/<speaker>/<utt>.{wav,phn}`` with speaker
    directories named M* or F*; utterance ids are the lower-cased file stems.
    The .wav files must already be RIFF/WAVE: reading a SPHERE original
    raises with a conversion hint.
    """
    root = Path(root)
    speaker_dirs = sorted(
        (p for p in root.glob("*/*/*") if p.is_dir() and p.name[:1].upper() in ("M", "F")),
        key=lambda p: p.name,
    )
    males = [p for p in speaker_dirs if p.name[:1].upper() == "M"]
    females = [p for p in speaker_dirs if p.name[:1].upper() == "F"]
    if len(males) < TIMIT_MALE or len(females) < TIMIT_FEMALE:
        raise CorpusError(
            f"{root}: found {len(males)} male / {len(females)} female speakers, "
            f"need {TIMIT_MALE}/{TIMIT_FEMALE}"
        )
    rng = np.random.default_rng(seed)
    chosen = [males[i] for i in rng.choice(len(males), size=TIMIT_MALE, replace=False)]
    chosen += [females[i] for i in rng.choice(len(females), size=TIMIT_FEMALE, replace=False)]
    return _utf8_names([
        UtteranceFile(spk_dir.name, wav_path.stem.lower(), wav_path)
        for spk_dir in chosen
        for wav_path in sorted(list(spk_dir.glob("*.wav")) + list(spk_dir.glob("*.WAV")))
    ])


def list_corpus(root) -> list[UtteranceFile]:
    """The utterance files under root/<speaker>/<utt>.wav, in path order; nothing is read.

    A root whose TRAIN or TEST directory (any case) holds DR* directories is
    a TIMIT tree: it lists as ``list_timit_utterances(root)``, the seed-42
    draw. A speaker directory named ``train`` or ``test`` holds only files.
    """
    root = Path(root)
    if not root.is_dir():
        raise CorpusError(f"corpus root {root} is not a directory")
    if any(
        part.name.upper() in ("TRAIN", "TEST") and part.is_dir()
        and any(p.name.upper().startswith("DR") and p.is_dir() for p in part.iterdir())
        for part in root.iterdir()
    ):
        return list_timit_utterances(root)
    files = [UtteranceFile(p.parent.name, p.stem, p) for p in sorted(root.glob("*/*.wav"))]
    if not files:
        raise CorpusError(f"no wav files found under {root}")
    return _utf8_names(files)


def _utf8_names(files: list[UtteranceFile]) -> list[UtteranceFile]:
    """``files``, once each speaker directory and wav name is known to be UTF-8, as the ids are written as text.

    ``os.fsdecode`` gives a name that is not UTF-8 with surrogates, which no
    UTF-8 writer takes; refusing it here fails a command before it reads a file.
    """
    for f in files:
        for path in (f.path.parent, f.path):
            try:
                path.name.encode("utf-8")
            except UnicodeEncodeError:
                raise CorpusError(f"{path}: name is not UTF-8") from None
    return files


def load_corpus(root) -> list[Utterance]:
    """Read every file of ``list_corpus(root)``, attaching labels and metadata."""
    return [f.read() for f in list_corpus(root)]
