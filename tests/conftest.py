import pytest

from spkid.corpus import write_wav
from spkid.synth import synth_corpus

TIMIT_IDS = ["SA1", "SA2", "SI1", "SI2", "SX1", "SX2", "SX3", "SX4"]


@pytest.fixture(scope="session")
def corpus12():
    """12 speakers x 8 utterances; shared by the GCI and acceptance suites."""
    return synth_corpus(12, 8, seed=7)


def write_timit_tree(root, n_male, n_female):
    """A TIMIT-layout tree of ``n_male`` M* and ``n_female`` F* speaker directories.

    Every speaker holds the 8 kHz utterances of one of two synthetic voices,
    named ``TIMIT_IDS``. About half the speakers sit under ``train/dr1`` and
    half under ``TEST/DR2``; about half use ``.WAV``/``.PHN`` names.
    Returns the phone segments of each written (speaker, lower-case utterance id).
    """
    voices = synth_corpus(2, len(TIMIT_IDS), seed=11, sample_rate=8000)
    names = [f"M{i:03d}0" for i in range(n_male)] + [f"F{i:03d}0" for i in range(n_female)]
    segments = {}
    for i, name in enumerate(names):
        spk_dir = root / ("train/dr1" if i // 2 % 2 else "TEST/DR2") / name
        spk_dir.mkdir(parents=True)
        wav, phn = (".WAV", ".PHN") if i // 4 % 2 else (".wav", ".phn")
        voice = voices[(i % 2) * len(TIMIT_IDS) : (i % 2 + 1) * len(TIMIT_IDS)]
        for utt, utt_id in zip(voice, TIMIT_IDS):
            write_wav(spk_dir / f"{utt_id}{wav}", utt.samples, utt.sample_rate)
            (spk_dir / f"{utt_id}{phn}").write_text(
                "".join(f"{s.begin} {s.end} {s.phone}\n" for s in utt.segments), encoding="utf-8"
            )
            segments[name, utt_id.lower()] = utt.segments
    return segments


@pytest.fixture(scope="session")
def timit_tree(tmp_path_factory):
    """18 male and 16 female speakers in a TIMIT-layout tree: more than the protocol draws.

    Returns the root and the phone segments of each written (speaker, utterance id).
    """
    root = tmp_path_factory.mktemp("timit")
    return root, write_timit_tree(root, 18, 16)
