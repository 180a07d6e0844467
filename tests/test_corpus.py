import builtins
import collections
import dataclasses
import io
import os
import struct
import wave

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TIMIT_IDS, write_timit_tree
from spkid.corpus import (
    DEFAULT_VOICED_SET,
    TIMIT_FEMALE,
    TIMIT_MALE,
    CorpusError,
    MalformedWavError,
    PhnParseError,
    PhoneSegment,
    UnsupportedWavError,
    Utterance,
    UtteranceFile,
    _parse_gci,
    extract_voiced_regions,
    list_corpus,
    list_timit_utterances,
    load_corpus,
    load_voiced_set,
    max_period,
    min_period,
    parse_phn,
    save_corpus,
    split_speakers,
    write_wav,
)
from spkid.synth import VOICED_PHONE, synth_corpus


def write_raw_wav(path, ints, rate=16000, channels=1, sampwidth=2):
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(channels)
        wf.setsampwidth(sampwidth)
        wf.setframerate(rate)
        wf.writeframes(np.asarray(ints, dtype="<i2").tobytes())


def read_wav(path):
    """The file read as a corpus reads it: ids from the directory name and the file stem."""
    return UtteranceFile(path.parent.name, path.stem, path).read()


def read_timit(root, seed=42):
    """Every file of the seeded TIMIT draw, read."""
    return [f.read() for f in list_timit_utterances(root, seed=seed)]


def make_utt(n=4000, segments=None, speaker="s", utt="u"):
    return Utterance(np.zeros(n), 16000, speaker, utt, segments=segments)


def test_period_bounds_at_16k():
    assert min_period(16000) == 40
    assert max_period(16000) == 267
    assert min_period(8000) == 20


def test_load_wav_pcm_scaling(tmp_path):
    path = tmp_path / "t.wav"
    write_raw_wav(path, [0, 16384, -16384])
    utt = read_wav(path)
    assert utt.samples.tolist() == [0.0, 0.5, -0.5]
    assert utt.sample_rate == 16000
    assert utt.utterance_id == "t"


def test_every_int16_value_loads_exactly_as_float32(tmp_path):
    ints = np.arange(-32768, 32768)
    path = tmp_path / "all.wav"
    write_raw_wav(path, ints)
    samples = read_wav(path).samples
    assert samples.dtype == np.float32
    assert np.array_equal(samples.astype(np.float64) * 32768, ints)


def test_utterance_keeps_float32_and_checks_the_values_it_was_given():
    x = np.linspace(-1.0, 1.0, 1001)
    utt = Utterance(x, 16000, "s", "u")
    assert utt.samples.dtype == np.float32 and utt.samples.nbytes == 4 * x.size
    assert np.array_equal(utt.samples, x.astype(np.float32))  # off the 16-bit grid: rounded
    # 1 + 1e-12 narrows to 1.0, so the range check must see the float64 value
    with pytest.raises(ValueError, match="samples exceed"):
        Utterance(np.array([0.5, 1.0 + 1e-12]), 16000, "s", "u")


def test_utterance_keeps_its_check_when_the_caller_writes_its_array():
    x = np.zeros(10, np.float32)
    utt = Utterance(x, 16000, "s", "u")
    x[0] = 5.0
    assert utt.samples[0] == 0.0 and not utt.samples.flags.writeable


def test_utterance_keeps_its_segments_when_the_caller_changes_its_list():
    segs = [PhoneSegment(0, 50, "ax")]
    utt = Utterance(np.zeros(100), 16000, "s", "u", segs)
    segs.append(PhoneSegment(10, 500, "ax"))  # overlaps, and ends past the samples
    assert utt.segments == (PhoneSegment(0, 50, "ax"),)


def test_utterance_keeps_its_impulses_when_the_caller_writes_its_array():
    imp = np.array([10, 60], dtype=np.int32)
    utt = Utterance(np.zeros(100), 16000, "s", "u", impulses=imp)
    imp[0] = 999
    assert utt.impulses.tolist() == [10, 60] and utt.impulses.dtype == np.int64
    assert not utt.impulses.flags.writeable


def test_load_wav_rejects_sphere(tmp_path):
    path = tmp_path / "sphere.wav"
    path.write_bytes(b"NIST_1A\n   1024\n" + b"\x00" * 64)
    with pytest.raises(UnsupportedWavError, match="SPHERE"):
        read_wav(path)


def test_load_wav_rejects_garbage(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"this is not audio at all")
    with pytest.raises(MalformedWavError):
        read_wav(path)


def test_load_wav_rejects_truncated_riff(tmp_path):
    path = tmp_path / "trunc.wav"
    path.write_bytes(b"RIFF\x04\x00\x00\x00WAVE")
    with pytest.raises(MalformedWavError):
        read_wav(path)


def test_load_wav_rejects_every_cut_inside_the_header(tmp_path):
    whole = tmp_path / "whole.wav"
    write_raw_wav(whole, [0, 16384, -16384])
    valid = whole.read_bytes()
    assert len(valid) == 44 + 6
    # wave raises EOFError for a file that ends inside a chunk header (cuts of 4-7 and 20-35 bytes)
    for n in range(44):
        path = tmp_path / f"cut{n}.wav"
        path.write_bytes(valid[:n])
        with pytest.raises(MalformedWavError) as err:
            read_wav(path)
        assert str(err.value).startswith(f"{path}: ")


@pytest.mark.parametrize("cut", [1, 2, 1000])
def test_load_wav_rejects_a_cut_inside_the_data(cut, tmp_path):
    # without the check, a cut by whole frames loads short and one by an odd byte fails in numpy, unnamed
    path = tmp_path / "cut.wav"
    write_raw_wav(path, np.arange(1000))
    path.write_bytes(path.read_bytes()[:-cut])
    with pytest.raises(MalformedWavError) as err:
        read_wav(path)
    assert str(err.value) == f"{path}: file ends inside its data chunk ({2000 - cut} of 2000 bytes)"


def riff(*chunks, size=None):
    """A RIFF/WAVE file of the given (name, body) chunks, each odd body padded; ``size`` overrides the RIFF size."""
    body = b"WAVE" + b"".join(
        name + struct.pack("<I", len(data)) + data + b"\0" * (len(data) & 1) for name, data in chunks
    )
    return b"RIFF" + struct.pack("<I", len(body) if size is None else size) + body


FMT = (b"fmt ", struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16))
DATA = (b"data", struct.pack("<3h", 0, 16384, -16384))


@pytest.mark.parametrize(
    "chunks, riff_size, message",
    [
        ([(b"LIST", b"odd"), FMT, DATA], None, None),  # a pad byte follows the odd chunk
        ([FMT, DATA, (b"LIST", b"odd")], None, None),  # chunks after the data are not read
        ([FMT, DATA], 4 + 8 + 16, "fmt chunk and/or data chunk missing"),  # the RIFF ends before the data
        # the odd chunk's pad byte runs past the RIFF size, where wave raised a bare RuntimeError
        ([(b"LIST", b"odd"), FMT, DATA], 4 + 8 + 3, "fmt chunk and/or data chunk missing"),
        ([(b"fmt ", struct.pack("<HHIIHH", 1, 0, 16000, 0, 0, 16)), DATA], None, "bad # of channels"),
        ([(b"fmt ", struct.pack("<HHIIHH", 1, 1, 16000, 0, 0, 0)), DATA], None, "bad sample width"),
        ([DATA, FMT], None, "data chunk before fmt chunk"),
        ([FMT], None, "fmt chunk and/or data chunk missing"),
        ([(b"LIST", b"odd")], None, "fmt chunk and/or data chunk missing"),
        ([(b"fmt ", FMT[1][:14]), DATA], None, "file ends inside its header"),  # PCM needs 16 bytes
        ([(b"fmt ", struct.pack("<HHIIH", 0xFFFE, 1, 16000, 32000, 2)), DATA], None, "unknown format: 65534"),
    ],
)
def test_load_wav_walks_the_chunks_as_wave_does(chunks, riff_size, message, tmp_path):
    path = tmp_path / "w.wav"
    path.write_bytes(riff(*chunks, size=riff_size))
    if message is None:
        assert read_wav(path).samples.tolist() == [0.0, 0.5, -0.5]
    else:
        with pytest.raises(MalformedWavError) as err:
            read_wav(path)
        assert str(err.value) == f"{path}: {message}"


def test_load_wav_rejects_stereo(tmp_path):
    path = tmp_path / "st.wav"
    write_raw_wav(path, [0, 0, 0, 0], channels=2)
    with pytest.raises(UnsupportedWavError, match="mono"):
        read_wav(path)


def test_load_wav_rejects_8bit(tmp_path):
    path = tmp_path / "b8.wav"
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(1)
        wf.setframerate(16000)
        wf.writeframes(b"\x00\x01\x02")
    with pytest.raises(UnsupportedWavError, match="16-bit"):
        read_wav(path)


def test_load_wav_rejects_float_format(tmp_path):
    # hand-rolled RIFF with IEEE-float format code 3
    data = struct.pack("<4f", 0.0, 0.1, -0.1, 0.2)
    fmt = struct.pack("<HHIIHH", 3, 1, 16000, 64000, 4, 32)
    body = b"WAVEfmt " + struct.pack("<I", len(fmt)) + fmt + b"data" + struct.pack("<I", len(data)) + data
    path = tmp_path / "f32.wav"
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    with pytest.raises((UnsupportedWavError, MalformedWavError)):
        read_wav(path)


def test_wav_round_trip_via_synth(tmp_path):
    utt = synth_corpus(2, 1, seed=11)[0]
    assert utt.samples.size > 1000
    path = tmp_path / "rt.wav"
    write_wav(path, utt.samples, utt.sample_rate)
    back = read_wav(path)
    assert back.sample_rate == utt.sample_rate
    assert np.array_equal(back.samples, utt.samples)


def test_parse_phn_basic(tmp_path):
    path = tmp_path / "a.phn"
    path.write_text("0 3050 h#\n3050 4000 iy\n")
    segs = parse_phn(path)
    assert segs[0] == PhoneSegment(0, 3050, "h#")
    assert segs[1].phone == "iy"


def test_parse_phn_empty(tmp_path):
    path = tmp_path / "e.phn"
    path.write_text("")
    assert parse_phn(path) == []


def test_parse_phn_overlap(tmp_path):
    path = tmp_path / "o.phn"
    path.write_text("0 10 a\n5 12 b\n")
    with pytest.raises(PhnParseError, match="overlap"):
        parse_phn(path)


def test_parse_phn_bad_line_reports_number(tmp_path):
    path = tmp_path / "b.phn"
    path.write_text("0 10 a\nnonsense\n")
    with pytest.raises(PhnParseError, match=":2"):
        parse_phn(path)


def test_utterance_validation():
    # every error names the speaker and the utterance
    named = "^speaker s utterance u: "
    with pytest.raises(ValueError, match=named):
        Utterance(np.array([]), 16000, "s", "u")
    with pytest.raises(ValueError, match=named):
        Utterance(np.array([2.0]), 16000, "s", "u")
    with pytest.raises(ValueError, match=named):
        Utterance(np.zeros(10), 0, "s", "u")
    with pytest.raises(ValueError, match=named):
        make_utt(100, [PhoneSegment(0, 50, "a"), PhoneSegment(40, 80, "b")])
    with pytest.raises(ValueError, match=named):
        make_utt(100, [PhoneSegment(0, 200, "a")])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_utterance_rejects_non_finite_samples(bad):
    samples = np.zeros(100)
    samples[40] = bad
    with pytest.raises(ValueError, match="^speaker spk01 utterance u03: samples must be finite$"):
        Utterance(samples, 16000, "spk01", "u03")


def test_utterance_is_frozen():
    utt = make_utt(100, [PhoneSegment(0, 100, "aa")])
    with pytest.raises(dataclasses.FrozenInstanceError):
        utt.segments = None
    with pytest.raises(dataclasses.FrozenInstanceError):
        utt.samples = np.ones(100)
    # a changed copy is checked like a new one
    with pytest.raises(ValueError, match="^speaker s utterance u: segment ends at sample 200, past the 100 samples$"):
        dataclasses.replace(utt, segments=[PhoneSegment(0, 200, "aa")])


def test_voiced_regions_are_views_of_the_utterance():
    utt = synth_corpus(2, 1, seed=3)[0]
    regions = extract_voiced_regions(utt, frozenset({VOICED_PHONE}))
    assert regions
    for r in regions:
        assert np.shares_memory(r.samples, utt.samples)
        assert np.array_equal(r.samples, utt.samples[r.source_offset : r.source_offset + len(r)])


def test_extract_voiced_regions_merges_runs():
    segs = [
        PhoneSegment(0, 500, "h#"),
        PhoneSegment(500, 900, "iy"),
        PhoneSegment(900, 1400, "ih"),
        PhoneSegment(1400, 1700, "s"),
        PhoneSegment(1700, 2400, "aa"),
    ]
    utt = make_utt(2400, segs)
    regions = extract_voiced_regions(utt, frozenset({"iy", "ih", "aa"}))
    assert [(r.source_offset, len(r)) for r in regions] == [(500, 900), (1700, 700)]
    assert regions[0].region_id.endswith("@500")


def test_extract_voiced_regions_none_voiced():
    utt = make_utt(1000, [PhoneSegment(0, 1000, "h#")])
    assert extract_voiced_regions(utt, DEFAULT_VOICED_SET) == []


def test_extract_voiced_regions_drops_short_runs():
    # 100 samples < one max pitch period (267 at 16 kHz)
    utt = make_utt(1000, [PhoneSegment(0, 100, "aa"), PhoneSegment(100, 1000, "h#")])
    assert extract_voiced_regions(utt, frozenset({"aa"})) == []


def test_extract_voiced_regions_requires_segments():
    with pytest.raises(ValueError):
        extract_voiced_regions(make_utt(), DEFAULT_VOICED_SET)


def test_extract_voiced_regions_breaks_at_gaps():
    # voiced labels that are not sample-contiguous do not merge
    segs = [PhoneSegment(0, 400, "iy"), PhoneSegment(500, 900, "ih")]
    utt = make_utt(900, segs)
    regions = extract_voiced_regions(utt, frozenset({"iy", "ih"}))
    assert [(r.source_offset, len(r)) for r in regions] == [(0, 400), (500, 400)]


@given(
    st.lists(
        st.tuples(st.integers(1, 500), st.sampled_from(["aa", "s", "h#", "iy"])),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=60, deadline=None)
def test_extract_voiced_regions_invariants(layout):
    segs = []
    cursor = 0
    for length, phone in layout:
        segs.append(PhoneSegment(cursor, cursor + length, phone))
        cursor += length
    utt = make_utt(cursor, segs)
    regions = extract_voiced_regions(utt, frozenset({"aa", "iy"}))
    total = 0
    prev_end = 0
    for r in regions:
        assert r.source_offset >= prev_end
        assert r.source_offset + len(r) <= utt.samples.size
        assert len(r) >= max_period(16000)
        prev_end = r.source_offset + len(r)
        total += len(r)
    assert total <= utt.samples.size


def test_split_speakers_default_and_sa():
    utts = [make_utt(100, None, "spk", f"u{i}") for i in range(8)]
    (split,) = split_speakers(utts)
    assert [u.utterance_id for u in split.train_utterances] == [f"u{i}" for i in range(6)]
    assert [u.utterance_id for u in split.test_utterances] == ["u6", "u7"]

    utts = [make_utt(100, None, "spk", name) for name in ["sa1", "sa2", "si1", "sx1", "sx2", "sx3", "sx4", "sx5"]]
    (split,) = split_speakers(utts)
    assert [u.utterance_id for u in split.test_utterances] == ["sa1", "sa2"]
    assert len(split.train_utterances) == 6


def test_split_speakers_too_few_names_speaker():
    utts = [make_utt(100, None, "spk9", f"u{i}") for i in range(5)]
    with pytest.raises(CorpusError, match="spk9"):
        split_speakers(utts)


def test_split_speakers_rejects_counts_below_one():
    utts = [make_utt(100, None, "spk", f"u{i}") for i in range(8)]
    for n_train, n_test, message in [
        (0, 2, "n_train must be >= 1, got 0"),
        (-2, 2, "n_train must be >= 1, got -2"),
        (6, 0, "n_test must be >= 1, got 0"),
        (6, -1, "n_test must be >= 1, got -1"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            split_speakers(utts, n_train, n_test)


def test_voiced_set_file(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("aa\niy\n\nv\n")
    assert load_voiced_set(path) == frozenset({"aa", "iy", "v"})
    empty = tmp_path / "e.txt"
    empty.write_text("\n")
    with pytest.raises(CorpusError):
        load_voiced_set(empty)


def test_corpus_dir_round_trip(tmp_path):
    utts = synth_corpus(2, 2, seed=3)
    save_corpus(utts, tmp_path)
    back = load_corpus(tmp_path)
    assert len(back) == len(utts)
    orig = {(u.speaker_id, u.utterance_id): u for u in utts}
    for b in back:
        o = orig[(b.speaker_id, b.utterance_id)]
        assert np.array_equal(b.samples, o.samples)
        assert b.segments == o.segments
        assert np.array_equal(b.impulses, o.impulses)


def test_load_corpus_missing(tmp_path):
    (tmp_path / "empty").mkdir()
    for finder in (load_corpus, list_corpus):
        with pytest.raises(CorpusError, match="is not a directory"):
            finder(tmp_path / "nope")
        with pytest.raises(CorpusError, match="no wav files found under"):
            finder(tmp_path / "empty")


@pytest.mark.parametrize("name", ["test", "TRAIN"])
def test_speaker_named_like_a_timit_part_loads_as_plain_corpus(tmp_path, name):
    utts = synth_corpus(2, 8, seed=5, sample_rate=8000)
    save_corpus(utts, tmp_path)
    (tmp_path / "spk01").rename(tmp_path / name)
    back = load_corpus(tmp_path)
    assert sorted({u.speaker_id for u in back}) == sorted(["spk00", name])
    orig = {(u.speaker_id.replace("spk01", name), u.utterance_id): u for u in utts}
    assert len(back) == len(orig)
    for b in back:
        assert np.array_equal(b.samples, orig[b.speaker_id, b.utterance_id].samples)


def test_load_timit_utterances_draws_each_gender(timit_tree):
    root, _ = timit_tree
    utts = read_timit(root, seed=3)
    speakers = sorted({u.speaker_id for u in utts})
    assert [s[0] for s in speakers].count("M") == TIMIT_MALE
    assert [s[0] for s in speakers].count("F") == TIMIT_FEMALE
    assert len(utts) == (TIMIT_MALE + TIMIT_FEMALE) * len(TIMIT_IDS)
    again = read_timit(root, seed=3)
    assert [(u.speaker_id, u.utterance_id) for u in again] == [(u.speaker_id, u.utterance_id) for u in utts]
    assert {u.speaker_id for u in read_timit(root, seed=4)} != set(speakers)


def test_load_timit_utterances_lowercases_ids_and_attaches_segments(timit_tree):
    root, segments = timit_tree
    utts = read_timit(root, seed=0)
    assert len({u.speaker_id for u in utts}) == TIMIT_MALE + TIMIT_FEMALE
    for u in utts:
        assert u.utterance_id in {i.lower() for i in TIMIT_IDS}
        assert u.segments == segments[u.speaker_id, u.utterance_id]


def test_load_timit_utterances_too_few_speakers(tmp_path):
    write_timit_tree(tmp_path, TIMIT_MALE - 1, TIMIT_FEMALE)
    with pytest.raises(CorpusError, match="found 15 male / 14 female speakers, need 16/14"):
        read_timit(tmp_path)


def test_timit_sa_sentences_go_to_test(timit_tree):
    root, _ = timit_tree
    splits = split_speakers(read_timit(root, seed=3))
    assert len(splits) == TIMIT_MALE + TIMIT_FEMALE
    for split in splits:
        assert [u.utterance_id for u in split.test_utterances] == ["sa1", "sa2"]
        assert [u.utterance_id for u in split.train_utterances] == ["si1", "si2", "sx1", "sx2", "sx3", "sx4"]


def _same_utterance(a, b):
    assert (a.speaker_id, a.utterance_id, a.sample_rate) == (b.speaker_id, b.utterance_id, b.sample_rate)
    assert np.array_equal(a.samples, b.samples)
    assert a.segments == b.segments
    assert (a.impulses is None) == (b.impulses is None)
    if a.impulses is not None:
        assert a.impulses.dtype == b.impulses.dtype and np.array_equal(a.impulses, b.impulses)


def test_load_corpus_reads_every_listed_file(tmp_path, timit_tree):
    save_corpus(synth_corpus(3, 2, seed=3), tmp_path)
    for root in (tmp_path, timit_tree[0]):
        files = list_corpus(root)
        assert all(isinstance(f, UtteranceFile) for f in files)
        loaded = load_corpus(root)
        assert len(loaded) == len(files) > 0
        for utt, f in zip(loaded, files):
            _same_utterance(utt, f.read())


def test_reading_a_file_opens_each_file_once_and_stats_none(tmp_path, timit_tree, monkeypatch):
    save_corpus(synth_corpus(2, 1, seed=3), tmp_path)
    [synth, *_] = list_corpus(tmp_path)
    timit = next(f for f in list_timit_utterances(timit_tree[0]) if f.path.suffix == ".WAV")
    stem = str(timit.path.with_suffix(""))
    for f, opened in [
        (synth, [synth.path, synth.path.with_suffix(".phn"), synth.path.with_suffix(".gci")]),
        (timit, [timit.path, stem + ".phn", stem + ".PHN", stem + ".gci"]),  # .phn and .gci are absent
    ]:
        opens = collections.Counter()
        real_open = builtins.open

        def counted(file, *args, **kwargs):
            opens[os.fspath(file)] += 1
            return real_open(file, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(builtins, "open", counted)
            patch.setattr(os, "stat", lambda *args, **kwargs: pytest.fail(f"stat{args} was called"))
            utt = f.read()
        assert opens == collections.Counter(os.fspath(p) for p in opened)
        assert utt.segments and (utt.impulses is None) == (f is timit)


def test_plain_listing_is_the_sorted_wav_paths(tmp_path):
    save_corpus(synth_corpus(2, 3, seed=3), tmp_path)
    assert list_corpus(tmp_path) == [
        UtteranceFile(p.parent.name, p.stem, p) for p in sorted(tmp_path.glob("*/*.wav"))
    ]


def test_timit_listing_is_the_draw_load_timit_utterances_reads(timit_tree):
    root, _ = timit_tree
    files = list_timit_utterances(root, seed=3)
    assert list_corpus(root) == list_timit_utterances(root)  # the seed-42 draw
    loaded = read_timit(root, seed=3)
    assert len(loaded) == len(files) == (TIMIT_MALE + TIMIT_FEMALE) * len(TIMIT_IDS)
    for utt, f in zip(loaded, files):
        _same_utterance(utt, f.read())


def test_listing_splits_as_its_utterances_do(timit_tree, tmp_path):
    save_corpus(synth_corpus(3, 9, seed=3), tmp_path)
    for root in (tmp_path, timit_tree[0]):
        by_file = split_speakers(list_corpus(root), 5, 3)
        by_utt = split_speakers(load_corpus(root), 5, 3)
        assert len(by_file) == len(by_utt)
        for f, u in zip(by_file, by_utt):
            assert f.speaker_id == u.speaker_id
            for role in ("train_utterances", "test_utterances"):
                assert [x.utterance_id for x in getattr(f, role)] == [x.utterance_id for x in getattr(u, role)]
                assert all(isinstance(x, UtteranceFile) for x in getattr(f, role))


def _parse_gci_line_by_line(path):
    """The epoch-file parser as it was before the one-conversion fast path."""
    epochs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                epochs.append(int(line))
            except ValueError:
                if line.strip():
                    raise CorpusError(f"{path}:{lineno}: expected one sample index, got {line!r}") from None
    return np.array(epochs, dtype=np.int64)


def test_gci_parse_matches_the_line_by_line_parser(tmp_path):
    save_corpus(synth_corpus(3, 2, seed=9), tmp_path)
    paths = sorted(tmp_path.glob("*/*.gci"))
    assert len(paths) == 6
    # save_corpus output takes the fast path; the other texts leave it (blank lines, CRLF, spaces,
    # no final newline, a sign, an underscore) and must still parse as before
    odd = ["1\n\n2\n", "1\r\n2\r\n", " 3 \n4", "", "\n\n", "5\n\n\n", "\n7\n", "+8\n-9\n", "1_0\n"]
    for i, text in enumerate(odd):
        path = tmp_path / f"odd{i}.gci"
        path.write_bytes(text.encode())
        paths.append(path)
    for path in paths:
        fast, ref = _parse_gci(path), _parse_gci_line_by_line(path)
        assert fast.dtype == ref.dtype == np.int64
        assert np.array_equal(fast, ref), path.read_bytes()


@pytest.mark.parametrize(
    "text, bad", [("99999999999999999999\n", 1), ("1\n-9223372036854775809\n", 2), ("1\n\n9223372036854775808", 3)]
)
def test_gci_index_beyond_int64_names_its_line(tmp_path, text, bad):
    path = tmp_path / "u.gci"
    path.write_bytes(text.encode())
    line = text.splitlines(keepends=True)[bad - 1]
    with pytest.raises(CorpusError) as err:
        _parse_gci(path)
    assert str(err.value) == f"{path}:{bad}: expected one sample index, got {line!r}"
    # the largest int64 index still parses
    path.write_bytes(b"9223372036854775807\n")
    assert _parse_gci(path).tolist() == [2**63 - 1]


@pytest.mark.parametrize("text", ["1\n12x\n3\n", "1\n12 13\n", "1\n\n2\n3x", "1.5\n", "4\n5\t6\n"])
def test_gci_bad_line_message_is_unchanged(tmp_path, text):
    path = tmp_path / "u.gci"
    path.write_bytes(text.encode())
    with pytest.raises(CorpusError) as fast:
        _parse_gci(path)
    with pytest.raises(CorpusError) as ref:
        _parse_gci_line_by_line(path)
    assert str(fast.value) == str(ref.value)
    bad = next(i for i, line in enumerate(io.StringIO(text), start=1) if line.strip() and not line.strip().isdigit())
    assert str(fast.value).startswith(f"{path}:{bad}: expected one sample index, got ")


@pytest.mark.parametrize(
    "read, name, error",
    [(parse_phn, "u.phn", PhnParseError), (_parse_gci, "u.gci", CorpusError), (load_voiced_set, "v.txt", CorpusError)],
)
def test_text_file_that_is_not_utf8_names_the_file(tmp_path, read, name, error):
    path = tmp_path / name
    path.write_bytes(b"12\xff\n")
    with pytest.raises(error) as err:
        read(path)
    assert str(err.value) == f"{path}: not UTF-8 text: invalid start byte at byte offset 2"


@pytest.mark.parametrize("renamed", ["speaker", "wav"])
def test_listing_refuses_a_name_that_is_not_utf8(tmp_path, renamed):
    save_corpus(synth_corpus(2, 3, seed=3, sample_rate=8000), tmp_path)
    old = tmp_path / "spk01" if renamed == "speaker" else tmp_path / "spk01" / "u01.wav"
    # os.fsdecode gives the byte 0xff as the surrogate "\udcff"
    new = old.with_name(os.fsdecode(b"spk\xff" if renamed == "speaker" else b"u\xff.wav"))
    old.rename(new)
    for finder in (list_corpus, load_corpus):
        with pytest.raises(CorpusError) as err:
            finder(tmp_path)
        assert str(err.value) == f"{new}: name is not UTF-8"


def test_timit_listing_refuses_a_speaker_name_that_is_not_utf8(tmp_path):
    write_timit_tree(tmp_path, TIMIT_MALE, TIMIT_FEMALE)  # every speaker is drawn
    old = next(tmp_path.glob("*/*/M0000"))
    new = old.with_name(os.fsdecode(b"M\xff"))
    old.rename(new)
    for finder in (list_corpus, list_timit_utterances):
        with pytest.raises(CorpusError) as err:
            finder(tmp_path)
        assert str(err.value) == f"{new}: name is not UTF-8"
