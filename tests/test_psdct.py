import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from spkid import psdct
from spkid.gci import PitchCycle
from spkid.psdct import (
    dct2,
    mec,
    normalize_energy,
    psdct_feature,
)

frames = st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=300).map(np.array)
live_frames = frames.filter(lambda x: float(np.dot(x, x)) > 1e-6)


def dct_via_dft(x):
    """Independent oracle: DFT of the even-symmetric 2M extension, rescaled."""
    x = np.asarray(x, dtype=np.float64)
    m = x.size
    spectrum = np.fft.fft(np.concatenate([x, x[::-1]]))
    k = np.arange(m)
    raw = 0.5 * np.real(np.exp(-1j * np.pi * k / (2 * m)) * spectrum[:m])
    scale = np.full(m, np.sqrt(2.0 / m))
    scale[0] = np.sqrt(1.0 / m)
    return scale * raw


def cycle_of(samples):
    samples = np.asarray(samples, dtype=np.float64)
    return PitchCycle(samples=samples, start_peak=0, end_peak=samples.size, region_id="t")


def test_dct2_constant_frame_is_dc_only():
    c = dct2([1.0, 1.0, 1.0, 1.0])
    assert c[0] == pytest.approx(2.0, abs=1e-12)
    assert np.max(np.abs(c[1:])) < 1e-12


def test_dct2_matches_basis_vector():
    m = 64
    x = np.cos(np.pi * (2 * np.arange(m) + 1) * 3 / (2 * m))
    c = dct2(x)
    assert c[3] == pytest.approx(np.sqrt(m / 2.0), abs=1e-9)
    assert np.max(np.abs(np.delete(c, 3))) < 1e-9


def test_dct2_matches_dft_oracle_on_random_frames():
    rng = np.random.default_rng(0)
    for _ in range(100):
        m = int(rng.integers(40, 268))
        x = rng.normal(size=m)
        assert np.max(np.abs(dct2(x) - dct_via_dft(x))) < 1e-6


def test_dct2_empty_raises():
    with pytest.raises(ValueError):
        dct2([])


@given(live_frames)
@settings(max_examples=100, deadline=None)
def test_parseval(x):
    c = dct2(x)
    energy = float(np.dot(x, x))
    assert abs(float(np.dot(c, c)) - energy) <= 1e-9 * energy


def test_normalize_energy_345():
    assert np.allclose(normalize_energy([3.0, 4.0]), [0.6, 0.8])


@given(live_frames)
@settings(max_examples=100, deadline=None)
def test_normalize_energy_unit_and_idempotent(x):
    u = normalize_energy(x)
    assert float(np.dot(u, u)) == pytest.approx(1.0, abs=1e-9)
    assert np.max(np.abs(normalize_energy(u) - u)) < 1e-12


def test_normalize_energy_zero_raises():
    with pytest.raises(ValueError):
        normalize_energy(np.zeros(10))


def test_psdct_feature_constant_cycle_is_zero_vector():
    f = psdct_feature(cycle_of(np.full(100, 0.3)), 15)
    assert np.max(np.abs(f.values)) < 1e-12


def test_psdct_feature_default_dimension_is_15():
    rng = np.random.default_rng(1)
    f = psdct_feature(cycle_of(rng.normal(size=120)))
    assert f.values.size == 15


def test_psdct_feature_scale_invariance():
    rng = np.random.default_rng(2)
    x = rng.normal(size=160)
    a = psdct_feature(cycle_of(x), 15).values
    b = psdct_feature(cycle_of(5.0 * x), 15).values
    assert np.max(np.abs(a - b)) < 1e-9


def test_psdct_feature_too_short_raises():
    with pytest.raises(ValueError):
        psdct_feature(cycle_of(np.ones(15)), 15)


def test_mec_monotone_and_bounded():
    rng = np.random.default_rng(3)
    cycles = [cycle_of(rng.normal(size=int(rng.integers(60, 200)))) for _ in range(40)]
    values = [mec(cycles, k) for k in (10, 15, 20, 25, 30, 35, 40)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert all(0.0 <= v <= 1.0 for v in values)


def test_mec_reaches_one_for_zero_mean_cycles():
    rng = np.random.default_rng(4)
    m = 80
    cycles = []
    for _ in range(10):
        x = rng.normal(size=m)
        cycles.append(cycle_of(x - x.mean()))
    assert mec(cycles, m - 1) == pytest.approx(1.0, abs=1e-9)


def test_mec_denominator_variants_ordered():
    rng = np.random.default_rng(5)
    cycles = [cycle_of(rng.normal(size=100) + 0.5) for _ in range(10)]
    # excluding the mean coefficient from the denominator can only raise the ratio
    assert mec(cycles, 15, include_dc=False) >= mec(cycles, 15, include_dc=True)


def test_mec_errors():
    with pytest.raises(ValueError):
        mec([], 15)
    with pytest.raises(ValueError):
        mec([cycle_of(np.ones(10))], 15)
    # the first short cycle in list order is named, not the shortest
    ok_60, short_12, short_10 = (cycle_of(np.ones(m)) for m in (60, 12, 10))
    with pytest.raises(ValueError, match="^cycle of 12 samples too short for 15 coefficients$"):
        mec([ok_60, short_12, short_10], 15)


@pytest.mark.parametrize("include_dc", [True, False])
def test_mec_does_not_depend_on_each_cycles_scale(include_dc):
    rng = np.random.default_rng(13)
    lengths = [45, 80, 80, 200, 613, 45] * 5
    samples = [rng.normal(size=m) + rng.normal() for m in lengths]
    original = [mec([cycle_of(x) for x in samples], k, include_dc) for k in (10, 25, 40)]
    # a power of two scales every product and sum exactly, so the ratio keeps its bits
    powers = 2.0 ** rng.integers(-7, 10, size=len(samples))
    scaled = [cycle_of(p * x) for p, x in zip(powers, samples)]
    assert [mec(scaled, k, include_dc) for k in (10, 25, 40)] == original
    factors = rng.uniform(1e-3, 1e3, size=len(samples))
    scaled = [cycle_of(f * x) for f, x in zip(factors, samples)]
    for k, value in zip((10, 25, 40), original):
        assert abs(mec(scaled, k, include_dc) - value) <= 1e-14 * value


def test_mec_zero_energy_cycle_raises():
    with pytest.raises(ValueError):
        mec([cycle_of(np.ones(60)), cycle_of(np.zeros(60))], 15)


def test_dct2_rejects_zero_coefficients():
    with pytest.raises(ValueError):
        dct2(np.ones(8), 0)


def test_dct2_truncated_matches_full_and_scipy():
    rng = np.random.default_rng(6)
    for m in [2, 16, 41, 42, 900, *rng.integers(2, 901, size=25)]:
        x = rng.normal(size=int(m))
        full = dct2(x)
        ref = scipy.fft.dct(x, type=2, norm="ortho")
        for n in (1, 16, 41, x.size):
            c = dct2(x, n)
            assert c.shape == (min(n, x.size),)
            assert np.max(np.abs(c - full[:n])) < 1e-12
            assert np.max(np.abs(c - ref[:n])) < 1e-12


def test_dct2_rows_independent_of_request_order(monkeypatch):
    monkeypatch.setattr(psdct, "_BASES", {})
    rng = np.random.default_rng(7)
    x = rng.normal(size=333)
    few_first = dct2(x, 5)
    many = dct2(x, 41)  # rebuilds the cached basis with more rows
    few_after = dct2(x, 5)  # served from the larger basis
    assert np.array_equal(few_first, few_after)
    assert np.max(np.abs(many[:5] - few_first)) < 1e-12
    assert psdct._BASES[333].shape == (41, 333)


def test_cached_dct_basis_is_read_only():
    x = np.random.default_rng(9).normal(size=77)
    before = dct2(x, 16)
    with pytest.raises(ValueError):
        psdct._dct_basis(77, 16)[:] = 0.0
    assert np.array_equal(dct2(x, 16), before)


def mec_reference(cycles, n_coeffs, include_dc):
    ratios = []
    for cycle in cycles:
        c2 = scipy.fft.dct(normalize_energy(cycle.samples), type=2, norm="ortho") ** 2
        ratios.append(c2[1 : n_coeffs + 1].sum() / (c2.sum() if include_dc else c2[1:].sum()))
    return float(np.mean(ratios))


@pytest.mark.parametrize("include_dc", [True, False])
def test_mec_mixed_lengths_matches_per_cycle_reference(include_dc):
    rng = np.random.default_rng(8)
    lengths = rng.choice([45, 80, 81, 200, 613], size=60)
    cycles = [cycle_of(rng.normal(size=int(m)) + rng.normal()) for m in lengths]
    for k in (10, 25, 40):
        assert abs(mec(cycles, k, include_dc) - mec_reference(cycles, k, include_dc)) < 1e-12


def mec_grouped_reference(cycles, n_coeffs, include_dc):
    """``mec`` grouped as it was before its sort: a dict of index lists in first-appearance order, then ``np.stack``."""
    by_length = {}
    for i, cycle in enumerate(cycles):
        by_length.setdefault(len(cycle), []).append(i)
    ratios = np.empty(len(cycles))
    for m, idx in by_length.items():
        x = np.stack([cycles[i].samples for i in idx]).astype(np.float64, copy=False)
        energy = np.einsum("ij,ij->i", x, x)
        c2 = (x @ psdct._dct_basis(m, n_coeffs + 1).T) ** 2
        denom = energy if include_dc else energy - c2[:, 0]
        ratios[idx] = c2[:, 1:].sum(axis=1) / denom
    return float(np.mean(ratios))


@pytest.mark.parametrize("include_dc", [True, False])
def test_mec_bits_equal_the_first_appearance_grouping(include_dc):
    # interleaved lengths, each repeated far apart, so sorting reorders the groups but not their rows
    rng = np.random.default_rng(12)
    lengths = [613, 45, 200, 81, 80, 97] * 9 + [300, 41, 613, 45]
    cycles = [cycle_of(rng.normal(size=m) + rng.normal()) for m in lengths]
    for k in (10, 25, 40):
        assert mec(cycles, k, include_dc) == mec_grouped_reference(cycles, k, include_dc)
