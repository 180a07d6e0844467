"""Excitation-epoch detection and peak-to-peak pitch-cycle segmentation.

Epochs are found by zero-frequency filtering: the mean-removed region is
passed twice through an ideal resonator at 0 Hz (two running sums each), the
polynomial trend this introduces is removed by mean subtraction over one
pitch period, and the positive local maxima of the residue mark the
excitation instants. (For impulse-like excitation the residue is
near-sinusoidal with its peaks at the impulses; its upward zero crossings sit
a quarter period early, so the peaks are the phase-correct marker.) Each
epoch is then mapped to the nearest waveform peak, and cycles are cut peak to
peak.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass

import numpy as np

from .corpus import VoicedRegion, max_period, min_period
from .dsp import autocorr_pitch, moving_average, resonate

log = logging.getLogger(__name__)

# mean-subtraction passes; one pass leaves residual curvature from the
# fourth-order trend the two integrator stages build up
TREND_REMOVAL_PASSES = 2


@dataclass(frozen=True)
class EpochList:
    """Strictly increasing excitation-instant positions, region-relative.

    Candidates closer than one minimum pitch period to their predecessor are
    filtered out at detection time; gaps longer than one maximum period can
    remain (an unvoiced stretch inside the region) and yield no cycles.
    """

    positions: np.ndarray

    def __len__(self) -> int:
        return self.positions.size


@dataclass(frozen=True, eq=False)
class PitchCycle:
    """One peak-to-peak analysis frame; samples[0] is the starting peak.

    ``samples`` is a view into the region's samples, not a copy; nothing in
    spkid writes to it.
    """

    samples: np.ndarray
    start_peak: int
    end_peak: int
    region_id: str = ""

    def __len__(self) -> int:
        return self.samples.size


def detect_gci(region: VoicedRegion) -> EpochList:
    """Locate excitation epochs in a voiced region.

    Raises if the region is shorter than one maximum pitch period. A result
    with fewer than 2 epochs (e.g. silence) is returned as-is and logged;
    it simply yields no cycles downstream.
    """
    sr = region.sample_rate
    lo, hi = min_period(sr), max_period(sr)
    x = np.array(region.samples, dtype=np.float64)  # a float64 copy, centred in place
    if x.size < hi:
        raise ValueError(f"region of {x.size} samples is shorter than one max pitch period ({hi})")

    x -= x.mean()
    period = autocorr_pitch(x, lo, hi)

    y = resonate(resonate(x))
    win = period if period % 2 == 1 else period + 1
    for _ in range(TREND_REMOVAL_PASSES):
        y = y - moving_average(y, win)

    candidates = np.nonzero((y[1:-1] > y[:-2]) & (y[1:-1] >= y[2:]) & (y[1:-1] > 0))[0] + 1
    # integration transients corrupt the residue near the edges
    guard = win
    candidates = candidates[(candidates >= guard) & (candidates < x.size - guard)]

    # enforce the minimum gap; closer maxima are trend-removal ripple
    kept: list[int] = []
    for c in candidates:
        if not kept or c - kept[-1] >= lo:
            kept.append(int(c))
    if len(kept) < 2:
        log.info("region %s: %d epochs, no cycles to cut", region.region_id, len(kept))
    return EpochList(np.array(kept, dtype=np.int64))


def map_to_peaks(region: VoicedRegion, epochs: EpochList) -> np.ndarray:
    """Map each epoch to the nearest waveform peak.

    Searches a +-T/4 window around the epoch (T = local epoch gap), takes the
    maximum sample, then hill-climbs to the enclosing local maximum so cycle
    endpoints are true extrema. Duplicates collapse to one entry.
    """
    x = region.samples  # only compared, so its own dtype serves
    pos = epochs.positions
    if pos.size == 0:
        return np.empty(0, dtype=np.int64)

    if pos.size >= 2:
        gaps = np.diff(pos)
        local_t = np.append(gaps, gaps[-1])
    else:
        local_t = np.array([min_period(region.sample_rate)])

    half = np.maximum(1, local_t // 4)
    win_lo = np.maximum(0, pos - half)
    widths = np.minimum(x.size, pos + half + 1) - win_lo
    # one masked argmax over an (epochs x widest window) matrix
    last = x.size - 1
    offsets = np.arange(widths.max())
    windows = x[np.minimum(win_lo[:, None] + offsets, last)]
    windows[offsets >= widths[:, None]] = -np.inf
    p = win_lo + np.argmax(windows, axis=1)

    # a window maximum can only be exceeded next door at a window edge
    uphill = (x[np.minimum(p + 1, last)] > x[p]) | (x[np.maximum(p - 1, 0)] > x[p])
    for i in np.flatnonzero(uphill):
        q = int(p[i])
        while q + 1 < x.size and x[q + 1] > x[q]:
            q += 1
        while q - 1 >= 0 and x[q - 1] > x[q]:
            q -= 1
        p[i] = q
    # keep a peak only if it lies past every earlier one
    keep = np.concatenate(([True], p[1:] > np.maximum.accumulate(p)[:-1]))
    return p[keep].astype(np.int64, copy=False)


def segment_cycles(region: VoicedRegion, peaks) -> list[PitchCycle]:
    """Cut one cycle per consecutive peak pair with a plausible pitch-period gap.

    Cycles of all-zero samples are dropped.
    """
    peaks = np.asarray(peaks, dtype=np.int64)
    if peaks.size and np.any(np.diff(peaks) <= 0):
        raise ValueError("peaks must be strictly increasing")
    lo, hi = min_period(region.sample_rate), max_period(region.sample_rate)
    x = region.samples
    starts, ends = peaks[:-1], peaks[1:]
    gaps = ends - starts
    nonzero_before = np.concatenate(([0], np.cumsum(x != 0)))
    keep = (gaps >= lo) & (gaps <= hi) & (nonzero_before[ends] > nonzero_before[starts])
    return [
        PitchCycle(samples=x[p:q], start_peak=int(p), end_peak=int(q), region_id=region.region_id)
        for p, q in zip(starts[keep], ends[keep])
    ]


def cycles_from_region(region: VoicedRegion) -> list[PitchCycle]:
    """Full chain: epochs -> peaks -> cycles."""
    epochs = detect_gci(region)
    peaks = map_to_peaks(region, epochs)
    return segment_cycles(region, peaks)


def dump_epochs_csv(fh, region: VoicedRegion, epochs: EpochList, peaks) -> None:
    """Debug dump of (region_id, epoch, mapped_peak) rows, each line ended by a bare line feed."""
    peaks = np.asarray(peaks, dtype=np.int64)
    writer = csv.writer(fh, lineterminator="\n")
    for e in epochs.positions:
        nearest = int(peaks[np.argmin(np.abs(peaks - e))]) if peaks.size else -1
        writer.writerow([region.region_id, int(e), nearest])
