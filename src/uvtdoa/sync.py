"""Pilot-sequence generation and correlation-peak arrival estimation.

The receiver slides the known +/-1 pilot over per-symbol chip sums and takes
the maximum-correlation start chip in each anchor's slot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChipTrace, SignalParams


class SyncError(ValueError):
    """Invalid synchronization input."""


class WindowOverrunError(SyncError):
    """Search window plus pilot does not fit inside the trace."""


# Feedback taps of maximal-length shift registers (Fibonacci form), one
# primitive polynomial per register size.
_LFSR_TAPS = {
    2: (2, 1),
    3: (3, 2),
    4: (4, 3),
    5: (5, 3),
    6: (6, 5),
    7: (7, 6),
    8: (8, 6, 5, 4),
    9: (9, 5),
    10: (10, 7),
    11: (11, 9),
    12: (12, 11, 10, 4),
    13: (13, 12, 11, 8),
    14: (14, 13, 12, 2),
    15: (15, 14),
    16: (16, 15, 13, 4),
}


def _m_sequence(order: int, state: int) -> np.ndarray:
    """One period of the maximal-length sequence from a nonzero seed state."""
    taps = _LFSR_TAPS[order]
    period = (1 << order) - 1
    out = np.empty(period, dtype=np.int64)
    reg = state
    for i in range(period):
        out[i] = (reg >> (order - 1)) & 1
        fb = 0
        for t in taps:
            fb ^= (reg >> (t - 1)) & 1
        reg = ((reg << 1) | fb) & period
    return out


def _sharp_autocorrelation(sequence: np.ndarray) -> bool:
    """True when every cyclic +/-1 autocorrelation sidelobe is below the peak."""
    s = 2 * sequence - 1
    main = int(s @ s)
    return all(int(s @ np.roll(s, k)) < main for k in range(1, len(s)))


def generate_pilot(length_l: int, seed: int) -> np.ndarray:
    """Balanced pseudo-noise 0/1 pilot of the requested length.

    Bits are drawn from a maximal-length shift-register sequence whose period
    is at least ``length_l``; the seed selects the register fill and the
    starting phase. Phases are scanned deterministically until the ones count
    lands within sqrt(L) of L/2 and the cyclic autocorrelation peak is
    strict, so the generator contract always holds.
    """
    if length_l < 2:
        raise SyncError(f"pilot length must be >= 2, got {length_l}")
    order = max(2, int(np.ceil(np.log2(length_l + 1))))
    while (1 << order) - 1 < length_l:
        order += 1
    period = (1 << order) - 1
    state = (int(seed) % period) + 1  # nonzero register fill
    base = _m_sequence(order, state)
    doubled = np.concatenate([base, base])
    half = length_l / 2.0
    tol = np.sqrt(length_l)
    for phase in range(period):
        cand = doubled[phase : phase + length_l]
        ones = int(cand.sum())
        if abs(ones - half) <= tol and _sharp_autocorrelation(cand):
            return cand.copy()
    raise SyncError(f"no balanced window of length {length_l} found")  # pragma: no cover


def correlate(trace, sequence, chips_per_symbol: int, window: range) -> np.ndarray:
    """Correlation score for every candidate start chip in ``window``.

    score[t] = sum_i u_i(t) * (2 s_i - 1) where u_i(t) is the chip-count sum
    of the i-th symbol position starting at chip t. Exact integer arithmetic.
    ``trace`` may be a ChipTrace or a counts array; a leading batch axis is
    scored row-wise.
    """
    counts = trace.counts if isinstance(trace, ChipTrace) else np.asarray(trace)
    counts = counts.astype(np.int64, copy=False)
    seq = np.asarray(sequence, dtype=np.int64).reshape(-1)
    n = int(chips_per_symbol)
    if window.step != 1:
        raise SyncError("search window must have step 1")
    start, width = window.start, len(window)
    if width == 0:
        raise SyncError("search window is empty")
    n_chips = counts.shape[-1]
    if start < 0 or start + width - 1 + len(seq) * n > n_chips:
        raise WindowOverrunError(
            f"window [{start}, {start + width}) plus pilot of {len(seq) * n} chips "
            f"overruns trace of {n_chips} chips"
        )
    # Telescoped form: score[t] = sum_j w_j * csum[t + n*j], where w collects
    # the sign changes of the +/-1 pilot. Most consecutive signs are equal,
    # so only O(transitions) terms survive. The weights sum to zero, so the
    # cumulative sum may start at the window instead of the trace origin.
    sign = 2 * seq - 1
    w = np.zeros(len(seq) + 1, dtype=np.int64)
    w[0] = -sign[0]
    w[1:-1] = sign[:-1] - sign[1:]
    w[-1] = sign[-1]
    segment = counts[..., start : start + width - 1 + len(seq) * n]
    # The two accumulators below share at most L + 1 prefix sums, none larger
    # in magnitude than a row's absolute total, so every intermediate,
    # 2 * (pos - neg) included, stays within 2 * (L + 1) * total: int32 is
    # exact while that is below 2**31.
    total = int(np.abs(segment).sum(axis=-1).max(initial=0))
    dtype = np.int32 if 2 * (len(seq) + 1) * total < 2**31 else np.int64
    csum = np.empty(segment.shape[:-1] + (segment.shape[-1] + 1,), dtype=dtype)
    csum[..., 0] = 0
    np.cumsum(segment, axis=-1, dtype=dtype, out=csum[..., 1:])
    # Interior weights are +/-2 and the end weights +/-1: sum the prefix sums
    # of each sign in place, double the difference, then take one copy of
    # each end term back out.
    pos = np.zeros(counts.shape[:-1] + (width,), dtype=dtype)
    neg = np.zeros_like(pos)
    for acc, terms in ((pos, w > 0), (neg, w < 0)):
        for k in (n * np.nonzero(terms)[0]).tolist():
            np.add(acc, csum[..., k : k + width], out=acc)
    pos -= neg
    pos *= 2
    for j in (0, len(seq)):
        pos -= int(w[j]) * csum[..., n * j : n * j + width]
    return pos.astype(np.int64, copy=False)


def estimate_start(scores) -> int:
    """Index of the maximum score; ties broken toward the smallest index."""
    arr = np.asarray(scores)
    if arr.size == 0:
        raise SyncError("scores must be non-empty")
    if arr.ndim == 1:
        return int(np.argmax(arr))
    return np.argmax(arr, axis=-1)


@dataclass(frozen=True)
class SyncResult:
    """Slot-relative start-chip estimates and their correlation peaks."""

    start_chip_a: int
    start_chip_b: int
    start_chip_c: int
    peak_scores: tuple[float, float, float]

    @property
    def start_chips(self) -> tuple[int, int, int]:
        return (self.start_chip_a, self.start_chip_b, self.start_chip_c)


def slot_search_window(params: SignalParams, slot_index: int, guard_chips: int = 0) -> range:
    """Candidate start chips for one anchor: its slot minus the pilot length."""
    slot = params.slot_chips
    lo = slot_index * slot + guard_chips
    hi = (slot_index + 1) * slot - params.pilot_chips - guard_chips
    if hi < lo:
        raise SyncError(
            f"guard of {guard_chips} chips leaves no search window in slot {slot_index}"
        )
    return range(lo, hi + 1)


def synchronize_frame(trace: ChipTrace, params: SignalParams, guard_chips: int = 0) -> SyncResult:
    """Correlation-peak start estimate for each of the three anchor slots.

    The first three slots of the trace are scored as the rows of one batch,
    each over slot 0's search window, which is every slot's window taken
    relative to its slot start.
    """
    slot = params.slot_chips
    counts = trace.counts
    if len(counts) < 3 * slot:
        raise WindowOverrunError(
            f"trace of {len(counts)} chips is shorter than three slots of {slot} chips"
        )
    window = slot_search_window(params, 0, guard_chips)
    scores = correlate(
        counts[: 3 * slot].reshape(3, slot), params.sequence_array(),
        params.chips_per_symbol, window,
    )
    rel = estimate_start(scores)
    starts = [window.start + int(r) for r in rel]
    peaks = tuple(float(scores[i, r]) for i, r in enumerate(rel))
    return SyncResult(starts[0], starts[1], starts[2], peaks)


def arrival_times(sync: SyncResult, params: SignalParams) -> tuple[float, float, float]:
    """Arrival instants (seconds) relative to each anchor's transmit instant.

    Differences of consecutive entries are flying-time differences: the
    slot-relative start chip already removes the nominal slot offset.
    """
    t_chip = params.chip_s
    return (
        sync.start_chip_a * t_chip,
        sync.start_chip_b * t_chip,
        sync.start_chip_c * t_chip,
    )
