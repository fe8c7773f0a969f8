"""Pilot-sequence generation and correlation-peak arrival estimation.

The receiver slides the known +/-1 pilot over per-symbol chip sums and takes
the maximum-correlation start chip in each anchor's slot.
"""

from __future__ import annotations

import threading
from functools import lru_cache

import numpy as np

from .channel import SignalParams


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
    # Row k - 1 is the cyclic shift np.roll(s, -k), a strided view of s twice
    # over; the shifts 1..L-1 cover every sidelobe in one product.
    shifts = np.lib.stride_tricks.sliding_window_view(np.concatenate((s, s))[1:-1], len(s))
    return bool(np.all(shifts @ s < s @ s))


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
    longest = (1 << max(_LFSR_TAPS)) - 1
    if length_l > longest:
        raise SyncError(f"pilot length must be <= {longest}, got {length_l}")
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


# Rows that ``correlate`` scores together. A block's chip-major prefix sums
# stay in L2, and numpy's prefix sum down axis 0 slows sharply past a few
# columns; a sweep over 2, 4, 8 and 16 rows at L = 64 and 256 measured 4 best.
ROW_BLOCK = 4


@lru_cache(maxsize=16)
def _pilot_terms(pilot: bytes, chips_per_symbol: int):
    """Sign-change terms of an int64 pilot's telescoped correlation.

    score[t] = sum_j w_j * csum[t + n*j], where w collects the sign changes
    of the +/-1 pilot. Most consecutive signs are equal, so only
    O(transitions) terms survive. The weights sum to zero, so the cumulative
    sum may start at the window instead of the trace origin. Interior
    weights are +/-2 and the end weights +/-1: ``terms`` adds or subtracts
    the prefix sum at every sign change, the caller doubles, and ``undo``
    takes one copy of each end term back out.
    """
    sign = 2 * np.frombuffer(pilot, dtype=np.int64) - 1
    w = np.zeros(len(sign) + 1, dtype=np.int64)
    w[0] = -sign[0]
    w[1:-1] = sign[:-1] - sign[1:]
    w[-1] = sign[-1]
    n = chips_per_symbol
    terms = tuple((n * j, np.add if w[j] > 0 else np.subtract) for j in np.nonzero(w)[0].tolist())
    undo = tuple((k, np.subtract if op is np.add else np.add) for k, op in (terms[0], terms[-1]))
    return terms, undo


class _Scratch(threading.local):
    """Per-thread prefix-sum and accumulator buffers that ``correlate`` reuses.

    Allocating them on every call makes glibc trim and page-fault them back
    in each trial. A buffer grows to the largest request and is never
    returned to a caller, so no score aliases it.
    """

    def __init__(self):
        self.flat: dict = {}

    def take(self, name: str, shape: tuple[int, int], dtype) -> np.ndarray:
        size = shape[0] * shape[1]
        buf = self.flat.get((name, dtype))
        if buf is None or buf.size < size:
            buf = self.flat[name, dtype] = np.empty(size, dtype=dtype)
        return buf[:size].reshape(shape)


_scratch = _Scratch()


def correlate(counts, sequence, chips_per_symbol: int, window: range) -> np.ndarray:
    """Correlation score for every candidate start chip in ``window``.

    score[t] = sum_i u_i(t) * (2 s_i - 1) where u_i(t) is the chip-count sum
    of the i-th symbol position starting at chip t. Exact integer arithmetic.
    Leading batch axes of ``counts`` are scored row-wise, ``ROW_BLOCK`` rows
    at a time.
    """
    counts = np.asarray(counts).astype(np.int64, copy=False)
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
    terms, undo = _pilot_terms(seq.tobytes(), n)
    seg_len = width - 1 + len(seq) * n
    rows = counts[..., start : start + seg_len].reshape(-1, seg_len)
    out = np.empty((len(rows), width), dtype=np.int64)
    for lo in range(0, len(rows), ROW_BLOCK):
        block = rows[lo : lo + ROW_BLOCK]
        b = len(block)
        # Sums wrap modulo 2**bits and are read back as signed: every score
        # is a signed sum of one row's segment counts, so it is exact while
        # the row's absolute total is below 2**(bits - 1), however the
        # intermediate sums wrap. abs() runs only on negative counts,
        # sparing a block-sized temporary.
        magnitude = block if block.min() >= 0 else np.abs(block)
        total = int(magnitude.sum(axis=-1).max())
        wide = np.uint32 if total < 2**31 else np.uint64
        # Chip-major (chips, rows): the prefix sum runs down axis 0 across
        # the block's rows, and each term below is one contiguous slice.
        # Copying the counts in row by row first and summing in place spares
        # numpy's whole-block cast buffer; without dtype= numpy would sum
        # 32-bit counts in 64 bits. numpy's 16-bit prefix sum down axis 0
        # is slower than the 32-bit one, so 16-bit sums are narrowed from it.
        csum = _scratch.take("csum", (seg_len + 1, b), wide)
        csum[0] = 0
        for r in range(b):
            csum[1:, r] = block[r]
        np.cumsum(csum[1:], axis=0, dtype=wide, out=csum[1:])
        if total < 2**15:
            csum16 = _scratch.take("csum16", (seg_len + 1, b), np.uint16)
            np.copyto(csum16, csum, casting="unsafe")
            csum = csum16
        acc = _scratch.take("acc", (width, b), csum.dtype)
        acc.fill(0)
        for k, op in terms:
            op(acc, csum[k : k + width], out=acc)
        acc *= 2
        for k, op in undo:
            op(acc, csum[k : k + width], out=acc)
        out[lo : lo + b] = acc.view(f"i{acc.itemsize}").T
    return out.reshape(counts.shape[:-1] + (width,))


def estimate_start(scores):
    """Index of the maximum score along the last axis, ties toward the smallest.

    A 1-D score vector gives a numpy integer, a batch an integer array.
    """
    arr = np.asarray(scores)
    if arr.size == 0:
        raise SyncError("scores must be non-empty")
    return np.argmax(arr, axis=-1)


def slot_search_window(params: SignalParams) -> range:
    """Slot-relative candidate start chips: every start whose pilot ends in the slot."""
    return range(0, params.slot_chips - params.pilot_chips + 1)


def synchronize_frame(counts: np.ndarray, params: SignalParams) -> tuple[int, int, int]:
    """Slot-relative correlation-peak start chip of each of the three anchors.

    The first three slots of the chip counts are scored as the rows of one
    batch over the slot-relative search window.
    """
    slot = params.slot_chips
    if len(counts) < 3 * slot:
        raise WindowOverrunError(
            f"trace of {len(counts)} chips is shorter than three slots of {slot} chips"
        )
    scores = correlate(
        counts[: 3 * slot].reshape(3, slot), params.sequence_array(),
        params.chips_per_symbol, slot_search_window(params),
    )
    return tuple(int(r) for r in estimate_start(scores))
