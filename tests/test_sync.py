import numpy as np
import pytest

import uvtdoa.sync
from uvtdoa import (
    Scene,
    anchor_ranges,
    estimate_start,
    generate_pilot,
    render_frame,
    synchronize_frame,
)
from uvtdoa.channel import pilot_rate_profile, sample_photons
from uvtdoa.scene import SPEED_OF_LIGHT
from uvtdoa.sync import (
    ROW_BLOCK,
    SyncError,
    WindowOverrunError,
    correlate,
    slot_search_window,
)
from uvtdoa.tdoa import time_differences

from conftest import make_signal


def brute_force_scores(counts, seq, n, window):
    """Naive double-loop correlation oracle."""
    out = []
    for t in window:
        s = 0
        for i in range(len(seq)):
            u = int(counts[t + n * i : t + n * (i + 1)].sum())
            s += (2 * int(seq[i]) - 1) * u
        out.append(s)
    return np.array(out, dtype=np.int64)


class TestGeneratePilot:
    def test_deterministic(self):
        a = generate_pilot(256, seed=5)
        b = generate_pilot(256, seed=5)
        assert np.array_equal(a, b)

    def test_balance_window(self):
        for seed in range(8):
            seq = generate_pilot(256, seed)
            assert abs(int(seq.sum()) - 128) <= 16

    def test_small_length_autocorrelation(self):
        # Exhaustive check at L=4: cyclic +/-1 autocorrelation sidelobes must
        # stay below the mainlobe for every shift.
        for seed in range(16):
            seq = generate_pilot(4, seed)
            s = 2 * seq - 1
            main = int(np.dot(s, s))
            for shift in range(1, 4):
                side = int(np.dot(s, np.roll(s, shift)))
                assert side < main

    def test_matches_shift_by_shift_check(self, monkeypatch):
        # Reference: the sidelobe check one np.roll at a time. Both checks
        # must accept the same windows, so every pilot comes out the same.
        def sharp_by_roll(sequence):
            s = 2 * sequence - 1
            main = int(s @ s)
            return all(int(s @ np.roll(s, k)) < main for k in range(1, len(s)))

        lengths = (2, 3, 5, 8, 16, 31, 64, 100, 128, 256, 300)
        fast = {(n, seed): generate_pilot(n, seed) for n in lengths for seed in range(10)}
        monkeypatch.setattr(uvtdoa.sync, "_sharp_autocorrelation", sharp_by_roll)
        for (n, seed), pilot in fast.items():
            assert np.array_equal(pilot, generate_pilot(n, seed)), (n, seed)

    def test_rejects_short_lengths(self):
        with pytest.raises(SyncError):
            generate_pilot(1, 0)

    def test_rejects_lengths_past_the_largest_register(self):
        # the 16-stage register's period, 65535, is the longest pilot
        with pytest.raises(SyncError, match="<= 65535"):
            generate_pilot(65536, 0)


class TestCorrelate:
    def test_all_zero_counts(self):
        seq = generate_pilot(8, 1)
        scores = correlate(np.zeros(200, dtype=np.int64), seq, 4, range(0, 64))
        assert np.array_equal(scores, np.zeros(64, dtype=np.int64))

    def test_noiseless_peak_at_true_start(self):
        seq = generate_pilot(8, 1)
        n, t0 = 4, 17
        counts = np.zeros(200, dtype=np.int64)
        for i, bit in enumerate(seq):
            if bit:
                counts[t0 + n * i : t0 + n * (i + 1)] = 1000
        window = range(0, 64)
        scores = correlate(counts, seq, n, window)
        assert np.array_equal(scores, brute_force_scores(counts, seq, n, window))
        assert estimate_start(scores) == t0

    def test_random_trace_matches_brute_force(self):
        rng = np.random.default_rng(42)
        seq = generate_pilot(8, 3)
        counts = rng.poisson(2.0, size=120)
        window = range(0, 64)
        scores = correlate(counts, seq, 4, window)
        assert np.array_equal(scores, brute_force_scores(counts, seq, 4, window))

    def test_window_overrun(self):
        seq = generate_pilot(8, 1)
        with pytest.raises(WindowOverrunError):
            correlate(np.zeros(60, dtype=np.int64), seq, 4, range(0, 64))

    def test_linearity(self):
        rng = np.random.default_rng(11)
        seq = generate_pilot(8, 1)
        a = rng.poisson(1.0, size=120)
        b = rng.poisson(3.0, size=120)
        w = range(0, 40)
        assert np.array_equal(
            correlate(a + b, seq, 4, w),
            correlate(a, seq, 4, w) + correlate(b, seq, 4, w),
        )

    def test_shift_covariance(self):
        rng = np.random.default_rng(5)
        seq = generate_pilot(16, 1)
        n = 4
        base = np.zeros(400, dtype=np.int64)
        t0 = 30
        for i, bit in enumerate(seq):
            if bit:
                base[t0 + n * i : t0 + n * (i + 1)] = rng.poisson(60, size=n)
        w = range(0, 200)
        ref = estimate_start(correlate(base, seq, n, w))
        for k in (1, 5, 17):
            shifted = np.roll(base, k)
            assert estimate_start(correlate(shifted, seq, n, w)) == ref + k


    def test_fuzz_matches_brute_force(self):
        # Random pilot lengths, symbol widths, window starts and widths (some
        # a multiple of n, some not), 1-D and batched counts; rows are scored
        # independently and every score is exact.
        rng = np.random.default_rng(2024)
        for case in range(60):
            length = int(rng.integers(2, 24))
            n = int(rng.integers(1, 7))
            seq = generate_pilot(length, int(rng.integers(0, 50)))
            width = n * int(rng.integers(1, 8)) if case % 2 else int(rng.integers(1, 40))
            start = int(rng.integers(0, 15))
            n_chips = start + width - 1 + length * n + int(rng.integers(0, 6))
            rows = () if case % 3 == 0 else (int(rng.integers(1, 4)),)
            counts = rng.poisson(rng.uniform(0.0, 40.0), size=rows + (n_chips,))
            window = range(start, start + width)
            scores = correlate(counts, seq, n, window)
            assert scores.dtype == np.int64 and scores.shape == rows + (width,)
            for row, got in zip(counts.reshape(-1, n_chips), scores.reshape(-1, width)):
                assert np.array_equal(got, brute_force_scores(row, seq, n, window))

    @pytest.mark.parametrize("offset", [0, 2])
    @pytest.mark.parametrize("chip_major", [False, True])
    @pytest.mark.parametrize(
        "rows",
        [(), (1,), (ROW_BLOCK - 1,), (ROW_BLOCK,), (ROW_BLOCK + 1,), (2 * ROW_BLOCK + 1,),
         (2, ROW_BLOCK + 1)],
    )
    def test_row_blocks_match_brute_force(self, rows, chip_major, offset):
        # Row counts around the block size, 1-D and two batch axes, in
        # row-major memory and as a chip-major view; an offset makes some
        # counts negative.
        rng = np.random.default_rng(17 + len(rows) + sum(rows))
        seq = generate_pilot(11, 4)
        n, window = 3, range(5, 28)
        n_chips = 5 + len(window) - 1 + len(seq) * n + 4
        counts = rng.poisson(3.0, size=rows + (n_chips,)) - offset
        if chip_major:
            counts = np.moveaxis(np.ascontiguousarray(np.moveaxis(counts, -1, 0)), 0, -1)
        scores = correlate(counts, seq, n, window)
        assert scores.dtype == np.int64 and scores.shape == rows + (len(window),)
        for row, got in zip(counts.reshape(-1, n_chips), scores.reshape(-1, len(window))):
            assert np.array_equal(got, brute_force_scores(row, seq, n, window))

    def test_one_block_past_int32_others_not(self):
        # Row ROW_BLOCK + 1 carries 2**29 photons per on-symbol chip, so its
        # block needs 64-bit sums while the first and last blocks stay 16-bit;
        # every row must still match the oracle.
        rng = np.random.default_rng(8)
        seq = generate_pilot(8, 1)
        n, t0, window = 2, 5, range(0, 20)
        counts = rng.poisson(2.0, size=(2 * ROW_BLOCK + 1, 40))
        for i, bit in enumerate(seq):
            if bit:
                counts[ROW_BLOCK + 1, t0 + n * i : t0 + n * (i + 1)] = 2**29
        scores = correlate(counts, seq, n, window)
        assert scores[ROW_BLOCK + 1].max() > 2**31
        assert estimate_start(scores)[ROW_BLOCK + 1] == t0
        for row, got in zip(counts, scores):
            assert np.array_equal(got, brute_force_scores(row, seq, n, window))

    def test_signed_counts_bounded_by_magnitude(self):
        # 19 chips of +2**29, then 19 of -2**29: the scored 39 chips sum to
        # zero, but the scores reach 2**32, so the plain sum must not pick
        # 16- or 32-bit sums.
        seq = generate_pilot(8, 1)
        n, window = 2, range(0, 24)
        counts = np.zeros((2, 40), dtype=np.int64)
        counts[1, :19] = 2**29
        counts[1, 19:38] = -(2**29)
        scores = correlate(counts, seq, n, window)
        for row, got in zip(counts, scores):
            assert np.array_equal(got, brute_force_scores(row, seq, n, window))

    def test_reused_scratch_never_leaks_between_calls(self):
        # correlate keeps its prefix-sum and accumulator buffers across calls.
        # Consecutive calls change the block shape, the width of the sums
        # (16, 32 and 64 bits) and the memory layout (row-major, then a
        # chip-major view); every call must match the oracle, and no earlier
        # result may change under a later call.
        rng = np.random.default_rng(31)
        seq = generate_pilot(8, 1)
        n = 2
        calls, widths = [], set()
        for rows, n_chips, width, scale, chip_major in [
            (3, 60, 30, 1, False),
            (ROW_BLOCK + 2, 44, 12, 2**27, False),
            (2, 70, 41, 1, True),
            (3, 50, 20, 2**12, False),
            (1, 40, 5, 2**27, True),
            (ROW_BLOCK, 60, 30, 1, False),
        ]:
            counts = rng.poisson(3.0, size=(rows, n_chips)) * scale
            if chip_major:
                counts = np.ascontiguousarray(counts.T).T
            window = range(n_chips - width - len(seq) * n + 1, n_chips - len(seq) * n + 1)
            scores = correlate(counts, seq, n, window)
            expected = np.array([brute_force_scores(r, seq, n, window) for r in counts])
            assert np.array_equal(scores, expected)
            calls.append((scores, scores.copy()))
            # correlate's own rule for the width of each block's sums; the
            # scored segment runs to the end of the row
            for lo in range(0, rows, ROW_BLOCK):
                total = int(counts[lo : lo + ROW_BLOCK, window.start :].sum(axis=-1).max())
                widths.add(16 if total < 2**15 else 32 if total < 2**31 else 64)
        assert widths == {16, 32, 64}
        for scores, snapshot in calls:
            assert np.array_equal(scores, snapshot)

    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("total", [2**15 - 1, 2**15, 2**31 - 1, 2**31])
    def test_scores_reach_the_row_total_at_each_width_boundary(self, total, signed):
        # correlate sums modulo 2**16, 2**32 or 2**64 and reads the result
        # back as signed, which is exact only while every |score| is below
        # half the modulus; |score| <= the row's absolute total. Row 0 puts
        # its total on an on-symbol chip of the pilot at t = 0 and row 1 on
        # an off-symbol chip, so the scores reach exactly +total and -total.
        # A signed row moves half its total to a chip of the other sign
        # with a negative count: its plain sum is ~0, its scores still
        # reach +/-total.
        seq = generate_pilot(8, 1)
        n, window = 2, range(0, 9)
        chips = np.repeat(seq, n)
        on, off = np.flatnonzero(chips)[0], np.flatnonzero(1 - chips)[0]
        counts = np.zeros((2, window.stop - 1 + len(chips)), dtype=np.int64)
        share = total // 2 if signed else total
        for row, (plus, minus) in enumerate([(on, off), (off, on)]):
            counts[row, plus] = share
            counts[row, minus] = -(total - share)
        assert np.abs(counts).sum(axis=-1).tolist() == [total, total]
        scores = correlate(counts, seq, n, window)
        assert (scores[0, 0], scores[1, 0]) == (total, -total)
        for row, got in zip(counts, scores):
            assert np.array_equal(got, brute_force_scores(row, seq, n, window))

    def test_large_counts_stay_exact(self):
        # The peak score (on-symbol chips x 2**29 photons) is past 2**31, so
        # only a 64-bit accumulator gives the exact value.
        seq = generate_pilot(8, 1)
        n, t0 = 2, 5
        counts = np.zeros(40, dtype=np.int64)
        for i, bit in enumerate(seq):
            if bit:
                counts[t0 + n * i : t0 + n * (i + 1)] = 2**29
        window = range(0, 20)
        scores = correlate(counts, seq, n, window)
        assert np.array_equal(scores, brute_force_scores(counts, seq, n, window))
        assert scores.max() > 2**31
        assert estimate_start(scores) == t0


class TestSynchronizeFrame:
    @pytest.mark.parametrize("extra_chips", [0, 113])
    def test_matches_per_slot_correlation(self, extra_chips):
        params = make_signal(length=16, n=4, slot_s=100e-6)
        slot = params.slot_chips
        rng = np.random.default_rng(extra_chips)
        counts = rng.poisson(0.5, size=3 * slot + extra_chips)
        for i, t0 in enumerate((31, 120, 250)):
            for j, bit in enumerate(params.sequence):
                if bit:
                    counts[i * slot + t0 + 4 * j : i * slot + t0 + 4 * (j + 1)] += 9
        starts = synchronize_frame(counts, params)
        for i in range(3):
            # every start in slot i whose pilot ends inside the slot
            window = range(i * slot, (i + 1) * slot - params.pilot_chips + 1)
            scores = correlate(counts, params.sequence_array(), params.chips_per_symbol, window)
            assert starts[i] == window.start + estimate_start(scores) - i * slot

    def test_trace_shorter_than_three_slots(self):
        params = make_signal(length=16, n=4, slot_s=100e-6)
        with pytest.raises(WindowOverrunError):
            synchronize_frame(np.zeros(3 * params.slot_chips - 1, dtype=np.int64), params)


class TestEstimateStart:
    def test_argmax(self):
        assert estimate_start([0, 5, 3]) == 1

    def test_tie_breaks_to_smallest_index(self):
        assert estimate_start([7, 7, 2]) == 0

    def test_empty_rejected(self):
        with pytest.raises(SyncError):
            estimate_start([])


class TestDetectionProbability:
    def test_high_rate_zero_error_probability(self):
        # With no background and a strong signal the start estimate should be
        # exact in at least 99% of trials.
        lam_s, length, n = 50.0, 256, 100
        seq = generate_pilot(length, 1)
        half = 50
        total = 2 * half + length * n + 1
        rng = np.random.default_rng(999)
        hits = 0
        trials, batch = 1000, 100
        starts = pilot_rate_profile(seq, n, np.full(batch, float(half)), total)
        for _ in range(trials // batch):
            counts = sample_photons(rng, starts, lam_s, 0.0, n, total)
            scores = correlate(counts, seq, n, range(0, 2 * half + 1))
            hits += int(np.sum(estimate_start(scores) == half))
        assert hits / trials >= 0.99


class TestArrivalTimes:
    def test_zero_chips(self):
        params = make_signal(length=16, n=4, slot_s=40e-6)
        assert time_differences((0, 0, 0), params.chip_s) == (0.0, 0.0)

    def test_linear_scaling(self):
        params = make_signal(length=16, n=100, rate_hz=1e6, slot_s=300e-6)
        t_ba, t_cb = time_differences((0, 10, 0), params.chip_s)
        assert t_ba == pytest.approx(100e-9, rel=1e-12)
        assert t_cb == pytest.approx(-100e-9, rel=1e-12)

    def test_end_to_end_flight_time_difference(self):
        # Full frame with strong signal and no clock error: each anchor's
        # arrival estimate lands within half a chip of its flight time, so
        # the recovered differences land within one chip (two half-chip
        # quantizations) of the geometric truth.
        params = make_signal(length=64, n=20, rate_hz=1e6, slot_s=200e-6)
        scene = Scene(tx_a=(0, 0), tx_b=(75.6, 0), tx_c=(32.2, 76.6), rx_true=(30.0, 22.0))
        flights = (anchor_ranges(scene, scene.rx_true) / SPEED_OF_LIGHT).tolist()
        trace = render_frame(params, flights, (80.0, 80.0, 80.0), 0.5, (0, 0, 0), 0.0, 77)
        starts = synchronize_frame(trace.counts, params)
        for chip, truth in zip(starts, flights):
            assert abs(chip * params.chip_s - truth) <= params.chip_s / 2
        t_ba, t_cb = time_differences(starts, params.chip_s)
        assert abs(t_ba - (flights[1] - flights[0])) <= params.chip_s
        assert abs(t_cb - (flights[2] - flights[1])) <= params.chip_s


class TestSlotWindow:
    def test_window_bounds(self):
        params = make_signal(length=16, n=4, slot_s=40e-6)
        assert slot_search_window(params) == range(0, params.slot_chips - params.pilot_chips + 1)
