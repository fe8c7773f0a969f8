import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from uvtdoa import ChannelError, Scene, SignalParams, SlotOverrunError, los_photon_rate, render_frame
from uvtdoa.channel import PLANCK_CONSTANT, pilot_rate_profile, sample_photons
from uvtdoa.scene import SPEED_OF_LIGHT

from conftest import make_budget, make_signal


class TestLosPhotonRate:
    def test_clip_engages(self):
        budget = make_budget(power_w=10.0, lambda_clip=100.0)
        assert los_photon_rate(budget, 10.0, 1e-6) == 100.0

    def test_inverse_square_unclipped(self):
        budget = make_budget(power_w=0.001, lambda_clip=1e12)
        lam_d = los_photon_rate(budget, 70.0, 1e-6)
        lam_2d = los_photon_rate(budget, 140.0, 1e-6)
        assert lam_2d == pytest.approx(lam_d / 4.0, rel=1e-12)

    def test_hand_evaluated_oracle(self):
        # Term-by-term evaluation, independent of the implementation.
        p_w, t_s, wave, eta, area, d = 0.1, 1e-6, 266e-9, 0.15, 1.77e-4, 100.0
        photon_energy = PLANCK_CONSTANT * SPEED_OF_LIGHT / wave
        emitted = p_w * t_s / photon_energy
        omega = 2.0 * math.pi * (1.0 - math.cos(math.radians(120.0) / 2.0))
        expected = eta * emitted * area / (omega * d * d)
        budget = make_budget(power_w=p_w, lambda_clip=1e9)
        assert los_photon_rate(budget, d, t_s) == pytest.approx(expected, rel=1e-12)
        # and the clipped version saturates
        clipped = make_budget(power_w=p_w, lambda_clip=100.0)
        assert los_photon_rate(clipped, d, t_s) == min(100.0, expected)

    def test_monotone_in_power(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = rng.uniform(5, 500)
            p_lo, p_hi = sorted(rng.uniform(0.001, 5.0, size=2))
            lo = los_photon_rate(make_budget(power_w=p_lo), d, 1e-6)
            hi = los_photon_rate(make_budget(power_w=p_hi), d, 1e-6)
            assert hi >= lo

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ChannelError):
            los_photon_rate(make_budget(), 0.0, 1e-6)
        with pytest.raises(ChannelError, match=r"got -2\.0$"):
            los_photon_rate(make_budget(), np.array([[5.0, -2.0], [0.0, 1.0]]), 1e-6)

    def test_array_of_distances_keeps_its_shape(self):
        budget = make_budget(power_w=0.15)
        d = np.array([[0.5, 70.0, 140.0], [1e3, 3e4, 2.5]])
        rates = los_photon_rate(budget, d, 1e-6)
        assert rates.shape == (2, 3)
        assert rates.tolist() == [[los_photon_rate(budget, x, 1e-6) for x in row]
                                  for row in d.tolist()]
        assert isinstance(los_photon_rate(budget, 70.0, 1e-6), float)


def chip_aligned_scene(params, chips=50):
    # Receiver placed so the anchor-A flight time is an exact chip count.
    d = SPEED_OF_LIGHT * chips * params.chip_s
    return Scene(tx_a=(0.0, 0.0), tx_b=(0.0, 1000.0), tx_c=(1000.0, 0.0), rx_true=(d, 0.0))


class TestRenderFrame:
    def test_zero_rates_zero_trace(self):
        params = make_signal(length=16, n=4, slot_s=40e-6)
        scene = chip_aligned_scene(params)
        trace = render_frame(scene, params, (0.0, 0.0, 0.0), 0.0, (0, 0, 0), 0.0, 1)
        assert np.all(trace.counts == 0)
        assert len(trace.counts) == 3 * params.slot_chips

    def test_pilot_sum_matches_poisson_moment(self):
        # All-ones sequence, no background: counts over the pilot sum to a
        # Poisson total with mean L * lambda_s; check the sample mean over
        # many seeded frames against three standard errors.
        lam_s, length = 4.0, 16
        params = SignalParams(
            sequence=[1] * length, symbol_rate_hz=1e6, chips_per_symbol=4,
            slot_interval_s=40e-6,
        )
        scene = chip_aligned_scene(params, chips=8)
        n_frames = 10_000
        totals = np.empty(n_frames)
        for k in range(n_frames):
            trace = render_frame(scene, params, (lam_s, 0.0, 0.0), 0.0, (0, 0, 0), 0.0, k)
            totals[k] = trace.counts[: params.slot_chips].sum()
        mean_expected = length * lam_s
        se = math.sqrt(mean_expected / n_frames)  # Poisson variance = mean
        assert abs(totals.mean() - mean_expected) < 3 * se

    @pytest.mark.parametrize("lam_s", [5.0])
    def test_per_symbol_distribution_chi_square(self, lam_s):
        lam_b = 1.0
        params = make_signal(length=256, n=4, slot_s=300e-6)
        scene = chip_aligned_scene(params, chips=40)
        n = params.chips_per_symbol
        on_idx = np.nonzero(params.sequence_array())[0]
        draws = []
        frame = 0
        while len(draws) < 10_000:
            trace = render_frame(scene, params, (lam_s, 0.0, 0.0), lam_b, (0, 0, 0), 0.0, frame)
            sums = trace.counts[40 : 40 + params.pilot_chips].reshape(-1, n).sum(axis=1)
            draws.extend(sums[on_idx].tolist())
            frame += 1
        draws = np.array(draws[:10_000])
        p = poisson_gof_pvalue(draws, lam_s + lam_b)
        assert p > 0.01

    def test_determinism(self):
        params = make_signal(length=32, n=4, slot_s=64e-6)
        scene = chip_aligned_scene(params)
        t1 = render_frame(scene, params, (5.0, 3.0, 1.0), 1.0, (1e-8, 2e-8, 0), 3e-9, 1234)
        t2 = render_frame(scene, params, (5.0, 3.0, 1.0), 1.0, (1e-8, 2e-8, 0), 3e-9, 1234)
        assert np.array_equal(t1.counts, t2.counts)

    def test_slot_overrun_rejected(self):
        params = make_signal(length=16, n=4, slot_s=17e-6)
        scene = chip_aligned_scene(params)
        with pytest.raises(SlotOverrunError):
            render_frame(scene, params, (5.0, 5.0, 5.0), 1.0, (2e-6, 0, 0), 0.0, 1)

    @pytest.mark.parametrize("lambda_s, lambda_b", [
        ((5.0, -1.0, 5.0), 1.0), ((5.0, math.nan, 5.0), 1.0), ((5.0, 5.0), 1.0),
        ((5.0, 5.0, 5.0), -1.0),
    ])
    def test_rates_rejected_unless_three_nonnegative(self, lambda_s, lambda_b):
        params = make_signal(length=16, n=4, slot_s=40e-6)
        scene = chip_aligned_scene(params)
        with pytest.raises(ChannelError, match="lambda_s must hold one rate >= 0 per anchor"):
            render_frame(scene, params, lambda_s, lambda_b, (0, 0, 0), 0.0, 1)


def poisson_gof_pvalue(draws, mean):
    """Chi-square goodness-of-fit p-value against a Poisson distribution."""
    n = len(draws)
    max_k = int(draws.max())
    probs = stats.poisson.pmf(np.arange(max_k + 1), mean)
    probs = np.append(probs, 1.0 - probs.sum())  # right tail
    observed = np.bincount(draws.astype(int), minlength=max_k + 2).astype(float)
    # merge bins until every expected count is at least 5
    exp = probs * n
    merged_obs, merged_exp = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, exp):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            merged_obs.append(acc_o)
            merged_exp.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0:
        merged_obs[-1] += acc_o
        merged_exp[-1] += acc_e
    merged_obs = np.array(merged_obs)
    merged_exp = np.array(merged_exp) * merged_obs.sum() / sum(merged_exp)
    chi2 = float(np.sum((merged_obs - merged_exp) ** 2 / merged_exp))
    dof = len(merged_obs) - 1
    return float(stats.chi2.sf(chi2, dof))


def overlap_means(starts, chips_per_symbol, lambda_s, lambda_b, n_chips):
    """Per-chip Poisson means from the overlap of each chip with each symbol.

    Chip j covers [j, j + 1); a symbol starting at fractional chip a covers
    [a, a + n) and adds lambda_s/n per unit of overlap.
    """
    n = chips_per_symbol
    lo = np.arange(n_chips, dtype=float)
    means = np.full(n_chips, lambda_b / n)
    for a in np.ravel(starts):
        overlap = np.clip(np.minimum(lo + 1, a + n) - np.maximum(lo, a), 0.0, None)
        means += lambda_s / n * overlap
    return means


class TestPilotRateProfile:
    def test_total_mass_preserved_under_fraction(self):
        seq = np.array([1, 0, 1, 1, 0, 1, 0, 0])
        for frac in (0.0, 0.25, 0.5, 0.9):
            starts = pilot_rate_profile(seq, 4, 10 + frac, 80)
            assert starts == pytest.approx(10 + frac + 4.0 * np.nonzero(seq)[0])
            means = overlap_means(starts, 4, 3.0, 0.0, 80)
            assert means.sum() == pytest.approx(3.0 * seq.sum(), rel=1e-12)

    def test_straddle_proration(self):
        # single on-symbol of 4 chips starting at chip 2.5: coverage
        # 0.5, 1, 1, 1, 0.5 chips
        starts = pilot_rate_profile([1], 4, 2.5, 12)
        assert starts.tolist() == [2.5]
        expected = np.zeros(12)
        expected[2:7] = [0.5, 1.0, 1.0, 1.0, 0.5]
        assert overlap_means(starts, 4, 4.0, 0.0, 12) == pytest.approx(expected)

    def test_batch_matches_scalar(self):
        seq = np.array([1, 0, 1, 1])
        starts = np.array([3.0, 4.25, 7.5])
        batch = pilot_rate_profile(seq, 4, starts, 40)
        assert batch.shape == (3, 3)
        for row, s in zip(batch, starts):
            assert np.array_equal(row, pilot_rate_profile(seq, 4, float(s), 40))

    @pytest.mark.parametrize("start", [-0.3, -4.0, 28.5, [3.0, -0.01]])
    def test_outside_window_rejected(self, start):
        # 4 on-symbols x 4 chips in a 40-chip window: starts in [0, 24] fit.
        with pytest.raises(ChannelError, match="outside the chip window"):
            pilot_rate_profile([1, 1, 0, 1, 1, 0], 4, start, 40)


class TestSampleChipCounts:
    def test_straddle_moments_match_prorated_means(self):
        # Symbols at 10.37 and 18.37 of 4 chips each: chips 10 and 14 (and
        # 18, 22) straddle a symbol edge, chip 12 is interior. Over many
        # seeded windows the sample mean and variance of each chip must
        # match the overlap-formula mean (Poisson: variance = mean) within
        # four standard errors, and adjacent chips must be uncorrelated.
        n, lam_s, lam_b, n_chips, frames = 4, 6.0, 0.5, 30, 40_000
        starts = pilot_rate_profile([1, 0, 1], n, np.full(frames, 10.37), n_chips)
        counts = sample_photons(np.random.default_rng(2024), starts, lam_s, lam_b, n, n_chips)
        assert counts.shape == (frames, n_chips) and counts.dtype == np.int64
        means = overlap_means(starts[0], n, lam_s, lam_b, n_chips)
        assert means[10] == pytest.approx(lam_b / n + lam_s / n * 0.63)
        assert means[14] == pytest.approx(lam_b / n + lam_s / n * 0.37)
        for chip in (10, 12, 14, 18, 22, 26):
            x = counts[:, chip].astype(float)
            lam = means[chip]
            assert abs(x.mean() - lam) < 4 * math.sqrt(lam / frames), chip
            # Var of the sample variance of Poisson(lam) ~ (lam + 2 lam^2) / N.
            assert abs(x.var(ddof=1) - lam) < 4 * math.sqrt((lam + 2 * lam**2) / frames), chip
        r = np.corrcoef(counts[:, 13], counts[:, 14])[0, 1]
        assert abs(r) < 4 / math.sqrt(frames)

    def test_rows_stay_in_their_window(self):
        # Row 0's last symbol ends exactly at the window end; row 1 has no
        # signal, so without background any photon there leaked across rows.
        # With background too, each row bins exactly the photons drawn for it.
        starts = pilot_rate_profile([1, 1], 4, np.array([12.0, 0.0]), 20)
        lam = np.array([[50.0, 50.0], [0.0, 0.0]])
        counts = sample_photons(np.random.default_rng(3), starts, lam, 0.0, 4, 20)
        assert counts.shape == (2, 20) and counts.dtype == np.int64
        assert counts[0, 12:].sum() > 0 and counts[0, :12].sum() == 0
        assert not counts[1].any()
        for lam_b in (0.0, 0.7):
            counts = sample_photons(np.random.default_rng(4), starts, lam, lam_b, 4, 20)
            replay = np.random.default_rng(4)  # the per-symbol, then per-window draws
            drawn = replay.poisson(lam).sum(axis=1) + replay.poisson(lam_b * 20 / 4, size=2)
            assert counts.sum(axis=1).tolist() == drawn.tolist()


class TestSignalParams:
    def test_sequence_array_is_one_read_only_copy(self):
        signal = make_signal(length=64)
        pilot = signal.sequence_array()
        assert pilot is signal.sequence_array()
        assert pilot.dtype == np.int64 and tuple(pilot) == signal.sequence
        with pytest.raises(ValueError):
            pilot[0] = 1 - pilot[0]
        # a copy with another field builds its own copy of the same pilot
        assert np.array_equal(replace(signal, slot_interval_s=400e-6).sequence_array(), pilot)

    def test_slot_must_be_a_whole_number_of_chips(self):
        # 10 ns chips: 300 us is 30000 chips; 300.004 us is 30000.4, which
        # the receiver would cut 0.4 chip away from where the anchor sends
        assert make_signal(slot_s=300e-6).slot_chips == 30000
        with pytest.raises(ChannelError, match=r"slot_interval_s = 0\.000300004 is 30000\.4 chips"):
            make_signal(slot_s=300.004e-6)
