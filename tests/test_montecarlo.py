import math
import tracemalloc
import warnings

import numpy as np
import pytest

from uvtdoa import (
    CampaignSpec,
    ClockModel,
    differential_correction,
    measurement_from_times,
    positioning_mse,
    power_sweep,
    ranges,
    run_campaign,
    run_point,
    solve_position,
    sync_mse_empirical,
)
from uvtdoa.channel import pilot_rate_profile
from uvtdoa.errortheory import anchor_sigma2
from uvtdoa.montecarlo import (
    CampaignError,
    detect,
    differential_campaign,
    trial_rng,
)
from uvtdoa.scene import SPEED_OF_LIGHT
from uvtdoa.sync import ROW_BLOCK, generate_pilot
from uvtdoa.tdoa import SessionTdoa

from conftest import GEOMETRY_II, make_budget, make_scene, make_signal


def small_spec(trials=8, seed=11, points=((30.0, 25.0), (40.0, 30.0)), clock=None):
    return CampaignSpec(
        scene=make_scene(GEOMETRY_II),
        budget=make_budget(power_w=0.15),
        signal=make_signal(length=64, n=20, slot_s=100e-6),
        clock=clock if clock is not None else ClockModel.uniform(0, 100e-9),
        points=points,
        trials_per_point=trials,
        seed=seed,
    )


# Start chips that ``detect`` returned for six trials of one paper-shaped
# point (Geometry II, L = 256, n = 100, 300 us slots, seed 2024, point 5):
# rates clipped at 100/symbol (150 mW) and near 1/symbol (0.2 mW). They pin
# the random stream and the sampler; a change that moves them changes every
# campaign's output bytes and must say so.
GOLDEN_START_CHIPS = {
    0.15: [(23, 25, 19), (22, 21, 23), (25, 20, 18), (25, 22, 26), (18, 22, 26), (20, 24, 24)],
    0.0002: [(20, 25, 22), (20, 21, 29), (43, 19, 18), (13, 25, 26), (11, 22, 19), (19, 24, 23)],
}


@pytest.mark.parametrize("power_w", sorted(GOLDEN_START_CHIPS))
def test_detect_stream_is_pinned(power_w):
    scene = make_scene(GEOMETRY_II, rx=(40.0, 30.0))
    budget = make_budget(power_w=power_w)
    chips = detect(scene, make_signal(), budget, ClockModel.uniform(0.0, 100e-9), 6, seed=2024,
                   point_index=5)
    assert chips == GOLDEN_START_CHIPS[power_w]


class TestDeterminism:
    def test_same_seed_same_result(self):
        scene = make_scene(GEOMETRY_II, rx=(36.0, 25.0))
        signal = make_signal(length=64, n=20, slot_s=100e-6)
        budget = make_budget(power_w=0.15)
        clock = ClockModel.uniform(0, 100e-9)
        a = run_point(scene, signal, budget, clock, trials=6, seed=5)
        b = run_point(scene, signal, budget, clock, trials=6, seed=5)
        assert a.fixes == b.fixes
        assert a.start_chips == b.start_chips
        assert a.rmse_m == b.rmse_m

    def test_trial_streams_differ(self):
        r1 = trial_rng(1, 0, 0).random(4)
        r2 = trial_rng(1, 0, 1).random(4)
        r3 = trial_rng(1, 1, 0).random(4)
        assert not np.allclose(r1, r2)
        assert not np.allclose(r1, r3)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        # trial_rng would key Philox with the seed's low 64 bits, so 2**64
        # would replay seed 0's stream
        with pytest.raises(CampaignError, match=r"seed must be in \[0, 2\*\*64\)"):
            small_spec(seed=seed)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_library_seed_outside_64_bits_rejected(self, seed):
        # a masked seed would alias -1 to 2**64 - 1
        scene = make_scene(GEOMETRY_II, rx=(36.0, 25.0))
        signal = make_signal(length=64, n=20, slot_s=100e-6)
        message = r"seed must be in \[0, 2\*\*64\)"
        with pytest.raises(CampaignError, match=message):
            run_point(scene, signal, make_budget(), ClockModel.ideal(), trials=1, seed=seed)
        with pytest.raises(CampaignError, match=message):
            trial_rng(seed, 0, 0)
        with pytest.raises(CampaignError, match=message):
            sync_mse_empirical(10.0, 1.0, 64, 20, 1e6, trials=1, seed=seed)

    def test_largest_seed_accepted(self):
        scene = make_scene(GEOMETRY_II, rx=(36.0, 25.0))
        signal = make_signal(length=64, n=20, slot_s=100e-6)
        res = run_point(scene, signal, make_budget(), ClockModel.ideal(), trials=1, seed=2**64 - 1)
        assert len(res.fixes) == 1
        assert sync_mse_empirical(10.0, 1.0, 64, 20, 1e6, trials=1, seed=2**64 - 1) >= 0.0

    def test_pool_has_at_most_one_worker_per_point(self, monkeypatch):
        # A pool forks all its workers up front, so a worker count past the
        # point count would fork idle processes; this executor forks none.
        sizes = []

        class RecordingExecutor:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        # run_campaign imports the class from concurrent.futures when it needs a pool
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingExecutor)
        spec = small_spec(trials=2)
        serial = run_campaign(spec, workers=1)
        wide = run_campaign(spec, workers=5000)
        assert sizes == [2]
        assert [p.fixes for p in wide.point_results] == [p.fixes for p in serial.point_results]
        run_campaign(small_spec(trials=2, points=((30.0, 25.0),)), workers=8)
        assert sizes == [2]  # one point runs in this process, with no pool

    def test_workers_do_not_change_results(self):
        # (90, 0) lies on side AB extended past B, where the geometry matrix
        # is singular: its theory is NaN, the others' are the one-point values
        spec = small_spec(points=((30.0, 25.0), (40.0, 30.0), (90.0, 0.0)))
        serial = run_campaign(spec, workers=1)
        parallel = run_campaign(spec, workers=2)
        for a, b in zip(serial.point_results, parallel.point_results):
            # an outage's position is NaN, so fixes are compared NaN-aware
            assert [f.converged for f in a.fixes] == [f.converged for f in b.fixes]
            np.testing.assert_array_equal([f.position for f in a.fixes],
                                          [f.position for f in b.fixes])
            np.testing.assert_array_equal([a.rmse_m, a.theory_ep_m], [b.rmse_m, b.theory_ep_m])
        *regular, singular = serial.point_results
        assert math.isnan(singular.theory_ep_m)
        for p in regular:
            s2 = anchor_sigma2(spec.scene, (p.x, p.y), spec.budget, spec.signal, spec.clock)
            assert p.theory_ep_m == positioning_mse(spec.scene, *s2, at=(p.x, p.y)).e_p


class TestRunPoint:
    def test_quantization_floor_with_ideal_clock_and_huge_rate(self):
        scene = make_scene(GEOMETRY_II, rx=(36.0, 25.0))
        signal = make_signal(length=64, n=20, slot_s=100e-6)
        budget = make_budget(power_w=100.0, lambda_clip=5000.0, lambda_b=0.0)
        res = run_point(scene, signal, budget, ClockModel.ideal(), trials=20, seed=3)
        t_chip = signal.chip_s
        assert res.rmse_m <= SPEED_OF_LIGHT * t_chip
        assert res.solver_failures == 0

    def test_all_outage_point_has_nan_rmse(self):
        # 0-30 us clock offsets put every range difference kilometres past
        # the anchor separation, so no trial has a branch crossing
        scene = make_scene(GEOMETRY_II, rx=(36.0, 25.0))
        signal = make_signal(length=64, n=20, slot_s=100e-6)
        clock = ClockModel.uniform(0, 30e-6)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = run_point(scene, signal, make_budget(power_w=0.15), clock, trials=4, seed=3)
        assert res.solver_failures == 4
        assert not any(fix.converged for fix in res.fixes)
        assert np.isnan(res.errors_m).all()
        assert np.isnan(res.rmse_m) and np.isnan(res.mean_error_m)

    def test_rmse_over_fixes_only(self):
        scene = make_scene(GEOMETRY_II, rx=(36.0, 25.0))
        signal = make_signal(length=64, n=20, slot_s=100e-6)
        res = run_point(scene, signal, make_budget(power_w=0.15), ClockModel.uniform(0, 300e-9),
                        trials=30, seed=4)
        fixed = res.errors_m[[fix.converged for fix in res.fixes]]
        assert 0 < res.solver_failures == len(res.fixes) - len(fixed)
        assert res.rmse_m == float(np.sqrt(np.mean(fixed**2)))
        assert res.mean_error_m == float(np.mean(fixed))

    def test_ideal_clock_rmse_near_theory(self):
        scene = make_scene(GEOMETRY_II, rx=(36.0, 25.0))
        signal = make_signal()  # L=256, n=100
        budget = make_budget(power_w=0.1)
        res = run_point(scene, signal, budget, ClockModel.ideal(), trials=60, seed=9)
        s2 = anchor_sigma2(scene, scene.rx_true, budget, signal, ClockModel.ideal())
        e_p = positioning_mse(scene, *s2).e_p
        assert res.rmse_m <= 2.0 * e_p
        assert res.rmse_m >= e_p / 3.0


class TestPowerSweep:
    def test_single_power_equals_campaign(self):
        spec = small_spec()
        entries = power_sweep(spec, [spec.budget.power_w])
        direct = run_campaign(spec)
        assert len(entries) == 1
        assert entries[0].sim_average_m == direct.average_rmse_m()
        assert entries[0].theory_average_m == direct.average_theory_m()

    def test_empty_powers_rejected(self):
        with pytest.raises(CampaignError):
            power_sweep(small_spec(), [])


def unblocked_sync_mse(lambda_s, lambda_b, length, n, symbol_rate_hz, trials, seed,
                       window_half_chips=None, pilot_seed=7, batch=ROW_BLOCK):
    """Reference: sample and score each pass of ``batch`` draws in one array.

    The same draws, in the same order, as ``sync_mse_empirical``, with the
    photons binned into one (batch, window) array row-major and the pass
    correlated by the plain row-wise prefix-sum form.
    """
    t_chip = 1.0 / (symbol_rate_hz * n)
    half = int(window_half_chips) if window_half_chips is not None else 2 * 8 * n
    seq = generate_pilot(length, pilot_seed)
    total = 2 * half + length * n + 1
    rng = np.random.default_rng([seed, length, n, int(lambda_s * 1e6), int(lambda_b * 1e6)])
    sign = 2 * seq - 1
    sum_sq = 0.0
    done = 0
    while done < trials:
        b = min(batch, trials - done)
        eps = rng.uniform(-t_chip / 2.0, t_chip / 2.0, size=b)
        starts = pilot_rate_profile(seq, n, half + eps / t_chip, total)
        per_symbol = rng.poisson(lambda_s, size=starts.shape).ravel()
        per_window = rng.poisson(lambda_b * total / n, size=b)
        whole = np.floor(starts)
        frac = (starts - whole).ravel()
        first = (whole.astype(np.int64) + np.arange(b)[:, None] * total).ravel()
        n_sig = int(per_symbol.sum())
        pos = rng.random(n_sig) * n + np.repeat(frac, per_symbol)
        sig = np.minimum(pos.astype(np.int64), n) + np.repeat(first, per_symbol)
        bg = (rng.random(int(per_window.sum())) * total).astype(np.int64)
        bg += np.repeat(np.arange(0, b * total, total), per_window)
        counts = np.bincount(np.concatenate([sig, bg]), minlength=b * total).reshape(b, total)
        csum = np.zeros((b, total + 1), dtype=np.int64)
        np.cumsum(counts, axis=-1, out=csum[:, 1:])
        scores = sum(
            int(sign[i]) * (csum[:, n * (i + 1) : n * (i + 1) + 2 * half + 1]
                            - csum[:, n * i : n * i + 2 * half + 1])
            for i in range(length)
        )
        err = (np.argmax(scores, axis=-1) - half) * t_chip - eps
        sum_sq += float(np.sum(err**2))
        done += b
    return sum_sq / trials


class TestSyncMseEmpirical:
    def test_high_rate_approaches_quantization_variance(self):
        t_c = 1e-8
        mse = sync_mse_empirical(200.0, 0.0, 64, 100, 1e6, trials=4000, seed=2)
        assert mse == pytest.approx(t_c**2 / 12.0, rel=0.2)

    # Trial counts: one row, a partial last block (7), and many whole blocks.
    @pytest.mark.parametrize("trials", [1, 7, 100, 300])
    @pytest.mark.parametrize("length", [64, 256])
    @pytest.mark.parametrize("lambda_s", [2.0, 100.0])
    def test_equals_unblocked_batches(self, trials, length, lambda_s):
        args = (lambda_s, 1.0, length, 100, 1e6, trials, 424242)
        assert sync_mse_empirical(*args) == unblocked_sync_mse(*args)

    def test_equals_unblocked_batches_explicit_window(self):
        args = (10.0, 0.5, 64, 20, 1e6, 37, 5)
        got = sync_mse_empirical(*args, window_half_chips=13)
        assert got == unblocked_sync_mse(*args, window_half_chips=13)

    def test_memory_stays_flat_in_the_trial_count(self):
        # Each pass draws, bins and scores one row block, so the traced peak
        # stays near the size of one block's photons, whatever the trials.
        tracemalloc.start()
        try:
            sync_mse_empirical(100.0, 1.0, 256, 100, 1e6, trials=256, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    # Rates that no Poisson draw takes, a chip or symbol rate that gives no
    # chip duration and a negative search half width fail as campaign errors
    # that name the argument, like a trial count below one.
    @pytest.mark.parametrize(
        "value, name",
        [(0, "trials"), (-3, "trials"),
         (-1.0, "lambda_s"), (math.nan, "lambda_s"), (math.inf, "lambda_s"),
         (-1.0, "lambda_b"), (math.nan, "lambda_b"), (math.inf, "lambda_b"),
         (-1, "window_half_chips"),
         (1e20, "lambda_s"), (1e17, "lambda_b"), (0, "chips_per_symbol"),
         (0.0, "symbol_rate_hz"), (-1e6, "symbol_rate_hz"), (math.nan, "symbol_rate_hz"),
         (math.inf, "symbol_rate_hz")],
    )
    def test_rejects_count_below_one(self, name, value):
        kwargs = {"lambda_s": 10.0, "lambda_b": 1.0, "trials": 8, "chips_per_symbol": 100,
                  "symbol_rate_hz": 1e6, name: value}
        bound = {"trials": ">= 1", "chips_per_symbol": ">= 1",
                 "symbol_rate_hz": "finite and > 0"}.get(name, "(finite and )?>= 0")
        if value in (1e20, 1e17):
            bound = "<= [0-9.e+]+"  # the sampler's ceiling on a Poisson mean
        with pytest.raises(CampaignError, match=f"^{name} must be {bound}"):
            sync_mse_empirical(length=64, seed=1, **kwargs)


def session(t_ba_s, t_cb_s, chip_s=10e-9):
    return SessionTdoa("s", t_ba_s, t_cb_s, chip_s, None)


class TestDifferentialCorrection:
    def test_perfect_calibration_removes_clock_bias(self):
        scene = make_scene(GEOMETRY_II, rx=(36.0, 25.0))
        r1, r2, r3 = ranges(scene, scene.rx_true)
        bias_ba, bias_cb = 80e-9, -40e-9
        sessions = [session((r2 - r1) / scene.c + bias_ba, (r3 - r2) / scene.c + bias_cb)]
        res = differential_correction(scene, {"ba": [bias_ba], "cb": [bias_cb]}, sessions)
        truth = np.asarray(scene.rx_true)
        corrected_err = np.linalg.norm(np.asarray(res.corrected[0].position) - truth)
        uncorrected_err = np.linalg.norm(np.asarray(res.uncorrected[0].position) - truth)
        assert corrected_err < 1e-6
        assert uncorrected_err > 5.0

    def test_missing_pair_warns_and_skips(self):
        scene = make_scene(GEOMETRY_II, rx=(36.0, 25.0))
        r1, r2, r3 = ranges(scene, scene.rx_true)
        sessions = [session((r2 - r1) / scene.c, (r3 - r2) / scene.c)]
        with pytest.warns(UserWarning, match="cb"):
            res = differential_correction(scene, {"ba": [1e-9]}, sessions)
        assert res.skipped_pairs == ("cb",)
        assert res.applied_cb_s is None

    def test_random_selection_is_seeded(self):
        scene = make_scene(GEOMETRY_II, rx=(36.0, 25.0))
        r1, r2, r3 = ranges(scene, scene.rx_true)
        sessions = [session((r2 - r1) / scene.c, (r3 - r2) / scene.c)]
        cal = {"ba": [1e-9, 2e-9, 3e-9], "cb": [0.0]}
        a = differential_correction(scene, cal, sessions, rng=np.random.default_rng(4))
        b = differential_correction(scene, cal, sessions, rng=np.random.default_rng(4))
        assert a.applied_ba_s == b.applied_ba_s


    def test_corrected_measurements_use_the_chip_tolerance(self):
        # 50 ns chips give a 2-chip slack of 30 m, 10 ns chips one of 6 m.
        # The bias comes off the raw time differences, and only then is the
        # result clamped, once, at the session's own slack: corrected range
        # differences 10 m and 40 m past |AB| on 50 ns chips, and 10 m past on
        # 10 ns chips, are kept, clamped and clamped.
        scene = make_scene(GEOMETRY_II, rx=(36.0, 25.0))
        ab = float(np.linalg.norm(scene.anchors[1] - scene.anchors[0]))
        bias_ba = -20.0 / scene.c
        sessions = [
            session((ab + past) / scene.c + bias_ba, -30.0 / scene.c, chip_s)
            for past, chip_s in ((10.0, 50e-9), (40.0, 50e-9), (10.0, 10e-9))
        ]
        res = differential_correction(scene, {"ba": [bias_ba], "cb": [0.0]}, sessions)
        clamped = []
        for sess, fix in zip(sessions, res.corrected):
            expected = measurement_from_times(
                scene, sess.t_ba_s - bias_ba, sess.t_cb_s, sess.chip_s
            )
            clamped.append(expected.clamped)
            assert fix == solve_position(scene, expected)
        assert clamped == [False, True, True]

    def test_bias_past_the_clamp_is_corrected(self):
        # A 20-chip bias on 50 ns chips (300 m) on each pair pushes both raw
        # range differences past the two-chip clamp, so only a bias taken off
        # the raw times, before the clamp, recovers the truth.
        scene = make_scene(GEOMETRY_II, rx=(36.0, 25.0))
        r1, r2, r3 = ranges(scene, scene.rx_true)
        chip_s = 50e-9
        bias_ba, bias_cb = 20 * chip_s, -20 * chip_s
        sessions = [session((r2 - r1) / scene.c + bias_ba, (r3 - r2) / scene.c + bias_cb, chip_s)]
        raw = measurement_from_times(scene, sessions[0].t_ba_s, sessions[0].t_cb_s, chip_s)
        assert raw.clamped
        res = differential_correction(scene, {"ba": [bias_ba], "cb": [bias_cb]}, sessions)
        assert not res.uncorrected[0].converged
        assert res.corrected[0].converged
        assert np.linalg.norm(np.asarray(res.corrected[0].position) - scene.rx_true) < 1e-6


class TestDifferentialCampaign:
    def test_constant_offsets_correction_helps(self):
        spec = small_spec(trials=7, points=((30.0, 25.0), (40.0, 30.0), (36.0, 40.0)))
        results = differential_campaign(spec)
        avg_unc = np.mean([r.uncorrected_rmse_m for r in results])
        avg_cor = np.mean([r.corrected_rmse_m for r in results])
        assert avg_cor < avg_unc

    def test_fix_counts_per_side(self):
        # a 0-1 us offset shared by the session leaves frames without a crossing
        # (here every uncorrected frame), so a side may have no fix at all
        spec = small_spec(trials=9, seed=5, clock=ClockModel.uniform(0, 1e-6))
        results = differential_campaign(spec)
        counts = [(r.uncorrected_fixes, r.corrected_fixes) for r in results]
        assert all(0 <= n <= 8 for pair in counts for n in pair)
        assert any(n < 8 for pair in counts for n in pair)
        for r in results:
            assert np.isnan(r.uncorrected_rmse_m) == (r.uncorrected_fixes == 0)
            assert np.isnan(r.corrected_rmse_m) == (r.corrected_fixes == 0)

    def test_requires_enough_trials(self):
        with pytest.raises(CampaignError, match="trials_per_point must be >= 2"):
            differential_campaign(small_spec(trials=1))
        assert len(differential_campaign(small_spec(trials=2))) == 2
