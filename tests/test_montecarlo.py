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
from uvtdoa.errortheory import anchor_sigma2
from uvtdoa.montecarlo import CampaignError, differential_campaign, trial_rng
from uvtdoa.scene import SPEED_OF_LIGHT

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

    def test_workers_do_not_change_results(self):
        spec = small_spec()
        serial = run_campaign(spec, workers=1)
        parallel = run_campaign(spec, workers=2)
        for a, b in zip(serial.point_results, parallel.point_results):
            assert a.fixes == b.fixes
            assert a.rmse_m == b.rmse_m
            assert a.theory_ep_m == pytest.approx(b.theory_ep_m, rel=0, abs=0)


class TestRunPoint:
    def test_quantization_floor_with_ideal_clock_and_huge_rate(self):
        scene = make_scene(GEOMETRY_II, rx=(36.0, 25.0))
        signal = make_signal(length=64, n=20, slot_s=100e-6)
        budget = make_budget(power_w=100.0, lambda_clip=5000.0, lambda_b=0.0)
        res = run_point(scene, signal, budget, ClockModel.ideal(), trials=20, seed=3)
        t_chip = signal.chip_s
        assert res.rmse_m <= SPEED_OF_LIGHT * t_chip
        assert res.solver_failures == 0

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
        assert entries[0].sim_average_m == direct.grid_average_rmse_m
        assert entries[0].theory_average_m == direct.theory_average_m

    def test_empty_powers_rejected(self):
        with pytest.raises(CampaignError):
            power_sweep(small_spec(), [])


class TestSyncMseEmpirical:
    def test_high_rate_approaches_quantization_variance(self):
        t_c = 1e-8
        mse = sync_mse_empirical(200.0, 0.0, 64, 100, 1e6, trials=4000, seed=2)
        assert mse == pytest.approx(t_c**2 / 12.0, rel=0.2)


class TestDifferentialCorrection:
    def test_perfect_calibration_removes_clock_bias(self):
        scene = make_scene(GEOMETRY_II, rx=(36.0, 25.0))
        r1, r2, r3 = ranges(scene, scene.rx_true)
        bias_ba, bias_cb = 80e-9, -40e-9
        meas = [
            measurement_from_times(
                (r2 - r1) / scene.c + bias_ba, (r3 - r2) / scene.c + bias_cb,
                c=scene.c, scene=scene,
            )
        ]
        res = differential_correction(scene, {"ba": [bias_ba], "cb": [bias_cb]}, meas)
        truth = np.asarray(scene.rx_true)
        corrected_err = np.linalg.norm(np.asarray(res.corrected[0].position) - truth)
        uncorrected_err = np.linalg.norm(np.asarray(res.uncorrected[0].position) - truth)
        assert corrected_err < 1e-6
        assert uncorrected_err > 5.0

    def test_missing_pair_warns_and_skips(self):
        scene = make_scene(GEOMETRY_II, rx=(36.0, 25.0))
        r1, r2, r3 = ranges(scene, scene.rx_true)
        meas = [measurement_from_times((r2 - r1) / scene.c, (r3 - r2) / scene.c,
                                       c=scene.c, scene=scene)]
        with pytest.warns(UserWarning, match="cb"):
            res = differential_correction(scene, {"ba": [1e-9]}, meas)
        assert res.skipped_pairs == ("cb",)
        assert res.applied_cb_s is None

    def test_random_selection_is_seeded(self):
        scene = make_scene(GEOMETRY_II, rx=(36.0, 25.0))
        r1, r2, r3 = ranges(scene, scene.rx_true)
        meas = [measurement_from_times((r2 - r1) / scene.c, (r3 - r2) / scene.c,
                                       c=scene.c, scene=scene)]
        cal = {"ba": [1e-9, 2e-9, 3e-9], "cb": [0.0]}
        a = differential_correction(scene, cal, meas, rng=np.random.default_rng(4))
        b = differential_correction(scene, cal, meas, rng=np.random.default_rng(4))
        assert a.applied_ba_s == b.applied_ba_s


    def test_corrected_measurements_use_the_chip_tolerance(self):
        # 50 ns chips give a 2-chip slack of 30 m. Corrected range differences
        # 10 m past |AB| (beyond the 6 m slack of 10 ns chips) and 40 m past
        # must be kept and clamped at 30 m, exactly as measurement_from_times
        # treats them at that tolerance.
        scene = make_scene(GEOMETRY_II, rx=(36.0, 25.0))
        tol = 2.0 * scene.c * 50e-9
        ab = float(np.linalg.norm(scene.anchors[1] - scene.anchors[0]))
        bias_ba = -20.0 / scene.c
        meas = [
            measurement_from_times(
                (ab + past) / scene.c + bias_ba, -30.0 / scene.c,
                c=scene.c, scene=scene, feasibility_tol_m=tol,
            )
            for past in (10.0, 40.0)
        ]
        cal = {"ba": [bias_ba], "cb": [0.0]}
        res = differential_correction(scene, cal, meas, feasibility_tol_m=tol)
        clamped = []
        for m, fix in zip(meas, res.corrected):
            expected = measurement_from_times(
                m.t_ba_s - bias_ba, m.t_cb_s, c=scene.c, scene=scene, feasibility_tol_m=tol
            )
            clamped.append(expected.clamped)
            assert fix == solve_position(scene, expected)
        assert clamped == [False, True]
        per_measurement = differential_correction(scene, cal, meas, feasibility_tol_m=[tol, tol])
        assert per_measurement.corrected == res.corrected


class TestDifferentialCampaign:
    def test_constant_offsets_correction_helps(self):
        spec = small_spec(trials=7, points=((30.0, 25.0), (40.0, 30.0), (36.0, 40.0)))
        results = differential_campaign(spec, calibration_trials=1, constant_offsets=True)
        avg_unc = np.mean([r.uncorrected_rmse_m for r in results])
        avg_cor = np.mean([r.corrected_rmse_m for r in results])
        assert avg_cor < avg_unc

    def test_fresh_offsets_correction_useless(self):
        # offsets redrawn per frame: a calibration frame says nothing about
        # the others, so the correction cannot help much
        spec = small_spec(trials=24, seed=31, points=((30.0, 25.0), (40.0, 30.0)))
        results = differential_campaign(spec, calibration_trials=1, constant_offsets=False)
        avg_unc = np.mean([r.uncorrected_rmse_m for r in results])
        avg_cor = np.mean([r.corrected_rmse_m for r in results])
        assert avg_cor > 0.5 * avg_unc

    def test_requires_enough_trials(self):
        with pytest.raises(CampaignError):
            differential_campaign(small_spec(trials=1))
