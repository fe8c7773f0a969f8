"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines as they
complete. Budgets are generous; the whole suite takes about 5.5 minutes on
two cores. Deselect it with ``pytest -m "not acceptance"``.
"""

import time

import numpy as np
import pytest

from uvtdoa import (
    CampaignSpec,
    ClockModel,
    SyncBoundParams,
    inside_triangle,
    measurement_from_times,
    positioning_mse,
    power_sweep,
    ranges,
    render_frame,
    run_campaign,
    solve_position,
    sync_mse_bound,
    sync_mse_empirical,
)
from uvtdoa.cli import main
from uvtdoa.montecarlo import differential_campaign, run_point, trial_rng
from uvtdoa.scene import Scene
from uvtdoa.sync import correlate, generate_pilot

from conftest import ALL_GEOMETRIES, GEOMETRY_II, make_budget, make_scene, make_signal

WORKERS = 2

pytestmark = pytest.mark.acceptance


def report(criterion: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion} ({label}): {status} | {detail}")
    assert ok, f"criterion {criterion} ({label}): {detail}"


def random_inside_points(scene, count, rng):
    a = scene.anchors
    pts = []
    while len(pts) < count:
        p = rng.dirichlet((1.0, 1.0, 1.0)) @ a
        if inside_triangle(scene, p):
            pts.append(p)
    return np.array(pts)


def test_criterion_1_zero_noise_solver_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240901)
    chip_s = make_signal().chip_s  # the paper's 10 ns chip
    worst = 0.0
    for name, geometry in ALL_GEOMETRIES.items():
        scene = make_scene(geometry, rx=tuple(make_scene(geometry).centroid()))
        for p in random_inside_points(scene, 1000, rng):
            r1, r2, r3 = ranges(scene, p)
            meas = measurement_from_times(scene, (r2 - r1) / scene.c, (r3 - r2) / scene.c,
                                          chip_s)
            fix = solve_position(scene, meas)
            err = float(np.linalg.norm(np.asarray(fix.position) - p))
            worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 10.0
    report(1, "zero-noise solver exactness", ok,
           f"worst error {worst:.3e} m over 3x1000 points, {elapsed:.1f} s")


def test_criterion_2_poisson_channel_fidelity():
    from test_channel import chip_aligned_scene, poisson_gof_pvalue

    t0 = time.perf_counter()
    lam_b = 1.0
    pvalues = {}
    for lam_s in (2.0, 10.0, 100.0):
        params = make_signal(length=256, n=4, slot_s=300e-6)
        scene = chip_aligned_scene(params, chips=40)
        on_idx = np.nonzero(params.sequence_array())[0]
        draws = []
        frame = 0
        while len(draws) < 10_000:
            trace = render_frame(scene, params, (lam_s, 0.0, 0.0), lam_b, (0, 0, 0), 0.0,
                                 (int(lam_s * 10), frame))
            sums = trace.counts[40 : 40 + params.pilot_chips].reshape(-1, 4).sum(axis=1)
            draws.extend(sums[on_idx].tolist())
            frame += 1
        pvalues[lam_s] = poisson_gof_pvalue(np.array(draws[:10_000]), lam_s + lam_b)
    elapsed = time.perf_counter() - t0
    ok = all(p > 0.01 for p in pvalues.values()) and elapsed < 30.0
    detail = ", ".join(f"lam_s={k:g}: p={v:.3f}" for k, v in pvalues.items())
    report(2, "Poisson channel fidelity", ok, f"{detail}, {elapsed:.1f} s")


def test_criterion_3_sync_bound_dominance():
    t0 = time.perf_counter()
    n, rate = 100, 1e6
    results = []
    for lam_s in (2.0, 5.0, 10.0, 50.0, 100.0):
        for lam_b in (0.5, 1.0):
            for length in (64, 256):
                bound = sync_mse_bound(SyncBoundParams(
                    lambda_s=lam_s, lambda_b=lam_b, length=length,
                    chips_per_symbol=n, symbol_s=1e-6,
                ))
                emp = sync_mse_empirical(lam_s, lam_b, length, n, rate,
                                         trials=10_000, seed=424242)
                results.append((lam_s, lam_b, length, emp, bound, emp <= bound))
    elapsed = time.perf_counter() - t0
    dominated = sum(r[-1] for r in results)
    ok = dominated / len(results) >= 0.95 and elapsed < 600.0
    worst = min(results, key=lambda r: r[4] / max(r[3], 1e-30))
    report(3, "sync-bound dominance", ok,
           f"{dominated}/{len(results)} configs dominated, tightest ratio "
           f"emp/bound={worst[3] / worst[4]:.3f} at lam_s={worst[0]:g} "
           f"lam_b={worst[1]:g} L={worst[2]}, {elapsed:.0f} s")


def _campaign(power_w, clock, trials, seed):
    return CampaignSpec(
        scene=make_scene(GEOMETRY_II),
        budget=make_budget(power_w=power_w),
        signal=make_signal(length=256, n=100, slot_s=300e-6),
        clock=clock,
        trials_per_point=trials,
        seed=seed,
    )


def test_criterion_4_theory_sim_agreement_ideal_clock():
    t0 = time.perf_counter()
    spec = _campaign(0.1, ClockModel.ideal(), trials=200, seed=4001)
    result = run_campaign(spec, workers=WORKERS)
    sim = result.average_rmse_m(inside_only=True)
    theory = result.average_theory_m(inside_only=True)
    gap = abs(sim - theory) / theory
    elapsed = time.perf_counter() - t0
    ok = gap <= 0.20 and elapsed < 900.0
    report(4, "theory-sim agreement, ideal clocks", ok,
           f"inside-triangle sim {sim:.3f} m vs theory {theory:.3f} m "
           f"(gap {100 * gap:.1f}%), {elapsed:.0f} s")


def test_criterion_5_power_sweep_saturation():
    t0 = time.perf_counter()
    spec = _campaign(0.1, ClockModel.ideal(), trials=100, seed=5001)
    entries = power_sweep(spec, [0.010, 0.030, 0.100, 0.300, 1.000], workers=WORKERS)
    sims = [e.sim_average_m for e in entries]
    monotone = all(sims[i + 1] <= sims[i] * 1.05 for i in range(len(sims) - 1))
    saturated = abs(sims[-1] - sims[-2]) / sims[-2] < 0.05
    elapsed = time.perf_counter() - t0
    ok = monotone and saturated and elapsed < 1800.0
    report(5, "power-sweep saturation", ok,
           "sim averages [" + ", ".join(f"{s:.3f}" for s in sims) +
           f"] m for 10..1000 mW, {elapsed:.0f} s")


@pytest.fixture(scope="module")
def clock_campaign():
    t0 = time.perf_counter()
    spec = _campaign(0.15, ClockModel.uniform(0.0, 100e-9), trials=200, seed=6001)
    result = run_campaign(spec, workers=WORKERS)
    return result, time.perf_counter() - t0


def test_criterion_6_clock_dominated_magnitude(clock_campaign):
    result, elapsed = clock_campaign
    sim = result.average_rmse_m(inside_only=True)
    theory = result.average_theory_m(inside_only=True)
    gap = abs(sim - theory) / theory
    ok = 7.0 <= sim <= 14.0 and 7.0 <= theory <= 14.0 and gap <= 0.30 and elapsed < 900.0
    report(6, "clock-dominated error magnitude", ok,
           f"inside-triangle sim {sim:.3f} m, theory {theory:.3f} m "
           f"(gap {100 * gap:.1f}%), {elapsed:.0f} s")


def test_outside_triangle_degradation(clock_campaign):
    # linearized theory degrades outside the anchor triangle: the sim/theory
    # ratio drifts further from 1 there than inside, on average
    result, _ = clock_campaign
    def mean_ratio_gap(inside):
        gaps = [
            abs(p.rmse_m / p.theory_ep_m - 1.0)
            for p in result.point_results
            if p.inside == inside and np.isfinite(p.theory_ep_m)
        ]
        return float(np.mean(gaps))
    inside_gap = mean_ratio_gap(True)
    outside_gap = mean_ratio_gap(False)
    print(f"sim/theory ratio gap: inside {inside_gap:.3f}, outside {outside_gap:.3f}")
    assert outside_gap > inside_gap


GEOMETRY_CONFIG = """
[scene]
tx_a_m = {ax}, {ay}
tx_b_m = {bx}, {by}
tx_c_m = {cx}, {cy}

[budget]
power_w = {power}
rx_area_m2 = 1.77e-4
divergence_full_angle_deg = 120
wavelength_m = 266e-9

[signal]
sequence_length = 256
symbol_rate_hz = 1e6
chips_per_symbol = 100
slot_interval_s = 300e-6

[clock]
distribution = uniform
lo_ns = 0
hi_ns = 100

[campaign]
seed = 7001
"""


def test_criterion_7_experiment_geometry_theory_bracket(tmp_path, capsys):
    t0 = time.perf_counter()
    powers = {"I": 0.15, "II": 0.15, "III": 1.0}
    averages = {}
    for name, geometry in ALL_GEOMETRIES.items():
        (a, b, c) = geometry
        cfg = tmp_path / f"geom_{name}.cfg"
        cfg.write_text(GEOMETRY_CONFIG.format(
            ax=a[0], ay=a[1], bx=b[0], by=b[1], cx=c[0], cy=c[1],
            power=powers[name],
        ))
        out = tmp_path / f"out_{name}"
        code = main(["theory", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        for line in stdout.splitlines():
            if line.startswith("grid_average_ep_m"):
                averages[name] = float(line.split("=")[1])
    elapsed = time.perf_counter() - t0
    ok = all(8.0 <= v <= 14.0 for v in averages.values()) and elapsed < 60.0
    detail = ", ".join(f"{k}: {v:.3f} m" for k, v in averages.items())
    report(7, "experiment-geometry theory bracket", ok, f"{detail}, {elapsed:.1f} s")


def test_criterion_8_differential_correction():
    t0 = time.perf_counter()
    scene = make_scene(GEOMETRY_II)
    rng = np.random.default_rng(8001)
    points = tuple(map(tuple, random_inside_points(scene, 9, rng)))
    spec = CampaignSpec(
        scene=scene,
        budget=make_budget(power_w=0.15),
        signal=make_signal(length=256, n=100, slot_s=300e-6),
        clock=ClockModel.uniform(0.0, 100e-9),
        points=points,
        trials_per_point=11,  # one calibration frame plus ten estimates
        seed=8002,
    )
    results = differential_campaign(spec)
    # Both sides are averaged over the points where both have a fix: a point
    # whose every uncorrected frame is an outage has no uncorrected RMSE.
    both = [r for r in results if r.uncorrected_fixes and r.corrected_fixes]
    uncorrected = float(np.mean([r.uncorrected_rmse_m for r in both]))
    corrected = float(np.mean([r.corrected_rmse_m for r in both]))
    unc_fixes = sum(r.uncorrected_fixes for r in results)
    cor_fixes = sum(r.corrected_fixes for r in results)
    elapsed = time.perf_counter() - t0
    ok = (len(both) > 0 and corrected <= 0.5 * uncorrected and cor_fixes >= unc_fixes
          and elapsed < 600.0)
    report(8, "differential correction direction", ok,
           f"uncorrected {uncorrected:.3f} m vs corrected {corrected:.3f} m "
           f"over {len(both)} of 9 points, fixes {unc_fixes} vs {cor_fixes}, {elapsed:.0f} s")


def test_criterion_9_property_suite():
    t0 = time.perf_counter()
    failures = []

    # MSE matrix symmetry and positive semidefiniteness
    rng = np.random.default_rng(9001)
    for _ in range(40):
        try:
            anchors = rng.uniform(-100, 100, size=(3, 2))
            scene = Scene(tx_a=anchors[0], tx_b=anchors[1], tx_c=anchors[2],
                          rx_true=anchors.mean(axis=0))
            budget = positioning_mse(scene, *rng.uniform(0, 1e-15, size=3))
        except Exception:
            continue
        m = np.asarray(budget.mse_matrix)
        if abs(m[0, 1] - m[1, 0]) > 1e-18:
            failures.append("mse symmetry")
        if np.linalg.eigvalsh(m).min() < -1e-12 * max(m.max(), 1.0):
            failures.append("mse psd")

    # rigid-motion invariance of the scalar error
    scene = make_scene(GEOMETRY_II, rx=(36.0, 25.0))
    s2 = (8e-16, 6e-16, 9e-16)
    base = positioning_mse(scene, *s2).e_p
    for _ in range(10):
        theta = rng.uniform(0, 2 * np.pi)
        shift = rng.uniform(-200, 200, size=2)
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        moved = Scene(
            tx_a=rot @ scene.tx_a + shift, tx_b=rot @ scene.tx_b + shift,
            tx_c=rot @ scene.tx_c + shift,
            rx_true=rot @ np.asarray(scene.rx_true) + shift,
        )
        if abs(positioning_mse(moved, *s2).e_p - base) > 1e-9 * base:
            failures.append("rigid motion")

    # correlator equals the brute-force definition on small instances
    from test_sync import brute_force_scores
    for trial in range(20):
        seq = generate_pilot(8, trial)
        counts = rng.poisson(2.0, size=150)
        window = range(0, 80)
        if not np.array_equal(correlate(counts, seq, 4, window),
                              brute_force_scores(counts, seq, 4, window)):
            failures.append("correlator equivalence")

    # determinism under fixed seeds
    scene = make_scene(GEOMETRY_II, rx=(36.0, 25.0))
    signal = make_signal(length=64, n=20, slot_s=100e-6)
    budget = make_budget(power_w=0.15)
    clock = ClockModel.uniform(0.0, 100e-9)
    a = run_point(scene, signal, budget, clock, trials=5, seed=77)
    b = run_point(scene, signal, budget, clock, trials=5, seed=77)
    if a.fixes != b.fixes or a.rmse_m != b.rmse_m:
        failures.append("determinism")
    if not np.allclose(trial_rng(1, 2, 3).random(8), trial_rng(1, 2, 3).random(8)):
        failures.append("rng substreams")

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120.0
    report(9, "property suite", ok,
           f"failures: {sorted(set(failures)) or 'none'}, {elapsed:.1f} s")
