"""End-to-end simulation campaigns: render, synchronize, solve, aggregate.

Every trial gets its own counter-based random substream keyed by
(campaign seed, point index, trial index), so results are reproducible and
independent of scheduling or worker count.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import (
    LinkBudget,
    SignalParams,
    los_photon_rate,
    pilot_rate_profile,
    render_frame,
    sample_chip_counts,
)
from .errortheory import (
    ClockModel,
    SingularGeometryError,
    anchor_sigma2,
    positioning_mse,
)
from .scene import GridSpec, Scene, default_grid, inside_triangle, ranges
from .sync import arrival_times, correlate, estimate_start, generate_pilot, synchronize_frame
from .tdoa import DEFAULT_FEASIBILITY_TOL_M, PositionFix, measurement_from_times, solve_position


class CampaignError(ValueError):
    """Invalid campaign specification."""


def trial_rng(seed: int, point_index: int, trial_index: int, tag: int = 0) -> np.random.Generator:
    """Counter-based substream for one (point, trial) cell of a campaign."""
    key = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    counter = np.array([0, tag, trial_index, point_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


@dataclass(frozen=True)
class CampaignSpec:
    """Everything needed to reproduce one Monte-Carlo campaign."""

    scene: Scene
    budget: LinkBudget
    signal: SignalParams
    clock: ClockModel
    grid: GridSpec | None = None
    points: tuple[tuple[float, float], ...] | None = None
    trials_per_point: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.trials_per_point < 1:
            raise CampaignError("trials_per_point must be >= 1")
        if self.points is not None:
            pts = tuple((float(x), float(y)) for x, y in self.points)
            object.__setattr__(self, "points", pts)

    def receiver_points(self) -> np.ndarray:
        """Evaluation points: explicit list, else grid, else the default grid."""
        if self.points is not None:
            return np.asarray(self.points, dtype=float)
        grid = self.grid if self.grid is not None else default_grid(self.scene)
        return grid.points()


@dataclass
class PointResult:
    """Per-receiver-point simulation outcome."""

    x: float
    y: float
    inside: bool
    rmse_m: float
    mean_error_m: float
    theory_ep_m: float
    solver_failures: int
    fixes: list[PositionFix] = field(repr=False)
    errors_m: np.ndarray = field(repr=False)
    start_chips: list[tuple[int, int, int]] = field(repr=False, default_factory=list)


@dataclass
class CampaignResult:
    """Aggregated campaign output plus reproduction metadata."""

    seed: int
    trials_per_point: int
    point_results: list[PointResult]

    @property
    def grid_average_rmse_m(self) -> float:
        return float(np.mean([p.rmse_m for p in self.point_results]))

    @property
    def theory_average_m(self) -> float:
        vals = [p.theory_ep_m for p in self.point_results if np.isfinite(p.theory_ep_m)]
        return float(np.mean(vals)) if vals else float("nan")

    def average_rmse_m(self, inside_only: bool = False) -> float:
        vals = [p.rmse_m for p in self.point_results if p.inside or not inside_only]
        return float(np.mean(vals))

    def average_theory_m(self, inside_only: bool = False) -> float:
        vals = [
            p.theory_ep_m
            for p in self.point_results
            if np.isfinite(p.theory_ep_m) and (p.inside or not inside_only)
        ]
        return float(np.mean(vals)) if vals else float("nan")


def params_for_point(
    scene: Scene, signal: SignalParams, budget: LinkBudget
) -> SignalParams:
    """Signal params with per-anchor photon rates for the scene's receiver."""
    dists = ranges(scene, scene.rx_true)
    return signal.with_rates(
        los_photon_rate(budget, dists[0], signal.symbol_s),
        los_photon_rate(budget, dists[1], signal.symbol_s),
        los_photon_rate(budget, dists[2], signal.symbol_s),
    )


def run_point(
    scene: Scene,
    signal: SignalParams,
    budget: LinkBudget,
    clock: ClockModel,
    trials: int,
    seed: int,
    point_index: int = 0,
    constant_offsets: bool = False,
) -> PointResult:
    """Monte-Carlo positioning trials for the receiver at scene.rx_true.

    Each trial draws clock offsets (once per point when ``constant_offsets``,
    emulating short-interval sessions) and a shared fractional arrival
    offset, renders a frame, synchronizes, and solves. Non-converged solves
    are counted but their best iterate still enters the RMSE.
    """
    params = params_for_point(scene, signal, budget)
    t_chip = params.chip_s
    feas_tol = 2.0 * scene.c * t_chip
    truth = np.asarray(scene.rx_true)
    fixes: list[PositionFix] = []
    chips: list[tuple[int, int, int]] = []
    errors = np.empty(trials)
    failures = 0
    if constant_offsets:
        session_rng = trial_rng(seed, point_index, 0, tag=1)
        session_offsets = clock.sample(session_rng, 3)
    for t in range(trials):
        rng = trial_rng(seed, point_index, t)
        offsets = session_offsets if constant_offsets else clock.sample(rng, 3)
        eps = rng.uniform(-t_chip / 2.0, t_chip / 2.0)
        trace = render_frame(scene, params, budget, offsets, eps, rng)
        sync = synchronize_frame(trace, params)
        t_a, t_b, t_c = arrival_times(sync, params)
        meas = measurement_from_times(
            t_b - t_a, t_c - t_b, c=scene.c, scene=scene, feasibility_tol_m=feas_tol
        )
        fix = solve_position(scene, meas)
        if not fix.converged:
            failures += 1
        fixes.append(fix)
        chips.append(sync.start_chips)
        errors[t] = np.linalg.norm(np.asarray(fix.position) - truth)
    return PointResult(
        x=float(truth[0]),
        y=float(truth[1]),
        inside=inside_triangle(scene, truth),
        rmse_m=float(np.sqrt(np.mean(errors**2))),
        mean_error_m=float(np.mean(errors)),
        theory_ep_m=float("nan"),
        solver_failures=failures,
        fixes=fixes,
        errors_m=errors,
        start_chips=chips,
    )


def _point_task(args) -> PointResult:
    spec, point, index = args
    scene = spec.scene.with_receiver(point)
    result = run_point(
        scene,
        spec.signal,
        spec.budget,
        spec.clock,
        spec.trials_per_point,
        spec.seed,
        point_index=index,
    )
    try:
        s2 = anchor_sigma2(scene, point, spec.budget, spec.signal, spec.clock)
        result.theory_ep_m = positioning_mse(scene, *s2, at=point).e_p
    except SingularGeometryError:
        result.theory_ep_m = float("nan")
    return result


def run_campaign(spec: CampaignSpec, workers: int = 1) -> CampaignResult:
    """Run every receiver point of the campaign; deterministic in the seed.

    Points are independent and may be evaluated by worker processes; results
    are merged in point order so the output does not depend on scheduling.
    """
    points = spec.receiver_points()
    tasks = [(spec, (float(p[0]), float(p[1])), i) for i, p in enumerate(points)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_point_task, tasks))
    else:
        results = [_point_task(t) for t in tasks]
    return CampaignResult(
        seed=spec.seed,
        trials_per_point=spec.trials_per_point,
        point_results=results,
    )


@dataclass(frozen=True)
class SweepEntry:
    power_w: float
    sim_average_m: float
    theory_average_m: float
    sim_average_inside_m: float
    theory_average_inside_m: float


def power_sweep(spec: CampaignSpec, powers_w, workers: int = 1) -> list[SweepEntry]:
    """Grid-average simulated and theoretical error versus transmit power.

    Each power level reruns the identical campaign (same seed), so a sweep
    entry matches a standalone campaign at that power.
    """
    powers = [float(p) for p in powers_w]
    if not powers:
        raise CampaignError("power_sweep needs at least one power level")
    out = []
    for p_w in powers:
        sub = replace(spec, budget=spec.budget.with_power(p_w))
        result = run_campaign(sub, workers=workers)
        out.append(
            SweepEntry(
                power_w=p_w,
                sim_average_m=result.grid_average_rmse_m,
                theory_average_m=result.theory_average_m,
                sim_average_inside_m=result.average_rmse_m(inside_only=True),
                theory_average_inside_m=result.average_theory_m(inside_only=True),
            )
        )
    return out


def sync_mse_empirical(
    lambda_s: float,
    lambda_b: float,
    length: int,
    chips_per_symbol: int,
    symbol_rate_hz: float,
    trials: int,
    seed: int,
    window_half_chips: int | None = None,
    pilot_seed: int = 7,
    batch: int = 256,
) -> float:
    """Monte-Carlo synchronization MSE (seconds^2) for a single pilot link.

    Renders Poisson chip windows with the true start at the window center
    and a uniform fractional offset per trial, then measures the squared
    error of the correlation-peak start estimate. The default search half
    width matches the offset coverage of the truncated analytic bound
    (2 * m_max * n chips with m_max = 8).
    """
    n = int(chips_per_symbol)
    t_chip = 1.0 / (symbol_rate_hz * n)
    half = int(window_half_chips) if window_half_chips is not None else 2 * 8 * n
    seq = generate_pilot(length, pilot_seed)
    pilot_chips = length * n
    total = 2 * half + pilot_chips + 1
    t_true = half
    rng = np.random.default_rng([seed, length, n, int(lambda_s * 1e6), int(lambda_b * 1e6)])
    window = range(0, 2 * half + 1)
    sum_sq = 0.0
    done = 0
    while done < trials:
        b = min(batch, trials - done)
        eps = rng.uniform(-t_chip / 2.0, t_chip / 2.0, size=b)
        starts = pilot_rate_profile(seq, n, t_true + eps / t_chip, total)
        counts = sample_chip_counts(rng, starts, lambda_s, lambda_b, n, total)
        scores = correlate(counts, seq, n, window)
        start = estimate_start(scores)
        err = (start - t_true) * t_chip - eps
        sum_sq += float(np.sum(err**2))
        done += b
    return sum_sq / trials


@dataclass
class CorrectionResult:
    """Side-by-side fixes with and without differential clock correction."""

    corrected: list[PositionFix]
    uncorrected: list[PositionFix]
    applied_ba_s: float | None
    applied_cb_s: float | None
    skipped_pairs: tuple[str, ...]


def differential_correction(
    scene: Scene,
    estimates_per_anchor_pair: dict,
    subsequent_measurements,
    rng: np.random.Generator | None = None,
    feasibility_tol_m=DEFAULT_FEASIBILITY_TOL_M,
) -> CorrectionResult:
    """Subtract calibrated inter-anchor timing biases before solving.

    ``estimates_per_anchor_pair`` maps pair labels "ba" and "cb" to lists of
    timing-bias estimates in seconds; one estimate per pair is selected
    (randomly when an rng is given, else the first) and subtracted from every
    measurement's time differences. Pairs without calibration are skipped
    with a warning and left uncorrected. Corrected measurements are clamped
    with ``feasibility_tol_m``, one value for all or one per measurement;
    pass the tolerance the measurements were built with.
    """
    selected: dict[str, float | None] = {}
    skipped = []
    for pair in ("ba", "cb"):
        cal = list(estimates_per_anchor_pair.get(pair, ()))
        if not cal:
            warnings.warn(
                f"no calibration estimates for pair {pair!r}; correction skipped",
                stacklevel=2,
            )
            skipped.append(pair)
            selected[pair] = None
        elif rng is not None:
            selected[pair] = float(cal[int(rng.integers(len(cal)))])
        else:
            selected[pair] = float(cal[0])
    measurements = list(subsequent_measurements)
    tols = np.broadcast_to(np.asarray(feasibility_tol_m, dtype=float), (len(measurements),))
    corrected = []
    uncorrected = []
    for meas, tol in zip(measurements, tols.tolist()):
        uncorrected.append(solve_position(scene, meas))
        t_ba = meas.t_ba_s - (selected["ba"] or 0.0)
        t_cb = meas.t_cb_s - (selected["cb"] or 0.0)
        fixed = measurement_from_times(t_ba, t_cb, c=scene.c, scene=scene, feasibility_tol_m=tol)
        corrected.append(solve_position(scene, fixed))
    return CorrectionResult(
        corrected=corrected,
        uncorrected=uncorrected,
        applied_ba_s=selected["ba"],
        applied_cb_s=selected["cb"],
        skipped_pairs=tuple(skipped),
    )


@dataclass
class DifferentialPointResult:
    x: float
    y: float
    uncorrected_rmse_m: float
    corrected_rmse_m: float


def differential_campaign(
    spec: CampaignSpec,
    calibration_trials: int = 1,
    constant_offsets: bool = True,
) -> list[DifferentialPointResult]:
    """Per-point differential-correction experiment.

    For each receiver point a session of frames shares one clock-offset draw
    (the short-interval regime); the first ``calibration_trials`` frames
    estimate the inter-anchor timing biases against the known truth, and the
    remaining frames are solved with and without that correction.
    """
    if calibration_trials < 1:
        raise CampaignError("calibration_trials must be >= 1")
    if spec.trials_per_point <= calibration_trials:
        raise CampaignError("trials_per_point must exceed calibration_trials")
    out = []
    for index, point in enumerate(spec.receiver_points()):
        scene = spec.scene.with_receiver(point)
        params = params_for_point(scene, spec.signal, spec.budget)
        t_chip = params.chip_s
        truth = np.asarray(scene.rx_true)
        r1, r2, r3 = ranges(scene, truth)
        true_ba = (r2 - r1) / scene.c
        true_cb = (r3 - r2) / scene.c
        if constant_offsets:
            session_rng = trial_rng(spec.seed, index, 0, tag=1)
            session_offsets = spec.clock.sample(session_rng, 3)
        measured = []
        for t in range(spec.trials_per_point):
            rng = trial_rng(spec.seed, index, t)
            offsets = session_offsets if constant_offsets else spec.clock.sample(rng, 3)
            eps = rng.uniform(-t_chip / 2.0, t_chip / 2.0)
            trace = render_frame(scene, params, spec.budget, offsets, eps, rng)
            sync = synchronize_frame(trace, params)
            t_a, t_b, t_c = arrival_times(sync, params)
            measured.append((t_b - t_a, t_c - t_b))
        cal = {
            "ba": [measured[i][0] - true_ba for i in range(calibration_trials)],
            "cb": [measured[i][1] - true_cb for i in range(calibration_trials)],
        }
        feas_tol = 2.0 * scene.c * t_chip
        meas_objs = [
            measurement_from_times(ba, cb, c=scene.c, scene=scene, feasibility_tol_m=feas_tol)
            for ba, cb in measured[calibration_trials:]
        ]
        res = differential_correction(scene, cal, meas_objs, feasibility_tol_m=feas_tol)
        err = lambda fixes: float(
            np.sqrt(
                np.mean(
                    [np.sum((np.asarray(f.position) - truth) ** 2) for f in fixes]
                )
            )
        )
        out.append(
            DifferentialPointResult(
                x=float(truth[0]),
                y=float(truth[1]),
                uncorrected_rmse_m=err(res.uncorrected),
                corrected_rmse_m=err(res.corrected),
            )
        )
    return out
