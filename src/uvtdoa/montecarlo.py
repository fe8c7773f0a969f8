"""End-to-end simulation campaigns: render, synchronize, solve, aggregate.

Every trial gets its own counter-based random substream keyed by
(campaign seed, point index, trial index), so results are reproducible and
independent of scheduling or worker count.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import (
    LinkBudget,
    SignalParams,
    los_photon_rate,
    pilot_rate_profile,
    render_frame,
    sample_photons,
)
from .errortheory import DEFAULT_M_MAX, ClockModel, theory_points
from .scene import GridSpec, Scene, anchor_ranges, default_grid, inside_triangle, ranges
from .sync import ROW_BLOCK, correlate, estimate_start, generate_pilot, synchronize_frame
from .tdoa import PositionFix, SessionTdoa, measure_and_solve, time_differences


class CampaignError(ValueError):
    """Invalid campaign specification."""


# Seeds are unsigned 64-bit integers: trial_rng keys Philox with one, and
# np.random.default_rng takes no negative seed.
SEED_BOUND = 2**64


def check_seed(seed: int) -> None:
    """Raise CampaignError unless ``seed`` lies in [0, 2**64)."""
    if not 0 <= seed < SEED_BOUND:
        raise CampaignError(f"seed must be in [0, 2**64), got {seed}")


def trial_rng(seed: int, point_index: int, trial_index: int, tag: int = 0) -> np.random.Generator:
    """Counter-based substream for one (point, trial) cell of a campaign."""
    check_seed(seed)
    key = np.uint64(seed)
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
            raise CampaignError(f"trials_per_point must be >= 1, got {self.trials_per_point}")
        check_seed(self.seed)
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

    def average_rmse_m(self, inside_only: bool = False) -> float:
        """Mean RMSE over the points that have a fix."""
        vals = [
            p.rmse_m
            for p in self.point_results
            if not math.isnan(p.rmse_m) and (p.inside or not inside_only)
        ]
        return float(np.mean(vals)) if vals else float("nan")

    def average_theory_m(self, inside_only: bool = False) -> float:
        vals = [
            p.theory_ep_m
            for p in self.point_results
            if np.isfinite(p.theory_ep_m) and (p.inside or not inside_only)
        ]
        return float(np.mean(vals)) if vals else float("nan")


def detect(
    scene: Scene,
    params: SignalParams,
    budget: LinkBudget,
    clock: ClockModel,
    trials: int,
    seed: int,
    point_index: int = 0,
    session_offsets=None,
) -> list[tuple[int, int, int]]:
    """Slot-relative start chips of the three pilots, one triple per trial.

    The three links' photon rates come from the expression the theory uses
    (see ``anchor_sigma2``). Trial t draws from its own substream, in order:
    the clock offsets (unless ``session_offsets`` gives a session's shared
    offsets), a shared fractional arrival offset, then the frame; the frame
    is then synchronized.
    """
    lambda_s = los_photon_rate(budget, anchor_ranges(scene, scene.rx_true), params.symbol_s)
    t_chip = params.chip_s
    chips = []
    for t in range(trials):
        rng = trial_rng(seed, point_index, t)
        offsets = clock.sample(rng, 3) if session_offsets is None else session_offsets
        eps = rng.uniform(-t_chip / 2.0, t_chip / 2.0)
        # Free the frame before the next render: a frame kept alive across
        # it leaves a heap hole that glibc trims and page-faults back in on
        # every trial.
        frame = render_frame(scene, params, lambda_s, budget.lambda_b, offsets, eps, rng)
        chips.append(synchronize_frame(frame.counts, params))
        del frame
    return chips


def _rms(errors: np.ndarray) -> float:
    """Root mean square of ``errors``; NaN when there is none."""
    return float(np.sqrt(np.mean(errors**2))) if errors.size else math.nan


def run_point(
    scene: Scene,
    signal: SignalParams,
    budget: LinkBudget,
    clock: ClockModel,
    trials: int,
    seed: int,
    point_index: int = 0,
) -> PointResult:
    """Monte-Carlo positioning trials for the receiver at scene.rx_true.

    Each trial detects the three pilots of one frame (see ``detect``) and
    solves. A trial without a fix (outage) counts as a solver failure, and
    its error is NaN; ``rmse_m`` and ``mean_error_m`` are taken over the
    fixes, and are NaN when there is none.
    """
    chips = detect(scene, signal, budget, clock, trials, seed, point_index)
    chip_s = signal.chip_s
    fixes = [measure_and_solve(scene, *time_differences(c, chip_s), chip_s) for c in chips]
    truth = scene.rx_true
    errors = np.array([math.dist(fix.position, truth) for fix in fixes])
    fixed = errors[~np.isnan(errors)]
    return PointResult(
        x=truth[0],
        y=truth[1],
        inside=inside_triangle(scene, truth),
        rmse_m=_rms(fixed),
        mean_error_m=float(np.mean(fixed)) if fixed.size else math.nan,
        theory_ep_m=float("nan"),
        solver_failures=sum(not fix.converged for fix in fixes),
        fixes=fixes,
        errors_m=errors,
        start_chips=chips,
    )


def _point_task(args) -> PointResult:
    spec, point, index = args
    return run_point(
        spec.scene.with_receiver(point),
        spec.signal,
        spec.budget,
        spec.clock,
        spec.trials_per_point,
        spec.seed,
        point_index=index,
    )


def run_campaign(spec: CampaignSpec, workers: int = 1) -> CampaignResult:
    """Run every receiver point of the campaign; deterministic in the seed.

    Points are independent and may be evaluated by worker processes, at most
    one per point; results are merged in point order so the output does not
    depend on scheduling. The theoretical error of every point then comes
    from one ``theory_points`` pass in this process.
    """
    points = spec.receiver_points()
    tasks = [(spec, (float(p[0]), float(p[1])), i) for i, p in enumerate(points)]
    workers = min(workers, len(tasks))
    if workers > 1:
        # imported here: the pool machinery (multiprocessing) is slow to
        # import and no serial run needs it
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_point_task, tasks))
    else:
        results = [_point_task(t) for t in tasks]
    theory = theory_points(spec.scene, points, spec.budget, spec.signal, spec.clock)
    for result, point in zip(results, theory.points):
        result.theory_ep_m = point.e_p
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
                sim_average_m=result.average_rmse_m(),
                theory_average_m=result.average_theory_m(),
                sim_average_inside_m=result.average_rmse_m(inside_only=True),
                theory_average_inside_m=result.average_theory_m(inside_only=True),
            )
        )
    return out


# The pilot seed of sync_mse_empirical; with ``ROW_BLOCK`` it fixes its
# random stream.
EMPIRICAL_PILOT_SEED = 7
# Largest mean of one Poisson draw in sync_mse_empirical: numpy's sampler
# refuses means past about 9.2e18.
EMPIRICAL_MEAN_MAX = 1e18


def sync_mse_empirical(
    lambda_s: float,
    lambda_b: float,
    length: int,
    chips_per_symbol: int,
    symbol_rate_hz: float,
    trials: int,
    seed: int,
    window_half_chips: int | None = None,
) -> float:
    """Monte-Carlo synchronization MSE (seconds^2) for a single pilot link.

    Renders Poisson chip windows with the true start at the window center
    and a uniform fractional offset per trial, then measures the squared
    error of the correlation-peak start estimate. The default search half
    width matches the offset coverage of the truncated analytic bound
    (2 * m_max * n chips with m_max = ``DEFAULT_M_MAX``). The pilot comes
    from ``EMPIRICAL_PILOT_SEED`` and trials are drawn ``ROW_BLOCK`` at a
    time; both fix the random stream.

    Each Poisson draw's mean must stay at or below ``EMPIRICAL_MEAN_MAX``
    (1e18 photons): ``lambda_s`` itself, and ``lambda_b`` times the
    window's length in symbols. Bad arguments raise ``CampaignError``
    naming the argument.
    """
    if trials < 1:
        raise CampaignError(f"trials must be >= 1, got {trials}")
    for name, rate in (("lambda_s", lambda_s), ("lambda_b", lambda_b)):
        if not (math.isfinite(rate) and rate >= 0):
            raise CampaignError(f"{name} must be finite and >= 0, got {rate}")
    if chips_per_symbol < 1:
        raise CampaignError(f"chips_per_symbol must be >= 1, got {chips_per_symbol}")
    if not (math.isfinite(symbol_rate_hz) and symbol_rate_hz > 0):
        raise CampaignError(f"symbol_rate_hz must be finite and > 0, got {symbol_rate_hz}")
    if window_half_chips is not None and window_half_chips < 0:
        raise CampaignError(f"window_half_chips must be >= 0, got {window_half_chips}")
    check_seed(seed)
    n = int(chips_per_symbol)
    t_chip = 1.0 / (symbol_rate_hz * n)
    half = int(window_half_chips) if window_half_chips is not None else 2 * DEFAULT_M_MAX * n
    seq = generate_pilot(length, EMPIRICAL_PILOT_SEED)
    pilot_chips = length * n
    total = 2 * half + pilot_chips + 1
    if lambda_s > EMPIRICAL_MEAN_MAX:
        raise CampaignError(f"lambda_s must be <= {EMPIRICAL_MEAN_MAX:g}, got {lambda_s}")
    if lambda_b * total / n > EMPIRICAL_MEAN_MAX:
        raise CampaignError(f"lambda_b must be <= {EMPIRICAL_MEAN_MAX * n / total:.3g} "
                            f"for a {total}-chip window, got {lambda_b}")
    t_true = half
    rng = np.random.default_rng([seed, length, n, int(lambda_s * 1e6), int(lambda_b * 1e6)])
    window = range(0, 2 * half + 1)
    sum_sq = 0.0
    for done in range(0, trials, ROW_BLOCK):
        b = min(ROW_BLOCK, trials - done)
        eps = rng.uniform(-t_chip / 2.0, t_chip / 2.0, size=b)
        starts = pilot_rate_profile(seq, n, t_true + eps / t_chip, total)
        counts = sample_photons(rng, starts, lambda_s, lambda_b, n, total)
        start = estimate_start(correlate(counts, seq, n, window))
        err = (start - t_true) * t_chip - eps
        sum_sq += float(np.sum(err**2))
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
    sessions,
    rng: np.random.Generator | None = None,
) -> CorrectionResult:
    """Subtract calibrated inter-anchor timing biases before solving.

    ``estimates_per_anchor_pair`` maps pair labels "ba" and "cb" to lists of
    timing-bias estimates in seconds; one estimate per pair is selected
    (randomly when an rng is given, else the first) and subtracted from every
    session's raw time differences. Pairs without calibration are skipped
    with a warning and left uncorrected. Each session is measured (clamped)
    and solved on its own chip duration, before and after the correction, so
    a bias past the clamp's two-chip slack is still removed.
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
    corrected = []
    uncorrected = []
    bias_ba, bias_cb = selected["ba"] or 0.0, selected["cb"] or 0.0
    for sess in sessions:
        uncorrected.append(measure_and_solve(scene, sess.t_ba_s, sess.t_cb_s, sess.chip_s))
        corrected.append(
            measure_and_solve(scene, sess.t_ba_s - bias_ba, sess.t_cb_s - bias_cb, sess.chip_s)
        )
    return CorrectionResult(
        corrected=corrected,
        uncorrected=uncorrected,
        applied_ba_s=selected["ba"],
        applied_cb_s=selected["cb"],
        skipped_pairs=tuple(skipped),
    )


def calibration_offsets(scene: Scene, sessions) -> dict[str, list[float]]:
    """Timing-bias estimates per anchor pair from sessions with known truth.

    Each estimate is a measured time difference minus the geometric one at
    the session's truth; sessions without truth are passed over.
    """
    cal: dict[str, list[float]] = {"ba": [], "cb": []}
    for sess in sessions:
        if sess.truth is None:
            continue
        d = ranges(scene, sess.truth)
        cal["ba"].append(sess.t_ba_s - (d[1] - d[0]) / scene.c)
        cal["cb"].append(sess.t_cb_s - (d[2] - d[1]) / scene.c)
    return cal


@dataclass
class DifferentialPointResult:
    """Per-side RMSE over the fixes (NaN without one) and per-side fix counts."""

    x: float
    y: float
    uncorrected_rmse_m: float
    corrected_rmse_m: float
    uncorrected_fixes: int
    corrected_fixes: int


def differential_campaign(spec: CampaignSpec) -> list[DifferentialPointResult]:
    """Per-point differential-correction experiment.

    For each receiver point all frames of a session share one clock-offset
    draw (the short-interval regime). The first frame is the calibration
    frame: it estimates the inter-anchor timing biases against the known
    truth, and the remaining ``trials_per_point - 1`` frames are solved with
    and without that correction. Each side's RMSE is taken over its fixes,
    and its fix count is reported.
    """
    if spec.trials_per_point < 2:
        # one calibration frame and at least one frame to correct
        raise CampaignError("trials_per_point must be >= 2")
    out = []
    for index, point in enumerate(spec.receiver_points()):
        scene = spec.scene.with_receiver(point)
        session_offsets = spec.clock.sample(trial_rng(spec.seed, index, 0, tag=1), 3)
        chips = detect(
            scene, spec.signal, spec.budget, spec.clock, spec.trials_per_point, spec.seed,
            index, session_offsets,
        )
        truth = scene.rx_true
        chip_s = spec.signal.chip_s
        sessions = [
            SessionTdoa(f"t{t}", *time_differences(c, chip_s), chip_s, truth)
            for t, c in enumerate(chips)
        ]
        res = differential_correction(scene, calibration_offsets(scene, sessions[:1]), sessions[1:])
        unc = np.array([math.dist(f.position, truth) for f in res.uncorrected if f.converged])
        cor = np.array([math.dist(f.position, truth) for f in res.corrected if f.converged])
        out.append(
            DifferentialPointResult(
                x=truth[0],
                y=truth[1],
                uncorrected_rmse_m=_rms(unc),
                corrected_rmse_m=_rms(cor),
                uncorrected_fixes=len(unc),
                corrected_fixes=len(cor),
            )
        )
    return out
