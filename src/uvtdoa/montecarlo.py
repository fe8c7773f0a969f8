"""End-to-end simulation campaigns: render, synchronize, solve, aggregate.

Every trial gets its own SFC64 random substream, seeded through a
``SeedSequence`` of (campaign seed, tag, trial index, point index), so
results are reproducible and independent of scheduling or worker count.
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
from .errortheory import DEFAULT_M_MAX, ClockModel, TheoryMap, grid_average, theory_points
from .scene import SPEED_OF_LIGHT, GridSpec, Scene, anchor_ranges, default_grid
from .sync import ROW_BLOCK, correlate, estimate_start, generate_pilot, synchronize_frame
from .tdoa import PositionFix, SessionTdoa, solve_sessions, time_differences


class CampaignError(ValueError):
    """Invalid campaign specification."""


# Seeds are unsigned 64-bit integers, the range configs and artifacts
# record; a SeedSequence would take a larger one but no negative one.
SEED_BOUND = 2**64


def check_seed(seed: int) -> None:
    """Raise CampaignError unless ``seed`` lies in [0, 2**64)."""
    if not 0 <= seed < SEED_BOUND:
        raise CampaignError(f"seed must be in [0, 2**64), got {seed}")


def trial_rng(seed: int, point_index: int, trial_index: int, tag: int = 0) -> np.random.Generator:
    """Independent SFC64 substream for one (point, trial, tag) cell of a campaign."""
    check_seed(seed)
    entropy = np.random.SeedSequence([seed, tag, trial_index, point_index])
    return np.random.Generator(np.random.SFC64(entropy))


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

    rmse_m: float
    mean_error_m: float
    solver_failures: int
    fixes: list[PositionFix] = field(repr=False)
    errors_m: np.ndarray = field(repr=False)
    start_chips: list[tuple[int, int, int]] = field(repr=False, default_factory=list)


@dataclass
class CampaignResult:
    """Aggregated campaign output plus reproduction metadata.

    ``theory`` holds each point's coordinates, ``inside`` flag and
    theoretical error, in the order of ``point_results``.
    """

    seed: int
    trials_per_point: int
    point_results: list[PointResult]
    theory: TheoryMap

    def average_rmse_m(self, inside_only: bool = False) -> float:
        """Mean RMSE over the points that have a fix."""
        return grid_average([p.rmse_m for p in self.point_results], self.theory.inside,
                            inside_only)


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

    The point's three anchor distances give the flight times and the
    links' photon rates, from the expression the theory uses (see
    ``anchor_sigma2``). Trial t draws from its own substream, in order:
    the clock offsets (unless ``session_offsets`` gives a session's shared
    offsets), a shared fractional arrival offset, then the frame; the frame
    is then synchronized.
    """
    dists = anchor_ranges(scene, scene.rx_true)
    lambda_s = los_photon_rate(budget, dists, params.symbol_s)
    flight_s = dists / SPEED_OF_LIGHT
    t_chip = params.chip_s
    chips = []
    for t in range(trials):
        rng = trial_rng(seed, point_index, t)
        offsets = clock.sample(rng, 3) if session_offsets is None else session_offsets
        eps = rng.uniform(-t_chip / 2.0, t_chip / 2.0)
        # Free the frame before the next render: a frame kept alive across
        # it leaves a heap hole that glibc trims and page-faults back in on
        # every trial.
        frame = render_frame(params, flight_s, lambda_s, budget.lambda_b, offsets, eps, rng)
        chips.append(synchronize_frame(frame.counts, params))
        del frame
    return chips


def _sessions(chips, chip_s: float, truth) -> list[SessionTdoa]:
    """One session at ``truth`` per start-chip triple."""
    return [SessionTdoa(f"t{t}", *time_differences(c, chip_s), chip_s, truth)
            for t, c in enumerate(chips)]


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
    fixes, errors = solve_sessions(scene, _sessions(chips, signal.chip_s, scene.rx_true))
    fixed = errors[~np.isnan(errors)]
    return PointResult(
        rmse_m=_rms(fixed),
        mean_error_m=grid_average(errors),
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
    depend on scheduling. The theory of every point then comes from one
    ``theory_points`` pass in this process.
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
    return CampaignResult(
        seed=spec.seed,
        trials_per_point=spec.trials_per_point,
        point_results=results,
        theory=theory_points(spec.scene, points, spec.budget, spec.signal, spec.clock),
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
    entry matches a standalone campaign at that power. Every power is
    checked before the first campaign runs.
    """
    budgets = [spec.budget.with_power(float(p_w)) for p_w in powers_w]
    if not budgets:
        raise CampaignError("power_sweep needs at least one power level")
    out = []
    for budget in budgets:
        result = run_campaign(replace(spec, budget=budget), workers=workers)
        out.append(
            SweepEntry(
                power_w=budget.power_w,
                sim_average_m=result.average_rmse_m(),
                theory_average_m=result.theory.average_ep(),
                sim_average_inside_m=result.average_rmse_m(inside_only=True),
                theory_average_inside_m=result.theory.average_ep(inside_only=True),
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
    """Each side's fixes and errors (see ``solve_sessions``), and the number
    of calibration sessions with truth, each one bias estimate per pair."""

    uncorrected: list[PositionFix]
    uncorrected_errors_m: np.ndarray
    corrected: list[PositionFix]
    corrected_errors_m: np.ndarray
    calibration_sessions: int


def differential_correction(
    scene: Scene,
    calibration_sessions,
    sessions,
    rng: np.random.Generator | None = None,
) -> CorrectionResult:
    """Subtract calibrated inter-anchor timing biases before solving.

    Each calibration session with known truth estimates the B-A and C-B
    timing biases: its measured time differences minus the geometric ones
    at its truth. One estimate per pair is selected (the B-A one, then the
    C-B one, randomly when an rng is given, else the first session's) and
    taken off every session's raw time differences by ``solve_sessions``.
    Without a calibration session with truth, each pair warns and is left
    uncorrected.
    """
    known = [sess for sess in calibration_sessions if sess.truth is not None]
    # one anchor_ranges call for every truth: the same bits as one per truth
    ranges = anchor_ranges(scene, [sess.truth for sess in known]).tolist() if known else []
    estimates = [
        (sess.t_ba_s - (d[1] - d[0]) / SPEED_OF_LIGHT, sess.t_cb_s - (d[2] - d[1]) / SPEED_OF_LIGHT)
        for sess, d in zip(known, ranges)
    ]
    bias_ba = bias_cb = 0.0
    if not estimates:
        for pair in ("ba", "cb"):
            warnings.warn(
                f"no calibration estimates for pair {pair!r}; correction skipped",
                stacklevel=2,
            )
    elif rng is None:
        bias_ba, bias_cb = estimates[0]
    else:
        bias_ba = estimates[int(rng.integers(len(estimates)))][0]
        bias_cb = estimates[int(rng.integers(len(estimates)))][1]
    uncorrected, uncorrected_errors = solve_sessions(scene, sessions)
    corrected, corrected_errors = solve_sessions(scene, sessions, bias_ba, bias_cb)
    return CorrectionResult(
        uncorrected=uncorrected,
        uncorrected_errors_m=uncorrected_errors,
        corrected=corrected,
        corrected_errors_m=corrected_errors,
        calibration_sessions=len(estimates),
    )


@dataclass
class DifferentialPointResult:
    """Per-side RMSE over the fixes (NaN without one) and per-side fix counts."""

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
    and its fix count is reported. One result per point, in the order of
    ``spec.receiver_points()``.
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
        sessions = _sessions(chips, spec.signal.chip_s, scene.rx_true)
        res = differential_correction(scene, sessions[:1], sessions[1:])
        unc = res.uncorrected_errors_m[~np.isnan(res.uncorrected_errors_m)]
        cor = res.corrected_errors_m[~np.isnan(res.corrected_errors_m)]
        out.append(
            DifferentialPointResult(
                uncorrected_rmse_m=_rms(unc),
                corrected_rmse_m=_rms(cor),
                uncorrected_fixes=len(unc),
                corrected_fixes=len(cor),
            )
        )
    return out
