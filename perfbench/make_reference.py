"""Record the reference values the benchmark checks compare with.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py

and commit the rewritten perfbench/reference.json. It takes about half
an hour on one core.

sync_check: for every point of the criterion-3 grid it records the analytic
bound, and an acceptance interval for ``sync_mse_empirical`` at the
benchmark's trials per point. The interval is the ALPHA and 1 - ALPHA
quantiles of BOOTSTRAP resampled means of REFERENCE_TRIALS single-trial
squared errors, each one ``sync_mse_empirical(..., trials=1, seed=s)`` with
its own seed, widened by the fixed factor WIDEN on both sides. HOLDOUT_RUNS
further calls at the benchmark's trials per point, on seeds of their own,
are then compared with the interval: the counts below and above it are how
often a correct sampler fails at this width. An end that any held-out run
falls beyond is recorded as null and left unchecked: at the low-rate points
rare misdetections by many symbols, too rare for the reference sample to
resolve, dominate the mean of a run.

theory_map: the grid average of ``uvtdoa theory`` on the workload's config.
"""

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import workloads  # noqa: E402
from uvtdoa import SyncBoundParams, sync_mse_bound, sync_mse_empirical  # noqa: E402
from uvtdoa.cli import main as cli_main  # noqa: E402

REFERENCE_TRIALS = 20_000
BOOTSTRAP = 100_000
ALPHA = 1e-4
WIDEN = 1.5
HOLDOUT_RUNS = 200
# Seed bases well away from the small seeds a benchmark run is given.
REFERENCE_SEED_BASE = 10**9
HOLDOUT_SEED_BASE = 2 * 10**9
BOOTSTRAP_SEED = 2**31 - 1


def sync_points(trials: int, n: int, rate_hz: float) -> list[dict]:
    rng = np.random.default_rng(BOOTSTRAP_SEED)
    points = []
    for lam_s in workloads.SYNC_LAMBDA_S:
        for lam_b in workloads.SYNC_LAMBDA_B:
            for length in workloads.SYNC_LENGTHS:
                args = (lam_s, lam_b, length, n, rate_hz)
                e2 = np.array([sync_mse_empirical(*args, trials=1, seed=REFERENCE_SEED_BASE + s)
                               for s in range(REFERENCE_TRIALS)])
                means = np.concatenate([
                    e2[rng.integers(len(e2), size=(10_000, trials))].mean(axis=1)
                    for _ in range(BOOTSTRAP // 10_000)
                ])
                lo, hi = np.quantile(means, [ALPHA, 1.0 - ALPHA])
                holdout = [sync_mse_empirical(*args, trials=trials, seed=HOLDOUT_SEED_BASE + k)
                           for k in range(HOLDOUT_RUNS)]
                bound = sync_mse_bound(SyncBoundParams(
                    lambda_s=lam_s, lambda_b=lam_b, length=length,
                    chips_per_symbol=n, symbol_s=1.0 / rate_hz,
                ))
                below = int(sum(m < lo / WIDEN for m in holdout))
                above = int(sum(m > hi * WIDEN for m in holdout))
                points.append({
                    "point": [lam_s, lam_b, length],
                    "bound": bound,
                    "empirical_mean": float(np.mean(e2)),
                    "empirical_lo": None if below else float(lo / WIDEN),
                    "empirical_hi": None if above else float(hi * WIDEN),
                    "holdout_below": below,
                    "holdout_above": above,
                })
                print(points[-1], flush=True)
    return points


def theory_reference() -> float:
    with tempfile.TemporaryDirectory() as tmp:
        workload = workloads.theory_map(0, Path(tmp))
        out = Path(tmp) / "out"
        argv = [str(out) if a == "{out}" else a for a in workload.job["argv"]]
        if cli_main(argv) != 0:
            raise SystemExit("uvtdoa theory failed")
        return checks.theory_average(out)[1]


def main() -> None:
    trials = workloads.SYNC_TRIALS_PER_POINT
    reference = {
        "sync_check": {
            "trials": trials,
            "reference_trials": REFERENCE_TRIALS,
            "widen": WIDEN,
            "holdout_runs": HOLDOUT_RUNS,
            "points": sync_points(trials, workloads.CHIPS_PER_SYMBOL, 1e6),
        },
        "theory_map": {"grid_average_ep_m": theory_reference()},
    }
    checks.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
