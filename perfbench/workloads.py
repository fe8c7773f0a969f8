"""Seeded inputs for the benchmark workloads.

``generate(name, seed, directory)`` writes the files one child run needs (a
config, a detection log, or a sync-sweep spec) and returns a ``Workload``
that says how to run them, how many items one run processes, what the
checks expect, and the traffic properties the inputs were built with. The
same seed gives byte-identical files. Only the standard library is used, so
input generation does not depend on the package under test.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

SPEED_OF_LIGHT = 299_792_458.0
CHIP_S = 10e-9  # 1 MHz symbols, 100 chips per symbol
CHIPS_PER_SYMBOL = 100

# Anchor layouts of the paper's outdoor experiments.
GEOMETRY_II = ((0.0, 0.0), (75.6, 0.0), (32.2, 76.6))
GEOMETRY_III = ((0.0, 0.0), (128.6, 122.8), (247.1, 0.0))

CONFIG_TEMPLATE = """\
[scene]
tx_a_m = {a[0]!r}, {a[1]!r}
tx_b_m = {b[0]!r}, {b[1]!r}
tx_c_m = {c[0]!r}, {c[1]!r}
{grid}
[budget]
power_w = 0.15
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
trials_per_point = {trials}
seed = {seed}
"""

# campaign: paper config, default 9x9 grid.
CAMPAIGN_TRIALS_PER_POINT = 4
CAMPAIGN_POINTS = 81

# sync_check: the criterion-3 grid.
SYNC_LAMBDA_S = (2.0, 5.0, 10.0, 50.0, 100.0)
SYNC_LAMBDA_B = (0.5, 1.0)
SYNC_LENGTHS = (64, 256)
SYNC_TRIALS_PER_POINT = 100

# replay: truth sessions on every default-grid point, a fixed set of
# misdetected sessions, one group without truth, and malformed lines.
REPLAY_SESSIONS_PER_POINT = 15
# (anchor index, shift in whole symbols): every anchor in both directions.
# Their grid points are fixed so the multistart cost they add is the same
# for every seed; the seed picks which session carries each one.
REPLAY_MISDETECTIONS = tuple((a, s) for a in range(3) for s in (-2, -1, 1, 2))
REPLAY_NO_TRUTH_SESSIONS = 1000
REPLAY_MALFORMED_SHARE = 0.02
# Clean sessions carry only chip quantisation (synchronised clocks), so
# every clean fix lies this close to its truth point.
REPLAY_CLEAN_TOLERANCE_M = 6.0

# theory_map: Geometry III at 150 mW on a dense grid.
THEORY_STEPS = 25

@dataclass
class Workload:
    """One workload's generated inputs and what running them means."""

    name: str
    job: dict  # written to job.json for the child; "{out}" marks the output dir
    items: int  # items one child run processes
    item: str
    expected: dict = field(default_factory=dict)
    traffic: dict = field(default_factory=dict)
    expected_spans: tuple[str, ...] = ()


def default_grid_points(anchors, steps: int = 9, inset: float = 0.20):
    """Row-major points of the package's default grid (bounding box inset)."""
    xs = [p[0] for p in anchors]
    ys = [p[1] for p in anchors]
    dx, dy = max(xs) - min(xs), max(ys) - min(ys)
    x0, x1 = min(xs) + inset * dx, max(xs) - inset * dx
    y0, y1 = min(ys) + inset * dy, max(ys) - inset * dy
    def axis(lo, hi):
        return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]
    return [(x, y) for y in axis(y0, y1) for x in axis(x0, x1)]


def _config(anchors, seed: int, trials: int = 1, steps: int | None = None) -> str:
    grid = "" if steps is None else f"\n[grid]\nsteps_x = {steps}\nsteps_y = {steps}\n"
    a, b, c = anchors
    return CONFIG_TEMPLATE.format(a=a, b=b, c=c, grid=grid, trials=trials, seed=seed)


def _cli_job(command: str, config: Path, extra=()) -> dict:
    argv = [command, "--config", str(config), "--out", "{out}", "--workers", "1", *extra]
    return {"kind": "cli", "argv": argv, "handler": f"cmd_{command}"}


def campaign(seed: int, directory: Path) -> Workload:
    cfg = directory / "campaign.cfg"
    cfg.write_text(_config(GEOMETRY_II, seed, CAMPAIGN_TRIALS_PER_POINT))
    return Workload(
        name="campaign",
        job=_cli_job("simulate", cfg),
        items=CAMPAIGN_POINTS * CAMPAIGN_TRIALS_PER_POINT,
        item="trial",
        traffic={
            "grid_points": CAMPAIGN_POINTS,
            "trials_per_point": CAMPAIGN_TRIALS_PER_POINT,
            "geometry": "II",
            "power_mw": 150,
        },
        expected_spans=(
            "cli.cmd_simulate", "config.load_config", "montecarlo.run_point",
            "channel.render_frame", "channel.pilot_rate_profile",
            "sync.synchronize_frame", "sync.correlate",
            "tdoa.measurement_from_times", "tdoa.solve_position",
            "errortheory.anchor_sigma2", "errortheory.sync_mse_bound",
            "errortheory.positioning_mse",
        ),
    )


def sync_check(seed: int, directory: Path) -> Workload:
    points = [[ls, lb, n] for ls in SYNC_LAMBDA_S for lb in SYNC_LAMBDA_B for n in SYNC_LENGTHS]
    spec = {
        "points": points,
        "chips_per_symbol": CHIPS_PER_SYMBOL,
        "symbol_rate_hz": 1e6,
        "trials": SYNC_TRIALS_PER_POINT,
        "seed": seed,
    }
    path = directory / "sync_check.json"
    path.write_text(json.dumps(spec, indent=1) + "\n")
    return Workload(
        name="sync_check",
        job={"kind": "sync_check", "spec": str(path)},
        items=len(points) * SYNC_TRIALS_PER_POINT,
        item="trial",
        expected={"trials": SYNC_TRIALS_PER_POINT},
        traffic={"grid_points": len(points), "trials_per_point": SYNC_TRIALS_PER_POINT},
        expected_spans=(
            "errortheory.sync_mse_bound", "montecarlo.sync_mse_empirical",
            "channel.pilot_rate_profile", "sync.correlate",
        ),
    )


# Common receive latency added to every logged start chip, so a peak found
# whole symbols early still has a non-negative slot-relative chip.
LOG_LATENCY_CHIPS = 3 * CHIPS_PER_SYMBOL


def _arrival_chips(point, anchors, eps_s: float) -> list[int]:
    return [
        LOG_LATENCY_CHIPS + round((math.dist(point, a) / SPEED_OF_LIGHT + eps_s) / CHIP_S)
        for a in anchors
    ]


_MALFORMED = (
    "{t!r},{s},A,1000,10.0,1.0",  # six columns
    "{t!r},{s},D,1000,10.0,,",  # unknown anchor
    "{t!r},{s},B,10x0,10.0,,",  # non-integer arrival chip
    "t{t!r},{s},C,1000,10.0,,",  # non-numeric timestamp
)


def replay(seed: int, directory: Path) -> Workload:
    rng = random.Random(f"replay-{seed}")
    grid = default_grid_points(GEOMETRY_II)
    # (truth point, has truth tag, misdetection or None)
    sessions = [(p, True, None) for p in grid for _ in range(REPLAY_SESSIONS_PER_POINT)]
    for k, mis in enumerate(REPLAY_MISDETECTIONS):
        point_index = (7 * k) % len(grid)
        target = point_index * REPLAY_SESSIONS_PER_POINT + rng.randrange(REPLAY_SESSIONS_PER_POINT)
        sessions[target] = (grid[point_index], True, mis)
    sessions += [(rng.choice(grid), False, None) for _ in range(REPLAY_NO_TRUTH_SESSIONS)]
    rng.shuffle(sessions)

    lines = []
    misdetected = []
    for index, (point, tagged, mis) in enumerate(sessions):
        name = f"s{index:05d}"
        chips = _arrival_chips(point, GEOMETRY_II, rng.uniform(-CHIP_S / 2, CHIP_S / 2))
        if mis is not None:
            chips[mis[0]] += mis[1] * CHIPS_PER_SYMBOL
            misdetected.append(name)
        truth = f"{point[0]!r},{point[1]!r}" if tagged else ","
        for slot, (anchor, chip) in enumerate(zip("ABC", chips)):
            ts = index * 1e-3 + slot * 300e-6
            lines.append(f"{ts!r},{name},{anchor},{chip},10.0,{truth}")
    valid_lines = len(lines)
    malformed = round(REPLAY_MALFORMED_SHARE * valid_lines / (1.0 - REPLAY_MALFORMED_SHARE))
    for k in range(malformed):
        bad = _MALFORMED[k % len(_MALFORMED)].format(t=rng.uniform(0, 10), s=f"bad{k:05d}")
        lines.insert(rng.randrange(len(lines) + 1), bad)

    log = directory / "detections.csv"
    log.write_text(
        "timestamp_s,session,anchor,arrival_chip,chip_ns,truth_x_m,truth_y_m\n"
        + "\n".join(lines) + "\n"
    )
    cfg = directory / "replay.cfg"
    cfg.write_text(_config(GEOMETRY_II, seed))
    n_truth = len(grid) * REPLAY_SESSIONS_PER_POINT
    return Workload(
        name="replay",
        job=_cli_job("replay", cfg, ("--log", str(log))),
        items=len(sessions),
        item="session",
        expected={
            "sessions_replayed": len(sessions),
            "lines_skipped": malformed,
            "misdetected": misdetected,
            "clean_tolerance_m": REPLAY_CLEAN_TOLERANCE_M,
        },
        traffic={
            "sessions": len(sessions),
            "truth_sessions": n_truth,
            "misdetected_sessions": len(misdetected),
            "misdetected_share_of_truth_sessions": len(misdetected) / n_truth,
            "no_truth_group_size": REPLAY_NO_TRUTH_SESSIONS,
            "malformed_lines": malformed,
            "malformed_line_share": malformed / (valid_lines + malformed),
        },
        expected_spans=(
            "cli.cmd_replay", "config.load_config", "cli.parse_replay_log",
            "cli.sessions_from_records", "tdoa.measurement_from_times",
            "tdoa.solve_position", "cli.cluster_stats",
        ),
    )


def theory_map(seed: int, directory: Path) -> Workload:
    # `theory` is deterministic: the seed only reaches the config's seed key,
    # so the grid average can be checked against one recorded value.
    cfg = directory / "theory_map.cfg"
    cfg.write_text(_config(GEOMETRY_III, seed, steps=THEORY_STEPS))
    return Workload(
        name="theory_map",
        job=_cli_job("theory", cfg),
        items=THEORY_STEPS * THEORY_STEPS,
        item="grid point",
        expected={"grid_points": THEORY_STEPS * THEORY_STEPS},
        traffic={"grid_points": THEORY_STEPS * THEORY_STEPS, "geometry": "III", "power_mw": 150},
        expected_spans=(
            "cli.cmd_theory", "config.load_config", "errortheory.anchor_sigma2",
            "errortheory.sync_mse_bound", "errortheory.positioning_mse",
        ),
    )


GENERATORS = {"campaign": campaign, "sync_check": sync_check, "replay": replay,
              "theory_map": theory_map}
WORKLOADS = tuple(GENERATORS)


def generate(name: str, seed: int, directory: Path) -> Workload:
    directory.mkdir(parents=True, exist_ok=True)
    return GENERATORS[name](seed, directory)
