"""Command-line entry point: theory maps, simulation campaigns, power sweeps,
experiment-log replay, and differential clock correction.

All outputs are deterministic for a given config and seed and carry the
config hash and seed in their headers. Exit codes: 0 success, 2 config
error, 3 numerical failure or any other library error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .channel import ChannelError
from .config import Config, ConfigError, config_hash, load_config
from .errortheory import TheoryError, theory_points
from .montecarlo import (
    CampaignError,
    calibration_offsets,
    check_seed,
    differential_correction,
    power_sweep,
    run_campaign,
)
from .sync import SyncError
from .tdoa import SessionTdoa, measure_and_solve, time_differences

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


class ReplayError(Exception):
    """Unusable replay log."""


@dataclass(frozen=True)
class ReplayRecord:
    """One pilot detection from an experiment log."""

    timestamp_s: float
    session: str
    anchor: str  # "A" | "B" | "C"
    arrival_chip: int
    chip_ns: float
    truth: tuple[float, float] | None


_LOG_COLUMNS = ["timestamp_s", "session", "anchor", "arrival_chip", "chip_ns",
                "truth_x_m", "truth_y_m"]


def _meta(cfg: Config, tool: str) -> dict:
    """Provenance every artifact carries: command, config hash, seed, efficiency."""
    return {
        "tool": f"uvtdoa {tool}",
        "config_sha256": config_hash(cfg),
        "seed": cfg.seed,
        "detector_efficiency": cfg.budget.detector_efficiency,
    }


def _write_csv(path: Path, meta: dict, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in meta.items():
            fh.write(f"# {key} = {value}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _write_table(out: Path, stem: str, fmt: str, meta: dict, header: list[str], rows,
                 key: str, **summary) -> None:
    """Write ``<stem>.csv``, or ``<stem>.json`` with the rows under ``key`` and the summary."""
    if fmt == "json":
        _write_json(out / f"{stem}.json",
                    {"meta": meta, key: [dict(zip(header, r)) for r in rows], **summary})
    else:
        _write_csv(out / f"{stem}.csv", meta, header, rows)


def _fmt(value) -> str:
    """Full-precision, round-trippable float formatting for CSV cells."""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def parse_replay_log(path) -> tuple[list[ReplayRecord], int]:
    """Parse a detection log; returns (records, skipped_line_count).

    Malformed lines (including a non-finite timestamp or truth coordinate and
    a non-finite or non-positive chip duration) and timestamp regressions
    within a session are skipped and counted. An empty or
    headerless-and-empty file raises ReplayError.
    """
    records: list[ReplayRecord] = []
    skipped = 0
    last_ts: dict[str, float] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ReplayError(f"cannot read log {path}: {exc}") from exc
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if parts[0] == _LOG_COLUMNS[0]:  # header row
            continue
        if len(parts) not in (5, 7):
            skipped += 1
            continue
        try:
            ts = _finite_float(parts[0])
            session = parts[1]
            anchor = parts[2].upper()
            if anchor not in ("A", "B", "C"):
                raise ValueError(f"bad anchor {parts[2]!r}")
            chip = int(parts[3])
            chip_ns = _finite_float(parts[4])
            if chip_ns <= 0.0:
                raise ValueError(f"non-positive chip duration {parts[4]!r}")
            truth = None
            if len(parts) == 7 and parts[5] != "" and parts[6] != "":
                truth = (_finite_float(parts[5]), _finite_float(parts[6]))
        except ValueError:
            skipped += 1
            continue
        if session in last_ts and ts < last_ts[session]:
            skipped += 1  # timestamps must be monotone within a session
            continue
        last_ts[session] = ts
        records.append(ReplayRecord(ts, session, anchor, chip, chip_ns, truth))
    if not records:
        raise ReplayError(f"log {path} contains no usable detection records")
    return records, skipped


def sessions_from_records(records) -> tuple[list[SessionTdoa], int]:
    """Group detections into per-session TDOA inputs; sessions missing an
    anchor are dropped and counted."""
    by_session: dict[str, dict[str, ReplayRecord]] = {}
    order: list[str] = []
    for rec in records:
        if rec.session not in by_session:
            by_session[rec.session] = {}
            order.append(rec.session)
        by_session[rec.session][rec.anchor] = rec
    out = []
    dropped = 0
    for name in order:
        group = by_session[name]
        if set(group) != {"A", "B", "C"}:
            dropped += 1
            continue
        chip_ns = group["A"].chip_ns
        if any(abs(group[k].chip_ns - chip_ns) > 1e-12 for k in "BC"):
            dropped += 1
            continue
        chip_s = chip_ns / 1e9
        chips = [group[k].arrival_chip for k in "ABC"]
        truth = group["A"].truth or group["B"].truth or group["C"].truth
        out.append(SessionTdoa(name, *time_differences(chips, chip_s), chip_s, truth))
    return out, dropped


# Pairwise distances are scanned this many (row, column) pairs at a time.
_PAIR_BLOCK = 1 << 16


def _farthest_pair(points: np.ndarray) -> tuple[int, int]:
    """First maximum, in row-major order, of the pairwise squared distances.

    Scans blocks of rows, so memory stays O(N) instead of N x N. The first
    block holding the overall maximum (or a NaN, as argmax counts it) wins.
    """
    n = len(points)
    x, y = points[:, 0], points[:, 1]
    rows = max(1, _PAIR_BLOCK // n)
    block_max = []
    for r0 in range(0, n, rows):
        d2 = (x[r0:r0 + rows, None] - x) ** 2 + (y[r0:r0 + rows, None] - y) ** 2
        flat = int(np.argmax(d2))
        block_max.append((d2.flat[flat], r0 * n + flat))
    _, at = block_max[int(np.argmax([v for v, _ in block_max]))]
    return divmod(at, n)


def _split_two_clusters(points: np.ndarray):
    """Two-means split with farthest-pair seeding; returns (labels, centers)."""
    i, j = _farthest_pair(points)
    centers = np.array([points[i], points[j]], dtype=float)
    labels = np.zeros(len(points), dtype=int)
    for iteration in range(10):
        dists = np.linalg.norm(points[:, None, :] - centers[None, :, :], axis=-1)
        new_labels = np.argmin(dists, axis=1)
        if iteration > 0 and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for kk in (0, 1):
            if np.any(labels == kk):
                centers[kk] = points[labels == kk].mean(axis=0)
    return labels, centers


# A fix cloud is reported as two clusters when the sub-cluster centers are
# separated by more than this multiple of the internal spread.
CLUSTER_SEPARATION_FACTOR = 3.0


def cluster_stats(fix_points: np.ndarray, truth=None) -> dict:
    """Mean, spread, and a 1-vs-2 cluster call for a cloud of position fixes.

    An empty cloud has NaN mean and spread and no cluster.
    """
    if not len(fix_points):
        stats = {"n_fixes": 0, "mean_x_m": math.nan, "mean_y_m": math.nan,
                 "spread_m": math.nan, "n_clusters": 0}
        if truth is not None:
            stats["mean_to_truth_m"] = math.nan
        return stats
    center = fix_points.mean(axis=0)
    spread = float(np.mean(np.linalg.norm(fix_points - center, axis=1)))
    n_clusters = 1
    if len(fix_points) >= 4:
        labels, centers = _split_two_clusters(fix_points)
        sizes = np.bincount(labels, minlength=2)
        if sizes.min() >= 2:
            intra = max(
                float(np.mean(np.linalg.norm(fix_points[labels == kk] - centers[kk], axis=1)))
                for kk in (0, 1)
            )
            sep = float(np.linalg.norm(centers[0] - centers[1]))
            if sep > CLUSTER_SEPARATION_FACTOR * max(intra, 1e-9):
                n_clusters = 2
    stats = {
        "n_fixes": int(len(fix_points)),
        "mean_x_m": float(center[0]),
        "mean_y_m": float(center[1]),
        "spread_m": spread,
        "n_clusters": n_clusters,
    }
    if truth is not None:
        stats["mean_to_truth_m"] = float(np.linalg.norm(center - np.asarray(truth)))
    return stats


def _mean_or_nan(values) -> float:
    return float(np.mean(values)) if len(values) else math.nan


def _finite_or_none(value: float):
    return float(value) if np.isfinite(value) else None


def _campaign_payload(meta: dict, result) -> dict:
    return {
        "schema_version": 1,
        **meta,
        "trials_per_point": result.trials_per_point,
        "grid_average_rmse_m": _finite_or_none(result.average_rmse_m()),
        "theory_average_m": _finite_or_none(result.average_theory_m()),
        "inside_average_rmse_m": _finite_or_none(result.average_rmse_m(inside_only=True)),
        "inside_theory_average_m": _finite_or_none(result.average_theory_m(inside_only=True)),
        "points": [
            {
                "x_m": p.x,
                "y_m": p.y,
                "inside": p.inside,
                "rmse_m": _finite_or_none(p.rmse_m),
                "mean_error_m": _finite_or_none(p.mean_error_m),
                "theory_ep_m": _finite_or_none(p.theory_ep_m),
                "solver_failures": p.solver_failures,
            }
            for p in result.point_results
        ],
    }


def cmd_theory(cfg: Config, args, out: Path) -> int:
    tmap = theory_points(cfg.scene, cfg.grid.points(), cfg.budget, cfg.signal, cfg.clock)
    if all(p.singular for p in tmap.points):
        print("error: geometry matrix singular at every grid point", file=sys.stderr)
        return EXIT_NUMERICAL
    rows = [
        [_fmt(p.x), _fmt(p.y), _fmt(p.e_p), _fmt(p.condition_number),
         int(p.inside), int(p.singular)]
        for p in tmap.points
    ]
    header = ["x_m", "y_m", "e_p_m", "condition_number", "inside", "singular"]
    summary = {
        "grid_average_ep_m": tmap.average_ep(),
        "inside_average_ep_m": tmap.average_ep(inside_only=True),
    }
    _write_table(out, "theory_map", args.format, _meta(cfg, "theory"), header, rows,
                 "points", **{key: _finite_or_none(value) for key, value in summary.items()})
    for key, value in summary.items():
        print(f"{key} = {value:.6f}")
    return EXIT_OK


def cmd_simulate(cfg: Config, args, out: Path) -> int:
    spec = cfg.campaign_spec()
    result = run_campaign(spec, workers=args.workers)
    meta = _meta(cfg, "simulate")
    _write_json(out / "campaign.json", _campaign_payload(meta, result))

    trial_rows = []
    detection_rows = []
    chip_ns = cfg.signal.chip_ns
    for pi, pres in enumerate(result.point_results):
        for ti, fix in enumerate(pres.fixes):
            trial_rows.append(
                [pi, ti, _fmt(pres.x), _fmt(pres.y), _fmt(fix.position[0]),
                 _fmt(fix.position[1]), _fmt(float(pres.errors_m[ti])), int(fix.converged)]
            )
            session = f"p{pi:03d}t{ti:05d}"
            for anchor, chip in zip("ABC", pres.start_chips[ti]):
                detection_rows.append(
                    [_fmt(float(ti)), session, anchor, chip, _fmt(chip_ns),
                     _fmt(pres.x), _fmt(pres.y)]
                )
    _write_csv(
        out / "trials.csv",
        meta,
        ["point_index", "trial", "truth_x_m", "truth_y_m", "est_x_m", "est_y_m",
         "error_m", "converged"],
        trial_rows,
    )
    _write_csv(out / "detections.csv", meta, _LOG_COLUMNS, detection_rows)
    print(f"grid_average_rmse_m = {result.average_rmse_m():.6f}")
    print(f"theory_average_m = {result.average_theory_m():.6f}")
    print(f"solver_failures = {sum(p.solver_failures for p in result.point_results)}")
    return EXIT_OK


def cmd_sweep(cfg: Config, args, out: Path) -> int:
    powers_w = [p * 1e-3 for p in args.powers_mw]
    entries = power_sweep(cfg.campaign_spec(), powers_w, workers=args.workers)
    header = ["power_mw", "sim_average_m", "theory_average_m",
              "sim_average_inside_m", "theory_average_inside_m"]
    rows = [
        [_fmt(e.power_w * 1e3), _fmt(e.sim_average_m), _fmt(e.theory_average_m),
         _fmt(e.sim_average_inside_m), _fmt(e.theory_average_inside_m)]
        for e in entries
    ]
    _write_table(out, "sweep", args.format, _meta(cfg, "sweep"), header, rows, "entries")
    for e in entries:
        print(f"power_mw={e.power_w * 1e3:.1f} sim_average_m={e.sim_average_m:.6f} "
              f"theory_average_m={e.theory_average_m:.6f}")
    return EXIT_OK


def cmd_replay(cfg: Config, args, out: Path) -> int:
    records, skipped = parse_replay_log(args.log)
    sessions, dropped = sessions_from_records(records)
    if not sessions:
        print("error: no complete A/B/C sessions in log", file=sys.stderr)
        return EXIT_IO
    fixes = [measure_and_solve(cfg.scene, s.t_ba_s, s.t_cb_s, s.chip_s) for s in sessions]
    meta = _meta(cfg, "replay") | {"skipped_lines": skipped, "incomplete_sessions": dropped}
    rows = []
    groups: dict[tuple, list[int]] = {}
    for idx, (sess, fix) in enumerate(zip(sessions, fixes)):
        err = ""
        if sess.truth is not None:
            err = _fmt(math.dist(fix.position, sess.truth))
        rows.append(
            [sess.session,
             _fmt(sess.truth[0]) if sess.truth else "",
             _fmt(sess.truth[1]) if sess.truth else "",
             _fmt(fix.position[0]), _fmt(fix.position[1]), err, int(fix.converged)]
        )
        key = sess.truth if sess.truth is not None else ("all",)
        groups.setdefault(key, []).append(idx)
    _write_csv(
        out / "replay_fixes.csv", meta,
        ["session", "truth_x_m", "truth_y_m", "est_x_m", "est_y_m", "error_m", "converged"],
        rows,
    )
    cluster_rows = []
    for key, idxs in groups.items():
        pts = np.array([fixes[i].position for i in idxs if fixes[i].converged]).reshape(-1, 2)
        truth = None if key == ("all",) else key
        stats = cluster_stats(pts, truth)
        cluster_rows.append(
            [_fmt(truth[0]) if truth else "", _fmt(truth[1]) if truth else "",
             stats["n_fixes"], len(idxs) - stats["n_fixes"],
             _fmt(stats["mean_x_m"]), _fmt(stats["mean_y_m"]),
             _fmt(stats["spread_m"]),
             _fmt(stats.get("mean_to_truth_m", "")) if truth else "",
             stats["n_clusters"]]
        )
    _write_csv(
        out / "replay_clusters.csv", meta,
        ["truth_x_m", "truth_y_m", "n_fixes", "outages", "mean_x_m", "mean_y_m", "spread_m",
         "mean_to_truth_m", "n_clusters"],
        cluster_rows,
    )
    print(f"sessions_replayed = {len(sessions)}")
    print(f"lines_skipped = {skipped}")
    return EXIT_OK


def cmd_diffcal(cfg: Config, args, out: Path) -> int:
    cal_records, cal_skipped = parse_replay_log(args.calibration)
    cal_sessions, cal_dropped = sessions_from_records(cal_records)
    records, skipped = parse_replay_log(args.log)
    sessions, dropped = sessions_from_records(records)
    if not sessions:
        print("error: no complete A/B/C sessions in measurement log", file=sys.stderr)
        return EXIT_IO
    cal = calibration_offsets(cfg.scene, cal_sessions)
    res = differential_correction(cfg.scene, cal, sessions, rng=np.random.default_rng(cfg.seed))
    counts = {
        "calibration_skipped_lines": cal_skipped,
        "calibration_incomplete_sessions": cal_dropped,
        "skipped_lines": skipped,
        "incomplete_sessions": dropped,
    }
    meta = _meta(cfg, "diffcal") | {
        "calibration_sessions": len(cal["ba"]),
        "skipped_pairs": ",".join(res.skipped_pairs) or "none",
    } | counts
    rows = []
    unc_errs, cor_errs = [], []
    for sess, unc, cor in zip(sessions, res.uncorrected, res.corrected):
        unc_err = cor_err = ""
        if sess.truth is not None:
            unc_err_v = math.dist(unc.position, sess.truth)
            cor_err_v = math.dist(cor.position, sess.truth)
            if unc.converged:
                unc_errs.append(unc_err_v)
            if cor.converged:
                cor_errs.append(cor_err_v)
            unc_err, cor_err = _fmt(unc_err_v), _fmt(cor_err_v)
        rows.append(
            [sess.session,
             _fmt(sess.truth[0]) if sess.truth else "",
             _fmt(sess.truth[1]) if sess.truth else "",
             _fmt(unc.position[0]), _fmt(unc.position[1]), unc_err,
             _fmt(cor.position[0]), _fmt(cor.position[1]), cor_err]
        )
    _write_csv(
        out / "diffcal_fixes.csv", meta,
        ["session", "truth_x_m", "truth_y_m", "uncorrected_x_m", "uncorrected_y_m",
         "uncorrected_error_m", "corrected_x_m", "corrected_y_m", "corrected_error_m"],
        rows,
    )
    if any(sess.truth is not None for sess in sessions):
        # averages over the sessions with truth that have a fix
        print(f"uncorrected_average_error_m = {_mean_or_nan(unc_errs):.6f}")
        print(f"corrected_average_error_m = {_mean_or_nan(cor_errs):.6f}")
    print(f"sessions = {len(sessions)}")
    for key, value in counts.items():
        print(f"{key} = {value}")
    return EXIT_OK


def _seed(text: str) -> int:
    seed = int(text)
    try:
        check_seed(seed)
    except CampaignError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return seed


def _workers(text: str) -> int:
    workers = int(text)
    if workers < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {workers}")
    return workers


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uvtdoa",
        description="Photon-counting UV TDOA positioning: theory maps, Monte-Carlo "
                    "campaigns, power sweeps, log replay, differential correction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="configuration file path")
        p.add_argument("--seed", type=_seed, default=None, help="override the config seed")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--workers", type=_workers, default=1,
                       help="worker processes, at most one per grid point")

    p_theory = sub.add_parser("theory", help="theoretical error map over the grid")
    common(p_theory)
    p_sim = sub.add_parser("simulate", help="Monte-Carlo positioning campaign")
    common(p_sim)
    p_sweep = sub.add_parser("sweep", help="error vs transmit power")
    common(p_sweep)
    for p in (p_theory, p_sweep):
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="artifact format")
    p_sweep.add_argument(
        "--powers-mw", required=True,
        type=lambda s: [float(v) for v in s.split(",") if v],
        help="comma-separated transmit powers in milliwatts",
    )
    p_replay = sub.add_parser("replay", help="replay a detection log through the solver")
    common(p_replay)
    p_replay.add_argument("--log", required=True, help="detection log CSV")
    p_diff = sub.add_parser("diffcal", help="differential clock correction from logs")
    common(p_diff)
    p_diff.add_argument("--calibration", required=True, help="calibration log CSV")
    p_diff.add_argument("--log", required=True, help="measurement log CSV")
    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    handlers = {
        "theory": cmd_theory,
        "simulate": cmd_simulate,
        "sweep": cmd_sweep,
        "replay": cmd_replay,
        "diffcal": cmd_diffcal,
    }
    try:
        with warnings.catch_warnings():
            # Each shown warning is one "warning: <message>" line; the
            # filters stay as they are, so a warning made an error raises.
            warnings.showwarning = _print_warning
            return handlers[args.command](cfg, args, out)
    except ReplayError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ChannelError, SyncError, TheoryError, CampaignError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
