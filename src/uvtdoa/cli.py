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
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import ChannelError
from .config import Config, ConfigError, config_hash, load_config
from .errortheory import TheoryError, theory_grid
from .montecarlo import (
    CampaignError,
    differential_correction,
    power_sweep,
    run_campaign,
)
from .scene import Scene
from .sync import SyncError
from .tdoa import measurement_from_times, solve_position

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


def _meta_lines(tool: str, cfg_hash: str, seed, detector_efficiency: float) -> list[str]:
    return [
        f"# tool = uvtdoa {tool}",
        f"# config_sha256 = {cfg_hash}",
        f"# seed = {seed}",
        f"# detector_efficiency = {detector_efficiency!r}",
    ]


def _write_csv(path: Path, meta: list[str], header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in meta:
            fh.write(line + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _fmt(value) -> str:
    """Full-precision, round-trippable float formatting for CSV cells."""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_detection_log(path: Path, meta: list[str], rows) -> None:
    _write_csv(path, meta, _LOG_COLUMNS, rows)


def parse_replay_log(path) -> tuple[list[ReplayRecord], int]:
    """Parse a detection log; returns (records, skipped_line_count).

    Malformed lines and timestamp regressions within a session are skipped
    and counted. An empty or headerless-and-empty file raises ReplayError.
    """
    records: list[ReplayRecord] = []
    skipped = 0
    last_ts: dict[str, float] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
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
            ts = float(parts[0])
            session = parts[1]
            anchor = parts[2].upper()
            if anchor not in ("A", "B", "C"):
                raise ValueError(f"bad anchor {parts[2]!r}")
            chip = int(parts[3])
            chip_ns = float(parts[4])
            truth = None
            if len(parts) == 7 and parts[5] != "" and parts[6] != "":
                truth = (float(parts[5]), float(parts[6]))
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


@dataclass
class SessionTdoa:
    session: str
    t_ba_s: float
    t_cb_s: float
    chip_s: float
    truth: tuple[float, float] | None


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
        truth = group["A"].truth or group["B"].truth or group["C"].truth
        out.append(
            SessionTdoa(
                session=name,
                t_ba_s=(group["B"].arrival_chip - group["A"].arrival_chip) * chip_s,
                t_cb_s=(group["C"].arrival_chip - group["B"].arrival_chip) * chip_s,
                chip_s=chip_s,
                truth=truth,
            )
        )
    return out, dropped


def _split_two_clusters(points: np.ndarray):
    """Two-means split with farthest-pair seeding; returns (labels, centers)."""
    d2 = np.sum((points[:, None, :] - points[None, :, :]) ** 2, axis=-1)
    i, j = np.unravel_index(np.argmax(d2), d2.shape)
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
    """Mean, spread, and a 1-vs-2 cluster call for a cloud of position fixes."""
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


def _finite_or_none(value: float):
    return float(value) if np.isfinite(value) else None


def _campaign_payload(cfg: Config, cfg_hash: str, seed: int, result) -> dict:
    inside = [p for p in result.point_results if p.inside]
    return {
        "schema_version": 1,
        "tool": "uvtdoa simulate",
        "config_sha256": cfg_hash,
        "seed": seed,
        "detector_efficiency": cfg.budget.detector_efficiency,
        "trials_per_point": result.trials_per_point,
        "grid_average_rmse_m": result.grid_average_rmse_m,
        "theory_average_m": _finite_or_none(result.theory_average_m),
        "inside_average_rmse_m": (
            result.average_rmse_m(inside_only=True) if inside else None
        ),
        "inside_theory_average_m": _finite_or_none(
            result.average_theory_m(inside_only=True) if inside else float("nan")
        ),
        "points": [
            {
                "x_m": p.x,
                "y_m": p.y,
                "inside": p.inside,
                "rmse_m": p.rmse_m,
                "mean_error_m": p.mean_error_m,
                "theory_ep_m": _finite_or_none(p.theory_ep_m),
                "solver_failures": p.solver_failures,
            }
            for p in result.point_results
        ],
    }


def cmd_theory(cfg: Config, args, out: Path) -> int:
    tmap = theory_grid(cfg.scene, cfg.grid, cfg.budget, cfg.signal, cfg.clock)
    if all(p.singular for p in tmap.points):
        print("error: geometry matrix singular at every grid point", file=sys.stderr)
        return EXIT_NUMERICAL
    chash = config_hash(cfg)
    meta = _meta_lines("theory", chash, cfg.seed, cfg.budget.detector_efficiency)
    rows = [
        [_fmt(p.x), _fmt(p.y), _fmt(p.e_p), _fmt(p.condition_number),
         int(p.inside), int(p.singular)]
        for p in tmap.points
    ]
    header = ["x_m", "y_m", "e_p_m", "condition_number", "inside", "singular"]
    if args.format == "json":
        _write_json(out / "theory_map.json", {
            "meta": {"tool": "uvtdoa theory", "config_sha256": chash, "seed": cfg.seed,
                     "detector_efficiency": cfg.budget.detector_efficiency},
            "points": [dict(zip(header, r)) for r in rows],
            "grid_average_ep_m": tmap.average_ep(),
            "inside_average_ep_m": tmap.average_ep(inside_only=True),
        })
    else:
        _write_csv(out / "theory_map.csv", meta, header, rows)
    print(f"grid_average_ep_m = {tmap.average_ep():.6f}")
    print(f"inside_average_ep_m = {tmap.average_ep(inside_only=True):.6f}")
    return EXIT_OK


def cmd_simulate(cfg: Config, args, out: Path) -> int:
    spec = cfg.campaign_spec()
    result = run_campaign(spec, workers=args.workers)
    chash = config_hash(cfg)
    meta = _meta_lines("simulate", chash, spec.seed, cfg.budget.detector_efficiency)
    _write_json(out / "campaign.json", _campaign_payload(cfg, chash, spec.seed, result))

    trial_rows = []
    detection_rows = []
    chip_ns = cfg.signal.chip_s * 1e9
    for pi, pres in enumerate(result.point_results):
        for ti, fix in enumerate(pres.fixes):
            trial_rows.append(
                [pi, ti, _fmt(pres.x), _fmt(pres.y), _fmt(fix.position[0]),
                 _fmt(fix.position[1]), _fmt(float(pres.errors_m[ti])),
                 _fmt(fix.residual_norm), int(fix.converged), fix.iterations]
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
         "error_m", "residual_m", "converged", "iterations"],
        trial_rows,
    )
    write_detection_log(out / "detections.csv", meta, detection_rows)
    print(f"grid_average_rmse_m = {result.grid_average_rmse_m:.6f}")
    print(f"theory_average_m = {result.theory_average_m:.6f}")
    print(f"solver_failures = {sum(p.solver_failures for p in result.point_results)}")
    return EXIT_OK


def cmd_sweep(cfg: Config, args, out: Path) -> int:
    powers_w = [p * 1e-3 for p in args.powers_mw]
    entries = power_sweep(cfg.campaign_spec(), powers_w, workers=args.workers)
    chash = config_hash(cfg)
    meta = _meta_lines("sweep", chash, cfg.seed, cfg.budget.detector_efficiency)
    header = ["power_mw", "sim_average_m", "theory_average_m",
              "sim_average_inside_m", "theory_average_inside_m"]
    rows = [
        [_fmt(e.power_w * 1e3), _fmt(e.sim_average_m), _fmt(e.theory_average_m),
         _fmt(e.sim_average_inside_m), _fmt(e.theory_average_inside_m)]
        for e in entries
    ]
    if args.format == "json":
        _write_json(out / "sweep.json", {
            "meta": {"tool": "uvtdoa sweep", "config_sha256": chash, "seed": cfg.seed,
                     "detector_efficiency": cfg.budget.detector_efficiency},
            "entries": [dict(zip(header, r)) for r in rows],
        })
    else:
        _write_csv(out / "sweep.csv", meta, header, rows)
    for e in entries:
        print(f"power_mw={e.power_w * 1e3:.1f} sim_average_m={e.sim_average_m:.6f} "
              f"theory_average_m={e.theory_average_m:.6f}")
    return EXIT_OK


def _solve_sessions(scene: Scene, sessions):
    fixes = []
    for sess in sessions:
        meas = measurement_from_times(
            sess.t_ba_s, sess.t_cb_s, c=scene.c, scene=scene,
            feasibility_tol_m=2.0 * scene.c * sess.chip_s,
        )
        fixes.append(solve_position(scene, meas))
    return fixes


def cmd_replay(cfg: Config, args, out: Path) -> int:
    records, skipped = parse_replay_log(args.log)
    sessions, dropped = sessions_from_records(records)
    if not sessions:
        print("error: no complete A/B/C sessions in log", file=sys.stderr)
        return EXIT_IO
    fixes = _solve_sessions(cfg.scene, sessions)
    chash = config_hash(cfg)
    meta = _meta_lines("replay", chash, cfg.seed, cfg.budget.detector_efficiency)
    meta.append(f"# skipped_lines = {skipped}")
    meta.append(f"# incomplete_sessions = {dropped}")
    rows = []
    groups: dict[tuple, list[int]] = {}
    for idx, (sess, fix) in enumerate(zip(sessions, fixes)):
        err = ""
        if sess.truth is not None:
            err = _fmt(float(np.linalg.norm(np.asarray(fix.position) - np.asarray(sess.truth))))
        rows.append(
            [sess.session,
             _fmt(sess.truth[0]) if sess.truth else "",
             _fmt(sess.truth[1]) if sess.truth else "",
             _fmt(fix.position[0]), _fmt(fix.position[1]), err,
             _fmt(fix.residual_norm), int(fix.converged)]
        )
        key = sess.truth if sess.truth is not None else ("all",)
        groups.setdefault(key, []).append(idx)
    _write_csv(
        out / "replay_fixes.csv", meta,
        ["session", "truth_x_m", "truth_y_m", "est_x_m", "est_y_m", "error_m",
         "residual_m", "converged"],
        rows,
    )
    cluster_rows = []
    for key, idxs in groups.items():
        pts = np.array([fixes[i].position for i in idxs])
        truth = None if key == ("all",) else key
        stats = cluster_stats(pts, truth)
        cluster_rows.append(
            [_fmt(truth[0]) if truth else "", _fmt(truth[1]) if truth else "",
             stats["n_fixes"], _fmt(stats["mean_x_m"]), _fmt(stats["mean_y_m"]),
             _fmt(stats["spread_m"]),
             _fmt(stats.get("mean_to_truth_m", "")) if truth else "",
             stats["n_clusters"]]
        )
    _write_csv(
        out / "replay_clusters.csv", meta,
        ["truth_x_m", "truth_y_m", "n_fixes", "mean_x_m", "mean_y_m", "spread_m",
         "mean_to_truth_m", "n_clusters"],
        cluster_rows,
    )
    print(f"sessions_replayed = {len(sessions)}")
    print(f"lines_skipped = {skipped}")
    return EXIT_OK


def cmd_diffcal(cfg: Config, args, out: Path) -> int:
    cal_records, cal_skipped = parse_replay_log(args.calibration)
    cal_sessions, _ = sessions_from_records(cal_records)
    records, skipped = parse_replay_log(args.log)
    sessions, _ = sessions_from_records(records)
    if not sessions:
        print("error: no complete A/B/C sessions in measurement log", file=sys.stderr)
        return EXIT_IO
    scene = cfg.scene
    cal = {"ba": [], "cb": []}
    for sess in cal_sessions:
        if sess.truth is None:
            continue  # cannot derive a bias estimate without truth
        d = np.linalg.norm(scene.anchors - np.asarray(sess.truth), axis=1)
        cal["ba"].append(sess.t_ba_s - (d[1] - d[0]) / scene.c)
        cal["cb"].append(sess.t_cb_s - (d[2] - d[1]) / scene.c)
    tols = [2.0 * scene.c * s.chip_s for s in sessions]
    measurements = [
        measurement_from_times(s.t_ba_s, s.t_cb_s, c=scene.c, scene=scene, feasibility_tol_m=tol)
        for s, tol in zip(sessions, tols)
    ]
    rng = np.random.default_rng(args.seed if args.seed is not None else cfg.seed)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = differential_correction(scene, cal, measurements, rng=rng, feasibility_tol_m=tols)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    chash = config_hash(cfg)
    meta = _meta_lines("diffcal", chash, cfg.seed, cfg.budget.detector_efficiency)
    meta.append(f"# calibration_sessions = {len(cal['ba'])}")
    meta.append(f"# skipped_pairs = {','.join(res.skipped_pairs) or 'none'}")
    rows = []
    unc_errs, cor_errs = [], []
    for sess, unc, cor in zip(sessions, res.uncorrected, res.corrected):
        unc_err = cor_err = ""
        if sess.truth is not None:
            t = np.asarray(sess.truth)
            unc_err_v = float(np.linalg.norm(np.asarray(unc.position) - t))
            cor_err_v = float(np.linalg.norm(np.asarray(cor.position) - t))
            unc_errs.append(unc_err_v)
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
    if unc_errs:
        print(f"uncorrected_average_error_m = {np.mean(unc_errs):.6f}")
        print(f"corrected_average_error_m = {np.mean(cor_errs):.6f}")
    print(f"sessions = {len(sessions)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uvtdoa",
        description="Photon-counting UV TDOA positioning: theory maps, Monte-Carlo "
                    "campaigns, power sweeps, log replay, differential correction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        p.add_argument("--config", required=needs_config, help="configuration file path")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--workers", type=int, default=1, help="worker processes")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="primary artifact format")

    p_theory = sub.add_parser("theory", help="theoretical error map over the grid")
    common(p_theory)
    p_sim = sub.add_parser("simulate", help="Monte-Carlo positioning campaign")
    common(p_sim)
    p_sweep = sub.add_parser("sweep", help="error vs transmit power")
    common(p_sweep)
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = Config(
                scene=cfg.scene, grid=cfg.grid, budget=cfg.budget, signal=cfg.signal,
                clock=cfg.clock, trials_per_point=cfg.trials_per_point,
                seed=args.seed, pilot_seed=cfg.pilot_seed,
            )
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
