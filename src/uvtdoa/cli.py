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
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .channel import ChannelError
from .config import Config, ConfigError, config_hash, load_config
from .errortheory import TheoryError, grid_average, theory_points
from .montecarlo import (
    CampaignError,
    check_seed,
    differential_correction,
    power_sweep,
    run_campaign,
)
from .sync import SyncError
from .tdoa import SessionTdoa, solve_sessions, time_differences

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


class ReplayError(Exception):
    """Unusable replay log."""


class ReplayRecord(NamedTuple):
    """One pilot detection from an experiment log."""

    timestamp_s: float
    session: str
    anchor: str  # "A" | "B" | "C"
    arrival_chip: int
    chip_ns: float
    truth: tuple[float, float] | None


_LOG_COLUMNS = ["timestamp_s", "session", "anchor", "arrival_chip", "chip_ns",
                "truth_x_m", "truth_y_m"]
_ANCHORS = frozenset("ABC")


def _meta(cfg: Config, tool: str) -> dict:
    """Provenance every artifact carries: command, config hash, seed, efficiency.

    The package and numpy versions are recorded too: numpy does not promise
    the same random streams across its versions (NEP 19).
    """
    return {
        "tool": f"uvtdoa {tool}",
        "config_sha256": config_hash(cfg),
        "seed": cfg.seed,
        "detector_efficiency": cfg.budget.detector_efficiency,
        "uvtdoa_version": __version__,
        "numpy_version": np.__version__,
    }


def _write_csv(path: Path, meta: dict, header: list[str], rows) -> None:
    """``# key = value`` lines of ``meta``, then the rows: csv spells a Python
    float cell as its ``str``, its ``repr`` (a numpy scalar's can differ)."""
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
    """Write ``<stem>.csv``, or ``<stem>.json`` with the rows under ``key`` and the summary.

    A JSON float cell is the string its CSV cell holds, its ``repr``, so
    NaN and infinities stay valid JSON.
    """
    if fmt == "json":
        rows = [{h: repr(v) if isinstance(v, float) else v for h, v in zip(header, r)}
                for r in rows]
        _write_json(out / f"{stem}.json", {"meta": meta, key: rows, **summary})
    else:
        _write_csv(out / f"{stem}.csv", meta, header, rows)


def _is_ignored(line: str) -> bool:
    """A blank line, a comment or a header row: neither a record nor a skip."""
    line = line.strip()
    return not line or line[0] == "#" or line.split(",", 1)[0].rstrip() == _LOG_COLUMNS[0]


def parse_replay_log(path) -> tuple[list[ReplayRecord], int]:
    """Parse a detection log; returns (records, skipped_line_count).

    Malformed lines (including a non-finite timestamp or truth coordinate and
    a non-finite or non-positive chip duration), timestamp regressions
    within a session and repeats of an anchor within a session (its first
    detection stands) are skipped and counted. An empty or
    headerless-and-empty file raises ReplayError. A leading byte-order mark
    is not part of the first line.
    """
    records: list[ReplayRecord] = []
    skipped = 0
    last: dict[str, tuple[float, str]] = {}  # per session: last timestamp, anchors so far
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ReplayError(f"cannot read log {path}: {exc}") from exc
    inf = math.inf
    for line in lines:
        # float and int skip the whitespace around a field themselves, all
        # but U+001F, which str.strip also removes. Blank, comment and header
        # lines parse as no record; they are told from skips only then.
        parts = line.split(",")
        if "\x1f" in line:
            parts = [p.strip() for p in parts]
        n = len(parts)
        try:
            if n != 7 and n != 5:
                raise ValueError("wrong column count")
            ts = float(parts[0])
            anchor = parts[2]
            if anchor not in _ANCHORS:
                anchor = anchor.strip().upper()
                if anchor not in _ANCHORS:
                    raise ValueError("bad anchor")
            chip = int(parts[3])
            chip_ns = float(parts[4])
            truth = None
            if n == 7 and parts[5].strip() and parts[6].strip():
                truth = (float(parts[5]), float(parts[6]))
                if not (-inf < truth[0] < inf and -inf < truth[1] < inf):
                    raise ValueError("non-finite truth")
            if not (-inf < ts < inf and 0.0 < chip_ns < inf):
                raise ValueError("non-finite timestamp, or chip duration not finite and > 0")
        except ValueError:
            if not _is_ignored(line):
                skipped += 1
            continue
        session = parts[1].strip()
        last_ts, anchors = last.get(session, (ts, ""))
        if ts < last_ts or anchor in anchors:
            # timestamps must be monotone within a session, and its first
            # detection of an anchor stands
            skipped += 1
            continue
        last[session] = (ts, anchors + anchor)
        records.append(ReplayRecord(ts, session, anchor, chip, chip_ns, truth))
    if not records:
        raise ReplayError(f"log {path} contains no usable detection records")
    return records, skipped


def sessions_from_records(records) -> tuple[list[SessionTdoa], int]:
    """Group detections into per-session TDOA inputs; sessions missing an
    anchor are dropped and counted."""
    by_session: dict[str, dict[str, ReplayRecord]] = {}
    for rec in records:
        group = by_session.get(rec.session)
        if group is None:
            by_session[rec.session] = group = {}
        group[rec.anchor] = rec
    out = []
    dropped = 0
    for name, group in by_session.items():
        if group.keys() != _ANCHORS:
            dropped += 1
            continue
        a, b, c = group["A"], group["B"], group["C"]
        chip_ns = a.chip_ns
        if abs(b.chip_ns - chip_ns) > 1e-12 or abs(c.chip_ns - chip_ns) > 1e-12:
            dropped += 1
            continue
        chip_s = chip_ns / 1e9
        t_ba, t_cb = time_differences((a.arrival_chip, b.arrival_chip, c.arrival_chip), chip_s)
        out.append(SessionTdoa(name, t_ba, t_cb, chip_s, a.truth or b.truth or c.truth))
    return out, dropped


# Pairwise distances are scanned about this many (row, column) pairs at a time.
_PAIR_BLOCK = 1 << 16


def _farthest_pair(points: np.ndarray) -> tuple[int, int]:
    """First maximum, in row-major order, of the pairwise squared distances.

    Scans the upper triangle with its diagonal, j >= i, in blocks of rows
    through two reused buffers, so memory stays O(N). d(i, j) = d(j, i) bit
    for bit and (j, i) precedes (i, j) for j < i, so the full matrix's first
    maximum (or first NaN, as argmax counts it) lies there, (0, 0) when all
    distances are 0. The first block holding the overall maximum wins.
    """
    n = len(points)
    x, y = points[:, 0], points[:, 1]
    size = min(max(n, _PAIR_BLOCK), n * n)
    buf_x, buf_y = np.empty(size), np.empty(size)
    block_max = []
    r0 = 0
    while r0 < n:
        width = n - r0
        r1 = min(n, r0 + max(1, _PAIR_BLOCK // width))
        bx = buf_x[:(r1 - r0) * width].reshape(r1 - r0, width)
        by = buf_y[:bx.size].reshape(bx.shape)
        np.subtract(x[r0:r1, None], x[r0:], out=bx)
        np.subtract(y[r0:r1, None], y[r0:], out=by)
        np.multiply(bx, bx, out=bx)
        np.multiply(by, by, out=by)
        np.add(bx, by, out=bx)
        flat = int(bx.argmax())
        i, j = divmod(flat, width)
        block_max.append((bx.flat[flat], (r0 + i, r0 + j)))
        r0 = r1
    return block_max[int(np.argmax([v for v, _ in block_max]))][1]


def _norms(d: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis: the expression ``np.linalg.norm``
    evaluates for real input, so the same bits, without its per-call checks."""
    return np.sqrt(np.add.reduce(d * d, axis=-1))


def _norm(d: np.ndarray) -> float:
    """``float(np.linalg.norm(d))`` of a real vector, which is this dot product."""
    return math.sqrt(d.dot(d))


def _mean_norm(d: np.ndarray) -> float:
    """``float(np.mean(np.linalg.norm(d, axis=-1)))``: the same sum divided by
    the same count."""
    return float(np.add.reduce(_norms(d))) / len(d)


def _mean_rows(points: np.ndarray) -> np.ndarray:
    """``points.mean(axis=0)``: the same sum divided by the same count."""
    return np.add.reduce(points, axis=0) / len(points)


def _split_two_clusters(points: np.ndarray):
    """Two-means split with farthest-pair seeding; returns (labels, centers)."""
    i, j = _farthest_pair(points)
    centers = np.array([points[i], points[j]], dtype=float)
    labels = np.zeros(len(points), dtype=int)
    for iteration in range(10):
        new_labels = _norms(points[:, None, :] - centers).argmin(axis=1)
        if iteration > 0 and (new_labels == labels).all():
            break
        labels = new_labels
        for kk in (0, 1):
            members = points[labels == kk]
            if len(members):
                centers[kk] = _mean_rows(members)
    return labels, centers


# A fix cloud is reported as two clusters when the sub-cluster centers are
# separated by more than this multiple of the internal spread.
CLUSTER_SEPARATION_FACTOR = 3.0


def cluster_stats(fix_points: np.ndarray, truth=None) -> dict:
    """Mean, spread, and a 1-vs-2 cluster call for a cloud of position fixes.

    An empty cloud has NaN mean and spread and no cluster.
    """
    n = len(fix_points)
    if not n:
        stats = {"n_fixes": 0, "mean_x_m": math.nan, "mean_y_m": math.nan,
                 "spread_m": math.nan, "n_clusters": 0}
        if truth is not None:
            stats["mean_to_truth_m"] = math.nan
        return stats
    center = _mean_rows(fix_points)
    spread = _mean_norm(fix_points - center)
    n_clusters = 1
    if n >= 4:
        labels, centers = _split_two_clusters(fix_points)
        sizes = np.bincount(labels, minlength=2)
        if sizes.min() >= 2:
            intra = max(_mean_norm(fix_points[labels == kk] - centers[kk]) for kk in (0, 1))
            sep = _norm(centers[0] - centers[1])
            if sep > CLUSTER_SEPARATION_FACTOR * max(intra, 1e-9):
                n_clusters = 2
    mean_x, mean_y = center.tolist()
    stats = {
        "n_fixes": n,
        "mean_x_m": mean_x,
        "mean_y_m": mean_y,
        "spread_m": spread,
        "n_clusters": n_clusters,
    }
    if truth is not None:
        stats["mean_to_truth_m"] = _norm(center - np.asarray(truth))
    return stats


def _finite_or_none(value: float):
    return float(value) if np.isfinite(value) else None


def _campaign_payload(meta: dict, result) -> dict:
    theory = result.theory
    return {
        "schema_version": 1,
        **meta,
        "trials_per_point": result.trials_per_point,
        "grid_average_rmse_m": _finite_or_none(result.average_rmse_m()),
        "theory_average_m": _finite_or_none(theory.average_ep()),
        "inside_average_rmse_m": _finite_or_none(result.average_rmse_m(inside_only=True)),
        "inside_theory_average_m": _finite_or_none(theory.average_ep(inside_only=True)),
        "points": [
            {
                "x_m": x,
                "y_m": y,
                "inside": inside,
                "rmse_m": _finite_or_none(p.rmse_m),
                "mean_error_m": _finite_or_none(p.mean_error_m),
                "theory_ep_m": _finite_or_none(e_p),
                "solver_failures": p.solver_failures,
            }
            for p, x, y, inside, e_p in zip(
                result.point_results, theory.x.tolist(), theory.y.tolist(),
                theory.inside.tolist(), theory.e_p.tolist(),
            )
        ],
    }


def cmd_theory(cfg: Config, args, out: Path) -> int:
    tmap = theory_points(cfg.scene, cfg.receiver_points(), cfg.budget, cfg.signal, cfg.clock)
    if tmap.singular.all():
        print("error: geometry matrix singular at every grid point", file=sys.stderr)
        return EXIT_NUMERICAL
    rows = [
        [x, y, e_p, cond, int(inside), int(singular)]
        for x, y, e_p, cond, inside, singular in zip(
            tmap.x.tolist(), tmap.y.tolist(), tmap.e_p.tolist(),
            tmap.condition_number.tolist(), tmap.inside.tolist(), tmap.singular.tolist(),
        )
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
    result = run_campaign(cfg, workers=args.workers)
    meta = _meta(cfg, "simulate")
    _write_json(out / "campaign.json", _campaign_payload(meta, result))

    trial_rows = []
    detection_rows = []
    chip_ns = cfg.signal.chip_ns
    points = zip(result.point_results, result.theory.x.tolist(), result.theory.y.tolist())
    for pi, (pres, x, y) in enumerate(points):
        for ti, (fix, err) in enumerate(zip(pres.fixes, pres.errors_m.tolist())):
            trial_rows.append([pi, ti, x, y, *fix.position, err, int(fix.converged)])
            session = f"p{pi:03d}t{ti:05d}"
            for anchor, chip in zip("ABC", pres.start_chips[ti]):
                detection_rows.append([float(ti), session, anchor, chip, chip_ns, x, y])
    _write_csv(
        out / "trials.csv",
        meta,
        ["point_index", "trial", "truth_x_m", "truth_y_m", "est_x_m", "est_y_m",
         "error_m", "converged"],
        trial_rows,
    )
    _write_csv(out / "detections.csv", meta, _LOG_COLUMNS, detection_rows)
    print(f"grid_average_rmse_m = {result.average_rmse_m():.6f}")
    print(f"theory_average_m = {result.theory.average_ep():.6f}")
    print(f"solver_failures = {sum(p.solver_failures for p in result.point_results)}")
    return EXIT_OK


def cmd_sweep(cfg: Config, args, out: Path) -> int:
    powers_w = [p * 1e-3 for p in args.powers_mw]
    entries = power_sweep(cfg, powers_w, workers=args.workers)
    header = ["power_mw", "sim_average_m", "theory_average_m",
              "sim_average_inside_m", "theory_average_inside_m"]
    rows = [
        [e.power_w * 1e3, e.sim_average_m, e.theory_average_m,
         e.sim_average_inside_m, e.theory_average_inside_m]
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
    fixes, errors = solve_sessions(cfg.scene, sessions)
    meta = _meta(cfg, "replay") | {"skipped_lines": skipped, "incomplete_sessions": dropped}
    rows = []
    groups: dict[tuple | None, list] = {}  # truth (None where unknown) -> its fixes
    for sess, fix, err in zip(sessions, fixes, errors.tolist()):
        x, y = fix.position
        truth = sess.truth
        if truth is None:
            rows.append([sess.session, "", "", x, y, "", int(fix.converged)])
        else:
            rows.append([sess.session, *truth, x, y, err, int(fix.converged)])
        groups.setdefault(truth, []).append(fix)
    _write_csv(
        out / "replay_fixes.csv", meta,
        ["session", "truth_x_m", "truth_y_m", "est_x_m", "est_y_m", "error_m", "converged"],
        rows,
    )
    cluster_rows = []
    for truth, group in groups.items():
        pts = np.array([fix.position for fix in group if fix.converged]).reshape(-1, 2)
        stats = cluster_stats(pts, truth)
        truth_cells = ["", ""] if truth is None else truth
        cluster_rows.append(
            [*truth_cells, stats["n_fixes"], len(group) - stats["n_fixes"],
             stats["mean_x_m"], stats["mean_y_m"], stats["spread_m"],
             stats.get("mean_to_truth_m", ""), stats["n_clusters"]]
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
    res = differential_correction(cfg.scene, cal_sessions, sessions,
                                  rng=np.random.default_rng(cfg.seed))
    counts = {
        "calibration_skipped_lines": cal_skipped,
        "calibration_incomplete_sessions": cal_dropped,
        "skipped_lines": skipped,
        "incomplete_sessions": dropped,
    }
    meta = _meta(cfg, "diffcal") | {
        "calibration_sessions": res.calibration_sessions,
        "skipped_pairs": "ba,cb" if res.calibration_sessions == 0 else "none",
    } | counts
    rows = []
    for sess, unc, unc_err, cor, cor_err in zip(
        sessions, res.uncorrected, res.uncorrected_errors_m.tolist(),
        res.corrected, res.corrected_errors_m.tolist(),
    ):
        (ux, uy), (cx, cy) = unc.position, cor.position
        if sess.truth is None:
            rows.append([sess.session, "", "", ux, uy, "", cx, cy, ""])
        else:
            rows.append([sess.session, *sess.truth, ux, uy, unc_err, cx, cy, cor_err])
    _write_csv(
        out / "diffcal_fixes.csv", meta,
        ["session", "truth_x_m", "truth_y_m", "uncorrected_x_m", "uncorrected_y_m",
         "uncorrected_error_m", "corrected_x_m", "corrected_y_m", "corrected_error_m"],
        rows,
    )
    if any(sess.truth is not None for sess in sessions):
        print(f"uncorrected_average_error_m = {grid_average(res.uncorrected_errors_m):.6f}")
        print(f"corrected_average_error_m = {grid_average(res.corrected_errors_m):.6f}")
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
