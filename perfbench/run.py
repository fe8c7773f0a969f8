"""uvtdoa benchmark: run one workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, then starts child processes
one at a time (each a fresh interpreter running one repeat with the
package's CLI or library, workers = 1) until S seconds have passed, checks
every child's outputs, and prints one JSON object as the last line of
stdout. With --trace 0 its metrics are the end-to-end ones (medians over
the repeats); with --trace 1 untraced and traced repeats alternate and the
metrics are the per-layer ones, plus the tracing overhead. The line before
it records the environment, traffic properties and per-repeat figures.

Workloads: campaign, sync_check, replay, theory_map (see NOTES.md).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
MIN_UNTRACED = 3
MIN_TRACED = 2
HARD_LIMIT_S = 170.0  # a run ends within 180 s even when a repeat hangs

END_TO_END = (
    ("items_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

SPAN_STATS = {
    "channel.render_frame": ("calls", "busy_s", "self_s"),
    "channel.pilot_rate_profile": ("calls", "busy_s"),
    "sync.correlate": ("calls", "busy_s"),
    "sync.synchronize_frame": ("busy_s",),
    "tdoa.solve_position": ("calls", "busy_s"),
    "tdoa.measurement_from_times": ("calls", "busy_s"),
    "errortheory.sync_mse_bound": ("calls", "busy_s"),
    "errortheory.anchor_sigma2": ("calls",),
    "errortheory.positioning_mse": ("calls", "busy_s"),
    "montecarlo.run_point": ("busy_s", "self_s"),
    "montecarlo.sync_mse_empirical": ("busy_s", "self_s"),
    "config.load_config": ("busy_s",),
    "cli.parse_replay_log": ("busy_s",),
    "cli.sessions_from_records": ("busy_s",),
    "cli.cluster_stats": ("busy_s",),
    "cli.cmd_simulate": ("self_s",),
}
COUNTS = (
    "channel.chips_drawn", "sync.candidates_scored", "tdoa.iterations",
    "tdoa.nonconverged", "tdoa.clamped", "cli.lines_parsed", "cli.lines_skipped",
    "cli.bytes_written",
)
UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "work_s": "s", "p50_ms": "ms",
         "tail_ms": "ms", "bound_cache_hit_frac": "ratio",
         "clamped_frac": "ratio", "overhead_frac": "ratio",
         "items_per_s_untraced": "1/s", "items_per_s_traced": "1/s"}
TAIL_PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99)
TAIL_MIN_BEYOND = 10


def environment() -> dict:
    env = {"nproc": os.cpu_count(), "cpu_model": "unknown", "l3_cache": "unknown"}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
        env["l3_cache"] = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        pass
    return env


def child_env(root: Path, spawn_ns: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    # Cache bytecode as an installed package would, so set-up time measures
    # imports rather than compiling, whatever the caller's environment says.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PERFBENCH_SPAWN_NS"] = str(spawn_ns)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(root: Path, work: Path, workload, index: int, traced: bool, timeout: float) -> dict:
    cdir = work / f"child{index:03d}"
    out = cdir / "out"
    out.mkdir(parents=True)
    job = dict(workload.job, out=str(out))
    if "argv" in job:
        job["argv"] = [str(out) if a == "{out}" else a for a in job["argv"]]
    (cdir / "job.json").write_text(json.dumps(job))
    child = {"index": index, "traced": traced, "out": out, "result": None, "stdout": "",
             "error": None}
    cmd = [sys.executable, str(HERE / "child.py"), str(cdir / "job.json"),
           str(cdir / "result.json"), "1" if traced else "0"]
    try:
        with open(cdir / "stdout.txt", "wb") as so, open(cdir / "stderr.txt", "wb") as se:
            spawn_ns = time.monotonic_ns()
            proc = subprocess.run(cmd, env=child_env(root, spawn_ns), stdout=so, stderr=se,
                                  timeout=timeout, cwd=root)
    except subprocess.TimeoutExpired:
        child["error"] = f"timed out after {timeout:.0f} s"
        return child
    child["stdout"] = (cdir / "stdout.txt").read_text(errors="replace")
    if proc.returncode != 0 or not (cdir / "result.json").is_file():
        last = (cdir / "stderr.txt").read_text(errors="replace").strip().splitlines()[-3:]
        child["error"] = f"exit code {proc.returncode}: " + " | ".join(last)
        return child
    child["result"] = json.loads((cdir / "result.json").read_text())
    if child["result"]["exit_code"] != 0:
        child["error"] = f"uvtdoa exit code {child['result']['exit_code']}"
    return child


def check_children(workload, children) -> tuple[int, list[str]]:
    """Failed item count over every child, and the check messages."""
    failed, messages, digest = 0, [], None
    for child in children:
        try:
            if child["error"] is not None:
                bad, msgs = workload.items, [child["error"]]
            elif workload.name == "campaign":
                bad, msgs, d = checks.check_campaign(workload, child, digest)
                digest = digest or d
            else:
                bad, msgs = {"sync_check": checks.check_sync, "replay": checks.check_replay,
                             "theory_map": checks.check_theory}[workload.name](workload, child)
        except (OSError, KeyError, ValueError, ZeroDivisionError) as exc:
            bad, msgs = workload.items, [f"unreadable output: {exc!r}"]
        child["failed"] = bad
        failed += bad
        messages += [f"child {child['index']}: {m}" for m in msgs]
    return failed, messages


def items_per_s(workload, child) -> float:
    return workload.items / child["result"]["work_s"]


def end_to_end(workload, children) -> dict:
    values = {
        "items_per_s": [items_per_s(workload, c) for c in children],
        "setup_s": [c["result"]["setup_s"] for c in children],
        "peak_rss_mb": [c["result"]["peak_rss_mb"] for c in children],
    }
    return {name: {"value": statistics.median(values[name]), "unit": u}
            for name, u in END_TO_END}


def span_totals(spans) -> dict:
    """Per span name: [calls, busy_ns, self_ns]; self excludes child spans."""
    child_ns = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals = defaultdict(lambda: [0, 0, 0])
    for i, (name, start, end, _) in enumerate(spans):
        t = totals[name]
        t[0] += 1
        t[1] += end - start
        t[2] += end - start - child_ns[i]
    return totals


def per_child_layers(trace: dict, work_s: float) -> dict:
    totals = span_totals(trace["spans"])
    out = {}
    for name, stats in SPAN_STATS.items():
        calls, busy_ns, self_ns = totals.get(name, (0, 0, 0))
        picked = {"calls": calls, "busy_s": busy_ns / 1e9, "self_s": self_ns / 1e9}
        for stat in stats:
            out[f"{name}.{stat}"] = picked[stat]
    for name in COUNTS:
        out[name] = trace["counters"].get(name, 0)
    sigma_calls = totals.get("errortheory.anchor_sigma2", (0,))[0]
    bound_calls = totals.get("errortheory.sync_mse_bound", (0,))[0]
    out["errortheory.bound_cache_hit_frac"] = (
        1.0 - bound_calls / (3 * sigma_calls) if sigma_calls else 0.0
    )
    measured = totals.get("tdoa.measurement_from_times", (0,))[0]
    out["tdoa.clamped_frac"] = out["tdoa.clamped"] / measured if measured else 0.0
    out["trace.work_s"] = work_s
    return out


def unit(metric: str) -> str:
    return UNITS.get(metric.rsplit(".", 1)[-1], "count")


def tail(samples_ms: list[float]) -> tuple[float, float, float]:
    """(p50, tail value, tail percentile): the tail is the highest listed
    percentile with at least TAIL_MIN_BEYOND samples beyond it."""
    if not samples_ms:
        return 0.0, 0.0, 0.0
    xs = sorted(samples_ms)
    n = len(xs)
    def pct(q):
        return xs[min(n - 1, max(0, math.ceil(q / 100.0 * n) - 1))]
    q_tail = TAIL_PERCENTILES[0]
    for q in TAIL_PERCENTILES:
        if n * (1.0 - q / 100.0) >= TAIL_MIN_BEYOND:
            q_tail = q
    return pct(50.0), pct(q_tail), q_tail


def per_layer(workload, untraced, traced) -> tuple[dict, dict, list[str]]:
    """Per-layer metrics, the percentile and sample count behind tail_ms, and
    the expected spans that never fired."""
    per_child = [per_child_layers(c["result"]["trace"], c["result"]["work_s"]) for c in traced]
    values = {name: statistics.median(pc[name] for pc in per_child) for name in per_child[0]}
    # Solve times pool the first MIN_TRACED traced repeats only, so the
    # sample count, and with it the tail percentile, is fixed per workload.
    solve_ms = [
        (end - start) / 1e6
        for c in traced[:MIN_TRACED] for name, start, end, _ in c["result"]["trace"]["spans"]
        if name == "tdoa.solve_position"
    ]
    values["tdoa.solve_position.p50_ms"], values["tdoa.solve_position.tail_ms"], \
        tail_pct = tail(solve_ms)
    fast = statistics.median(items_per_s(workload, c) for c in untraced)
    slow = statistics.median(items_per_s(workload, c) for c in traced)
    values["trace.items_per_s_untraced"] = fast
    values["trace.items_per_s_traced"] = slow
    values["trace.overhead_frac"] = 1.0 - slow / fast
    fired = {name for c in traced for name, *_ in c["result"]["trace"]["spans"]}
    missing = [f"expected span {s} never fired" for s in workload.expected_spans if s not in fired]
    metrics = {k: {"value": v, "unit": unit(k)} for k, v in sorted(values.items())}
    solve_tail = ({"solve_tail_percentile": tail_pct, "solve_tail_samples": len(solve_ms)}
                  if solve_ms else {})
    return metrics, solve_tail, missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    t_start = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "uvtdoa" / "__init__.py").is_file():
        print(f"perfbench: no src/uvtdoa under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    try:
        workload = workloads.generate(args.workload, args.seed, work / "inputs")
        children = []
        deadline = time.monotonic() + args.seconds
        longest = 0.0
        while True:
            traced = bool(args.trace) and len(children) % 2 == 1
            remaining = HARD_LIMIT_S - (time.monotonic() - t_start)
            if remaining < 5.0:
                break
            t0 = time.monotonic()
            children.append(run_child(root, work, workload, len(children), traced, remaining))
            longest = max(longest, time.monotonic() - t0)
            if children[-1]["error"] is not None and children[-1]["result"] is None:
                break  # a crashed or hung child would crash again
            n_traced = sum(c["traced"] for c in children)
            enough = (len(children) - n_traced >= MIN_UNTRACED
                      and (not args.trace or n_traced >= MIN_TRACED))
            # stop before a repeat that would overrun the measuring time
            if enough and time.monotonic() + longest > deadline:
                break
        failed, messages = check_children(workload, children)
        good = [c for c in children if c["error"] is None]
        untraced = [c for c in good if not c["traced"]]
        traced = [c for c in good if c["traced"]]
        metrics, correct = {}, not messages and bool(untraced)
        if args.trace and traced and untraced:
            metrics, solve_tail, missing = per_layer(workload, untraced, traced)
            workload.traffic.update(solve_tail)
            messages += missing
            if missing:
                correct = False
                failed += workload.items * len(traced)
            workload.traffic["measured_clamped_share"] = metrics["tdoa.clamped_frac"]["value"]
            workload.traffic["bound_cache_hit_frac"] = \
                metrics["errortheory.bound_cache_hit_frac"]["value"]
        elif args.trace:
            correct = False
        elif untraced:
            metrics = end_to_end(workload, untraced)
        detail = {
            "workload": workload.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "item": workload.item,
            "items_per_repeat": workload.items,
            "traffic": workload.traffic,
            "environment": dict(environment(), **(good[0]["result"]["versions"] if good else {})),
            "repeats": [
                {"traced": c["traced"], "failed": c.get("failed", workload.items),
                 **({k: c["result"][k] for k in ("setup_s", "work_s", "peak_rss_mb")}
                    if c["error"] is None else {"error": c["error"]})}
                for c in children
            ],
            "checks": messages or ["all outputs passed"],
        }
        print(json.dumps(detail))
        print(json.dumps({
            "correct": correct,
            "attempted": workload.items * len(children),
            "failed": failed,
            "metrics": metrics,
        }))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
