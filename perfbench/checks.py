"""Output checks for each workload.

The checks use statistical tolerances and internal consistency, never bytes
compared with another commit, so a change of random stream (a new sampler)
still passes when its statistics hold. Each check takes one child run and
returns (failed item count, messages); a repeat passes its check when there
are no messages, and its failed items still count against the attempted ones.

reference.json holds the recorded values the checks compare with; rebuild
it with ``PYTHONPATH=src python3 perfbench/make_reference.py`` from the
repository root.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).parent / "reference.json"

# Criterion 6: inside-triangle sim/theory gap of the paper campaign. It is
# taken over converged fixes: at 4 trials per point a single non-converged
# fix (its best iterate can lie kilometres away) moves a point's RMSE by
# orders of magnitude, where criterion 6's 200 trials dilute it. A
# non-converged trial is an outcome ``simulate`` reports, not a failed
# operation: the traffic record and ``tdoa.nonconverged`` count them, and
# more than CAMPAIGN_FAILURE_SHARE of them fails the whole repeat. About 1
# trial in 300 does not converge on this workload.
CAMPAIGN_GAP_LIMIT = 0.30
CAMPAIGN_FAILURE_SHARE = 0.02
CAMPAIGN_OUTPUTS = ("campaign.json", "trials.csv", "detections.csv")
BOUND_RTOL = 1e-9
THEORY_RTOL = 1e-9


def read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def stdout_values(text: str) -> dict:
    """The ``key = value`` lines a CLI command prints."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def output_digest(out: Path) -> str:
    h = hashlib.sha256()
    for name in CAMPAIGN_OUTPUTS:
        h.update((out / name).read_bytes())
    return h.hexdigest()


def converged_inside_rmse(out: Path, points: list[dict]) -> float:
    """Average over inside-triangle points of the RMSE of converged fixes."""
    errors: dict[int, list[float]] = {}
    for row in read_csv(out / "trials.csv"):
        index = int(row["point_index"])
        if points[index]["inside"] and row["converged"] == "1":
            errors.setdefault(index, []).append(float(row["error_m"]))
    rmse = [math.sqrt(sum(e * e for e in errs) / len(errs)) for errs in errors.values()]
    return sum(rmse) / len(rmse)


def check_campaign(workload, child, first_digest: str | None):
    digest = output_digest(child["out"])
    summary = json.loads((child["out"] / "campaign.json").read_text())
    sim = converged_inside_rmse(child["out"], summary["points"])
    theory = summary["inside_theory_average_m"]
    gap = abs(sim - theory) / theory
    failures = sum(p["solver_failures"] for p in summary["points"])
    messages = []
    if first_digest is not None and digest != first_digest:
        messages.append("outputs differ from the first run at the same seed")
    if not gap <= CAMPAIGN_GAP_LIMIT:
        messages.append(f"inside-triangle sim/theory gap {gap:.3f} > {CAMPAIGN_GAP_LIMIT}")
    if not failures <= CAMPAIGN_FAILURE_SHARE * workload.items:
        messages.append(f"{failures} solver failures in {workload.items} trials")
    workload.traffic["nonconverged_trials_per_repeat"] = failures
    return (workload.items if messages else 0), messages, digest


@functools.cache
def reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def sync_reference(point):
    for ref in reference()["sync_check"]["points"]:
        if ref["point"] == point:
            return ref
    raise KeyError(f"no reference for sync point {point}")


def check_sync(workload, child):
    trials = workload.expected["trials"]
    recorded = reference()["sync_check"]["trials"]
    if trials != recorded:
        return workload.items, [f"reference was recorded at {recorded} "
                                f"trials per point, run used {trials}"]
    failed, messages = 0, []
    for entry in child["result"]["points"]:
        ref = sync_reference(entry["point"])
        bad = []
        if not math.isclose(entry["bound"], ref["bound"], rel_tol=BOUND_RTOL):
            bad.append(f"bound {entry['bound']!r} != reference {ref['bound']!r}")
        # An end recorded as null is one a correct sampler was seen to cross.
        lo, hi = ref["empirical_lo"], ref["empirical_hi"]
        if (lo is not None and entry["empirical"] < lo) or \
                (hi is not None and entry["empirical"] > hi):
            bad.append(f"empirical {entry['empirical']:.4g} outside [{lo}, {hi}]")
        if bad:
            failed += trials
            messages.append(f"point {entry['point']}: " + "; ".join(bad))
    return failed, messages


def check_replay(workload, child):
    exp = workload.expected
    printed = stdout_values(child["stdout"])
    messages = []
    for key in ("sessions_replayed", "lines_skipped"):
        if printed.get(key) != str(exp[key]):
            messages.append(f"{key} = {printed.get(key)}, generator wrote {exp[key]}")
    if messages:
        return workload.items, messages
    misdetected = set(exp["misdetected"])
    failed = 0
    for row in read_csv(child["out"] / "replay_fixes.csv"):
        if row["truth_x_m"] and row["session"] not in misdetected:
            if not float(row["error_m"]) <= exp["clean_tolerance_m"]:
                failed += 1
    if failed:
        messages.append(f"{failed} clean sessions solved more than "
                        f"{exp['clean_tolerance_m']} m from truth")
    return failed, messages


def theory_average(out: Path) -> tuple[int, float]:
    rows = read_csv(out / "theory_map.csv")
    values = [float(r["e_p_m"]) for r in rows if r["singular"] == "0"]
    return len(rows), sum(values) / len(values)


def check_theory(workload, child):
    rows, average = theory_average(child["out"])
    ref = reference()["theory_map"]["grid_average_ep_m"]
    messages = []
    if rows != workload.expected["grid_points"]:
        messages.append(f"theory_map.csv has {rows} rows, expected "
                        f"{workload.expected['grid_points']}")
    if not math.isclose(average, ref, rel_tol=THEORY_RTOL):
        messages.append(f"grid average {average!r} != reference {ref!r}")
    return (workload.items if messages else 0), messages
