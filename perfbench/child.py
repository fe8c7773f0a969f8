"""One benchmark repeat, run in a fresh process by run.py.

Usage: python3 perfbench/child.py JOB_JSON RESULT_JSON TRACE(0|1)

The parent puts its monotonic clock reading at spawn time in
PERFBENCH_SPAWN_NS; set-up time runs from there until the timed work
starts. For a CLI job the timed work is the command handler that
``uvtdoa.cli.main`` dispatches to, so argument parsing, config loading and
pilot generation count as set-up. The result (times, peak RSS, versions,
and the spans of a traced run) goes to RESULT_JSON.
"""

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

spawn_ns = int(os.environ["PERFBENCH_SPAWN_NS"])

import numpy  # noqa: E402
import scipy  # noqa: E402

import uvtdoa.cli  # noqa: E402

from tracing import Tracer  # noqa: E402


def run_cli(job: dict, marks: dict, tracer) -> dict:
    out = Path(job["out"])
    handler_name = job["handler"]
    handler = getattr(uvtdoa.cli, handler_name)

    def timed(*args, **kwargs):
        marks["begin"] = time.monotonic_ns()
        try:
            return handler(*args, **kwargs)
        finally:
            marks["end"] = time.monotonic_ns()

    setattr(uvtdoa.cli, handler_name, timed)
    code = uvtdoa.cli.main(job["argv"])
    if tracer is not None:
        tracer.counters["cli.bytes_written"] += sum(
            p.stat().st_size for p in out.iterdir() if p.is_file()
        )
    return {"exit_code": code}


def run_sync_check(job: dict, marks: dict, tracer) -> dict:
    from uvtdoa import errortheory, montecarlo

    spec = json.loads(Path(job["spec"]).read_text())
    n, rate = spec["chips_per_symbol"], spec["symbol_rate_hz"]
    points = []
    marks["begin"] = time.monotonic_ns()
    for lam_s, lam_b, length in spec["points"]:
        bound = errortheory.sync_mse_bound(errortheory.SyncBoundParams(
            lambda_s=lam_s, lambda_b=lam_b, length=length,
            chips_per_symbol=n, symbol_s=1.0 / rate,
        ))
        emp = montecarlo.sync_mse_empirical(
            lam_s, lam_b, length, n, rate, trials=spec["trials"], seed=spec["seed"]
        )
        points.append({"point": [lam_s, lam_b, length], "bound": bound, "empirical": emp})
    marks["end"] = time.monotonic_ns()
    return {"exit_code": 0, "points": points}


def main() -> None:
    job = json.loads(Path(sys.argv[1]).read_text())
    tracer = Tracer() if sys.argv[3] == "1" else None
    if tracer is not None:
        tracer.install()
    marks = {}
    result = {"kind": job["kind"]}
    result.update({"cli": run_cli, "sync_check": run_sync_check}[job["kind"]](job, marks, tracer))
    result["setup_s"] = (marks["begin"] - spawn_ns) / 1e9
    result["work_s"] = (marks["end"] - marks["begin"]) / 1e9
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    result["versions"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    if tracer is not None:
        result["trace"] = tracer.dump()
    Path(sys.argv[2]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
