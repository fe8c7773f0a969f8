"""In-memory spans around the package's public functions, installed from outside.

``Tracer.install()`` replaces each traced function with a wrapper in every
``uvtdoa`` module that holds it, because ``montecarlo`` and ``cli`` import
most of them by name: a wrapper on ``uvtdoa.channel.render_frame`` alone
would miss every call made from ``run_point``. Calls that go through module
globals (``render_frame`` -> ``pilot_rate_profile``, ``synchronize_frame`` ->
``correlate``, ``_cached_bound`` -> ``sync_mse_bound``) are caught by the
same replacement in the defining module.

A span is ``[name, start_ns, end_ns, parent_index]``; spans stay in a list
until the run ends. Counters record work sizes taken from return values.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

# (module, function) pairs wrapped in a traced run; span names are
# "<module>.<function>".
TRACED = (
    ("channel", "render_frame"),
    ("channel", "pilot_rate_profile"),
    ("sync", "synchronize_frame"),
    ("sync", "correlate"),
    ("tdoa", "measurement_from_times"),
    ("tdoa", "solve_position"),
    ("errortheory", "sync_mse_bound"),
    ("errortheory", "anchor_sigma2"),
    ("errortheory", "positioning_mse"),
    ("montecarlo", "run_point"),
    ("montecarlo", "sync_mse_empirical"),
    ("config", "load_config"),
    ("cli", "parse_replay_log"),
    ("cli", "sessions_from_records"),
    ("cli", "cluster_stats"),
    ("cli", "cmd_simulate"),
    ("cli", "cmd_replay"),
    ("cli", "cmd_theory"),
)


def _count_chips_rendered(tracer, out, parent):
    tracer.counters["channel.chips_drawn"] += len(out.counts)


def _count_chips_sampled(tracer, out, parent):
    # sync_mse_empirical draws one Poisson count per profile chip; inside
    # render_frame the draw is counted on the summed frame instead.
    if parent == "montecarlo.sync_mse_empirical":
        tracer.counters["channel.chips_drawn"] += out.size


def _count_candidates(tracer, out, parent):
    tracer.counters["sync.candidates_scored"] += out.size


def _count_solve(tracer, out, parent):
    tracer.counters["tdoa.iterations"] += out.iterations
    tracer.counters["tdoa.nonconverged"] += not out.converged


def _count_clamped(tracer, out, parent):
    tracer.counters["tdoa.clamped"] += out.clamped


def _count_lines(tracer, out, parent):
    records, skipped = out
    tracer.counters["cli.lines_parsed"] += len(records)
    tracer.counters["cli.lines_skipped"] += skipped


COUNTERS = {
    "channel.render_frame": _count_chips_rendered,
    "channel.pilot_rate_profile": _count_chips_sampled,
    "sync.correlate": _count_candidates,
    "tdoa.solve_position": _count_solve,
    "tdoa.measurement_from_times": _count_clamped,
    "cli.parse_replay_log": _count_lines,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0, 0, parent]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(self, out, spans[parent][0] if parent >= 0 else None)
            return out

        return traced

    def install(self) -> None:
        """Wrap every TRACED function wherever a uvtdoa module holds it.

        A function that no longer exists raises, so a rename shows up as a
        missing span instead of a silent zero.
        """
        for module, func in TRACED:
            home = importlib.import_module(f"uvtdoa.{module}")
            original = getattr(home, func)  # AttributeError names the lost function
            wrapper = self.wrap(f"{module}.{func}", original)
            for name, mod in list(sys.modules.items()):
                if name != "uvtdoa" and not name.startswith("uvtdoa."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters)}
