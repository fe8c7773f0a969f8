"""A config that loads can run every command.

A seeded generator draws config files over every row of the config's key
table, out to the edges of each key's domain; every command must then end
in a documented exit code, never a traceback.
"""

import math
import random

import pytest

from uvtdoa import ConfigError, config_hash, parse_config, serialize_config
from uvtdoa.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERICAL, EXIT_OK, main
from uvtdoa.config import _KEYS
from uvtdoa.scene import SPEED_OF_LIGHT

N_CONFIGS = 40
SEED = 20261022

# Out-of-domain spellings per kind, one of which replaces a drawn value.
_BAD_VALUES = {
    "float": ("nan", "inf", "1e400", "-1", "0", "lots"),
    "int": ("0", "-1", "1.5", "x"),
    "pair": ("1", "1, 2, 3", "nan, 0"),
    "str": ("ideal", "gauss", ""),
}


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _draw_values(rng: random.Random) -> dict:
    """A value for each key the draw sets, by (section, key), as file text.

    Optional keys are left out about half the time, except the grid steps
    and trials per point: at most 3 each, so that a campaign stays small.
    The slot is sized from the drawn pilot, flight times and clock, so most
    draws load; a few get a slot a chip or more short.
    """
    ax, ay = rng.uniform(-100, 100), rng.uniform(-100, 100)
    bx, by = ax + rng.uniform(20, 200), ay + rng.uniform(-50, 50)
    if rng.random() < 0.25:
        # near-collinear: C a hair off the line AB, either side of the
        # minimum triangle area
        t, off = rng.uniform(-0.5, 1.5), _log_uniform(rng, 1e-16, 1e-2)
        cx, cy = ax + t * (bx - ax) - off * (by - ay), ay + t * (by - ay) + off * (bx - ax)
    else:
        cx, cy = rng.uniform(ax, bx), ay + rng.choice((-1, 1)) * rng.uniform(20, 200)
    xs, ys = (ax, bx, cx), (ay, by, cy)
    v = {
        ("scene", "tx_a_m"): f"{ax!r}, {ay!r}",
        ("scene", "tx_b_m"): f"{bx!r}, {by!r}",
        ("scene", "tx_c_m"): f"{cx!r}, {cy!r}",
        # one-point grids: a one-point axis puts its point at the lower bound
        ("grid", "steps_x"): str(rng.randint(1, 3)),
        ("grid", "steps_y"): str(rng.randint(1, 3)),
        ("budget", "power_w"): repr(_log_uniform(rng, 1e-9, 1e3)),
        ("budget", "rx_area_m2"): repr(_log_uniform(rng, 1e-6, 1e-2)),
        ("budget", "divergence_full_angle_deg"): repr(rng.uniform(1.0, 179.0)),
        ("budget", "wavelength_m"): repr(rng.uniform(200e-9, 300e-9)),
        ("campaign", "trials_per_point"): str(rng.randint(1, 3)),
    }
    lo_x, hi_x, lo_y, hi_y = min(xs), max(xs), min(ys), max(ys)
    if rng.random() < 0.5:
        rx = (rng.uniform(lo_x, hi_x), rng.uniform(lo_y, hi_y))
        v["scene", "rx_true_m"] = f"{rx[0]!r}, {rx[1]!r}"
    if rng.random() < 0.5:
        x0, y0 = rng.uniform(lo_x - 20, hi_x), rng.uniform(lo_y - 20, hi_y)
        x1, y1 = x0 + rng.uniform(0.01, 100), y0 + rng.uniform(0.01, 100)
        for key, value in zip(("x_min_m", "x_max_m", "y_min_m", "y_max_m"), (x0, x1, y0, y1)):
            v["grid", key] = repr(value)
        lo_x, hi_x, lo_y, hi_y = min(lo_x, x0), max(hi_x, x1), min(lo_y, y0), max(hi_y, y1)

    # pilots of 2 to 2000 symbols, 1 to 200 chips each; at most 16k chips
    # and, since the channel draws photon by photon, rates of at most 1e5/L
    # photons per symbol, so that a trial stays cheap
    length = rng.randint(2, 16) if rng.random() < 0.1 else round(_log_uniform(rng, 17, 2000))
    chips = rng.randint(1, max(1, min(200, 16000 // length)))
    max_rate = min(1e4, 1e5 / length)
    for key, draw in (
        ("detector_efficiency", lambda: rng.uniform(0.01, 1.0)),
        ("lambda_b_per_symbol", lambda: rng.choice((0.0, _log_uniform(rng, 1e-3, max_rate)))),
        ("lambda_clip_per_symbol", lambda: _log_uniform(rng, 1.0, max_rate)),
    ):
        if rng.random() < 0.5:
            v["budget", key] = repr(draw())
    rate_hz = float(round(_log_uniform(rng, 1e5, 1e7)))
    chip_s = 1.0 / (rate_hz * chips)
    v["signal", "sequence_length"] = str(length)
    v["signal", "symbol_rate_hz"] = repr(rate_hz)
    v["signal", "chips_per_symbol"] = str(chips)
    if rng.random() < 0.5:
        v["signal", "pilot_seed"] = str(rng.randint(0, 2**31))

    hi_ns = 0.0
    if rng.random() < 0.8:
        v["clock", "distribution"] = "uniform"
        lo_ns = rng.uniform(-chip_s * 1e9, 0.0) if rng.random() < 0.3 else 0.0
        hi_ns = lo_ns + rng.uniform(0.0, 500.0)
        if lo_ns or rng.random() < 0.5:
            v["clock", "lo_ns"] = repr(lo_ns)
        v["clock", "hi_ns"] = repr(hi_ns)
    else:
        v["clock", "distribution"] = "none"

    # the longest flight time is at most the diagonal of the box around
    # anchors, receiver and grid
    flight_s = math.hypot(hi_x - lo_x, hi_y - lo_y) / SPEED_OF_LIGHT
    need_chips = math.ceil((length / rate_hz + flight_s + hi_ns * 1e-9) / chip_s) + 1
    slot_chips = need_chips + (rng.randint(-3, -1) if rng.random() < 0.1 else rng.randint(0, 20))
    v["signal", "slot_interval_s"] = repr(slot_chips * chip_s)
    if rng.random() < 0.5:
        v["campaign", "seed"] = str(rng.randint(0, 2**64 - 1))
    return v


def random_config_text(rng: random.Random) -> str:
    """Config text over the key table's rows, in file order.

    About one draw in five then leaves out a required key or sets one key
    to an out-of-domain spelling.
    """
    values = _draw_values(rng)
    if rng.random() < 0.2:
        row = rng.choice(_KEYS)
        if row.required and rng.random() < 0.3:
            values.pop((row.section, row.key))
        else:
            values[row.section, row.key] = rng.choice(_BAD_VALUES[row.kind])
    lines, section = [], None
    for row in _KEYS:
        if (row.section, row.key) not in values:
            continue
        if row.section != section:
            section = row.section
            lines += ["", f"[{section}]"]
        lines.append(f"{row.key} = {values[row.section, row.key]}")
    return "\n".join(lines) + "\n"


def test_generator_covers_every_key():
    rng = random.Random(SEED)
    written = set()
    for _ in range(N_CONFIGS):
        values = _draw_values(rng)
        written |= set(values)
    assert written == {(row.section, row.key) for row in _KEYS}


# Extra arguments of each command besides --config and --out; replay and
# diffcal read the detections simulate wrote.
COMMANDS = (
    ("theory",),
    ("simulate",),
    ("sweep", "--powers-mw", "1,150"),
    ("replay", "--log", "{sim}/detections.csv"),
    ("diffcal", "--calibration", "{sim}/detections.csv", "--log", "{sim}/detections.csv"),
)


@pytest.mark.filterwarnings("default::uvtdoa.errortheory.SyncBoundTailWarning")
def test_a_config_that_loads_runs_every_command(tmp_path, capsys):
    rng = random.Random(SEED)
    loaded = 0
    for i in range(N_CONFIGS):
        text = random_config_text(rng)
        try:
            cfg = parse_config(text)
        except ConfigError:
            cfg = None
        else:
            loaded += 1
            again = parse_config(serialize_config(cfg))
            assert again == cfg, text
            assert config_hash(again) == config_hash(cfg), text
        path = tmp_path / f"{i}.cfg"
        path.write_text(text)
        sim = tmp_path / f"{i}-simulate"
        for command in COMMANDS:
            out = tmp_path / f"{i}-{command[0]}"
            args = [arg.format(sim=sim) for arg in command]
            code = main([*args, "--config", str(path), "--out", str(out)])
            err = capsys.readouterr().err
            assert "Traceback" not in err, (text, command, err)
            if cfg is None:
                assert code == EXIT_CONFIG, (text, command, err)
            else:
                assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_IO), (text, command)
    # the draws reach both sides of loading
    assert 0.5 * N_CONFIGS <= loaded < N_CONFIGS
