"""Plain-text configuration parsing with explicit unit suffixes.

Every physical quantity carries its unit in the key name (power_w,
slot_interval_s, clock hi_ns, ...), values are converted to SI on load, and
unknown keys are rejected so unit mistakes fail loudly instead of silently
rescaling results.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import ChannelError, LinkBudget, SignalParams
from .errortheory import DEFAULT_M_MAX, ClockModel, TheoryError
from .montecarlo import CampaignError, CampaignSpec
from .scene import SPEED_OF_LIGHT, GridSpec, Scene, SceneError, anchor_ranges, default_grid
from .sync import SyncError, generate_pilot


class ConfigError(ValueError):
    """Malformed configuration file."""


# section -> key -> (kind, required). Kinds: float, int, pair, str.
_SCHEMA = {
    "scene": {
        "tx_a_m": ("pair", True),
        "tx_b_m": ("pair", True),
        "tx_c_m": ("pair", True),
        "rx_true_m": ("pair", False),
    },
    "grid": {
        "x_min_m": ("float", False),
        "x_max_m": ("float", False),
        "y_min_m": ("float", False),
        "y_max_m": ("float", False),
        "steps_x": ("int", False),
        "steps_y": ("int", False),
    },
    "budget": {
        "power_w": ("float", True),
        "rx_area_m2": ("float", True),
        "divergence_full_angle_deg": ("float", True),
        "wavelength_m": ("float", True),
        "detector_efficiency": ("float", False),
        "lambda_b_per_symbol": ("float", False),
        "lambda_clip_per_symbol": ("float", False),
    },
    "signal": {
        "sequence_length": ("int", True),
        "symbol_rate_hz": ("float", True),
        "chips_per_symbol": ("int", True),
        "slot_interval_s": ("float", True),
        "pilot_seed": ("int", False),
    },
    "clock": {
        "distribution": ("str", True),
        "lo_ns": ("float", False),
        "hi_ns": ("float", False),
    },
    "campaign": {
        "trials_per_point": ("int", False),
        "seed": ("int", False),
    },
}

# Defaults of the optional keys that configure no dataclass field directly;
# every other optional key left out takes its field's default.
_DEFAULTS = {
    ("signal", "pilot_seed"): 1,
    ("clock", "lo_ns"): 0.0,
    ("clock", "hi_ns"): 0.0,
}


@dataclass(frozen=True)
class Config(CampaignSpec):
    """Validated toolkit configuration in SI units: a campaign on its grid plus its pilot seed."""

    pilot_seed: int = field(kw_only=True)

    def __post_init__(self):
        if self.points is not None:  # config_sha256 records the grid, not points
            raise ConfigError("a Config takes its points from [grid], not a points list")
        super().__post_init__()


def _parse_value(kind: str, raw: str, where: str):
    try:
        if kind == "float":
            v = float(raw)
            if not math.isfinite(v):
                raise ValueError("not finite")
            return v
        if kind == "int":
            return int(raw)
        if kind == "pair":
            parts = [p for p in raw.replace(",", " ").split() if p]
            if len(parts) != 2:
                raise ValueError("expected two numbers")
            return (float(parts[0]), float(parts[1]))
        return raw.strip()
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse {raw!r} as {kind} ({exc})") from exc


def _check_slot_fits(scene: Scene, grid: GridSpec, signal: SignalParams, clock: ClockModel) -> None:
    """Reject a slot that cannot hold every pilot a campaign renders.

    Late side: the slot must hold the pilot plus the longest flight time (to
    the receiver or any grid point; the farthest grid points are corners),
    the clock's upper bound and one chip. Early side: the earliest arrival
    (shortest flight time to the receiver or any grid point, the clock's
    lower bound and a -1/2 chip fractional offset) may start at most one
    chip before its slot, the limit ``render_frame`` enforces.
    """
    dists = anchor_ranges(scene, np.vstack([scene.rx_true, grid.points()]))
    flight_s = float(dists.max()) / SPEED_OF_LIGHT
    need_s = signal.length * signal.symbol_s + flight_s + clock.hi_s + signal.chip_s
    if signal.slot_interval_s < need_s:
        raise ConfigError(
            f"[signal] slot_interval_s = {signal.slot_interval_s!r} is shorter than pilot "
            f"+ longest flight time + clock hi + one chip = {need_s!r} s"
        )
    earliest_s = float(dists.min()) / SPEED_OF_LIGHT + clock.lo_s - signal.chip_s / 2.0
    if earliest_s < -signal.chip_s:
        raise ConfigError(
            f"[clock] lo_ns = {clock.lo_s * 1e9!r} starts a pilot {-earliest_s!r} s "
            f"before its slot, more than one chip ({signal.chip_s!r} s)"
        )


def parse_config(text: str) -> Config:
    """Parse and validate configuration text; raises ConfigError with
    section/key diagnostics on any unknown key, missing key, or bad value."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), strict=True)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc

    values: dict[tuple[str, str], object] = {}
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in cp.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            kind, _ = _SCHEMA[section][key]
            values[(section, key)] = _parse_value(kind, raw, f"[{section}] {key}")
    for section, keys in _SCHEMA.items():
        for key, (_, required) in keys.items():
            if required and (section, key) not in values:
                raise ConfigError(f"missing required key {key!r} in section [{section}]")
    for loc, default in _DEFAULTS.items():
        values.setdefault(loc, default)

    def get(section, key):
        return values.get((section, key))

    def given(section, **keys):
        """Keyword arguments, by field name, for the keys the text sets."""
        return {f: values[section, k] for f, k in keys.items() if (section, k) in values}

    try:
        scene = Scene(
            tx_a=get("scene", "tx_a_m"),
            tx_b=get("scene", "tx_b_m"),
            tx_c=get("scene", "tx_c_m"),
            rx_true=get("scene", "rx_true_m"),
        )
        grid_keys = ("x_min_m", "x_max_m", "y_min_m", "y_max_m")
        explicit = [get("grid", k) for k in grid_keys]
        steps = given("grid", steps_x="steps_x", steps_y="steps_y")
        if all(v is not None for v in explicit):
            grid = GridSpec(*[float(v) for v in explicit], **steps)
        elif any(v is not None for v in explicit):
            raise ConfigError(
                "[grid] must define all of x_min_m/x_max_m/y_min_m/y_max_m or none"
            )
        else:
            grid = replace(default_grid(scene), **steps)
        budget = LinkBudget(
            power_w=get("budget", "power_w"),
            rx_area_m2=get("budget", "rx_area_m2"),
            divergence_full_angle_rad=math.radians(get("budget", "divergence_full_angle_deg")),
            wavelength_m=get("budget", "wavelength_m"),
            **given(
                "budget",
                detector_efficiency="detector_efficiency",
                lambda_b="lambda_b_per_symbol",
                lambda_clip="lambda_clip_per_symbol",
            ),
        )
        pilot_seed = int(get("signal", "pilot_seed"))
        length = int(get("signal", "sequence_length"))
        if 2 * DEFAULT_M_MAX >= length:
            # theory's cross-symbol sum needs 2 * m_max < L to stay in its domain
            raise ConfigError(
                f"[signal] sequence_length must be > {2 * DEFAULT_M_MAX} for the sync "
                f"bound's m_max = {DEFAULT_M_MAX}, got {length}"
            )
        signal = SignalParams(
            sequence=generate_pilot(length, pilot_seed),
            symbol_rate_hz=get("signal", "symbol_rate_hz"),
            chips_per_symbol=int(get("signal", "chips_per_symbol")),
            slot_interval_s=get("signal", "slot_interval_s"),
        )
        dist = get("clock", "distribution")
        if dist == "uniform":
            # divide rather than scale by 1e-9: exact inverse of the
            # serializer's multiplication, so round-trips preserve bits
            clock = ClockModel.uniform(
                get("clock", "lo_ns") / 1e9, get("clock", "hi_ns") / 1e9
            )
        elif dist in ("none", "ideal"):
            clock = ClockModel.ideal()
        else:
            raise ConfigError(
                f"[clock] distribution must be 'uniform' or 'none', got {dist!r}"
            )
        _check_slot_fits(scene, grid, signal, clock)
        try:
            return Config(
                scene, budget, signal, clock, grid,
                **given("campaign", trials_per_point="trials_per_point", seed="seed"),
                pilot_seed=pilot_seed,
            )
        except CampaignError as exc:
            raise ConfigError(f"[campaign] {exc}") from exc
    except (SceneError, ChannelError, SyncError, TheoryError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> Config:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def serialize_config(cfg: Config) -> str:
    """Canonical text form; parse(serialize(cfg)) reproduces cfg."""
    out = io.StringIO()
    deg = math.degrees(cfg.budget.divergence_full_angle_rad)
    out.write("[scene]\n")
    for key, val in (
        ("tx_a_m", cfg.scene.tx_a),
        ("tx_b_m", cfg.scene.tx_b),
        ("tx_c_m", cfg.scene.tx_c),
        ("rx_true_m", cfg.scene.rx_true),
    ):
        out.write(f"{key} = {val[0]!r}, {val[1]!r}\n")
    out.write("\n[grid]\n")
    out.write(f"x_min_m = {cfg.grid.x_min!r}\nx_max_m = {cfg.grid.x_max!r}\n")
    out.write(f"y_min_m = {cfg.grid.y_min!r}\ny_max_m = {cfg.grid.y_max!r}\n")
    out.write(f"steps_x = {cfg.grid.steps_x}\nsteps_y = {cfg.grid.steps_y}\n")
    out.write("\n[budget]\n")
    out.write(f"power_w = {cfg.budget.power_w!r}\n")
    out.write(f"rx_area_m2 = {cfg.budget.rx_area_m2!r}\n")
    out.write(f"divergence_full_angle_deg = {deg!r}\n")
    out.write(f"wavelength_m = {cfg.budget.wavelength_m!r}\n")
    out.write(f"detector_efficiency = {cfg.budget.detector_efficiency!r}\n")
    out.write(f"lambda_b_per_symbol = {cfg.budget.lambda_b!r}\n")
    out.write(f"lambda_clip_per_symbol = {cfg.budget.lambda_clip!r}\n")
    out.write("\n[signal]\n")
    out.write(f"sequence_length = {cfg.signal.length}\n")
    out.write(f"symbol_rate_hz = {cfg.signal.symbol_rate_hz!r}\n")
    out.write(f"chips_per_symbol = {cfg.signal.chips_per_symbol}\n")
    out.write(f"slot_interval_s = {cfg.signal.slot_interval_s!r}\n")
    out.write(f"pilot_seed = {cfg.pilot_seed}\n")
    out.write("\n[clock]\n")
    if cfg.clock.distribution == "uniform":
        out.write("distribution = uniform\n")
        out.write(f"lo_ns = {cfg.clock.lo_s * 1e9!r}\n")
        out.write(f"hi_ns = {cfg.clock.hi_s * 1e9!r}\n")
    else:
        out.write("distribution = none\n")
    out.write("\n[campaign]\n")
    out.write(f"trials_per_point = {cfg.trials_per_point}\n")
    out.write(f"seed = {cfg.seed}\n")
    return out.getvalue()


def config_hash(cfg: Config) -> str:
    """Stable hash of the canonical serialization, for output headers."""
    return hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()
