"""Plain-text configuration parsing with explicit unit suffixes.

Every physical quantity carries its unit in the key name (power_w,
slot_interval_s, clock hi_ns, ...), values are converted to SI on load, and
unknown keys are rejected so unit mistakes fail loudly instead of silently
rescaling results.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Callable, NamedTuple

import numpy as np

from .channel import ChannelError, LinkBudget, SignalParams
from .errortheory import DEFAULT_M_MAX, ClockModel, TheoryError
from .montecarlo import CampaignError, CampaignSpec
from .scene import SPEED_OF_LIGHT, GridSpec, Scene, SceneError, anchor_ranges, default_grid
from .sync import SyncError, generate_pilot


class ConfigError(ValueError):
    """Malformed configuration file."""


class _Key(NamedTuple):
    section: str
    key: str
    kind: str  # float, int, pair or str
    required: bool
    value: Callable  # Config -> the key's value in file units; None: not written
    default: object = None  # only where the key configures no dataclass field directly


# Every key of the config file, in file order. parse_config checks and
# defaults keys by these rows; serialize_config writes one line per row, so
# every key the file can set is in the canonical text behind config_sha256.
_KEYS = (
    _Key("scene", "tx_a_m", "pair", True, attrgetter("scene.tx_a")),
    _Key("scene", "tx_b_m", "pair", True, attrgetter("scene.tx_b")),
    _Key("scene", "tx_c_m", "pair", True, attrgetter("scene.tx_c")),
    _Key("scene", "rx_true_m", "pair", False, attrgetter("scene.rx_true")),
    _Key("grid", "x_min_m", "float", False, attrgetter("grid.x_min")),
    _Key("grid", "x_max_m", "float", False, attrgetter("grid.x_max")),
    _Key("grid", "y_min_m", "float", False, attrgetter("grid.y_min")),
    _Key("grid", "y_max_m", "float", False, attrgetter("grid.y_max")),
    _Key("grid", "steps_x", "int", False, attrgetter("grid.steps_x")),
    _Key("grid", "steps_y", "int", False, attrgetter("grid.steps_y")),
    _Key("budget", "power_w", "float", True, attrgetter("budget.power_w")),
    _Key("budget", "rx_area_m2", "float", True, attrgetter("budget.rx_area_m2")),
    _Key("budget", "divergence_full_angle_deg", "float", True,
         lambda c: _degrees(c.budget.divergence_full_angle_rad)),
    _Key("budget", "wavelength_m", "float", True, attrgetter("budget.wavelength_m")),
    _Key("budget", "detector_efficiency", "float", False, attrgetter("budget.detector_efficiency")),
    _Key("budget", "lambda_b_per_symbol", "float", False, attrgetter("budget.lambda_b")),
    _Key("budget", "lambda_clip_per_symbol", "float", False, attrgetter("budget.lambda_clip")),
    _Key("signal", "sequence_length", "int", True, attrgetter("signal.length")),
    _Key("signal", "symbol_rate_hz", "float", True, attrgetter("signal.symbol_rate_hz")),
    _Key("signal", "chips_per_symbol", "int", True, attrgetter("signal.chips_per_symbol")),
    _Key("signal", "slot_interval_s", "float", True, attrgetter("signal.slot_interval_s")),
    _Key("signal", "pilot_seed", "int", False, attrgetter("pilot_seed"), 1),
    _Key("clock", "distribution", "str", True, attrgetter("clock.distribution")),
    _Key("clock", "lo_ns", "float", False,
         lambda c: c.clock.lo_s * 1e9 if c.clock.distribution == "uniform" else None, 0.0),
    _Key("clock", "hi_ns", "float", False,
         lambda c: c.clock.hi_s * 1e9 if c.clock.distribution == "uniform" else None, 0.0),
    _Key("campaign", "trials_per_point", "int", False, attrgetter("trials_per_point")),
    _Key("campaign", "seed", "int", False, attrgetter("seed")),
)
_ROWS = {(row.section, row.key): row for row in _KEYS}
_SECTIONS = {row.section for row in _KEYS}


def _degrees(rad: float) -> float:
    """The degree value nearest ``math.degrees(rad)`` that ``math.radians`` maps to ``rad``.

    ``math.radians`` is monotone, so stepping one ulp at a time toward ``rad``
    finds it; an angle that no degree value maps to keeps ``math.degrees(rad)``.
    """
    deg = near = math.degrees(rad)
    up = math.radians(deg) < rad
    while math.radians(near) < rad if up else math.radians(near) > rad:
        near = math.nextafter(near, math.inf if up else -math.inf)
    return near if math.radians(near) == rad else deg


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
    chip before its slot, the limit ``render_frame`` enforces. Anchor A's
    slot opens the frame, so a pilot whose first symbol is on may not start
    before it at all: ``pilot_rate_profile`` has no chip there.
    """
    dists = anchor_ranges(scene, np.vstack([scene.rx_true, grid.points()]))
    flight_s = float(dists.max()) / SPEED_OF_LIGHT
    need_s = signal.length * signal.symbol_s + flight_s + clock.hi_s + signal.chip_s
    if signal.slot_interval_s < need_s:
        raise ConfigError(
            f"[signal] slot_interval_s = {signal.slot_interval_s!r} is shorter than pilot "
            f"+ longest flight time + clock hi + one chip = {need_s!r} s"
        )
    earliest_s = (dists.min(axis=0) / SPEED_OF_LIGHT + clock.lo_s - signal.chip_s / 2.0).tolist()
    if min(earliest_s) < -signal.chip_s:
        raise ConfigError(
            f"[clock] lo_ns = {clock.lo_s * 1e9!r} starts a pilot {-min(earliest_s)!r} s "
            f"before its slot, more than one chip ({signal.chip_s!r} s)"
        )
    if signal.sequence[0] and earliest_s[0] < 0:
        raise ConfigError(
            f"[clock] lo_ns = {clock.lo_s * 1e9!r} starts anchor A's pilot, whose first "
            f"symbol is on, {-earliest_s[0]!r} s before the frame's first chip"
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
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in cp.items(section):
            if (section, key) not in _ROWS:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            kind = _ROWS[section, key].kind
            values[section, key] = _parse_value(kind, raw, f"[{section}] {key}")
    for row in _KEYS:
        if row.required and (row.section, row.key) not in values:
            raise ConfigError(f"missing required key {row.key!r} in section [{row.section}]")
        if row.default is not None:
            values.setdefault((row.section, row.key), row.default)

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
            grid = GridSpec(*explicit, **steps)
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
        elif dist == "none":
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
    """Canonical text form, every key written; parse(serialize(cfg)) reproduces cfg."""
    lines = []
    section = None
    for row in _KEYS:
        value = row.value(cfg)
        if value is None:
            continue
        if row.section != section:
            section = row.section
            lines += ["", f"[{section}]"]
        if row.kind == "pair":
            value = f"{value[0]!r}, {value[1]!r}"
        elif row.kind == "float":
            value = repr(value)
        lines.append(f"{row.key} = {value}")
    return "\n".join(lines[1:]) + "\n"


def config_hash(cfg: Config) -> str:
    """Stable hash of the canonical serialization, for output headers."""
    return hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()
