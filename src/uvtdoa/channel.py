"""Photon-counting link model and chip-level pilot frame generation.

The link budget maps transmit power to a mean photoelectron count per symbol
for a line-of-sight path; the frame renderer turns that rate into Poisson
chip counts for the three time-division pilot slots by placing individual
photons on the chip axis and binning them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .scene import SPEED_OF_LIGHT

PLANCK_CONSTANT = 6.62607015e-34  # J*s


class ChannelError(ValueError):
    """Invalid link-budget or frame-generation input."""


class SlotOverrunError(ChannelError):
    """A delayed pilot would spill into the next anchor's slot."""


@dataclass(frozen=True)
class LinkBudget:
    """Transmitter/receiver parameters of the line-of-sight photon link.

    ``lambda_b`` is the mean background photoelectron count per symbol;
    ``lambda_clip`` is the saturation ceiling applied to the signal rate
    (detector pulse-counting limit).
    """

    power_w: float
    rx_area_m2: float
    divergence_full_angle_rad: float
    wavelength_m: float
    detector_efficiency: float = 0.15
    lambda_b: float = 1.0
    lambda_clip: float = 100.0

    def __post_init__(self):
        for name in ("power_w", "rx_area_m2", "wavelength_m"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ChannelError(f"{name} must be finite and > 0, got {value}")
        if not 0 < self.divergence_full_angle_rad < np.pi:
            raise ChannelError(
                f"divergence_full_angle_rad must be in (0, pi), got "
                f"{self.divergence_full_angle_rad}"
            )
        if not 0 < self.detector_efficiency <= 1:
            raise ChannelError(
                f"detector_efficiency must be in (0, 1], got {self.detector_efficiency}"
            )
        if self.lambda_b < 0:
            raise ChannelError(f"lambda_b must be >= 0, got {self.lambda_b}")
        if not self.lambda_clip > 0:
            raise ChannelError(f"lambda_clip must be > 0, got {self.lambda_clip}")

    def with_power(self, power_w: float) -> "LinkBudget":
        return replace(self, power_w=power_w)


def los_photon_rate(budget: LinkBudget, distance_m, symbol_duration_s: float):
    """Mean detected photoelectrons per symbol over a line-of-sight path.

    Uniform-cone divergence with inverse-square spreading: the transmitter
    emits P*T_s/E_photon photons per symbol into a cone of solid angle
    2*pi*(1 - cos(theta/2)); the receiver intercepts its aperture's share at
    the given distance and detects a fraction equal to the quantum
    efficiency. The result saturates at ``lambda_clip``. ``distance_m`` is
    one distance, giving a float, or an array, giving an array of its shape;
    every distance must be > 0.
    """
    d = np.asarray(distance_m, dtype=float)
    if not (d > 0).all():
        raise ChannelError(f"distance_m must be > 0, got {float(d[~(d > 0)][0])}")
    if not symbol_duration_s > 0:
        raise ChannelError(f"symbol_duration_s must be > 0, got {symbol_duration_s}")
    photon_energy = PLANCK_CONSTANT * SPEED_OF_LIGHT / budget.wavelength_m
    photons_per_symbol = budget.power_w * symbol_duration_s / photon_energy
    solid_angle = 2.0 * np.pi * (1.0 - np.cos(budget.divergence_full_angle_rad / 2.0))
    rate = (
        budget.detector_efficiency
        * photons_per_symbol
        * budget.rx_area_m2
        / (solid_angle * d * d)
    )
    rate = np.minimum(budget.lambda_clip, rate)
    return float(rate) if rate.ndim == 0 else rate


@dataclass(frozen=True)
class SignalParams:
    """Pilot sequence and timing of the time-division transmission.

    ``slot_interval_s`` must exceed the pilot duration so consecutive anchor
    slots never overlap, and must be a whole number of chips: the receiver
    cuts slot i at ``i * slot_chips`` chips, where anchor i transmits.
    """

    sequence: tuple[int, ...]
    symbol_rate_hz: float
    chips_per_symbol: int
    slot_interval_s: float

    def __post_init__(self):
        seq = tuple(int(v) for v in np.asarray(self.sequence).reshape(-1))
        if len(seq) < 2 or any(v not in (0, 1) for v in seq):
            raise ChannelError("sequence must be a binary vector of length >= 2")
        object.__setattr__(self, "sequence", seq)
        pilot = np.array(seq, dtype=np.int64)
        pilot.flags.writeable = False
        object.__setattr__(self, "_pilot", pilot)
        if not self.symbol_rate_hz > 0:
            raise ChannelError(f"symbol_rate_hz must be > 0, got {self.symbol_rate_hz}")
        if self.chips_per_symbol < 1:
            raise ChannelError(f"chips_per_symbol must be >= 1, got {self.chips_per_symbol}")
        if self.slot_interval_s < len(seq) / self.symbol_rate_hz:
            raise ChannelError(
                f"slot_interval_s = {self.slot_interval_s} is shorter than the "
                f"pilot duration {len(seq) / self.symbol_rate_hz}; slots would overlap"
            )
        chips = self.slot_interval_s / self.chip_s
        if abs(chips - round(chips)) > 1e-6:
            raise ChannelError(
                f"slot_interval_s = {self.slot_interval_s!r} is {chips:.9g} chips of "
                f"{self.chip_s!r} s, not a whole number"
            )

    @property
    def length(self) -> int:
        return len(self.sequence)

    @property
    def symbol_s(self) -> float:
        return 1.0 / self.symbol_rate_hz

    @property
    def chip_ns(self) -> float:
        return 1e9 / (self.symbol_rate_hz * self.chips_per_symbol)

    @property
    def chip_s(self) -> float:
        # Derived from chip_ns the way a detection log's reader derives it,
        # so a logged chip_ns gives back exactly this chip duration.
        return self.chip_ns / 1e9

    @property
    def pilot_chips(self) -> int:
        return self.length * self.chips_per_symbol

    @property
    def slot_chips(self) -> int:
        return int(round(self.slot_interval_s / self.chip_s))

    def sequence_array(self) -> np.ndarray:
        """The pilot as a read-only int64 array, built once per instance."""
        return self._pilot


@dataclass
class ChipTrace:
    """Per-chip photoelectron counts of one rendered frame."""

    counts: np.ndarray


def pilot_rate_profile(sequence, chips_per_symbol: int, start_chip, n_chips: int) -> np.ndarray:
    """Fractional start chip of every "on" symbol of a pilot in a chip window.

    The k-th on-symbol spreads its rate evenly over [start + k*n,
    start + (k+1)*n), so chips straddling a symbol edge get a prorated share.
    An array ``start_chip`` gives one row of symbol starts per entry.
    """
    on = np.nonzero(np.asarray(sequence).reshape(-1))[0]
    n = int(chips_per_symbol)
    a = np.asarray(start_chip, dtype=float)[..., None] + on * n
    if np.any(a < 0) or np.any(a + n > n_chips):
        raise ChannelError("pilot extends outside the chip window")
    return a


def sample_photons(
    rng: np.random.Generator,
    symbol_starts: np.ndarray,
    lambda_s,
    lambda_b: float,
    chips_per_symbol: int,
    n_chips: int,
) -> np.ndarray:
    """(batch, n_chips) int64 Poisson chip counts of a batch of windows.

    Each on-symbol, at fractional chip a in a (batch, n_on) row of
    ``symbol_starts``, emits Poisson(lambda_s) photons uniform over
    [a, a + n); each window adds Poisson(lambda_b * n_chips / n) uniform
    background photons. Binned into chips these are independent Poisson
    counts whose means are lambda_b/n plus lambda_s/n times each symbol's
    overlap with the chip. The draws come in a fixed order: the per-symbol
    counts, the per-window counts, the signal positions, then the
    background positions.
    """
    n = int(chips_per_symbol)
    batch = symbol_starts.shape[0]
    per_symbol = rng.poisson(lambda_s, size=symbol_starts.shape).ravel()
    per_window = rng.poisson(lambda_b * n_chips / n, size=batch)
    whole = np.floor(symbol_starts)
    frac = (symbol_starts - whole).ravel()
    # Row r bins into chips r * n_chips .. (r + 1) * n_chips - 1.
    row_chip = np.arange(0, batch * n_chips, n_chips)
    first = (whole.astype(np.int64) + row_chip[:, None]).ravel()
    n_sig = int(per_symbol.sum())
    chips = np.empty(n_sig + int(per_window.sum()), dtype=np.int64)
    # A photon lands floor(frac + n*u) chips past its symbol's first chip
    # (the cast truncates). Clamping to n keeps float round-up in the
    # symbol's last straddle chip, which pilot_rate_profile keeps in the window.
    pos = rng.random(n_sig)
    pos *= n
    pos += np.repeat(frac, per_symbol)
    sig = chips[:n_sig]
    sig[:] = pos
    del pos
    np.minimum(sig, n, out=sig)
    sig += np.repeat(first, per_symbol)
    bg = chips[n_sig:]
    bg[:] = rng.random(len(bg)) * n_chips
    bg += np.repeat(row_chip, per_window)
    return np.bincount(chips, minlength=batch * n_chips).reshape(batch, n_chips)


def render_frame(
    params: SignalParams,
    flight_s,
    lambda_s,
    lambda_b: float,
    clock_offsets_s,
    frac_offset_eps_s: float,
    rng_seed,
) -> ChipTrace:
    """Simulate the chip counts of one three-slot pilot frame.

    Anchor i transmits at i * slot_interval with ``lambda_s[i]`` signal
    photoelectrons per symbol; its pilot reaches the receiver delayed by the
    clock offset, the flight time ``flight_s[i]``, and the shared fractional offset
    ``frac_offset_eps_s``. Counts are Poisson with per-chip means from the
    background ``lambda_b`` per symbol plus the prorated pilot overlap,
    independent across chips, drawn photon by photon (see
    ``sample_photons``). Identical inputs and seed give an identical trace.
    """
    offsets = np.asarray(clock_offsets_s, dtype=float).reshape(-1)
    if offsets.shape != (3,):
        raise ChannelError("clock_offsets_s must hold one offset per anchor")
    flights = np.asarray(flight_s, dtype=float).reshape(-1)
    if flights.shape != (3,):
        raise ChannelError("flight_s must hold one flight time per anchor")
    lambdas = np.asarray(lambda_s, dtype=float).reshape(-1)
    if lambdas.shape != (3,) or not (lambdas >= 0).all() or not lambda_b >= 0:
        raise ChannelError(
            f"lambda_s must hold one rate >= 0 per anchor and lambda_b must be >= 0, "
            f"got {lambda_s!r} and {lambda_b!r}"
        )
    rng = np.random.default_rng(rng_seed)
    t_chip = params.chip_s
    slot_chips = params.slot_chips
    n_chips = 3 * slot_chips
    arrivals_s = np.empty(3)
    for i in range(3):
        arrival_s = i * params.slot_interval_s + offsets[i] + flights[i] + frac_offset_eps_s
        if arrival_s + params.length * params.symbol_s > (i + 1) * params.slot_interval_s:
            raise SlotOverrunError(
                f"anchor {'ABC'[i]} pilot arriving at {arrival_s:.9f} s spills "
                f"past its slot end {(i + 1) * params.slot_interval_s:.9f} s"
            )
        if arrival_s < i * params.slot_interval_s - t_chip:
            raise SlotOverrunError(
                f"anchor {'ABC'[i]} pilot arriving at {arrival_s:.9f} s starts "
                f"before its slot {i * params.slot_interval_s:.9f} s"
            )
        arrivals_s[i] = arrival_s
    starts = pilot_rate_profile(
        params.sequence_array(), params.chips_per_symbol, arrivals_s / t_chip, n_chips
    )
    counts = sample_photons(
        rng, starts.reshape(1, -1), np.repeat(lambdas, starts.shape[1]),
        lambda_b, params.chips_per_symbol, n_chips,
    )
    return ChipTrace(counts[0])
