"""Photon-counting ultraviolet TDOA positioning: simulation and error analysis."""

from .channel import (
    ChannelError,
    ChipTrace,
    LinkBudget,
    SignalParams,
    SlotOverrunError,
    los_photon_rate,
    render_frame,
)
from .config import Config, ConfigError, config_hash, load_config, parse_config, serialize_config
from .errortheory import (
    ClockModel,
    ErrorBudget,
    SingularGeometryError,
    SyncBoundParams,
    misdetect_prob_cross_symbol,
    misdetect_prob_within_symbol,
    positioning_mse,
    sync_mse_bound,
    theory_points,
)
from .montecarlo import (
    CampaignResult,
    CampaignSpec,
    differential_campaign,
    differential_correction,
    power_sweep,
    run_campaign,
    run_point,
    sync_mse_empirical,
)
from .scene import GridSpec, Scene, SceneError, default_grid, inside_triangle, ranges
from .sync import correlate, estimate_start, generate_pilot, synchronize_frame
from .tdoa import PositionFix, TdoaMeasurement, measurement_from_times, solve_position

__version__ = "0.1.0"

__all__ = [
    "CampaignResult",
    "CampaignSpec",
    "ChannelError",
    "ChipTrace",
    "ClockModel",
    "Config",
    "ConfigError",
    "ErrorBudget",
    "GridSpec",
    "LinkBudget",
    "PositionFix",
    "Scene",
    "SceneError",
    "SignalParams",
    "SingularGeometryError",
    "SlotOverrunError",
    "SyncBoundParams",
    "TdoaMeasurement",
    "config_hash",
    "correlate",
    "default_grid",
    "differential_campaign",
    "differential_correction",
    "estimate_start",
    "generate_pilot",
    "inside_triangle",
    "load_config",
    "los_photon_rate",
    "measurement_from_times",
    "misdetect_prob_cross_symbol",
    "misdetect_prob_within_symbol",
    "parse_config",
    "positioning_mse",
    "power_sweep",
    "ranges",
    "render_frame",
    "run_campaign",
    "run_point",
    "serialize_config",
    "solve_position",
    "sync_mse_bound",
    "sync_mse_empirical",
    "synchronize_frame",
    "theory_points",
]
