"""Link-level simulator for OTFS-NOMA downlink and uplink transmission."""

from .grid_channel import ChannelProfile, table1_profile
from .equalizers import PowerAllocation
from .uplink import closed_form_outage, error_floor, floor_approx
from .harness import (
    ConfigError,
    CurvePoint,
    EstimatorUndefinedError,
    McEstimate,
    ScenarioConfig,
    corollary1_outage,
    diversity_slope,
    emit_csv,
    parse_config_file,
    read_csv_points,
    run_scenario,
)

__version__ = "0.1.0"
