"""Link-level simulator for OTFS-NOMA downlink and uplink transmission."""

from .common import (
    ConfigError,
    DomainMismatchError,
    EstimatorUndefinedError,
    McEstimate,
    SingularChannelError,
)
from .grid_channel import (
    ChannelProfile,
    ChannelRealization,
    Grid,
    make_grid,
    sample_realization,
    static_profile,
    table1_profile,
)
from .transforms import (
    BlockCirculantChannel,
    DiagonalizedChannel,
    Domain,
    Frame,
    build_block_circulant,
    diagonalize,
    isfft,
    nomauser_diagonalize,
    sfft,
)
from .equalizers import (
    DfeFactors,
    GenieFeedback,
    HardDecisionFeedback,
    PowerAllocation,
    cholesky_factors,
    fd_dfe_equalize,
    fd_dfe_sinrs,
    fd_le_equalize,
    fd_le_sinr,
)
from .downlink import (
    DetectionReport,
    DownlinkTxFrame,
    LinkConfig,
    build_tx_frame,
    noma_outage,
    noma_stage1,
    noma_stage2,
    u0_receive,
)
from .uplink import (
    adaptive_rate,
    closed_form_outage,
    error_floor,
    fixed_rate_outage_mc,
    floor_approx,
    uplink_stage1_sinr,
    uplink_stage2_sinrs,
    uplink_u0_outage,
)
from .scheduling import UserPool, greedy_schedule, per_subchannel_schedule, random_schedule
from .harness import (
    CurvePoint,
    ScenarioConfig,
    corollary1_outage,
    diversity_slope,
    emit_csv,
    parse_config_file,
    read_csv_points,
    run_scenario,
)

__version__ = "0.1.0"
