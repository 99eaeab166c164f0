"""DCO-OFDM free-space-optical integrated sensing and communication toolkit."""

from .config import SPEED_OF_LIGHT, OfdmConfig
from .channel import ChannelState, LinkParams, sample_turbulence, scintillation_index, stationary_gains
from .clipping import (
    ClippingStats,
    SnrProfile,
    bussgang_gain,
    clip_moments,
    clipping_psd,
    compute_clipping_stats,
    signal_autocorrelation,
    snr_profiles,
)
from .metrics import MetricReport, crb_distance, fisher_information, metric_report, spectral_efficiency, varsigma_sq_from_precision
from .ofdm import FrequencyGrid, TimeSignal, generate_frame, to_time_domain
from .allocator import (
    AllocationSolution,
    DivergenceAborted,
    DualIterationError,
    DualVariables,
    InfeasibleProblem,
    ProblemSpec,
    dual_iterate_comm,
    dual_iterate_sense,
    sensing_lp,
    solve_bias,
    solve_p1,
    solve_p2,
    waterfill_comm,
)
from .system import SystemModel

__version__ = "0.1.0"
