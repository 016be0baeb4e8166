"""LMMSE channel estimation for RIS-assisted multi-user uplink systems.

The package covers the full chain: correlated Rician channel modelling,
Hadamard-based RIS training with orthogonal pilots, closed-form moments of
the cascaded channel, conventional and grouping-based linear estimators
including the correlation-aware grouped LMMSE (the LMMSE of the grouped
training), and a reproducible Monte Carlo sweep engine with a CSV-emitting
CLI.
"""

from .channel import (
    ChannelRealization,
    ChannelSampler,
    ChannelStatistics,
    FadingParams,
    SystemGeometry,
    build_statistics,
    bs_los_vectors,
    element_distance,
    exp_correlation_matrix,
    path_loss,
    ris_steering_vector,
)
from .errors import ConfigurationError, DomainError, NumericalError
from .estimators import (
    AffineEstimator,
    EstimatorKind,
    asymptotic_mse,
    make_estimator,
)
from .moments import (
    MomentSet,
    build_moments,
    cov_ss,
    cov_uu,
    mean_s,
    observation_moments,
)
from .montecarlo import (
    SweepConfig,
    SweepEngine,
    SweepRow,
    received_snr_to_power,
    run_sweep,
)
from .scenario import (
    RunConfig,
    Scenario,
    SweepSettings,
    default_scenario,
    desk_scenario,
    load_config,
)
from .training import (
    ObservationSet,
    PatternOrthogonalityWarning,
    TrainingConfig,
    build_Z,
    hadamard,
    make_training_config,
    mixing_blocks,
    pilot_overhead,
    pilot_sequences,
    synthesize_received,
    training_patterns,
)

__version__ = "0.1.0"
