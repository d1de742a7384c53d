"""Channel estimation from one-bit quantized MIMO pilot observations.

Optimal (posterior-mean) and Bussgang-linear channel estimates from sign
quantized pilots, the Gaussian orthant machinery behind them, a structural
test for when the two coincide, and a Monte Carlo harness for
MSE-versus-SNR sweeps.
"""

import types

from .channel_models import bessel_tx_covariance, exponential_covariance
from .estimators import (
    Estimate,
    blmmse_estimate,
    blmmse_operator,
    mmse_estimate,
    mmse_linear_operator,
)
from .exceptions import (
    AccuracyError,
    CapabilityError,
    DimensionError,
    DomainError,
    NotPositiveDefiniteError,
    SingularMatrixError,
)
from .model import (
    SecondOrderStats,
    SystemDims,
    SystemModel,
    build_pilot_model,
    sample_realizations,
    second_order_stats,
)
from .optimality import CouplingWitness, OptimalityVerdict, is_blmmse_optimal
from .orthant import (
    TruncatedMeanResult,
    orthant_probability,
    positive_orthant_mean,
    standardize,
)
from .quantizer import (
    QuantizedObservation,
    observation_from_signs,
    quantize,
)
from .simulate import (
    MseSweepResult,
    SweepConfig,
    SweepRow,
    build_covariance,
    build_pilots,
    build_point,
    emit_results,
    render_csv,
    run_mse_sweep,
)

__version__ = "0.1.0"

# The public names are exactly the imports above.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
