"""The public API is an explicit list: a name joins or leaves it only by
editing this snapshot, so an added import cannot silently become public."""

import onebitmimo

PUBLIC_NAMES = [
    "AccuracyError",
    "CapabilityError",
    "CouplingWitness",
    "DimensionError",
    "DomainError",
    "Estimate",
    "MseSweepResult",
    "NotPositiveDefiniteError",
    "OptimalityVerdict",
    "QuantizedObservation",
    "SecondOrderStats",
    "SingularMatrixError",
    "SweepConfig",
    "SweepRow",
    "SystemDims",
    "SystemModel",
    "TruncatedMeanResult",
    "bessel_tx_covariance",
    "blmmse_estimate",
    "blmmse_operator",
    "build_covariance",
    "build_pilot_model",
    "build_pilots",
    "build_point",
    "emit_results",
    "exponential_covariance",
    "is_blmmse_optimal",
    "mmse_estimate",
    "mmse_linear_operator",
    "observation_from_signs",
    "orthant_probability",
    "positive_orthant_mean",
    "quantize",
    "render_csv",
    "run_mse_sweep",
    "sample_realizations",
    "second_order_stats",
    "standardize",
]


def test_public_names_snapshot():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert onebitmimo.__all__ == PUBLIC_NAMES

