"""Bayesian wavelet shrinkage with a generalized secant hyperbolic slab prior."""

__version__ = "0.1.0"

from .dwt import (WaveletDecomposition, WaveletFilter, daubechies_filter,
                  forward, inverse)
from .elicitation import (ElicitationConfig, ElicitedHyperparams, alpha_level,
                          elicit_all, elicit_t, estimate_sigma, sample_kurtosis)
from .experiments import (AmseRecord, ExperimentConfig, denoise,
                          denoise_detailed, mse, run_experiment,
                          sure_threshold, universal_threshold)
from .gsh_prior import (GshParams, ShrinkagePrior, gsh_cdf, gsh_constants,
                        gsh_density, gsh_kurtosis, gsh_log_density, gsh_quantile,
                        gsh_sample)
from .numerics import (DegenerateInputError, NumericalDomainError,
                       QuadratureSpec, SeededRng, expect_gaussian,
                       gauss_hermite_nodes, sample_normal)
from .risk_analysis import (BayesRiskEstimate, RiskCurve, bayes_risk,
                            risk_curve, rule_moments)
from .shrinkage import ShrinkageRule, shrink, shrink_array, shrink_vector
from .signals import (FUNCTION_NAMES, NoisySample, evaluate, make_noisy_sample,
                      sample_function, scale_to_snr)

__all__ = [
    "AmseRecord", "BayesRiskEstimate", "DegenerateInputError",
    "ElicitationConfig", "ElicitedHyperparams", "ExperimentConfig",
    "FUNCTION_NAMES", "GshParams", "NoisySample", "NumericalDomainError",
    "QuadratureSpec", "RiskCurve", "SeededRng", "ShrinkagePrior",
    "ShrinkageRule", "WaveletDecomposition", "WaveletFilter", "alpha_level",
    "bayes_risk", "daubechies_filter", "denoise", "denoise_detailed",
    "elicit_all", "elicit_t", "estimate_sigma", "evaluate", "expect_gaussian",
    "forward", "gauss_hermite_nodes", "gsh_cdf", "gsh_constants",
    "gsh_density", "gsh_kurtosis", "gsh_log_density", "gsh_quantile",
    "gsh_sample", "inverse",
    "make_noisy_sample", "mse", "risk_curve", "rule_moments", "run_experiment",
    "sample_function", "sample_kurtosis", "sample_normal", "scale_to_snr",
    "shrink", "shrink_array", "shrink_vector", "sure_threshold",
    "universal_threshold",
]
