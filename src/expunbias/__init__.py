"""Provably unbiased estimators for functionals of the exponential rate.

The closed-form catalogue (``estimators``) covers rate powers, quantiles,
moments, survival probabilities, max/min functionals, the density, mean past
lifetime, the MGF and expected shortfall, next to the historically biased
1959 estimators for contrast; the ``laplace`` engine extends the
construction to arbitrary smooth user-supplied functionals by numerical
inverse Laplace transforms; ``oracle`` certifies by quadrature that the
corrected estimators are unbiased and that the 1959 ones carry their exact
bias; ``montecarlo`` adds seeded simulation and CLT diagnostics, which
standardise by the paper's limit variance (lambda xi'(lambda))^2.
"""

__version__ = "0.1.0"

from .errors import (ConfigurationError, DegenerateError, DomainError,
                     ExpunbiasError, InversionError, QuadratureError,
                     RangeError, SpecError, UnsupportedTransformError)
from .estimators import (EstimateResult, Family, FunctionalSpec, Kind, Sample,
                         closed_form_variance_mle,
                         closed_form_variance_unbiased, estimate,
                         expected_shortfall, max_cdf_power,
                         mean_past_lifetime, mgf, min_survival, mle_estimate,
                         moment, pdf_at, phi_function, quantile, rate_power,
                         survival, target_value, tate_estimate,
                         tate_expected_value)
from .laplace import (InversionConfig, InversionMethod, TransferFunction,
                      builtin_transfer_function, generic_phi,
                      generic_unbiased_estimate, invert_gaver_stehfest,
                      invert_talbot)
from .montecarlo import (McConfig, McSummary, asymptotic_variance, clt_check,
                         clt_replicates, clt_summary, empirical_bias,
                         sample_exponential, variance_comparison)
from .oracle import (VerificationReport, expectation, gamma_mean_density,
                     verify_row, verify_tate_bias, verify_unbiasedness)
from .special import log_gamma

__all__ = [
    "__version__",
    # errors
    "ExpunbiasError", "DomainError", "SpecError", "RangeError",
    "ConfigurationError", "UnsupportedTransformError", "InversionError",
    "QuadratureError", "DegenerateError",
    # estimators
    "Kind", "Family", "FunctionalSpec", "Sample", "EstimateResult",
    "target_value", "rate_power", "quantile", "moment", "survival",
    "max_cdf_power", "min_survival", "pdf_at", "mean_past_lifetime", "mgf",
    "expected_shortfall", "estimate", "mle_estimate", "phi_function",
    "closed_form_variance_unbiased", "closed_form_variance_mle",
    # laplace
    "TransferFunction", "InversionConfig", "InversionMethod",
    "invert_gaver_stehfest", "invert_talbot", "generic_unbiased_estimate",
    "generic_phi", "builtin_transfer_function",
    # oracle
    "VerificationReport", "gamma_mean_density", "expectation",
    "verify_unbiasedness", "tate_estimate", "tate_expected_value",
    "verify_tate_bias", "verify_row",
    # special functions
    "log_gamma",
    # monte carlo
    "McConfig", "McSummary", "sample_exponential", "empirical_bias",
    "variance_comparison", "asymptotic_variance", "clt_replicates",
    "clt_summary", "clt_check",
]
