"""Particle-system simulator and experiment harness for granular-media
mean-field dynamics: N-particle and projected systems, synchronous
couplings, Wasserstein and moment observables, and pre-built experiments
for contraction rates, propagation of chaos, and deviation bounds."""

from .potentials import (
    Potential,
    ConditionReport,
    power_law,
    quadratic,
    uniform_plus_bump,
    zero,
    sampled,
    check_condition_C,
    check_convexity_at_infinity,
    check_polynomial_growth,
)
from .dynamics import (
    BrownianSource,
    InitialLaw,
    StepPolicy,
    drift,
    IntegrationError,
)
from .metrics import (
    moment,
    wasserstein_1d,
    assignment_exact,
    exp_square_moment,
    exp_square_moment_bound,
)
from .config import SimConfig, parse_config, canonical_text, config_hash, ConfigError

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
