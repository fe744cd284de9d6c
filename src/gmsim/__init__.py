"""Particle-system simulator and experiment harness for granular-media
mean-field dynamics: N-particle and projected systems, synchronous
couplings, Wasserstein and moment observables, and pre-built experiments
for contraction rates, propagation of chaos, and deviation bounds."""

# Only what is imported from the package itself: the tests' config builder
# reads parse_config, and the benchmark's self-test checks that its span
# tracer wraps the gmsim.drift binding.  dynamics comes first, so that numpy
# loads before config's standard-library modules: the other order measured
# about 20 ms (5 %) slower to start on a shared 2-core host.
from .dynamics import drift
from .config import parse_config

__all__ = ["drift", "parse_config"]
__version__ = "0.1.0"
