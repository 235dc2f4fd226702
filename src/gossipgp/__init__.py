"""Decentralized Gaussian process regression with random Fourier features.

The model keeps a Gaussian posterior over random-feature weights in
information form (precision matrix and information vector), which makes
Bayesian updates additive: a network of agents can reconstruct the
centralized posterior by summing their local update increments via gossip.
On top of that sit robust residual reweighing, forgetting schemes for
drifting targets, and evidence-weighted hyperparameter ensembles.

The package exports each module's __all__; the modules list their names.
"""

# OpenBLAS's worker threads busy-wait for about 0.1 s after the library
# loads. Loading scipy's early (after numpy's: the other order doubled the
# spin) lets that overlap the imports below, not the first epoch of a run.
from . import _lapack  # noqa: F401

# numpy loads numpy.random on first use; loading it here keeps that out of a run.
import numpy.random  # noqa: F401  features, ensemble and harness.streams draw from it

from . import features, info_filter, robust, dynamics, consensus, ensemble
from .features import *  # noqa: F401,F403
from .info_filter import *  # noqa: F401,F403
from .robust import *  # noqa: F401,F403
from .dynamics import *  # noqa: F401,F403
from .consensus import *  # noqa: F401,F403
from .ensemble import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *features.__all__, *info_filter.__all__, *robust.__all__,
    *dynamics.__all__, *consensus.__all__, *ensemble.__all__, "__version__",
]
