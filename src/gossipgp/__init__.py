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
# loads. Loading scipy's first lets that overlap the imports below, not the
# first epoch of a run.
from . import _lapack  # noqa: F401

# numpy loads these two on first use; loading them with the package keeps
# that cost out of a run.
import numpy.ma  # noqa: F401  np.unique, which harness.streams calls, reads it
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
