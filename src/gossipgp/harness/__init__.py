"""Simulation harness: streams, scenario configs, the epoch loop, metrics, CLI.

The package exports each module's __all__; the modules list their names.
"""

from . import streams, metrics, config, runner
from .streams import *  # noqa: F401,F403
from .metrics import *  # noqa: F401,F403
from .config import *  # noqa: F401,F403
from .runner import *  # noqa: F401,F403

__all__ = [*streams.__all__, *metrics.__all__, *config.__all__, *runner.__all__]
