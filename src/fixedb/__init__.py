"""Resampling inference that stays valid at a fixed simulation budget.

The package builds confidence intervals, tests, and prediction sets
from B resampled statistics and quantifies, rather than assumes away,
the error of stopping at finite B: order-statistic index rules,
exact coverage brackets, distances between resampling schemes and
their idealized limits, and an enumeration oracle that certifies the
brackets on small discrete problems.

The package exports every name in the ``__all__`` of its submodules.
"""

from . import bounds, discrete, distances, errors, harness, oracle, orderstats, procedures, resampling
from .bounds import *  # noqa: F401,F403
from .discrete import *  # noqa: F401,F403
from .distances import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .harness import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403
from .orderstats import *  # noqa: F401,F403
from .procedures import *  # noqa: F401,F403
from .resampling import *  # noqa: F401,F403

__version__ = "0.1.0"

_MODULES = (errors, orderstats, distances, discrete, bounds, resampling, procedures, oracle, harness)
__all__ = ["__version__"] + [name for module in _MODULES for name in module.__all__]
