"""varfrac: variable-order fractional integration on [0, 1].

Evaluation of the integration operator with a point-dependent order,
boundedness and compactness diagnostics driven by the behavior of the order
near the endpoints, spectral discretization, and entropy-number bound
machinery with rate regression for the worked order families.

The package namespace is the union of the five modules' ``__all__`` lists.
"""

from . import core, diagnostics, entropy, orders, spectral
from .core import *  # noqa: F401,F403
from .diagnostics import *  # noqa: F401,F403
from .entropy import *  # noqa: F401,F403
from .orders import *  # noqa: F401,F403
from .spectral import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *orders.__all__,
    *core.__all__,
    *diagnostics.__all__,
    *spectral.__all__,
    *entropy.__all__,
]
