"""levyflow: simulation and verification lab for matrix stochastic exponentials.

The package samples matrix-valued Levy processes L, solves the multiplicative
SDE dX = X_- dL by exact product formulas or an Euler-type product scheme,
and provides estimators and certificates for the asymptotic theory of the
resulting random matrix products: determinant characteristics, Lyapunov
exponents, CLT/Berry-Esseen diagnostics, projective invariant measures, and
irreducibility/proximality certification.
"""

__version__ = "0.1.0"

# the package exports each module's public names, listed once in its __all__
from .levy_model import *  # noqa: F401,F403
from .path_sampler import *  # noqa: F401,F403
from .determinant import *  # noqa: F401,F403
from .projective import *  # noqa: F401,F403
from .limits import *  # noqa: F401,F403
from .geometry import *  # noqa: F401,F403
from . import determinant, geometry, levy_model, limits, path_sampler, projective

__all__ = ["__version__"] + [
    name for module in (levy_model, path_sampler, determinant, projective, limits, geometry)
    for name in module.__all__
]
