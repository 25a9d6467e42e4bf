"""fracsource: forward and inverse toolkit for time-fractional diffusion on
the unit disc with sources that are piecewise constant in time.

Boundary-flux observations at two sensor angles are synthesized from a
spectral closed form and the fractional order, the time mesh, and the spatial
source modes are reconstructed from those traces.
"""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    DomainError,
    FracsourceError,
    ValidationError,
)
from . import disc_spectrum, forward_model, inversion, laplace_model, specfun  # noqa: E402,F401
from . import config  # noqa: E402,F401
