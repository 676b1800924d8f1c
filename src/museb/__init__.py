"""Mutually unbiased entangled bases: construction, composition, certification.

States of C^d (x) C^d' are handled in matrix form throughout; see the
matspace module for the identification and README.md for a tour.  The
public names are exactly those in the submodules' __all__ lists.
"""

from . import compose, construct, errors, familyfile, matspace, search, trio, verify
from .compose import *  # noqa: F401,F403
from .construct import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .familyfile import *  # noqa: F401,F403
from .matspace import *  # noqa: F401,F403
from .search import *  # noqa: F401,F403
from .trio import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *compose.__all__,
    *construct.__all__,
    *errors.__all__,
    *familyfile.__all__,
    *matspace.__all__,
    *search.__all__,
    *trio.__all__,
    *verify.__all__,
]
