"""Horizontal calculus and verification tools on the Heisenberg groups H^d.

Graded coordinates with an explicit horizontal frame, gauge-radial
calculus with closed-form horizontal Hessians, extremal (Pucci-type)
operators, semiconvexity checkers along horizontal lines, and Monte-Carlo estimates that verify
the scaling behavior of a spliced gauge-power family near its critical
integrability exponent.  The package exports the union of its layer
modules' ``__all__``.
"""

__version__ = "0.1.0"

from . import calculus, catalog, convexity, estimates, group, pucci, report, rng
from .calculus import *
from .catalog import *
from .convexity import *
from .estimates import *
from .group import *
from .pucci import *
from .report import *
from .rng import *

__all__ = ["__version__"]
__all__ += group.__all__
__all__ += calculus.__all__
__all__ += pucci.__all__
__all__ += convexity.__all__
__all__ += catalog.__all__
__all__ += estimates.__all__
__all__ += report.__all__
__all__ += rng.__all__
