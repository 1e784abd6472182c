"""Exact-arithmetic laboratory for polynomial orbit return sets.

Given a polynomial self-map of affine space, a starting point and a
target subvariety, the package computes the set of iterate indices
landing on the target, measures how dense that set is through exact
sliding-window ratios, mines it for full arithmetic progressions, and
backs each progression with algebraic evidence: Zariski closures of
the sampled sub-orbits via vanishing ideals, self-map invariance
certificates, and a dimension-based case split that either certifies
a whole progression or derives a smaller instance to recurse on.

All arithmetic is exact, over QQ, GF(p) or GF(p)(t); reports are
deterministic JSON.  See :mod:`dmlab.experiment` for the file format
and :mod:`dmlab.cli` for the command line.
"""

from .closures import *
from .density import *
from .experiment import *
from .exprparse import *
from .fields import *
from .ideals import *
from .multipoly import *
from .orbits import *

__version__ = "0.1.0"

__all__ = (
    closures.__all__
    + density.__all__
    + experiment.__all__
    + exprparse.__all__
    + fields.__all__
    + ideals.__all__
    + multipoly.__all__
    + orbits.__all__
)
