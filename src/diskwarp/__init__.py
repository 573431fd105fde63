"""Geodesic warps between conformal maps of the unit disk.

The package discretizes paths of truncated Taylor polynomials, evaluates the
Sobolev kinetic energy over the disk exactly in the coefficients, and solves
two-point geodesic problems by minimizing the resulting discrete action.
Closed-form reference dynamics for linear maps and mesh-warp exporters are
included; the ``diskwarp`` command drives batch experiments.

The public API is the ``__all__`` of the five modules re-exported below; each
public name is listed there and nowhere else.
"""

from . import action, errors, linear_geodesics, poly, solver
from .action import *
from .errors import *
from .linear_geodesics import *
from .poly import *
from .solver import *

__version__ = "0.1.0"

__all__ = [*action.__all__, *errors.__all__, *linear_geodesics.__all__, *poly.__all__,
           *solver.__all__]
