"""Relative equilibria of the gravitational three-body problem on the
two-sphere under the cotangent potential.

Submodules: geometry (sphere primitives), potential (pair potentials),
dynamics (equations of motion, integrator, residual oracles), equator
(closed-form equatorial rotators), meridian (rotating-meridian solver),
cli (command-line interface), kernels (the reduced equation g).
"""

from . import kernels
from .dynamics import MassTriple
from .equator import EquatorSolution, NoEquatorSolution, solve_equator
from .geometry import SpherePoint, SphereRadius
from .meridian import (
    MeridianSolution,
    Shape,
    find_meridian_rotators,
)
from .potential import cotangent_potential, repulsive

__version__ = "1.0.0"
__all__ = [
    "MassTriple",
    "SpherePoint",
    "SphereRadius",
    "EquatorSolution",
    "NoEquatorSolution",
    "solve_equator",
    "MeridianSolution",
    "Shape",
    "find_meridian_rotators",
    "cotangent_potential",
    "repulsive",
    "kernels",
    "__version__",
]
