"""Relative equilibria of the gravitational three-body problem on the
two-sphere under the cotangent potential.

Submodules: geometry (sphere primitives), potential (pair potentials),
dynamics (equations of motion, integrator, residual oracles), equator
(closed-form equatorial rotators), meridian (rotating-meridian solver),
euler_limit (the flat-space limit), cli (command-line interface),
kernels (the reduced equation g).

Importing the package does not import equator or euler_limit, so a
process that solves on the meridian never compiles them: the equator's
names below are looked up on first use (a module __getattr__, PEP 562),
and euler_limit is imported by the euler-limit command alone.
"""

from . import kernels
from .dynamics import MassTriple
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


def __getattr__(name: str):
    if name in ("EquatorSolution", "NoEquatorSolution", "solve_equator"):
        from . import equator

        return getattr(equator, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
