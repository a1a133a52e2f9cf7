"""Relative equilibria of the gravitational three-body problem on the
two-sphere under the cotangent potential.

Submodules: geometry (sphere primitives), potential (pair potentials),
dynamics (masses, meridian pulls, the backward error), integrator
(equations of motion, RK4, residual oracle), equator (closed-form
equatorial rotators), meridian (rotating-meridian solver), grid (the
sweep's grid counter), euler_limit (the flat-space limit), cli
(command-line interface), kernels (the reduced equation g).

Importing the package loads geometry, potential, dynamics, kernels and
meridian: what the meridian command runs, and no more. Each other module
is loaded by the command that runs it, so a process that solves on the
meridian never compiles it: equator by equator (and on first use of the
equator's names below, through a module __getattr__, PEP 562),
integrator by verify, grid by sweep, euler_limit by euler-limit.
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
