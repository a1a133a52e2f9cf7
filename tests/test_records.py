"""The record types: immutable named tuples, equal by value, built by
keyword with their defaults, and validated where they were before."""

import math

import pytest

from sphere3body import (dynamics, equator, euler_limit, geometry, integrator,
                         meridian, potential)
from sphere3body.dynamics import MassTriple
from sphere3body.integrator import Trajectory
from sphere3body.equator import ExistenceResult
from sphere3body.geometry import SpherePoint, SphereRadius
from sphere3body.meridian import Shape

import oracles


def _u(d2):
    return 1.0 / d2


# every record class with keyword arguments for all of its fields
RECORDS = {
    dynamics.MassTriple: dict(m1=3.0, m2=2.0, m3=1.0),
    integrator.SphericalState: dict(
        points=(SpherePoint(0.5, 0.0), SpherePoint(1.0, 0.0), SpherePoint(2.0, 0.0)),
        theta_dot=(0.0, 0.0, 0.0), phi_dot=(1.0, 1.0, 1.0)),
    integrator.AngularMomentum: dict(cx=0.5, cy=-0.25, cz=2.0),
    integrator.Trajectory: dict(
        times=(0.0, 0.5), thetas=((0.5, 1.0, 2.0),) * 2, phis=((0.0,) * 3,) * 2,
        theta_dots=((0.0,) * 3,) * 2, phi_dots=((1.0,) * 3,) * 2,
        c_drift=2e-15, error=None),
    geometry.SpherePoint: dict(theta=0.7, phi=1.1),
    geometry.SphereRadius: dict(R=2.5),
    potential.PairPotential: dict(u_prime=_u, radius=SphereRadius(2.0)),
    equator.ExistenceResult: dict(region=equator.EXTERIOR, violated="mu_3"),
    equator.EquatorSolution: dict(dphi_12=2.0, dphi_23=2.0, dphi_31=2.0 * math.pi - 4.0,
                                  rho=0.9, neg_potential_energy=1.5),
    oracles.AntipodalScanRow: dict(t=0.5, masses=MassTriple(3.5, 3.5, 1.0),
                                   neg_potential_energy=2.0, dphi_12=1.0,
                                   dphi_23=2.5, dphi_31=2.0 * math.pi - 3.5),
    meridian.Shape: dict(theta21=0.5, theta31=3.5),
    meridian.PairQuantities: dict(F12=1.0, F23=-2.0, F31=0.5, G12=0.25, G23=3.0,
                                  G31=-1.5),
    meridian.MeridianSolution: dict(
        x=3.5, shape=Shape(0.5, 3.5), thetas=(0.1, 0.6, 3.6), s=1,
        omega_squared=2.0, case_tag=meridian.CASE1, residual_max=1e-16, region="III"),
    oracles.RegionCounts: dict(I=1, II=2, III=1, IV=0),
    oracles.ExceptionalAngles: dict(which=meridian.CASE2, nu=2.0, sin_theta_pair=0.6,
                                    cos_theta_pair=0.8, sin_theta_other=0.8,
                                    cos_theta_other=-0.6),
    euler_limit.EulerLimitRow: dict(R=10.0, max_coeff_deviation=1e-3,
                                    root_deviation=2e-3),
    euler_limit.EulerLimitReport: dict(
        rows=[euler_limit.EulerLimitRow(10.0, 1e-3, 2e-3)], order_estimate=2.0,
        quintic_coefficients=[5.0, 13.0, 11.0, -5.0, -7.0, -3.0], quintic_root=0.8),
}

DEFAULTS = {
    SphereRadius: {"R": 1.0},
    potential.PairPotential: {"radius": SphereRadius()},
    ExistenceResult: {"violated": None},
    Trajectory: {"error": None},
}

PARAMS = [pytest.param(cls, kwargs, id=cls.__name__) for cls, kwargs in RECORDS.items()]


def test_every_record_class_is_listed():
    found = {
        obj for module in (dynamics, equator, euler_limit, geometry, integrator,
                           meridian, potential, oracles)
        for name, obj in vars(module).items()
        if isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "_fields")
        and not name.startswith("_") and obj.__module__ == module.__name__
    }
    assert found == set(RECORDS)


@pytest.mark.parametrize("cls,kwargs", PARAMS)
def test_built_by_keyword_with_every_field(cls, kwargs):
    rec = cls(**kwargs)
    assert set(cls._fields) == set(kwargs)
    assert all(getattr(rec, name) is value for name, value in kwargs.items())
    assert cls(*(kwargs[name] for name in cls._fields)) == rec


@pytest.mark.parametrize("cls,kwargs", PARAMS)
def test_defaults(cls, kwargs):
    # e.g. SphereRadius().R == 1.0 and ExistenceResult("interior").violated is None
    defaults = DEFAULTS.get(cls, {})
    assert cls._field_defaults == defaults
    rec = cls(**{k: v for k, v in kwargs.items() if k not in defaults})
    assert {k: getattr(rec, k) for k in defaults} == defaults


@pytest.mark.parametrize("cls,kwargs", PARAMS)
def test_immutable(cls, kwargs):
    rec = cls(**kwargs)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, kwargs[name])
    with pytest.raises(AttributeError):
        rec.other = 1.0
    assert rec == cls(**kwargs)


@pytest.mark.parametrize("cls,kwargs", PARAMS)
def test_equal_by_value(cls, kwargs):
    rec = cls(**kwargs)
    # new float objects in the float fields
    copy = cls(**{k: v * 1.0 if type(v) is float else v for k, v in kwargs.items()})
    assert rec == copy and not rec != copy
    name = next((k for k, v in kwargs.items() if type(v) is float), cls._fields[0])
    other = 2.0 * kwargs[name] + 1.0 if type(kwargs[name]) is float else "other"
    assert rec != rec._replace(**{name: other})


@pytest.mark.parametrize("cls,kwargs", [
    p for p in PARAMS if p.values[0] is not euler_limit.EulerLimitReport])
def test_hashable(cls, kwargs):
    # EulerLimitReport holds lists, so it never hashed
    assert hash(cls(**kwargs)) == hash(cls(**kwargs))


@pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0, math.inf])
@pytest.mark.parametrize("position", range(3))
def test_mass_triple_rejects(bad, position):
    m = [3.0, 2.0, 1.0]
    m[position] = bad
    with pytest.raises(ValueError, match="masses must be positive and finite"):
        MassTriple(*m)
    with pytest.raises(ValueError, match="masses must be positive and finite"):
        MassTriple(3.0, 2.0, 1.0)._replace(**{f"m{position + 1}": bad})


@pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0, math.inf])
def test_sphere_radius_rejects(bad):
    message = "sphere radius must be positive and finite"
    with pytest.raises(ValueError, match=message):
        SphereRadius(bad)
    with pytest.raises(ValueError, match=message):
        SphereRadius(R=bad)
    with pytest.raises(ValueError, match=message):
        SphereRadius()._replace(R=bad)


@pytest.mark.parametrize("built,given", [(1.0, 2.0), (1.0, 0.5), (2.0, 1.0)])
def test_pair_potential_rejects_a_radius_its_u_prime_was_not_built_for(built, given):
    cot = potential.cotangent_potential(SphereRadius(built))
    R = SphereRadius(given)
    message = "u_prime was built for"
    with pytest.raises(ValueError, match=message):
        potential.PairPotential(cot.u_prime, R)
    with pytest.raises(ValueError, match=message):
        potential.PairPotential(u_prime=cot.u_prime, radius=R)
    with pytest.raises(ValueError, match=message):
        cot._replace(radius=R)
    with pytest.raises(ValueError, match=message):
        potential.repulsive(cot)._replace(radius=R)
    if given == 1.0:  # the default radius
        with pytest.raises(ValueError, match=message):
            potential.PairPotential(cot.u_prime)
    # a u_prime that records no sphere takes any radius
    assert potential.PairPotential(_u)._replace(radius=R).radius == R


def test_sphere_radius_epsilon_is_exact():
    assert SphereRadius(4.0).epsilon == 0.125
    for R in (0.3, 1.0, 2.5, 1e-300, 1e300):
        assert SphereRadius(R).epsilon == 1.0 / (2.0 * R)
