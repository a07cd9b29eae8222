"""Closed-form planar reference values: the disk, the ellipse at p = 2,
family ratio bounds, and the inequality-corridor endpoint constants.

Everything here is exact analytic evaluation in double precision; the
functions double as standalone calculators and as oracles for the finite
element solver. Quantities near p = 1 are computed through exp/log to
avoid overflow in the (2p-1)/(p-1) prefactor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidDomainError


def _check_p(p: float) -> None:
    if not p > 1.0:
        raise InvalidDomainError(f"exponent p must satisfy p > 1, got {p}")


def prefactor(p: float) -> float:
    """((2p-1)/(p-1))^(p-1), the constant in the rigidity corridor bounds.

    Tends to 1 as p -> 1+ and grows like sqrt(e) 2^(p-1) for large p;
    evaluated as exp((p-1) log((2p-1)/(p-1))).
    """
    _check_p(p)
    return math.exp((p - 1.0) * math.log((2.0 * p - 1.0) / (p - 1.0)))


def ball_normalized_rigidity(p: float, R: float = 1.0) -> float:
    """Normalized rigidity of the disk of radius R: 2 (2 + p/(p-1))^(p-1) / R^p."""
    _check_p(p)
    if R <= 0.0:
        raise InvalidDomainError("disk needs R > 0")
    p_conj = p / (p - 1.0)
    log_val = math.log(2.0) + (p - 1.0) * math.log(2.0 + p_conj) - p * math.log(R)
    return math.exp(log_val)


def ball_torsion_integral(p: float, R: float = 1.0) -> float:
    """Torsion integral T_p of the disk: |B| * T(p; B)^(-1/(p-1))."""
    t_norm = ball_normalized_rigidity(p, R)
    volume = math.pi * R**2
    return volume * math.exp(-math.log(t_norm) / (p - 1.0))


def ellipse_rigidity_p2(a: float, b: float) -> tuple[float, float]:
    """Exact p = 2 values for the ellipse with semi-axes a >= b:

    T_2 = pi a^3 b^3 / (4 (a^2 + b^2)) and Q_2 = (2/sqrt(3)) sqrt(1 + (b/a)^2).
    """
    if b <= 0.0 or a < b:
        raise InvalidDomainError("ellipse needs a >= b > 0 (normalize axes upstream)")
    t2 = math.pi * a**3 * b**3 / (4.0 * (a * a + b * b))
    q2 = (2.0 / math.sqrt(3.0)) * math.sqrt(1.0 + (b / a) ** 2)
    return t2, q2


@dataclass(frozen=True)
class GammaBound:
    """Worst-case ratio min Q / max Q over a model family.

    `exact` distinguishes an exact family value (ellipses at p = 2) from a
    proven lower bound (rectangles, triangles).
    """

    value: float
    exact: bool


def family_gamma_bound(family: str, kappa: float | None = None) -> GammaBound:
    """Ratio bound for a model family.

    rectangle(kappa):  >= kappa/(kappa+2), kappa >= 2
    ellipse_p2(kappa): = (1/sqrt(2)) sqrt(1 + 1/kappa^2) exactly, kappa >= 1
    triangle: >= 1/2
    """
    if family == "rectangle":
        if kappa is None or kappa < 2.0:
            raise InvalidDomainError("rectangle family needs kappa >= 2")
        return GammaBound(kappa / (kappa + 2.0), exact=False)
    if family == "ellipse_p2":
        if kappa is None or kappa < 1.0:
            raise InvalidDomainError("ellipse family needs kappa >= 1")
        return GammaBound(math.sqrt(1.0 + 1.0 / kappa**2) / math.sqrt(2.0), exact=True)
    if family == "triangle":
        return GammaBound(0.5, exact=False)
    raise InvalidDomainError(
        f"unknown family {family!r}; expected rectangle, ellipse_p2 or triangle"
    )


@dataclass(frozen=True)
class CorridorBounds:
    """Endpoint constants of the rigidity corridors for one domain.

    All bounds apply to the normalized rigidity T(p; .): hp_lower from the
    inradius, buser_upper from perimeter/area, buser_inradius_upper from the
    inradius alone, delta_lower/delta_upper from the average distance, and
    geo_upper = R P / area bounding the Q functional window [1, geo_upper).
    """

    hp_lower: float
    buser_upper: float
    buser_inradius_upper: float
    delta_lower: float
    delta_upper: float
    geo_upper: float


def corridor_endpoints(
    p: float, R: float, P: float, area: float, delta: float
) -> CorridorBounds:
    _check_p(p)
    if min(R, P, area, delta) <= 0.0:
        raise InvalidDomainError("corridor endpoints need positive measures")
    pref = prefactor(p)
    return CorridorBounds(
        hp_lower=pref / R**p,
        buser_upper=pref * (P / area) ** p,
        buser_inradius_upper=pref * (2.0 / R) ** p,
        delta_lower=pref / (3.0 * delta) ** p,
        delta_upper=pref * (1.0 / delta) ** p,
        geo_upper=R * P / area,
    )
