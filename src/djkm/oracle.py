"""Independent reconstruction of the even families from generating functions.

The P-4 and P-2 families have closed generating functions

    P_{-4}(c,z) = z sqrt(1 - 2cz^2 + z^4) * Int (4cz^2 - 1) / (z^2 (z^4 - 2cz^2 + 1)^{3/2}) dz
    P_{-2}(c,z) = z sqrt(1 - 2cz^2 + z^4) * Int 1 / (z^4 - 2cz^2 + 1)^{3/2} dz

and P_{-4}(c,z) also expands through Gegenbauer sums, because
(1 - 2cz^2 + z^4)^{-3/2} is itself the C_n^(3/2) generating function in z^2.
Expanding these exactly as Laurent series and integrating termwise rebuilds
the families by a route that never touches the recurrence, which makes the
two engines mutual oracles.  All comparisons are coefficient-exact; there is
no tolerance anywhere in this module.

The indefinite integrals determine the odd part of the result only up to a
multiple of z sqrt(1 - 2cz^2 + z^4).  The constant is pinned by requiring the
z^1 coefficient of the final series to vanish, which is what the vanishing
initial entries demand; for both integrals the construction is already even
in z, so the computed adjustment comes out 0 and is checked to be constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exact import LaurentSeries, RationalPoly, VerificationError
from .families import FamilyId, gegenbauer, get_family


@dataclass(frozen=True)
class OracleResult:
    family: FamilyId
    truncation: int
    series: LaurentSeries
    matched: bool
    first_mismatch: Optional[int]

    def to_json(self) -> dict:
        return {
            "family": self.family.value,
            "truncation": self.truncation,
            "matched": self.matched,
            "first_mismatch": self.first_mismatch,
            "series": self.series.to_json(),
        }


def _quartic(trunc: int) -> LaurentSeries:
    """1 - 2c z^2 + z^4 as a series known through z^trunc."""
    return LaurentSeries.from_terms(
        {0: RationalPoly.one(), 2: RationalPoly((0, -2)), 4: RationalPoly.one()},
        trunc,
    )


def _z_sqrt_quartic(trunc: int) -> LaurentSeries:
    return _quartic(trunc).sqrt().shift(1)


def _pin_odd_constant(series: LaurentSeries, z_sqrt: LaurentSeries) -> LaurentSeries:
    """Add the unique kappa * z sqrt(...) making the z^1 coefficient vanish."""
    kappa = -series.coefficient(1)
    if not kappa.is_constant():
        raise VerificationError("integration constant must be a scalar")
    if kappa.is_zero():
        return series
    return series + z_sqrt.scale(kappa)


def _compare(series: LaurentSeries, family_id: FamilyId, order: int) -> OracleResult:
    fam = get_family(family_id)
    first_bad = None
    for n in range(order + 1):
        if series.coefficient(n) != fam.shifted(n):
            first_bad = n
            break
    return OracleResult(
        family=family_id,
        truncation=order,
        series=series.truncate(order),
        matched=first_bad is None,
        first_mismatch=first_bad,
    )


def expand_elliptic1(order: int) -> OracleResult:
    """Rebuild the P-4 family from its elliptic-integral generating function."""
    if order < 4:
        raise ValueError("order must be >= 4")
    t = order + 4
    quart = _quartic(t)
    prefactor = LaurentSeries.from_terms(
        {-2: RationalPoly.constant(-1), 0: RationalPoly((0, 4))}, t
    )
    integrand = prefactor * quart.pow_neg_3_2()
    # The integrand is even in z, so no logarithmic term can appear.
    if not integrand.coefficient(-1).is_zero():
        raise VerificationError("elliptic-1 integrand has a nonzero z^-1 coefficient")
    z_sqrt = _z_sqrt_quartic(t)
    series = _pin_odd_constant(z_sqrt * integrand.integrate(), z_sqrt)
    return _compare(series, FamilyId.P4, order)


def expand_elliptic2(order: int) -> OracleResult:
    """Rebuild the P-2 family from its elliptic-integral generating function."""
    if order < 2:
        raise ValueError("order must be >= 2")
    t = order + 4
    integrand = _quartic(t).pow_neg_3_2()
    z_sqrt = _z_sqrt_quartic(t)
    series = z_sqrt * integrand.integrate()
    # Odd series times odd series: the product must be even outright.
    if any(not series.coefficient(n).is_zero() for n in range(1, order + 1, 2)):
        raise VerificationError("P-2 generating function must be even")
    return _compare(series, FamilyId.P2, order)


def expand_gegenbauer_sum(order: int) -> OracleResult:
    """Rebuild the P-4 family from its Gegenbauer-sum expansion,

        z sqrt(1-2cz^2+z^4) ( sum_n 4c C_n^(3/2) z^{2n+1} / (2n+1)
                              - sum_n C_n^(3/2) z^{2n-1} / (2n-1) ).
    """
    if order < 4:
        raise ValueError("order must be >= 4")
    t = order + 4
    inner = order + 1
    terms: dict = {}
    c4 = RationalPoly((0, 4))
    n = 0
    while 2 * n - 1 <= inner:
        q_n = gegenbauer(Fraction(3, 2), n)
        hi = 2 * n + 1
        if hi <= inner:
            terms[hi] = terms.get(hi, RationalPoly.zero()) + c4 * q_n * Fraction(1, hi)
        lo = 2 * n - 1
        terms[lo] = terms.get(lo, RationalPoly.zero()) - q_n * Fraction(1, lo)
        n += 1
    bracket = LaurentSeries.from_terms(terms, inner)
    z_sqrt = _z_sqrt_quartic(t)
    series = _pin_odd_constant(z_sqrt * bracket, z_sqrt)
    return _compare(series, FamilyId.P4, order)


def check_funde(order: int, family_id: FamilyId) -> bool:
    """Verify the first-order ODE in z that every generating function solves:

        (z^5 - 2cz^3 + z) dP/dz - (3z^4 - 4cz^2 + 1) P
            = 2 (P_{-1} + c P_{-3}) z^3 + P_{-2} z^2 + (4cz^2 - 1) P_{-4},

    with the right side specialized to the family's initial constants.
    Checked coefficientwise through z^order after clearing denominators.
    """
    family_id = FamilyId(family_id)
    if family_id not in (FamilyId.P4, FamilyId.P2):
        raise ValueError("generating-function ODE check covers P-4 and P-2")
    if order < 8:
        raise ValueError("order must be >= 8")
    fam = get_family(family_id)
    series = LaurentSeries(0, [fam.shifted(n) for n in range(order + 1)], order)
    poly_a = LaurentSeries.from_terms(
        {1: RationalPoly.one(), 3: RationalPoly((0, -2)), 5: RationalPoly.one()},
        order + 5,
    )
    poly_b = LaurentSeries.from_terms(
        {0: RationalPoly.one(), 2: RationalPoly((0, -4)), 4: RationalPoly.constant(3)},
        order + 5,
    )
    lhs = poly_a * series.differentiate() - poly_b * series
    if family_id is FamilyId.P4:
        rhs = LaurentSeries.from_terms(
            {0: RationalPoly.constant(-1), 2: RationalPoly((0, 4))}, order
        )
    else:
        rhs = LaurentSeries.from_terms({2: RationalPoly.one()}, order)
    # agrees_with raises if either side is not actually known through z^order
    return lhs.agrees_with(rhs, upto=order)
