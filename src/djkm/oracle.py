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

Every expansion ends the same way: an odd series in z (the antiderivative,
or the Gegenbauer bracket) times z sqrt(1 - 2cz^2 + z^4), compared with the
family through z^order.  The antiderivatives are taken with integration
constant 0 and nothing is pinned afterwards.  That is the right constant:
z sqrt(...) is odd in z, the antiderivative of an even integrand is odd, and
so is the Gegenbauer bracket, so any other constant adds a multiple of
z sqrt(...) and shows up as a nonzero odd coefficient.  The odd shifted
entries of P-4 and P-2 are zero, so such a coefficient is a mismatch that the
comparison reports like any other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exact import LaurentSeries, RationalPoly, VerificationError, shift_combination
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


def _compare(odd_series: LaurentSeries, family_id: FamilyId, order: int) -> OracleResult:
    """z sqrt(1 - 2cz^2 + z^4) * odd_series against the family through z^order."""
    series = _z_sqrt_quartic(order + 4) * odd_series
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


def _antiderivative(integrand: LaurentSeries, name: str) -> LaurentSeries:
    # The integrand is even in z, so no logarithmic term can appear.
    if not integrand.coefficient(-1).is_zero():
        raise VerificationError(f"{name} integrand has a nonzero z^-1 coefficient")
    return integrand.integrate()


def expand_elliptic1(order: int) -> OracleResult:
    """Rebuild the P-4 family from its elliptic-integral generating function."""
    if order < 4:
        raise ValueError("order must be >= 4")
    t = order + 4
    prefactor = LaurentSeries.from_terms(
        {-2: RationalPoly.constant(-1), 0: RationalPoly((0, 4))}, t
    )
    integrand = prefactor * _quartic(t).pow_neg_3_2()
    return _compare(_antiderivative(integrand, "elliptic-1"), FamilyId.P4, order)


def expand_elliptic2(order: int) -> OracleResult:
    """Rebuild the P-2 family from its elliptic-integral generating function."""
    if order < 2:
        raise ValueError("order must be >= 2")
    integrand = _quartic(order + 4).pow_neg_3_2()
    return _compare(_antiderivative(integrand, "elliptic-2"), FamilyId.P2, order)


def expand_gegenbauer_sum(order: int) -> OracleResult:
    """Rebuild the P-4 family from its Gegenbauer-sum expansion,

        z sqrt(1-2cz^2+z^4) ( sum_n 4c C_n^(3/2) z^{2n+1} / (2n+1)
                              - sum_n C_n^(3/2) z^{2n-1} / (2n-1) ).

    The bracket's z^-1 coefficient is 1, and its z^{2m+1} coefficient is
    (4c C_m - C_{m+1}) / (2m+1).
    """
    if order < 4:
        raise ValueError("order must be >= 4")
    lam = Fraction(3, 2)
    terms = {-1: RationalPoly.one()}
    for m in range((order + 2) // 2):
        w = Fraction(1, 2 * m + 1)
        terms[2 * m + 1] = shift_combination(
            gegenbauer(lam, m), 4 * w, gegenbauer(lam, m + 1), -w
        )
    bracket = LaurentSeries.from_terms(terms, order + 1)
    return _compare(bracket, FamilyId.P4, order)


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
