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

The quartic 1 - 2cz^2 + z^4 is the curve's p(z): ``_quartic`` reads it from
``families.QUARTIC`` and ``check_funde``'s row from ``families.curve_row``
when they run, so a patch to p reaches all three expansions and the ODE
check, which builds no series.  The prefactors (4cz^2 - 1, the Gegenbauer
bracket) and the ODE's right side stay typed.

Every expansion ends the same way: an odd series in z (the antiderivative,
or the Gegenbauer bracket) times z sqrt(1 - 2cz^2 + z^4), compared with the
family through z^order.  Both factors are cut to what z^order needs, so the
product is formed only through the compared order.  P-4's antiderivative and
its Gegenbauer bracket are the same series (the C_n^(3/2) generating function
integrated termwise), so the product goes through a two-entry
functools.lru_cache keyed by the operand values, and is formed once when both
P-4 routes run at one order; a bracket that differs is multiplied afresh.
The powers of the quartic go through one-entry caches keyed by the quartic's
value the same way: the three expansions at one order root the same quartic
and two of them raise it to the (-3/2), so each power is formed once, and a
different quartic, a tampered one included, is raised afresh.

The antiderivatives are taken with integration constant 0 and nothing is
pinned afterwards.  That is the right constant: z sqrt(...) is odd in z, the
antiderivative of an even integrand is odd, and so is the Gegenbauer bracket,
so any other constant adds a multiple of z sqrt(...) and shows up as a
nonzero odd coefficient.  The odd shifted entries of P-4 and P-2 are zero,
so such a coefficient is a mismatch that the comparison reports like any
other.  A nonzero z^-1 coefficient in an integrand (a logarithmic term) makes
LaurentSeries.integrate raise ResidueError, which is a VerificationError.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from . import families
from .exact import LaurentSeries, RationalPoly, shift_combination
from .families import FamilyId, IndexView, gegenbauer, get_family


class OracleResult(NamedTuple):
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
    """p(z) = 1 - 2c z^2 + z^4, read from families.QUARTIC, as a series known
    through z^trunc."""
    terms = families.QUARTIC.items()
    return LaurentSeries.from_terms({e: p_e for e, p_e in terms if e <= trunc}, trunc)


@functools.lru_cache(maxsize=1)
def _sqrt(quartic: LaurentSeries) -> LaurentSeries:
    """quartic.sqrt(), from the cache when the same quartic was just rooted."""
    return quartic.sqrt()


@functools.lru_cache(maxsize=1)
def _pow_neg_3_2(quartic: LaurentSeries) -> LaurentSeries:
    """quartic.pow_neg_3_2(), from the cache when the same quartic was just raised."""
    return quartic.pow_neg_3_2()


# In ``all`` the elliptic-2 product sits between P-4's two routes, so two
# entries let the Gegenbauer bracket find elliptic-1's product.
@functools.lru_cache(maxsize=2)
def _product(root: LaurentSeries, odd: LaurentSeries) -> LaurentSeries:
    """root * odd, from the cache when an equal pair was multiplied recently."""
    return root * odd


def _compare(odd_series: LaurentSeries, family_id: FamilyId, order: int) -> OracleResult:
    """z sqrt(1 - 2cz^2 + z^4) * odd_series against the family through z^order.

    The odd series is cut to z^(order-1) and z sqrt(...) is built through
    z^max(order - lowest order of the odd series, order + 1): far enough for
    the product to be known through z^order exactly and no further, and from
    the same quartic for every expansion at one order.
    """
    odd = odd_series.truncate(order - 1)
    trunc = max(order - odd.lowest_order, order + 1)
    series = _product(_sqrt(_quartic(trunc - 1)).shift(1), odd)
    fam = get_family(family_id)
    first_bad = None
    for n in range(order + 1):
        if series.coefficient(n) != fam.shifted(n):
            first_bad = n
            break
    return OracleResult(
        family=family_id,
        truncation=order,
        series=series,
        matched=first_bad is None,
        first_mismatch=first_bad,
    )


def expand_elliptic1(order: int) -> OracleResult:
    """Rebuild the P-4 family from its elliptic-integral generating function."""
    if order < 4:
        raise ValueError("order must be >= 4")
    prefactor = LaurentSeries.from_terms(
        {-2: RationalPoly.constant(-1), 0: RationalPoly((0, 4))}, order
    )
    integrand = prefactor * _pow_neg_3_2(_quartic(order))
    return _compare(integrand.integrate(), FamilyId.P4, order)


def expand_elliptic2(order: int) -> OracleResult:
    """Rebuild the P-2 family from its elliptic-integral generating function."""
    if order < 2:
        raise ValueError("order must be >= 2")
    integrand = _pow_neg_3_2(_quartic(order))
    return _compare(integrand.integrate(), FamilyId.P2, order)


def expand_gegenbauer_sum(order: int) -> OracleResult:
    """Rebuild the P-4 family from its Gegenbauer-sum expansion,

        z sqrt(1-2cz^2+z^4) ( sum_n 4c C_n^(3/2) z^{2n+1} / (2n+1)
                              - sum_n C_n^(3/2) z^{2n-1} / (2n-1) ).

    The bracket's z^-1 coefficient is 1, and its z^{2m+1} coefficient is
    (4c C_m - C_{m+1}) / (2m+1); it is built through z^(order-1), all that
    the comparison reads.
    """
    if order < 4:
        raise ValueError("order must be >= 4")
    lam = Fraction(3, 2)
    terms = {-1: RationalPoly.one()}
    for m in range(order // 2):
        terms[2 * m + 1] = shift_combination(
            gegenbauer(lam, m), 4, gegenbauer(lam, m + 1), -1, 2 * m + 1
        )
    bracket = LaurentSeries.from_terms(terms, order - 1)
    return _compare(bracket, FamilyId.P4, order)


def _funde_lhs(members: Sequence[RationalPoly], m: int) -> RationalPoly:
    """The z^m coefficient of check_funde's left side at P = sum_n members[n] z^n:
    -1/2 the curve's row at 1 - m against members[m - e]."""
    total = RationalPoly.zero()
    for e, weight in families.curve_row(1 - m).items():
        if e <= m:
            total = total + members[m - e] * (weight * Fraction(-1, 2))
    return total


def check_funde(order: int, family_id: FamilyId) -> bool:
    """Verify the first-order ODE in z that every generating function solves:

        z p(z) dP/dz - (p(z) + z p'(z) / 2) P
            = 2 (P_{-1} + c P_{-3}) z^3 + P_{-2} z^2 + (4cz^2 - 1) P_{-4},

    with the left side's p(z) = 1 - 2cz^2 + z^4 read from families.QUARTIC
    and the right side typed, at P_{-j} = 1 for family P-j and 0 for the
    other three, read from family_id and never from the members, so a wrong
    seed fails.  Checked coefficientwise through z^order, the left side's
    z^m coefficient as the row ``_funde_lhs``.
    """
    family_id = FamilyId(family_id)
    if order < 8:
        raise ValueError("order must be >= 8")
    members = families.generate(family_id, IndexView.SHIFTED, order)
    # P_{-4}, P_{-3}, P_{-2}, P_{-1}, in FamilyId order
    p4, p3, p2, p1 = (int(fid is family_id) for fid in FamilyId)
    rhs = {0: (-p4,), 2: (p2, 4 * p4), 3: (2 * p1, 2 * p3)}
    return all(_funde_lhs(members, m) == RationalPoly(rhs.get(m, ())) for m in range(order + 1))
