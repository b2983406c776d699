"""Linear differential operators in c and exact residual verification.

An operator is a finite list of RationalPoly coefficients f_i representing
sum_i f_i (d/dc)^i.  Residuals are exact polynomials: "annihilates" always
means the residual is literally the zero polynomial, never a small norm.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, NamedTuple, Optional, Tuple, Union

from .exact import Rational, RationalPoly, diff_combination, specialise, table_combinations
from .families import FamilyId, IndexView, get_family


class LinearDiffOp(NamedTuple):
    """sum_i coeffs[i] * (d/dc)^i with RationalPoly coefficients."""

    coeffs: Tuple[RationalPoly, ...]

    def apply(self, p: RationalPoly) -> RationalPoly:
        return diff_combination(self.coeffs, p)

    def scale(self, factor) -> "LinearDiffOp":
        return LinearDiffOp(tuple(p * factor for p in self.coeffs))


def build_gegenbauer_op(lam: Union[Rational, int], n: int) -> LinearDiffOp:
    """(1 - c^2) D^2 - (2 lam + 1) c D + n (n + 2 lam)."""
    lam = Fraction(lam)
    return LinearDiffOp(
        (
            RationalPoly.constant(n * (n + 2 * lam)),
            RationalPoly.monomial(-(2 * lam + 1), 1),
            RationalPoly((1, 0, -1)),
        )
    )


# Each family operator as a table in Z[c, n]: row i holds the c-coefficients
# of f_i, lowest power first, and each c-coefficient is an integer polynomial
# in n, lowest power first.  The builders specialise a table at one n.
CASE3_TABLE = ((-2,), (), (0, 1, -1)), ((), (2,), (), (2,)), ((), (), (-1,), (), (1,))
CASE4_TABLE = ((2, 1, -1),), ((), (4,)), ((-1,), (), (1,))
ELLIPTIC1_TABLE = (
    ((0, 0, 16, -8, 1),),
    ((), (144, 96, -24)),
    ((-176, -32, 8), (), (368, 32, -8)),
    ((), (-160,), (), (160,)),
    ((16,), (), (-32,), (), (16,)),
)
ELLIPTIC2_TABLE = (
    ((-48, 32, 8, -8, 1),),
    ((), (48, 96, -24)),
    ((-144, -32, 8), (), (336, 32, -8)),
    ((), (-160,), (), (160,)),
    ((16,), (), (-32,), (), (16,)),
)

#: Each family's ODE as (table, stride, offset, first), in FamilyId order:
#: the table's operator at n annihilates P at original index stride n +
#: offset for n >= first.  The builders, the sweeps and their order guards,
#: and ``battery.ode_rows`` read the row when they run, so one patch moves all.
ODES = {
    FamilyId.P4: (ELLIPTIC1_TABLE, 1, -4, 0),
    FamilyId.P3: (CASE4_TABLE, 2, -3, 2),
    FamilyId.P2: (ELLIPTIC2_TABLE, 1, -4, 0),
    FamilyId.P1: (CASE3_TABLE, 2, -3, 2),
}


def build_case3_op(n: int) -> LinearDiffOp:
    """Second-order annihilator of P_{-1, 2n-3} (original indexing), n >= 2:

        (c^4 - c^2) D^2 + 2c (c^2 + 1) D + (-c^2 n(n-1) - 2).
    """
    return LinearDiffOp(specialise(ODES[FamilyId.P1][0], n))


def build_case4_op(n: int) -> LinearDiffOp:
    """Second-order annihilator of P_{-3, 2n-3} (original indexing), n >= 2:

        (c^2 - 1) D^2 + 4c D - (n+1)(n-2).
    """
    return LinearDiffOp(specialise(ODES[FamilyId.P3][0], n))


def build_elliptic1_op(n: int) -> LinearDiffOp:
    """Fourth-order annihilator of P_{-4, n} (shifted indexing):

        16 (c^2-1)^2 D^4 + 160 c (c^2-1) D^3
        - 8 (c^2 (n^2-4n-46) - n^2+4n+22) D^2
        - 24 c (n^2-4n-6) D + (n-4)^2 n^2.
    """
    return LinearDiffOp(specialise(ODES[FamilyId.P4][0], n))


def build_elliptic2_op(n: int) -> LinearDiffOp:
    """Fourth-order annihilator of P_{-2, n} (shifted indexing):

        16 (c^2-1)^2 D^4 + 160 c (c^2-1) D^3
        - 8 (c^2 (n^2-4n-42) - n^2+4n+18) D^2
        - 24 c (n^2-4n-2) D + (n-6)(n-2)^2 (n+2).
    """
    return LinearDiffOp(specialise(ODES[FamilyId.P2][0], n))


def build_qform_op(n: int) -> LinearDiffOp:
    """The q_n-form rewrite of the P-4 fourth-order equation (q_n = P_{-4,2n+4}):

        (x^2-1)^2 D^4 + 10 x (x^2-1) D^3
        - (x^2 (2n^2+4n-23) - 2n^2-4n+11) D^2
        - 3 x (2n^2+4n-3) D + n^2 (n+2)^2.

    It is the elliptic-1 operator at 2n + 4, divided by 16.
    """
    return build_elliptic1_op(2 * n + 4).scale(Fraction(1, 16))


def build_wimp_op(
    n: int,
    alpha: Union[Rational, int],
    beta: Union[Rational, int],
    assoc_c: Union[Rational, int],
) -> LinearDiffOp:
    """Wimp's fourth-order operator for associated Jacobi polynomials,
    transcribed verbatim (including the suspect x-linear term inside A_2):

        A_0 = (1 - x^2)^2
        A_1 = 10 x (x^2 - 1)
        A_2 = -(1-x)^2 (2K + 2C + g^2 - 25) + 2 (1-x)(2K + 2C + 2 a g)
              + 2 (a + 1) - 26
        A_3 = 3 (1-x)(2K + 2C + g^2 - 5) - 6 (K + C + a g + b - 2)
        A_4 = n (n+2) (n + g + 2c)(n + g + 2c - 2)

    with g = a + b + 1, K = (n + c)(n + g + c), C = (c - 1)(c + a + b).
    No corrected form is substituted; the point is to compare it against
    build_qform_op on actual family members.
    """
    a = Fraction(alpha)
    b = Fraction(beta)
    cc = Fraction(assoc_c)
    g = a + b + 1
    big_k = (n + cc) * (n + g + cc)
    big_c = (cc - 1) * (cc + a + b)
    one_minus_x = RationalPoly((1, -1))
    a2 = (
        one_minus_x * one_minus_x * (-(2 * big_k + 2 * big_c + g * g - 25))
        + one_minus_x * (2 * (2 * big_k + 2 * big_c + 2 * a * g))
        + RationalPoly.constant(2 * (a + 1) - 26)
    )
    a3 = one_minus_x * (3 * (2 * big_k + 2 * big_c + g * g - 5)) + RationalPoly.constant(
        -6 * (big_k + big_c + a * g + b - 2)
    )
    a4 = RationalPoly.constant(n * (n + 2) * (n + g + 2 * cc) * (n + g + 2 * cc - 2))
    return LinearDiffOp(
        (
            a4,
            a3,
            a2,
            RationalPoly((0, -10, 0, 10)),
            RationalPoly((1, 0, -2, 0, 1)),
        )
    )


def eigencheck(
    op: LinearDiffOp, family_id: FamilyId, view: IndexView, n: int
) -> RationalPoly:
    """Residual of op on the requested family member; zero means verified."""
    return op.apply(get_family(family_id).member(view, n))


class OdeRow(NamedTuple):
    """One index of an ODE sweep: the member's exact residual and, for P-1
    only, whether the cross relation P_{-1,2n-3} = c P_{-3,2n-3} holds."""

    n: int
    member_zero: bool
    residual: RationalPoly
    identity: Optional[bool] = None

    @property
    def ok(self) -> bool:
        return self.residual.is_zero() and self.identity is not False


def ode_sweep(family_id: FamilyId, max_n: int) -> List[OdeRow]:
    """Exact residual of each family's ODE on every index through max_n.

    The family's row of ODES gives the operator table and the members it
    runs on: the table at n meets P at original index stride n + offset for
    n = first..max_n.  A stride-1 row walks every shifted index, so it meets
    the zero members of the other parity, whose residuals vanish vacuously;
    they are reported, not skipped, because the operator derivation excluded
    some odd n.  P-1 also checks the cross relation P_{-1,2n-3} = c
    P_{-3,2n-3} implied by the two closed forms, a claim about P-1 rather
    than about its row.  A max_n below the first index raises ValueError: an
    empty sweep checks nothing and must not pass.

    The sweep reads the row when it runs and applies the table at every n
    through ``table_combinations``, which equals ``build_*_op(n).apply``.
    """
    family_id = FamilyId(family_id)
    table, stride, offset, first = ODES[family_id]
    if max_n < first:
        raise ValueError(f"max_n must be >= {first} for the {family_id.value} sweep, got {max_n}")
    fam = get_family(family_id)
    # Generate the members in one run before the sweep: interleaving the
    # recurrence with the operator applications measured ~3 % slower.
    fam.original(stride * max_n + offset)
    points = [(n, fam.original(stride * n + offset)) for n in range(first, max_n + 1)]
    p3 = get_family(FamilyId.P3) if family_id is FamilyId.P1 else None
    rows = []
    for (n, m), residual in zip(points, table_combinations(table, points)):
        identity = None if p3 is None else m == p3.original(2 * n - 3).scale_shift(1, 1)
        rows.append(OdeRow(n, m.is_zero(), residual, identity))
    return rows


def fourth_order_sweep(
    family_id: FamilyId, max_shifted: int
) -> List[Tuple[int, bool, bool]]:
    """(n, member_is_zero, residual_is_zero) for each row of a fourth-order ode_sweep."""
    if len(ODES[FamilyId(family_id)][0]) - 1 != 4:
        raise ValueError("fourth-order sweep covers the families with a fourth-order ODE")
    rows = ode_sweep(family_id, max_shifted)
    return [(r.n, r.member_zero, r.residual.is_zero()) for r in rows]


def second_order_sweep(family_id: FamilyId, max_n: int) -> List[Tuple[int, bool]]:
    """(n, ok) for each row of a second-order ode_sweep; for P-1 a
    cross-relation failure counts as a failure at that n."""
    if len(ODES[FamilyId(family_id)][0]) - 1 != 2:
        raise ValueError("second-order sweep covers the families with a second-order ODE")
    return [(r.n, r.ok) for r in ode_sweep(family_id, max_n)]
