"""Differential-operator construction and exact residual verification."""

from fractions import Fraction as F

import pytest

from djkm import diffops
from djkm.diffops import (
    LinearDiffOp,
    build_case3_op,
    build_case4_op,
    build_elliptic1_op,
    build_elliptic2_op,
    build_gegenbauer_op,
    build_qform_op,
    build_wimp_op,
    eigencheck,
    fourth_order_sweep,
    ode_sweep,
    second_order_sweep,
)
from djkm.exact import RationalPoly, nullspace, table_combinations
from djkm.families import FamilyId, IndexView, gegenbauer, get_family

C = RationalPoly.variable()
ONE = RationalPoly.one()


# ---------------------------------------------------------------------------
# apply
# ---------------------------------------------------------------------------


def test_apply_derivative():
    d = LinearDiffOp((RationalPoly.zero(), ONE))
    assert d.apply(C * C) == 2 * C


def test_apply_identity():
    ident = LinearDiffOp((ONE,))
    p = RationalPoly([1, 2, 3])
    assert ident.apply(p) == p
    assert ident.apply(RationalPoly.zero()).is_zero()


def test_apply_gegenbauer_op_by_hand():
    # at n=1, lam=3/2 on Q_1 = 3c: (-4c)(3) + 4*3c = 0
    op = build_gegenbauer_op(F(3, 2), 1)
    assert op.apply(RationalPoly([0, 3])).is_zero()


def test_all_builders_respect_the_degree_profile():
    # deg f_i <= i holds for every operator with polynomial eigenfunctions,
    # Wimp's transcription included
    def profile_ok(op):
        return all(p.degree <= i for i, p in enumerate(op.coeffs))

    for n in (0, 2, 9):
        assert profile_ok(build_gegenbauer_op(F(3, 2), n))
        assert profile_ok(build_elliptic1_op(n))
        assert profile_ok(build_elliptic2_op(n))
        assert profile_ok(build_qform_op(n))
        assert profile_ok(build_wimp_op(n, -1, -1, F(3, 2)))
    for n in (2, 9):
        assert profile_ok(build_case4_op(n))
        # the case-3 operator lives on a weighted space; its c^4 D^2 term
        # legitimately breaks the classical profile
        assert not profile_ok(build_case3_op(n))


# The builders as hand-expanded from their docstring formulas, with plain
# RationalPoly arithmetic: the reference for the tables in Z[c, n].


def _case3_formula(n):
    return (
        RationalPoly((-2, 0, -n * (n - 1))),
        RationalPoly((0, 2, 0, 2)),
        RationalPoly((0, 0, -1, 0, 1)),
    )


def _case4_formula(n):
    return (
        RationalPoly.constant(-(n + 1) * (n - 2)),
        RationalPoly((0, 4)),
        RationalPoly((-1, 0, 1)),
    )


def _elliptic1_formula(n):
    s = n * n - 4 * n
    return (
        RationalPoly.constant((n - 4) ** 2 * n * n),
        RationalPoly.monomial(-24 * (s - 6), 1),
        RationalPoly((8 * s - 176, 0, -8 * (s - 46))),
        RationalPoly((0, -160, 0, 160)),
        RationalPoly((16, 0, -32, 0, 16)),
    )


def _elliptic2_formula(n):
    s = n * n - 4 * n
    return (
        RationalPoly.constant((n - 6) * (n - 2) ** 2 * (n + 2)),
        RationalPoly.monomial(-24 * (s - 2), 1),
        RationalPoly((8 * s - 144, 0, -8 * (s - 42))),
        RationalPoly((0, -160, 0, 160)),
        RationalPoly((16, 0, -32, 0, 16)),
    )


def _qform_formula(n):
    s = 2 * n * n + 4 * n
    return (
        RationalPoly.constant(n * n * (n + 2) ** 2),
        RationalPoly.monomial(-3 * (s - 3), 1),
        RationalPoly((s - 11, 0, -(s - 23))),
        RationalPoly((0, -10, 0, 10)),
        RationalPoly((1, 0, -2, 0, 1)),
    )


def test_table_builders_match_the_displayed_formulas():
    # == compares the canonical (numerators, denominator) pairs, so this also
    # catches a coefficient that vanishes at one n and is left as a trailing zero
    pairs = (
        (build_case3_op, _case3_formula),
        (build_case4_op, _case4_formula),
        (build_elliptic1_op, _elliptic1_formula),
        (build_elliptic2_op, _elliptic2_formula),
        (build_qform_op, _qform_formula),
    )
    for build, formula in pairs:
        for n in range(-8, 401):
            assert build(n).coeffs == formula(n), (build.__name__, n)


def test_operator_addition_and_scaling():
    b = LinearDiffOp((RationalPoly.zero(), ONE))
    scaled = b.scale(2)
    assert scaled.coeffs == (RationalPoly.zero(), 2 * ONE)
    assert scaled.apply(C * C) == 4 * C


# ---------------------------------------------------------------------------
# second-order operators
# ---------------------------------------------------------------------------


def test_gegenbauer_ode_annihilation():
    for n in range(101):
        assert build_gegenbauer_op(F(3, 2), n).apply(gegenbauer(F(3, 2), n)).is_zero()


def test_gegenbauer_ode_minus_half():
    # (1-c^2) D^2 + n(n-1) with no first-order term at lam = -1/2
    for n in range(101):
        op = build_gegenbauer_op(F(-1, 2), n)
        assert op.coeffs[1].is_zero()
        assert op.apply(gegenbauer(F(-1, 2), n)).is_zero()


def test_case3_base_case():
    # P_{-1,1} = c/2
    member = get_family(FamilyId.P1).original(1)
    assert member == RationalPoly([0, F(1, 2)])
    assert build_case3_op(2).apply(member).is_zero()


def test_case3_negative_controls():
    # the n=2 solution ray contains c itself, so probe with inputs outside it:
    # case3(2) on c^2 is 4c^4, case3(3) on c is -4c^3
    assert build_case3_op(2).apply(C * C) == RationalPoly([0, 0, 0, 0, 4])
    assert build_case3_op(3).apply(C) == RationalPoly([0, 0, 0, -4])


def test_case4_base_case_trivial_eigenvalue():
    # (n+1)(n-2) = 0 at n=2 and P_{-3,1} = 1/2 is constant
    member = get_family(FamilyId.P3).original(1)
    assert build_case4_op(2).apply(member).is_zero()


def test_ode_sweep_rows():
    p1 = ode_sweep(FamilyId.P1, 12)
    assert [r.n for r in p1] == list(range(2, 13))
    assert all(r.identity is True and r.residual.is_zero() and r.ok for r in p1)
    p2 = ode_sweep(FamilyId.P2, 12)
    assert [r.n for r in p2] == list(range(13))
    assert all(r.identity is None and r.ok for r in p2)
    assert all(r.member_zero for r in p2 if r.n % 2)
    # the single-sweep views project the same rows
    assert second_order_sweep(FamilyId.P1, 12) == [(r.n, True) for r in p1]
    assert fourth_order_sweep(FamilyId.P2, 12) == [(r.n, r.member_zero, True) for r in p2]


BUILDERS = {
    "P-4": build_elliptic1_op,
    "P-2": build_elliptic2_op,
    "P-1": build_case3_op,
    "P-3": build_case4_op,
}


class _Perturbed:
    """A family whose member at each index is moved by 1 + (k + 1)/7 c^(k mod 3):
    mixed parity, other denominators, and nonzero where the family is zero."""

    def __init__(self, family):
        self.family = family

    def shifted(self, n):
        return self.original(n - 4)

    def original(self, k):
        return self.family.original(k) + ONE + RationalPoly.monomial(F(k + 1, 7), k % 3)


def _builder_rows(family, max_n):
    """The sweep's rows from build_*_op(n).apply, on the members diffops sees."""
    fam = diffops.get_family(FamilyId(family))
    p3 = diffops.get_family(FamilyId.P3)
    fourth = family in ("P-4", "P-2")
    rows = []
    for n in range(0 if fourth else 2, max_n + 1):
        m = fam.shifted(n) if fourth else fam.original(2 * n - 3)
        identity = m == C * p3.original(2 * n - 3) if family == "P-1" else None
        rows.append((n, m.is_zero(), BUILDERS[family](n).apply(m).to_json(), identity))
    return rows


@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize("family", sorted(BUILDERS))
def test_ode_sweep_matches_the_builders(monkeypatch, family, perturbed):
    if perturbed:
        real = diffops.get_family
        monkeypatch.setattr(diffops, "get_family", lambda fid: _Perturbed(real(fid)))
    rows = ode_sweep(FamilyId(family), 60)
    got = [(r.n, r.member_zero, r.residual.to_json(), r.identity) for r in rows]
    assert got == _builder_rows(family, 60)
    nonzero = [r.n for r in rows if not r.residual.is_zero()]
    assert len(nonzero) > len(rows) // 2 if perturbed else not nonzero


@pytest.mark.parametrize(
    "family, max_n", [("P-2", m) for m in range(8)] + [("P-4", m) for m in range(1, 6)]
)
def test_short_sweeps_before_the_first_odd_member(family, max_n):
    # every member so far is zero or of even degree, so some (first, step)
    # class of the packed columns holds zero members only
    rows = ode_sweep(FamilyId(family), max_n)
    got = [(r.n, r.member_zero, r.residual.to_json(), r.identity) for r in rows]
    assert got == _builder_rows(family, max_n)


def test_second_order_sweeps():
    assert all(ok for _, ok in second_order_sweep(FamilyId.P1, 100))
    assert all(ok for _, ok in second_order_sweep(FamilyId.P3, 100))


def test_case3_derives_from_case4_via_cross_identity():
    # case3 annihilates c * P_{-3,2n-3} because P_{-1,2n-3} = c P_{-3,2n-3}
    p3 = get_family(FamilyId.P3)
    for n in range(2, 61):
        assert build_case3_op(n).apply(C * p3.original(2 * n - 3)).is_zero()


# ---------------------------------------------------------------------------
# fourth-order operators
# ---------------------------------------------------------------------------


def test_elliptic1_displayed_cases():
    member = get_family(FamilyId.P4).shifted(8)
    assert member == RationalPoly([F(-5, 35), 0, F(32, 35)])
    assert build_elliptic1_op(8).apply(member).is_zero()
    # n=0: eigen-coefficient (n-4)^2 n^2 vanishes on the constant member
    assert build_elliptic1_op(0).apply(ONE).is_zero()


def test_elliptic2_displayed_cases():
    assert build_elliptic2_op(2).apply(ONE).is_zero()  # (n-2)^2 = 0
    member = get_family(FamilyId.P2).shifted(8)
    assert member == RationalPoly([0, F(8, 35)])
    assert build_elliptic2_op(8).apply(member).is_zero()


def test_fourth_order_sweeps_to_120():
    for fid in (FamilyId.P4, FamilyId.P2):
        for n, member_zero, residual_zero in fourth_order_sweep(fid, 120):
            assert residual_zero, f"{fid} residual nonzero at shifted n={n}"


def test_fourth_order_negative_control():
    # a polynomial outside the family is not annihilated
    assert not build_elliptic1_op(8).apply(C * C * C).is_zero()


def test_derivation_excluded_indices_are_vacuous():
    # the derivation of the fourth-order equation excluded n in {7, 9, 11};
    # the family members there are zero, so the residuals vanish trivially
    fam = get_family(FamilyId.P4)
    for n in (7, 9, 11):
        assert fam.shifted(n).is_zero()
        assert build_elliptic1_op(n).apply(fam.shifted(n)).is_zero()


# ---------------------------------------------------------------------------
# q-form operator and Wimp's operator
# ---------------------------------------------------------------------------


def test_qform_reproduces_displayed_cancellation():
    # q_2 = (32x^2-5)/35: -(-7x^2-5) 64/35 - 3x*13*64x/35 + 4*16 (32x^2-5)/35 = 0
    q2 = get_family(FamilyId.P4).q(2)
    assert q2 == RationalPoly([F(-5, 35), 0, F(32, 35)])
    assert build_qform_op(2).apply(q2).is_zero()
    assert build_qform_op(0).apply(get_family(FamilyId.P4).q(0)).is_zero()


def test_qform_and_elliptic1_residuals_vanish_together():
    fam = get_family(FamilyId.P4)
    for n in range(101):
        q_n = fam.q(n)
        assert build_qform_op(n).apply(q_n).is_zero()
        assert build_elliptic1_op(2 * n + 4).apply(q_n).is_zero()


def test_wimp_a2_specialization():
    # at alpha = beta = -1, c = 3/2: A_2 = -(2n^2+4n-23) x^2 - 52 x + 2n^2+4n+3
    for n in (0, 1, 2, 5):
        op = build_wimp_op(n, -1, -1, F(3, 2))
        s = 2 * n * n + 4 * n
        assert op.coeffs[2] == RationalPoly([s + 3, -52, -(s - 23)])
        # A_3 = -3(2n^2+4n-3) x, A_4 = n^2 (n+2)^2
        assert op.coeffs[1] == RationalPoly([0, -3 * (s - 3)])
        assert op.coeffs[0] == RationalPoly([n * n * (n + 2) ** 2])


def test_wimp_a4_direct_substitution():
    # n=2, gamma=-1, c=3/2: n(n+2)(n+gamma+2c)(n+gamma+2c-2) = 2*4*4*2 = 64
    op = build_wimp_op(2, -1, -1, F(3, 2))
    assert op.coeffs[0] == RationalPoly([64])


def test_wimp_residual_is_pinned_nonzero():
    # regression pin: the verbatim operator misses q_2 by 64(14 - 52x)/35
    q2 = get_family(FamilyId.P4).q(2)
    residual = build_wimp_op(2, -1, -1, F(3, 2)).apply(q2)
    assert residual == RationalPoly([F(896, 35), F(-3328, 35)])


def test_wimp_differs_from_qform_by_an_x_linear_d2_term():
    # the two operators agree except in the D^2 coefficient, where the
    # transcribed A_2 carries an extra 14 - 52x
    for n in (0, 2, 7):
        wimp = build_wimp_op(n, -1, -1, F(3, 2))
        qform = build_qform_op(n)
        assert wimp.coeffs[2] - qform.coeffs[2] == RationalPoly([14, -52])
        assert wimp.coeffs[0] == qform.coeffs[0]
        assert wimp.coeffs[1] == qform.coeffs[1]
        assert wimp.coeffs[3] == qform.coeffs[3]
        assert wimp.coeffs[4] == qform.coeffs[4]


# ---------------------------------------------------------------------------
# eigencheck dispatch
# ---------------------------------------------------------------------------


def test_eigencheck_views():
    assert eigencheck(build_elliptic1_op(6), FamilyId.P4, IndexView.SHIFTED, 6).is_zero()
    assert eigencheck(build_case3_op(5), FamilyId.P1, IndexView.ORIGINAL, 7).is_zero()
    wimp = build_wimp_op(2, -1, -1, F(3, 2))
    assert not eigencheck(wimp, FamilyId.P4, IndexView.Q, 2).is_zero()


def test_sweeps_read_the_order_from_the_odes_row(monkeypatch):
    # P-2 given P-3's second-order row: the guards follow the row
    monkeypatch.setitem(diffops.ODES, FamilyId.P2, diffops.ODES[FamilyId.P3])
    with pytest.raises(ValueError):
        fourth_order_sweep(FamilyId.P2, 8)
    assert [n for n, _ in second_order_sweep(FamilyId.P2, 8)] == list(range(2, 9))


def test_sweep_family_validation():
    with pytest.raises(ValueError):
        fourth_order_sweep(FamilyId.P1, 10)
    with pytest.raises(ValueError):
        second_order_sweep(FamilyId.P4, 10)
    # a max_n below the first index would sweep nothing
    with pytest.raises(ValueError):
        fourth_order_sweep(FamilyId.P4, -1)
    with pytest.raises(ValueError):
        second_order_sweep(FamilyId.P1, 1)
    with pytest.raises(ValueError):
        ode_sweep(FamilyId.P3, -5)


# ---------------------------------------------------------------------------
# derive, don't transcribe: each ODES table is the one operator of its shape
# ---------------------------------------------------------------------------

#: The ansatz for each ODES row: sum_i f_i(c, n) D^i of order <= order with
#: deg_c f_i <= i + extra and deg_n <= deg_n, over the members n = first..top.
ANSATZ = {
    FamilyId.P4: (4, 0, 4, 30),
    FamilyId.P3: (2, 0, 2, 40),
    FamilyId.P2: (4, 0, 4, 30),
    FamilyId.P1: (2, 2, 2, 40),
}


@pytest.mark.parametrize("family", ANSATZ, ids=lambda fid: fid.value)
def test_each_odes_table_is_the_only_operator_of_its_shape(family):
    order, extra, deg_n, top = ANSATZ[family]
    table, stride, offset, first = diffops.ODES[family]
    fam = get_family(family)
    points = [(n, fam.original(stride * n + offset)) for n in range(first, top + 1)]
    unknowns = [
        (i, t, j) for i in range(order + 1) for t in range(i + extra + 1) for j in range(deg_n + 1)
    ]
    # the residuals of c^t n^j D^i, as one-hot tables in the ODES layout
    residuals = [
        table_combinations(
            tuple(((),) * t + ((0,) * j + (1,),) if r == i else () for r in range(order + 1)),
            points,
        )
        for i, t, j in unknowns
    ]
    rows = []
    for column in zip(*residuals):
        for power in range(max(p.degree for p in column) + 1):
            row = [p.coefficient(power) for p in column]
            if any(row):
                rows.append(row)
    (basis,) = nullspace(rows, len(unknowns))

    def entry(i, t, j):
        return table[i][t][j] if t < len(table[i]) and j < len(table[i][t]) else 0

    committed = [entry(*u) for u in unknowns]
    # every nonzero entry of the table lies inside the ansatz
    assert sum(map(bool, committed)) == sum(x != 0 for f in table for cs in f for x in cs)
    free = basis.index(1)

    def spanned(vec):
        return vec[free] != 0 and vec == [vec[free] * x for x in basis]

    assert spanned(committed)
    changed = list(committed)
    changed[0] += 1
    assert not spanned(changed)
