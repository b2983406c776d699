"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every identity check is exact (zero tolerance); floating-point tolerances
appear only where the criterion states them (quadrature, hyp2f1).  Criteria
with runtime budgets are timed end to end, including any family generation
they trigger, on fresh family instances where generation dominates.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import math
import time
from fractions import Fraction as F

import pytest

from djkm.cocycle import cocycle, t_pow, t_pow_u, uu_central_term, verify_psi_table
from djkm.diffops import (
    build_case3_op,
    build_case4_op,
    build_elliptic1_op,
    build_elliptic2_op,
    build_qform_op,
    build_wimp_op,
)
from djkm.exact import RationalPoly
from djkm.families import FamilyId, IndexView, PolynomialFamily, generate, get_family
from djkm.oracle import (
    check_funde,
    expand_elliptic1,
    expand_elliptic2,
    expand_gegenbauer_sum,
)
from djkm.ortho import (
    NoConvergenceError,
    assoc_ultraspherical,
    favard_lambdas,
    golub_welsch,
    gram_matrix,
    hankel,
    hyp2f1,
    nonclassical_check,
    quad_orthogonality,
)

ZERO = RationalPoly.zero()
ONE = RationalPoly.one()
C = RationalPoly.variable()


class Budget:
    """Context manager asserting a wall-clock budget and printing the line."""

    def __init__(self, label, seconds=None):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.started
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.label}: {status} ({elapsed:.2f}s)")
        if exc_type is None and self.seconds is not None:
            assert elapsed < self.seconds, (
                f"{self.label} exceeded its {self.seconds}s budget: {elapsed:.2f}s"
            )
        return False


# The published shifted tables through n = 12.  The degree-4 entry of the P-4
# table is +(2048c^4-1248c^2+75)/1155: the recurrence, the elliptic integral,
# and the Gegenbauer-sum route all fix the positive sign.
P4_TABLE = [
    ONE, ZERO, ZERO, ZERO, ONE, ZERO,
    RationalPoly([0, F(4, 5)]),
    ZERO,
    RationalPoly([F(-5, 35), 0, F(32, 35)]),
    ZERO,
    RationalPoly([0, F(-48, 105), 0, F(128, 105)]),
    ZERO,
    RationalPoly([F(75, 1155), 0, F(-1248, 1155), 0, F(2048, 1155)]),
]
P2_TABLE = [
    ZERO, ZERO, ONE, ZERO, ZERO, ZERO,
    RationalPoly([F(1, 5)]),
    ZERO,
    RationalPoly([0, F(8, 35)]),
    ZERO,
    RationalPoly([F(-7, 105), 0, F(32, 105)]),
    ZERO,
    RationalPoly([0, F(-232, 1155), 0, F(512, 1155)]),
]


def test_criterion_01_family_tables():
    with Budget("01 family-tables", seconds=1.0):
        assert generate(FamilyId.P4, IndexView.SHIFTED, 12) == P4_TABLE
        assert generate(FamilyId.P2, IndexView.SHIFTED, 12) == P2_TABLE


def test_criterion_02_oracle_equivalence():
    with Budget("02 oracle-equivalence", seconds=30.0):
        for result in (
            expand_elliptic1(120),
            expand_elliptic2(120),
            expand_gegenbauer_sum(120),
        ):
            assert result.matched, f"mismatch at z^{result.first_mismatch}"
        assert check_funde(40, FamilyId.P4)
        assert check_funde(40, FamilyId.P2)


def test_criterion_03_fourth_order_odes():
    with Budget("03 fourth-order-odes", seconds=60.0):
        for family_id, build in (
            (FamilyId.P4, build_elliptic1_op),
            (FamilyId.P2, build_elliptic2_op),
        ):
            fam = PolynomialFamily(family_id)  # fresh: budget includes generation
            for n in range(0, 401, 2):
                residual = build(n).apply(fam.shifted(n))
                assert residual.is_zero(), f"{family_id.value} residual at n={n}"


def test_criterion_04_second_order_odes():
    with Budget("04 second-order-odes"):
        p1 = get_family(FamilyId.P1)
        p3 = get_family(FamilyId.P3)
        for n in range(2, 201):
            m1 = p1.original(2 * n - 3)
            m3 = p3.original(2 * n - 3)
            assert build_case3_op(n).apply(m1).is_zero()
            assert build_case4_op(n).apply(m3).is_zero()
            assert m1 == C * m3


def test_criterion_05_wimp_discrepancy():
    with Budget("05 wimp-discrepancy"):
        q2 = get_family(FamilyId.P4).q(2)
        assert q2 == RationalPoly([F(-5, 35), 0, F(32, 35)])
        wimp_residual = build_wimp_op(2, -1, -1, F(3, 2)).apply(q2)
        assert not wimp_residual.is_zero()
        assert wimp_residual == RationalPoly([F(896, 35), F(-3328, 35)])
        assert build_qform_op(2).apply(q2).is_zero()


def test_criterion_06_cocycle():
    with Budget("06 cocycle", seconds=5.0):
        report = verify_psi_table(12)
        assert report.passed, f"psi table failures: {report.failures}"
        for i in range(-12, 13):
            for j in range(-12, 13):
                uu = cocycle(t_pow_u(i - 1), t_pow_u(j - 1))
                assert (uu - uu_central_term(i, j)).is_zero()
                for f, g in (
                    (t_pow(i), t_pow(j)),
                    (t_pow_u(i), t_pow(j)),
                    (t_pow_u(i), t_pow_u(j)),
                ):
                    assert (cocycle(f, g) + cocycle(g, f)).is_zero()


def test_criterion_07_orthogonality():
    with Budget("07 orthogonality"):
        lams = favard_lambdas("qbar", 200)
        assert lams[1] == F(2, 7)
        assert all(lam > 0 for lam in lams)
        for tag in ("q", "qbar"):
            dets = hankel(tag, 14)
            assert len(dets) == 14
            assert all(d > 0 for d in dets), f"{tag} Hankel determinant not positive"
            gram = gram_matrix(tag, 8)
            for i in range(9):
                for j in range(9):
                    if i == j:
                        assert gram[i][j] > 0
                    else:
                        assert gram[i][j] == 0


def test_criterion_08_nonclassicality():
    with Budget("08 nonclassicality"):
        for tag in ("q", "qbar"):
            witness = nonclassical_check(tag, 6)
            assert witness.solution_space_dim == 1
            assert witness.verified
            a, b, c, e, f, g = witness.basis[0]
            assert g != 0
            # the elimination-chain relations all hold on the solution space
            for relation in (c + f, f, b, a + e, 2 * a + e):
                assert relation == 0


def test_criterion_09_associated_ultraspherical():
    with Budget("09 associated-ultraspherical"):
        seq = assoc_ultraspherical(F(-1, 2), F(3, 2), 50)
        fam = get_family(FamilyId.P4)
        for n in range(51):
            assert seq[n] == fam.shifted(2 * n + 4)


def test_criterion_10_quadrature():
    with Budget("10 quadrature"):
        for tag in ("q", "qbar"):
            nodes, weights = golub_welsch(tag, 20)
            assert abs(sum(weights) - 1.0) <= 1e-12
            for x, y in zip(nodes, reversed(nodes)):
                assert abs(x + y) <= 1e-12
            assert quad_orthogonality(tag, 20, 8) <= 1e-10


def test_criterion_11_hyp2f1():
    with Budget("11 hyp2f1"):
        value = hyp2f1(1, 1, 2, 0.5, tol=1e-15)
        assert abs(value - 2 * math.log(2)) <= 1e-12
        with pytest.raises(NoConvergenceError):
            hyp2f1(1, 1, 2, 1.5)
        with pytest.raises(NoConvergenceError):
            hyp2f1(1, 1, 2, 1.0)
