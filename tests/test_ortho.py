"""Orthogonality machinery: Favard data, moments, Hankel, nonclassicality,
associated recurrences, quadrature, and the Gauss hypergeometric series."""

import decimal
import math
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import djkm.ortho as ortho_mod
from djkm.exact import RationalPoly, VerificationError, _integer_row, leading_minors, nullspace
from djkm.families import FamilyId, get_family
from djkm.ortho import (
    NoConvergenceError,
    assoc_jacobi,
    assoc_ultraspherical,
    favard_lambdas,
    golub_welsch,
    gram_check,
    gram_matrix,
    hankel,
    hyp2f1,
    moments,
    nonclassical_check,
    quad_orthogonality,
    recurrence_mismatch,
    three_term,
)
from test_exact import det_fraction  # the reference determinant


def pochhammer(x, n):
    out = F(1)
    for i in range(n):
        out *= x + i
    return out


# ---------------------------------------------------------------------------
# three-term data and Favard normalization
# ---------------------------------------------------------------------------


def test_three_term_coefficients():
    # the paper's closed forms through the desk Favard depth, n <= 200; src
    # derives them from the master step, so they are pinned here by hand
    qbar = three_term("qbar")
    # relation at level n: A_{n+1} = (2n+7)/(4(n+2)), C_{n-1} = (2n+1)/(4(n+2));
    # C_{-1} is 0 by convention, its partner polynomial being zero
    assert qbar.C(-1) == 0
    for n in range(0, 201):
        assert qbar.A(n + 1) == F(2 * n + 7, 4 * (n + 2))
        if n >= 1:
            assert qbar.C(n - 1) == F(2 * n + 1, 4 * (n + 2))
            # beta_n^2 = (2n+5)(2n+1)/(16(n+1)(n+2)), and beta_n its correctly
            # rounded root
            beta_sq = F((2 * n + 5) * (2 * n + 1), 16 * (n + 1) * (n + 2))
            assert qbar.beta_sq(n) == beta_sq
            assert qbar.beta(n) == math.sqrt(float(beta_sq))
    q = three_term("q")
    assert q.C(-1) == 0  # convention: its partner p_{-1} is the zero polynomial
    for n in range(0, 201):
        assert q.A(n + 1) == F(2 * n + 5, 4 * (n + 1))
        if n >= 1:
            assert q.C(n - 1) == F(2 * n - 1, 4 * (n + 1))
            beta_sq = F((2 * n + 3) * (2 * n - 1), 16 * n * (n + 1))
            assert q.beta_sq(n) == beta_sq
            assert q.beta(n) == math.sqrt(float(beta_sq))


@pytest.mark.parametrize("tag", ["bogus", "Q", "p-4", ""])
def test_three_term_data_rejects_an_unknown_tag(tag):
    # an unknown tag must not fall through to another sequence's data
    with pytest.raises(ValueError, match="unknown orthogonal sequence tag"):
        ortho_mod.ThreeTermData(tag)
    with pytest.raises(ValueError, match="unknown orthogonal sequence tag"):
        three_term(tag)


def test_three_term_recurrence_holds_on_members():
    p4 = get_family(FamilyId.P4)
    p2 = get_family(FamilyId.P2)
    x = RationalPoly.variable()
    q = three_term("q")
    qb = three_term("qbar")
    for n in range(0, 30):
        lhs = x * p4.q(n)
        rhs = p4.q(n + 1) * q.A(n + 1) + p4.q(n - 1) * q.C(n - 1)
        assert lhs == rhs
        lhs = x * p2.qbar(n)
        rhs = p2.qbar(n + 1) * qb.A(n + 1) + p2.qbar(n - 1) * qb.C(n - 1)
        assert lhs == rhs


@pytest.mark.parametrize("tag", ["q", "qbar"])
def test_recurrence_mismatch_ties_the_data_to_the_members(tag, monkeypatch, tamper_three_term):
    assert recurrence_mismatch(tag, 60) is None
    tamper_three_term(monkeypatch, "C", 6, lambda v: 2 * v)
    assert recurrence_mismatch(tag, 7) is None
    assert recurrence_mismatch(tag, 60) == 7


@pytest.mark.parametrize("count", [0, -1])
def test_recurrence_mismatch_rejects_a_count_that_checks_nothing(count):
    with pytest.raises(ValueError, match="count must be >= 1"):
        recurrence_mismatch("q", count)


def test_positivity_of_adjacent_products():
    for tag in ("q", "qbar"):
        data = three_term(tag)
        for n in range(1, 201):
            assert data.A(n) * data.C(n - 1) > 0


def test_favard_lambda_values():
    lams = favard_lambdas("qbar", 200)
    assert lams[0] == 1
    assert lams[1] == F(2, 7)  # (2*3)/(3*7)
    assert all(x > 0 for x in lams)
    for n in range(1, 201):
        assert lams[n] == lams[n - 1] * F((n + 1) * (2 * n + 1), (n + 2) * (2 * n + 5))
    lams = favard_lambdas("q", 200)
    assert lams[:2] == [1, F(1, 10)]
    for n in range(1, 201):
        assert lams[n] == lams[n - 1] * F(n * (2 * n - 1), (n + 1) * (2 * n + 3))


@pytest.mark.parametrize(
    "tag, first",
    [("q", [1, F(1, 10), F(1, 35), F(1, 84)]), ("qbar", [1, F(2, 7), F(5, 42), F(2, 33)])],
)
def test_favard_lambdas_are_the_gram_diagonal(tag, first):
    # lambda_n^2 = <p_n, p_n> / <p_0, p_0> for the generated members p_n
    lams = favard_lambdas(tag, 8)
    gram = gram_matrix(tag, 8)
    assert lams[:4] == first
    assert lams == [gram[n][n] / gram[0][0] for n in range(9)]


def test_symmetrization_identity():
    # A_{n+1} lambda_{n+1}^2 = C_n lambda_n^2 makes the rescaled coefficients
    # equal (A_n = C_{n-1} after dividing by lambda), Fraction-exactly
    lams = favard_lambdas("qbar", 201)
    data = three_term("qbar")
    for n in range(0, 200):
        assert data.A(n + 1) * lams[n + 1] == data.C(n) * lams[n]
        # equivalently beta_{n+1}^2 = A_{n+1}^2 lambda_{n+1}^2 / lambda_n^2
        assert data.A(n + 1) ** 2 * lams[n + 1] == data.beta_sq(n + 1) * lams[n]


def test_beta_squared_values():
    assert three_term("qbar").beta_sq(1) == F(7, 8) * F(1, 4) == F(7, 32)
    assert three_term("q").beta_sq(1) == F(5, 4) * F(1, 8) == F(5, 32)
    assert math.sqrt(three_term("qbar").beta_sq(1)) == pytest.approx(math.sqrt(7 / 32))


# ---------------------------------------------------------------------------
# moments and Hankel determinants
# ---------------------------------------------------------------------------


def brute_force_moments(tag, k_max):
    """Dense matrix-power oracle on the rational similarity of J."""
    size = k_max // 2 + 2
    data = three_term(tag)
    mat = [[F(0)] * size for _ in range(size)]
    for i in range(size - 1):
        mat[i][i + 1] = data.beta_sq(i + 1)
        mat[i + 1][i] = F(1)
    out = [F(1)]
    power = [[F(1) if i == j else F(0) for j in range(size)] for i in range(size)]
    for _ in range(k_max):
        power = [
            [sum(power[i][k] * mat[k][j] for k in range(size)) for j in range(size)]
            for i in range(size)
        ]
        out.append(power[0][0])
    return out


@pytest.mark.parametrize("tag", ["q", "qbar"])
def test_moments_match_matrix_power_oracle(tag):
    assert moments(tag, 12) == brute_force_moments(tag, 12)


def test_moment_values():
    ms = moments("qbar", 4)
    assert ms[0] == 1
    assert ms[1] == 0
    assert ms[2] == F(7, 32)
    assert ms[3] == 0
    # m_4 = beta_1^4 + beta_1^2 beta_2^2 with beta_2^2 = (3/4)(5/16)
    assert ms[4] == F(7, 32) ** 2 + F(7, 32) * F(15, 64) == F(203, 2048)
    assert moments("q", 2)[2] == F(5, 32)


def test_odd_moments_vanish():
    for tag in ("q", "qbar"):
        for k, m in enumerate(moments(tag, 15)):
            if k % 2:
                assert m == 0


def test_hankel_small_cases_by_cofactor_expansion():
    ms = moments("qbar", 4)
    dets = hankel("qbar", 3)
    assert dets[0] == ms[0] == 1
    assert dets[1] == ms[0] * ms[2] - ms[1] ** 2 == F(7, 32)
    by_hand = (
        ms[0] * (ms[2] * ms[4] - ms[3] ** 2)
        - ms[1] * (ms[1] * ms[4] - ms[3] * ms[2])
        + ms[2] * (ms[1] * ms[3] - ms[2] ** 2)
    )
    assert dets[2] == by_hand


@pytest.mark.parametrize("tag", ["q", "qbar"])
def test_hankel_positive_through_14(tag):
    dets = hankel(tag, 14)
    assert len(dets) == 14
    assert all(d > 0 for d in dets)


def square_matrices():
    """Small integer/Fraction matrices; small entries make zero minors common."""
    entry = st.one_of(st.integers(-2, 2), st.fractions(-2, 2, max_denominator=3))
    return st.integers(1, 6).flatmap(
        lambda n: st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    )


@settings(max_examples=80, deadline=None)
@given(square_matrices())
@example([[0, 1], [1, 0]])  # zero first pivot
@example([[1, 1, 0], [1, 1, 1], [0, 1, 1]])  # zero second pivot, nonzero after
@example([[F(1, 2), F(1, 3)], [F(1, 5), F(2, 7)]])  # rows over different denominators
def test_leading_minors_match_det_fraction(rows):
    exact = [[F(x) for x in row] for row in rows]
    expected = [
        det_fraction([row[:size] for row in exact[:size]])
        for size in range(1, len(rows) + 1)
    ]
    got = leading_minors(rows)
    assert got == expected
    assert all(type(d) is F for d in got)


@pytest.mark.parametrize("tag", ["q", "qbar"])
def test_hankel_equals_determinant_of_each_size(tag):
    # the full moment matrix, not its parity blocks
    ms = moments(tag, 38)
    expected = [
        det_fraction([[ms[i + j] for j in range(size)] for i in range(size)])
        for size in range(1, 21)
    ]
    assert hankel(tag, 20) == expected


def test_hankel_rejects_a_nonzero_odd_moment(monkeypatch):
    real = ortho_mod.moments

    def odd_moment(tag, max_order):
        ms = real(tag, max_order)
        ms[3] = F(1, 3)
        return ms

    monkeypatch.setattr(ortho_mod, "moments", odd_moment)
    with pytest.raises(VerificationError):
        hankel("q", 4)


# ---------------------------------------------------------------------------
# Gram matrices
# ---------------------------------------------------------------------------


def test_gram_diagonal_exact_values():
    # the orthonormal sequence from the Jacobi data starts at p_0 = 1, so the
    # Gram diagonal is the squared constant relating p_n to the family member:
    # <qbar_n, qbar_n> = lambda_n^2 / 25 (qbar_0 = 1/5), <q_n, q_n> = mu_n^2
    # with mu_0 = 1 and mu_n^2 = n(2n-1)/((n+1)(2n+3)) mu_{n-1}^2
    lams = favard_lambdas("qbar", 8)
    gram = gram_matrix("qbar", 8)
    for n in range(9):
        assert gram[n][n] == lams[n] / 25
    mu = [F(1)]
    for n in range(1, 9):
        mu.append(mu[-1] * F(n * (2 * n - 1), (n + 1) * (2 * n + 3)))
    gram_q = gram_matrix("q", 8)
    for n in range(9):
        assert gram_q[n][n] == mu[n]


def test_gram_cross_terms_vanish():
    # <qbar_0, qbar_2> = (1/5)(32 m_2 - 7)/105 forces m_2 = 7/32
    gram = gram_matrix("qbar", 8)
    for i in range(9):
        for j in range(9):
            if i != j:
                assert gram[i][j] == 0
    assert gram_check("qbar", 8)
    assert gram_check("q", 8)


def test_explicit_inner_products():
    ms = moments("qbar", 4)
    # <qbar_0, qbar_1> = (1/5)(8/35) m_1 = 0
    assert F(1, 5) * F(8, 35) * ms[1] == 0
    # <qbar_1, qbar_1> = (8/35)^2 m_2 = 2/175 = lambda_1^2 / 25
    assert F(8, 35) ** 2 * ms[2] == F(2, 175) == F(2, 7) / 25


# ---------------------------------------------------------------------------
# nonclassicality
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tag", ["q", "qbar"])
def test_nonclassical_solution_space_is_constants(tag):
    witness = nonclassical_check(tag, 6)
    assert witness.solution_space_dim == 1
    assert witness.verified
    (basis_vec,) = witness.basis
    assert basis_vec == (0, 0, 0, 0, 0, 1)


@pytest.mark.parametrize("tag", ["q", "qbar"])
def test_nonclassical_proof_chain_relations_hold(tag):
    # every relation in the elimination chain vanishes on the solution space
    witness = nonclassical_check(tag, 6)
    a, b, c, e, f, g = witness.basis[0]
    for relation in (c + f, f, b, a + e, 2 * a + e, 3 * a + e):
        assert relation == 0


def test_nonclassical_minimal_bound_is_four():
    # with members up to degree 3 one rational direction survives; degree 4
    # kills it (for qbar the surviving ray satisfies 45a = 13e)
    under = nonclassical_check("qbar", 3)
    assert under.solution_space_dim == 2
    extra = next(v for v in under.basis if any(v[:5]))
    a, b, c, e, f, g = extra
    assert f == 0 and b == 0
    assert 45 * a == 13 * e
    assert 32 * c + 7 * (a + e) == 0
    assert nonclassical_check("qbar", 4).solution_space_dim == 1
    assert nonclassical_check("q", 4).solution_space_dim == 1


@pytest.mark.parametrize("tag", ["q", "qbar"])
@pytest.mark.parametrize("max_n", [1, 3, 6])
def test_nonclassical_basis_solves_every_equation(tag, max_n):
    witness = nonclassical_check(tag, max_n)
    for vec in witness.basis:
        for row in witness.equations:
            assert sum(r * v for r, v in zip(row, vec)) == 0


def fraction_nullspace(rows, width):
    """Reference: RREF nullspace on Fraction rows, normalizing each pivot to 1."""
    m = [list(r) for r in rows]
    pivots = []
    r = 0
    for col in range(width):
        pivot = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][col]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                factor = m[i][col]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for fc in free:
        vec = [F(0)] * width
        vec[fc] = F(1)
        for row_idx, pc in enumerate(pivots):
            vec[pc] = -m[row_idx][fc]
        basis.append(tuple(vec))
    return basis


@st.composite
def rational_systems(draw):
    """Up to 12 rows x 6 columns of small rationals: some rows drawn freely,
    the rest rational combinations of them (zero rows when none are free),
    shuffled, so zero rows and rank deficiency are common."""
    width = draw(st.integers(1, 6))
    entry = st.one_of(st.integers(-2, 2), st.fractions(-2, 2, max_denominator=4))
    free = draw(st.lists(st.lists(entry, min_size=width, max_size=width), max_size=6))
    base = [[F(x) for x in row] for row in free]
    rows = list(base)
    for _ in range(draw(st.integers(0, 12 - len(base)))):
        coefs = draw(st.lists(entry, min_size=len(base), max_size=len(base)))
        rows.append([sum((c * row[j] for c, row in zip(coefs, base)), F(0)) for j in range(width)])
    return draw(st.permutations(rows)), width


@settings(max_examples=200, deadline=None)
@given(rational_systems())
@example(([[F(0), F(1)], [F(1), F(0)]], 2))  # the first pivot needs a row swap
@example(([[F(0), F(0)], [F(1, 2), F(1, 3)], [F(1, 5), F(2, 7)]], 2))
def test_nullspace_matches_fraction_reference(system):
    rows, width = system
    got = nullspace(rows, width)
    assert got == fraction_nullspace(rows, width)
    assert all(type(x) is F for vec in got for x in vec)


def test_nonclassical_underdetermined_reported_honestly():
    witness = nonclassical_check("qbar", 1)
    assert witness.solution_space_dim == 5  # only f = 0 pinned so far
    assert not witness.verified


def test_nonclassical_first_equations():
    # the first nontrivial row comes from n=1 and reads f = 0
    witness = nonclassical_check("qbar", 1)
    assert len(witness.equations) == 1
    row = witness.equations[0]
    assert row[4] != 0
    assert all(x == 0 for i, x in enumerate(row) if i != 4)


# ---------------------------------------------------------------------------
# associated ultraspherical / Jacobi
# ---------------------------------------------------------------------------


def test_assoc_ultraspherical_base_steps():
    seq = assoc_ultraspherical(F(-1, 2), F(3, 2), 3)
    assert seq[0] == RationalPoly.one()
    # n=0 step: 2x(0 - 1/2 + 3/2) = (5/2) C_1  =>  C_1 = 4x/5
    assert seq[1] == RationalPoly([0, F(4, 5)])


def test_assoc_ultraspherical_is_the_q_family():
    seq = assoc_ultraspherical(F(-1, 2), F(3, 2), 50)
    p4 = get_family(FamilyId.P4)
    for n in range(51):
        assert seq[n] == p4.q(n)


def test_assoc_ultraspherical_recurrence_matches_q_recurrence():
    # with nu = -1/2, c = 3/2 the recurrence doubles into
    # 4(n+1) x C_n = (2n+5) C_{n+1} + (2n-1) C_{n-1}
    seq = assoc_ultraspherical(F(-1, 2), F(3, 2), 20)
    x = RationalPoly.variable()
    for n in range(1, 19):
        assert x * seq[n] * (4 * (n + 1)) == seq[n + 1] * (2 * n + 5) + seq[n - 1] * (
            2 * n - 1
        )


def test_assoc_jacobi_initial_condition():
    assert assoc_jacobi(F(1, 3), F(-1, 4), F(2, 5), 5)[0] == RationalPoly.one()


def test_assoc_jacobi_relates_to_ultraspherical_by_pochhammer_ratio():
    # P_n^{(nu-1/2, nu-1/2)}(x; c) = (nu+c+1/2)_n / (2nu+c)_n * C_n^{(nu)}(x; c)
    nu = F(-1, 2)
    assoc = F(3, 2)
    jac = assoc_jacobi(nu - F(1, 2), nu - F(1, 2), assoc, 20)
    ultra = assoc_ultraspherical(nu, assoc, 20)
    for n in range(21):
        ratio = pochhammer(nu + assoc + F(1, 2), n) / pochhammer(2 * nu + assoc, n)
        assert jac[n] == ultra[n] * ratio
        assert ratio == 2 * n + 1  # the concrete values collapse to 2n+1


def test_assoc_jacobi_degenerate_prefactor():
    # gamma = 0 with assoc_c = 0 zeroes the n=0 prefactor 2(c+1)(c+gamma)(...)
    with pytest.raises(ZeroDivisionError):
        assoc_jacobi(F(-1, 2), F(-1, 2), 0, 3)


def test_assoc_ultraspherical_degenerate_denominator():
    with pytest.raises(ZeroDivisionError):
        assoc_ultraspherical(F(1, 2), -3, 5)


# ---------------------------------------------------------------------------
# Gauss quadrature
# ---------------------------------------------------------------------------


def test_golub_welsch_two_point_by_hand():
    nodes, weights = golub_welsch("qbar", 2)
    root = math.sqrt(7 / 32)
    assert nodes[0] == pytest.approx(-root, abs=1e-14)
    assert nodes[1] == pytest.approx(root, abs=1e-14)
    assert weights[0] == pytest.approx(0.5, abs=1e-14)
    assert weights[1] == pytest.approx(0.5, abs=1e-14)


@pytest.mark.parametrize("tag", ["q", "qbar"])
@pytest.mark.parametrize("n_nodes", [1, 2, 7, 20])
def test_weights_sum_to_m0_and_nodes_symmetric(tag, n_nodes):
    nodes, weights = golub_welsch(tag, n_nodes)
    assert sum(weights) == pytest.approx(1.0, abs=1e-12)
    for x, y in zip(nodes, reversed(nodes)):
        assert x == pytest.approx(-y, abs=1e-12)


@pytest.mark.parametrize("tag", ["q", "qbar"])
def test_quadrature_reproduces_exact_moments(tag):
    nodes, weights = golub_welsch(tag, 12)
    exact = moments(tag, 10)
    for k in range(11):
        approx = sum(w * x**k for x, w in zip(nodes, weights))
        assert approx == pytest.approx(float(exact[k]), abs=1e-13)


@pytest.mark.parametrize("tag", ["q", "qbar"])
def test_quad_orthogonality_error_bound(tag):
    assert quad_orthogonality(tag, 20, 8) <= 1e-10


@pytest.mark.parametrize("tag, n_nodes, max_deg", [("q", 60, 20), ("qbar", 60, 20), ("q", 20, 8)])
def test_quad_orthogonality_matches_evaluate_at_the_nodes(tag, n_nodes, max_deg):
    # each member on all the nodes at once gives evaluate's floats bit for
    # bit, so the largest off-diagonal sum is the one of the per-node loop
    nodes, weights = golub_welsch(tag, n_nodes)
    values = []
    for n in range(max_deg + 1):
        member = ortho_mod._member(tag, n)
        at_once = np.polyval([float(c) for c in reversed(member.coeffs)], np.array(nodes))
        values.append([float(member.evaluate(x)) for x in nodes])
        assert at_once.tolist() == values[-1]
    sums = (
        sum(w * values[i][k] * values[j][k] for k, w in enumerate(weights))
        for i in range(max_deg + 1)
        for j in range(i)
    )
    assert quad_orthogonality(tag, n_nodes, max_deg) == max(abs(acc) for acc in sums)


def test_quad_diagonal_positive():
    nodes, weights = golub_welsch("qbar", 20)
    for n in range(9):
        member = get_family(FamilyId.P2).qbar(n)
        diag = sum(w * float(member.evaluate(x)) ** 2 for x, w in zip(nodes, weights))
        assert diag > 0


def test_quad_orthogonality_requires_enough_nodes():
    with pytest.raises(ValueError):
        quad_orthogonality("q", 8, 8)


@pytest.mark.parametrize("max_deg", [0, -1])
def test_quad_orthogonality_rejects_a_degree_that_compares_no_pair(max_deg):
    # max_deg < 1 has no pair i != j, so its 0.0 would read as a pass
    with pytest.raises(ValueError, match="max_deg must be >= 1"):
        quad_orthogonality("qbar", 12, max_deg)


def dense_jacobi(tag, n_nodes):
    """The n x n Jacobi matrix, dense, from the exact beta_n^2."""
    data = three_term(tag)
    off = [math.sqrt(data.beta_sq(k)) for k in range(1, n_nodes)]
    return np.diag(off, 1) + np.diag(off, -1)


def dense_gauss_rule(tag, n_nodes):
    """Reference: dense symmetric eigendecomposition of the n x n Jacobi matrix."""
    eigvals, eigvecs = np.linalg.eigh(dense_jacobi(tag, n_nodes))
    return eigvals, eigvecs[0, :] ** 2


@pytest.mark.parametrize("tag", ["q", "qbar"])
@pytest.mark.parametrize("n_nodes", [1, 2, 3, 7, 20, 999, 1000])
def test_golub_welsch_matches_dense_eigh(tag, n_nodes):
    nodes, weights = golub_welsch(tag, n_nodes)
    ref_nodes, ref_weights = dense_gauss_rule(tag, n_nodes)
    assert np.max(np.abs(np.array(nodes) - ref_nodes)) <= 1e-13
    assert np.max(np.abs(np.array(weights) - ref_weights)) <= 1e-13
    assert nodes == sorted(nodes)
    assert nodes == [-x for x in reversed(nodes)]
    assert weights == weights[::-1]


def wrap_eigvalsh(monkeypatch, corrupt):
    """Route golub_welsch's eigenvalues of B^T B (sigma^2, ascending) through corrupt."""
    real = np.linalg.eigvalsh
    monkeypatch.setattr(ortho_mod.np.linalg, "eigvalsh", lambda gram: corrupt(real(gram).copy()))


def assert_rejected(n_nodes):
    for tag in ("q", "qbar"):
        with pytest.raises(NoConvergenceError, match="Sturm counts do not put node"):
            golub_welsch(tag, n_nodes)


def move_largest(sigma_sq):
    # sigma moved by 1e-3, beyond what one Newton step repairs
    sigma_sq[-1] = (math.sqrt(sigma_sq[-1]) + 1e-3) ** 2
    return sigma_sq


def test_golub_welsch_enforces_the_sturm_count_certificate(monkeypatch):
    # a node that no eigenvalue of J is within 1e-12 of fails its Sturm counts
    with monkeypatch.context() as patch:
        wrap_eigvalsh(patch, np.zeros_like)
        for n_nodes in (4, 6):
            assert_rejected(n_nodes)
    wrap_eigvalsh(monkeypatch, move_largest)
    for n_nodes in (6, 7, 20, 21, 127, 129):
        assert_rejected(n_nodes)


@pytest.mark.parametrize("n_nodes", [5, 7])
def test_golub_welsch_sturm_counts_bite_for_odd_n(monkeypatch, n_nodes):
    # an all-zero spectrum: for odd n 0 is a true eigenvalue of J, so every
    # node is within 1e-12 of one, but not of one of its own
    wrap_eigvalsh(monkeypatch, np.zeros_like)
    assert_rejected(n_nodes)


@pytest.mark.parametrize("n_nodes", [6, 7, 20])
def test_golub_welsch_sturm_counts_bite_on_swapped_singular_values(monkeypatch, n_nodes):
    # each node is a true eigenvalue, but out of order
    def swap(sigma_sq):
        sigma_sq[[0, 1]] = sigma_sq[[1, 0]]
        return sigma_sq

    wrap_eigvalsh(monkeypatch, swap)
    assert_rejected(n_nodes)


@pytest.mark.parametrize("n_nodes", [6, 7, 20])
def test_golub_welsch_sturm_counts_bite_on_a_duplicated_singular_value(monkeypatch, n_nodes):
    def duplicate(sigma_sq):
        sigma_sq[1] = sigma_sq[0]
        return sigma_sq

    wrap_eigvalsh(monkeypatch, duplicate)
    assert_rejected(n_nodes)


@pytest.mark.parametrize("n_nodes", [1, 2, 7, 20, 21, 129])
@pytest.mark.parametrize("node", [0, -1])
@pytest.mark.parametrize("shift", [3, -3])
def test_golub_welsch_rejects_a_node_moved_after_the_newton_step(monkeypatch, n_nodes, node, shift):
    # the second walk of each rule is the weights' one, at the Newton step's
    # nonnegative nodes; a node moved there by 3r is what the counts then read
    real, walks = ortho_mod._forward, []

    def move(beta, theta):
        walks.append(theta)
        if len(walks) % 2 == 0:
            theta[node] += shift * ortho_mod._NODE_RADIUS
        return real(beta, theta)

    monkeypatch.setattr(ortho_mod, "_forward", move)
    assert_rejected(n_nodes)


@pytest.mark.parametrize("tag", ["q", "qbar"])
@pytest.mark.parametrize("n_nodes", [1, 2, 3, 7, 20, 21, 60, 129])
def test_count_below_matches_dense_eigvalsh(tag, n_nodes):
    # at points 1e-9 or more from the spectrum, on both sides of every
    # eigenvalue and beyond its ends
    spectrum = np.linalg.eigvalsh(dense_jacobi(tag, n_nodes))
    points = np.concatenate([np.linspace(-1.5, 1.5, 1001), spectrum - 2e-9, spectrum + 2e-9])
    points = points[np.min(np.abs(points[:, None] - spectrum), axis=1) >= 1e-9]
    beta = [three_term(tag).beta(k) for k in range(1, n_nodes)]
    below = np.searchsorted(spectrum, points)
    assert np.array_equal(ortho_mod._count_below(beta, points), below)


@pytest.mark.parametrize("tag", ["q", "qbar"])
@pytest.mark.parametrize("n_nodes", [1, 3, 5, 7, 21, 61, 129])
def test_count_below_at_the_zero_eigenvalue(tag, n_nodes):
    # 0 is an eigenvalue of J for odd n, and at x = 0 a pivot can be exactly
    # 0; the count may put that eigenvalue on either side, and no other
    beta = [three_term(tag).beta(k) for k in range(1, n_nodes)]
    (count,) = ortho_mod._count_below(beta, np.zeros(1))
    assert count in ((n_nodes - 1) // 2, (n_nodes + 1) // 2)


def christoffel_reference(tag, nodes):
    """The zeros of the degree-n orthonormal p_n nearest the nodes, by Newton
    steps, and their Christoffel weights 1 / sum_{k<n} p_k^2, in decimal at
    40 digits with beta_k the square root of the exact beta_sq(k)."""
    data = three_term(tag)
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        beta = []
        for k in range(1, len(nodes) + 1):
            exact = data.beta_sq(k)
            beta.append((decimal.Decimal(exact.numerator) / exact.denominator).sqrt())
        zeros, weights = [], []
        for x in map(decimal.Decimal, nodes):
            for _ in range(4):
                # p_k and p_k' walked up together; the last pass sums p_k^2
                prev, cur, dprev, dcur, total, below = 0, 1, 0, 0, 0, 0
                for b in beta:
                    total += cur * cur
                    prev, cur, dprev, dcur = (
                        cur,
                        (x * cur - below * prev) / b,
                        dcur,
                        (cur + x * dcur - below * dprev) / b,
                    )
                    below = b
                x -= cur / dcur
            zeros.append(float(x))
            weights.append(float(1 / total))
    return zeros, weights


@pytest.mark.parametrize("tag", ["q", "qbar"])
@pytest.mark.parametrize("n_nodes", [7, 20, 60, 120])
def test_golub_welsch_weights_match_a_decimal_reference(tag, n_nodes):
    nodes, weights = golub_welsch(tag, n_nodes)
    zeros, ref_weights = christoffel_reference(tag, nodes)
    assert np.max(np.abs(np.subtract(nodes, zeros))) <= 1e-15
    assert np.max(np.abs(np.subtract(weights, ref_weights)) / ref_weights) <= 2e-13


def dense_assembly_rule(tag, n_nodes):
    """Reference: the rule from the full SVD of the bidiagonal block, assembled
    into the dense n x n eigenvector matrix."""
    data = three_term(tag)
    off = np.array([math.sqrt(data.beta_sq(k)) for k in range(1, n_nodes)])
    rows, cols = (n_nodes + 1) // 2, n_nodes // 2
    block = np.zeros((rows, cols))
    block[np.arange(cols), np.arange(cols)] = off[0::2]
    block[np.arange(1, rows), np.arange(rows - 1)] = off[1::2]
    u, sigma, wt = np.linalg.svd(block)
    even = u[:, :cols] / math.sqrt(2.0)
    odd = wt.T / math.sqrt(2.0)
    eigvals = np.concatenate([-sigma, np.zeros(rows - cols), sigma[::-1]])
    eigvecs = np.zeros((n_nodes, n_nodes))
    eigvecs[0::2] = np.hstack([even, u[:, cols:], even[:, ::-1]])
    eigvecs[1::2] = np.hstack([-odd, np.zeros((cols, rows - cols)), odd[:, ::-1]])
    return [float(x) for x in eigvals], [float(w) for w in eigvecs[0, :] ** 2]


@pytest.mark.parametrize("tag", ["q", "qbar"])
@pytest.mark.parametrize("n_nodes", [1, 2, 3, 7, 20, 999, 1000])
def test_golub_welsch_agrees_with_dense_assembly(tag, n_nodes):
    nodes, weights = golub_welsch(tag, n_nodes)
    ref_nodes, ref_weights = dense_assembly_rule(tag, n_nodes)
    assert np.max(np.abs(np.subtract(nodes, ref_nodes))) <= 4e-15
    assert np.max(np.abs(np.subtract(weights, ref_weights))) <= 4e-15


def dense_signed_rule(tag, n_nodes):
    """Reference: the Newton step and the Christoffel weights run on all n
    signed eigenvalues, with no mirroring."""
    data = three_term(tag)
    beta = [math.sqrt(data.beta_sq(k)) for k in range(1, n_nodes + 1)]
    cols = n_nodes // 2
    off = np.append(beta[:-1], 0.0)
    upper, lower = off[0 : 2 * cols : 2], off[1 : 2 * cols : 2]
    gram = np.diag(upper**2 + lower**2) + np.diag(lower[:-1] * upper[1:], -1)
    sigma = np.sqrt(np.linalg.eigvalsh(gram))
    signed = np.concatenate([-sigma[::-1], np.zeros(n_nodes - 2 * cols), sigma])
    prev, cur, total = ortho_mod._forward(beta, signed)
    theta = signed - beta[-1] * cur * prev / total
    weights = 1.0 / ortho_mod._forward(beta, theta)[2]
    return [float(x) for x in theta], [float(w) for w in weights]


@pytest.mark.parametrize("tag", ["q", "qbar"])
@pytest.mark.parametrize("n_nodes", [1, 2, 3, 7, 20, 999, 1000])
def test_golub_welsch_equals_dense_assembly_bitwise(tag, n_nodes):
    # the half-spectrum walks, mirrored, are bit for bit the full-spectrum ones
    assert golub_welsch(tag, n_nodes) == dense_signed_rule(tag, n_nodes)


def sign_at(numerators, top, bottom):
    """Sign of sum_i numerators[i] (top/bottom)^i for bottom > 0, exactly."""
    acc, scale = 0, 1
    for c in numerators:  # ascending powers: bottom^d p(top/bottom), homogenised
        acc = acc * bottom + c * scale
        scale *= top
    return (acc > 0) - (acc < 0)


@pytest.mark.parametrize("tag", ["q", "qbar"])
def test_golub_welsch_nodes_bracket_the_exact_zeros(tag):
    # the member of degree N changes sign, exactly, within 2^-52 of each node
    for n_nodes in range(1, 61):
        numerators, _ = _integer_row(ortho_mod._member(tag, n_nodes).coeffs)
        nodes, _ = golub_welsch(tag, n_nodes)
        for x in nodes:
            top, bottom = (F(x) * 2**52).as_integer_ratio()
            below = sign_at(numerators, top - bottom, bottom * 2**52)
            above = sign_at(numerators, top + bottom, bottom * 2**52)
            assert below * above <= 0, (n_nodes, x)


def test_three_term_data_reads_the_recurrence_on_every_call(monkeypatch):
    # a step read before the recurrence changes is not served after it
    data = three_term("q")
    data.A_pair(5)
    monkeypatch.setattr(
        ortho_mod.families, "master_step", lambda k: (4 * k, 7 - 2 * k, 6 + 2 * k)
    )
    assert data.C_pair(3) == three_term("q").C_pair(3) == (13, 40)


def test_golub_welsch_peak_is_bounded_by_the_btb_block():
    # no eigenvector is built: the 500 x 500 B^T B is the largest array, and
    # its eigenvalues set the peak; numpy reports its buffers to tracemalloc
    gram = 500 * 500 * 8
    golub_welsch("q", 20)  # numpy's lazy imports, outside the trace
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        golub_welsch("q", 1000)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * gram


def test_golub_welsch_large_rule():
    nodes, weights = golub_welsch("q", 3001)
    assert nodes == sorted(nodes)
    assert nodes == [-x for x in reversed(nodes)]
    assert abs(sum(weights) - 1) <= 1e-12


# ---------------------------------------------------------------------------
# hyp2f1
# ---------------------------------------------------------------------------


def test_hyp2f1_at_zero():
    assert hyp2f1(2.3, -1.2, 0.7, 0) == 1


def test_hyp2f1_log_identity():
    # 2F1(1,1;2;z) = -log(1-z)/z
    value = hyp2f1(1, 1, 2, 0.5, tol=1e-15)
    assert abs(value - 2 * math.log(2)) <= 1e-12


def test_hyp2f1_elliptic_integral_quadrature_oracle():
    # 2F1(1/2,1/2;1;m) = (2/pi) K(m) with K from numeric quadrature
    from scipy.integrate import quad

    m = 0.3
    k_val, _ = quad(lambda t: 1.0 / math.sqrt(1.0 - m * math.sin(t) ** 2), 0, math.pi / 2)
    value = hyp2f1(0.5, 0.5, 1.0, m, tol=1e-14)
    assert abs(value - 2 * k_val / math.pi) <= 1e-10


def test_hyp2f1_terminating_series_at_unit_argument():
    # 2F1(-3,1;2;1) = (c-b)_3/(c)_3 = (1)_3/(2)_3 = 1/4
    assert abs(hyp2f1(-3, 1, 2, 1.0) - 0.25) <= 1e-14


def test_hyp2f1_convergent_on_circle_against_gauss_formula():
    # Re(c-a-b) = 3/2 > 0, so z = 1 converges (slowly, ~n^(-5/2) terms);
    # oracle: 2F1(a,b;c;1) = G(c)G(c-a-b) / (G(c-a)G(c-b))
    a, b, c = 0.5, 0.5, 2.5
    expected = (
        math.gamma(c) * math.gamma(c - a - b) / (math.gamma(c - a) * math.gamma(c - b))
    )
    value = hyp2f1(a, b, c, 1.0, tol=1e-6)
    assert abs(value - expected) <= 1e-5


def test_hyp2f1_complex_argument():
    import cmath

    z = 0.3 + 0.4j  # |z| = 0.5
    value = hyp2f1(1, 1, 2, z, tol=1e-15)
    expected = -cmath.log(1 - z) / z
    assert abs(value - expected) <= 1e-12


def test_hyp2f1_domain_errors():
    # a numeric bound not met is a failed check, so ``all`` reports it as one
    assert issubclass(NoConvergenceError, VerificationError)
    with pytest.raises(NoConvergenceError):
        hyp2f1(1, 1, 2, 1.5)
    with pytest.raises(NoConvergenceError):
        hyp2f1(1, 1, 2, 1.0)  # Re(c-a-b) = 0 on the circle
    with pytest.raises(NoConvergenceError):
        hyp2f1(1, 2, 1, -1.0)  # Re(c-a-b) = -2 on the circle
    with pytest.raises(NoConvergenceError):
        hyp2f1(1, 1, -2, 0.5)  # (c)_n hits zero before termination


def test_hyp2f1_rejects_bad_tol():
    with pytest.raises(ValueError):
        hyp2f1(1, 1, 2, 0.5, tol=0)


def test_hyp2f1_raises_when_the_term_budget_runs_out(monkeypatch):
    # 2F1(1,1;2;1/2) needs ~45 terms for 1e-15; five leave a tail near 1e-3
    monkeypatch.setattr(ortho_mod, "_MAX_TERMS", 5)
    with pytest.raises(NoConvergenceError, match=r"tolerance 1e-15 not reached in 5 terms"):
        hyp2f1(1, 1, 2, 0.5)
