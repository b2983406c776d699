"""Differential reduction, cocycle shapes, and the central-extension table."""

from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import djkm.cocycle as cocycle_mod
from djkm import families
from djkm.cocycle import (
    OmegaVector,
    cocycle,
    psi,
    reduce_plain,
    reduce_u_monomial,
    t_pow,
    t_pow_u,
    uu_central_term,
    verify_antisymmetry,
    verify_psi_table,
    verify_uu_terms,
)
from djkm.exact import RationalPoly, VerificationError

C = RationalPoly.variable()
HALF = RationalPoly.constant(F(1, 2))


def vec(w0=0, **kw):
    """Convenience builder: vec(m1=..., m3=...) for omega_{-1}, omega_{-3}."""
    parts = OmegaVector.basis_w0().scale(w0) if w0 else OmegaVector.zero()
    for name, coef in kw.items():
        k = -int(name[1])
        parts = parts + OmegaVector.basis_u(k).scale(coef)
    return parts


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------


def test_basis_window_is_fixed():
    for k in (-1, -2, -3, -4):
        assert reduce_u_monomial(k) == OmegaVector.basis_u(k)


def test_reduce_k0_single_downward_step():
    # 6 t^0 u dt == 6 t^-4 u dt
    assert reduce_u_monomial(0) == OmegaVector.basis_u(-4)


def test_reduce_k1_single_downward_step():
    # 8 t^1 u dt == 4 t^-3 u dt + 4c t^-1 u dt
    assert reduce_u_monomial(1) == vec(m3=HALF, m1=HALF * C)


def test_reduce_upward_values():
    # solving the relation for the lowest index:
    # t^-5 u dt == (c/2) w-3 + (1/2) w-1;  t^-6 u dt == (4c/5) w-4 + (1/5) w-2
    assert reduce_u_monomial(-5) == vec(m3=HALF * C, m1=HALF)
    assert reduce_u_monomial(-6) == vec(
        m4=RationalPoly([0, F(4, 5)]), m2=RationalPoly.constant(F(1, 5))
    )


@pytest.mark.parametrize("first", [-60, 120], ids=["bottom-first", "top-first"])
def test_reduction_satisfies_defining_relation_everywhere(cold_caches, first):
    # The paper's master recurrence, typed here by hand as the reference for
    # the reduction derived from p(t):
    #   (6+2k) red(k) = -2(k-3) red(k-4) + 4kc red(k-2).
    # It must hold in both directions, whichever end of a cold cache is filled
    # first; this also certifies that the bottom solve inverts the top one.
    reduce_u_monomial(first)
    for k in range(-60, 121):
        lhs = reduce_u_monomial(k).scale(6 + 2 * k)
        rhs = reduce_u_monomial(k - 4).scale(-2 * (k - 3)) + reduce_u_monomial(
            k - 2
        ).scale(C * (4 * k))
        assert (lhs - rhs).is_zero(), f"relation fails at k={k}"


def test_a_p_with_a_nonconstant_end_coefficient_is_refused(cold_caches, monkeypatch):
    # solving for the top term divides by p's t^4 coefficient
    monkeypatch.setitem(families.QUARTIC, 4, C)
    with pytest.raises(VerificationError, match="not a nonzero constant"):
        reduce_u_monomial(0)


def test_the_center_basis_follows_the_degree_of_p(cold_caches, monkeypatch):
    # p is read when it is used: a degree-6 p patched after import reduces
    # over w0, w-1, ..., w-6, top end first, then bottom end
    with monkeypatch.context() as patch:
        patch.setitem(families.QUARTIC, 6, 1)
        # d(t^-5 u^3) at m = -5: 8 t^0 u dt == 10 w-6 - 8c w-4 - 2 w-2
        assert reduce_u_monomial(0).scale(8) == vec(m6=10, m4=C * -8, m2=-2)
        for k in range(-1, -7, -1):
            assert reduce_u_monomial(k) == OmegaVector.basis_u(k)
        with pytest.raises(ValueError):
            OmegaVector.basis_u(-7)
        # d(t^m u^3) = sum_e (m + 3e/2) p_e t^{m+e-1} u dt == 0 for every m
        for m in range(-40, 41):
            total = OmegaVector.zero()
            for e, p_e in families.QUARTIC.items():
                total = total + reduce_u_monomial(m + e - 1).scale(p_e * (2 * m + 3 * e))
            assert total.is_zero(), f"relation fails at m={m}"
        assert len(OmegaVector.zero().to_json()) == 7
        assert list(reduce_u_monomial(-40).to_json())[-1] == "w-6"
    assert len(OmegaVector.zero().to_json()) == 5


def test_reduce_plain_cases():
    assert reduce_plain(3).is_zero()  # d(t^4/4)
    assert reduce_plain(-2).is_zero()  # d(-t^-1)
    assert reduce_plain(-1) == OmegaVector.basis_w0()


# ---------------------------------------------------------------------------
# cocycle shapes
# ---------------------------------------------------------------------------


def test_plain_plain_shape():
    # t^i d(t^j) = j delta_{i+j,0} w0
    assert cocycle(t_pow(3), t_pow(-3)) == OmegaVector.basis_w0().scale(-3)
    assert cocycle(t_pow(2), t_pow(5)).is_zero()


def test_uu_shape_matches_bracket_deltas():
    # i=3, j=-1 puts i+j=2 in the (j-1) delta slot: (j-1) = -2
    got = cocycle(t_pow_u(3 - 1), t_pow_u(-1 - 1))
    assert got == OmegaVector.basis_w0().scale(-2)


def test_mixed_shape_reduces_u_monomial():
    # t^{i-1} u d(t^j) with i=2, j=1: 1 * t^1 u dt
    assert cocycle(t_pow_u(1), t_pow(1)) == vec(m3=HALF, m1=HALF * C)


def test_mixed_shape_with_zero_j():
    assert cocycle(t_pow_u(5), t_pow(0)).is_zero()


def test_uu_central_terms_sweep():
    for i in range(-12, 13):
        for j in range(-12, 13):
            got = cocycle(t_pow_u(i - 1), t_pow_u(j - 1))
            assert (got - uu_central_term(i, j)).is_zero()


def test_cocycle_matches_its_branch_formulas():
    # the four branches of cocycle's docstring, each summed term by term over
    # p(t) with the public vector arithmetic
    w0 = OmegaVector.basis_w0()
    for a in range(-6, 7):
        for b in range(-6, 7):
            # t^a d(t^b) = b t^{a+b-1} dt, of class b w0 at t^-1 dt alone
            plain = w0.scale(b) if a + b == 0 else OmegaVector.zero()
            # t^a u d(t^b u) = sum_e (b + e/2) p_e t^{a+b+e-1} dt
            uu = OmegaVector.zero()
            for e, p_e in families.QUARTIC.items():
                if a + b + e == 0:
                    uu = uu + w0.scale(p_e * (b + F(e, 2)))
            assert cocycle(t_pow(a), t_pow(b)) == plain, (a, b)
            assert cocycle(t_pow_u(a), t_pow_u(b)) == uu, (a, b)
            # t^a u d(t^b) = b t^{a+b-1} u dt
            got = cocycle(t_pow_u(a), t_pow(b))
            assert got == reduce_u_monomial(a + b - 1).scale(b), (a, b)
            # t^a d(t^b u) = d(t^{a+b} u) - a t^{a+b-1} u dt
            got = cocycle(t_pow(a), t_pow_u(b))
            assert got == reduce_u_monomial(a + b - 1).scale(-a), (a, b)


def test_each_verify_loop_calls_each_function_once_per_case(monkeypatch):
    # no case may be skipped, or served from a result kept across cases: each
    # (i, j) calls cocycle, psi and uu_central_term through the module
    calls = {name: Counter() for name in ("cocycle", "psi", "uu_central_term")}
    for name, counter in calls.items():
        real = getattr(cocycle_mod, name)

        def counted(*args, real=real, counter=counter):
            counter[args] += 1
            return real(*args)

        monkeypatch.setattr(cocycle_mod, name, counted)

    def run(check, bound):
        for counter in calls.values():
            counter.clear()
        result = check(bound)
        return result, {name: dict(counter) for name, counter in calls.items()}

    b = 4
    window = range(-b, b + 1)
    cases = [(i, j) for i in window for j in window if j]
    report, got = run(verify_psi_table, b)
    assert report.passed and report.cases == 2 * b * (2 * b + 1) == len(cases)
    assert got == {
        "cocycle": {(t_pow_u(i - 1), t_pow(j)): 1 for i, j in cases},
        "psi": {case: 1 for case in cases},
        "uu_central_term": {},
    }
    cases = [(i, j) for i in window for j in window]
    assert run(verify_uu_terms, b) == (True, {
        "cocycle": {(t_pow_u(i - 1), t_pow_u(j - 1)): 1 for i, j in cases},
        "psi": {},
        "uu_central_term": {case: 1 for case in cases},
    })
    # the case (f, g) calls cocycle(f, g) and cocycle(g, f), and so does (g, f)
    pairs = [(t(i), t(j)) for t in (t_pow, t_pow_u) for i, j in cases]
    assert run(verify_antisymmetry, b) == (True, {
        "cocycle": {pair: 2 for pair in pairs},
        "psi": {},
        "uu_central_term": {},
    })


def test_antisymmetry_all_shapes():
    monos = [t_pow(3), t_pow(-2), t_pow(0), t_pow_u(1), t_pow_u(-4), t_pow_u(2)]
    for f in monos:
        for g in monos:
            assert (cocycle(f, g) + cocycle(g, f)).is_zero()


# ---------------------------------------------------------------------------
# psi table
# ---------------------------------------------------------------------------


def test_psi_basis_window():
    assert psi(1, 0) == OmegaVector.basis_u(-1)
    assert psi(0, 0) == OmegaVector.basis_u(-2)
    assert psi(0, -1) == OmegaVector.basis_u(-3)
    assert psi(-1, -1) == OmegaVector.basis_u(-4)


def test_psi_odd_positive_branch():
    # i+j = 3: P_{-3,1} (w-3 + c w-1) = (1/2) w-3 + (c/2) w-1
    assert psi(2, 1) == vec(m3=HALF, m1=HALF * C)


def test_psi_odd_negative_branch_swaps_weights():
    # i+j = -3: P_{-3,1} (c w-3 + w-1) = (c/2) w-3 + (1/2) w-1
    assert psi(-2, -1) == vec(m3=HALF * C, m1=HALF)


def test_psi_even_branch():
    # |i+j| = 2: P_{-4,0} w-4 + P_{-2,0} w-2 = w-4 (P_{-2,0} = 0)
    assert psi(1, 1) == OmegaVector.basis_u(-4)
    assert psi(-1, -1) == OmegaVector.basis_u(-4)
    # |i+j| = 4: P_{-4,2} w-4 + P_{-2,2} w-2 = (4c/5) w-4 + (1/5) w-2
    expected = vec(m4=RationalPoly([0, F(4, 5)]), m2=RationalPoly.constant(F(1, 5)))
    assert psi(2, 2) == expected
    assert psi(-2, -2) == expected


def test_psi_depends_only_on_index_sum():
    for s in range(-9, 10):
        base = psi(s, 0)
        for i in (-3, 1, 4):
            assert psi(i, s - i) == base


def test_single_case_i0_j1():
    # cocycle(t^{-1} u, t^1) = t^{-1} u dt = w-1 = 1 * psi(0, 1)
    got = cocycle(t_pow_u(-1), t_pow(1))
    assert got == OmegaVector.basis_u(-1)
    assert got == psi(0, 1).scale(1)


def test_verify_psi_table_bound_12():
    report = verify_psi_table(12)
    assert report.passed
    assert report.cases == 25 * 24  # j != 0
    assert report.failures == ()


def test_verify_psi_table_rejects_bad_bound():
    with pytest.raises(ValueError):
        verify_psi_table(0)


@pytest.mark.parametrize("bound", [0, -1])
def test_verify_uu_terms_rejects_an_empty_window(bound):
    # bound -1 is an empty window, and would pass with no case checked
    with pytest.raises(ValueError):
        verify_uu_terms(bound)


@pytest.mark.parametrize("bound", [0, -1])
def test_verify_antisymmetry_rejects_an_empty_window(bound):
    with pytest.raises(ValueError):
        verify_antisymmetry(bound)


def test_omega_vector_json_shape():
    data = psi(2, 1).to_json()
    assert set(data) == {"w0", "w-1", "w-2", "w-3", "w-4"}
    assert data["w-3"] == {"coeffs": [["1", "2"]]}
    zero = OmegaVector.zero().to_json()
    assert list(zero) == ["w0", "w-1", "w-2", "w-3", "w-4"]
    assert all(coord == {"coeffs": []} for coord in zero.values())


# ---------------------------------------------------------------------------
# the sparse vector against a dense reference
# ---------------------------------------------------------------------------

NAMES = ("w0", "w-1", "w-2", "w-3", "w-4")
small_polys = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=4), max_size=3
).map(RationalPoly)
# five coordinates, with the zero polynomial drawn often
dense_coords = st.lists(
    st.one_of(st.just(RationalPoly.zero()), small_polys), min_size=5, max_size=5
)


def from_dense(coords):
    out = OmegaVector.basis_w0().scale(coords[0])
    for k, coef in zip((-1, -2, -3, -4), coords[1:]):
        out = out + OmegaVector.basis_u(k).scale(coef)
    return out


def to_dense(v):
    data = v.to_json()
    assert tuple(data) == NAMES
    return [RationalPoly.from_json(data[name]) for name in NAMES]


@settings(max_examples=60, deadline=None)
@given(
    dense_coords,
    dense_coords,
    st.integers(-5, 5),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    small_polys,
)
def test_sparse_vector_matches_dense_reference(xs, ys, n, q, poly):
    u, v = from_dense(xs), from_dense(ys)
    assert to_dense(u) == xs
    results = [
        (u + v, [x + y for x, y in zip(xs, ys)]),
        (u - v, [x - y for x, y in zip(xs, ys)]),
        (-u, [-x for x in xs]),
    ]
    for factor in (0, n, q, poly, RationalPoly.zero()):
        results.append((u.scale(factor), [x * factor for x in xs]))
    for got, want in results:
        assert to_dense(got) == want
        assert not any(p.is_zero() for p in got._coords.values())
        same = from_dense(want)
        assert got == same
        assert hash(got) == hash(same)
    assert (u + v) - v == u
    assert hash((u + v) - v) == hash(u)
