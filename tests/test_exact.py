"""Exact-core tests: polynomial ring axioms, series algebra, truncation rules."""

import math
from fractions import Fraction as F
from itertools import zip_longest

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from djkm.exact import (
    LaurentSeries,
    NonDivisibleError,
    NotSquareError,
    RationalPoly,
    ResidueError,
    VerificationError,
    diff_combination,
    is_shift_combination,
    shift_combination,
    table_combinations,
)
from djkm import exact
from djkm.diffops import CASE3_TABLE, ELLIPTIC1_TABLE, ELLIPTIC2_TABLE, LinearDiffOp
from djkm.exact import _pack, _unpack
from djkm.families import FamilyId, get_family

C = RationalPoly.variable()


def small_fractions():
    return st.fractions(min_value=-4, max_value=4, max_denominator=12)


def polys(max_degree=5):
    return st.lists(small_fractions(), min_size=0, max_size=max_degree + 1).map(
        RationalPoly
    )


# ---------------------------------------------------------------------------
# RationalPoly
# ---------------------------------------------------------------------------


def test_trailing_zeros_stripped_and_degree():
    p = RationalPoly([1, 2, 0, 0])
    assert p.degree == 1
    assert RationalPoly([]).degree == -1
    assert RationalPoly([0, 0]).is_zero()


def test_derivative_power_rule():
    # d/dc (32c^2 - 5)/35 = 64c/35
    p = RationalPoly([F(-5, 35), 0, F(32, 35)])
    assert p.derivative() == RationalPoly([0, F(64, 35)])


def test_exact_divide_factorization():
    num = RationalPoly([-1, 0, 1])  # c^2 - 1
    den = RationalPoly([-1, 1])  # c - 1
    assert num.exact_divide(den) == RationalPoly([1, 1])


def test_exact_divide_remainder_raises():
    num = RationalPoly([-1, 0, 1])
    with pytest.raises(NonDivisibleError):
        num.exact_divide(RationalPoly([-2, 1]))  # c - 2 leaves remainder 3


def test_divide_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        C.exact_divide(RationalPoly.zero())
    with pytest.raises(ZeroDivisionError):
        C / 0


def test_evaluate_direct_substitution():
    p = RationalPoly([F(-5, 35), 0, F(32, 35)])
    # oracle: plain substitution 32*1/35 - 5/35
    assert p.evaluate(F(1)) == F(32, 35) - F(5, 35) == F(27, 35)
    assert p.evaluate(0.5) == pytest.approx(32 / 35 * 0.25 - 5 / 35)


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_division_inverts_multiplication(a, b):
    if b.is_zero():
        return
    assert (a * b).exact_divide(b) == a


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_coefficients_stay_reduced(a, b):
    # Fraction keeps gcd(|num|, den) = 1 and den > 0 through any operation mix
    for p in (a + b, a * b, a - b, a.derivative()):
        for coef in p.coeffs:
            import math

            assert coef.denominator > 0
            assert math.gcd(abs(coef.numerator), coef.denominator) == 1


@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_derivative_leibniz(a, b):
    assert (a * b).derivative() == a.derivative() * b + a * b.derivative()


def test_json_round_trip():
    p = RationalPoly([F(-5, 35), 0, F(32, 35)])
    data = p.to_json()
    assert data == {"coeffs": [["-1", "7"], ["0", "1"], ["32", "35"]]}
    assert RationalPoly.from_json(data) == p


def test_constants_hash_as_the_scalars_they_equal():
    for value in (0, 1, -3, F(1, 2), F(-7, 3), 2**80):
        p = RationalPoly.constant(value)
        assert p == value and hash(p) == hash(value) == hash(F(value))
        assert len({p, value, F(value)}) == 1
    assert len({RationalPoly.one(), 1, RationalPoly.zero(), 0}) == 2
    assert hash(C) == hash((F(0), F(1)))


@pytest.mark.parametrize("x", [3, -1, F(-2, 7), F(15, 4), 2**80])
@pytest.mark.parametrize("p", [C, RationalPoly([F(1, 3), 0, F(-4, 5), 7]), RationalPoly([F(6, 5)])])
def test_a_constant_factor_scales_without_a_convolution(monkeypatch, p, x):
    expected = p * x
    const = RationalPoly.constant(x)

    def convolve(a, b):
        raise AssertionError("a degree-0 factor reached _convolve")

    monkeypatch.setattr(exact, "_convolve", convolve)
    assert p * const == expected
    assert const * p == expected
    assert (p * const).to_json() == expected.to_json()


def test_float_evaluate_with_numerators_beyond_float_range():
    # Over the common denominator 2**1100 the numerators do not fit a float;
    # a float point must go through the reduced coefficients.
    p = RationalPoly([F(2**1100 + 1, 2**1100), F(-3, 2**1100)])
    assert p.evaluate(0.5) == 1.0


# ---------------------------------------------------------------------------
# Integer numerators over one denominator, against a list-of-Fraction reference
# ---------------------------------------------------------------------------


def rationals():
    wide = st.builds(F, st.integers(-(2**70), 2**70), st.integers(1, 2**40))
    return st.one_of(small_fractions(), wide)


def steps():
    """Integer steps (x, y, z) of shift_combination: z nonzero of either sign,
    and x = 0 or y = 0 drawn often."""
    multiplier = st.one_of(st.just(0), st.integers(-12, 12), st.integers(-(2**70), 2**70))
    divisor = st.one_of(st.integers(-12, 12), st.integers(-(2**40), 2**40)).filter(bool)
    return st.tuples(multiplier, multiplier, divisor)


def trimmed(cs):
    cs = [F(x) for x in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def ref_add(a, b, sign=1):
    return trimmed(x + sign * y for x, y in zip_longest(a, b, fillvalue=F(0)))


def ref_mul(a, b):
    out = [F(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trimmed(out)


def ref_divmod(a, b):
    rem, q = list(a), [F(0)] * max(len(a) - len(b) + 1, 0)
    for i in range(len(q) - 1, -1, -1):
        q[i] = rem[i + len(b) - 1] / b[-1]
        for j, y in enumerate(b):
            rem[i + j] -= q[i] * y
    return trimmed(q), trimmed(rem)


def assert_canonical(p):
    num, den = p._num, p._den
    assert type(den) is int and den > 0
    assert all(type(x) is int for x in num)
    assert not num or num[-1] != 0
    assert math.gcd(den, *num) == 1
    if not num:
        assert (num, den) == ((), 1)


def ref_derivative(a):
    return trimmed(i * y for i, y in enumerate(a))[1:]


def ref_diff_combination(fs, a):
    out, deriv = [], a
    for i, f in enumerate(fs):
        if i:
            deriv = ref_derivative(deriv)
        out = ref_add(out, ref_mul(f, deriv))
    return out


def ref_float_horner(ref, x):
    value = 0 * x
    for y in reversed(ref):
        value = value * x + float(y)
    return value


@settings(max_examples=150, deadline=None)
@given(
    st.lists(rationals(), max_size=7),
    st.lists(rationals(), max_size=7),
    rationals(),
    st.integers(min_value=0, max_value=4),
    rationals(),
    # operator coefficients f_0..f_4, with degrees above i and zero entries
    st.lists(
        st.one_of(st.just([]), st.lists(st.one_of(st.just(F(0)), rationals()), max_size=7)),
        max_size=5,
    ),
    steps(),
)
def test_matches_fraction_list_reference(a, b, s, k, x, fs, step):
    pa, pb = RationalPoly(a), RationalPoly(b)
    ra, rb = trimmed(a), trimmed(b)
    rfs = [trimmed(f) for f in fs]
    cases = {
        "a": (pa, ra),
        "add": (pa + pb, ref_add(ra, rb)),
        "sub": (pa - pb, ref_add(ra, rb, -1)),
        "neg": (-pa, [-y for y in ra]),
        "mul": (pa * pb, ref_mul(ra, rb)),
        "scalar-mul": (pa * s, trimmed(y * s for y in ra)),
        "scalar-rmul": (s * pa, trimmed(y * s for y in ra)),
        "scale-shift": (pa.scale_shift(s, k), trimmed([0] * k + [y * s for y in ra])),
        "derivative": (pa.derivative(), ref_derivative(ra)),
        "diff-combination": (
            diff_combination([RationalPoly(f) for f in fs], pa),
            ref_diff_combination(rfs, ra),
        ),
        "shift-combination": (
            shift_combination(pa, step[0], pb, step[1], step[2]),
            ref_add(
                [u * F(step[0], step[2]) for u in [F(0)] + ra],
                [u * F(step[1], step[2]) for u in rb],
            ),
        ),
    }
    if s:
        cases["scalar-div"] = (pa / s, trimmed(y / s for y in ra))
    if rb:
        quotient, remainder = ref_divmod(ra, rb)
        if remainder:
            with pytest.raises(NonDivisibleError):
                pa.exact_divide(pb)
        else:
            cases["exact-divide"] = (pa.exact_divide(pb), quotient)
        cases["exact-divide-product"] = ((pa * pb).exact_divide(pb), ra)
    for name, (p, ref) in cases.items():
        assert_canonical(p)
        assert p.coeffs == tuple(ref), name
        assert p == RationalPoly(ref), name
        # a constant hashes as the scalar it equals
        assert hash(p) == hash(tuple(ref) if len(ref) > 1 else ref[0] if ref else 0), name
        assert p.to_json() == {
            "coeffs": [[str(y.numerator), str(y.denominator)] for y in ref]
        }, name
        value = p.evaluate(x)
        assert type(value) is F and value == sum(
            (y * x**i for i, y in enumerate(ref)), F(0)
        ), name
        fx = float(x)
        assert repr(p.evaluate(fx)) == repr(ref_float_horner(ref, fx)), name


@settings(max_examples=200, deadline=None)
@given(
    polys(),
    steps(),
    st.one_of(st.just(RationalPoly.zero()), polys()),
    # the target's offset from the step, often zero
    st.one_of(st.just(RationalPoly.zero()), polys(), polys().map(lambda p: p.scale_shift(1, 1))),
)
def test_shift_tie_agrees_with_building_the_step(a, xyz, b, offset):
    x, y, z = xyz
    step = shift_combination(a, x, b, y, z)
    top = RationalPoly.monomial(step.coefficient(step.degree), max(step.degree, 0))
    # the step itself, plus an offset, doubled, and cut below its top term
    for target in (step + offset, step.scale_shift(2, 0) + offset, step - top):
        assert is_shift_combination(target, a, x, b, y, z) == (step == target)


def test_shift_tie_with_a_zero_second_operand():
    # the first step of a three-term recurrence, p_{-1} = 0, on a mixed-parity a
    a, zero = RationalPoly([F(1, 3), 2, F(-5, 6)]), RationalPoly.zero()
    step = shift_combination(a, 3, zero, 2, 4)
    assert step == a.scale_shift(F(3, 4), 1)
    assert step == shift_combination(a, -3, zero, -2, -4)
    assert is_shift_combination(step, a, 3, zero, 2, 4)
    assert not is_shift_combination(step + RationalPoly.monomial(F(1, 9), 3), a, 3, zero, 4, 4)
    assert not is_shift_combination(step, a, 3, RationalPoly.one(), 2, 4)


def test_shift_tie_rejects_a_zero_multiplier_of_the_target():
    # z = 0 would decide 0 == x c a + y b, which holds for x = y = 0
    zero = RationalPoly.zero()
    with pytest.raises(ValueError):
        is_shift_combination(RationalPoly.one(), zero, 0, zero, 0, 0)
    with pytest.raises(ValueError):
        shift_combination(RationalPoly.one(), 1, zero, 0, 0)


# ---------------------------------------------------------------------------
# The sweep kernel against the Fraction-list reference
# ---------------------------------------------------------------------------


def ref_table_combination(rows, n, p):
    """sum_i f_i (d/dc)**i p by ref_diff_combination, f_i the rows at n."""
    fs = [trimmed(sum(F(a) * n**j for j, a in enumerate(t)) for t in row) for row in rows]
    return RationalPoly(ref_diff_combination(fs, list(p.coeffs)))


def perturbed(p):
    """p, and p with one more even term, a mixed parity and the other parity."""
    return (p, p + RationalPoly.one(), p + C, p.scale_shift(F(-3, 7), 1))


def spy_widths(monkeypatch):
    widths = []
    unpack = exact._unpack

    def recorded(total, width, slots):
        widths.append(width)
        return unpack(total, width, slots)

    monkeypatch.setattr(exact, "_unpack", recorded)
    return widths


@pytest.mark.parametrize(
    "family, rows", [(FamilyId.P4, ELLIPTIC1_TABLE), (FamilyId.P2, ELLIPTIC2_TABLE)]
)
def test_sweep_kernel_matches_the_reference_near_desk_and_deep_depths(family, rows):
    fam = get_family(family)
    # one sweep over three keys (first, step) of packed columns
    points = [(n, q) for n in (400, 480) for q in perturbed(fam.shifted(n))]
    got = table_combinations(rows, points)
    assert [r.is_zero() for r in got] == [True, False, False, False] * 2
    for (n, q), r in zip(points, got):
        assert r == ref_table_combination(rows, n, q), n


def test_sweep_kernel_with_negative_shifts_matches_the_reference():
    p1 = get_family(FamilyId.P1)
    points = [(n, q) for n in (199, 200) for q in perturbed(p1.original(2 * n - 3))]
    got = table_combinations(CASE3_TABLE, points)
    assert [r.is_zero() for r in got] == [True, False, False, False] * 2
    for (n, q), r in zip(points, got):
        assert r == ref_table_combination(CASE3_TABLE, n, q), n


# shifts i - t of -1, 0 and 1: with one parity in p, the odd and even shifts
# land on the two parities of the residual
ODD_SHIFT_TABLE = (((1,), (2, -1)), ((-3, 0, 1),), ((), (), (1, 0, 1)))
# weights past 2**63, which take 128-bit slots
WIDE_TABLE = (((2**70, 1),), ((), (-(2**66),)), ((5,), (), (3,)), ((), (), (), (2**62,)))


@pytest.mark.parametrize("rows, wide", [(ODD_SHIFT_TABLE, False), (WIDE_TABLE, True)])
def test_sweep_kernel_on_odd_shifts_and_wide_slots(monkeypatch, rows, wide):
    widths = spy_widths(monkeypatch)
    polys = [
        RationalPoly([F(3**k, 7**j) for j, k in enumerate(range(m, 0, -1))]) for m in (1, 2, 9)
    ]
    points = [(n, q) for n in (-5, 0, 3, 40) for p in polys for q in perturbed(p)]
    got = table_combinations(rows, points)
    assert any(got)
    for (n, q), r in zip(points, got):
        assert r == ref_table_combination(rows, n, q), (n, q)
    assert widths and set(widths) == ({128} if wide else {64})


def test_operator_with_coprime_denominators_applies_in_wide_slots(monkeypatch):
    # over the lcm of its coprime denominators, past 2**64, the operator is an
    # integer table whose weights need slots wider than 64 bits
    fs = (
        RationalPoly([F(3, 2**61 - 1), F(-1, 7)]),
        RationalPoly([0, F(5, 2**31 - 1)]),
        RationalPoly([F(2, 3), 0, F(-1, 2**61 - 1)]),
    )
    assert math.lcm(*(f._den for f in fs)) > 2**64
    op = LinearDiffOp(fs)
    widths = spy_widths(monkeypatch)
    polys = [
        RationalPoly([F(3**k, 7**j) for j, k in enumerate(range(m, 0, -1))]) for m in (1, 2, 9)
    ]
    for q in [RationalPoly.zero()] + [q for p in polys for q in perturbed(p)]:
        ref = ref_diff_combination([list(f.coeffs) for f in fs], list(q.coeffs))
        assert op.apply(q) == RationalPoly(ref), q
    assert widths and min(widths) > 64


@pytest.mark.parametrize(
    "digits",
    [[0], [1], [-1], [0, 1, -1], [2**63 - 1], [-(2**63 - 1)], [2**63 - 1, -(2**63 - 1), 0, -1, 1]],
)
def test_unpack_at_64_bits_matches_the_general_branch(digits):
    for spare in (0, 3):
        slots = len(digits) + spare
        wide = _unpack(_pack(digits, 128), 128, slots)
        assert _unpack(_pack(digits, 64), 64, slots) == wide == digits + [0] * spare


@pytest.mark.parametrize("top", [2**63, -(2**63) - 1])
def test_unpack_at_64_bits_catches_a_spilling_top_slot(top):
    with pytest.raises(VerificationError, match="overflows 2 slots of 64 bits"):
        _unpack(_pack((5, top), 64), 64, 2)


# ---------------------------------------------------------------------------
# LaurentSeries
# ---------------------------------------------------------------------------


def quartic(trunc):
    return LaurentSeries.from_terms({0: 1, 2: RationalPoly([0, -2]), 4: 1}, trunc)


def test_sqrt_against_binomial_oracle():
    # (1+a)^(1/2) = 1 + a/2 - a^2/8 + ... with a = -2cz^2 + z^4 gives
    # 1 - c z^2 + ((1-c^2)/2) z^4
    r = quartic(8).sqrt()
    assert r.coefficient(0) == RationalPoly.one()
    assert r.coefficient(1).is_zero()
    assert r.coefficient(2) == RationalPoly([0, -1])
    assert r.coefficient(4) == RationalPoly([F(1, 2), 0, F(-1, 2)])


def test_sqrt_of_one():
    one = LaurentSeries.from_terms({0: 1}, 10)
    assert one.sqrt().truncate(10) == one.truncate(10)


def test_pow_neg_3_2_against_binomial_oracle():
    # (1+a)^(-3/2) = 1 - (3/2)a + (15/8)a^2 - ... gives
    # 1 + 3c z^2 + ((15c^2 - 3)/2) z^4
    r = quartic(8).pow_neg_3_2()
    assert r.coefficient(0) == RationalPoly.one()
    assert r.coefficient(2) == RationalPoly([0, 3])
    assert r.coefficient(4) == RationalPoly([F(-3, 2), 0, F(15, 2)])


def test_pow_neg_3_2_of_one():
    one = LaurentSeries.from_terms({0: 1}, 10)
    assert one.pow_neg_3_2().truncate(10) == one.truncate(10)


def even_unit_series(trunc=10):
    coef = st.lists(small_fractions(), min_size=1, max_size=3).map(RationalPoly)
    pairs = st.dictionaries(
        st.integers(min_value=1, max_value=trunc // 2), coef, max_size=4
    )

    def build(d):
        terms = {2 * k: p for k, p in d.items()}
        terms[0] = RationalPoly.one()
        return LaurentSeries.from_terms(terms, trunc)

    return pairs.map(build)


@settings(max_examples=30, deadline=None)
@given(even_unit_series())
def test_sqrt_inverts_square(r):
    m = r.truncation_order
    assert (r * r).sqrt().truncate(m) == r.truncate(m)


@settings(max_examples=30, deadline=None)
@given(even_unit_series())
def test_sqrt_squares_back(s):
    root, m = s.sqrt(), s.truncation_order
    assert (root * root).truncate(m) == s.truncate(m)


@settings(max_examples=20, deadline=None)
@given(even_unit_series())
def test_pow_neg_3_2_inverse_pair(s):
    # s^(-3/2) * s * sqrt(s) = 1, and (s^(-3/2))^2 * s^3 = 1
    r = s.pow_neg_3_2()
    m = s.truncation_order
    one = LaurentSeries.from_terms({0: 1}, m)
    assert (r * s * s.sqrt()).truncate(m) == one.truncate(m)
    assert (r * r * s * s * s).truncate(m) == one.truncate(m)


def test_sqrt_preconditions():
    # a failed precondition is a failed check, so ``all`` reports it as one
    assert issubclass(NotSquareError, VerificationError)
    with pytest.raises(NotSquareError):
        LaurentSeries.from_terms({1: 1}, 5).sqrt()  # odd lowest order
    with pytest.raises(NotSquareError):
        LaurentSeries.from_terms({0: 2}, 5).sqrt()  # non-unit leading coefficient


def test_sqrt_with_even_valuation():
    s = quartic(8).shift(4)
    r = s.sqrt()
    assert r.lowest_order == 2
    assert (r * r).truncate(12) == s.truncate(12)


def test_integrate_power_rule():
    s = LaurentSeries.from_terms({2: 1}, 6)
    assert s.integrate().coefficient(3) == RationalPoly.constant(F(1, 3))
    t = LaurentSeries.from_terms({-2: -1}, 6)
    assert t.integrate().coefficient(-1) == RationalPoly.constant(1)


def test_integrate_residue_error():
    with pytest.raises(ResidueError):
        LaurentSeries.from_terms({-1: 1}, 5).integrate()
    assert issubclass(ResidueError, VerificationError)


@settings(max_examples=30, deadline=None)
@given(even_unit_series())
def test_integrate_divides_each_term_by_its_new_power(s):
    antiderivative = s.integrate()
    assert antiderivative.truncation_order == s.truncation_order + 1
    assert antiderivative.coefficient(0).is_zero()
    for n in range(s.truncation_order + 1):
        assert antiderivative.coefficient(n + 1) == s.coefficient(n) / (n + 1)


def general_series():
    """Any lowest order, interior zeros, mixed-parity coefficients over
    different denominators, and a truncation order set by the length."""
    coef = st.one_of(st.just(RationalPoly.zero()), polys(4))
    return st.builds(
        lambda low, cs: LaurentSeries(low, cs, low + len(cs) - 1),
        st.integers(min_value=-5, max_value=5),
        st.lists(coef, min_size=1, max_size=9),
    )


@settings(max_examples=60, deadline=None)
@given(general_series(), general_series())
def test_equal_series_hash_equal(a, b):
    # rebuilt from the Fraction coefficients, so nothing is shared with a
    low, trunc = a.lowest_order, a.truncation_order
    copy = LaurentSeries(
        low, [RationalPoly(a.coefficient(n).coeffs) for n in range(low, trunc + 1)], trunc
    )
    assert copy == a and hash(copy) == hash(a)
    assert a != b or hash(a) == hash(b)


def test_series_hash_builds_no_fraction(monkeypatch):
    a = LaurentSeries.from_terms({-1: F(1, 3), 2: RationalPoly([F(-5, 2), 0, 7])}, 6)
    b = LaurentSeries.from_terms({-1: F(2, 6), 2: RationalPoly([F(-10, 4), 0, 7])}, 6)

    def no_fractions(self):
        raise AssertionError("hashing built Fraction coefficients")

    monkeypatch.setattr(RationalPoly, "coeffs", property(no_fractions))
    assert a == b and hash(a) == hash(b)
    assert hash(a) != hash(a.truncate(5))


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.tuples(even_unit_series(8), even_unit_series(8)),
        st.tuples(general_series(), general_series()),
    )
)
def test_multiplication_matches_direct_convolution(pair):
    a, b = pair
    prod = a * b
    for n in range(prod.lowest_order, prod.truncation_order + 1):
        direct = RationalPoly.zero()
        for i in range(a.lowest_order, min(n - b.lowest_order, a.truncation_order) + 1):
            direct = direct + a.coefficient(i) * b.coefficient(n - i)
        assert prod.coefficient(n) == direct
        assert_canonical(prod.coefficient(n))


# Denominators with large coprime parts, so that a pair's multiplier, the
# lcm of a coefficient's denominators over the pair's, is wide.
WIDE_DENOMINATORS = (1, 2**64, 3**40, 2**61 - 1, (2**31 - 1) * 5**30, 7**50 * 11**3)


def wide_coefficients():
    """40 to 48 entries, each numerator +-(2**b - 1) with one sign or with
    alternating signs, at every power of c or at only the even or only the
    odd powers."""

    def build(b, n, signs, parity, den):
        top = 2**b - 1
        nums = [top * {"+": 1, "-": -1, "~": (-1) ** i}[signs] for i in range(n)]
        if parity is not None:
            nums = [x if i % 2 == parity else 0 for i, x in enumerate(nums)]
        return RationalPoly([F(x, den) for x in nums])

    return st.builds(
        build,
        st.integers(1, 160),
        st.integers(40, 48),
        st.sampled_from("+-~"),
        st.sampled_from((None, 0, 1)),
        st.sampled_from(WIDE_DENOMINATORS),
    )


def wide_series():
    """Wide, short or zero coefficients from a negative or positive lowest
    order; or one wide term followed by zeros."""
    coef = st.one_of(st.just(RationalPoly.zero()), wide_coefficients(), polys(2))
    dense = st.builds(
        lambda low, cs: LaurentSeries(low, cs, low + len(cs) - 1),
        st.integers(-4, 3),
        st.lists(coef, min_size=1, max_size=4),
    )
    one_term = st.builds(
        lambda low, c, pad: LaurentSeries(low, [c] + [RationalPoly.zero()] * pad, low + pad),
        st.integers(-4, 3),
        wide_coefficients(),
        st.integers(0, 3),
    )
    return st.one_of(dense, one_term)


def fraction_coefficient(a, b, n):
    """The z**n coefficient of a * b by a naive convolution of Fractions."""
    out = []
    for i in range(a.lowest_order, n - b.lowest_order + 1):
        p, q = a.coefficient(i).coeffs, b.coefficient(n - i).coeffs
        if len(out) < len(p) + len(q) - 1:
            out += [F(0)] * (len(p) + len(q) - 1 - len(out))
        for s, x in enumerate(p):
            for t, y in enumerate(q, s):
                out[t] += x * y
    while out and not out[-1]:
        out.pop()
    return tuple(out)


@settings(max_examples=40, deadline=None)
@given(wide_series(), wide_series())
def test_wide_multiplication_matches_fraction_convolution(a, b):
    prod = a * b
    assert prod.truncation_order == min(
        a.truncation_order + b.lowest_order, b.truncation_order + a.lowest_order
    )
    for n in range(a.lowest_order + b.lowest_order, prod.truncation_order + 1):
        assert prod.coefficient(n).coeffs == fraction_coefficient(a, b, n)
        assert_canonical(prod.coefficient(n))


@pytest.mark.parametrize("b", range(1, 41))
def test_one_signed_products_near_the_width_bound(b):
    # every product in a slot has one sign, the z^3 coefficient sums four
    # pairs, two of them with multiplier 3**40, and b steps the bound through
    # every residue of the slot width's rounding
    p = [F(2**b - 1)] * 48
    a = LaurentSeries(0, [RationalPoly(p), RationalPoly([x / 3**40 for x in p])] * 2, 3)
    q = LaurentSeries(0, [RationalPoly([F(-(2**33) + 1)] * 47)] * 4, 3)
    prod = a * q
    for n in range(4):
        assert prod.coefficient(n).coeffs == fraction_coefficient(a, q, n)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((32, 64, 96)).flatmap(
        lambda w: st.tuples(
            st.just(w),
            st.lists(st.integers(-(2 ** (w - 1)) + 1, 2 ** (w - 1) - 1), max_size=8),
            st.integers(0, 3),
        )
    )
)
def test_packed_digits_read_back(case):
    width, digits, spare = case
    slots = len(digits) + spare
    assert _unpack(_pack(tuple(digits), width), width, slots) == digits + [0] * spare


def test_a_slot_below_the_width_bound_overflows():
    top = 2**40 - 1
    # the bound for (top + top c^2)^2: 40 + 40 bits, 2 bits for the two
    # products in a slot, 1 bit for the one pair and 1 for the sign
    packed = _pack((top, top), 96)
    assert _unpack(packed * packed, 96, 3) == [top**2, 2 * top**2, top**2]
    # at 32 bits the top slot spills, the one overflow _unpack can see
    packed = _pack((top, top), 32)
    with pytest.raises(VerificationError, match="overflows 3 slots of 32 bits"):
        _unpack(packed * packed, 32, 3)


def test_truncation_propagation_on_multiply():
    a = LaurentSeries.from_terms({0: 1, 1: 1}, 3)  # known through z^3
    b = LaurentSeries.from_terms({2: 1}, 10)  # known through z^10
    prod = a * b
    # b's lowest order shifts a's truncation: coefficients past z^5 would need
    # a's unknown tail
    assert prod.truncation_order == 5
    assert prod.lowest_order == 2


def test_a_zero_operand_gives_a_zero_product():
    zero = LaurentSeries.zero(6)  # known through z^6, so its lowest order is 7
    b = LaurentSeries.from_terms({-2: 1, 0: 3}, 4)
    for prod in (zero * b, b * zero):
        assert prod.is_zero()
        assert prod.truncation_order == 4


def test_coefficient_beyond_truncation_raises():
    a = LaurentSeries.from_terms({0: 1}, 3)
    with pytest.raises(ValueError):
        a.coefficient(4)


def test_series_json_round_trip():
    s = quartic(6)
    data = s.to_json()
    assert data["lowest_order"] == 0
    assert data["truncation_order"] == 6
    rebuilt = LaurentSeries(
        data["lowest_order"],
        [RationalPoly.from_json(p) for p in data["coeffs"]],
        data["truncation_order"],
    )
    assert rebuilt == s


# ---------------------------------------------------------------------------
# Fraction-free elimination
# ---------------------------------------------------------------------------


def det_fraction(rows):
    """Reference: exact determinant by Gaussian elimination over Fraction with
    partial pivoting."""
    n = len(rows)
    m = [[F(x) for x in row] for row in rows]
    det = F(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return F(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                factor = m[r][col] * inv
                for cc in range(col, n):
                    m[r][cc] -= factor * m[col][cc]
    return det


def assert_entries_are_minors(ints, width):
    """Run the kernel on a copy of the integer rows and check Sylvester's
    identity: entry j >= pivot of echelon row k is the minor of the first k + 1
    rows, in their final order, on the first k pivot columns and column j.  A
    division that left a remainder would break it.  Rows past the rank vanish
    off the pivot columns, and the rows before the first exchange stay put."""
    m = [row[:] for row in ints]
    origin = {id(row): i for i, row in enumerate(m)}
    pivots, swaps = exact._bareiss(m, width)
    order = [origin[id(row)] for row in m]
    rank = len(pivots)
    assert pivots == sorted(set(pivots)) and swaps == sorted(set(swaps))
    assert all(step < rank for step in swaps)
    unmoved = swaps[0] if swaps else len(m)
    assert order[:unmoved] == list(range(unmoved))
    for k, col in enumerate(pivots):
        assert m[k][col] != 0
        for j in range(col, width):
            cols = pivots[:k] + [j]
            assert m[k][j] == det_fraction([[ints[i][c] for c in cols] for i in order[: k + 1]])
    assert all(row[j] == 0 for row in m[rank:] for j in range(width) if j not in pivots)
    return pivots, swaps


def rectangular_matrices():
    """1-6 rows of 1-6 integer or Fraction entries in [-2, 2], so that zero
    pivots, exchanges, skipped columns and rank deficiency are common."""
    entry = st.one_of(st.integers(-2, 2), st.fractions(-2, 2, max_denominator=3))
    return st.integers(1, 6).flatmap(
        lambda width: st.lists(
            st.lists(entry, min_size=width, max_size=width), min_size=1, max_size=6
        )
    )


@settings(max_examples=150, deadline=None)
@given(rectangular_matrices())
@example([[0, 1], [1, 0]])  # a zero first pivot: one exchange
@example([[0, 1, 2], [0, 2, 4], [0, 3, 7]])  # a zero column is skipped
@example([[1, 2, 3], [2, 4, 6], [1, 0, 1], [F(1, 2), 1, F(3, 2)]])  # rank 2 of 4 rows
@example([[F(1, 2), F(1, 3)], [F(1, 5), F(2, 7)]])  # rows over different denominators
def test_bareiss_entries_are_minors_of_the_exchanged_rows(rows):
    width = len(rows[0])
    ints = [exact._integer_row(row)[0] for row in rows]
    pivots, _ = assert_entries_are_minors(ints, width)
    # the kernel's rank is the rank of the rows, and the nullspace has the rest
    basis = exact.nullspace(rows, width)
    assert len(basis) == width - len(pivots)
    for vec in basis:
        assert all(sum(F(x) * v for x, v in zip(row, vec)) == 0 for row in rows)


def wide_square_matrices():
    """6 x 6 integer matrices with entries up to 2**30 in size; some have a
    zero leading entry, and some a row that is the sum of two others."""
    entry = st.integers(-(2**30), 2**30)
    rows = st.lists(st.lists(entry, min_size=6, max_size=6), min_size=6, max_size=6)

    def shaped(args):
        m, zero_lead, dependent = args
        m = [row[:] for row in m]
        if zero_lead:
            m[0][0] = 0
        if dependent:
            m[4] = [x + y for x, y in zip(m[1], m[2])]
        return m

    return st.tuples(rows, st.booleans(), st.booleans()).map(shaped)


@settings(max_examples=40, deadline=None)
@given(wide_square_matrices())
def test_bareiss_divides_exactly_on_wide_entries(rows):
    assert_entries_are_minors(rows, 6)
    expected = [det_fraction([row[:size] for row in rows[:size]]) for size in range(1, 7)]
    assert exact.leading_minors(rows) == expected
