"""Generating-function reconstructions against the recurrence engine."""

import hashlib
import json
import sys
from fractions import Fraction as F
from itertools import repeat
from math import lcm
from operator import add, mul
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from djkm import cli, families, oracle
from djkm.exact import LaurentSeries, RationalPoly, VerificationError
from djkm.families import FamilyId, gegenbauer, get_family
from djkm.oracle import (
    OracleResult,
    check_funde,
    expand_elliptic1,
    expand_elliptic2,
    expand_gegenbauer_sum,
)

ONE = RationalPoly.one()


def test_elliptic1_displayed_expansion():
    # 1 + z^4 + (4c/5) z^6 + ((32c^2-5)/35) z^8 + (16c(8c^2-3)/105) z^10
    #   + ((2048c^4-1248c^2+75)/1155) z^12 + O(z^13)
    res = expand_elliptic1(13)
    assert res.matched and res.first_mismatch is None
    s = res.series
    assert s.coefficient(0) == ONE
    assert s.coefficient(4) == ONE
    assert s.coefficient(6) == RationalPoly([0, F(4, 5)])
    assert s.coefficient(8) == RationalPoly([F(-5, 35), 0, F(32, 35)])
    assert s.coefficient(10) == RationalPoly([0, F(-48, 105), 0, F(128, 105)])
    assert s.coefficient(12) == RationalPoly(
        [F(75, 1155), 0, F(-1248, 1155), 0, F(2048, 1155)]
    )
    for n in range(1, 13, 2):
        assert s.coefficient(n).is_zero()


def test_elliptic1_leading_behavior():
    res = expand_elliptic1(4)
    assert res.matched
    assert res.series.coefficient(0) == ONE
    assert res.series.coefficient(4) == ONE
    for n in (1, 2, 3):
        assert res.series.coefficient(n).is_zero()


def test_elliptic1_deep_truncation():
    assert expand_elliptic1(120).matched


def test_elliptic2_displayed_expansion():
    # z^2 + (1/5) z^6 + (8c/35) z^8 + ((32c^2-7)/105) z^10
    #   + (8c(64c^2-29)/1155) z^12 + O(z^13)
    res = expand_elliptic2(13)
    assert res.matched
    s = res.series
    assert s.coefficient(2) == ONE
    assert s.coefficient(6) == RationalPoly([F(1, 5)])
    assert s.coefficient(8) == RationalPoly([0, F(8, 35)])
    assert s.coefficient(10) == RationalPoly([F(-7, 105), 0, F(32, 105)])
    assert s.coefficient(12) == RationalPoly([0, F(-232, 1155), 0, F(512, 1155)])
    assert s.coefficient(0).is_zero()
    assert s.coefficient(4).is_zero()


def test_elliptic2_minimal_order():
    res = expand_elliptic2(2)
    assert res.matched
    assert res.series.coefficient(2) == ONE


def test_elliptic2_deep_truncation():
    assert expand_elliptic2(120).matched


def test_gegenbauer_sum_matches_table():
    res = expand_gegenbauer_sum(13)
    assert res.matched
    assert res.series.coefficient(0) == ONE
    assert res.series.coefficient(4) == ONE
    assert res.series.coefficient(8) == RationalPoly([F(-5, 35), 0, F(32, 35)])


def test_gegenbauer_sum_leading_behavior():
    res = expand_gegenbauer_sum(4)
    assert res.matched
    assert res.series.coefficient(0) == ONE
    assert res.series.coefficient(4) == ONE


def test_gegenbauer_sum_deep_truncation():
    assert expand_gegenbauer_sum(80).matched


def test_both_p4_routes_agree_with_each_other():
    a = expand_elliptic1(40).series
    b = expand_gegenbauer_sum(40).series
    assert a.truncate(40) == b.truncate(40)


def test_funde_small_and_stated_orders():
    # one right side, at each family's unit initial value, holds for all four
    for family_id in FamilyId:
        assert check_funde(8, family_id)
        assert check_funde(40, family_id)


def test_funde_reads_the_initial_values_from_the_family_id(cold_caches, monkeypatch):
    # a P-4 seeded with P_{-4} = P_{-2} = 1 keeps its parity and so generates
    # without error, but the right side still has P_{-2} = 0 for P-4
    wrong = families.PolynomialFamily(FamilyId.P4)
    wrong._vals[2] = ONE
    monkeypatch.setitem(families._REGISTRY, FamilyId.P4, wrong)
    assert get_family(FamilyId.P4).shifted(2) == ONE
    assert not check_funde(8, FamilyId.P4)
    assert not check_funde(40, FamilyId.P4)


def _convolve(a: list, b: list) -> list:
    out = [RationalPoly.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def _funde_lhs_by_convolution(members: list, p: list) -> list:
    """z p F' - (p + z p'/2) F through z^(len(members) - 1) for F the members
    and p a dense list, lowest power first, by plain list convolution."""
    zero = RationalPoly.zero()
    z_p = [zero] + p
    f_prime = [a * n for n, a in enumerate(members)][1:]
    p_prime = [q * e for e, q in enumerate(p)][1:]
    # p + z p' / 2
    weight = [q + z_dq / 2 for q, z_dq in zip(p, [zero] + p_prime)]
    left, right = _convolve(z_p, f_prime), _convolve(weight, members)
    return [left[m] - right[m] for m in range(len(members))]


#: p = 1 + 3cz - 2cz^2 + z^4 - z^5/3 + (2 + c^2) z^6: every e from 0 to 6
#: but 3, with int, Fraction and RationalPoly coefficients.
DEGREE_6_CURVE = {
    6: RationalPoly((2, 0, 1)),
    5: F(-1, 3),
    4: 1,
    2: RationalPoly((0, -2)),
    1: RationalPoly((0, 3)),
    0: 1,
}


@pytest.mark.parametrize("curve", [families.QUARTIC, DEGREE_6_CURVE], ids=["quartic", "degree-6"])
@settings(max_examples=25, deadline=None)
@given(
    members=st.lists(
        st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=12), max_size=4).map(
            RationalPoly
        ),
        min_size=1,
        max_size=12,
    )
)
def test_funde_row_matches_the_convolved_left_side(curve, members):
    p = [RationalPoly.zero()] * (max(curve) + 1)
    for e, p_e in curve.items():
        p[e] = p_e if isinstance(p_e, RationalPoly) else RationalPoly.constant(p_e)
    expected = _funde_lhs_by_convolution(members, p)
    with mock.patch.object(families, "QUARTIC", curve):
        assert [oracle._funde_lhs(members, m) for m in range(len(members))] == expected


def test_order_preconditions():
    with pytest.raises(ValueError):
        expand_elliptic1(3)
    with pytest.raises(ValueError):
        expand_gegenbauer_sum(3)
    with pytest.raises(ValueError):
        check_funde(7, FamilyId.P4)


def _quartic_with_odd_term(trunc):
    """1 + z - 2c z^2 + z^4: a tampered quartic whose series are not even."""
    return LaurentSeries.from_terms(
        {0: ONE, 1: ONE, 2: RationalPoly((0, -2)), 4: ONE}, trunc
    )


def test_elliptic1_nonzero_residue_raises(monkeypatch):
    # an untampered run at the same order first, so the caches hold its
    # powers of the quartic and its product
    assert expand_elliptic1(8).matched
    misses = oracle._pow_neg_3_2.cache_info().misses
    monkeypatch.setattr(oracle, "_quartic", _quartic_with_odd_term)
    with pytest.raises(VerificationError, match="z\\^-1"):
        expand_elliptic1(8)
    assert oracle._pow_neg_3_2.cache_info().misses == misses + 1


def test_elliptic2_odd_series_is_a_reported_mismatch(monkeypatch):
    assert expand_elliptic2(8).matched
    misses = [f.cache_info().misses for f in (oracle._sqrt, oracle._pow_neg_3_2)]
    monkeypatch.setattr(oracle, "_quartic", _quartic_with_odd_term)
    res = expand_elliptic2(8)
    assert res.matched is False
    assert res.first_mismatch % 2 == 1
    assert [f.cache_info().misses for f in (oracle._sqrt, oracle._pow_neg_3_2)] == [
        m + 1 for m in misses
    ]


def _integrate_plus_one(monkeypatch):
    """Make LaurentSeries.integrate return the right antiderivative plus 1."""
    integrate = LaurentSeries.integrate

    def wrong(self):
        right = integrate(self)
        trunc = right.truncation_order
        terms = {n: right.coefficient(n) for n in range(right.lowest_order, trunc + 1)}
        terms[0] = terms.get(0, RationalPoly.zero()) + ONE
        return LaurentSeries.from_terms(terms, trunc)

    monkeypatch.setattr(LaurentSeries, "integrate", wrong)


@pytest.mark.parametrize("expand", [expand_elliptic1, expand_elliptic2])
def test_wrong_integration_constant_is_a_mismatch(monkeypatch, expand):
    _integrate_plus_one(monkeypatch)
    res = expand(40)
    assert res.matched is False
    assert res.first_mismatch == 1


def test_wrong_integration_constant_fails_in_the_full_report(monkeypatch, tmp_path):
    _integrate_plus_one(monkeypatch)
    out = tmp_path / "all.json"
    assert cli.main(["all", "--profile", "quick", "--out", str(out)]) == 1
    items = {item["check"]: item for item in json.loads(out.read_text())["items"]}
    assert len(items) == 26
    for name in ("oracle-elliptic-1", "oracle-elliptic-2"):
        assert items[name]["status"] == "fail"
        assert items[name]["first_mismatch"] == 1


def test_nonzero_residue_fails_only_its_item_in_the_full_report(monkeypatch, tmp_path):
    monkeypatch.setattr(oracle, "_quartic", _quartic_with_odd_term)
    out = tmp_path / "all.json"
    assert cli.main(["all", "--profile", "quick", "--out", str(out)]) == 1
    items = {item["check"]: item for item in json.loads(out.read_text())["items"]}
    assert len(items) == 26
    assert items["oracle-elliptic-1"]["status"] == "fail"
    assert "z^-1" in items["oracle-elliptic-1"]["error"]


# -- operand trimming and the product cache ------------------------------------


def _untrimmed(expand, order):
    """The expansion as it was before its operands were trimmed: Q^(-3/2) and
    z sqrt(Q) from Q through z^(order+4), the Gegenbauer bracket through
    z^(order+1), and the product cut to z^order only at the end."""
    quartic = LaurentSeries.from_terms({0: ONE, 2: RationalPoly((0, -2)), 4: ONE}, order + 4)
    if expand is expand_elliptic1:
        prefactor = LaurentSeries.from_terms(
            {-2: RationalPoly.constant(-1), 0: RationalPoly((0, 4))}, order + 4
        )
        family, odd = FamilyId.P4, (prefactor * quartic.pow_neg_3_2()).integrate()
    elif expand is expand_elliptic2:
        family, odd = FamilyId.P2, quartic.pow_neg_3_2().integrate()
    else:
        terms = {-1: ONE}
        for m in range((order + 2) // 2):
            bracket = RationalPoly((0, 4)) * gegenbauer(F(3, 2), m) - gegenbauer(F(3, 2), m + 1)
            terms[2 * m + 1] = bracket / (2 * m + 1)
        family, odd = FamilyId.P4, LaurentSeries.from_terms(terms, order + 1)
    series = quartic.sqrt().shift(1) * odd
    fam = get_family(family)
    bad = [n for n in range(order + 1) if series.coefficient(n) != fam.shifted(n)]
    return OracleResult(family, order, series.truncate(order), not bad, min(bad, default=None))


@pytest.mark.parametrize(
    "expand, order",
    [(e, o) for e in (expand_elliptic1, expand_elliptic2, expand_gegenbauer_sum)
     for o in (4, 5, 7, 8, 40)]
    + [(expand_elliptic2, 2), (expand_elliptic2, 3)],
)
def test_trimmed_operands_match_the_untrimmed_reference(expand, order):
    oracle._product.cache_clear()
    assert expand(order).to_json() == _untrimmed(expand, order).to_json()


def _count_dense_products(monkeypatch) -> list:
    """Record every series product whose operands both have > 3 nonzero terms."""
    calls = []
    mul = LaurentSeries.__mul__

    def counted(self, other):
        if isinstance(other, LaurentSeries) and min(
            sum(1 for p in s.coeffs if p) for s in (self, other)
        ) > 3:
            calls.append((self.lowest_order, other.lowest_order))
        return mul(self, other)

    monkeypatch.setattr(LaurentSeries, "__mul__", counted)
    return calls


def test_gegenbauer_sum_reuses_the_elliptic1_product(monkeypatch):
    oracle._product.cache_clear()
    calls = _count_dense_products(monkeypatch)
    assert expand_elliptic1(40).matched
    assert len(calls) == 1
    assert expand_elliptic2(40).matched
    assert len(calls) == 2
    assert oracle._product.cache_info().currsize == 2
    assert expand_gegenbauer_sum(40).matched
    assert len(calls) == 2
    info = oracle._product.cache_info()
    assert (info.hits, info.misses) == (1, 2)


def test_one_order_takes_each_power_of_the_quartic_once(monkeypatch):
    for cache in (oracle._sqrt, oracle._pow_neg_3_2, oracle._product):
        cache.cache_clear()
    alphas = []
    unit_power = LaurentSeries._unit_power

    def counted(self, alpha):
        alphas.append(alpha)
        return unit_power(self, alpha)

    monkeypatch.setattr(LaurentSeries, "_unit_power", counted)
    for expand in (expand_elliptic1, expand_elliptic2, expand_gegenbauer_sum):
        assert expand(40).matched
    # one Q^(-3/2) and one sqrt(Q), where each expansion took its own
    assert alphas == [F(-3, 2), F(1, 2)]
    # another order is another quartic
    assert expand_elliptic2(41).matched
    assert alphas[2:] == [F(-3, 2), F(1, 2)]


def test_memo_holds_at_most_two_products():
    oracle._product.cache_clear()
    for order in (8, 9, 10):
        expand_elliptic2(order)
    info = oracle._product.cache_info()
    assert (info.maxsize, info.currsize, info.misses) == (2, 2, 3)
    # orders 9 and 10 are held, order 8 was evicted
    for order in (10, 9):
        expand_elliptic2(order)
    assert oracle._product.cache_info().hits == 2
    expand_elliptic2(8)
    assert oracle._product.cache_info().misses == 4


def test_tampered_gegenbauer_misses_the_memo(monkeypatch):
    oracle._product.cache_clear()
    assert expand_elliptic1(40).matched
    # C_1^(3/2) = 4c instead of 3c: the bracket's z^1 coefficient becomes 0
    wrong = {(F(3, 2), 0): [ONE, RationalPoly.monomial(4, 1)]}
    monkeypatch.setattr(families, "_GEGENBAUER", wrong)
    res = expand_gegenbauer_sum(40)
    assert res.matched is False
    assert res.first_mismatch == 2
    info = oracle._product.cache_info()
    assert (info.hits, info.misses) == (0, 2)


def test_concurrent_expansions_are_consistent():
    from concurrent.futures import ThreadPoolExecutor

    expansions = [expand_elliptic1, expand_elliptic2, expand_gegenbauer_sum] * 8
    # from a cleared cache, so the workers form and look up the same products
    # at the same time
    oracle._product.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda e: e(40).to_json(), expansions, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    oracle._product.cache_clear()
    assert results == [e(40).to_json() for e in expansions]


# sha256 of the order-120 reports' JSON; both P-4 routes give the same series
P4_DIGEST = "0c7d48db1c4acaf5beec96f0766eaf855d3df4bb43c168a068a3a77663fdb093"
P2_DIGEST = "587addad8b6a6e6cb8e08b69da5b9fd02125e2c7417e17bac6f8702ad7062546"


@pytest.mark.parametrize(
    "expand, digest",
    [
        (expand_elliptic1, P4_DIGEST),
        (expand_gegenbauer_sum, P4_DIGEST),
        (expand_elliptic2, P2_DIGEST),
    ],
)
def test_order_120_expansions_are_byte_pinned(expand, digest):
    data = json.dumps(expand(120).to_json()).encode()
    assert hashlib.sha256(data).hexdigest() == digest


def _row_product(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    """a * b with each coefficient a row-by-row integer convolution over the
    lcm of its pairs' denominators, the kernel the packed product replaced."""
    trunc = min(a.truncation_order + b.lowest_order, b.truncation_order + a.lowest_order)
    low = a.lowest_order + b.lowest_order
    ca, cb = a.coeffs, b.coeffs
    out = []
    for k in range(trunc - low + 1):
        pairs = [(ca[i], cb[k - i]) for i in range(k + 1) if ca[i] and cb[k - i]]
        den = lcm(1, *(p._den * q._den for p, q in pairs))
        acc = [0] * max((len(p._num) + len(q._num) for p, q in pairs), default=0)
        for p, q in pairs:
            x = den // (p._den * q._den)
            n = len(q._num)
            for i, y in enumerate(p._num):
                acc[i : i + n] = map(add, acc[i : i + n], map(mul, repeat(x * y), q._num))
        out.append(RationalPoly([F(v, den) for v in acc]))
    return LaurentSeries(low, out, trunc)


@pytest.mark.parametrize("order", [40, 120])
@pytest.mark.parametrize("expand", [expand_elliptic1, expand_elliptic2, expand_gegenbauer_sum])
def test_packed_products_match_the_row_kernel(monkeypatch, expand, order):
    oracle._product.cache_clear()
    products = []
    product = LaurentSeries.__mul__

    def recorded(self, other):
        out = product(self, other)
        if isinstance(other, LaurentSeries):
            products.append((self, other, out))
        return out

    monkeypatch.setattr(LaurentSeries, "__mul__", recorded)
    assert expand(order).matched
    # elliptic-1 also multiplies its integrand by the prefactor
    assert len(products) == (2 if expand is expand_elliptic1 else 1)
    for a, b, out in products:
        assert out == _row_product(a, b)


@pytest.mark.parametrize("order", [40, 120])
def test_quartic_powers_check_out_under_the_row_kernel(order):
    # each step of the recurrence behind sqrt and pow_neg_3_2 is a packed sum
    quartic = oracle._quartic(order)
    root, inverse = quartic.sqrt(), quartic.pow_neg_3_2()
    assert _row_product(root, root).truncate(order) == quartic.truncate(order)
    cube = _row_product(quartic, _row_product(quartic, quartic))
    one = LaurentSeries.from_terms({0: 1}, order)
    assert _row_product(_row_product(inverse, inverse), cube).truncate(order) == one.truncate(order)
