"""Family generation: published tables, recurrence re-assertion, closed forms."""

import math
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import djkm
from djkm import families
from djkm.exact import RationalPoly, VerificationError
from djkm.families import (
    FamilyId,
    IndexView,
    PolynomialFamily,
    assoc_ultraspherical,
    gegenbauer,
    generate,
    get_family,
    verify_gegenbauer_link,
)

ZERO = RationalPoly.zero()
ONE = RationalPoly.one()
C = RationalPoly.variable()

# Published table of P_{-4,n}, shifted n = 0..12.  The degree-4 entry is
# +(2048c^4 - 1248c^2 + 75)/1155: the recurrence and both generating-function
# expansions agree on the positive leading sign.
P4_SHIFTED = [
    ONE,
    ZERO,
    ZERO,
    ZERO,
    ONE,
    ZERO,
    RationalPoly([0, F(4, 5)]),
    ZERO,
    RationalPoly([F(-5, 35), 0, F(32, 35)]),
    ZERO,
    RationalPoly([0, F(-48, 105), 0, F(128, 105)]),
    ZERO,
    RationalPoly([F(75, 1155), 0, F(-1248, 1155), 0, F(2048, 1155)]),
]

# Published table of P_{-2,n}, shifted n = 0..12.
P2_SHIFTED = [
    ZERO,
    ZERO,
    ONE,
    ZERO,
    ZERO,
    ZERO,
    RationalPoly([F(1, 5)]),
    ZERO,
    RationalPoly([0, F(8, 35)]),
    ZERO,
    RationalPoly([F(-7, 105), 0, F(32, 105)]),
    ZERO,
    RationalPoly([0, F(-232, 1155), 0, F(512, 1155)]),
]


def test_p4_shifted_table():
    assert generate(FamilyId.P4, IndexView.SHIFTED, 12) == P4_SHIFTED


def test_p2_shifted_table():
    assert generate(FamilyId.P2, IndexView.SHIFTED, 12) == P2_SHIFTED


def test_original_view_initial_entry():
    assert generate(FamilyId.P4, IndexView.ORIGINAL, -4) == [ONE]


def test_q_box_values():
    # q_s = P_{-4,2s}: 1, 0, 1, 4c/5, (32c^2-5)/35, 16c(8c^2-3)/105
    q = generate(FamilyId.P4, IndexView.Q, 3)
    assert q == [
        ONE,
        ZERO,
        ONE,
        RationalPoly([0, F(4, 5)]),
        RationalPoly([F(-5, 35), 0, F(32, 35)]),
        RationalPoly([0, F(-48, 105), 0, F(128, 105)]),
    ]


def test_qbar_box_values():
    # qbar_n = q_{n+1} for the P-2 family: 1/5, 8c/35, (32c^2-7)/105, ...
    fam = get_family(FamilyId.P2)
    assert fam.qbar(0) == RationalPoly([F(1, 5)])
    assert fam.qbar(1) == RationalPoly([0, F(8, 35)])
    assert fam.qbar(2) == RationalPoly([F(-7, 105), 0, F(32, 105)])
    assert fam.qbar(3) == RationalPoly([0, F(-232, 1155), 0, F(512, 1155)])
    # degree-4 member, as listed with the nonclassicality data:
    # ((160*64)c^4 - (32*222)c^2 + 77*7) / (13*1155)
    assert fam.qbar(4) == RationalPoly(
        [F(77 * 7, 13 * 1155), 0, F(-32 * 222, 13 * 1155), 0, F(160 * 64, 13 * 1155)]
    )


def test_qbar_leading_pair_matches_ignored_entries():
    fam = get_family(FamilyId.P2)
    assert fam.q(-1) == ONE  # q_{-1} = P_{-2,-2}
    assert fam.q(0) == ZERO  # q_0 = P_{-2,0}
    assert fam.qbar(-1) == ZERO


@pytest.mark.parametrize("family_id", list(FamilyId))
def test_master_recurrence_reasserted_post_hoc(family_id):
    fam = get_family(family_id)
    fam.original(200)
    for k in range(0, 201):
        lhs = fam.original(k) * (6 + 2 * k)
        rhs = fam.original(k - 2).scale_shift(4 * k, 1) - fam.original(k - 4) * (
            2 * (k - 3)
        )
        assert lhs == rhs, f"{family_id} recurrence fails at k={k}"


@pytest.mark.parametrize(
    "family_id,parity", [(FamilyId.P4, 0), (FamilyId.P2, 0), (FamilyId.P3, 1), (FamilyId.P1, 1)]
)
def test_off_parity_entries_vanish(family_id, parity):
    fam = get_family(family_id)
    for k in range(-4, 120):
        if (k - parity) % 2:
            assert fam.original(k).is_zero()


@pytest.mark.parametrize("family_id", [FamilyId.P4, FamilyId.P2])
def test_members_are_parity_pure(family_id):
    fam = get_family(family_id)
    for k in range(-4, 120):
        assert fam.original(k).parity_pure()


def test_degree_growth_of_orthogonal_views():
    p4 = get_family(FamilyId.P4)
    p2 = get_family(FamilyId.P2)
    for n in range(61):
        assert p4.q(n).degree == n
        assert p2.qbar(n).degree == n


@pytest.mark.parametrize("family_id", list(FamilyId))
def test_views_are_pure_reindexings(family_id):
    fam = get_family(family_id)
    for n in range(0, 30):
        assert fam.shifted(n) == fam.original(n - 4)
        assert fam.member(IndexView.SHIFTED, n) == fam.shifted(n)
    for s in range(-2, 15):
        assert fam.q(s) == fam.original(2 * s)
    for n in range(-1, 14):
        assert fam.qbar(n) == fam.q(n + 1)


def test_view_index_bounds():
    fam = get_family(FamilyId.P4)
    with pytest.raises(IndexError):
        fam.original(-5)
    with pytest.raises(IndexError):
        fam.shifted(-1)
    with pytest.raises(IndexError):
        fam.q(-3)
    with pytest.raises(IndexError):
        fam.qbar(-2)


def test_fresh_family_matches_registry():
    fresh = PolynomialFamily(FamilyId.P4)
    shared = get_family(FamilyId.P4)
    for k in range(-4, 40):
        assert fresh.original(k) == shared.original(k)


def test_nonzero_parity_entry_raises():
    fam = PolynomialFamily(FamilyId.P4)
    fam._vals[1] = ONE  # tamper with the cached P_{-3}, which must be zero
    with pytest.raises(VerificationError, match="parity entry k=1"):
        fam.original(1)


def test_parity_check_survives_python_O():
    script = (
        "import sys\n"
        "from djkm.exact import RationalPoly, VerificationError\n"
        "from djkm.families import FamilyId, PolynomialFamily\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit(4)\n"
        "fam = PolynomialFamily(FamilyId.P4)\n"
        "fam._vals[1] = RationalPoly.one()\n"
        "try:\n"
        "    fam.original(1)\n"
        "except VerificationError:\n"
        "    sys.exit(3)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(djkm.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 3, proc.stderr


def test_registry_is_shared_across_threads():
    from concurrent.futures import ThreadPoolExecutor

    keys = ["P-4", FamilyId.P4] * 32
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(get_family, keys, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert all(fam is families._REGISTRY[FamilyId.P4] for fam in results)


def test_generate_rejects_index_below_view_start():
    with pytest.raises(ValueError):
        generate(FamilyId.P4, IndexView.SHIFTED, -1)


def test_concurrent_generation_is_consistent():
    from concurrent.futures import ThreadPoolExecutor

    fresh = PolynomialFamily(FamilyId.P2)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(fresh.original, list(range(120)) * 4))
    shared = get_family(FamilyId.P2)
    for k, poly in zip(list(range(120)) * 4, results):
        assert poly == shared.original(k)


# ---------------------------------------------------------------------------
# Gegenbauer polynomials and the odd-family closed forms
# ---------------------------------------------------------------------------


def test_gegenbauer_base_cases():
    assert gegenbauer(F(3, 2), 0) == ONE
    assert gegenbauer(F(3, 2), 1) == RationalPoly([0, 3])
    # 2 C_2 = 2(2 + 3/2 - 1) c C_1 - (2 + 3 - 2) C_0 => C_2 = (15c^2 - 3)/2
    assert gegenbauer(F(3, 2), 2) == RationalPoly([F(-3, 2), 0, F(15, 2)])
    # lam = -1/2: C_1 = -c, 2 C_2 = 2(1/2) c (-c) + C_0 => C_2 = (1 - c^2)/2
    assert gegenbauer(F(-1, 2), 2) == RationalPoly([F(1, 2), 0, F(-1, 2)])


def test_gegenbauer_against_inline_recurrence():
    for lam in (F(3, 2), F(-1, 2)):
        prev2, prev1 = ONE, RationalPoly([0, 2 * lam])
        for n in range(2, 31):
            cur = (
                prev1.scale_shift(2 * (n + lam - 1), 1) - prev2 * (n + 2 * lam - 2)
            ) / F(n)
            assert gegenbauer(lam, n) == cur
            prev2, prev1 = prev1, cur


def test_gegenbauer_matches_explicit_sum(monkeypatch):
    # C_n^(lam)(c) = sum_k (-1)^k (lam)_{n-k} / (k! (n-2k)!) (2c)^{n-2k}
    def rising(lam, m):
        return math.prod((lam + j for j in range(m)), start=F(1))

    def explicit(lam, n):
        cs = [F(0)] * (n + 1)
        for k in range(n // 2 + 1):
            cs[n - 2 * k] = (
                (-1) ** k * rising(lam, n - k) * 2 ** (n - 2 * k)
                / (math.factorial(k) * math.factorial(n - 2 * k))
            )
        return RationalPoly(cs)

    # start from an empty cache: descending requests extend it once, the
    # ascending ones read it back
    monkeypatch.setattr(families, "_GEGENBAUER", {})
    for lam in (F(3, 2), F(-1, 2), 1, F(2, 3)):
        for n in [*range(30, -1, -1), *range(31)]:
            assert gegenbauer(lam, n) == explicit(F(lam), n), (lam, n)


def test_concurrent_gegenbauer_is_consistent(monkeypatch):
    from concurrent.futures import ThreadPoolExecutor

    # ascending degrees from a fresh cache, so the workers extend the same
    # sequences at the same time
    monkeypatch.setattr(families, "_GEGENBAUER", {})
    requests = [(lam, n) for n in range(120) for lam in (F(1, 3), 2) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda a: gegenbauer(*a), requests, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.setattr(families, "_GEGENBAUER", {})
    assert results == [gegenbauer(lam, n) for lam, n in requests]


@pytest.mark.parametrize("lam", [F(-1, 2), F(1, 3), F(3, 2), 2])
def test_gegenbauer_is_association_zero(monkeypatch, lam):
    monkeypatch.setattr(families, "_GEGENBAUER", {})
    ultra = assoc_ultraspherical(lam, 0, 40)
    assert len(ultra) == 41
    assert all(gegenbauer(lam, n) == ultra[n] for n in range(41))
    # one sequence under one key, whichever call made it
    assert list(families._GEGENBAUER) == [(F(lam), 0)]


def test_assoc_ultraspherical_returns_a_copy():
    first = assoc_ultraspherical(F(-1, 2), F(3, 2), 6)
    expected = list(first)
    first[3] = ZERO
    first.append(ONE)
    del first[:2]
    assert assoc_ultraspherical(F(-1, 2), F(3, 2), 6) == expected
    assert assoc_ultraspherical(F(-1, 2), F(3, 2), 4) == expected[:5]


def test_gegenbauer_link_base_case():
    # -C_2^(-1/2) / (c^2 - 1) = 1/2, and P_{-3,1} = 1/2, P_{-1,1} = c/2
    assert verify_gegenbauer_link(2)
    assert get_family(FamilyId.P3).original(1) == RationalPoly([F(1, 2)])
    assert get_family(FamilyId.P1).original(1) == RationalPoly([0, F(1, 2)])


def test_gegenbauer_link_sweep():
    assert all(verify_gegenbauer_link(n) for n in range(3, 51))


def test_gegenbauer_link_rejects_small_n():
    with pytest.raises(ValueError):
        verify_gegenbauer_link(1)


# 2 d(t^m u^3) against the master step (x, y, z) at k: at m = -k - 3 the row
# is the generating-function ODE's z^(k+4) coefficient, times -2, and at
# m = k - 3 the psi reducer's top step, for t^k u dt.
ROW_IDENTITIES = {
    "generating-function-ode": (lambda k: -k - 3, lambda x, y, z: {0: -z, 2: C * x, 4: y}),
    "psi-top-step": (lambda k: k - 3, lambda x, y, z: {0: -y, 2: C * -x, 4: z}),
}


def _row_mismatches(identity):
    """The k at which curve_row and the master step disagree.  Both sides are
    polynomials in k of degree at most max(deg MASTER, 1), so that many points
    plus one decide the identity; k = -40..40 is checked besides."""
    at, expected = ROW_IDENTITIES[identity]
    degree = max(len(row) for row in families.MASTER) - 1
    ks = [*range(max(degree, 1) + 1), *range(-40, 41)]
    return [k for k in ks if families.curve_row(at(k)) != expected(*families.master_step(k))]


@pytest.mark.parametrize("identity", ROW_IDENTITIES)
def test_the_curve_row_is_the_master_step(identity):
    # with the base terms m = 0..3 that check_funde checks, the first identity
    # is the generating-function ODE at every order
    assert _row_mismatches(identity) == []


WRONG_TABLES = {
    "master-z": lambda patch: patch.setattr(families, "MASTER", ((0, 4), (6, -2), (8, 2))),
    "quartic-3c": lambda patch: patch.setitem(families.QUARTIC, 2, C * -3),
}


@pytest.mark.parametrize("identity", ROW_IDENTITIES)
@pytest.mark.parametrize("wrong", WRONG_TABLES)
def test_a_wrong_table_breaks_the_curve_row_identity(cold_caches, monkeypatch, identity, wrong):
    WRONG_TABLES[wrong](monkeypatch)
    assert _row_mismatches(identity)
