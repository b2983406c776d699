"""Fixtures shared by the test modules."""

from fractions import Fraction

import pytest

from djkm import cocycle, families, oracle, ortho


@pytest.fixture
def cold_caches(monkeypatch):
    """Every process-global cache back to its import state for the test:
    fresh families, Gegenbauer sequences, an empty cocycle reduction window
    (seeded from deg p on its first miss) and empty oracle caches.  The warm ones come back afterwards, so a test may
    patch p(t) or the recurrence without leaving its classes behind."""
    for cache in (oracle._product, oracle._sqrt, oracle._pow_neg_3_2):
        cache.cache_clear()
    for fid in families.FamilyId:
        monkeypatch.setitem(families._REGISTRY, fid, families.PolynomialFamily(fid))
    monkeypatch.setattr(families, "_GEGENBAUER", {})
    monkeypatch.setattr(cocycle, "_U_CACHE", {})


@pytest.fixture
def tamper_three_term():
    """tamper(patch, name, at, change): through the monkeypatch patch, make
    ortho.three_term give A_at (name "A") or C_at (name "C") as change(value),
    and nothing else changed.  The step at p_j, (x, y, z), gives A_j = z/x
    and C_{j-2} = -y/x, so A' = a/b is (x b, y b, a x) there and C' = c/d is
    (x d, -c x, z d): every check that reads the steps sees the tamper."""

    def tamper(patch, name: str, at: int, change):
        real = ortho.three_term
        j = at if name == "A" else at + 2

        def three_term(tag, count):
            steps = real(tag, count)
            if 1 <= j <= count:
                x, y, z = steps[j - 1]
                if name == "A":
                    value = change(Fraction(z, x))
                    b = value.denominator
                    steps[j - 1] = (x * b, y * b, value.numerator * x)
                else:
                    value = change(Fraction(-y, x))
                    d = value.denominator
                    steps[j - 1] = (x * d, -value.numerator * x, z * d)
            return steps

        patch.setattr(ortho, "three_term", three_term)

    return tamper
