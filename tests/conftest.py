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
    ThreeTermData's A_at (name "A") or C_at (name "C") change(value).  The
    integer pair is what is tampered with: A, C, beta_sq, beta and the
    three-term tie all read it."""

    def tamper(patch, name: str, at: int, change):
        real = getattr(ortho.ThreeTermData, f"{name}_pair")

        def pair(self, n):
            num, den = real(self, n)
            if n != at:
                return num, den
            value = change(Fraction(num, den))
            return value.numerator, value.denominator

        patch.setattr(ortho.ThreeTermData, f"{name}_pair", pair)

    return tamper
