"""The four DJKM polynomial families and their index conventions.

All four families satisfy the same master recurrence in the original index k,

    (6 + 2k) P_k = 4kc P_{k-2} - 2(k-3) P_{k-4},   k >= 0,

and differ only in which of the four initial entries P_{-4}..P_{-1} equals 1.
The canonical internal indexing is the original one (k >= -4); the shifted,
q and qbar conventions are pure reindexing layers on top of it:

    shifted(n) = original(n - 4)      n >= 0
    q(s)       = original(2s)         s >= -2
    qbar(n)    = q(n + 1)             n >= -1
"""

from __future__ import annotations

import threading
from enum import Enum
from fractions import Fraction
from typing import Dict, List, Tuple, Union

from .exact import (
    Rational,
    RationalPoly,
    Scalar,
    VerificationError,
    shift_combination,
)

_C = RationalPoly.variable()


class FamilyId(str, Enum):
    """Which initial entry equals 1 (P-4 means the family with P_{-4} = 1)."""

    P4 = "P-4"
    P3 = "P-3"
    P2 = "P-2"
    P1 = "P-1"


class IndexView(str, Enum):
    ORIGINAL = "original"
    SHIFTED = "shifted"
    Q = "q"
    QBAR = "qbar"


#: Lowest index meaningful in each view.
VIEW_START = {
    IndexView.ORIGINAL: -4,
    IndexView.SHIFTED: 0,
    IndexView.Q: -2,
    IndexView.QBAR: -1,
}

_INITIAL_INDEX = {
    FamilyId.P4: -4,
    FamilyId.P3: -3,
    FamilyId.P2: -2,
    FamilyId.P1: -1,
}


class PolynomialFamily:
    """Lazily generated, cached sequence P_k(c) for one choice of initials.

    Entries at the wrong parity are still computed by the recurrence and then
    checked to be zero, raising VerificationError otherwise, which re-checks
    the recurrence for free.  After generation the cached entries are
    immutable; extension is serialized by a lock so instances can be shared
    between threads.
    """

    def __init__(self, family_id: FamilyId):
        self.id = FamilyId(family_id)
        self._vals: List[RationalPoly] = [
            RationalPoly.one() if k == _INITIAL_INDEX[self.id] else RationalPoly.zero()
            for k in range(-4, 0)
        ]
        self._lock = threading.Lock()

    def _extend(self, k_max: int) -> None:
        with self._lock:
            k = len(self._vals) - 4
            while k <= k_max:
                # 6 + 2k >= 6 for k >= 0, so both weights are well defined here.
                p = shift_combination(
                    self._vals[k + 2],
                    Fraction(4 * k, 6 + 2 * k),
                    self._vals[k],
                    Fraction(-2 * (k - 3), 6 + 2 * k),
                )
                # A family seeded at an even original index is supported on
                # even indices, the others on odd ones; the complementary
                # entries must come out zero.
                if (k - _INITIAL_INDEX[self.id]) % 2 and not p.is_zero():
                    raise VerificationError(
                        f"{self.id.value}: parity entry k={k} not zero"
                    )
                self._vals.append(p)
                k += 1

    def original(self, k: int) -> RationalPoly:
        if k < -4:
            raise IndexError("original index must be >= -4")
        if k + 4 >= len(self._vals):
            self._extend(k)
        return self._vals[k + 4]

    def shifted(self, n: int) -> RationalPoly:
        if n < 0:
            raise IndexError("shifted index must be >= 0")
        return self.original(n - 4)

    def q(self, s: int) -> RationalPoly:
        if s < -2:
            raise IndexError("q index must be >= -2")
        return self.original(2 * s)

    def qbar(self, n: int) -> RationalPoly:
        if n < -1:
            raise IndexError("qbar index must be >= -1")
        return self.q(n + 1)

    def member(self, view: IndexView, n: int) -> RationalPoly:
        view = IndexView(view)
        if view is IndexView.ORIGINAL:
            return self.original(n)
        if view is IndexView.SHIFTED:
            return self.shifted(n)
        if view is IndexView.Q:
            return self.q(n)
        return self.qbar(n)


_REGISTRY: Dict[FamilyId, PolynomialFamily] = {fid: PolynomialFamily(fid) for fid in FamilyId}


def get_family(family_id: FamilyId) -> PolynomialFamily:
    """The shared per-process instance, built at import for every family.

    Nothing inserts into the registry afterwards, so lookups need no lock;
    each family serialises its own extension.
    """
    return _REGISTRY[FamilyId(family_id)]


def generate(family_id: FamilyId, view: IndexView, max_index: int) -> List[RationalPoly]:
    """All members from the view's lowest index through max_index inclusive."""
    view = IndexView(view)
    fam = get_family(family_id)
    start = VIEW_START[view]
    if max_index < start:
        raise ValueError(f"max_index below the {view.value} view start {start}")
    return [fam.member(view, n) for n in range(start, max_index + 1)]


#: (nu, c) -> C_0^(nu)(x; c), C_1, ... so far; C_n^(lam) is under (lam, 0).
_GEGENBAUER: Dict[Tuple[Fraction, Scalar], List[RationalPoly]] = {}
_GEGENBAUER_LOCK = threading.Lock()


def _ultraspherical(nu: Fraction, c: Scalar, count: int) -> List[RationalPoly]:
    """The shared C_n^(nu)(x; c), extended under the lock through count; not to
    be changed.  Step m solves (m + c) C_m = (2m + 2(nu + c - 1)) x C_{m-1}
    - (m + 2 nu + c - 2) C_{m-2}, with the constants folded once."""
    with _GEGENBAUER_LOCK:
        seq = _GEGENBAUER.setdefault((nu, c), [RationalPoly.one()])
        if len(seq) <= count:
            a, b = 2 * (nu + c - 1), -(2 * nu + c - 2)
            for m in range(len(seq), count + 1):
                den = m + c
                if not den:
                    raise ZeroDivisionError(f"degenerate association parameter at step n={m - 1}")
                prev = seq[m - 2] if m > 1 else RationalPoly.zero()
                seq.append(shift_combination(seq[m - 1], (2 * m + a) / den, prev, (b - m) / den))
        return seq


def assoc_ultraspherical(nu: Scalar, assoc_c: Scalar, count: int) -> List[RationalPoly]:
    """Associated ultraspherical polynomials C_0 .. C_count from

        2x (n + nu + c) C_n = (n + c + 1) C_{n+1} + (2 nu + n + c - 1) C_{n-1},

    with C_{-1} = 0 and C_0 = 1: a copy of the cached sequence.  At c = 0 these
    are the Gegenbauer polynomials, and at nu = -1/2, c = 3/2 the recurrence
    is exactly that of the q_n = P_{-4,2n} sequence.
    """
    nu = Fraction(nu)
    assoc_c = Fraction(assoc_c)
    if count < 0:
        raise ValueError("count must be >= 0")
    return _ultraspherical(nu, assoc_c, count)[: count + 1]


def gegenbauer(lam: Union[Rational, int], n: int) -> RationalPoly:
    """Gegenbauer polynomial C_n^(lam), exact for rational lam: the association-0
    sequence of ``assoc_ultraspherical``, n C_n = 2(n + lam - 1) c C_{n-1}
    - (n + 2 lam - 2) C_{n-2} with C_0 = 1, cached so that n = 0..N costs N steps.
    """
    if n < 0:
        raise ValueError("Gegenbauer degree must be >= 0")
    return _ultraspherical(Fraction(lam), 0, n)[n]


def verify_gegenbauer_link(n: int) -> bool:
    """Check the closed forms of the odd families against Gegenbauer data.

    For n >= 2 this verifies, exactly,

        (c^2 - 1) P_{-3, 2n-3} = -C_n^(-1/2)   and   P_{-1, 2n-3} = c P_{-3, 2n-3},

    where the family members come from the recurrence.  The first identity is
    checked as one product, which decides it exactly because c^2 - 1 is not
    zero.
    """
    if n < 2:
        raise ValueError("link holds for n >= 2")
    p3 = get_family(FamilyId.P3).original(2 * n - 3)
    p1 = get_family(FamilyId.P1).original(2 * n - 3)
    c2_minus_1 = RationalPoly((-1, 0, 1))
    return c2_minus_1 * p3 == -gegenbauer(Fraction(-1, 2), n) and p1 == _C * p3
