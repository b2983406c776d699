"""The four DJKM polynomial families, their index conventions and the curve.

All four families satisfy one master recurrence in the original index k,
z P_k = x c P_{k-2} + y P_{k-4} with the integers (x, y, z) of
``master_step(k)``, the table ``MASTER`` at k, and differ only in which of
the four initial entries P_{-4}..P_{-1} equals 1.  The canonical internal
indexing is the original one (k >= -4); the shifted, q and qbar views are
reindexings n -> stride n + offset, each one row of ``VIEWS``.

``QUARTIC`` is the one statement of the curve p(t) = t^4 - 2ct^2 + 1 of the
ring C[t, t^-1, u | u^2 = p(t)].  The cocycle's reduction and u-u term, the
oracles' quartic and the generating-function ODE's left side read it through
this module when they run, the reduction and the ODE as ``curve_row``, so a
patch to it moves every check derived from p.  The recurrence, the operator
tables and the closed forms the oracles compare against stay typed: they are
the claims those checks test.
"""

from __future__ import annotations

import threading
from enum import Enum
from fractions import Fraction
from typing import Dict, List, Tuple

from .exact import (
    RationalPoly, Scalar, VerificationError, _horner, _integer_row, shift_combination
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


#: (stride, offset, start): index n >= start of a view is original index
#: stride n + offset.
VIEWS = {
    IndexView.ORIGINAL: (1, 0, -4),
    IndexView.SHIFTED: (1, -4, 0),
    IndexView.Q: (2, 0, -2),
    IndexView.QBAR: (2, 2, -1),
}

#: Lowest index meaningful in each view.
VIEW_START = {view: start for view, (_, _, start) in VIEWS.items()}

#: The orthogonal sequences by tag: the family and the degree-graded view.
SEQUENCES = {
    "q": (FamilyId.P4, IndexView.Q),
    "qbar": (FamilyId.P2, IndexView.QBAR),
}


#: x, y and z of the master recurrence as integer polynomials in k, lowest power first.
MASTER = ((0, 4), (6, -2), (6, 2))


def master_step(k: int) -> Tuple[int, int, int]:
    """``MASTER`` at k, (4k, 6 - 2k, 6 + 2k): z P_k = x c P_{k-2} + y P_{k-4} for k >= 0."""
    x, y, z = MASTER
    return _horner(x, k), _horner(y, k), _horner(z, k)


#: p(t) = t^4 - 2ct^2 + 1 as {power of t: coefficient}.  The constant
#: coefficients are ints: the reduction divides by the two end ones.
QUARTIC = {4: 1, 2: _C * -2, 0: 1}


def curve_row(m: int) -> dict:
    """{e: (2m + 3e) p_e} for p = ``QUARTIC`` now: 2 d(t^m u^3) = sum_e (2m + 3e)
    p_e t^{m+e-1} u dt.  The cocycle solves the row at m = k + 1 - end for
    t^k u dt; the generating-function ODE's z^m coefficient is -1/2 the row at
    1 - m against a_{m-e}.  For p = t^4 - 2ct^2 + 1 it reads {0: -z, 2: x c,
    4: y} at m = -k - 3 and {0: -y, 2: -x c, 4: z} at k - 3, (x, y, z) =
    ``master_step(k)``."""
    return {e: p_e * (2 * m + 3 * e) for e, p_e in QUARTIC.items()}


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
        self._seed = int(self.id.value[1:])  # P-4 has P_{-4} = 1
        self._vals: List[RationalPoly] = [
            RationalPoly.one() if k == self._seed else RationalPoly.zero()
            for k in range(-4, 0)
        ]
        self._lock = threading.Lock()

    def _extend(self, k_max: int) -> None:
        with self._lock:
            k = len(self._vals) - 4
            while k <= k_max:
                x, y, z = master_step(k)
                p = shift_combination(self._vals[k + 2], x, self._vals[k], y, z)
                # A family seeded at an even original index is supported on
                # even indices, the others on odd ones; the complementary
                # entries must come out zero.
                if (k - self._seed) % 2 and not p.is_zero():
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
        return self.member(IndexView.SHIFTED, n)

    def q(self, s: int) -> RationalPoly:
        return self.member(IndexView.Q, s)

    def qbar(self, n: int) -> RationalPoly:
        return self.member(IndexView.QBAR, n)

    def member(self, view: IndexView, n: int) -> RationalPoly:
        """Index n of view, an IndexView or its str value: no Enum is built."""
        row = VIEWS.get(view)
        if row is None:
            raise ValueError(f"{view!r} is not a valid IndexView")
        stride, offset, start = row
        if n < start:
            raise IndexError(f"{IndexView(view).value} index must be >= {start}")
        return self.original(stride * n + offset)


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
    - (m + 2 nu + c - 2) C_{m-2}, times d, the lcm of the denominators of
    2 (nu + c - 1), 2 - 2 nu - c and c, so that its three multipliers are integers."""
    with _GEGENBAUER_LOCK:
        seq = _GEGENBAUER.setdefault((nu, c), [RationalPoly.one()])
        if len(seq) <= count:
            (a, b, e), d = _integer_row([2 * (nu + c - 1), 2 - 2 * nu - c, c])
            for m in range(len(seq), count + 1):
                z = d * m + e
                if not z:
                    raise ZeroDivisionError(f"degenerate association parameter at step n={m - 1}")
                prev = seq[m - 2] if m > 1 else RationalPoly.zero()
                seq.append(shift_combination(seq[m - 1], 2 * d * m + a, prev, b - d * m, z))
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


def gegenbauer(lam: Scalar, n: int) -> RationalPoly:
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
