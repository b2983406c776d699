"""Reduction of Kahler differentials mod dR and the central-extension cocycle.

The coordinate ring is R = C[t, t^-1, u | u^2 = p(t)]; p(t), the only input,
is read from ``families.QUARTIC`` when it is used, so the basis and its JSON
keys follow deg p.  Classes in Omega^1_R / dR are expanded over

    w0 = class(t^-1 dt),    w_k = class(t^k u dt)  for k = -1, ..., -deg p,

with RationalPoly coordinates.  Monomials t^k u dt reduce into this basis by
d(t^m u^3) == 0 (mod dR), the row ``families.curve_row(m)``, solved for its
top term (e = deg p) when k >= 0 and for its bottom term (e = 0) when
k < -deg p.  The cocycle of two ring monomials is the class of f dg, computed
with d(t^b u) = b t^{b-1} u dt + t^b du and u du = p'(t) dt / 2.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from typing import Dict, List, Mapping, NamedTuple, Tuple

from . import families
from .exact import RationalPoly, VerificationError
from .families import FamilyId, get_family

_C = RationalPoly.variable()
_ZERO = RationalPoly.zero()
_ONE = RationalPoly.one()


class OmegaVector:
    """Exact coordinates over the center basis {w0, w-1, ..., w-deg p}.

    Only the nonzero coordinates are stored, keyed by basis name, so equal
    vectors have equal mappings and the zero vector is the empty mapping.
    Vectors are immutable, so the zero and w0 vectors are shared.
    """

    __slots__ = ("_coords",)

    def __init__(self, coords: Mapping[str, RationalPoly]):
        self._coords = {name: p for name, p in coords.items() if p}

    @classmethod
    def _of(cls, coords: Dict[str, RationalPoly]) -> "OmegaVector":
        """The vector over coords, none of them 0, taken as is.  Q[c] has no zero
        divisors, so the products of nonzero coordinates and factors qualify."""
        vec = object.__new__(cls)
        vec._coords = coords
        return vec

    @classmethod
    def zero(cls) -> "OmegaVector":
        return _ZERO_VECTOR

    @classmethod
    def basis_u(cls, k: int) -> "OmegaVector":
        """The basis vector w_k for k in -1, ..., -deg p."""
        if not -max(families.QUARTIC) <= k <= -1:
            raise ValueError(f"u-basis index must be -1..-{max(families.QUARTIC)}")
        return cls._of({f"w{k}": _ONE})

    def is_zero(self) -> bool:
        return not self._coords

    def __add__(self, other: "OmegaVector") -> "OmegaVector":
        coords = dict(self._coords)
        for name, p in other._coords.items():
            coords[name] = coords.get(name, _ZERO) + p
        return OmegaVector(coords)

    def __sub__(self, other: "OmegaVector") -> "OmegaVector":
        return self + other.scale(-1)

    def __neg__(self) -> "OmegaVector":
        return OmegaVector._of({name: -p for name, p in self._coords.items()})

    def scale(self, factor) -> "OmegaVector":
        if not factor:
            return _ZERO_VECTOR
        if not self._coords or factor == 1:
            return self
        return OmegaVector._of({name: p * factor for name, p in self._coords.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, OmegaVector):
            return NotImplemented
        return self._coords == other._coords

    def __hash__(self) -> int:
        return hash(frozenset(self._coords.items()))

    def __repr__(self) -> str:
        return f"OmegaVector({self._coords!r})"

    def to_json(self) -> dict:
        names = ("w0", *(f"w{k}" for k in range(-1, -max(families.QUARTIC) - 1, -1)))
        return {name: self._coords.get(name, _ZERO).to_json() for name in names}


_ZERO_VECTOR = OmegaVector._of({})
_W0_VECTOR = OmegaVector._of({"w0": _ONE})


class RMonomial(NamedTuple):
    """t^exponent, or t^exponent * u when has_u is set."""

    exponent: int
    has_u: bool = False


def t_pow(exponent: int) -> RMonomial:
    return RMonomial(exponent, False)


def t_pow_u(exponent: int) -> RMonomial:
    return RMonomial(exponent, True)


# Reduction cache: the classes of t^k u dt over a window of k, seeded on its first miss.
_U_CACHE: Dict[int, OmegaVector] = {}
_U_LOCK = threading.Lock()


def _solve(k: int, end: int) -> OmegaVector:
    """Class of t^k u dt as the e = end term of ``families.curve_row(m)`` == 0,
    m = k + 1 - end; the classes of the other terms must be cached.  The end
    weight (2k + 2 + end) p_end is not 0 for k >= 0 or k < -deg p."""
    lead = families.QUARTIC[end]
    if not isinstance(lead, (int, Fraction)) or not lead:
        raise VerificationError(f"p(t) has t^{end} coefficient {lead}, not a nonzero constant")
    m = k + 1 - end
    row = families.curve_row(m)
    total = OmegaVector.zero()
    for e, weight in row.items():
        if e != end:
            total = total + _U_CACHE[m + e - 1].scale(weight)
    return total.scale(Fraction(-1, row[end]))


def reduce_u_monomial(k: int) -> OmegaVector:
    """Class of t^k u dt over the center basis, for any integer k."""
    if k in _U_CACHE:
        return _U_CACHE[k]
    with _U_LOCK:
        if not _U_CACHE:
            _U_CACHE.update((j, OmegaVector.basis_u(j)) for j in range(-max(families.QUARTIC), 0))
        hi = max(_U_CACHE)
        while hi < k:
            hi += 1
            _U_CACHE[hi] = _solve(hi, max(families.QUARTIC))
        lo = min(_U_CACHE)
        while lo > k:
            lo -= 1
            _U_CACHE[lo] = _solve(lo, min(families.QUARTIC))
    return _U_CACHE[k]


def reduce_plain(a: int) -> OmegaVector:
    """Class of t^a dt: exact unless a = -1, where it is the basis vector w0."""
    return _W0_VECTOR if a == -1 else _ZERO_VECTOR


def cocycle(f: RMonomial, g: RMonomial) -> OmegaVector:
    """Class of f dg for ring monomials f, g."""
    a, b = f.exponent, g.exponent
    if not f.has_u and not g.has_u:
        # t^a d(t^b) = b t^{a+b-1} dt
        return reduce_plain(a + b - 1).scale(b)
    if f.has_u and g.has_u:
        # t^a u d(t^b u) = [b t^{a+b-1} p(t) + t^{a+b} p'(t)/2] dt
        # = sum_e (b + e/2) p_e t^{a+b+e-1} dt is plain, and of its terms only
        # t^-1 dt (e = -a-b, so b + e/2 = (b-a)/2) has a nonzero class.
        if a == b or -a - b not in families.QUARTIC:
            return _ZERO_VECTOR
        return OmegaVector({"w0": _ONE * Fraction(b - a, 2) * families.QUARTIC[-a - b]})
    if f.has_u:
        # t^a u d(t^b) = b t^{a+b-1} u dt
        return reduce_u_monomial(a + b - 1).scale(b)
    # plain times d(u-monomial): f dg = d(fg) - g df == -g df mod dR
    return -cocycle(g, f)


def psi(i: int, j: int) -> OmegaVector:
    """The theorem's central coefficient table for [x t^{i-1} u, y t^j].

    Depends only on s = i + j; family indices are ORIGINAL ones.  For odd
    s <= -3 the family is evaluated at |s| - 2 with the weights c w-3 + w-1
    swapped relative to the positive side, which is what the reduction rule
    produces (the family recurrence does not extend below index -4).
    """
    s = i + j
    if s in (1, 0, -1, -2):
        return OmegaVector.basis_u(s - 2)
    if s % 2:
        p3 = get_family(FamilyId.P3).original(abs(s) - 2)
        if s >= 3:
            return OmegaVector({"w-3": p3, "w-1": p3.scale_shift(1, 1)})
        return OmegaVector({"w-3": p3.scale_shift(1, 1), "w-1": p3})
    p4 = get_family(FamilyId.P4).original(abs(s) - 2)
    p2 = get_family(FamilyId.P2).original(abs(s) - 2)
    return OmegaVector({"w-4": p4, "w-2": p2})


class PsiReport(NamedTuple):
    bound: int
    cases: int
    failures: Tuple[Tuple[int, int], ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        pairs = [list(f) for f in self.failures]
        return {"bound": self.bound, "cases": self.cases, "passed": self.passed, "failures": pairs}


def _window(bound: int) -> range:
    if bound < 1:
        raise ValueError("bound must be >= 1")
    return range(-bound, bound + 1)


def verify_psi_table(bound: int) -> PsiReport:
    """Check cocycle(t^{i-1} u, t^j) = j psi(i, j) for all |i|, |j| <= bound."""
    window = _window(bound)
    plain = [(j, t_pow(j)) for j in window if j]
    failures: List[Tuple[int, int]] = []
    cases = 0
    for i in window:
        f = t_pow_u(i - 1)
        for j, g in plain:
            cases += 1
            if cocycle(f, g) != psi(i, j).scale(j):
                failures.append((i, j))
    return PsiReport(bound=bound, cases=cases, failures=tuple(failures))


def uu_central_term(i: int, j: int) -> OmegaVector:
    """Closed form of the u-u bracket's central term,

        ((j+1) d_{i+j,-2} - 2cj d_{i+j,0} + (j-1) d_{i+j,2}) w0.
    """
    s = i + j
    if s in (-2, 2):
        return OmegaVector({"w0": RationalPoly.constant(j - s // 2)})
    return OmegaVector({"w0": _C * (-2 * j)}) if s == 0 else _ZERO_VECTOR


def verify_uu_terms(bound: int) -> bool:
    """The u-u bracket's central term equals uu_central_term for |i|, |j| <= bound."""
    monomials = [(i, t_pow_u(i - 1)) for i in _window(bound)]
    return all(cocycle(f, g) == uu_central_term(i, j) for i, f in monomials for j, g in monomials)


def verify_antisymmetry(bound: int) -> bool:
    """cocycle(f, g) = -cocycle(g, f) over the plain-plain and u-u pairs with
    exponents |i|, |j| <= bound.  A mixed pair is antisymmetric by definition,
    because cocycle(plain, u-monomial) is computed as -cocycle(u-monomial,
    plain), so it is not looped over.

    No p(t) can fail this check: the plain-plain class of t^a d(t^b) is b w0
    when a + b = 0 and else 0, and the u-u class is (b - a)/2 times p's
    t^(-a-b) coefficient times w0, both antisymmetric for every p.  Only a
    wrong branch of ``cocycle`` itself fails it (reduce_plain(0) returning w0,
    say); the 2-cocycle identity that would test p is ROADMAP item 9.
    """
    plain, with_u = zip(*((t_pow(i), t_pow_u(i)) for i in _window(bound)))
    return all(cocycle(f, g) == -cocycle(g, f) for fs in (plain, with_u) for f in fs for g in fs)
