"""Exact arithmetic core: rationals, dense polynomials in c, Laurent series in z.

All arithmetic here is exact over the rationals; only ``evaluate`` at a float
point touches floating point.  ``RationalPoly`` is a dense univariate
polynomial in the spectral variable ``c``, stored as a tuple of integer
numerators over one positive common denominator in lowest terms, so sums and
products are big-integer work; its coefficients are read out as
:class:`fractions.Fraction` values.  ``LaurentSeries`` is a truncated Laurent
series in a second variable ``z`` whose coefficients are ``RationalPoly``
values; the truncation order is tracked explicitly through every operation,
so a result never claims coefficients that were not actually computed.

Three kernels build the results of the hot paths in one integer pass with one
reduction per result: ``table_combinations`` applies a linear differential
operator sum_i f_i (d/dc)^i, ``shift_combination`` takes one step
(x c a + y b) / z of a three-term recurrence for integers x, y and z != 0,
and ``_packed_sum`` forms a sum of weighted products w p q by Kronecker
substitution: each parity half of each factor becomes one integer at
c**2 = 2**w, a term adds one big-integer product per pair of halves, and the
sum is read back as balanced base-2**w digits, with w bounded for each sum.
Each coefficient of the series product is one ``_packed_sum``, and so is
each step of the recurrence behind ``sqrt`` and ``pow_neg_3_2``.
``table_combinations`` packs the same way: it applies a table of integer
polynomials in (c, n) at many n, each falling-factorial column k!/(k - i)!
is one integer with 64-bit slots (wider only when a weight needs it), and a
shift's weights are one big-integer combination of the columns read back in
one call.  ``specialise`` evaluates such a table at one n, and
``diff_combination`` applies rational coefficients as the constant table
over the lcm of their denominators, at one point.
``is_shift_combination`` decides whether a polynomial is one such step
(x, y, z) of two others without building or reducing the step, stopping at
the first unequal numerator.

One fraction-free elimination, ``_bareiss``, gives ``leading_minors`` (the
Hankel determinants) and ``nullspace`` (the nonclassicality system) exactly.

All values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from itertools import chain, islice, repeat
from math import gcd, lcm
from operator import add, eq, mul, neg, sub
from typing import Iterable, Mapping, Sequence, Union

Rational = Fraction

Scalar = Union[int, Fraction]


class NonDivisibleError(ArithmeticError):
    """Exact polynomial division left a nonzero remainder."""


class VerificationError(ArithmeticError):
    """An exact internal consistency check of a computed object failed."""


class NotSquareError(VerificationError):
    """Series square root requested outside the supported unit-leading case."""


class ResidueError(VerificationError):
    """Termwise integration hit a nonzero z^-1 coefficient (logarithmic term)."""


def _as_rational(x) -> Scalar:
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


def _integer_row(row: Sequence[Scalar]) -> tuple:
    """(s * row, s) for s the lcm of the denominators of the entries."""
    s = lcm(*(x.denominator for x in row))
    return [x.numerator * (s // x.denominator) for x in row], s


def _canonical(num: list, den: int) -> tuple:
    """The canonical (numerators, denominator) pair of num / den, den > 0.

    Strips trailing zeros from ``num`` in place and divides out
    ``gcd(den, *num)``.
    """
    if not any(num):
        return (), 1
    n = len(num)
    while not num[n - 1]:
        n -= 1
    del num[n:]
    g = gcd(den, *num)
    if g != 1:
        num = [x // g for x in num]
        den //= g
    return tuple(num), den


def _from_parts(num: tuple, den: int) -> "RationalPoly":
    """Wrap a pair that is already canonical."""
    p = object.__new__(RationalPoly)
    p._num = num
    p._den = den
    return p


def _convolve(a: tuple, b: tuple) -> list:
    """Coefficients of the product of two nonempty integer polynomials."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _sum(p: "RationalPoly", q: "RationalPoly", op) -> "RationalPoly":
    """p op q for op in (add, sub), over the least common denominator."""
    if not q._num:
        return p
    if not p._num and op is add:
        return q
    a, b, den = p._num, q._num, p._den
    if den != q._den:
        g = gcd(den, q._den)
        ma, mb = q._den // g, den // g
        den *= ma
        a = [x * ma for x in a]
        b = [y * mb for y in b]
    n = min(len(a), len(b))
    out = list(map(op, a, b))
    if len(a) > n:
        out.extend(a[n:])
    elif len(b) > n:
        out.extend(b[n:] if op is add else map(neg, b[n:]))
    return _from_parts(*_canonical(out, den))


def _scaled(p: "RationalPoly", f: Scalar, shift: int = 0) -> "RationalPoly":
    """p * f * c**shift for a rational f, canonical without a full gcd pass.

    With num/den canonical and n/d in lowest terms, dividing out
    gcd(n, den) and gcd(d, *num) leaves a canonical pair.
    """
    n, d = f.numerator, f.denominator
    if not n or not p._num:
        return _ZERO
    g = gcd(n, p._den)
    h = gcd(d, *p._num)
    n //= g
    num = p._num if h == 1 else [x // h for x in p._num]
    if n != 1:
        num = [x * n for x in num]
    return _from_parts((0,) * shift + tuple(num), p._den // g * (d // h))


class RationalPoly:
    """Dense univariate polynomial over Q: integer numerators over one denominator.

    The value is ``sum(num[i] * c**i) / den`` for a tuple ``num`` of ints and
    a single int ``den``, the layout of FLINT's ``fmpq_poly``.  The pair is
    always canonical: ``den > 0``, no trailing zero in ``num`` and
    ``gcd(den, *num) == 1``.  Equal polynomials therefore have equal pairs,
    and the zero polynomial is ``((), 1)`` with degree -1.  Sums and products
    are big-integer work followed by one reduction; ``coeffs`` builds the
    Fraction coefficients on each call.  Instances are immutable and hashable.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        self._num, self._den = _canonical(*_integer_row([_as_rational(x) for x in coeffs]))

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "RationalPoly":
        return _ZERO

    @classmethod
    def one(cls) -> "RationalPoly":
        return _ONE

    @classmethod
    def variable(cls) -> "RationalPoly":
        """The polynomial c."""
        return _C

    @classmethod
    def constant(cls, value: Scalar) -> "RationalPoly":
        return cls((value,))

    @classmethod
    def monomial(cls, coefficient: Scalar, power: int) -> "RationalPoly":
        """coefficient * c**power."""
        if power < 0:
            raise ValueError("monomial power must be nonnegative")
        return cls((0,) * power + (coefficient,))

    # -- structure ----------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The coefficients as Fractions, lowest power first."""
        den = self._den
        return tuple(Fraction(x, den) for x in self._num)

    @property
    def degree(self) -> int:
        return len(self._num) - 1

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def coefficient(self, power: int) -> Fraction:
        if 0 <= power < len(self._num):
            return Fraction(self._num[power], self._den)
        return Fraction(0)

    def parity_pure(self) -> bool:
        """True if the polynomial is purely even or purely odd in c."""
        # The powers of the wrong parity start at len % 2.
        return not any(self._num[len(self._num) % 2 :: 2])

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "RationalPoly") -> "RationalPoly":
        if not isinstance(other, RationalPoly):
            return NotImplemented
        return _sum(self, other, add)

    def __neg__(self) -> "RationalPoly":
        return _from_parts(tuple(map(neg, self._num)), self._den)

    def __sub__(self, other: "RationalPoly") -> "RationalPoly":
        if not isinstance(other, RationalPoly):
            return NotImplemented
        return _sum(self, other, sub)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _scaled(self, other)
        if not isinstance(other, RationalPoly):
            return NotImplemented
        if not self._num or not other._num:
            return _ZERO
        if len(other._num) == 1:
            return _scaled(self, other.coefficient(0))
        if len(self._num) == 1:
            return _scaled(other, self.coefficient(0))
        num = _convolve(self._num, other._num)
        return _from_parts(*_canonical(num, self._den * other._den))

    __rmul__ = __mul__

    def __truediv__(self, scalar: Scalar) -> "RationalPoly":
        f = _as_rational(scalar)
        if f == 0:
            raise ZeroDivisionError("division of polynomial by zero scalar")
        return _scaled(self, Fraction(f.denominator, f.numerator))

    def scale_shift(self, coefficient: Scalar, power: int) -> "RationalPoly":
        """Multiply by coefficient * c**power in one pass."""
        return _scaled(self, _as_rational(coefficient), power)

    def derivative(self) -> "RationalPoly":
        num = self._num
        return _from_parts(
            *_canonical([i * num[i] for i in range(1, len(num))], self._den)
        )

    def evaluate(self, point):
        """Horner evaluation; exact for int and Fraction points, numeric otherwise.

        A float point (numpy's float64 included) runs over ``num[i] / den``:
        int true division is correctly rounded, so each term equals
        ``float(coefficient)`` even where the numerators and the denominator
        are too large for a float.  Other points run over the Fraction
        coefficients.
        """
        if isinstance(point, float):
            den = self._den
            coeffs = [x / den for x in self._num]
        else:
            coeffs = self.coeffs
        result = 0 * point  # matches the point's type
        for coef in reversed(coeffs):
            result = result * point + coef
        return result

    def exact_divide(self, divisor) -> "RationalPoly":
        """Exact division in Q[c]; raises NonDivisibleError on remainder.

        Pseudo-division on the numerators: with L the divisor's leading
        numerator and e = deg self - deg divisor + 1, L**e * num_self =
        Q * num_divisor + R with every step an exact integer division, and the
        quotient is Q * den_divisor / (den_self * L**e).
        """
        if isinstance(divisor, (int, Fraction)):
            return self / divisor
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        b = divisor._num
        dd = len(b) - 1
        e = len(self._num) - dd
        if e <= 0:
            if self._num:
                raise NonDivisibleError(f"{self!r} is not divisible by {divisor!r}")
            return _ZERO
        lead = b[-1]
        scale = lead**e
        rem = [x * scale for x in self._num]
        q = [0] * e
        for i in range(e - 1, -1, -1):
            coef = rem[i + dd]
            if coef:
                f = coef // lead
                q[i] = f
                for j in range(dd):
                    rem[i + j] -= f * b[j]
        if any(rem[:dd]):
            raise NonDivisibleError(f"{self!r} is not divisible by {divisor!r}")
        den = self._den * scale
        if den < 0:
            den = -den
            q = [-x for x in q]
        m = divisor._den
        return _from_parts(*_canonical([x * m for x in q], den))

    # -- comparison / hashing -----------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, RationalPoly):
            return self._num == other._num and self._den == other._den
        if isinstance(other, (int, Fraction)):
            return self == RationalPoly((other,))
        return NotImplemented

    def __hash__(self) -> int:
        # a constant equals its scalar, so it hashes as that scalar
        if len(self._num) <= 1:
            return hash(Fraction(self._num[0], self._den)) if self._num else 0
        return hash(self.coeffs)

    # -- formatting / serialization ------------------------------------------

    def to_str(self) -> str:
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            coef = coeffs[i]
            if not coef:
                continue
            sign = "-" if coef < 0 else "+"
            mag = abs(coef)
            if i == 0:
                body = str(mag)
            else:
                head = "" if mag == 1 else f"{mag}*"
                body = f"{head}c" + (f"^{i}" if i > 1 else "")
            if not parts:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"RationalPoly({self.to_str()})"

    def to_json(self) -> dict:
        """{"coeffs": [[num, den], ...]} with decimal-string big integers.

        Each pair is the coefficient in lowest terms, read off the integer
        numerators without building a Fraction.
        """
        den = self._den
        coeffs = []
        for x in self._num:
            if x:
                g = gcd(x, den)
                coeffs.append([str(x // g), str(den // g)])
            else:
                coeffs.append(["0", "1"])
        return {"coeffs": coeffs}

    @classmethod
    def from_json(cls, data: Mapping) -> "RationalPoly":
        return cls([Fraction(int(n), int(d)) for n, d in data["coeffs"]])


_ZERO = RationalPoly()
_ONE = RationalPoly((1,))
_C = RationalPoly((0, 1))


def diff_combination(coeffs: Iterable[RationalPoly], p: RationalPoly) -> RationalPoly:
    """sum_i coeffs[i] * (d/dc)**i p: over the lcm L of the coefficients'
    denominators, an integer table constant in n applied by
    ``table_combinations`` at the one point (0, p), divided by L."""
    coeffs = tuple(coeffs)
    den = lcm(*(f._den for f in coeffs))
    rows = tuple(tuple((x * (den // f._den),) if x else () for x in f._num) for f in coeffs)
    (out,) = table_combinations(rows, [(0, p)])
    return out if den == 1 else _scaled(out, Fraction(1, den))


def table_combinations(rows: tuple, points: Iterable[tuple]) -> list:
    """sum_i f_i (d/dc)**i p for each (n, p) of points, f_i the rows at n as
    ``specialise`` gives them, in one integer pass per point, reduced once.

    The term f_i[t] c**t D**i maps c**k to c**(k - i + t) with weight
    f_i[t] k!/(k - i)!, so the rows are grouped by shift i - t and the
    falling factorials built and packed once, at a slot width that holds the
    weights at every n of points.  When p has one parity, the powers of the
    other parity are skipped.
    """
    points = [(n, p, *_powers(p)) for n, p in points]
    groups = {}
    for i, row in enumerate(rows):
        for t, coeffs in enumerate(row):
            if coeffs:
                groups.setdefault(i - t, []).append((i, coeffs))
    size = {}
    for _, p, first, step in points:
        if p._num:  # a zero member runs no pass and needs no columns
            size[first, step] = max(size.get((first, step), 0), len(p._num))
    # |x(n)| <= sum |x_j| top**j for x(n) = sum x_j n**j and |n| <= top
    top = max((abs(n) for n, *_ in points), default=0)
    bounds = {s: [(i, _horner(tuple(map(abs, t)), top)) for i, t in ws] for s, ws in groups.items()}
    columns = {}
    for (f, s), n in size.items():
        falling = _falling(len(rows) - 1, range(f, n, s))
        width = _width(bounds, falling)
        columns[f, s] = [_pack(col, width) for col in falling], width
    out = []
    for n, p, first, step in points:
        num = []
        if p._num and groups:
            weights = {s: [(i, _horner(t, n)) for i, t in ws] for s, ws in groups.items()}
            num = _shift_pass(weights, *columns[first, step], p._num, first, step)
        out.append(_from_parts(*_canonical(num, p._den)))
    return out


def _powers(p: RationalPoly) -> tuple:
    """(first, step): the powers of c that p can hold are first, first + step, ..."""
    step = 2 if p.parity_pure() else 1
    return (len(p._num) - 1) % step, step


def _falling(order: int, ks: range) -> list:
    """falling[i][r] = k!/(k - i)! at the r-th k of ks, for i = 0..order."""
    falling = [[1] * len(ks)]
    for _ in range(order):  # k!/(k - i)! = k!/(k - i + 1)! * (k - i + 1)
        falling.append(list(map(mul, falling[-1], ks)))
        ks = range(ks.start - 1, ks.stop - 1, ks.step)
    return falling


def _width(groups: dict, falling: list) -> int:
    """The slot width for the weights of groups: the least multiple of 64
    above the bit length of sum |x| k!/(k - i)! over the (i, x) of any group,
    with k!/(k - i)! bounded by the last entry of its column of falling, since
    a column is nondecreasing in k >= 0."""
    bound = max((sum(abs(x) * falling[i][-1] for i, x in ws) for ws in groups.values()), default=0)
    return (bound.bit_length() + 64) & ~63


def _shift_pass(groups: dict, cols: list, width: int, num: tuple, first: int, step: int) -> list:
    """Numerators of sum x k!/(k - i)! num[k] c**(k - s) over the (i, x) of
    groups[s] and the powers k = first, first + step, ... of num.

    cols[i] packs the falling factorials k!/(k - i)! of ``_falling`` on
    powers from first on with this step at slots of ``width`` bits, from
    ``_width``, and may run past num.  A group's weights are one big-integer
    combination of the columns cut to num's length, read back by ``_unpack``.
    The groups whose powers k - s share a parity (all of them for step 1)
    join in one lazy stream, assigned to the numerators in one slice.
    """
    n = len(num)
    size = len(range(first, n, step))
    mask = (1 << width * size) - 1
    cols = [col & mask for col in cols]
    num = num[first::step]
    out = [0] * (n - min(0, min(groups)))
    classes = {}
    for s in groups:
        classes.setdefault((first - s) % step, []).append(s)
    for shifts in classes.values():
        hi, lo = max(shifts), min(shifts)
        # the stream covers the powers first - hi, ... in steps; below 0 the
        # weights vanish, since k < s <= i there
        count = size + (hi - lo) // step
        drop = max(0, -((first - hi) // step))
        if drop >= count:
            continue
        total = None
        for s in shifts:
            w = 0
            for i, x in groups[s]:
                w += x * cols[i]
            w = map(mul, _unpack(w, width, size), num)
            w = chain(repeat(0, (hi - s) // step), w, repeat(0, (s - lo) // step))
            total = w if total is None else map(add, total, w)
        start = first - hi + drop * step
        out[start : start + (count - drop) * step : step] = islice(total, drop, None)
    return out


def shift_combination(
    a: RationalPoly, x: int, b: RationalPoly, y: int, z: int
) -> RationalPoly:
    """(x * c * a + y * b) / z for integers x, y and z != 0, over one
    denominator, reduced once."""
    if not z:
        raise ValueError("z must be nonzero")
    if z < 0:
        x, y, z = -x, -y, -z
    an = a._num if x else ()
    bn = b._num if y else ()
    den = lcm(a._den if an else 1, b._den if bn else 1)
    ma, mb = den // a._den * x, den // b._den * y
    ta = [0] + [ma * v for v in an]
    tb = [mb * v for v in bn]
    if len(ta) < len(tb):
        ta, tb = tb, ta
    out = list(map(add, ta, tb))
    out.extend(ta[len(tb) :])
    return _from_parts(*_canonical(out, den * z))


def is_shift_combination(
    t: RationalPoly, a: RationalPoly, x: int, b: RationalPoly, y: int, z: int
) -> bool:
    """z * t == x * c * a + y * b for integers x, y and z != 0, decided lazily
    on every numerator over the lcm D of the three denominators: no gcd over
    the numerators, no polynomial built, and the first unequal numerator ends
    the walk.  Along a recurrence the denominators are close, so D over each
    of them is a small integer.
    """
    if not z:
        raise ValueError("z must be nonzero")
    den = lcm(t._den, a._den, b._den)
    an, bn, tn = a._num, b._num, t._num
    n = max(len(an) + 1, len(bn), len(tn))
    sa = chain((0,), map(mul, repeat(den // a._den * x), an), repeat(0, n - len(an) - 1))
    sb = chain(map(mul, repeat(den // b._den * y), bn), repeat(0, n - len(bn)))
    st = chain(map(mul, repeat(den // t._den * z), tn), repeat(0, n - len(tn)))
    return all(map(eq, map(add, sa, sb), st))


class _Halves:
    """p's numerators at the even and at the odd powers of c, for ``_packed_sum``.

    A half with no nonzero entry is (), so a parity-pure p has one empty half.
    p's numerators are below 2**bits in absolute value, and ``packs`` maps a
    slot width to the two halves packed at it, so that a factor is packed
    once per width for as long as its ``_Halves`` lives.
    """

    __slots__ = ("even", "odd", "den", "bits", "size", "packs")

    def __init__(self, p: RationalPoly):
        ev, od = p._num[0::2], p._num[1::2]
        self.even = ev if any(ev) else ()
        self.odd = od if any(od) else ()
        self.den = p._den
        self.bits = max(map(abs, p._num), default=0).bit_length()
        self.size = len(p._num)
        self.packs = {}


def _pack(half: tuple, width: int) -> int:
    """sum half[i] * 2**(width * i): a parity half at c**2 = 2**width."""
    total = 0
    for x in reversed(half):
        total = (total << width) + x
    return total


def _unpack(total: int, width: int, slots: int) -> list:
    """The ``slots`` balanced base-2**width digits of total, lowest first.

    width is a multiple of 8, and the caller bounds every digit d by
    |d| < 2**(width - 1), so adding 2**(width - 1) to each digit leaves them
    one per width // 8 bytes.  That bound is what makes the digits right: an
    overflow in a middle slot carries into the next one unseen.  The check
    here catches only a total that spills past the last slot, and raises
    VerificationError for it.  At width 64, XOR with the same offset turns
    each slot into its digit's two's complement, read as little-endian
    signed 64-bit integers in one call on any host.
    """
    if not total:
        return [0] * slots
    size = width // 8
    offset = int.from_bytes((bytes(size - 1) + b"\x80") * slots, "little")
    total += offset
    if total >> (width * slots):
        raise VerificationError(f"a packed product overflows {slots} slots of {width} bits")
    if width == 64:
        return list(struct.unpack(f"<{slots}q", (total ^ offset).to_bytes(size * slots, "little")))
    raw = total.to_bytes(size * slots, "little")
    half = 1 << (width - 1)
    return [int.from_bytes(raw[i : i + size], "little") - half for i in range(0, len(raw), size)]


def _packed_sum(terms: list) -> RationalPoly:
    """sum w * p * q over (w, p, q) terms by Kronecker substitution, reduced once.

    w is a nonzero int or Fraction, and p and q are ``_Halves``.  Over the
    lcm D of the terms' denominators, a term has the integer multiplier
    x = w's numerator * D / (w's denominator * den p * den q).  Even times
    even and odd times odd land on the even powers, the mixed halves on the
    odd powers, each as one big-integer product of packed halves.

    The slot width is what makes the sum exact (see ``_unpack``).  One slot
    gets at most min(len p, len q) products from a term, so 2**(width - 1)
    exceeds the sum over the terms of |x| * max|p| * max|q| * min(len p,
    len q) once width - 1 covers the largest term's bit lengths plus the bit
    length of the term count.  The width is rounded up to 32 bits, so that a
    factor is packed again only when a later sum needs wider slots.
    """
    if not terms:
        return _ZERO
    den = lcm(*(w.denominator * p.den * q.den for w, p, q in terms))
    terms = [(w.numerator * (den // (w.denominator * p.den * q.den)), p, q) for w, p, q in terms]
    bits = max(
        x.bit_length() + p.bits + q.bits + min(p.size, q.size).bit_length() for x, p, q in terms
    )
    width = (bits + len(terms).bit_length() + 32) & ~31
    slots = max((p.size + 1) // 2 + (q.size + 1) // 2 for _, p, q in terms)
    ev = od = 0
    for x, p, q in terms:
        for f in (p, q):
            if width not in f.packs:
                f.packs[width] = _pack(f.even, width), _pack(f.odd, width)
        (pe, po), (qe, qo) = p.packs[width], q.packs[width]
        ev += x * (pe * qe + (po * qo << width))
        od += x * (pe * qo + po * qe)
    out = [0] * (2 * slots)
    out[0::2] = _unpack(ev, width, slots)
    out[1::2] = _unpack(od, width, slots)
    return _from_parts(*_canonical(out, den))


def specialise(rows: Iterable[tuple], n: int) -> tuple:
    """The polynomials in c whose c-coefficients are integer polynomials in n,
    evaluated at the integer n.

    Row i holds the c-coefficients of the i-th polynomial, lowest power first;
    each is a tuple of integers, the coefficients in n, lowest power first.
    """
    return tuple(_from_parts(*_canonical([_horner(t, n) for t in row], 1)) for row in rows)


def _horner(coeffs: tuple, x: int) -> int:
    """The integer polynomial coeffs (lowest power first) at the integer x."""
    v = 0
    for a in reversed(coeffs):
        v = v * x + a
    return v


def _as_poly(x) -> RationalPoly:
    if isinstance(x, RationalPoly):
        return x
    return RationalPoly((x,))


class LaurentSeries:
    """Truncated Laurent series in z with RationalPoly coefficients: what the oracles use.

    Coefficients are known exactly for every exponent ``lowest_order`` through
    ``truncation_order`` inclusive, and are zero below ``lowest_order``.
    A product takes the minimum truncation consistent with what both operands
    actually determine.
    """

    __slots__ = ("_low", "_coeffs", "_trunc")

    def __init__(self, lowest_order: int, coeffs: Iterable, truncation_order: int):
        cs = [_as_poly(x) for x in coeffs]
        if len(cs) != truncation_order - lowest_order + 1:
            raise ValueError(
                "coefficient count must equal truncation_order - lowest_order + 1"
            )
        while cs and cs[0].is_zero():
            cs.pop(0)
            lowest_order += 1
        if not cs:
            lowest_order = truncation_order + 1
        self._low = lowest_order
        self._coeffs = tuple(cs)
        self._trunc = truncation_order

    @classmethod
    def from_terms(cls, terms: Mapping[int, object], truncation_order: int) -> "LaurentSeries":
        """Build from an {exponent: coefficient} mapping."""
        if not terms:
            return cls(truncation_order + 1, (), truncation_order)
        low = min(terms)
        if max(terms) > truncation_order:
            raise ValueError("term exponent exceeds truncation_order")
        coeffs = [_as_poly(terms.get(n, _ZERO)) for n in range(low, truncation_order + 1)]
        return cls(low, coeffs, truncation_order)

    @classmethod
    def zero(cls, truncation_order: int) -> "LaurentSeries":
        return cls(truncation_order + 1, (), truncation_order)

    # -- structure ----------------------------------------------------------

    @property
    def lowest_order(self) -> int:
        return self._low

    @property
    def truncation_order(self) -> int:
        return self._trunc

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    def coefficient(self, exponent: int) -> RationalPoly:
        """Coefficient of z**exponent; raises beyond the truncation order."""
        if exponent > self._trunc:
            raise ValueError(f"coefficient z^{exponent} beyond truncation {self._trunc}")
        if exponent < self._low:
            return _ZERO
        return self._coeffs[exponent - self._low]

    def is_zero(self) -> bool:
        return not self._coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (
            self._low == other._low
            and self._trunc == other._trunc
            and self._coeffs == other._coeffs
        )

    def __hash__(self) -> int:
        # the canonical pairs that __eq__ compares, so no Fraction is built
        return hash((self._low, self._trunc, tuple((p._num, p._den) for p in self._coeffs)))

    # -- arithmetic ---------------------------------------------------------

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        # The result coefficient at n is fully determined only while every
        # contributing pair is inside both known ranges.
        trunc = min(self._trunc + other._low, other._trunc + self._low)
        low = self._low + other._low
        size = trunc - low + 1
        if size <= 0:
            return LaurentSeries.zero(trunc)
        a = [_Halves(p) if p._num else None for p in self._coeffs[:size]]
        b = [_Halves(q) if q._num else None for q in other._coeffs[:size]]
        # a short left factor, such as a prefactor, visits only its nonzero terms
        ia = [i for i, p in enumerate(a) if p]
        out = [
            _packed_sum([(1, a[i], b[k - i]) for i in ia if i <= k and b[k - i]])
            for k in range(size)
        ]
        return LaurentSeries(low, out, trunc)

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by z**k."""
        return LaurentSeries(self._low + k, self._coeffs, self._trunc + k)

    def truncate(self, new_trunc: int) -> "LaurentSeries":
        if new_trunc > self._trunc:
            raise ValueError("cannot extend a truncation")
        if new_trunc < self._low:
            return LaurentSeries.zero(new_trunc)
        return LaurentSeries(
            self._low, self._coeffs[: new_trunc - self._low + 1], new_trunc
        )

    def integrate(self) -> "LaurentSeries":
        """Termwise antiderivative with integration constant 0.

        The z^-1 coefficient must vanish; otherwise the antiderivative leaves
        the Laurent ring and ResidueError is raised.
        """
        terms = {}
        for i, p in enumerate(self._coeffs):
            n = self._low + i
            if p.is_zero():
                continue
            if n == -1:
                raise ResidueError("nonzero z^-1 coefficient: integral has a log term")
            terms[n + 1] = p * Fraction(1, n + 1)
        return LaurentSeries.from_terms(terms, self._trunc + 1)

    # -- fractional powers ----------------------------------------------------

    def _unit_power(self, alpha: Fraction) -> list:
        """Coefficients of (self normalized to constant term 1)**alpha.

        Uses the first-order relation u * f' = alpha * u' * f satisfied by
        f = u**alpha, which determines the coefficients by a single recurrence:
        m f[m] = sum over 1 <= i <= m of ((alpha + 1) i - m) u[i] f[m - i].
        """
        nz = [(i, _Halves(p)) for i, p in enumerate(self._coeffs) if i and p._num]
        s, d = alpha.numerator + alpha.denominator, alpha.denominator  # alpha + 1 = s / d
        f = [_ONE]
        fh = [_Halves(_ONE)]
        for m in range(1, self._trunc - self._low + 1):
            terms = []
            for i, ui in nz:
                if i > m:
                    break
                w = Fraction(s * i - d * m, d * m)
                if w:
                    terms.append((w, ui, fh[m - i]))
            p = _packed_sum(terms)
            f.append(p)
            fh.append(_Halves(p))
        return f

    def sqrt(self) -> "LaurentSeries":
        """Square root with leading coefficient +1.

        Supported case: even lowest order and constant leading coefficient 1
        (the only case a quartic weight factor needs).
        """
        if self.is_zero():
            raise NotSquareError("square root of an identically unknown/zero series")
        if self._low % 2 != 0:
            raise NotSquareError("square root needs an even lowest order")
        if self._coeffs[0] != _ONE:
            raise NotSquareError("square root supported only for unit leading coefficient")
        f = self._unit_power(Fraction(1, 2))
        half = self._low // 2
        return LaurentSeries(half, f, self._trunc - self._low + half)

    def pow_neg_3_2(self) -> "LaurentSeries":
        """The power s**(-3/2) for a series with constant term 1 at order 0."""
        if self._low != 0 or self.is_zero() or self._coeffs[0] != _ONE:
            raise NotSquareError("(-3/2) power needs constant term 1 at order 0")
        return LaurentSeries(0, self._unit_power(Fraction(-3, 2)), self._trunc)

    # -- formatting / serialization ------------------------------------------

    def __repr__(self) -> str:
        shown = []
        for i, p in enumerate(self._coeffs):
            if p.is_zero():
                continue
            shown.append(f"({p.to_str()})*z^{self._low + i}")
            if len(shown) >= 6:
                shown.append("...")
                break
        body = " + ".join(shown) if shown else "0"
        return f"LaurentSeries({body} + O(z^{self._trunc + 1}))"

    def to_json(self) -> dict:
        return {
            "lowest_order": self._low,
            "truncation_order": self._trunc,
            "coeffs": [p.to_json() for p in self._coeffs],
        }


# -- fraction-free elimination (Bareiss, Math. Comp. 22, 1968) ---------------


def _bareiss(m: list, width: int) -> tuple:
    """Row echelon form of the integer rows m in columns 0..width-1, in place:
    below the pivot p of column k a row becomes (p row - row[k] top) / p', p'
    the previous pivot, an exact division since every entry is a minor of the
    rows in their final order; entries left of a pivot are stale.  Returns the
    pivot columns of m[0], m[1], ... and the steps that swapped out a zero pivot."""
    pivots, swaps, prev = [], [], 1
    for col in range(width):
        r = len(pivots)
        at = next((i for i in range(r, len(m)) if m[i][col]), None)
        if at is None:
            continue
        if at != r:
            m[r], m[at] = m[at], m[r]
            swaps.append(r)
        top, pivot = m[r], m[r][col]
        for row in m[r + 1 :]:
            for j in range(col + 1, width):
                row[j] = (row[j] * pivot - row[col] * top[j]) // prev
        pivots.append(col)
        prev = pivot
    return pivots, swaps


def leading_minors(rows: Sequence[Sequence[Scalar]]) -> list:
    """Exact determinants of the leading N x N blocks of rows, N = 1..len(rows).

    Until the first exchange or skipped column of one pass on the rows scaled
    to integers, pivot r is the (r+1)-th leading minor.  Each larger minor is
    the last pivot of its own block, negated per exchange, or 0 if singular."""
    scaled = [_integer_row(row) for row in rows]
    m = [ints[:] for ints, _ in scaled]
    pivots, swaps = _bareiss(m, len(m))
    run = min([r for r, col in enumerate(pivots) if col != r] + swaps + [len(pivots)])
    out, den = [], 1
    for size, (_, s) in enumerate(scaled, 1):
        den *= s
        if size <= run:
            det = m[size - 1][size - 1]
        else:
            block = [ints[:size] for ints, _ in scaled[:size]]
            pivots, swaps = _bareiss(block, size)
            det = (-1) ** len(swaps) * block[-1][-1] if len(pivots) == size else 0
        out.append(Fraction(det, den))
    return out


def nullspace(rows: Iterable[Sequence[Scalar]], width: int) -> list:
    """The reduced row echelon basis of {v : sum_j row[j] v[j] = 0 for every row}
    over Q: one vector per free column, 1 there and 0 at the other free ones.
    The pivot entries come by back-substitution over Fraction on the at most
    width pivot rows of one pass on the rows scaled to integers."""
    m = [_integer_row(row)[0] for row in rows]
    pivots, _ = _bareiss(m, width)
    basis = []
    for free in (c for c in range(width) if c not in pivots):
        vec = [Fraction(0)] * width
        vec[free] = Fraction(1)
        for row, col in reversed(list(zip(m, pivots))):
            vec[col] = Fraction(-sum(map(mul, row[col + 1 : width], vec[col + 1 :])), row[col])
        basis.append(tuple(vec))
    return basis
