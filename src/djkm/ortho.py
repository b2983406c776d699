"""Orthogonality machinery for the two even DJKM sequences.

The orthogonal sequences are the degree-graded views of the even families:

    q_n    = P_{-4, 2n}   (original indexing),  q_0 = 1,  deg q_n = n
    qbar_n = P_{-2, 2n+2} (original indexing),  qbar_0 = 1/5,  deg qbar_n = n

Both satisfy x p_n = A_{n+1} p_{n+1} + C_{n-1} p_{n-1} with zero diagonal and
A_n C_{n-1} > 0, so Favard's theorem applies after symmetrization; A_n and C_n
come from ``families.master_step``, which generates the families.  Exact work
runs on integer numerators over one denominator, like RationalPoly, and builds
Fractions only for its results; the Hankel minors and the nullspace of the
nonclassicality system come from ``exact``'s one elimination kernel.  The
Jacobi matrix enters through beta_n^2 = A_n C_{n-1} via the similarity that
puts beta_n^2 above the diagonal and 1 below, so no square root is ever taken.
Its zero diagonal makes the odd moments vanish, so each Hankel determinant
splits by parity into an even and an odd block.  Floating point appears only
in the Gauss quadrature (golub_welsch, quad_orthogonality) and in hyp2f1:
golub_welsch takes LAPACK eigenvalues of the tridiagonal B^T B, B the
bidiagonal half of J, refines each node by one Newton step, weights it by
its Christoffel number, and certifies every node with Sturm counts.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .exact import RationalPoly, Scalar, VerificationError, is_shift_combination
from .exact import _integer_row, leading_minors, nullspace
from . import families
from .families import SEQUENCES, VIEWS, get_family
from .families import assoc_ultraspherical  # noqa: F401  (battery and perfbench's spans use it)


class NoConvergenceError(VerificationError):
    """A numeric iteration failed to meet its stated bound."""


# ---------------------------------------------------------------------------
# three-term recurrence data
# ---------------------------------------------------------------------------


def _sequence(tag: str):
    """The (family, view) pair of an orthogonal sequence tag."""
    if tag not in SEQUENCES:
        raise ValueError(f"unknown orthogonal sequence tag {tag!r}")
    return SEQUENCES[tag]


def _member(tag: str, n: int) -> RationalPoly:
    family_id, view = _sequence(tag)
    return get_family(family_id).member(view, n)


class ThreeTermData:
    """Coefficients of x p_n = A_{n+1} p_{n+1} + C_{n-1} p_{n-1}.

    At k the original index of p_{n+1}, (x, y, z) = families.master_step(k)
    reads z p_{n+1} = x c p_n + y p_{n-1}, so A_{n+1} = z/x and
    C_{n-1} = -y/x.  The diagonal coefficient B_n is identically 0 for both
    sequences, so the Jacobi matrix is fixed by its squared off-diagonal
    entries beta_n^2.  A and C are exposed by their own subscript; C_{-1} is
    0 by convention (its recurrence partner p_{-1} is the zero polynomial).
    Every read calls families.master_step, so a check sees the recurrence as
    it is when the check runs.
    """

    def __init__(self, family: str):
        # p_n is P at original index stride n + offset
        self._stride, self._offset, _ = VIEWS[_sequence(family)[1]]

    def _step(self, n: int) -> Tuple[int, int, int]:
        """families.master_step at p_n's original index."""
        return families.master_step(self._stride * n + self._offset)

    def A_pair(self, n: int) -> Tuple[int, int]:
        """A_n as an integer (numerator, denominator) pair, not reduced."""
        if n < 1:
            raise ValueError("A_n is defined for n >= 1")
        x, _, z = self._step(n)
        return z, x

    def C_pair(self, n: int) -> Tuple[int, int]:
        """C_n as an integer (numerator, denominator) pair, not reduced."""
        if n == -1:
            return 0, 1
        if n < -1:
            raise ValueError("C_n is defined for n >= -1")
        x, y, _ = self._step(n + 2)
        return -y, x

    def A(self, n: int) -> Fraction:
        return Fraction(*self.A_pair(n))

    def C(self, n: int) -> Fraction:
        return Fraction(*self.C_pair(n))

    def beta_sq(self, n: int) -> Fraction:
        """Squared symmetrized off-diagonal entry, beta_n^2 = A_n C_{n-1} > 0."""
        return self.A(n) * self.C(n - 1)

    def beta(self, n: int) -> float:
        """beta_n = sqrt(A_n C_{n-1}) in floating point, with no Fraction built.

        Integer true division is correctly rounded, so the square root is
        taken of the float nearest A_n C_{n-1}, as float(beta_sq(n)) is.
        """
        (an, ad), (cn, cd) = self.A_pair(n), self.C_pair(n - 1)
        return math.sqrt(an * cn / (ad * cd))


def three_term(tag: str) -> ThreeTermData:
    return ThreeTermData(tag)


def recurrence_mismatch(tag: str, count: int) -> Optional[int]:
    """First n < count at which the generated members break

        x p_n = A_{n+1} p_{n+1} + C_{n-1} p_{n-1},

    exactly, or None.  Moments, Hankel determinants, the Favard normalisers
    and the Gauss rule read ThreeTermData, never the family; this ties that
    data to the members it describes, without building p_{n+1} again:
    A, C, beta_sq and beta all build on A_pair and C_pair, which it reads.
    Each step is decided with the integer pairs A = an/ad and C = cn/cd, not
    reduced: an cd p_{n+1} = ad cd x p_n - ad cn p_{n-1}.
    """
    data = three_term(tag)
    if count < 1:
        raise ValueError("count must be >= 1")
    prev, cur = RationalPoly.zero(), _member(tag, 0)
    for n in range(count):
        nxt = _member(tag, n + 1)
        (an, ad), (cn, cd) = data.A_pair(n + 1), data.C_pair(n - 1)
        if not is_shift_combination(nxt, cur, ad * cd, prev, -ad * cn, an * cd):
            return n
        prev, cur = cur, nxt
    return None


def favard_lambdas(tag: str, count: int) -> List[Fraction]:
    """Exact lambda_n^2 normalizers of the sequence, lambda_0^2 = 1,

        lambda_n^2 = lambda_{n-1}^2 C_{n-1} / A_n,

    the unique positive ratio making the rescaled recurrence symmetric.  The
    ratio is (n+1)(2n+1) / ((n+2)(2n+5)) for qbar and
    n(2n-1) / ((n+1)(2n+3)) for q.
    """
    data = three_term(tag)
    if count < 0:
        raise ValueError("count must be >= 0")
    out = [Fraction(1)]
    for n in range(1, count + 1):
        out.append(out[-1] / data.A(n) * data.C(n - 1))
    return out


# ---------------------------------------------------------------------------
# exact moments, Hankel determinants, Gram matrices
# ---------------------------------------------------------------------------


def _moment_numerators(tag: str, max_order: int) -> Tuple[List[int], int]:
    """(V, L) with m_k = V_k / L**k, L the lcm of the denominators of beta_n^2."""
    data = three_term(tag)
    size = max_order // 2 + 2
    b, den = _integer_row([data.beta_sq(n) for n in range(1, size)] + [0])
    v = [1] + [0] * (size - 1)
    out = [1]
    for _ in range(max_order):
        # L (J v)[i] = L beta_{i+1}^2 v[i+1] + L v[i-1], all in Z
        v = [x * y + den * z for x, y, z in zip(b, v[1:] + [0], [0] + v)]
        out.append(v[0])
    return out, den


def moments(tag: str, max_order: int) -> List[Fraction]:
    """Exact moments m_k = (J^k)_{00}, k = 0..max_order, with m_0 = 1.

    Walks e_0 under the similarity of J (beta^2 above the diagonal, 1 below),
    scaled to integers, on a truncation strictly larger than max_order/2 + 1,
    which the walk cannot leave, so truncation is exact.
    """
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    nums, den = _moment_numerators(tag, max_order)
    return [Fraction(x, den**k) for k, x in enumerate(nums)]


def hankel(tag: str, max_size: int) -> List[Fraction]:
    """Hankel determinants det[m_{i+j}]_{0<=i,j<N} for N = 1..max_size.

    Odd moments vanish, so in even-odd order H_N is block diagonal: det H_N is
    the ceil(N/2)-th leading minor of [m_{2i+2j}] times the floor(N/2)-th of
    [m_{2i+2j+2}], both on the moments times D, the lcm of their denominators.
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    ms = moments(tag, 2 * max_size - 2)
    if any(ms[1::2]):
        raise VerificationError(f"{tag}: a nonzero odd moment, H_N is not block diagonal")
    even, den = _integer_row(ms[0::2])
    half, rest = (max_size + 1) // 2, max_size // 2
    e = [1] + leading_minors([even[i : i + half] for i in range(half)])
    o = [1] + leading_minors([even[i + 1 : i + 1 + rest] for i in range(rest)])
    return [e[(n + 1) // 2] * o[n // 2] / den**n for n in range(1, max_size + 1)]


def gram_matrix(tag: str, max_deg: int) -> List[List[Fraction]]:
    """Exact Gram matrix <p_i, p_j> of the sequence under its own moments.

    With m_k = W_k / L**K, K = 2 max_deg, and p_i = num_i / den_i over the
    lcm of its denominators, u_i[l] = sum_k num_i[k] W_{k+l} applies the
    functional once per member: <p_i, p_j> = sum_l num_j[l] u_i[l] / (den_i
    den_j L**K).
    """
    top = 2 * max_deg
    nums, ell = _moment_numerators(tag, top)
    w = [x * ell ** (top - k) for k, x in enumerate(nums)]
    polys = [_integer_row(_member(tag, n).coeffs) for n in range(max_deg + 1)]
    out = []
    for num_i, den_i in polys:
        u = [sum(map(mul, num_i, w[l:])) for l in range(max_deg + 1)]
        scale = den_i * ell**top
        out.append([Fraction(sum(map(mul, num, u)), den * scale) for num, den in polys])
    return out


def gram_check(tag: str, max_deg: int) -> bool:
    """True iff the Gram matrix is diagonal with positive diagonal, exactly."""
    if max_deg < 1:
        raise ValueError("max_deg must be >= 1")
    return all(
        entry > 0 if i == j else entry == 0
        for i, row in enumerate(gram_matrix(tag, max_deg))
        for j, entry in enumerate(row)
    )


# ---------------------------------------------------------------------------
# nonclassicality: the order <= 2 eigenoperator linear system
# ---------------------------------------------------------------------------

UNKNOWNS = ("a", "b", "c", "e", "f", "g")


class NonclassicalWitness(NamedTuple):
    """Solution space of D p_n = gamma_n p_n over the order <= 2 ansatz

        D = (a x^2 + b x + c) d^2/dx^2 + (e x + f) d/dx + g.

    Matching the leading coefficient of degree-n members forces
    gamma_n = a n(n-1) + e n + g, so the remaining coefficient matches give a
    homogeneous linear system in (a, b, c, e, f, g).  The constants
    (a=b=c=e=f=0, g free) always solve it; the sequence is nonclassical when
    nothing else does, i.e. when the solution space has dimension exactly 1.
    """

    family: str
    max_n: int
    unknowns: Tuple[str, ...]
    equations: Tuple[Tuple[Fraction, ...], ...]
    solution_space_dim: int
    basis: Tuple[Tuple[Fraction, ...], ...]

    @property
    def verified(self) -> bool:
        return self.basis == ((0, 0, 0, 0, 0, 1),)  # the echelon basis of the constants

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "max_n": self.max_n,
            "unknowns": list(self.unknowns),
            "equations": [[str(x) for x in row] for row in self.equations],
            "solution_space_dim": self.solution_space_dim,
            "basis": [[str(x) for x in vec] for vec in self.basis],
            "verified": self.verified,
        }


def nonclassical_check(tag: str, max_n: int) -> NonclassicalWitness:
    """Build and solve the eigenoperator system for n = 0..max_n."""
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    rows: List[Tuple[Fraction, ...]] = []
    for n in range(max_n + 1):
        p = _member(tag, n)
        d1 = p.derivative()
        d2 = d1.derivative()
        # columns a, b, c, e, f, g of (D - gamma_n) p
        columns = (
            d2.scale_shift(1, 2) - p * (n * (n - 1)),  # a
            d2.scale_shift(1, 1),                      # b
            d2,                                        # c
            d1.scale_shift(1, 1) - p * n,              # e
            d1,                                        # f
            RationalPoly.zero(),                       # g cancels identically
        )
        top = max(col.degree for col in columns)
        for power in range(top + 1):
            row = tuple(col.coefficient(power) for col in columns)
            if any(row):
                rows.append(row)
    basis = nullspace(rows, len(UNKNOWNS))
    return NonclassicalWitness(
        family=tag,
        max_n=max_n,
        unknowns=UNKNOWNS,
        equations=tuple(rows),
        solution_space_dim=len(basis),
        basis=tuple(basis),
    )


# ---------------------------------------------------------------------------
# associated Jacobi recurrence
# ---------------------------------------------------------------------------


def assoc_jacobi(
    alpha: Scalar, beta: Scalar, assoc_c: Scalar, count: int
) -> List[RationalPoly]:
    """Associated Jacobi polynomials P_0 .. P_count from the recurrence

        2 (n+c+1)(n+c+g)(2n+2c+g-1) p_{n+1}
            = (2n+2c+g) [ (2n+2c+g-1)(2n+2c+g+1) x + (g-1)(g-2b-1) ] p_n
              - 2 (n+c+g-b-1)(n+c+b)(2n+2c+g+1) p_{n-1},

    with g = alpha + beta + 1, p_{-1} = 0, p_0 = 1.
    """
    alpha = Fraction(alpha)
    beta = Fraction(beta)
    assoc_c = Fraction(assoc_c)
    if count < 0:
        raise ValueError("count must be >= 0")
    g = alpha + beta + 1
    prev = RationalPoly.zero()
    cur = RationalPoly.one()
    out = [cur]
    for n in range(count):
        s = 2 * n + 2 * assoc_c + g
        lead = 2 * (n + assoc_c + 1) * (n + assoc_c + g) * (s - 1)
        if lead == 0:
            raise ZeroDivisionError(f"degenerate recurrence prefactor at step n={n}")
        mid = cur.scale_shift(s * (s - 1) * (s + 1), 1) + cur * (
            s * (g - 1) * (g - 2 * beta - 1)
        )
        back = prev * (2 * (n + assoc_c + g - beta - 1) * (n + assoc_c + beta) * (s + 1))
        nxt = (mid - back) / lead
        prev, cur = cur, nxt
        out.append(cur)
    return out


# ---------------------------------------------------------------------------
# Gauss quadrature (the only floating-point corner, with hyp2f1 below)
# ---------------------------------------------------------------------------

_NODE_RADIUS = 1e-12


def _forward(beta: List[float], theta: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """p_{n-1}(theta), p_n(theta) and sum_{k<n} p_k(theta)^2 for the orthonormal
    p_k, beta = beta_1..beta_n, from one forward walk of the recurrence
    beta_{k+1} p_{k+1} = theta p_k - beta_k p_{k-1}.

    At a zero of p_n the Christoffel-Darboux identity gives
    p_n' = sum_{k<n} p_k^2 / (beta_n p_{n-1}), so the Newton step is
    theta - beta_n p_n p_{n-1} / sum, and the Gauss weight m_0 / sum is the
    Christoffel number (Gautschi, Orthogonal Polynomials, 2004, 3.1).
    """
    prev, cur = np.zeros_like(theta), np.ones_like(theta)
    total = np.zeros_like(theta)
    below = 0.0
    for b in beta:
        total += cur * cur
        prev, cur = cur, (theta * cur - below * prev) / b
        below = b
    return prev, cur, total


def _count_below(beta: List[float], x: np.ndarray) -> np.ndarray:
    """Eigenvalues of J (off-diagonal beta = beta_1..beta_{n-1}) below each x:
    the negative pivots of J - x = L D L^T (Wilkinson, The Algebraic
    Eigenvalue Problem, 1965, ch. 5).  A pivot below the least normal float
    reads as minus it, as in LAPACK's dlaebz, so an exact zero pivot counts
    as negative and nothing is divided by zero.
    """
    tiny = np.finfo(float).tiny
    # the first pivot is -x: a beta_0 of 0 over an infinite pivot
    pivot, count = np.full_like(x, np.inf), np.zeros(len(x), dtype=np.intp)
    for b in [0.0, *beta]:
        pivot = -x - b * b / pivot
        pivot[np.abs(pivot) < tiny] = -tiny
        count += pivot < 0
    return count


def golub_welsch(tag: str, n_nodes: int) -> Tuple[List[float], List[float]]:
    """Gauss nodes/weights from the truncated Jacobi matrix eigendata.

    Nodes are eigenvalues of the n x n symmetric tridiagonal truncation J,
    weights their Christoffel numbers m_0 / sum_{k<n} p_k(theta)^2.  J has a
    zero diagonal, so in even-odd index order it is [[0, B], [B^T, 0]] with B
    the ceil(n/2) x floor(n/2) lower bidiagonal block (Golub-Kahan), and its
    eigenvalues are +-sigma, sigma^2 the eigenvalues of the tridiagonal
    B^T B, plus an exact 0 when n is odd.  Each sigma takes one Newton step
    on the orthonormal p_n.  The ceil(n/2) nonnegative nodes are mirrored:
    nodes come out exactly antisymmetric and mirrored weights exactly equal.
    Sturm counts must put exactly j eigenvalues of J below theta - 1e-12 and
    j + 1 below theta + 1e-12 for node j (from 0, ascending) at theta, which
    certifies each node within 1e-12 of its own eigenvalue, in strict order,
    with none missed; otherwise NoConvergenceError is raised.
    """
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    data = three_term(tag)
    # beta_1..beta_n: beta_n is not in J, it enters only p_n for the Newton step
    beta = [data.beta(k) for k in range(1, n_nodes + 1)]
    cols = n_nodes // 2
    # B^T B is the odd-index block of J^2: diagonal beta_{2j+1}^2 + beta_{2j+2}^2
    # and subdiagonal beta_{2j+2} beta_{2j+3}, with beta_n read as 0
    off = np.append(beta[:-1], 0.0)
    upper, lower = off[0 : 2 * cols : 2], off[1 : 2 * cols : 2]
    gram = np.zeros((cols, cols))
    np.fill_diagonal(gram, upper**2 + lower**2)
    np.fill_diagonal(gram[1:], lower[:-1] * upper[1:])
    sigma = np.sqrt(np.linalg.eigvalsh(gram))  # ascending, as LAPACK returns them
    sigma = np.concatenate([np.zeros(n_nodes - 2 * cols), sigma])
    prev, cur, total = _forward(beta, sigma)
    theta = sigma - beta[-1] * cur * prev / total
    half = 1.0 / _forward(beta, theta)[2]  # m_0 = 1
    # theta[i] is node cols + i of n in ascending order; the spectrum of J is
    # symmetric, so the mirrored nodes need no count of their own
    index = np.arange(cols, n_nodes)
    points = np.concatenate([theta - _NODE_RADIUS, theta + _NODE_RADIUS])
    low, high = _count_below(beta[:-1], points).reshape(2, -1)
    bad = index[(low != index) | (high != index + 1)]
    if len(bad):
        raise NoConvergenceError(
            f"Sturm counts do not put node {bad[0]} of {n_nodes} within "
            f"{_NODE_RADIUS:.1e} of eigenvalue {bad[0]} of J"
        )
    nodes = np.concatenate([-theta[::-1][:cols], theta])
    weights = np.concatenate([half[::-1][:cols], half])
    return [float(x) for x in nodes], [float(w) for w in weights]


def quad_orthogonality(tag: str, n_nodes: int, max_deg: int) -> float:
    """Max |sum_k w_k p_i(x_k) p_j(x_k)| over i != j <= max_deg."""
    if max_deg < 1:
        raise ValueError("max_deg must be >= 1")
    if n_nodes <= max_deg:
        raise ValueError("need n_nodes > max_deg for Gauss exactness")
    nodes, weights = golub_welsch(tag, n_nodes)
    # RationalPoly.evaluate at every node at once: the same correctly rounded
    # coefficients in the same Horner order, so the same floats
    points = np.array(nodes)
    values = [
        np.polyval([float(c) for c in reversed(_member(tag, n).coeffs)], points).tolist()
        for n in range(max_deg + 1)
    ]
    worst = 0.0
    for i in range(max_deg + 1):
        for j in range(i):
            acc = sum(w * values[i][k] * values[j][k] for k, w in enumerate(weights))
            worst = max(worst, abs(acc))
    return worst


# ---------------------------------------------------------------------------
# Gauss hypergeometric series
# ---------------------------------------------------------------------------


_MAX_TERMS = 500_000


def hyp2f1(a, b, c, z, tol: float = 1e-15) -> complex:
    """Gauss hypergeometric series 2F1(a, b; c; z) = sum (a)_n (b)_n / ((c)_n n!) z^n.

    (The n! belongs in the denominator even though some displays omit it.)
    Convergence domain: |z| < 1, or |z| = 1 with Re(c - a - b) > 0; outside it
    NoConvergenceError is raised, as it is when the tolerance is not reached
    within _MAX_TERMS terms or a (c)_n factor hits zero.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    a, b, c, z = complex(a), complex(b), complex(c), complex(z)
    radius = abs(z)
    on_circle = math.isclose(radius, 1.0, rel_tol=0.0, abs_tol=1e-15)
    if radius > 1 and not on_circle:
        raise NoConvergenceError("series diverges for |z| > 1")
    if on_circle:
        margin = (c - a - b).real
        if margin <= 0:
            raise NoConvergenceError("series diverges on |z| = 1 unless Re(c-a-b) > 0")
    total = complex(1.0)
    term = complex(1.0)
    for n in range(_MAX_TERMS):
        denom = (c + n) * (n + 1)
        if denom == 0:
            raise NoConvergenceError(f"(c)_n factor vanishes at n={n + 1}")
        term *= (a + n) * (b + n) / denom * z
        total += term
        if term == 0:
            return total  # terminating (polynomial) case
        if on_circle:
            tail = abs(term) * (n + 2) / margin
        else:
            tail = abs(term) * radius / (1.0 - radius)
        if tail < tol and n >= 1:
            return total
    raise NoConvergenceError(f"tolerance {tol} not reached in {_MAX_TERMS} terms")
