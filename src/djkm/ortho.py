"""Orthogonality machinery for the two even DJKM sequences.

The orthogonal sequences are the degree-graded views of the even families:

    q_n    = P_{-4, 2n}   (original indexing),  q_0 = 1,  deg q_n = n
    qbar_n = P_{-2, 2n+2} (original indexing),  qbar_0 = 1/5,  deg qbar_n = n

Both satisfy x p_n = A_{n+1} p_{n+1} + C_{n-1} p_{n-1} with zero diagonal and
A_n C_{n-1} > 0, so Favard's theorem applies after symmetrization.  Exact work
(moments, Hankel determinants, Gram matrices, the nonclassicality linear
system) stays in Q throughout: the Jacobi matrix is handled through the
squared off-diagonal entries beta_n^2 = A_n C_{n-1} via the similarity that
puts beta_n^2 above the diagonal and 1 below, so no square root is ever taken.
Floating point appears only in the Gauss quadrature realization
(golub_welsch / quad_orthogonality) and in hyp2f1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple, Union

import numpy as np

from .exact import RationalPoly, shift_combination
from .families import FamilyId, get_family

Scalar = Union[int, Fraction]


class NoConvergenceError(ArithmeticError):
    """A numeric iteration failed to meet its stated bound."""


# ---------------------------------------------------------------------------
# three-term recurrence data
# ---------------------------------------------------------------------------

ORTHO_TAGS = ("q", "qbar")


def _member(tag: str, n: int) -> RationalPoly:
    if tag == "q":
        return get_family(FamilyId.P4).q(n)
    if tag == "qbar":
        return get_family(FamilyId.P2).qbar(n)
    raise ValueError(f"unknown orthogonal sequence tag {tag!r}")


@dataclass(frozen=True)
class ThreeTermData:
    """Coefficients of x p_n = A_{n+1} p_{n+1} + C_{n-1} p_{n-1}.

    The diagonal coefficient B_n is identically 0 for both sequences, so the
    Jacobi matrix is fixed by its squared off-diagonal entries beta_n^2.
    A and C are exposed by their own subscript; C_{-1} is 0 by convention
    (its recurrence partner p_{-1} is the zero polynomial).
    """

    family: str

    def A(self, n: int) -> Fraction:
        if n < 1:
            raise ValueError("A_n is defined for n >= 1")
        if self.family == "q":
            return Fraction(2 * n + 3, 4 * n)
        return Fraction(2 * n + 5, 4 * (n + 1))

    def C(self, n: int) -> Fraction:
        if n == -1:
            return Fraction(0)
        if n < -1:
            raise ValueError("C_n is defined for n >= -1")
        if self.family == "q":
            return Fraction(2 * n + 1, 4 * (n + 2))
        return Fraction(2 * n + 3, 4 * (n + 3))

    def beta_sq(self, n: int) -> Fraction:
        """Squared symmetrized off-diagonal entry, beta_n^2 = A_n C_{n-1} > 0."""
        return self.A(n) * self.C(n - 1)


def three_term(tag: str) -> ThreeTermData:
    if tag not in ORTHO_TAGS:
        raise ValueError(f"unknown orthogonal sequence tag {tag!r}")
    return ThreeTermData(tag)


def favard_lambdas(count: int) -> List[Fraction]:
    """Exact lambda_n^2 normalizers for the qbar sequence, lambda_0^2 = 1,

        lambda_n^2 = (n+1)(2n+1) / ((n+2)(2n+5)) * lambda_{n-1}^2,

    the unique positive ratio making the rescaled recurrence symmetric.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    out = [Fraction(1)]
    for n in range(1, count + 1):
        out.append(out[-1] * Fraction((n + 1) * (2 * n + 1), (n + 2) * (2 * n + 5)))
    return out


# ---------------------------------------------------------------------------
# exact moments, Hankel determinants, Gram matrices
# ---------------------------------------------------------------------------


def moments(tag: str, max_order: int) -> List[Fraction]:
    """Exact moments m_k = (J^k)_{00}, k = 0..max_order, with m_0 = 1.

    Works on the rational similarity of J (beta^2 above the diagonal, 1 below)
    on a truncation strictly larger than max_order/2 + 1, which the walk
    cannot leave, so truncation is exact.
    """
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    data = three_term(tag)
    size = max_order // 2 + 2
    betas_sq = [data.beta_sq(n) for n in range(1, size)]
    v = [Fraction(0)] * size
    v[0] = Fraction(1)
    out = [Fraction(1)]
    for _ in range(max_order):
        nxt = [Fraction(0)] * size
        for i in range(size):
            if i + 1 < size and v[i + 1]:
                nxt[i] += betas_sq[i] * v[i + 1]
            if i >= 1 and v[i - 1]:
                nxt[i] += v[i - 1]
        v = nxt
        out.append(v[0])
    return out


def _det_fraction(rows: List[List[Fraction]]) -> Fraction:
    """Exact determinant by Gaussian elimination with partial pivoting."""
    n = len(rows)
    m = [row[:] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
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


def _leading_minors(rows: Sequence[Sequence[Scalar]]) -> List[Fraction]:
    """Exact determinants of the leading N x N blocks of rows, N = 1..len(rows).

    One Gaussian elimination without row exchanges: adding multiples of
    earlier rows to later ones keeps every leading minor, so the N-th minor is
    the product of the first N pivots.  A zero pivot makes its minor exactly 0;
    each larger minor then falls back to _det_fraction on the original rows.
    """
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    m = [row[:] for row in a]
    out: List[Fraction] = []
    det = Fraction(1)
    for col in range(n):
        pivot = m[col][col]
        if not pivot:
            out.append(Fraction(0))
            break
        det *= pivot
        out.append(det)
        inv = 1 / pivot
        pivot_row = m[col]
        for r in range(col + 1, n):
            row = m[r]
            if row[col]:
                factor = row[col] * inv
                for cc in range(col + 1, n):
                    if pivot_row[cc]:
                        row[cc] -= factor * pivot_row[cc]
    for size in range(len(out) + 1, n + 1):
        out.append(_det_fraction([row[:size] for row in a[:size]]))
    return out


def hankel(tag: str, max_size: int) -> List[Fraction]:
    """Hankel determinants det[m_{i+j}]_{0<=i,j<N} for N = 1..max_size."""
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    ms = moments(tag, 2 * max_size - 2)
    return _leading_minors([[ms[i + j] for j in range(max_size)] for i in range(max_size)])


def gram_matrix(tag: str, max_deg: int) -> List[List[Fraction]]:
    """Exact Gram matrix <p_i, p_j> of the sequence under its own moments."""
    polys = [_member(tag, n) for n in range(max_deg + 1)]
    ms = moments(tag, 2 * max_deg)
    out = []
    for p in polys:
        row = []
        for r in polys:
            prod = p * r
            row.append(sum((coef * ms[k] for k, coef in enumerate(prod.coeffs)), Fraction(0)))
        out.append(row)
    return out


def gram_check(tag: str, max_deg: int) -> bool:
    """True iff the Gram matrix is diagonal with positive diagonal, exactly."""
    if max_deg < 1:
        raise ValueError("max_deg must be >= 1")
    gram = gram_matrix(tag, max_deg)
    for i, row in enumerate(gram):
        for j, entry in enumerate(row):
            if i == j:
                if entry <= 0:
                    return False
            elif entry != 0:
                return False
    return True


# ---------------------------------------------------------------------------
# nonclassicality: the order <= 2 eigenoperator linear system
# ---------------------------------------------------------------------------

UNKNOWNS = ("a", "b", "c", "e", "f", "g")


@dataclass(frozen=True)
class NonclassicalWitness:
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
        if self.solution_space_dim != 1:
            return False
        (vec,) = self.basis
        return all(vec[i] == 0 for i in range(5)) and vec[5] != 0

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


def _nullspace(rows: Sequence[Sequence[Fraction]], width: int):
    """Reduced row echelon form nullspace basis over Q."""
    m = [list(r) for r in rows]
    pivots: List[int] = []
    r = 0
    for col in range(width):
        pivot = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][col]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                factor = m[i][col]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * width
        vec[fc] = Fraction(1)
        for row_idx, pc in enumerate(pivots):
            vec[pc] = -m[row_idx][fc]
        basis.append(tuple(vec))
    return basis


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
    basis = _nullspace(rows, len(UNKNOWNS))
    return NonclassicalWitness(
        family=tag,
        max_n=max_n,
        unknowns=UNKNOWNS,
        equations=tuple(rows),
        solution_space_dim=len(basis),
        basis=tuple(basis),
    )


# ---------------------------------------------------------------------------
# associated ultraspherical / Jacobi recurrences
# ---------------------------------------------------------------------------


def assoc_ultraspherical(nu: Scalar, assoc_c: Scalar, count: int) -> List[RationalPoly]:
    """Associated ultraspherical polynomials C_0 .. C_count from

        2x (n + nu + c) C_n = (n + c + 1) C_{n+1} + (2 nu + n + c - 1) C_{n-1},

    with C_{-1} = 0 and C_0 = 1.  At nu = -1/2, c = 3/2 this is exactly the
    three-term recurrence of the q_n = P_{-4,2n} sequence.
    """
    nu = Fraction(nu)
    assoc_c = Fraction(assoc_c)
    if count < 0:
        raise ValueError("count must be >= 0")
    prev = RationalPoly.zero()
    cur = RationalPoly.one()
    out = [cur]
    for n in range(count):
        denom = n + assoc_c + 1
        if denom == 0:
            raise ZeroDivisionError(f"degenerate association parameter at step n={n}")
        nxt = shift_combination(
            cur, 2 * (n + nu + assoc_c) / denom, prev, -(2 * nu + n + assoc_c - 1) / denom
        )
        prev, cur = cur, nxt
        out.append(cur)
    return out


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

_EIGEN_RESIDUAL_BOUND = 1e-12


def golub_welsch(tag: str, n_nodes: int) -> Tuple[List[float], List[float]]:
    """Gauss nodes/weights from the truncated Jacobi matrix eigendata.

    Nodes are eigenvalues of the n x n symmetric tridiagonal truncation J,
    weights are m_0 times the squared first eigenvector components.  J has a
    zero diagonal, so in even-odd index order it is [[0, B], [B^T, 0]] with B
    the ceil(n/2) x floor(n/2) lower bidiagonal block (Golub-Kahan).  From
    B = U diag(sigma) W^T the eigenpairs are +-sigma with [u; +-w] / sqrt(2),
    plus 0 with [u_0; 0] when n is odd: nodes come out exactly antisymmetric
    and mirrored weights exactly equal.  Every eigenpair must satisfy
    ||J v - theta v|| <= 1e-12 or NoConvergenceError is raised.
    """
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    data = three_term(tag)
    off = np.array([math.sqrt(data.beta_sq(k)) for k in range(1, n_nodes)])
    rows, cols = (n_nodes + 1) // 2, n_nodes // 2
    block = np.zeros((rows, cols))
    block[np.arange(cols), np.arange(cols)] = off[0::2]  # J[2i, 2i+1] = beta_{2i+1}
    block[np.arange(1, rows), np.arange(rows - 1)] = off[1::2]  # J[2i, 2i-1] = beta_{2i}
    u, sigma, wt = np.linalg.svd(block)
    # ascending order: -sigma as svd returns it (descending), 0, +sigma reversed
    even = u[:, :cols] / math.sqrt(2.0)
    odd = wt.T / math.sqrt(2.0)
    eigvals = np.concatenate([-sigma, np.zeros(rows - cols), sigma[::-1]])
    eigvecs = np.zeros((n_nodes, n_nodes))
    eigvecs[0::2] = np.hstack([even, u[:, cols:], even[:, ::-1]])
    eigvecs[1::2] = np.hstack([-odd, np.zeros((cols, rows - cols)), odd[:, ::-1]])
    # J v - theta v from the off-diagonal alone, O(n^2) over all eigenvectors
    residual = eigvecs * -eigvals
    residual[:-1] += off[:, None] * eigvecs[1:]
    residual[1:] += off[:, None] * eigvecs[:-1]
    worst = float(np.max(np.linalg.norm(residual, axis=0)))
    if worst > _EIGEN_RESIDUAL_BOUND:
        raise NoConvergenceError(
            f"eigen residual {worst:.3e} exceeds {_EIGEN_RESIDUAL_BOUND:.1e}"
        )
    weights = eigvecs[0, :] ** 2  # m_0 = 1
    return [float(x) for x in eigvals], [float(w) for w in weights]


def quad_orthogonality(tag: str, n_nodes: int, max_deg: int) -> float:
    """Max |sum_k w_k p_i(x_k) p_j(x_k)| over i != j <= max_deg."""
    if n_nodes <= max_deg:
        raise ValueError("need n_nodes > max_deg for Gauss exactness")
    nodes, weights = golub_welsch(tag, n_nodes)
    values = [
        [float(_member(tag, n).evaluate(x)) for x in nodes]
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


def hyp2f1(a, b, c, z, tol: float = 1e-15, max_terms: int = 500_000) -> complex:
    """Gauss hypergeometric series 2F1(a, b; c; z) = sum (a)_n (b)_n / ((c)_n n!) z^n.

    (The n! belongs in the denominator even though some displays omit it.)
    Convergence domain: |z| < 1, or |z| = 1 with Re(c - a - b) > 0; outside it
    NoConvergenceError is raised, as it is when the tolerance is not reached
    within max_terms or a (c)_n factor hits zero.
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
    for n in range(max_terms):
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
    raise NoConvergenceError(f"tolerance {tol} not reached in {max_terms} terms")
