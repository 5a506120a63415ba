"""Constructive machinery around the backward shift on K^(2n).

Contents: the Hankel-type matrices A_{n,z} and M_{n,k} with their exact
determinant recurrence, the two-sided approach-pair solver (prescribe the
head of x and of e^{zS}x simultaneously), its discrete (I+S)^j counterpart
through an upper-triangular similarity, the commuting tensor version, and
the unimodular twisted sequences built on Jordan chains of a general
nilpotent-on-a-vector matrix.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, InputError, NumericError, PreconditionError
from .linalg import as_matrix, as_vector, exp_nilpotent
from .rational import RationalMatrix, _as_fraction, _cleared


def backward_shift(dim: int) -> np.ndarray:
    """S e_1 = 0, S e_k = e_{k-1} (unit superdiagonal)."""
    return np.eye(dim, k=1, dtype=np.complex128)


def backward_shift_exact(dim: int) -> RationalMatrix:
    return RationalMatrix(
        [[1 if j == i + 1 else 0 for j in range(dim)] for i in range(dim)]
    )


@functools.lru_cache(maxsize=256)
def exp_shift_exact(dim: int, z: Fraction = Fraction(1)) -> RationalMatrix:
    """e^{zS} on K^dim, exact: entry (i,j) = z^(j-i)/(j-i)! for j >= i."""
    z = Fraction(z)
    return RationalMatrix(
        [
            [
                z ** (j - i) / math.factorial(j - i) if j >= i else Fraction(0)
                for j in range(dim)
            ]
            for i in range(dim)
        ]
    )


def build_anz_exact(n: int, z) -> RationalMatrix:
    """The n x n matrix with entries z^(j+k-1)/(j+k-1)!, 1-based j,k."""
    z = Fraction(z)
    if n < 1:
        raise InputError("n must be >= 1")
    if z == 0:
        raise DomainError("A_{n,z} is singular at z = 0")
    return RationalMatrix(
        [
            [z ** (j + k - 1) / math.factorial(j + k - 1) for k in range(1, n + 1)]
            for j in range(1, n + 1)
        ]
    )


def scaling_dnz_exact(n: int, z) -> RationalMatrix:
    z = Fraction(z)
    return RationalMatrix(
        [[z**i if i == j else 0 for j in range(n)] for i in range(n)]
    )


def build_mnk_exact(n: int, k: int) -> RationalMatrix:
    """Entries (k+n-l)!/(k+n-l+j-1)! for 1-based row j, column l."""
    if n < 1 or k < 1:
        raise InputError("n and k must be >= 1")
    # over D = (k+2n-2)!, the largest factorial below, every entry is an integer
    fact = [1]
    for i in range(1, k + 2 * n - 1):
        fact.append(fact[-1] * i)
    big = fact[-1]
    return RationalMatrix._from_ints(
        [
            [fact[k + n - ll] * (big // fact[k + n - ll + j - 1]) for ll in range(1, n + 1)]
            for j in range(1, n + 1)
        ],
        big,
    )


def det_mnk_recurrence(n: int, k: int) -> Fraction:
    """det M_{n,k} via the exact reduction to det M_{n-1,k+2}; det M_{1,k} = 1."""
    if n < 1 or k < 1:
        raise InputError("n and k must be >= 1")
    if n == 1:
        return Fraction(1)
    factor = Fraction(
        math.factorial(n - 1) * math.factorial(k) * math.factorial(k + 1),
        math.factorial(k + n - 1) * math.factorial(k + n),
    )
    return factor * det_mnk_recurrence(n - 1, k + 2)


def det_mnk(n: int, k: int):
    """Both routes to det M_{n,k}: (recurrence value, direct exact determinant)."""
    return det_mnk_recurrence(n, k), build_mnk_exact(n, k).det()


@functools.lru_cache(maxsize=64)
def _an1_inverse_exact(n: int) -> RationalMatrix:
    return build_anz_exact(n, 1).inv()


@functools.lru_cache(maxsize=64)
def _an1_inverse(n: int) -> np.ndarray:
    return _an1_inverse_exact(n).to_float()


def _head_part(w, n: int) -> np.ndarray:
    """Accept a length-n head or a length-2n vector supported on the head."""
    w = as_vector(w)
    if w.shape[0] == 2 * n:
        if float(np.linalg.norm(w[n:])) > 0.0:
            raise InputError("vector must be supported on the first n coordinates")
        return w[:n].copy()
    if w.shape[0] != n:
        raise InputError(f"head vector must have length {n} or {2 * n}")
    return w.copy()


def _head_cross_terms(n: int, z, u) -> list:
    """w_j = v_{n-j+1} - sum_{k=n-j+1}^n z^(k+j-n-1) u_k/(k+j-n-1)!; the sum part.

    Generic over the scalars: complex z with a complex array u, or Fraction
    z with rational u (Fractions or ints).
    """
    return [
        sum(
            z ** (k + j - n - 1) * u[k - 1] / math.factorial(k + j - n - 1)
            for k in range(n - j + 1, n + 1)
        )
        for j in range(1, n + 1)
    ]


def jordan_solve(n: int, z, u, v) -> np.ndarray:
    """The unique x in K^(2n) with head(x) = u and head(e^{zS} x) = v.

    The head is the first-n-coordinates projection.  The tail solve is
    preconditioned through the exact scaling identity
    A_{n,z} = z D_{n,z} A_{n,1} D_{n,z}, so only A_{n,1} is ever inverted.
    At large n|z| the second condition holds in floats only to about
    eps * |z|^(n-1)/(n-1)!; demand more only from the exact-rational
    mirror below.
    """
    z = complex(z)
    if z == 0:
        raise DomainError("the approach-pair system is singular at z = 0")
    return _jordan_heads(n, z, _head_part(u, n), _head_part(v, n))


def _jordan_heads(n: int, z: complex, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``jordan_solve`` on complex length-n heads u, v and z != 0, unchecked."""
    w = v[::-1].copy()  # w_j references v_{n-j+1}
    w -= _head_cross_terms(n, z, u)
    dinv = np.array([z ** (-k) for k in range(n)], dtype=np.complex128)
    tail = (dinv * (_an1_inverse(n) @ (dinv * w))) / z
    return np.concatenate([u, tail])


@functools.lru_cache(maxsize=256)
def _approach_map(n: int, z) -> RationalMatrix:
    """The n x 2n matrix A_{n,z}^{-1} [-H | R] with tail = map @ (u + v).

    ``_head_cross_terms(n, z, u)`` is H u for a fixed n x n matrix H, so
    the tail A_{n,z}^{-1} (R v - H u) of the exact solve, with R reversing
    a vector, is linear in (u, v).  Column k of H is the cross terms of e_k.
    z is coerced first, so an int z and its Fraction share one cache entry.
    A_{n,z}^{-1} comes from the one exact inverse of A_{n,1} through the
    scaling identity A_{n,z} = z D A_{n,1} D, D = diag(z^0..z^(n-1)):
    entry (j, k) is that of A_{n,1}^{-1} over z^(j+k+1), 0-based.  With
    z = p/q and m = 2n - 1, that is its integer times q^s p^(m-s),
    s = j + k + 1, over its denominator times p^m.
    """
    z = Fraction(z)
    if z == 0:
        raise DomainError("A_{n,z} is singular at z = 0")
    h_cols = [_head_cross_terms(n, z, [int(i == k) for i in range(n)]) for k in range(n)]
    rhs = [[-col[j] for col in h_cols] + [int(k == n - 1 - j) for k in range(n)] for j in range(n)]
    ints, den = _an1_inverse_exact(n).cleared()
    p, q, m = z.numerator, z.denominator, 2 * n - 1
    scale = [q**s * p ** (m - s) for s in range(m + 1)]
    inv = RationalMatrix._from_ints(
        [[a * scale[j + k + 1] for k, a in enumerate(row)] for j, row in enumerate(ints)],
        den * p**m,
    )
    return inv @ RationalMatrix(rhs)


def _jordan_ints(n: int, z, heads, dh: int) -> tuple[list[int], int]:
    """The exact approach pair on integers: ``(ints, d)`` with x = ints / d.

    ``heads / dh`` is u followed by v, and z is a nonzero rational.  The head
    of x is u over the map's denominator; the tail is the cached
    ``_approach_map(n, z)`` applied to (u, v) as one integer product.
    """
    amap = _approach_map(n, z)
    tail, d = amap._matvec(heads, dh)
    da = amap.cleared()[1]
    return [h * da for h in heads[:n]] + tail, d


def jordan_solve_exact(n: int, z, u, v) -> list[Fraction]:
    """Exact-rational mirror of jordan_solve for rational z, u, v.

    Checks the input and wraps the integer kernel ``_jordan_ints`` in
    Fractions.
    """
    z = _as_fraction(z)
    if z == 0:
        raise DomainError("the approach-pair system is singular at z = 0")
    u = [_as_fraction(x) for x in u]
    v = [_as_fraction(x) for x in v]
    if len(u) != n or len(v) != n:
        raise InputError(f"head vectors must have length {n}")
    ints, d = _jordan_ints(n, z, *_cleared(u + v))
    return [Fraction(a, d) for a in ints]


def jordan_residuals_exact(n: int, z, u, v, x) -> tuple[Fraction, Fraction]:
    """Exact residual norms (squared) of the two head conditions.

    Evaluates head(x) - u and head(e^{zS} x) - v on integers over common
    denominators; useful because the floating evaluation of the second
    condition loses about |z|^(n-1) eps of absolute accuracy to
    cancellation.  x, u and v are cleared once each and the integer
    kernels ``_squared_distance`` and ``_head_residual`` do the rest.
    """
    if len(x) != 2 * n:
        raise InputError(f"x must have length {2 * n}")
    xs, dx = _cleared([_as_fraction(a) for a in x])
    (hu, du), (hv, dv) = (_cleared([_as_fraction(a) for a in h[:n]]) for h in (u, v))
    if len(hu) != n or len(hv) != n:
        raise InputError(f"head vectors must have length at least {n}")
    r1 = _squared_distance(xs, dx, hu, du)
    r2 = _head_residual(n, _as_fraction(z), xs, dx, hv, dv)
    return Fraction(r1[0], r1[1] ** 2), Fraction(r2[0], r2[1] ** 2)


def _squared_distance(ints, den: int, hs, dh: int) -> tuple[int, int]:
    """``(s, d)`` with s / d^2 = sum_i (ints[i]/den - hs[i]/dh)^2 over the
    entries of hs."""
    d = math.lcm(den, dh)
    fa, fb = d // den, d // dh
    return sum((a * fa - b * fb) ** 2 for a, b in zip(ints, hs)), d


def _head_residual(n: int, z, x, dx: int, hs, dh: int) -> tuple[int, int]:
    """``_squared_distance`` of head(e^{zS} x) from ``hs / dh``, for x =
    ``x / dx`` on K^(2n): only the first n rows of the cached e^{zS} are
    multiplied, each from its diagonal on (the matrix is upper
    triangular)."""
    rows, de = exp_shift_exact(2 * n, z).cleared()
    head = [sum(map(operator.mul, rows[i][i:], x[i:])) for i in range(n)]
    return _squared_distance(head, de * dx, hs, dh)


def discrete_pair_errors_exact(n: int, j: int, u, v) -> tuple[float, float]:
    """True error norms of the exact discrete pair x_j, evaluated exactly.

    x_j is the exact-rational mirror of ``discrete_pair``, and (I+S)^j is
    expanded with exact binomial coefficients, so the returned floats carry
    no cancellation noise even at j in the thousands.  Every step runs on
    integers over one denominator d, and each squared error r/d^2 is
    rounded once by integer true division, as ``float(Fraction)`` does.
    """
    if j < 1:
        raise InputError("step index j must be >= 1")
    dim = 2 * n
    u = [_as_fraction(a) for a in u]
    v = [_as_fraction(a) for a in v]
    if len(u) != n or len(v) != n:
        raise InputError(f"head vectors must have length {n}")
    heads, dh = _cleared(u + v)
    # the zero-padded heads meet only the first n columns of J's head rows
    jrows, dj = similarity_j(n).cleared()
    juv = [sum(map(operator.mul, row[:n], heads[h : h + n])) for h in (0, n) for row in jrows[:n]]
    # x_j = J^-1 (the approach pair of (ju, jv) at z = j)
    x, d = _similarity_j_inverse(n)._matvec(*_jordan_ints(n, j, juv, dj * dh))
    # (I+S)^j has C(j, k) on its k-th superdiagonal
    binom = [math.comb(j, k) for k in range(dim)]
    tx = [sum(map(operator.mul, binom, x[i:])) for i in range(dim)]
    f = d // dh
    r1 = sum((a - b * f) ** 2 for a, b in zip(x, heads[:n])) + sum(a * a for a in x[n:])
    r2 = sum((a - b * f) ** 2 for a, b in zip(tx, heads[n:])) + sum(a * a for a in tx[n:])
    return math.sqrt(r1 / (d * d)), math.sqrt(r2 / (d * d))


def _stirling_over_factorials(dim: int, weight) -> RationalMatrix:
    """The dim x dim matrix with entry (i, j) = i! t(j, i) / j!, on integers
    over (dim - 1)!, where t(0, 0) = 1, t(0, b) = 0 for b > 0 and
    t(a, b) = t(a-1, b-1) + weight(a, b) t(a-1, b)."""
    table = [[1] + [0] * (dim - 1)]
    for a in range(1, dim):
        prev = table[-1]
        table.append([(prev[b - 1] if b else 0) + weight(a, b) * prev[b] for b in range(dim)])
    fact = [math.factorial(i) for i in range(dim)]
    big = fact[-1]
    return RationalMatrix._from_ints(
        [[fact[i] * table[j][i] * (big // fact[j]) for j in range(dim)] for i in range(dim)],
        big,
    )


@functools.lru_cache(maxsize=64)
def similarity_j(n: int) -> RationalMatrix:
    """Upper-triangular invertible J on K^(2n) with J S = (e^S - I) J exactly.

    Read e_k as x^k/k!: S is d/dx and e^S - I the forward difference, so
    J sends x^j/j! to the binomial polynomial C(x, j) = sum_i s(j, i) x^i/j!
    and J[i][j] = i! s(j, i)/j!, s the signed Stirling numbers of the first
    kind, s(a, b) = s(a-1, b-1) - (a-1) s(a-1, b) (Graham, Knuth and
    Patashnik, *Concrete Mathematics*, 6.1).  The diagonal is 1.
    """
    return _stirling_over_factorials(2 * n, lambda a, b: 1 - a)


@functools.lru_cache(maxsize=64)
def _similarity_j_inverse(n: int) -> RationalMatrix:
    """The exact inverse of ``similarity_j(n)``: x^j/j! = sum_i S(j, i) i!/j!
    C(x, i), so J^-1[i][j] = i! S(j, i)/j!, S the Stirling numbers of the
    second kind, S(a, b) = S(a-1, b-1) + b S(a-1, b)."""
    return _stirling_over_factorials(2 * n, lambda a, b: b)


@functools.lru_cache(maxsize=64)
def _similarity_j_float(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``similarity_j(n)`` in complex floats and its LAPACK inverse, read-only.

    The inverse is ``np.linalg.inv`` of the float matrix, not the exact
    inverse rounded: the reports' bytes are those of the float inverse.
    """
    jmat = similarity_j(n).to_float()
    jinv = np.linalg.inv(jmat)
    jmat.flags.writeable = False
    jinv.flags.writeable = False
    return jmat, jinv


def discrete_pair(n: int, j: int, u, v) -> np.ndarray:
    """x_j with x_j -> u and (I+S)^j x_j -> v as j grows (heads u, v)."""
    if j < 1:
        raise InputError("step index j must be >= 1")
    return _discrete_heads(n, j, _head_part(u, n), _head_part(v, n))


def _discrete_heads(n: int, j: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``discrete_pair`` on complex length-n heads u, v and j >= 1, unchecked."""
    jmat, jinv = _similarity_j_float(n)
    pad = np.zeros(n, dtype=np.complex128)
    ju = (jmat @ np.concatenate([u, pad]))[:n]
    jv = (jmat @ np.concatenate([v, pad]))[:n]
    return jinv @ _jordan_heads(n, complex(j), ju, jv)


@dataclass(frozen=True)
class TensorShiftTuple:
    """Commuting tuple T_j = I x ... x S_j x ... x I on the tensor product."""

    block_dims: tuple[int, ...]  # n_1..n_k; block j lives on K^(2 n_j)

    @property
    def k(self) -> int:
        return len(self.block_dims)

    @property
    def dim(self) -> int:
        out = 1
        for n in self.block_dims:
            out *= 2 * n
        return out

    def operator(self, j: int) -> np.ndarray:
        mats = [
            backward_shift(2 * n) if idx == j else np.eye(2 * n, dtype=np.complex128)
            for idx, n in enumerate(self.block_dims)
        ]
        out = mats[0]
        for m in mats[1:]:
            out = np.kron(out, m)
        return out

    def operators(self) -> list[np.ndarray]:
        return [self.operator(j) for j in range(self.k)]

    def _head_indices(self):
        import itertools

        ranges = [range(n) for n in self.block_dims]
        return list(itertools.product(*ranges))

    def _flatten(self, multi) -> int:
        idx = 0
        for q, n in zip(multi, self.block_dims):
            idx = idx * (2 * n) + q
        return idx


def tensor_approach(tt: TensorShiftTuple, z_m, escaping, u, v) -> np.ndarray:
    """x_m with x_m -> u and e^{<z_m, T>} x_m -> v at the point z_m of K^k.

    ``escaping`` is the set of coordinates j whose z_m[j] grows without
    bound along the sequence; the caller declares it.  Those blocks get the
    Jordan approach pair, and blocks with bounded coordinate are corrected
    exactly by e^{-z_j S_j}.
    """
    z_m = np.asarray(z_m, dtype=np.complex128).reshape(-1)
    if z_m.shape[0] != tt.k:
        raise InputError(f"z_m must have {tt.k} coordinates")
    if not escaping:
        raise PreconditionError(
            "stalled sequence: no coordinate of z_m grows without bound"
        )
    if any(abs(z_m[j]) == 0 for j in escaping):
        raise PreconditionError("an unbounded coordinate of z_m vanishes at this index")

    u = as_vector(u, tt.dim)
    v = as_vector(v, tt.dim)
    # E = E_1 x ... x E_k is spanned by the head coordinates, so the
    # distance to E is the norm of the entries off them
    head = tuple(slice(n) for n in tt.block_dims)
    for name, w in (("u", u), ("v", v)):
        off = w.reshape([2 * n for n in tt.block_dims]).copy()
        off[head] = 0.0
        if np.linalg.norm(off) > 1e-9 * max(1.0, float(np.linalg.norm(w))):
            raise InputError(f"{name} must lie in the tensor head subspace E")

    # Per block j and head index q, the two elementary approach factors:
    # 'a' factors tensor to (->0, e^.->e_q), 'b' factors to (->e_q, e^.->0).
    a_fac: dict[tuple[int, int], np.ndarray] = {}
    b_fac: dict[tuple[int, int], np.ndarray] = {}
    for j, nj in enumerate(tt.block_dims):
        zj = complex(z_m[j])
        for q in range(nj):
            e_q = np.zeros(nj, dtype=np.complex128)
            e_q[q] = 1.0
            if j in escaping:
                a_fac[j, q] = jordan_solve(nj, zj, np.zeros(nj), e_q)
                b_fac[j, q] = jordan_solve(nj, zj, e_q, np.zeros(nj))
            else:
                full = np.zeros(2 * nj, dtype=np.complex128)
                full[q] = 1.0
                corr = exp_nilpotent(backward_shift(2 * nj), -zj) @ full
                a_fac[j, q] = corr
                b_fac[j, q] = full

    def elementary(multi, table):
        out = None
        for j, q in enumerate(multi):
            f = table[j, q]
            out = f if out is None else np.kron(out, f)
        return out

    x = np.zeros(tt.dim, dtype=np.complex128)
    for multi in tt._head_indices():
        idx = tt._flatten(multi)
        cu, cv = u[idx], v[idx]
        if cu != 0:
            x = x + cu * elementary(multi, b_fac)
        if cv != 0:
            x = x + cv * elementary(multi, a_fac)
    return x


def tensor_approach_residuals(tt: TensorShiftTuple, z_m, escaping, u, v):
    from scipy.linalg import expm

    x = tensor_approach(tt, z_m, escaping, u, v)
    z_m = np.asarray(z_m, dtype=np.complex128).reshape(-1)
    gen = sum(z_m[j] * tt.operator(j) for j in range(tt.k))
    ex = expm(gen)
    u = as_vector(u, tt.dim)
    v = as_vector(v, tt.dim)
    return float(np.linalg.norm(x - u)), float(np.linalg.norm(ex @ x - v))


def unimodular_approach(A, z, x, k: int):
    """Twisted approach pair (u_k, v_k) for x in A^m(X) ∩ ker A^m, |z| = 1.

    Satisfies, as k grows: u_k -> 0, z^k (I+A)^k u_k -> x, v_k -> x,
    z^k (I+A)^k v_k -> 0.  Built on the Jordan chain h_j = A^(2n-j) w where
    A^n w = x and n is the smallest integer killing x.
    """
    a, z, xv = _unimodular_input(A, z, x)
    return _unimodular_pair(*_unimodular_chain(a, xv), z, k)


def _unimodular_input(A, z, x):
    """(a, z, x) as a finite square complex matrix, a complex z with |z| = 1
    and a finite complex vector of a's size."""
    a = as_matrix(A)
    if a.shape[0] != a.shape[1]:
        raise InputError("square matrix required")
    z = complex(z)
    if not abs(abs(z) - 1.0) <= 1e-9:  # NaN fails too
        raise InputError(f"|z| must be 1, got {abs(z)}")
    return a, z, as_vector(x, a.shape[0])


def _unimodular_chain(a: np.ndarray, xv: np.ndarray):
    """The step-independent half of the twisted pair: (n, J).

    n is the smallest integer with A^n x = 0 and J the dim x 2n matrix with
    columns h_1..h_2n.  x = 0 has the zero chain (1, 0), whose pair is zero.
    """
    dim = a.shape[0]
    nx = float(np.linalg.norm(xv))
    if nx == 0.0:
        return 1, np.zeros((dim, 2), dtype=np.complex128)

    # smallest n with A^n x = 0
    n = None
    power = xv.copy()
    for i in range(1, dim + 1):
        power = a @ power
        if float(np.linalg.norm(power)) <= 1e-9 * nx:
            n = i
            break
    if n is None:
        raise DomainError("x does not lie in ker A^m for any m <= dim")

    an = np.linalg.matrix_power(a, n)
    w, *_ = np.linalg.lstsq(an, xv, rcond=None)
    if float(np.linalg.norm(an @ w - xv)) > 1e-8 * nx:
        raise DomainError(f"x does not lie in A^{n}(X): the chain seed solve failed")

    chain = []
    for j in range(1, 2 * n + 1):
        chain.append(np.linalg.matrix_power(a, 2 * n - j) @ w)
    jmat = np.array(chain).T  # columns h_1..h_2n
    if np.linalg.matrix_rank(jmat, tol=1e-9 * max(1.0, nx)) < 2 * n:
        raise NumericError("Jordan chain basis is numerically degenerate")
    return n, jmat


def _unimodular_pair(n: int, jmat: np.ndarray, z: complex, k: int):
    """(u_k, v_k) on the chain (n, J) of ``_unimodular_chain``: J f_k and
    J g_k for the discrete pairs f_k -> (0, z^-k e_n) and g_k -> (e_n, 0)."""
    if k < 1:
        raise InputError("step index k must be >= 1")
    e_n = np.zeros(n, dtype=np.complex128)
    e_n[n - 1] = 1.0
    zero = np.zeros(n, dtype=np.complex128)
    f_k = _discrete_heads(n, k, zero, (z ** (-k)) * e_n)
    g_k = _discrete_heads(n, k, e_n, zero)
    return jmat @ f_k, jmat @ g_k


def unimodular_residuals(A, z, x, steps):
    """The four residuals of the twisted limits at each step k of ``steps``.

    The Jordan chain does not depend on k; it is built once for the sweep.
    (I + A)^k and the pair grow like k^(2n-1); a step where they leave the
    float range gets non-finite residuals (NaN where Python's complex power
    fails), so numpy's overflow warnings carry nothing.
    """
    a, z, xv = _unimodular_input(A, z, x)
    n, jmat = _unimodular_chain(a, xv)
    one_plus_a = np.eye(a.shape[0], dtype=np.complex128) + a
    out = []
    for k in steps:
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                u_k, v_k = _unimodular_pair(n, jmat, z, k)
                t = np.linalg.matrix_power(one_plus_a, k)
                zk = z**k
                out.append((
                    float(np.linalg.norm(u_k)),
                    float(np.linalg.norm(zk * (t @ u_k) - xv)),
                    float(np.linalg.norm(v_k - xv)),
                    float(np.linalg.norm(zk * (t @ v_k))),
                ))
        except (OverflowError, ZeroDivisionError):  # z ** m past the float range
            out.append((math.nan,) * 4)
    return out
