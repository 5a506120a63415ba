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
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, InputError, NumericError, PreconditionError
from .linalg import Subspace, as_matrix, as_vector, exp_nilpotent
from .rational import RationalMatrix


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


@dataclass(frozen=True)
class ShiftSpace:
    """Ambient K^(2n) with the backward shift and the head projection."""

    n: int

    @property
    def dim(self) -> int:
        return 2 * self.n

    @property
    def S(self) -> np.ndarray:
        return backward_shift(self.dim)

    @property
    def P(self) -> np.ndarray:
        p = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for i in range(self.n):
            p[i, i] = 1.0
        return p

    @property
    def E(self) -> Subspace:
        basis = np.zeros((self.n, self.dim), dtype=np.complex128)
        for i in range(self.n):
            basis[i, i] = 1.0
        return Subspace(self.dim, basis)

    def embed_head(self, u) -> np.ndarray:
        """Pad a length-n head vector with zeros to full length 2n."""
        u = as_vector(u)
        if u.shape[0] == self.dim:
            return u
        if u.shape[0] != self.n:
            raise InputError(f"head vector must have length {self.n} or {self.dim}")
        return np.concatenate([u, np.zeros(self.n, dtype=np.complex128)])


def _anz_rows(n: int, z) -> list[list]:
    """Rows of A_{n,z}, generic over the scalar type of z."""
    if n < 1:
        raise InputError("n must be >= 1")
    if z == 0:
        raise DomainError("A_{n,z} is singular at z = 0")
    return [
        [z ** (j + k - 1) / math.factorial(j + k - 1) for k in range(1, n + 1)]
        for j in range(1, n + 1)
    ]


def build_anz(n: int, z) -> np.ndarray:
    """The n x n matrix with entries z^(j+k-1)/(j+k-1)!, 1-based j,k."""
    return np.array(_anz_rows(n, complex(z)), dtype=np.complex128)


def build_anz_exact(n: int, z) -> RationalMatrix:
    return RationalMatrix(_anz_rows(n, Fraction(z)))


def scaling_dnz(n: int, z) -> np.ndarray:
    return np.diag([complex(z) ** k for k in range(n)]).astype(np.complex128)


def scaling_dnz_exact(n: int, z) -> RationalMatrix:
    z = Fraction(z)
    return RationalMatrix(
        [[z**i if i == j else 0 for j in range(n)] for i in range(n)]
    )


def build_mnk_exact(n: int, k: int) -> RationalMatrix:
    """Entries (k+n-l)!/(k+n-l+j-1)! for 1-based row j, column l."""
    if n < 1 or k < 1:
        raise InputError("n and k must be >= 1")
    return RationalMatrix(
        [
            [
                Fraction(
                    math.factorial(k + n - ll), math.factorial(k + n - ll + j - 1)
                )
                for ll in range(1, n + 1)
            ]
            for j in range(1, n + 1)
        ]
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
def _an1_inverse(n: int) -> np.ndarray:
    return build_anz_exact(n, 1).inv().to_float()


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
    z with Fraction u.
    """
    return [
        sum(
            z ** (k + j - n - 1) * u[k - 1] / math.factorial(k + j - n - 1)
            for k in range(n - j + 1, n + 1)
        )
        for j in range(1, n + 1)
    ]


def jordan_solve(
    n: int, z, u, v, check_tol: float | None = None
) -> np.ndarray:
    """The unique x in K^(2n) with head(x) = u and head(e^{zS} x) = v.

    The head is the first-n-coordinates projection.  The tail solve is
    preconditioned through the exact scaling identity
    A_{n,z} = z D_{n,z} A_{n,1} D_{n,z}, so only A_{n,1} is ever inverted.
    Pass ``check_tol`` to get a NumericError (with the residual) when the
    floating path cannot meet it; at large n|z| the residual of the second
    condition is intrinsically limited to about eps * |z|^(n-1)/(n-1)!, so
    demand more only from the exact-rational mirror below.
    """
    z = complex(z)
    if z == 0:
        raise DomainError("the approach-pair system is singular at z = 0")
    u = _head_part(u, n)
    v = _head_part(v, n)

    w = v[::-1].copy()  # w_j references v_{n-j+1}
    w -= _head_cross_terms(n, z, u)
    dinv = np.array([z ** (-k) for k in range(n)], dtype=np.complex128)
    tail = (dinv * (_an1_inverse(n) @ (dinv * w))) / z
    x = np.concatenate([u, tail])

    if check_tol is not None:
        scale = max(1.0, float(np.linalg.norm(u)), float(np.linalg.norm(v)))
        r1, r2 = jordan_residuals(n, z, u, v, x)
        if max(r1, r2) > check_tol * scale:
            raise NumericError(
                f"approach-pair solve at n={n}, |z|={abs(z):.3e} missed tolerance: "
                f"residuals ({r1:.3e}, {r2:.3e})",
                residual=max(r1, r2),
            )
    return x


def jordan_residuals(n: int, z, u, v, x) -> tuple[float, float]:
    """Residual norms ||head(x) - u|| and ||head(e^{zS}x) - v||."""
    sp = ShiftSpace(n)
    x = as_vector(x, 2 * n)
    u = as_vector(u)[:n]
    v = as_vector(v)[:n]
    ez = exp_nilpotent(sp.S, z)
    r1 = float(np.linalg.norm(x[:n] - u))
    r2 = float(np.linalg.norm((ez @ x)[:n] - v))
    return r1, r2


@functools.lru_cache(maxsize=256)
def _anz_inverse_exact(n: int, z: Fraction) -> RationalMatrix:
    return build_anz_exact(n, z).inv()


def jordan_solve_exact(n: int, z, u, v) -> list[Fraction]:
    """Exact-rational mirror of jordan_solve for rational z, u, v."""
    z = Fraction(z)
    if z == 0:
        raise DomainError("the approach-pair system is singular at z = 0")
    u = [Fraction(x) for x in u]
    v = [Fraction(x) for x in v]
    if len(u) != n or len(v) != n:
        raise InputError(f"head vectors must have length {n}")
    w = [a - b for a, b in zip(reversed(v), _head_cross_terms(n, z, u))]
    tail = _anz_inverse_exact(n, z) @ w
    return u + tail


def jordan_residuals_exact(n: int, z, u, v, x) -> tuple[Fraction, Fraction]:
    """Exact residual norms (squared) of the two head conditions.

    Evaluates head(x) - u and head(e^{zS} x) - v in rational arithmetic;
    useful because the floating evaluation of the second condition loses
    about |z|^(n-1) eps of absolute accuracy to cancellation.
    """
    z = Fraction(z)
    u = [Fraction(a) for a in u]
    v = [Fraction(a) for a in v]
    x = [Fraction(a) for a in x]
    ez = exp_shift_exact(2 * n, z)
    ex = ez @ x
    r1 = sum((x[i] - u[i]) ** 2 for i in range(n))
    r2 = sum((ex[i] - v[i]) ** 2 for i in range(n))
    return r1, r2


def discrete_pair_errors_exact(n: int, j: int, u, v) -> tuple[float, float]:
    """True error norms of the exact discrete pair x_j, evaluated exactly.

    x_j is the exact-rational mirror of ``discrete_pair``, and (I+S)^j is
    expanded with exact binomial coefficients, so the returned floats carry
    no cancellation noise even at j in the thousands.
    """
    if j < 1:
        raise InputError("step index j must be >= 1")
    dim = 2 * n
    u = [Fraction(a) for a in u]
    v = [Fraction(a) for a in v]
    jmat = similarity_j(n)
    ju = (jmat @ (u + [Fraction(0)] * n))[:n]
    jv = (jmat @ (v + [Fraction(0)] * n))[:n]
    x = jmat.inv() @ jordan_solve_exact(n, j, ju, jv)
    ipows = (backward_shift_exact(dim) + RationalMatrix.identity(dim)).pow(j)
    tx = ipows @ x
    r1 = sum((x[i] - (u[i] if i < n else 0)) ** 2 for i in range(dim))
    r2 = sum((tx[i] - (v[i] if i < n else 0)) ** 2 for i in range(dim))
    return math.sqrt(float(r1)), math.sqrt(float(r2))


@functools.lru_cache(maxsize=64)
def similarity_j(n: int) -> RationalMatrix:
    """Upper-triangular invertible J on K^(2n) with J S = (e^S - I) J exactly.

    Built column by column: J e_1 = e_1, then J e_j = N.solve(J e_{j-1})
    with N = e^S - I.  N is strictly upper triangular with a unit
    superdiagonal, so column 0 is its only free variable; ``solve`` sets
    it to 0, so J e_j has first coordinate 0 for j > 1 and the diagonal
    stays identically 1.
    """
    dim = 2 * n
    nmat = exp_shift_exact(dim) - RationalMatrix.identity(dim)
    cols = [[Fraction(1)] + [Fraction(0)] * (dim - 1)]
    for _ in range(1, dim):
        cols.append(nmat.solve(cols[-1]))
    return RationalMatrix(list(zip(*cols)))


def discrete_pair(n: int, j: int, u, v, check_tol: float | None = None) -> np.ndarray:
    """x_j with x_j -> u and (I+S)^j x_j -> v as j grows (heads u, v)."""
    if j < 1:
        raise InputError("step index j must be >= 1")
    sp = ShiftSpace(n)
    jmat = similarity_j(n).to_float()
    jinv = np.linalg.inv(jmat)
    uu = sp.embed_head(as_vector(u)) if len(as_vector(u)) == n else as_vector(u, sp.dim)
    vv = sp.embed_head(as_vector(v)) if len(as_vector(v)) == n else as_vector(v, sp.dim)
    ju = (jmat @ uu)[: n]
    jv = (jmat @ vv)[: n]
    x = jordan_solve(n, j, ju, jv, check_tol=check_tol)
    return jinv @ x


def discrete_pair_residuals(n: int, j: int, u, v, x=None) -> tuple[float, float]:
    """(||x_j - u||, ||(I+S)^j x_j - v||), computing x_j if not supplied."""
    sp = ShiftSpace(n)
    if x is None:
        x = discrete_pair(n, j, u, v)
    uu = sp.embed_head(as_vector(u)) if len(as_vector(u)) == n else as_vector(u, sp.dim)
    vv = sp.embed_head(as_vector(v)) if len(as_vector(v)) == n else as_vector(v, sp.dim)
    ispow = np.linalg.matrix_power(np.eye(sp.dim) + sp.S, j)
    r1 = float(np.linalg.norm(x - uu))
    r2 = float(np.linalg.norm(ispow @ x - vv))
    return r1, r2


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

    def head_subspace(self) -> Subspace:
        """E = E_1 x ... x E_k as a subspace of the full tensor space."""
        basis = []
        for multi in self._head_indices():
            v = np.zeros(self.dim, dtype=np.complex128)
            v[self._flatten(multi)] = 1.0
            basis.append(v)
        return Subspace.from_vectors(basis, self.dim)

    def _head_indices(self):
        import itertools

        ranges = [range(n) for n in self.block_dims]
        return list(itertools.product(*ranges))

    def _flatten(self, multi) -> int:
        idx = 0
        for q, n in zip(multi, self.block_dims):
            idx = idx * (2 * n) + q
        return idx


def _classify_unbounded(zs, m: int, k: int, threshold: float = 10.0) -> set[int]:
    """Coordinates judged to grow without bound, by comparing |z_m| against
    the sequence start with the stated threshold ratio."""
    z_now = np.asarray(zs(m), dtype=np.complex128)
    z_ref = np.asarray(zs(0), dtype=np.complex128)
    out = set()
    for j in range(k):
        ref = abs(z_ref[j])
        cur = abs(z_now[j])
        if ref < 1e-12:
            if cur > 1e-12:
                out.add(j)
        elif cur >= threshold * ref:
            out.add(j)
    return out


def tensor_approach(
    tt: TensorShiftTuple,
    zs,
    u,
    v,
    m: int,
    unbounded: set[int] | None = None,
) -> np.ndarray:
    """x_m with x_m -> u and e^{<z_m, T>} x_m -> v along the sequence zs.

    ``zs`` is a callable m -> point of K^k (a list/array also works).  The
    blockwise construction needs to know which coordinates of z_m escape to
    infinity; pass ``unbounded`` explicitly or rely on the 10x growth
    heuristic against the start of the sequence.  Blocks with bounded
    coordinate are corrected exactly by e^{-z_j S_j}.
    """
    if not callable(zs):
        seq = list(zs)
        zs = lambda i: seq[i]  # noqa: E731
    z_m = np.asarray(zs(m), dtype=np.complex128).reshape(-1)
    if z_m.shape[0] != tt.k:
        raise InputError(f"z_m must have {tt.k} coordinates")
    if unbounded is None:
        unbounded = _classify_unbounded(zs, m, tt.k)
    if not unbounded:
        raise PreconditionError(
            "stalled sequence: no coordinate of z_m grows without bound"
        )
    if any(abs(z_m[j]) == 0 for j in unbounded):
        raise PreconditionError("an unbounded coordinate of z_m vanishes at this index")

    u = as_vector(u, tt.dim)
    v = as_vector(v, tt.dim)
    head = tt.head_subspace()
    for name, w in (("u", u), ("v", v)):
        if not head.contains(w, 1e-9):
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
            if j in unbounded:
                a_fac[j, q] = jordan_solve(nj, zj, np.zeros(nj), e_q, check_tol=None)
                b_fac[j, q] = jordan_solve(nj, zj, e_q, np.zeros(nj), check_tol=None)
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


def tensor_approach_residuals(tt: TensorShiftTuple, zs, u, v, m: int, x=None, **kw):
    from scipy.linalg import expm

    if not callable(zs):
        seq = list(zs)
        zs = lambda i: seq[i]  # noqa: E731
    if x is None:
        x = tensor_approach(tt, zs, u, v, m, **kw)
    z_m = np.asarray(zs(m), dtype=np.complex128).reshape(-1)
    gen = sum(z_m[j] * tt.operator(j) for j in range(tt.k))
    ex = expm(gen)
    u = as_vector(u, tt.dim)
    v = as_vector(v, tt.dim)
    return float(np.linalg.norm(x - u)), float(np.linalg.norm(ex @ x - v))


def unimodular_approach(A, z, x, k: int, tol: float = 1e-9):
    """Twisted approach pair (u_k, v_k) for x in A^m(X) ∩ ker A^m, |z| = 1.

    Satisfies, as k grows: u_k -> 0, z^k (I+A)^k u_k -> x, v_k -> x,
    z^k (I+A)^k v_k -> 0.  Built on the Jordan chain h_j = A^(2n-j) w where
    A^n w = x and n is the smallest integer killing x.
    """
    a = as_matrix(A)
    dim = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise InputError("square matrix required")
    z = complex(z)
    if abs(abs(z) - 1.0) > 1e-9:
        raise InputError(f"|z| must be 1, got {abs(z)}")
    xv = as_vector(x, dim)
    nx = float(np.linalg.norm(xv))
    if nx == 0.0:
        return np.zeros(dim, dtype=np.complex128), np.zeros(dim, dtype=np.complex128)

    # smallest n with A^n x = 0
    n = None
    power = xv.copy()
    for i in range(1, dim + 1):
        power = a @ power
        if float(np.linalg.norm(power)) <= tol * nx:
            n = i
            break
    if n is None:
        raise DomainError("x does not lie in ker A^m for any m <= dim")

    an = np.linalg.matrix_power(a, n)
    w, *_ = np.linalg.lstsq(an, xv, rcond=None)
    if float(np.linalg.norm(an @ w - xv)) > max(tol, 1e-8) * nx:
        raise DomainError(f"x does not lie in A^{n}(X): the chain seed solve failed")

    chain = []
    for j in range(1, 2 * n + 1):
        chain.append(np.linalg.matrix_power(a, 2 * n - j) @ w)
    jmat = np.array(chain).T  # columns h_1..h_2n
    if np.linalg.matrix_rank(jmat, tol=max(tol, 1e-12) * max(1.0, nx)) < 2 * n:
        raise NumericError("Jordan chain basis is numerically degenerate")

    e_n = np.zeros(n, dtype=np.complex128)
    e_n[n - 1] = 1.0
    f_k = discrete_pair(n, k, np.zeros(n), (z ** (-k)) * e_n)
    g_k = discrete_pair(n, k, e_n, np.zeros(n))
    return jmat @ f_k, jmat @ g_k


def unimodular_residuals(A, z, x, k: int, pair=None, tol: float = 1e-9):
    """The four residuals of the twisted limits at step k."""
    a = as_matrix(A)
    z = complex(z)
    xv = as_vector(x, a.shape[0])
    if pair is None:
        pair = unimodular_approach(A, z, x, k, tol)
    u_k, v_k = pair
    t = np.linalg.matrix_power(np.eye(a.shape[0], dtype=np.complex128) + a, k)
    zk = z**k
    return (
        float(np.linalg.norm(u_k)),
        float(np.linalg.norm(zk * (t @ u_k) - xv)),
        float(np.linalg.norm(v_k - xv)),
        float(np.linalg.norm(zk * (t @ v_k))),
    )
