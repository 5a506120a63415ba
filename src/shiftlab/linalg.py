"""Dense small-matrix routines and tolerant subspace arithmetic.

The floating flavor keeps every subspace basis orthonormal (rows of
``Subspace.basis``); rank decisions use a relative singular-value threshold
``tol * sigma_max``.  Matrices are plain complex numpy arrays; the exact
flavor lives in :mod:`shiftlab.rational`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InputError, NumericError

EIG_DIM_LIMIT = 64  # larger eigenproblems are rejected, not silently degraded


def as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise InputError(f"expected a 2-d array, got ndim={m.ndim}")
    if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise InputError("matrix has non-finite entries")
    return m


def as_vector(v, dim=None) -> np.ndarray:
    x = np.asarray(v, dtype=np.complex128).reshape(-1)
    if not (np.all(np.isfinite(x.real)) and np.all(np.isfinite(x.imag))):
        raise InputError("vector has non-finite entries")
    if dim is not None and x.shape[0] != dim:
        raise InputError(f"vector length {x.shape[0]} != expected {dim}")
    return x


@dataclass(frozen=True, eq=False)
class Subspace:
    """Span given by orthonormal basis rows, with the tolerance that built it."""

    ambient: int
    basis: np.ndarray = field(repr=False)  # shape (dim, ambient), orthonormal rows
    tol: float = 1e-9

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @classmethod
    def zero(cls, ambient: int, tol: float = 1e-9) -> "Subspace":
        return cls(ambient, np.zeros((0, ambient), dtype=np.complex128), tol)

    @classmethod
    def full(cls, ambient: int, tol: float = 1e-9) -> "Subspace":
        return cls(ambient, np.eye(ambient, dtype=np.complex128), tol)

    @classmethod
    def from_vectors(cls, vectors, ambient=None, tol: float = 1e-9) -> "Subspace":
        vecs = [as_vector(v) for v in vectors]
        if ambient is None:
            if not vecs:
                raise InputError("cannot infer ambient dimension from no vectors")
            ambient = vecs[0].shape[0]
        basis = orthonormal_rows(vecs, ambient, tol)
        return cls(ambient, basis, tol)

    def project(self, v) -> np.ndarray:
        x = as_vector(v, self.ambient)
        if self.dim == 0:
            return np.zeros_like(x)
        # rows b_i orthonormal: P x = sum_i <x, b_i> b_i
        return self.basis.T @ (self.basis.conj() @ x)

    def distance(self, v) -> float:
        x = as_vector(v, self.ambient)
        return float(np.linalg.norm(x - self.project(x)))

    def contains(self, v, tol=None) -> bool:
        x = as_vector(v, self.ambient)
        t = self.tol if tol is None else tol
        return self.distance(x) <= t * max(1.0, float(np.linalg.norm(x)))

    def contains_subspace(self, other: "Subspace", tol=None) -> bool:
        return all(self.contains(row, tol) for row in other.basis)

    def same_space(self, other: "Subspace", tol=None) -> bool:
        return (
            self.ambient == other.ambient
            and self.dim == other.dim
            and self.contains_subspace(other, tol)
            and other.contains_subspace(self, tol)
        )


def orthonormal_rows(vectors, ambient: int, tol: float = 1e-9) -> np.ndarray:
    """Modified Gram-Schmidt with one re-orthogonalization pass.

    Vectors whose residual after projection falls below ``tol * scale`` are
    dropped; ``scale`` is the largest input vector norm.
    """
    rows = []
    vecs = [as_vector(v, ambient) for v in vectors]
    norms = [float(np.linalg.norm(v)) for v in vecs]
    scale = max(norms, default=0.0)
    if scale == 0.0:
        return np.zeros((0, ambient), dtype=np.complex128)
    for v in vecs:
        w = v.copy()
        for _ in range(2):  # re-orthogonalize once for stability
            for b in rows:
                w = w - b * (b.conj() @ w)
        nw = float(np.linalg.norm(w))
        if nw > tol * scale:
            rows.append(w / nw)
    if not rows:
        return np.zeros((0, ambient), dtype=np.complex128)
    return np.array(rows)


def kernel_and_image(A, tol: float = 1e-9):
    """Null space and column space of A via SVD; rank-nullity holds within tol."""
    m = as_matrix(A)
    if tol < 0:
        raise InputError("tol must be nonnegative")
    u, s, vh = np.linalg.svd(m)
    cutoff = tol * (s[0] if s.size and s[0] > 0 else 1.0)
    rank = int(np.sum(s > cutoff))
    kernel = Subspace(m.shape[1], vh[rank:].conj(), tol)
    image = Subspace(m.shape[0], u[:, :rank].T, tol)
    return kernel, image


def intersect(U: Subspace, V: Subspace, tol: float = 1e-9) -> Subspace:
    """Basis of U ∩ V via the kernel of stacked complement projectors."""
    if U.ambient != V.ambient:
        raise InputError(f"ambient mismatch: {U.ambient} != {V.ambient}")
    n = U.ambient
    if U.dim == 0 or V.dim == 0:
        return Subspace.zero(n, tol)
    eye = np.eye(n, dtype=np.complex128)
    pu = U.basis.T @ U.basis.conj()
    pv = V.basis.T @ V.basis.conj()
    stacked = np.vstack([eye - pu, eye - pv])
    kernel, _ = kernel_and_image(stacked, tol)
    return Subspace(n, kernel.basis, tol)


def span_union(spaces, ambient=None, tol: float = 1e-9) -> Subspace:
    """Span of the union of the given subspaces."""
    spaces = list(spaces)
    if ambient is None:
        if not spaces:
            raise InputError("no subspaces given and no ambient dimension")
        ambient = spaces[0].ambient
    rows = [row for sp in spaces for row in sp.basis]
    return Subspace.from_vectors(rows, ambient, tol) if rows else Subspace.zero(ambient, tol)


def exp_nilpotent(A, z) -> np.ndarray:
    """Finite exponential sum sum_{j<d} z^j A^j / j! for nilpotent A.

    Raises DomainError when ``A**d`` is not numerically zero: its norm
    exceeds 1e-9 max(1, ||A||^d).
    """
    m = as_matrix(A)
    if m.shape[0] != m.shape[1]:
        raise InputError("exp_nilpotent needs a square matrix")
    d = m.shape[0]
    z = complex(z)
    out = np.eye(d, dtype=np.complex128)
    power = np.eye(d, dtype=np.complex128)
    fact = 1.0
    for j in range(1, d):
        power = power @ m
        fact *= j
        out = out + (z**j / fact) * power
    residual = float(np.linalg.norm(power @ m))
    norm_a = float(np.linalg.norm(m))
    scale = max(1.0, norm_a**d) if norm_a > 0 else 1.0
    if residual > 1e-9 * scale:
        raise DomainError(
            f"matrix is not nilpotent: ||A^{d}|| = {residual:.3e} exceeds tolerance"
        )
    return out


def eigenvalues(A) -> np.ndarray:
    """Eigenvalues with multiplicity for dim <= 64."""
    m = as_matrix(A)
    if m.shape[0] != m.shape[1]:
        raise InputError("eigenvalues of a non-square matrix")
    if m.shape[0] > EIG_DIM_LIMIT:
        raise InputError(
            f"eigenvalue computation limited to dim <= {EIG_DIM_LIMIT}, got {m.shape[0]}"
        )
    try:
        vals = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails here
        raise NumericError(f"eigenvalue iteration failed: {exc}") from exc
    return vals


def cluster_points(points, radius: float):
    """Greedy connected-component clustering of complex points.

    Returns a list of (representative mean, member index list).
    """
    pts = np.asarray(points, dtype=np.complex128)
    n = pts.shape[0]
    unused = set(range(n))
    clusters = []
    while unused:
        seed = unused.pop()
        members = [seed]
        frontier = [seed]
        while frontier:
            i = frontier.pop()
            nearby = [j for j in unused if abs(pts[j] - pts[i]) <= radius]
            for j in nearby:
                unused.remove(j)
                members.append(j)
                frontier.append(j)
        clusters.append((complex(np.mean(pts[members])), sorted(members)))
    return clusters


def defective_cluster_radius(A) -> float:
    """Clustering radius for computed eigenvalues.

    Backward-stable eigensolvers scatter a defective eigenvalue of index k
    over a disk of radius about (eps * ||A||)^(1/k); using k = dim covers the
    worst case.  The floor of 1e-7 keeps well-separated semisimple spectra
    intact.
    """
    m = as_matrix(A)
    d = m.shape[0]
    scale = max(1.0, float(np.linalg.norm(m)))
    backward = np.finfo(float).eps * scale * d
    return max(1e-7, 2.5 * backward ** (1.0 / d))
