"""Orbit generation and the empirical density / mixing / supercyclicity probes.

Every asymptotic claim is reported as a trace (plus fitted decay data where
useful), never as a boolean: finite truncations cannot certify limits.
All randomized probes are bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .criteria import commutator_residual, unimodular_chain_spaces
from .errors import DomainError, InputError, PreconditionError
from .linalg import Subspace, as_matrix, as_vector, kernel_and_image
from .nilpotent import unimodular_approach
from .operators import (
    TruncatedOperator,
    grid_inner,
    h_eval,
    trapezoid_weights,
    volterra,
)

OVERFLOW_LIMIT = 1e250


def _matrix_of(T) -> np.ndarray:
    return as_matrix(T.matrix if isinstance(T, TruncatedOperator) else T)


@dataclass(frozen=True, eq=False)
class OrbitTrace:
    base: np.ndarray = field(repr=False)
    iterates: tuple = field(repr=False)
    scalings: tuple = ()
    norms: tuple = ()
    truncated: bool = False

    def __len__(self):
        return len(self.iterates)


def orbit(T, x, steps: int, scalings=None) -> OrbitTrace:
    """[x, Tx, ..., T^steps x], each multiplied by its scaling.

    The trace is truncated with a flag when an iterate norm overflows.
    """
    t = _matrix_of(T)
    x = as_vector(x, t.shape[0])
    if scalings is not None:
        scalings = [complex(s) for s in scalings]
        if len(scalings) < steps + 1:
            raise InputError("need one scaling per orbit entry")
        if any(s == 0 for s in scalings):
            raise InputError("scalings must be nonzero")
    iterates = []
    norms = []
    cur = x.copy()
    truncated = False
    # the norm of the step that overflows is inf or nan and ends the trace
    # with the truncation flag, so numpy's warnings carry nothing
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps + 1):
            scaled = cur * scalings[k] if scalings is not None else cur
            nrm = float(np.linalg.norm(scaled))
            if not math.isfinite(nrm) or nrm > OVERFLOW_LIMIT:
                truncated = True
                break
            iterates.append(scaled)
            norms.append(nrm)
            if k < steps:
                cur = t @ cur
    return OrbitTrace(
        x,
        tuple(iterates),
        tuple(scalings[: len(iterates)]) if scalings is not None else (),
        tuple(norms),
        truncated,
    )


def exp_group(As, z, tol: float = 1e-8) -> np.ndarray:
    """e^{z_1 A_1 + ... + z_k A_k} for a pairwise commuting tuple."""
    mats = [_matrix_of(a) for a in As]
    z = np.asarray(z, dtype=np.complex128).reshape(-1)
    if len(mats) != z.shape[0]:
        raise InputError("one parameter coordinate per generator required")
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            r = commutator_residual(mats[i], mats[j])
            if r > tol:
                raise PreconditionError(
                    f"generators {i} and {j} do not commute (residual {r:.3e}); "
                    "the group law fails for non-commuting tuples"
                )
    gen = sum(zj * m for zj, m in zip(z, mats))
    return expm(gen)


def group_law_residual(As, z, w) -> float:
    """|| e^{<z+w,A>} - e^{<z,A>} e^{<w,A>} || (no commutation check)."""
    mats = [_matrix_of(a) for a in As]
    z = np.asarray(z, dtype=np.complex128).reshape(-1)
    w = np.asarray(w, dtype=np.complex128).reshape(-1)
    ezw = expm(sum((zi + wi) * m for zi, wi, m in zip(z, w, mats)))
    ez = expm(sum(zi * m for zi, m in zip(z, mats)))
    ew = expm(sum(wi * m for wi, m in zip(w, mats)))
    return float(np.linalg.norm(ezw - ez @ ew))


# ---------------------------------------------------------------------------
# epsilon-net coverage diagnostics


@dataclass(frozen=True)
class NetSpec:
    """Square epsilon-net on a 2-d coordinate projection.

    ``x_coord`` indexes the input-side projection, ``y_coord`` the
    output-side one; the net covers [-box, box]^2 with cells^2 cells.
    """

    cells: int = 8
    box: float = 4.0
    x_coord: int = 0
    y_coord: int = 0

    def __post_init__(self):
        if self.cells < 2 or self.box <= 0:
            raise InputError("net needs at least 2 cells per axis and a positive box")

    def cell_of(self, u: float, v: float) -> int | None:
        side = 2.0 * self.box / self.cells
        iu = int((u + self.box) // side)
        iv = int((v + self.box) // side)
        if 0 <= iu < self.cells and 0 <= iv < self.cells:
            return iu * self.cells + iv
        return None


@dataclass(frozen=True)
class CoverageReport:
    fraction: float
    hit_cells: int
    total_cells: int
    horizon: int
    seed: int
    params: tuple = ()

    def to_dict(self) -> dict:
        return {
            "fraction": self.fraction,
            "hit_cells": self.hit_cells,
            "total_cells": self.total_cells,
            "horizon": self.horizon,
            "seed": self.seed,
            "params": list(self.params),
        }


def default_scale_grid(count: int = 12, base: float = 2.0):
    """Symmetric log grid of scalars, both signs."""
    mags = [base ** (k - count // 2) for k in range(count)]
    return [m for mag in mags for m in (mag, -mag)]


def u3_density(
    T,
    net: NetSpec,
    horizon: int,
    seed: int = 0,
    scale_grid=None,
    base_count: int = 40,
    pair_sampler=None,
) -> CoverageReport:
    """Coverage of the pair set {(x, a T^n x)} on the projected product net.

    The family is indexed by (n <= horizon, a in scale_grid); base vectors
    come from ``pair_sampler(rng, count, dim)`` (seeded Gaussian by default).
    Bases are drawn before iteration, so coverage is monotone non-decreasing
    in the horizon for a fixed seed.
    """
    t = _matrix_of(T)
    if net.cells < 1:
        raise InputError("empty net")
    dim = t.shape[0]
    rng = np.random.default_rng(seed)
    if pair_sampler is None:
        # stratify the projected coordinate so every input column of the net
        # sees samples regardless of seed; the rest stays Gaussian
        bases = rng.normal(size=(base_count, dim)) * (net.box / 2.0)
        strata = (np.arange(base_count) % net.cells + rng.uniform(size=base_count))
        bases[:, net.x_coord] = strata / net.cells * 2.0 * net.box - net.box
    else:
        bases = np.asarray(pair_sampler(rng, base_count, dim))
    scales = [1.0] if scale_grid is None else list(scale_grid)
    reach = max(map(abs, scales), default=0.0)
    hit = np.zeros(net.cells * net.cells, dtype=bool)
    # t @ cur may overflow; the finiteness check at the top of the next step
    # then ends that orbit, so numpy's warnings carry nothing.  The errstate
    # wraps the whole loop because entering it per step would triple a
    # step's matrix-vector cost.
    with np.errstate(over="ignore", invalid="ignore"):
        for x in bases:
            u = float(np.real(x[net.x_coord]))
            cur = x.astype(np.complex128)
            for _n in range(horizon + 1):
                # cell_of cannot bin a non-finite coordinate, and an orbit that
                # overflowed stays non-finite, so it can hit no further cell
                y = reach * complex(cur[net.y_coord])
                if not (math.isfinite(y.real) and math.isfinite(y.imag)):
                    break
                for a in scales:
                    v = float(np.real(a * cur[net.y_coord]))
                    cell = net.cell_of(u, v)
                    if cell is not None:
                        hit[cell] = True
                cur = t @ cur
    hits = int(np.sum(hit))
    total = net.cells * net.cells
    return CoverageReport(hits / total, hits, total, horizon, seed)


@dataclass(frozen=True, eq=False)
class Ball:
    center: np.ndarray = field(repr=False)
    radius: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "center", as_vector(self.center))
        if self.radius <= 0:
            raise InputError("ball radius must be positive")


@dataclass(frozen=True)
class HitReport:
    hits: tuple  # bool per step 1..horizon
    first_window_start: int | None
    horizon: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "hits": [bool(h) for h in self.hits],
            "first_window_start": self.first_window_start,
            "horizon": self.horizon,
            "seed": self.seed,
        }


def mixing_window(
    T,
    ball_u: Ball,
    ball_v: Ball,
    horizon: int,
    probe_budget: int = 32,
    seed: int = 0,
    tol: float = 1e-9,
) -> HitReport:
    """Per n: did some probe x in U land with T^n x in V?

    Probes come from the twisted approach-pair construction when both ball
    centers lie in the unimodular chain span, and from random sampling of U
    otherwise (and additionally, always).  Absence of hits is a report, not
    an error.
    """
    t = _matrix_of(T)
    dim = t.shape[0]
    u_c = as_vector(ball_u.center, dim)
    v_c = as_vector(ball_v.center, dim)

    pieces = unimodular_chain_spaces(t, tol)
    use_pairs = False
    if pieces:
        lam = Subspace.from_vectors(
            [row for _, _, sp in pieces for row in sp.basis], dim, tol
        )
        use_pairs = lam.contains(u_c, 1e-7) and lam.contains(v_c, 1e-7)

    hits = []
    power = np.eye(dim, dtype=np.complex128)
    for n in range(1, horizon + 1):
        power = power @ t
        hit = False
        if use_pairs:
            try:
                x = transitivity_pair(t, u_c, v_c, n, tol=tol, pieces=pieces).x
                hit = (
                    float(np.linalg.norm(x - u_c)) <= ball_u.radius
                    and float(np.linalg.norm(power @ x - v_c)) <= ball_v.radius
                )
            except (DomainError, PreconditionError):
                hit = False
        if not hit and float(np.linalg.norm(power @ u_c - v_c)) <= ball_v.radius:
            hit = True  # the center probe is radius-independent
        if not hit:
            # per-step rng: probe directions depend only on (seed, n); dyadic
            # fractions keep probe clouds close to nested when radii double
            rng = np.random.default_rng((seed, n))
            for _ in range(probe_budget):
                eta = rng.normal(size=dim) + 1j * rng.normal(size=dim)
                eta /= float(np.linalg.norm(eta))
                for frac in (1.0, 0.5, 0.25):
                    x = u_c + ball_u.radius * frac * eta
                    if float(np.linalg.norm(power @ x - v_c)) <= ball_v.radius:
                        hit = True
                        break
                if hit:
                    break
        hits.append(hit)

    first = None
    for start in range(1, horizon + 1):
        if all(hits[start - 1 :]):
            first = start
            break
    return HitReport(tuple(hits), first, horizon, seed)


@dataclass(frozen=True, eq=False)
class TransitivityPair:
    x: np.ndarray = field(repr=False)
    residual_u: float
    residual_v: float
    step: int


def transitivity_pair(T, u, v, k: int, tol: float = 1e-9, pieces=None) -> TransitivityPair:
    """x_k with x_k -> u and T^k x_k -> v for u, v in the unimodular chain span.

    Assembled by linearity from the twisted approach pairs of the basis
    pieces; raises DomainError with the offending distance when u or v is
    outside the span.
    """
    t = _matrix_of(T)
    dim = t.shape[0]
    u = as_vector(u, dim)
    v = as_vector(v, dim)
    if pieces is None:
        pieces = unimodular_chain_spaces(t, tol)
    basis_rows = []
    zs = []
    for z, _mult, sp in pieces:
        for row in sp.basis:
            basis_rows.append(row)
            zs.append(z)
    if not basis_rows:
        if float(np.linalg.norm(u)) == 0.0 and float(np.linalg.norm(v)) == 0.0:
            return TransitivityPair(np.zeros(dim, dtype=np.complex128), 0.0, 0.0, k)
        raise DomainError("the unimodular chain span is trivial")
    bmat = np.array(basis_rows).T  # columns are basis vectors
    for name, w in (("u", u), ("v", v)):
        coeff, *_ = np.linalg.lstsq(bmat, w, rcond=None)
        dist = float(np.linalg.norm(bmat @ coeff - w))
        if dist > max(tol, 1e-7) * max(1.0, float(np.linalg.norm(w))):
            raise DomainError(
                f"{name} lies outside the unimodular chain span (distance {dist:.3e})"
            )
    cu, *_ = np.linalg.lstsq(bmat, u, rcond=None)
    cv, *_ = np.linalg.lstsq(bmat, v, rcond=None)

    x = np.zeros(dim, dtype=np.complex128)
    for i, (brow, z) in enumerate(zip(basis_rows, zs)):
        a = (t / z) - np.eye(dim, dtype=np.complex128)
        if cv[i] != 0 or cu[i] != 0:
            u_k, v_k = unimodular_approach(a, z, brow, k, tol)
            x = x + cu[i] * v_k + cv[i] * u_k
    power = np.linalg.matrix_power(t, k)
    return TransitivityPair(
        x,
        float(np.linalg.norm(x - u)),
        float(np.linalg.norm(power @ x - v)),
        k,
    )


def kernel_ladder(T, tol: float = 1e-9, cap: int | None = None):
    """[ker T, ker T^2, ...] until the dimension stabilizes."""
    t = _matrix_of(T)
    dim = t.shape[0]
    out = []
    power = np.eye(dim, dtype=np.complex128)
    last = -1
    for _n in range(1, (cap or dim) + 1):
        power = power @ t
        kernel, _ = kernel_and_image(power, tol)
        out.append(kernel)
        if kernel.dim == last:
            break
        last = kernel.dim
    return out


@dataclass(frozen=True)
class SupercyclicProbe:
    verdict: str  # "coverage" | "inapplicable"
    coverage: CoverageReport | None
    ladder_dims: tuple
    scalings: tuple

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "coverage": self.coverage.to_dict() if self.coverage else None,
            "ladder_dims": list(self.ladder_dims),
            "scalings": [float(s) for s in self.scalings],
        }


def supercyclic_probe(
    T,
    net: NetSpec,
    horizon: int,
    seed: int = 0,
    tol: float = 1e-9,
    seed_set_size: int = 8,
    scale_points: int = 24,
    probe_count: int = 4,
) -> SupercyclicProbe:
    """Projective-orbit coverage for operators with dense generalized kernel.

    Scalings follow the doubling rule lambda_k = 2^k max(1, ||u_k^x||) over a
    finite seed set, with u_k^x the minimum-norm preimage of x under T^k.
    Inapplicable when the kernel ladder never fills the space.
    """
    t = _matrix_of(T)
    dim = t.shape[0]
    ladder = kernel_ladder(t, tol)
    dims = tuple(sp.dim for sp in ladder)
    if not dims or dims[-1] < dim:
        return SupercyclicProbe("inapplicable", None, dims, ())

    rng = np.random.default_rng(seed)
    seeds = rng.normal(size=(seed_set_size, dim))
    horizon = min(horizon, dim)
    lambdas = []
    power = np.eye(dim, dtype=np.complex128)
    for k in range(1, horizon + 1):
        power = power @ t
        worst = 1.0
        for x in seeds:
            u_k, *_ = np.linalg.lstsq(power, x.astype(np.complex128), rcond=None)
            worst = max(worst, float(np.linalg.norm(u_k)))
        lambdas.append((2.0**k) * worst)

    smags = np.logspace(-3, 0, scale_points)
    hit = np.zeros(net.cells * net.cells, dtype=bool)
    for _p in range(probe_count):
        cur = rng.normal(size=dim).astype(np.complex128)
        for k in range(1, horizon + 1):
            cur = t @ cur
            if float(np.linalg.norm(cur)) == 0.0:
                break
            y = lambdas[k - 1] * cur
            for s in smags:
                for sign in (1.0, -1.0):
                    pt = sign * s * y
                    cell = net.cell_of(
                        float(np.real(pt[net.x_coord])), float(np.real(pt[net.y_coord]))
                    )
                    if cell is not None:
                        hit[cell] = True
    hits = int(np.sum(hit))
    total = net.cells * net.cells
    cov = CoverageReport(hits / total, hits, total, horizon, seed)
    return SupercyclicProbe("coverage", cov, dims, tuple(lambdas))


# ---------------------------------------------------------------------------
# Volterra distance experiment


@dataclass(frozen=True)
class DistanceTrace:
    ngrid: int
    cutoff: float
    adjoint_residual: float  # sup |V* h' + h| on the grid
    distances: tuple  # d_n = |<f, h^(n)>| / ||h^(n)|| for n = 0..n_max
    f_norm: float

    def to_dict(self) -> dict:
        return {
            "ngrid": self.ngrid,
            "cutoff": self.cutoff,
            "adjoint_residual": self.adjoint_residual,
            "distances": list(self.distances),
            "f_norm": self.f_norm,
        }


def bump_function(ngrid: int, cutoff: float) -> np.ndarray:
    """Smooth canonical bump supported in (0, cutoff), sampled on the grid."""
    xs = np.arange(ngrid + 1) / ngrid
    out = np.zeros(ngrid + 1)
    inside = (xs > 0) & (xs < cutoff)
    xi = xs[inside]
    out[inside] = np.exp(-1.0 / (xi * (cutoff - xi)))
    return out


def volterra_dist(
    ngrid: int, cutoff: float, f=None, n_max: int = 40
) -> DistanceTrace:
    """Distance trace from f to the orthocomplements of the h-derivatives.

    Also verifies the defining identity V* h' = -h on the grid.  ``f`` must
    vanish on [cutoff, 1] at grid resolution; the default is the canonical
    bump on (0, cutoff).
    """
    if not 0.0 < cutoff < 1.0:
        raise InputError("cutoff must lie in (0, 1)")
    _v, vstar = volterra(ngrid)
    xs = np.arange(ngrid + 1) / ngrid
    if f is None:
        fvals = bump_function(ngrid, cutoff)
    else:
        fvals = np.asarray([f(x) for x in xs]) if callable(f) else np.asarray(f, dtype=float)
        if fvals.shape[0] != ngrid + 1:
            raise InputError("f grid length mismatch")
        if np.any(np.abs(fvals[xs >= cutoff]) > 0):
            raise InputError(f"f must vanish on [{cutoff}, 1] at grid resolution")

    h0 = h_eval(0, ngrid)
    h1 = h_eval(1, ngrid)
    adj = float(np.max(np.abs(vstar.matrix.real @ h1 + h0)))

    dists = []
    for n in range(n_max + 1):
        hn = h_eval(n, ngrid)
        norm_hn = math.sqrt(abs(grid_inner(hn, hn, ngrid)))
        inner = abs(grid_inner(fvals, hn, ngrid))
        dists.append(inner / norm_hn if norm_hn > 0 else float("nan"))
    wts = trapezoid_weights(ngrid)
    f_norm = float(math.sqrt(float(np.sum(wts * fvals * fvals))))
    return DistanceTrace(ngrid, cutoff, adj, tuple(dists), f_norm)
