"""The group-law residual, the empirical density / mixing probes and the
Volterra distance experiment.

Every asymptotic claim is reported as a trace (plus fitted decay data where
useful), never as a boolean: finite truncations cannot certify limits.
All randomized probes are bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .criteria import unimodular_chain_spaces
from .errors import DomainError, InputError, NumericError, PreconditionError
from .linalg import Subspace, as_matrix, as_vector
# unimodular_approach is bound here too: perfbench's layer test checks that
# tracing rebinds it in this module
from .nilpotent import _unimodular_chain, _unimodular_pair, unimodular_approach  # noqa: F401
from .operators import grid_inner, h_evals, simpson_adjoint_apply, trapezoid_weights

# orbit steps u3_density iterates before it bins their points: bounds the
# points held at once (steps x bases x scales) whatever the horizon
_DENSITY_CHUNK = 64
# random probe directions mixing_window draws per step the center misses
_PROBES = 32


def group_law_residual(As, z, w) -> float:
    """|| e^{<z+w,A>} - e^{<z,A>} e^{<w,A>} || (no commutation check)."""
    from scipy.linalg import expm

    mats = [as_matrix(a) for a in As]
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

    cells: int
    box: float
    x_coord: int
    y_coord: int

    def __post_init__(self):
        if self.cells < 2 or self.box <= 0:
            raise InputError("net needs at least 2 cells per axis and a positive box")
        if not math.isfinite(2.0 * self.box):
            raise InputError(f"net box {self.box} is too large: 2 * box leaves the float range")

    def _axis(self, w):
        """Float row index of each coordinate w; on the net iff in [0, cells).

        ``np.floor_divide`` has Python's float ``//`` semantics, so an array
        bins exactly as a loop of scalar lookups would.
        """
        return np.floor_divide(np.add(w, self.box), 2.0 * self.box / self.cells)

    def cell_of(self, u, v) -> np.ndarray:
        """Flat cell index of each point (u, v) (broadcast), -1 off the net."""
        iu, iv = np.broadcast_arrays(self._axis(u), self._axis(v))
        # mask before the cast: a huge finite index must not reach astype(int)
        inside = (0 <= iu) & (iu < self.cells) & (0 <= iv) & (iv < self.cells)
        out = np.full(iu.shape, -1)
        out[inside] = iu[inside].astype(int) * self.cells + iv[inside].astype(int)
        return out


@dataclass(frozen=True)
class CoverageReport:
    fraction: float
    hit_cells: int
    total_cells: int
    horizon: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "fraction": self.fraction,
            "hit_cells": self.hit_cells,
            "total_cells": self.total_cells,
            "horizon": self.horizon,
            "seed": self.seed,
            "params": [],
        }


def default_scale_grid():
    """Symmetric log grid of scalars, both signs: +-2^k for -6 <= k <= 5."""
    mags = [2.0 ** (k - 6) for k in range(12)]
    return [m for mag in mags for m in (mag, -mag)]


def u3_density(
    T,
    net: NetSpec,
    horizon: int,
    seed: int = 0,
    scale_grid=None,
    base_count: int = 40,
) -> CoverageReport:
    """Coverage of the pair set {(x, a T^n x)} on the projected product net.

    The family is indexed by (n <= horizon, a in scale_grid); base vectors
    are seeded Gaussians.  Bases are drawn before iteration, so coverage is
    monotone non-decreasing in the horizon for a fixed seed.
    """
    t = as_matrix(T)
    if net.cells < 1:
        raise InputError("empty net")
    dim = t.shape[0]
    rng = np.random.default_rng(seed)
    # stratify the projected coordinate so every input column of the net
    # sees samples regardless of seed; the rest stays Gaussian
    with np.errstate(over="ignore"):  # checked below
        bases = rng.normal(size=(base_count, dim)) * (net.box / 2.0)
    strata = (np.arange(base_count) % net.cells + rng.uniform(size=base_count))
    bases[:, net.x_coord] = strata / net.cells * 2.0 * net.box - net.box
    if not np.isfinite(bases).all():
        raise InputError(f"a base vector leaves the float range at net box {net.box}")
    scales = [1.0] if scale_grid is None else list(scale_grid)
    reach = max(map(abs, scales), default=0.0)
    scales = np.asarray(scales)
    hit = np.zeros(net.cells * net.cells, dtype=bool)
    us = np.real(bases[:, net.x_coord])
    iu = net._axis(us)
    # a base whose u lies off the net puts no point (u, v) on it
    on = (0 <= iu) & (iu < net.cells)
    us, cur = us[on], bases[on].astype(np.complex128)[:, :, None]
    # Every base's orbit at once, _DENSITY_CHUNK steps at a time: stacked
    # matmul makes the same matrix-vector BLAS call per base as a per-base
    # orbit, so every iterate keeps its bits.  t @ cur may overflow; an orbit
    # ends at its first step whose scaled coordinate is non-finite, so
    # numpy's warnings carry nothing.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, horizon + 1, _DENSITY_CHUNK):
            ys = np.empty((min(_DENSITY_CHUNK, horizon + 1 - start), len(us)), dtype=np.complex128)
            for k in range(len(ys)):
                ys[k] = cur[:, net.y_coord, 0]
                if start + k < horizon:
                    cur = t @ cur
            # an overflowed orbit stays non-finite and can hit no further
            # cell, and a non-finite coordinate cannot be binned
            live = np.logical_and.accumulate(np.isfinite(reach * ys), axis=0)
            # the same complex multiply as a * cur[y_coord], per (n, base, a)
            vs = np.real(np.multiply.outer(ys[live], scales))
            cells = net.cell_of(us[np.nonzero(live)[1], None], vs)
            hit[cells[cells >= 0]] = True
            us, cur = us[live[-1]], cur[live[-1]]
            # only the hit count is reported: a full net cannot change
            if not len(us) or hit.all():
                break
    hits = int(np.sum(hit))
    total = net.cells * net.cells
    return CoverageReport(hits / total, hits, total, horizon, seed)


@dataclass(frozen=True, eq=False)
class Ball:
    center: np.ndarray = field(repr=False)
    radius: float

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
    seed: int = 0,
) -> HitReport:
    """Per n: did some probe x in U land with T^n x in V?

    Probes come from the twisted approach-pair construction when both ball
    centers lie in the unimodular chain span, and from random sampling of U
    (_PROBES directions per step) otherwise (and additionally, always).
    Absence of hits is a report, not an error.
    """
    t = as_matrix(T)
    dim = t.shape[0]
    u_c = as_vector(ball_u.center, dim)
    v_c = as_vector(ball_v.center, dim)

    pieces = unimodular_chain_spaces(t)
    plan = None  # no pair probes
    if pieces:
        lam = Subspace.from_vectors([row for _, _, sp in pieces for row in sp.basis], dim)
        if lam.contains(u_c, 1e-7) and lam.contains(v_c, 1e-7):
            try:
                plan = _pair_plan(t, u_c, v_c, pieces)
            except (DomainError, NumericError, PreconditionError):
                pass  # the plan does not depend on n: no step has a pair

    # the random probes' radii, each the float product radius * frac
    reaches = np.array([ball_u.radius * frac for frac in (1.0, 0.5, 0.25)])
    hits = []
    power = np.eye(dim, dtype=np.complex128)
    for n in range(1, horizon + 1):
        power = power @ t
        hit = False
        if plan is not None:
            x = _pair_x(plan, n, dim)
            hit = _cnorm(x - u_c) <= ball_u.radius and _cnorm(power @ x - v_c) <= ball_v.radius
        if not hit and _cnorm(power @ u_c - v_c) <= ball_v.radius:
            hit = True  # the center probe is radius-independent
        if not hit:
            # per-step rng: probe directions depend only on (seed, n); dyadic
            # fractions keep probe clouds close to nested when radii double.
            # Every probe at once: one draw is the same stream as a real then
            # an imaginary part per probe, and stacked matmul makes the same
            # BLAS call per probe as one probe at a time, so every norm keeps
            # its bits and a hit by any probe is the per-probe loop's hit
            parts = np.random.default_rng((seed, n)).normal(size=(_PROBES, 2, dim))
            eta = parts[:, 0] + 1j * parts[:, 1]
            eta /= _cnorms(eta)[:, None]
            xs = u_c + reaches[:, None, None] * eta  # (frac, probe, dim)
            hit = bool(np.any(_cnorms((power @ xs[..., None])[..., 0] - v_c) <= ball_v.radius))
        hits.append(hit)

    # the first window is the run of hits that ends at the horizon
    first = None
    for start in range(horizon, 0, -1):
        if not hits[start - 1]:
            break
        first = start
    return HitReport(tuple(hits), first, horizon, seed)


@dataclass(frozen=True, eq=False)
class TransitivityPair:
    x: np.ndarray = field(repr=False)
    residual_u: float
    residual_v: float
    step: int


def transitivity_pair(T, u, v, k: int) -> TransitivityPair:
    """x_k with x_k -> u and T^k x_k -> v for u, v in the unimodular chain span.

    Assembled by linearity from the twisted approach pairs of the basis
    pieces; raises DomainError with the offending distance when u or v is
    outside the span.
    """
    t = as_matrix(T)
    dim = t.shape[0]
    u = as_vector(u, dim)
    v = as_vector(v, dim)
    pieces = unimodular_chain_spaces(t)
    if not pieces:
        if float(np.linalg.norm(u)) == 0.0 and float(np.linalg.norm(v)) == 0.0:
            return TransitivityPair(np.zeros(dim, dtype=np.complex128), 0.0, 0.0, k)
        raise DomainError("the unimodular chain span is trivial")
    x = _pair_x(_pair_plan(t, u, v, pieces), k, dim)
    power = np.linalg.matrix_power(t, k)
    return TransitivityPair(
        x,
        float(np.linalg.norm(x - u)),
        float(np.linalg.norm(power @ x - v)),
        k,
    )


def _pair_plan(t: np.ndarray, u: np.ndarray, v: np.ndarray, pieces) -> list:
    """The part of ``transitivity_pair`` that does not depend on the step.

    One (cu, cv, z, n, J) per basis row of the nonempty chain span ``pieces``
    where u or v has a nonzero coefficient: the two coefficients, the row's
    eigenvalue z, and the Jordan chain (n, J) of the row under T/z - I.
    """
    dim = t.shape[0]
    basis_rows = []
    zs = []
    for z, _mult, sp in pieces:
        for row in sp.basis:
            basis_rows.append(row)
            zs.append(z)
    bmat = np.array(basis_rows).T  # columns are basis vectors
    coeffs = []
    for name, w in (("u", u), ("v", v)):
        coeff, *_ = np.linalg.lstsq(bmat, w, rcond=None)
        dist = float(np.linalg.norm(bmat @ coeff - w))
        if dist > 1e-7 * max(1.0, float(np.linalg.norm(w))):
            raise DomainError(
                f"{name} lies outside the unimodular chain span (distance {dist:.3e})"
            )
        coeffs.append(coeff)
    cu, cv = coeffs

    plan = []
    for i, (brow, z) in enumerate(zip(basis_rows, zs)):
        if cv[i] != 0 or cu[i] != 0:
            a = (t / z) - np.eye(dim, dtype=np.complex128)
            plan.append((cu[i], cv[i], z, *_unimodular_chain(a, brow)))
    return plan


def _pair_x(plan: list, k: int, dim: int) -> np.ndarray:
    """x_k of ``transitivity_pair`` from its plan: the only work that depends on k."""
    x = np.zeros(dim, dtype=np.complex128)
    for cu, cv, z, n, jmat in plan:
        u_k, v_k = _unimodular_pair(n, jmat, z, k)
        x = x + cu * v_k + cv * u_k
    return x


def _cnorm(v: np.ndarray) -> float:
    """``float(np.linalg.norm(v))`` for a contiguous complex vector, bit for
    bit: numpy's own complex-vector formula without its dispatch."""
    re, im = v.real, v.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _cnorms(vs: np.ndarray) -> np.ndarray:
    """``_cnorm`` of each vector along the last axis of a stack, bit for bit:
    stacked matmul dots each vector's strided real and imaginary views with
    the BLAS call ``re.dot(re)`` makes."""
    re, im = vs.real, vs.imag
    sq = re[..., None, :] @ re[..., :, None] + im[..., None, :] @ im[..., :, None]
    return np.sqrt(sq[..., 0, 0])


# ---------------------------------------------------------------------------
# Volterra distance experiment


@dataclass(frozen=True)
class DistanceTrace:
    ngrid: int
    cutoff: float
    adjoint_residual: float  # sup |V* h' + h| on the grid
    # d_n = |<f, h^(n)>| / ||h^(n)|| for n = 0..n_max; None where the norm or
    # the inner product leaves the float range
    distances: tuple
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


def volterra_dist(ngrid: int, cutoff: float, n_max: int, f=None) -> DistanceTrace:
    """Distance trace from f to the orthocomplements of the h-derivatives.

    Also verifies the defining identity V* h' = -h on the grid.  ``f``, the
    ngrid + 1 grid values of a function, must vanish on [cutoff, 1] at grid
    resolution; the default is the canonical bump on (0, cutoff).
    """
    if not 0.0 < cutoff < 1.0:
        raise InputError("cutoff must lie in (0, 1)")
    if f is None:
        fvals = bump_function(ngrid, cutoff)
    else:
        fvals = np.asarray(f, dtype=float)
        if fvals.shape[0] != ngrid + 1:
            raise InputError("f grid length mismatch")
        if np.any(np.abs(fvals[np.arange(ngrid + 1) / ngrid >= cutoff]) > 0):
            raise InputError(f"f must vanish on [{cutoff}, 1] at grid resolution")

    hs, adj, norms = _volterra_table(ngrid, n_max)
    dists = []
    with np.errstate(over="ignore", invalid="ignore"):
        for hn, norm_hn in zip(hs, norms):
            inner = abs(grid_inner(fvals, hn, ngrid))
            if not (math.isfinite(inner) and math.isfinite(norm_hn)):
                dists.append(None)  # no float distance: a sum overflowed
            else:
                dists.append(inner / norm_hn if norm_hn > 0 else float("nan"))
    wts = trapezoid_weights(ngrid)
    f_norm = float(math.sqrt(float(np.sum(wts * fvals * fvals))))
    return DistanceTrace(ngrid, cutoff, adj, tuple(dists), f_norm)


@functools.lru_cache(maxsize=4)
def _volterra_table(ngrid: int, n_max: int) -> tuple:
    """The part of ``volterra_dist`` that f and the cutoff do not change:
    the read-only rows h, h', ..., h^(max(n_max, 1)), the adjoint residual
    sup |V* h' + h| and the grid norms ||h^(n)|| for n = 0..n_max.

    An entry holds 8 (ngrid + 1) bytes per row, about 0.7 MB at the
    report's ngrid 2048 and n_max 40.
    """
    hs = h_evals(max(n_max, 1), ngrid)
    for row in hs:
        row.flags.writeable = False
    adj = float(np.max(np.abs(simpson_adjoint_apply(ngrid, hs[1]) + hs[0])))
    # a norm past the float range is inf, and volterra_dist writes no distance
    with np.errstate(over="ignore", invalid="ignore"):
        norms = tuple(math.sqrt(abs(grid_inner(hn, hn, ngrid))) for hn in hs[: n_max + 1])
    return tuple(hs), adj, norms
