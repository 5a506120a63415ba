"""Decision procedures with attached certificates.

Salas-type weight criteria are evaluated in log space over finite horizons
with a three-state verdict: the asymptotic liminf condition can be
supported or refuted at desk scale but never proved, so "satisfied"
additionally requires the per-m trace minimum to keep decreasing when the
horizon doubles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DimensionError, DomainError, InputError, PreconditionError
from .linalg import (
    Subspace,
    as_matrix,
    as_vector,
    cluster_points,
    defective_cluster_radius,
    eigenvalues,
    intersect,
    kernel_and_image,
    span_union,
)
from .operators import TensorElement, TruncatedOperator, WeightSequence, tensor_op
from .rational import RationalMatrix

VERDICT_SATISFIED = "satisfied"
VERDICT_VIOLATED = "violated-at-horizon"
VERDICT_INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True, eq=False)
class SalasCertificate:
    verdict: str
    variant: str  # "hypercyclic" or "supercyclic"
    log_traces: np.ndarray = field(repr=False)  # shape (m_max+1, n_max), natural logs
    m_max: int = 0
    n_max: int = 0
    tol: float = 1e-6
    reason: str | None = None

    def trace(self, m: int) -> np.ndarray:
        return self.log_traces[m]

    def to_dict(self, full_traces: bool = False) -> dict:
        out = {
            "verdict": self.verdict,
            "variant": self.variant,
            "m_max": self.m_max,
            "n_max": self.n_max,
            "tol": self.tol,
            "reason": self.reason,
            "trace_minima": [float(np.min(t)) for t in self.log_traces],
        }
        if full_traces:
            out["log_traces"] = self.log_traces
        return out


def _log_weight_prefix(w: WeightSequence, lo: int, hi: int):
    """Compensated prefix sums of log|w_j|, or None if a weight vanishes.

    Logs come straight from the tail rule (geometric tails underflow float64
    long before the criterion horizons).  Prefix values reach ~1e8 while the
    certificate demands 1e-12 absolute accuracy on their differences, which
    exceeds even the 80-bit ulp; a Knuth two-sum compensation in longdouble
    keeps every prefix as an (hi, lo) pair whose pairwise differences are
    exact to far below the contract.  Returns (hi, lo) arrays indexed by
    t - lo + 1.
    """
    logs = w.log_abs_range(lo, hi)
    if logs is None:
        return None
    # np.cumsum adds in sequence, so each prefix is the scalar loop's s + t;
    # the leading 0 keeps the first one 0 + t (which turns -0.0 into +0.0)
    zero = np.zeros(1, dtype=np.longdouble)
    his = np.cumsum(np.concatenate((zero, logs)))
    s, total = his[:-1], his[1:]
    bv = total - s
    errs = (s - (total - bv)) + (logs - bv)
    return his, np.cumsum(np.concatenate((zero, errs)))


def _salas_traces(w: WeightSequence, m_max: int, n_max: int, variant: str):
    lo = -n_max + 1  # smallest index used: m - n + 1 at m = 0, n = n_max
    hi = m_max + n_max
    prefix = _log_weight_prefix(w, lo, hi)
    if prefix is None:
        return None
    his, los = prefix
    # log wtilde(a, b) = (his[b-lo+1] - his[a-lo]) + (los[b-lo+1] - los[a-lo]):
    # the hi parts cancel to the true difference, the lo parts restore
    # compensation.  With k = m - lo + 1, left (a = m-n+1, b = m) reads the
    # prefixes k-1 down to k-n_max, right (a = m+1, b = m+n) k+1 up to k+n_max
    traces = np.empty((m_max + 1, n_max))
    for m in range(m_max + 1):
        k = m - lo + 1
        left = (his[k] - his[k - n_max : k][::-1]) + (los[k] - los[k - n_max : k][::-1])
        right = (his[k + 1 : k + 1 + n_max] - his[k]) + (los[k + 1 : k + 1 + n_max] - los[k])
        if variant == "hypercyclic":
            traces[m] = np.maximum(left, -right).astype(np.float64)
        else:
            traces[m] = (left - right).astype(np.float64)
    return traces


def _salas_verdict(traces: np.ndarray, tol: float) -> str:
    log_tol = math.log(tol)
    n_max = traces.shape[1]
    half = max(1, n_max // 2)
    mins_full = traces.min(axis=1)
    mins_half = traces[:, :half].min(axis=1)
    if np.any(mins_full >= log_tol):
        return VERDICT_VIOLATED
    if np.all(mins_full < mins_half):
        return VERDICT_SATISFIED
    return VERDICT_INCONCLUSIVE


def _salas(
    w: WeightSequence, m_max: int, n_max: int, tol: float, variant: str
) -> SalasCertificate:
    if m_max < 0 or n_max < 8:
        raise InputError("horizons too small: need n_max >= 8")
    traces = _salas_traces(w, m_max, n_max, variant)
    if traces is None:
        return SalasCertificate(
            VERDICT_VIOLATED,
            variant,
            np.zeros((m_max + 1, n_max)),
            m_max,
            n_max,
            tol,
            reason="range not dense: a weight entry vanishes",
        )
    return SalasCertificate(_salas_verdict(traces, tol), variant, traces, m_max, n_max, tol)


def salas_hypercyclic(
    w: WeightSequence, m_max: int = 8, n_max: int = 2**14, tol: float = 1e-6
) -> SalasCertificate:
    """Finite-horizon evaluation of the hypercyclicity weight-product criterion.

    The per-(m, n) trace is max{log wt(m-n+1, m), -log wt(m+1, m+n)}.
    """
    return _salas(w, m_max, n_max, tol, "hypercyclic")


def salas_supercyclic(
    w: WeightSequence, m_max: int = 8, n_max: int = 2**14, tol: float = 1e-6
) -> SalasCertificate:
    """Supercyclicity variant: trace log wt(m-n+1, m) - log wt(m+1, m+n)."""
    return _salas(w, m_max, n_max, tol, "supercyclic")


def ker_dagger(T, tol: float = 1e-9) -> Subspace:
    """Span over n of image(T^n) ∩ ker(T^n)."""
    t = as_matrix(T)
    if t.shape[0] != t.shape[1]:
        raise InputError("square matrix required")
    dim = t.shape[0]
    pieces = []
    power = np.eye(dim, dtype=np.complex128)
    scale = max(1.0, float(np.linalg.norm(t)))
    for _ in range(1, dim + 1):
        power = power @ t
        if float(np.linalg.norm(power)) <= tol * scale:
            break  # T^n = 0: the intersection is {0} from here on
        kernel, image = kernel_and_image(power, tol)
        if kernel.dim == 0 or image.dim == 0:
            continue
        piece = intersect(image, kernel, tol)
        if piece.dim:
            pieces.append(piece)
    if not pieces:
        return Subspace.zero(dim, tol)
    return span_union(pieces, dim, tol)


def unimodular_chain_spaces(T, tol: float = 1e-9):
    """Per unimodular eigenvalue z: span over n of image((T-z)^n) ∩ ker((T-z)^n).

    Computed eigenvalues are clustered first; a defective eigenvalue of a
    d-dimensional matrix scatters over a disk of radius about eps^(1/d), so
    the radius adapts to the dimension instead of using a fixed constant.
    Cluster means within 1e-6 of the unit circle count as unimodular and
    are snapped onto it before the chain spaces are formed.  Returns a list
    of (z, multiplicity, Subspace).
    """
    t = as_matrix(T)
    dim = t.shape[0]
    vals = eigenvalues(t)
    out = []
    for z, members in cluster_points(vals, defective_cluster_radius(t)):
        if abs(abs(z) - 1.0) > 1e-6:
            continue
        z = z / abs(z)
        mult = len(members)
        b = t - z * np.eye(dim, dtype=np.complex128)
        pieces = []
        power = np.eye(dim, dtype=np.complex128)
        for _ in range(1, mult + 1):
            power = power @ b
            kernel, image = kernel_and_image(power, tol)
            if kernel.dim == 0:
                break
            if image.dim == 0:
                break
            piece = intersect(image, kernel, tol)
            if piece.dim:
                pieces.append(piece)
        if pieces:
            out.append((complex(z), mult, span_union(pieces, dim, tol)))
    return out


def lambda_t(T, tol: float = 1e-9) -> Subspace:
    """Span over unimodular z and n of image((T-z)^n) ∩ ker((T-z)^n)."""
    t = as_matrix(T)
    spaces = [sp for _, _, sp in unimodular_chain_spaces(t, tol)]
    if not spaces:
        return Subspace.zero(t.shape[0], tol)
    return span_union(spaces, t.shape[0], tol)


def commutator_residual(a, b) -> float:
    a = as_matrix(a)
    b = as_matrix(b)
    scale = max(1.0, float(np.linalg.norm(a)) * float(np.linalg.norm(b)))
    return float(np.linalg.norm(a @ b - b @ a)) / scale


def ebs_tuple_kernel(Ts, tol: float = 1e-9) -> Subspace:
    """Span of T_1^{n_1}...T_k^{n_k}(∩_j ker T_j^{2 n_j}) over 1 <= n_j <= dim."""
    mats = [as_matrix(t) for t in Ts]
    if not mats:
        raise InputError("empty tuple")
    dim = mats[0].shape[0]
    for m in mats:
        if m.shape != (dim, dim):
            raise InputError("all operators must share the ambient space")
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            r = commutator_residual(mats[i], mats[j])
            if r > tol:
                raise PreconditionError(
                    f"operators {i} and {j} do not commute: residual {r:.3e}"
                )
    import itertools

    pieces = []
    for n_tuple in itertools.product(range(1, dim + 1), repeat=len(mats)):
        common = Subspace.full(dim, tol)
        for m, nj in zip(mats, n_tuple):
            kernel, _ = kernel_and_image(np.linalg.matrix_power(m, 2 * nj), tol)
            common = intersect(common, kernel, tol)
            if common.dim == 0:
                break
        if common.dim == 0:
            continue
        prod = np.eye(dim, dtype=np.complex128)
        for m, nj in zip(mats, n_tuple):
            prod = prod @ np.linalg.matrix_power(m, nj)
        vectors = [prod @ row for row in common.basis]
        sp = Subspace.from_vectors(vectors, dim, tol)
        if sp.dim:
            pieces.append(sp)
    if not pieces:
        return Subspace.zero(dim, tol)
    return span_union(pieces, dim, tol)


# ---------------------------------------------------------------------------
# Perturbation of a nilpotent tensor element


@dataclass(frozen=True, eq=False)
class EbsPerturbation:
    xi_s: TensorElement
    s: object
    n: int
    u_vectors: tuple  # u_1..u_2n in ker T_xi
    f_vectors: tuple  # f_1..f_2n in L

    @property
    def u_n(self):
        return self.u_vectors[self.n - 1]

    @property
    def u_2n(self):
        return self.u_vectors[2 * self.n - 1]


def _nilpotency_index(t: RationalMatrix, cap: int) -> int | None:
    power = RationalMatrix.identity(t.rows)
    for n in range(1, cap + 1):
        power = power @ t
        if power.is_zero():
            return n
    return None


def ebs_perturb(xi: TensorElement, x1, x2, s, n: int | None = None) -> EbsPerturbation:
    """Perturb a nilpotent xi so that x1, x2 land in ker-dagger of T_{xi_s}.

    Exact only (``TensorElement`` holds rational matrices; x1, x2 and s are
    read as Fractions).  Adds s * eta where eta couples x1, x2 and a
    biorthogonal ladder u_1..u_2n in ker T_xi against functionals f_1..f_2n
    in L, the null space of S_xi and of b(x1, .), b(x2, .); then
    T_{xi_s}^n u_n = s^n x1, T_{xi_s}^n u_2n = s^n x2 and T_{xi_s}^(2n) = 0
    hold exactly.  ``n`` defaults to the nilpotency index of T_xi.
    """
    if s == 0:
        raise InputError("the perturbation scale s must be nonzero")
    s = Fraction(s)
    t, smat = tensor_op(xi)
    x1 = [Fraction(v) for v in x1]
    x2 = [Fraction(v) for v in x2]
    if n is None:
        n = _nilpotency_index(t, t.rows)
        if n is None:
            raise DomainError("T_xi is not nilpotent")
    bmat = xi.pairing
    # L = null space of rows [S_xi ; b(x1, .) ; b(x2, .)]
    targets = RationalMatrix([x1, x2]) @ bmat
    everything = slice(None)
    f0 = RationalMatrix._block([[smat], [targets]], everything, everything).nullspace()
    u0 = t.nullspace()
    if len(f0) < 2 * n or len(u0) < 2 * n:
        raise DimensionError(
            f"need a biorthogonal system of size {2 * n}; "
            f"dim L = {len(f0)}, dim ker T = {len(u0)}"
        )
    # Gram matrix G = U0 B F0^T.  The rref of [G | I] is [E G | E]; rows
    # i < rank of E G carry the identity at G's pivot columns p_j, so
    # u_i = (E U0)_i and f_j = f0[p_j] satisfy b(u_i, f_j) = delta_ij.
    u0m = RationalMatrix(u0)
    g = u0m @ (bmat @ RationalMatrix(f0).transpose())
    eye = RationalMatrix.identity(g.rows)
    red, pivots = RationalMatrix._block([[g, eye]], everything, everything).rref()
    if len(pivots) < 2 * n or pivots[2 * n - 1] >= g.cols:
        raise DimensionError(
            f"biorthogonal system of size {2 * n} is infeasible: rank of the "
            "pairing between ker T and L is too small"
        )
    p = RationalMatrix._block([[red]], slice(2 * n), slice(g.cols, None))
    u = (p @ u0m).data
    f = RationalMatrix([f0[c] for c in pivots[: 2 * n]])
    # eta = x1 (x) f_1 + sum_{j<n} u_j (x) f_{j+1}
    #     + x2 (x) f_{n+1} + sum_{j<n} u_{n+j} (x) f_{n+j+1}
    eta_xs = RationalMatrix([x1, *u[: n - 1], x2, *u[n : 2 * n - 1]])
    xi_s = xi.scaled_added(s, eta_xs, f)
    return EbsPerturbation(xi_s, s, n, u, f.data)


# ---------------------------------------------------------------------------
# Godefroy-Shapiro region verdicts


@dataclass(frozen=True)
class RegionPredicate:
    """Plane region with a membership test, bounding box and name.

    ``inside`` maps the real and imaginary parts of points, two float
    ndarrays, to an ndarray of bools, elementwise, and two floats to a bool.
    """

    name: str
    inside: object = field(repr=False)  # elementwise: (re, im) float ndarrays -> bool ndarray
    bbox: tuple = (-1.0, 1.0, -1.0, 1.0)  # (re_min, re_max, im_min, im_max)

    def contains(self, z):
        """Membership of a complex point, or of each point of a complex ndarray."""
        return self.inside(np.real(z), np.imag(z))

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` points of the region by rejection from its box.

        Each batch draws its real parts, then its imaginary parts, and keeps
        the points inside in draw order.  The kept parts are written straight
        into the complex result, so no batch is formed as complex numbers;
        ``re + 1j * im`` would give the same bits, as it differs from them
        only where a part is -0.0, which no uniform draw is.
        """
        re_min, re_max, im_min, im_max = self.bbox
        out = np.empty(count, dtype=np.complex128)
        got = 0
        while got < count:
            batch = max(count - got, 256)
            re = rng.uniform(re_min, re_max, batch)
            im = rng.uniform(im_min, im_max, batch)
            keep = np.flatnonzero(self.inside(re, im))[: count - got]
            out.real[got : got + keep.size] = re[keep]
            out.imag[got : got + keep.size] = im[keep]
            got += keep.size
        return out


def _in_triangle_u(a, b):
    return (a < 0) & (b - a < 1) & (b + a > -1)


def _in_region_v(a, b):
    # np.sqrt is correctly rounded, like math.sqrt; off 0 < b < 1 its nan
    # is masked out
    with np.errstate(invalid="ignore"):
        return (0 < b) & (b < 1) & (np.abs(a) < 1.0 - np.sqrt(1.0 - b * b))


def builtin_region(name: str) -> RegionPredicate:
    if name == "U":
        return RegionPredicate("U", _in_triangle_u, (-1.0, 0.0, -1.0, 1.0))
    if name == "V":
        return RegionPredicate("V", _in_region_v, (-1.0, 1.0, 0.0, 1.0))
    raise InputError(f"unknown builtin region {name!r}")


TRANSFORMS = {
    "shift1": lambda z: 1.0 + z,
    "exp": np.exp,
    "identity": lambda z: z,
}

# Analytic facts for the built-in regions: each entry pins the exact verdict
# and, where applicable, an exact witness on the unit circle.
_EXACT_REGION_VERDICTS = {
    ("U", "shift1"): ("intersects-circle", complex(-0.2, 0.6)),
    ("U", "exp"): ("inside-disk", None),
    ("V", "shift1"): ("outside-closed-disk", None),
    ("V", "exp"): ("intersects-circle", complex(0.0, 0.5)),
}


@dataclass(frozen=True)
class RegionVerdict:
    verdict: str
    region: str
    transform: str
    witnesses: tuple
    sampled_min_mod: float
    sampled_max_mod: float
    exact: bool
    samples: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "region": self.region,
            "transform": self.transform,
            "witnesses": [[w.real, w.imag] for w in self.witnesses],
            "sampled_min_mod": self.sampled_min_mod,
            "sampled_max_mod": self.sampled_max_mod,
            "exact": self.exact,
            "samples": self.samples,
            "seed": self.seed,
        }


def gs_region_verdict(
    region: RegionPredicate,
    transform: str = "identity",
    samples: int = 10**5,
    seed: int = 0,
) -> RegionVerdict:
    """Locate the transformed region against the unit circle.

    Built-in (region, transform) pairs carry exact predicates; sampling
    confirms them and is the only evidence for custom regions, which can
    therefore come back indeterminate.
    """
    if samples < 10**4:
        raise InputError("need at least 10^4 samples")
    if transform not in TRANSFORMS:
        raise InputError(f"unknown transform {transform!r}")
    fn = TRANSFORMS[transform]
    rng = np.random.default_rng(seed)
    pts = region.sample(rng, samples)
    mods = np.abs(fn(pts))
    mn, mx = float(np.min(mods)), float(np.max(mods))

    key = (region.name, transform)
    if key in _EXACT_REGION_VERDICTS:
        verdict, witness = _EXACT_REGION_VERDICTS[key]
        witnesses = []
        if witness is not None:
            img = fn(witness)
            if abs(abs(img) - 1.0) > 1e-12 or not region.contains(witness):
                raise DomainError("stored witness failed its exact check")
            witnesses.append(witness)
        # sampled confirmation
        ok = {
            "intersects-circle": mn <= 1.0 <= mx,
            "inside-disk": mx < 1.0,
            "outside-closed-disk": mn > 1.0,
        }[verdict]
        if not ok:
            raise DomainError(
                f"sampling contradicts the exact predicate for {key}: "
                f"moduli in [{mn:.6f}, {mx:.6f}]"
            )
        return RegionVerdict(verdict, region.name, transform, tuple(witnesses), mn, mx, True, samples, seed)

    margin = 1e-9
    if mx < 1.0 - margin:
        verdict = "inside-disk"
        witnesses = ()
    elif mn > 1.0 + margin:
        verdict = "outside-closed-disk"
        witnesses = ()
    elif mn <= 1.0 <= mx:
        verdict = "intersects-circle"
        idx = int(np.argmin(np.abs(mods - 1.0)))
        witnesses = (complex(pts[idx]),)
    else:
        verdict = "indeterminate"
        witnesses = ()
    return RegionVerdict(verdict, region.name, transform, witnesses, mn, mx, False, samples, seed)


# ---------------------------------------------------------------------------
# Symmetry obstructions


@dataclass(frozen=True)
class SymmetryReport:
    verdict: str  # "holds" | "inapplicable" | "indeterminate" (an orbit overflowed)
    first_violation: int | None
    similarity_exact: bool
    max_residual: float | None  # None unless the verdict is "holds"
    trials: int
    horizon: int

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "first_violation": self.first_violation,
            "similarity_exact": self.similarity_exact,
            "max_residual": self.max_residual,
            "trials": self.trials,
            "horizon": self.horizon,
        }


def _poly_of_matrix(coeffs, mat: np.ndarray) -> np.ndarray:
    out = np.zeros_like(mat)
    power = np.eye(mat.shape[0], dtype=mat.dtype)
    for c in coeffs:
        out = out + c * power
        power = power @ mat
    return out


def symmetry_obstruction(
    w: WeightSequence,
    p_coeffs,
    trials: int = 100,
    horizon: int = 50,
    seed: int = 0,
) -> SymmetryReport:
    """Orbit-orthogonality obstruction for modulus-symmetric weights.

    Requires |w_n| = |w_{-n}|; then (after the standard reduction to
    nonnegative real weights) the windowed shift T0 satisfies
    U T0 U^{-1} = T0' exactly for the index flip U e_n = e_{-1-n}, and every
    (S0 + S0')-orbit of x + y is orthogonal to y + (-x) for S0 = p(T0).
    The symmetry is checked for 1 <= n <= half + 5, and T0 lives on the
    window -M .. M-1 with M = max(half + 2, 12).  A non-finite residual
    (an orbit that overflows) makes the verdict "indeterminate".  Unless the
    verdict is "holds", ``max_residual`` is None.
    """
    for nn in range(1, w.half + 6):
        if abs(abs(w.value(nn)) - abs(w.value(-nn))) > 1e-12:
            return SymmetryReport("inapplicable", nn, False, None, 0, horizon)

    m = max(w.half + 2, 12)
    idx = list(range(-m, m))  # window -M .. M-1, preserved by n -> -1-n
    dim = len(idx)
    t0 = np.zeros((dim, dim))
    for col, nidx in enumerate(idx):
        if nidx - 1 >= idx[0]:
            t0[col - 1, col] = abs(w.value(nidx))
    u = np.zeros((dim, dim))
    for col, nidx in enumerate(idx):
        u[(-1 - nidx) + m, col] = 1.0
    sim_exact = bool(np.array_equal(u @ t0 @ u, t0.T))

    coeffs = [float(c) for c in p_coeffs]
    s0 = _poly_of_matrix(coeffs, t0)
    s0t = _poly_of_matrix(coeffs, t0.T)
    # every trial at once: one draw is the same stream as an x then a y draw
    # per trial, and stacked matmul makes the same BLAS call per trial as a
    # per-trial s0 @ a (gemv) or a.dot(b) (dot), so every residual keeps its bits
    xy = np.random.default_rng(seed).uniform(-1.0, 1.0, (trials, 2, dim))
    x, y = xy[:, 0], xy[:, 1]

    def dots(p, q):
        return (p[:, None, :] @ q[:, :, None])[:, 0, 0]

    # sqrt(v.dot(v)) is what np.linalg.norm computes for a real vector
    x_norm, y_norm = np.sqrt(dots(x, x)), np.sqrt(dots(y, y))
    a, b = x, y
    worst = np.zeros(trials)
    # an overflowing orbit gives non-finite residuals and the indeterminate
    # verdict below, so numpy's warnings carry nothing
    with np.errstate(over="ignore", invalid="ignore"):
        for _n in range(1, horizon + 1):
            a = (s0 @ a[:, :, None])[:, :, 0]
            b = (s0t @ b[:, :, None])[:, :, 0]
            scale = np.maximum(
                np.maximum(1.0, np.sqrt(dots(a, a)) * y_norm), np.sqrt(dots(b, b)) * x_norm
            )
            res = np.abs(dots(a, y) - dots(b, x)) / scale
            # a norm past the float range makes the scale inf and a residual
            # over it meaningless; np.maximum keeps NaN, Python's max drops it
            res[np.isinf(scale)] = np.nan
            worst = np.maximum(worst, res)
    max_res = float(np.max(worst, initial=0.0))  # 0.0 for no trials, as before
    if not math.isfinite(max_res):  # JSON has no NaN: the report writes null
        return SymmetryReport("indeterminate", None, sim_exact, None, trials, horizon)
    return SymmetryReport("holds", None, sim_exact, max_res, trials, horizon)


@dataclass(frozen=True, eq=False)
class BSymmetryReport:
    symmetric: bool
    witness: tuple | None  # (u, v) with b(Tu, v) != b(u, Tv)
    battery_residual: float
    annihilator_residual: float | None
    horizon: int

    def to_dict(self) -> dict:
        return {
            "symmetric": self.symmetric,
            "battery_residual": self.battery_residual,
            "annihilator_residual": self.annihilator_residual,
            "horizon": self.horizon,
        }


def b_symmetry_check(
    T,
    b,
    x,
    y,
    horizon: int = 50,
    seed: int = 0,
) -> BSymmetryReport:
    """Check b(Tu, v) = b(u, Tv) on a battery of 20 random pairs, to 1e-9;
    if it holds, verify the annihilating functional Phi(u, v) = b(x, v) -
    b(u, y) kills the orbit of (x, y) under T + T."""
    t = as_matrix(T.matrix if isinstance(T, TruncatedOperator) else T)
    bm = as_matrix(b)
    if not np.any(bm):
        raise InputError("the bilinear form must be nonzero")
    dim = t.shape[0]
    x = as_vector(x, dim)
    y = as_vector(y, dim)
    rng = np.random.default_rng(seed)
    worst = 0.0
    witness = None
    for _ in range(20):
        u = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        lhs = (t @ u) @ (bm @ v)
        rhs = u @ (bm @ (t @ v))
        scale = max(1.0, abs(lhs), abs(rhs))
        res = abs(lhs - rhs) / scale
        if res > worst:
            worst = res
            witness = (u, v)
    if worst > 1e-9:
        return BSymmetryReport(False, witness, worst, None, horizon)
    ann = 0.0
    tx, ty = x.copy(), y.copy()
    for _n in range(1, horizon + 1):
        tx = t @ tx
        ty = t @ ty
        scale = max(
            1.0,
            float(np.linalg.norm(x)) * float(np.linalg.norm(ty)),
            float(np.linalg.norm(tx)) * float(np.linalg.norm(y)),
        )
        ann = max(ann, abs(x @ (bm @ ty) - tx @ (bm @ y)) / scale)
    return BSymmetryReport(True, None, worst, ann, horizon)
