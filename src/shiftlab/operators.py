"""Finite sections of the operator zoo.

Truncation convention: coordinates leaving a window are compressed to 0,
never wrapped, so nilpotent/triangular structure survives truncation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DomainError, InputError, PreconditionError
from .linalg import as_matrix
from .rational import Poly, RationalMatrix

TAIL_KINDS = ("constant", "geometric", "zero")


@dataclass(frozen=True)
class WeightSequence:
    """Two-sided bounded weight sequence: explicit window plus tail rule.

    ``window[i]`` is the weight at index ``i - half``, so the window covers
    ``-half .. half``.  Geometric tails are anchored at the window edges.
    """

    window: tuple
    tail_kind: str = "constant"
    c_plus: complex = 0.0
    c_minus: complex = 0.0
    ratio: complex = 0.0

    def __post_init__(self):
        if len(self.window) % 2 != 1 or len(self.window) < 3:
            raise InputError("window must have odd length >= 3 (covers -N..N, N >= 1)")
        if self.tail_kind not in TAIL_KINDS:
            raise InputError(f"unknown tail rule {self.tail_kind!r}")
        object.__setattr__(self, "window", tuple(complex(w) for w in self.window))

    @property
    def half(self) -> int:
        return (len(self.window) - 1) // 2

    def value(self, n: int) -> complex:
        half = self.half
        if -half <= n <= half:
            return self.window[n + half]
        if self.tail_kind == "zero":
            return 0.0
        if self.tail_kind == "constant":
            return self.c_plus if n > half else self.c_minus
        if n > half:
            return self.window[-1] * self.ratio ** (n - half)
        return self.window[0] * self.ratio ** (-n - half)

    def values(self, a: int, b: int) -> np.ndarray:
        return np.array([self.value(n) for n in range(a, b + 1)], dtype=np.complex128)

    def log_abs(self, n: int, extended: bool = False):
        """log |w_n| straight from the tail rule (no underflow); None if 0.

        Geometric tails reach far below the double-precision floor at large
        |n|, so log products must never round-trip through ``value``.  With
        ``extended`` the value comes back as an 80-bit numpy longdouble for
        certificate-grade accumulation.
        """
        log = (lambda x: np.log(np.longdouble(x))) if extended else math.log
        half = self.half
        if -half <= n <= half:
            v = abs(self.window[n + half])
            return log(v) if v > 0 else None
        if self.tail_kind == "zero":
            return None
        if self.tail_kind == "constant":
            v = abs(self.c_plus) if n > half else abs(self.c_minus)
            return log(v) if v > 0 else None
        edge = abs(self.window[-1] if n > half else self.window[0])
        r = abs(self.ratio)
        if edge == 0 or r == 0:
            return None
        return log(edge) + (abs(n) - half) * log(r)

    def sup_bound(self) -> float:
        out = max(abs(w) for w in self.window)
        if self.tail_kind == "constant":
            out = max(out, abs(self.c_plus), abs(self.c_minus))
        elif self.tail_kind == "geometric" and abs(self.ratio) > 1:
            raise DomainError("geometric tail with |ratio| > 1 is unbounded")
        return out

    def dual(self) -> "WeightSequence":
        """The reflected sequence w'_n = w_{1-n}, window widened by one."""
        half = self.half + 1
        window = [self.value(1 - n) for n in range(-half, half + 1)]
        if self.tail_kind == "constant":
            return WeightSequence(window, "constant", c_plus=self.c_minus, c_minus=self.c_plus)
        if self.tail_kind == "zero":
            return WeightSequence(window, "zero")
        return WeightSequence(window, "geometric", ratio=self.ratio)

    def to_dict(self) -> dict:
        out = {
            "window": [[w.real, w.imag] for w in self.window],
            "tail": self.tail_kind,
        }
        if self.tail_kind == "constant":
            out["c_plus"] = [complex(self.c_plus).real, complex(self.c_plus).imag]
            out["c_minus"] = [complex(self.c_minus).real, complex(self.c_minus).imag]
        elif self.tail_kind == "geometric":
            out["ratio"] = [complex(self.ratio).real, complex(self.ratio).imag]
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "WeightSequence":
        def _c(v):
            if isinstance(v, (list, tuple)):
                return complex(v[0], v[1])
            return complex(v)

        kind = d.get("tail", "constant")
        kwargs = {}
        if kind == "constant":
            kwargs = {"c_plus": _c(d.get("c_plus", 0)), "c_minus": _c(d.get("c_minus", 0))}
        elif kind == "geometric":
            kwargs = {"ratio": _c(d.get("ratio", 0))}
        return cls(tuple(_c(w) for w in d["window"]), kind, **kwargs)


def genshi_hypercyclic_weights(c: float = 2.0, m0: int = 3) -> WeightSequence:
    """w_k = c for k > m0, c^{-1} for k < -m0, 1 inside: Salas-hypercyclic."""
    window = [1.0] * (2 * m0 + 1)
    return WeightSequence(window, "constant", c_plus=c, c_minus=1.0 / c)


def genshi_supercyclic_weights(c: float = 2.0, m0: int = 3) -> WeightSequence:
    """w_k = c for k > m0, c/2 for k < -m0: Salas-supercyclic."""
    window = [1.0] * (2 * m0 + 1)
    return WeightSequence(window, "constant", c_plus=c, c_minus=c / 2.0)


def symmetric_decay_weights(half: int = 8, base: float = 2.0) -> WeightSequence:
    """w_n = base^{-|n|} with the matching geometric tail."""
    window = [base ** (-abs(n)) for n in range(-half, half + 1)]
    return WeightSequence(window, "geometric", ratio=1.0 / base)


def constant_weights(value: complex = 1.0, half: int = 4) -> WeightSequence:
    return WeightSequence([value] * (2 * half + 1), "constant", c_plus=value, c_minus=value)


@dataclass(frozen=True, eq=False)
class TruncatedOperator:
    """A finite matrix section plus the tag of the space it truncates."""

    matrix: np.ndarray = field(repr=False)
    ambient: str = "lp_Z_window"  # lp_Z_window | l1_Zplus | L2_grid | hardy_poly
    params: tuple = ()

    def __post_init__(self):
        m = as_matrix(self.matrix)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "params", tuple(self.params))
        expected = None
        for key, value in self.params:
            if key == "N":
                expected = 2 * value + 1
            elif key == "ngrid":
                expected = value + 1
        if expected is not None and m.shape != (expected, expected):
            raise InputError(
                f"matrix shape {m.shape} does not match the {self.ambient} "
                f"coordinate count {expected}"
            )

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def bilateral_shift(w: WeightSequence, N: int) -> TruncatedOperator:
    """T e_n = w_n e_{n-1} compressed to the window -N..N."""
    if N < 1:
        raise InputError("window half-width must be >= 1")
    dim = 2 * N + 1
    m = np.zeros((dim, dim), dtype=np.complex128)
    for n in range(-N, N + 1):
        if n - 1 >= -N:
            m[n - 1 + N, n + N] = w.value(n)
    return TruncatedOperator(m, "lp_Z_window", (("N", N),))


def flip_matrix(N: int) -> np.ndarray:
    """U e_n = e_{-n} on the window -N..N."""
    dim = 2 * N + 1
    u = np.zeros((dim, dim))
    for n in range(-N, N + 1):
        u[-n + N, n + N] = 1.0
    return u


def volterra(ngrid: int) -> tuple[TruncatedOperator, TruncatedOperator]:
    """Grid sections of f -> int_0^x f and its adjoint f -> int_x^1 f.

    V uses the composite trapezoid rule, so its matrix is lower triangular
    with the operator's causal structure.  V* uses a composite Simpson rule
    (one leading trapezoid cell when the interval count is odd): the adjoint
    identity only needs O(1/ngrid^2), but the exactness checks downstream
    need the sup-norm residual of V*h' + h below 1e-8 at ngrid = 2048, which
    the trapezoid rule misses by a factor of five.
    """
    if ngrid < 16:
        raise InputError("ngrid must be >= 16")
    npts = ngrid + 1
    h = 1.0 / ngrid
    v = np.zeros((npts, npts))
    for i in range(1, npts):
        v[i, 0] = h / 2.0
        v[i, 1:i] = h
        v[i, i] = h / 2.0
    vs = np.zeros((npts, npts))
    for i in range(npts):
        cells = ngrid - i
        if cells == 0:
            continue
        j = i
        if cells % 2 == 1:
            vs[i, j] += h / 2.0
            vs[i, j + 1] += h / 2.0
            j += 1
            cells -= 1
        if cells:
            vs[i, j] += h / 3.0
            vs[i, j + 1 : j + cells : 2] += 4.0 * h / 3.0
            vs[i, j + 2 : j + cells : 2] += 2.0 * h / 3.0
            vs[i, j + cells] += h / 3.0
    grid_params = (("ngrid", ngrid),)
    return (
        TruncatedOperator(v, "L2_grid", grid_params),
        TruncatedOperator(vs, "L2_grid", grid_params),
    )


def trapezoid_weights(ngrid: int) -> np.ndarray:
    w = np.full(ngrid + 1, 1.0 / ngrid)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def grid_inner(f, g, ngrid: int) -> complex:
    w = trapezoid_weights(ngrid)
    return complex(np.sum(w * np.conj(np.asarray(g)) * np.asarray(f)))


def h_derivative(n: int) -> Poly:
    """Exact Q_n with h^(n)(x) = h(x) Q_n(1/(x-1)) for h(x) = exp(1/(x-1)).

    Q_0 = 1 and Q_{n+1}(t) = -t^2 (Q_n(t) + Q_n'(t)); integer coefficients.
    """
    if n < 0:
        raise InputError("derivative order must be >= 0")
    q = Poly.one()
    tsq = Poly.monomial(2, -1)
    for _ in range(n):
        q = tsq * (q + q.derivative())
    return q


def h_eval(n: int, ngrid: int) -> np.ndarray:
    """h^(n) sampled on the uniform grid i/ngrid, overflow-safe.

    Q_n (integer coefficients) is evaluated exactly at the rational points
    t = 1/(x-1) with pure integer Horner and combined with e^t in log space;
    h and all derivatives vanish at x = 1 exactly.
    """
    q = h_derivative(n)
    coeffs = [c.numerator for c in q.coeffs]  # the recurrence stays integral
    degree = len(coeffs) - 1
    out = np.zeros(ngrid + 1)
    for i in range(ngrid):
        num, den = ngrid, i - ngrid  # t = 1/(x-1) at x = i/ngrid
        acc = coeffs[degree]
        dp = 1
        for d in range(degree - 1, -1, -1):
            dp *= den
            acc = acc * num + coeffs[d] * dp
        if acc == 0:
            continue
        # Q_n(t) = acc / den^degree; den < 0 here, so track its parity
        den_sign = 1.0 if (den > 0 or degree % 2 == 0) else -1.0
        sign = den_sign * (1.0 if acc > 0 else -1.0)
        logmag = float(Fraction(num, den)) + _log_int(abs(acc)) - degree * math.log(
            abs(den)
        )
        out[i] = sign * math.exp(logmag) if logmag > -745.0 else 0.0
    return out


def _log_int(n: int) -> float:
    if n.bit_length() <= 512:
        return math.log(n)
    shift = n.bit_length() - 512
    return math.log(n >> shift) + shift * math.log(2.0)


def integral_ladder(psi, count: int = 64, floor: float = 0.0) -> list[float]:
    """a_1 = psi(1), a_{k+1} = psi(a_k); stops at the floor or the count cap."""
    ladder = []
    a = psi(1.0)
    for _ in range(count):
        ladder.append(a)
        if len(ladder) >= 2 and ladder[-1] >= ladder[-2]:
            raise PreconditionError("ladder is not strictly decreasing")
        a = psi(a)
        if a <= floor:
            ladder.append(a)
            break
    return ladder


def integral_op(alpha, psi, ngrid: int):
    """Discretized T f(x) = int_0^psi(x) alpha f, plus the kernel ladder.

    ``alpha`` is a callable or a grid array; ``psi`` must be continuous,
    strictly increasing, with psi(x) < x on (0,1] (checked on the grid).
    """
    if ngrid < 16:
        raise InputError("ngrid must be >= 16")
    h = 1.0 / ngrid
    xs = np.arange(ngrid + 1) * h
    avals = np.asarray([alpha(x) for x in xs]) if callable(alpha) else np.asarray(alpha)
    if avals.shape[0] != ngrid + 1:
        raise InputError("alpha grid length mismatch")
    if np.any(avals == 0):
        raise PreconditionError("alpha vanishes at a grid point")
    ps = np.array([psi(x) for x in xs])
    for i in range(1, ngrid + 1):
        if ps[i] >= xs[i]:
            raise PreconditionError(f"psi(x) >= x at grid point x = {xs[i]:.6f}")
        if ps[i] <= ps[i - 1]:
            raise PreconditionError("psi is not strictly increasing on the grid")

    m = np.zeros((ngrid + 1, ngrid + 1), dtype=np.complex128)
    for i in range(ngrid + 1):
        p = ps[i]
        if p <= 0:
            continue
        full = int(p / h)
        full = min(full, ngrid)
        row = np.zeros(ngrid + 1, dtype=np.complex128)
        if full >= 1:
            row[0] += h / 2.0
            row[1:full] += h
            row[full] += h / 2.0
        rest = p - full * h
        if rest > 0 and full < ngrid:
            theta = rest / h
            # linear interpolation of the integrand across the partial cell
            row[full] += rest * (1.0 - theta / 2.0)
            row[full + 1] += rest * theta / 2.0
        m[i] = row * avals
    ladder = integral_ladder(psi, floor=h / 2.0)
    return TruncatedOperator(m, "L2_grid", (("ngrid", ngrid),)), ladder


@dataclass(frozen=True, eq=False)
class TensorElement:
    """Finite sum xi = sum_j x_j (x) y_j with an explicit bilinear pairing.

    Exact only: ``pairing[i, j] = b(e_i, f_j)`` must be a numpy object array
    of Fractions, and the factors are kept as object arrays, so every
    downstream identity (``tensor_op``, ``ebs_perturb``) holds literally.
    """

    pairs: tuple  # tuple of (x_j, y_j) 1-d arrays
    pairing: np.ndarray = field(repr=False)

    def __post_init__(self):
        pairing = np.asarray(self.pairing)
        if pairing.ndim != 2:
            raise InputError("pairing must be a matrix")
        if pairing.dtype != object:
            raise InputError("pairing must be an exact (Fraction, dtype=object) matrix")
        pairs = tuple(
            (np.asarray(x, dtype=object), np.asarray(y, dtype=object)) for x, y in self.pairs
        )
        for x, y in pairs:
            if x.shape[0] != pairing.shape[0] or y.shape[0] != pairing.shape[1]:
                raise InputError("tensor factor shapes do not match the pairing")
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "pairing", pairing)

    @property
    def dim_x(self) -> int:
        return self.pairing.shape[0]

    @property
    def dim_y(self) -> int:
        return self.pairing.shape[1]

    def b(self, x, y):
        return np.asarray(x) @ (self.pairing @ np.asarray(y))

    def scaled_added(self, s, extra_pairs) -> "TensorElement":
        s = Fraction(s)
        new = list(self.pairs) + [
            (np.asarray([s * a for a in x], dtype=object), y) for x, y in extra_pairs
        ]
        return TensorElement(tuple(new), self.pairing)


def tensor_op(xi: TensorElement):
    """Matrices of T_xi x = sum b(x, y_j) x_j and S_xi y = sum b(x_j, y) y_j."""
    if not xi.pairs:
        return (
            RationalMatrix.zeros(xi.dim_x, xi.dim_x),
            RationalMatrix.zeros(xi.dim_y, xi.dim_y),
        )
    # rows of xs / ys are the x_j / y_j: T = X^T (Y B^T), S = Y^T (X B)
    b = RationalMatrix(xi.pairing)
    xs = RationalMatrix([x for x, _ in xi.pairs])
    ys = RationalMatrix([y for _, y in xi.pairs])
    return xs.transpose() @ (ys @ b.transpose()), ys.transpose() @ (xs @ b)


def graded_lex_indices(k: int, count: int) -> list[tuple[int, ...]]:
    """First ``count`` multi-indices of Z_+^k in graded lexicographic order."""
    out = []
    degree = 0
    while len(out) < count:
        level = sorted(
            m for m in itertools.product(range(degree + 1), repeat=k) if sum(m) == degree
        )
        out.extend(level)
        degree += 1
    return out[:count]


def default_alpha(m: int) -> Fraction:
    """alpha_m = 2^(m(m+1)/2): satisfies alpha_{m+1} = 2^(m+1) alpha_m."""
    return Fraction(2) ** (m * (m + 1) // 2)


def saan_generators(
    k: int,
    ntrunc: int,
    phi: list[tuple[int, ...]] | None = None,
    alpha=None,
    exact: bool = False,
):
    """The k commuting truncated generators on coordinates x_n = e_n of l1.

    A_j e_{phi(m)} = (alpha_{|m|-1}/alpha_{|m|}) e_{phi(m - e_j)} when
    m_j >= 1, else 0.  The coordinate functionals make every eps_m = 1, so
    the growth condition reads alpha_{m+1} >= 2^m alpha_m.
    """
    if k < 1 or ntrunc < 1:
        raise InputError("k and ntrunc must be >= 1")
    indices = graded_lex_indices(k, ntrunc) if phi is None else list(phi)[:ntrunc]
    if len(set(indices)) != len(indices):
        raise InputError("phi must enumerate distinct multi-indices")
    pos = {m: i for i, m in enumerate(indices)}
    max_deg = max(sum(m) for m in indices)
    alpha_fn = default_alpha if alpha is None else alpha
    alphas = [Fraction(alpha_fn(m)) for m in range(max_deg + 1)]
    for m in range(max_deg):
        if alphas[m + 1] < 2**m * alphas[m]:
            raise PreconditionError(
                f"alpha violates the growth condition at m={m}: "
                f"alpha_{m + 1} < 2^{m} alpha_{m}"
            )
    mats = []
    for j in range(k):
        if exact:
            a = [[Fraction(0)] * ntrunc for _ in range(ntrunc)]
        else:
            a = np.zeros((ntrunc, ntrunc), dtype=np.complex128)
        for m, col in pos.items():
            if m[j] < 1:
                continue
            target = tuple(x - (1 if idx == j else 0) for idx, x in enumerate(m))
            row = pos.get(target)
            if row is None:
                continue  # graded-lex never drops targets; custom phi might
            coeff = alphas[sum(m) - 1] / alphas[sum(m)]
            if exact:
                a[row][col] = coeff
            else:
                a[row, col] = float(coeff)
        mats.append(RationalMatrix(a) if exact else a)
    return mats
