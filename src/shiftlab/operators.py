"""Finite sections of the operator zoo.

Truncation convention: coordinates leaving a window are compressed to 0,
never wrapped, so nilpotent/triangular structure survives truncation.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InputError
from .rational import RationalMatrix, _cleared

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
        if not all(map(cmath.isfinite, (*self.window, self.c_plus, self.c_minus, self.ratio))):
            raise InputError("weights must be finite: NaN or inf in the window or tail")

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

    def log_abs_range(self, lo: int, hi: int):
        """log |w_n| for n = lo..hi as one longdouble array; None if any is 0.

        Each entry is the log of the longdouble of |w_n| straight from the
        tail rule, and for a geometric tail log|edge| + (|n| - half) log|ratio|:
        geometric tails reach far below the double-precision floor at large
        |n|, so log products must never round-trip through ``value``.
        """
        half = self.half
        ns = np.arange(lo, hi + 1)
        inside = np.abs(ns) <= half
        if self.tail_kind == "zero" and not inside.all():
            return None
        # window values; outside the window its nearest edge value
        mags = np.array([abs(v) for v in self.window])[np.clip(ns + half, 0, 2 * half)]
        if self.tail_kind == "constant":
            mags[ns > half] = abs(self.c_plus)
            mags[ns < -half] = abs(self.c_minus)
        if np.any(mags == 0):
            return None
        logs = np.log(mags.astype(np.longdouble))
        if self.tail_kind == "geometric" and not inside.all():
            r = abs(self.ratio)
            if r == 0:
                return None
            outside = ~inside
            logs[outside] += (np.abs(ns[outside]) - half) * np.log(np.longdouble(r))
        return logs

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
        """Inverse of ``to_dict``; a malformed dict is an InputError."""

        def _c(v):
            if isinstance(v, (list, tuple)):
                return complex(v[0], v[1])
            return complex(v)

        if not isinstance(d, dict) or "window" not in d:
            raise InputError('a weight sequence needs a "window" list')
        kind = d.get("tail", "constant")
        try:
            kwargs = {}
            if kind == "constant":
                kwargs = {"c_plus": _c(d.get("c_plus", 0)), "c_minus": _c(d.get("c_minus", 0))}
            elif kind == "geometric":
                kwargs = {"ratio": _c(d.get("ratio", 0))}
            window = tuple(_c(w) for w in d["window"])
        except (TypeError, ValueError, IndexError) as exc:
            raise InputError(f"malformed weight sequence: {exc}") from None
        return cls(window, kind, **kwargs)


def genshi_hypercyclic_weights(c: float = 2.0, m0: int = 3) -> WeightSequence:
    """w_k = c for k > m0, c^{-1} for k < -m0, 1 inside: Salas-hypercyclic."""
    if c == 0:
        raise InputError("genshi-hc weights need c != 0: the left tail is 1/c")
    window = [1.0] * (2 * m0 + 1)
    return WeightSequence(window, "constant", c_plus=c, c_minus=1.0 / c)


def genshi_supercyclic_weights(c: float = 2.0, m0: int = 3) -> WeightSequence:
    """w_k = c for k > m0, c/2 for k < -m0: Salas-supercyclic."""
    window = [1.0] * (2 * m0 + 1)
    return WeightSequence(window, "constant", c_plus=c, c_minus=c / 2.0)


def symmetric_decay_weights() -> WeightSequence:
    """w_n = 2^{-|n|} on the window -8..8, with the geometric tail of ratio 1/2."""
    window = [2.0 ** (-abs(n)) for n in range(-8, 9)]
    return WeightSequence(window, "geometric", ratio=0.5)


def constant_weights(value: complex = 1.0, half: int = 4) -> WeightSequence:
    return WeightSequence([value] * (2 * half + 1), "constant", c_plus=value, c_minus=value)


def bilateral_shift(w: WeightSequence, N: int) -> np.ndarray:
    """T e_n = w_n e_{n-1} compressed to the window -N..N."""
    if N < 1:
        raise InputError("window half-width must be >= 1")
    dim = 2 * N + 1
    m = np.zeros((dim, dim), dtype=np.complex128)
    for n in range(-N, N + 1):
        if n - 1 >= -N:
            m[n - 1 + N, n + N] = w.value(n)
    return m


def flip_matrix(N: int) -> np.ndarray:
    """U e_n = e_{-n} on the window -N..N."""
    dim = 2 * N + 1
    u = np.zeros((dim, dim))
    for n in range(-N, N + 1):
        u[-n + N, n + N] = 1.0
    return u


def _simpson_columns(ngrid: int) -> tuple:
    """The weights of V* f = int_x^1 f by a composite Simpson rule.

    Row i integrates over the ngrid - i cells right of x_i, with one leading
    trapezoid cell when that count is odd.  The adjoint identity only needs
    O(1/ngrid^2), but the exactness checks downstream need the sup-norm
    residual of V*h' + h below 1e-8 at ngrid = 2048, which the trapezoid
    rule misses by a factor of five.

    Below the last column, entry (i, j) depends only on r = j - i and the
    parity of ngrid - j: it is ``cols[(ngrid - j) % 2][r]``, so column j
    reads ``cols[(ngrid - j) % 2][j::-1]`` from row 0 down.  ``last`` is the
    last column.
    """
    if ngrid < 16:
        raise InputError("ngrid must be >= 16")
    h = 1.0 / ngrid
    # ngrid - j even: a Simpson end node, h/3 where row j starts, h/2 + h/3
    # where row j - 1 starts on its trapezoid cell, 2h/3 inside longer rows
    even = np.full(ngrid + 1, 2.0 * h / 3.0)
    even[:2] = h / 3.0, h / 2.0 + h / 3.0
    # ngrid - j odd: a Simpson midpoint, h/2 where row j starts on its
    # trapezoid cell, 4h/3 everywhere else
    odd = np.full(ngrid + 1, 4.0 * h / 3.0)
    odd[0] = h / 2.0
    last = np.full(ngrid + 1, h / 3.0)
    last[-2:] = h / 2.0, 0.0  # one trapezoid cell, then the empty row
    return (even, odd), last


def simpson_adjoint_apply(ngrid: int, x: np.ndarray) -> np.ndarray:
    """V* x for real x, without the matrix, bit for bit as ``vs.real @ x``
    for the dense complex128 section ``vs`` of V* that the weights of
    ``_simpson_columns`` fill.

    That product runs numpy's non-BLAS matmul loop over the strided real
    view, which sums each row left to right from 0.0.  Accumulating column
    by column makes the same additions in the same order: rows i > j only
    ever add +-0.0 to 0.0, so they are skipped.
    """
    cols, last = _simpson_columns(ngrid)
    acc = np.zeros(ngrid + 1)
    for j, xj in enumerate(np.asarray(x, dtype=float)[:ngrid].tolist()):
        acc[: j + 1] += cols[(ngrid - j) % 2][j::-1] * xj
    return acc + last * float(x[ngrid])


def trapezoid_weights(ngrid: int) -> np.ndarray:
    w = np.full(ngrid + 1, 1.0 / ngrid)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def grid_inner(f, g, ngrid: int) -> complex:
    w = trapezoid_weights(ngrid)
    return complex(np.sum(w * np.conj(np.asarray(g)) * np.asarray(f)))


def _exp_or_inf(x: float) -> float:
    """math.exp(x), or inf where it leaves the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def h_evals(n_max: int, ngrid: int) -> list:
    """h, h', ..., h^(n_max) sampled on the uniform grid i/ngrid, overflow-safe.

    At x = i/ngrid, t = 1/(x-1) = num/den with num = ngrid, den = i - ngrid,
    and h^(n)(x) = e^t Q_n(t).  Differentiating (x-1)^2 h' = -h n times gives
    Q_{n+1} = -(2n t + t^2) Q_n - n(n-1) t^2 Q_{n-1}, so the integers
    A_n = Q_n(t) den^(2n) satisfy

        A_{n+1} = -(2n num den + num^2) A_n - n(n-1) num^2 den^2 A_{n-1},

    which runs exactly over Python ints at all grid points at once.  Each
    A_n is combined with e^t in log space; h and all derivatives vanish at
    x = 1 exactly.  Returns one array per order, index n.
    """
    if n_max < 0:
        raise InputError("derivative order must be >= 0")
    dens = range(-ngrid, 0)  # den < 0 at every point with x < 1
    # int / int is the correctly rounded quotient, as float(Fraction) is
    ts = np.array([ngrid / den for den in dens])
    log_dens = np.array([math.log(-den) for den in dens])
    numden = np.array([ngrid * den for den in dens], dtype=object)  # Python ints, exact
    num2 = ngrid * ngrid
    num2den2 = numden * numden
    out = []
    prev, acc = 0, np.full(ngrid, 1, dtype=object)
    c1 = np.full(ngrid, -num2, dtype=object)  # -(2n numden + num^2) at order n
    for n in range(n_max + 1):
        row = np.zeros(ngrid + 1)
        idx = np.flatnonzero(acc != 0)
        a = acc[idx]
        logmag = ts[idx] + _log_ints(np.abs(a)) - (2 * n) * log_dens[idx]
        keep = logmag > -745.0
        mags = np.fromiter(map(_exp_or_inf, logmag[keep].tolist()), float, np.count_nonzero(keep))
        # den^(2n) > 0, so A_n carries the sign
        row[idx[keep]] = np.where(a[keep] > 0, mags, -mags)
        out.append(row)
        if n < n_max:
            prev, acc = acc, c1 * acc - (n * (n - 1)) * num2den2 * prev
            c1 -= 2 * numden
    return out


_bit_length = np.frompyfunc(int.bit_length, 1, 1)
_LOG2 = math.log(2.0)


def _log_ints(ns: np.ndarray) -> np.ndarray:
    """math.log of each positive Python int of an object array, also past
    the float range: an int of more than 512 bits is logged as its top 512
    bits plus the shift times log 2.

    ``astype(float)`` converts as ``int.__float__`` does, so each float is
    the one ``math.log(int)`` takes; numpy's SIMD log may round differently.
    """
    shifts = np.maximum(_bit_length(ns) - 512, 0)
    logs = np.fromiter(map(math.log, (ns >> shifts).astype(float).tolist()), float, len(ns))
    return logs + shifts.astype(float) * _LOG2


class TensorElement:
    """Finite sum xi = sum_j x_j (x) y_j with an explicit bilinear pairing.

    Exact only: ``pairing[i, j] = b(e_i, f_j)`` and the factors must hold
    exact rationals, so a float entry fails here.  The pairing and the
    factor rows ``xs`` (the x_j) and ``ys`` (the y_j) are kept as
    ``RationalMatrix``, ``xs`` and ``ys`` None when there are no pairs, so
    every downstream identity (``tensor_op``, ``ebs_perturb``) holds
    literally.
    """

    __slots__ = ("pairing", "xs", "ys")

    def __init__(self, pairs, pairing):
        try:
            pairing = RationalMatrix(pairing)
        except (InputError, TypeError) as exc:
            raise InputError(f"pairing must be an exact rational matrix ({exc})") from None
        if any(len(x) != pairing.rows or len(y) != pairing.cols for x, y in pairs):
            raise InputError("tensor factor shapes do not match the pairing")
        self.pairing = pairing
        self.xs = RationalMatrix([x for x, _ in pairs]) if pairs else None
        self.ys = RationalMatrix([y for _, y in pairs]) if pairs else None

    def scaled_added(self, s, xs: RationalMatrix, ys: RationalMatrix) -> "TensorElement":
        """xi + s * sum_j xs_j (x) ys_j, from the factor rows xs and ys."""
        xs = xs * s
        if self.xs is not None:
            everything = slice(None)
            xs = RationalMatrix._block([[self.xs], [xs]], everything, everything)
            ys = RationalMatrix._block([[self.ys], [ys]], everything, everything)
        out = TensorElement.__new__(TensorElement)
        out.pairing, out.xs, out.ys = self.pairing, xs, ys
        return out


def tensor_op(xi: TensorElement):
    """Matrices of T_xi x = sum b(x, y_j) x_j and S_xi y = sum b(x_j, y) y_j."""
    b = xi.pairing
    if xi.xs is None:
        return RationalMatrix.zeros(b.rows, b.rows), RationalMatrix.zeros(b.cols, b.cols)
    # rows of xs / ys are the x_j / y_j: T = X^T (Y B^T), S = Y^T (X B)
    return xi.xs.transpose() @ (xi.ys @ b.transpose()), xi.ys.transpose() @ (xi.xs @ b)


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


def saan_generators(k: int, ntrunc: int, exact: bool = False):
    """The k commuting truncated generators on coordinates x_n = e_n of l1.

    phi enumerates the first ``ntrunc`` multi-indices in graded-lex order,
    and A_j e_{phi(m)} = (alpha_{|m|-1}/alpha_{|m|}) e_{phi(m - e_j)} when
    m_j >= 1, else 0, for alpha = ``default_alpha``.  The coordinate
    functionals make every eps_m = 1, so the growth condition reads
    alpha_{m+1} >= 2^m alpha_m, which alpha_{m+1} = 2^(m+1) alpha_m meets.
    """
    if k < 1 or ntrunc < 1:
        raise InputError("k and ntrunc must be >= 1")
    indices = graded_lex_indices(k, ntrunc)
    pos = {m: i for i, m in enumerate(indices)}
    max_deg = max(sum(m) for m in indices)
    alphas = [default_alpha(m) for m in range(max_deg + 1)]
    # a column of degree s carries alpha_{s-1}/alpha_s, whichever j acts
    ratios = [None] + [alphas[s - 1] / alphas[s] for s in range(1, max_deg + 1)]
    # the exact matrices are integer rows over the ratios' common denominator
    nums, den = _cleared(ratios[1:])
    mats = []
    for j in range(k):
        entries = {}  # (row, col) -> degree of the column
        for m, col in pos.items():
            if m[j] < 1:
                continue
            # a graded-lex prefix holds every index of lower degree
            target = tuple(x - (1 if idx == j else 0) for idx, x in enumerate(m))
            entries[pos[target], col] = sum(m)
        if exact:
            num = [[0] * ntrunc for _ in range(ntrunc)]
            for (r, c), s in entries.items():
                num[r][c] = nums[s - 1]
            mats.append(RationalMatrix._from_ints(num, den))
        else:
            a = np.zeros((ntrunc, ntrunc), dtype=np.complex128)
            for rc, s in entries.items():
                a[rc] = float(ratios[s])
            mats.append(a)
    return mats
