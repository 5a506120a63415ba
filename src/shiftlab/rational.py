"""Exact arithmetic kernel: polynomials, rational functions and dense
rational matrices over arbitrary-precision rationals.

Everything here is immutable and pure; no floating point enters any
computation.  Polynomials are coefficient tuples in ascending degree order
with no trailing zeros, so ``()`` is the zero polynomial.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .errors import DomainError, InputError

NEG_INF = float("-inf")  # degree of the zero polynomial / zero rational function


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise InputError(f"cannot coerce {x!r} to an exact rational")


class Poly:
    """Univariate polynomial with Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def monomial(cls, degree: int, coeff=1) -> "Poly":
        c = _as_fraction(coeff)
        if c == 0:
            return cls()
        return cls([0] * degree + [c])

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def one(cls) -> "Poly":
        return cls([1])

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly([other])
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        other = self._coerce(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        if not self.coeffs or not other.coeffs:
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __pow__(self, n: int):
        if n < 0:
            raise DomainError("negative polynomial power")
        out, base = Poly.one(), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def divmod(self, other: "Poly"):
        other = self._coerce(other)
        if other.is_zero():
            raise DomainError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly(), self
        quot = [Fraction(0)] * (dq + 1)
        lead = other.coeffs[-1]
        for k in range(dq, -1, -1):
            c = rem[k + len(other.coeffs) - 1] / lead
            quot[k] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= c * b
        return Poly(quot), Poly(rem)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, self._coerce(other)
        while not b.is_zero():
            a, b = b, a % b
        if a.is_zero():
            return a
        return a * (1 / a.leading())

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self * (1 / self.leading())

    def __call__(self, x):
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    @staticmethod
    def _coerce(other):
        if isinstance(other, Poly):
            return other
        return Poly([other])

    def __repr__(self):
        if not self.coeffs:
            return "Poly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*z" if c != 1 else "z")
            else:
                parts.append(f"{c}*z^{i}" if c != 1 else f"z^{i}")
        return "Poly(" + " + ".join(parts) + ")"


class RationalFunction:
    """Reduced quotient of two polynomials, denominator monic and nonzero."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = Poly._coerce(num)
        den = Poly.one() if den is None else Poly._coerce(den)
        if den.is_zero():
            raise DomainError("zero denominator")
        if num.is_zero():
            self.num, self.den = Poly(), Poly.one()
            return
        g = num.gcd(den)
        num, den = num // g, den // g
        lead = den.leading()
        self.num = num * (1 / lead)
        self.den = den * (1 / lead)

    @classmethod
    def zero(cls):
        return cls(Poly())

    @classmethod
    def one(cls):
        return cls(Poly.one())

    @property
    def degree(self):
        if self.num.is_zero():
            return NEG_INF
        return self.num.degree - self.den.degree

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return not self.num.is_zero()

    def __eq__(self, other):
        other = self._coerce(other)
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        other = self._coerce(other)
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise DomainError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    @staticmethod
    def _coerce(other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, Poly):
            return RationalFunction(other)
        return RationalFunction(Poly([other]))

    def __repr__(self):
        if self.den == Poly.one():
            return f"RF({self.num!r})"
        return f"RF({self.num!r} / {self.den!r})"


def _cleared(rows):
    """Each row of Fractions as integers over its lcm denominator.

    Returns ``(int_rows, dens)`` with ``rows[i][j] == int_rows[i][j] / dens[i]``.
    """
    int_rows, dens = [], []
    for row in rows:
        d = math.lcm(*(x.denominator for x in row))
        int_rows.append([x.numerator * (d // x.denominator) for x in row])
        dens.append(d)
    return int_rows, dens


class RationalMatrix:
    """Immutable dense matrix over Fraction.

    Products clear each row and column to integers over its lcm denominator
    and build one Fraction per entry: summing Fractions directly costs a gcd
    per term, most of them on zeros.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data):
        rows = tuple(tuple(_as_fraction(x) for x in row) for row in data)
        if not rows or not rows[0]:
            raise InputError("empty matrix")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise InputError("ragged matrix rows")
        self.rows = len(rows)
        self.cols = ncols
        self.data = rows

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls([[0] * cols for _ in range(rows)])

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, RationalMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash(self.data)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def __add__(self, other):
        self._same_shape(other)
        return RationalMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, other.data)
            ]
        )

    def __sub__(self, other):
        self._same_shape(other)
        return RationalMatrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, other.data)
            ]
        )

    def __mul__(self, scalar):
        s = _as_fraction(scalar)
        return RationalMatrix([[s * x for x in row] for row in self.data])

    __rmul__ = __mul__

    def __matmul__(self, other):
        if isinstance(other, RationalMatrix):
            if self.cols != other.rows:
                raise InputError("matmul shape mismatch")
            rows, row_dens = _cleared(self.data)
            cols, col_dens = _cleared(zip(*other.data))
            return RationalMatrix(
                [
                    [
                        Fraction(sum(map(operator.mul, row, col)), dr * dc)
                        for col, dc in zip(cols, col_dens)
                    ]
                    for row, dr in zip(rows, row_dens)
                ]
            )
        # vector: sequence of Fractions
        vec = [_as_fraction(x) for x in other]
        if len(vec) != self.cols:
            raise InputError("matvec shape mismatch")
        rows, row_dens = _cleared(self.data)
        (col,), (dc,) = _cleared([vec])
        return [
            Fraction(sum(map(operator.mul, row, col)), dr * dc)
            for row, dr in zip(rows, row_dens)
        ]

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(list(zip(*self.data)))

    def pow(self, n: int) -> "RationalMatrix":
        if self.rows != self.cols:
            raise InputError("matrix power of a non-square matrix")
        if n < 0:
            raise DomainError("negative matrix power")
        out = RationalMatrix.identity(self.rows)
        base = self
        while n:
            if n & 1:
                out = out @ base
            base = base @ base if n > 1 else base
            n >>= 1
        return out

    def det(self) -> Fraction:
        """Exact determinant: clear denominators rowwise, then integer Bareiss."""
        if self.rows != self.cols:
            raise InputError("determinant of a non-square matrix")
        n = self.rows
        m, dens = _cleared(self.data)
        # Bareiss fraction-free elimination on the integer matrix.
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return Fraction(0)
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return Fraction(sign * m[n - 1][n - 1], math.prod(dens))

    def rref(self):
        """Row-reduced echelon form; returns (matrix, pivot column list)."""
        m = [list(row) for row in self.data]
        pivots = []
        r = 0
        for c in range(self.cols):
            if r == self.rows:
                break
            pivot = None
            for i in range(r, self.rows):
                if m[i][c] != 0:
                    pivot = i
                    break
            if pivot is None:
                continue
            m[r], m[pivot] = m[pivot], m[r]
            pv = m[r][c]
            m[r] = [x / pv for x in m[r]]
            for i in range(self.rows):
                if i != r and m[i][c] != 0:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
        return RationalMatrix(m) if m else self, pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullspace(self):
        """Basis (list of Fraction lists) for the right null space."""
        red, pivots = self.rref()
        free = [c for c in range(self.cols) if c not in pivots]
        basis = []
        for fc in free:
            v = [Fraction(0)] * self.cols
            v[fc] = Fraction(1)
            for r, pc in enumerate(pivots):
                v[pc] = -red.data[r][fc]
            basis.append(v)
        return basis

    def solve(self, b):
        """One exact solution of A x = b, or None if inconsistent."""
        vec = [_as_fraction(x) for x in b]
        if len(vec) != self.rows:
            raise InputError("rhs length mismatch")
        aug = RationalMatrix(
            [list(row) + [vec[i]] for i, row in enumerate(self.data)]
        )
        red, pivots = aug.rref()
        if self.cols in pivots:
            return None
        x = [Fraction(0)] * self.cols
        for r, pc in enumerate(pivots):
            x[pc] = red.data[r][self.cols]
        return x

    def inv(self) -> "RationalMatrix":
        if self.rows != self.cols:
            raise InputError("inverse of a non-square matrix")
        n = self.rows
        aug = RationalMatrix(
            [
                list(row) + [1 if i == j else 0 for j in range(n)]
                for i, row in enumerate(self.data)
            ]
        )
        red, pivots = aug.rref()
        if pivots != list(range(n)):
            raise DomainError("matrix is singular")
        return RationalMatrix([row[n:] for row in red.data])

    def to_float(self, dtype=complex):
        import numpy as np

        return np.array(
            [[dtype(x) for x in row] for row in self.data],
            dtype=np.complex128 if dtype is complex else np.float64,
        )

    def _same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise InputError("shape mismatch")

    def __repr__(self):
        return f"RationalMatrix({self.rows}x{self.cols})"
