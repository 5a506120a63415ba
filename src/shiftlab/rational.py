"""Exact arithmetic kernel: polynomials, rational functions and dense
rational matrices over arbitrary-precision rationals.

Everything here is immutable and pure; no floating point enters any
computation.  Polynomials and matrices alike are stored as Python integers
over one positive denominator, reduced so that the form is canonical;
Fractions appear only where coefficients or entries leave them.  A
polynomial's integer coefficients run in ascending degree order with no
trailing zeros, so ``()`` is the zero polynomial.
"""

from __future__ import annotations

import itertools
import math
import numbers
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
    if isinstance(x, numbers.Integral):  # numpy integers are exact too
        return Fraction(int(x))
    raise InputError(f"cannot coerce {x!r} to an exact rational")


def _divisor(ints, den: int) -> int:
    """The integer, signed like the nonzero ``den``, that divides ``den``
    and every one of ``ints`` exactly and leaves ``ints / den`` in lowest
    terms over a positive denominator (``den`` itself when ``ints`` are all
    zero)."""
    if den == 1:
        return 1
    g = math.gcd(den, *ints)
    return -g if den < 0 else g


def _int_mul(a, b):
    """The product of two integer coefficient sequences."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _divide(a, b):
    """Long division of the integer coefficients ``a`` by ``b``: ``(quot,
    rem)`` with ``a = quot * b + rem`` and ``rem`` free of trailing zeros.

    Each quotient coefficient is ``a[top] // b[-1]``, which the caller makes
    exact: by scaling ``a`` by ``b[-1] ** (deg a - deg b + 1)`` first
    (pseudo-division), or because ``b`` divides ``a`` over Z.
    """
    lc, nb = b[-1], len(b)
    rem = list(a)
    quot = [0] * (len(rem) - nb + 1)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + nb - 1] // lc
        if c:
            quot[k] = c
            rem[k : k + nb] = [r - c * y for r, y in zip(rem[k : k + nb], b)]
    n = nb - 1
    while n and not rem[n - 1]:
        n -= 1
    return quot, rem[:n]


def _pseudo_divide(a, b):
    """``(quot, rem, scale)`` over Z with ``scale * a = quot * b + rem`` and
    ``scale = b[-1] ** (deg a - deg b + 1)``; ``deg a >= deg b``."""
    scale = b[-1] ** (len(a) - len(b) + 1)
    return (*_divide([x * scale for x in a], b), scale)


def _primitive(a):
    """The integer coefficients ``a`` divided by their gcd."""
    g = math.gcd(*a)
    return [x // g for x in a] if g > 1 else list(a)


def _primitive_gcd(a, b):
    """A gcd over Z of the primitive integer polynomials ``a`` and ``b``,
    itself primitive and defined up to sign: the primitive remainder
    sequence (Brown, J. ACM 18, 1971).  ``[1]`` once a nonzero constant
    appears; ``[]`` only when both are zero."""
    while b:
        if len(b) == 1:
            return [1]
        if len(a) >= len(b):
            a = _primitive(_pseudo_divide(a, b)[1])
        a, b = b, a
    return a


class Poly:
    """Univariate polynomial with rational coefficients.

    Stored as integer coefficients ``_num`` in ascending degree order with
    no trailing zeros, over one positive integer denominator ``_den``,
    reduced so that the gcd of ``_den`` and every coefficient is 1.  The
    form is canonical, so ``==`` compares integers.  Arithmetic, division
    (one pseudo-division over Z) and gcd (the primitive remainder sequence,
    made monic at the end) run on these integers and reduce each result
    once.  ``coeffs``, the tuple of Fraction coefficients, is built on first
    use; evaluation runs Horner's rule on it.
    """

    __slots__ = ("_num", "_den", "_coeffs")

    def __init__(self, coeffs=()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        # over the lcm of reduced denominators the form is already canonical
        num, self._den = _cleared(cs)
        self._num = tuple(num)
        self._coeffs = tuple(cs)

    @classmethod
    def _from_ints(cls, num, den: int) -> "Poly":
        """The polynomial ``num / den`` from integer coefficients, trailing
        zeros allowed, and a nonzero integer ``den``, in canonical form."""
        n = len(num)
        while n and not num[n - 1]:
            n -= 1
        num = num[:n]
        g = _divisor(num, den)
        if g != 1:
            num, den = [a // g for a in num], den // g
        out = cls.__new__(cls)
        out._num = tuple(num)
        out._den = den
        out._coeffs = None
        return out

    @classmethod
    def monomial(cls, degree: int) -> "Poly":
        """z^degree."""
        return cls._from_ints([0] * degree + [1], 1)

    @classmethod
    def zero(cls) -> "Poly":
        return cls._from_ints((), 1)

    @classmethod
    def one(cls) -> "Poly":
        return cls._from_ints((1,), 1)

    @property
    def coeffs(self) -> tuple:
        """The coefficients as a tuple of Fractions, constant term first."""
        if self._coeffs is None:
            d = self._den
            self._coeffs = tuple([Fraction(a, d) for a in self._num])
        return self._coeffs

    @property
    def degree(self):
        return len(self._num) - 1 if self._num else NEG_INF

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self):
        return bool(self._num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        elif not isinstance(other, Poly):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        # a constant hashes as its value, since it compares equal to it
        if len(self._num) <= 1:
            return hash(Fraction(self._num[0], self._den)) if self._num else hash(0)
        return hash((self._num, self._den))

    def _add(self, other, sign: int) -> "Poly":
        """``self + sign * other`` over the common denominator."""
        other = self._coerce(other)
        a, b = self._num, other._num
        den = math.lcm(self._den, other._den)
        fa, fb = den // self._den, sign * (den // other._den)
        out = [x * fa for x in a] + [0] * (len(b) - len(a))
        for i, y in enumerate(b):
            out[i] += y * fb
        return Poly._from_ints(out, den)

    def __add__(self, other):
        return self._add(other, 1)

    def __neg__(self):
        return Poly._from_ints([-a for a in self._num], self._den)

    def __sub__(self, other):
        return self._add(other, -1)

    def __mul__(self, other):
        other = self._coerce(other)
        return Poly._from_ints(_int_mul(self._num, other._num), self._den * other._den)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __pow__(self, n: int):
        if n < 0:
            raise DomainError("negative polynomial power")
        out, base, k = [1], self._num, n
        while k:
            if k & 1:
                out = _int_mul(out, base)
            base = _int_mul(base, base) if k > 1 else base
            k >>= 1
        return Poly._from_ints(out, self._den**n)

    def divmod(self, other: "Poly"):
        other = self._coerce(other)
        b = other._num
        if not b:
            raise DomainError("polynomial division by zero")
        if len(self._num) < len(b):
            return Poly.zero(), self
        # scale * self._num = quot * b + rem over Z, so self = other * quot *
        # other._den / (scale * self._den) + rem / (scale * self._den)
        quot, rem, scale = _pseudo_divide(self._num, b)
        den = scale * self._den
        return (
            Poly._from_ints([q * other._den for q in quot], den),
            Poly._from_ints(rem, den),
        )

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def gcd(self, other: "Poly") -> "Poly":
        """The monic gcd over Q; zero only when both are zero."""
        g = _primitive_gcd(_primitive(self._num), _primitive(self._coerce(other)._num))
        return Poly._from_ints(g, g[-1]) if g else Poly.zero()

    def __call__(self, x):
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    @staticmethod
    def _coerce(other) -> "Poly":
        if isinstance(other, Poly):
            return other
        f = _as_fraction(other)
        return Poly._from_ints((f.numerator,), f.denominator)

    def __repr__(self):
        if not self._num:
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
            self.num, self.den = Poly.zero(), Poly.one()
            return
        # num / den = (cn * pn / num._den) / (cd * pd / den._den) with pn, pd
        # primitive; their primitive gcd divides both exactly over Z
        cn, cd = math.gcd(*num._num), math.gcd(*den._num)
        pn, pd = [a // cn for a in num._num], [a // cd for a in den._num]
        g = _primitive_gcd(pn, pd)
        if len(g) > 1:
            pn, pd = _divide(pn, g)[0], _divide(pd, g)[0]
        lead = pd[-1]
        self.num = Poly._from_ints([a * cn * den._den for a in pn], num._den * cd * lead)
        self.den = Poly._from_ints(pd, lead)

    @classmethod
    def zero(cls):
        return cls(Poly.zero())

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
        if not isinstance(other, (RationalFunction, Poly, int, Fraction)):
            return NotImplemented
        other = self._coerce(other)
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # a polynomial (den = 1) hashes as the Poly, and so as the scalar
        # value when constant, since it compares equal to both
        return hash(self.num) if self.den.degree == 0 else hash((self.num, self.den))

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
        return RationalFunction(other)

    def __repr__(self):
        if self.den == Poly.one():
            return f"RF({self.num!r})"
        return f"RF({self.num!r} / {self.den!r})"


def _cleared(xs):
    """Fractions as integers over their lcm denominator: ``(ints, den)``
    with ``xs[i] == ints[i] / den``."""
    den = math.lcm(*(x.denominator for x in xs))
    return [x.numerator * (den // x.denominator) for x in xs], den


def _nearest_ratio(x: float, max_den: int):
    """``(p, q)``, coprime with ``0 < q <= max_den``, such that ``p / q`` is
    ``Fraction(x).limit_denominator(max_den)``: the same continued-fraction
    walk on the integers of ``x.as_integer_ratio()``.  Of the last
    convergent and the best semiconvergent, the nearer is kept, the
    convergent on a tie."""
    n, d = x.as_integer_ratio()
    if d <= max_den:
        return n, d
    den = d
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > max_den:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (max_den - q0) // q1
    # x lies between the two candidates, which are 1 / (q1 (q0 + k q1))
    # apart, and p1 / q1 is d / (q1 den) away from x
    if 2 * d * (q0 + k * q1) <= den:
        return p1, q1
    return p0 + k * p1, q0 + k * q1


def _eliminate(rows, ncols, forward_only=False):
    """Fraction-free Gauss-Jordan on rows over ints or over ``Poly``, in place.

    Pivots on the first ``ncols`` columns; later columns ride along.  Each
    step replaces every other row, above and below the pivot ``p``, by
    ``(p * row - row[c] * pivot_row) // last`` with ``last`` the previous
    pivot (``1`` before the first).  The division is exact in any integral
    domain, Z and Q[z] alike, because every entry stays a minor of the
    input (Bareiss, Math. Comp. 22, 1968), and clearing above the pivot
    leaves every pivot equal to the last one.  So the first ``len(pivots)``
    rows over ``last`` are the reduced echelon form, the other rows are zero
    on the first ``ncols`` columns, and at full rank ``sign * last`` is the
    determinant.  With ``forward_only`` only the rows below each pivot are
    cleared (plain Bareiss): the pivots, ``last`` and ``sign`` are the same,
    but the rows are only an echelon form.  Returns ``(pivots, last, sign)``.
    """
    pivots, last, sign = [], 1, 1
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        i = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if i is None:
            continue
        if i != r:
            rows[r], rows[i] = rows[i], rows[r]
            sign = -sign
        prow = rows[r]
        p = prow[c]
        for i in range(r + 1 if forward_only else 0, len(rows)):
            if i != r:
                row = rows[i]
                f = row[c]
                rows[i] = [(p * a - f * b) // last for a, b in zip(row, prow)]
        pivots.append(c)
        last = p
    return pivots, last, sign


class RationalMatrix:
    """Immutable dense matrix over the rationals.

    Stored as integer rows over one positive denominator, reduced so that
    the gcd of the denominator and every entry is 1: the form is canonical,
    so ``==`` compares integers.  The constructor takes Python ints as they
    are; only other entries (Fractions, strings, bools, numpy integers) are
    coerced to Fractions, and a float is refused.  Sums, products, ``pow``,
    ``transpose`` and the eliminations (``det``, ``rref``, ``rank``,
    ``nullspace``, ``solve``, ``inv``, all through the one fraction-free
    ``_eliminate``) work on these integers and reduce each result once.
    Fractions are made only where entries leave the matrix: ``data`` (built
    on first use), ``[i, j]``, ``to_float``, matrix-vector ``@`` and the
    vectors of ``solve`` and ``nullspace``.  Their integer kernels make
    none: ``_matvec`` for the product, ``_null_ints`` (integer rows over one
    pivot) for the null space; ``cleared`` hands out the integer rows
    themselves.
    """

    __slots__ = ("rows", "cols", "_num", "_den", "_data")

    def __init__(self, data):
        rows = [tuple(row) for row in data]
        if not rows or not rows[0]:
            raise InputError("empty matrix")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise InputError("ragged matrix rows")
        den = 1
        # Python ints are taken as they are; any other entry is coerced
        if set(map(type, itertools.chain.from_iterable(rows))) != {int}:
            rows = [[x if type(x) is int else _as_fraction(x) for x in row] for row in rows]
            # over the lcm of reduced denominators the form is already canonical
            den = math.lcm(*[x.denominator for row in rows for x in row])
            rows = [tuple([x.numerator * (den // x.denominator) for x in row]) for row in rows]
        self.rows = len(rows)
        self.cols = ncols
        self._num = tuple(rows)
        self._den = den
        self._data = None

    @classmethod
    def _from_ints(cls, num, den: int) -> "RationalMatrix":
        """The matrix ``num / den`` from integer rows and a nonzero integer
        ``den``, reduced to the canonical form."""
        if not num or not num[0]:
            raise InputError("empty matrix")
        g = _divisor(itertools.chain.from_iterable(num), den)
        if g != 1:
            num, den = [[a // g for a in row] for row in num], den // g
        out = cls.__new__(cls)
        out._num = tuple(map(tuple, num))
        out._den = den
        out.rows = len(out._num)
        out.cols = len(out._num[0])
        out._data = None
        return out

    @classmethod
    def _from_poly_rows(cls, polys, cols) -> "RationalMatrix":
        """The coefficient matrix of rows of ``Poly``: entry ``(i, c)`` is the
        z^d coefficient of ``polys[i][j]`` for ``cols[c] = (d, j)``; built on
        the polynomials' integers over their common denominator."""
        den = math.lcm(*(p._den for row in polys for p in row))
        num = []
        for row in polys:
            scaled = [[a * (den // p._den) for a in p._num] for p in row]
            num.append([scaled[j][d] if d < len(scaled[j]) else 0 for d, j in cols])
        return cls._from_ints(num, den)

    @classmethod
    def _block(cls, grid, rows: slice, cols: slice) -> "RationalMatrix":
        """The block matrix of ``grid``, a list of block rows of matrices,
        cut to ``rows`` x ``cols``; stacked on the integer rows over the
        common denominator."""
        den = math.lcm(*(m._den for line in grid for m in line))
        num = []
        for line in grid:
            scaled = [[[a * (den // m._den) for a in row] for row in m._num] for m in line]
            num.extend(sum(parts, []) for parts in zip(*scaled))
        return cls._from_ints([row[cols] for row in num[rows]], den)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls._from_ints([[int(i == j) for j in range(n)] for i in range(n)], 1)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls._from_ints([[0] * cols for _ in range(rows)], 1)

    @property
    def data(self) -> tuple:
        """The entries as a tuple of tuples of Fractions."""
        if self._data is None:
            d = self._den
            self._data = tuple(tuple(Fraction(a, d) for a in row) for row in self._num)
        return self._data

    def cleared(self):
        """``(rows, den)``: the entries as a tuple of integer rows over one
        positive denominator, with gcd(den, every entry) = 1."""
        return self._num, self._den

    def __getitem__(self, ij):
        i, j = ij
        return Fraction(self._num[i][j], self._den)

    def __eq__(self, other):
        return (
            isinstance(other, RationalMatrix)
            and self._den == other._den
            and self._num == other._num
        )

    def __hash__(self):
        return hash(self.data)

    def is_zero(self) -> bool:
        return not any(map(any, self._num))

    def _combine(self, other, op):
        """``op`` entrywise on the integers over the common denominator."""
        self._same_shape(other)
        den = math.lcm(self._den, other._den)
        fa, fb = den // self._den, den // other._den
        return RationalMatrix._from_ints(
            [[op(a * fa, b * fb) for a, b in zip(ra, rb)] for ra, rb in zip(self._num, other._num)],
            den,
        )

    def __add__(self, other):
        return self._combine(other, operator.add)

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __mul__(self, scalar):
        s = _as_fraction(scalar)
        p = s.numerator
        return RationalMatrix._from_ints(
            [[p * a for a in row] for row in self._num], self._den * s.denominator
        )

    __rmul__ = __mul__

    def __matmul__(self, other):
        if isinstance(other, RationalMatrix):
            if self.cols != other.rows:
                raise InputError("matmul shape mismatch")
            # row i of the product is the sum of a_ik * (row k of other); the
            # zero a_ik, most entries of the Saan generators and of the tensor
            # perturbation's operands, cost nothing
            out = []
            for row in self._num:
                acc = [0] * other.cols
                for a, brow in zip(row, other._num):
                    if a:
                        acc = [x + a * b for x, b in zip(acc, brow)]
                out.append(acc)
            return RationalMatrix._from_ints(out, self._den * other._den)
        # vector: sequence of rationals
        ints, den = self._matvec(*_cleared([_as_fraction(x) for x in other]))
        return [Fraction(a, den) for a in ints]

    def _matvec(self, col, dc: int):
        """The product with the vector ``col / dc`` on integers: ``(ints,
        den)`` with entry i equal to ``ints[i] / den``, not reduced."""
        if len(col) != self.cols:
            raise InputError("matvec shape mismatch")
        return [sum(map(operator.mul, row, col)) for row in self._num], self._den * dc

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix._from_ints(list(zip(*self._num)), self._den)

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

    def _int_rows(self):
        """A mutable copy of the integer rows, for ``_eliminate``."""
        return [list(row) for row in self._num]

    def det(self) -> Fraction:
        """Exact determinant: ``sign * last / den**n`` at full rank."""
        if self.rows != self.cols:
            raise InputError("determinant of a non-square matrix")
        pivots, last, sign = _eliminate(self._int_rows(), self.cols, forward_only=True)
        if len(pivots) < self.rows:
            return Fraction(0)
        return Fraction(sign * last, self._den**self.rows)

    def rref(self):
        """Row-reduced echelon form; returns (matrix, pivot column list)."""
        m = self._int_rows()
        pivots, last, _ = _eliminate(m, self.cols)
        return RationalMatrix._from_ints(m, last), pivots

    def rank(self) -> int:
        return len(_eliminate(self._int_rows(), self.cols, forward_only=True)[0])

    def _null_ints(self):
        """``(rows, last)``: a basis of the right null space as integer rows
        over the nonzero pivot ``last``.  The row of a non-pivot column
        ``fc`` holds ``last`` at ``fc``, minus column ``fc`` of the
        eliminated rows (``last`` times the reduced echelon form) at the
        pivot columns, and zero at the other free columns."""
        m = self._int_rows()
        pivots, last, _ = _eliminate(m, self.cols)
        basis = []
        for fc in (c for c in range(self.cols) if c not in pivots):
            v = [0] * self.cols
            v[fc] = last
            for row, pc in zip(m, pivots):
                v[pc] = -row[fc]
            basis.append(v)
        return basis, last

    def nullspace(self):
        """Basis (list of Fraction lists) for the right null space."""
        basis, last = self._null_ints()
        return [[Fraction(a, last) for a in v] for v in basis]

    def inv(self) -> "RationalMatrix":
        """``[num | den I]`` reduces to ``last [I | A^-1]``."""
        if self.rows != self.cols:
            raise InputError("inverse of a non-square matrix")
        n, d = self.rows, self._den
        m = [list(row) + [d if j == i else 0 for j in range(n)] for i, row in enumerate(self._num)]
        pivots, last, _ = _eliminate(m, n)
        if len(pivots) < n:
            raise DomainError("matrix is singular")
        return RationalMatrix._from_ints([row[n:] for row in m], last)

    def to_float(self):
        """The entries as a complex128 array."""
        import numpy as np

        # int / int is correctly rounded, as float(Fraction) is
        d = self._den
        return np.array([[a / d for a in row] for row in self._num], dtype=np.complex128)

    def _same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise InputError("shape mismatch")

    def __repr__(self):
        return f"RationalMatrix({self.rows}x{self.cols})"
