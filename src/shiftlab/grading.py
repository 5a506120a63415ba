"""Exact degree grading on tuples of rational functions.

The ambient model is R^k with R the field of univariate rational functions
over Q, and the operator is componentwise multiplication by the argument.
Everything reduces to exact fraction-free elimination, over Q or over Q[z],
after clearing a common polynomial denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, InputError
from .rational import Poly, RationalFunction, RationalMatrix, _eliminate


def deg(r) -> float | int:
    """Grading: deg(p/q) = deg p - deg q, deg 0 = -inf."""
    if isinstance(r, RationalFunction):
        return r.degree
    if isinstance(r, Poly):
        return r.degree
    return RationalFunction._coerce(r).degree


@dataclass(frozen=True)
class GradedVector:
    """Tuple of rational functions; components may freely be zero."""

    components: tuple

    def __init__(self, components):
        comps = tuple(RationalFunction._coerce(c) for c in components)
        if not comps:
            raise InputError("a graded vector needs at least one component")
        object.__setattr__(self, "components", comps)

    @property
    def k(self) -> int:
        return len(self.components)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def delta(self) -> float | int:
        """max_j deg of the components; -inf on the zero vector."""
        return max(deg(c) for c in self.components)

    def __add__(self, other):
        self._match(other)
        return GradedVector(
            [a + b for a, b in zip(self.components, other.components)]
        )

    def __sub__(self, other):
        self._match(other)
        return GradedVector(
            [a - b for a, b in zip(self.components, other.components)]
        )

    def scale(self, r) -> "GradedVector":
        r = RationalFunction._coerce(r)
        return GradedVector([r * c for c in self.components])

    def apply_poly(self, p: Poly) -> "GradedVector":
        """p(M) x where M is componentwise multiplication by the argument."""
        return self.scale(RationalFunction(p))

    def _match(self, other):
        if self.k != other.k:
            raise InputError("component count mismatch")

    def __eq__(self, other):
        return isinstance(other, GradedVector) and self.components == other.components

    def __hash__(self):
        return hash(self.components)


def _common_denominator(vectors) -> Poly:
    den = Poly.one()
    for v in vectors:
        for c in v.components:
            g = den.gcd(c.den)
            den = den * (c.den // g)
    return den


def _poly_rows(vectors):
    """Clear denominators: each vector becomes a k-tuple of polynomials.

    Multiplying the whole family by one common denominator D maps the span
    bijectively and shifts every delta by deg D, which cancels out of
    Delta+ - Delta-.
    """
    vectors = list(vectors)
    if not vectors:
        raise InputError("no vectors")
    k = vectors[0].k
    if any(v.k != k for v in vectors):
        raise InputError("component count mismatch")
    den = _common_denominator(vectors)
    rows = []
    for v in vectors:
        rows.append(tuple((c.num * (den // c.den)) for c in v.components))
    return rows, den


def t_independent(vectors):
    """Independence over polynomials in the multiplication operator.

    In the multiplication model this is linear independence over the
    rational-function field; when it fails, a polynomial relation with
    cleared denominators is returned: coefficients (p_1..p_m) with
    sum p_j(M) x_j = 0 and not all p_j zero.
    """
    vectors = [v if isinstance(v, GradedVector) else GradedVector(v) for v in vectors]
    rows, _ = _poly_rows(vectors)
    m = len(vectors)
    # An m x m minor that is nonzero at one point is nonzero over the
    # function field, so full rank at z = 2/101 certifies independence
    # without eliminating over Q[z].  2/101 is a root of an integer
    # polynomial only if 101 divides its leading coefficient; small integers
    # are roots far more often.
    z = Fraction(2, 101)
    if RationalMatrix([[p(z) for p in row] for row in rows]).rank() == m:
        return True, None
    # Eliminate over Q[z], one row per component and one column per vector:
    # the family is independent iff every column pivots.  Otherwise each
    # reduced row carries ``last`` on its pivot, which gives the kernel
    # vector of the first free column.
    system = [list(comp) for comp in zip(*rows)]
    pivots, last, _ = _eliminate(system, m)
    if len(pivots) == m:
        return True, None
    fc = next(c for c in range(m) if c not in pivots)
    witness = [Poly.zero()] * m
    witness[fc] = Poly._coerce(last)
    for pc, row in zip(pivots, system):
        witness[pc] = -row[fc]
    return False, witness


@dataclass(frozen=True)
class DegreeBoundReport:
    delta_plus: int
    delta_minus: int
    n0: int
    verified_degrees: tuple
    counterexample_degree: int | None
    counterexample: GradedVector | None


def _reduced_basis(generators):
    """Reduced echelon basis of L = span(generators) after clearing denominators.

    Returns ``(basis, deltas, den, k)``: one ``{(degree, component):
    coefficient}`` dict of integers per basis vector of D L, the degree of
    each vector's leading (pivot) monomial, the common denominator D and the
    component count k.  Columns are the monomials z^d e_j ordered by degree
    descending.  The integers are the reduced echelon form over its one
    denominator, which D absorbs, so the basis is that of D L exactly.
    """
    vectors = [
        v if isinstance(v, GradedVector) else GradedVector(v) for v in generators
    ]
    vectors = [v for v in vectors if not v.is_zero()]
    if not vectors:
        raise DomainError("L = {0}")
    rows, den = _poly_rows(vectors)
    k = len(rows[0])
    max_deg = max(int(p.degree) for row in rows for p in row if not p.is_zero())
    cols = [(d, j) for d in range(max_deg, -1, -1) for j in range(k)]
    red, pivots = RationalMatrix._from_poly_rows(rows, cols).rref()
    ints, red_den = red.cleared()
    basis = [{mono: a for mono, a in zip(cols, row) if a} for row in ints[: len(pivots)]]
    return basis, [cols[pc][0] for pc in pivots], den * red_den, k


def n0_bound(generators) -> DegreeBoundReport:
    """Delta+, Delta- and n0 = Delta+ - Delta- + 1 for the span of the input.

    Delta- collapses to finitely many leading-coefficient cancellations via
    a degree filtration: row-reduce the coefficient matrix ordered by degree
    descending; every achievable delta is the degree of some pivot row.
    The verification checks z^d L ∩ L = {0} exactly for
    n0 <= d <= n0 + 3 and probes d = n0 - 1 for a counterexample.  Each
    check is decided by a rank; a null vector is built only for the
    counterexample, when there is one.
    """
    basis, deltas, den, k = _reduced_basis(generators)
    delta_plus = max(deltas) - den.degree
    delta_minus = min(deltas) - den.degree
    n0 = delta_plus - delta_minus + 1

    verified = []
    for d in range(n0, n0 + 4):
        if _meets(basis, d):
            raise DomainError(f"n0 verification failed: z^{d} L ∩ L is nonzero")
        verified.append(d)
    counter = None
    if n0 >= 2 and _meets(basis, n0 - 1):
        counter = _monomial_intersection(basis, n0 - 1, den, k)
    return DegreeBoundReport(
        delta_plus,
        delta_minus,
        n0,
        tuple(verified),
        (n0 - 1) if counter is not None else None,
        counter,
    )


def _shifted_system(basis, d: int):
    """The basis shifted by z^d, then the basis itself, as coefficient
    dicts, and the sorted monomials that occur in them."""
    vecs = [{(e + d, j): c for (e, j), c in v.items()} for v in basis] + basis
    return vecs, sorted(set().union(*vecs))


def _meets(basis, d: int) -> bool:
    """Whether z^d L ∩ L is nonzero, for ``basis`` a reduced basis of D L.

    Both halves of the shifted system are independent (see
    ``_monomial_intersection``), so the 2r vectors are dependent, i.e. of
    rank below 2r, exactly when the intersection is nonzero.  The rank is
    one forward elimination on the vectors as integer rows.
    """
    vecs, monomials = _shifted_system(basis, d)
    rows = [[v.get(m, 0) for m in monomials] for v in vecs]
    return RationalMatrix._from_ints(rows, 1).rank() < len(vecs)


def _monomial_intersection(basis, d: int, den: Poly, k: int):
    """A nonzero element of z^d L ∩ L (as an element of L), or None.

    ``basis`` is a reduced basis of D L as coefficient dicts.  The columns of
    the system are the basis shifted by z^d, then the basis itself; null
    vectors mix them to zero, i.e. give intersections.  Both halves are
    independent, so every null vector has a nonzero shifted part, and the
    first one is returned, divided by D.
    """
    vecs, monomials = _shifted_system(basis, d)
    shifted = vecs[: len(basis)]
    # one row per monomial that occurs: the null space ignores row order
    null = RationalMatrix._from_ints([[v.get(m, 0) for v in vecs] for m in monomials], 1).nullspace()
    if not null:
        return None
    out = {}
    for c, v in zip(null[0], shifted):
        for mono, a in v.items():
            out[mono] = out.get(mono, 0) + c * a
    coeffs = [[0] * (max(e for e, _ in out) + 1) for _ in range(k)]
    for (e, j), c in out.items():
        coeffs[j][e] = c
    return GradedVector([RationalFunction(Poly(cs), den) for cs in coeffs])


def monomial_intersection(generators, d: int):
    """A nonzero element of z^d L ∩ L for L = span(generators), or None.

    Exact: reduces to a rational null-space computation after clearing the
    common denominator (which rescales both sides identically).  ``d`` must
    be nonnegative.
    """
    if d < 0:
        raise InputError(f"monomial degree must be >= 0, got {d}")
    basis, _, den, k = _reduced_basis(generators)
    return _monomial_intersection(basis, d, den, k)


def random_rational_function(rng, max_deg: int) -> RationalFunction:
    """num/den with integer coefficients drawn uniformly from -9..9."""
    num = Poly([int(rng.integers(-9, 10)) for _ in range(max_deg + 1)])
    den = Poly()
    while den.is_zero():
        den = Poly([int(rng.integers(-9, 10)) for _ in range(max_deg + 1)])
    if num.is_zero():
        num = Poly.one()
    return RationalFunction(num, den)


def random_graded_vector(rng, k: int, max_deg: int) -> GradedVector:
    comps = [random_rational_function(rng, max_deg) for _ in range(k)]
    return GradedVector(comps)
