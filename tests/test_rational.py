"""Exact arithmetic kernel tests."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shiftlab.errors import DomainError, InputError
from shiftlab.rational import NEG_INF, Poly, RationalFunction, RationalMatrix, _nearest_ratio


def test_poly_basic_arithmetic():
    p = Poly([1, 2])  # 1 + 2z
    q = Poly([0, 0, 3])  # 3z^2
    assert (p + q).coeffs == (Fraction(1), Fraction(2), Fraction(3))
    assert (p * q).coeffs == (Fraction(0), Fraction(0), Fraction(3), Fraction(6))
    assert (p - p).is_zero()
    assert p.degree == 1 and q.degree == 2
    assert Poly().degree == NEG_INF


def test_poly_divmod_and_gcd():
    a = Poly([-1, 0, 1])  # z^2 - 1
    b = Poly([1, 1])  # z + 1
    quot, rem = a.divmod(b)
    assert quot == Poly([-1, 1]) and rem.is_zero()
    g = a.gcd(Poly([-1, 1]))
    assert g == Poly([-1, 1])  # monic gcd z - 1
    with pytest.raises(DomainError):
        a.divmod(Poly())


def test_poly_eval():
    p = Poly([1, 0, Fraction(1, 2)])
    assert p(2) == Fraction(3)


def test_rational_function_reduction_and_canonical_denominator():
    r = RationalFunction(Poly([0, 2, 2]), Poly([0, 2]))  # (2z^2+2z)/2z = z+1
    assert r.num == Poly([1, 1]) and r.den == Poly.one()
    r2 = RationalFunction(Poly([1]), Poly([2, 2]))  # 1/(2z+2) -> (1/2)/(z+1)
    assert r2.den == Poly([1, 1])
    assert r2.num == Poly([Fraction(1, 2)])


def test_rational_function_field_ops():
    z = RationalFunction(Poly.monomial(1))
    one = RationalFunction.one()
    r = (one + z) / z
    assert r.degree == 0
    assert (r * z) == one + z
    assert (z - z).is_zero()
    assert (one / (one + z)).degree == -1
    with pytest.raises(DomainError):
        one / RationalFunction.zero()


def test_rational_matrix_det_matches_cofactors():
    m = RationalMatrix([[1, Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 6)]])
    assert m.det() == Fraction(-1, 12)
    assert RationalMatrix([[1]]).det() == 1
    singular = RationalMatrix([[1, 2], [2, 4]])
    assert singular.det() == 0


def test_rational_matrix_det_multiplicative_on_random():
    rng = np.random.default_rng(0)
    for _ in range(5):
        a = RationalMatrix(
            [[Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5))) for _ in range(5)] for _ in range(5)]
        )
        b = RationalMatrix(
            [[Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5))) for _ in range(5)] for _ in range(5)]
        )
        assert (a @ b).det() == a.det() * b.det()


def test_rational_matrix_inverse():
    m = RationalMatrix([[2, 1], [1, 1]])
    inv = m.inv()
    assert m @ inv == RationalMatrix.identity(2)


def test_rational_matrix_nullspace():
    m = RationalMatrix([[1, 2, 3], [2, 4, 6]])
    basis = m.nullspace()
    assert len(basis) == 2
    for v in basis:
        assert all(x == 0 for x in m @ v)


def test_rational_matrix_shape_errors():
    with pytest.raises(InputError):
        RationalMatrix([[1, 2], [3]])
    with pytest.raises(InputError):
        RationalMatrix([[1]]) @ RationalMatrix([[1, 2], [3, 4]])


def test_rational_matrix_accepts_numpy_integers():
    m = RationalMatrix([[np.int64(1), np.int32(-2)], [np.uint8(3), 4]])
    assert m == RationalMatrix([[1, -2], [3, 4]])
    assert all(type(x) is Fraction for row in m.data for x in row)
    with pytest.raises(InputError):
        RationalMatrix([[np.float64(1.0)]])


def test_rational_matrix_pow():
    s = RationalMatrix([[0, 1], [0, 0]])
    assert s.pow(0) == RationalMatrix.identity(2)
    assert s.pow(1) == s
    assert s.pow(2).is_zero()


# Products clear denominators to integers; these compare them with the plain
# Fraction sum of products on zero rows, negative entries, non-square shapes
# and large coprime denominators.
_entries = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    st.builds(
        Fraction, st.integers(-(10**20), 10**20), st.sampled_from((2**61 - 1, 10**9 + 7, 998244353))
    ),
)
_dims = st.integers(1, 5)


@st.composite
def _matrix(draw, rows, cols):
    data = [draw(st.lists(_entries, min_size=cols, max_size=cols)) for _ in range(rows)]
    for i in draw(st.sets(st.integers(0, rows - 1), max_size=rows)):
        data[i] = [Fraction(0)] * cols
    return data


def _reference_product(a, b):
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


@settings(max_examples=40, deadline=None)
@given(st.tuples(_dims, _dims, _dims).flatmap(lambda s: st.tuples(_matrix(s[0], s[1]), _matrix(s[1], s[2]))))
def test_matmul_matches_fraction_reference(ab):
    a, b = ab
    assert (RationalMatrix(a) @ RationalMatrix(b)).data == tuple(
        tuple(row) for row in _reference_product(a, b)
    )


@settings(max_examples=40, deadline=None)
@given(st.tuples(_dims, _dims).flatmap(lambda s: st.tuples(_matrix(s[0], s[1]), _matrix(1, s[1]))))
def test_matvec_matches_fraction_reference(av):
    a, (v,) = av
    out = RationalMatrix(a) @ v
    assert all(isinstance(x, Fraction) for x in out)
    assert out == [row[0] for row in _reference_product(a, [[x] for x in v])]


@settings(max_examples=25, deadline=None)
@given(_dims.flatmap(lambda n: _matrix(n, n)), st.integers(0, 5))
def test_pow_matches_fraction_reference(a, power):
    expected = [[Fraction(int(i == j)) for j in range(len(a))] for i in range(len(a))]
    for _ in range(power):
        expected = _reference_product(expected, a)
    assert RationalMatrix(a).pow(power).data == tuple(tuple(row) for row in expected)


# The public surface against plain tuples of Fractions: every entry that
# leaves the matrix is a Fraction, and equality and hashing are those of
# the Fraction rows, however the matrix was built.
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_public_surface_matches_fraction_tuples(data):
    rows, cols = data.draw(_dims), data.draw(_dims)
    a, b = data.draw(_matrix(rows, cols)), data.draw(_matrix(rows, cols))
    s = data.draw(st.one_of(_entries, st.integers(-(10**12), 10**12)))
    ra, rb = (tuple(tuple(row) for row in x) for x in (a, b))
    ma, mb = RationalMatrix(a), RationalMatrix(b)
    assert ma.data == ra and _all_fractions(ma.data)
    assert (ma.rows, ma.cols) == (rows, cols)
    assert all(
        ma[i, j] == a[i][j] and type(ma[i, j]) is Fraction for i in range(rows) for j in range(cols)
    )
    assert hash(ma) == hash(ra) and hash(RationalMatrix(ra)) == hash(ma)
    assert (ma == mb) == (ra == rb) and ma == RationalMatrix(ra)
    assert ma.is_zero() == all(x == 0 for row in a for x in row)
    num, den = ma.cleared()
    assert den > 0 and math.gcd(den, *(x for row in num for x in row)) == 1
    assert all(type(x) is int for row in num for x in row)
    assert tuple(tuple(Fraction(x, den) for x in row) for row in num) == ra
    for got, want in (
        (ma + mb, [[x + y for x, y in zip(p, q)] for p, q in zip(a, b)]),
        (ma - mb, [[x - y for x, y in zip(p, q)] for p, q in zip(a, b)]),
        (ma * s, [[x * s for x in row] for row in a]),
        (s * ma, [[s * x for x in row] for row in a]),
        (ma.transpose(), [list(col) for col in zip(*a)]),
    ):
        assert got.data == tuple(tuple(row) for row in want) and _all_fractions(got.data)
        assert hash(got) == hash(got.data)
    c = data.draw(_matrix(cols, data.draw(_dims)))
    prod = ma @ RationalMatrix(c)
    assert prod.data == tuple(tuple(row) for row in _reference_product(a, c))
    assert _all_fractions(prod.data) and hash(prod) == hash(prod.data)
    v = [row[0] for row in c]
    vec = ma @ v
    assert vec == [row[0] for row in _reference_product(a, [[x] for x in v])] and _all_fractions([vec])
    if rows == cols:
        assert ma.det() == _reference_det(a) and type(ma.det()) is Fraction


# (I + cS)^j with S the unit superdiagonal has entry C(j, k) c^k on the k-th
# superdiagonal: a check of pow far beyond the hypothesis powers above,
# where numerators and denominators grow to hundreds of digits.
@pytest.mark.parametrize("j", [0, 1, 2, 3, 64, 1024])
@pytest.mark.parametrize("c", [Fraction(1), Fraction(-3, 7), Fraction(10**9 + 7, 2**61 - 1)])
def test_pow_of_unipotent_matches_binomials(j, c):
    for dim in (1, 2, 6):
        step = RationalMatrix(
            [[1 if q == p else c if q == p + 1 else 0 for q in range(dim)] for p in range(dim)]
        )
        want = tuple(
            tuple(math.comb(j, q - p) * c ** (q - p) if q >= p else Fraction(0) for q in range(dim))
            for p in range(dim)
        )
        got = step.pow(j)
        assert got.data == want and _all_fractions(got.data)
        assert hash(got) == hash(want)


def test_equal_matrices_built_differently_are_equal():
    a = RationalMatrix([[Fraction(1, 3), Fraction(-5, 6)], [0, Fraction(7, 4)]])
    zeros = RationalMatrix.zeros(2, 2)
    assert (a * 2) * Fraction(1, 2) == a and hash((a * 2) * Fraction(1, 2)) == hash(a)
    assert a - a == zeros and hash(a - a) == hash(zeros) and (a - a).is_zero()
    # the same entries over the denominators 6, 12 and 1
    sixths = RationalMatrix([[Fraction(1, 2), Fraction(1, 3)]]) * 6
    twelfths = RationalMatrix([[Fraction(5, 12), Fraction(1, 6)]]) @ RationalMatrix([[Fraction(36, 5), 0], [0, 12]])
    whole = RationalMatrix([[3, 2]])
    assert sixths == twelfths == whole
    assert hash(sixths) == hash(twelfths) == hash(whole) == hash(((3, 2),))
    assert sixths.data == ((Fraction(3), Fraction(2)),)
    assert sixths.cleared() == twelfths.cleared() == (((3, 2),), 1)
    assert a.cleared() == (((4, -10), (0, 21)), 12)
    assert RationalMatrix([[Fraction(2, 4)]]) @ RationalMatrix([[2]]) == RationalMatrix.identity(1)


# det, inv and rref answer the same questions (is A singular, what is its
# inverse, which rows reduce away); these tie their answers together.
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_det_is_zero_exactly_when_inv_raises(data):
    n = data.draw(_dims)
    a = data.draw(_matrix(n, n))
    dependent = n > 1 and data.draw(st.booleans())
    if dependent:  # last row a combination of the others, none of them zero
        coeffs = data.draw(st.lists(_entries, min_size=n - 1, max_size=n - 1))
        a[-1] = [sum((c * row[j] for c, row in zip(coeffs, a)), Fraction(0)) for j in range(n)]
    m = RationalMatrix(a)
    if m.det() == 0:
        with pytest.raises(DomainError):
            m.inv()
    else:
        assert not dependent
        inv = m.inv()
        assert m @ inv == inv @ m == RationalMatrix.identity(n)


@st.composite
def _invertible(draw, n):
    """P = Q L U with Q a permutation, L unit lower and U upper triangular
    with a nonzero diagonal, so det P != 0 by construction."""
    nonzero = _entries.filter(lambda x: x != 0)
    low = [[draw(_entries) if j < i else Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    up = [
        [draw(nonzero) if j == i else draw(_entries) if j > i else Fraction(0) for j in range(n)]
        for i in range(n)
    ]
    perm = draw(st.permutations(range(n)))
    q = [[Fraction(int(j == perm[i])) for j in range(n)] for i in range(n)]
    return RationalMatrix(q) @ RationalMatrix(low) @ RationalMatrix(up)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_rref_is_invariant_under_invertible_row_operations(data):
    rows, cols = data.draw(_dims), data.draw(_dims)
    a = RationalMatrix(data.draw(_matrix(rows, cols)))
    p = data.draw(_invertible(rows))
    assert p.det() != 0
    assert (p @ a).rref() == a.rref()


# Reference eliminations: a Fraction Gauss-Jordan (pivot on the first nonzero
# entry of each column, normalise the pivot row, clear every other row) and
# integer Bareiss on rows cleared to their lcm denominator.  rref, rank,
# nullspace, inv and det must give exactly what these give.
def _reference_rref(data):
    m = [list(row) for row in data]
    pivots, r = [], 0
    for c in range(len(m[0])):
        if r == len(m):
            break
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def _reference_det(data):
    n = len(data)
    dens = [math.lcm(*(x.denominator for x in row)) for row in data]
    m = [[x.numerator * (d // x.denominator) for x in row] for row, d in zip(data, dens)]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return Fraction(0)
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return Fraction(sign * m[n - 1][n - 1], math.prod(dens))


def _reference_nullspace(data):
    red, pivots = _reference_rref(data)
    basis = []
    for fc in (c for c in range(len(data[0])) if c not in pivots):
        v = [Fraction(0)] * len(data[0])
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def _reference_inv(data):
    n = len(data)
    red, pivots = _reference_rref(
        [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(data)]
    )
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]


def _all_fractions(rows):
    return all(type(x) is Fraction for row in rows for x in row)


@st.composite
def _elimination_case(draw):
    """A matrix with 1xn and nx1 shapes, zero rows and columns, rows that are
    combinations of earlier rows (rank deficiency)."""
    rows, cols = draw(st.sampled_from(((1, None), (None, 1), (None, None))))
    rows = rows or draw(_dims)
    cols = cols or draw(_dims)
    a = draw(_matrix(rows, cols))
    for j in draw(st.sets(st.integers(0, cols - 1), max_size=cols)):
        for row in a:
            row[j] = Fraction(0)
    for i in draw(st.sets(st.integers(1, rows - 1), max_size=rows - 1)) if rows > 1 else ():
        coeffs = draw(st.lists(_entries, min_size=i, max_size=i))
        a[i] = [sum((c * a[r][j] for r, c in enumerate(coeffs)), Fraction(0)) for j in range(cols)]
    return a


@settings(max_examples=150, deadline=None)
@given(_elimination_case())
def test_eliminations_match_fraction_references(a):
    m = RationalMatrix(a)
    red, pivots = m.rref()
    ref_red, ref_pivots = _reference_rref(a)
    assert pivots == ref_pivots
    assert red.data == tuple(tuple(row) for row in ref_red)
    assert _all_fractions(red.data)
    assert m.rank() == len(ref_pivots)
    null = m.nullspace()
    assert null == _reference_nullspace(a) and _all_fractions(null)
    if len(a) == len(a[0]):
        assert type(m.det()) is Fraction and m.det() == _reference_det(a)
        ref_inv = _reference_inv(a)
        if ref_inv is None:
            with pytest.raises(DomainError):
                m.inv()
        else:
            assert m.inv().data == tuple(tuple(row) for row in ref_inv)


# The integer null-space kernel: rows over ``last`` are nullspace()'s
# vectors, in order, and null vectors on the integers themselves.
@settings(max_examples=80, deadline=None)
@given(_elimination_case())
def test_integer_null_space_is_nullspace_over_last(a):
    m = RationalMatrix(a)
    rows, last = m._null_ints()
    assert type(last) is int and last != 0
    assert all(type(x) is int and len(row) == m.cols for row in rows for x in row)
    assert [[Fraction(x, last) for x in row] for row in rows] == m.nullspace()
    assert m.nullspace() == _reference_nullspace(a)
    assert all(not any(m._matvec(row, 1)[0]) for row in rows)


def test_integer_null_space_of_full_rank_and_zero_matrices():
    assert RationalMatrix([[2, 1], [Fraction(1, 3), 1]])._null_ints()[0] == []
    assert RationalMatrix([[1, 2, 3]]).transpose()._null_ints()[0] == []
    rows, last = RationalMatrix.zeros(2, 3)._null_ints()
    assert last == 1 and rows == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


# One matrix however its entries arrive: Python ints (taken as they are),
# Fractions, decimal strings, bools and numpy integers, mixed in one row.
_mixed_entries = st.one_of(st.integers(-(10**20), 10**20).map(Fraction), _entries)


def _spellings(x):
    """The ways an exact entry equal to the Fraction ``x`` may be given."""
    out = [x, str(x)]
    if x.denominator == 1:
        n = int(x)
        out.append(n)
        if -(2**63) <= n < 2**63:
            out.append(np.int64(n))
        if n in (0, 1):
            out.append(bool(n))
    return st.sampled_from(out)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_construction_is_independent_of_entry_types(data):
    rows, cols = data.draw(_dims), data.draw(_dims)
    a = [data.draw(st.lists(_mixed_entries, min_size=cols, max_size=cols)) for _ in range(rows)]
    spelled = [[data.draw(_spellings(x)) for x in row] for row in a]
    m, ref = RationalMatrix(spelled), RationalMatrix(a)
    assert m == ref and m.cleared() == ref.cleared() and hash(m) == hash(ref)
    assert m.data == tuple(tuple(row) for row in a) and _all_fractions(m.data)
    at = (data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, cols - 1)))
    spelled[at[0]][at[1]] = float(a[at[0]][at[1]])
    with pytest.raises(InputError):
        RationalMatrix(spelled)


# field laws of Poly and RationalFunction, over small rational coefficients
_coeff = st.fractions(min_value=-20, max_value=20, max_denominator=12)
_polys = st.lists(_coeff, max_size=5).map(Poly)
_nonzero_polys = _polys.filter(lambda p: not p.is_zero())
_rational_functions = st.builds(RationalFunction, _polys, _nonzero_polys)


@settings(max_examples=150, deadline=None)
@given(_polys, _polys, _polys)
def test_poly_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a - b) + b == a
    assert all(type(x) is Fraction for x in (a * b + c).coeffs)


@settings(max_examples=150, deadline=None)
@given(_polys, _nonzero_polys)
def test_poly_divmod_reconstructs(a, b):
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.degree < b.degree
    assert a // b == q and a % b == r


@settings(max_examples=150, deadline=None)
@given(_polys, _polys, _polys)
def test_poly_gcd_divides_both_and_is_monic(a, b, c):
    # a common factor c makes a nontrivial gcd likely
    a, b = a * c, b * c
    g = a.gcd(b)
    if a.is_zero() and b.is_zero():
        assert g.is_zero()
        return
    assert g.coeffs[-1] == 1
    assert (a % g).is_zero() and (b % g).is_zero()
    if not c.is_zero():
        assert (g % c).is_zero()


@settings(max_examples=100, deadline=None)
@given(_polys, _nonzero_polys)
def test_rational_function_is_reduced_with_monic_denominator(num, den):
    rf = RationalFunction(num, den)
    assert rf.den.coeffs[-1] == 1
    assert rf.num.gcd(rf.den) == Poly.one()
    assert rf.num * den == num * rf.den
    if num.is_zero():
        assert rf.num.is_zero() and rf.den == Poly.one()


@settings(max_examples=60, deadline=None)
@given(_rational_functions, _rational_functions, _rational_functions)
def test_rational_function_field_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a - b) + b == a
    if not a.is_zero():
        assert (b / a) * a == b
    for rf in (a + b, a * b, a - c):
        assert rf.den.coeffs[-1] == 1 and rf.num.gcd(rf.den) == Poly.one()


# A pure-Fraction reference for Poly: the coefficient-tuple algorithms on
# tuples of Fractions (ascending degree, no trailing zeros), written without
# Poly so that a change of Poly's storage is checked against them.
def _ref_trim(cs):
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _ref_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _ref_trim(out)


def _ref_neg(a):
    return tuple(-c for c in a)


def _ref_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref_trim(out)


def _ref_pow(a, n):
    out = (Fraction(1),)
    for _ in range(n):
        out = _ref_mul(out, a)
    return out


def _ref_divmod(a, b):
    dq = len(a) - len(b)
    if dq < 0:
        return (), a
    rem, quot = list(a), [Fraction(0)] * (dq + 1)
    for k in range(dq, -1, -1):
        c = rem[k + len(b) - 1] / b[-1]
        quot[k] = c
        for j, y in enumerate(b):
            rem[k + j] -= c * y
    return _ref_trim(quot), _ref_trim(rem)


def _ref_gcd(a, b):
    while b:
        a, b = b, _ref_divmod(a, b)[1]
    return tuple(c / a[-1] for c in a) if a else a


def _ref_call(a, x):
    out = 0
    for c in reversed(a):
        out = out * x + c
    return out


def _ref_rational_function(num, den):
    """(num, den) reduced by the monic gcd, the denominator made monic."""
    if not num:
        return (), (Fraction(1),)
    g = _ref_gcd(num, den)
    num, den = _ref_divmod(num, g)[0], _ref_divmod(den, g)[0]
    return tuple(c / den[-1] for c in num), tuple(c / den[-1] for c in den)


_ref_coeffs = st.lists(_entries, max_size=5).map(_ref_trim)
_scalars = st.one_of(_entries, st.integers(-(10**12), 10**12))


def _fraction_tuple(p):
    return type(p.coeffs) is tuple and all(type(c) is Fraction for c in p.coeffs)


@settings(max_examples=200, deadline=None)
@given(_ref_coeffs, _ref_coeffs, _scalars, st.integers(0, 4))
@example((), (), 0, 0)  # zero polynomials
@example((Fraction(3),), (Fraction(-2, 7),), Fraction(5, 3), 3)  # constants
@example((Fraction(1), Fraction(-5, 3)), (Fraction(2), Fraction(0), Fraction(-7, 4)), -2, 2)
@example((Fraction(1, 2), Fraction(-3)), (Fraction(0), Fraction(1), Fraction(9, 10)), 1, 1)
def test_poly_operations_match_fraction_reference(a, b, s, n):
    pa, pb = Poly(a), Poly(b)
    assert pa.coeffs == a and _fraction_tuple(pa)
    sc = _ref_trim([s])
    for got, want in (
        (pa + pb, _ref_add(a, b)),
        (pa - pb, _ref_add(a, _ref_neg(b))),
        (-pa, _ref_neg(a)),
        (pa * pb, _ref_mul(a, b)),
        (pa + s, _ref_add(a, sc)),
        (s + pa, _ref_add(sc, a)),
        (s - pa, _ref_add(sc, _ref_neg(a))),
        (pa * s, _ref_mul(a, sc)),
        (s * pa, _ref_mul(sc, a)),
        (pa**n, _ref_pow(a, n)),
        (pa.gcd(pb), _ref_gcd(a, b)),
        (pb.gcd(pa), _ref_gcd(b, a)),
    ):
        assert got.coeffs == want and _fraction_tuple(got)
    if b:
        q, r = pa.divmod(pb)
        assert (q.coeffs, r.coeffs) == _ref_divmod(a, b)
        assert _fraction_tuple(q) and _fraction_tuple(r)
        assert (pa // pb).coeffs == q.coeffs and (pa % pb).coeffs == r.coeffs
        rf = RationalFunction(pa, pb)
        assert (rf.num.coeffs, rf.den.coeffs) == _ref_rational_function(a, b)
        assert _fraction_tuple(rf.num) and _fraction_tuple(rf.den)
    else:
        with pytest.raises(DomainError):
            pa.divmod(pb)
    for x in (s, Fraction(s) / 7, 0, -1):
        got, want = pa(x), _ref_call(a, x)
        assert got == want and type(got) is type(want)
    if a:
        assert pa.degree == len(a) - 1
    else:
        assert pa.degree == NEG_INF and pa.is_zero()
    assert (pa == pb) == (a == b)
    if len(a) <= 1:
        assert pa == (a[0] if a else 0)


def test_constant_poly_and_rational_function_hash_as_their_value():
    for value in (0, 2, -7, Fraction(3, 4), Fraction(-5, 2)):
        p, rf = Poly([value]), RationalFunction(Poly([value]))
        assert p == value and rf == value and rf == p
        assert hash(p) == hash(value) == hash(rf)
        assert len({p, rf, value}) == 1
    assert hash(Poly()) == hash(0) == hash(RationalFunction.zero())
    assert len({Poly([2]), 2, Fraction(2)}) == 1
    z = Poly([1, 1])
    assert RationalFunction(z) == z and hash(RationalFunction(z)) == hash(z)
    assert len({z, RationalFunction(z), RationalFunction(z * 3, Poly([3]))}) == 1


@settings(max_examples=100, deadline=None)
@given(_polys, _nonzero_polys, _polys, _nonzero_polys)
def test_equal_poly_and_rational_function_hash_equal(a, b, c, d):
    for x, y in ((a, c), (a * b, c * b), (a, a * (b // b))):
        assert (x == y) <= (hash(x) == hash(y))
    r, s = RationalFunction(a, b), RationalFunction(a * d, b * d)
    assert r == s and hash(r) == hash(s)
    if r.den == Poly.one():
        assert r == r.num and hash(r) == hash(r.num)


def test_rational_function_equality_with_foreign_operands_is_false():
    rf = RationalFunction(Poly([1, 1]))
    for other in (None, 1.5, "x", [1, 1], (1, 1), object()):
        assert (rf == other) is False
        assert (rf != other) is True
        assert (other == rf) is False
    assert rf == Poly([1, 1]) and RationalFunction(Poly([2])) == 2
    assert RationalFunction(Poly([1]), Poly([2])) == Fraction(1, 2)


_dyadics = st.builds(lambda k, m: k / 2**m, st.integers(-(2**12), 2**12), st.integers(0, 12))


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(st.floats(allow_nan=False, allow_infinity=False), _dyadics),
    st.one_of(st.integers(1, 64), st.just(2**20)),
)
@example(0.0, 1)
@example(0.0, 2**20)
@example(0.375, 8)  # the denominator is already within the bound
@example(-0.6, 2**20)
@example(0.5, 1)  # 0 and 1 tie
@example(0.25, 2)  # 0 and 1/2 tie
@example(-0.5, 1)  # -1 and 0 tie
def test_nearest_ratio_is_limit_denominator(x, max_den):
    f = Fraction(x).limit_denominator(max_den)
    assert _nearest_ratio(x, max_den) == (f.numerator, f.denominator)


def test_nearest_ratio_keeps_the_convergent_on_a_tie():
    # every dyadic k/2^6 in [-1, 1] at every bound up to 64; x is a tie when
    # the mirror 2x - p/q of the answer is as near and no larger in
    # denominator, and limit_denominator then keeps the convergent
    ties = 0
    for max_den in range(1, 65):
        for k in range(-64, 65):
            x = k / 64
            f = Fraction(x).limit_denominator(max_den)
            assert _nearest_ratio(x, max_den) == (f.numerator, f.denominator)
            mirror = 2 * Fraction(x) - f
            ties += mirror != f and mirror.denominator <= max_den
    assert ties > 0
