"""Exact arithmetic kernel tests."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab.errors import DomainError, InputError
from shiftlab.rational import NEG_INF, Poly, RationalFunction, RationalMatrix


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


def test_poly_eval_and_derivative():
    p = Poly([1, 0, Fraction(1, 2)])
    assert p(2) == Fraction(3)
    assert p.derivative() == Poly([0, 1])
    assert Poly([5]).derivative().is_zero()


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


def test_rational_matrix_inverse_and_solve():
    m = RationalMatrix([[2, 1], [1, 1]])
    inv = m.inv()
    assert m @ inv == RationalMatrix.identity(2)
    x = m.solve([3, 2])
    assert x == [Fraction(1), Fraction(1)]
    inconsistent = RationalMatrix([[1, 1], [1, 1]])
    assert inconsistent.solve([0, 1]) is None


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


# solve: every returned vector is checked by a product, every None by a left
# null vector y with y A = 0 and y . b != 0, so neither verdict rests on rref.
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_solve_agrees_with_products(data):
    rows, cols = data.draw(_dims), data.draw(_dims)
    a = data.draw(_matrix(rows, cols))
    if data.draw(st.booleans()):  # zero columns, so some variables are free
        a = [list(col) for col in zip(*data.draw(_matrix(cols, rows)))]
    m = RationalMatrix(a)
    built_in_span = data.draw(st.booleans())
    if built_in_span:
        b = m @ data.draw(st.lists(_entries, min_size=cols, max_size=cols))
    else:
        b = data.draw(st.lists(_entries, min_size=rows, max_size=rows))
    x = m.solve(b)
    if x is None:
        assert not built_in_span
        left_null = m.transpose().nullspace()
        assert all(m.transpose() @ y == [0] * cols for y in left_null)
        assert any(sum(yi * bi for yi, bi in zip(y, b)) != 0 for y in left_null)
    else:
        assert m @ x == b
        _, pivots = m.rref()
        assert all(x[c] == 0 for c in range(cols) if c not in pivots)


# det, inv and rref each eliminate on their own; these tie them together.
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
