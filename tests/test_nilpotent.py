"""Approach-pair solvers and the exact determinant machinery."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab.errors import DomainError, InputError, PreconditionError
from shiftlab.nilpotent import (
    TensorShiftTuple,
    _an1_inverse,
    _approach_map,
    _head_cross_terms,
    _head_residual,
    _jordan_ints,
    _squared_distance,
    _similarity_j_inverse,
    backward_shift,
    backward_shift_exact,
    build_anz_exact,
    build_mnk_exact,
    det_mnk,
    det_mnk_recurrence,
    discrete_pair,
    discrete_pair_errors_exact,
    exp_shift_exact,
    jordan_residuals_exact,
    jordan_solve,
    jordan_solve_exact,
    scaling_dnz_exact,
    similarity_j,
    tensor_approach,
    tensor_approach_residuals,
    unimodular_approach,
    unimodular_residuals,
)
from shiftlab.rational import RationalMatrix, _as_fraction


class TestBuildAnz:
    def test_single_entry(self):
        assert build_anz_exact(1, 3).data == ((Fraction(3),),)

    def test_n2_z1_and_determinant(self):
        exact = build_anz_exact(2, 1)
        assert exact.data == (
            (Fraction(1), Fraction(1, 2)),
            (Fraction(1, 2), Fraction(1, 6)),
        )
        assert exact.det() == Fraction(-1, 12)

    def test_zero_z_rejected(self):
        with pytest.raises(DomainError):
            build_anz_exact(2, 0)

    def test_scaling_factorization_exact(self):
        for n in range(1, 7):
            for z in (Fraction(2), Fraction(-3), Fraction(1, 2)):
                anz = build_anz_exact(n, z)
                d = scaling_dnz_exact(n, z)
                assert anz == (d @ build_anz_exact(n, 1) @ d) * z

    def test_nonzero_determinant_exact(self):
        for n in range(1, 9):
            assert build_anz_exact(n, Fraction(3, 2)).det() != 0


def _reference_mnk(n, k):
    """M_{n,k} from one Fraction per entry: (k+n-l)!/(k+n-l+j-1)! at 1-based
    row j, column l."""
    return RationalMatrix(
        [
            [
                Fraction(math.factorial(k + n - ll), math.factorial(k + n - ll + j - 1))
                for ll in range(1, n + 1)
            ]
            for j in range(1, n + 1)
        ]
    )


class TestDetMnk:
    def test_matrix_and_det_match_the_fraction_build(self):
        for n in range(1, 11):
            for k in range(1, 11):
                got, want = build_mnk_exact(n, k), _reference_mnk(n, k)
                assert got == want and got.data == want.data
                assert got.det() == want.det()

    def test_base_case(self):
        for k in (1, 3, 9):
            assert det_mnk_recurrence(1, k) == 1

    def test_n2_k1(self):
        rec, direct = det_mnk(2, 1)
        assert rec == Fraction(1, 6) == direct

    def test_recurrence_equals_direct_sweep(self):
        for n in range(1, 9):
            for k in range(1, 9):
                rec, direct = det_mnk(n, k)
                assert rec == direct


class TestJordanSolve:
    def test_n1_closed_form(self):
        x = jordan_solve(1, 4.0, [1.0], [0.0])
        assert np.allclose(x, [1.0, -0.25])
        ez = np.eye(2) + 4.0 * backward_shift(2)
        assert np.allclose((ez @ x), [0.0, -0.25])

    def test_exact_residuals_vanish(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 3, 5):
            u = [Fraction(x).limit_denominator(997) for x in rng.uniform(0, 1, n)]
            v = [Fraction(x).limit_denominator(997) for x in rng.uniform(0, 1, n)]
            for e in (1, 5, 10):
                x = jordan_solve_exact(n, Fraction(2) ** e, u, v)
                r1, r2 = jordan_residuals_exact(n, Fraction(2) ** e, u, v, x)
                assert r1 == 0 and r2 == 0

    def test_float_residuals_moderate_scale(self):
        # the float solve's residuals, evaluated exactly on its float entries
        rng = np.random.default_rng(1)
        for n in (2, 3):
            u = rng.uniform(0, 1, n)
            v = rng.uniform(0, 1, n)
            x = jordan_solve(n, 8.0, u, v)
            assert not np.any(x.imag)
            exact = [[Fraction(float(a)) for a in w] for w in (u, v, x.real)]
            r1, r2 = jordan_residuals_exact(n, 8, *exact)
            assert math.sqrt(max(r1, r2)) <= 1e-10

    def test_exact_consistency(self):
        # the exact-rational path reproduces the floating answer within 1e-9
        rng = np.random.default_rng(2)
        for n in (1, 3, 5):
            uq = [Fraction(x).limit_denominator(499) for x in rng.uniform(0, 1, n)]
            vq = [Fraction(x).limit_denominator(499) for x in rng.uniform(0, 1, n)]
            uf = np.array([float(a) for a in uq])
            vf = np.array([float(a) for a in vq])
            for z in (2, 32, 1024):
                xf = jordan_solve(n, float(z), uf, vf)
                xq = jordan_solve_exact(n, Fraction(z), uq, vq)
                assert np.max(np.abs(xf - np.array([float(a) for a in xq]))) <= 1e-9

    def test_tail_decay_bound(self):
        # |x_(n+j)| <= c |z|^-j with c fitted at |z| = 2 (the data point is a
        # lower estimate of the uniform constant, so a 16x margin is applied;
        # the observed worst ratio across doublings is about 9)
        rng = np.random.default_rng(3)
        for n in (2, 4):
            u = [Fraction(x).limit_denominator(499) for x in rng.uniform(0, 1, n)]
            v = [Fraction(x).limit_denominator(499) for x in rng.uniform(0, 1, n)]
            x2 = jordan_solve_exact(n, Fraction(2), u, v)
            c = 16.0 * max(abs(float(x2[n + j - 1])) * 2.0**j for j in range(1, n + 1))
            for e in range(2, 11):
                z = Fraction(2) ** e
                x = jordan_solve_exact(n, z, u, v)
                for j in range(1, n + 1):
                    assert abs(float(x[n + j - 1])) <= c * float(z) ** (-j)

    def test_zero_z_rejected(self):
        with pytest.raises(DomainError):
            jordan_solve(2, 0.0, [1.0, 0.0], [0.0, 0.0])

    def test_head_support_enforced(self):
        with pytest.raises(InputError):
            jordan_solve(2, 2.0, [1.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0])


# today's Fraction formulas, kept here as references for the exact solve:
# tail = A_{n,z}^{-1} (R v - H u), solved by a plain Gauss-Jordan on Fractions


def _reference_solve_linear(rows, rhs):
    m = [list(row) + [b] for row, b in zip(rows, rhs)]
    size = len(m)
    for c in range(size):
        p = next(i for i in range(c, size) if m[i][c] != 0)
        m[c], m[p] = m[p], m[c]
        m[c] = [a / m[c][c] for a in m[c]]
        for i in range(size):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return [row[-1] for row in m]


def _reference_jordan_solve_exact(n, z, u, v):
    z = Fraction(z)
    if z == 0:
        raise DomainError("the approach-pair system is singular at z = 0")
    u = [Fraction(x) for x in u]
    v = [Fraction(x) for x in v]
    if len(u) != n or len(v) != n:
        raise InputError(f"head vectors must have length {n}")
    cross = [
        sum(
            z ** (k + j - n - 1) * u[k - 1] / math.factorial(k + j - n - 1)
            for k in range(n - j + 1, n + 1)
        )
        for j in range(1, n + 1)
    ]
    w = [a - b for a, b in zip(reversed(v), cross)]
    anz = [
        [z ** (j + k - 1) / math.factorial(j + k - 1) for k in range(1, n + 1)]
        for j in range(1, n + 1)
    ]
    return u + _reference_solve_linear(anz, w)


def _reference_jordan_residuals_exact(n, z, u, v, x):
    z = Fraction(z)
    u = [Fraction(a) for a in u]
    v = [Fraction(a) for a in v]
    x = [Fraction(a) for a in x]
    ex = [
        sum(z ** (j - i) / math.factorial(j - i) * x[j] for j in range(i, 2 * n))
        for i in range(2 * n)
    ]
    r1 = sum((x[i] - u[i]) ** 2 for i in range(n))
    r2 = sum((ex[i] - v[i]) ** 2 for i in range(n))
    return r1, r2


_SOLVE_ZS = [s * Fraction(2) ** e for s in (1, -1) for e in range(-2, 11)] + [
    Fraction(-3, 7),
    Fraction(10**9, 7),
]
# a head entry as a Fraction, an int or a string
_head_entry = st.one_of(
    st.fractions(min_value=-10, max_value=10, max_denominator=2**20),
    st.integers(min_value=-1000, max_value=1000),
    st.fractions(min_value=-10, max_value=10, max_denominator=1000).map(str),
)


@st.composite
def _solve_case(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    z = draw(st.one_of(st.sampled_from(_SOLVE_ZS), st.sampled_from(_SOLVE_ZS).map(str)))
    u = draw(st.lists(_head_entry, min_size=n, max_size=n))
    v = draw(st.lists(_head_entry, min_size=n, max_size=n))
    return n, z, u, v


class TestJordanSolveExactMatchesFractionReference:
    @settings(max_examples=120, deadline=None)
    @given(_solve_case())
    def test_solution_and_residuals(self, case):
        n, z, u, v = case
        x = jordan_solve_exact(n, z, u, v)
        assert x == _reference_jordan_solve_exact(n, z, u, v)
        assert all(type(a) is Fraction for a in x)
        r = jordan_residuals_exact(n, z, u, v, x)
        assert r == (0, 0) and all(type(a) is Fraction for a in r)

    @settings(max_examples=80, deadline=None)
    @given(_solve_case(), st.integers(min_value=0), _head_entry, _head_entry)
    def test_residuals_of_a_perturbed_solution(self, case, where, head_off, tail_off):
        n, z, u, v = case
        x = list(jordan_solve_exact(n, z, u, v))
        x[where % n] += Fraction(head_off)
        x[n + where % n] -= Fraction(tail_off)
        got = jordan_residuals_exact(n, z, u, v, x)
        assert got == _reference_jordan_residuals_exact(n, z, u, v, x)
        assert all(type(a) is Fraction for a in got)
        # the residuals also take their vectors as ints and strings
        as_str = [str(a) for a in x]
        assert jordan_residuals_exact(n, str(z), u, v, as_str) == got

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_errors_match(self, n):
        good = [Fraction(1, 3)] * n
        for bad in ([], [1] * (n - 1), [1] * (n + 1)):
            for u, v in ((bad, good), (good, bad)):
                for fn in (jordan_solve_exact, _reference_jordan_solve_exact):
                    with pytest.raises(InputError):
                        fn(n, 4, u, v)
        for zero in (0, Fraction(0), "0", "-0/5"):
            for u in (good, good[:-1]):
                for fn in (jordan_solve_exact, _reference_jordan_solve_exact):
                    with pytest.raises(DomainError):
                        fn(n, zero, u, good)
        x = jordan_solve_exact(n, 4, good, good)
        for short_or_long in (x[:-1], x + [0]):
            with pytest.raises(InputError):
                jordan_residuals_exact(n, 4, good, good, short_or_long)


class TestApproachMapCache:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("z", [4, -3, 7])
    def test_an_int_z_on_a_cold_cache(self, n, z):
        # the cross terms of an int z used to divide by math.factorial into
        # floats, so the map depended on whether its Fraction came first
        _approach_map.cache_clear()
        by_int = _approach_map(n, z)
        _approach_map.cache_clear()
        by_fraction = _approach_map(n, Fraction(z))
        assert by_int == by_fraction
        assert _approach_map(n, z) is by_fraction


def _reference_approach_map(n, z):
    """A_{n,z}^-1 [-H | R] by an exact inverse of A_{n,z} at each z."""
    z = Fraction(z)
    h_cols = [_head_cross_terms(n, z, [int(i == k) for i in range(n)]) for k in range(n)]
    rhs = [[-col[j] for col in h_cols] + [int(k == n - 1 - j) for k in range(n)] for j in range(n)]
    return build_anz_exact(n, z).inv() @ RationalMatrix(rhs)


class TestApproachMapMatchesTheInverseAtEachZ:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
    def test_map(self, n):
        for z in (2, Fraction(-3, 7), 1024):
            ref = _reference_approach_map(n, z)
            got = _approach_map(n, z)
            assert got == ref
            assert got.cleared() == ref.cleared()

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
    def test_float_inverse_of_a_n1(self, n):
        want = build_anz_exact(n, 1).inv().to_float()
        assert np.array_equal(_an1_inverse(n).view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("n", range(1, 9))
def test_head_rows_of_the_exponential_give_the_head_of_the_product(n):
    """The first n rows of e^{zS} times the exact pair x are the first n
    entries of the full product, over the same denominator."""
    rng = np.random.default_rng(100 + n)
    for z in (*(2**e for e in range(1, 11)), Fraction(-3, 7)):
        heads = [int(a) for a in rng.integers(-(2**20), 2**20, 2 * n)]
        dh = int(rng.integers(1, 2**20))
        x, d = _jordan_ints(n, z, heads, dh)
        rows, de = exp_shift_exact(2 * n, z).cleared()
        head = [sum(a * b for a, b in zip(row, x)) for row in rows[:n]]
        full, dd = exp_shift_exact(2 * n, z)._matvec(x, d)
        assert (head, de * d) == (full[:n], dd)
        want = _squared_distance(full, dd, heads[n:], dh)
        assert _head_residual(n, z, x, d, heads[n:], dh) == want


def _reference_similarity_j(n):
    """J built column by column on Fractions: J e_0 = e_0, and J e_(c+1)
    is the solution x of N x = J e_c with x_0 = 0, N = e^S - I.  N is
    strictly upper triangular with a unit superdiagonal, so row i of
    N x = b fixes x_(i+1) by back substitution."""
    dim = 2 * n
    nmat = (exp_shift_exact(dim) - RationalMatrix.identity(dim)).data
    cols = [[Fraction(1)] + [Fraction(0)] * (dim - 1)]
    for _ in range(1, dim):
        b = cols[-1]
        assert b[-1] == 0  # the zero last row of N
        x = [Fraction(0)] * dim
        for i in range(dim - 2, -1, -1):
            x[i + 1] = b[i] - sum(nmat[i][c] * x[c] for c in range(i + 2, dim))
        cols.append(x)
    return RationalMatrix(list(zip(*cols)))


class TestSimilarity:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_the_column_by_column_reference(self, n):
        want = _reference_similarity_j(n)
        got = similarity_j(n)
        assert got == want and got.cleared() == want.cleared()
        inv, want_inv = _similarity_j_inverse(n), want.inv()
        assert inv == want_inv and inv.cleared() == want_inv.cleared()

    def test_identity_at_2n2(self):
        assert similarity_j(1) == RationalMatrix.identity(2)

    def test_intertwining_exact(self):
        for n in range(1, 25):
            j = similarity_j(n)
            s = backward_shift_exact(2 * n)
            lhs = j @ s
            rhs = (exp_shift_exact(2 * n) - RationalMatrix.identity(2 * n)) @ j
            assert lhs == rhs

    def test_invertible_unit_diagonal(self):
        for n in range(1, 25):
            j = similarity_j(n)
            assert all(j[i, i] == 1 for i in range(2 * n))
            assert j.det() == 1
            assert j @ _similarity_j_inverse(n) == RationalMatrix.identity(2 * n)

    def test_upper_triangular(self):
        j = similarity_j(3)
        for r in range(6):
            for c in range(r):
                assert j[r, c] == 0


class TestDiscretePair:
    def test_n1_closed_forms(self):
        for j in (2, 16, 256):
            x = discrete_pair(1, j, [1.0], [0.0])
            assert np.allclose(x, [1.0, -1.0 / j])
            r1, r2 = discrete_pair_errors_exact(1, j, [1], [0])
            assert abs(r1 - 1.0 / j) < 1e-12 and abs(r2 - 1.0 / j) < 1e-12
            y = discrete_pair(1, j, [0.0], [1.0])
            assert np.allclose(y, [0.0, 1.0 / j])

    def test_decay_with_fitted_constant(self):
        # errors <= C/j along j = 4, 8, ..., 2^12 with C fitted at j = 4
        for n in range(1, 5):
            u = [Fraction(1)] + [Fraction(0)] * (n - 1)
            v = [Fraction(0)] * n
            e1, e2 = discrete_pair_errors_exact(n, 4, u, v)
            c = 4.0 * max(e1, e2) * 1.000001
            for e in (3, 6, 9, 12):
                j = 2**e
                r1, r2 = discrete_pair_errors_exact(n, j, u, v)
                assert max(r1, r2) <= c / j

    def test_errors_monotone_beyond_threshold(self):
        u, v = [Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]
        errs = [max(discrete_pair_errors_exact(2, j, u, v)) for j in (4, 8, 16, 32, 64, 128)]
        assert all(errs[i + 1] <= errs[i] for i in range(len(errs) - 1))

    @settings(max_examples=8, deadline=None)
    @given(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=1000), min_size=6, max_size=6))
    def test_errors_exact_match_the_matrix_power_reference(self, heads):
        # the reference builds x_j with the exact inverse of J and applies
        # (I+S)^j as a matrix power; the errors must be the same floats
        def reference(n, j, u, v):
            dim = 2 * n
            jmat = similarity_j(n)
            ju = (jmat @ (u + [Fraction(0)] * n))[:n]
            jv = (jmat @ (v + [Fraction(0)] * n))[:n]
            x = jmat.inv() @ jordan_solve_exact(n, j, ju, jv)
            tx = (backward_shift_exact(dim) + RationalMatrix.identity(dim)).pow(j) @ x
            r1 = sum((x[i] - (u[i] if i < n else 0)) ** 2 for i in range(dim))
            r2 = sum((tx[i] - (v[i] if i < n else 0)) ** 2 for i in range(dim))
            return math.sqrt(float(r1)), math.sqrt(float(r2))

        for n in (1, 2, 3):
            u, v = heads[:n], heads[3 : 3 + n]
            for j in (1, 2, 4, 64, 1024):
                assert discrete_pair_errors_exact(n, j, u, v) == reference(n, j, u, v)

    def test_rejects_zero_step(self):
        with pytest.raises(InputError):
            discrete_pair(2, 0, [1.0, 0.0], [0.0, 0.0])

    @pytest.mark.parametrize("bad", [[1.0], [1.0, 0.0, 2.0], [1.0] * 5, [1.0, 0.0, 1.0, 0.0]])
    def test_rejects_head_of_wrong_length(self, bad):
        # heads have length n, or 2n and vanish past the first n coordinates
        # (as in jordan_solve); anything else is an input error
        good = [1.0, 0.0]
        for u, v in ((bad, good), (good, bad)):
            with pytest.raises(InputError):
                discrete_pair(2, 4, u, v)

    def test_full_length_heads_match_padded_heads(self):
        x = discrete_pair(2, 8, [1.0, 0.5], [0.0, 1.0])
        y = discrete_pair(2, 8, [1.0, 0.5, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0])
        assert x.tobytes() == y.tobytes()


def _reference_discrete_pair_errors_exact(n, j, u, v):
    """The Fraction evaluation of the exact pair errors: x_j through
    Fraction matrix-vector products, (I+S)^j through binomial sums of
    Fractions, each squared error a Fraction rounded once by float()."""
    if j < 1:
        raise InputError("step index j must be >= 1")
    dim = 2 * n
    u = [_as_fraction(a) for a in u]
    v = [_as_fraction(a) for a in v]
    jmat = similarity_j(n)
    ju = (jmat @ (u + [Fraction(0)] * n))[:n]
    jv = (jmat @ (v + [Fraction(0)] * n))[:n]
    x = jmat.inv() @ jordan_solve_exact(n, j, ju, jv)
    tx = [sum(math.comb(j, k) * x[i + k] for k in range(dim - i)) for i in range(dim)]
    r1 = sum((x[i] - (u[i] if i < n else 0)) ** 2 for i in range(dim))
    r2 = sum((tx[i] - (v[i] if i < n else 0)) ** 2 for i in range(dim))
    return math.sqrt(float(r1)), math.sqrt(float(r2))


_PAIR_STEPS = (1, 2, 3, 4, 64, 1024, 4096)
# a head entry: zero, a small integer, or a signed Fraction whose
# denominator may be as large as the Mersenne prime 2^61 - 1
_pair_entry = st.one_of(
    st.just(0),
    st.integers(min_value=-50, max_value=50),
    st.fractions(min_value=-20, max_value=20, max_denominator=2**61 - 1),
    st.integers(min_value=1, max_value=2**61 - 1).map(lambda d: Fraction(-1, d)),
)


@st.composite
def _pair_case(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    j = draw(st.sampled_from(_PAIR_STEPS))
    u = draw(st.lists(_pair_entry, min_size=n, max_size=n))
    v = draw(st.lists(_pair_entry, min_size=n, max_size=n))
    return n, j, u, v


class TestDiscretePairErrorsMatchFractionReference:
    @settings(max_examples=300, deadline=None)
    @given(_pair_case())
    def test_floats_equal_the_fraction_evaluation(self, case):
        n, j, u, v = case
        got = discrete_pair_errors_exact(n, j, u, v)
        want = _reference_discrete_pair_errors_exact(n, j, u, v)
        assert got == want and repr(got) == repr(want)
        assert all(type(a) is float for a in got)

    def test_golden_cases(self):
        for n in (1, 2, 3):
            for j in (4, 64, 1024):
                u, v = [Fraction(1)] + [Fraction(0)] * (n - 1), [Fraction(0)] * n
                got = discrete_pair_errors_exact(n, j, u, v)
                want = _reference_discrete_pair_errors_exact(n, j, u, v)
                assert got == want and repr(got) == repr(want)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_input_errors(self, n):
        good = [Fraction(1, 3)] * n
        bads = ([1] * (n - 1), [1] * (n + 1), [0.5] * n, [Fraction(1)] * (n - 1) + [1.0])
        for bad in bads:
            for u, v in ((bad, good), (good, bad)):
                for fn in (discrete_pair_errors_exact, _reference_discrete_pair_errors_exact):
                    with pytest.raises(InputError):
                        fn(n, 4, u, v)
        for fn in (discrete_pair_errors_exact, _reference_discrete_pair_errors_exact):
            for j in (0, -1):
                with pytest.raises(InputError):
                    fn(n, j, good, good)


class TestTensorShiftTuple:
    def test_operators_commute_exactly_and_are_nilpotent(self):
        tt = TensorShiftTuple((1, 2))
        ops = tt.operators()
        assert np.array_equal(ops[0] @ ops[1], ops[1] @ ops[0])
        for j, n in enumerate(tt.block_dims):
            assert np.linalg.norm(np.linalg.matrix_power(ops[j], 2 * n)) == 0.0
            assert np.linalg.norm(np.linalg.matrix_power(ops[j], 2 * n - 1)) > 0.0


class TestTensorApproach:
    def test_single_block_matches_jordan(self):
        tt = TensorShiftTuple((2,))
        u = np.zeros(4)
        u[0] = 1.0
        v = np.zeros(4)
        v[1] = 1.0
        m = 64
        x = tensor_approach(tt, (float(m),), {0}, u, v)
        direct = jordan_solve(2, float(m), [1.0, 0.0], [0.0, 1.0])
        assert np.allclose(x, direct, atol=1e-9)

    def test_two_blocks_diagonal_sequence(self):
        tt = TensorShiftTuple((1, 1))
        u = np.zeros(4)
        u[0] = 1.0
        prev = np.inf
        for m in (4, 16, 64, 256):
            r1, r2 = tensor_approach_residuals(tt, (float(m), float(m)), {0, 1}, u, u)
            assert max(r1, r2) < prev
            prev = max(r1, r2)
        assert prev < 1e-2

    def test_bounded_coordinate_corrected(self):
        tt = TensorShiftTuple((1, 1))
        u = np.zeros(4)
        u[0] = 1.0
        for m in (4, 64, 256):
            r1, r2 = tensor_approach_residuals(tt, (float(m), 1.0), {0}, u, u)
            assert max(r1, r2) <= 1e-10

    def test_bounded_case_against_dense_oracle(self):
        # oracle: solve the two-sided conditions directly per block
        tt = TensorShiftTuple((1, 2))
        u = np.zeros(2 * 4)
        u[0] = 1.0
        m = 128
        x = tensor_approach(tt, (1.0, float(m)), {1}, u, u)
        # block 1 bounded: factor e^{-z S} e_1 = e_1; block 2: jordan solve
        block2 = jordan_solve(2, float(m), [1.0, 0.0], [1.0, 0.0])
        oracle = np.kron(np.array([1.0, 0.0]), block2)
        assert np.allclose(x, oracle, atol=1e-9)

    def test_targets_off_the_head_rejected(self):
        # E is spanned by the head coordinates (0, 0) and (0, 1): flat 0 and 1
        tt = TensorShiftTuple((1, 2))
        z = (4.0, 4.0)
        head = np.zeros(8)
        head[1] = 1.0
        for idx in (2, 4, 7):
            off = head.copy()
            off[idx] = 1e-3
            with pytest.raises(InputError, match="head subspace E"):
                tensor_approach(tt, z, {0, 1}, off, head)
            with pytest.raises(InputError, match="head subspace E"):
                tensor_approach(tt, z, {0, 1}, head, off)
        # within 1e-9 max(1, |w|) of E is in E; only the head entries are read
        want = tensor_approach(tt, z, {0, 1}, head, head)
        near = head.copy()
        near[4] = 1e-12
        assert np.array_equal(tensor_approach(tt, z, {0, 1}, near, head), want)
        big = 1e6 * head
        big[5] = 1e-4  # 1e-10 of |big|
        scaled = tensor_approach(tt, z, {0, 1}, 1e6 * head, head)
        assert np.array_equal(tensor_approach(tt, z, {0, 1}, big, head), scaled)

    def test_stalled_sequence_rejected(self):
        tt = TensorShiftTuple((1, 1))
        u = np.zeros(4)
        u[0] = 1.0
        with pytest.raises(PreconditionError, match="stalled"):
            tensor_approach(tt, (1.0, 1.0), set(), u, u)
        with pytest.raises(PreconditionError, match="vanishes"):
            tensor_approach(tt, (4.0, 0.0), {0, 1}, u, u)


class TestUnimodularApproach:
    def test_shift_k2_closed_form(self):
        s = backward_shift(2)
        x = np.array([1.0, 0.0])
        for k in (8, 128):
            u_k, v_k = unimodular_approach(s, 1.0, x, k)
            assert np.allclose(u_k, [0.0, 1.0 / k], atol=1e-12)
            assert np.allclose(v_k, [1.0, -1.0 / k], atol=1e-12)

    def test_modulus_invariance_at_minus_one(self):
        s = backward_shift(2)
        x = np.array([1.0, 0.0])
        for k in (8, 64):
            up, vp = unimodular_approach(s, 1.0, x, k)
            um, vm = unimodular_approach(s, -1.0, x, k)
            assert np.allclose(np.abs(um), np.abs(up), atol=1e-12)
            assert np.allclose(np.abs(vm), np.abs(vp), atol=1e-12)

    def test_zero_vector(self):
        s = backward_shift(4)
        u_k, v_k = unimodular_approach(s, 1.0, np.zeros(4), 16)
        assert not u_k.any() and not v_k.any()
        assert unimodular_residuals(s, 1.0, np.zeros(4), (4, 16)) == [(0.0, 0.0, 0.0, 0.0)] * 2

    def test_step_below_one_rejected(self):
        with pytest.raises(InputError):
            unimodular_approach(backward_shift(2), 1.0, np.array([1.0, 0.0]), 0)
        with pytest.raises(InputError):
            unimodular_residuals(backward_shift(2), 1.0, np.array([1.0, 0.0]), (4, 0))

    def test_four_limits_decay(self):
        s = backward_shift(6)
        x = np.zeros(6)
        x[1] = 1.0  # e2 lies in S^2(X) ∩ ker S^2
        sweep = unimodular_residuals(s, 1.0, x, (16, 64, 256, 1024))
        assert len(sweep) == 4
        for prev, res in zip(sweep, sweep[1:]):
            assert max(res) < max(prev)

    def test_membership_precondition(self):
        with pytest.raises(DomainError):
            unimodular_approach(np.eye(3), 1.0, np.ones(3), 8)

    def test_nonunimodular_z_rejected(self):
        with pytest.raises(InputError):
            unimodular_approach(backward_shift(2), 2.0, np.array([1.0, 0.0]), 8)

    @pytest.mark.parametrize("z", [complex("nan"), complex(1.0, float("nan")), complex("inf")])
    def test_non_finite_z_rejected(self, z):
        with pytest.raises(InputError):
            unimodular_approach(backward_shift(2), z, np.array([1.0, 0.0]), 8)
        with pytest.raises(InputError):
            unimodular_residuals(backward_shift(2), z, np.array([1.0, 0.0]), (4, 8))
