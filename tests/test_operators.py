"""Weight sequences, truncated operators and generator families."""

import functools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_columns, exact_identity_pairing, exact_unit, log_abs, pairing_value
from shiftlab.errors import InputError
from shiftlab.operators import (
    TAIL_KINDS,
    TensorElement,
    WeightSequence,
    _saan_columns,
    _simpson_columns,
    bilateral_shift,
    constant_weights,
    default_alpha,
    flip_matrix,
    genshi_hypercyclic_weights,
    genshi_supercyclic_weights,
    graded_lex_indices,
    grid_inner,
    h_evals,
    saan_generators,
    simpson_adjoint_apply,
    symmetric_decay_weights,
    tensor_op,
)
from shiftlab.rational import Poly, RationalMatrix


class TestWeightSequence:
    def test_window_and_tails(self):
        w = WeightSequence([3.0, 1.0, 2.0], "constant", c_plus=5.0, c_minus=7.0)
        assert w.value(0) == 1.0 and w.value(1) == 2.0 and w.value(-1) == 3.0
        assert w.value(9) == 5.0 and w.value(-9) == 7.0

    def test_geometric_tail_anchored_at_edges(self):
        # the window is -8..8; past it the geometric tail continues 2^-|n|
        w = symmetric_decay_weights()
        for n in range(-40, 41):
            assert w.value(n) == 2.0 ** (-abs(n))

    def test_dual_constant_family(self):
        w = WeightSequence([1.0, 2.0, 3.0], "constant", c_plus=4.0, c_minus=0.5)
        d = w.dual()
        for n in range(-7, 8):
            assert d.value(n) == w.value(1 - n)

    def test_dual_is_involution_pointwise(self):
        for w in (
            genshi_hypercyclic_weights(),
            symmetric_decay_weights(),
            WeightSequence([1, 2, 3], "zero"),
        ):
            dd = w.dual().dual()
            for n in range(-10, 11):
                assert abs(dd.value(n) - w.value(n)) < 1e-14

    def test_json_round_trip(self):
        w = genshi_supercyclic_weights(c=3.0, m0=2)
        again = WeightSequence.from_dict(w.to_dict())
        for n in range(-8, 9):
            assert again.value(n) == w.value(n)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_json_round_trip_every_tail(self, data):
        """Through the file form, every value comes back the same, inside and
        beyond the window, for each tail kind."""
        scalar = st.builds(complex, st.floats(-100, 100), st.floats(-100, 100))
        half = data.draw(st.integers(1, 5))
        window = data.draw(st.lists(scalar, min_size=2 * half + 1, max_size=2 * half + 1))
        kind = data.draw(st.sampled_from(TAIL_KINDS))
        tail = {
            "constant": {"c_plus": data.draw(scalar), "c_minus": data.draw(scalar)},
            "geometric": {"ratio": data.draw(scalar)},
            "zero": {},
        }[kind]
        w = WeightSequence(window, kind, **tail)
        again = WeightSequence.from_dict(json.loads(json.dumps(w.to_dict())))
        for n in range(-half - 12, half + 13):
            assert again.value(n) == w.value(n)

    def test_window_must_be_odd(self):
        with pytest.raises(InputError):
            WeightSequence([1.0, 2.0])

    @pytest.mark.parametrize(
        "w",
        [
            WeightSequence([0.3, 1.7 + 0.2j, -2.5], "constant", c_plus=3.3, c_minus=0.41j),
            WeightSequence([0.7, 1.3, 2.9, 0.05, 8.0], "geometric", ratio=0.37 + 0.1j),
            symmetric_decay_weights(),
            WeightSequence([0.5, 1.5, 2.5], "zero"),
        ],
    )
    @pytest.mark.parametrize("lo, hi", [(-1, 1), (-30, 41), (5, 9), (-9, -5), (4, 3)])
    def test_log_abs_range_matches_log_abs(self, w, lo, hi):
        scalars = [log_abs(w, n) for n in range(lo, hi + 1)]
        logs = w.log_abs_range(lo, hi)
        if any(t is None for t in scalars):
            assert logs is None
            return
        assert logs.dtype == np.longdouble and len(logs) == len(scalars)
        want = np.array(scalars, dtype=np.longdouble)
        assert np.array_equal(logs, want) and np.array_equal(np.signbit(logs), np.signbit(want))

    def test_log_abs_range_none_when_a_weight_vanishes(self):
        w = WeightSequence([1.0, 0.0, 2.0], "geometric", ratio=0.5)
        assert w.log_abs_range(-3, 0) is None  # the zero window value w_0
        assert w.log_abs_range(1, 4) is not None
        assert WeightSequence([1.0, 1.0, 2.0], "geometric", ratio=0.0).log_abs_range(1, 2) is None
        assert WeightSequence([0.0, 1.0, 2.0], "geometric", ratio=0.5).log_abs_range(-3, 0) is None
        assert WeightSequence([1.0, 1.0, 1.0], "constant", c_minus=0.0).log_abs_range(-2, 5) is None


class TestBilateralShift:
    def test_unit_weights_superdiagonal(self):
        t = bilateral_shift(constant_weights(1.0, 1), 1)
        assert t.dtype == np.complex128
        assert np.array_equal(t, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])

    def test_action_on_basis(self):
        rng = np.random.default_rng(0)
        w = WeightSequence(rng.uniform(0.5, 2.0, 9), "constant", c_plus=1, c_minus=1)
        n = 4
        t = bilateral_shift(w, n)
        e0 = np.zeros(2 * n + 1)
        e0[n] = 1.0  # index 0 of the window
        out = t @ e0
        expected = np.zeros(2 * n + 1, dtype=complex)
        expected[n - 1] = w.value(0)
        assert np.allclose(out, expected)

    def test_column_sums_bounded_by_sup(self):
        w = genshi_supercyclic_weights()
        t = bilateral_shift(w, 6)
        sums = np.abs(t).sum(axis=0)
        # sup |w_n|: the largest weight of the window and of the constant tails
        sup = max(*map(abs, w.window), abs(w.c_plus), abs(w.c_minus))
        assert np.all(sums <= sup + 1e-12)

    def test_dual_weight_matrix_identity(self):
        # U^-1 T'_w U = T_w' exactly on a symmetric window
        w = WeightSequence([0.3, 1.5, 0.7, 2.0, 1.1], "constant", c_plus=1.0, c_minus=0.5)
        n = 5
        t = bilateral_shift(w, n)
        u = flip_matrix(n)
        lhs = np.linalg.inv(u) @ t.T @ u
        rhs = bilateral_shift(w.dual(), n)
        assert np.array_equal(lhs, rhs)


def reference_simpson_adjoint(ngrid: int) -> np.ndarray:
    """The dense grid section of V* as a row loop: per row, one leading
    trapezoid cell when the interval count is odd, then composite Simpson."""
    npts = ngrid + 1
    h = 1.0 / ngrid
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
    return vs


def volterra(ngrid: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense grid sections of f -> int_0^x f and its adjoint f -> int_x^1 f.

    V is the composite trapezoid rule, lower triangular with the operator's
    causal structure; V* is the row loop ``reference_simpson_adjoint``.
    """
    npts = ngrid + 1
    h = 1.0 / ngrid
    v = np.zeros((npts, npts))
    for i in range(1, npts):
        v[i, 0] = h / 2.0
        v[i, 1:i] = h
        v[i, i] = h / 2.0
    return v, reference_simpson_adjoint(ngrid)


class TestVolterra:
    def test_v_on_constants(self):
        v, _ = volterra(256)
        xs = np.arange(257) / 256
        assert np.max(np.abs(v @ np.ones(257) - xs)) <= 1e-10

    def test_vstar_on_constants(self):
        _, vs = volterra(256)
        xs = np.arange(257) / 256
        assert np.max(np.abs(vs @ np.ones(257) - (1 - xs))) <= 1e-10

    def test_lower_and_upper_triangular(self):
        v, vs = volterra(32)
        assert np.array_equal(v, np.tril(v))
        assert np.array_equal(vs, np.triu(vs))

    def test_adjoint_identity_second_order(self):
        def err(n):
            v, vs = volterra(n)
            xs = np.arange(n + 1) / n
            f = np.sin(2 * np.pi * xs) + 0.3
            g = np.cos(3 * np.pi * xs)
            return abs(
                grid_inner(v @ f, g, n) - grid_inner(f, vs @ g, n)
            )

        e1, e2 = err(128), err(256)
        assert 3.0 <= e1 / e2 <= 5.0  # Richardson halving: O(1/ngrid^2)

    def test_minimum_grid(self):
        with pytest.raises(InputError):
            simpson_adjoint_apply(15, np.ones(16))


def wide_exponent_vector(n: int, seed: int) -> np.ndarray:
    """Random signs and mantissas with binary exponents in [-300, 300]: sums
    of such terms round differently in every other order."""
    rng = np.random.default_rng(seed)
    return rng.choice([-1.0, 1.0], n) * rng.uniform(1.0, 2.0, n) * np.exp2(rng.integers(-300, 301, n))


SIMPSON_GRIDS = [16, 17, 18, 31, 64, 257, 1024, 2048]


class TestSimpsonAdjoint:
    @pytest.mark.parametrize("ngrid", SIMPSON_GRIDS)
    def test_matrix_matches_row_loop(self, ngrid):
        # the column layout simpson_adjoint_apply reads: column j < ngrid is
        # cols[(ngrid - j) % 2][j::-1] from row 0 down, column ngrid is last
        cols, last = _simpson_columns(ngrid)
        m = np.zeros((ngrid + 1, ngrid + 1))
        for j in range(ngrid):
            m[: j + 1, j] = cols[(ngrid - j) % 2][j::-1]
        m[:, ngrid] = last
        assert m.tobytes() == reference_simpson_adjoint(ngrid).tobytes()

    @pytest.mark.parametrize("ngrid", SIMPSON_GRIDS)
    def test_matrix_free_product_matches_matrix_bits(self, ngrid):
        # the strided real view of the complex matrix, as the Volterra
        # certificate took it: numpy's non-BLAS matmul loop, each row summed
        # left to right from 0.0
        x = wide_exponent_vector(ngrid + 1, seed=ngrid)
        want = np.asarray(reference_simpson_adjoint(ngrid), dtype=np.complex128).real @ x
        got = simpson_adjoint_apply(ngrid, x)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _log_int(n: int) -> float:
    """math.log of a positive int, past the float range by its top 512 bits."""
    if n.bit_length() <= 512:
        return math.log(n)
    shift = n.bit_length() - 512
    return math.log(n >> shift) + shift * math.log(2.0)


@functools.lru_cache(maxsize=None)
def h_derivative(n: int) -> Poly:
    """Exact Q_n with h^(n)(x) = h(x) Q_n(1/(x-1)) for h(x) = exp(1/(x-1)),
    by the integer ladder Q_0 = 1, Q_{n+1}(t) = -t^2 (Q_n(t) + Q_n'(t))."""
    c = (1,)  # constant term first
    for _ in range(n):
        c = (0, 0, *(-(c[d] + (d + 1) * c[d + 1]) for d in range(len(c) - 1)), -c[-1])
    return Poly(c)


def reference_h_eval(n: int, ngrid: int) -> np.ndarray:
    """h^(n) on the grid by integer Horner over every coefficient of Q_n."""
    coeffs = [c.numerator for c in h_derivative(n).coeffs]
    degree = len(coeffs) - 1
    out = np.zeros(ngrid + 1)
    for i in range(ngrid):
        num, den = ngrid, i - ngrid
        acc = coeffs[degree]
        dp = 1
        for d in range(degree - 1, -1, -1):
            dp *= den
            acc = acc * num + coeffs[d] * dp
        if acc == 0:
            continue
        den_sign = 1.0 if (den > 0 or degree % 2 == 0) else -1.0
        sign = den_sign * (1.0 if acc > 0 else -1.0)
        logmag = float(Fraction(num, den)) + _log_int(abs(acc)) - degree * math.log(abs(den))
        out[i] = sign * math.exp(logmag) if logmag > -745.0 else 0.0
    return out


class TestHDerivative:
    def test_first_three(self):
        assert h_derivative(0) == Poly.one()
        assert h_derivative(1) == Poly([0, 0, -1])  # -t^2
        assert h_derivative(2) == Poly([0, 0, 0, 2, 1])  # t^4 + 2 t^3

    def test_eval_matches_direct(self):
        ngrid = 64
        for n in (0, 1, 4):
            q = h_derivative(n)
            hs = h_evals(n, ngrid)[n]
            for i in (1, 17, 50, 63):
                t = 1.0 / (i / ngrid - 1.0)
                direct = math.exp(t) * float(q(Fraction(ngrid, i - ngrid)))
                assert abs(hs[i] - direct) <= 1e-9 * max(1.0, abs(direct))
            assert hs[ngrid] == 0.0  # exactly zero at x = 1

    @pytest.mark.parametrize("ngrid", [16, 100])
    def test_eval_bytes_match_full_horner(self, ngrid):
        for n in range(41):
            assert h_evals(n, ngrid)[n].tobytes() == reference_h_eval(n, ngrid).tobytes(), n

    @pytest.fixture(scope="class")
    def volterra_grid_evals(self):
        return h_evals(40, 2048)  # ngrid 2048 is the grid of the volterra report

    @pytest.mark.parametrize("n", [0, 1, 2, 17, 40])
    def test_eval_bytes_match_full_horner_at_volterra_grid(self, n, volterra_grid_evals):
        want = reference_h_eval(n, 2048).tobytes()
        assert h_evals(n, 2048)[n].tobytes() == want
        assert volterra_grid_evals[n].tobytes() == want

    def test_evals_are_one_array_per_order(self):
        rows = h_evals(3, 16)
        assert len(rows) == 4 and all(r.shape == (17,) for r in rows)
        assert [r.tobytes() for r in rows] == [h_evals(n, 16)[n].tobytes() for n in range(4)]
        with pytest.raises(InputError):
            h_evals(-1, 16)

    def test_values_past_the_float_range_are_inf(self):
        # at ngrid 256, |h^(93)| passes the float range at two grid points;
        # the rows below keep their bytes
        rows = h_evals(100, 256)
        assert np.isinf(rows[93]).sum() == 2 and not np.isinf(rows[92]).any()
        assert [r.tobytes() for r in rows[:93]] == [r.tobytes() for r in h_evals(92, 256)]


def _frac(rng) -> Fraction:
    return Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))


def _frac_vec(rng, d: int) -> np.ndarray:
    return np.array([_frac(rng) for _ in range(d)], dtype=object)


def _frac_mat(rng, rows: int, cols: int) -> np.ndarray:
    return np.array([[_frac(rng) for _ in range(cols)] for _ in range(rows)], dtype=object)


class TestTensorOp:
    def test_single_pair_rank_one(self):
        rng = np.random.default_rng(1)
        x = _frac_vec(rng, 6)
        y = _frac_vec(rng, 6)
        x[0] = y[1] = Fraction(1)  # both factors nonzero
        xi = TensorElement(((x, y),), exact_identity_pairing(6))
        t, s = tensor_op(xi)
        assert t.rank() == 1
        assert s.rank() == 1

    def test_duality_identity(self):
        rng = np.random.default_rng(2)
        b = _frac_mat(rng, 8, 8)
        pairs = tuple((_frac_vec(rng, 8), _frac_vec(rng, 8)) for _ in range(4))
        xi = TensorElement(pairs, b)
        t, s = tensor_op(xi)
        for _ in range(20):
            x = _frac_vec(rng, 8)
            y = _frac_vec(rng, 8)
            assert pairing_value(xi, t @ list(x), y) == pairing_value(xi, x, s @ list(y))

    def test_nilpotency_transfers(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            i, j = int(rng.integers(4, 8)), int(rng.integers(0, 4))
            x1 = exact_unit(i, 8, _frac(rng) or Fraction(1))
            # disjoint x- and y-support => T^2 = S^2 = 0; shared support => neither
            for k in (j, i):
                y1 = exact_unit(k, 8, _frac(rng) or Fraction(1))
                xi = TensorElement(((x1, y1),), exact_identity_pairing(8))
                t, s = tensor_op(xi)
                assert t.pow(2).is_zero() == s.pow(2).is_zero() == (k != i)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(4)
        with pytest.raises(InputError, match="shapes"):
            TensorElement(((_frac_vec(rng, 3), _frac_vec(rng, 4)),), exact_identity_pairing(3))

    def test_integer_entries_are_stored_exactly(self):
        # numpy integers are exact: the pairing and the factor rows hold
        # their values as rational matrices
        ints = np.arange(3)  # np.int64 entries
        xi = TensorElement(((ints, ints),), np.eye(3, dtype=np.int64))
        assert xi.pairing == RationalMatrix.identity(3)
        assert xi.xs == xi.ys == RationalMatrix([[0, 1, 2]])
        t, _ = tensor_op(xi)
        assert t.data[2] == (0, 2, 4)

    def test_float_entries_fail_at_construction(self):
        floats = np.array([0.5, 1.0, 0.0], dtype=object)
        with pytest.raises(InputError, match="exact rational"):
            TensorElement(((floats, floats),), exact_identity_pairing(3))
        with pytest.raises(InputError, match="exact rational"):
            TensorElement((), np.eye(3).astype(object))

    @pytest.mark.parametrize("dx, dy, count", [(4, 6, 3), (5, 3, 1), (3, 3, 0), (6, 4, 5)])
    def test_exact_matches_outer_product_sum(self, dx, dy, count):
        rng = np.random.default_rng(dx * 100 + dy * 10 + count)
        b = _frac_mat(rng, dx, dy)
        pairs = tuple((_frac_vec(rng, dx), _frac_vec(rng, dy)) for _ in range(count))
        t, s = tensor_op(TensorElement(pairs, b))
        t_ref = np.zeros((dx, dx), dtype=object)
        s_ref = np.zeros((dy, dy), dtype=object)
        for x, y in pairs:
            t_ref += np.outer(x, b @ y)
            s_ref += np.outer(y, x @ b)
        assert (t.rows, t.cols, s.rows, s.cols) == (dx, dx, dy, dy)
        assert t.data == tuple(map(tuple, t_ref))
        assert s.data == tuple(map(tuple, s_ref))


def _dense_generators(k, ntrunc):
    """The exact generators as RationalMatrix, from their sparse columns."""
    gens, den = _saan_columns(k, ntrunc)
    return [dense_columns(cols, den) for cols in gens]


class TestSaanGenerators:
    def test_k1_weighted_backward_shift(self):
        mats = saan_generators(1, 6)
        a = mats[0]
        for m in range(1, 6):
            col = a[:, m]
            assert np.count_nonzero(col) == 1
            assert col[m - 1] == float(default_alpha(m - 1) / default_alpha(m))

    def test_commutation_identity_on_basis(self):
        k = 2
        idx = graded_lex_indices(k, 21)
        pos = {m: i for i, m in enumerate(idx)}
        a1, a2 = _dense_generators(k, 21)
        both = a1 @ a2
        rev = a2 @ a1
        assert both == rev
        for m, col in pos.items():
            if m[0] >= 1 and m[1] >= 1:
                target = (m[0] - 1, m[1] - 1)
                expected = default_alpha(sum(m) - 2) / default_alpha(sum(m))
                assert both[pos[target], col] == expected

    def test_exact_commutators_zero_k3(self):
        mats = _dense_generators(3, 60)
        for i in range(3):
            for j in range(i + 1, 3):
                assert (mats[i] @ mats[j] - mats[j] @ mats[i]).is_zero()

    def test_exact_commutators_zero_k3_200_basis_vectors(self):
        # the columns hold one entry at most, so products are composed
        # column by column instead of through dense 200x200 rational matmuls
        gens, _ = _saan_columns(3, 200)

        def product_column(a, b, col):
            assert len(b[col]) <= 1
            for row, coeff in b[col].items():
                for target, second in a[row].items():
                    return target, coeff * second
            return None

        for i in range(3):
            for j in range(i + 1, 3):
                for col in range(200):
                    assert product_column(gens[i], gens[j], col) == product_column(
                        gens[j], gens[i], col
                    )

    def test_operator_norm_bound(self):
        # induced l1 norm <= sum over n of 2^-|n|
        k = 2
        mats = saan_generators(k, 28)
        bound = sum(2.0 ** (-sum(m)) for m in graded_lex_indices(k, 28))
        for a in mats:
            assert np.max(np.abs(a).sum(axis=0)) <= bound

    def test_coefficient_bound_strict(self):
        mats = saan_generators(2, 15)
        idx = graded_lex_indices(2, 15)
        pos = {m: i for i, m in enumerate(idx)}
        for j, a in enumerate(mats):
            for m, col in pos.items():
                if m[j] >= 1:
                    coeff = abs(a[pos[tuple(x - (1 if i == j else 0) for i, x in enumerate(m))], col])
                    assert 0 < coeff < 2.0 ** (-(sum(m) - 1))

    def test_float_generators_are_the_exact_ones_rounded(self):
        # each float entry is its exact coefficient rounded once, byte for byte
        for k, count in ((2, 15), (3, 20)):
            floats = saan_generators(k, count)
            exact = _dense_generators(k, count)
            for f, e in zip(floats, exact):
                want = np.array([[complex(float(x)) for x in row] for row in e.data])
                assert f.dtype == np.complex128 and f.tobytes() == want.tobytes()

    @staticmethod
    def _reference_exact(k, ntrunc):
        """The exact generators built entry by entry from Fractions."""
        indices = graded_lex_indices(k, ntrunc)
        pos = {m: i for i, m in enumerate(indices)}
        mats = []
        for j in range(k):
            rows = [[Fraction(0)] * ntrunc for _ in range(ntrunc)]
            for m, col in pos.items():
                target = tuple(x - (1 if i == j else 0) for i, x in enumerate(m))
                if m[j] >= 1 and target in pos:
                    s = sum(m)
                    rows[pos[target]][col] = Fraction(default_alpha(s - 1)) / Fraction(default_alpha(s))
            mats.append(RationalMatrix(rows))
        return mats

    @pytest.mark.parametrize(
        "k, ntrunc",
        sorted({(k, n) for k in (1, 2, 3, 4) for n in (1, 2, 45, 56)}
               | {(k, math.comb(8 + k, k)) for k in (1, 2, 3)}),
    )
    def test_float_generators_are_the_fraction_reference_rounded_once(self, k, ntrunc):
        got = saan_generators(k, ntrunc)
        want = self._reference_exact(k, ntrunc)
        assert len(got) == len(want) == k
        for g, w in zip(got, want):
            rounded = np.array([[complex(float(x)) for x in row] for row in w.data])
            assert g.dtype == np.complex128 and g.tobytes() == rounded.tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("ntrunc", [1, 2, 45, 56])
    def test_exact_generators_match_fraction_reference(self, k, ntrunc):
        gens, den = _saan_columns(k, ntrunc)
        assert den > 0 and len(gens) == k
        for cols in gens:
            assert len(cols) == ntrunc
            assert all(len(col) <= 1 for col in cols)
            assert all(type(r) is int and type(a) is int and a for col in cols for r, a in col.items())
        got = _dense_generators(k, ntrunc)
        want = self._reference_exact(k, ntrunc)
        for g, w in zip(got, want):
            assert g == w
            assert g.data == w.data
            assert (g.rows, g.cols) == (ntrunc, ntrunc)

    def test_default_alpha_meets_the_growth_condition(self):
        # alpha_{m+1} = 2^(m+1) alpha_m >= 2^m alpha_m, so no default alpha
        # can violate the growth condition
        for m in range(64):
            assert default_alpha(m + 1) == 2 ** (m + 1) * default_alpha(m)

    def test_graded_lex_order(self):
        idx = graded_lex_indices(2, 7)
        assert idx == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0), (0, 3)]
        degrees = [sum(m) for m in idx]
        assert degrees == sorted(degrees)
