"""Weight sequences, truncated operators and generator families."""

import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import exact_identity_pairing, exact_unit
from shiftlab.errors import InputError, PreconditionError
from shiftlab.operators import (
    TensorElement,
    WeightSequence,
    bilateral_shift,
    constant_weights,
    default_alpha,
    flip_matrix,
    genshi_hypercyclic_weights,
    genshi_supercyclic_weights,
    graded_lex_indices,
    grid_inner,
    h_derivative,
    h_eval,
    integral_ladder,
    integral_op,
    saan_generators,
    symmetric_decay_weights,
    tensor_op,
    volterra,
)
from shiftlab.rational import Poly


class TestWeightSequence:
    def test_window_and_tails(self):
        w = WeightSequence([3.0, 1.0, 2.0], "constant", c_plus=5.0, c_minus=7.0)
        assert w.value(0) == 1.0 and w.value(1) == 2.0 and w.value(-1) == 3.0
        assert w.value(9) == 5.0 and w.value(-9) == 7.0
        assert w.sup_bound() == 7.0

    def test_geometric_tail_anchored_at_edges(self):
        w = symmetric_decay_weights(half=2, base=2.0)
        for n in range(-8, 9):
            assert abs(w.value(n) - 2.0 ** (-abs(n))) < 1e-15

    def test_dual_constant_family(self):
        w = WeightSequence([1.0, 2.0, 3.0], "constant", c_plus=4.0, c_minus=0.5)
        d = w.dual()
        for n in range(-7, 8):
            assert d.value(n) == w.value(1 - n)

    def test_dual_is_involution_pointwise(self):
        for w in (
            genshi_hypercyclic_weights(),
            symmetric_decay_weights(half=3),
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

    def test_window_must_be_odd(self):
        with pytest.raises(InputError):
            WeightSequence([1.0, 2.0])


class TestBilateralShift:
    def test_unit_weights_superdiagonal(self):
        t = bilateral_shift(constant_weights(1.0, 1), 1)
        assert np.array_equal(t.matrix.real, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])

    def test_action_on_basis(self):
        rng = np.random.default_rng(0)
        w = WeightSequence(rng.uniform(0.5, 2.0, 9), "constant", c_plus=1, c_minus=1)
        n = 4
        t = bilateral_shift(w, n)
        e0 = np.zeros(2 * n + 1)
        e0[n] = 1.0  # index 0 of the window
        out = t.matrix @ e0
        expected = np.zeros(2 * n + 1, dtype=complex)
        expected[n - 1] = w.value(0)
        assert np.allclose(out, expected)

    def test_column_sums_bounded_by_sup(self):
        w = genshi_supercyclic_weights()
        t = bilateral_shift(w, 6)
        sums = np.abs(t.matrix).sum(axis=0)
        assert np.all(sums <= w.sup_bound() + 1e-12)

    def test_dual_weight_matrix_identity(self):
        # U^-1 T'_w U = T_w' exactly on a symmetric window
        w = WeightSequence([0.3, 1.5, 0.7, 2.0, 1.1], "constant", c_plus=1.0, c_minus=0.5)
        n = 5
        t = bilateral_shift(w, n).matrix
        u = flip_matrix(n)
        lhs = np.linalg.inv(u) @ t.T @ u
        rhs = bilateral_shift(w.dual(), n).matrix
        assert np.array_equal(lhs, rhs)


class TestVolterra:
    def test_v_on_constants(self):
        v, _ = volterra(256)
        xs = np.arange(257) / 256
        assert np.max(np.abs(v.matrix.real @ np.ones(257) - xs)) <= 1e-10

    def test_vstar_on_constants(self):
        _, vs = volterra(256)
        xs = np.arange(257) / 256
        assert np.max(np.abs(vs.matrix.real @ np.ones(257) - (1 - xs))) <= 1e-10

    def test_lower_and_upper_triangular(self):
        v, vs = volterra(32)
        assert np.allclose(v.matrix, np.tril(v.matrix))
        assert np.allclose(vs.matrix, np.triu(vs.matrix))

    def test_adjoint_identity_second_order(self):
        def err(n):
            v, vs = volterra(n)
            xs = np.arange(n + 1) / n
            f = np.sin(2 * np.pi * xs) + 0.3
            g = np.cos(3 * np.pi * xs)
            return abs(
                grid_inner(v.matrix.real @ f, g, n) - grid_inner(f, vs.matrix.real @ g, n)
            )

        e1, e2 = err(128), err(256)
        assert 3.0 <= e1 / e2 <= 5.0  # Richardson halving: O(1/ngrid^2)

    def test_minimum_grid(self):
        with pytest.raises(InputError):
            volterra(8)


class TestHDerivative:
    def test_first_three(self):
        assert h_derivative(0) == Poly.one()
        assert h_derivative(1) == Poly([0, 0, -1])  # -t^2
        assert h_derivative(2) == Poly([0, 0, 0, 2, 1])  # t^4 + 2 t^3

    def test_eval_matches_direct(self):
        ngrid = 64
        for n in (0, 1, 4):
            q = h_derivative(n)
            hs = h_eval(n, ngrid)
            for i in (1, 17, 50, 63):
                t = 1.0 / (i / ngrid - 1.0)
                direct = math.exp(t) * float(q(Fraction(ngrid, i - ngrid)))
                assert abs(hs[i] - direct) <= 1e-9 * max(1.0, abs(direct))
            assert hs[ngrid] == 0.0  # exactly zero at x = 1


class TestIntegralOp:
    def test_ladder_halving(self):
        ladder = integral_ladder(lambda x: x / 2.0, count=10, floor=1e-4)
        for k, a in enumerate(ladder, 1):
            assert abs(a - 2.0**-k) < 1e-15

    def test_kernel_annihilation(self):
        t, ladder = integral_op(lambda x: 1.0, lambda x: x / 2.0, 128)
        xs = np.arange(129) / 128
        f = np.where(xs > ladder[1], (xs - ladder[1]) ** 2, 0.0)  # zero on [0, a_2]
        residual = np.linalg.norm(np.linalg.matrix_power(t.matrix, 2) @ f)
        assert residual <= 1e-10

    def test_residual_shrinks_with_grid(self):
        # support edge not grid-aligned, so the partial quadrature cells
        # leave genuine crumbs that refinement must shrink
        def tail_residual(ngrid):
            t, ladder = integral_op(lambda x: 1.0, lambda x: x / 2.3, ngrid)
            a2 = ladder[1]
            xs = np.arange(ngrid + 1) / ngrid
            f = np.where(xs > a2, (xs - a2) ** 2, 0.0)
            return float(np.linalg.norm(np.linalg.matrix_power(t.matrix, 2) @ f))

        coarse, fine = tail_residual(64), tail_residual(256)
        assert fine > 0.0
        assert fine < coarse

    def test_psi_must_contract(self):
        with pytest.raises(PreconditionError):
            integral_op(lambda x: 1.0, lambda x: x, 64)

    def test_alpha_must_not_vanish(self):
        with pytest.raises(PreconditionError):
            integral_op(lambda x: x, lambda x: x / 2.0, 64)  # alpha(0) = 0


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
            assert xi.b(t @ list(x), y) == xi.b(x, s @ list(y))

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
        mats = saan_generators(k, 21, exact=True)
        a1, a2 = mats
        both = a1 @ a2
        rev = a2 @ a1
        assert both == rev
        for m, col in pos.items():
            if m[0] >= 1 and m[1] >= 1:
                target = (m[0] - 1, m[1] - 1)
                expected = default_alpha(sum(m) - 2) / default_alpha(sum(m))
                assert both[pos[target], col] == expected

    def test_exact_commutators_zero_k3(self):
        mats = saan_generators(3, 60, exact=True)
        for i in range(3):
            for j in range(i + 1, 3):
                assert (mats[i] @ mats[j] - mats[j] @ mats[i]).is_zero()

    def test_exact_commutators_zero_k3_200_basis_vectors(self):
        # the matrices are one-entry-per-column, so products are checked
        # columnwise instead of through dense 200x200 rational matmuls
        mats = saan_generators(3, 200, exact=True)

        def column(mat, col):
            for row in range(mat.rows):
                if mat[row, col] != 0:
                    return row, mat[row, col]
            return None

        def product_column(a, b, col):
            first = column(b, col)
            if first is None:
                return None
            row, coeff = first
            second = column(a, row)
            if second is None:
                return None
            return second[0], coeff * second[1]

        for i in range(3):
            for j in range(i + 1, 3):
                for col in range(200):
                    assert product_column(mats[i], mats[j], col) == product_column(
                        mats[j], mats[i], col
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

    def test_growth_condition_enforced(self):
        with pytest.raises(PreconditionError):
            saan_generators(2, 10, alpha=lambda m: Fraction(1))

    def test_graded_lex_order(self):
        idx = graded_lex_indices(2, 7)
        assert idx == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0), (0, 3)]
        degrees = [sum(m) for m in idx]
        assert degrees == sorted(degrees)
