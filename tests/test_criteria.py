"""Decision procedures: Salas certificates, chain subspaces, perturbations,
region verdicts, symmetry obstructions."""

import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import exact_identity_pairing, exact_unit, shaped_nilpotent_tensor
from shiftlab.criteria import (
    b_symmetry_check,
    builtin_region,
    ebs_perturb,
    ebs_tuple_kernel,
    gs_region_verdict,
    ker_dagger,
    lambda_t,
    salas_hypercyclic,
    salas_supercyclic,
    symmetry_obstruction,
    unimodular_chain_spaces,
)
from shiftlab.errors import DimensionError, InputError, PreconditionError
from shiftlab.linalg import Subspace
from shiftlab.nilpotent import TensorShiftTuple, backward_shift
from shiftlab.operators import (
    TensorElement,
    WeightSequence,
    bilateral_shift,
    constant_weights,
    flip_matrix,
    genshi_hypercyclic_weights,
    genshi_supercyclic_weights,
    symmetric_decay_weights,
    tensor_op,
)


def unit(i, dim):
    v = np.zeros(dim)
    v[i] = 1.0
    return v


class TestSalas:
    def test_genshi_hypercyclic_satisfied(self):
        cert = salas_hypercyclic(genshi_hypercyclic_weights(2.0, 3), 8, 2**12)
        assert cert.verdict == "satisfied"

    def test_genshi_supercyclic_satisfied(self):
        cert = salas_supercyclic(genshi_supercyclic_weights(2.0, 3), 8, 2**12)
        assert cert.verdict == "satisfied"

    def test_unit_weights_violated(self):
        cert = salas_hypercyclic(constant_weights(1.0), 4, 2**10)
        assert cert.verdict == "violated-at-horizon"
        assert np.allclose(cert.trace(0), 0.0)  # products identically 1

    def test_doubling_weights_violated(self):
        cert = salas_hypercyclic(constant_weights(2.0), 4, 2**10)
        assert cert.verdict == "violated-at-horizon"
        ns = np.arange(1, 2**10 + 1)
        assert np.allclose(cert.trace(0), ns * math.log(2.0))

    def test_symmetric_decay_violated_with_growing_ratio(self):
        cert = salas_supercyclic(symmetric_decay_weights(), 4, 2**10)
        assert cert.verdict == "violated-at-horizon"
        # at m = 0 the ratio trace is exactly n log 2
        ns = np.arange(1, 2**10 + 1)
        assert np.max(np.abs(cert.trace(0) - ns * math.log(2.0))) <= 1e-12

    def test_traces_match_direct_log_product_oracle(self):
        w = genshi_supercyclic_weights(2.0, 3)
        cert = salas_supercyclic(w, 3, 64)
        for m in range(4):
            for n in range(1, 65):
                left = math.fsum(math.log(abs(w.value(j))) for j in range(m - n + 1, m + 1))
                right = math.fsum(math.log(abs(w.value(j))) for j in range(m + 1, m + n + 1))
                assert abs(cert.trace(m)[n - 1] - (left - right)) <= 1e-12

    def test_zero_weight_range_not_dense(self):
        w = WeightSequence([1.0, 0.0, 1.0], "constant", c_plus=1.0, c_minus=1.0)
        cert = salas_hypercyclic(w, 2, 256)
        assert cert.verdict == "violated-at-horizon"
        assert "range not dense" in cert.reason

    def test_verdict_invariant_under_modulus_and_rescaling(self):
        w = genshi_hypercyclic_weights(2.0, 3)
        phase = np.exp(1j * 0.7)
        w_rot = WeightSequence(
            [phase * v for v in w.window],
            "constant",
            c_plus=phase * w.c_plus,
            c_minus=phase * w.c_minus,
        )
        a = salas_hypercyclic(w, 4, 2**10)
        b = salas_hypercyclic(w_rot, 4, 2**10)
        assert a.verdict == b.verdict
        assert np.max(np.abs(a.log_traces - b.log_traces)) <= 1e-12

    def test_small_horizon_rejected(self):
        with pytest.raises(InputError):
            salas_hypercyclic(constant_weights(1.0), 2, 4)


class TestKerDagger:
    def test_backward_shift_k4(self):
        space = ker_dagger(backward_shift(4))
        assert space.same_space(Subspace.from_vectors([unit(0, 4), unit(1, 4)]))

    def test_invertible_trivial(self):
        rng = np.random.default_rng(0)
        t = rng.normal(size=(5, 5)) + 5 * np.eye(5)
        assert ker_dagger(t).dim == 0

    def test_block_sum(self):
        t = np.zeros((6, 6), dtype=complex)
        t[:4, :4] = backward_shift(4)
        t[4:, 4:] = [[2.0, 1.0], [0.0, 3.0]]
        space = ker_dagger(t)
        assert space.same_space(Subspace.from_vectors([unit(0, 6), unit(1, 6)]))


class TestLambda:
    def test_unipotent_equals_shift_ker_dagger(self):
        for n in (2, 4, 6):
            t = np.eye(2 * n) + backward_shift(2 * n)
            space = lambda_t(t)
            expected = Subspace.from_vectors([unit(i, 2 * n) for i in range(n)])
            assert space.same_space(expected, 1e-6)

    def test_no_unimodular_spectrum(self):
        assert lambda_t(np.diag([0.5, 3.0])).dim == 0

    def test_semisimple_unimodular_contributes_nothing(self):
        t = np.diag(np.exp(1j * np.array([0.4, 1.3, 2.9])))
        assert lambda_t(t).dim == 0

    def test_ker_dagger_contained_in_lambda_of_i_plus_t(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            dim = int(rng.integers(4, 13))
            t = np.triu(rng.normal(size=(dim, dim)), 1)
            kd = ker_dagger(t)
            lam = lambda_t(np.eye(dim) + t)
            assert lam.contains_subspace(kd, 1e-6)

    def test_chain_spaces_report_eigenvalue(self):
        t = np.eye(4) + backward_shift(4)
        pieces = unimodular_chain_spaces(t)
        assert len(pieces) == 1
        z, mult, sp = pieces[0]
        assert abs(z - 1.0) < 1e-6 and mult == 4 and sp.dim == 2


class TestEbsTupleKernel:
    def test_single_operator_matches_ker_dagger(self):
        t = backward_shift(6)
        a = ebs_tuple_kernel([t])
        b = ker_dagger(t)
        assert a.same_space(b, 1e-7)

    def test_two_block_tensor(self):
        tt = TensorShiftTuple((1, 1))
        t1, t2 = tt.operators()
        space = ebs_tuple_kernel([t1, t2])
        expected = Subspace.from_vectors([unit(0, 4)])
        assert space.same_space(expected, 1e-7)

    def test_zero_tuple(self):
        z = np.zeros((4, 4))
        assert ebs_tuple_kernel([z, z]).dim == 0

    def test_noncommuting_rejected(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(PreconditionError) as err:
            ebs_tuple_kernel([a, a.T])
        assert "0 and 1" in str(err.value)


class TestEbsPerturb:
    def test_zero_xi_single_step(self):
        dim = 6
        zero = (exact_unit(0, dim, 0), exact_unit(0, dim, 0))
        xi = TensorElement((zero,), exact_identity_pairing(dim))
        x1 = exact_unit(0, dim)
        x2 = exact_unit(1, dim)
        pert = ebs_perturb(xi, x1, x2, Fraction(1, 3), n=1)
        t, _ = tensor_op(pert.xi_s)
        assert (t @ list(pert.u_n)) == [Fraction(1, 3) * a for a in x1]
        assert all(a == 0 for a in t @ list(x1))
        assert t.pow(2).is_zero()

    def test_depth_two_chain_identities(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            xi, x1, x2 = shaped_nilpotent_tensor(rng, 10, depth=2)
            s = Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 9)))
            pert = ebs_perturb(xi, x1, x2, s, n=2)
            t, _ = tensor_op(pert.xi_s)
            assert (t.pow(2) @ list(pert.u_n)) == [s**2 * a for a in x1]
            assert (t.pow(2) @ list(pert.u_2n)) == [s**2 * a for a in x2]
            assert t.pow(4).is_zero()

    def test_nilpotency_for_multiple_scales(self):
        rng = np.random.default_rng(9)
        xi, x1, x2 = shaped_nilpotent_tensor(rng, 10, depth=2)
        for s in (Fraction(1, 10), Fraction(1), Fraction(10)):
            pert = ebs_perturb(xi, x1, x2, s, n=2)
            t, _ = tensor_op(pert.xi_s)
            assert t.pow(4).is_zero()

    def test_targets_in_ker_dagger(self):
        rng = np.random.default_rng(3)
        xi, x1, x2 = shaped_nilpotent_tensor(rng, 10, depth=2)
        pert = ebs_perturb(xi, x1, x2, Fraction(1, 2), n=2)
        t, _ = tensor_op(pert.xi_s)
        # x1 in ker T^n and in T^n(X): T^n u_n = s^n x1 witnesses the range
        assert all(a == 0 for a in t.pow(2) @ list(x1))

    def test_float_pairing_rejected(self):
        # the perturbation is exact only: a float tensor element is refused
        # when it is built, before ebs_perturb can start on it
        dim = 10
        with pytest.raises(InputError, match="pairing must be an exact"):
            TensorElement(((unit(5, dim), unit(0, dim)),), np.eye(dim))

    def test_dimension_error_when_ladder_does_not_fit(self):
        dim = 6
        # depth-3 chain on a space too small for a size-6 biorthogonal system
        pairs = (
            (exact_unit(2, dim), exact_unit(0, dim)),
            (exact_unit(4, dim), exact_unit(2, dim)),
        )
        xi = TensorElement(pairs, exact_identity_pairing(dim))
        with pytest.raises(DimensionError):
            ebs_perturb(xi, exact_unit(5, dim), exact_unit(1, dim), Fraction(1))

    def test_ladder_is_biorthogonal(self):
        rng = np.random.default_rng(11)
        cases = [shaped_nilpotent_tensor(rng, 10, depth=2) + (2,) for _ in range(3)]
        cases += [shaped_nilpotent_tensor(rng, 12, depth=3) + (3,) for _ in range(3)]
        for xi, x1, x2, depth in cases:
            pert = ebs_perturb(xi, x1, x2, Fraction(2, 3), n=depth)
            assert len(pert.u_vectors) == len(pert.f_vectors) == 2 * depth
            t, s = tensor_op(xi)
            for f in pert.f_vectors:  # f in L
                assert all(a == 0 for a in s @ list(f))
                assert xi.b(x1, f) == 0 and xi.b(x2, f) == 0
            for i, u in enumerate(pert.u_vectors):  # u in ker T
                assert all(a == 0 for a in t @ list(u))
                for j, f in enumerate(pert.f_vectors):
                    assert xi.b(u, f) == (i == j)

    def test_dimension_error_when_pairing_rank_is_too_small(self):
        # ker T and L are the whole space, but b has rank 1 < 2n = 2
        dim = 4
        zero = (exact_unit(0, dim, 0), exact_unit(0, dim, 0))
        pairing = exact_identity_pairing(dim)
        for i in range(1, dim):
            pairing[i, i] = Fraction(0)
        xi = TensorElement((zero,), pairing)
        with pytest.raises(DimensionError, match="infeasible"):
            ebs_perturb(xi, exact_unit(1, dim), exact_unit(2, dim), Fraction(1), n=1)

    def test_zero_scale_rejected(self):
        dim = 6
        zero = (exact_unit(0, dim, 0), exact_unit(0, dim, 0))
        xi = TensorElement((zero,), exact_identity_pairing(dim))
        with pytest.raises(InputError):
            ebs_perturb(xi, exact_unit(0, dim), exact_unit(1, dim), 0)


class TestRegions:
    def test_u_shift_intersects_circle(self):
        v = gs_region_verdict(builtin_region("U"), "shift1", 10**4, seed=3)
        assert v.verdict == "intersects-circle"
        w = v.witnesses[0]
        assert abs(abs(1 + w) - 1.0) == 0.0  # |0.8 + 0.6i| = 1 exactly
        assert v.sampled_min_mod <= 1.0 <= v.sampled_max_mod

    def test_u_exp_inside_disk(self):
        v = gs_region_verdict(builtin_region("U"), "exp", 10**4, seed=5)
        assert v.verdict == "inside-disk"
        assert v.sampled_max_mod < 1.0

    def test_v_shift_outside_closed_disk(self):
        v = gs_region_verdict(builtin_region("V"), "shift1", 10**4, seed=7)
        assert v.verdict == "outside-closed-disk"
        assert v.sampled_min_mod > 1.0

    def test_v_exp_intersects_circle(self):
        v = gs_region_verdict(builtin_region("V"), "exp", 10**4, seed=9)
        assert v.verdict == "intersects-circle"
        w = v.witnesses[0]
        assert abs(abs(np.exp(w)) - 1.0) <= 1e-15

    def test_verdicts_stable_across_seeds(self):
        for seed in range(5):
            assert (
                gs_region_verdict(builtin_region("U"), "shift1", 10**4, seed).verdict
                == "intersects-circle"
            )

    def test_identity_transform_is_sampled_only(self):
        # no exact predicate is stored for (U, identity): the verdict comes
        # from sampling alone and must say so
        v = gs_region_verdict(builtin_region("U"), "identity", 10**4, seed=2)
        assert v.verdict == "inside-disk"
        assert not v.exact

    def test_sample_count_floor(self):
        with pytest.raises(InputError):
            gs_region_verdict(builtin_region("U"), "shift1", 100)


class TestSymmetryObstruction:
    def test_symmetric_decay_with_one_plus_t(self):
        rep = symmetry_obstruction(symmetric_decay_weights(), [1.0, 1.0], trials=100, horizon=50, seed=0)
        assert rep.verdict == "holds"
        assert rep.similarity_exact
        assert rep.max_residual <= 1e-10

    def test_plain_shift_polynomial(self):
        rep = symmetry_obstruction(symmetric_decay_weights(), [0.0, 1.0], trials=50, horizon=50, seed=1)
        assert rep.verdict == "holds"
        assert rep.similarity_exact  # the U-similarity oracle holds exactly
        assert rep.max_residual <= 1e-10

    def test_asymmetric_weight_inapplicable(self):
        w = WeightSequence([1.0, 1.0, 2.0], "constant", c_plus=1.0, c_minus=1.0)
        rep = symmetry_obstruction(w, [0.0, 1.0])
        assert rep.verdict == "inapplicable"
        assert rep.first_violation == 1


class TestBSymmetry:
    def test_bilateral_shift_flip_pairing(self):
        n = 6
        t = bilateral_shift(constant_weights(1.0, n), n)
        b = flip_matrix(n)
        rep = b_symmetry_check(t, b, unit(n, 2 * n + 1), unit(n + 1, 2 * n + 1), horizon=50)
        assert rep.symmetric
        assert rep.annihilator_residual <= 1e-9

    def test_diagonal_multiplication_identity_pairing(self):
        rng = np.random.default_rng(2)
        t = np.diag(rng.normal(size=7))
        rep = b_symmetry_check(t, np.eye(7), rng.normal(size=7), rng.normal(size=7), horizon=30)
        assert rep.symmetric
        assert rep.annihilator_residual <= 1e-9

    def test_generic_operator_not_symmetric(self):
        rng = np.random.default_rng(4)
        t = rng.normal(size=(8, 8))
        rep = b_symmetry_check(t, np.eye(8), np.ones(8), np.ones(8), horizon=10)
        assert not rep.symmetric
        assert rep.witness is not None

    def test_zero_pairing_rejected(self):
        with pytest.raises(InputError):
            b_symmetry_check(np.eye(3), np.zeros((3, 3)), np.ones(3), np.ones(3))
