"""Decision procedures: Salas certificates, chain subspaces, perturbations,
region verdicts, symmetry obstructions."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    exact_identity_pairing,
    exact_unit,
    log_abs,
    shaped_nilpotent_pairs,
    shaped_nilpotent_tensor,
)
from shiftlab.cli import _shaped_nilpotent_tensor
from shiftlab.criteria import (
    _log_weight_prefix,
    _salas_traces,
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
from shiftlab.rational import RationalMatrix


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


def reference_log_weight_prefix(w, lo, hi):
    """Scalar two-sum loop over log|w_j|: the prefix _log_weight_prefix must equal."""
    his = [np.longdouble(0.0)]
    los = [np.longdouble(0.0)]
    s = np.longdouble(0.0)
    c = np.longdouble(0.0)
    for j in range(lo, hi + 1):
        t = log_abs(w, j)
        if t is None:
            return None
        total = s + t
        bv = total - s
        c += (s - (total - bv)) + (t - bv)
        s = total
        his.append(s)
        los.append(c)
    return np.array(his, dtype=np.longdouble), np.array(los, dtype=np.longdouble)


_PREFIX_WEIGHTS = {
    "constant": genshi_hypercyclic_weights(2.0, 3),
    "constant-uneven": WeightSequence(
        [0.3, 1.7 + 0.2j, -2.5, 1.1, 0.9], "constant", c_plus=3.3, c_minus=0.41j
    ),
    "geometric": symmetric_decay_weights(),
    "geometric-uneven": WeightSequence([0.7, 1.3, 2.9], "geometric", ratio=0.37 + 0.1j),
    "zero-tail": WeightSequence([0.5, 1.5, 2.5, 3.5, 4.5], "zero"),
}


class TestLogWeightPrefix:
    @pytest.mark.parametrize("name", sorted(_PREFIX_WEIGHTS))
    @pytest.mark.parametrize("lo, hi", [(-2, 2), (-40, 57), (-1023, 1032), (3, 3)])
    def test_matches_scalar_two_sum_loop(self, name, lo, hi):
        w = _PREFIX_WEIGHTS[name]
        got = _log_weight_prefix(w, lo, hi)
        want = reference_log_weight_prefix(w, lo, hi)
        if want is None:
            assert got is None
            return
        for g, r in zip(got, want):
            assert g.dtype == np.longdouble
            # array_equal plus signbit, not tobytes: longdouble padding bytes vary
            assert np.array_equal(g, r)
            assert np.array_equal(np.signbit(g), np.signbit(r))

    def test_vanishing_weight_gives_none(self):
        w = WeightSequence([1.0, 2.0, 0.0, 3.0, 1.0], "constant", c_plus=1.0, c_minus=1.0)
        assert _log_weight_prefix(w, -5, 5) is None
        assert reference_log_weight_prefix(w, -5, 5) is None
        assert _log_weight_prefix(w, 1, 5) is not None

    def test_zero_tail_vanishes_outside_the_window(self):
        w = _PREFIX_WEIGHTS["zero-tail"]
        assert _log_weight_prefix(w, -2, 3) is None
        assert _log_weight_prefix(w, -3, 2) is None


def reference_salas_traces(w, m_max, n_max, variant):
    """The per-m trace rows through fancy-index gathers of the prefix pairs:
    the bits _salas_traces must reproduce."""
    lo = -n_max + 1
    his, los = _log_weight_prefix(w, lo, m_max + n_max)

    def logw(a, b):
        return (his[b - lo + 1] - his[a - lo]) + (los[b - lo + 1] - los[a - lo])

    ns = np.arange(1, n_max + 1)
    traces = np.empty((m_max + 1, n_max))
    for m in range(m_max + 1):
        left = logw(m - ns + 1, np.full_like(ns, m))
        right = logw(np.full_like(ns, m + 1), m + ns)
        if variant == "hypercyclic":
            traces[m] = np.maximum(left, -right).astype(np.float64)
        else:
            traces[m] = (left - right).astype(np.float64)
    return traces


class TestSalasTraces:
    @pytest.mark.parametrize("family", [genshi_hypercyclic_weights, genshi_supercyclic_weights])
    @pytest.mark.parametrize("c, m0", [(2.0, 3), (3.0, 2)])
    @pytest.mark.parametrize("variant", ["hypercyclic", "supercyclic"])
    @pytest.mark.parametrize("m_max, n_max", [(8, 2**14), (2, 64), (0, 8), (5, 9)])
    def test_bits_match_gather_loop(self, family, c, m0, variant, m_max, n_max):
        w = family(c, m0)
        got = _salas_traces(w, m_max, n_max, variant)
        want = reference_salas_traces(w, m_max, n_max, variant)
        assert got.shape == want.shape == (m_max + 1, n_max)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


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


# Fraction object-array reference for the tensor perturbation: the
# element's factors and pairing as numpy arrays of Fractions, T_xi and S_xi
# as sums of outer products, and the ladder as arrays cut from the same
# eliminations.


def _reference_exact(a) -> np.ndarray:
    a = np.asarray(a, dtype=object)
    return np.array([Fraction(v) for v in a.flat], dtype=object).reshape(a.shape)


def _reference_tensor_op(pairs, pairing):
    """T_xi = sum_j x_j (B y_j)^T and S_xi = sum_j y_j (x_j^T B)^T as
    Fraction object arrays."""
    b = _reference_exact(pairing)
    t = np.full((b.shape[0], b.shape[0]), Fraction(0), dtype=object)
    s = np.full((b.shape[1], b.shape[1]), Fraction(0), dtype=object)
    for x, y in pairs:
        x, y = _reference_exact(x), _reference_exact(y)
        t += np.outer(x, b @ y)
        s += np.outer(y, x @ b)
    return t, s


def _reference_ebs_perturb(pairs, pairing, x1, x2, s, n):
    """``(pairs of xi_s, u vectors, f vectors)`` on Fraction object arrays."""
    s = Fraction(s)
    t, smat = (RationalMatrix(m) for m in _reference_tensor_op(pairs, pairing))
    x1, x2 = _reference_exact(x1), _reference_exact(x2)
    bmat = RationalMatrix(_reference_exact(pairing))
    everything = slice(None)
    targets = RationalMatrix([x1, x2]) @ bmat
    f0 = RationalMatrix._block([[smat], [targets]], everything, everything).nullspace()
    u0m = RationalMatrix(t.nullspace())
    g = u0m @ (bmat @ RationalMatrix(f0).transpose())
    eye = RationalMatrix.identity(g.rows)
    red, pivots = RationalMatrix._block([[g, eye]], everything, everything).rref()
    p = RationalMatrix._block([[red]], slice(2 * n), slice(g.cols, None))
    u_vecs = [np.asarray(row, dtype=object) for row in (p @ u0m).data]
    f_vecs = [np.asarray(f0[c], dtype=object) for c in pivots[: 2 * n]]
    eta = [(x1, f_vecs[0]), (x2, f_vecs[n])]
    for j in range(2, n + 1):
        eta.append((u_vecs[j - 2], f_vecs[j - 1]))
        eta.append((u_vecs[n + j - 2], f_vecs[n + j - 1]))
    scaled = [(np.asarray([s * a for a in x], dtype=object), y) for x, y in eta]
    return list(pairs) + scaled, u_vecs, f_vecs


def _reference_shaped_nilpotent_pairs(rng, dim: int):
    """``(pairs, pairing, x1, x2)`` of the ``perturb`` report's draw, with the
    same rng calls in the same order."""
    f0 = Fraction(0)

    def unit(i, c):
        v = np.array([f0] * dim, dtype=object)
        v[i] = c
        return v

    pairing = np.array(
        [[Fraction(1) if i == j else f0 for j in range(dim)] for i in range(dim)],
        dtype=object,
    )
    c1 = Fraction(int(rng.integers(1, 8)), int(rng.integers(1, 8)))
    c2 = -Fraction(int(rng.integers(1, 8)), int(rng.integers(1, 8)))
    pairs = ((unit(dim - 5, c1), unit(0, Fraction(1))), (unit(dim - 4, c2), unit(1, Fraction(1))))
    return pairs, pairing, unit(dim - 3, Fraction(1)), unit(dim - 2, Fraction(1))


def _as_rows(m) -> tuple:
    return tuple(tuple(row) for row in m)


class TestEbsPerturbMatchesReference:
    """``tensor_op`` of the perturbed element and the ladder, entry for
    entry, against the object-array reference."""

    def _check(self, xi, pairs, pairing, x1, x2, s, n):
        assert _as_rows(tensor_op(xi)[0].data) == _as_rows(_reference_tensor_op(pairs, pairing)[0])
        pert = ebs_perturb(xi, x1, x2, s, n=n)
        pairs_s, u_ref, f_ref = _reference_ebs_perturb(pairs, pairing, x1, x2, s, n)
        t, smat = tensor_op(pert.xi_s)
        t_ref, s_ref = _reference_tensor_op(pairs_s, pairing)
        assert t.data == _as_rows(t_ref)
        assert smat.data == _as_rows(s_ref)
        assert _as_rows(pert.u_vectors) == _as_rows(u_ref)
        assert _as_rows(pert.f_vectors) == _as_rows(f_ref)

    @pytest.mark.parametrize("dim, depth", [(10, 2), (12, 3)])
    def test_conftest_shapes(self, dim, depth):
        rng = np.random.default_rng(dim * 10 + depth)
        for _ in range(4):
            pairs, pairing, x1, x2 = shaped_nilpotent_pairs(rng, dim, depth)
            s = Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 9)))
            self._check(TensorElement(pairs, pairing), pairs, pairing, x1, x2, s, depth)

    @pytest.mark.parametrize("dim", range(10, 15))
    def test_perturb_report_draws(self, dim):
        for seed in range(4):
            xi, x1, x2 = _shaped_nilpotent_tensor(np.random.default_rng(seed), dim)
            ref = _reference_shaped_nilpotent_pairs(np.random.default_rng(seed), dim)
            pairs, pairing, rx1, rx2 = ref
            assert (tuple(x1), tuple(x2)) == (tuple(rx1), tuple(rx2))
            for s in (Fraction(1, 2), Fraction(-7, 3)):
                self._check(xi, pairs, pairing, x1, x2, s, 2)


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


class _RecordingRng:
    """A generator with only ``uniform(low, high, size)``, logging each call."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = []

    def uniform(self, low, high, size):
        self.calls.append((low, high, size))
        return self.rng.uniform(low, high, size)


def _complex_triangle_u(z):
    a, b = np.real(z), np.imag(z)
    return (a < 0) & (b - a < 1) & (b + a > -1)


def _complex_region_v(z):
    a, b = np.real(z), np.imag(z)
    with np.errstate(invalid="ignore"):
        return (0 < b) & (b < 1) & (np.abs(a) < 1.0 - np.sqrt(1.0 - b * b))


def reference_sample(region, rng, count):
    """The complex-batch rejection loop ``RegionPredicate.sample`` is pinned
    to: each batch draws its real parts, then its imaginary parts, forms the
    complex points and keeps those the region's complex predicate accepts."""
    contains = {"U": _complex_triangle_u, "V": _complex_region_v}[region.name]
    re_min, re_max, im_min, im_max = region.bbox
    out = np.empty(count, dtype=np.complex128)
    got = 0
    while got < count:
        batch = max(count - got, 256)
        zs = rng.uniform(re_min, re_max, batch) + 1j * rng.uniform(im_min, im_max, batch)
        sel = zs[contains(zs)]
        take = min(sel.size, count - got)
        out[got : got + take] = sel[:take]
        got += take
    return out


class TestRegionSampler:
    """``RegionPredicate.sample`` keeps the bytes and the draws of the
    complex-batch loop; counts below 256 take the minimum batch."""

    @pytest.mark.parametrize("count", [1, 255, 10**4, 10**5])
    @pytest.mark.parametrize("name", ["U", "V"])
    def test_bytes_match_complex_batch_loop(self, name, count):
        region = builtin_region(name)
        for seed in range(8):
            got = region.sample(np.random.default_rng(seed), count)
            want = reference_sample(region, np.random.default_rng(seed), count)
            assert got.dtype == np.complex128 and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("count", [1, 255, 10**4])
    @pytest.mark.parametrize("name", ["U", "V"])
    def test_uniform_only_stub_sees_the_generator_draws(self, name, count):
        region = builtin_region(name)
        for seed in range(8):
            stub, ref = _RecordingRng(seed), _RecordingRng(seed)
            got = region.sample(stub, count)
            want = reference_sample(region, ref, count)
            assert stub.calls == ref.calls
            assert got.tobytes() == want.tobytes()
            assert got.tobytes() == region.sample(np.random.default_rng(seed), count).tobytes()


def _ref_triangle_u(z: complex) -> bool:
    a, b = z.real, z.imag
    return a < 0 and b - a < 1 and b + a > -1


def _ref_region_v(z: complex) -> bool:
    a, b = z.real, z.imag
    return 0 < b < 1 and abs(a) < 1.0 - math.sqrt(1.0 - b * b)


_coord = st.one_of(
    st.floats(-1.5, 1.5),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, -1e-300, 1.0 - 2.0**-53]),
)


@st.composite
def _region_points(draw):
    """A point and its projections onto the region edges b = 0, a = 0,
    b - a = 1 and b + a = -1."""
    a, b = draw(_coord), draw(_coord)
    return [complex(a, b), complex(a, 0.0), complex(0.0, b), complex(a, a + 1.0), complex(a, -1.0 - a)]


@settings(max_examples=200, deadline=None)
@given(st.lists(_region_points(), min_size=1, max_size=8))
def test_region_predicates_match_scalar_reference(groups):
    zs = [z for group in groups for z in group]
    for region, ref in ((builtin_region("U"), _ref_triangle_u), (builtin_region("V"), _ref_region_v)):
        expected = [ref(z) for z in zs]
        got = region.contains(np.array(zs))
        assert got.dtype == bool and got.tolist() == expected
        assert [bool(region.contains(z)) for z in zs] == expected  # scalars still work


def reference_symmetry_obstruction(w, p_coeffs, trials, horizon, seed):
    """The per-trial loop symmetry_obstruction is checked against: one
    matrix-vector product and three dots per (trial, step), max by Python's
    ``max``.  Returns max_residual; only for weights that pass the |w_n| =
    |w_-n| check and whose orbits stay finite."""
    m = max(w.half + 2, 12)
    idx = list(range(-m, m))
    dim = len(idx)
    t0 = np.zeros((dim, dim))
    for col, nidx in enumerate(idx):
        if nidx - 1 >= idx[0]:
            t0[col - 1, col] = abs(w.value(nidx))

    def poly(mat):
        out = np.zeros_like(mat)
        power = np.eye(dim, dtype=mat.dtype)
        for c in p_coeffs:
            out = out + float(c) * power
            power = power @ mat
        return out

    s0, s0t = poly(t0), poly(t0.T)
    rng = np.random.default_rng(seed)
    max_res = 0.0
    for _ in range(trials):
        x = rng.uniform(-1.0, 1.0, dim)
        y = rng.uniform(-1.0, 1.0, dim)
        x_norm, y_norm = math.sqrt(x.dot(x)), math.sqrt(y.dot(y))
        a, b = x, y
        for _n in range(1, horizon + 1):
            a = s0 @ a
            b = s0t @ b
            scale = max(1.0, math.sqrt(a.dot(a)) * y_norm, math.sqrt(b.dot(b)) * x_norm)
            res = abs(float(a @ y) - float(b @ x)) / scale
            max_res = max(max_res, res)
    return max_res


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

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("p_coeffs", [[0.0, 1.0], [1.0, 1.0]], ids=["t", "1+t"])
    def test_matches_per_trial_reference(self, seed, p_coeffs):
        w = symmetric_decay_weights()
        for trials, horizon in ((100, 50), (1, 50), (100, 1)):
            rep = symmetry_obstruction(w, p_coeffs, trials=trials, horizon=horizon, seed=seed)
            want = reference_symmetry_obstruction(w, p_coeffs, trials, horizon, seed)
            assert rep.verdict == "holds"
            assert rep.max_residual.hex() == want.hex()

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
