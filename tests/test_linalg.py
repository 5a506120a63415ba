"""Floating linear algebra and subspace arithmetic."""

from fractions import Fraction

import numpy as np
import pytest

from shiftlab.errors import DomainError, InputError
from shiftlab.linalg import (
    Subspace,
    cluster_points,
    eigenvalues,
    exp_nilpotent,
    intersect,
    kernel_and_image,
    span_union,
)
from shiftlab.nilpotent import backward_shift
from shiftlab.rational import RationalMatrix


def unit(i, dim):
    v = np.zeros(dim)
    v[i] = 1.0
    return v


class TestKernelAndImage:
    def test_backward_shift_k4(self):
        kernel, image = kernel_and_image(backward_shift(4))
        assert kernel.same_space(Subspace.from_vectors([unit(0, 4)]), 1e-9)
        assert image.same_space(Subspace.from_vectors([unit(i, 4) for i in range(3)]), 1e-9)

    def test_identity_and_zero(self):
        kernel, image = kernel_and_image(np.eye(5))
        assert kernel.dim == 0 and image.dim == 5
        kernel, image = kernel_and_image(np.zeros((5, 5)))
        assert kernel.dim == 5 and image.dim == 0

    def test_rank_nullity_on_random(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            rows, cols = rng.integers(2, 9, size=2)
            rank = int(rng.integers(0, min(rows, cols) + 1))
            a = (rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, cols))) if rank else np.zeros((rows, cols))
            kernel, image = kernel_and_image(a, 1e-9)
            assert kernel.dim + image.dim == cols

    def test_nonfinite_rejected(self):
        with pytest.raises(InputError):
            kernel_and_image(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestIntersect:
    def test_coordinate_planes(self):
        u = Subspace.from_vectors([unit(0, 4), unit(1, 4)])
        v = Subspace.from_vectors([unit(1, 4), unit(2, 4)])
        w = intersect(u, v)
        assert w.same_space(Subspace.from_vectors([unit(1, 4)]), 1e-9)

    def test_self_intersection(self):
        u = Subspace.from_vectors([unit(0, 3), unit(2, 3)])
        assert intersect(u, u).same_space(u, 1e-9)

    def test_general_position_dimension_count(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            u = Subspace.from_vectors(rng.normal(size=(3, 5)))
            v = Subspace.from_vectors(rng.normal(size=(2, 5)))
            total = span_union([u, v], 5)
            expected = u.dim + v.dim - total.dim  # dimension-count oracle
            assert intersect(u, v).dim == expected == 0

    def test_commutative_and_idempotent(self):
        rng = np.random.default_rng(3)
        u = Subspace.from_vectors(rng.normal(size=(3, 6)))
        v = Subspace.from_vectors(rng.normal(size=(4, 6)))
        a = intersect(u, v)
        b = intersect(v, u)
        assert a.dim == b.dim and a.same_space(b, 1e-7)

    def test_ambient_mismatch(self):
        with pytest.raises(InputError):
            intersect(Subspace.full(3), Subspace.full(4))


class TestExpNilpotent:
    def test_k2_formula(self):
        for z in (0.5, 2.0 + 1.0j, -3.0):
            out = exp_nilpotent(backward_shift(2), z)
            assert np.allclose(out, [[1.0, z], [0.0, 1.0]])

    def test_zero_parameter(self):
        assert np.allclose(exp_nilpotent(backward_shift(6), 0.0), np.eye(6))

    def test_inverse_identity(self):
        rng = np.random.default_rng(1)
        for dim in (4, 8, 12):
            n = np.triu(rng.normal(size=(dim, dim)), 1)
            z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            prod = exp_nilpotent(n, z) @ exp_nilpotent(n, -z)
            assert np.linalg.norm(prod - np.eye(dim)) < 1e-12 * max(
                1.0, np.linalg.norm(exp_nilpotent(n, z))
            )

    def test_group_law(self):
        rng = np.random.default_rng(5)
        for dim in (6, 12):
            a = np.triu(rng.normal(size=(dim, dim)), 1)
            z = complex(rng.uniform(-8, 8))
            w = complex(rng.uniform(-8, 8))
            lhs = exp_nilpotent(a, z) @ exp_nilpotent(a, w)
            rhs = exp_nilpotent(a, z + w)
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(1.0, np.linalg.norm(rhs))

    def test_rejects_non_nilpotent(self):
        with pytest.raises(DomainError):
            exp_nilpotent(np.eye(3), 1.0)


class TestEigenvalues:
    def test_diagonal(self):
        vals = sorted(eigenvalues(np.diag([2.0, 0.5])).real)
        assert np.allclose(vals, [0.5, 2.0])

    def test_unipotent(self):
        vals = eigenvalues(np.eye(4) + backward_shift(4))
        assert np.allclose(vals, 1.0, atol=1e-3)  # defective cloud around 1
        assert abs(np.mean(vals) - 1.0) < 1e-12

    def test_companion_of_z2_minus_1(self):
        comp = np.array([[0.0, 1.0], [1.0, 0.0]])
        vals = sorted(eigenvalues(comp).real)
        assert np.allclose(vals, [-1.0, 1.0], atol=1e-12)

    def test_dimension_cap(self):
        with pytest.raises(InputError):
            eigenvalues(np.eye(65))


def test_complex_subspace_projection_uses_hermitian_inner_product():
    # regression: the projector must target span{b_i}, not span{conj(b_i)}
    rng = np.random.default_rng(13)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    sp = Subspace.from_vectors([q @ unit(0, 4), q @ unit(1, 4)])
    inside = q @ (0.3 * unit(0, 4) + 0.7 * unit(1, 4))
    outside = q @ unit(2, 4)
    assert sp.distance(inside) <= 1e-12
    assert sp.distance(outside) >= 0.9
    met = intersect(sp, Subspace.from_vectors([q @ unit(1, 4), q @ unit(2, 4)]))
    assert met.dim == 1 and met.contains(q @ unit(1, 4), 1e-9)


def test_cluster_points_groups_nearby():
    pts = [1.0, 1.0 + 1e-9j, 5.0, 5.0 + 1e-9]
    clusters = cluster_points(pts, 1e-6)
    sizes = sorted(len(members) for _, members in clusters)
    assert sizes == [2, 2]


def test_from_vectors_drops_dependent():
    sp = Subspace.from_vectors([[1, 0, 0], [2, 0, 0], [0, 1, 0]])
    assert sp.basis.shape == (2, 3)
    gram = sp.basis @ sp.basis.conj().T
    assert np.allclose(gram, np.eye(2), atol=1e-12)
    assert sp.same_space(Subspace.from_vectors([unit(0, 3), unit(1, 3)]), 1e-12)


def test_from_vectors_of_nothing_needs_an_ambient():
    assert Subspace.from_vectors([], 3).dim == 0
    with pytest.raises(InputError):
        Subspace.from_vectors([])


@pytest.mark.parametrize("vectors", [[[1, 0, 0], [0, 1]], [[1, 0], [0, 1, 0]]])
def test_from_vectors_rejects_ragged_vectors(vectors):
    with pytest.raises(InputError):
        Subspace.from_vectors(vectors)


def test_from_vectors_decides_rank_by_the_relative_singular_value_cutoff():
    # a second vector 1e-12 off the first is dependent at tol 1e-9 whatever
    # the scale, and independent once the cutoff lies below its singular value
    for scale in (1e-6, 1.0, 1e6):
        vecs = [scale * unit(0, 3), scale * (unit(0, 3) + 1e-12 * unit(1, 3))]
        assert Subspace.from_vectors(vecs).dim == 1
        assert Subspace.from_vectors(vecs, 3, 1e-14).dim == 2


def test_det_exact_agrees_with_float_promotion():
    rng = np.random.default_rng(11)
    for _ in range(5):
        data = [
            [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7))) for _ in range(6)]
            for _ in range(6)
        ]
        m = RationalMatrix(data)
        exact = float(m.det())
        promoted = np.linalg.det(m.to_float())
        assert abs(exact - promoted.real) <= 1e-9 * max(1.0, abs(exact))


# symmetry_obstruction, mixing_window and u3_density batch their vectors
# through stacked matmul and keep every float's bits only because numpy makes
# the same BLAS call per stacked element as for one vector: gemv for
# (d, d) @ (B, d, 1) and dot for (B, 1, d) @ (B, d, 1), with the vector
# strides unchanged.  A numpy that dispatches otherwise fails here by name.
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("dim", [6, 21, 24])
def test_stacked_matmul_matches_per_vector_calls_bit_for_bit(dtype, dim):
    rng = np.random.default_rng(dim)

    def draw(*shape):
        out = rng.normal(size=shape)
        return out + 1j * rng.normal(size=shape) if dtype is np.complex128 else out

    mat, xs, ys = draw(dim, dim), draw(9, dim), draw(9, dim)
    stacked = (mat @ xs[:, :, None])[:, :, 0]
    assert stacked.tobytes() == np.array([mat @ x for x in xs]).tobytes()
    stacked = (xs[:, None, :] @ ys[:, :, None])[:, 0, 0]
    assert stacked.tobytes() == np.array([x @ y for x, y in zip(xs, ys)]).tobytes()
    assert stacked.tobytes() == np.array([x.dot(y) for x, y in zip(xs, ys)]).tobytes()
    if dtype is np.complex128:
        # the strided real and imaginary views that dynamics._cnorm dots
        for part in (xs.real, xs.imag):
            stacked = (part[:, None, :] @ part[:, :, None])[:, 0, 0]
            assert stacked.tobytes() == np.array([p.dot(p) for p in part]).tobytes()
