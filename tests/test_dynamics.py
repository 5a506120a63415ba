"""Orbits, exponential groups and the empirical diagnostics."""

import numpy as np
import pytest

from shiftlab.dynamics import (
    Ball,
    NetSpec,
    bump_function,
    default_scale_grid,
    exp_group,
    group_law_residual,
    kernel_ladder,
    mixing_window,
    orbit,
    supercyclic_probe,
    transitivity_pair,
    u3_density,
    volterra_dist,
)
from shiftlab.errors import DomainError, InputError, PreconditionError
from shiftlab.nilpotent import backward_shift
from shiftlab.operators import (
    bilateral_shift,
    genshi_supercyclic_weights,
    integral_op,
    saan_generators,
)


def unit(i, dim):
    v = np.zeros(dim)
    v[i] = 1.0
    return v


def nilpotent_weighted_shift(dim, seed=2):
    rng = np.random.default_rng(seed)
    m = np.zeros((dim, dim), dtype=complex)
    for k in range(1, dim):
        m[k - 1, k] = 0.5 + rng.uniform(0, 1)
    return m


class TestOrbit:
    def test_identity_constant(self):
        tr = orbit(np.eye(4), np.ones(4), 10)
        assert len(tr) == 11
        for it in tr.iterates:
            assert np.allclose(it, 1.0)

    def test_scaled_doubling(self):
        tr = orbit(2.0 * np.eye(3), np.ones(3), 8, scalings=[2.0**-n for n in range(9)])
        for it in tr.iterates:
            assert np.allclose(it, 1.0)

    def test_matches_repeated_multiplication(self):
        rng = np.random.default_rng(0)
        t = rng.normal(size=(16, 16)) / 4.0
        x = rng.normal(size=16)
        tr = orbit(t, x, 200)
        cur = x.astype(complex)
        for k in (0, 7, 100, 200):
            ref = np.linalg.matrix_power(t, k) @ x
            assert np.linalg.norm(tr.iterates[k] - ref) <= 1e-12 * max(1.0, np.linalg.norm(ref))
            cur = cur  # keep flake quiet

    def test_overflow_flags_truncation(self):
        tr = orbit(10.0 * np.eye(2), np.ones(2), 400)
        assert tr.truncated
        assert len(tr) < 401

    def test_zero_scaling_rejected(self):
        with pytest.raises(InputError):
            orbit(np.eye(2), np.ones(2), 1, scalings=[1.0, 0.0])


class TestExpGroup:
    def test_shift_formula(self):
        g = exp_group([backward_shift(2)], [3.0])
        assert np.allclose(g, [[1.0, 3.0], [0.0, 1.0]])

    def test_zero_parameter_is_identity(self):
        mats = saan_generators(2, 10)
        assert np.array_equal(exp_group(mats, [0.0, 0.0]), np.eye(10))

    def test_inverse_identity(self):
        mats = saan_generators(2, 21)
        z = [0.8, -1.3]
        prod = exp_group(mats, z) @ exp_group(mats, [-a for a in z])
        assert np.linalg.norm(prod - np.eye(21)) <= 1e-10

    def test_group_law_on_saan_generators(self):
        mats = saan_generators(2, 45)
        rng = np.random.default_rng(1)
        for _ in range(3):
            z = rng.uniform(-1, 1, 2)
            w = rng.uniform(-1, 1, 2)
            assert group_law_residual(mats, z, w) <= 1e-10

    def test_noncommuting_pair_rejected_and_law_fails(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        b = a.T
        with pytest.raises(PreconditionError):
            exp_group([a, b], [1.0, 1.0])
        assert group_law_residual([a, b], [1.0, 0.0], [0.0, 1.0]) > 0.1


class TestU3Density:
    def test_identity_family_confined_to_diagonal(self):
        net = NetSpec(cells=2, box=4.0, x_coord=0, y_coord=0)
        rep = u3_density(np.eye(9), net, horizon=10, seed=0)
        assert rep.fraction < 1.0
        assert rep.hit_cells <= net.cells  # only diagonal cells

    def test_genshi_supercyclic_family_covers(self):
        w = genshi_supercyclic_weights()
        t = bilateral_shift(w, 10)
        net = NetSpec(cells=6, box=4.0, x_coord=10, y_coord=10)
        rep = u3_density(t, net, horizon=1000, seed=7, scale_grid=default_scale_grid(), base_count=40)
        assert rep.fraction >= 0.9

    def test_monotone_in_horizon(self):
        w = genshi_supercyclic_weights()
        t = bilateral_shift(w, 6)
        net = NetSpec(cells=8, box=4.0, x_coord=6, y_coord=6)
        fracs = [
            u3_density(t, net, horizon=h, seed=3, scale_grid=[1.0], base_count=12).fraction
            for h in (2, 8, 64)
        ]
        assert fracs[0] <= fracs[1] <= fracs[2]

    def test_reproducible_for_fixed_seed(self):
        t = bilateral_shift(genshi_supercyclic_weights(), 6)
        net = NetSpec(cells=6, box=4.0, x_coord=6, y_coord=6)
        a = u3_density(t, net, horizon=100, seed=11, scale_grid=default_scale_grid())
        b = u3_density(t, net, horizon=100, seed=11, scale_grid=default_scale_grid())
        assert a.to_dict() == b.to_dict()

    def test_empty_net_rejected(self):
        with pytest.raises(InputError):
            NetSpec(cells=1, box=4.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale_grid", [None, default_scale_grid()])
    def test_overflowing_orbit_stops_instead_of_raising(self, scale_grid):
        # 3^n x leaves float range near n = 646; the cells the orbit hits
        # on its way out are all hit within the first 20 steps
        net = NetSpec()
        long = u3_density(3 * np.eye(2), net, horizon=1000, scale_grid=scale_grid)
        short = u3_density(3 * np.eye(2), net, horizon=20, scale_grid=scale_grid)
        assert long.to_dict() == {**short.to_dict(), "horizon": 1000}


class TestMixingWindow:
    def test_unipotent_hits_tail_window(self):
        n = 3
        t = np.eye(2 * n) + backward_shift(2 * n)
        rep = mixing_window(
            t, Ball(unit(0, 2 * n), 0.25), Ball(unit(1, 2 * n), 0.25), horizon=40, seed=0
        )
        assert rep.first_window_start is not None
        assert all(rep.hits[rep.first_window_start - 1 :])

    def test_modulus_preserving_diagonal_never_hits(self):
        t = np.diag(np.exp(1j * np.array([0.5, 1.5, 2.5])))
        rep = mixing_window(
            t, Ball(np.array([1.0, 0, 0]), 0.1), Ball(np.array([3.0, 0, 0]), 0.1), horizon=30, seed=1
        )
        assert not any(rep.hits)

    def test_radius_doubling_keeps_hits(self):
        n = 2
        t = np.eye(2 * n) + backward_shift(2 * n)
        small = mixing_window(
            t, Ball(unit(0, 2 * n), 0.2), Ball(unit(1, 2 * n), 0.2), horizon=30, seed=5
        )
        big = mixing_window(
            t, Ball(unit(0, 2 * n), 0.4), Ball(unit(1, 2 * n), 0.4), horizon=30, seed=5
        )
        for s, b in zip(small.hits, big.hits):
            assert b or not s

    def test_invariance_under_unitary_conjugation(self):
        # pair/center probes are equivariant constructions; random probes are
        # not conjugated, so they are disabled here
        rng = np.random.default_rng(9)
        n = 2
        t = np.eye(2 * n) + backward_shift(2 * n)
        q, _ = np.linalg.qr(rng.normal(size=(2 * n, 2 * n)) + 1j * rng.normal(size=(2 * n, 2 * n)))
        u_c, v_c = unit(0, 2 * n), unit(1, 2 * n)
        rep1 = mixing_window(t, Ball(u_c, 0.3), Ball(v_c, 0.3), horizon=25, seed=3, probe_budget=0)
        rep2 = mixing_window(
            q @ t @ q.conj().T,
            Ball(q @ u_c, 0.3),
            Ball(q @ v_c, 0.3),
            horizon=25,
            seed=3,
            probe_budget=0,
        )
        assert rep1.first_window_start == rep2.first_window_start


class TestTransitivityPair:
    def test_zero_pair(self):
        t = np.eye(4) + backward_shift(4)
        pair = transitivity_pair(t, np.zeros(4), np.zeros(4), 16)
        assert np.linalg.norm(pair.x) <= 1e-12

    def test_unipotent_residuals_decay(self):
        t = np.eye(4) + backward_shift(4)
        prev = np.inf
        for k in (16, 64, 256, 1024, 4096):
            pair = transitivity_pair(t, unit(0, 4), unit(1, 4), k)
            cur = max(pair.residual_u, pair.residual_v)
            assert cur < prev
            prev = cur
        assert prev <= 2e-3  # errors are Theta(1/k); ~1e-3 at k = 4096

    def test_linear_in_targets(self):
        t = np.eye(4) + backward_shift(4)
        k = 64
        u1, u2, v = unit(0, 4), unit(1, 4), unit(1, 4)
        x_sum = transitivity_pair(t, u1 + u2, v, k).x
        x_split = transitivity_pair(t, u1, v, k).x + transitivity_pair(t, u2, np.zeros(4), k).x
        assert np.linalg.norm(x_sum - x_split) <= 1e-10

    def test_outside_span_rejected_with_distance(self):
        t = np.eye(4) + backward_shift(4)
        with pytest.raises(DomainError) as err:
            transitivity_pair(t, unit(3, 4), unit(0, 4), 16)
        assert "distance" in str(err.value)


class TestSupercyclicProbe:
    def test_nilpotent_shift_coverage(self):
        t = nilpotent_weighted_shift(16)
        net = NetSpec(cells=5, box=3.0, x_coord=0, y_coord=1)
        rep = supercyclic_probe(t, net, horizon=14, seed=3)
        assert rep.verdict == "coverage"
        assert rep.coverage.fraction >= 0.9
        assert rep.ladder_dims[-1] == 16  # full flag

    def test_tap_operator_ladder_matches_support_structure(self):
        t, ladder = integral_op(lambda x: 1.0, lambda x: x / 2.0, 64)
        spaces = kernel_ladder(t, tol=1e-7)
        xs = np.arange(65) / 64
        for n, space in enumerate(spaces[:4], 1):
            expected = int(np.sum(xs > ladder[n - 1]))
            assert space.dim == expected
            f = np.where(xs > ladder[n - 1], 1.0, 0.0)  # indicator above a_n
            assert space.contains(f, 1e-6)

    def test_invertible_inapplicable(self):
        rep = supercyclic_probe(2.0 * np.eye(5), NetSpec(cells=4, box=2.0), horizon=10)
        assert rep.verdict == "inapplicable"
        assert rep.coverage is None

    def test_scalings_follow_doubling_rule(self):
        # lambda_k = 2^k max(1, ||u_k||) makes the scaled preimages vanish
        t = nilpotent_weighted_shift(8)
        rep = supercyclic_probe(t, NetSpec(cells=4, box=2.0), horizon=6, seed=0)
        lam = rep.scalings
        assert all(lam[k] >= 2.0 ** (k + 1) * 0.999 for k in range(len(lam)))


class TestVolterraDist:
    def test_adjoint_derivative_identity(self):
        trace = volterra_dist(2048, 0.5, n_max=0)
        assert trace.adjoint_residual <= 1e-8

    def test_zero_function_zero_trace(self):
        trace = volterra_dist(256, 0.5, f=np.zeros(257), n_max=10)
        assert all(d == 0.0 for d in trace.distances)

    def test_bump_distance_trace(self):
        trace = volterra_dist(512, 0.5, n_max=40)
        rel = [d / trace.f_norm for d in trace.distances]
        assert min(rel) <= 0.05
        # decay consistent with convergence to zero: tail below the head
        assert np.mean(rel[-5:]) < np.mean(rel[:5])

    def test_deterministic_reproduction(self):
        a = volterra_dist(256, 0.5, n_max=12)
        b = volterra_dist(256, 0.5, n_max=12)
        assert a.to_dict() == b.to_dict()

    def test_support_violation_rejected(self):
        bad = np.ones(257)
        with pytest.raises(InputError):
            volterra_dist(256, 0.5, f=bad, n_max=4)

    def test_bump_support(self):
        f = bump_function(128, 0.5)
        xs = np.arange(129) / 128
        assert np.all(f[xs >= 0.5] == 0.0)
        assert f.max() > 0
