"""The group-law residual and the empirical diagnostics."""

import hashlib
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab.dynamics import (
    _cnorm,
    _cnorms,
    _volterra_table,
    Ball,
    CoverageReport,
    HitReport,
    NetSpec,
    bump_function,
    default_scale_grid,
    group_law_residual,
    mixing_window,
    transitivity_pair,
    u3_density,
    volterra_dist,
)
from shiftlab.criteria import unimodular_chain_spaces
from shiftlab.errors import DomainError, InputError, PreconditionError
from shiftlab.linalg import Subspace
from shiftlab.nilpotent import backward_shift
from shiftlab.operators import (
    bilateral_shift,
    genshi_supercyclic_weights,
    saan_generators,
)


def unit(i, dim):
    v = np.zeros(dim)
    v[i] = 1.0
    return v


def reference_u3_density(T, net, horizon, seed=0, scale_grid=None, base_count=40, pair_sampler=None):
    """The per-scalar loop u3_density is checked against: one cell lookup
    per (base, n, scale) with Python float floor division."""
    t = np.asarray(T.matrix if hasattr(T, "matrix") else T, dtype=np.complex128)
    dim = t.shape[0]
    rng = np.random.default_rng(seed)
    if pair_sampler is None:
        bases = rng.normal(size=(base_count, dim)) * (net.box / 2.0)
        strata = np.arange(base_count) % net.cells + rng.uniform(size=base_count)
        bases[:, net.x_coord] = strata / net.cells * 2.0 * net.box - net.box
    else:
        bases = np.asarray(pair_sampler(rng, base_count, dim))
    scales = [1.0] if scale_grid is None else list(scale_grid)
    reach = max(map(abs, scales), default=0.0)
    side = 2.0 * net.box / net.cells
    hit = set()
    with np.errstate(over="ignore", invalid="ignore"):
        for x in bases:
            u = float(np.real(x[net.x_coord]))
            cur = x.astype(np.complex128)
            for _n in range(horizon + 1):
                y = reach * complex(cur[net.y_coord])
                if not (math.isfinite(y.real) and math.isfinite(y.imag)):
                    break
                for a in scales:
                    v = float(np.real(a * cur[net.y_coord]))
                    iu = int((u + net.box) // side)
                    iv = int((v + net.box) // side)
                    if 0 <= iu < net.cells and 0 <= iv < net.cells:
                        hit.add(iu * net.cells + iv)
                cur = t @ cur
    total = net.cells * net.cells
    return CoverageReport(len(hit) / total, len(hit), total, horizon, seed)


def chunked_u3_density(T, net, horizon, seed=0, scale_grid=None, base_count=40):
    """u3_density's stacked orbit loop, copied as it stood before the loop
    learned to stop once every cell is hit: it always runs every step."""
    t = np.asarray(T.matrix if hasattr(T, "matrix") else T, dtype=np.complex128)
    dim = t.shape[0]
    rng = np.random.default_rng(seed)
    bases = rng.normal(size=(base_count, dim)) * (net.box / 2.0)
    strata = np.arange(base_count) % net.cells + rng.uniform(size=base_count)
    bases[:, net.x_coord] = strata / net.cells * 2.0 * net.box - net.box
    scales = [1.0] if scale_grid is None else list(scale_grid)
    reach = max(map(abs, scales), default=0.0)
    scales = np.asarray(scales)
    hit = np.zeros(net.cells * net.cells, dtype=bool)
    us = np.real(bases[:, net.x_coord])
    iu = net._axis(us)
    on = (0 <= iu) & (iu < net.cells)
    us, cur = us[on], bases[on].astype(np.complex128)[:, :, None]
    chunk = 64
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, horizon + 1, chunk):
            ys = np.empty((min(chunk, horizon + 1 - start), len(us)), dtype=np.complex128)
            for k in range(len(ys)):
                ys[k] = cur[:, net.y_coord, 0]
                if start + k < horizon:
                    cur = t @ cur
            live = np.logical_and.accumulate(np.isfinite(reach * ys), axis=0)
            vs = np.real(np.multiply.outer(ys[live], scales))
            cells = net.cell_of(us[np.nonzero(live)[1], None], vs)
            hit[cells[cells >= 0]] = True
            us, cur = us[live[-1]], cur[live[-1]]
            if not len(us):
                break
    hits = int(np.sum(hit))
    total = net.cells * net.cells
    return CoverageReport(hits / total, hits, total, horizon, seed)


def reference_mixing_window(t, ball_u, ball_v, horizon, probe_budget, seed, decided=None):
    """The per-step loop mixing_window is checked against: one full
    transitivity_pair per step n, its residual norms recomputed from x.

    ``decided``, if given, collects (n, probe index, frac) for every step
    that only a random probe hits."""
    dim = t.shape[0]
    u_c, v_c = ball_u.center, ball_v.center
    pieces = unimodular_chain_spaces(t)
    use_pairs = False
    if pieces:
        lam = Subspace.from_vectors([row for _, _, sp in pieces for row in sp.basis], dim)
        use_pairs = lam.contains(u_c, 1e-7) and lam.contains(v_c, 1e-7)
    hits = []
    power = np.eye(dim, dtype=np.complex128)
    for n in range(1, horizon + 1):
        power = power @ t
        hit = False
        if use_pairs:
            try:
                x = transitivity_pair(t, u_c, v_c, n).x
                hit = (
                    float(np.linalg.norm(x - u_c)) <= ball_u.radius
                    and float(np.linalg.norm(power @ x - v_c)) <= ball_v.radius
                )
            except (DomainError, PreconditionError):
                hit = False
        if not hit and float(np.linalg.norm(power @ u_c - v_c)) <= ball_v.radius:
            hit = True
        if not hit:
            rng = np.random.default_rng((seed, n))
            for probe in range(probe_budget):
                eta = rng.normal(size=dim) + 1j * rng.normal(size=dim)
                eta /= float(np.linalg.norm(eta))
                for frac in (1.0, 0.5, 0.25):
                    x = u_c + ball_u.radius * frac * eta
                    if float(np.linalg.norm(power @ x - v_c)) <= ball_v.radius:
                        hit = True
                        if decided is not None:
                            decided.append((n, probe, frac))
                        break
                if hit:
                    break
        hits.append(hit)
    first = None
    for start in range(horizon, 0, -1):
        if not hits[start - 1]:
            break
        first = start
    return HitReport(tuple(hits), first, horizon, seed)


class TestGroupLawResidual:
    def test_group_law_on_saan_generators(self):
        mats = saan_generators(2, 45)
        rng = np.random.default_rng(1)
        for _ in range(3):
            z = rng.uniform(-1, 1, 2)
            w = rng.uniform(-1, 1, 2)
            assert group_law_residual(mats, z, w) <= 1e-10

    def test_noncommuting_pair_law_fails(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert group_law_residual([a, a.T], [1.0, 0.0], [0.0, 1.0]) > 0.1


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

    def test_box_past_the_float_range_rejected(self):
        # 2 * box, the net's side, must be a float
        with pytest.raises(InputError, match="float range"):
            NetSpec(box=1e308)
        NetSpec(box=8.98e307)

    def test_non_finite_base_rejected(self):
        def infinite(rng, count, dim):
            return np.full((count, dim), np.inf)

        with pytest.raises(InputError, match="float range"):
            u3_density(np.eye(2), NetSpec(), 1, pair_sampler=infinite)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale_grid", [None, default_scale_grid()])
    def test_overflowing_orbit_stops_instead_of_raising(self, scale_grid):
        # 3^n x leaves float range near n = 646; the cells the orbit hits
        # on its way out are all hit within the first 20 steps
        net = NetSpec()
        long = u3_density(3 * np.eye(2), net, horizon=1000, scale_grid=scale_grid)
        short = u3_density(3 * np.eye(2), net, horizon=20, scale_grid=scale_grid)
        assert long.to_dict() == {**short.to_dict(), "horizon": 1000}

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("scale_grid", [None, default_scale_grid()])
    def test_matches_per_scalar_reference(self, seed, scale_grid):
        t = bilateral_shift(genshi_supercyclic_weights(), 6)
        net = NetSpec(cells=10, box=4.0, x_coord=6, y_coord=5)
        kwargs = dict(horizon=120, seed=seed, scale_grid=scale_grid, base_count=15)
        assert u3_density(t, net, **kwargs) == reference_u3_density(t, net, **kwargs)

    @pytest.mark.parametrize("scale_grid", [None, default_scale_grid()])
    def test_overflowing_orbit_matches_reference(self, scale_grid):
        net = NetSpec()
        kwargs = dict(horizon=1000, scale_grid=scale_grid)
        assert u3_density(3 * np.eye(2), net, **kwargs) == reference_u3_density(3 * np.eye(2), net, **kwargs)

    @pytest.mark.parametrize("seed", range(8))
    def test_genshi_net_matches_loop_without_stop(self, seed):
        # the density report's net: every cell is hit long before the horizon
        t = bilateral_shift(genshi_supercyclic_weights(), 10)
        net = NetSpec(cells=6, box=4.0, x_coord=10, y_coord=10)
        kwargs = dict(horizon=1000, seed=seed, scale_grid=default_scale_grid(), base_count=40)
        got = u3_density(t, net, **kwargs)
        assert got == chunked_u3_density(t, net, **kwargs)
        assert got.hit_cells == got.total_cells

    @pytest.mark.parametrize("family", ["genshi-fine", "identity"])
    def test_net_never_covered_matches_loop_without_stop(self, family):
        if family == "identity":  # unscaled, only the diagonal cells are hit
            t, net, scales = np.eye(9), NetSpec(cells=6, box=4.0, x_coord=0, y_coord=0), None
        else:
            t = bilateral_shift(genshi_supercyclic_weights(), 10)
            net, scales = NetSpec(cells=24, box=4.0, x_coord=10, y_coord=10), default_scale_grid()
        kwargs = dict(horizon=300, seed=3, scale_grid=scales, base_count=40)
        got = u3_density(t, net, **kwargs)
        assert got == chunked_u3_density(t, net, **kwargs)
        assert got.hit_cells < got.total_cells

    def test_bases_outside_the_box_and_on_cell_edges_match_reference(self):
        # side 1.0: integer coordinates sit on cell edges, +-4 on the box
        # edges, and 9 / -7 put the input coordinate outside the net
        def sampler(rng, count, dim):
            xs = np.array([9.0, -7.0, -4.0, 4.0, 0.0, 3.0, -1.0, 2.5])[:count]
            ys = np.array([1.0, 2.0, -4.0, 4.0, 3.0, -3.0, 8.0, -0.5])[:count]
            return np.stack([xs, ys], axis=1)

        t = np.array([[1.0, 0.0], [0.0, 0.5]])
        net = NetSpec(cells=8, box=4.0, x_coord=0, y_coord=1)
        kwargs = dict(horizon=12, scale_grid=[1.0, -1.0, 2.0, -2.0, 0.0], base_count=8, pair_sampler=sampler)
        got = u3_density(t, net, **kwargs)
        assert got == reference_u3_density(t, net, **kwargs)
        assert 0 < got.hit_cells < net.cells * net.cells


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


    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("radius", [0.05, 0.25, 1.0])
    def test_matches_per_step_reference(self, n, radius):
        # the cmd_mixing operator and centers: T = I + S on K^(2n), e_0 -> e_1
        t = np.eye(2 * n) + backward_shift(2 * n)
        u_c, v_c = unit(0, 2 * n), unit(min(1, 2 * n - 1), 2 * n)
        for seed in range(4):
            for budget in (0, 32):
                args = (t, Ball(u_c, radius), Ball(v_c, radius), 40, budget, seed)
                assert mixing_window(*args) == reference_mixing_window(*args)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_centers_outside_the_chain_span_match_reference(self, seed):
        # e_3 is no chain-span vector of I + S on K^4: random and center
        # probes only
        t = np.eye(4) + backward_shift(4)
        for u_c, v_c in ((unit(3, 4), unit(0, 4)), (unit(0, 4), unit(3, 4))):
            args = (t, Ball(u_c, 0.5), Ball(v_c, 0.5), 30, 32, seed)
            assert mixing_window(*args) == reference_mixing_window(*args)

    # (T, u center, v center, u radius, v radius) where the center probe
    # misses and many steps hit only through a random probe; between them,
    # at every frac (in the identity case the frac-1 probes all miss)
    _PROBE_CASES = {
        "identity": (np.eye(2), unit(0, 2), 0.5 * unit(0, 2), 1.0, 0.3),
        "scalar-contraction": (np.array([[0.98]]), np.array([1.0]), np.array([0.5]), 1.0, 0.3),
        "damped-rotation": (
            0.99 * np.array([[math.cos(0.3), -math.sin(0.3)], [math.sin(0.3), math.cos(0.3)]]),
            unit(0, 2),
            0.5 * unit(1, 2),
            1.0,
            0.3,
        ),
    }

    @pytest.mark.parametrize("case", sorted(_PROBE_CASES))
    def test_random_probe_hits_match_reference(self, case):
        t, u_c, v_c, r_u, r_v = self._PROBE_CASES[case]
        decided = []
        for seed in range(4):
            for budget in (1, 32):
                args = (t, Ball(u_c, r_u), Ball(v_c, r_v), 30, budget, seed)
                assert mixing_window(*args) == reference_mixing_window(*args, decided)
        # the comparison above must not pass vacuously: random probes decide
        # many steps, and not only at the first probe
        assert len(decided) >= 10
        assert any(probe > 0 for _, probe, _ in decided)

    def test_random_probe_hits_cover_every_frac(self):
        fracs = set()
        for t, u_c, v_c, r_u, r_v in self._PROBE_CASES.values():
            decided = []
            reference_mixing_window(t, Ball(u_c, r_u), Ball(v_c, r_v), 30, 32, 0, decided)
            fracs |= {frac for _, _, frac in decided}
        assert fracs == {1.0, 0.5, 0.25}

    def test_chain_seed_domain_error_matches_reference(self):
        # an eigenvalue 1e-7 off the unit circle is snapped onto it, so both
        # centers lie in the chain span, but (T/z - I)^n e_0 never reaches
        # e_0's seed: every step's pair raises DomainError
        t = (1 + 1e-7) * np.eye(4) + backward_shift(4)
        (z, _, sp), = unimodular_chain_spaces(t)
        u_c, v_c = sp.basis[0], sp.basis[-1]
        with pytest.raises(DomainError):
            transitivity_pair(t, u_c, v_c, 8)
        # at radius 1.2 only a pair probe x = 0 would hit: |0 - e_0| = |0 - e_1|
        # = 1, while the center probe misses by |e_0 - e_1| = 1.41
        for radius in (0.05, 0.5, 1.2):
            for budget in (0, 32):
                args = (t, Ball(u_c, radius), Ball(v_c, radius), 30, budget, 2)
                assert mixing_window(*args) == reference_mixing_window(*args)

# real and imaginary parts: every finite float (signed zeros and subnormals
# included), the smallest subnormal, and magnitudes whose squares sit near
# the top of the float range
_norm_parts = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e154, -1.3407807929942596e154]),
    st.floats(min_value=1e153, max_value=1e155),
    st.floats(min_value=-1e155, max_value=-1e153),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(_norm_parts, _norm_parts), max_size=12))
def test_cnorm_is_numpy_norm_bit_for_bit(parts):
    v = np.empty(len(parts), dtype=np.complex128)
    v.real = [re for re, _ in parts]
    v.imag = [im for _, im in parts]
    with np.errstate(over="ignore"):  # squares past the float range: inf on both sides
        got, want = _cnorm(v), float(np.linalg.norm(v))
        # the stacked form, on a stack of v and its reverse
        reversed_v = v[::-1].copy()
        stacked = _cnorms(np.stack([v, reversed_v]))
        want_reversed = float(np.linalg.norm(reversed_v))
    assert struct.pack("<d", got) == struct.pack("<d", want)
    assert struct.pack("<d", stacked[0]) == struct.pack("<d", want)
    assert struct.pack("<d", stacked[1]) == struct.pack("<d", want_reversed)

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

    @pytest.mark.parametrize("k", [1, 5, 64])
    def test_residuals_are_the_distances_of_x(self, k):
        t = np.eye(6) + backward_shift(6)
        u, v = unit(0, 6) + 0.5j * unit(1, 6), unit(1, 6) - unit(2, 6)
        pair = transitivity_pair(t, u, v, k)
        assert pair.step == k
        assert pair.residual_u == float(np.linalg.norm(pair.x - u))
        assert pair.residual_v == float(np.linalg.norm(np.linalg.matrix_power(t, k) @ pair.x - v))

    def test_trivial_span(self):
        # 2I has no unimodular eigenvalue: only u = v = 0 has a pair
        t = 2.0 * np.eye(3)
        pair = transitivity_pair(t, np.zeros(3), np.zeros(3), 8)
        assert not pair.x.any() and pair.x.shape == (3,)
        assert (pair.residual_u, pair.residual_v, pair.step) == (0.0, 0.0, 8)
        for u, v in ((unit(0, 3), np.zeros(3)), (np.zeros(3), unit(2, 3))):
            with pytest.raises(DomainError, match="trivial"):
                transitivity_pair(t, u, v, 8)

    def test_outside_span_rejected_with_distance(self):
        t = np.eye(4) + backward_shift(4)
        with pytest.raises(DomainError) as err:
            transitivity_pair(t, unit(3, 4), unit(0, 4), 16)
        assert "distance" in str(err.value)


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
        # two cold builds of the h-table, then a cached one
        _volterra_table.cache_clear()
        a = volterra_dist(256, 0.5, n_max=12)
        _volterra_table.cache_clear()
        b = volterra_dist(256, 0.5, n_max=12)
        c = volterra_dist(256, 0.5, n_max=12)
        assert a.to_dict() == b.to_dict() == c.to_dict()

    def test_cached_rows_are_read_only(self):
        volterra_dist(256, 0.5, n_max=4)
        hs, _, norms = _volterra_table(256, 4)
        assert len(hs) == len(norms) == 5
        for row in hs:
            with pytest.raises(ValueError):
                row[0] = 1.0

    def test_support_violation_rejected(self):
        bad = np.ones(257)
        with pytest.raises(InputError):
            volterra_dist(256, 0.5, f=bad, n_max=4)

    # float.hex of the adjoint residual and of the distances; at ngrid 2048
    # (the report's grid) the sha256 of the distances' hex strings, joined by
    # spaces, stands in for the 41 literals
    @pytest.mark.parametrize("ngrid, n_max, adjoint, distances", [
        (16, 8, "0x1.32460dbac5400p-11", [
            "0x1.1675c01e28530p-26", "0x1.d379e7104c814p-27", "0x1.479fa5d4dd80ep-28",
            "0x1.36f89766f353ap-32", "0x1.2618dec146955p-31", "0x1.4199efeecfb92p-34",
            "0x1.1809937c834ecp-36", "0x1.34df4b89cb86ap-40", "0x1.8a625da09155fp-45",
        ]),
        (17, 8, "0x1.158a8e6b0c648p-11", [
            "0x1.1675573bf95a8p-26", "0x1.d360ad48c295cp-27", "0x1.4787d154162e4p-28",
            "0x1.38c1caf9241b2p-32", "0x1.082161097755cp-31", "0x1.6029c0c025229p-34",
            "0x1.d96b66f873d15p-37", "0x1.df4d7d523ce15p-40", "0x1.4c2d48d11e344p-45",
        ]),
        (2048, 40, "0x1.443db5c700000p-32",
         "ca0060c9908e43adf20b000dab8be52fc16e84dba5ea54525cb1552375778ecb"),
    ])
    def test_bits_pinned(self, ngrid, n_max, adjoint, distances):
        trace = volterra_dist(ngrid, 0.5, n_max=n_max)
        assert trace.adjoint_residual.hex() == adjoint
        got = [d.hex() for d in trace.distances]
        if isinstance(distances, str):
            got = hashlib.sha256(" ".join(got).encode()).hexdigest()
        assert got == distances

    def test_overflowed_distances_are_none(self):
        # from n = 54 on at ngrid 2048, ||h^(n)||^2 leaves the float range, so
        # no distance exists; the rows below keep their bits
        trace = volterra_dist(2048, 0.5, n_max=60)
        head = volterra_dist(2048, 0.5, n_max=53)
        assert trace.distances[54:] == (None,) * 7
        assert [d.hex() for d in trace.distances[:54]] == [d.hex() for d in head.distances]

    def test_no_dense_grid(self):
        # V* is applied matrix-free: the dense 2049 x 2049 grid and its
        # complex copy held about 105 MB at once; a cold call builds the
        # cached h-table
        _volterra_table.cache_clear()
        tracemalloc.start()
        try:
            volterra_dist(2048, 0.5, n_max=40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_bump_support(self):
        f = bump_function(128, 0.5)
        xs = np.arange(129) / 128
        assert np.all(f[xs >= 0.5] == 0.0)
        assert f.max() > 0
