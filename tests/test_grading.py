"""Degree grading, independence over the multiplication operator, n0 bounds."""

import time
from fractions import Fraction

import numpy as np
import pytest

from shiftlab.errors import DomainError, InputError
from shiftlab.grading import (
    GradedVector,
    deg,
    DegreeBoundReport,
    f_t_x_ratio,
    membership_witness,
    monomial_intersection,
    n0_bound,
    random_graded_vector,
    random_rational_function,
    t_independent,
)
from shiftlab.rational import NEG_INF, Poly, RationalFunction, RationalMatrix


def rf(num, den=None):
    return RationalFunction(Poly(num), Poly(den) if den is not None else None)


ONE = RationalFunction.one()
ZERO = RationalFunction.zero()
Z = RationalFunction(Poly.monomial(1))


class TestDeg:
    def test_quotient_example(self):
        assert deg(rf([1, 0, 1], [0, 1])) == 1  # (z^2+1)/z

    def test_zero_sentinel(self):
        assert deg(ZERO) == NEG_INF

    def test_multiplicative_on_random(self, rng):
        for _ in range(200):
            r1 = random_rational_function(rng, 4)
            r2 = random_rational_function(rng, 4)
            lhs = deg(r1 * r2)
            rhs = deg(r1) + deg(r2)
            assert lhs == rhs or (lhs == NEG_INF and rhs == NEG_INF)

    def test_sum_bound_and_equality_when_degrees_differ(self, rng):
        for _ in range(200):
            r1 = random_rational_function(rng, 4)
            r2 = random_rational_function(rng, 4)
            s = deg(r1 + r2)
            assert s <= max(deg(r1), deg(r2))
            if deg(r1) != deg(r2):
                assert s == max(deg(r1), deg(r2))


class TestTIndependent:
    def test_coordinate_vectors_independent(self):
        ok, witness = t_independent([GradedVector([ONE, ZERO]), GradedVector([ZERO, ONE])])
        assert ok and witness is None

    def test_one_and_z_dependent_with_certificate(self):
        ok, witness = t_independent([GradedVector([ONE]), GradedVector([Z])])
        assert not ok
        assert any(not p.is_zero() for p in witness)
        combo = GradedVector([ONE]).apply_poly(witness[0]) + GradedVector([Z]).apply_poly(witness[1])
        assert combo.is_zero()

    def test_rank_matches_evaluation_oracle(self, rng):
        # rank over the function field == rank of the matrix evaluated at a
        # generic rational point (two-route check)
        for trial in range(10):
            vecs = [random_graded_vector(rng, 3, 2) for _ in range(3)]
            ok, witness = t_independent(vecs)
            point = Fraction(7, 3) + trial
            rows = []
            for v in vecs:
                rows.append([c.num(point) / c.den(point) for c in v.components])
            from shiftlab.rational import RationalMatrix

            eval_rank = RationalMatrix(rows).rank()
            assert ok == (eval_rank == 3)

    def test_all_zero_vectors_are_dependent(self):
        zero = GradedVector([ZERO, ZERO])
        ok, witness = t_independent([zero, zero, zero])
        assert not ok
        assert witness == [Poly.one(), Poly.zero(), Poly.zero()]

    def test_dependent_witness_validates(self, rng):
        x = random_graded_vector(rng, 2, 2)
        y = x.scale(Z)  # z * x is T-dependent with x
        ok, witness = t_independent([x, y])
        assert not ok
        combo = x.apply_poly(witness[0]) + y.apply_poly(witness[1])
        assert combo.is_zero()

    def test_independent_family_vanishing_at_the_probe_point(self, rng):
        # the factor 101z - 2 zeroes the first vector at z = 2/101, so the
        # point probe loses rank and the elimination over Q[z] decides; the
        # time budget rules out a search over bounded-degree syzygies, which
        # needs about 20 s on this family
        a, b, c = (random_graded_vector(rng, 3, 2) for _ in range(3))
        start = time.perf_counter()
        ok, witness = t_independent([a.scale(RationalFunction(Poly([-2, 101]))), b, c])
        elapsed = time.perf_counter() - start
        assert ok and witness is None
        assert elapsed < 5.0, f"{elapsed:.2f}s"

    def test_dependent_three_vector_witness(self, rng):
        a, b = random_graded_vector(rng, 3, 2), random_graded_vector(rng, 3, 2)
        family = [a, b, a.scale(Z) + b.scale(rf([1, 0, 2]))]
        ok, witness = t_independent(family)
        assert not ok
        assert any(not p.is_zero() for p in witness)
        combo = GradedVector([ZERO, ZERO, ZERO])
        for x, q in zip(family, witness):
            combo = combo + x.apply_poly(q)
        assert combo.is_zero()


class TestN0Bound:
    def test_power_basis(self):
        gens = [GradedVector([RationalFunction(Poly.monomial(d))]) for d in range(3)]
        rep = n0_bound(gens)
        assert (rep.delta_plus, rep.delta_minus, rep.n0) == (2, 0, 3)
        assert rep.counterexample_degree == 2
        assert rep.counterexample is not None
        assert rep.verified_degrees == (3, 4, 5, 6)

    def test_single_constant(self):
        rep = n0_bound([GradedVector([ONE])])
        assert (rep.delta_plus, rep.delta_minus, rep.n0) == (0, 0, 1)

    def test_two_component_split(self):
        gens = [
            GradedVector([ONE, ZERO]),
            GradedVector([ZERO, RationalFunction(Poly.monomial(3))]),
        ]
        rep = n0_bound(gens)
        assert (rep.delta_plus, rep.delta_minus, rep.n0) == (3, 0, 4)

    def test_cancellation_in_filtration(self):
        # generators share the leading monomial: the filtration must find the
        # lower-degree combination
        g1 = GradedVector([rf([0, 0, 1])])  # z^2
        g2 = GradedVector([rf([1, 0, 1])])  # z^2 + 1
        rep = n0_bound([g1, g2])
        assert rep.delta_minus == 0  # difference reaches degree 0
        assert rep.delta_plus == 2

    def test_rational_denominators_shift_cancels(self):
        gens = [
            GradedVector([rf([1], [0, 1])]),  # 1/z
            GradedVector([rf([1])]),  # 1
        ]
        rep = n0_bound(gens)
        assert (rep.delta_plus, rep.delta_minus, rep.n0) == (0, -1, 2)

    def test_no_intersection_at_or_above_n0_random(self, rng):
        for _ in range(5):
            gens = [random_graded_vector(rng, 2, 3) for _ in range(3)]
            gens = [g for g in gens if not g.is_zero()]
            rep = n0_bound(gens)  # raises DomainError if verification fails
            assert rep.n0 == rep.delta_plus - rep.delta_minus + 1

    def test_no_intersection_six_generators_degree_ten(self, rng):
        gens = []
        while len(gens) < 6:
            g = random_graded_vector(rng, 2, 10)
            if not g.is_zero():
                gens.append(g)
        rep = n0_bound(gens)  # verification runs for n0..n0+3 exactly
        assert rep.verified_degrees == tuple(range(rep.n0, rep.n0 + 4))

    def test_zero_space_rejected(self):
        with pytest.raises(DomainError):
            n0_bound([GradedVector([ZERO])])


class TestMembership:
    def test_scalar_multiple(self):
        x = GradedVector([ONE, Z])
        y = x.scale(Z)
        p, q = membership_witness(x, y)
        assert RationalFunction(q, p) == Z

    def test_polynomial_ratio(self):
        x = GradedVector([ONE, Z])
        shift = RationalFunction(Poly([1, 1]))
        y = x.scale(shift)
        r = f_t_x_ratio(x, y)
        assert r == shift

    def test_inconsistent_ratios(self):
        assert membership_witness(GradedVector([ONE, ZERO]), GradedVector([ZERO, ONE])) is None

    def test_zero_vector_is_member(self):
        x = GradedVector([ONE, Z])
        p, q = membership_witness(x, GradedVector([ZERO, ZERO]))
        assert q.is_zero() and not p.is_zero()

    def test_zero_base_rejected(self):
        with pytest.raises(InputError):
            membership_witness(GradedVector([ZERO]), GradedVector([ONE]))

    def test_ratio_map_is_linear(self, rng):
        x = GradedVector([ONE, Z])
        r1 = random_rational_function(rng, 2)
        r2 = random_rational_function(rng, 2)
        y = x.scale(r1)
        u = x.scale(r2)
        s, t = Fraction(2), Fraction(-3)
        combo = GradedVector(
            [s * a + t * b for a, b in zip(y.components, u.components)]
        )
        assert f_t_x_ratio(x, combo) == s * r1 + t * r2


class TestDeltaGrading:
    def test_delta_shifts_by_polynomial_degree(self, rng):
        for _ in range(100):
            x = random_graded_vector(rng, 2, 3)
            if x.is_zero():
                continue
            p = Poly([int(rng.integers(-3, 4)) for _ in range(5)])
            if p.is_zero():
                continue
            assert x.apply_poly(p).delta() == x.delta() + p.degree

    def test_delta_of_zero(self):
        assert GradedVector([ZERO, ZERO]).delta() == NEG_INF


# Reference for n0_bound and monomial_intersection: clear the common
# denominator, row-reduce the coefficient matrix over monomials z^d e_j
# (degree descending), turn each reduced row back into a GradedVector of
# polynomials, and intersect z^d L with L through the null space of the
# stacked coefficient columns.
def _reference_basis(vectors):
    den = Poly.one()
    for v in vectors:
        for c in v.components:
            den = den * (c.den // den.gcd(c.den))
    rows = [[c.num * (den // c.den) for c in v.components] for v in vectors]
    k = len(rows[0])
    max_deg = max(int(p.degree) for row in rows for p in row if not p.is_zero())
    cols = [(d, j) for d in range(max_deg, -1, -1) for j in range(k)]
    mat = RationalMatrix(
        [[row[j].coeffs[d] if d <= row[j].degree else 0 for d, j in cols] for row in rows]
    )
    red, pivots = mat.rref()
    basis = []
    for r in range(len(pivots)):
        comp = [[Fraction(0)] * (max_deg + 1) for _ in range(k)]
        for (d, j), c in zip(cols, red.data[r]):
            comp[j][d] = c
        basis.append(GradedVector([RationalFunction(Poly(cc)) for cc in comp]))
    return basis, [cols[pc][0] for pc in pivots], den


def _reference_intersection(basis, d):
    shifted = [v.apply_poly(Poly.monomial(d)) for v in basis]
    all_vecs = shifted + basis
    max_deg = max(
        (int(c.num.degree) for v in all_vecs for c in v.components if not c.num.is_zero()),
        default=0,
    )
    rows = [
        [
            p.coeffs[dd] if dd <= p.degree else Fraction(0)
            for p in (c.num for c in v.components)
            for dd in range(max_deg + 1)
        ]
        for v in all_vecs
    ]
    for null_vec in RationalMatrix(rows).transpose().nullspace():
        out = None
        for c, v in zip(null_vec[: len(shifted)], shifted):
            if c != 0:
                term = v.scale(RationalFunction(Poly([c])))
                out = term if out is None else out + term
        if out is not None and not out.is_zero():
            return out
    return None


def _reference_n0_bound(vectors, probe_extra=3):
    basis, deltas, den = _reference_basis(vectors)
    delta_plus = max(deltas) - den.degree
    delta_minus = min(deltas) - den.degree
    n0 = delta_plus - delta_minus + 1
    verified = []
    for d in range(n0, n0 + probe_extra + 1):
        assert _reference_intersection(basis, d) is None
        verified.append(d)
    counter = _reference_intersection(basis, n0 - 1) if n0 >= 2 else None
    if counter is not None:
        counter = counter.scale(RationalFunction(Poly.one(), den))
    return DegreeBoundReport(
        delta_plus, delta_minus, n0, tuple(verified), n0 - 1 if counter is not None else None, counter
    )


def _preset_generators():
    """The generator families of the CLI's grading presets."""
    cases = {}
    for degree in (0, 1, 2, 3, 4):
        cases[f"powers-{degree}"] = [
            GradedVector([RationalFunction(Poly.monomial(d))]) for d in range(degree + 1)
        ]
        cases[f"split-{degree}"] = [
            GradedVector([ONE, ZERO]),
            GradedVector([ZERO, RationalFunction(Poly.monomial(degree))]),
        ]
    for seed in range(8):
        rng = np.random.default_rng(seed)
        cases[f"random-{seed}"] = [random_graded_vector(rng, 2, 2 + seed % 2) for _ in range(3)]
    for seed in (8, 9):  # z x and x both in L, so z^1 L ∩ L is nonzero
        rng = np.random.default_rng(seed)
        x, y = random_graded_vector(rng, 2, 2), random_graded_vector(rng, 2, 2)
        cases[f"random-shifted-{seed}"] = [x, x.scale(Z), y]
    cases["shared-leading"] = [GradedVector([rf([0, 0, 1])]), GradedVector([rf([1, 0, 1])])]
    cases["denominators"] = [GradedVector([rf([1], [0, 1])]), GradedVector([rf([2, 1], [1, 1])])]
    return cases


_PRESETS = _preset_generators()


@pytest.mark.parametrize("name", sorted(_PRESETS))
def test_n0_bound_matches_reference(name):
    gens = [g for g in _PRESETS[name] if not g.is_zero()]
    rep = n0_bound(gens)
    assert rep == _reference_n0_bound(gens)
    assert (rep.counterexample is None) == (rep.counterexample_degree is None)


@pytest.mark.parametrize("name", sorted(_PRESETS))
def test_monomial_intersection_matches_reference(name):
    gens = [g for g in _PRESETS[name] if not g.is_zero()]
    basis, _, den = _reference_basis(gens)
    for d in range(0, n0_bound(gens).n0 + 1):
        expected = _reference_intersection(basis, d)
        if expected is not None:
            expected = expected.scale(RationalFunction(Poly.one(), den))
        assert monomial_intersection(gens, d) == expected
