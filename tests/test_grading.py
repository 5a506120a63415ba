"""Degree grading, independence over the multiplication operator, n0 bounds."""

import hashlib
import time
from fractions import Fraction

import numpy as np
import pytest

from shiftlab.cli import _random_grading_family
from shiftlab.errors import DomainError, InputError
from shiftlab.grading import (
    GradedVector,
    _meets,
    _monomial_intersection,
    _reduced_basis,
    deg,
    DegreeBoundReport,
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
    # every family of `grading --preset random --degree 2 --seed s` that the
    # benchmark draws (s < 32; seeds 0, 2, 4 and 6 repeat random-0/2/4/6),
    # and a few at degrees 1 and 3
    for seed in range(32):
        cases[f"bench-2-{seed}"] = _random_grading_family(2, seed)
    for degree in (1, 3):
        for seed in (0, 2, 4):
            cases[f"bench-{degree}-{seed}"] = _random_grading_family(degree, seed)
    return cases


_PRESETS = _preset_generators()


@pytest.mark.parametrize("name", sorted(_PRESETS))
def test_n0_bound_matches_reference(name):
    gens = [g for g in _PRESETS[name] if not g.is_zero()]
    rep = n0_bound(gens)
    assert rep == _reference_n0_bound(gens)
    assert (rep.counterexample is None) == (rep.counterexample_degree is None)


@pytest.mark.parametrize("name", sorted(_PRESETS))
def test_meets_agrees_with_the_null_space(name):
    gens = [g for g in _PRESETS[name] if not g.is_zero()]
    basis, _, den, k = _reduced_basis(gens)
    for d in range(0, n0_bound(gens).n0 + 4):
        assert _meets(basis, d) == (_monomial_intersection(basis, d, den, k) is not None)


@pytest.mark.parametrize("name", sorted(_PRESETS))
def test_n0_bound_builds_a_null_space_only_for_a_counterexample(name, monkeypatch):
    calls = []
    nullspace = RationalMatrix.nullspace

    def counted(self):
        calls.append(self)
        return nullspace(self)

    monkeypatch.setattr(RationalMatrix, "nullspace", counted)
    rep = n0_bound([g for g in _PRESETS[name] if not g.is_zero()])
    assert len(calls) == (rep.counterexample is not None)
    if name == "powers-2":
        assert rep.counterexample_degree == 2 and len(calls) == 1
    if name.startswith(("random-", "bench-")) and not name.startswith("random-shifted"):
        assert calls == []


def test_monomial_intersection_rejects_a_negative_degree():
    # d = -1 used to write the z^-1 coefficient through index -1 and return
    # the zero vector as a nonzero element
    gens = _PRESETS["powers-2"]
    with pytest.raises(InputError):
        monomial_intersection(gens, -1)
    assert monomial_intersection(gens, 0) is not None


@pytest.mark.parametrize("name", sorted(_PRESETS))
def test_monomial_intersection_matches_reference(name):
    gens = [g for g in _PRESETS[name] if not g.is_zero()]
    basis, _, den = _reference_basis(gens)
    for d in range(0, n0_bound(gens).n0 + 1):
        expected = _reference_intersection(basis, d)
        if expected is not None:
            expected = expected.scale(RationalFunction(Poly.one(), den))
        assert monomial_intersection(gens, d) == expected


# Literals generated with the Fraction-tuple Poly: each rational function is
# (numerator, denominator) coefficients as strings, constant term first.
# _reference_basis above builds on Poly itself, so these pins are what
# catches a change in Poly's arithmetic.  Witnesses of the random families
# are long; they are pinned by the sha256 of the same literal's repr.
def _poly_literal(p):
    return tuple(str(c) for c in p.coeffs)


def _vector_literal(v):
    return None if v is None else tuple((_poly_literal(c.num), _poly_literal(c.den)) for c in v.components)


_PINNED_INTERSECTIONS = {('denominators', 0): ((('2', '0', '-1'), ('0', '1', '1')),),
 ('denominators', 1): None,
 ('denominators', 2): None,
 ('powers-0', 0): ((('-1',), ('1',)),),
 ('powers-0', 1): None,
 ('powers-1', 0): ((('0', '-1'), ('1',)),),
 ('powers-1', 1): ((('0', '-1'), ('1',)),),
 ('powers-1', 2): None,
 ('powers-2', 0): ((('0', '0', '-1'), ('1',)),),
 ('powers-2', 1): ((('0', '0', '-1'), ('1',)),),
 ('powers-2', 2): ((('0', '0', '-1'), ('1',)),),
 ('powers-2', 3): None,
 ('powers-3', 0): ((('0', '0', '0', '-1'), ('1',)),),
 ('powers-3', 1): ((('0', '0', '0', '-1'), ('1',)),),
 ('powers-3', 2): ((('0', '0', '0', '-1'), ('1',)),),
 ('powers-3', 3): ((('0', '0', '0', '-1'), ('1',)),),
 ('powers-3', 4): None,
 ('powers-4', 0): ((('0', '0', '0', '0', '-1'), ('1',)),),
 ('powers-4', 1): ((('0', '0', '0', '0', '-1'), ('1',)),),
 ('powers-4', 2): ((('0', '0', '0', '0', '-1'), ('1',)),),
 ('powers-4', 3): ((('0', '0', '0', '0', '-1'), ('1',)),),
 ('powers-4', 4): ((('0', '0', '0', '0', '-1'), ('1',)),),
 ('powers-4', 5): None,
 ('random-0', 0): ((('47891576/597627', '85775951/1792881', '-158431735/3585762',
                     '-483135943/7171524', '-453391297/14343048', '-191/24', '-1'),
                    ('-4', '-43/9', '-22/3', '31/12', '47/6', '169/36', '1')),
                   (('270454415/4781016', '179647061/9562032', '-1149844259/9562032',
                     '-466219447/9562032', '15907231/796836', '19547243/265612'),
                    ('-7/2', '1', '89/24', '1/6', '79/12', '-215/24', '1'))),
 ('random-0', 1): None,
 ('random-0', 2): None,
 ('random-1', 0): ((('-55421/6660', '-178489/19980', '-785749/59940', '-945247/59940',
                     '146003/9990', '597761/29970', '54091/1620', '278293/19980', '157/18',
                     '-1'),
                    ('56/5', '374/45', '-188/45', '-311/15', '-18', '-271/45', '166/15',
                     '424/45', '20/3', '1')),
                   (('1085/74', '-28985/1332', '74621/7992', '-261739/7992', '2556995/23976',
                     '-45445/5994', '1403881/23976', '-305225/11988', '20279/11988'),
                    ('0', '0', '-98/9', '217/9', '-169/6', '379/18', '-295/18', '100/9',
                     '157/18', '1'))),
 ('random-1', 1): None,
 ('random-1', 2): None,
 ('random-2', 0): ((('-9176038/4642183', '-22334446/4642183', '1003615/102026',
                     '71913209/13926549', '1478605/663169', '191/42', '-1'),
                    ('4', '73/6', '-19/12', '-121/12', '37/12', '-103/12', '1')),
                   (('1483171/32495281', '2393627/32495281', '-87805790/32495281',
                     '-83985409/13926549', '-142247229/32495281', '-116800562/97485843'),
                    ('-3/14', '11/42', '191/42', '425/42', '403/42', '191/42', '1'))),
 ('random-2', 1): None,
 ('random-2', 2): None,
 ('random-3', 0): ((('45625/81144', '1954/10143', '154327/60858', '-91369/21168',
                     '-76049/243432', '-4335083/243432', '54925/5292', '-389029/162288',
                     '107/36', '-1'),
                    ('-9/28', '-3/4', '117/56', '37/14', '53/14', '-81/7', '-267/56', '41/28',
                     '1')),
                   (('-190667/39123', '480745/234738', '10129603/938952', '7397281/625968',
                     '-2094437/625968', '-14982727/938952', '-3261109/234738', '-232621/39123',
                     '-245369/208656'),
                    ('-4/9', '16/27', '79/54', '19/36', '-407/108', '-13/4', '23/108',
                     '439/108', '107/36', '1'))),
 ('random-3', 1): None,
 ('random-3', 2): None,
 ('random-4', 0): ((('-81125/83349', '-1006753/166698', '-7430645/1000188', '5366141/2000376',
                     '4124809/666792', '194627/142884'),
                    ('0', '-80/189', '-194/189', '-41/81', '88/63', '146/63', '1')),
                   (('1624369/56448', '-805369/14112', '1221221/28224', '-67029/1568',
                     '900637/56448', '146/63', '-1'),
                    ('9/8', '-13/4', '7/4', '-7/4', '9/8', '1'))),
 ('random-4', 1): None,
 ('random-4', 2): None,
 ('random-5', 0): ((('-50619/227200', '132717/795200', '2779993/4771200', '-1034273/681600',
                     '-946789/1192800', '6800519/2862720', '-97271/85200', '-4612661/3578400',
                     '601/252', '-1'),
                    ('-9/80', '-9/160', '21/80', '3/160', '-9/20', '-29/32', '79/40', '7/80',
                     '-15/8', '1')),
                   (('744437/3757320', '-34237223/45087840', '3857993/45087840',
                     '-4442863/11271960', '71540213/45087840', '196583/107352', '549253/178920',
                     '7559851/9017568', '2145313/2504880'),
                    ('1/28', '-17/84', '10/63', '173/504', '-17/504', '-89/56', '73/126',
                     '1201/504', '601/252', '1'))),
 ('random-5', 1): None,
 ('random-5', 2): None,
 ('random-6', 0): ((('-5099/1548', '38459/4644', '-72823/4644', '9770/387', '2582/1161', '-1/3',
                     '-1'),
                    ('-9/4', '31/4', '-59/12', '-1/6', '-3', '-8/3', '1')),
                   (('-341/602', '9197/774', '-63247/5418', '903853/48762', '-14753/2709',
                     '-13781/3483'),
                    ('-81/14', '81/14', '-4/7', '163/42', '23/42', '-1/3', '1'))),
 ('random-6', 1): None,
 ('random-6', 2): None,
 ('random-7', 0): ((('827332/567135', '-964559/567135', '-1121338/567135', '1247681/126030',
                     '-17625043/1134270', '-8156287/567135', '1795679/378090',
                     '-10192093/567135', '25/9', '-1'),
                    ('2/15', '29/45', '43/90', '-29/18', '-23/180', '22/15', '-541/180',
                     '-19/36', '-47/60', '1')),
                   (('-4641728/340281', '1077544/37809', '-7704758/340281', '1949464/340281',
                     '6752101/340281', '3338713/340281', '-6418013/113427', '88994/12603',
                     '3713306/113427'),
                    ('0', '0', '-56/27', '19/27', '65/18', '4/27', '-73/18', '-1/6', '25/9',
                     '1'))),
 ('random-7', 1): None,
 ('random-7', 2): None,
 ('random-shifted-8', 0): ((('-116773/88200', '-32443/22050', '353861/88200', '31/10', '-1'),
                            ('-6/7', '-17/7', '16/7', '1')),
                           (('-110563/25200', '26821/42000', '-90541/25200', '229261/42000',
                             '-72/35', '9/10'),
                            ('-7/2', '47/5', '-44/5', '31/10', '1'))),
 ('random-shifted-8', 1): ((('0', '-70/201', '35/134', '175/402'), ('-3', '2', '1')),
                           (('0', '-105/268', '-175/268', '-105/268'), ('-7/2', '9/2', '1'))),
 ('random-shifted-8', 2): None,
 ('random-shifted-9', 0): ((('34192/30861', '21002/30861', '36007/20574', '113/27', '0', '-1'),
                            ('16/9', '10/9', '-115/18', '-5/2', '1')),
                           (('-195/1016', '-9491/18288', '-27865/54864', '-305/3429', '-5/24',
                             '-1/12'),
                            ('0', '-1/2', '-1/2', '0', '1'))),
 ('random-shifted-9', 1): ((('0', '-8/11', '56/11', '72/11'), ('-2', '-7/2', '1')),
                           (('0', '6/11', '10/11', '6/11'), ('1/2', '1', '1'))),
 ('random-shifted-9', 2): None,
 ('shared-leading', 0): ((('0', '0', '-1'), ('1',)),),
 ('shared-leading', 1): None,
 ('shared-leading', 2): ((('0', '0', '-1'), ('1',)),),
 ('shared-leading', 3): None,
 ('split-0', 0): ((('-1',), ('1',)), ((), ('1',))),
 ('split-0', 1): None,
 ('split-1', 0): (((), ('1',)), (('0', '-1'), ('1',))),
 ('split-1', 1): None,
 ('split-1', 2): None,
 ('split-2', 0): (((), ('1',)), (('0', '0', '-1'), ('1',))),
 ('split-2', 1): None,
 ('split-2', 2): None,
 ('split-2', 3): None,
 ('split-3', 0): (((), ('1',)), (('0', '0', '0', '-1'), ('1',))),
 ('split-3', 1): None,
 ('split-3', 2): None,
 ('split-3', 3): None,
 ('split-3', 4): None,
 ('split-4', 0): (((), ('1',)), (('0', '0', '0', '0', '-1'), ('1',))),
 ('split-4', 1): None,
 ('split-4', 2): None,
 ('split-4', 3): None,
 ('split-4', 4): None,
 ('split-4', 5): None}

# the benchmark families' intersections at d = 0 .. n0, pinned by the sha256
# of the tuple of their literals
_PINNED_INTERSECTION_DIGESTS = {'bench-1-0': '080180fa92b88efa3701888ea646232eb5af45e8092786c467f8a6806173e751',
 'bench-1-2': '4e02d1c79ae9ed24970399328000dbd88f73a7fb9f13de93032254dbdeca92ca',
 'bench-1-4': '6b653b199c410def7c05fb8f51ee5432877ade11533a316a995fedbc117f9535',
 'bench-2-0': '177b362dce82115ed497d0a202e9190c7559a009bd13ceda572d97bd3dc37a28',
 'bench-2-1': '2c1a1e53896ce8a14a6b389c32454d6f2578439dd4951f57c4e5484f038290ce',
 'bench-2-10': '0ef5c04b2403c4886d7406d52840ea257468cd285c8d0bad5552a4faaff385d5',
 'bench-2-11': '1ebe7e8787b40e314298b96540a34afade574a1ce9589e111dab2a63f50f5807',
 'bench-2-12': 'fdea3464c54ddd40db2eb62b50ff8a303184858bce348e92cc21b0e62222608a',
 'bench-2-13': 'b4bf62c43df2ceeaa63e107f3f882e5f1073d42b1832ca2e9c6bc35842978167',
 'bench-2-14': '3b3a79e6024dd0ba8641cc4a2aad773944fbcee593f8381475e13f6a530ad8cf',
 'bench-2-15': '866832ce85d16ae18ea70b78a026a75e97fe5bcc3bac425b9147420645c26723',
 'bench-2-16': '6b1b1c474a6fd6035d214b56cf05a57a010907377382cd07d3e1691a5a40a41b',
 'bench-2-17': '4ffc6fe004d85ab13b821e0be12c7652527830d9fa703be36a439616dde68590',
 'bench-2-18': 'e59be1dcd9d0db3d87973b9fd79c5031e403fb2e74c990d87878e751b892b0fe',
 'bench-2-19': 'ad3926b629c73ff87474df2c86c4fb266049cea281553e4feb289d455fd357ad',
 'bench-2-2': 'cbe14d05cd894b72dbd83103939bfcf276b18581db18488913c7355dac157088',
 'bench-2-20': '3debd44516f0ed35d78520890dce8380375a8eed5d39429c28ec87e1bb9eb4ff',
 'bench-2-21': '361f2324bad2f932bf58ec328d4b6ca766b0e48b81293f94bca73a97d8956060',
 'bench-2-22': '3a75843f61ff5cc15204599d654a33ca6de83e8b3d32020a4a97f10e266922fa',
 'bench-2-23': '32574b49e04507f08c33cd20b3c2dcb606747d25c4123691fa1e9744d8660548',
 'bench-2-24': 'de95bc4cb1a970bf2214a5d805e95a25274a044d78f13a7b78127a59cca136c3',
 'bench-2-25': 'f1173093eb62280ba2987420920df134de3addfe5b016803b28203363ba447d0',
 'bench-2-26': '600e121cf59562949bf0b4229735255a83c37a44b0801d85619c593d0534fda1',
 'bench-2-27': 'faec75acb19c3f572a0c2cbce3fa9f439ab2f95253cd7e15c4f1322ba2217baa',
 'bench-2-28': '42102f55bcede60a859df789469ea44a0d7e109402a7fd2e82f4de998f090d98',
 'bench-2-29': '65d8fd3b5c27488cd8452a10ad1d9f29e23cf628e5d465d3d6178c4bbeb9a74c',
 'bench-2-3': 'e6aea944522d259c8d5281718d3a6f85751e5be83f9bdad954be4dd485d3ec87',
 'bench-2-30': 'a5fae3b280e1f138bb7005a102fa687c97cc86c8cfd34085c5df81c5c70640db',
 'bench-2-31': 'c231846ba4fcf8e256aa1f1e9ea01059aa0ed4b8bcdca79f18b825a550bbcbc6',
 'bench-2-4': '1b868d18710c6df6b75e19b54bdba3ec847eb07a6ea83e6a43d239935dd00a3c',
 'bench-2-5': '56273c0e3117ba9973fae9c1806f7d58a45686f13ac9321a189f09345091e05c',
 'bench-2-6': '1c462568de44c114b9d2902ecf9c876f0030d87150c5ea3661f93277246d4b7e',
 'bench-2-7': 'cc5c63fc40fe5e5777813f4ea55067835b7b93ff9694505359de2eb75e6c0e63',
 'bench-2-8': '59bf5a8be4129d636a206ec1b8aaf3de132b2c32a8b3cc3695124b128151066a',
 'bench-2-9': '8404247d8f5589be2c07d91d03c02b23acc3f640761705745ffa5f4500ec5911',
 'bench-3-0': 'ea07e31eef983fcf913273f17c753f790a30c0cd565c6a0042c38f21135d4ec2',
 'bench-3-2': '60f498ac1ee17881c4ab884aa249c72deaad0c751d96e1ad53431f6d5ac22bb0',
 'bench-3-4': 'c3e78fd983eb857df2fd938e33738d578fa0128f3f2420e6481848da52408958'}

_PINNED_WITNESSES = {'denominators': (('0', '-2', '-1'), ('1', '1')),
 'powers-0': None,
 'powers-1': (('0', '-1'), ('1',)),
 'powers-2': (('0', '-1'), ('1',), ()),
 'powers-3': (('0', '-1'), ('1',), (), ()),
 'powers-4': (('0', '-1'), ('1',), (), (), ()),
 'random-shifted-8': (('0', '-79/70', '82811/14700', '78973/7350', '-384311/7350',
                       '294493/14700', '-154703/2100', '3659861/7350', '-4922663/7350',
                       '34067/2100', '58399/105', '-2164639/7350', '-890161/7350',
                       '542999/7350', '7166/245', '18/7'),
                      ('79/70', '-82811/14700', '-78973/7350', '384311/7350', '-294493/14700',
                       '154703/2100', '-3659861/7350', '4922663/7350', '-34067/2100',
                       '-58399/105', '2164639/7350', '890161/7350', '-542999/7350', '-7166/245',
                       '-18/7'),
                      ()),
 'random-shifted-9': (('0', '0', '-4/27', '104/81', '9121/1296', '28573/5184', '-246877/10368',
                       '-592991/10368', '-221377/10368', '127583/1728', '1164325/10368',
                       '557101/10368', '-2211/128', '-265283/5184', '-75589/1296', '-24091/864',
                       '235/288', '127/48'),
                      ('0', '4/27', '-104/81', '-9121/1296', '-28573/5184', '246877/10368',
                       '592991/10368', '221377/10368', '-127583/1728', '-1164325/10368',
                       '-557101/10368', '2211/128', '265283/5184', '75589/1296', '24091/864',
                       '-235/288', '-127/48'),
                      ()),
 'shared-leading': (('-1', '0', '-1'), ('0', '0', '1')),
 'split-0': None,
 'split-1': None,
 'split-2': None,
 'split-3': None,
 'split-4': None}

_PINNED_WITNESS_DIGESTS = {'random-0': '695f4fb47339919d0619ed4a7cb6d473cb2064756272ee3834f99f7c379f7305',
 'random-1': 'e2b781f44db66a82857f0b22dde913b6ac11f59fcfdbdc7581dbfb806c3ee03b',
 'random-2': '6abb5cade07037a8691e31147c80ea9c7d550909d0ae348b43b759953e094754',
 'random-3': '72835a45576adf37c4027746ef8737940ad43b43916d6d5bcc3f87d9650b3792',
 'random-4': '8993517a7168abc7bf551b1acb56328954e2d04034cf8f6dd14c3966e3c35ace',
 'random-5': 'e2767768d5081e50f3032ca0066a625ec0cdcb51a4a0e104df9580afbac645b0',
 'random-6': '937f31a30ba55bc36f352376a45820db7448ffde201bddcba92ac82f607abcd0',
 'random-7': 'e37774f9221f6090935a69798cb343935df34d4c20708843a4a5ed0bde272567',
 'bench-1-0': '6ab57e7edfd8374b9478470f7bdf133347f144661cfa4ebaaab5b956f33ac690',
 'bench-1-2': 'efa3f7722192ed3bb95ce618ef76b630b1d72ff8144ba24d5a5da94e62265fcd',
 'bench-1-4': 'ec2d03da20466c21690c6f766498c5aba9e447fce080cdd0639fd512fe4b320b',
 'bench-2-0': '695f4fb47339919d0619ed4a7cb6d473cb2064756272ee3834f99f7c379f7305',
 'bench-2-1': 'ca0b8e4cfebfa1f1ac485f391f268b5012e7f907cb8b5aa89edf839d29d5b47c',
 'bench-2-10': 'b5c253b57531e6164560ae382e7027d53019c8493fbb913bee854ae263e81501',
 'bench-2-11': 'b80ef27bb5196534ebf2384f10f23256bbdee1b0114ca34862d511b75bd253c9',
 'bench-2-12': 'a58c76ac3f89fe70fc4232442dc629be1947875773a6e5fe508011e4ee718be5',
 'bench-2-13': '0ea5852f02016e8015d215da1a4b1a7829b58e7948ee9c769f9c692e7a801207',
 'bench-2-14': '2abcb2489d739d96d78e349f61a637f6fc2497311295c4717d1c88690e54b8ef',
 'bench-2-15': 'cb17fdaa66b6ed25528519a5a7ce336761ff3950656072ce4a1175644f137cd5',
 'bench-2-16': 'a8b850f28fa5ceab0033c302b01b1be86841429a7f3602e8d38244bf156d7493',
 'bench-2-17': '9fc3cf6a5d05ef910f32a4390575456a504c101ee2789f5c1009c0b7f6793acd',
 'bench-2-18': 'f07676fd99bc2d3850a6545b16a8686375946676059b354da3f0db7087427c4b',
 'bench-2-19': 'd2fe2ea1ae42f67668f758ec9391f7fd2336fe455147c8d160af9a3be78cf56c',
 'bench-2-2': '6abb5cade07037a8691e31147c80ea9c7d550909d0ae348b43b759953e094754',
 'bench-2-20': 'ff81e3c3828408e31f15bce2bd8581605da56cbb675b4c9de175a59bb3d102f6',
 'bench-2-21': '80dc57a1735de41b847d538367d175f35bb0381a338c33d81afad74c05727a32',
 'bench-2-22': '8bdfcbe4b482517f1b3f68a454da0323f3a4716859c5cf914b03e8ba5250162f',
 'bench-2-23': '8bb7a98feb8a3bc6922173b2b69b3997be97ca8a42f642d8c23a162b4ff84939',
 'bench-2-24': '8524f0ded0553190f45f198fc6291ffec0372b04a532590fe6e6654da01b019b',
 'bench-2-25': '922d826c353a7e50deb3b74b6e351151b43c8980772c48bb8845a8b7535c976f',
 'bench-2-26': '471590a1fd27edfd84d5140c039df004c1a95915b6a3c2c6117c54884fcbb011',
 'bench-2-27': 'a174adde13f4beeceff781b7ded8297b1918ff36cf55802ed9c3876fae892d0a',
 'bench-2-28': '931cf866482805878ea8e5ab1a2ba7cc444ed7bdf5aeb916c462f446d2d21ae5',
 'bench-2-29': '92bdc66ecf292c5c8750041676e3e8f86932dcc0a5b93d95e564dc70d710520c',
 'bench-2-3': '7fe2891d8e02b3638797053efb92891e86024133e6e61ca88db02b9a76160727',
 'bench-2-30': '54d9012779f636b127a3d474181fd13441d0dd06a47618de2a4dfa601503bcf2',
 'bench-2-31': 'ae3b7fddb95f6288cfa0e55901fd20a2c2a9bcb025d3faf7c299b9e47324d841',
 'bench-2-4': '8993517a7168abc7bf551b1acb56328954e2d04034cf8f6dd14c3966e3c35ace',
 'bench-2-5': '400c2dd9340a514e617e9fa4ccd388dc76bca7ec883dfcec362766bc2a5400e1',
 'bench-2-6': '937f31a30ba55bc36f352376a45820db7448ffde201bddcba92ac82f607abcd0',
 'bench-2-7': 'e67709f47aa2cc507263695c4f1d787fddc713febdd300082dcfba0ff8e88279',
 'bench-2-8': '3a7dd8176c5447dc51ff7a7a1300befe692c1361524f46a795fad1a55ac891c2',
 'bench-2-9': '3754cae566a3f8051b1630e1c79823c385a363dd1c0a372d57903d2830ddc488',
 'bench-3-0': '71091b7648139587b5f399fd02568c41b792ae2db9ec5a382df0b886a3201862',
 'bench-3-2': '4418c29c7f6201bb256037cd87dbe7c6196ffaa7288b03260b6630c83240b20c',
 'bench-3-4': '036c2174622c4abbc8070330398f122eeda7b9ce5ac35066edbb3d8b8bff305f'}


@pytest.mark.parametrize("name", sorted(_PRESETS))
def test_monomial_intersection_pinned(name):
    gens = [g for g in _PRESETS[name] if not g.is_zero()]
    degrees = list(range(n0_bound(gens).n0 + 1))
    literals = tuple(_vector_literal(monomial_intersection(gens, d)) for d in degrees)
    if name in _PINNED_INTERSECTION_DIGESTS:
        assert hashlib.sha256(repr(literals).encode()).hexdigest() == _PINNED_INTERSECTION_DIGESTS[name]
    else:
        assert degrees == sorted(d for n, d in _PINNED_INTERSECTIONS if n == name)
        assert literals == tuple(_PINNED_INTERSECTIONS[name, d] for d in degrees)


@pytest.mark.parametrize("name", sorted(_PRESETS))
def test_t_independent_witness_pinned(name):
    ok, witness = t_independent(_PRESETS[name])
    assert ok == (witness is None)
    literal = None if witness is None else tuple(_poly_literal(p) for p in witness)
    if name in _PINNED_WITNESSES:
        assert literal == _PINNED_WITNESSES[name]
    else:
        assert hashlib.sha256(repr(literal).encode()).hexdigest() == _PINNED_WITNESS_DIGESTS[name]
