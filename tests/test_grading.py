"""Degree grading, independence over the multiplication operator, n0 bounds."""

import hashlib
import time
from fractions import Fraction

import numpy as np
import pytest

from shiftlab.errors import DomainError
from shiftlab.grading import (
    GradedVector,
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
 'random-7': 'e37774f9221f6090935a69798cb343935df34d4c20708843a4a5ed0bde272567'}


@pytest.mark.parametrize("name", sorted(_PRESETS))
def test_monomial_intersection_pinned(name):
    gens = [g for g in _PRESETS[name] if not g.is_zero()]
    degrees = sorted(d for n, d in _PINNED_INTERSECTIONS if n == name)
    assert degrees == list(range(n0_bound(gens).n0 + 1))
    for d in degrees:
        assert _vector_literal(monomial_intersection(gens, d)) == _PINNED_INTERSECTIONS[name, d]


@pytest.mark.parametrize("name", sorted(_PRESETS))
def test_t_independent_witness_pinned(name):
    ok, witness = t_independent(_PRESETS[name])
    assert ok == (witness is None)
    literal = None if witness is None else tuple(_poly_literal(p) for p in witness)
    if name in _PINNED_WITNESSES:
        assert literal == _PINNED_WITNESSES[name]
    else:
        assert hashlib.sha256(repr(literal).encode()).hexdigest() == _PINNED_WITNESS_DIGESTS[name]
