import random
from fractions import Fraction

import pytest

from dmlab import (
    Field,
    FieldValue,
    MonomialOrder,
    MultiPoly,
    PointSet,
    ReducedGroebnerBasis,
    buchberger,
    ideal_dimension,
    ideal_equal,
    ideal_sum,
    normal_form,
    parse_polynomial,
    s_polynomial,
    vanishing_ideal,
)
from reference_buchberger import reference_buchberger, reference_monic, reference_s_polynomial
from reference_walk import reference_vanishing_ideal

QQ = Field.rationals()
F7 = Field.prime(7)
F2T = Field.rational_functions(2)

XY = ("x", "y")


def P(src, field=QQ, names=XY):
    return parse_polynomial(src, names, field)


def pt(field, *coords):
    return tuple(field.from_int(c) for c in coords)


# -- buchberger -------------------------------------------------------------


def test_linear_pair_lex():
    o = MonomialOrder.lex(2, (1, 0))  # y > x
    gb = buchberger([P("x+y-1"), P("x-y")], o)
    assert gb.render(XY) == ("y - 1/2", "x - 1/2")


def test_coprime_leading_terms_skip():
    o = MonomialOrder.lex(2)
    gb = buchberger([P("x-1"), P("y-2")], o)
    assert gb.render(XY) == ("x - 1", "y - 2")


def test_unit_ideal():
    o = MonomialOrder.lex(2)
    gb = buchberger([P("x"), P("x+1")], o)
    assert gb.is_unit_ideal
    assert gb.render(XY) == ("1",)
    assert normal_form(P("x^3*y - 5"), gb).is_zero()


def test_zero_ideal():
    o = MonomialOrder.lex(2)
    gb = buchberger([MultiPoly.zero(QQ, 2)], o)
    assert gb.is_zero_ideal
    f = P("x^2 - y")
    assert normal_form(f, gb) == f


def test_empty_generators_rejected():
    with pytest.raises(ValueError):
        buchberger([], MonomialOrder.lex(2))


def test_textbook_grevlex():
    # Cox-Little-O'Shea staple: x^3 - 2xy, x^2y - 2y^2 + x
    o = MonomialOrder.grevlex(2)
    inputs = [P("x^3 - 2*x*y"), P("x^2*y - 2*y^2 + x")]
    gb = buchberger(inputs, o)
    assert gb.render(XY) == ("x^2", "x*y", "y^2 - 1/2*x")
    # cross-membership: inputs lie in the output ideal
    for f in inputs:
        assert normal_form(f, gb).is_zero()


def test_normal_form_example():
    o = MonomialOrder.lex(2)
    gb = buchberger([P("x+y-1", F2T)], o)
    f = P("t*x + (1-t)*y - 1", F2T)
    nf = normal_form(f, gb)
    assert nf.render(XY, o) == "y + t + 1"
    assert nf == P("y + t + 1", F2T)


def _random_poly(rng, field, num_vars=2, max_terms=4, max_exp=3):
    items = []
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(rng.randint(0, max_exp) for _ in range(num_vars))
        if field is QQ:
            c = field.from_fraction(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        else:
            c = field.from_int(rng.randrange(field.characteristic))
        items.append((mono, c))
    return MultiPoly.from_terms(field, num_vars, items)


def _random_system(rng, field):
    while True:
        gens = [_random_poly(rng, field) for _ in range(rng.randint(1, 3))]
        if any(not g.is_zero() for g in gens):
            return gens


def _random_order(rng, num_vars=2):
    priority = list(range(num_vars))
    rng.shuffle(priority)
    kind = rng.choice([MonomialOrder.lex, MonomialOrder.grevlex])
    return kind(num_vars, tuple(priority))


def test_groebner_property_s_polynomials_reduce():
    rng = random.Random(0x6B01)
    for _ in range(40):
        field = rng.choice([QQ, F7])
        order = _random_order(rng)
        gb = buchberger(_random_system(rng, field), order)
        gens = gb.generators
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                s = s_polynomial(gens[i], gens[j], order)
                assert normal_form(s, gb).is_zero()


def test_groebner_permutation_invariance():
    rng = random.Random(0x6B02)
    for _ in range(30):
        field = rng.choice([QQ, F7])
        order = _random_order(rng)
        gens = _random_system(rng, field)
        base = buchberger(gens, order)
        for _ in range(3):
            shuffled = gens[:]
            rng.shuffle(shuffled)
            scaled = [
                g * MultiPoly.from_int(field, g.num_vars, rng.choice([1, 2, 3, -1]))
                for g in shuffled
            ]
            scaled = [g for g in scaled if not g.is_zero()] or shuffled
            again = buchberger(scaled, order)
            assert ideal_equal(base, again)
            assert base.generators == again.generators


def test_reduced_basis_shape():
    # monic, pairwise irreducible tails, descending leading terms
    rng = random.Random(0x6B03)
    for _ in range(25):
        field = rng.choice([QQ, F7])
        order = _random_order(rng)
        gb = buchberger(_random_system(rng, field), order)
        leads = gb.leading_monomials()
        keys = [order.key(m) for m in leads]
        assert keys == sorted(keys, reverse=True)
        for i, g in enumerate(gb.generators):
            assert g.leading_term(order)[1].is_one()
            for mono in g.terms:
                for j, lm in enumerate(leads):
                    if j != i:
                        assert not all(a <= b for a, b in zip(lm, mono))


def test_normal_form_idempotent_and_linear():
    rng = random.Random(0x6B04)
    for _ in range(30):
        field = rng.choice([QQ, F7])
        order = _random_order(rng)
        gb = buchberger(_random_system(rng, field), order)
        for _ in range(5):
            f = _random_poly(rng, field)
            g = _random_poly(rng, field)
            nf = normal_form(f, gb)
            assert normal_form(nf, gb) == nf
            assert normal_form(f + g, gb) == normal_form(nf + normal_form(g, gb), gb)
        # ideal members reduce to zero
        combo = MultiPoly.zero(field, 2)
        for gen in gb.generators:
            combo = combo + gen * _random_poly(rng, field, max_terms=2, max_exp=2)
        assert normal_form(combo, gb).is_zero()


def test_ideal_equal_validation():
    a = buchberger([P("x")], MonomialOrder.lex(2))
    b = buchberger([P("x")], MonomialOrder.grevlex(2))
    with pytest.raises(ValueError):
        ideal_equal(a, b)


def test_ideal_sum():
    o = MonomialOrder.lex(2)
    a = buchberger([P("x-1")], o)
    b = buchberger([P("y-2")], o)
    s = ideal_sum(a, b)
    assert s.render(XY) == ("x - 1", "y - 2")
    z = ReducedGroebnerBasis(o, (), 2, QQ)
    assert ideal_sum(a, z) is a


# -- dimension ---------------------------------------------------------------


def test_dimension_cases():
    o = MonomialOrder.lex(2)
    assert ideal_dimension(buchberger([P("x+y-1")], o)) == 1
    assert ideal_dimension(buchberger([P("x-1"), P("y-2")], o)) == 0
    assert ideal_dimension(buchberger([P("1")], o)) == -1
    assert ideal_dimension(ReducedGroebnerBasis(o, (), 2, QQ)) == 2
    assert ideal_dimension(buchberger([P("x^2")], o)) == 1
    o3 = MonomialOrder.lex(3)
    xyz = ("x", "y", "z")
    f = parse_polynomial("x*y", xyz, QQ)
    assert ideal_dimension(buchberger([f], o3)) == 2


# -- vanishing ideals ---------------------------------------------------------


def test_single_point():
    o = MonomialOrder.lex(2)
    gb = vanishing_ideal([pt(QQ, 1, 2)], o)
    assert gb.render(XY) == ("x - 1", "y - 2")


def test_parabola_points():
    o = MonomialOrder.lex(2, (1, 0))  # y > x
    pts = [pt(QQ, 1, 1), pt(QQ, 2, 4), pt(QQ, 3, 9)]
    gb = vanishing_ideal(pts, o)
    assert gb.render(XY) == ("y - x^2", "x^3 - 6*x^2 + 11*x - 6")


def test_duplicate_points_collapse():
    o = MonomialOrder.lex(2)
    gb1 = vanishing_ideal([pt(QQ, 1, 2), pt(QQ, 1, 2)], o)
    gb2 = vanishing_ideal([pt(QQ, 1, 2)], o)
    assert ideal_equal(gb1, gb2)


def test_empty_point_set_rejected():
    with pytest.raises(ValueError):
        PointSet.of([])


def test_degree_cap_needs_grevlex_and_a_non_negative_degree():
    pts = [pt(QQ, 0, 0), pt(QQ, 1, 1)]
    with pytest.raises(ValueError, match="grevlex"):
        vanishing_ideal(pts, MonomialOrder.lex(2), max_degree=2)
    with pytest.raises(ValueError, match="degree cap must be at least 0"):
        vanishing_ideal(pts, MonomialOrder.grevlex(2), max_degree=-1)


def _staircase_count(gb):
    # independent oracle: count monomials outside the leading-term
    # staircase by breadth-first walk (finite for zero-dimensional ideals)
    leads = gb.leading_monomials()
    n = gb.num_vars
    seen = set()
    frontier = [(0,) * n]
    count = 0
    while frontier:
        mono = frontier.pop()
        if mono in seen:
            continue
        seen.add(mono)
        if any(all(a <= b for a, b in zip(lm, mono)) for lm in leads):
            continue
        count += 1
        assert count <= 10_000, "staircase walk exploded"
        for i in range(n):
            step = tuple(e + (1 if k == i else 0) for k, e in enumerate(mono))
            frontier.append(step)
    return count


def test_vanishing_ideal_random():
    rng = random.Random(0xB40C)
    for trial in range(60):
        field = F7 if trial % 2 else QQ
        npts = rng.randint(1, 12)
        if field is QQ:
            pts = [pt(QQ, rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(npts)]
        else:
            pts = [pt(F7, rng.randrange(7), rng.randrange(7)) for _ in range(npts)]
        order = _random_order(rng)
        gb = vanishing_ideal(pts, order)
        distinct = len(set(pts))
        for g in gb.generators:
            for point in pts:
                assert g.evaluate(point).is_zero()
        assert _staircase_count(gb) == distinct
        # the output is already the reduced basis: rerunning buchberger
        # on the generators is the identity
        again = buchberger(gb.generators, order)
        assert again.generators == gb.generators


def test_vanishing_ideal_membership_split():
    rng = random.Random(0xB40D)
    o = MonomialOrder.grevlex(2)
    pts = [pt(QQ, 0, 0), pt(QQ, 1, 1), pt(QQ, 2, 3)]
    gb = vanishing_ideal(pts, o)
    for _ in range(20):
        f = _random_poly(rng, QQ)
        vanishes = all(f.evaluate(p).is_zero() for p in pts)
        assert normal_form(f, gb).is_zero() == vanishes


# -- fraction-free walk against the FieldValue reference -------------------


def _reference_point(rng, field, num_vars):
    if field.has_generator:
        p = field.characteristic
        return tuple(
            field.from_coefficients(
                [rng.randrange(p) for _ in range(rng.randrange(1, 4))],
                [rng.randrange(p) for _ in range(rng.randrange(0, 2))] + [1],
            )
            for _ in range(num_vars)
        )
    if field.kind is QQ.kind:
        # Non-integer coordinates, some of large height, so clearing
        # denominators and dividing out contents both have work to do.
        height = 10 ** rng.choice((1, 2, 6, 30))
        return tuple(
            QQ.from_fraction(Fraction(rng.randint(-height, height), rng.randint(1, height)))
            for _ in range(num_vars)
        )
    return tuple(field.from_int(rng.randrange(field.characteristic)) for _ in range(num_vars))


def test_fraction_free_walk_matches_the_reference_loop():
    rng = random.Random(0xFF1E)
    fields = (QQ, Field.prime(2), Field.prime(101), F2T, Field.rational_functions(7))
    # Ten GF(2)(t) points in 3 variables under a cap of 3, the same with
    # twelve seed-1 points (once the Buchberger-Moller cliff), then random
    # cases.
    cases = [([_reference_point(rng, F2T, 3) for _ in range(10)], MonomialOrder.grevlex(3), 3)]
    seed_1 = random.Random(1)
    cases.append(
        ([_reference_point(seed_1, F2T, 3) for _ in range(12)], MonomialOrder.grevlex(3), 3)
    )
    for case in range(250):
        field = fields[case % len(fields)]
        num_vars = rng.randint(1, 3)
        order = _random_order(rng, num_vars)
        points = []
        for _ in range(rng.randint(1, (9, 7, 6)[num_vars - 1])):
            if points and rng.random() < 0.2:
                points.append(rng.choice(points))
            else:
                points.append(_reference_point(rng, field, num_vars))
        cap = rng.randint(1, 3) if order.kind == "grevlex" and rng.random() < 0.5 else None
        cases.append((points, order, cap))
    assert sum(cap is not None for _, _, cap in cases) >= 40
    for points, order, cap in cases:
        got = vanishing_ideal(points, order, cap)
        assert got.generators == reference_vanishing_ideal(points, order, cap).generators


# -- payload Buchberger against the FieldValue reference --------------------


def _random_coefficient(rng, field):
    if field is QQ:
        return QQ.from_fraction(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
    if field.has_generator:
        p = field.characteristic
        num = [rng.randrange(p) for _ in range(rng.randint(1, 3))]
        den = [rng.randrange(p) for _ in range(rng.randint(0, 1))] + [1]
        return field.from_coefficients(num, den)
    return field.from_int(rng.randrange(field.characteristic))


def _random_generators(rng, field, num_vars):
    gens = []
    for _ in range(rng.randint(1, 4)):
        items = [
            (tuple(rng.randint(0, 2) for _ in range(num_vars)), _random_coefficient(rng, field))
            for _ in range(rng.randint(1, 3))
        ]
        gens.append(MultiPoly.from_terms(field, num_vars, items))
    return gens


def test_pair_buchberger_matches_the_reference_loop():
    rng = random.Random(0x6B22)
    fields = (QQ, Field.prime(101), F7, F2T, Field.rational_functions(7))
    for case in range(300):
        field = fields[case % len(fields)]
        num_vars = rng.randint(1, 3)
        order = _random_order(rng, num_vars)
        gens = _random_generators(rng, field, num_vars)
        if all(g.is_zero() for g in gens):
            continue
        want = reference_buchberger(gens, order).generators
        assert buchberger(gens, order).generators == want
        for f in gens[:2]:
            if not f.is_zero():
                assert f.monic(order) == reference_monic(f, order)
                for g in gens:
                    if not g.is_zero():
                        assert s_polynomial(f, g, order) == reference_s_polynomial(f, g, order)


def test_groebner_layer_builds_no_field_value(monkeypatch):
    # Inputs first, then every FieldValue operation raises: the Groebner
    # layer has to run on payloads alone.
    rng = random.Random(0x6B23)
    cases = []
    for field in (QQ, Field.prime(101), F2T):
        order = MonomialOrder.grevlex(2)
        gens = [g for g in _random_generators(rng, field, 2) if not g.is_zero()]
        gens.append(MultiPoly.from_terms(field, 2, [((1, 1), _random_coefficient(rng, field))]))
        points = [tuple(_random_coefficient(rng, field) for _ in range(2)) for _ in range(6)]
        cases.append((gens, order, points, _random_generators(rng, field, 2)[0]))

    def forbidden(*args, **kwargs):
        raise AssertionError("the Groebner layer called a FieldValue operation")

    for name in ("__init__", "__add__", "__sub__", "__mul__", "__neg__", "__truediv__", "inverse"):
        monkeypatch.setattr(FieldValue, name, forbidden)
    for gens, order, points, f in cases:
        gb = buchberger(gens, order)
        assert gb.generators
        normal_form(f, gb)
        s_polynomial(gens[-1], gens[0], order)
        gens[-1].monic(order)
        vanishing_ideal(points, order, 1)
        vanishing_ideal(points, order)


def test_function_field_buchberger_stays_in_the_domain(counted_field):
    # From clearing its inputs to making the reduced basis monic, buchberger
    # over GF(p)(t) runs on GF(p)[t] numerators: no field add, mul or
    # inverse, each of which would canonicalize with a gcd.
    rng = random.Random(0x6B24)
    field, ring = counted_field(Field.rational_functions(7))
    order = MonomialOrder.grevlex(2)
    scaled = 0
    for _ in range(30):
        gens = _random_generators(rng, field, 2)
        if all(g.is_zero() for g in gens):
            continue
        ring.log.clear()
        buchberger(gens, order)
        log = ring.log
        first, last = log.index("clear"), len(log) - log[::-1].index("quotient")
        assert not {"add", "mul", "inverse"} & set(log[first:last])
        scaled += log.count("dmul")
    assert scaled


def test_prime_field_primitive_makes_a_vector_monic_in_its_first_entry(monkeypatch):
    # GF(p)'s content is a unit, the vector's first entry unless that is
    # 0.  The walk's vectors all start with 0, since each is first reduced
    # by the row of the monomial 1, whose pivot is entry 0, so there it
    # divides nothing and the walk's counts stay those of a no-op.
    ring = Field.prime(7)._ring
    assert ring.primitive([3, 6, 2]) == [1, 2, 3]
    for v in ([], [0, 3, 5], [1, 4]):
        assert ring.primitive(v) == v
    firsts = []
    primitive = type(ring).primitive

    def record(self, v):
        firsts.append(v[0])
        return primitive(self, v)

    monkeypatch.setattr(type(ring), "primitive", record)
    rng = random.Random(0x6B25)
    for field in (F7, Field.prime(101)):
        for num_vars in (2, 3):
            points = [_reference_point(rng, field, num_vars) for _ in range(12)]
            vanishing_ideal(points, MonomialOrder.grevlex(num_vars))
    assert len(firsts) > 100
    assert set(firsts) == {0}


# -- sample doubling: stability by evaluation --------------------------------


def _doubling_coordinate(rng, field):
    # Over GF(p)(t), a constant or c*t + d: on twelve points of higher
    # height the capped basis's Buchberger pass takes seconds.
    if field.has_generator:
        p = field.characteristic
        return field.from_coefficients([rng.randrange(p)] + [rng.randrange(p)] * (rng.random() < 0.3))
    return _random_coefficient(rng, field)


def _doubling_points(rng, field, shape):
    # Twelve points of one shape: general position, on a random conic or
    # line y = a*x^2 + b*x + c, or drawn with repeats from a pool of four.

    def coordinate():
        return _doubling_coordinate(rng, field)

    if shape == "pool":
        pool = [(coordinate(), coordinate()) for _ in range(4)]
        return [rng.choice(pool) for _ in range(12)]
    points = []
    a, b, c = coordinate(), coordinate(), coordinate()
    for _ in range(12):
        x, y = coordinate(), coordinate()
        points.append((x, a * x * x + b * x + c) if shape == "curve" else (x, y))
    return points


def test_doubled_capped_ideal_is_unchanged_exactly_when_the_basis_vanishes_on_new_points():
    # P[:m] is inside P[:2m], so I(P[:2m]) <= I(P[:m]) in degree at most the
    # cap; if the capped basis of P[:m] vanishes on P[m:2m] it lies in
    # I(P[:2m]) too, so the two capped ideals and their reduced bases are
    # equal.  Conversely an equal basis vanishes on every point of P[:2m].
    # A zero basis vanishes vacuously, so the doubled one must be zero too.
    rng = random.Random(0xD0B1)
    fields = (QQ, Field.prime(101), Field.rational_functions(7))
    order = MonomialOrder.grevlex(2)
    outcomes = dict.fromkeys(
        ((field.label, kind) for field in fields for kind in ("equal", "grew", "zero")), 0
    )
    for case in range(90):
        field = fields[case % 3]
        points = _doubling_points(rng, field, ("general", "curve", "pool")[case // 3 % 3])
        cap = rng.randint(1, 4)
        for m in (1, 2, 3, 4, 6):
            basis = vanishing_ideal(points[:m], order, cap)
            vanishes = all(
                g.evaluate(p).is_zero() for g in basis.generators for p in points[m : 2 * m]
            )
            assert (vanishing_ideal(points[: 2 * m], order, cap) == basis) is vanishes
            kind = "zero" if basis.is_zero_ideal else "equal" if vanishes else "grew"
            outcomes[field.label, kind] += 1
    assert min(outcomes.values()) >= 10, outcomes
