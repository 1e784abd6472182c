import random
from fractions import Fraction

import pytest

from dmlab import (
    Field,
    FieldMismatchError,
    FieldValue,
    MonomialOrder,
    MultiPoly,
    parse_polynomial,
)
from dmlab.multipoly import _kernel

QQ = Field.rationals()
F7 = Field.prime(7)
F2T = Field.rational_functions(2)
F3T = Field.rational_functions(3)
F5T = Field.rational_functions(5)

XY = ("x", "y")


def P(src, field=QQ, names=XY):
    return parse_polynomial(src, names, field)


def test_from_terms_merges_and_drops_zero():
    f = MultiPoly.from_terms(
        QQ, 2, [((1, 0), QQ.from_int(2)), ((1, 0), QQ.from_int(-2)), ((0, 1), QQ.from_int(3))]
    )
    assert f.terms == {(0, 1): QQ.from_int(3).payload}


def test_constant_helpers():
    z = MultiPoly.zero(QQ, 2)
    assert z.is_zero() and z.is_constant()
    assert z.constant_value() == QQ.zero()
    assert z.total_degree() == -1
    c = MultiPoly.from_int(QQ, 2, 5)
    assert c.is_constant() and c.constant_value() == QQ.from_int(5)
    x = MultiPoly.variable(QQ, 2, 0)
    assert not x.is_constant()
    with pytest.raises(ValueError):
        x.constant_value()


def test_binomial_square():
    f = P("(x+y)^2")
    assert f == P("x^2 + 2*x*y + y^2")
    assert f.total_degree() == 2


def test_char_two_frobenius_with_constant():
    f = P("(x+t)^2", F2T)
    assert f == P("x^2 + t^2", F2T)


def test_lex_order():
    o = MonomialOrder.lex(2)  # x > y
    ranked = sorted([(0, 3), (1, 0), (2, 0), (1, 1), (0, 1)], key=o.key, reverse=True)
    assert ranked == [(2, 0), (1, 1), (1, 0), (0, 3), (0, 1)]


def test_lex_priority():
    o = MonomialOrder.lex(2, (1, 0))  # y > x
    assert o.key((1, 0)) < o.key((0, 1))


def test_grevlex_order():
    o = MonomialOrder.grevlex(3)  # x > y > z
    # same degree: y^2 beats x*z in grevlex
    assert o.key((0, 2, 0)) > o.key((1, 0, 1))
    # degree dominates
    assert o.key((3, 0, 0)) > o.key((0, 2, 0))
    # x^2*y > x*y^2
    assert o.key((2, 1, 0)) > o.key((1, 2, 0))


def _reference_key(kind, priority, mono):
    # The order's definition, spelled out per variable.
    if kind == "lex":
        return tuple(mono[i] for i in priority)
    return (sum(mono), tuple(-mono[i] for i in reversed(priority)))


def test_order_key_matches_the_definition():
    rng = random.Random(0x0DE5)
    for num_vars in range(1, 6):
        for _ in range(40):
            priority = rng.sample(range(num_vars), num_vars)
            for make in (MonomialOrder.lex, MonomialOrder.grevlex):
                order = make(num_vars, priority)
                for _ in range(8):
                    mono = tuple(rng.randint(0, 5) for _ in range(num_vars))
                    assert order.key(mono) == _reference_key(order.kind, order.priority, mono)


def test_order_validation():
    with pytest.raises(ValueError):
        MonomialOrder("weighted", (0, 1))
    with pytest.raises(ValueError):
        MonomialOrder.lex(2, (0, 0))


def test_leading_term():
    f = P("x^2*y + x*y^2 + y^3")
    lex = MonomialOrder.lex(2)
    assert f.leading_term(lex)[0] == (2, 1)
    ylex = MonomialOrder.lex(2, (1, 0))
    assert f.leading_term(ylex)[0] == (0, 3)
    with pytest.raises(ValueError):
        MultiPoly.zero(QQ, 2).leading_term(lex)
    assert f.leading_monomial(lex) == (2, 1)
    assert f.leading_monomial(ylex) == (0, 3)
    with pytest.raises(ValueError):
        MultiPoly.zero(QQ, 2).leading_monomial(lex)


def test_monic():
    f = P("3*x + 6")
    g = f.monic(MonomialOrder.lex(2))
    assert g == P("x + 2")
    assert g.monic(MonomialOrder.lex(2)) is g
    t = F5T.t()
    want = MultiPoly.from_terms(F5T, 2, [((1, 0), F5T.one()), ((0, 1), (t * t).inverse())])
    assert P("t^2*x + y", F5T).monic(MonomialOrder.lex(2)) == want
    with pytest.raises(ValueError):
        MultiPoly.zero(QQ, 2).monic(MonomialOrder.lex(2))


def test_arith_validation():
    with pytest.raises(FieldMismatchError):
        P("x") + P("x", F7)
    with pytest.raises(ValueError):
        P("x") * parse_polynomial("x", ("x",), QQ)
    with pytest.raises(ValueError):
        P("x") ** -1


def test_evaluate():
    f = P("x^2 - y + 3")
    pt = (QQ.from_int(4), QQ.from_int(5))
    assert f.evaluate(pt) == QQ.from_int(14)
    with pytest.raises(ValueError):
        f.evaluate((QQ.one(),))
    with pytest.raises(FieldMismatchError):
        f.evaluate((F7.one(), F7.one()))


def test_substitute_matches_composition():
    rng = random.Random(0x5B57)
    for field in (QQ, F7, F3T):
        for _ in range(50):
            f = _random_poly(rng, field)
            g0 = _random_poly(rng, field)
            g1 = _random_poly(rng, field)
            h = f.substitute([g0, g1])
            pt = (_random_const(rng, field), _random_const(rng, field))
            assert h.evaluate(pt) == f.evaluate((g0.evaluate(pt), g1.evaluate(pt)))


def test_substitute_into_smaller_ring():
    f = P("x*y + y^2")
    u = parse_polynomial("u", ("u",), QQ)
    g = f.substitute([u, u + MultiPoly.from_int(QQ, 1, 1)])
    assert g == parse_polynomial("u*(u+1) + (u+1)^2", ("u",), QQ)


def test_render_fixed_strings():
    lex = MonomialOrder.lex(2)
    assert P("x - 1").render(XY, lex) == "x - 1"
    assert P("-3*x + y").render(XY, lex) == "-3*x + y"
    assert P("x^2*y + 2*x").render(XY, lex) == "x^2*y + 2*x"
    assert MultiPoly.zero(QQ, 2).render(XY) == "0"
    half = MultiPoly.constant(QQ, 2, QQ.from_fraction(Fraction(1, 2)))
    f = P("y") - half
    assert f.render(XY, MonomialOrder.lex(2, (1, 0))) == "y - 1/2"
    assert P("(1-t)*y", F2T).render(XY, lex) == "(t + 1)*y"
    assert P("t*x + (1-t)*y - 1", F2T).render(XY, lex) == "t*x + (t + 1)*y + 1"
    assert (P("y") - half * P("x")).render(XY, lex) == "-1/2*x + y"
    assert P("y - x").render(XY, lex) == "-x + y"
    assert P("-x").render(XY, lex) == "-x"
    assert P("-x - 2", F7).render(XY, lex) == "6*x + 5"
    over_t = MultiPoly.constant(F2T, 2, F2T.t().inverse())
    assert (over_t * P("x", F2T) + P("t^2*y", F2T)).render(XY, lex) == "(1/t)*x + t^2*y"


def test_render_constant_tail_unparenthesized():
    f = P("y + t + 1", F2T)
    assert f.render(XY, MonomialOrder.lex(2)) == "y + t + 1"


def _random_const(rng, field):
    if field is QQ:
        return field.from_fraction(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
    p = field.characteristic
    if field.has_generator:
        num = [rng.randrange(p) for _ in range(rng.randint(0, 3))]
        den = [rng.randrange(p) for _ in range(rng.randint(0, 2))] + [rng.randrange(1, p)]
        return field.from_coefficients(num, den)
    return field.from_int(rng.randrange(p))


def _random_poly(rng, field, num_vars=2, max_terms=5, max_exp=3):
    items = []
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(rng.randint(0, max_exp) for _ in range(num_vars))
        items.append((mono, _random_const(rng, field)))
    return MultiPoly.from_terms(field, num_vars, items)


def _assert_canonical_terms(f):
    # Every stored coefficient is a canonical nonzero payload, so a
    # coefficient that cancels is always the ring's zero payload and the
    # merge loop drops it.
    for c in f.terms.values():
        v = FieldValue(f.field, c)
        assert not v.is_zero()
        if f.field.has_generator:
            assert f.field.from_coefficients(*v.coefficients()) == v


def test_ring_axioms_random():
    rng = random.Random(0x1DE5)
    for field in (QQ, F7, F3T):
        for _ in range(80):
            f = _random_poly(rng, field)
            g = _random_poly(rng, field)
            h = _random_poly(rng, field)
            assert f + g == g + f
            assert f * g == g * f
            assert (f + g) * h == f * h + g * h
            assert (f - f).is_zero()
            assert (f + (-f)).is_zero()
            assert (f - g) + g == f
            assert (f * g).total_degree() <= max(
                f.total_degree() + g.total_degree(), -1
            ) or f.is_zero() or g.is_zero()
            mono = tuple(rng.randint(0, 2) for _ in range(2))
            c = _random_const(rng, field)
            for r in (f + g, f - g, (f - g) + g, f * g, f * MultiPoly.from_terms(field, 2, [(mono, c)])):
                _assert_canonical_terms(r)


def test_pow_random():
    rng = random.Random(0xF01D)
    for _ in range(30):
        f = _random_poly(rng, F7, max_terms=3, max_exp=2)
        assert f**0 == MultiPoly.from_int(F7, 2, 1)
        assert f**3 == f * f * f


def test_evaluation_is_ring_homomorphism():
    rng = random.Random(0x0DD5)
    for _ in range(60):
        f = _random_poly(rng, F7)
        g = _random_poly(rng, F7)
        pt = (_random_const(rng, F7), _random_const(rng, F7))
        assert (f + g).evaluate(pt) == f.evaluate(pt) + g.evaluate(pt)
        assert (f * g).evaluate(pt) == f.evaluate(pt) * g.evaluate(pt)


def _reference_evaluate(f, point):
    # The FieldValue-level evaluation that MultiPoly.evaluate replaced.
    total = f.field.zero()
    caches = [dict() for _ in range(f.num_vars)]
    for mono, coeff in f.terms.items():
        v = FieldValue(f.field, coeff)
        for i, e in enumerate(mono):
            if e:
                pw = caches[i].get(e)
                if pw is None:
                    pw = caches[i][e] = point[i] ** e
                v = pw if v.is_one() else v * pw
        total = total + v
    return total


def test_evaluate_matches_the_field_value_reference():
    rng = random.Random(0xE7A1)
    zeros = 0
    for field in (QQ, F7, F3T):
        one = field.one()
        for _ in range(100):
            f = _random_poly(rng, field, num_vars=3, max_terms=6, max_exp=4)
            # constant terms and coefficient 1 on every draw
            f = f + MultiPoly.from_terms(
                field, 3, [((0, 0, 0), _random_const(rng, field)), ((rng.randint(0, 3), 2, 0), one)]
            )
            points = [tuple(_random_const(rng, field) for _ in range(3)) for _ in range(3)]
            points.append((field.zero(), points[0][1], one))
            # the same polynomial at several points reuses its plan
            for pt in points:
                got = f.evaluate(pt)
                assert got == _reference_evaluate(f, pt)
                assert type(got.payload) is type(_reference_evaluate(f, pt).payload)
            # a polynomial made to vanish at the first point
            g = f - MultiPoly.constant(field, 3, f.evaluate(points[0]))
            for pt in points:
                got = g.evaluate(pt)
                assert got == _reference_evaluate(g, pt)
                zeros += got.is_zero()
        assert MultiPoly.zero(field, 3).evaluate(points[0]) == field.zero()
    assert zeros >= 300


def test_evaluate_sums_from_the_first_term():
    # The sum starts at the first term's value, so the zero polynomial, the
    # constant 1 and one-term polynomials are its edge cases.
    rng = random.Random(0x5E1F)
    for field in (QQ, F7, F2T, F5T):
        one = field.one()
        for k in range(60):
            pt = [_random_const(rng, field) for _ in range(3)]
            if k % 4 == 0:
                pt[k % 3] = field.zero()
            mono = tuple(rng.randint(0, 3) for _ in range(3))
            for f in (
                MultiPoly.zero(field, 3),
                MultiPoly.from_int(field, 3, 1),
                MultiPoly.from_terms(field, 3, [(mono, one)]),
                MultiPoly.from_terms(field, 3, [(mono, _random_const(rng, field))]),
                _random_poly(rng, field, num_vars=3, max_terms=6, max_exp=4),
            ):
                got, want = f.evaluate(pt), _reference_evaluate(f, pt)
                assert got == want
                assert type(got.payload) is type(want.payload)
                if field is QQ:
                    q = got.payload
                    assert type(q) is (int if q.denominator == 1 else Fraction)


def _interpreted(polys, pt, zero_test):
    # What the orbit loops run without a kernel: one powers dict per point.
    powers = {}
    if zero_test:
        return all(g._value(pt, powers) == g.field._ring.zero for g in polys)
    return tuple(g._value(pt, powers) for g in polys)


class _CallLog:
    """Stands in for a ring and records each operation and its arguments;
    calls on a GF(p)(t) ring's ``polys`` are recorded as ``polys.<op>``."""

    def __init__(self, ring, prefix="", calls=None):
        self.ring = ring
        self.prefix = prefix
        self.calls = [] if calls is None else calls

    def __getattr__(self, name):
        attr = getattr(self.ring, name)
        if name == "polys":
            return _CallLog(attr, "polys.", self.calls)
        if not callable(attr):
            return attr
        key = self.prefix + name

        def logged(*args):
            self.calls.append((key, args))
            return attr(*args)

        return logged


def _on_numerators(calls):
    # Pair-level ring calls as the same calls on ring.polys: each (num, 1)
    # argument becomes num.
    return [
        (f"polys.{name}", tuple(a[0] if type(a) is tuple else a for a in args))
        for name, args in calls
    ]


def _assert_kernel_replays_value(polys, pt, ring):
    # Same payloads, of the same types, from the same ring calls: equal
    # CountingRing counts, and the same calls in the same order.  On
    # polynomial GF(p)(t) data (every coefficient and coordinate over 1)
    # the kernel makes those calls on ring.polys, on the numerators.
    field = polys[0].field
    packed = field.has_generator and all(
        c[1] == 1 for c in (*pt, *(c for f in polys for c in f.terms.values()))
    )
    try:
        for zero_test in (False, True):
            log = field._ring = _CallLog(ring)
            kernel = _kernel(polys, zero_test)
            ring.counts.clear()
            want = _interpreted(polys, pt, zero_test)
            want_counts, want_calls = dict(ring.counts), list(log.calls)
            if packed:
                want_counts = {f"polys.{op}": n for op, n in want_counts.items()}
                want_calls = _on_numerators(want_calls)
            ring.counts.clear()
            log.calls.clear()
            got = kernel(pt)
            assert got == want and type(got) is type(want)
            if not zero_test:
                assert list(map(type, got)) == list(map(type, want))
            assert dict(ring.counts) == want_counts, (polys, zero_test)
            assert log.calls == want_calls
    finally:
        field._ring = ring


def _numerators(polys, pt):
    # The same data with every denominator dropped: polynomial GF(p)(t)
    # coefficients and coordinates.  A nonzero numerator stays nonzero.
    field = polys[0].field
    polys = tuple(
        MultiPoly(field, f.num_vars, {m: (c[0], 1) for m, c in f.terms.items()}) for f in polys
    )
    return polys, tuple((num, 1) for num, _ in pt)


def test_kernel_replays_value_with_the_same_ring_calls(counted_field):
    rng = random.Random(0xC0DE)
    for field in (QQ, F7, F2T, F5T):
        counted, ring = counted_field(field)
        one = field.one()
        for k in range(40):
            num_vars = rng.randint(1, 3)
            pt = tuple(_random_const(rng, field).payload for _ in range(num_vars))
            if k % 5 == 0:
                pt = (field.zero().payload,) + pt[1:]
            square = tuple(2 if i == 0 else 0 for i in range(num_vars))
            polys = [
                _random_poly(rng, field, num_vars, max_terms=6, max_exp=4)
                for _ in range(rng.randint(1, 3))
            ]
            polys += [
                MultiPoly.zero(field, num_vars),
                MultiPoly.from_int(field, num_vars, 1),
                MultiPoly.constant(field, num_vars, _random_const(rng, field)),
                # the square of the first variable, shared across the tuple
                MultiPoly.from_terms(field, num_vars, [(square, one)]),
                MultiPoly.from_terms(field, num_vars, [(square, _random_const(rng, field))]),
            ]
            rng.shuffle(polys)
            polys = tuple(MultiPoly(counted, num_vars, f.terms) for f in polys)
            cases = [(polys, pt)]
            if field.has_generator:
                # polynomial data, which runs on the numerators, and
                # polynomial coefficients at the first point, whose
                # denominators send it to the pair kernel
                numerators, plain = _numerators(polys, pt)
                cases += [(numerators, plain), (numerators, pt)]
            for polys, pt in cases:
                _assert_kernel_replays_value(polys, pt, ring)
                # every generator vanishing: the zero test runs to its end
                powers = {}
                vanishing = tuple(
                    f - MultiPoly(counted, num_vars, {(0,) * num_vars: f._value(pt, powers)})
                    if f.terms
                    else f
                    for f in polys
                )
                _assert_kernel_replays_value(vanishing, pt, ring)
                assert _kernel(vanishing, True)(pt) is True


def test_kernel_zero_test_stops_at_the_first_nonzero_generator(counted_field):
    counted, ring = counted_field(F5T)
    x, y = (MultiPoly.variable(counted, 2, i) for i in range(2))
    nonzero = MultiPoly.from_int(counted, 2, 3)
    rest = x**3 * y + y**2 + x
    # a polynomial point, and one with a denominator
    for first in (F5T.from_coefficients([1, 2]), F5T.from_coefficients([1], [2, 1])):
        pt = (first.payload, F5T.from_int(4).payload)
        kernel = _kernel((nonzero, rest), True)
        ring.counts.clear()
        assert kernel(pt) is False
        assert not ring.counts
        _assert_kernel_replays_value((rest, nonzero, rest), pt, ring)


def test_kernel_switches_between_numerators_and_pairs(counted_field):
    # One kernel takes both kinds of point: the pair kernel is built at
    # the first point with a denominator and serves every later one,
    # while polynomial points stay on the numerators.
    counted, ring = counted_field(F3T)
    x, y = (MultiPoly.variable(counted, 2, i) for i in range(2))
    t = MultiPoly.constant(counted, 2, F3T.t())
    polys = (t * x**2 + y, x * y + MultiPoly.from_int(counted, 2, 1))
    kernel = _kernel(polys)
    plain = (F3T.from_coefficients([1, 1]).payload, F3T.t().payload)
    fraction = (F3T.from_coefficients([1], [0, 1]).payload, F3T.one().payload)
    for pt in (plain, fraction, plain, fraction):
        want = tuple(f._value(pt, {}) for f in polys)
        ring.counts.clear()
        assert kernel(pt) == want
        assert {c.startswith("polys.") for c in ring.counts} == {pt is plain}
    assert kernel.__globals__["pairs"].__name__ == "kernel"


def test_kernel_of_no_polynomials():
    assert _kernel(())((1, 2)) == ()
    assert _kernel((), True)((1, 2)) is True


def test_kernel_source_holds_no_payload():
    # Coefficients are bound by name: the code's only constants besides
    # None are the exponents above one, never a coefficient.
    f = MultiPoly.from_terms(QQ, 2, [
        ((5, 1), QQ.from_fraction(Fraction(3, 2))),
        ((0, 4), QQ.from_int(7)),
        ((1, 0), QQ.from_int(-1)),
    ])
    assert set(_kernel((f,)).__code__.co_consts) - {None} == {4, 5}


def test_kernel_of_long_and_wide_polynomials(counted_field):
    # Flat statements: neither 2,000 terms nor 300 variables nest.
    rng = random.Random(0x2000)
    counted, ring = counted_field(F7)
    items = [((i, j), F7.from_int(rng.randrange(1, 7))) for i in range(45) for j in range(45)]
    long = MultiPoly.from_terms(counted, 2, items[:2000])
    assert len(long.terms) == 2000
    pt = (F7.from_int(3).payload, F7.from_int(5).payload)
    _assert_kernel_replays_value((long, long), pt, ring)
    n = 300
    variables = [MultiPoly.variable(counted, n, i) for i in range(n)]
    wide = MultiPoly.zero(counted, n)
    for i in range(n):
        wide = wide + variables[i] ** (i % 3 + 1) * variables[(i + 1) % n]
    pt = tuple(F7.from_int(rng.randrange(7)).payload for _ in range(n))
    _assert_kernel_replays_value((wide, variables[0] ** 2 - wide), pt, ring)
