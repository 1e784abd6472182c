import random
from fractions import Fraction

import pytest

from dmlab import (
    CycleStructure,
    Field,
    FieldKind,
    FieldMismatchError,
    FieldValue,
    Morphism,
    MultiPoly,
    OrbitCache,
    ReturnSet,
    buchberger,
    detect_cycle,
    orbit_prefix,
    parse_polynomial,
    return_set,
    MonomialOrder,
)

QQ = Field.rationals()
F2T = Field.rational_functions(2)
XY = ("x", "y")


def mk_morphism(sources, names, field):
    return Morphism([parse_polynomial(s, names, field) for s in sources])


def test_morphism_validation():
    with pytest.raises(ValueError):
        Morphism([])
    x = parse_polynomial("x", ("x", "y"), QQ)
    with pytest.raises(ValueError):
        Morphism([x])  # 2-variable component in a 1-component map
    with pytest.raises(TypeError):
        Morphism(["x"])


def test_orbit_prefix():
    phi = mk_morphism(["x+1"], ("x",), QQ)
    start = (QQ.from_int(0),)
    pre = orbit_prefix(phi, start, 4)
    assert [p[0].payload for p in pre] == [0, 1, 2, 3]
    assert orbit_prefix(phi, start, 0) == []
    with pytest.raises(ValueError):
        orbit_prefix(phi, start, -1)


def test_orbit_cache_lazy_extension():
    phi = mk_morphism(["x+1"], ("x",), QQ)
    cache = OrbitCache(phi, (QQ.from_int(0),))
    assert cache.point(5)[0].payload == 5
    assert [p[0].payload for p in [cache.point(i) for i in range(3)]] == [0, 1, 2]
    assert cache.start == (QQ.from_int(0),)


def test_orbit_cache_prefix_past_the_cycle():
    F7 = Field.prime(7)
    sq = mk_morphism(["x^2"], ("x",), F7)
    start = (F7.from_int(3),)  # 3, 2, 4, 2, 4, ...: preperiod 1, period 2
    cache = OrbitCache(sq, start)
    assert [cache.point(i) for i in range(9)] == orbit_prefix(sq, start, 9)
    assert cache.cycle == CycleStructure(1, 2)


def test_orbit_cache_folds_prime_orbits_at_the_first_repeat():
    rng = random.Random(0xF01D)
    for _ in range(100):
        p = rng.choice([2, 3, 5, 7, 11, 13])
        field = Field.prime(p)
        num_vars = rng.randint(1, 2)
        phi = Morphism([_random_fp_poly(rng, field, num_vars) for _ in range(num_vars)])
        start = tuple(field.from_int(rng.randrange(p)) for _ in range(num_vars))
        cache = OrbitCache(phi, start)
        return_set(phi, start, [_random_fp_poly(rng, field, num_vars)], 2000, cache)
        cycle = detect_cycle(phi, start)
        assert cache.cycle == cycle
        horizon = 3 * (cycle.preperiod + cycle.period) + 10
        expected = orbit_prefix(phi, start, horizon)
        for n in rng.sample(range(horizon // 2, horizon), 5):
            assert cache.point(n) == expected[n]
        assert [cache.point(i) for i in range(horizon)] == expected


def test_orbit_cache_never_folds_infinite_fields():
    qq = OrbitCache(mk_morphism(["x+1"], ("x",), QQ), (QQ.from_int(0),))
    qq.point(50)
    assert qq.cycle is None
    # x -> x^2 is periodic at 1 over GF(2)(t); only GF(p) caches fold
    f2t = OrbitCache(mk_morphism(["x^2"], ("x",), F2T), (F2T.one(),))
    assert [f2t.point(i) for i in range(10)] == [(F2T.one(),)] * 10
    assert f2t.cycle is None


class _CountingMorphism(Morphism):
    """Counts orbit steps: every public and cached step goes through _step."""

    def __init__(self, components):
        super().__init__(components)
        self.calls = 0

    def _step(self, pt):
        self.calls += 1
        return super()._step(pt)


def test_prime_return_set_steps_only_through_preperiod_and_period():
    F101 = Field.prime(101)
    names = ("x", "y")
    phi = _CountingMorphism(
        [parse_polynomial(src, names, F101) for src in ("x^2+y", "x*y+1")]
    )
    start = (F101.from_int(87), F101.from_int(93))
    cycle = detect_cycle(phi, start)
    phi.calls = 0
    target = [parse_polynomial("y+5*x-25", names, F101)]
    s = return_set(phi, start, target, 10**6)
    assert 0 < phi.calls <= cycle.preperiod + cycle.period
    assert s.indices[-1] == 10**6 - 1


def test_return_set_refuses_targets_off_the_map_before_iterating():
    F7 = Field.prime(7)
    phi = _CountingMorphism([parse_polynomial(src, XY, F7) for src in ("y", "x")])
    start = (F7.one(), F7.from_int(2))
    cache = OrbitCache(phi, start)
    with pytest.raises(FieldMismatchError, match="field mismatch"):
        return_set(phi, start, [parse_polynomial("x-1", XY, Field.prime(5))], 10, cache)
    with pytest.raises(ValueError, match="polynomials in 2 variables"):
        return_set(phi, start, [parse_polynomial("x-1", ("x",), F7)], 10, cache)
    with pytest.raises(TypeError, match="MultiPoly"):
        return_set(phi, start, ["x-1"], 10, cache)
    assert phi.calls == 0 and cache.cycle is None
    assert return_set(phi, start, [parse_polynomial("x-1", XY, F7)], 10, cache).indices == (0, 2, 4, 6, 8)


class _CountingPoly:
    """A target generator that counts its evaluations on payload tuples,
    the form in which the scan tests stored points."""

    def __init__(self, poly):
        self.poly = poly
        self.calls = 0

    def _value(self, pt, powers):
        self.calls += 1
        return self.poly._value(pt, powers)


class _CountingCache(OrbitCache):
    def __init__(self, phi, start):
        super().__init__(phi, start)
        self.index_calls = 0

    def index(self, n):
        self.index_calls += 1
        return super().index(n)


def test_prime_scan_tests_each_cycle_point_once_and_tiles_the_rest():
    F101 = Field.prime(101)
    phi = mk_morphism(["x^2+y", "x*y+1"], XY, F101)
    start = (F101.from_int(87), F101.from_int(93))
    cycle = detect_cycle(phi, start)
    mu, lam = cycle.preperiod, cycle.period
    assert (mu, lam) == (78, 6)
    v = _CountingPoly(parse_polynomial("y+5*x-25", XY, F101))
    cache = _CountingCache(phi, start)
    s = cache.scan([v], 10**6, 1, 0)
    assert 0 < v.calls <= mu + lam
    # the loop runs through the preperiod and one period, not to the horizon
    assert cache.index_calls <= mu + lam + 1 + lam
    assert s.flags[mu:] == b"\1" * (10**6 - mu)  # the whole cycle lies on V
    # a derived frame past the preperiod tests at most one period,
    # whether the scan meets the cycle first or it is already known
    for cache in (_CountingCache(phi, start), cache):
        v.calls = cache.index_calls = 0
        sub = cache.scan([v], 10**6, 6, 78)
        assert 0 < v.calls <= lam
        assert cache.index_calls <= (mu + lam) // 6 + 1 + lam
        assert len(sub) == 10**6


def test_detect_cycle_examples():
    F7 = Field.prime(7)
    sq = mk_morphism(["x^2"], ("x",), F7)
    assert detect_cycle(sq, (F7.from_int(3),)) == CycleStructure(1, 2)
    F5 = Field.prime(5)
    inc = mk_morphism(["x+1"], ("x",), F5)
    assert detect_cycle(inc, (F5.from_int(0),)) == CycleStructure(0, 5)
    fixed = mk_morphism(["x"], ("x",), F5)
    assert detect_cycle(fixed, (F5.from_int(2),)) == CycleStructure(0, 1)


def test_detect_cycle_requires_finite_field():
    phi = mk_morphism(["x+1"], ("x",), QQ)
    with pytest.raises(ValueError, match="finite field"):
        detect_cycle(phi, (QQ.from_int(0),))


def _brute_cycle(phi, start):
    seen = {}
    current = tuple(start)
    n = 0
    while current not in seen:
        seen[current] = n
        current = phi.apply(current)
        n += 1
    first = seen[current]
    return CycleStructure(first, n - first)


def _random_fp_poly(rng, field, num_vars):
    items = []
    for _ in range(rng.randint(1, 4)):
        mono = tuple(rng.randint(0, 2) for _ in range(num_vars))
        items.append((mono, field.from_int(rng.randrange(field.characteristic))))
    return MultiPoly.from_terms(field, num_vars, items)


def test_detect_cycle_against_brute_force():
    rng = random.Random(0xC7C1E)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7, 11, 13])
        field = Field.prime(p)
        num_vars = rng.randint(1, 2)
        phi = Morphism([_random_fp_poly(rng, field, num_vars) for _ in range(num_vars)])
        start = tuple(field.from_int(rng.randrange(p)) for _ in range(num_vars))
        assert detect_cycle(phi, start) == _brute_cycle(phi, start)


def test_return_set_powers():
    names = ("x", "y")
    phi = mk_morphism(["t*x", "(1-t)*y"], names, F2T)
    alpha = (F2T.one(), F2T.one())
    target = [parse_polynomial("x+y-1", names, F2T)]
    s = return_set(phi, alpha, target, 20)
    assert s.indices == (1, 2, 4, 8, 16)
    assert 8 in s and 3 not in s
    # accepts a Groebner basis as the target too
    gb = buchberger(target, MonomialOrder.lex(2))
    assert return_set(phi, alpha, gb, 20) == s


def test_return_set_whole_space():
    phi = mk_morphism(["x+1"], ("x",), QQ)
    s = return_set(phi, (QQ.from_int(0),), [], 5)
    assert s.indices == (0, 1, 2, 3, 4)
    z = return_set(phi, (QQ.from_int(0),), [MultiPoly.zero(QQ, 1)], 3)
    assert len(z) == 3


def test_return_set_validation():
    phi = mk_morphism(["x+1"], ("x",), QQ)
    with pytest.raises(ValueError):
        return_set(phi, (QQ.from_int(0),), [], 0)
    cache = OrbitCache(phi, (QQ.from_int(1),))
    with pytest.raises(ValueError, match="different starting point"):
        return_set(phi, (QQ.from_int(0),), [], 5, cache)
    # a cache of x+1 handed to x+2 would answer for x+1: (1, 8), not (4, 11)
    F7 = Field.prime(7)
    phi1 = mk_morphism(["x+1"], ("x",), F7)
    phi2 = mk_morphism(["x+2"], ("x",), F7)
    start = (F7.from_int(0),)
    target = [parse_polynomial("x-1", ("x",), F7)]
    assert return_set(phi2, start, target, 14).indices == (4, 11)
    with pytest.raises(ValueError, match="different morphism"):
        return_set(phi2, start, target, 14, OrbitCache(phi1, start))


def test_mismatched_points_and_targets_raise_before_any_arithmetic(counted_field):
    F7, ring = counted_field(Field.prime(7))
    F3T, other_ring = counted_field(Field.rational_functions(3))
    phi = mk_morphism(["x*y+1", "x^2+y"], XY, F7)
    target = [parse_polynomial("x-y", XY, F3T)]
    start = (F7.one(), F7.from_int(2))
    ring.calls = other_ring.calls = 0  # parsing did arithmetic
    with pytest.raises(FieldMismatchError, match="field mismatch"):
        phi.apply((F7.one(), F3T.one()))
    with pytest.raises(ValueError, match="point length"):
        phi.apply((F7.one(),))
    with pytest.raises(FieldMismatchError, match="field mismatch"):
        return_set(phi, start, target, 10)
    assert ring.calls == other_ring.calls == 0
    assert phi.apply(start) == (F7.from_int(3), F7.from_int(3))
    assert ring.calls > 0


def test_points_are_checked_once_with_the_same_errors(counted_field):
    # Morphism.apply, MultiPoly.evaluate and OrbitCache share one point
    # check; the cache runs it at construction, before any step, and
    # return_set runs it on the start it is handed with a cache.
    F7, ring = counted_field(Field.prime(7))
    phi = _CountingMorphism([parse_polynomial(src, XY, F7) for src in ("x*y+1", "x^2+y")])
    g = phi.components[0]
    good = (F7.one(), F7.from_int(2))
    held = OrbitCache(phi, good)
    bad_fields = (
        (F7.one(), Field.prime(7).one()),  # an equal field passes
        (F7.one(), F2T.one()),
        (F7.one(), 1),
        (QQ.one(), QQ.one()),
    )
    assert phi.apply(bad_fields[0]) == phi.apply(good[:1] * 2)
    ring.calls = phi.calls = 0
    for pt in bad_fields[1:]:
        with pytest.raises(FieldMismatchError, match="^field mismatch$"):
            phi.apply(pt)
        with pytest.raises(FieldMismatchError, match="^field mismatch$"):
            g.evaluate(pt)
        with pytest.raises(FieldMismatchError, match="^field mismatch$"):
            OrbitCache(phi, pt)
        with pytest.raises(FieldMismatchError, match="^field mismatch$"):
            return_set(phi, pt, [g], 10, held)
    ambient = "^point length does not match the ambient dimension$"
    for pt in (good[:1], good + (F7.one(),), ()):
        with pytest.raises(ValueError, match=ambient):
            phi.apply(pt)
        with pytest.raises(ValueError, match="^point length does not match variable count$"):
            g.evaluate(pt)
        with pytest.raises(ValueError, match=ambient):
            OrbitCache(phi, pt)
        with pytest.raises(ValueError, match=ambient):
            return_set(phi, pt, [g], 10, held)
    assert ring.calls == phi.calls == 0
    cache = OrbitCache(phi, iter(good))  # any iterable of field values
    assert cache.start == good and phi.calls == 0
    assert cache.point(1) == phi.apply(good) == (F7.from_int(3), F7.from_int(3))
    assert all(type(v) is FieldValue and v.field is F7 for v in cache.point(1))
    equal = (Field.prime(7).one(), Field.prime(7).from_int(2))
    assert return_set(phi, equal, [g], 10, held) == return_set(phi, good, [g], 10)


def _field_value_evaluate(f, point):
    # Term by term in FieldValue arithmetic: no plan, no shared powers.
    total = f.field.zero()
    for mono, coeff in f.terms.items():
        v = FieldValue(f.field, coeff)
        for x, e in zip(point, mono):
            for _ in range(e):
                v = v * x
        total = total + v
    return total


def _nonzero_const(rng, field, den=True):
    # QQ values are never integers; GF(p)(t) values have numerators of
    # t-degree up to 2 over the denominator t + r when ``den`` is set.
    if field.kind is FieldKind.RATIONALS:
        return field.from_fraction(Fraction(rng.randint(-9, 9) or 1, rng.randint(2, 7)))
    p = field.characteristic
    if not field.has_generator:
        return field.from_int(rng.randrange(1, p))
    num = [rng.randrange(p) for _ in range(rng.randint(0, 2))] + [rng.randrange(1, p)]
    return field.from_coefficients(num, [rng.randrange(p), 1] if den else [1])


def test_scan_against_a_field_value_reference_orbit():
    # Components and targets use squares of several variables in one
    # polynomial and across components and generators, so a power cached
    # under the wrong key, or kept from another point, changes a flag.
    # GF(2)(t), GF(3)(t) and GF(101)(t) pack 2-bit, 4-bit and byte slots.
    rng = random.Random(0x0EB1)
    length = 30
    for field in (QQ, Field.prime(7), Field.prime(101), F2T,
                  Field.rational_functions(3), Field.rational_functions(101)):
        x, y, z = (MultiPoly.variable(field, 3, i) for i in range(3))

        def c():
            # polynomial coefficients keep the t-degrees linear in n
            return MultiPoly.constant(field, 3, _nonzero_const(rng, field, den=False))

        phi = Morphism([
            c() * x + y**2 + c() * z**2 + z,
            y + z**2 + c() * z,
            z + c(),
        ])
        start = tuple(_nonzero_const(rng, field) for _ in range(3))
        orbit = [start]
        for _ in range(length - 1):
            orbit.append(tuple(_field_value_evaluate(g, orbit[-1]) for g in phi.components))
        a, b, k = rng.sample(range(length), 3)

        def at(n, i):
            return MultiPoly.constant(field, 3, orbit[n][i])

        g1 = (z - at(a, 2)) * (z - at(b, 2)) * (z - at(k, 2))
        g2 = (y**2 - at(a, 1) ** 2) * (x - at(b, 0))
        g3 = x**2 - at(k, 0) ** 2 + (z - at(k, 2)) * y**2
        cache = OrbitCache(phi, start)
        for n, pt in enumerate(orbit):  # stops at the first wrong step
            assert cache.point(n) == pt, (field, n)
        seen = set()
        for gens in ([g1], [g1, g2], [g2, g1, g3]):
            on = [all(_field_value_evaluate(g, pt).is_zero() for g in gens) for pt in orbit]
            seen.update(on)
            for stride in (1, 2, 5):
                for offset in (0, 3, 8):
                    count = (length - 1 - offset) // stride + 1
                    got = cache.scan(gens, count, stride, offset)
                    assert got.flags == bytes(on[offset::stride]), (field, gens, stride, offset)
        assert seen == {True, False}, field


def test_return_set_type():
    s = ReturnSet(10, [3, 1, 3, 7])
    assert s.indices == (1, 3, 7)
    assert len(s) == 3 and list(s) == [1, 3, 7]
    with pytest.raises(ValueError):
        ReturnSet(5, [5])
    with pytest.raises(ValueError):
        ReturnSet(5, [-1])
    assert ReturnSet(0, []).indices == ()
    assert ReturnSet(10, [1, 3, 7]) == s
    assert ReturnSet(11, [1, 3, 7]) != s
    assert s.flags == bytes([0, 1, 0, 1, 0, 0, 0, 1, 0, 0])
    assert [n for n in range(10) if n in s] == [1, 3, 7]
    # negative n must not wrap around to the end of the table
    edge = ReturnSet(5, [4, 0, 4, 0])
    assert edge.indices == (0, 4)
    assert -1 not in edge and -5 not in edge and 5 not in edge
    assert 0 in edge and 4 in edge
    # equal tables hash alike, however the indices were given
    assert hash(ReturnSet(10, [7, 1, 3, 1])) == hash(s)
    assert len({s, ReturnSet(10, [7, 3, 1]), ReturnSet(10, [1, 7, 3, 3])}) == 1
    assert len({s, ReturnSet(11, [1, 3, 7])}) == 2
    # the derived views agree on an empty set and at both ends
    empty = ReturnSet(6, [])
    assert len(empty) == 0 and list(empty) == [] and empty.indices == ()
    assert len(edge) == 2 and list(edge) == [0, 4] and edge.indices == (0, 4)


def test_return_set_repr():
    assert repr(ReturnSet(5, [])) == "<returns below 5: {}>"
    assert repr(ReturnSet(10, [3, 1, 7])) == "<returns below 10: {1, 3, 7}>"
    assert repr(ReturnSet(12, range(12))) == (
        "<returns below 12: {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}>"
    )
    head = "0, 3, 6, 9, 12, 15, 18, 21, 24, 27"
    assert repr(ReturnSet(39, range(0, 39, 3))) == f"<returns below 39: {{{head}, ... (13 total)}}>"
    assert repr(ReturnSet(100_000, range(0, 100_000, 3))) == (
        f"<returns below 100000: {{{head}, ... (33334 total)}}>"
    )


def test_return_set_from_flags():
    s = ReturnSet.from_flags(bytes([0, 1, 0, 1, 0, 0, 0, 1, 0, 0]))
    assert s == ReturnSet(10, [1, 3, 7]) and hash(s) == hash(ReturnSet(10, [7, 3, 1]))
    assert s.horizon == 10 and s.indices == (1, 3, 7) and len(s) == 3
    table = bytearray(b"\1\0\1")
    t = ReturnSet.from_flags(table)
    table[1] = 1  # the set keeps its own immutable copy
    assert type(t.flags) is bytes and t.indices == (0, 2) and 1 not in t
    assert ReturnSet.from_flags(b"") == ReturnSet(0, [])
    # any other byte would make len (which counts 1s) and `in` disagree
    for bad in (b"\2", b"\0\1\xff", b"1", bytes([0, 1, 0, 3]), bytearray(b"\1\x7f")):
        with pytest.raises(ValueError, match="0 or 1"):
            ReturnSet.from_flags(bad)


def _scan_oracle(phi, start, gens, count, stride, offset):
    orbit = orbit_prefix(phi, start, stride * (count - 1) + offset + 1)
    return tuple(
        l
        for l in range(count)
        if all(g.evaluate(orbit[stride * l + offset]).is_zero() for g in gens)
    )


def test_scan_against_orbit_prefix_over_prime_fields():
    rng = random.Random(0x5CA4)
    for _ in range(60):
        p = rng.choice([5, 7, 11, 13])
        field = Field.prime(p)
        num_vars = rng.randint(1, 2)
        phi = Morphism([_random_fp_poly(rng, field, num_vars) for _ in range(num_vars)])
        start = tuple(field.from_int(rng.randrange(p)) for _ in range(num_vars))
        cycle = _brute_cycle(phi, start)
        mu, lam = cycle.preperiod, cycle.period
        orbit = orbit_prefix(phi, start, mu + lam)
        # one target through a chosen orbit point, so some scans hit
        x0 = MultiPoly.variable(field, num_vars, 0)
        hit = MultiPoly.constant(field, num_vars, rng.choice(orbit)[0])
        targets = ([x0 - hit], [_random_fp_poly(rng, field, num_vars)])
        cache = OrbitCache(phi, start)  # shared by every scan, as in a run
        offsets = {0, max(mu - 1, 0), mu, mu + lam + 1, rng.randrange(3 * (mu + lam))}
        strides = {1, lam, 2 * lam, lam + 1, rng.randint(1, 2 * lam + 1)}
        for offset in sorted(offsets):
            for stride in sorted(strides):
                count = rng.randint(1, 40)
                for gens in targets:
                    got = cache.scan(gens, count, stride, offset)
                    assert got.horizon == count
                    assert got.indices == _scan_oracle(phi, start, gens, count, stride, offset)


def test_scan_tiling_against_a_folding_oracle():
    # Long scans, strides sharing a factor with the period, offsets
    # before, at and after the preperiod, counts ending mid-period; the
    # oracle folds n to mu + (n - mu) % lam itself, without the cache.
    rng = random.Random(0x711E)
    for _ in range(30):
        p = rng.choice([5, 7, 11])
        field = Field.prime(p)
        num_vars = rng.randint(1, 2)
        phi = Morphism([_random_fp_poly(rng, field, num_vars) for _ in range(num_vars)])
        start = tuple(field.from_int(rng.randrange(p)) for _ in range(num_vars))
        cycle = _brute_cycle(phi, start)
        mu, lam = cycle.preperiod, cycle.period
        orbit = orbit_prefix(phi, start, mu + lam)
        x0 = MultiPoly.variable(field, num_vars, 0)
        hit = MultiPoly.constant(field, num_vars, rng.choice(orbit[mu:])[0])
        targets = ([x0 - hit], [_random_fp_poly(rng, field, num_vars)])
        divisors = [d for d in range(2, lam + 1) if lam % d == 0] or [1]
        strides = {1, lam, rng.choice(divisors) * rng.randint(1, 3), rng.randint(1, 2 * lam + 1)}
        offsets = [max(mu - 1, 0), mu, mu + rng.randint(1, lam + 3), 0]
        rng.shuffle(offsets)  # the cycle is met inside any one of them first
        cache = OrbitCache(phi, start)
        for gens in targets:
            on_target = [all(g.evaluate(pt).is_zero() for g in gens) for pt in orbit]
            for offset in offsets:
                for stride in sorted(strides):
                    count = rng.randint(5, 20) * (mu + lam) + rng.randrange(lam)
                    folded = (stride * l + offset for l in range(count))
                    expected = bytes(
                        on_target[n if n < mu else mu + (n - mu) % lam] for n in folded
                    )
                    got = cache.scan(gens, count, stride, offset)
                    assert got.flags == expected, (p, mu, lam, stride, offset, count)
        assert cache.cycle == cycle


def test_scan_against_orbit_prefix_over_rationals():
    names = ("x", "y")
    phi = mk_morphism(["3-x", "y+1"], names, QQ)
    start = (QQ.from_int(1), QQ.from_int(0))  # x: 1, 2, 1, 2, ...; y = n
    gens = [parse_polynomial("x*y-2*y", names, QQ)]  # y = 0 or x = 2
    cache = OrbitCache(phi, start)
    for stride, offset, count in ((1, 0, 12), (3, 2, 9), (2, 1, 6), (4, 0, 5), (5, 7, 4)):
        got = cache.scan(gens, count, stride, offset)
        assert got.indices == _scan_oracle(phi, start, gens, count, stride, offset)
    assert cache.scan(gens, 12, 1, 0).indices == (0, 1, 3, 5, 7, 9, 11)
    assert cache.cycle is None


def _threshold_orbits():
    # (map, start) over QQ, GF(p) and GF(p)(t), each with at least
    # _COMPILE_AT + 1 distinct points.  The GF(227) orbit has preperiod 85
    # and period 67: its step loop crosses _COMPILE_AT inside the cycle,
    # before the first repeat.
    F227 = Field.prime(227)
    yield (
        mk_morphism(["2*x + y + 1", "y + 3"], XY, QQ),
        (QQ.from_fraction(Fraction(1, 2)), QQ.zero()),
    )
    yield mk_morphism(["x^2+y", "x*y+1"], XY, F227), (F227.from_int(4), F227.from_int(2))
    yield (
        mk_morphism(["t*x + y", "y + t^2 + 1"], XY, F2T),
        (F2T.from_coefficients([1, 1]), F2T.one()),
    )
    # GF(5)(t), whose packed ring is the generic one, with a square
    F5T = Field.rational_functions(5)
    yield (
        mk_morphism(["t*x + y^2", "y + t^2 + 1"], XY, F5T),
        (F5T.from_coefficients([2, 1]), F5T.one()),
    )
    # a polynomial map whose start has a denominator: every point takes
    # the pair kernel
    F3T = Field.rational_functions(3)
    yield (
        mk_morphism(["t*x + y", "y + t^2 + 1"], XY, F3T),
        (F3T.from_coefficients([1], [1, 1]), F3T.t()),
    )
    # a coefficient 1/t: t*x + y/t, y + 1, whose denominators stay t
    tx, y, y1 = (parse_polynomial(s, XY, F3T) for s in ("t*x", "y", "y + 1"))
    yield (
        Morphism([tx + MultiPoly.constant(F3T, 2, F3T.t().inverse()) * y, y1]),
        (F3T.one(), F3T.t()),
    )


@pytest.mark.parametrize("case", range(6))
def test_scans_around_the_compile_threshold(case, monkeypatch):
    import dmlab.orbits as orbits

    phi, start = list(_threshold_orbits())[case]
    built = []
    kernel = orbits._kernel

    def recording(polys, zero_test=False):
        built.append(zero_test)
        return kernel(polys, zero_test)

    monkeypatch.setattr(orbits, "_kernel", recording)
    at = orbits._COMPILE_AT
    orbit = orbit_prefix(phi, start, at + 1)
    x, y = (MultiPoly.variable(phi.field, 2, i) for i in range(2))

    def through(n, i):
        return (x, y)[i] - MultiPoly.constant(phi.field, 2, orbit[n][i])

    targets = (
        [through(3, 0) * through(at - 1, 0) * through(at, 0)],
        [through(at - 2, 1), through(at - 2, 0) * through(5, 0)],
        [through(7, 0), x * x - y],
    )
    cache = OrbitCache(phi, start)
    for count in (at - 1, at, at + 1):  # the scan tests count points
        built.clear()
        for gens in targets:
            got = cache.scan(gens, count, 1, 0)
            assert got.indices == _scan_oracle(phi, start, gens, count, 1, 0), count
        assert built.count(True) == (3 if count >= at else 0)
        # the step compiles once, when the stored prefix reaches at points
        assert built.count(False) == (count == at + 1)
    assert cache.scan(targets[0], at + 1, 1, 0).indices[-2:] == (at - 1, at)
    if phi.field.finite:
        cycle = detect_cycle(phi, start)
        assert cycle == CycleStructure(85, 67)
        for stride, offset, count in ((1, 0, 1000), (2, 0, 400), (1, 90, 200), (67, 3, 20)):
            for gens in targets:
                got = cache.scan(gens, count, stride, offset)
                assert got.indices == _scan_oracle(phi, start, gens, count, stride, offset)
        assert cache.cycle == cycle
        assert len(cache._points) == 85 + 67
