import json
import pickle
import random
from decimal import Decimal
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import dmlab.experiment
import dmlab.fields
from dmlab import (
    Field,
    FieldMismatchError,
    MonomialOrder,
    Morphism,
    experiment_from_dict,
    parse_polynomial,
    return_set,
    run_experiment,
    vanishing_ideal,
)
from dmlab.fields import _GF2PolyRing, _PolyRing

QQ = Field.rationals()
F2 = Field.prime(2)
F7 = Field.prime(7)
F2T = Field.rational_functions(2)
F5T = Field.rational_functions(5)


def test_field_labels():
    assert QQ.label == "QQ"
    assert F7.label == "GF(7)"
    assert F2T.label == "GF(2)(t)"
    for field in (
        QQ,
        F2,
        Field.prime(101),
        Field.prime(2147483647),
        F2T,
        Field.rational_functions(3),
        Field.rational_functions(7),
        Field.rational_functions(101),
    ):
        assert Field.from_label(field.label) == field
    for bad in ("GF(seven)", "GF(\u0667)", "GF(7)\n", "GF(4)", "GF(2147483648)", "gf(7)", "GF(7)(s)"):
        with pytest.raises(ValueError):
            Field.from_label(bad)


def test_only_prime_fields_are_finite():
    assert [f.finite for f in (QQ, F2, F7, F2T, F5T)] == [False, True, True, False, False]


def test_prime_validation():
    # 2047, 1373653 and 25326001 are strong pseudoprimes to small bases,
    # and 2146654199 = 46327 * 46337 sits near the cap with no small factor
    for bad in (0, 1, 4, 6, 9, 2047, 1373653, 25326001, 2146654199, 2**31, 2**31 + 11, -7):
        with pytest.raises(ValueError):
            Field.prime(bad)
    # small primes and the largest prime below the cap
    for good in (2, 3, 61, 7919, 2147483647):
        assert Field.prime(good).characteristic == good
    with pytest.raises(ValueError):
        Field.rational_functions(10)


def test_generator_square():
    t = F2T.t()
    assert str(t * t) == "t^2"
    assert (t * t).coefficients() == ((0, 0, 1), (1,))


def test_char_two_negation():
    one = F2T.one()
    t = F2T.t()
    assert one - t == one + t
    assert (one - t).coefficients() == ((1, 1), (1,))


def test_rational_sum():
    a = QQ.from_fraction(Fraction(2, 3))
    b = QQ.from_fraction(Fraction(3, 4))
    assert (a + b).payload == Fraction(17, 12)
    assert str(a + b) == "17/12"


def test_prime_inverse_against_exhaustive_search():
    for a in range(1, 7):
        inv = F7.from_int(a).inverse()
        oracle = next(b for b in range(1, 7) if a * b % 7 == 1)
        assert inv.payload == oracle
    assert F7.from_int(3).inverse().payload == 5


def test_quotient_canonicalization():
    # (t^2 + t) / t reduces to t + 1
    v = F2T.from_coefficients((0, 1, 1), (0, 1))
    assert v.coefficients() == ((1, 1), (1,))
    assert str(v) == "t + 1"
    inv = v.inverse()
    assert inv.coefficients() == ((1,), (1, 1))
    assert str(inv) == "1/(t + 1)"
    assert (v * inv).is_one()


def test_denominator_made_monic():
    # (1) / (2t) over GF(5): monic denominator t, numerator rescaled
    v = F5T.from_coefficients((1,), (0, 2))
    num, den = v.coefficients()
    assert den[-1] == 1
    assert den == (0, 1)
    assert num == (3,)  # 1/2 = 3 mod 5


def test_integer_embedding():
    assert F2.from_int(-1).payload == 1
    assert QQ.from_int(7).payload == Fraction(7)
    assert F7.from_int(10).payload == 3
    assert F5T.from_int(7).coefficients() == ((2,), (1,))
    assert F5T.from_int(5).is_zero()


def test_division_by_zero():
    for field in (QQ, F7, F2T):
        with pytest.raises(ZeroDivisionError):
            field.zero().inverse()
        with pytest.raises(ZeroDivisionError):
            field.one() / field.zero()
    with pytest.raises(ZeroDivisionError):
        F2T.from_coefficients((1,), ())


def test_field_mismatch():
    with pytest.raises(FieldMismatchError):
        QQ.one() + F7.one()
    with pytest.raises(FieldMismatchError):
        F2T.one() * F5T.one()
    with pytest.raises(ValueError):
        QQ.t()
    with pytest.raises(ValueError):
        F7.from_fraction(Fraction(1, 2))


def test_field_mismatch_raises_before_any_arithmetic(counted_field):
    for field, other in ((QQ, F7), (F7, F2T), (F2T, F5T), (F5T, QQ)):
        f, ring = counted_field(field)
        g, other_ring = counted_field(other)
        a, b = f.from_int(3), g.from_int(2)
        with pytest.raises(FieldMismatchError, match="field mismatch"):
            a + 3
        with pytest.raises(FieldMismatchError, match="field mismatch"):
            a * b
        with pytest.raises(FieldMismatchError, match="field mismatch"):
            a - b
        with pytest.raises(FieldMismatchError, match="field mismatch"):
            a / b
        assert ring.calls == other_ring.calls == 0
        assert (a - a).is_zero() and ring.calls == 2


@pytest.mark.parametrize("field", [QQ, F7, Field.rational_functions(3)], ids=str)
def test_pickle_round_trip(field):
    copy = pickle.loads(pickle.dumps(field))
    assert copy == field and hash(copy) == hash(field)
    assert copy.label == field.label
    if field.has_generator:
        values = [field.t(), field.from_coefficients((1, 2), (2, 0, 1)), field.from_int(2)]
    else:
        values = [field.from_int(3), field.from_int(-5), field.one()]
    for a in values:
        for b in values:
            a2, b2 = pickle.loads(pickle.dumps((a, b)))
            assert a2 == a and hash(a2) == hash(a)
            assert a2.field == field
            assert a2 + b2 == a + b
            assert a2 - b == a - b
            assert a2 * b2 == a * b
            assert a2**3 == a**3
            assert a2.inverse() == a.inverse()
            assert copy.one() + a2 == field.one() + a


def test_value_strings():
    assert str(F2T.zero()) == "0"
    assert str(F2T.from_coefficients((0, 1, 1))) == "t^2 + t"
    assert str(F5T.from_coefficients((1, 1), (0, 1))) == "(t + 1)/t"
    assert str(QQ.from_fraction(Fraction(-2, 3))) == "-2/3"
    assert str(F7.from_int(4)) == "4"


def _random_value(rng, field):
    if field.kind.name == "RATIONALS":
        return field.from_fraction(
            Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        )
    if field.kind.name == "PRIME":
        return field.from_int(rng.randrange(field.characteristic))
    p = field.characteristic
    num = [rng.randrange(p) for _ in range(rng.randint(1, 4))]
    den = [rng.randrange(p) for _ in range(rng.randint(1, 3))]
    den[-1] = rng.randrange(1, p)
    return field.from_coefficients(num, den)


def _rf_eval(value, s, p):
    # independent oracle: evaluate the coefficient quotient at t = s with ints
    num, den = value.coefficients()
    nv = sum(c * pow(s, i, p) for i, c in enumerate(num)) % p
    dv = sum(c * pow(s, i, p) for i, c in enumerate(den)) % p
    if dv == 0:
        return None
    return nv * pow(dv, p - 2, p) % p


def test_field_axioms_random():
    rng = random.Random(0x5EED)
    for field in (QQ, F7, F2T, F5T):
        for _ in range(150):
            a = _random_value(rng, field)
            b = _random_value(rng, field)
            c = _random_value(rng, field)
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + field.zero() == a
            assert a * field.one() == a
            assert (a - a).is_zero()
            if not a.is_zero():
                assert (a * a.inverse()).is_one()


def test_rational_function_ops_against_evaluation_oracle():
    rng = random.Random(0xF00D)
    for field in (F5T, Field.rational_functions(13)):
        p = field.characteristic
        for _ in range(120):
            a = _random_value(rng, field)
            b = _random_value(rng, field)
            for s in range(p):
                av, bv = _rf_eval(a, s, p), _rf_eval(b, s, p)
                if av is None or bv is None:
                    continue
                sv = _rf_eval(a + b, s, p)
                pv = _rf_eval(a * b, s, p)
                if sv is not None:
                    assert sv == (av + bv) % p
                if pv is not None:
                    assert pv == av * bv % p


def test_canonical_payloads_random():
    rng = random.Random(0xCAFE)
    for _ in range(200):
        a = _random_value(rng, F5T)
        b = _random_value(rng, F5T)
        out = rng.choice([a + b, a * b, a - b])
        num, den = out.coefficients()
        assert den and den[-1] == 1
        if not num:
            assert den == (1,)
        # canonical means re-normalizing is the identity
        assert F5T.from_coefficients(num, den) == out


def test_frobenius():
    rng = random.Random(0xBEEF)
    for field in (F2T, F5T):
        p = field.characteristic
        for _ in range(60):
            a = _random_value(rng, field)
            b = _random_value(rng, field)
            assert (a + b) ** p == a**p + b**p


def test_pow():
    rng = random.Random(0xA5A5)
    for field in (QQ, F7, F5T):
        for _ in range(40):
            a = _random_value(rng, field)
            assert (a**0).is_one()
            assert a**1 == a
            n, m = rng.randint(0, 6), rng.randint(0, 6)
            assert a ** (n + m) == a**n * a**m
            if not a.is_zero():
                assert a**-2 == (a.inverse()) ** 2


def test_hash_consistency():
    a = F5T.from_coefficients((0, 1, 1), (0, 1))
    b = F5T.from_coefficients((1, 1))
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_coefficients_round_trip_and_field_checks():
    v = F5T.from_coefficients((4, 0, 3), (2, 0, 0, 1))
    assert v.coefficients() == ((4, 0, 3), (2, 0, 0, 1))
    assert F5T.from_coefficients(*v.coefficients()) == v
    assert F2T.zero().coefficients() == ((), (1,))
    assert F2T.t().coefficients() == ((0, 1), (1,))
    for value in (QQ.one(), F7.one()):
        with pytest.raises(ValueError):
            value.coefficients()


# The seed's schoolbook arithmetic on coefficient tuples (low degree first,
# no trailing zeros), kept as the reference for the packed polynomials.


def _reference_fp_trim(coeffs):
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def _reference_fp_add(a, b, p):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return _reference_fp_trim(out)


def _reference_fp_neg(a, p):
    return tuple((p - c) % p for c in a)


def _reference_fp_sub(a, b, p):
    return _reference_fp_add(a, _reference_fp_neg(b, p), p)


def _reference_fp_mul(a, b, p):
    if not a or not b:
        return ()
    if len(a) > len(b):
        a, b = b, a
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] = (out[i + j] + ca * cb) % p
    return _reference_fp_trim(out)


def _reference_fp_divmod(a, b, p):
    if not b:
        raise ZeroDivisionError("division by zero")
    if len(a) < len(b):
        return (), a
    rem = list(a)
    quo = [0] * (len(a) - len(b) + 1)
    inv_lead = pow(b[-1], p - 2, p)
    for k in range(len(a) - len(b), -1, -1):
        c = rem[k + len(b) - 1]
        if c:
            f = c * inv_lead % p
            quo[k] = f
            for i, cb in enumerate(b):
                if cb:
                    rem[k + i] = (rem[k + i] - f * cb) % p
    return _reference_fp_trim(quo), _reference_fp_trim(rem)


def _reference_fp_monic(a, p):
    if not a or a[-1] == 1:
        return a
    inv = pow(a[-1], p - 2, p)
    return tuple(c * inv % p for c in a)


def _reference_fp_gcd(a, b, p):
    while b:
        a, b = b, _reference_fp_divmod(a, b, p)[1]
    return _reference_fp_monic(a, p)


def _reference_fp_pow(a, e, p):
    out = (1,)
    base = a
    while e:
        if e & 1:
            out = _reference_fp_mul(out, base, p)
        e >>= 1
        if e:
            base = _reference_fp_mul(base, base, p)
    return out


# 2- and 4-bit slots (p = 2; 3, 5, 7), 1-, 2- and 4-byte slots (11 and 127;
# 131 and 257; 32771 and up); p = 2 and 3 take the small-product multiply,
# and products over GF(2147483647) need more than 8 bytes per Kronecker slot.
PACKING_PRIMES = (2, 3, 5, 7, 11, 127, 131, 257, 32771, 65537, 2147483647)


def _random_poly(rng, p, length):
    kind = rng.randrange(4)
    if kind == 0:
        coeffs = [p - 1] * length  # largest exact product coefficients
    elif kind == 1:
        coeffs = [rng.choice((0, 0, 0, 1, p - 1)) for _ in range(length)]
    else:
        coeffs = [rng.randrange(p) for _ in range(length)]
    return _reference_fp_trim(coeffs)


def _check_packed_against_reference(field, a, b, e):
    p = field.characteristic
    polys = field._ring.polys
    va, vb = field.from_coefficients(a), field.from_coefficients(b)
    assert va.coefficients() == (a, (1,))
    assert field.from_coefficients(*va.coefficients()) == va
    assert (va + vb).coefficients() == (_reference_fp_add(a, b, p), (1,))
    assert (va - vb).coefficients() == (_reference_fp_sub(a, b, p), (1,))
    assert (-va).coefficients() == (_reference_fp_neg(a, p), (1,))
    assert (va * vb).coefficients() == (_reference_fp_mul(a, b, p), (1,))
    assert (va**e).coefficients() == (_reference_fp_pow(a, e, p), (1,))
    pa, pb = polys.pack(a), polys.pack(b)
    gcd = tuple(polys.unpack(polys.gcd(pa, pb)))
    assert gcd == _reference_fp_gcd(a, b, p)
    if b:
        quo, rem = (tuple(polys.unpack(c)) for c in polys.divmod(pa, pb))
        assert (quo, rem) == _reference_fp_divmod(a, b, p)


def test_packed_polynomials_match_the_schoolbook_reference():
    rng = random.Random(0x9ACC)
    for p in PACKING_PRIMES:
        field = Field.rational_functions(p)
        for _ in range(360):
            a = _random_poly(rng, p, rng.randint(0, 40))
            b = _random_poly(rng, p, rng.randint(0, 40))
            _check_packed_against_reference(field, a, b, rng.randint(0, 4))
        # Long operands: a Kronecker product with thousands of slots.
        long = _random_poly(rng, p, 2000 + rng.randrange(100))
        short = _random_poly(rng, p, rng.randint(1, 12))
        _check_packed_against_reference(field, long, short, 1)
        _check_packed_against_reference(field, short, long, 3)


# One prime of each slot width of the generic packed ring: 4 bits (3, 7),
# 1, 2 and 4 bytes (101; 257; 65537 and 2**31 - 1).
DIVISION_PRIMES = (3, 7, 101, 257, 65537, 2147483647)


def test_packed_division_matches_the_schoolbook_reference():
    rng = random.Random(0xD1F5)
    for p in DIVISION_PRIMES:
        polys = _PolyRing(p)

        def lead_not_one(length):
            return tuple(rng.randrange(p) for _ in range(length - 1)) + (rng.randrange(2, p),)

        # Pairs with a planted common factor of degree 20 and degrees
        # 300-470, so Euclid runs hundreds of steps and ends above degree 0.
        pairs = []
        for _ in range(2):
            common = lead_not_one(21)
            a = _reference_fp_mul(common, lead_not_one(rng.randint(280, 450)), p)
            b = _reference_fp_mul(common, _random_poly(rng, p, rng.randint(280, 450)), p)
            pairs += [(a, b), (b, a)]
        # Zero, constants, a dividend shorter than the divisor, and short
        # random pairs.
        constants = [(), (1,), (p - 1,), (rng.randrange(2, p),)]
        pairs += [(a, b) for a in constants for b in constants]
        pairs += [(lead_not_one(5), lead_not_one(9)), (lead_not_one(40), (rng.randrange(2, p),))]
        pairs += [(_random_poly(rng, p, rng.randint(0, 30)), lead_not_one(rng.randint(1, 12)))
                  for _ in range(40)]
        planted = 0
        for a, b in pairs:
            pa, pb = polys.pack(a), polys.pack(b)
            gcd = tuple(polys.unpack(polys.gcd(pa, pb)))
            assert gcd == _reference_fp_gcd(a, b, p)
            planted += len(gcd) > 20
            if b:
                quo, rem = (tuple(polys.unpack(c)) for c in polys.divmod(pa, pb))
                assert (quo, rem) == _reference_fp_divmod(a, b, p)
            else:
                with pytest.raises(ZeroDivisionError):
                    polys.divmod(pa, pb)
        assert planted >= 4


def test_slot_width_is_the_least_power_of_two_with_a_spare_bit():
    widths = {p: Field.rational_functions(p)._ring.polys.bits for p in (2, 3, 7, 11, 131, 32771)}
    assert widths == {2: 2, 3: 4, 7: 4, 11: 8, 131: 16, 32771: 32}


def test_gf2_powers_take_two_bits_per_coefficient():
    F = Field.rational_functions(2)
    power = F.t() ** 4399
    assert power.payload[0].bit_length() <= 2 * 4400
    assert power.coefficients() == ((0,) * 4399 + (1,), (1,))


# -- the GF(2)[t] kernel against the generic packed ring --------------------
#
# _PolyRing(2) runs the generic slot arithmetic and the generic packed
# division on the same packing, so it is the oracle for every method the
# kernel overrides.


def _random_gf2(rng, slots):
    # slots coefficients, each bit a random 0 or 1; trailing zeros simply
    # shorten the packed int.
    return _PolyRing(2).pack([rng.randrange(2) for _ in range(slots)])


def test_gf2_kernel_folds_like_the_generic_ring_while_its_mask_grows():
    rng = random.Random(0x2F01)
    kernel, generic = _GF2PolyRing(), _PolyRing(2)
    # Every 2-bit slot holds a value below 2p = 4, so any int is a valid
    # fold input.  Lengths climb past each mask size, then drop back.
    lengths = [0, 1, 2, 3, 7, 8, 9, 63, 64, 65, 500, 1023, 1024, 1025, 3000, 6000]
    for bits in lengths + lengths[::-1] + [rng.randrange(6000) for _ in range(100)]:
        x = rng.getrandbits(bits)
        assert kernel._fold(x) == generic._fold(x)
        assert kernel._low.bit_length() >= x.bit_length()


def test_gf2_kernel_matches_the_generic_ring():
    rng = random.Random(0x2F02)
    kernel, generic = _GF2PolyRing(), _PolyRing(2)
    # Zero, constants, short and long operands; lengths up to a few
    # thousand slots cross the mask's growth sizes.
    sizes = [0, 1, 2, 3, 4, 5, 9, 33, 100, 700, 1500, 3000]
    polys = [_random_gf2(rng, n) for n in sizes for _ in range(3)]
    polys += [_random_gf2(rng, rng.randint(0, 60)) for _ in range(60)]
    polys += [0, 1, 1 << 2, 1 << 4000]
    fast = kronecker = 0
    for _ in range(1500):
        a, b = rng.choice(polys), rng.choice(polys)
        assert kernel.add(a, b) == generic.add(a, b)
        assert kernel.neg(a) == generic.neg(a) == a
        assert kernel.mul(a, b) == generic.mul(a, b)
        if a and b:
            short = generic.slots(min(a, b)) <= 3
            fast += short
            kronecker += not short
        # The generic division folds once per step; keep its long cases few.
        if min(generic.slots(a), generic.slots(b)) <= 100 or rng.random() < 0.02:
            assert kernel.gcd(a, b) == generic.gcd(a, b)
            if b:
                assert kernel.divmod(a, b) == generic.divmod(a, b)
                assert kernel.canonical(a, b) == generic.canonical(a, b)
    assert fast > 100 and kronecker > 100
    # The inline short path ends at 3 slots: 0b010101 = 1 + t + t^2 is
    # the largest 3-slot polynomial, 1 << 6 = t^3 the smallest 4-slot one.
    # The square of 1 + t + t^2 + t^3 has 4 at t^3, which a 2-bit slot
    # cannot hold.
    for a, b in product([0, 0b010101, 1 << 6, 0b01010101], repeat=2):
        assert kernel.mul(a, b) == generic.mul(a, b)
    for a in polys:
        with pytest.raises(ZeroDivisionError):
            kernel.divmod(a, 0)
        with pytest.raises(ZeroDivisionError):
            kernel.canonical(a, 0)


def test_polynomial_operations_make_one_packed_call():
    # On (num, 1) pairs each GF(p)(t) operation is one call on the packed
    # ring, the call a compiled orbit kernel makes in its place.
    from conftest import CountingRing

    for p in (2, 5):
        ring = Field.rational_functions(p)._ring
        counter = ring.polys = CountingRing(ring.polys)
        a, b = (ring.polys.pack([1, 1, 1]), 1), (ring.polys.pack([0, 1]), 1)
        for op, args in (("add", (a, b)), ("mul", (a, b)), ("pow", (a, 5)), ("neg", (a,))):
            counter.counts.clear()
            assert getattr(ring, op)(*args)[1] == 1
            assert dict(counter.counts) == {op: 1}


def test_gf2_kernel_is_chosen_by_the_characteristic_alone():
    assert type(Field.rational_functions(2)._ring.polys) is _GF2PolyRing
    for p in (3, 5, 7, 11, 2147483647):
        assert type(Field.rational_functions(p)._ring.polys) is _PolyRing


def test_gf2_work_never_unpacks_or_folds_generically(monkeypatch):
    # Inputs first, then the generic packed division and gcd, unpacking
    # and the generic fold's masks raise: GF(2)(t) arithmetic has to stay
    # on the kernel's packed ints.
    rng = random.Random(0x2F03)
    F = Field.rational_functions(2)

    def coordinate():
        # numerator and denominator of positive degree
        num = [rng.randrange(2) for _ in range(rng.randint(1, 3))] + [1]
        return F.from_coefficients(num, [1, 1] if rng.random() < 0.5 else [0, 1])

    points = [tuple(coordinate() for _ in range(3)) for _ in range(8)]
    assert any(c.payload[1] != 1 and c.payload[0] >> 2 for pt in points for c in pt)
    names = ("x", "y")
    phi = Morphism([parse_polynomial(s, names, F) for s in ("t*x", "(1-t)*y")])
    target = [parse_polynomial("x+y-1", names, F)]
    start = (F.one(), F.one())

    def forbidden(*args, **kwargs):
        raise AssertionError("GF(2)(t) arithmetic left the GF(2)[t] kernel")

    monkeypatch.setattr(_PolyRing, "divmod", forbidden)
    monkeypatch.setattr(_PolyRing, "gcd", forbidden)
    monkeypatch.setattr(_PolyRing, "unpack", forbidden)
    monkeypatch.setattr(_PolyRing, "_slot_masks", forbidden)
    assert vanishing_ideal(points, MonomialOrder.grevlex(3), 2).generators
    assert return_set(phi, start, target, 200).indices == (1, 2, 4, 8, 16, 32, 64, 128)


def _assert_canonical_qq(payload, want):
    # A QQ payload is an int exactly when it is integral, else a Fraction
    # with denominator above 1; type() also rules out floats and bools.
    want = Fraction(want)
    assert payload == want
    assert type(payload) is (int if want.denominator == 1 else Fraction)


def _random_qq(rng):
    if rng.random() < 0.4:
        return QQ.from_int(rng.choice([0, 1, -1, rng.randint(-50, 50)]))
    # denominators that reduce away as well as ones that stay
    return QQ.from_fraction(Fraction(rng.randint(-50, 50), rng.choice([1, 2, 3, 4, 6, 12])))


def test_rational_payloads_are_canonical_under_every_operation():
    rng = random.Random(0x0221)
    ring = QQ._ring
    assert type(ring.zero) is int and type(ring.one) is int
    _assert_canonical_qq(QQ.zero().payload, 0)
    _assert_canonical_qq(QQ.one().payload, 1)
    _assert_canonical_qq(ring.add(Fraction(1, 2), Fraction(1, 2)), 1)
    _assert_canonical_qq(ring.pow(Fraction(1, 2), 0), 1)
    _assert_canonical_qq(ring.inverse(Fraction(-1, 3)), -3)
    _assert_canonical_qq(ring.inverse(-1), -1)
    _assert_canonical_qq(QQ.from_fraction(Fraction(6, 3)).payload, 2)
    for _ in range(400):
        a, b = _random_qq(rng), _random_qq(rng)
        x, y = a.payload, b.payload
        fx, fy = Fraction(x), Fraction(y)
        _assert_canonical_qq(x, fx)
        _assert_canonical_qq(ring.add(x, y), fx + fy)
        _assert_canonical_qq(ring.neg(x), -fx)
        _assert_canonical_qq(ring.mul(x, y), fx * fy)
        e = rng.randint(0, 4)
        _assert_canonical_qq(ring.pow(x, e), fx**e)
        _assert_canonical_qq((a + b).payload, fx + fy)
        _assert_canonical_qq((a - b).payload, fx - fy)
        _assert_canonical_qq((-a).payload, -fx)
        _assert_canonical_qq((a * b).payload, fx * fy)
        _assert_canonical_qq((a**e).payload, fx**e)
        if x:
            _assert_canonical_qq(ring.inverse(x), 1 / fx)
            _assert_canonical_qq(a.inverse().payload, 1 / fx)
            _assert_canonical_qq((b / a).payload, fy / fx)
            _assert_canonical_qq((a ** -e).payload, fx**-e)
        # The integral domain: clear gives int numerators over one int
        # denominator, and quotient turns two of them back into a payload.
        values = [_random_qq(rng).payload for _ in range(rng.randint(1, 5))]
        nums, den = ring.clear(values)
        assert type(den) is int and den > 0
        assert all(type(n) is int for n in nums)
        assert [Fraction(n, den) for n in nums] == values
        n, d = rng.randint(-60, 60), rng.choice([-4, -2, -1, 1, 3, 5, 6])
        _assert_canonical_qq(ring.quotient(n, d), Fraction(n, d))


def test_from_int_rejects_non_integers():
    for field in (QQ, F7, F5T):
        for bad in (1.5, 2.0, Fraction(3), "4"):
            with pytest.raises(TypeError):
                field.from_int(bad)
    # integers of any kind embed as plain ints
    assert type(QQ.from_int(True).payload) is int
    assert F7.from_int(True).payload == 1


def test_from_fraction_takes_only_ints_and_fractions():
    for bad in (0.1, 0.5, "1/3", "2", Decimal("0.1"), Decimal(2)):
        with pytest.raises(TypeError):
            QQ.from_fraction(bad)
    assert QQ.from_fraction(Fraction(6, 4)) == QQ.from_fraction(Fraction(3, 2))
    for n in (0, 7, -12, True):
        got = QQ.from_fraction(n)
        assert type(got.payload) is int and got == QQ.from_int(n)
    with pytest.raises(ValueError):
        F7.from_fraction(3)


def test_rotation_run_keeps_every_rational_payload_canonical(monkeypatch):
    suite = json.loads(
        (Path(__file__).resolve().parents[1] / "perfbench" / "suite.json").read_text(
            encoding="utf-8"
        )
    )
    doc = next(w for w in suite["workloads"] if w["name"] == "rotation-qq")["experiment"]
    sessions = []
    make_session = dmlab.experiment.Session

    def record(*args):
        sessions.append(make_session(*args))
        return sessions[-1]

    monkeypatch.setattr(dmlab.experiment, "Session", record)
    run_experiment(experiment_from_dict(doc))
    (session,) = sessions
    assert session.memo
    payloads = [c for pt in session.cache._points for c in pt]
    for entry in session.memo.values():
        for g in entry.ideal.generators:
            payloads.extend(g.terms.values())
    assert len(payloads) > 1000
    for c in payloads:
        _assert_canonical_qq(c, c)
