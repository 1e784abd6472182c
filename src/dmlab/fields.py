"""Exact arithmetic over the three supported coefficient fields.

A :class:`Field` is a lightweight descriptor for one of: the rationals,
a prime field GF(p) with p a prime below 2**31, or a rational function
field GF(p)(t) in one transcendental generator t.  A :class:`FieldValue`
pairs a descriptor with a canonical payload:

* rationals: an int when the value is integral, otherwise a reduced
  ``fractions.Fraction`` with denominator above 1 (never a float),
* GF(p): an int residue in [0, p),
* GF(p)(t): a pair (num, den) of GF(p)[t] polynomials, each packed into
  one Python int.  Coefficient i sits in bits [i*b, (i+1)*b), where the
  slot width b is the least of 2, 4, 8, 16 and 32 with
  (p-1).bit_length() + 1 <= b: 2 bits for p = 2, 4 for p = 3, 5 and 7,
  and whole bytes from p = 11 on.  That leaves one spare bit per slot,
  so two residues add without a carry into the next slot: addition is
  one bignum add and a masked per-slot subtraction of p, and
  multiplication is one bignum multiply (Kronecker substitution on
  slots widened to whole bytes).  Division and gcd run on the packed
  int for every p: each step of the long division adds a shifted
  multiple of the divisor, one folded sum.  GF(2)[t] keeps the same
  2-bit slots but adds by XOR, reduces a slot mod 2 by masking its low
  bit, and divides by shift-and-XOR.  den is monic,
  gcd(num, den) = 1, and zero is (0, 1); :meth:`FieldValue.coefficients`
  reads the pair back as coefficient tuples.

Each :class:`Field` builds one payload ring when it is constructed:
``_RationalRing``, ``_PrimeRing`` or ``_FunctionRing``, module-level
classes with ``add``, ``neg``, ``mul``, ``inverse`` and ``pow`` on raw
payloads plus the ``zero`` and ``one`` payloads.  :class:`FieldValue`
arithmetic only checks its operands and wraps the ring's result.
``MultiPoly`` keeps its coefficients as payloads and calls the ring
directly, with one field check per polynomial operation.  Both
Groebner algorithms eliminate fraction-free, so each ring also works
in its field's integral domain, ZZ, GF(p)[t] or GF(p), whose elements
are ints with 0 and 1 as zero and one: ``clear`` turns payloads into
numerators over one common denominator, ``dadd``, ``dneg`` and
``dmul`` add, negate and multiply, ``combine(r, v, c, w)`` is the
vector r*v - c*w (v's entries past w's only scaled), ``primitive``
divides out the content (over GF(p), the first entry when it is not 0)
and ``quotient(a, b)`` is the payload of a / b.  Over GF(p)(t) this
keeps the gcds of canonical fractions out of elimination: only
``clear``, ``primitive`` and the final ``quotient`` take one.

A field's text form is its :attr:`Field.label`, "QQ", "GF(p)" or
"GF(p)(t)", and :meth:`Field.from_label` parses a label back; no other
module knows the label grammar or what a :class:`FieldKind` means.

Canonical payloads make equality structural, so values hash and compare
bit-for-bit and can key dictionaries.  Mixing values from different
fields raises :class:`FieldMismatchError`; there is no implicit
coercion.  Arbitrary extension fields and scheme-theoretic points are
out of scope by design.
"""

from __future__ import annotations

import enum
import re
import sys
from array import array
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import index

__all__ = [
    "Field",
    "FieldKind",
    "FieldMismatchError",
    "FieldValue",
]


class FieldMismatchError(ValueError):
    """Operands belong to different fields."""


class FieldKind(enum.Enum):
    RATIONALS = "rationals"
    PRIME = "prime"
    RATIONAL_FUNCTIONS = "rational functions"


_MAX_CHARACTERISTIC = 2**31
_LABEL_RE = re.compile(r"GF\(([0-9]+)\)(\(t\))?")


def _require_int(value, name: str, minimum: int) -> int:
    """``value``, if it is an int (not a bool) of at least ``minimum``; else
    ValueError naming ``name``, in the texts every integer check shares."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer")
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}")
    return value


def _power(mul, one, a, e: int):
    """``a`` to the ``e``, square-and-multiply from ``one`` with ``mul``."""
    out = one
    while e:
        if e & 1:
            out = mul(out, a)
        e >>= 1
        if e:
            a = mul(a, a)
    return out


def _fp_str(coeffs: tuple) -> str:
    if not coeffs:
        return "0"
    parts = []
    for d in range(len(coeffs) - 1, -1, -1):
        c = coeffs[d]
        if not c:
            continue
        if d == 0:
            parts.append(str(c))
        else:
            base = "t" if d == 1 else f"t^{d}"
            parts.append(base if c == 1 else f"{c}*{base}")
    return " + ".join(parts)


# Array typecode of each item size; packed slots are read and written
# through arrays of these.
_TYPECODES = {array(code).itemsize: code for code in "QLIHB"}


# Sub-byte slots are the base-2**bits digits of the packed int, so they
# convert to one coefficient per byte through the int's hex or binary
# string, mapped between ASCII digits and values by these tables.  For
# power-of-two bases CPython converts in linear time and applies no
# int/str digit limit.
_HEX = b"0123456789abcdef"
_TO_DIGIT = bytes.maketrans(bytes(range(16)), _HEX)
_FROM_DIGIT = bytes.maketrans(_HEX, bytes(range(16)))
# Each byte's low bit: a GF(2)[t] coefficient read off a widened slot.
_LOW_BIT = b"\0\1" * 128


def _little(items: array) -> array:
    # Packed slots are little-endian whatever the machine's byte order.
    if sys.byteorder == "big":
        items.byteswap()
    return items


class _PolyRing:
    """GF(p)[t] arithmetic on polynomials packed into Python ints."""

    __slots__ = ("p", "bits", "width", "_unit", "_high", "_offset", "_square", "_masks")

    def __init__(self, p: int):
        bits = next(b for b in (2, 4, 8, 16, 32) if (p - 1).bit_length() + 1 <= b)
        half = 1 << (bits - 1)
        self.p = p
        self.bits = bits
        # Bytes per slot, 0 when 8/bits slots share each byte.  Every
        # layout branch tests this width.
        self.width = bits // 8
        # Bits of one mask unit, one slot of width bytes or one byte of
        # 8/bits slots; the per-slot constants are kept as one unit each.
        self._unit = 8 * (self.width or 1)
        self._high = self._repeat(half)
        self._offset = self._repeat(half - p)
        self._square = (p - 1) ** 2
        self._masks = {}

    def _repeat(self, value: int) -> bytes:
        unit = sum(value << j for j in range(0, self._unit, self.bits))
        return unit.to_bytes(self._unit // 8, "little")

    def slots(self, a: int) -> int:
        return -(-a.bit_length() // self.bits)

    def pack(self, coeffs) -> int:
        if self.width:
            items = _little(array(_TYPECODES[self.width], coeffs))
            return int.from_bytes(items.tobytes(), "little")
        if not coeffs:
            return 0
        # The coefficients, highest first, are the base-2**bits digits.
        digits = bytes(coeffs).translate(_TO_DIGIT)
        return int(digits[::-1], 1 << self.bits)

    def unpack(self, a: int) -> list:
        if self.width:
            raw = a.to_bytes(self.slots(a) * self.width, "little")
            return _little(array(_TYPECODES[self.width], raw)).tolist()
        return list(self._digits(a)) if a else []

    def _digits(self, a: int) -> bytes:
        # The sub-byte slots of a nonzero a, one per byte.  A 4-bit slot is
        # one hex digit.  A 2-bit slot (p = 2) holds a reduced coefficient
        # 0 or 1, so it is every other binary digit.
        if self.bits == 2:
            return format(a, "b").encode()[::-2].translate(_FROM_DIGIT)
        return format(a, "x").encode()[::-1].translate(_FROM_DIGIT)

    def _slot_masks(self, x: int) -> tuple:
        # 2**(bits-1) - p and 2**(bits-1) in every slot of the first 2**j
        # mask units, 2**j the least power of two covering x.  Built once
        # per j: building them per call would cost more than the fold.
        size = 1 << (-(-x.bit_length() // self._unit) - 1).bit_length()
        masks = self._masks.get(size)
        if masks is None:
            masks = self._masks[size] = (
                int.from_bytes(self._offset * size, "little"),
                int.from_bytes(self._high * size, "little"),
            )
        return masks

    def _fold(self, x: int) -> int:
        # Every slot of x lies in [0, 2p), and bits >= (p-1).bit_length() + 1
        # keeps 2p - 1 within a slot.  Adding 2**(bits-1) - p to a slot
        # sets its top bit, without a carry, exactly when the slot is at
        # least p; p is then subtracted from those slots.
        offset, high = self._slot_masks(x)
        over = (x + offset) & high
        return x - (over >> (self.bits - 1)) * self.p

    def add(self, a: int, b: int) -> int:
        return self._fold(a + b)

    def neg(self, a: int) -> int:
        # high - offset holds p in every slot.
        offset, high = self._slot_masks(a)
        return self._fold(high - offset - a)

    def mul(self, a: int, b: int) -> int:
        if not a or not b:
            return 0
        # Bound on every coefficient of the exact integer product; the
        # smaller of two positive ints has the fewer slots.
        bound = self.slots(min(a, b)) * self._square
        if bound < 2 * self.p:
            return self._fold(a * b)
        # Kronecker substitution: widen the slots to the power-of-two byte
        # count that holds the bound (never below a slot, as bound >= 2p),
        # multiply once, then reduce each coefficient mod p.
        la, lb = self.slots(a), self.slots(b)
        need = -(-bound.bit_length() // 8)
        wide = 1 << (need - 1).bit_length()
        product = self._widen(a, la, wide) * self._widen(b, lb, wide)
        raw = product.to_bytes((la + lb - 1) * wide, "little")
        if wide in _TYPECODES:
            coeffs = _little(array(_TYPECODES[wide], raw))
        else:
            coeffs = [
                int.from_bytes(raw[i : i + wide], "little")
                for i in range(0, len(raw), wide)
            ]
        p = self.p
        return self.pack([c % p for c in coeffs])

    def _widen(self, a: int, n: int, wide: int) -> int:
        # a's n slots moved into slots of wide bytes.
        out = bytearray(n * wide)
        k = self.width
        if k:
            raw = a.to_bytes(n * k, "little")
            for j in range(k):
                out[j::wide] = raw[j::k]
        else:
            out[::wide] = self._digits(a)
        return int.from_bytes(out, "little")

    def pow(self, a: int, e: int) -> int:
        return _power(self.mul, 1, a, e)

    def divmod(self, a: int, b: int) -> tuple:
        # Long division on the packed int.  Each step cancels the
        # remainder's leading slot n: it adds k*b shifted n - top slots,
        # k = -c/lc(b) for the slot's coefficient c, and writes p - k into
        # that quotient slot.  The remainder only shrinks, so a's masks
        # fold every sum (past a sum's length a mask slot adds
        # half - p >= 0 and never sets its top bit).  Each k*b is a sum
        # of doublings of b, made once per call.
        if not b:
            raise ZeroDivisionError("division by zero")
        p, bits, hb = self.p, self.bits, self.bits - 1
        top, n = (b.bit_length() - 1) // bits, (a.bit_length() - 1) // bits
        if n < top:
            return 0, a
        neg = p - pow(b >> bits * top, p - 2, p)
        offset, high = self._slot_masks(a)
        doubles, multiples, quo = [b], {}, 0
        while n >= top:
            k = (a >> bits * n) * neg % p
            m = multiples.get(k)
            if m is None:
                while len(doubles) < k.bit_length():
                    x = doubles[-1] << 1
                    doubles.append(x - (((x + offset) & high) >> hb) * p)
                m = 0
                for j, d in enumerate(doubles):
                    if k >> j & 1:
                        x = m + d
                        m = x - (((x + offset) & high) >> hb) * p
                multiples[k] = m
            s = bits * (n - top)
            quo |= (p - k) << s
            x = a + (m << s)
            a = x - (((x + offset) & high) >> hb) * p
            n = (a.bit_length() - 1) // bits
        return quo, a

    def gcd(self, a: int, b: int) -> int:
        # Euclid, then monic by the inverse of the leading coefficient.
        while b:
            a, b = b, self.divmod(a, b)[1]
        lead = a >> self.bits * max(self.slots(a) - 1, 0)
        return a if lead <= 1 else self.mul(a, pow(lead, self.p - 2, self.p))

    def canonical(self, num: int, den: int) -> tuple:
        # Reduce a fraction of polynomials to coprime/monic form.
        if not den:
            raise ZeroDivisionError("division by zero")
        if not num:
            return (0, 1)
        if den != 1:
            g = self.gcd(num, den)
            if g >> self.bits:  # deg g >= 1
                num = self.divmod(num, g)[0]
                den = self.divmod(den, g)[0]
            lead = den >> (self.bits * (self.slots(den) - 1))
            if lead != 1:
                inv = pow(lead, self.p - 2, self.p)
                num = self.mul(num, inv)
                den = self.mul(den, inv)
        return (num, den)


class _GF2PolyRing(_PolyRing):
    """GF(2)[t] on the same 2-bit slots, each coefficient its slot's low bit.

    Adding is XOR and negating does nothing.  A slot of a carry-free sum,
    or of a product whose shorter operand has at most 3 slots, holds at
    most 3, so reducing it mod 2 keeps its low bit: one AND with
    ``_low``, 01 in every slot.  :meth:`mul` runs that short case
    inline, one multiply and one AND, as the orbit loops hit it on
    nearly every step; it tests the shorter operand against 64 (below
    64 means at most 3 slots) and calls :meth:`_fold` only when the
    mask has to grow.  Longer products run on widened slots and keep
    each one's low bit.  Every nonzero polynomial is monic, and its
    leading bit sits at an even position, so division is shift-and-XOR
    on the packed int.
    """

    __slots__ = ("_low",)

    def __init__(self):
        super().__init__(2)
        self._low = 0

    def _fold(self, x: int) -> int:
        # One mask, grown to twice what x needs; AND costs only the
        # shorter operand, so a long mask does not slow short folds.
        low = self._low
        if x.bit_length() > low.bit_length():
            low = self._low = int.from_bytes(b"\x55" * (x.bit_length() // 4 + 1), "little")
        return x & low

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def neg(self, a: int) -> int:
        return a

    def mul(self, a: int, b: int) -> int:
        if (a if a < b else b) < 64:  # the shorter operand has at most 3 slots
            x = a * b
            low = self._low
            if x.bit_length() > low.bit_length():
                return self._fold(x)  # grows the mask
            return x & low
        short = self.slots(min(a, b))
        # No coefficient of the integer product exceeds the shorter
        # operand's slot count, so slots of ceil(bit_length / 8) bytes hold
        # each without a carry, and a wide slot's low bit is its value mod 2.
        la, lb = self.slots(a), self.slots(b)
        wide = -(-short.bit_length() // 8)
        product = self._widen(a, la, wide) * self._widen(b, lb, wide)
        raw = product.to_bytes((la + lb - 1) * wide, "little")
        return self.pack(raw[::wide].translate(_LOW_BIT))

    def divmod(self, a: int, b: int) -> tuple:
        if not b:
            raise ZeroDivisionError("division by zero")
        # Leading bits sit at even positions, so s is even: t**(s/2) * b
        # cancels a's leading term.
        quo, lb = 0, b.bit_length()
        s = a.bit_length() - lb
        while s >= 0:
            quo |= 1 << s
            a ^= b << s
            s = a.bit_length() - lb
        return quo, a

    def gcd(self, a: int, b: int) -> int:
        # Euclid on divmod's loop without the quotient; the result is
        # monic, as every nonzero polynomial is.
        while b:
            lb = b.bit_length()
            s = a.bit_length() - lb
            while s >= 0:
                a ^= b << s
                s = a.bit_length() - lb
            a, b = b, a
        return a


def _rational(q):
    # The canonical QQ payload of an int or Fraction (ints have denominators too).
    return q.numerator if q.denominator == 1 else q


class _RationalRing:
    """QQ payloads: ints when integral, else reduced Fractions, never floats."""

    __slots__ = ()
    zero = 0
    one = 1

    def add(self, a, b):
        return _rational(a + b)

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return _rational(a * b)

    def inverse(self, a):
        return _rational(Fraction(a.denominator, a.numerator))

    def pow(self, a, e: int):
        return _rational(a**e)

    dadd, dneg = add, neg  # exact on ints, which are canonical payloads

    def dmul(self, a, b):
        return a * b

    def clear(self, values):
        den = lcm(*[q.denominator for q in values])
        if den == 1:  # every value is an int, its own numerator
            return values, 1
        return [q.numerator * (den // q.denominator) for q in values], den

    def combine(self, r, v, c, w):
        return [r * a - c * b for a, b in zip(v, w)] + [r * a for a in v[len(w) :]]

    def primitive(self, v):
        g = gcd(*v)
        return v if g == 1 else [a // g for a in v]

    def quotient(self, a, b):
        return a if b == 1 else _rational(Fraction(a, b))


class _PrimeRing:
    """GF(p) payloads: int residues in [0, p)."""

    __slots__ = ("p",)
    zero = 0
    one = 1

    def __init__(self, p: int):
        self.p = p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inverse(self, a):
        return pow(a, self.p - 2, self.p)

    def pow(self, a, e: int):
        return pow(a, e, self.p)

    dadd, dneg, dmul = add, neg, mul

    def clear(self, values):
        return values, 1

    def combine(self, r, v, c, w):
        p = self.p
        return [(r * a - c * b) % p for a, b in zip(v, w)] + [r * a % p for a in v[len(w) :]]

    def primitive(self, v):
        # Every nonzero residue is a unit, so the content is taken to be the
        # first entry: a remainder, listed leading term first, comes out
        # monic, and reducing by it scales nothing.
        a = v[0] if v else 0
        if a == 0 or a == 1:
            return v
        inv, p = self.inverse(a), self.p
        return [b * inv % p for b in v]

    def quotient(self, a, b):
        return a if b == 1 else a * self.inverse(b) % self.p


class _FunctionRing:
    """GF(p)(t) payloads: canonical (num, den) pairs of packed polynomials."""

    __slots__ = ("polys", "dadd", "dneg", "dmul", "quotient")
    zero = (0, 1)
    one = (1, 1)

    def __init__(self, p: int):
        polys = self.polys = _GF2PolyRing() if p == 2 else _PolyRing(p)
        self.dadd, self.dneg, self.dmul = polys.add, polys.neg, polys.mul
        self.quotient = polys.canonical

    def add(self, a, b):
        polys = self.polys
        n1, d1 = a
        n2, d2 = b
        if d1 == 1 and d2 == 1:
            return (polys.add(n1, n2), 1)
        num = polys.add(polys.mul(n1, d2), polys.mul(n2, d1))
        return polys.canonical(num, polys.mul(d1, d2))

    def neg(self, a):
        num, den = a
        return (self.polys.neg(num), den)

    def mul(self, a, b):
        polys = self.polys
        n1, d1 = a
        n2, d2 = b
        if d1 == 1 and d2 == 1:
            return (polys.mul(n1, n2), 1)
        return polys.canonical(polys.mul(n1, n2), polys.mul(d1, d2))

    def inverse(self, a):
        num, den = a
        return self.polys.canonical(den, num)

    def pow(self, a, e: int):
        num, den = a
        if den == 1:
            return (self.polys.pow(num, e), 1)
        return (self.polys.pow(num, e), self.polys.pow(den, e))

    def clear(self, values):
        polys, den = self.polys, 1
        for _, d in values:
            if d != 1 and d != den:
                den = polys.mul(den, polys.divmod(d, polys.gcd(den, d))[0])
        nums = [num if d == den else polys.mul(num, polys.divmod(den, d)[0]) for num, d in values]
        return nums, den

    def combine(self, r, v, c, w):
        mul, add, c = self.polys.mul, self.polys.add, self.polys.neg(c)
        head = [add(mul(r, a), mul(c, b)) for a, b in zip(v, w)]
        return head + [mul(r, a) for a in v[len(w) :]]

    def primitive(self, v):
        polys, g = self.polys, 0
        for a in v:
            if a:
                g = polys.gcd(g, a)
                if not g >> polys.bits:  # a constant content is a unit
                    return v
        return [polys.divmod(a, g)[0] for a in v]


class Field:
    """Descriptor of a supported coefficient field.

    Fields compare and hash by ``kind`` and ``characteristic``.  The kind
    is checked to be a :class:`FieldKind`, the characteristic to be an
    int (0 for QQ, else a prime below 2**31), and the payload arithmetic
    ``_ring`` built once, here.
    """

    __slots__ = ("kind", "characteristic", "_ring")

    def __init__(self, kind: FieldKind, characteristic: int):
        p = _require_int(characteristic, "characteristic", 0)
        if kind is FieldKind.RATIONALS:
            if p != 0:
                raise ValueError(f"QQ has characteristic 0, got {p}")
            self._ring = _RationalRing()
        elif kind is FieldKind.PRIME or kind is FieldKind.RATIONAL_FUNCTIONS:
            # Trial division; at the 2**31 cap this is about 46,000
            # divisions, paid once per Field construction.
            if not (2 <= p < _MAX_CHARACTERISTIC) or not all(p % q for q in range(2, isqrt(p) + 1)):
                raise ValueError(f"characteristic must be a prime below 2**31, got {p}")
            self._ring = (_PrimeRing if kind is FieldKind.PRIME else _FunctionRing)(p)
        else:
            raise ValueError(f"unknown field kind {kind!r}")
        self.kind = kind
        self.characteristic = characteristic

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.characteristic) == (other.kind, other.characteristic)

    def __hash__(self):
        return hash((self.kind, self.characteristic))

    def __repr__(self):
        return f"Field(kind={self.kind!r}, characteristic={self.characteristic!r})"

    @staticmethod
    def rationals() -> "Field":
        return Field(FieldKind.RATIONALS, 0)

    @staticmethod
    def prime(p: int) -> "Field":
        return Field(FieldKind.PRIME, p)

    @staticmethod
    def rational_functions(p: int) -> "Field":
        return Field(FieldKind.RATIONAL_FUNCTIONS, p)

    @staticmethod
    def from_label(label: str) -> "Field":
        """The field whose :attr:`label` is ``label``; ValueError otherwise."""
        if label == "QQ":
            return Field.rationals()
        m = _LABEL_RE.fullmatch(label)
        if not m:
            raise ValueError(f"field must be 'QQ', 'GF(p)' or 'GF(p)(t)', got {label!r}")
        p = int(m.group(1))  # a ValueError past the int digit limit
        return Field.rational_functions(p) if m.group(2) else Field.prime(p)

    @property
    def label(self) -> str:
        if self.kind is FieldKind.RATIONALS:
            return "QQ"
        if self.kind is FieldKind.PRIME:
            return f"GF({self.characteristic})"
        return f"GF({self.characteristic})(t)"

    @property
    def has_generator(self) -> bool:
        return self.kind is FieldKind.RATIONAL_FUNCTIONS

    @property
    def finite(self) -> bool:
        return self.kind is FieldKind.PRIME

    def zero(self) -> "FieldValue":
        return FieldValue(self, self._ring.zero)

    def one(self) -> "FieldValue":
        return FieldValue(self, self._ring.one)

    def from_int(self, n: int) -> "FieldValue":
        if self.kind is FieldKind.RATIONALS:
            return FieldValue(self, index(n))
        r = index(n) % self.characteristic
        if self.kind is FieldKind.PRIME:
            return FieldValue(self, r)
        return FieldValue(self, (r, 1))

    def from_fraction(self, q: Fraction) -> "FieldValue":
        if self.kind is not FieldKind.RATIONALS:
            raise ValueError(f"exact fractions only embed into QQ, not {self.label}")
        if not isinstance(q, (int, Fraction)):
            raise TypeError(f"expected an int or a Fraction, got {type(q).__name__}")
        return FieldValue(self, _rational(Fraction(q)))

    def t(self) -> "FieldValue":
        if self.kind is not FieldKind.RATIONAL_FUNCTIONS:
            raise ValueError(f"{self.label} has no transcendental generator")
        return FieldValue(self, (1 << self._ring.polys.bits, 1))

    def from_coefficients(self, num, den=(1,)) -> "FieldValue":
        """Build a GF(p)(t) value from raw coefficient sequences (low degree first)."""
        if self.kind is not FieldKind.RATIONAL_FUNCTIONS:
            raise ValueError(f"{self.label} values are not coefficient quotients")
        p, polys = self.characteristic, self._ring.polys
        n = polys.pack([c % p for c in num])
        d = polys.pack([c % p for c in den])
        return FieldValue(self, polys.canonical(n, d))

    def __str__(self) -> str:
        return self.label


class FieldValue:
    """Immutable element of a :class:`Field` with canonical payload."""

    __slots__ = ("field", "payload")

    def __init__(self, field: Field, payload):
        self.field = field
        self.payload = payload

    def _check(self, other) -> None:
        f = self.field
        if not isinstance(other, FieldValue) or (other.field is not f and other.field != f):
            raise FieldMismatchError("field mismatch")

    def is_zero(self) -> bool:
        return self.payload == self.field._ring.zero

    def is_one(self) -> bool:
        return self.payload == self.field._ring.one

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __add__(self, other) -> "FieldValue":
        self._check(other)
        f = self.field
        return FieldValue(f, f._ring.add(self.payload, other.payload))

    def __neg__(self) -> "FieldValue":
        f = self.field
        return FieldValue(f, f._ring.neg(self.payload))

    def __sub__(self, other) -> "FieldValue":
        self._check(other)
        f = self.field
        return FieldValue(f, f._ring.add(self.payload, f._ring.neg(other.payload)))

    def __mul__(self, other) -> "FieldValue":
        self._check(other)
        f = self.field
        return FieldValue(f, f._ring.mul(self.payload, other.payload))

    def inverse(self) -> "FieldValue":
        if self.is_zero():
            raise ZeroDivisionError("division by zero")
        f = self.field
        return FieldValue(f, f._ring.inverse(self.payload))

    def __truediv__(self, other) -> "FieldValue":
        self._check(other)
        return self * other.inverse()

    def __pow__(self, e: int) -> "FieldValue":
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.inverse() ** (-e)
        if e == 1:
            return self
        f = self.field
        return FieldValue(f, f._ring.pow(self.payload, e))

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldValue):
            return NotImplemented
        return self.field == other.field and self.payload == other.payload

    def __hash__(self) -> int:
        return hash((self.field, self.payload))

    def coefficients(self) -> tuple:
        """Return a GF(p)(t) value as (num, den) coefficient tuples.

        Coefficients run low degree first, in canonical form (den monic,
        gcd(num, den) = 1, zero as ((), (1,))).  This is the inverse of
        :meth:`Field.from_coefficients`.
        """
        if self.field.kind is not FieldKind.RATIONAL_FUNCTIONS:
            raise ValueError(f"{self.field.label} values are not coefficient quotients")
        polys = self.field._ring.polys
        num, den = self.payload
        return tuple(polys.unpack(num)), tuple(polys.unpack(den))

    def __str__(self) -> str:
        if self.field.kind is not FieldKind.RATIONAL_FUNCTIONS:
            return str(self.payload)
        num, den = self.coefficients()
        num_s = _fp_str(num)
        if den == (1,):
            return num_s
        den_s = _fp_str(den)
        if "+" in num_s or "*" in num_s:
            num_s = f"({num_s})"
        if "+" in den_s or "*" in den_s:
            den_s = f"({den_s})"
        return f"{num_s}/{den_s}"

    def __repr__(self) -> str:
        return f"<{self} in {self.field.label}>"
