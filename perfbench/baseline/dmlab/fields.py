"""Exact arithmetic over the three supported coefficient fields.

A :class:`Field` is a lightweight descriptor for one of: the rationals,
a prime field GF(p) with p a prime below 2**31, or a rational function
field GF(p)(t) in one transcendental generator t.  A :class:`FieldValue`
pairs a descriptor with a canonical payload:

* rationals: a reduced ``fractions.Fraction`` (positive denominator),
* GF(p): an int residue in [0, p),
* GF(p)(t): a pair (num, den) of GF(p)[t] coefficient tuples stored
  low degree first, with den monic, gcd(num, den) = 1, and zero
  represented as ((), (1,)).

Canonical payloads make equality structural, so values hash and compare
bit-for-bit and can key dictionaries.  Mixing values from different
fields raises :class:`FieldMismatchError`; there is no implicit
coercion.  Arbitrary extension fields and scheme-theoretic points are
out of scope by design.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

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


def _is_prime(n: int) -> bool:
    # Deterministic Miller-Rabin; bases {2, 7, 61} decide primality for
    # every n < 4_759_123_141, comfortably past the 2**31 cap.
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13):
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 7, 61):
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# GF(p)[t] helpers.  Coefficient tuples, low degree first, no trailing zeros;
# the zero polynomial is ().

_ONE_POLY = (1,)


def _fp_trim(coeffs) -> tuple:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def _fp_add(a: tuple, b: tuple, p: int) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return _fp_trim(out)


def _fp_neg(a: tuple, p: int) -> tuple:
    return tuple((p - c) % p for c in a)


def _fp_sub(a: tuple, b: tuple, p: int) -> tuple:
    return _fp_add(a, _fp_neg(b, p), p)


def _fp_mul(a: tuple, b: tuple, p: int) -> tuple:
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
    return _fp_trim(out)


def _fp_divmod(a: tuple, b: tuple, p: int) -> tuple:
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
    return _fp_trim(quo), _fp_trim(rem)


def _fp_monic(a: tuple, p: int) -> tuple:
    if not a or a[-1] == 1:
        return a
    inv = pow(a[-1], p - 2, p)
    return tuple(c * inv % p for c in a)


def _fp_gcd(a: tuple, b: tuple, p: int) -> tuple:
    while b:
        a, b = b, _fp_divmod(a, b, p)[1]
    return _fp_monic(a, p)


def _fp_pow(a: tuple, e: int, p: int) -> tuple:
    out = _ONE_POLY
    base = a
    while e:
        if e & 1:
            out = _fp_mul(out, base, p)
        e >>= 1
        if e:
            base = _fp_mul(base, base, p)
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


def _rf_canonical(num: tuple, den: tuple, p: int) -> tuple:
    # Reduce a fraction of GF(p)[t] polynomials to coprime/monic form.
    if not den:
        raise ZeroDivisionError("division by zero")
    if not num:
        return ((), _ONE_POLY)
    if den != _ONE_POLY:
        g = _fp_gcd(num, den, p)
        if len(g) > 1:
            num = _fp_divmod(num, g, p)[0]
            den = _fp_divmod(den, g, p)[0]
        if den[-1] != 1:
            inv = pow(den[-1], p - 2, p)
            num = tuple(c * inv % p for c in num)
            den = tuple(c * inv % p for c in den)
    return (num, den)


@dataclass(frozen=True)
class Field:
    """Descriptor of a supported coefficient field."""

    kind: FieldKind
    characteristic: int

    @staticmethod
    def rationals() -> "Field":
        return Field(FieldKind.RATIONALS, 0)

    @staticmethod
    def prime(p: int) -> "Field":
        if not (2 <= p < _MAX_CHARACTERISTIC) or not _is_prime(p):
            raise ValueError(f"characteristic must be a prime below 2**31, got {p}")
        return Field(FieldKind.PRIME, p)

    @staticmethod
    def rational_functions(p: int) -> "Field":
        if not (2 <= p < _MAX_CHARACTERISTIC) or not _is_prime(p):
            raise ValueError(f"characteristic must be a prime below 2**31, got {p}")
        return Field(FieldKind.RATIONAL_FUNCTIONS, p)

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

    def zero(self) -> "FieldValue":
        return self.from_int(0)

    def one(self) -> "FieldValue":
        return self.from_int(1)

    def from_int(self, n: int) -> "FieldValue":
        if self.kind is FieldKind.RATIONALS:
            return FieldValue(self, Fraction(n))
        r = n % self.characteristic
        if self.kind is FieldKind.PRIME:
            return FieldValue(self, r)
        return FieldValue(self, ((r,) if r else (), _ONE_POLY))

    def from_fraction(self, q: Fraction) -> "FieldValue":
        if self.kind is not FieldKind.RATIONALS:
            raise ValueError(f"exact fractions only embed into QQ, not {self.label}")
        return FieldValue(self, Fraction(q))

    def t(self) -> "FieldValue":
        if self.kind is not FieldKind.RATIONAL_FUNCTIONS:
            raise ValueError(f"{self.label} has no transcendental generator")
        return FieldValue(self, ((0, 1), _ONE_POLY))

    def from_coefficients(self, num, den=(1,)) -> "FieldValue":
        """Build a GF(p)(t) value from raw coefficient sequences (low degree first)."""
        if self.kind is not FieldKind.RATIONAL_FUNCTIONS:
            raise ValueError(f"{self.label} values are not coefficient quotients")
        p = self.characteristic
        n = _fp_trim([c % p for c in num])
        d = _fp_trim([c % p for c in den])
        return FieldValue(self, _rf_canonical(n, d, p))

    def __str__(self) -> str:
        return self.label


class FieldValue:
    """Immutable element of a :class:`Field` with canonical payload."""

    __slots__ = ("field", "payload")

    def __init__(self, field: Field, payload):
        self.field = field
        self.payload = payload

    def _check(self, other) -> None:
        if not isinstance(other, FieldValue) or other.field != self.field:
            raise FieldMismatchError("field mismatch")

    def is_zero(self) -> bool:
        k = self.field.kind
        if k is FieldKind.RATIONAL_FUNCTIONS:
            return not self.payload[0]
        return not self.payload

    def is_one(self) -> bool:
        k = self.field.kind
        if k is FieldKind.RATIONAL_FUNCTIONS:
            return self.payload == (_ONE_POLY, _ONE_POLY)
        return self.payload == 1

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __add__(self, other) -> "FieldValue":
        self._check(other)
        k = self.field.kind
        if k is FieldKind.RATIONALS:
            return FieldValue(self.field, self.payload + other.payload)
        p = self.field.characteristic
        if k is FieldKind.PRIME:
            return FieldValue(self.field, (self.payload + other.payload) % p)
        n1, d1 = self.payload
        n2, d2 = other.payload
        if d1 == _ONE_POLY and d2 == _ONE_POLY:
            return FieldValue(self.field, (_fp_add(n1, n2, p), _ONE_POLY))
        num = _fp_add(_fp_mul(n1, d2, p), _fp_mul(n2, d1, p), p)
        return FieldValue(self.field, _rf_canonical(num, _fp_mul(d1, d2, p), p))

    def __neg__(self) -> "FieldValue":
        k = self.field.kind
        if k is FieldKind.RATIONALS:
            return FieldValue(self.field, -self.payload)
        p = self.field.characteristic
        if k is FieldKind.PRIME:
            return FieldValue(self.field, (p - self.payload) % p)
        num, den = self.payload
        return FieldValue(self.field, (_fp_neg(num, p), den))

    def __sub__(self, other) -> "FieldValue":
        return self + (-other)

    def __mul__(self, other) -> "FieldValue":
        self._check(other)
        k = self.field.kind
        if k is FieldKind.RATIONALS:
            return FieldValue(self.field, self.payload * other.payload)
        p = self.field.characteristic
        if k is FieldKind.PRIME:
            return FieldValue(self.field, self.payload * other.payload % p)
        n1, d1 = self.payload
        n2, d2 = other.payload
        if d1 == _ONE_POLY and d2 == _ONE_POLY:
            return FieldValue(self.field, (_fp_mul(n1, n2, p), _ONE_POLY))
        return FieldValue(
            self.field,
            _rf_canonical(_fp_mul(n1, n2, p), _fp_mul(d1, d2, p), p),
        )

    def inverse(self) -> "FieldValue":
        if self.is_zero():
            raise ZeroDivisionError("division by zero")
        k = self.field.kind
        if k is FieldKind.RATIONALS:
            return FieldValue(self.field, 1 / self.payload)
        p = self.field.characteristic
        if k is FieldKind.PRIME:
            return FieldValue(self.field, pow(self.payload, p - 2, p))
        num, den = self.payload
        return FieldValue(self.field, _rf_canonical(den, num, p))

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
        k = self.field.kind
        if k is FieldKind.RATIONALS:
            return FieldValue(self.field, self.payload**e)
        p = self.field.characteristic
        if k is FieldKind.PRIME:
            return FieldValue(self.field, pow(self.payload, e, p))
        num, den = self.payload
        if e == 0:
            return self.field.one()
        return FieldValue(self.field, (_fp_pow(num, e, p), _fp_pow(den, e, p)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldValue):
            return NotImplemented
        return self.field == other.field and self.payload == other.payload

    def __hash__(self) -> int:
        return hash((self.field, self.payload))

    def __str__(self) -> str:
        k = self.field.kind
        if k is FieldKind.RATIONALS:
            return str(self.payload)
        if k is FieldKind.PRIME:
            return str(self.payload)
        num, den = self.payload
        num_s = _fp_str(num)
        if den == _ONE_POLY:
            return num_s
        den_s = _fp_str(den)
        if "+" in num_s or "*" in num_s:
            num_s = f"({num_s})"
        if "+" in den_s or "*" in den_s:
            den_s = f"({den_s})"
        return f"{num_s}/{den_s}"

    def __repr__(self) -> str:
        return f"<{self} in {self.field.label}>"
