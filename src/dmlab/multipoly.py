"""Sparse multivariate polynomials over the exact coefficient fields.

A monomial is a tuple of non-negative integer exponents, one slot per
variable.  A :class:`MultiPoly` maps monomials to the canonical payloads
(see :mod:`dmlab.fields`) of nonzero coefficients; the zero polynomial
has an empty term map.  Arithmetic runs on those payloads through the
field's ring, after one field check per operation.  Coefficients are
:class:`~dmlab.fields.FieldValue` only at the boundary: the
constructors take them, and ``leading_term``, ``constant_value``,
``evaluate`` and rendering hand them out, while ``leading_monomial``
and ``monic`` build none.  Polynomials do not
carry variable names, only a variable count; rendering takes the names.

:class:`MonomialOrder` supplies the comparison key for lexicographic
and graded reverse lexicographic orders, both with an explicit variable
priority (a permutation of the variable indices, highest first).
"""

from __future__ import annotations

from operator import itemgetter, neg

from .fields import Field, FieldMismatchError, FieldValue, _power, _require_int

__all__ = [
    "MonomialOrder",
    "MultiPoly",
    "mono_div",
    "mono_divides",
    "mono_lcm",
    "mono_mul",
]

LEX = "lex"
GREVLEX = "grevlex"


def mono_mul(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mono_div(a: tuple, b: tuple) -> tuple:
    # a / b; caller guarantees divisibility
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(map(max, a, b))


def _point_payloads(field: Field, point, num_vars: int, dimension: str) -> tuple:
    """Payload tuple of a point: ``num_vars`` field values of ``field``."""
    point = tuple(point)
    if len(point) != num_vars:
        raise ValueError(f"point length does not match {dimension}")
    return tuple([_payload(v, field) for v in point])


def _payload(value, field: Field):
    """Payload of ``value``, checked to be a FieldValue of ``field``: every coefficient's check."""
    if not isinstance(value, FieldValue) or (value.field is not field and value.field != field):
        raise FieldMismatchError("field mismatch")
    return value.payload


def _require_order(order, num_vars: int) -> "MonomialOrder":
    """``order``, checked to be a MonomialOrder on ``num_vars`` variables: every order's check."""
    if not isinstance(order, MonomialOrder):
        raise TypeError(f"order must be MonomialOrder, got {type(order).__name__}")
    if len(order.priority) != num_vars:
        raise ValueError(f"order must be on {num_vars} variables")
    return order


def _require_polys(polys, name: str, field=None, num_vars=None) -> tuple:
    """The polynomials as a tuple, each checked to be a :class:`MultiPoly`
    over ``field`` in ``num_vars`` variables; either, when None, is the
    first polynomial's.  The one check of every polynomial argument."""
    polys = tuple(polys)
    for f in polys:
        if not isinstance(f, MultiPoly):
            raise TypeError(f"{name} must be MultiPoly, got {type(f).__name__}")
        field = f.field if field is None else field
        num_vars = f.num_vars if num_vars is None else num_vars
        if f.field is not field and f.field != field:
            raise FieldMismatchError("field mismatch")
        if f.num_vars != num_vars:
            raise ValueError(f"{name} must be polynomials in {num_vars} variables")
    return polys


def _merge(ring, out: dict, items) -> dict:
    """Add (monomial, nonzero payload) pairs into the term map ``out``.

    Ring results are canonical, so a sum equal to ``ring.zero`` is zero
    and its monomial is dropped.
    """
    add, zero = ring.add, ring.zero
    for mono, c in items:
        cur = out.get(mono)
        if cur is None:
            out[mono] = c
        else:
            c = add(cur, c)
            if c == zero:
                del out[mono]
            else:
                out[mono] = c
    return out


class MonomialOrder:
    """Total order on monomials, given by kind and variable priority.

    ``priority`` lists variable indices from most to least significant.
    ``key`` maps a monomial to a sortable tuple; bigger key means bigger
    monomial, so ``max(terms, key=order.key)`` picks the leading term.
    Orders compare and hash by ``kind`` and ``priority``.
    """

    __slots__ = ("kind", "priority", "key")

    def __init__(self, kind: str, priority):
        if kind not in (LEX, GREVLEX):
            raise ValueError(f"unknown order kind {kind!r}")
        priority = tuple([_require_int(i, "priority entry", 0) for i in priority])
        if not priority:
            raise ValueError("monomial orders need at least one variable")
        if sorted(priority) != list(range(len(priority))):
            raise ValueError("priority must be a permutation of the variable indices")
        self.kind = kind
        self.priority = priority
        # Exponents in key order; with one variable itemgetter returns a scalar.
        picked = priority if kind == LEX else priority[::-1]
        pick = itemgetter(*picked) if len(picked) > 1 else tuple
        # grevlex: total degree, then the exponents from the least significant
        # variable up, negated (the smaller exponent there wins ties).
        self.key = pick if kind == LEX else lambda mono: (sum(mono), tuple(map(neg, pick(mono))))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.priority) == (other.kind, other.priority)

    def __hash__(self):
        return hash((self.kind, self.priority))

    def __repr__(self):
        return f"MonomialOrder(kind={self.kind!r}, priority={self.priority!r})"

    def __reduce__(self):  # the grevlex key is a closure; pickle rebuilds it
        return MonomialOrder, (self.kind, self.priority)

    @classmethod
    def lex(cls, num_vars: int, priority=None) -> "MonomialOrder":
        _require_int(num_vars, "variable count", 0)
        priority = range(num_vars) if priority is None else priority
        return _require_order(cls(LEX, priority), num_vars)

    @classmethod
    def grevlex(cls, num_vars: int, priority=None) -> "MonomialOrder":
        _require_int(num_vars, "variable count", 0)
        priority = range(num_vars) if priority is None else priority
        return _require_order(cls(GREVLEX, priority), num_vars)

    @property
    def num_vars(self) -> int:
        return len(self.priority)


class MultiPoly:
    """Sparse polynomial: dict from exponent tuple to the canonical payload
    of a nonzero coefficient in ``field._ring``.

    ``terms`` is never changed after construction: the hash depends on
    it, and :meth:`evaluate` builds a plan of the terms on first use and
    keeps it.
    """

    __slots__ = ("field", "num_vars", "terms", "_plan")

    def __init__(self, field: Field, num_vars: int, terms: dict):
        if num_vars < 1:
            raise ValueError("polynomials need at least one variable")
        self.field = field
        self.num_vars = num_vars
        self.terms = terms
        self._plan = None

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, field: Field, num_vars: int) -> "MultiPoly":
        return cls(field, _require_int(num_vars, "variable count", 0), {})

    @classmethod
    def constant(cls, field: Field, num_vars: int, value: FieldValue) -> "MultiPoly":
        c, mono = _payload(value, field), (0,) * _require_int(num_vars, "variable count", 0)
        return cls(field, num_vars, {} if c == field._ring.zero else {mono: c})

    @classmethod
    def from_int(cls, field: Field, num_vars: int, n: int) -> "MultiPoly":
        return cls.constant(field, num_vars, field.from_int(n))

    @classmethod
    def variable(cls, field: Field, num_vars: int, index: int) -> "MultiPoly":
        _require_int(num_vars, "variable count", 0)
        if _require_int(index, "variable index", 0) >= num_vars:
            raise ValueError(f"variable index {index} out of range")
        mono = tuple(1 if i == index else 0 for i in range(num_vars))
        return cls(field, num_vars, {mono: field._ring.one})

    @classmethod
    def from_terms(cls, field: Field, num_vars: int, items) -> "MultiPoly":
        """Build from (monomial, coefficient) pairs, merging duplicates."""
        _require_int(num_vars, "variable count", 0)

        def payloads():
            for mono, coeff in items:
                mono = tuple([_require_int(e, "exponent", 0) for e in mono])
                if len(mono) != num_vars:
                    raise ValueError("monomial length does not match variable count")
                if (c := _payload(coeff, field)) != field._ring.zero:
                    yield mono, c

        return cls(field, num_vars, _merge(field._ring, {}, payloads()))

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or self.terms.keys() == {(0,) * self.num_vars}

    def constant_value(self) -> FieldValue:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        f = self.field
        return FieldValue(f, self.terms.get((0,) * self.num_vars, f._ring.zero))

    def total_degree(self) -> int:
        """Maximum term degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    # -- arithmetic ----------------------------------------------------

    def _check(self, other) -> None:
        _require_polys((other,), "operands", self.field, self.num_vars)

    def __add__(self, other) -> "MultiPoly":
        self._check(other)
        out = _merge(self.field._ring, dict(self.terms), other.terms.items())
        return MultiPoly(self.field, self.num_vars, out)

    def __neg__(self) -> "MultiPoly":
        neg = self.field._ring.neg
        return MultiPoly(
            self.field, self.num_vars, {m: neg(c) for m, c in self.terms.items()}
        )

    def __sub__(self, other) -> "MultiPoly":
        self._check(other)
        return self + -other

    def __mul__(self, other) -> "MultiPoly":
        self._check(other)
        mul = self.field._ring.mul
        products = (
            (mono_mul(m1, m2), mul(c1, c2))
            for m1, c1 in self.terms.items()
            for m2, c2 in other.terms.items()
        )
        return MultiPoly(self.field, self.num_vars, _merge(self.field._ring, {}, products))

    def __pow__(self, e: int) -> "MultiPoly":
        _require_int(e, "exponent", 0)
        return _power(MultiPoly.__mul__, MultiPoly.from_int(self.field, self.num_vars, 1), self, e)

    # -- structure -----------------------------------------------------

    def leading_monomial(self, order: MonomialOrder) -> tuple:
        """Largest monomial under ``order``; error on zero."""
        _require_order(order, self.num_vars)
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        return max(self.terms, key=order.key)

    def leading_term(self, order: MonomialOrder):
        """(monomial, coefficient) of the largest term; error on zero."""
        mono = self.leading_monomial(order)
        return mono, FieldValue(self.field, self.terms[mono])

    def monic(self, order: MonomialOrder) -> "MultiPoly":
        """This polynomial over its leading coefficient; error on zero."""
        ring = self.field._ring
        lc = self.terms[self.leading_monomial(order)]
        if lc == ring.one:
            return self
        inv, mul = ring.inverse(lc), ring.mul
        return MultiPoly(self.field, self.num_vars, {m: mul(c, inv) for m, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (
            self.field == other.field
            and self.num_vars == other.num_vars
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.field, self.num_vars, frozenset(self.terms.items())))

    # -- evaluation and substitution ------------------------------------

    def evaluate(self, point) -> FieldValue:
        """Value at a point, given as a sequence of field elements: one
        check of the point, one :meth:`_value` sum on its payloads."""
        pt = _point_payloads(self.field, point, self.num_vars, "variable count")
        return FieldValue(self.field, self._value(pt, {}))

    def _value(self, pt: tuple, powers: dict):
        """Payload of the value at the payload tuple ``pt``, unchecked.

        This interpreted evaluator serves :meth:`evaluate` and short
        orbit loops; long ones run a :func:`_kernel`, which makes the
        same ring calls, or on polynomial GF(p)(t) data the same calls
        on ``ring.polys`` with each (num, 1) operand replaced by num.
        ``powers`` caches (variable, exponent) ->
        payload for exponents above one; polynomials evaluated at one
        point may share it.  The sum starts at the first term's value,
        not at the ring's zero, so a one-term polynomial costs no
        addition (over GF(p)(t) that saves a fold of an already reduced
        bignum); only the zero polynomial evaluates to zero without a
        term.  Each term is planned once per polynomial as its payload
        (None for one) and its (variable, exponent) pairs with exponent
        above zero.
        """
        ring = self.field._ring
        plan = self._plan
        if plan is None:
            plan = self._plan = tuple(
                (
                    None if c == ring.one else c,
                    tuple((i, e) for i, e in enumerate(mono) if e),
                )
                for mono, c in self.terms.items()
            )
        add, mul = ring.add, ring.mul
        total = None
        for coeff, factors in plan:
            v = coeff
            for key in factors:
                i, e = key
                pw = pt[i] if e == 1 else powers.get(key)
                if pw is None:
                    pw = powers[key] = ring.pow(pt[i], e)
                v = pw if v is None else mul(v, pw)
            if v is None:
                v = ring.one
            total = v if total is None else add(total, v)
        return ring.zero if total is None else total

    def substitute(self, images) -> "MultiPoly":
        """Compose with a variable-to-polynomial map in one pass.

        ``images[i]`` replaces variable i.  All images must share a
        field and variable count, which become those of the result.
        """
        images = tuple(images)
        if len(images) != self.num_vars:
            raise ValueError("image count does not match variable count")
        _require_polys(images, "images", self.field)
        out_vars = images[0].num_vars
        ring = self.field._ring
        one = MultiPoly.from_int(self.field, out_vars, 1)
        caches = [dict() for _ in range(self.num_vars)]

        def products():
            for mono, coeff in self.terms.items():
                term = one
                for i, e in enumerate(mono):
                    if e:
                        pw = caches[i].get(e)
                        if pw is None:
                            pw = caches[i][e] = images[i] ** e
                        term = pw if term is one else term * pw
                for m, c in term.terms.items():
                    yield m, ring.mul(coeff, c)

        return MultiPoly(self.field, out_vars, _merge(ring, {}, products()))

    # -- rendering -------------------------------------------------------

    def render(self, names, order: MonomialOrder | None = None) -> str:
        """Canonical text: terms sorted descending, explicit * and ^."""
        names = tuple(names)
        if len(names) != self.num_vars:
            raise ValueError("name count does not match variable count")
        order = MonomialOrder.grevlex(self.num_vars) if order is None else order
        _require_order(order, self.num_vars)
        if not self.terms:
            return "0"
        monos = sorted(self.terms, key=order.key, reverse=True)
        first, *rest = [self._term_str(mono, self.terms[mono], names) for mono in monos]
        # Only a QQ coefficient prints a leading "-"; past the first term it becomes " - ".
        return first + "".join(f" - {s[1:]}" if s[0] == "-" else f" + {s}" for s in rest)

    def _term_str(self, mono: tuple, payload, names) -> str:
        factors = []
        for i, e in enumerate(mono):
            if e == 1:
                factors.append(names[i])
            elif e:
                factors.append(f"{names[i]}^{e}")
        mono_s = "*".join(factors)
        coeff_s = str(FieldValue(self.field, payload))
        if not mono_s:
            return coeff_s
        if coeff_s in ("1", "-1"):
            return coeff_s[:-1] + mono_s  # "x" or "-x"
        if self.field.has_generator and any(ch in coeff_s for ch in "+*/"):
            coeff_s = f"({coeff_s})"
        return f"{coeff_s}*{mono_s}"

    def __repr__(self) -> str:
        names = tuple(f"x{i}" for i in range(self.num_vars))
        return f"<{self.render(names)} over {self.field.label}>"


def _kernel(polys, zero_test: bool = False, packed: bool = True):
    """One compiled function of a payload tuple that evaluates ``polys``.

    The function runs as flat statements, one per power, product and
    sum, and makes the ring calls of :meth:`MultiPoly._value` with one
    powers dict shared across the tuple, in the same order: a
    (variable, exponent > 1) power is computed at its first use, a sum
    starts at its first term, and a factorless term with coefficient
    one is ``one``.  It returns the tuple of values, or with
    ``zero_test`` whether every value is zero, answering False at the
    first nonzero one as ``all`` does.  Building one costs 40-130 us,
    as much as 30-140 interpreted evaluations, so the orbit cache
    compiles only long loops.

    Over GF(p)(t), when every coefficient has denominator 1, the
    function steps on the packed numerators instead: a polynomial map
    with polynomial coefficients sends GF(p)[t]^n into itself, so at a
    point whose denominators are all 1 it makes the same calls on
    ``ring.polys``, with each (num, 1) operand replaced by num, and
    wraps each value back as (num, 1).  A point with another
    denominator goes to the pair kernel, built at the first such point;
    ``packed=False`` builds that kernel directly.

    The source names variables, powers and coefficients by integer
    index and writes exponents as int literals; coefficients and the
    ring's methods, read when the kernel is built, are bound in the
    namespace, so no payload or user text enters the source.
    """
    polys = tuple(polys)
    env = {}
    lines = ["def kernel(pt):"]
    if polys:
        field, num_vars = polys[0].field, polys[0].num_vars
        ring = field._ring
        packed = packed and field.has_generator and all(
            c[1] == 1 for f in polys for c in f.terms.values()
        )
        if packed:
            ops, one, zero = ring.polys, 1, 0

            def pairs(pt):
                kernel = env["pairs"] = _kernel(polys, zero_test, False)
                return kernel(pt)

            env["pairs"] = pairs
            lines.append("    " + "".join(f"(x{i}, d{i}), " for i in range(num_vars)) + "= pt")
            lines.append("    if " + " or ".join(f"d{i} != 1" for i in range(num_vars)) + ":")
            lines.append("        return pairs(pt)")
        else:
            ops, one, zero = ring, ring.one, ring.zero
            lines.append("    " + "".join(f"x{i}, " for i in range(num_vars)) + "= pt")
        env.update(add=ops.add, mul=ops.mul, pow=ops.pow, one=one, zero=zero)
    powers = set()
    for k, poly in enumerate(polys):
        total = f"s{k}"
        if not poly.terms:
            lines.append(f"    {total} = zero")
        for n, (mono, c) in enumerate(poly.terms.items()):
            if packed:
                c = c[0]
            v = None
            if c != one:
                v = f"c{len(env)}"
                env[v] = c
            for i, e in enumerate(mono):
                if not e:
                    continue
                pw = f"x{i}" if e == 1 else f"p{i}_{e}"
                if e > 1 and pw not in powers:
                    powers.add(pw)
                    lines.append(f"    {pw} = pow(x{i}, {e})")
                if v is not None:
                    lines.append(f"    t = mul({v}, {pw})")
                    pw = "t"
                v = pw
            v = v or "one"
            lines.append(f"    {total} = {v}" if n == 0 else f"    {total} = add({total}, {v})")
        if zero_test:
            lines.append(f"    if {total} != zero: return False")
    if zero_test:
        lines.append("    return True")
    else:
        value = "(s{}, 1), " if packed else "s{}, "
        lines.append("    return (" + "".join(value.format(k) for k in range(len(polys))) + ")")
    exec("\n".join(lines), env)
    return env["kernel"]
