"""Ideal computations in the polynomial ring: reduced Groebner bases
via Buchberger's algorithm, normal forms, Krull dimension from the
leading-term staircase, and vanishing ideals of finite point sets via
the Buchberger-Moller evaluation method.  Under a degree-compatible
order that walk meets its candidate monomials in increasing total
degree, so it can stop at a degree cap: the result is the ideal
generated by the vanishing polynomials of degree at most the cap, and
no monomial above the cap is ever evaluated.

Every basis handed out is the reduced Groebner basis for its order:
monic generators, no term of one generator divisible by the leading
term of another, sorted by descending leading term.  Reduced bases are
unique per (ideal, order), so equality of ideals is equality of
generator lists and all outputs are deterministic, independent of
input generator order.

Both algorithms eliminate fraction-free, over the field's integral
domain (ZZ, GF(p)[t] or GF(p)) on the payload ring's domain methods,
and divide in the field only to make an output generator monic.
Buchberger keeps each basis element as a (leading monomial, primitive
domain terms) pair; normal forms reduce field payloads by the monic
generators of a basis, with the same step.  Field values enter only
as :class:`PointSet` coordinates.
"""

from __future__ import annotations

from functools import cached_property
from types import SimpleNamespace
from typing import NamedTuple

from .fields import Field, _require_int
from .multipoly import (
    GREVLEX,
    MonomialOrder,
    MultiPoly,
    _merge,
    _point_payloads,
    _require_order,
    _require_polys,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)

__all__ = [
    "PointSet",
    "ReducedGroebnerBasis",
    "buchberger",
    "ideal_dimension",
    "ideal_equal",
    "ideal_sum",
    "normal_form",
    "s_polynomial",
    "vanishing_ideal",
]


class _BasisFields(NamedTuple):
    order: MonomialOrder
    generators: tuple
    num_vars: int
    field: Field


class ReducedGroebnerBasis(_BasisFields):
    """Reduced Groebner basis; construct through :func:`buchberger` or
    :func:`vanishing_ideal`, not directly.  Like every record, it is a
    named tuple: ``len`` and iteration run over its four fields, so
    count and walk ``generators`` instead.  A basis never changes, so
    its generators' leading monomials are found on first use and kept
    beside the fields; they take no part in comparison or hashing."""

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @cached_property
    def _divisors(self) -> tuple:
        # (leading monomial, monic terms) pairs, as _remainder takes them.
        return tuple((g.leading_monomial(self.order), g.terms) for g in self.generators)

    @property
    def is_zero_ideal(self) -> bool:
        return not self.generators

    @property
    def is_unit_ideal(self) -> bool:
        return len(self.generators) == 1 and self.generators[0].is_constant()

    def leading_monomials(self) -> tuple:
        return tuple(lm for lm, _ in self._divisors)

    def render(self, names) -> tuple:
        return tuple(g.render(names, self.order) for g in self.generators)


# A remainder in progress has its content taken out after this many scalings.
_CONTENT_EVERY = 16


def s_polynomial(f: MultiPoly, g: MultiPoly, order: MonomialOrder) -> MultiPoly:
    """Cancel the leading terms of f and g against their lcm."""
    first, second = [(h.leading_monomial(order), h.monic(order).terms) for h in (f, g)]
    return MultiPoly(f.field, f.num_vars, _s_poly(f.field._ring, first, second))


def _s_poly(ring, first: tuple, second: tuple) -> dict:
    # b*x^sa*f - a*x^sb*g for (leading monomial, terms) pairs with leading
    # coefficients a and b: the shifted leading terms cancel, so only the
    # tails are shifted and merged.
    (la, f), (lb, g) = first, second
    lcm = mono_lcm(la, lb)
    sa, sb, b, mul = mono_div(lcm, la), mono_div(lcm, lb), g[lb], ring.mul
    work = {mono_mul(m, sa): c if b == ring.one else mul(b, c) for m, c in f.items() if m != la}
    factor = ring.neg(f[la])
    return _merge(ring, work, ((mono_mul(m, sb), mul(factor, c)) for m, c in g.items() if m != lb))


def _remainder(ring, terms: dict, divisors, key) -> dict:
    # Multivariate division, remainder only, on payload term maps, the
    # remainder's terms in descending order.  Divisors are (leading
    # monomial, terms) pairs.  A term c * x^shift * x^lm cancels by
    # f <- b*f - c*x^shift*g, b being g's leading coefficient, with the
    # remainder so far scaled by b too, so the result is a multiple of the
    # remainder over the field.  Monic divisors, the only ones on field
    # payloads, scale nothing; in the domain every _CONTENT_EVERY scalings
    # take the content out of both parts together.  Divisors are scanned in
    # list order; the remainder does not depend on it for a Groebner basis.
    if not divisors:
        return terms
    mul, neg, one = ring.mul, ring.neg, ring.one
    work = dict(terms)
    remainder: dict = {}
    scalings = 0
    while work:
        mono = max(work, key=key)
        coeff = work.pop(mono)
        for lm, g in divisors:
            if mono_divides(lm, mono):
                b = g[lm]
                if b != one:
                    work = {m: mul(b, v) for m, v in work.items()}
                    remainder = {m: mul(b, v) for m, v in remainder.items()}
                    scalings += 1
                shift, factor = mono_div(mono, lm), neg(coeff)
                tail = ((mono_mul(m, shift), mul(factor, v)) for m, v in g.items() if m != lm)
                _merge(ring, work, tail)
                if scalings == _CONTENT_EVERY:
                    scalings, split = 0, len(remainder)
                    values = ring.primitive(list(remainder.values()) + list(work.values()))
                    remainder = dict(zip(remainder, values[:split]))
                    work = dict(zip(work, values[split:]))
                break
        else:
            remainder[mono] = coeff
    return remainder


def normal_form(f: MultiPoly, basis: ReducedGroebnerBasis) -> MultiPoly:
    """Canonical representative of f modulo the ideal.

    Zero exactly when f lies in the ideal; idempotent; linear over the
    coefficient field.
    """
    _require_polys((f,), "f", basis.field, basis.num_vars)
    terms = _remainder(f.field._ring, f.terms, basis._divisors, basis.order.key)
    return MultiPoly(f.field, f.num_vars, terms)


def buchberger(generators, order: MonomialOrder) -> ReducedGroebnerBasis:
    """Reduced Groebner basis of the ideal the generators span.

    Classic Buchberger loop with the normal selection strategy (the
    pending pair with the order-smallest lcm goes first) and both
    classical skip criteria: coprime leading terms, and the chain
    criterion against pairs already handled.  It runs fraction-free:
    each input is cleared of denominators and divided by its content,
    an S-polynomial of f and g with leading coefficients a and b is
    b*m_f*f - a*m_g*g, and a reduction step scales by the divisor's
    leading coefficient instead of dividing by it.  The final basis is
    minimalized and interreduced, then each generator is made monic
    once, the only division, leaving the unique reduced basis.
    """
    generators = _require_polys(generators, "generators")
    if not generators:
        raise ValueError("cannot infer the ring from an empty generator list")
    field, num_vars = generators[0].field, generators[0].num_vars
    _require_order(order, num_vars)
    ring, key = field._ring, order.key
    # The field's integral domain as a payload ring for _merge and the
    # kernel: the ring's domain methods, each bound through the ring.
    domain = SimpleNamespace(
        add=ring.dadd, neg=ring.dneg, mul=ring.dmul, primitive=ring.primitive, zero=0, one=1
    )
    # Basis elements: (leading monomial, terms cleared of denominators and content).
    basis = []
    for g in generators:
        if g.terms:
            values = domain.primitive(ring.clear(list(g.terms.values()))[0])
            basis.append((g.leading_monomial(order), dict(zip(g.terms, values))))
    if not basis:
        return ReducedGroebnerBasis(order, (), num_vars, field)

    # pending keys each pair once, by its lcm's order key and then the
    # pair, sorted descending so pop() takes the least (the lcm rides
    # along; pairs are distinct, so it is never compared); pairs holds the
    # same pending pairs for the chain criterion's lookups.
    pairs: set = set()
    pending: list = []

    def add_pairs(j):
        lj = basis[j][0]
        for i in range(j):
            lcm = mono_lcm(basis[i][0], lj)
            pairs.add((i, j))
            pending.append((key(lcm), (i, j), lcm))
        pending.sort(reverse=True)

    for j in range(1, len(basis)):
        add_pairs(j)
    while pending:
        _, (i, j), lcm = pending.pop()
        pairs.discard((i, j))
        li, lj = basis[i][0], basis[j][0]
        if all(a == 0 or b == 0 for a, b in zip(li, lj)):
            continue
        if any(
            k != i and k != j and mono_divides(lk, lcm)
            and (min(i, k), max(i, k)) not in pairs and (min(j, k), max(j, k)) not in pairs
            for k, (lk, _) in enumerate(basis)
        ):
            continue
        rem = _remainder(domain, _s_poly(domain, basis[i], basis[j]), basis, key)
        if rem:
            basis.append((next(iter(rem)), dict(zip(rem, domain.primitive(list(rem.values()))))))
            add_pairs(len(basis) - 1)

    # Minimalize: drop any generator whose leading monomial another kept
    # generator's divides, scanning small to large so the smallest
    # representative of each staircase corner survives.
    basis.sort(key=lambda pair: key(pair[0]))
    kept: list = []
    for lm, g in basis:
        if not any(mono_divides(l, lm) for l, _ in kept):
            kept.append((lm, g))
    # Interreduce: each survivor reduced by the others keeps its leading
    # term (no other leading monomial divides it) and loses every
    # reducible tail term; over its leading coefficient it is monic.  A
    # constant survivor is the only one (its monomial divides every other),
    # which leaves the unit ideal's basis.
    reduced = []
    for i, (lm, g) in enumerate(kept):
        terms = _remainder(domain, g, kept[:i] + kept[i + 1 :], key)
        lc, quotient = terms[lm], ring.quotient
        reduced.append(MultiPoly(field, num_vars, {m: quotient(c, lc) for m, c in terms.items()}))
    return ReducedGroebnerBasis(order, tuple(reversed(reduced)), num_vars, field)


def _check_same_ring(a: ReducedGroebnerBasis, b: ReducedGroebnerBasis) -> None:
    if a.order != b.order:
        raise ValueError("monomial order mismatch")
    if a.field != b.field or a.num_vars != b.num_vars:
        raise ValueError("bases do not share a ring")


def ideal_equal(a: ReducedGroebnerBasis, b: ReducedGroebnerBasis) -> bool:
    """Whether two bases present the same ideal (orders must match)."""
    _check_same_ring(a, b)
    return a.generators == b.generators


def ideal_sum(a: ReducedGroebnerBasis, b: ReducedGroebnerBasis) -> ReducedGroebnerBasis:
    """Reduced basis of the ideal generated by both inputs together."""
    _check_same_ring(a, b)
    if a.is_zero_ideal:
        return b
    if b.is_zero_ideal:
        return a
    return buchberger(a.generators + b.generators, a.order)


def ideal_dimension(basis: ReducedGroebnerBasis) -> int:
    """Krull dimension of the quotient ring, from the staircase.

    The dimension is the size of the largest variable subset U such
    that no leading monomial's support lies inside U.  The unit ideal
    reports -1, the zero ideal the full variable count.  Exponential in
    the variable count, which stays small here by design.
    """
    if basis.is_unit_ideal:
        return -1
    n = basis.num_vars
    supports = []
    for lm in basis.leading_monomials():
        supports.append(sum(1 << i for i, e in enumerate(lm) if e))
    best = 0
    for mask in range(1 << n):
        size = mask.bit_count()
        if size <= best:
            continue
        if all(supp & ~mask for supp in supports):
            best = size
    return best


class PointSet(NamedTuple):
    """Finite list of rational points in affine space, deduplicated, in
    ``points``; ``len`` of the record itself counts its three fields."""

    points: tuple
    num_vars: int
    field: Field

    @classmethod
    def of(cls, points) -> "PointSet":
        pts = [tuple(p) for p in points]
        if not pts:
            raise ValueError("empty point set")
        num_vars = len(pts[0])
        if not num_vars:
            raise ValueError("points need at least one coordinate")
        field = getattr(pts[0][0], "field", None)
        for p in pts:
            _point_payloads(field, p, num_vars, "the first point")
        unique = tuple(dict.fromkeys(pts))
        return cls(unique, num_vars, field)


def vanishing_ideal(
    points, order: MonomialOrder, max_degree: int | None = None
) -> ReducedGroebnerBasis:
    """Reduced basis of all polynomials vanishing on the given points.

    Buchberger-Moller, fraction-free: walk candidate monomials in
    increasing order and keep augmented rows in echelon form over the
    field's integral domain (ZZ, GF(p)[t] or GF(p)).  A row holds a
    monomial's values at the points, its coefficients on the standard
    monomials before it, then its own coefficient.  Each coordinate is
    cleared once to numerators over a denominator d_i, and every
    candidate after ``1`` is ``x_i * m`` for an evaluated standard
    monomial ``m``: its values are ``m``'s unreduced ones times x_i's
    numerators, one product per point, and its own coefficient is
    ``m``'s times d_i.  A row with pivot r reduces v to r*v - c*row, c
    being v at the pivot, and each step divides out the content.  A
    candidate reduced to zero values is a generator: its coefficients
    over its own, the only field division, make it monic with the
    candidate as leading term and a tail on standard monomials, so the
    output is reduced.  There are as many standard monomials as points.

    With ``max_degree`` (grevlex only) the result is instead the
    reduced basis of the ideal generated by every polynomial of total
    degree at most ``max_degree`` that vanishes on the points.  Grevlex
    pops every candidate of degree d before any of degree d + 1, and
    each generator's leading monomial is its highest-degree term, so
    the generators emitted before the walk first meets a candidate
    above the cap that no found leading monomial divides are exactly
    the full basis's generators of degree at most the cap.  The walk
    stops there and re-reduces them with :func:`buchberger` (none at
    all give the zero ideal); when it never gets that far, the emitted
    basis is the full one.
    """
    if not isinstance(points, PointSet):
        points = PointSet.of(points)
    _require_order(order, points.num_vars)
    if max_degree is not None:
        if order.kind != GREVLEX:
            raise ValueError("a degree cap needs a grevlex order")
        _require_int(max_degree, "degree cap", 0)
    field = points.field
    ring = field._ring
    n = points.num_vars
    pts = points.points
    npts = len(pts)
    mul = ring.dmul
    cols = [ring.clear([pt[i].payload for pt in pts]) for i in range(n)]

    # (pivot index, augmented row, standard monomial); each row is zero at
    # every earlier row's pivot, so one pass in insertion order reduces a
    # new vector to zero exactly when it is dependent.
    rows: list = []
    gens: list = []
    gen_leads: list = []
    # candidate -> (unreduced values and own coefficient of the standard
    # monomial it extends, cleared column of the variable it multiplies by),
    # first parent wins.  pending pairs each candidate with its order key,
    # computed once, sorted descending so pop() takes the least; a candidate
    # is above its parent, so none is met twice.
    key = order.key
    start = (0,) * n
    todo: dict = {start: None}
    pending = [(key(start), start)]

    while pending:
        mono = pending.pop()[1]
        parent = todo.pop(mono)
        if any(mono_divides(lm, mono) for lm in gen_leads):
            continue
        if max_degree is not None and sum(mono) > max_degree:
            # Every later candidate has at least this degree, so the
            # generators above the cap stay unfound; re-reduce the rest.
            if not gens:
                return ReducedGroebnerBasis(order, (), n, field)
            return buchberger(gens, order)
        if parent is None:
            raw, den = [1] * npts, 1
        else:
            parent_raw, parent_den, (col, d) = parent
            raw = [mul(u, a) for u, a in zip(parent_raw, col)]
            den = parent_den if d == 1 else mul(parent_den, d)
        vec = raw + [0] * len(rows) + [den]
        for pivot, row, _ in rows:
            c = vec[pivot]
            if c:
                vec = ring.primitive(ring.combine(row[pivot], vec, c, row))
        pivot = next((k for k in range(npts) if vec[k]), None)
        if pivot is None:
            terms = {mono: ring.one}
            for (_, _, m), c in zip(rows, vec[npts:]):
                if c:
                    terms[m] = ring.quotient(c, vec[-1])
            gens.append(MultiPoly(field, n, terms))
            gen_leads.append(mono)
        else:
            rows.append((pivot, vec, mono))
            for i in range(n):
                step = tuple(e + (1 if k == i else 0) for k, e in enumerate(mono))
                if step not in todo:
                    todo[step] = (raw, den, cols[i])
                    pending.append((key(step), step))
            pending.sort(reverse=True)  # one sorted run and n pairs: near linear

    # Candidates pop in increasing order, so the generators came out sorted
    # by ascending leading monomial.
    return ReducedGroebnerBasis(order, tuple(reversed(gens)), n, field)
