"""Ideal computations in the polynomial ring: reduced Groebner bases
via Buchberger's algorithm, normal forms, Krull dimension from the
leading-term staircase, and vanishing ideals of finite point sets via
the Buchberger-Moller evaluation method.

Every basis handed out is the reduced Groebner basis for its order:
monic generators, no term of one generator divisible by the leading
term of another, sorted by descending leading term.  Reduced bases are
unique per (ideal, order), so equality of ideals is equality of
generator lists and all outputs are deterministic, independent of
input generator order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import Field, FieldValue
from .multipoly import (
    MonomialOrder,
    MultiPoly,
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


@dataclass(frozen=True)
class ReducedGroebnerBasis:
    """Reduced Groebner basis; construct through :func:`buchberger` or
    :func:`vanishing_ideal`, not directly."""

    order: MonomialOrder
    generators: tuple
    num_vars: int
    field: Field

    @property
    def is_zero_ideal(self) -> bool:
        return not self.generators

    @property
    def is_unit_ideal(self) -> bool:
        return len(self.generators) == 1 and self.generators[0].is_constant()

    def leading_monomials(self) -> tuple:
        return tuple(g.leading_term(self.order)[0] for g in self.generators)

    def render(self, names) -> tuple:
        return tuple(g.render(names, self.order) for g in self.generators)

    def __len__(self) -> int:
        return len(self.generators)

    def __iter__(self):
        return iter(self.generators)


def s_polynomial(f: MultiPoly, g: MultiPoly, order: MonomialOrder) -> MultiPoly:
    """Cancel the leading terms of f and g against their lcm."""
    mf, cf = f.leading_term(order)
    mg, cg = g.leading_term(order)
    lcm = mono_lcm(mf, mg)
    left = f.term_mul(mono_div(lcm, mf), cf.inverse())
    right = g.term_mul(mono_div(lcm, mg), cg.inverse())
    return left - right


def _remainder(f: MultiPoly, divisors, order: MonomialOrder) -> MultiPoly:
    # Multivariate division, remainder only.  Divisors are scanned in
    # list order; the remainder is independent of that order once the
    # divisors form a Groebner basis.
    if not divisors:
        return f
    key = order.key
    lead = [g.leading_term(order) + (g,) for g in divisors]
    work = dict(f.terms)
    remainder: dict = {}
    while work:
        mono = max(work, key=key)
        coeff = work.pop(mono)
        for lm, lc, g in lead:
            if mono_divides(lm, mono):
                shift = mono_div(mono, lm)
                factor = coeff * lc.inverse()
                for gm, gc in g.terms.items():
                    if gm == lm:
                        continue
                    mm = mono_mul(gm, shift)
                    cur = work.get(mm)
                    s = -(factor * gc) if cur is None else cur - factor * gc
                    if s.is_zero():
                        work.pop(mm, None)
                    else:
                        work[mm] = s
                break
        else:
            remainder[mono] = coeff
    return MultiPoly(f.field, f.num_vars, remainder)


def normal_form(f: MultiPoly, basis: ReducedGroebnerBasis) -> MultiPoly:
    """Canonical representative of f modulo the ideal.

    Zero exactly when f lies in the ideal; idempotent; linear over the
    coefficient field.
    """
    if f.num_vars != basis.num_vars or f.field != basis.field:
        raise ValueError("polynomial does not live in the basis ring")
    return _remainder(f, basis.generators, basis.order)


def buchberger(generators, order: MonomialOrder) -> ReducedGroebnerBasis:
    """Reduced Groebner basis of the ideal the generators span.

    Classic Buchberger loop with the normal selection strategy (the
    pending pair with the order-smallest lcm goes first) and both
    classical skip criteria: coprime leading terms, and the chain
    criterion against pairs already handled.  The final basis is
    minimalized and interreduced, leaving the unique reduced basis.
    """
    field = None
    num_vars = 0
    basis: list = []
    for g in generators:
        if not isinstance(g, MultiPoly):
            raise TypeError("generators must be MultiPoly")
        if field is None:
            field = g.field
            num_vars = g.num_vars
        if g.field != field or g.num_vars != num_vars:
            raise ValueError("generators must share a ring")
        if not g.is_zero():
            basis.append(g.monic(order))
    if field is None:
        raise ValueError("cannot infer the ring from an empty generator list")
    if order.num_vars != num_vars:
        raise ValueError("order does not match the variable count")
    if not basis:
        return ReducedGroebnerBasis(order, (), num_vars, field)

    lead = [g.leading_term(order)[0] for g in basis]
    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}

    def lcm_key(pair):
        i, j = pair
        return (order.key(mono_lcm(lead[i], lead[j])), pair)

    while pairs:
        i, j = min(pairs, key=lcm_key)
        pairs.discard((i, j))
        lcm = mono_lcm(lead[i], lead[j])
        if all(a == 0 or b == 0 for a, b in zip(lead[i], lead[j])):
            continue
        chained = False
        for k in range(len(basis)):
            if k == i or k == j:
                continue
            if not mono_divides(lead[k], lcm):
                continue
            a, b = min(i, k), max(i, k)
            c, d = min(j, k), max(j, k)
            if (a, b) not in pairs and (c, d) not in pairs:
                chained = True
                break
        if chained:
            continue
        rem = _remainder(s_polynomial(basis[i], basis[j], order), basis, order)
        if rem.is_zero():
            continue
        rem = rem.monic(order)
        idx = len(basis)
        basis.append(rem)
        lead.append(rem.leading_term(order)[0])
        pairs.update((k, idx) for k in range(idx))

    return _reduce_basis(basis, order, num_vars, field)


def _reduce_basis(basis, order, num_vars, field) -> ReducedGroebnerBasis:
    # Minimalize: drop any generator whose leading term another kept
    # generator's leading term divides, scanning small to large so the
    # smallest representative of each staircase corner survives.
    ordered = sorted(basis, key=lambda g: order.key(g.leading_term(order)[0]))
    kept: list = []
    kept_lead: list = []
    for g in ordered:
        lm = g.leading_term(order)[0]
        if any(mono_divides(l, lm) for l in kept_lead):
            continue
        kept.append(g)
        kept_lead.append(lm)
    # Interreduce: each survivor reduced by the others keeps its leading
    # term (no other leading term divides it) and loses every reducible
    # tail term.
    reduced = []
    for i, g in enumerate(kept):
        others = kept[:i] + kept[i + 1 :]
        reduced.append(_remainder(g, others, order))
    if any(g.is_constant() for g in reduced):
        one = MultiPoly.from_int(field, num_vars, 1)
        return ReducedGroebnerBasis(order, (one,), num_vars, field)
    reduced.sort(key=lambda g: order.key(g.leading_term(order)[0]), reverse=True)
    return ReducedGroebnerBasis(order, tuple(reduced), num_vars, field)


def ideal_equal(a: ReducedGroebnerBasis, b: ReducedGroebnerBasis) -> bool:
    """Whether two bases present the same ideal (orders must match)."""
    if a.order != b.order:
        raise ValueError("monomial order mismatch")
    if a.field != b.field or a.num_vars != b.num_vars:
        raise ValueError("bases do not share a ring")
    return a.generators == b.generators


def ideal_sum(a: ReducedGroebnerBasis, b: ReducedGroebnerBasis) -> ReducedGroebnerBasis:
    """Reduced basis of the ideal generated by both inputs together."""
    if a.order != b.order:
        raise ValueError("monomial order mismatch")
    if a.field != b.field or a.num_vars != b.num_vars:
        raise ValueError("bases do not share a ring")
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


@dataclass(frozen=True)
class PointSet:
    """Finite list of rational points in affine space, deduplicated."""

    points: tuple
    num_vars: int
    field: Field

    @classmethod
    def of(cls, points) -> "PointSet":
        pts = [tuple(p) for p in points]
        if not pts:
            raise ValueError("empty point set")
        num_vars = len(pts[0])
        field = None
        for p in pts:
            if len(p) != num_vars:
                raise ValueError("points must share a dimension")
            for v in p:
                if not isinstance(v, FieldValue):
                    raise TypeError("coordinates must be FieldValue")
                if field is None:
                    field = v.field
                elif v.field != field:
                    raise ValueError("points must share a field")
        unique = tuple(dict.fromkeys(pts))
        return cls(unique, num_vars, field)

    def __len__(self) -> int:
        return len(self.points)


def vanishing_ideal(points, order: MonomialOrder) -> ReducedGroebnerBasis:
    """Reduced basis of all polynomials vanishing on the given points.

    Buchberger-Moller: walk candidate monomials in increasing order,
    track their evaluation vectors in reduced row echelon form, and
    emit a generator whenever a candidate's vector is dependent on the
    vectors of the standard monomials found so far.  The recorded
    elimination combination is the generator, already monic with the
    candidate as leading term and a tail supported on earlier standard
    monomials, so the output is reduced without further work.  The
    standard monomial count always equals the number of distinct
    points.
    """
    if not isinstance(points, PointSet):
        points = PointSet.of(points)
    if order.num_vars != points.num_vars:
        raise ValueError("order does not match the point dimension")
    field = points.field
    n = points.num_vars
    pts = points.points
    npts = len(pts)
    zero = field.zero()
    one = field.one()

    pow_cache = [[dict() for _ in range(n)] for _ in range(npts)]

    def eval_mono(mono):
        out = []
        for p_idx, pt in enumerate(pts):
            v = one
            for i, e in enumerate(mono):
                if e:
                    cache = pow_cache[p_idx][i]
                    pw = cache.get(e)
                    if pw is None:
                        pw = pt[i] ** e
                        cache[e] = pw
                    v = pw if v.is_one() else v * pw
            out.append(v)
        return out

    rows: list = []  # (pivot index, vector with pivot 1, combination dict)
    standard: list = []
    gens: list = []
    gen_leads: list = []
    todo = {(0,) * n}
    seen = set()

    while todo:
        mono = min(todo, key=order.key)
        todo.discard(mono)
        if mono in seen:
            continue
        seen.add(mono)
        if any(mono_divides(lm, mono) for lm in gen_leads):
            continue
        vec = eval_mono(mono)
        combo = {mono: one}
        for pivot, rvec, rcombo in rows:
            c = vec[pivot]
            if c.is_zero():
                continue
            vec = [a - c * b for a, b in zip(vec, rvec)]
            for m, cf in rcombo.items():
                cur = combo.get(m, zero)
                s = cur - c * cf
                if s.is_zero():
                    combo.pop(m, None)
                else:
                    combo[m] = s
        pivot = next((k for k, v in enumerate(vec) if not v.is_zero()), None)
        if pivot is None:
            poly = MultiPoly(field, n, combo)
            gens.append(poly)
            gen_leads.append(mono)
        else:
            inv = vec[pivot].inverse()
            vec = [v * inv for v in vec]
            combo = {m: c * inv for m, c in combo.items()}
            # keep rows mutually reduced so one pass decides dependence
            for k, (opiv, ovec, ocombo) in enumerate(rows):
                c = ovec[pivot]
                if c.is_zero():
                    continue
                nvec = [a - c * b for a, b in zip(ovec, vec)]
                ncombo = dict(ocombo)
                for m, cf in combo.items():
                    cur = ncombo.get(m, zero)
                    s = cur - c * cf
                    if s.is_zero():
                        ncombo.pop(m, None)
                    else:
                        ncombo[m] = s
                rows[k] = (opiv, nvec, ncombo)
            rows.append((pivot, vec, combo))
            standard.append(mono)
            for i in range(n):
                step = tuple(e + (1 if k == i else 0) for k, e in enumerate(mono))
                if step not in seen:
                    todo.add(step)

    gens.sort(key=lambda g: order.key(g.leading_term(order)[0]), reverse=True)
    return ReducedGroebnerBasis(order, tuple(gens), n, field)
