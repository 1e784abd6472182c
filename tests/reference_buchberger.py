"""Reference Buchberger loop on FieldValue coefficients.

This is the straightforward code ``ideals.buchberger`` ran before it
kept (leading monomial, monic polynomial) pairs: ``monic`` and
``s_polynomial`` invert a FieldValue leading coefficient and multiply
by a single-term polynomial, the basis keeps a parallel list of
leading monomials, and a separate pass minimalizes and interreduces the
result, recomputing each leading monomial where it is used.  Tests
compare the library against it; it is slow on purpose and not part of
the library.
"""

from dmlab.ideals import ReducedGroebnerBasis
from dmlab.multipoly import MultiPoly, _merge, mono_div, mono_divides, mono_mul


def reference_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def reference_monic(f, order):
    _, lc = f.leading_term(order)
    if lc.is_one():
        return f
    return f * MultiPoly.from_terms(f.field, f.num_vars, [((0,) * f.num_vars, lc.inverse())])


def reference_s_polynomial(f, g, order):
    mf, cf = f.leading_term(order)
    mg, cg = g.leading_term(order)
    lcm = reference_lcm(mf, mg)
    left = f * MultiPoly.from_terms(f.field, f.num_vars, [(mono_div(lcm, mf), cf.inverse())])
    right = g * MultiPoly.from_terms(g.field, g.num_vars, [(mono_div(lcm, mg), cg.inverse())])
    return left - right


def reference_remainder(f, divisors, order):
    if not divisors:
        return f
    ring = f.field._ring
    mul = ring.mul
    key = order.key
    lead = [(max(g.terms, key=key), g.terms) for g in divisors]
    work = dict(f.terms)
    remainder = {}
    while work:
        mono = max(work, key=key)
        coeff = work.pop(mono)
        for lm, g in lead:
            if mono_divides(lm, mono):
                shift, factor = mono_div(mono, lm), ring.neg(coeff)
                tail = ((mono_mul(m, shift), mul(factor, c)) for m, c in g.items() if m != lm)
                _merge(ring, work, tail)
                break
        else:
            remainder[mono] = coeff
    return MultiPoly(f.field, f.num_vars, remainder)


def reference_buchberger(generators, order):
    generators = list(generators)
    field = generators[0].field
    num_vars = generators[0].num_vars
    basis = [reference_monic(g, order) for g in generators if not g.is_zero()]
    if not basis:
        return ReducedGroebnerBasis(order, (), num_vars, field)

    lead = [g.leading_term(order)[0] for g in basis]
    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}

    def lcm_key(pair):
        i, j = pair
        return (order.key(reference_lcm(lead[i], lead[j])), pair)

    while pairs:
        i, j = min(pairs, key=lcm_key)
        pairs.discard((i, j))
        lcm = reference_lcm(lead[i], lead[j])
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
        spoly = reference_s_polynomial(basis[i], basis[j], order)
        rem = reference_remainder(spoly, basis, order)
        if rem.is_zero():
            continue
        rem = reference_monic(rem, order)
        idx = len(basis)
        basis.append(rem)
        lead.append(rem.leading_term(order)[0])
        pairs.update((k, idx) for k in range(idx))

    return _reference_reduce_basis(basis, order, num_vars, field)


def _reference_reduce_basis(basis, order, num_vars, field):
    ordered = sorted(basis, key=lambda g: order.key(g.leading_term(order)[0]))
    kept = []
    kept_lead = []
    for g in ordered:
        lm = g.leading_term(order)[0]
        if any(mono_divides(l, lm) for l in kept_lead):
            continue
        kept.append(g)
        kept_lead.append(lm)
    reduced = []
    for i, g in enumerate(kept):
        others = kept[:i] + kept[i + 1 :]
        reduced.append(reference_remainder(g, others, order))
    if any(g.is_constant() for g in reduced):
        one = MultiPoly.from_int(field, num_vars, 1)
        return ReducedGroebnerBasis(order, (one,), num_vars, field)
    reduced.sort(key=lambda g: order.key(g.leading_term(order)[0]), reverse=True)
    return ReducedGroebnerBasis(order, tuple(reduced), num_vars, field)
