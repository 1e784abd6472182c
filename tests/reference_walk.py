"""Reference Buchberger-Moller walk on FieldValue arithmetic.

This is the straightforward loop ``ideals.vanishing_ideal`` ran before
it went fraction-free: every vector entry and every combination
coefficient is a FieldValue, and each row is scaled to pivot 1.  Tests
compare the fraction-free walk against it; it is slow on purpose and
not part of the library.
"""

from dmlab.ideals import PointSet, ReducedGroebnerBasis, buchberger
from dmlab.multipoly import GREVLEX, MultiPoly, mono_divides


def reference_vanishing_ideal(points, order, max_degree=None):
    if max_degree is not None and order.kind != GREVLEX:
        raise ValueError("a degree cap needs a grevlex order")
    if not isinstance(points, PointSet):
        points = PointSet.of(points)
    field = points.field
    n = points.num_vars
    pts = points.points
    zero = field.zero()
    one = field.one()

    # (pivot index, vector with pivot 1, combination dict)
    rows = []
    gens = []
    gen_leads = []
    todo = {(0,) * n: None}
    seen = set()

    while todo:
        mono = min(todo, key=order.key)
        parent = todo.pop(mono)
        seen.add(mono)
        if any(mono_divides(lm, mono) for lm in gen_leads):
            continue
        if max_degree is not None and sum(mono) > max_degree:
            if not gens:
                return ReducedGroebnerBasis(order, (), n, field)
            return buchberger(gens, order)
        if parent is None:
            vec = [one] * len(pts)
        else:
            parent_vec, i = parent
            vec = [v * pt[i] for v, pt in zip(parent_vec, pts)]
        raw = vec
        combo = {mono: one}
        for pivot, rvec, rcombo in rows:
            c = vec[pivot]
            if c.is_zero():
                continue
            vec = [a - c * b for a, b in zip(vec, rvec)]
            for m, cf in rcombo.items():
                s = combo.get(m, zero) - c * cf
                if s.is_zero():
                    combo.pop(m, None)
                else:
                    combo[m] = s
        pivot = next((k for k, v in enumerate(vec) if not v.is_zero()), None)
        if pivot is None:
            gens.append(MultiPoly.from_terms(field, n, combo.items()))
            gen_leads.append(mono)
        else:
            inv = vec[pivot].inverse()
            vec = [v * inv for v in vec]
            combo = {m: c * inv for m, c in combo.items()}
            rows.append((pivot, vec, combo))
            for i in range(n):
                step = tuple(e + (1 if k == i else 0) for k, e in enumerate(mono))
                if step not in seen:
                    todo.setdefault(step, (raw, i))

    gens.sort(key=lambda g: order.key(g.leading_term(order)[0]), reverse=True)
    return ReducedGroebnerBasis(order, tuple(gens), n, field)
