"""Seeded soundness census of the pipeline over GF(p).

    PYTHONPATH=src python tests/census.py [COUNT] [SEED]

Each instance is a random quadratic map of the plane over GF(p), p one
of 5, 7, 11 and 13, a random start point, and a target V that is a
coordinate hyperplane x = c or y = c through a point of the orbit's
cycle, so the return set S is infinite.  The horizon is
N = max(120, 4(tau + P)), tau and P being the orbit's preperiod and
period.

Over GF(p) the truth is exact.  The orbit is eventually periodic
(``OrbitCache.cycle``): from tau on, whether n is in S depends only on
(n - tau) mod P, and along a progression b + a*l that repeats every
lcm(a, P) indices.  So the progression holds for every n exactly when
each of its indices below max(b, tau) + lcm(a, P) is in S.

A progression is flagged when a diagnostic of the report names it.  The
census counts the progressions that carry each code, the false ones
that carry no flag (unsound; there must be none) and the true ones that
carry a flag (spurious).  It also decides every class b mod a with
a <= a_max and b >= tail_start from the cycle, and lists each class
that holds for every n and has at least m_min members below N but that
no reported progression covers (missed; there must be none either).
"""

import random
import sys
import time
from collections import Counter
from math import lcm

from dmlab import Field, Morphism, parse_polynomial
from dmlab.experiment import _NOTES, experiment_from_dict, run_experiment
from dmlab.orbits import OrbitCache

PRIMES = (5, 7, 11, 13)
NAMES = ("x", "y")
# Monomials of degree at most 2 in x and y, quadratic ones first.
MONOMIALS = ((2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0))


def _render(coeffs) -> str:
    terms = []
    for (i, j), c in zip(MONOMIALS, coeffs):
        if c:
            factors = [str(c)] + ["x"] * i + ["y"] * j
            terms.append("*".join(factors))
    return " + ".join(terms) or "0"


def _cycled_cache(phi, start, p: int) -> OrbitCache:
    cache = OrbitCache(phi, start)
    cache.index(p * p)  # p^2 steps in GF(p)^2 cannot all be distinct points
    return cache


def instance(rng: random.Random) -> dict:
    """A random experiment document of the census's shape."""
    p = rng.choice(PRIMES)
    field = Field.prime(p)
    rows = [[rng.randrange(p) for _ in MONOMIALS] for _ in NAMES]
    if not any(c for row in rows for c in row[:3]):
        rows[0][0] = 1  # keep the map quadratic
    phi = [_render(row) for row in rows]
    alpha = [str(rng.randrange(p)) for _ in NAMES]
    cache = _cycled_cache(
        Morphism([parse_polynomial(src, NAMES, field) for src in phi]),
        [field.from_int(int(a)) for a in alpha],
        p,
    )
    tau, period = cache.cycle.preperiod, cache.cycle.period
    i = rng.randrange(len(NAMES))
    c = cache.point(tau + rng.randrange(period))[i]
    return {
        "field": f"GF({p})",
        "vars": list(NAMES),
        "phi": phi,
        "alpha": alpha,
        "V": [f"{NAMES[i]} - {c}"],
        "N": max(120, 4 * (tau + period)),
    }


def cycle_membership(spec) -> tuple:
    """(tau, P, on): the orbit's preperiod and period, and whether each of
    phi^0 .. phi^(tau + P - 1)(alpha) lies on V.  Index n >= tau is on V
    exactly when tau + (n - tau) mod P is."""
    cache = _cycled_cache(spec.phi, spec.start, spec.field.characteristic)
    tau, period = cache.cycle.preperiod, cache.cycle.period
    on = [
        all(g.evaluate(cache.point(n)).is_zero() for g in spec.target_generators)
        for n in range(tau + period)
    ]
    return tau, period, on


def holds_for_every_n(membership, modulus: int, offset: int) -> bool:
    """Whether phi^n(alpha) lies on V for every n = offset + modulus*l."""
    tau, period, on = membership
    stop = max(offset, tau) + lcm(modulus, period)
    return all(
        on[n if n < tau else tau + (n - tau) % period] for n in range(offset, stop, modulus)
    )


def full_classes(spec, membership) -> list:
    """The classes detection must keep or cover: each (a, b) with
    a <= a_max and tail_start <= b < tail_start + a whose progression
    b + a*l holds for every n and has at least m_min members below N."""
    params = spec.analysis
    return [
        (a, b)
        for a in range(1, params.a_max + 1)
        for b in range(params.tail_start, params.tail_start + a)
        if len(range(b, spec.horizon, a)) >= params.m_min
        and holds_for_every_n(membership, a, b)
    ]


def is_covered(kept, modulus: int, offset: int) -> bool:
    """Whether a kept (modulus, offset) progression contains offset + modulus*l."""
    return any(modulus % m == 0 and (offset - o) % m == 0 for m, o in kept)


def census(count: int, seed: int) -> dict:
    """Run ``count`` seeded instances and tally their progressions."""
    rng = random.Random(seed)
    code_of = {note: code for code, note in _NOTES.items()}
    codes = Counter()
    tally = {
        "instances": count,
        "progressions": 0,
        "flagged": 0,
        "unsound": [],
        "spurious": 0,
        "full classes": 0,
        "missed": [],
    }
    for _ in range(count):
        doc = instance(rng)
        spec = experiment_from_dict(doc)
        membership = cycle_membership(spec)
        payload = run_experiment(spec).payload
        kept = []
        for p in payload["progressions"]:
            m, o = int(p["modulus"]), int(p["offset"])
            kept.append((m, o))
            context = f"progression ({m}, {o})"
            # A derived progression's context extends its parent's.
            found = {
                code_of[line.rsplit(": ", 1)[1]]
                for line in payload["diagnostics"]
                if line.startswith(context + ":") or line.startswith(context + ",")
            }
            codes.update(found)
            truth = holds_for_every_n(membership, m, o)
            tally["progressions"] += 1
            tally["flagged"] += bool(found)
            if found and truth:
                tally["spurious"] += 1
            if not found and not truth:
                tally["unsound"].append((doc, m, o))
        full = full_classes(spec, membership)
        tally["full classes"] += len(full)
        tally["missed"] += [(doc, a, b) for a, b in full if not is_covered(kept, a, b)]
    tally["codes"] = dict(sorted(codes.items()))
    return tally


def main(argv) -> int:
    count = int(argv[0]) if argv else 40
    seed = int(argv[1]) if len(argv) > 1 else 7
    start = time.perf_counter()
    tally = census(count, seed)
    print(f"instances: {tally['instances']} (seed {seed})")
    print(f"progressions: {tally['progressions']}, flagged: {tally['flagged']}")
    for code, n in tally["codes"].items():
        print(f"  {code}: {n}")
    print(f"spurious (true but flagged): {tally['spurious']}")
    print(f"unsound (false and unflagged): {len(tally['unsound'])}")
    for doc, m, o in tally["unsound"]:
        print(f"  ({m}, {o}) in {doc}")
    print(f"full classes: {tally['full classes']}, missed by detection: {len(tally['missed'])}")
    for doc, a, b in tally["missed"]:
        print(f"  ({a}, {b}) in {doc}")
    print(f"time: {time.perf_counter() - start:.1f} s")
    return 1 if tally["unsound"] or tally["missed"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
