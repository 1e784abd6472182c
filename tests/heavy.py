"""Heavy off-suite cases: capped vanishing ideals of points over GF(p)(t).

    PYTHONPATH=src python tests/heavy.py [POINTS]

For GF(7)(t) and GF(101)(t), draws POINTS points (default 11) of three
coordinates each from ``random.Random(1)``, point by point: every
coordinate is ``from_coefficients([3 random residues], [random residue,
1])``.  It then runs ``vanishing_ideal`` in grevlex with degree cap 3
and prints the time and the basis digest, the first 12 hex digits of
the sha256 of the generators rendered in x, y, z and joined by
newlines.

The fraction-free walk over GF(p)[t] is where the cost lies: its
coefficient degrees grow with the number of points, and at 11 points
the reductions inside ``buchberger`` take seconds.  ``tests/test_heavy.py``
pins a smaller size of each case, whose output does not depend on how
GF(p)[t] divides.
"""

import hashlib
import random
import sys
import time

from dmlab import Field, MonomialOrder, vanishing_ideal

CASES = (7, 101)
NAMES = ("x", "y", "z")
ORDER = MonomialOrder.grevlex(len(NAMES))
CAP = 3


def points(field, count: int) -> list:
    """``count`` seeded points of GF(p)(t)^3, numerators of t-degree at
    most 2 over denominators of degree 1."""
    rng = random.Random(1)
    p = field.characteristic
    return [
        tuple(
            field.from_coefficients([rng.randrange(p) for _ in range(3)], [rng.randrange(p), 1])
            for _ in NAMES
        )
        for _ in range(count)
    ]


def digest(basis) -> str:
    """The first 12 hex digits of the sha256 of the rendered generators."""
    text = "\n".join(g.render(NAMES) for g in basis.generators)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def main(argv) -> int:
    count = int(argv[0]) if argv else 11
    for p in CASES:
        field = Field.rational_functions(p)
        pts = points(field, count)
        start = time.perf_counter()
        basis = vanishing_ideal(pts, ORDER, CAP)
        elapsed = time.perf_counter() - start
        print(f"{field.label}, {count} points: {elapsed:.2f} s, {len(basis.generators)} generators, digest {digest(basis)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
