"""Heavy off-suite cases: the library calls whose cost the suite misses.

    PYTHONPATH=src python tests/heavy.py [NAME[=SIZE] ...]

Runs each named case (default: all of ``CASES``) once at SIZE, its
claim size unless given, and prints the time and the output digest, the
first 12 hex digits of a sha256 of the rendered output.  Each case has
a fixed recipe and seed and two sizes: a pin size that costs well under
a second, which ``tests/test_heavy.py`` pins, and a claim size, where a
performance change to that path is measured.

- ``GF(7)(t)``, ``GF(101)(t)``: capped vanishing ideals.  POINTS points
  of three coordinates each from ``random.Random(1)``, point by point:
  every coordinate is ``from_coefficients([3 random residues], [random
  residue, 1])``; then ``vanishing_ideal`` in grevlex with degree cap 3.
  The fraction-free walk over GF(p)[t] is where the cost lies: its
  coefficient degrees grow with the number of points, and at 11 points
  the reductions inside ``buchberger`` take seconds.
- ``certify``: ``certify_invariant`` of W, the reduced basis of the line
  5x + y = 25 over GF(101) in grevlex, under ``(x^2 + y, x*y + 1)`` and
  its a-th iterate.  W is invariant at every a, but its images are
  reduced modulo a positive-dimensional ideal, so their degrees grow
  as 2^a.
- ``QQ-points``: an uncapped vanishing ideal in grevlex of POINTS points
  of QQ^2 from ``random.Random(1)``, each coordinate
  ``Fraction(randrange(-50, 50), randrange(1, 20))``.
- ``QQ-height``: ``return_set`` over QQ of x^2 + 1 from 0 against
  x - 5 below N.  It is always {3}; the iterates' heights double each
  step.
"""

import hashlib
import random
import sys
import time
from fractions import Fraction
from typing import Callable, NamedTuple

from dmlab import (
    Field,
    MonomialOrder,
    Morphism,
    buchberger,
    certify_invariant,
    parse_polynomial,
    return_set,
    vanishing_ideal,
)

NAMES = ("x", "y", "z")
ORDER = MonomialOrder.grevlex(len(NAMES))
CAP = 3
XY = NAMES[:2]


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


def _sha(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:12]


def digest(basis, names=NAMES) -> str:
    """The first 12 hex digits of the sha256 of the rendered generators."""
    return _sha(g.render(names) for g in basis.generators)


class Case(NamedTuple):
    """One heavy case: ``build(size)`` returns the field whose ring the
    call uses and the call, which ``digest`` reduces to 12 hex digits."""

    name: str
    pin: int
    claim: int
    build: Callable
    digest: Callable


def _function_field_case(p: int, pin: int) -> Case:
    def build(count):
        field = Field.rational_functions(p)
        pts = points(field, count)
        return field, lambda: vanishing_ideal(pts, ORDER, CAP)

    return Case(f"GF({p})(t)", pin, 11, build, digest)


def _certify(a: int):
    field = Field.prime(101)
    basis = buchberger([parse_polynomial("5*x+y-25", XY, field)], MonomialOrder.grevlex(2))
    phi = Morphism([parse_polynomial(s, XY, field) for s in ("x^2+y", "x*y+1")])
    return field, lambda: certify_invariant(basis, phi, a)


def _certificate_digest(certificate) -> str:
    head = f"{certificate.modulus} {certificate.invariant}"
    return _sha([head] + [f"{g.render(XY)} -> {nf.render(XY)}" for g, nf in certificate.witnesses])


def _qq_points(count: int):
    field = Field.rationals()
    rng = random.Random(1)
    pts = [
        tuple(field.from_fraction(Fraction(rng.randrange(-50, 50), rng.randrange(1, 20))) for _ in XY)
        for _ in range(count)
    ]
    return field, lambda: vanishing_ideal(pts, MonomialOrder.grevlex(2))


def _qq_height(horizon: int):
    field = Field.rationals()
    phi = Morphism([parse_polynomial("x^2+1", ("x",), field)])
    target = [parse_polynomial("x-5", ("x",), field)]
    return field, lambda: return_set(phi, (field.zero(),), target, horizon)


CASES = (
    _function_field_case(7, 9),
    _function_field_case(101, 8),
    Case("certify", 8, 10, _certify, _certificate_digest),
    Case("QQ-points", 32, 64, _qq_points, lambda basis: digest(basis, XY)),
    Case("QQ-height", 20, 26, _qq_height, lambda returns: _sha(map(str, returns.indices))),
)


def main(argv) -> int:
    by_name = {case.name: case for case in CASES}
    for arg in argv or list(by_name):
        name, _, size = arg.partition("=")
        case = by_name[name]
        size = int(size) if size else case.claim
        _, call = case.build(size)
        start = time.perf_counter()
        out = call()
        elapsed = time.perf_counter() - start
        print(f"{name} at {size}: {elapsed:.3f} s, digest {case.digest(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
