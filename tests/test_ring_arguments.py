"""Every polynomial argument is checked by one rule, in
``multipoly._require_polys``, and every point argument by another, in
``multipoly._point_payloads``, before any ring arithmetic runs.

Polynomials: "<name> must be MultiPoly, got <type>" (TypeError),
"field mismatch" (FieldMismatchError) and "<name> must be polynomials in
<n> variables" (ValueError).  Points: "field mismatch" for a coordinate
that is not a value of the field, and "point length does not match
<dimension>" (ValueError).
"""

import pytest

from dmlab import (
    Field,
    FieldMismatchError,
    MonomialOrder,
    Morphism,
    OrbitCache,
    PointSet,
    buchberger,
    certify_invariant,
    normal_form,
    parse_polynomial,
    return_set,
    vanishing_ideal,
)
from conftest import CountingRing

F7 = Field.prime(7)
F5 = Field.prime(5)
XY = ("x", "y")
ORDER = MonomialOrder.grevlex(2)


def poly(text, names=XY, field=F7):
    return parse_polynomial(text, names, field)


# The leading coefficient 2 is not one, so a Groebner walk that started
# before checking every generator would call the ring's inverse.
P = poly("2*x+y")
OTHER_FIELD = poly("2*x+y", field=F5)
OTHER_VARS = poly("2*x", ("x",))
PHI = Morphism([poly("y"), poly("x")])
PHI_OTHER_FIELD = Morphism([poly("y", field=F5), poly("x", field=F5)])
PHI_OTHER_VARS = Morphism([poly(s, ("x", "y", "z")) for s in ("y", "z", "x")])
BASIS = buchberger([poly("x-1"), poly("y-2")], ORDER)
START = (F7.one(), F7.from_int(2))
NOT_VALUES = (1, 2)
OTHER_FIELD_POINT = (F5.one(), F5.from_int(2))
SHORT_POINT = (F7.one(),)

MISMATCH = (FieldMismatchError, "field mismatch")


def vars_text(name):
    return ValueError, f"{name} must be polynomials in 2 variables"


def poly_rows(entry, call, name):
    # The three wrong polynomial arguments of one entry.
    return [
        (entry, "type", lambda: call("x"), TypeError, f"{name} must be MultiPoly, got str"),
        (entry, "field", lambda: call(OTHER_FIELD), *MISMATCH),
        (entry, "variables", lambda: call(OTHER_VARS), *vars_text(name)),
    ]


def point_rows(entry, call, dimension):
    # The three wrong point arguments of one entry.
    return [
        (entry, "type", lambda: call(NOT_VALUES), *MISMATCH),
        (entry, "field", lambda: call(OTHER_FIELD_POINT), *MISMATCH),
        (entry, "length", lambda: call(SHORT_POINT), ValueError, f"point length does not match {dimension}"),
    ]


# (entry, wrong argument, call, exception class, exact text)
ROWS = (
    poly_rows("+", lambda f: P + f, "operands")
    + poly_rows("-", lambda f: P - f, "operands")
    + poly_rows("*", lambda f: P * f, "operands")
    + poly_rows("substitute", lambda f: P.substitute([P, f]), "images")
    + poly_rows("Morphism", lambda f: Morphism([P, f]), "components")
    + poly_rows("buchberger", lambda f: buchberger([P, f], ORDER), "generators")
    + poly_rows("normal_form", lambda f: normal_form(f, BASIS), "f")
    + poly_rows("return_set", lambda f: return_set(PHI, START, [P, f], 10), "target generators")
    # A morphism's components are polynomials, so only the ring can be wrong.
    + [
        ("certify_invariant", "field", lambda: certify_invariant(BASIS, PHI_OTHER_FIELD, 1), *MISMATCH),
        (
            "certify_invariant",
            "variables",
            lambda: certify_invariant(BASIS, PHI_OTHER_VARS, 1),
            *vars_text("components"),
        ),
    ]
    + point_rows("PointSet.of", lambda pt: PointSet.of([START, pt]), "the first point")
    + point_rows("vanishing_ideal", lambda pt: vanishing_ideal([START, pt], ORDER), "the first point")
    + point_rows("apply", PHI.apply, "the ambient dimension")
    + point_rows("evaluate", P.evaluate, "variable count")
    + point_rows("OrbitCache", lambda pt: OrbitCache(PHI, pt), "the ambient dimension")
)


@pytest.mark.parametrize(
    "call, error, text",
    [pytest.param(call, error, text, id=f"{entry}-{wrong}") for entry, wrong, call, error, text in ROWS],
)
def test_each_ring_argument_has_the_shared_texts(call, error, text, monkeypatch):
    rings = []
    for field in (F7, F5):
        rings.append(CountingRing(field._ring))
        monkeypatch.setattr(field, "_ring", rings[-1])
    with pytest.raises(Exception) as exc:
        call()
    assert type(exc.value) is error
    assert str(exc.value) == text
    assert [ring.calls for ring in rings] == [0, 0]


def test_every_entry_has_a_row():
    entries = {entry for entry, *_ in ROWS}
    assert entries == {
        "+", "-", "*", "substitute", "Morphism", "buchberger", "normal_form",
        "certify_invariant", "return_set", "PointSet.of", "vanishing_ideal", "apply",
        "evaluate", "OrbitCache",
    }


def test_the_checked_arguments_still_work():
    # The same calls with right arguments run, so each row fails on its
    # wrong argument alone.
    assert P + P == poly("4*x+2*y")
    assert P.substitute([P, P]) == poly("6*x+3*y")
    assert buchberger([P, poly("y")], ORDER).render(XY) == ("x", "y")
    assert normal_form(P, BASIS).is_constant()
    assert certify_invariant(BASIS, PHI, 2).invariant
    assert return_set(PHI, START, [P, P], 10).indices == ()
    assert len(PointSet.of([START, START]).points) == 1
    assert PHI.apply(START) == (START[1], START[0])
    assert OrbitCache(PHI, START).point(1) == PHI.apply(START)
