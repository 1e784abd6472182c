"""Branches that no other test reaches: argument checks with their exact
texts, and the operators that answer ``NotImplemented`` or are only
called by Python itself (``bool``, ``repr``, calling a morphism)."""

from typing import NamedTuple

import pytest

from dmlab import (
    Field,
    FieldMismatchError,
    MonomialOrder,
    Morphism,
    MultiPoly,
    ReturnSet,
    buchberger,
    decompose_return_set,
    density_profile,
    ideal_sum,
    parse_polynomial,
    vanishing_ideal,
)

F7 = Field.prime(7)
F5 = Field.prime(5)
XY = ("x", "y")
ORDER = MonomialOrder.grevlex(2)
P = parse_polynomial("x+2*y", XY, F7)
BASIS = buchberger([P], ORDER)
OTHER_FIELD_BASIS = buchberger([parse_polynomial("x+2*y", XY, F5)], ORDER)
ZERO_IDEAL = buchberger([MultiPoly.zero(F7, 2)], ORDER)
PHI = Morphism([parse_polynomial(s, XY, F7) for s in ("y", "x")])
START = (F7.one(), F7.from_int(2))
RETURNS = ReturnSet(10, (0, 2, 4))


class Raises(NamedTuple):
    error: type
    text: str


# (site, call, Raises(exception class, exact text) or the call's result)
ROWS = [
    ("density_profile-empty", lambda: density_profile(RETURNS, []),
     Raises(ValueError, "window_lengths must be a nonempty list of integers")),
    ("decompose_return_set-pair", lambda: decompose_return_set(RETURNS, [(2, 0)]),
     Raises(TypeError, "expected Progression")),
    ("from_coefficients-GF(p)", lambda: F7.from_coefficients([1]),
     Raises(ValueError, "GF(7) values are not coefficient quotients")),
    ("FieldValue.__bool__", lambda: (bool(F7.zero()), bool(F7.one())), (False, True)),
    ("FieldValue.__pow__-float", lambda: F7.one().__pow__(0.5), NotImplemented),
    ("FieldValue.__eq__-int", lambda: F7.one().__eq__(1), NotImplemented),
    ("buchberger-order", lambda: buchberger([P], MonomialOrder.grevlex(3)),
     Raises(ValueError, "order must be on 2 variables")),
    ("ideal_sum-field", lambda: ideal_sum(BASIS, OTHER_FIELD_BASIS),
     Raises(ValueError, "bases do not share a ring")),
    ("ideal_sum-zero", lambda: ideal_sum(ZERO_IDEAL, BASIS) is BASIS, True),
    ("vanishing_ideal-order", lambda: vanishing_ideal([START], MonomialOrder.grevlex(3)),
     Raises(ValueError, "order must be on 2 variables")),
    ("MultiPoly-no-variables", lambda: MultiPoly(F7, 0, {}),
     Raises(ValueError, "polynomials need at least one variable")),
    ("MultiPoly.variable-index", lambda: MultiPoly.variable(F7, 2, 2),
     Raises(ValueError, "variable index 2 out of range")),
    ("from_terms-length", lambda: MultiPoly.from_terms(F7, 2, [((1,), F7.one())]),
     Raises(ValueError, "monomial length does not match variable count")),
    ("from_terms-field", lambda: MultiPoly.from_terms(F7, 2, [((1, 0), F5.one())]),
     Raises(FieldMismatchError, "field mismatch")),
    ("MultiPoly.__eq__-int", lambda: P.__eq__(1), NotImplemented),
    ("substitute-count", lambda: P.substitute([P]),
     Raises(ValueError, "image count does not match variable count")),
    ("render-names", lambda: P.render(("x",)),
     Raises(ValueError, "name count does not match variable count")),
    ("MultiPoly.__repr__", lambda: repr(P), "<x0 + 2*x1 over GF(7)>"),
    ("Morphism.__call__", lambda: PHI(START), (START[1], START[0])),
    ("ReturnSet.__eq__-tuple", lambda: RETURNS.__eq__((0, 2, 4)), NotImplemented),
]


@pytest.mark.parametrize("call, expected", [pytest.param(c, e, id=site) for site, c, e in ROWS])
def test_rare_branch(call, expected):
    if isinstance(expected, Raises):
        with pytest.raises(Exception) as exc:
            call()
        assert type(exc.value) is expected.error
        assert str(exc.value) == expected.text
    elif expected is NotImplemented:
        assert call() is NotImplemented
    else:
        assert call() == expected
