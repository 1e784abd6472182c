"""The result records: named tuples, plus four slotted classes that validate
or derive state on construction."""

import pytest

from dmlab import Field, FieldKind, MonomialOrder, Morphism, Session, parse_polynomial
from dmlab.closures import (
    CaseSplitFragment,
    ClosureChain,
    ClosureEntry,
    OffsetCase,
    PeriodicityCertificate,
    SubInstance,
    SubProgression,
)
from dmlab.density import Decomposition, DensityProfile, Progression
from dmlab.experiment import AnalysisParams, ExperimentSpec
from dmlab.ideals import PointSet, ReducedGroebnerBasis
from dmlab.orbits import CycleStructure

NAMED_TUPLES = (
    ClosureEntry,
    ClosureChain,
    PeriodicityCertificate,
    OffsetCase,
    CaseSplitFragment,
    SubInstance,
    SubProgression,
    DensityProfile,
    Decomposition,
    AnalysisParams,
    ExperimentSpec,
    ReducedGroebnerBasis,
    PointSet,
    CycleStructure,
)

# Valid field values of each slotted value class, and another value for
# its last field.
SLOTTED = {
    Field: ({"kind": FieldKind.PRIME, "characteristic": 7}, 11),
    MonomialOrder: ({"kind": "lex", "priority": (1, 0)}, (0, 1)),
    Progression: ({"modulus": 6, "offset": 3}, 4),
}


def _fields(cls):
    if cls in SLOTTED:
        return SLOTTED[cls]
    return {name: i for i, name in enumerate(cls._fields)}, -1


@pytest.mark.parametrize("cls", NAMED_TUPLES + tuple(SLOTTED), ids=lambda cls: cls.__name__)
def test_records_compare_hash_and_print_by_their_fields(cls):
    kwargs, other = _fields(cls)
    values = tuple(kwargs.values())
    a, b = cls(**kwargs), cls(**kwargs)
    assert a == b and a is not b
    # the hash a frozen dataclass computed, so set and dict order stays put
    assert hash(a) == hash(b) == hash(values)
    last = list(kwargs)[-1]
    assert a != cls(**{**kwargs, last: other})
    fields = ", ".join(f"{name}={value!r}" for name, value in kwargs.items())
    assert repr(a) == f"{cls.__name__}({fields})"
    with pytest.raises(AttributeError):
        a.not_a_field = 1
    if cls in SLOTTED:
        assert a != values
    else:
        assert a == values
        assert a._replace(**{last: other}) == cls(**{**kwargs, last: other})
        with pytest.raises(AttributeError):
            setattr(a, last, other)


def test_sessions_compare_by_identity_and_print_their_settings():
    QQ = Field.rationals()
    phi = Morphism([parse_polynomial(s, ("x", "y"), QQ) for s in ("y", "x")])
    start = (QQ.one(), QQ.from_int(2))
    a, b = Session(phi, start, 20), Session(phi, start, 20)
    assert a == a and a != b and hash(a) != hash(b)
    assert repr(a) == (
        f"Session(phi={phi!r}, start={start!r}, horizon=20, analysis=AnalysisParams("
        "a_max=None, m_min=5, tail_start=0, degree_cap=4, initial_samples=4, "
        "sample_budget=64, depth_limit=3, window_lengths=None))"
    )
    with pytest.raises(AttributeError):
        a.not_a_field = 1
