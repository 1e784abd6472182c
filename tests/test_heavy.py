import pytest

import dmlab.ideals
from dmlab import Field
from heavy import CAP, ORDER, digest, points

# (characteristic, points, basis digest, payload-ring counts, buchberger
# calls) of tests/heavy.py's cases at sizes that run in well under a
# second.  The counts are the _FunctionRing calls the walk makes, so they
# do not depend on how GF(p)[t] divides inside them.  Neither size
# reaches the re-reduction through buchberger; the 11-point cases do.
HEAVY_PINS = [
    (7, 9, "ba8cbd1e5519",
     {"clear": 3, "dmul": 160, "combine": 108, "primitive": 108, "quotient": 72}, 0),
    (101, 8, "8816afc15ad2",
     {"clear": 3, "dmul": 126, "combine": 84, "primitive": 84, "quotient": 56}, 0),
]


@pytest.mark.parametrize("p, count, want, operations, reductions", HEAVY_PINS)
def test_heavy_function_field_pins(p, count, want, operations, reductions, monkeypatch):
    from conftest import CountingRing

    field = Field.rational_functions(p)
    pts = points(field, count)
    ring = CountingRing(field._ring)
    monkeypatch.setattr(field, "_ring", ring)
    calls = []
    original = dmlab.ideals.buchberger

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(dmlab.ideals, "buchberger", counted)
    basis = dmlab.ideals.vanishing_ideal(pts, ORDER, CAP)
    # Read the counts before rendering: rendering unpacks through the ring.
    assert dict(ring.counts) == operations
    assert ring.calls == sum(operations.values())
    assert len(calls) == reductions
    assert digest(basis) == want
