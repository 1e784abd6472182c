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


# (case, size, output digest, payload-ring counts, (normal_form,
# buchberger) calls) of tests/heavy.py's other cases at their pin sizes.
# The certificate's 19 normal forms are the two coordinate images, two
# per step and one per generator of W.
OTHER_PINS = [
    ("certify", 8, "39c7086daddf", {"neg": 1, "mul": 47569, "add": 43033}, (19, 0)),
    ("QQ-points", 32, "ae9f6d3f999f",
     {"clear": 2, "dmul": 1287, "combine": 752, "primitive": 752, "quotient": 256}, (0, 0)),
    ("QQ-height", 20, "4e07408562be", {"pow": 19, "add": 39}, (0, 0)),
]


@pytest.mark.parametrize("name, size, want, operations, functions", OTHER_PINS)
def test_heavy_case_pins(name, size, want, operations, functions, monkeypatch):
    import sys

    import dmlab
    from conftest import CountingRing
    from heavy import CASES

    (case,) = [case for case in CASES if case.name == name]
    field, call = case.build(size)
    ring = CountingRing(field._ring)
    monkeypatch.setattr(field, "_ring", ring)
    calls = {"normal_form": 0, "buchberger": 0}
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "dmlab"]
    for counted in calls:
        original = getattr(dmlab, counted)

        def wrapper(*args, counted=counted, original=original):
            calls[counted] += 1
            return original(*args)

        for module in modules:
            for bound, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, bound, wrapper)
    out = call()
    # Read the counts before the digest: rendering goes through the ring.
    assert dict(ring.counts) == operations
    assert ring.calls == sum(operations.values())
    assert tuple(calls.values()) == functions
    assert case.digest(out) == want
