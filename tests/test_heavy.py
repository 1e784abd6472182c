import pytest


# (case, size, output digest, payload-ring counts, (normal_form,
# buchberger) calls) of tests/heavy.py's cases at their pin sizes, which
# run in well under a second.  The certificate's 19 normal forms are the
# two coordinate images, two per step and one per generator of W.  The
# GF(p)(t) counts are the _FunctionRing calls the walk and buchberger
# make, so they do not depend on how GF(p)[t] divides inside them; of
# those only the cap-2 pin reaches the re-reduction through buchberger.
# The GF(101) pin reaches it too, and its dmul count falls when a GF(p)
# S-pair remainder is made monic and reductions by it scale nothing.
PINS = [
    ("certify", 8, "39c7086daddf", {"neg": 1, "mul": 47569, "add": 43033}, (19, 0)),
    ("QQ-points", 32, "ae9f6d3f999f",
     {"clear": 2, "dmul": 1287, "combine": 752, "primitive": 752, "quotient": 256}, (0, 0)),
    ("QQ-height", 20, "4e07408562be", {"pow": 19, "add": 39}, (0, 0)),
    ("GF(7)(t)", 9, "ba8cbd1e5519",
     {"clear": 3, "dmul": 160, "combine": 108, "primitive": 108, "quotient": 72}, (0, 0)),
    ("GF(101)(t)", 8, "8816afc15ad2",
     {"clear": 3, "dmul": 126, "combine": 84, "primitive": 84, "quotient": 56}, (0, 0)),
    ("GF(7)(t)-cap2", 5, "8ec3b3b247b4",
     {"clear": 8, "dmul": 824, "combine": 35, "primitive": 41, "quotient": 61, "dneg": 64,
      "dadd": 262}, (0, 1)),
    ("GF(101)", 14, "332b1f6d6036",
     {"clear": 9, "dmul": 3684, "combine": 175, "primitive": 185, "quotient": 230, "dneg": 237,
      "dadd": 3169}, (0, 1)),
]


@pytest.mark.parametrize("name, size, want, operations, functions", PINS)
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


def test_rates_print_counts_at_three_sizes_and_their_growth(capsys):
    # The counts, not times, so the output is fixed: at the pin size it
    # repeats the pin's counts.
    from heavy import main

    (pin,) = [row for row in PINS if row[0] == "GF(101)"]
    assert main(["--rates", "GF(101)"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        f"GF(101) at 14: 7689 calls, {dict(sorted(pin[3].items()))}",
        "GF(101) at 15: 8649 calls, {'clear': 8, 'combine': 180, 'dadd': 3626, 'dmul': 4166, "
        "'dneg': 244, 'primitive': 190, 'quotient': 235}",
        "GF(101) at 17: 15601 calls, {'clear': 6, 'combine': 187, 'dadd': 6878, 'dmul': 7681, "
        "'dneg': 334, 'primitive': 198, 'quotient': 317}",
        "GF(101): calls grow as size^3.64 from 14 to 17",
    ]
