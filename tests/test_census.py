import json
from pathlib import Path

import pytest

from census import census, cycle_membership, full_classes, is_covered
from dmlab import detect_progressions, experiment_from_dict, return_set


def test_gf_p_census_has_no_unflagged_false_progression():
    # Every progression the pipeline reports without a flag must hold for
    # every n, not only below the horizon; the census decides that exactly
    # from the orbit's cycle.  Conversely every class that holds for every
    # n and has m_min members below N must be reported or covered.
    tally = census(28, 7)
    assert tally["progressions"] >= 80
    assert tally["unsound"] == []
    assert tally["full classes"] >= 100
    assert tally["missed"] == []


SUITE = Path(__file__).resolve().parents[1] / "perfbench" / "suite.json"
WORKLOADS = {w["name"]: w for w in json.loads(SUITE.read_text(encoding="utf-8"))["workloads"]}


@pytest.mark.parametrize("name", ["cycle-gf101", "pullback-gf101"])
def test_detection_keeps_or_covers_every_full_class(name):
    # cycle-gf101's whole cycle lies on V; pullback-gf101's S is one class
    # mod 6 past the preperiod.
    spec = experiment_from_dict(WORKLOADS[name]["experiment"])
    params = spec.analysis
    returns = return_set(spec.phi, spec.start, spec.target_generators, spec.horizon)
    kept = [
        (p.modulus, p.offset)
        for p in detect_progressions(returns, params.a_max, params.m_min, params.tail_start)
    ]
    full = full_classes(spec, cycle_membership(spec))
    assert full
    assert [(a, b) for a, b in full if not is_covered(kept, a, b)] == []
