from census import census


def test_gf_p_census_has_no_unflagged_false_progression():
    # Every progression the pipeline reports without a flag must hold for
    # every n, not only below the horizon; the census decides that exactly
    # from the orbit's cycle.
    tally = census(28, 7)
    assert tally["progressions"] >= 80
    assert tally["unsound"] == []
