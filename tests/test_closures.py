import random

import pytest

from dmlab import (
    Field,
    Morphism,
    MonomialOrder,
    MultiPoly,
    ReducedGroebnerBasis,
    Session,
    buchberger,
    certify_invariant,
    closure_chain,
    ideal_dimension,
    orbit_closure_ideal,
    parse_polynomial,
    refine_case_split,
)
from dmlab.closures import (
    CASE_CLOSURE_EQUALS_TARGET,
    CASE_DEPTH_EXHAUSTED,
    CASE_DIMENSION_DROP,
    CASE_IRREDUCIBILITY_UNVERIFIED,
    FLAG_DEPTH,
    FLAG_DIMENSION_INCREASE,
    FLAG_IRREDUCIBILITY,
    FLAG_UNSTABILIZED,
    ClosureChain,
    ClosureEntry,
)

QQ = Field.rationals()
F2T = Field.rational_functions(2)
XY = ("x", "y")
ORDER2 = MonomialOrder.grevlex(2)


def mk_morphism(sources, names, field):
    return Morphism([parse_polynomial(s, names, field) for s in sources])


def mk_basis(sources, names, field, order):
    return buchberger([parse_polynomial(s, names, field) for s in sources], order)


def swap_fixture():
    phi = mk_morphism(["y", "x"], XY, QQ)
    start = (QQ.from_int(1), QQ.from_int(2))
    return phi, start


def test_even_suborbit_closure_is_a_point():
    phi, start = swap_fixture()
    basis, stabilized = orbit_closure_ideal(Session(phi, start, 20), 2, 0)
    assert basis.render(XY) == ("x - 1", "y - 2")
    assert stabilized
    assert ideal_dimension(basis) == 0


def test_whole_orbit_closure_two_points():
    phi, start = swap_fixture()
    basis, stabilized = orbit_closure_ideal(Session(phi, start, 20), 1, 0)
    assert basis.render(XY) == ("y^2 - 3*y + 2", "x + y - 3")
    assert stabilized
    assert ideal_dimension(basis) == 0
    for pt in (start, (QQ.from_int(2), QQ.from_int(1))):
        assert all(g.evaluate(pt).is_zero() for g in basis.generators)


def test_infinite_orbit_closure_fills_the_line():
    # x -> 2x over QQ never repeats, so every hypersurface through the
    # samples blows past the degree cap and the ideal collapses to zero.
    phi = mk_morphism(["2*x"], ("x",), QQ)
    basis, stabilized = orbit_closure_ideal(Session(phi, (QQ.from_int(1),), 20), 1, 0)
    assert basis.is_zero_ideal
    assert stabilized
    assert ideal_dimension(basis) == 1


def test_degree_cap_one_chain_sees_no_linear_relation():
    phi = mk_morphism(["t*x", "(1-t)*y"], XY, F2T)
    start = (F2T.one(), F2T.one())
    chain = closure_chain(Session(phi, start, 20, degree_cap=1), 2, 1)
    assert [e.offset for e in chain.entries] == [1, 2]
    for entry in chain.entries:
        assert entry.ideal.is_zero_ideal
        assert entry.dimension == 2
        assert entry.stabilized
        assert entry.samples_used == 8
    assert chain.dimension_nonincreasing


def test_unstabilized_when_budget_runs_out():
    # successor orbit: 4 samples fit a quartic, 8 samples overflow the
    # cap, and the budget stops the doubling before the bases can agree
    phi = mk_morphism(["x+1"], ("x",), QQ)
    session = Session(
        phi, (QQ.from_int(0),), 20, degree_cap=4, initial_samples=4, sample_budget=8
    )
    basis, stabilized = orbit_closure_ideal(session, 1, 0)
    assert basis.is_zero_ideal
    assert not stabilized


def test_closure_parameter_validation():
    phi, start = swap_fixture()
    session = Session(phi, start, 20)
    with pytest.raises(ValueError):
        orbit_closure_ideal(session, 0, 0)
    with pytest.raises(ValueError):
        orbit_closure_ideal(session, 1, -1)
    with pytest.raises(ValueError):
        Session(phi, start, 20, initial_samples=1)
    with pytest.raises(ValueError):
        Session(phi, start, 20, initial_samples=4, sample_budget=3)
    with pytest.raises(ValueError):
        Session(phi, start, 20, degree_cap=0)
    with pytest.raises(ValueError):
        closure_chain(session, 0, 0)
    with pytest.raises(ValueError):
        closure_chain(session, 2, -1)
    # a budget below the default four initial samples
    with pytest.raises(ValueError):
        Session(phi, start, 20, sample_budget=2)


def test_chain_entry_lookup():
    phi, start = swap_fixture()
    chain = closure_chain(Session(phi, start, 20), 2, 0)
    assert chain.entry_for(1).offset == 1
    with pytest.raises(KeyError):
        chain.entry_for(5)


def test_dimension_nonincreasing_on_hand_built_chains():
    zero = ReducedGroebnerBasis(ORDER2, (), 2, QQ)
    point = mk_basis(["x-1", "y-2"], XY, QQ, ORDER2)
    down = ClosureChain(2, 4, (
        ClosureEntry(0, zero, 2, 4, True),
        ClosureEntry(1, point, 0, 4, True),
    ))
    up = ClosureChain(2, 4, (
        ClosureEntry(0, point, 0, 4, True),
        ClosureEntry(1, zero, 2, 4, True),
    ))
    assert down.dimension_nonincreasing
    assert not up.dimension_nonincreasing


def test_certify_point_under_swap():
    phi, _ = swap_fixture()
    basis = mk_basis(["x-1", "y-2"], XY, QQ, ORDER2)
    cert = certify_invariant(basis, phi, 2)
    assert cert.invariant
    assert cert.witnesses == ()
    assert cert.modulus == 2


def test_certify_point_fails_under_single_swap():
    phi, _ = swap_fixture()
    basis = mk_basis(["x-1", "y-2"], XY, QQ, ORDER2)
    cert = certify_invariant(basis, phi, 1)
    assert not cert.invariant
    reported = [(g.render(XY), nf.render(XY)) for g, nf in cert.witnesses]
    assert reported == [("x - 1", "1"), ("y - 2", "-1")]


def test_certify_target_line_witness():
    phi = mk_morphism(["t*x", "(1-t)*y"], XY, F2T)
    basis = mk_basis(["x+y-1"], XY, F2T, ORDER2)
    cert = certify_invariant(basis, phi, 1)
    assert not cert.invariant
    assert len(cert.witnesses) == 1
    generator, nf = cert.witnesses[0]
    assert generator.render(XY) == "x + y + 1"
    assert nf.render(XY) == "y + t + 1"
    assert nf == parse_polynomial("y + t + 1", XY, F2T)


def test_certify_validation():
    phi, _ = swap_fixture()
    basis = mk_basis(["x-1", "y-2"], XY, QQ, ORDER2)
    with pytest.raises(ValueError):
        certify_invariant(basis, phi, 0)
    other = mk_morphism(["y", "x"], XY, Field.prime(7))
    with pytest.raises(ValueError):
        certify_invariant(basis, other, 1)


def test_refine_swap_against_line():
    phi, start = swap_fixture()
    target = mk_basis(["x-1"], XY, QQ, ORDER2)
    session = Session(phi, start, 20)
    chain = closure_chain(session, 2, 0)
    frag = refine_case_split(session, target, chain)
    assert frag.modulus == 2
    assert frag.target_dimension == 1
    assert frag.flags == ()
    even, odd = frag.offsets

    # even class: a point inside the line, so the dimension drops and
    # the derived instance certifies all of it
    assert even.case == CASE_DIMENSION_DROP
    assert (even.closure_dimension, even.intersection_dimension) == (0, 0)
    child = even.child
    assert (child.stride, child.offset, child.horizon) == (2, 0, 10)
    assert sorted(child.returns) == list(range(10))
    assert len(child.progressions) == 1
    sub = child.progressions[0]
    assert (sub.modulus, sub.offset) == (1, 0)
    assert (sub.orbit_modulus, sub.orbit_offset) == (2, 0)
    assert sub.certificate.invariant
    assert [c.case for c in sub.case_split.offsets] == [CASE_CLOSURE_EQUALS_TARGET]
    assert len(child.residual) == 0

    # odd class: disjoint from the line, unit intersection, empty child
    assert odd.case == CASE_DIMENSION_DROP
    assert odd.intersection.is_unit_ideal
    assert odd.intersection_dimension == -1
    assert len(odd.child.returns) == 0
    assert odd.child.progressions == ()


def test_refine_depth_exhausted():
    phi, start = swap_fixture()
    target = mk_basis(["x-1"], XY, QQ, ORDER2)
    session = Session(phi, start, 20, depth_limit=0)
    chain = closure_chain(session, 2, 0)
    frag = refine_case_split(session, target, chain)
    assert [c.case for c in frag.offsets] == [CASE_DEPTH_EXHAUSTED] * 2
    assert all(c.child is None for c in frag.offsets)
    assert all(FLAG_DEPTH in c.flags for c in frag.offsets)
    assert frag.flags == (FLAG_DEPTH,)


def test_refine_closure_equal_to_target():
    phi, start = swap_fixture()
    target = mk_basis(["x-1", "y-2"], XY, QQ, ORDER2)
    session = Session(phi, start, 20)
    chain = closure_chain(session, 2, 0)
    frag = refine_case_split(session, target, chain)
    even, odd = frag.offsets
    assert even.case == CASE_CLOSURE_EQUALS_TARGET
    assert even.child is None
    assert odd.case == CASE_DIMENSION_DROP
    assert odd.intersection.is_unit_ideal


def test_refine_equal_dimension_distinct_ideals():
    # vertical shift: closure of the orbit is the axis x = 0, the
    # target x^2 = x is a pair of lines of the same dimension
    phi = mk_morphism(["x", "y+1"], XY, QQ)
    start = (QQ.from_int(0), QQ.from_int(0))
    target = mk_basis(["x^2-x"], XY, QQ, ORDER2)
    session = Session(phi, start, 30)
    chain = closure_chain(session, 1, 0)
    assert chain.entries[0].ideal.render(XY) == ("x",)
    assert chain.entries[0].dimension == 1
    frag = refine_case_split(session, target, chain)
    case = frag.offsets[0]
    assert frag.target_dimension == 1
    assert case.case == CASE_IRREDUCIBILITY_UNVERIFIED
    assert FLAG_IRREDUCIBILITY in case.flags
    assert FLAG_IRREDUCIBILITY in frag.flags
    assert case.child is None


def test_refine_flags_from_hand_built_chain():
    phi, start = swap_fixture()
    target = mk_basis(["x-1"], XY, QQ, ORDER2)
    point = mk_basis(["x-1", "y-2"], XY, QQ, ORDER2)
    zero = ReducedGroebnerBasis(ORDER2, (), 2, QQ)
    chain = ClosureChain(2, 4, (
        ClosureEntry(0, point, 0, 4, True),
        ClosureEntry(1, zero, 2, 8, False),
    ))
    frag = refine_case_split(Session(phi, start, 20), target, chain)
    assert FLAG_DIMENSION_INCREASE in frag.flags
    unstable = frag.offsets[1]
    assert FLAG_UNSTABILIZED in unstable.flags
    assert unstable.case == CASE_IRREDUCIBILITY_UNVERIFIED


def test_random_chain_generators_vanish_on_samples():
    rng = random.Random(11)
    field = Field.prime(7)
    for _ in range(25):
        components = []
        for _ in range(2):
            terms = {}
            for _ in range(rng.randrange(1, 4)):
                mono = (rng.randrange(3), rng.randrange(3))
                if sum(mono) > 2:
                    mono = (mono[0] % 2, mono[1] % 2)
                terms[mono] = field.from_int(rng.randrange(7))
            components.append(MultiPoly.from_terms(field, 2, terms.items()))
        phi = Morphism(components)
        start = (field.from_int(rng.randrange(7)), field.from_int(rng.randrange(7)))
        modulus = rng.randrange(1, 4)
        session = Session(phi, start, 20)
        cache = session.cache
        chain = closure_chain(session, modulus, 0)
        for entry in chain.entries:
            assert 0 <= entry.dimension <= 2
            for g in entry.ideal.generators:
                for k in range(entry.samples_used):
                    point = cache.point(modulus * k + entry.offset)
                    assert g.evaluate(point).is_zero()
