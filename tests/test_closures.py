import random

import pytest

import dmlab.closures
from census import instance
from dmlab import (
    AnalysisParams,
    DensityProfile,
    Field,
    Morphism,
    MonomialOrder,
    MultiPoly,
    OrbitCache,
    ReducedGroebnerBasis,
    Session,
    buchberger,
    certify_invariant,
    closure_chain,
    experiment_from_dict,
    ideal_dimension,
    ideal_equal,
    normal_form,
    orbit_prefix,
    parse_polynomial,
    refine_case_split,
    run_experiment,
    vanishing_ideal,
)
from dmlab.closures import (
    CASE_CLOSURE_EQUALS_TARGET,
    CASE_CLOSURE_IN_TARGET,
    CASE_DEPTH_EXHAUSTED,
    CASE_DIMENSION_DROP,
    CASE_IRREDUCIBILITY_UNVERIFIED,
    ClosureChain,
    ClosureEntry,
    _closure,
)
from reference_walk import reference_vanishing_ideal

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
    entry = closure_chain(Session(phi, start, 20), 2, 0).entries[0]
    basis, stabilized = entry.ideal, entry.stabilized
    assert basis.render(XY) == ("x - 1", "y - 2")
    assert stabilized
    assert ideal_dimension(basis) == 0


def test_whole_orbit_closure_two_points():
    phi, start = swap_fixture()
    entry = closure_chain(Session(phi, start, 20), 1, 0).entries[0]
    basis, stabilized = entry.ideal, entry.stabilized
    assert basis.render(XY) == ("y^2 - 3*y + 2", "x + y - 3")
    assert stabilized
    assert ideal_dimension(basis) == 0
    for pt in (start, (QQ.from_int(2), QQ.from_int(1))):
        assert all(g.evaluate(pt).is_zero() for g in basis.generators)


def test_infinite_orbit_closure_fills_the_line():
    # x -> 2x over QQ never repeats, so every hypersurface through the
    # samples blows past the degree cap and the ideal collapses to zero.
    phi = mk_morphism(["2*x"], ("x",), QQ)
    entry = closure_chain(Session(phi, (QQ.from_int(1),), 20), 1, 0).entries[0]
    basis, stabilized = entry.ideal, entry.stabilized
    assert basis.is_zero_ideal
    assert stabilized
    assert ideal_dimension(basis) == 1


def test_degree_cap_one_chain_sees_no_linear_relation():
    phi = mk_morphism(["t*x", "(1-t)*y"], XY, F2T)
    start = (F2T.one(), F2T.one())
    chain = closure_chain(Session(phi, start, 20, AnalysisParams(degree_cap=1)), 2, 1)
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
        phi, (QQ.from_int(0),), 20,
        AnalysisParams(degree_cap=4, initial_samples=4, sample_budget=8),
    )
    entry = closure_chain(session, 1, 0).entries[0]
    basis, stabilized = entry.ideal, entry.stabilized
    assert basis.is_zero_ideal
    assert not stabilized


def test_closure_parameter_validation():
    phi, start = swap_fixture()
    session = Session(phi, start, 20)
    with pytest.raises(ValueError):
        closure_chain(session, 0, 0)
    with pytest.raises(ValueError):
        closure_chain(session, 1, -1)
    with pytest.raises(ValueError):
        Session(phi, start, 20, AnalysisParams(initial_samples=1))
    with pytest.raises(ValueError):
        Session(phi, start, 20, AnalysisParams(initial_samples=4, sample_budget=3))
    with pytest.raises(ValueError):
        Session(phi, start, 20, AnalysisParams(degree_cap=0))
    with pytest.raises(ValueError, match="m_min must be at least 2"):
        Session(phi, start, 20, AnalysisParams(m_min=1))
    with pytest.raises(ValueError, match="depth_limit must be at least 0"):
        Session(phi, start, 20, AnalysisParams(depth_limit=-1))
    with pytest.raises(ValueError):
        closure_chain(session, 0, 0)
    with pytest.raises(ValueError):
        closure_chain(session, 2, -1)
    # a budget below the default four initial samples
    with pytest.raises(ValueError):
        Session(phi, start, 20, AnalysisParams(sample_budget=2))


def _doubling_closure(session, stride, offset):
    # The closure loop before stability was proved by evaluation: double
    # the samples until two consecutive walks give the same basis.
    order, params = session.order, session.analysis
    samples, previous = params.initial_samples, None
    while True:
        points = [session.cache.point(stride * k + offset) for k in range(samples)]
        basis = vanishing_ideal(points, order, params.degree_cap)
        stabilized = previous is not None and ideal_equal(basis, previous)
        if stabilized or samples >= params.sample_budget:
            break
        previous = basis
        samples = min(samples * 2, params.sample_budget)
    return ClosureEntry(offset, basis, ideal_dimension(basis), samples, stabilized)


# name -> (map, variables, field, start, settings, stride, and the
# (samples_used, stabilized) of the offset-0 closure).
DOUBLING_EDGES = {
    "one walk at the budget": (
        ["y", "x"], XY, QQ, (1, 2),
        AnalysisParams(initial_samples=4, sample_budget=4), 1, (4, False),
    ),
    "budget 3 -> 10, confirmed at the budget": (
        ["x+1"], ("x",), QQ, (0,),
        AnalysisParams(initial_samples=3, sample_budget=10), 1, (10, True),
    ),
    "budget 3 -> 10, unconfirmed": (
        ["x+1", "y+x"], XY, QQ, (0, 0),
        AnalysisParams(initial_samples=3, sample_budget=10), 1, (10, False),
    ),
    "degree cap 1": (
        ["t*x", "(1-t)*y"], XY, F2T, (1, 1), AnalysisParams(degree_cap=1), 2, (8, True),
    ),
    "out of budget": (
        ["x+1"], ("x",), QQ, (0,),
        AnalysisParams(initial_samples=4, sample_budget=8), 1, (8, False),
    ),
    # (n, n(n-1)(n-2)): the line y = 0 through the first two samples
    # passes through the third but not the fourth
    "a later new sample off the basis": (
        ["x+1", "y+3*x^2-3*x"], XY, QQ, (0, 0),
        AnalysisParams(degree_cap=1, initial_samples=2), 1, (8, True),
    ),
    # period 6 after 3 steps: 16 samples of stride 7 run far past the cycle
    "samples wrap the cycle": (
        ["x*y+1", "x+y"], XY, Field.prime(5), (1, 2),
        AnalysisParams(initial_samples=2, sample_budget=40), 7, (16, True),
    ),
}


def _edge_session(name):
    sources, names, field, start, params, stride, _ = DOUBLING_EDGES[name]
    phi = mk_morphism(sources, names, field)
    return Session(phi, tuple(field.from_int(c) for c in start), 400, params), stride


@pytest.mark.parametrize("name", list(DOUBLING_EDGES))
def test_closure_matches_the_doubling_loop_on_edge_settings(name):
    session, stride = _edge_session(name)
    for offset in range(stride):
        entry = _closure(session, stride, offset)
        assert entry == _doubling_closure(session, stride, offset)
    first = session.memo[stride, 0]
    assert (first.samples_used, first.stabilized) == DOUBLING_EDGES[name][-1]


def test_closure_matches_the_doubling_loop_on_the_census(monkeypatch):
    # Every closure the pipeline samples on the 40 instances of
    # tests/census.py 40 7, at the top level and in derived instances.
    # Each of them settles at the first check, 4 samples confirmed on 8;
    # the edge settings above reach the later branches.
    sessions = []
    original = dmlab.closures._closure

    def record(session, stride, offset):
        sessions.append(session)
        return original(session, stride, offset)

    monkeypatch.setattr(dmlab.closures, "_closure", record)
    rng = random.Random(7)
    closures = 0
    for _ in range(40):
        sessions.clear()
        run_experiment(experiment_from_dict(instance(rng)))
        for session in set(sessions):
            for (stride, offset), entry in session.memo.items():
                assert entry == _doubling_closure(session, stride, offset)
                closures += 1
    assert closures >= 800


def _walk_counts(params, entry):
    # m_0 = initial_samples < ... < m_k = samples_used, each the double of
    # the one before up to the budget.
    counts = [params.initial_samples]
    while counts[-1] < entry.samples_used:
        counts.append(min(2 * counts[-1], params.sample_budget))
    assert counts[-1] == entry.samples_used
    return counts


def test_closure_walks_each_sample_count_but_the_confirmed_one(monkeypatch):
    # A stabilized closure walks m_0 .. m_(k-1) and confirms m_k by
    # evaluation; an unstabilized one also walks m_k.
    walks = []
    original = dmlab.closures.vanishing_ideal

    def record(points, order, cap):
        walks.append(len(points))
        return original(points, order, cap)

    monkeypatch.setattr(dmlab.closures, "vanishing_ideal", record)
    for name in DOUBLING_EDGES:
        session, stride = _edge_session(name)
        for offset in range(stride):
            walks.clear()
            entry = _closure(session, stride, offset)
            counts = _walk_counts(session.analysis, entry)
            assert walks == (counts[:-1] if entry.stabilized else counts)
    # Over GF(7)(t) the orbit (t^n, n) outgrows every cubic at 16 samples;
    # the 32-sample walk the old loop made to confirm that is skipped.
    f7t = Field.rational_functions(7)
    phi = mk_morphism(["t*x", "y+1"], XY, f7t)
    session = Session(phi, (f7t.one(), f7t.zero()), 400, AnalysisParams(degree_cap=3))
    walks.clear()
    entry = _closure(session, 1, 0)
    assert entry == ClosureEntry(0, ReducedGroebnerBasis(ORDER2, (), 2, f7t), 2, 32, True)
    assert walks == [4, 8, 16]


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


def _reference_certify_invariant(basis, phi, modulus):
    # The a-fold pullback: substitute phi into each generator a times,
    # reduce once at the end.  Exact, but degree deg(phi)^a before the
    # reduction, so only small cases are affordable.
    witnesses = []
    for g in basis.generators:
        pulled = g
        for _ in range(modulus):
            pulled = pulled.substitute(phi.components)
        nf = normal_form(pulled, basis)
        if not nf.is_zero():
            witnesses.append((g, nf))
    return not witnesses, tuple(witnesses)


def _random_coefficient(rng, field):
    if field.has_generator:
        num = [rng.randrange(2) for _ in range(rng.randrange(1, 3))]
        den = [rng.randrange(2) for _ in range(rng.randrange(0, 2))] + [1]
        return field.from_coefficients(num, den)
    return field.from_int(rng.randrange(-3, 4))


def _random_poly(rng, field, num_vars, degree):
    terms = {}
    for _ in range(rng.randrange(1, 4)):
        mono = [0] * num_vars
        for _ in range(rng.randrange(degree + 1)):
            mono[rng.randrange(num_vars)] += 1
        terms[tuple(mono)] = _random_coefficient(rng, field)
    return MultiPoly.from_terms(field, num_vars, terms.items())


def _random_point(rng, field, num_vars):
    return tuple(_random_coefficient(rng, field) for _ in range(num_vars))


def test_certify_matches_a_fold_pullback_on_random_cases():
    rng = random.Random(2024)
    fields = (Field.prime(101), QQ, Field.prime(2), F2T)
    kinds = {"invariant": 0, "witnessed": 0}
    for field in fields:
        for _ in range(10):
            num_vars = rng.randrange(1, 4)
            order = MonomialOrder.grevlex(num_vars)
            phi = Morphism(
                [_random_poly(rng, field, num_vars, 2) for _ in range(num_vars)]
            )
            start = _random_point(rng, field, num_vars)
            bases = (
                vanishing_ideal(
                    [_random_point(rng, field, num_vars) for _ in range(rng.randrange(1, 4))],
                    order,
                ),
                vanishing_ideal(orbit_prefix(phi, start, rng.randrange(1, 5)), order),
                buchberger(
                    [_random_poly(rng, field, num_vars, 2) for _ in range(rng.randrange(1, 3))],
                    order,
                ),
            )
            for basis in bases:
                for a in (1, 2, 3):
                    cert = certify_invariant(basis, phi, a)
                    expected = _reference_certify_invariant(basis, phi, a)
                    assert (cert.invariant, cert.witnesses) == expected
                    if basis.generators and not basis.is_unit_ideal:
                        kinds["invariant" if cert.invariant else "witnessed"] += 1
    assert kinds["invariant"] >= 20
    assert kinds["witnessed"] >= 20


def test_certify_work_is_linear_in_the_iterate_count(monkeypatch):
    # phi^78(87, 93) lies on a 6-cycle of (x^2+y, x*y+1) over GF(101),
    # so its ideal is phi^a-invariant exactly when 6 divides a.  Pulling
    # a generator back through phi^60 would have degree 2^60.
    field = Field.prime(101)
    phi = mk_morphism(["x^2+y", "x*y+1"], XY, field)
    point = OrbitCache(phi, (field.from_int(87), field.from_int(93))).point(78)
    at_point = vanishing_ideal([point], ORDER2)
    for a in range(1, 61):
        assert certify_invariant(at_point, phi, a).invariant == (a % 6 == 0)
    cycle = vanishing_ideal(orbit_prefix(phi, point, 6), ORDER2)
    assert ideal_dimension(cycle) == 0
    for a in range(1, 13):
        assert certify_invariant(cycle, phi, a).invariant

    degrees = []
    original = MultiPoly.substitute

    def record(self, images):
        out = original(self, images)
        degrees.append(out.total_degree())
        return out

    monkeypatch.setattr(MultiPoly, "substitute", record)
    assert certify_invariant(at_point, phi, 6).invariant
    assert degrees
    assert max(degrees) <= 2


def test_refine_swap_against_line():
    phi, start = swap_fixture()
    target = mk_basis(["x-1"], XY, QQ, ORDER2)
    session = Session(phi, start, 20)
    chain = closure_chain(session, 2, 0)
    frag = refine_case_split(session, target, chain)
    assert frag.target_dimension == 1
    assert chain.dimension_nonincreasing
    assert all(e.stabilized for e in chain.entries)
    assert len(frag.offsets) == len(chain.entries) == 2
    even, odd = frag.offsets

    # even class: a point inside the line, so the dimension drops and
    # the derived instance certifies all of it
    assert even.case == CASE_DIMENSION_DROP
    assert (chain.entries[0].dimension, even.intersection_dimension) == (0, 0)
    child = even.child
    assert (child.stride, child.offset, child.returns.horizon) == (2, 0, 10)
    assert sorted(child.returns) == list(range(10))
    assert len(child.progressions) == 1
    sub = child.progressions[0]
    assert (sub.modulus, sub.offset) == (1, 0)
    assert (sub.chain.modulus, sub.chain.entries[0].offset) == (2, 0)
    assert sub.certificate.invariant
    assert [c.case for c in sub.case_split.offsets] == [CASE_CLOSURE_EQUALS_TARGET]
    assert len(child.residual) == 0

    # odd class: disjoint from the line, unit intersection, empty child
    assert odd.case == CASE_DIMENSION_DROP
    assert odd.intersection.is_unit_ideal
    assert odd.intersection_dimension == -1
    assert len(odd.child.returns) == 0
    assert odd.child.progressions == ()


def test_refine_depth_argument_overrides_the_session_limit():
    phi, start = swap_fixture()
    target = mk_basis(["x-1"], XY, QQ, ORDER2)
    session = Session(phi, start, 20)
    chain = closure_chain(session, 2, 0)
    frag = refine_case_split(session, target, chain, 0)
    assert [c.case for c in frag.offsets] == [CASE_DEPTH_EXHAUSTED] * 2
    assert [c.child for c in frag.offsets] == [None, None]
    assert refine_case_split(session, target, chain, 3) == refine_case_split(session, target, chain)


def test_chain_step_walks_every_step_th_class():
    # A derived instance of stride 2 walks its progression 2l + 0 as the
    # orbit classes 4k + 1 and 4k + 3 when it starts at orbit offset 1.
    phi, start = swap_fixture()
    session = Session(phi, start, 20)
    chain = closure_chain(session, 4, 1, 2)
    assert chain.modulus == 4
    assert [e.offset for e in chain.entries] == [1, 3]
    assert chain.entries == closure_chain(session, 4, 1).entries[::2]
    for step in (0, -2):
        with pytest.raises(ValueError, match="step must be at least 1"):
            closure_chain(session, 4, 1, step)


def test_refine_chain_past_the_horizon():
    # Offsets 20 and 21 lie at or past the horizon 20, so both derived
    # instances have no indices at all.
    phi, start = swap_fixture()
    target = mk_basis(["x-1"], XY, QQ, ORDER2)
    session = Session(phi, start, 20)
    chain = closure_chain(session, 2, 20)
    frag = refine_case_split(session, target, chain)
    assert [c.case for c in frag.offsets] == [CASE_DIMENSION_DROP] * 2
    for entry, case in zip(chain.entries, frag.offsets, strict=True):
        child = case.child
        assert (child.stride, child.offset) == (2, entry.offset)
        assert child.returns.horizon == 0
        assert len(child.returns) == 0 and list(child.returns) == []
        assert child.progressions == ()
        assert child.residual.horizon == 0 and len(child.residual) == 0
        assert child.residual_profile == DensityProfile(0, ())


def test_refine_depth_exhausted():
    phi, start = swap_fixture()
    target = mk_basis(["x-1"], XY, QQ, ORDER2)
    session = Session(phi, start, 20, AnalysisParams(depth_limit=0))
    chain = closure_chain(session, 2, 0)
    frag = refine_case_split(session, target, chain)
    assert [c.case for c in frag.offsets] == [CASE_DEPTH_EXHAUSTED] * 2
    assert all(c.child is None for c in frag.offsets)
    assert chain.dimension_nonincreasing
    assert all(e.stabilized for e in chain.entries)


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
    # target x^2 = x is a pair of lines of the same dimension, one of
    # them the axis: I(V) + I(W) = I(W), so the class lies in V
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
    assert case.case == CASE_CLOSURE_IN_TARGET
    assert chain.entries[0].stabilized
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
    assert not chain.dimension_nonincreasing
    assert [e.stabilized for e in chain.entries] == [True, False]
    assert [c.case for c in frag.offsets] == [
        CASE_DIMENSION_DROP,
        CASE_IRREDUCIBILITY_UNVERIFIED,
    ]


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


def _reference_capped_ideal(points, order, cap):
    # The closure's old filter: the full vanishing ideal from the
    # FieldValue reference walk, then only the generators of degree at
    # most the cap, re-reduced.  Also says whether the cap dropped a
    # generator.
    raw = reference_vanishing_ideal(points, order)
    capped = [g for g in raw.generators if g.total_degree() <= cap]
    if len(capped) == len(raw.generators):
        return raw, False
    if capped:
        return buchberger(capped, order), True
    return ReducedGroebnerBasis(order, (), raw.num_vars, raw.field), True


def test_truncated_walk_matches_the_capped_filter_on_random_cases():
    rng = random.Random(0xCA9)
    fields = (Field.prime(101), Field.prime(7), Field.prime(2), QQ, F2T)
    truncated = 0
    for case in range(1000):
        field = fields[case % len(fields)]
        num_vars = rng.randint(1, 3)
        priority = list(range(num_vars))
        rng.shuffle(priority)
        order = MonomialOrder.grevlex(num_vars, priority)
        # Fewer points in more variables keep the full walk affordable.
        points = []
        for _ in range(rng.randint(1, (20, 14, 10)[num_vars - 1])):
            if points and rng.random() < 0.2:
                points.append(rng.choice(points))
            else:
                points.append(_random_point(rng, field, num_vars))
        cap = rng.randint(1, 4)
        expected, dropped = _reference_capped_ideal(points, order, cap)
        assert vanishing_ideal(points, order, cap).generators == expected.generators
        truncated += dropped
    assert truncated >= 200


def test_truncated_walk_evaluates_no_monomial_above_the_cap(monkeypatch):
    # The walk multiplies raw payloads through its field's ring, so the
    # products are counted there.
    points = [(QQ.from_int(k),) for k in range(32)]
    ring = type(QQ._ring)
    steps = []
    original = ring.dmul

    def record(self, a, b):
        steps.append(b)
        return original(self, a, b)

    monkeypatch.setattr(ring, "dmul", record)
    basis = vanishing_ideal(points, MonomialOrder.grevlex(1), max_degree=2)
    assert basis.is_zero_ideal
    # x and x^2 at each point, one product each; x^3 would add 32 more
    assert len(steps) == 64
