"""Zariski closures of sampled sub-orbits and periodicity certificates.

For a progression of iterate indices a*k + j, the closure ideal is
approximated from below: take the ideal generated by the polynomials
of total degree at most a cap that vanish on the first m sampled
points (hypersurfaces of unbounded degree say nothing stable about an
infinite orbit), and double m until the basis J_m vanishes on the next
m samples or the sample budget runs out.  That check is exact: J_2m ⊆
J_m since the first m points are among the 2m, and J_m ⊆ J_2m when J_m
vanishes on the new ones, so the walk on 2m points is never made.  The
Buchberger-Moller walk stops at the cap, so no generator above it is
ever computed.  The final basis always vanishes on every sampled point;
the ``stabilized`` flag records whether the doubling settled.  This
module records such outcomes as facts and case codes; the report
derives its flags and notes from them.

Every entry point takes a :class:`Session`: the run's morphism, start
point and horizon, its :class:`AnalysisParams`, and a per-run memo.  A
closure depends only on its (stride, offset) and those settings, so
the session samples each one once, however often the top-level chains
and the recursive case split reach it again.

A closure chain walks the offsets of one progression class; along the
true chain the closure dimensions cannot increase, so a recorded
increase marks sampling noise.  :func:`certify_invariant` checks
algebraically that a subvariety W maps into itself under the a-th
iterate, composing phi a times modulo I(W), so for finite W the work
is linear in a.  :func:`refine_case_split` turns chain-versus-target
comparisons into either certified whole progressions, derived
sub-instances analyzed recursively, or fallbacks recorded by case code.
A class lies in V when its closure W has I(V) ⊆ I(W); reduced bases are
unique, so that is I(V) + I(W) = I(W), read off the sum the dimension
comparison already computes.

The run itself is the root :class:`SubInstance` (stride 1, offset 0),
and one function builds every instance's progressions and decomposition:
the root's under the run's settings, a derived one's under the defaults
for its own horizon.  It calls its stages through a table of names, this
module's for derived instances and the experiment module's for the root,
so a report treats every depth of the recursion alike.
"""

from __future__ import annotations

from typing import NamedTuple

from .density import (
    DensityProfile,
    Progression,
    _search_bounds,
    _window_lengths,
    ceil_sqrt,
    decompose_return_set,
    detect_progressions,
)
from .fields import _require_int
from .ideals import (
    ReducedGroebnerBasis,
    ideal_dimension,
    ideal_equal,
    ideal_sum,
    normal_form,
    vanishing_ideal,
)
from .multipoly import MonomialOrder, MultiPoly, _require_polys
from .orbits import Morphism, OrbitCache, ReturnSet, _vanishing_test

__all__ = [
    "AnalysisParams",
    "CASE_CLOSURE_EQUALS_TARGET",
    "CASE_CLOSURE_IN_TARGET",
    "CASE_DEPTH_EXHAUSTED",
    "CASE_DIMENSION_DROP",
    "CASE_IRREDUCIBILITY_UNVERIFIED",
    "CaseSplitFragment",
    "ClosureChain",
    "ClosureEntry",
    "OffsetCase",
    "PeriodicityCertificate",
    "Session",
    "SubInstance",
    "SubProgression",
    "certify_invariant",
    "closure_chain",
    "refine_case_split",
]

CASE_DIMENSION_DROP = "dimension-drop"
CASE_CLOSURE_EQUALS_TARGET = "closure-equals-target"
CASE_CLOSURE_IN_TARGET = "closure-in-target"
CASE_IRREDUCIBILITY_UNVERIFIED = "irreducibility-unverified"
CASE_DEPTH_EXHAUSTED = "depth-exhausted"

class ClosureEntry(NamedTuple):
    """Sampled closure of one offset class inside a progression."""

    offset: int
    ideal: ReducedGroebnerBasis
    dimension: int
    samples_used: int
    stabilized: bool


class ClosureChain(NamedTuple):
    """Closure entries for the offsets of one progression."""

    modulus: int
    degree_cap: int
    entries: tuple

    @property
    def dimension_nonincreasing(self) -> bool:
        dims = [e.dimension for e in self.entries]
        return all(a >= b for a, b in zip(dims, dims[1:]))


class PeriodicityCertificate(NamedTuple):
    """Outcome of the self-map containment check for one subvariety.

    ``invariant`` is True exactly when every generator of the checked
    basis, composed with the ``modulus``-th iterate, reduces to zero
    against it; ``witnesses`` pairs each failing generator with its
    nonzero normal form.
    """

    modulus: int
    invariant: bool
    witnesses: tuple


class OffsetCase(NamedTuple):
    """Resolution of one offset class against the target subvariety; the
    class's offset and closure dimension live on the parallel chain entry."""

    intersection_dimension: int
    intersection: ReducedGroebnerBasis
    case: str
    child: "SubInstance | None"


class CaseSplitFragment(NamedTuple):
    """Per-offset case resolutions for one progression's chain; ``offsets``
    runs parallel to the chain's entries, which hold offsets and dimensions."""

    target_dimension: int
    offsets: tuple


class SubInstance(NamedTuple):
    """Analysis along one offset class, in its own index space.

    Instance index l corresponds to orbit index stride * l + offset;
    the return set, progressions and residual all live in l-space.
    The instance's horizon is ``returns.horizon``, the number of such
    indices below the run's.  The run is the root instance, with
    stride 1 and offset 0.
    """

    stride: int
    offset: int
    returns: ReturnSet
    progressions: tuple
    residual: ReturnSet
    residual_profile: DensityProfile


class SubProgression(NamedTuple):
    """Progression of an instance, with its closure chain.

    ``modulus`` and ``offset`` live in the instance's index space.  The
    orbit frame is the chain's modulus and first offset; at the root
    instance the two frames coincide.
    """

    modulus: int
    offset: int
    chain: ClosureChain
    certificate: PeriodicityCertificate
    case_split: CaseSplitFragment


class AnalysisParams(NamedTuple):
    """One run's analysis settings, each defaulted on its field.

    ``a_max``, ``m_min``, ``tail_start`` and ``window_lengths`` bound
    the progression search and the density profiles; ``degree_cap``,
    ``initial_samples``, ``sample_budget`` and ``depth_limit`` bound
    closure sampling and the case split.  ``a_max`` and
    ``window_lengths`` default to None, meaning derived from the
    horizon; a parsed experiment holds both resolved.  The record
    checks itself with :meth:`resolved`, which reads the search and
    window ranges from density's own checks, so an experiment file, a
    :class:`Session` and the density functions reject the same values
    with the same text.
    """

    a_max: int | None = None
    m_min: int = 5
    tail_start: int = 0
    degree_cap: int = 4
    initial_samples: int = 4
    sample_budget: int = 64
    depth_limit: int = 3
    window_lengths: tuple | None = None

    def resolved(self, horizon: int) -> "AnalysisParams":
        """The record checked against the horizon N: a None ``a_max`` or
        ``window_lengths`` derived from N, the lengths sorted without repeats.

        Fields are checked in field order, each integer against its
        minimum (``sample_budget``'s is ``initial_samples``), ``tail_start``
        below N and the window lengths, a nonempty list or tuple, in [1, N];
        the first failure raises ValueError naming the field.
        """
        _require_int(horizon, "N", 1)
        params = self._replace(a_max=ceil_sqrt(horizon)) if self.a_max is None else self
        _search_bounds(params.a_max, params.m_min, params.tail_start, horizon)
        # The closure settings, in field order, each against its minimum.
        for name, minimum in zip(self._fields[3:7], (1, 2, params.initial_samples, 0)):
            _require_int(getattr(params, name), name, minimum)
        if not isinstance(params.window_lengths, (list, tuple, type(None))):
            raise ValueError("window_lengths must be a nonempty list of integers")
        return params._replace(window_lengths=_window_lengths(params.window_lengths, horizon))


class Session:
    """One run's orbit, horizon and analysis settings, plus its closure memo.

    The run's values are ``phi``, ``start`` and ``horizon``; ``analysis``
    is its :class:`AnalysisParams`, whose progression threshold, closure
    degree cap, doubling-loop sample counts and case-split depth the
    closure code reads.  Construction checks those settings with
    :meth:`AnalysisParams.resolved`, but keeps the record as given, and
    derives the shared :class:`OrbitCache` (which checks ``start``), the
    grevlex ``order`` and ``memo``, which maps (stride, offset) to the
    :class:`ClosureEntry` of that sub-orbit.  A closure depends on
    nothing else, so each one is sampled at most once per session;
    the memo only ever holds closures the session sampled itself.
    ``certificates`` likewise maps a chain's (modulus, base offset),
    which fix its base closure, to that closure's
    :class:`PeriodicityCertificate`, so :meth:`certificate` certifies
    each one once.  Sessions compare by identity.
    """

    __slots__ = ("phi", "start", "horizon", "analysis", "cache", "order", "memo", "certificates")

    def __init__(self, phi: Morphism, start: tuple, horizon: int, analysis=AnalysisParams()):
        analysis.resolved(horizon)
        self.phi = phi
        self.start = start
        self.horizon = horizon
        self.analysis = analysis
        self.cache = OrbitCache(phi, start)
        self.order = MonomialOrder.grevlex(phi.num_vars)
        self.memo = {}
        self.certificates = {}

    def __repr__(self):
        return (
            f"Session(phi={self.phi!r}, start={self.start!r}, horizon={self.horizon!r}, "
            f"analysis={self.analysis!r})"
        )

    def certificate(self, chain: ClosureChain, certify) -> PeriodicityCertificate:
        """The certificate of the chain's base closure under its modulus,
        from ``certify`` (:func:`certify_invariant`'s signature) the
        first time the session meets that (modulus, base offset)."""
        base = chain.entries[0]
        key = (chain.modulus, base.offset)
        certificate = self.certificates.get(key)
        if certificate is None:
            certificate = certify(base.ideal, self.phi, chain.modulus)
            self.certificates[key] = certificate
        return certificate


def _closure(session: Session, stride: int, offset: int) -> ClosureEntry:
    """Memoized sampled closure of {phi^(stride*k + offset)(start)}; each
    sample's Buchberger-Moller walk stops at the session's ``degree_cap``.

    The basis J_m of m samples is evaluated at samples m to min(2m,
    budget) - 1.  Where it vanishes it is also the basis of that count
    (J_2m ⊆ J_m ⊆ J_2m) and the closure is stabilized; otherwise that
    count is walked, and a walk at the budget ends unstabilized.
    """
    entry = session.memo.get((stride, offset))
    if entry is not None:
        return entry
    cache, params = session.cache, session.analysis
    samples, budget = params.initial_samples, params.sample_budget
    stabilized = False
    while not stabilized:
        points = [cache.point(stride * k + offset) for k in range(samples)]
        basis = vanishing_ideal(points, session.order, params.degree_cap)
        if samples >= budget:
            break
        more = min(samples * 2, budget)
        on = _vanishing_test(basis.generators, session.phi.field)
        new = (cache._points[cache.index(stride * k + offset)] for k in range(samples, more))
        stabilized = all(map(on, new))
        samples = more
    entry = ClosureEntry(offset, basis, ideal_dimension(basis), samples, stabilized)
    session.memo[(stride, offset)] = entry
    return entry


def closure_chain(session: Session, modulus: int, base_offset: int, step: int = 1) -> ClosureChain:
    """Closures of the offset classes base_offset + i, i < modulus a
    multiple of ``step``, which a derived instance sets to its stride.

    Along the true chain each closure maps onto a dense subset of the
    next, so dimensions cannot increase; check
    ``dimension_nonincreasing`` to see whether the samples honor that.
    """
    Progression(modulus, base_offset)  # validates the frame
    _require_int(step, "step", 1)
    offsets = range(base_offset, base_offset + modulus, step)
    entries = tuple(_closure(session, modulus, offset) for offset in offsets)
    return ClosureChain(modulus, session.analysis.degree_cap, entries)


def certify_invariant(
    basis: ReducedGroebnerBasis, phi: Morphism, modulus: int
) -> PeriodicityCertificate:
    """Check that the subvariety of the basis maps into itself under
    the modulus-th iterate of phi.

    The coordinate images of phi^modulus are built in R/I one step at a
    time, taking normal forms after each substitution into phi.  Since
    reduction is a ring map onto R/I and normal forms are canonical, a
    generator g evaluated at those images reduces to exactly the normal
    form of g(phi^modulus); a nonzero form is a failure witness.  For a
    finite point set every image has degree below the point count, so
    the work is linear in modulus.  Membership is checked in the ideal
    as given, which for the vanishing ideals produced here (finite
    point sets) is exact containment.
    """
    _require_int(modulus, "modulus", 1)
    _require_polys(phi.components, "components", basis.field, basis.num_vars)
    witnesses = []
    if basis.generators:
        images = tuple(
            normal_form(MultiPoly.variable(phi.field, phi.num_vars, i), basis)
            for i in range(phi.num_vars)
        )
        for _ in range(modulus):
            images = tuple(
                normal_form(c.substitute(images), basis) for c in phi.components
            )
        for g in basis.generators:
            nf = normal_form(g.substitute(images), basis)
            if not nf.is_zero():
                witnesses.append((g, nf))
    return PeriodicityCertificate(modulus, not witnesses, tuple(witnesses))


def refine_case_split(
    session: Session, target: ReducedGroebnerBasis, chain: ClosureChain, depth: int | None = None
) -> CaseSplitFragment:
    """Resolve each offset class of a chain against the target variety.

    Per offset, with W the sampled closure and V the target: when
    dim(V ∩ W) < dim(V), the class descends to a derived instance (the
    modulus-fold iterate started at the class offset, against V ∩ W)
    analyzed recursively while ``depth`` levels remain, the session's
    ``depth_limit`` when None.  When the ideals of W and V agree, or
    I(V) ⊆ I(W), so that I(V) + I(W) is I(W) and W lies in V, the entire
    class is inside the return set.  Equal dimensions with W not inside
    V would need irreducibility of the target to conclude, so that
    outcome is only recorded by its case code.  The report
    derives its flags from the case codes, the entries' ``stabilized``
    and the chain's ``dimension_nonincreasing``.
    """
    if depth is None:
        depth = session.analysis.depth_limit
    target_dim = ideal_dimension(target)
    cases = []
    for entry in chain.entries:
        intersection = ideal_sum(target, entry.ideal)
        inter_dim = ideal_dimension(intersection)
        child = None
        if inter_dim < target_dim and depth > 0:
            case = CASE_DIMENSION_DROP
            child = _analyze_subinstance(
                session, intersection, chain.modulus, entry.offset, depth - 1
            )
        elif inter_dim < target_dim:
            case = CASE_DEPTH_EXHAUSTED
        elif ideal_equal(entry.ideal, target):
            case = CASE_CLOSURE_EQUALS_TARGET
        elif ideal_equal(intersection, entry.ideal):
            case = CASE_CLOSURE_IN_TARGET
        else:
            case = CASE_IRREDUCIBILITY_UNVERIFIED
        cases.append(OffsetCase(inter_dim, intersection, case, child))
    return CaseSplitFragment(target_dim, tuple(cases))


def _analyze(session, target, returns, stride, offset, depth, params, names=globals()):
    """The instance of the given stride and offset whose return set is
    ``returns``, and its decomposition: progressions detected and
    decomposed under ``params``, each with its closure chain, certificate
    and case split at ``depth``.  Every stage is called through ``names``;
    the run passes the experiment module's, derived instances this one's."""
    progressions = names["detect_progressions"](
        returns, params.a_max, params.m_min, params.tail_start
    )
    subs = []
    for prog in progressions:
        # The class prog.modulus * k + prog.offset in orbit indices.
        base = stride * prog.offset + offset
        chain = names["closure_chain"](session, stride * prog.modulus, base, stride)
        certificate = session.certificate(chain, names["certify_invariant"])
        fragment = names["refine_case_split"](session, target, chain, depth)
        subs.append(SubProgression(prog.modulus, prog.offset, chain, certificate, fragment))
    dec = names["decompose_return_set"](returns, progressions, params.window_lengths)
    instance = SubInstance(stride, offset, returns, tuple(subs), dec.residual, dec.residual_profile)
    return instance, dec


def _analyze_subinstance(session, target, stride, offset, depth) -> SubInstance:
    # Instance index l maps to orbit index stride * l + offset; the
    # derived horizon is the number of such indices below the original.
    count = Progression(stride, offset).count_below(session.horizon)
    if count == 0:
        empty = ReturnSet(0, ())
        return SubInstance(stride, offset, empty, (), empty, DensityProfile(0, ()))
    returns = session.cache.scan(target.generators, count, stride, offset)
    # The run's search bounds and windows are its own, not a derived instance's.
    params = session.analysis._replace(a_max=None, tail_start=0, window_lengths=None)
    return _analyze(session, target, returns, stride, offset, depth, params.resolved(count))[0]
