"""Zariski closures of sampled sub-orbits and periodicity certificates.

For a progression of iterate indices a*k + j, the closure ideal is
approximated from below: take the vanishing ideal of the first m
sampled points, discard generators whose total degree exceeds a cap
(hypersurfaces of unbounded degree say nothing stable about an
infinite orbit), regenerate a reduced basis, and double m until two
consecutive bases agree or the sample budget runs out.  The final
basis always vanishes on every sampled point; the ``stabilized`` flag
records whether the doubling settled, and every downstream claim that
leans on an unstabilized closure carries a flag saying so.

Every entry point takes a :class:`Session`: the run's morphism, start
point and horizon, its sampling settings, and a per-run memo.  A
closure depends only on its (stride, offset) and those settings, so
the session samples each one once, however often the top-level chains
and the recursive case split reach it again.

A closure chain walks the offsets of one progression class; along the
true chain the closure dimensions cannot increase, so a recorded
increase marks sampling noise.  :func:`certify_invariant` checks
algebraically that a subvariety maps into itself under the a-th
iterate, by reducing the a-fold pullback of each generator to normal
form.  :func:`refine_case_split` turns chain-versus-target dimension
comparisons into either certified whole progressions, derived
sub-instances analyzed recursively, or honestly flagged fallbacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .density import (
    DensityProfile,
    ceil_sqrt,
    decompose_return_set,
    detect_progressions,
)
from .ideals import (
    ReducedGroebnerBasis,
    buchberger,
    ideal_dimension,
    ideal_equal,
    ideal_sum,
    normal_form,
    vanishing_ideal,
)
from .multipoly import MonomialOrder
from .orbits import Morphism, OrbitCache, ReturnSet

__all__ = [
    "CASE_CLOSURE_EQUALS_TARGET",
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
    "orbit_closure_ideal",
    "refine_case_split",
]

CASE_DIMENSION_DROP = "dimension-drop"
CASE_CLOSURE_EQUALS_TARGET = "closure-equals-target"
CASE_IRREDUCIBILITY_UNVERIFIED = "irreducibility-unverified"
CASE_DEPTH_EXHAUSTED = "depth-exhausted"

FLAG_UNSTABILIZED = "closure sampling did not stabilize within the sample budget"
FLAG_DIMENSION_INCREASE = "closure dimension increased along the chain"
FLAG_IRREDUCIBILITY = (
    "equal dimensions but distinct ideals; irreducibility assumption unverified, "
    "keeping the empirical decomposition"
)
FLAG_DEPTH = "recursion depth exhausted; keeping the empirical decomposition"


@dataclass(frozen=True)
class ClosureEntry:
    """Sampled closure of one offset class inside a progression."""

    offset: int
    ideal: ReducedGroebnerBasis
    dimension: int
    samples_used: int
    stabilized: bool


@dataclass(frozen=True)
class ClosureChain:
    """Closure entries for the offsets of one progression."""

    modulus: int
    degree_cap: int
    entries: tuple

    @property
    def dimension_nonincreasing(self) -> bool:
        dims = [e.dimension for e in self.entries]
        return all(a >= b for a, b in zip(dims, dims[1:]))

    def entry_for(self, offset: int) -> ClosureEntry:
        for e in self.entries:
            if e.offset == offset:
                return e
        raise KeyError(f"no chain entry at offset {offset}")


@dataclass(frozen=True)
class PeriodicityCertificate:
    """Outcome of the self-map containment check for one subvariety.

    ``invariant`` is True exactly when every generator's pullback under
    the ``modulus``-fold iterate reduces to zero against the basis;
    ``witnesses`` pairs each failing generator with its nonzero normal
    form.
    """

    basis: ReducedGroebnerBasis
    modulus: int
    invariant: bool
    witnesses: tuple


@dataclass(frozen=True)
class OffsetCase:
    """Resolution of one offset class against the target subvariety."""

    offset: int
    closure_dimension: int
    intersection_dimension: int
    intersection: ReducedGroebnerBasis
    case: str
    child: "SubInstance | None"
    flags: tuple


@dataclass(frozen=True)
class CaseSplitFragment:
    """Per-offset case resolutions for one progression's chain."""

    modulus: int
    target_dimension: int
    offsets: tuple
    flags: tuple


@dataclass(frozen=True)
class SubInstance:
    """Derived analysis along one offset class, in its own index space.

    Instance index l corresponds to orbit index stride * l + offset;
    the return set, progressions and residual all live in l-space.
    """

    stride: int
    offset: int
    horizon: int
    returns: ReturnSet
    progressions: tuple
    residual: ReturnSet
    residual_profile: DensityProfile


@dataclass(frozen=True)
class SubProgression:
    """Certified progression of a sub-instance, with its orbit frame."""

    modulus: int
    offset: int
    orbit_modulus: int
    orbit_offset: int
    chain: ClosureChain
    certificate: PeriodicityCertificate
    case_split: CaseSplitFragment


@dataclass(frozen=True, eq=False)
class Session:
    """One run's orbit, horizon and closure settings, plus its closure memo.

    The run's values are ``phi``, ``start`` and ``horizon``; the
    settings are the progression threshold ``m_min``, the closure
    ``degree_cap``, the ``initial_samples``/``sample_budget`` of the
    doubling loop and the case split's ``depth_limit``.  Construction
    validates the settings and derives the shared :class:`OrbitCache`,
    the grevlex ``order`` and ``memo``, which maps (stride, offset) to
    the :class:`ClosureEntry` of that sub-orbit.  A closure depends on
    nothing else, so each one is sampled at most once per session;
    the memo only ever holds closures the session sampled itself.
    """

    phi: Morphism
    start: tuple
    horizon: int
    m_min: int = 5
    degree_cap: int = 4
    initial_samples: int = 4
    sample_budget: int = 64
    depth_limit: int = 3
    cache: OrbitCache = field(init=False, repr=False)
    order: MonomialOrder = field(init=False, repr=False)
    memo: dict = field(init=False, repr=False)

    def __post_init__(self):
        if self.initial_samples < 2:
            raise ValueError("need at least two initial samples")
        if self.sample_budget < self.initial_samples:
            raise ValueError("sample budget below the initial sample count")
        if self.degree_cap < 1:
            raise ValueError("degree cap must be positive")
        object.__setattr__(self, "cache", OrbitCache(self.phi, self.start))
        object.__setattr__(self, "order", MonomialOrder.grevlex(self.phi.num_vars))
        object.__setattr__(self, "memo", {})


def _check_progression(modulus: int, offset: int) -> None:
    if modulus < 1:
        raise ValueError("progression modulus must be positive")
    if offset < 0:
        raise ValueError("progression offset must be non-negative")


def _closure(session: Session, stride: int, offset: int) -> ClosureEntry:
    """Memoized sampled closure of {phi^(stride*k + offset)(start)}."""
    entry = session.memo.get((stride, offset))
    if entry is not None:
        return entry
    order = session.order
    samples = session.initial_samples
    previous = None
    while True:
        points = [session.cache.point(stride * k + offset) for k in range(samples)]
        raw = vanishing_ideal(points, order)
        capped = [g for g in raw.generators if g.total_degree() <= session.degree_cap]
        if len(capped) == len(raw.generators):
            basis = raw
        elif capped:
            basis = buchberger(capped, order)
        else:
            basis = ReducedGroebnerBasis(order, (), session.phi.num_vars, session.phi.field)
        stabilized = previous is not None and ideal_equal(basis, previous)
        if stabilized or samples >= session.sample_budget:
            break
        previous = basis
        samples = min(samples * 2, session.sample_budget)
    entry = ClosureEntry(offset, basis, ideal_dimension(basis), samples, stabilized)
    session.memo[(stride, offset)] = entry
    return entry


def orbit_closure_ideal(session: Session, modulus: int, offset: int):
    """Degree-capped vanishing ideal of the sampled sub-orbit
    {phi^(modulus*k + offset)(start) : k >= 0}.

    Returns (basis, stabilized).  The basis vanishes on every sampled
    point by construction; stabilization of the doubling loop is
    evidence, not proof, that it equals the ideal of the full
    sub-orbit closure.
    """
    _check_progression(modulus, offset)
    entry = _closure(session, modulus, offset)
    return entry.ideal, entry.stabilized


def _chain(session: Session, stride: int, offsets) -> ClosureChain:
    entries = tuple(_closure(session, stride, offset) for offset in offsets)
    return ClosureChain(stride, session.degree_cap, entries)


def closure_chain(session: Session, modulus: int, base_offset: int) -> ClosureChain:
    """Closures of all offset classes base_offset + i, i < modulus.

    Along the true chain each closure maps onto a dense subset of the
    next, so dimensions cannot increase; check
    ``dimension_nonincreasing`` to see whether the samples honor that.
    """
    _check_progression(modulus, base_offset)
    return _chain(session, modulus, range(base_offset, base_offset + modulus))


def certify_invariant(
    basis: ReducedGroebnerBasis, phi: Morphism, modulus: int
) -> PeriodicityCertificate:
    """Check that the subvariety of the basis maps into itself under
    the modulus-fold iterate of phi.

    Each generator is pulled back through phi one application at a
    time (repeated substitution, never symbolic self-composition) and
    reduced to normal form against the basis; a nonzero form is a
    failure witness.  Membership is checked in the ideal as given,
    which for the vanishing ideals produced here (finite point sets)
    is exact containment.
    """
    if modulus < 1:
        raise ValueError("iterate count must be positive")
    if basis.num_vars != phi.num_vars or basis.field != phi.field:
        raise ValueError("basis and morphism do not share a ring")
    witnesses = []
    for g in basis.generators:
        pulled = g
        for _ in range(modulus):
            pulled = pulled.substitute(phi.components)
        nf = normal_form(pulled, basis)
        if not nf.is_zero():
            witnesses.append((g, nf))
    return PeriodicityCertificate(basis, modulus, not witnesses, tuple(witnesses))


def refine_case_split(
    session: Session, target: ReducedGroebnerBasis, chain: ClosureChain
) -> CaseSplitFragment:
    """Resolve each offset class of a chain against the target variety.

    Per offset, with W the sampled closure and V the target: when
    dim(V ∩ W) < dim(V), the class descends to a derived instance (the
    modulus-fold iterate started at the class offset, against V ∩ W)
    analyzed recursively up to the session's ``depth_limit``; when the
    ideals of W and V agree, the entire class is inside the return set;
    equal dimensions with distinct ideals would need irreducibility of
    the target to conclude, so that outcome is only flagged.
    """
    return _case_split(session, target, chain, session.depth_limit)


def _case_split(session, target, chain, depth) -> CaseSplitFragment:
    target_dim = ideal_dimension(target)
    cases = []
    fragment_flags: list = []
    if not chain.dimension_nonincreasing:
        fragment_flags.append(FLAG_DIMENSION_INCREASE)
    for entry in chain.entries:
        flags = []
        if not entry.stabilized:
            flags.append(FLAG_UNSTABILIZED)
        intersection = ideal_sum(target, entry.ideal)
        inter_dim = ideal_dimension(intersection)
        child = None
        if inter_dim < target_dim:
            if depth > 0:
                case = CASE_DIMENSION_DROP
                child = _analyze_subinstance(
                    session, intersection, chain.modulus, entry.offset, depth - 1
                )
            else:
                case = CASE_DEPTH_EXHAUSTED
                flags.append(FLAG_DEPTH)
        elif ideal_equal(entry.ideal, target):
            case = CASE_CLOSURE_EQUALS_TARGET
        else:
            case = CASE_IRREDUCIBILITY_UNVERIFIED
            flags.append(FLAG_IRREDUCIBILITY)
        cases.append(
            OffsetCase(
                entry.offset,
                entry.dimension,
                inter_dim,
                intersection,
                case,
                child,
                tuple(flags),
            )
        )
        for f in flags:
            if f not in fragment_flags:
                fragment_flags.append(f)
    return CaseSplitFragment(chain.modulus, target_dim, tuple(cases), tuple(fragment_flags))


def _analyze_subinstance(session, target, stride, offset, depth) -> SubInstance:
    # Instance index l maps to orbit index stride * l + offset; the
    # derived horizon is the number of such indices below the original.
    horizon = session.horizon
    if offset >= horizon:
        count = 0
    else:
        count = (horizon - 1 - offset) // stride + 1
    if count == 0:
        empty = ReturnSet(0, ())
        return SubInstance(
            stride, offset, 0, empty, (), empty, DensityProfile(0, ())
        )
    gens = target.generators
    members = []
    for l in range(count):
        pt = session.cache.point(stride * l + offset)
        if all(g.evaluate(pt).is_zero() for g in gens):
            members.append(l)
    returns = ReturnSet(count, members)
    progressions = detect_progressions(returns, ceil_sqrt(count), m_min=session.m_min)
    subs = []
    for prog in progressions:
        orbit_modulus = stride * prog.modulus
        orbit_offsets = [
            stride * j + offset for j in range(prog.offset, prog.offset + prog.modulus)
        ]
        sub_chain = _chain(session, orbit_modulus, orbit_offsets)
        certificate = certify_invariant(
            sub_chain.entries[0].ideal, session.phi, orbit_modulus
        )
        fragment = _case_split(session, target, sub_chain, depth)
        subs.append(
            SubProgression(
                prog.modulus,
                prog.offset,
                orbit_modulus,
                stride * prog.offset + offset,
                sub_chain,
                certificate,
                fragment,
            )
        )
    decomposition = decompose_return_set(returns, progressions)
    return SubInstance(
        stride,
        offset,
        count,
        returns,
        tuple(subs),
        decomposition.residual,
        decomposition.residual_profile,
    )
