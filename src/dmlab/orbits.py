"""Forward orbits of polynomial self-maps on affine space.

A :class:`Morphism` bundles one polynomial per coordinate; applying it
to a point is componentwise evaluation, and the n-th iterate is n
applications in sequence (never symbolic composition, whose term count
can explode).  The orbit cache stores payload tuples (canonical, in the
field's ring); points leave it as ``FieldValue`` tuples.

:class:`OrbitCache` memoizes the orbit prefix of one (map, start)
pair so the scans in the density and closure layers never recompute an
iterate.  Over GF(p) every orbit is eventually periodic, and the cache
stops at the first repeated point: only preperiod + period iterates
are computed and stored, and later indices fold into the cycle.
:func:`detect_cycle` finds the preperiod and cycle length over a
finite field with Brent's algorithm, and :func:`return_set` collects
the iterate indices landing on a target subvariety.

One scan, :meth:`OrbitCache.scan`, produces every return set: the
run's, and each derived instance's, whose index l stands for orbit
index stride * l + offset.  It extends the cache first, so over GF(p)
the cycle is known before any test, and then tests each stored point
once by construction: past the preperiod, l and
l + period / gcd(period, stride) land on the same cycle point, so the
scan tests one period of l and writes the rest of the table by
repeating that block.  A :class:`ReturnSet` stores only its horizon
and a 0/1 membership table, ``flags``, which the density layer and the
CSV export read directly; its member indices are derived from the
table where they are read.

Long loops run compiled code.  Once the stored prefix reaches
``_COMPILE_AT`` (128) points, :meth:`OrbitCache.index` steps with one
:func:`~dmlab.multipoly._kernel` of the map's components, and a scan
that will test at least ``_COMPILE_AT`` points tests them with one
zero-test kernel of the target.  A kernel makes the same ring calls as
:meth:`MultiPoly._value` without re-reading a term plan per point; on
polynomial GF(p)(t) data (every coefficient and coordinate over 1) it
makes the same calls on ``ring.polys``, on the numerators.  One
compile costs 40-130 us, and together the two kernels save 3-4 us per
point on the suite's maps, so they break even after 75-90 points
(Python 3.11, 2-vCPU Xeon); shorter loops, :func:`detect_cycle`,
:func:`orbit_prefix` and ``apply`` keep the interpreted evaluator.
"""

from __future__ import annotations

from itertools import compress, islice
from math import gcd
from typing import NamedTuple

from .fields import FieldValue, _require_int
from .multipoly import _kernel, _point_payloads, _require_polys

__all__ = [
    "CycleStructure",
    "Morphism",
    "OrbitCache",
    "ReturnSet",
    "detect_cycle",
    "orbit_prefix",
    "return_set",
]

# Orbit loops of at least this many points run compiled kernels (see above).
_COMPILE_AT = 128


def _vanishing_test(gens, field):
    """Interpreted test of a payload tuple: whether every generator in
    ``gens`` vanishes there.  Payloads are canonical, so zero is the
    ring's ``zero``; the generators share one powers dict per point."""
    zero = field._ring.zero

    def test(pt):
        powers = {}
        return all(g._value(pt, powers) == zero for g in gens)

    return test


class Morphism:
    """Polynomial self-map of affine n-space, one component per coordinate."""

    __slots__ = ("field", "num_vars", "components")

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise ValueError("a morphism needs at least one component")
        _require_polys(components, "components", num_vars=len(components))
        self.components = components
        self.field = components[0].field
        self.num_vars = len(components)

    def _payloads(self, point) -> tuple:
        """The payload tuple of a point, after one check of its length and fields."""
        return _point_payloads(self.field, point, self.num_vars, "the ambient dimension")

    def _step(self, pt: tuple) -> tuple:
        """Image of a payload tuple, unchecked; components share one powers dict."""
        powers = {}
        return tuple([c._value(pt, powers) for c in self.components])

    def _wrap(self, pt: tuple) -> tuple:
        return tuple(FieldValue(self.field, v) for v in pt)

    def apply(self, point) -> tuple:
        return self._wrap(self._step(self._payloads(point)))

    def __call__(self, point) -> tuple:
        return self.apply(point)

    def __repr__(self) -> str:
        names = tuple(f"x{i}" for i in range(self.num_vars))
        body = ", ".join(c.render(names) for c in self.components)
        return f"<morphism ({body}) over {self.field.label}>"


def orbit_prefix(phi: Morphism, point, n: int) -> list:
    """First n orbit points [point, phi(point), ..., phi^(n-1)(point)]."""
    _require_int(n, "n", 0)
    out = []
    current = phi._payloads(point)
    for _ in range(n):
        out.append(phi._wrap(current))
        current = phi._step(current)
    return out


class OrbitCache:
    """Lazily extended orbit prefix shared across analysis passes.

    The start is checked once, here; the cache stores payload tuples and
    :meth:`point` and :attr:`start` wrap them as field values.  Over
    GF(p) the cache keeps a point -> index map while it extends.  At the
    first repeated point it records :attr:`cycle`, drops the map
    and stops growing, so only preperiod + period iterates are ever
    computed and stored; every later index folds into the cycle.  Over
    QQ and GF(p)(t) orbits need not repeat: the cache stores the plain
    prefix, hashes nothing and leaves ``cycle`` as None.
    """

    __slots__ = ("phi", "cycle", "_points", "_seen", "_compiled_step")

    def __init__(self, phi: Morphism, start):
        self.phi = phi
        self.cycle: CycleStructure | None = None
        self._compiled_step = None  # set once the prefix is long
        self._points = [phi._payloads(start)]
        self._seen = {self._points[0]: 0} if phi.field.finite else None

    @property
    def start(self) -> tuple:
        return self.phi._wrap(self._points[0])

    def index(self, n: int) -> int:
        """Index of the stored point equal to phi^n(start).

        This is n itself until the orbit is known to repeat, and
        preperiod + (n - preperiod) % period beyond the stored cycle.
        """
        _require_int(n, "n", 0)
        pts, seen, step = self._points, self._seen, self._compiled_step or self.phi._step
        while self.cycle is None and len(pts) <= n:
            if len(pts) == _COMPILE_AT:  # a long orbit: compile the map once
                step = self._compiled_step = _kernel(self.phi.components)
            nxt = step(pts[-1])
            if seen is not None:
                first = seen.setdefault(nxt, len(pts))
                if first < len(pts):
                    self.cycle = CycleStructure(first, len(pts) - first)
                    self._seen = None
                    break
            pts.append(nxt)
        if n < len(pts):
            return n
        mu, lam = self.cycle.preperiod, self.cycle.period
        return mu + (n - mu) % lam

    def point(self, n: int) -> tuple:
        return self.phi._wrap(self._points[self.index(n)])

    def scan(self, gens, count: int, stride: int, offset: int) -> ReturnSet:
        """Indices l < count with phi^(stride * l + offset)(start) on the
        subvariety cut out by ``gens``.

        The scan extends the cache to its last index first (over GF(p)
        this stops at the cycle), then tests each stored point at most
        once by construction: the head indices below the preperiod are
        distinct, and past it l -> stride * l mod period is injective on
        period / gcd(period, stride) consecutive l, after which the
        points repeat.  So it tests the head and one such block and
        fills the rest of the table by repeating the block; over GF(p)
        that is about preperiod / stride + period tests whatever
        ``count`` is.  Over QQ and GF(p)(t) it tests every index l.
        """
        self.index(stride * max(count - 1, 0) + offset)
        pts, test = self._points, _vanishing_test(gens, self.phi.field)
        head, period = count, 0
        if self.cycle is not None:  # the l with stride * l + offset below the preperiod
            head = min(count, len(range(offset, self.cycle.preperiod, stride)))
            period = self.cycle.period // gcd(self.cycle.period, stride)
        if head + min(period, count - head) >= _COMPILE_AT:  # a long scan: compile V once
            test = _kernel(gens, True)
        flags = bytearray(count)
        # The head is stored unfolded: the cache reached the last index,
        # or the head lies below the preperiod.
        flags[:head] = map(test, pts[offset : offset + stride * head : stride])
        if head < count:
            ls = range(head, min(head + period, count))
            block = bytes(test(pts[self.index(stride * l + offset)]) for l in ls)
            repeats, rest = divmod(count - head, period)
            flags[head:] = block * repeats + block[:rest]
        return ReturnSet.from_flags(flags)


class CycleStructure(NamedTuple):
    """Eventual period data: orbit enters a cycle of length ``period``
    after ``preperiod`` steps."""

    preperiod: int
    period: int


def detect_cycle(phi: Morphism, point) -> CycleStructure:
    """Preperiod and period of the orbit, by Brent's algorithm.

    Requires a finite coefficient field (GF(p)); orbits over QQ or
    GF(p)(t) need not be eventually periodic, so there is nothing to
    detect.
    """
    if not phi.field.finite:
        raise ValueError("cycle detection requires a finite field")
    start, step = phi._payloads(point), phi._step
    power = lam = 1
    tortoise = start
    hare = step(start)
    while tortoise != hare:
        if power == lam:
            tortoise = hare
            power *= 2
            lam = 0
        hare = step(hare)
        lam += 1
    tortoise = hare = start
    for _ in range(lam):
        hare = step(hare)
    mu = 0
    while tortoise != hare:
        tortoise = step(tortoise)
        hare = step(hare)
        mu += 1
    return CycleStructure(mu, lam)


class ReturnSet:
    """Iterate indices below a horizon, as a membership table.

    ``flags`` is the only stored form: immutable bytes of length
    ``horizon`` with ``flags[n] == 1`` exactly when n is a member.
    ``indices``, the length and iteration derive the members from it in
    ascending order.  Every return set, the run's and each derived
    frame's, comes from the one orbit scan in this module.  The scan
    and the decomposition's residual build their tables directly
    through :meth:`from_flags`; the constructor takes member indices.
    """

    __slots__ = ("horizon", "flags")

    def __init__(self, horizon: int, indices):
        _require_int(horizon, "horizon", 0)
        members = set(indices)
        if members and not (0 <= min(members) and max(members) < horizon):
            raise ValueError("indices must lie in [0, horizon)")
        flags = bytearray(horizon)
        for n in members:
            flags[n] = 1
        self.horizon = horizon
        self.flags = bytes(flags)

    @classmethod
    def from_flags(cls, flags) -> ReturnSet:
        """The return set whose membership table is ``flags``, a
        bytes-like sequence of 0s and 1s; its length is the horizon."""
        flags = bytes(flags)
        if flags.translate(None, b"\0\1"):
            raise ValueError("membership flags must be 0 or 1")
        out = cls.__new__(cls)
        out.horizon = len(flags)
        out.flags = flags
        return out

    @property
    def indices(self) -> tuple:
        return tuple(self)

    def __contains__(self, n: int) -> bool:
        return 0 <= n < self.horizon and self.flags[n] == 1

    def __len__(self) -> int:
        return self.flags.count(1)

    def __iter__(self):
        return compress(range(self.horizon), self.flags)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ReturnSet):
            return NotImplemented
        return self.flags == other.flags

    def __hash__(self) -> int:
        return hash(self.flags)

    def __repr__(self) -> str:
        members = tuple(islice(self, 13))
        if len(members) <= 12:
            body = ", ".join(map(str, members))
        else:
            head = ", ".join(map(str, members[:10]))
            body = f"{head}, ... ({len(self)} total)"
        return f"<returns below {self.horizon}: {{{body}}}>"


def return_set(phi: Morphism, start, target, horizon: int, cache: OrbitCache | None = None) -> ReturnSet:
    """Indices n < horizon with phi^n(start) on the target subvariety.

    The target is a Groebner basis or an iterable of polynomials; a
    point is on the subvariety when every generator evaluates to zero.
    An empty generator list cuts out the whole space, so every index
    returns.  Generators must share the map's field and variables, and
    a given cache must belong to this map and start; both are checked
    before any iterate is computed.
    """
    _require_int(horizon, "horizon", 1)
    gens = getattr(target, "generators", target)
    gens = _require_polys(gens, "target generators", phi.field, phi.num_vars)
    if cache is None:
        cache = OrbitCache(phi, start)
    elif cache.phi is not phi:
        raise ValueError("cache was built for a different morphism")
    elif phi._payloads(start) != cache._points[0]:
        raise ValueError("cache was built for a different starting point")
    return cache.scan(gens, horizon, 1, 0)
