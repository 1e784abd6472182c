"""Window densities and arithmetic-progression structure of return sets.

The density surrogate for a finite index set S below a horizon N is,
per window length L, the maximum of |S ∩ I| / L over all length-L
intervals I inside [0, N), as an exact fraction.  A set whose every
tail is a union of progressions keeps this ratio bounded away from
zero; a density-zero set drives it toward zero as L grows, which a
profile over a sparse schedule of window lengths makes visible.

Only windows that start at a run start (a member n with n = 0 or
n - 1 not a member) and the last window are counted.
Sliding a window right past a non-member, or left onto a member, never
lowers its count, so some fullest window is one of these candidates.
The last window is counted straight from the membership table, so a
length L reads the prefix-count table only up to its last run start
below N - L, plus L, and the table is built no further than the
farthest such reach over the schedule.  Work follows the run starts,
not the horizon: a set that is one run past a head, or a finite head,
costs about the head plus the longest window below N.

:func:`detect_progressions` certifies progressions a*k + b whose
members beyond a tail offset all lie in S up to the horizon, dropping
progressions that a kept coarser one already covers.  It visits only
the uncovered members of S in each modulus's first window, so its
cost is a_max, plus those members, plus the slices of the candidates
whose second member is in S;
:func:`decompose_return_set` splits S into the certified progression
union and a residual, with a density profile of the residual.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, compress, islice
from math import isqrt
from operator import sub
from typing import NamedTuple

from .fields import _require_int
from .orbits import ReturnSet

__all__ = [
    "Decomposition",
    "DensityProfile",
    "Progression",
    "ceil_sqrt",
    "decompose_return_set",
    "default_window_schedule",
    "density_profile",
    "detect_progressions",
    "window_density_max",
]


class Progression:
    """Arithmetic progression {modulus * k + offset : k >= 0}.

    Progressions compare and hash by ``modulus`` and ``offset``.
    """

    __slots__ = ("modulus", "offset")

    def __init__(self, modulus: int, offset: int):
        self.modulus = _require_int(modulus, "modulus", 1)
        self.offset = _require_int(offset, "offset", 0)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.modulus, self.offset) == (other.modulus, other.offset)

    def __hash__(self):
        return hash((self.modulus, self.offset))

    def __repr__(self):
        return f"Progression(modulus={self.modulus!r}, offset={self.offset!r})"

    def members_below(self, horizon: int) -> range:
        return range(self.offset, _require_int(horizon, "horizon", 0), self.modulus)

    def count_below(self, horizon: int) -> int:
        return len(self.members_below(horizon))


class DensityProfile(NamedTuple):
    """Exact max window ratios per window length, lengths ascending."""

    horizon: int
    entries: tuple  # of (window length, Fraction)

    def ratio_at(self, length: int) -> Fraction:
        for l, r in self.entries:
            if l == length:
                return r
        raise KeyError(f"no profile entry for window length {length}")


class Decomposition(NamedTuple):
    """Split of a return set into certified progressions and residual."""

    progressions: tuple
    residual: ReturnSet
    residual_profile: DensityProfile

    def covered(self) -> frozenset:
        out = set()
        for p in self.progressions:
            out.update(p.members_below(self.residual.horizon))
        return frozenset(out)


def ceil_sqrt(n: int) -> int:
    """Smallest integer r with r*r >= n."""
    r = isqrt(_require_int(n, "n", 0))
    return r if r * r == n else r + 1


def default_window_schedule(n: int) -> tuple:
    """Window lengths near N^(1/4), N^(1/2), N^(3/4) and N itself.

    Exact integer arithmetic: the k/4 entry, the smallest L with L^4 >= N^k,
    is ⌈√⌈√(N^k)⌉⌉: r = ⌈x^(1/4)⌉ gives (r-1)^4 < x <= r^4, so
    (r-1)^2 < ⌈√x⌉ <= r^2 and ⌈√⌈√x⌉⌉ = r.  Duplicates collapse for small N.
    """
    _require_int(n, "N", 1)
    lengths = {ceil_sqrt(ceil_sqrt(n)), ceil_sqrt(n), ceil_sqrt(ceil_sqrt(n**3)), n}
    return tuple(sorted(lengths))


def _window_lengths(lengths, n: int) -> tuple:
    """``lengths`` (None: the default schedule), integers in [1, N], sorted and deduplicated."""
    if lengths is None:
        return default_window_schedule(n)
    lengths = sorted({_require_int(length, "window_lengths entry", 1) for length in lengths})
    if not lengths:
        raise ValueError("window_lengths must be a nonempty list of integers")
    if lengths[-1] > n:
        raise ValueError("window_lengths entries must not exceed N")
    return tuple(lengths)


def _search_bounds(a_max: int, m_min: int, tail_start: int, n: int) -> None:
    """Check the progression search's settings against the horizon N."""
    _require_int(a_max, "a_max", 1)
    _require_int(m_min, "m_min", 2)
    if _require_int(tail_start, "tail_start", 0) >= n:
        raise ValueError("tail_start must be below N")


def _window_maxima(s: ReturnSet, lengths) -> list:
    # Candidates: windows [k, k+L) with k a run start, and the last one, k = N-L.
    # From a fullest window, sliding right past a non-member or left onto a
    # member never lowers the count, so slide right until k is a member or
    # k = N-L, then left to the start of k's run: some fullest window is a candidate.
    # Byte n of bits is flags[n], and byte n of bits & ~(bits << 8) is flags[n]
    # and not flags[n-1]: starts[n] is 1 exactly at the run starts, and to_bytes
    # drops the zeros after the last.  The last window holds the set bits of
    # bits >> 8(N-L), so only run starts k < N-L read prefix[i] = |S ∩ [0, i)|,
    # a window [k, k+L) holding prefix[k+L] - prefix[k]; the table stops at the
    # farthest such k + L.
    n, flags = s.horizon, s.flags
    bits = int.from_bytes(flags, "little")
    starts = bits & ~(bits << 8)
    starts = starts.to_bytes((starts.bit_length() + 7) // 8, "little")
    last_starts = [starts.rfind(1, 0, n - l) for l in lengths]  # -1: none below N-L
    reach = max((k + l for k, l in zip(last_starts, lengths) if k >= 0), default=0)
    prefix = list(accumulate(flags[:reach], initial=0))
    # prefix[k] for every start that some length reads, ascending; each
    # length reads a leading part of it.
    at_starts = list(compress(prefix, starts[: max(last_starts) + 1]))
    maxima = []
    for k, l in zip(last_starts, lengths):
        ends = compress(islice(prefix, l, None), starts[: k + 1])  # prefix[k+L]
        best = max(map(sub, ends, at_starts), default=0)
        maxima.append(Fraction(max(best, (bits >> 8 * (n - l)).bit_count()), l))
    return maxima


def window_density_max(s: ReturnSet, length: int) -> Fraction:
    """Exact max of |S ∩ I| / L over length-L windows I inside [0, N)."""
    return density_profile(s, (length,)).entries[0][1]


def density_profile(s: ReturnSet, lengths=None) -> DensityProfile:
    """Profile of max window ratios over a schedule of lengths."""
    lengths = _window_lengths(lengths, s.horizon)
    return DensityProfile(s.horizon, tuple(zip(lengths, _window_maxima(s, lengths))))


def detect_progressions(s: ReturnSet, a_max: int, m_min: int = 5, tail_start: int = 0) -> list:
    """Progressions fully inside S from their offset to the horizon.

    Scans moduli a = 1..a_max and offsets b in [tail_start,
    tail_start + a); a progression is kept when every member of
    a*k + b below the horizon lies in S and there are at least m_min
    members.  A candidate is suppressed when an already kept
    progression with dividing modulus and matching offset class covers
    it, so the output has no redundant refinements: for each modulus a,
    every kept progression whose modulus divides a marks the offsets it
    covers in a coverage mask with one slice assignment.  Only offsets
    that are both members and unmarked are visited, in ascending order:
    ``find`` on the membership table and on the mask leapfrog to the
    next such offset, and a candidate whose second member b + a is
    missing is dropped before its slice is read.  The work is a few
    C-level calls per modulus, plus one step per uncovered member in
    each modulus's first window, plus the slices of the candidates that
    pass that test: linear in a_max on a sparse S, not quadratic.
    Output is sorted by (modulus, offset).  The arguments are checked
    with the texts of the run's settings, N being ``s.horizon``.
    """
    _search_bounds(a_max, m_min, tail_start, s.horizon)
    n, flags = s.horizon, s.flags
    kept: list = []
    for a in range(1, a_max + 1):
        if len(range(tail_start, n, a)) < m_min:
            break  # larger moduli have no more members
        covered = bytearray(a)  # covered[r]: offset tail_start + r is covered
        for p in kept:
            if a % p.modulus == 0:
                covered[(p.offset - tail_start) % p.modulus :: p.modulus] = b"\1" * (a // p.modulus)
        r = covered.find(0)  # next uncovered offset
        while r != -1:
            b = flags.find(1, tail_start + r, tail_start + a)  # next member from there on
            if b == -1:
                break
            if len(range(b, n, a)) < m_min:
                break  # later offsets have no more members; else b + a < n
            r = covered.find(0, b - tail_start)
            if tail_start + r == b:
                if flags[b + a] and 0 not in flags[b::a]:
                    kept.append(Progression(a, b))
                r = covered.find(0, r + 1)
    return kept


def decompose_return_set(s: ReturnSet, progressions, lengths=None) -> Decomposition:
    """Split S into the union of the given progressions and a residual.

    Every progression is re-verified against S (members from its
    offset to the horizon must all belong); the residual is S minus
    the union, profiled with :func:`density_profile`.
    """
    rest = bytearray(s.flags)
    for p in progressions:
        if not isinstance(p, Progression):
            raise TypeError("expected Progression")
        members = s.flags[p.offset :: p.modulus]
        if 0 in members:
            raise ValueError("progression not contained in return set")
        rest[p.offset :: p.modulus] = bytes(len(members))
    residual = ReturnSet.from_flags(rest)
    profile = density_profile(residual, lengths)
    return Decomposition(tuple(progressions), residual, profile)
