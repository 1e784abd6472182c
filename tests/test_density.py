import random
import time
from fractions import Fraction

import pytest

from dmlab import (
    Progression,
    ReturnSet,
    ceil_sqrt,
    decompose_return_set,
    default_window_schedule,
    density_profile,
    detect_progressions,
    window_density_max,
)


def rs(horizon, members):
    return ReturnSet(horizon, members)


def powers_below(base, horizon):
    out, v = [], 1
    while v < horizon:
        out.append(v)
        v *= base
    return out


def block_union_below(horizon):
    # union over n >= 1 of the blocks {n^3, ..., n^3 + n}
    out, n = [], 1
    while n**3 < horizon:
        out.extend(m for m in range(n**3, n**3 + n + 1) if m < horizon)
        n += 1
    return out


def _brute_window_max(members, horizon, length):
    flags = [0] * horizon
    for m in members:
        flags[m] = 1
    best = 0
    for start in range(horizon - length + 1):
        best = max(best, sum(flags[start : start + length]))
    return Fraction(best, length)


def test_window_examples():
    odds = rs(100, range(1, 100, 2))
    assert window_density_max(odds, 10) == Fraction(1, 2)
    pw = rs(2**16, powers_below(2, 2**16))
    assert window_density_max(pw, 256) == Fraction(9, 256)
    full = rs(50, range(50))
    assert window_density_max(full, 7) == 1
    assert window_density_max(rs(10, []), 10) == 0


def test_window_validation():
    s = rs(10, [1])
    with pytest.raises(ValueError):
        window_density_max(s, 0)
    with pytest.raises(ValueError):
        window_density_max(s, 11)


def test_window_against_brute_force():
    rng = random.Random(0xD40)
    for _ in range(40):
        horizon = rng.randint(1, 220)
        members = [n for n in range(horizon) if rng.random() < 0.3]
        s = rs(horizon, members)
        for _ in range(4):
            length = rng.randint(1, horizon)
            assert window_density_max(s, length) == _brute_window_max(
                members, horizon, length
            )
        lengths = rng.sample(range(1, horizon + 1), min(horizon, 4))
        assert density_profile(s, lengths).entries == tuple(
            (l, _brute_window_max(members, horizon, l)) for l in sorted(lengths)
        )


def orbit_shaped(rng, horizon):
    # a random head, then a union of residue classes mod 2..7 with sparse holes,
    # the shape of a return set whose orbit enters a cycle
    head = rng.randint(0, horizon // 3)
    modulus = rng.randint(2, 7)
    residues = set(rng.sample(range(modulus), rng.randint(1, modulus)))
    members = [n for n in range(head) if rng.random() < 0.3]
    members += [
        n for n in range(head, horizon) if n % modulus in residues and rng.random() > 0.03
    ]
    return members


def test_window_on_orbit_shaped_tables():
    rng = random.Random(0x0B17)
    horizons = rng.choices(range(1, 260), k=30)
    tables = [(horizon, orbit_shaped(rng, horizon)) for horizon in horizons]
    tables += [
        (90, range(90)),  # full
        (90, []),  # empty
        (90, range(0, 25)),  # one run starting at 0
        (90, [*range(0, 3), *range(40, 47)]),
        (90, [89]),  # a single member at N-1
        (90, [0, 89]),
        (1, [0]),
        (1, []),
    ]
    for horizon, members in tables:
        s = rs(horizon, members)
        lengths = {1, horizon, *rng.choices(range(1, horizon + 1), k=3)}
        assert density_profile(s, lengths).entries == tuple(
            (l, _brute_window_max(members, horizon, l)) for l in sorted(lengths)
        )
        for length in (1, horizon):
            assert window_density_max(s, length) == _brute_window_max(members, horizon, length)


def test_window_on_two_run_table_of_a_million():
    # runs [0, a) and [a + gap, N): a window holding the whole gap counts L - gap,
    # and any other window meets one run only
    a, gap, b = 123_457, 400_000, 476_543
    horizon = a + gap + b
    s = ReturnSet.from_flags(b"\1" * a + b"\0" * gap + b"\1" * b)
    lengths = {1, 1000, a, a + 1, gap, gap + 1, b, b + 1, *default_window_schedule(horizon)}
    assert density_profile(s, lengths).entries == tuple(
        (l, Fraction(max(min(l, max(a, b)), l - gap), l)) for l in sorted(lengths)
    )


def test_ceil_sqrt():
    assert [ceil_sqrt(n) for n in (0, 1, 2, 4, 5, 1089, 1100)] == [0, 1, 2, 2, 3, 33, 34]


def test_default_window_schedule():
    assert default_window_schedule(1100) == (6, 34, 192, 1100)
    assert default_window_schedule(2**16) == (16, 256, 4096, 65536)
    assert default_window_schedule(100000) == (18, 317, 5624, 100000)
    assert default_window_schedule(1) == (1,)
    # each entry is the least L with L^4 >= N^k
    for n in (17, 301, 5000, 99991):
        quarter, half, three_quarter, top = (
            default_window_schedule(n)
            if len(default_window_schedule(n)) == 4
            else (None, None, None, None)
        )
        if quarter is None:
            continue
        assert quarter**4 >= n > (quarter - 1) ** 4
        assert half**2 >= n > (half - 1) ** 2
        assert three_quarter**4 >= n**3 > (three_quarter - 1) ** 4
        assert top == n


def _least_fourth_root(x):
    # Least L with L^4 >= x, by bisection on L alone.
    lo, hi = 0, 1 << (x.bit_length() // 4 + 1)
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (mid + 1, hi) if mid**4 < x else (lo, mid)
    return lo


def test_default_window_schedule_is_exact():
    # Entry k/4 is the least L with L^4 >= N^k, checked against a walk
    # over N = 1..20000 (each least L only grows with N), then by
    # bisection at N = m^4 - 1, m^4, m^4 + 1 and at random N up to 10^60.
    roots = [0, 0, 0]
    for n in range(1, 20001):
        for k in range(3):
            while roots[k] ** 4 < n ** (k + 1):
                roots[k] += 1
        assert default_window_schedule(n) == tuple(sorted({*roots, n}))
    rng = random.Random(39)
    bases = [*range(2, 400), *(10**j + 1 for j in range(3, 16))]
    edges = [m**4 + d for m in bases for d in (-1, 0, 1)]
    for n in [*edges, *(rng.randrange(1, 10**60) for _ in range(1000))]:
        roots = {_least_fourth_root(n ** (k + 1)) for k in range(3)}
        assert default_window_schedule(n) == tuple(sorted({*roots, n}))


def test_density_profile():
    s = rs(2**12, powers_below(2, 2**12))
    prof = density_profile(s, [64, 8, 64])
    assert prof.horizon == 2**12
    assert [l for l, _ in prof.entries] == [8, 64]
    assert prof.ratio_at(64) == Fraction(7, 64)  # window [1, 64] holds 2^0..2^6
    with pytest.raises(KeyError):
        prof.ratio_at(10)
    for bad in ([0, 8], [8, 2**12 + 1]):
        with pytest.raises(ValueError, match="window_lengths entr"):
            density_profile(s, bad)
    dflt = density_profile(s)
    assert [l for l, _ in dflt.entries] == [8, 64, 512, 4096]


def test_block_union_density():
    horizon = 2000
    members = block_union_below(horizon)
    # blocks for n = 1..12 fit below 2000; sizes n + 1
    assert len(members) == sum(n + 1 for n in range(1, 13))
    s = rs(horizon, members)
    assert window_density_max(s, horizon) == Fraction(len(members), horizon)
    # a window of length 12 inside block 12 is fully occupied
    assert window_density_max(s, 12) == 1


def test_detect_full_and_odd():
    full = rs(100, range(100))
    assert detect_progressions(full, 3) == [Progression(1, 0)]
    odds = rs(100, range(1, 100, 2))
    assert detect_progressions(odds, 3) == [Progression(2, 1)]


def test_detect_powers_empty():
    s = rs(2**16, powers_below(2, 2**16))
    assert detect_progressions(s, 64, 5) == []


def test_detect_tail_start():
    members = list(range(10)) + list(range(10, 100, 2))
    s = rs(100, members)
    assert detect_progressions(s, 4, 5, tail_start=10) == [Progression(2, 10)]


def test_detect_suppresses_refinements():
    members = sorted(set(range(0, 200, 2)) | set(range(0, 200, 3)))
    s = rs(200, members)
    assert detect_progressions(s, 6) == [Progression(2, 0), Progression(3, 0)]


def test_detect_huge_modulus_bound_stops_early():
    # a_max only bounds the scan; moduli past (N - tail_start) / (m_min - 1)
    # cannot hold m_min members, so the loop must stop there
    s = rs(50, sorted(set(range(0, 50, 3)) | set(range(1, 50, 7)) | {2, 44}))
    start = time.perf_counter()
    assert detect_progressions(s, 10**7) == detect_progressions(s, 50)
    assert detect_progressions(s, 10**7, tail_start=20) == detect_progressions(s, 50, tail_start=20)
    assert time.perf_counter() - start < 1.0


class _CountingFlags(bytes):
    # A membership table that counts the reads detection makes of it.
    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)

    def find(self, *args):
        self.reads += 1
        return super().find(*args)


def test_detect_reads_a_sparse_table_a_few_times_per_modulus():
    # One member, as in x -> x^2 + 1 from 0 over GF(10007) against x = 5.
    # Visiting every offset of every modulus would read about
    # a_max^2 / 2 = 500,000 flags; leapfrogging over non-members makes a
    # few reads per modulus.
    a_max = 1000
    s = ReturnSet.from_flags(bytes(3) + b"\1" + bytes(10**6 - 4))
    s.flags = _CountingFlags(s.flags)
    assert detect_progressions(s, a_max) == []
    assert s.flags.reads < 4 * a_max


def test_detect_validation():
    s = rs(10, [1, 3])
    with pytest.raises(ValueError):
        detect_progressions(s, 0)
    with pytest.raises(ValueError):
        detect_progressions(s, 2, m_min=1)
    with pytest.raises(ValueError):
        detect_progressions(s, 2, tail_start=10)


def _brute_certified_union(members, horizon, a_max, m_min, tail_start):
    # union of every progression that would individually certify,
    # with no suppression logic at all
    S = set(members)
    union = set()
    for a in range(1, a_max + 1):
        for b in range(tail_start, tail_start + a):
            run = list(range(b, horizon, a))
            if len(run) >= m_min and all(m in S for m in run):
                union.update(run)
    return union


def test_detect_union_matches_unsuppressed_oracle():
    rng = random.Random(0xDE7)
    for _ in range(40):
        horizon = rng.randint(30, 150)
        style = rng.randrange(3)
        if style == 0:
            members = [n for n in range(horizon) if rng.random() < 0.5]
        elif style == 1:
            a = rng.randint(1, 5)
            b = rng.randrange(a)
            members = sorted(
                set(range(b, horizon, a))
                | {n for n in range(horizon) if rng.random() < 0.1}
            )
        else:
            members = sorted(rng.sample(range(horizon), rng.randint(0, horizon // 3)))
        s = rs(horizon, members)
        a_max = rng.randint(1, 12)
        m_min = rng.randint(2, 6)
        tail = rng.randrange(horizon)
        kept = detect_progressions(s, a_max, m_min, tail)
        covered = set()
        for p in kept:
            covered.update(p.members_below(horizon))
        assert covered == _brute_certified_union(members, horizon, a_max, m_min, tail)
        # no kept progression is redundant against another kept one
        for p in kept:
            for q in kept:
                if p is not q:
                    assert not (
                        p.modulus % q.modulus == 0
                        and p.offset % q.modulus == q.offset % q.modulus
                    )


def _reference_detect_progressions(s, a_max, m_min=5, tail_start=0):
    # member-by-member scan, checking suppression only after a full pass
    n = s.horizon
    flags = [0] * n
    for m in s.indices:
        flags[m] = 1
    kept = []
    for a in range(1, a_max + 1):
        for b in range(tail_start, tail_start + a):
            if b >= n or not flags[b]:
                continue
            count = 0
            ok = True
            for m in range(b, n, a):
                if not flags[m]:
                    ok = False
                    break
                count += 1
            if not ok or count < m_min:
                continue
            if any(a % p.modulus == 0 and b % p.modulus == p.offset % p.modulus for p in kept):
                continue
            kept.append(Progression(a, b))
    return kept


def test_detect_matches_reference_scan():
    rng = random.Random(0x5C4)
    cases = [
        (rs(1000, range(1000)), 32, 5, 0),  # dense
        (rs(1000, range(78, 1000)), 32, 5, 78),  # dense tail
        (rs(1000, range(78, 1000)), 32, 5, 0),
        (rs(500, sorted(set(range(0, 500, 2)) | set(range(1, 500, 3)))), 23, 5, 0),  # mixed
        (rs(200, []), 15, 2, 0),  # empty
        (rs(200, []), 15, 2, 150),
        (rs(20, range(0, 20, 4)), 8, 5, 0),  # (4, 0) has exactly m_min members
        (rs(20, range(0, 20, 4)), 8, 6, 0),  # ... and one too few here
        (rs(21, range(1, 21, 4)), 8, 5, 1),
        (rs(10, [7, 9]), 12, 2, 7),  # offsets reach b >= horizon
        (rs(10, range(3, 10)), 12, 2, 3),
    ]
    for _ in range(60):
        horizon = rng.randint(1, 300)
        density = rng.choice([0.1, 0.5, 0.9])
        members = {n for n in range(horizon) if rng.random() < density}
        a = rng.randint(1, 7)
        members |= set(range(rng.randrange(horizon), horizon, a))
        cases.append(
            (rs(horizon, members), rng.randint(1, 20), rng.randint(2, 8), rng.randrange(horizon))
        )
    # Unions of progressions of several moduli, up to horizon 5,000, with
    # tail offsets below, between and above their offsets, so kept
    # progressions of dividing moduli cover offsets of later moduli.
    unions = (
        ((2, 0), (3, 1), (6, 5)),
        ((4, 1), (6, 3), (10, 7)),
        ((3, 0), (4, 2), (12, 11)),
        ((5, 2), (7, 3), (35, 34)),
    )
    for progressions in unions:
        horizon = rng.randint(3000, 5000)
        members = set()
        for m, o in progressions:
            members.update(range(o, horizon, m))
        members.update(rng.sample(range(horizon), 40))
        for tail in (0, 1, 3, 4, 6, 9, 40, horizon - 30):
            cases.append((rs(horizon, members), ceil_sqrt(horizon), 5, tail))
    # Sparse tables, where most offsets are not members, up to full ones.
    for density in (0.0, 0.002, 0.02, 0.97, 1.0):
        for _ in range(4):
            horizon = rng.randint(50, 4000)
            members = {n for n in range(horizon) if rng.random() < density}
            s = rs(horizon, members)
            for tail in (0, rng.randrange(horizon)):
                cases.append((s, ceil_sqrt(horizon), rng.randint(2, 8), tail))
    for s, a_max, m_min, tail in cases:
        assert detect_progressions(s, a_max, m_min, tail) == _reference_detect_progressions(
            s, a_max, m_min, tail
        )


def test_decompose_splits_and_verifies():
    members = sorted(set(range(0, 120, 2)) | {7, 21, 63})
    s = rs(120, members)
    progs = detect_progressions(s, 5)
    assert progs == [Progression(2, 0)]
    dec = decompose_return_set(s, progs, [24, 120])
    assert dec.residual.indices == (7, 21, 63)
    assert set(members) == dec.covered() | set(dec.residual.indices)
    assert dec.covered().isdisjoint(dec.residual.indices)
    assert dec.residual_profile.ratio_at(120) == Fraction(3, 120)
    with pytest.raises(ValueError, match="not contained"):
        decompose_return_set(s, [Progression(2, 1)], [24])
    # overlapping progressions: 6k lies inside both 2k and 3k
    members = sorted(set(range(0, 60, 2)) | set(range(0, 60, 3)) | {5, 35})
    s = rs(60, members)
    dec = decompose_return_set(s, [Progression(2, 0), Progression(3, 0)], [60])
    assert dec.residual.indices == (5, 35)
    assert dec.covered() == frozenset(range(0, 60, 2)) | frozenset(range(0, 60, 3))
    assert set(members) == dec.covered() | set(dec.residual)
    assert dec.residual_profile.ratio_at(60) == Fraction(2, 60)


def test_decompose_empty_progressions():
    s = rs(2**12, powers_below(2, 2**12))
    dec = decompose_return_set(s, [])
    assert dec.residual == s
    assert dec.residual_profile.ratio_at(64) == Fraction(7, 64)


def test_progression_type():
    with pytest.raises(ValueError):
        Progression(0, 1)
    with pytest.raises(ValueError):
        Progression(2, -1)
    p = Progression(3, 2)
    assert list(p.members_below(12)) == [2, 5, 8, 11]
    assert p.count_below(12) == 4
    assert p.count_below(2) == 0


def _assert_profile_matches_brute_force(horizon, members, lengths):
    s = rs(horizon, members)
    assert density_profile(s, lengths).entries == tuple(
        (l, _brute_window_max(members, horizon, l)) for l in sorted(set(lengths))
    )
    for length in lengths:
        assert window_density_max(s, length) == _brute_window_max(members, horizon, length)


def test_window_tables_that_end_in_a_run_or_a_finite_head():
    # The prefix table reaches only the last run start below N - L, plus L;
    # these tables put that start near 0, exactly at N - L, or nowhere.
    rng = random.Random(0x7A11)
    for horizon in (1, 2, 3, 7, 40, 97, 180):
        every = range(1, horizon + 1)
        for _ in range(6):
            head = rng.randint(0, horizon)
            sparse = [n for n in range(head) if rng.random() < 0.3]
            lengths = {1, horizon, *rng.choices(every, k=3)}
            # a head, then all ones to the horizon
            full_tail = [*sparse, *range(head, horizon)]
            _assert_profile_matches_brute_force(horizon, full_tail, lengths)
            # a finite head, then nothing
            _assert_profile_matches_brute_force(horizon, sparse, lengths)
        # 0 in S, read by the window of length N alone
        _assert_profile_matches_brute_force(horizon, [0], [horizon])
        _assert_profile_matches_brute_force(horizon, [0, *range(horizon // 2, horizon)], [horizon])
        for length in every:
            k = horizon - length
            # a run starting exactly at N - L: the last window, not a run-start candidate
            for members in ([*range(k, horizon)], [*range(0, k - 1), *range(k, horizon)]):
                _assert_profile_matches_brute_force(horizon, members, [length])
            # a single run ending at N - 1, starting anywhere
            members = range(rng.randint(0, horizon - 1), horizon)
            _assert_profile_matches_brute_force(horizon, members, [length])


def test_profile_of_a_full_tail_stays_small():
    # S = [100, N): one run start, so the prefix table stops near 100 + N^(3/4)
    # rather than holding N + 1 ints.
    import tracemalloc

    horizon = 10**6
    s = ReturnSet.from_flags(bytes(100) + b"\1" * (horizon - 100))
    tracemalloc.start()
    try:
        profile = density_profile(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert profile.entries == tuple(
        (l, Fraction(min(l, horizon - 100), l)) for l in default_window_schedule(horizon)
    )
