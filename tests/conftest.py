import sys
from collections import Counter

import pytest


class CountingRing:
    """Stands in for a field's payload ring and counts the operations run:
    ``calls`` in all, ``counts`` per operation name, ``log`` their names in
    call order.  Calls on a GF(p)(t) ring's packed polynomials,
    ``ring.polys``, count as ``polys.<op>``."""

    def __init__(self, ring, prefix="", root=None):
        self.ring = ring
        self.prefix = prefix
        self.root = root or self
        self.calls = 0
        self.counts = Counter()
        self.log = []

    def __getattr__(self, name):
        attr = getattr(self.ring, name)
        if name == "polys":
            return CountingRing(attr, "polys.", self.root)
        if not callable(attr):
            return attr
        root, key = self.root, self.prefix + name

        def counted(*args):
            root.calls += 1
            root.counts[key] += 1
            root.log.append(key)
            return attr(*args)

        return counted


@pytest.fixture
def counted_field():
    """Factory: a fresh copy of a field, and the counter of its payload arithmetic."""

    def make(field):
        copy = type(field)(field.kind, field.characteristic)
        ring = CountingRing(copy._ring)
        copy._ring = ring
        return copy, ring

    return make


@pytest.fixture
def over_digit_limit():
    """A decimal literal one digit past the interpreter's int/str conversion limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("no integer string conversion limit")
    return "1" * (limit + 1)
