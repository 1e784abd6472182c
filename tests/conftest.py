import sys

import pytest


class CountingRing:
    """Stands in for a field's payload ring and counts the operations run."""

    def __init__(self, ring):
        self.ring = ring
        self.calls = 0

    def __getattr__(self, name):
        attr = getattr(self.ring, name)
        if not callable(attr):
            return attr

        def counted(*args):
            self.calls += 1
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
