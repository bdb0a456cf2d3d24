"""The shared random-instance helpers of ``conftest``."""

import random
from math import gcd

import pytest

from conftest import coprime_denominators


def _old_draws(count, digits, rng):
    """The helper's draws before it required distinct values: a reference
    for every call that returned distinct values then."""
    out = []
    while len(out) < count:
        d = rng.randrange(10 ** (digits - 1), 10 ** digits)
        if all(gcd(d, e) == 1 for e in out):
            out.append(d)
    return out


def test_coprime_denominators_are_distinct_and_keep_their_draws():
    for seed in range(40):
        for count, digits in ((4, 1), (9, 2), (30, 5), (25, 30)):
            vals = coprime_denominators(count, digits, random.Random(seed))
            assert len(set(vals)) == count
            assert all(10 ** (digits - 1) <= v < 10 ** digits for v in vals)
            assert all(gcd(x, y) == 1 for i, x in enumerate(vals) for y in vals[i + 1:])
            if digits > 1:
                assert vals == _old_draws(count, digits, random.Random(seed))


def test_coprime_denominators_refuse_more_than_the_digits_hold():
    """At most five distinct 1-digit integers (1, 5, 7 and one power each of
    2 and 3) and 25 two-digit ones (one per prime below 100) are pairwise
    coprime: asking for more raises instead of looping or repeating 1."""
    for seed in range(20):
        for count, digits in ((6, 1), (26, 2)):
            with pytest.raises(ValueError, match="pairwise-coprime"):
                coprime_denominators(count, digits, random.Random(seed))
