"""binade's closed forms equal the running float sums they stand for."""

import math
from bisect import bisect_left
from itertools import accumulate, repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamsim.binade import Ticks, even_steps, settled_steps, twice_low_bit


@pytest.mark.parametrize("d, expected", [
    (0.0, 0.0), (0.75, 0.5), (4.0, 8.0), (0.125, 0.25), (2.0 ** -9, 2.0 ** -8),
    (0.1, 2.0 ** -54), (5e-324, 1e-323), (2.0 ** -1030 * 3, 2.0 ** -1029),
    (2.0 ** 1023, math.inf), (math.inf, 0.0), (math.nan, 0.0),
])
def test_twice_low_bit(d, expected):
    assert twice_low_bit(d) == expected


def rounds(x, addends, n):
    """x, then the sum after each of n rounds of adding `addends` in turn."""
    out = [x]
    for _ in range(n):
        for d in addends:
            x += d
        out.append(x)
    return out


@st.composite
def sums(draw):
    """A round of addends >= 0, many of them ties at the start's ulp, or at
    half or twice it, and a start up to 60 rounds below a binade's top."""
    top = math.ldexp(1.0, draw(st.integers(-10, 40)))
    ulp = math.ulp(top / 2) * draw(st.sampled_from([0.5, 1.0, 1.0, 2.0]))
    addend = st.one_of(
        st.integers(0, 10 ** 4).map(lambda k: k * ulp + ulp / 2),
        st.integers(0, 10 ** 4).map(lambda k: k * ulp),
        st.just(0.0),
        st.floats(0.0, 10.0),
    )
    addends = draw(st.lists(addend, min_size=1, max_size=3))
    below = draw(st.one_of(
        st.integers(0, 60).map(lambda m: m * sum(addends)), st.floats(0.0, top / 2)))
    x = max(top / 2, top - below - draw(st.floats(0.0, 1.0)) * sum(addends))
    return x, addends


@settings(max_examples=300, deadline=None)
@given(sums())
def test_even_steps_are_the_running_sums(case):
    x, addends = case
    first = rounds(x, addends, 1)[1]
    n = even_steps(x, first - x, sum(addends), tuple(map(twice_low_bit, addends)))
    if n > 1:
        n = min(n, 300)
        assert rounds(x, addends, n) == [x + j * (first - x) for j in range(n + 1)]


@settings(max_examples=300, deadline=None)
@given(sums())
def test_settled_steps_are_the_running_sums_after_two_rounds(case):
    x, addends = case
    before, one, two = rounds(x, addends, 2)
    n = min(settled_steps(before, two, two - one, sum(addends)), 300)
    assert rounds(two, addends, n) == [two + j * (two - one) for j in range(n + 1)]


@settings(max_examples=300, deadline=None)
@given(
    x0=st.one_of(st.just(0.0), st.floats(0.0, 2100.0), st.sampled_from([0.99, 255.99, 511.995])),
    dt=st.one_of(st.sampled_from([0.01, 0.02, 0.025]), st.floats(0.001, 0.1)),
    n=st.integers(1, 20_000),
    probes=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(-1.0, 1.0)),
                    min_size=1, max_size=5),
    every=st.sampled_from([1, 7, 10]),
)
def test_ticks_read_what_accumulate_adds(x0, dt, n, probes, every):
    # a quiet run reads its clock in closed form: every value, slice and
    # search must be the accumulated float additions themselves
    ticks, listed = Ticks(x0, dt, n), list(accumulate(repeat(dt, n), initial=x0))
    assert len(ticks) == len(listed) and ticks[:] == listed
    for a, b, shift in probes:
        lo, hi = sorted((int(a * n), int(b * n) + 1))
        assert ticks[lo:hi:every] == listed[lo:hi:every]
        x = listed[lo] + shift * dt
        assert bisect_left(ticks, x, lo, hi) == bisect_left(listed, x, lo, hi)
