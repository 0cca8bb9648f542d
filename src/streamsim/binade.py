"""Running float sums in closed form, a binade at a time.

Inside one binade, [2**e, 2**(e + 1)), every float is a multiple of the
binade's ulp.  Adding a constant d >= 0 to any of them rounds d to the same
multiple of that ulp, so long as the exact sum stays inside the binade and
is not a tie.  A tie needs d's bits below the ulp to be exactly half of it,
which happens only at an ulp of twice d's lowest set bit: at a finer ulp the
sum is exact, and at a coarser one it rounds the same way every time.  So
the running sums x, x + d, (x + d) + d, ... are x + j * step there, where
step is the first sum less x, and each x + j * step is exact to compute.
Adding several constants in turn is the same argument once per addition,
and one round of them is one step (even_steps()).

A tie can be taken too.  What an addition adds depends at most on whether
the sum is an even or an odd multiple of the ulp, and a tie rounds to the
even one.  So after a round with a tie in it the sum's parity is the same
whatever the round started from, and every round from there adds the same
step: once two rounds in a row have run inside one binade, the second one's
step repeats up to the binade's top (settled_steps()).
"""

import math
from bisect import bisect_right
from functools import lru_cache

TOP = 2.0 ** 53  # the top of a binade over its ulp


@lru_cache(maxsize=64)
def twice_low_bit(d):
    """The ulp at which adding the float d can tie: twice d's lowest set bit.
    0.0 for 0.0, which never ties, and for a d that is not finite, whose
    sums even_steps() turns away by their step; inf where twice the bit is
    past the largest float, and so past every ulp."""
    if not math.isfinite(d):
        return 0.0
    n, den = d.as_integer_ratio()  # den is a power of two
    try:
        return math.ldexp(n & -n, 2 - den.bit_length())
    except OverflowError:
        return math.inf


def even_steps(x, step, reach, ties):
    """How many rounds of additions from x in a row each add exactly `step`.

    A round adds one or more constants, all >= 0, in turn; `step` is the
    first round's result less x, `reach` the constants' sum, and `ties`
    their twice_low_bit()s.  The answer is 1 unless x is positive and below
    the last binade, step is positive and finite, and x's ulp is none of
    `ties`.  Else it is the rounds that stay two steps clear of the top of
    x's binade, as the rounding slack asks: after n of them the sum is
    exactly x + n * step.
    """
    ulp = math.ulp(x)
    if 0.0 < x < 2.0 ** 1023 and 0.0 < step < math.inf and ulp not in ties:
        return max(1, int((ulp * TOP - x - reach) / step) - 2)
    return 1


def settled_steps(before, x, step, reach):
    """How many more rounds from x each add exactly `step`, where x is the
    sum two rounds after `before` and `step` the second round's step.

    The rounds add the same constants, all >= 0, whose sum is `reach`, and
    may tie.  The answer is 0 unless step is positive and finite and
    `before` is in x's binade (so both rounds ran inside it).  Else it is
    the rounds that stay two steps clear of the binade's top, as in
    even_steps(): after n of them the sum is exactly x + n * step.
    """
    top = math.ulp(x) * TOP
    if 0.5 * top <= before and 0.0 < step < math.inf:
        return max(0, int((top - x - reach) / step) - 2)
    return 0


class Ticks:
    """The values list(accumulate(repeat(dt, n), initial=x0)) holds, read
    without building the list: ticks[j] is x0 with dt added j times.

    Inside one binade adding dt rounds to the same step whatever the value,
    unless the sum leaves the binade or is a tie (even_steps()).  A run
    of equal steps is one segment, where ticks[j] = base + (j - start) * step
    is exact; anywhere else a segment is one step, taken as the addition
    takes it.
    """

    __slots__ = ("n", "starts", "bases", "steps")

    def __init__(self, x0, dt, n):
        self.n = n
        self.starts, self.bases, self.steps = [], [], []
        ties = (twice_low_bit(dt),)
        j, x = 0, x0
        while j <= n:
            step = (x + dt) - x
            count = even_steps(x, step, dt, ties)
            self.starts.append(j)
            self.bases.append(x)
            self.steps.append(step)
            j, x = j + count, x + count * step

    def __len__(self):
        return self.n + 1

    def __getitem__(self, key):
        if isinstance(key, slice):
            first, stop, every = key.indices(self.n + 1)
            out = []
            for start, base, step, end in zip(self.starts, self.bases, self.steps, self.starts[1:] + [stop]):
                lo = max(first, start)
                lo += -(lo - first) % every
                out += [base + (j - start) * step for j in range(lo, min(stop, end), every)]
            return out
        i = bisect_right(self.starts, key) - 1
        return self.bases[i] + (key - self.starts[i]) * self.steps[i]
