"""The session's clock: virtual time, with one action pending at a time, and
the times of a run of ticks."""

import math
from bisect import bisect_right

from .binade import even_steps, twice_low_bit


class Kernel:
    """Virtual time in seconds from 0, and at most one pending action.

    A session keeps exactly one action pending, its next full tick, and that
    action schedules the one after it.  schedule() rejects a time before now
    and a second pending action.
    """

    def __init__(self):
        self.now = 0.0
        self.executed = 0  # actions run, over every run_until() call
        self._at = 0.0
        self._action = None

    def schedule(self, fire_time, action):
        if fire_time < self.now:
            raise ValueError(
                "cannot schedule an action at t=%g before now=%g" % (fire_time, self.now)
            )
        if self._action is not None:
            raise ValueError("an action is already pending at t=%g" % self._at)
        self._at, self._action = float(fire_time), action

    def run_until(self, t_end):
        """Run the pending action while it falls due by t_end, then set now = t_end."""
        if t_end < self.now:
            raise ValueError("run_until(%g) is in the past (now=%g)" % (t_end, self.now))
        while self._action is not None and self._at <= t_end:
            action, self._action = self._action, None
            self.now = self._at
            action()
            self.executed += 1
        self.now = t_end


class Ticks:
    """The values list(accumulate(repeat(dt, n), initial=x0)) holds, read
    without building the list: ticks[j] is x0 with dt added j times.

    Inside one binade adding dt rounds to the same step whatever the value,
    unless the sum leaves the binade or is a tie (binade.even_steps).  A run
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

    def index(self, x, lo, hi):
        """bisect_left(self, x, lo, hi), counting a segment's steps in place of searching them."""
        i = bisect_right(self.bases, x) - 1
        j = lo if i < 0 else self.starts[i] + math.ceil((x - self.bases[i]) / self.steps[i])
        j = min(max(j, lo), hi)
        while j > lo and self[j - 1] >= x:
            j -= 1
        while j < hi and self[j] < x:
            j += 1
        return j
