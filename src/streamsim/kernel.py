"""Minimal deterministic discrete-event kernel (virtual time, no wall clock)."""

import heapq


class EventHandle:
    """Ticket returned by schedule(); keep it around if you may cancel."""

    __slots__ = ("fire_time", "sequence", "action", "cancelled")

    def __init__(self, fire_time, sequence, action):
        self.fire_time = fire_time
        self.sequence = sequence
        self.action = action
        self.cancelled = False


class Kernel:
    """Executes scheduled actions in (fire_time, insertion order).

    Time is continuous seconds starting at 0.  Events scheduled for the same
    instant run in the order they were scheduled, including events scheduled
    by other events during the same run_until() call.
    """

    def __init__(self):
        self.now = 0.0
        self._queue = []  # heap of (fire_time, seq, EventHandle)
        self._seq = 0
        self._executed = 0

    @property
    def executed(self):
        """Events run so far, over every run_until() call."""
        return self._executed

    def schedule(self, fire_time, action):
        if fire_time < self.now:
            raise ValueError(
                "cannot schedule event at t=%g before now=%g" % (fire_time, self.now)
            )
        handle = EventHandle(float(fire_time), self._seq, action)
        heapq.heappush(self._queue, (handle.fire_time, handle.sequence, handle))
        self._seq += 1
        return handle

    def schedule_in(self, delay, action):
        return self.schedule(self.now + delay, action)

    def cancel(self, handle):
        # Lazy removal; cancelled entries are skipped when popped.
        handle.cancelled = True

    def run_until(self, t_end):
        """Run every event with fire_time <= t_end, then set now = t_end.

        Returns the number of events executed by this call.
        """
        if t_end < self.now:
            raise ValueError("run_until(%g) is in the past (now=%g)" % (t_end, self.now))
        executed = 0
        while self._queue and self._queue[0][0] <= t_end:
            fire_time, _, handle = heapq.heappop(self._queue)
            if handle.cancelled:
                continue
            self.now = fire_time
            handle.action()
            executed += 1
        self.now = t_end
        self._executed += executed
        return executed

    def pending(self):
        return sum(1 for _, _, h in self._queue if not h.cancelled)
