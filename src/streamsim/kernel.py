"""The session's clock: virtual time, with one action pending at a time."""


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
