import random

import pytest

from streamsim.kernel import Kernel


def test_events_run_in_time_order():
    k = Kernel()
    fired = []
    times = [0.5, 0.1, 0.9, 0.3, 0.7]
    for t in times:
        k.schedule(t, lambda t=t: fired.append(t))
    k.run_until(1.0)
    assert fired == sorted(times)
    assert k.now == 1.0


def test_same_time_events_run_in_schedule_order():
    k = Kernel()
    fired = []
    for i in range(10):
        k.schedule(2.0, lambda i=i: fired.append(i))
    k.run_until(5.0)
    assert fired == list(range(10))


def test_event_may_schedule_another_within_the_same_run():
    k = Kernel()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 4:
            k.schedule_in(0.1, lambda: chain(n + 1))

    k.schedule(0.0, lambda: chain(0))
    count = k.run_until(1.0)
    assert fired == [0, 1, 2, 3, 4]
    assert count == 5


def test_cascade_past_horizon_is_deferred():
    k = Kernel()
    fired = []
    k.schedule(0.9, lambda: k.schedule_in(0.5, lambda: fired.append("late")))
    k.run_until(1.0)
    assert fired == []
    assert k.pending() == 1
    k.run_until(2.0)
    assert fired == ["late"]


def test_cancelled_events_do_not_fire():
    k = Kernel()
    fired = []
    keep = k.schedule(0.2, lambda: fired.append("keep"))
    drop = k.schedule(0.1, lambda: fired.append("drop"))
    k.cancel(drop)
    assert k.pending() == 1
    k.run_until(1.0)
    assert fired == ["keep"]
    assert keep.cancelled is False


def test_schedule_in_the_past_is_rejected():
    k = Kernel()
    k.run_until(5.0)
    with pytest.raises(ValueError):
        k.schedule(4.9, lambda: None)


def test_run_until_accepts_repeated_and_equal_horizons():
    k = Kernel()
    fired = []
    k.schedule(1.0, lambda: fired.append(1))
    k.run_until(1.0)
    assert fired == [1]
    assert k.run_until(1.0) == 0


def test_randomized_schedule_always_fires_in_order():
    rng = random.Random(7)
    for trial in range(20):
        k = Kernel()
        fired = []
        times = [round(rng.uniform(0, 10), 3) for _ in range(50)]
        for t in times:
            k.schedule(t, lambda t=t: fired.append(t))
        k.run_until(10.0)
        assert fired == sorted(times), f"trial {trial}"


def test_executed_counts_events_over_every_run():
    k = Kernel()
    for t in (0.5, 1.5, 2.5):
        k.schedule(t, lambda: None)
    k.cancel(k.schedule(1.0, lambda: None))
    k.run_until(1.0)
    assert k.executed == 1
    k.run_until(3.0)
    assert k.executed == 3
