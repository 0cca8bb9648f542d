import pytest

from streamsim.kernel import Kernel


def test_action_may_schedule_the_next_within_the_same_run():
    k = Kernel()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 4:
            k.schedule(k.now + 0.1, lambda: chain(n + 1))

    k.schedule(0.0, lambda: chain(0))
    k.run_until(1.0)
    assert fired == [0, 1, 2, 3, 4]
    assert k.executed == 5
    assert k.now == 1.0


def test_cascade_past_horizon_is_deferred():
    k = Kernel()
    fired = []
    k.schedule(0.9, lambda: k.schedule(k.now + 0.5, lambda: fired.append("late")))
    k.run_until(1.0)
    assert fired == []
    k.run_until(2.0)
    assert fired == ["late"]


def test_a_second_pending_action_is_rejected():
    k = Kernel()
    k.schedule(1.0, lambda: None)
    with pytest.raises(ValueError, match="already pending"):
        k.schedule(2.0, lambda: None)
    k.run_until(1.0)
    k.schedule(2.0, lambda: None)  # the first one has run


def test_a_past_time_is_rejected():
    k = Kernel()
    k.run_until(5.0)
    with pytest.raises(ValueError):
        k.schedule(4.9, lambda: None)
    with pytest.raises(ValueError):
        k.run_until(4.9)


def test_run_until_accepts_repeated_and_equal_horizons():
    k = Kernel()
    fired = []
    k.schedule(1.0, lambda: fired.append(1))
    k.run_until(1.0)
    assert fired == [1]
    k.run_until(1.0)
    assert fired == [1] and k.executed == 1


def test_executed_counts_actions_over_every_run():
    k = Kernel()

    def tick():
        if k.now < 2.5:
            k.schedule(k.now + 1.0, tick)

    k.schedule(0.5, tick)
    k.run_until(1.0)
    assert k.executed == 1
    k.run_until(3.0)
    assert k.executed == 3
