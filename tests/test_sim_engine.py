"""Tests for the discrete-event scheduler that keeps the testbed replay's clock.

The rest of the scheduler's tests sit beside the replay in ``test_testbed.py``.
"""

from repro.testbed.scheduler import Scheduler


def test_environment_starts_at_zero():
    scheduler = Scheduler()
    assert scheduler.now == 0.0


def test_timeout_advances_clock():
    scheduler = Scheduler()
    seen = []

    def proc():
        yield 10.0
        seen.append(scheduler.now)

    scheduler.process(proc())
    scheduler.run(until=20.0)
    assert seen == [10.0]


def test_processes_execute_in_creation_order_at_same_time():
    scheduler = Scheduler()
    order = []

    def proc(name):
        order.append(name)
        yield 1.0
        order.append(name)

    scheduler.process(proc("a"))
    scheduler.process(proc("b"))
    scheduler.run(until=5.0)
    assert order == ["a", "b", "a", "b"]
