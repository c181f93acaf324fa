"""Unit tests for Resource, PriorityResource and Store."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import (
    Environment,
    Hold,
    Interrupted,
    PriorityResource,
    Resource,
    SimulationError,
    Store,
    UtilizationMonitor,
)


@pytest.fixture
def env():
    return Environment()


def hold(env, resource, duration, log, tag, priority=0):
    """A process that holds *resource* for *duration* and logs (tag, start)."""
    with resource.request(priority=priority) as req:
        yield req
        log.append((tag, env.now))
        yield env.timeout(duration)


class TestResource:
    def test_single_server_serializes(self, env):
        res = Resource(env, capacity=1)
        log = []
        for tag in "abc":
            env.process(hold(env, res, 10, log, tag))
        env.run()
        assert log == [("a", 0), ("b", 10), ("c", 20)]

    def test_capacity_two_parallel(self, env):
        res = Resource(env, capacity=2)
        log = []
        for tag in "abc":
            env.process(hold(env, res, 10, log, tag))
        env.run()
        assert log == [("a", 0), ("b", 0), ("c", 10)]

    def test_fcfs_order_preserved(self, env):
        res = Resource(env, capacity=1)
        log = []

        def staggered(env, tag, arrive):
            yield env.timeout(arrive)
            with res.request() as req:
                yield req
                log.append(tag)
                yield env.timeout(5)

        for tag, arrive in [("first", 0), ("second", 1), ("third", 2)]:
            env.process(staggered(env, tag, arrive))
        env.run()
        assert log == ["first", "second", "third"]

    def test_grant_value_is_wait_time(self, env):
        res = Resource(env, capacity=1)

        def first(env):
            with res.request() as req:
                yield req
                yield env.timeout(7)

        def second(env):
            with res.request() as req:
                wait = yield req
                return wait

        env.process(first(env))
        p = env.process(second(env))
        env.run()
        assert p.value == 7

    def test_release_ungranted_cancels(self, env):
        res = Resource(env, capacity=1)

        def holder(env):
            with res.request() as req:
                yield req
                yield env.timeout(10)

        def quitter(env):
            req = res.request()
            yield env.timeout(1)
            res.release(req)  # give up while still queued
            return res.queue_length

        env.process(holder(env))
        q = env.process(quitter(env))
        env.run()
        assert q.value == 0

    def test_double_release_raises(self, env):
        res = Resource(env, capacity=1)

        def proc(env):
            req = res.request()
            yield req
            res.release(req)
            res.release(req)

        env.process(proc(env))
        with pytest.raises(SimulationError):
            env.run()

    def test_zero_capacity_rejected(self, env):
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_count_and_queue_length(self, env):
        res = Resource(env, capacity=1)
        log = []
        for tag in "ab":
            env.process(hold(env, res, 10, log, tag))
        env.run(until=5)
        assert res.count == 1
        assert res.queue_length == 1


class TestPriorityResource:
    def test_lower_priority_number_served_first(self, env):
        res = PriorityResource(env, capacity=1)
        log = []

        def submit(env):
            # Occupy the server, then queue low before high priority.
            with res.request(priority=1) as req:
                yield req
                env.process(hold(env, res, 1, log, "low", priority=5))
                env.process(hold(env, res, 1, log, "high", priority=0))
                yield env.timeout(10)

        env.process(submit(env))
        env.run()
        assert [t for t, _ in log] == ["high", "low"]

    def test_fcfs_within_same_priority(self, env):
        res = PriorityResource(env, capacity=1)
        log = []

        def submit(env):
            with res.request(priority=0) as req:
                yield req
                for tag in ["x", "y", "z"]:
                    env.process(hold(env, res, 1, log, tag, priority=3))
                yield env.timeout(10)

        env.process(submit(env))
        env.run()
        assert [t for t, _ in log] == ["x", "y", "z"]

    def test_non_preemptive(self, env):
        res = PriorityResource(env, capacity=1)
        log = []

        def low_then_high(env):
            with res.request(priority=5) as req:
                yield req
                log.append(("low-start", env.now))
                env.process(hold(env, res, 1, log, "high", priority=0))
                yield env.timeout(10)
                log.append(("low-end", env.now))

        env.process(low_then_high(env))
        env.run()
        assert log == [("low-start", 0), ("low-end", 10), ("high", 10)]

    def test_cancel_queued_priority_request(self, env):
        res = PriorityResource(env, capacity=1)

        def proc(env):
            with res.request(priority=0) as held:
                yield held
                queued = res.request(priority=1)
                res.release(queued)
                return res.queue_length

        p = env.process(proc(env))
        env.run()
        assert p.value == 0


class TestHold:
    def test_fifo_grant_order(self, env):
        res = Resource(env, capacity=1)
        log = []

        def job(env, tag):
            yield res.hold(2.0)
            log.append((tag, env.now))

        for tag in "abc":
            env.process(job(env, tag))
        env.run()
        assert log == [("a", 2.0), ("b", 4.0), ("c", 6.0)]

    def test_priority_grant_order(self, env):
        res = PriorityResource(env, capacity=1)
        log = []

        def job(env, tag, priority):
            yield res.hold(1.0, priority)
            log.append(tag)

        def submit(env):
            env.process(job(env, "first", 5))
            yield env.timeout(0.5)  # "first" is in service now
            for tag, priority in (("low", 3), ("high", 0), ("low2", 3)):
                env.process(job(env, tag, priority))

        env.process(submit(env))
        env.run()
        assert log == ["first", "high", "low", "low2"]

    def test_resumes_with_queueing_wait(self, env):
        res = Resource(env, capacity=1)

        def job(env):
            wait = yield res.hold(3.0)
            return wait, env.now

        first = env.process(job(env))
        second = env.process(job(env))
        env.run()
        assert first.value == (0.0, 3.0)
        assert second.value == (3.0, 6.0)

    def test_on_done_runs_after_release_before_resume(self, env):
        res = Resource(env, capacity=1)
        log = []

        def on_done(wait, duration):
            log.append(("done", env.now, wait, duration, res.count))

        def job(env):
            hold = res.hold(1.5, on_done=on_done)
            assert isinstance(hold, Hold)
            yield hold
            log.append(("resumed", env.now))

        env.process(job(env))
        env.run()
        # count == 0: the server was already released when on_done ran.
        assert log == [("done", 1.5, 0.0, 1.5, 0), ("resumed", 1.5)]

    def test_release_regrants_before_holder_resumes(self, env):
        res = Resource(env, capacity=1)
        log = []

        def first(env):
            yield res.hold(1.0)
            # The queued hold was granted by the release inside the
            # kernel, before this process continued.
            log.append(("first resumed", res.count, res.queue_length))

        def second(env):
            wait = yield res.hold(1.0)
            log.append(("second", env.now, wait))

        env.process(first(env))
        env.process(second(env))
        env.run()
        assert log == [("first resumed", 1, 0), ("second", 2.0, 1.0)]

    def test_busy_seconds_sum_and_reset(self, env):
        res = PriorityResource(env, capacity=1)

        def job(env, duration):
            yield res.hold(duration, 1)

        for duration in (0.25, 0.5, 1.0):
            env.process(job(env, duration))
        env.run()
        assert res.busy_seconds == 0.25 + 0.5 + 1.0
        res.busy_seconds = 0.0
        env.process(job(env, 2.0))
        env.run()
        assert res.busy_seconds == 2.0

    def test_negative_duration_raises(self, env):
        res = Resource(env, capacity=1)
        with pytest.raises(ValueError):
            res.hold(-0.5)
        assert res.count == 0 and res.queue_length == 0

    def test_zero_duration_still_queues(self, env):
        res = Resource(env, capacity=1)

        def job(env):
            wait = yield res.hold(0.0)
            return wait, env.now

        env.process(job(env))  # holds the server first
        p = env.process(job(env))
        env.run()
        assert p.value == (0.0, 0.0)
        assert env.events_scheduled > 0

    def test_interrupted_holder_does_not_leak_server(self, env):
        res = Resource(env, capacity=1)
        log = []

        def holder(env):
            try:
                yield res.hold(5.0)
                log.append("holder resumed by hold")
            except Interrupted:
                log.append(("interrupted", env.now))

        def queued(env):
            yield res.hold(5.0)
            log.append("queued holder resumed by hold")

        def later(env):
            yield env.timeout(2.0)
            wait = yield res.hold(1.0)
            log.append(("later", env.now, wait))

        victim = env.process(holder(env))
        queued_victim = env.process(queued(env))

        def interrupter(env):
            yield env.timeout(1.0)
            victim.interrupt()
            queued_victim.interrupt()

        env.process(interrupter(env))
        p = env.process(later(env))
        env.process(later(env))
        env.run()
        # Both holds ran their course (in service 0-5, queued 5-10) and
        # released the server; neither interrupted process was resumed
        # by its hold (the queued one died of the unhandled interrupt).
        assert log[0] == ("interrupted", 1.0)
        assert not queued_victim.ok
        assert log[1:] == [("later", 11.0, 8.0), ("later", 12.0, 9.0)]
        assert res.count == 0 and res.queue_length == 0
        assert res.busy_seconds == 12.0
        assert not p.is_alive


class TestStore:
    def test_put_then_get(self, env):
        store = Store(env)
        store.put("msg")

        def proc(env):
            item = yield store.get()
            return item

        p = env.process(proc(env))
        env.run()
        assert p.value == "msg"

    def test_get_blocks_until_put(self, env):
        store = Store(env)

        def getter(env):
            item = yield store.get()
            return (item, env.now)

        def putter(env):
            yield env.timeout(5)
            store.put("late")

        g = env.process(getter(env))
        env.process(putter(env))
        env.run()
        assert g.value == ("late", 5)

    def test_fifo_item_order(self, env):
        store = Store(env)
        for i in range(5):
            store.put(i)

        def drain(env):
            items = []
            for _ in range(5):
                items.append((yield store.get()))
            return items

        p = env.process(drain(env))
        env.run()
        assert p.value == [0, 1, 2, 3, 4]

    def test_getters_served_in_order(self, env):
        store = Store(env)
        results = []

        def getter(env, tag):
            item = yield store.get()
            results.append((tag, item))

        env.process(getter(env, "first"))
        env.process(getter(env, "second"))

        def putter(env):
            yield env.timeout(1)
            store.put("a")
            store.put("b")

        env.process(putter(env))
        env.run()
        assert results == [("first", "a"), ("second", "b")]

    def test_len_and_peek(self, env):
        store = Store(env)
        store.put(1)
        store.put(2)
        assert len(store) == 2
        assert store.peek_all() == [1, 2]


# -- hold == request / sleep / release, one entry fewer per burst --------

_TIES = st.sampled_from([0.0, 0.5, 1.0, 1.5])  # coarse grid: many exact ties

_JOB = st.tuples(
    _TIES,                                   # arrival
    st.lists(st.tuples(st.integers(0, 2),    # resource index
                       _TIES,                # duration
                       st.integers(0, 2)),   # priority
             min_size=1, max_size=3),
)


def _simulate(jobs, use_hold):
    env = Environment()
    resources = [Resource(env, capacity=1), Resource(env, capacity=2),
                 PriorityResource(env, capacity=1)]
    monitors = [UtilizationMonitor.attach(res, f"r{i}")
                for i, res in enumerate(resources)]
    log = []

    def job(env, tag, arrival, bursts):
        yield arrival
        for index, duration, priority in bursts:
            res = resources[index]
            if use_hold:
                wait = yield res.hold(duration, priority)
            else:
                req = res.request(priority)
                wait = yield req
                yield duration
                res.release(req)
            log.append((tag, env.now, wait))

    for tag, (arrival, bursts) in enumerate(jobs):
        env.process(job(env, tag, arrival, bursts))
    env.run()
    return (log, [m.utilization(env.now) for m in monitors],
            env.events_scheduled)


@given(jobs=st.lists(_JOB, min_size=1, max_size=12))
@settings(max_examples=150, deadline=None)
def test_hold_matches_explicit_request_sleep_release(jobs):
    """Same resume log -- tag, time, wait -- and utilization as the
    hand-written burst, with exactly one agenda entry fewer per burst
    (the hold pushes its wake entry at the grant; no grant entry)."""
    hold_log, hold_util, hold_events = _simulate(jobs, use_hold=True)
    log, util, events = _simulate(jobs, use_hold=False)
    assert hold_log == log
    assert hold_util == util
    bursts = sum(len(job_bursts) for _, job_bursts in jobs)
    assert hold_events == events - bursts


def test_hold_wake_runs_before_same_instant_sleep_pushed_after_grant():
    """The one tie order a hold changes against request / sleep /
    release: a sleep pushed after the grant decision and due at exactly
    the wake's instant runs after the wake (the hand-written burst's
    sleep only gets its sequence number when the grant entry surfaces,
    so there the other sleep runs first)."""

    def run(use_hold):
        env = Environment()
        res = Resource(env, capacity=1)
        log = []

        def burst(env):
            if use_hold:
                yield res.hold(1.0)
            else:
                req = res.request()
                yield req
                yield env.timeout(1.0)
                res.release(req)
            log.append("burst")

        def sleeper(env):
            yield env.timeout(1.0)  # pushed after burst's grant decision
            log.append("sleep")

        env.process(burst(env))
        env.process(sleeper(env))
        env.run()
        return log, env.now

    assert run(use_hold=True) == (["burst", "sleep"], 1.0)
    assert run(use_hold=False) == (["sleep", "burst"], 1.0)
