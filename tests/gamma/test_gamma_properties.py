"""Property-based tests for the Gamma components."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment
from repro.gamma import GAMMA_PARAMETERS, Cpu, Disk, Network


@given(
    requests=st.lists(
        st.tuples(st.integers(min_value=0, max_value=841),   # cylinder
                  st.integers(min_value=1, max_value=6),     # pages
                  st.booleans()),                            # sequential
        min_size=1, max_size=25)
)
@settings(max_examples=30, deadline=None)
def test_disk_serves_every_request_exactly_once(requests):
    env = Environment()
    cpu = Cpu(env, GAMMA_PARAMETERS)
    disk = Disk(env, GAMMA_PARAMETERS, cpu, seed=3)
    events = [disk.submit(cyl, pages, sequential=seq)
              for cyl, pages, seq in requests]

    def waiter(env):
        for ev in events:
            yield ev

    done = env.process(waiter(env))
    env.run(until=done)
    assert disk.requests_served == len(requests)
    assert disk.queue_length == 0
    assert all(ev.processed for ev in events)


@given(
    requests=st.lists(
        st.integers(min_value=0, max_value=841),
        min_size=2, max_size=20)
)
@settings(max_examples=30, deadline=None)
def test_disk_busy_time_bounded_by_elapsed(requests):
    env = Environment()
    cpu = Cpu(env, GAMMA_PARAMETERS)
    disk = Disk(env, GAMMA_PARAMETERS, cpu, seed=4)
    events = [disk.submit(cyl, 1) for cyl in requests]

    def waiter(env):
        for ev in events:
            yield ev

    done = env.process(waiter(env))
    env.run(until=done)
    assert 0 < disk.busy_seconds <= env.now + 1e-9
    # Each single-page read costs at least the transfer time.
    assert disk.busy_seconds >= len(requests) * \
        GAMMA_PARAMETERS.page_transfer_seconds() - 1e-9


@given(
    messages=st.lists(
        st.tuples(st.integers(min_value=0, max_value=3),   # src
                  st.integers(min_value=0, max_value=3),   # dst
                  st.integers(min_value=1, max_value=8192)),
        min_size=1, max_size=30)
)
@settings(max_examples=30, deadline=None)
def test_network_delivers_every_message(messages):
    env = Environment()
    net = Network(env, GAMMA_PARAMETERS)
    for node in range(4):
        net.attach(node, Cpu(env, GAMMA_PARAMETERS))

    def sender(env):
        for i, (src, dst, size) in enumerate(messages):
            yield from net.deliver(src, dst, size, ("msg", i))

    done = env.process(sender(env))
    env.run(until=done)
    env.run()
    delivered = sum(len(net.endpoint(n).mailbox) for n in range(4))
    assert delivered == len(messages)
    assert net.messages_sent == len(messages)
    assert net.bytes_sent == sum(size for _, _, size in messages)


@given(
    bursts=st.lists(st.integers(min_value=1, max_value=500_000),
                    min_size=1, max_size=15)
)
@settings(max_examples=30, deadline=None)
def test_cpu_work_conservation(bursts):
    """Total busy time equals the exact sum of requested service."""
    env = Environment()
    cpu = Cpu(env, GAMMA_PARAMETERS)

    def job(env, instructions):
        yield cpu.execute(instructions)

    for instr in bursts:
        env.process(job(env, instr))
    env.run()
    expected = sum(bursts) / GAMMA_PARAMETERS.cpu_instructions_per_second
    assert cpu.busy_seconds == pytest.approx(expected)
    # Single server: makespan equals total service.
    assert env.now == pytest.approx(expected)
