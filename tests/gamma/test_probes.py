"""The machine's probe list: duck-typed subscribers, one tuple per moment."""

from repro.core import RangeStrategy
from repro.des import Environment
from repro.gamma import GAMMA_PARAMETERS, GammaMachine
from repro.gamma.cpu import Cpu
from repro.gamma.network import Network
from repro.gamma.probes import MOMENTS, NO_PROBES, Probes

INDEXES = {"unique1": False, "unique2": True}


class _Terminations:
    """A partial subscriber: it watches one moment only."""

    def __init__(self):
        self.calls = []

    def on_query_terminated(self, query_id, now):
        self.calls.append(query_id)


def _hooked_moments(probes):
    return sorted(moment for moment in MOMENTS if getattr(probes, moment))


def test_partial_subscriber_is_called_for_its_moment_only(tiny_relation,
                                                          tiny_mix):
    placement = RangeStrategy("unique1").partition(tiny_relation, 4)
    plain = GammaMachine(placement, indexes=INDEXES, seed=5)
    assert _hooked_moments(plain.probes) == []
    assert plain.probes.trace(1) is None

    subscriber = _Terminations()
    # The machine finds subscribers by duck typing, whatever slot they
    # arrive in: this one is neither a Telemetry nor a checker.
    watched = GammaMachine(placement, indexes=INDEXES, seed=5,
                           invariants=subscriber)
    assert _hooked_moments(watched.probes) == ["on_query_terminated"]
    result = watched.run(tiny_mix, multiprogramming_level=2,
                         measured_queries=20)
    assert result == plain.run(tiny_mix, multiprogramming_level=2,
                               measured_queries=20)
    assert len(subscriber.calls) == watched.metrics.completed_total
    assert len(set(subscriber.calls)) == len(subscriber.calls)


def test_hooks_are_bound_once_in_subscriber_order():
    class Sent:
        def __init__(self, log, name):
            self.log, self.name = log, name

        def on_message_sent(self, src, dst, num_bytes):
            self.log.append((self.name, src, dst, num_bytes))

    log = []
    probes = Probes([Sent(log, "a"), object(), Sent(log, "b")])
    assert _hooked_moments(probes) == ["on_message_sent"]
    env = Environment()
    network = Network(env, GAMMA_PARAMETERS, probes)
    for node_id in (0, 1):
        network.attach(node_id, Cpu(env, GAMMA_PARAMETERS))
    network.send(0, 1, 100, "hello")
    env.run()
    assert log == [("a", 0, 1, 100), ("b", 0, 1, 100)]
    assert _hooked_moments(NO_PROBES) == []
