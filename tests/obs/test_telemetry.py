"""Telemetry lifecycle tests plus the machine integration checks."""

import pytest

from repro.core import RangeStrategy
from repro.des import Environment
from repro.gamma import GammaMachine
from repro.obs import Telemetry
from repro.storage import make_wisconsin
from repro.workload import make_mix


def _machine(telemetry=None, **kwargs):
    relation = make_wisconsin(10_000, correlation="low", seed=70)
    placement = RangeStrategy("unique1").partition(relation, 4)
    return GammaMachine(placement,
                        indexes={"unique1": False, "unique2": True},
                        seed=3, telemetry=telemetry, **kwargs)


class TestLifecycle:
    def test_bind_is_idempotent_for_same_env(self):
        telemetry = Telemetry()
        env = Environment()
        assert telemetry.bind(env) is telemetry
        assert telemetry.bind(env) is telemetry

    def test_bind_rejects_second_env(self):
        telemetry = Telemetry()
        telemetry.bind(Environment())
        with pytest.raises(RuntimeError):
            telemetry.bind(Environment())

    def test_trace_disabled_still_collects_metrics(self):
        telemetry = Telemetry(trace=False)
        telemetry.bind(Environment())
        assert not telemetry.tracing
        assert telemetry.begin_query(1, "QA") is None
        assert telemetry.lookup(1) is None
        telemetry.end_query(1)  # no-op, must not raise


class TestMachineIntegration:
    def test_default_machine_uses_null_telemetry(self):
        # No telemetry object at all: nothing subscribes to the probes.
        machine = _machine()
        assert machine.telemetry is None
        assert machine.probes.on_message_sent == ()
        assert machine.probes.trace(1) is None

    def test_run_produces_spans_metrics_and_timelines(self):
        telemetry = Telemetry(timeline_interval=0.05)
        machine = _machine(telemetry)
        result = machine.run(make_mix("low-low", domain=10_000),
                             multiprogramming_level=4, measured_queries=80)
        assert result.completed >= 80

        # Spans: roughly one finished trace per measured query (queries
        # in flight at window start/end blur the exact count).
        assert telemetry.spans.finished >= 40
        assert telemetry.spans.span_count() > 0
        assert telemetry.spans.resource_totals  # why-table substrate

        # Metrics: per-node disk counters were registered and counted.
        reads = telemetry.registry.get("node.0.disk.reads")
        assert reads is not None and reads.value > 0
        completed = telemetry.registry.get("sched.queries.completed")
        assert completed.value == pytest.approx(result.completed)

        # Timelines: the sampler produced utilization series per node.
        cpu_timeline = telemetry.registry.get("node.0.cpu.utilization")
        assert cpu_timeline is not None and len(cpu_timeline) > 0
        assert all(0.0 <= v <= 1.0 + 1e-9 for _, v in cpu_timeline.points)
        sched_timeline = telemetry.registry.get("sched.cpu.utilization")
        assert sched_timeline is not None and len(sched_timeline) > 0

    def test_warmup_telemetry_is_dropped(self):
        telemetry = Telemetry()
        machine = _machine(telemetry)
        result = machine.run(make_mix("low-low", domain=10_000),
                             multiprogramming_level=4, measured_queries=50)
        # The completed-queries counter was reset at the window
        # boundary: it counts measured completions only, not warm-up.
        completed = telemetry.registry.get("sched.queries.completed")
        assert completed.value == pytest.approx(result.completed)
        assert completed.value < 50 + machine.metrics.completed_total

    def test_disabled_run_keeps_summary_utilizations(self):
        machine = _machine()
        result = machine.run(make_mix("low-low", domain=10_000),
                             multiprogramming_level=4, measured_queries=50)
        # The summary's utilizations come from the same cumulative
        # busy-seconds the sampler reads; they must survive telemetry
        # being off entirely.
        assert 0.0 < result.cpu_utilization <= 1.0
        assert 0.0 < result.disk_utilization <= 1.0
        usage = machine.resource_usage()
        assert usage["node.0.cpu.busy_seconds"] > 0
        assert usage["sched.cpu.busy_seconds"] > 0


class TestTelemetrySpec:
    def test_build_mirrors_constructor(self):
        from repro.obs import TelemetrySpec
        spec = TelemetrySpec(trace=False, timeline_interval=0.25,
                             span_capacity=1_000)
        telemetry = spec.build()
        telemetry.bind(Environment())
        assert telemetry.spans is None  # trace=False
        assert telemetry.timeline_interval == 0.25
        assert telemetry.span_capacity == 1_000

    def test_spec_is_picklable(self):
        import pickle

        from repro.obs import TelemetrySpec
        spec = TelemetrySpec()
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_detached_telemetry_pickles_with_data(self):
        import pickle

        from repro.obs import why_table
        telemetry = Telemetry()
        machine = _machine(telemetry)
        machine.run(make_mix("low-low", domain=10_000),
                    multiprogramming_level=4, measured_queries=40)
        telemetry.detach()
        assert telemetry.env is None
        assert telemetry.sampler is None
        clone = pickle.loads(pickle.dumps(telemetry))
        # Collected data survives the round trip...
        assert clone.spans.span_count() == telemetry.spans.span_count()
        assert clone.spans.resource_totals == telemetry.spans.resource_totals
        assert "query type" in why_table(clone.spans)
        # ...including registry instruments and timelines.
        completed = clone.registry.get("sched.queries.completed")
        assert completed.value == 40

    def test_undetached_telemetry_still_pickles(self):
        # __getstate__ strips the environment and sampler even when the
        # caller forgot to detach (the pickle is a snapshot either way).
        import pickle
        telemetry = Telemetry()
        machine = _machine(telemetry)
        machine.run(make_mix("low-low", domain=10_000),
                    multiprogramming_level=2, measured_queries=20)
        clone = pickle.loads(pickle.dumps(telemetry))
        assert clone.env is None
        assert clone.sampler is None
        assert clone.spans.span_count() == telemetry.spans.span_count()
