"""Queueing-theory validation of the simulator.

The paper's model "was validated against the Gamma database machine";
we have no Gamma, but the simulator must obey the laws any queueing
network obeys.  These tests check it against closed-form results:

* M/D/1 waiting time at a single CPU under Poisson arrivals;
* Little's law (E[N] = lambda * R) on the whole machine, open arrivals;
* the utilization law (U = X * D) for the disks;
* intra-query linear speedup (the paper's footnote 2).
"""

import random

import pytest

from repro.core import BerdStrategy, MagicStrategy, MagicTuning, RangeStrategy
from repro.des import Environment, TallyMonitor
from repro.gamma import GAMMA_PARAMETERS, Cpu, GammaMachine, OpenArrivalSource
from repro.storage import make_wisconsin
from repro.workload import make_mix

INDEXES = {"unique1": False, "unique2": True}


class TestMD1:
    @pytest.mark.parametrize("rho", [0.3, 0.6])
    def test_cpu_utilization_matches_offered_load(self, rho):
        """Poisson arrivals at offered load rho: measured utilization ~ rho."""
        env = Environment()
        cpu = Cpu(env, GAMMA_PARAMETERS)
        service = 0.01
        instructions = service * GAMMA_PARAMETERS.cpu_instructions_per_second
        rate = rho / service
        rng = random.Random(42)

        def job(env):
            yield cpu.execute(instructions)

        def arrivals(env):
            for _ in range(4000):
                yield env.timeout(rng.expovariate(rate))
                env.process(job(env))

        env.process(arrivals(env))
        env.run()
        assert cpu.busy_seconds / env.now == pytest.approx(rho, rel=0.1)

    @pytest.mark.parametrize("rho", [0.3, 0.6, 0.8])
    def test_md1_waiting_time(self, rho):
        """Measure queueing delay explicitly and compare with M/D/1."""
        env = Environment()
        cpu = Cpu(env, GAMMA_PARAMETERS)
        service = 0.01
        instructions = service * GAMMA_PARAMETERS.cpu_instructions_per_second
        rate = rho / service
        rng = random.Random(7)
        responses = TallyMonitor()

        def job(env):
            arrived = env.now
            yield cpu.execute(instructions)
            responses.record(env.now - arrived)

        def arrivals(env):
            for _ in range(6000):
                yield env.timeout(rng.expovariate(rate))
                env.process(job(env))

        env.process(arrivals(env))
        env.run()
        expected_response = service + rho * service / (2 * (1 - rho))
        assert responses.mean == pytest.approx(expected_response, rel=0.15)


class TestOperationalLaws:
    @pytest.fixture(scope="class")
    def open_run(self):
        relation = make_wisconsin(20_000, correlation="low", seed=60)
        placement = RangeStrategy("unique1").partition(relation, 8)
        machine = GammaMachine(placement, indexes=INDEXES, seed=4)
        mix = make_mix("low-low", domain=20_000)
        driver = OpenArrivalSource(machine.env, machine.scheduler, mix,
                                   machine.metrics,
                                   arrivals_per_second=40.0, seed=9)
        driver.start()

        # Sample the number of in-flight queries for Little's law.
        samples = TallyMonitor()

        def sampler(env):
            while env.now < 120.0:
                samples.record(machine.scheduler.in_flight)
                yield env.timeout(0.05)

        machine.env.process(sampler(machine.env))
        machine.env.run(until=120.0)
        return machine, samples

    def test_littles_law(self, open_run):
        """E[N] = lambda * R on the whole machine."""
        machine, samples = open_run
        completed = machine.metrics.completed_total
        assert completed > 2000
        throughput = completed / machine.env.now
        response = machine.metrics.mean_response_time()
        expected_n = throughput * response
        assert samples.mean == pytest.approx(expected_n, rel=0.2)

    def test_utilization_law(self, open_run):
        """U_disk = X * D_disk, with D measured as busy time per query."""
        machine, _ = open_run
        elapsed = machine.env.now
        completed = machine.metrics.completed_total
        throughput = completed / elapsed
        total_busy = sum(n.disk.busy_seconds for n in machine.nodes)
        demand_per_query = total_busy / completed
        utilization = total_busy / (len(machine.nodes) * elapsed)
        assert utilization == pytest.approx(
            throughput * demand_per_query / len(machine.nodes), rel=1e-6)
        # And the system is comfortably below saturation at this rate.
        assert utilization < 0.9

    def test_throughput_tracks_arrival_rate(self, open_run):
        machine, _ = open_run
        rate = machine.metrics.completed_total / machine.env.now
        assert rate == pytest.approx(40.0, rel=0.15)


class TestLinearSpeedup:
    def test_intra_query_parallelism_reduces_response(self):
        """Footnote 2: declustering wider cuts an isolated query's
        response time.  BERD runs the moderate QA on one processor,
        MAGIC on ~16: at MPL 1 MAGIC must answer several times faster."""
        relation = make_wisconsin(100_000, correlation="low", seed=61)
        mix = make_mix("moderate-low")
        berd = BerdStrategy("unique1", ["unique2"]).partition(relation, 32)
        magic = MagicStrategy(
            ["unique1", "unique2"],
            tuning=MagicTuning(shape={"unique1": 193, "unique2": 23},
                               mi={"unique1": 9.0, "unique2": 1.0}),
        ).partition(relation, 32)

        responses = {}
        for name, placement in (("berd", berd), ("magic", magic)):
            machine = GammaMachine(placement, indexes=INDEXES, seed=7)
            result = machine.run(mix, multiprogramming_level=1,
                                 measured_queries=80)
            responses[name] = result.response_time_by_type["QA"]
        assert responses["berd"] > 3 * responses["magic"]
