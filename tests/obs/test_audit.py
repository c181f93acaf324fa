"""Unit tests for the static placement-quality audit layer."""

import math

import pytest

from repro.core import RangeStrategy
from repro.gamma import GammaMachine
from repro.obs import (
    SkewStats,
    Telemetry,
    audit_digest,
    audit_placement,
    fragment_counts,
    gini_coefficient,
    skew_stats,
    slice_spreads,
)
from repro.experiments import ATTR_A, ATTR_B, FIGURES, build_strategy
from repro.storage import make_wisconsin
from repro.workload import make_mix

CARDINALITY = 20_000
SITES = 32


@pytest.fixture(scope="module")
def relation():
    return make_wisconsin(CARDINALITY, correlation="low", seed=13)


@pytest.fixture(scope="module")
def mix():
    return make_mix("low-low", domain=CARDINALITY)


def _placement(name, relation, num_sites=SITES):
    strategy = build_strategy(name, FIGURES["8a"], cardinality=CARDINALITY)
    return strategy.partition(relation, num_sites)


class TestSkewStats:
    def test_even_vector_is_unskewed(self):
        stats = skew_stats([10, 10, 10, 10])
        assert stats.max_mean_ratio == 1.0
        assert stats.cv == 0.0
        assert stats.gini == 0.0
        assert stats.empty_fraction == 0.0

    def test_concentrated_vector_is_maximally_skewed(self):
        stats = skew_stats([100, 0, 0, 0])
        assert stats.max_mean_ratio == pytest.approx(4.0)
        assert stats.gini == pytest.approx(0.75)
        assert stats.empty_fraction == pytest.approx(0.75)

    def test_gini_bounds(self):
        # Gini of n-1 zeros and one loaded cell approaches (n-1)/n.
        assert 0.0 <= gini_coefficient([5, 3, 8, 1]) < 1.0
        assert gini_coefficient([0, 0, 0]) == 0.0
        assert gini_coefficient([7]) == 0.0

    def test_all_zero_vector(self):
        stats = skew_stats([0, 0])
        assert stats.max_mean_ratio == 1.0
        assert stats.cv == 0.0
        assert stats.empty_fraction == 1.0

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError):
            skew_stats([])

    def test_json_round_trip(self):
        stats = skew_stats([3, 1, 4, 1, 5])
        assert SkewStats.from_json_dict(stats.to_json_dict()) == stats


class TestSection7Fanouts:
    """The audit reproduces the paper's §7 in-text processor counts."""

    def test_range_broadcasts_qb_to_all_processors(self, relation, mix):
        audit = audit_placement(_placement("range", relation), mix,
                                strategy="range", samples=200)
        qb = audit.fanouts["QB"]
        # Range on unique1 cannot localize unique2: all 32 processors.
        assert qb.target_min == qb.target_max == SITES
        assert qb.broadcast_fraction == 1.0
        assert not qb.two_step
        # The partitioning attribute localizes to a single processor.
        qa = audit.fanouts["QA"]
        assert qa.target_mean == pytest.approx(1.0)
        assert qa.broadcast_fraction == 0.0

    def test_magic_fanout_within_one_of_mi_targets(self, relation, mix):
        placement = _placement("magic", relation)
        assert placement.slice_targets == {ATTR_A: 4, ATTR_B: 8}
        assert placement.mi == {ATTR_A: 4.0, ATTR_B: 8.0}
        audit = audit_placement(placement, mix, strategy="magic",
                                samples=200)
        assert abs(audit.fanouts["QA"].target_mean
                   - placement.slice_targets[ATTR_A]) <= 1.0
        assert abs(audit.fanouts["QB"].target_mean
                   - placement.slice_targets[ATTR_B]) <= 1.0
        assert not audit.fanouts["QA"].two_step
        assert audit.fanouts["QA"].broadcast_fraction == 0.0

    def test_magic_slice_spread_tracks_targets(self, relation):
        spreads = {s.attribute: s
                   for s in slice_spreads(_placement("magic", relation))}
        for attribute in (ATTR_A, ATTR_B):
            spread = spreads[attribute]
            assert spread.target is not None
            assert abs(spread.achieved_mean - spread.target) <= 1.0
            assert spread.within_one

    def test_berd_reports_two_step_probe_and_base_fanout(self, relation,
                                                         mix):
        audit = audit_placement(_placement("berd", relation), mix,
                                strategy="berd", samples=200)
        qb = audit.fanouts["QB"]
        # Secondary-attribute selections probe the auxiliary index
        # first, then select on the matching base fragments.
        assert qb.two_step
        assert qb.probe_mean >= 1.0
        assert 1.0 <= qb.target_mean < SITES
        assert qb.broadcast_fraction == 0.0
        # Primary-attribute selections need no probe.
        assert not audit.fanouts["QA"].two_step
        # Auxiliary heat map present for the secondary attribute.
        assert ATTR_B in audit.aux_counts
        assert sum(audit.aux_counts[ATTR_B]) == CARDINALITY


class TestAuditStructure:
    def test_heat_maps_cover_relation(self, relation, mix):
        audit = audit_placement(_placement("range", relation), mix,
                                strategy="range", samples=50)
        assert len(audit.tuple_counts) == SITES
        assert sum(audit.tuple_counts) == CARDINALITY
        assert audit.fragment_counts == tuple(1 for _ in range(SITES))

    def test_magic_fragment_counts_from_directory(self, relation, mix):
        placement = _placement("magic", relation)
        audit = audit_placement(placement, mix, strategy="magic",
                                samples=50)
        assert sum(audit.fragment_counts) == placement.directory.num_entries

    def test_deterministic_across_calls(self, relation, mix):
        placement = _placement("berd", relation)
        first = audit_placement(placement, mix, strategy="berd",
                                samples=60, seed=5)
        second = audit_placement(placement, mix, strategy="berd",
                                 samples=60, seed=5)
        assert first == second
        assert audit_digest({"berd": first.summary()}) \
            == audit_digest({"berd": second.summary()})

    def test_json_round_trip(self, relation, mix):
        from repro.obs import PlacementAudit
        audit = audit_placement(_placement("magic", relation), mix,
                                strategy="magic", samples=40)
        assert PlacementAudit.from_json_dict(audit.to_json_dict()) == audit

    def test_small_directory_identity_path_has_no_targets(self, mix):
        tiny = make_wisconsin(600, correlation="low", seed=13)
        strategy = build_strategy("magic", FIGURES["8a"], cardinality=600)
        # 62x61 entries > 16 sites, so targets exist; force the identity
        # path with a relation smaller than the directory cannot happen
        # via configs -- use a 1-D strategy instead.
        from repro.core import MagicStrategy, MagicTuning
        one_dim = MagicStrategy(
            [ATTR_A], tuning=MagicTuning(shape={ATTR_A: 40},
                                         mi={ATTR_A: 4.0}))
        placement = one_dim.partition(tiny, 8)
        # K = 1 assigns round-robin; no factorized target applies.
        assert placement.slice_targets is None
        assert slice_spreads(placement)[0].target is None


class TestRuntimeLoadBalance:
    """The gamma machine records per-node load-balance telemetry."""

    def test_run_records_busy_shares_and_op_counters(self):
        relation = make_wisconsin(10_000, correlation="low", seed=70)
        placement = RangeStrategy("unique1").partition(relation, 4)
        telemetry = Telemetry(timeline_interval=0.05)
        machine = GammaMachine(placement,
                               indexes={"unique1": False, "unique2": True},
                               seed=3, telemetry=telemetry)
        machine.run(make_mix("low-low", domain=10_000),
                    multiprogramming_level=4, measured_queries=60)
        registry = telemetry.registry

        shares = [registry.get(f"node.{site}.cpu.busy_share").value
                  for site in range(4)]
        assert sum(shares) == pytest.approx(1.0)
        assert registry.get("nodes.cpu.busy_share.max_over_mean").value \
            >= 1.0

        selects = [registry.get(f"node.{site}.ops.selects").value
                   for site in range(4)]
        assert sum(selects) > 0
        imbalance = registry.get("nodes.cpu.imbalance")
        assert imbalance is not None and len(imbalance) > 0
        assert all(0.0 <= value <= 1.0 + 1e-9
                   for _, value in imbalance.points)

    def test_disabled_telemetry_records_nothing(self):
        relation = make_wisconsin(5_000, correlation="low", seed=70)
        placement = RangeStrategy("unique1").partition(relation, 4)
        machine = GammaMachine(placement,
                               indexes={"unique1": False, "unique2": True},
                               seed=3)
        machine.run(make_mix("low-low", domain=5_000),
                    multiprogramming_level=2, measured_queries=30)
        # No telemetry subscribes to the probes, so no registry exists.
        assert machine.telemetry is None
        assert machine.probes.on_request_served == ()


class TestSpreadProbe:
    def test_spread_probe_measures_rate_gap(self):
        from repro.des import Environment
        from repro.obs import MetricsRegistry, TimelineSampler
        env = Environment()
        registry = MetricsRegistry()
        sampler = TimelineSampler(env, registry, interval=1.0)
        busy = {"a": 0.0, "b": 0.0}
        sampler.add_spread_probe("imbalance", [lambda: busy["a"],
                                               lambda: busy["b"]])
        sampler.start()

        def workload(env):
            while True:
                yield env.timeout(1.0)
                busy["a"] += 1.0   # flat out
                busy["b"] += 0.25  # mostly idle

        env.process(workload(env))
        env.run(until=3.5)
        values = [v for _, v in registry.get("imbalance").points]
        # After the first interval the gap settles at 0.75/s.
        assert values[1:] == [pytest.approx(0.75)] * 2

    def test_spread_probe_survives_resync(self):
        from repro.des import Environment
        from repro.obs import MetricsRegistry, TimelineSampler
        env = Environment()
        registry = MetricsRegistry()
        sampler = TimelineSampler(env, registry, interval=1.0)
        busy = {"a": 0.0, "b": 0.0}
        sampler.add_spread_probe("imbalance", [lambda: busy["a"],
                                               lambda: busy["b"]])
        busy["a"] = 100.0  # warm-up work that resync must discard
        sampler.resync()
        sampler.start()
        env.run(until=1.5)
        values = [v for _, v in registry.get("imbalance").points]
        assert values == [pytest.approx(0.0)]
        assert all(math.isfinite(v) for v in values)
