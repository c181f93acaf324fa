"""Tests for the declarative run-plan layer."""

import pickle

import pytest

from repro.experiments import (
    FIGURES,
    PlannedRun,
    RunSpec,
    compile_figure,
    compile_point,
    execute_run,
    params_fingerprint,
)
from repro.experiments.plan import clear_memos, prewarm
from repro.gamma import GAMMA_PARAMETERS


def _spec(**overrides):
    base = dict(figure="8a", strategy="range", cardinality=10_000,
                correlation="low", num_sites=4, multiprogramming_level=2,
                measured_queries=20, seed=5, mix_name="low-low")
    base.update(overrides)
    return RunSpec(**base)


class TestRunSpec:
    def test_frozen_and_hashable(self):
        spec = _spec()
        with pytest.raises(AttributeError):
            spec.seed = 7
        assert spec in {spec}
        assert spec == _spec()

    def test_picklable(self):
        spec = _spec()
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_digest_stable(self):
        assert _spec().digest() == _spec().digest()
        assert len(_spec().digest()) == 64

    def test_digest_sensitive_to_every_field(self):
        base = _spec().digest()
        variants = [
            _spec(strategy="magic"), _spec(cardinality=20_000),
            _spec(correlation="high"), _spec(num_sites=8),
            _spec(multiprogramming_level=4), _spec(measured_queries=40),
            _spec(seed=6), _spec(mix_name="low-moderate"),
            _spec(qb_low_tuples=20), _spec(params_digest="deadbeef"),
        ]
        digests = {base} | {v.digest() for v in variants}
        assert len(digests) == len(variants) + 1

    def test_machine_seed_derives_from_spec(self):
        assert _spec(seed=41).machine_seed == 41


class TestParamsFingerprint:
    def test_equal_params_fingerprint_identically(self):
        assert params_fingerprint(GAMMA_PARAMETERS) == \
            params_fingerprint(GAMMA_PARAMETERS.with_overrides())

    def test_changed_knob_changes_fingerprint(self):
        faster = GAMMA_PARAMETERS.with_overrides(
            cpu_instructions_per_second=6_000_000.0)
        assert params_fingerprint(faster) != \
            params_fingerprint(GAMMA_PARAMETERS)


class TestCompile:
    def test_figure_grid_strategy_major(self):
        plan = compile_figure(FIGURES["8a"], mpls=(1, 8), seed=5)
        keys = [(run.spec.strategy, run.spec.multiprogramming_level)
                for run in plan]
        assert keys == [("range", 1), ("range", 8), ("berd", 1),
                        ("berd", 8), ("magic", 1), ("magic", 8)]
        assert len(plan) == 6
        assert len(set(plan.digests())) == 6

    def test_point_applies_overrides(self):
        planned = compile_point(FIGURES["8a"], "berd",
                                multiprogramming_level=4,
                                correlation=1.0, qb_low_tuples=20,
                                num_sites=8)
        assert planned.spec.correlation == 1.0
        assert planned.spec.qb_low_tuples == 20
        assert planned.spec.num_sites == 8
        assert planned.spec.params_digest == \
            params_fingerprint(GAMMA_PARAMETERS)

    def test_point_defaults_to_config_correlation(self):
        planned = compile_point(FIGURES["8b"], "range",
                                multiprogramming_level=1)
        assert planned.spec.correlation == "high"


class TestMemoEviction:
    """The memos evict oldest-first instead of dropping everything."""

    @pytest.fixture(autouse=True)
    def _fresh_memos(self):
        clear_memos()
        yield
        clear_memos()

    def test_relation_memo_keeps_recent_entries(self, monkeypatch):
        from repro.experiments import plan

        builds = []
        real_make = plan.make_wisconsin

        def counting_make(cardinality, correlation, seed):
            builds.append(seed)
            return real_make(cardinality, correlation=correlation,
                             seed=seed)

        monkeypatch.setattr(plan, "make_wisconsin", counting_make)
        monkeypatch.setattr(plan, "_MAX_RELATIONS", 4)

        def relation(seed):
            return plan._relation_for(_spec(cardinality=2_000, seed=seed))

        for seed in range(5):
            relation(seed)
        # Cap 4: inserting seed 4 evicted only seed 0, the oldest.
        assert builds == [0, 1, 2, 3, 4]
        for seed in (4, 3, 2, 1):
            relation(seed)
        # All four recent entries were still memoized.  The old
        # clear-the-dict eviction would have rebuilt 3, 2 and 1 here.
        assert builds == [0, 1, 2, 3, 4]
        relation(0)
        assert builds == [0, 1, 2, 3, 4, 0]

    def test_placement_memo_evicts_oldest_only(self, monkeypatch):
        from repro.experiments import plan

        built = []
        real_build = plan.build_strategy

        def counting_build(name, config, cardinality, params):
            built.append(name)
            return real_build(name, config, cardinality, params)

        monkeypatch.setattr(plan, "build_strategy", counting_build)
        monkeypatch.setattr(plan, "_MAX_PLACEMENTS", 2)

        def placement(strategy):
            spec = _spec(cardinality=2_000, strategy=strategy)
            return plan._placement_for(spec, GAMMA_PARAMETERS)

        for strategy in ("range", "berd", "magic"):
            placement(strategy)
        assert built == ["range", "berd", "magic"]
        # berd was evicted to make room for magic; magic is still live.
        placement("magic")
        assert built == ["range", "berd", "magic"]
        placement("range")
        assert built == ["range", "berd", "magic", "range"]


class TestPrewarm:
    @pytest.fixture(autouse=True)
    def _fresh_memos(self):
        clear_memos()
        yield
        clear_memos()

    def _plan(self):
        return compile_figure(FIGURES["8a"], cardinality=2_000,
                              num_sites=4, measured_queries=10,
                              mpls=(1, 2), seed=5)

    def test_builds_each_distinct_artifact_once(self):
        stats = prewarm(self._plan())
        # 3 strategies x 2 MPLs share one relation; the relation memo
        # is hit while building the 2nd and 3rd strategies' placements.
        assert stats == {"relations_built": 1, "relations_hit": 2,
                         "placements_built": 3, "placements_hit": 0,
                         "errors": 0}

    def test_second_prewarm_is_all_hits(self):
        prewarm(self._plan())
        stats = prewarm(self._plan())
        assert stats == {"relations_built": 0, "relations_hit": 3,
                         "placements_built": 0, "placements_hit": 3,
                         "errors": 0}

    def test_strict_raises_on_unbuildable_spec(self):
        import dataclasses
        bad = PlannedRun(spec=dataclasses.replace(
            _spec(cardinality=2_000), strategy="no-such-strategy"))
        with pytest.raises(ValueError):
            prewarm([bad])

    def test_non_strict_counts_errors(self):
        import dataclasses
        bad = PlannedRun(spec=dataclasses.replace(
            _spec(cardinality=2_000), strategy="no-such-strategy"))
        good = compile_point(FIGURES["8a"], "range", cardinality=2_000,
                             num_sites=4, measured_queries=10,
                             multiprogramming_level=1, seed=5)
        stats = prewarm([bad, good], strict=False)
        assert stats["errors"] == 1
        assert stats["placements_built"] == 1


class TestExecuteRun:
    def test_memo_reuse_is_result_invariant(self):
        planned = compile_point(FIGURES["8a"], "magic",
                                multiprogramming_level=2,
                                cardinality=8_000, num_sites=4,
                                measured_queries=20, seed=5)
        warm = execute_run(planned.spec, planned.params)
        clear_memos()
        cold = execute_run(planned.spec, planned.params)
        assert warm == cold

    def test_planned_run_defaults_params(self):
        assert PlannedRun(spec=_spec()).params == GAMMA_PARAMETERS
