"""Tests for the parameter-sweep framework."""

import pytest

import hashlib
import json
import multiprocessing

from repro.experiments import (AXES, FIGURES, SweepResult, compile_point,
                               execute_run, sweep)
from repro.experiments.plan import clear_memos


SMALL = dict(cardinality=10_000, measured_queries=50,
             multiprogramming_level=8)


#: One representative value per built-in axis, for apply() coverage.
AXIS_SAMPLES = {
    "num_sites": 8,
    "qb_selectivity": 12,
    "correlation": 0.5,
    "buffer_pool": 64,
    "cpu_mips": 6_000_000,
}


class TestAxes:
    def test_builtin_axes_present(self):
        assert {"num_sites", "qb_selectivity", "correlation",
                "buffer_pool", "cpu_mips"} <= set(AXES)

    def test_every_axis_sampled(self):
        # Keep AXIS_SAMPLES in sync when adding an axis.
        assert set(AXIS_SAMPLES) == set(AXES)

    @pytest.mark.parametrize("axis_name", sorted(AXES))
    def test_apply_overrides_accepted_by_run_point(self, axis_name):
        overrides = AXES[axis_name].apply(AXIS_SAMPLES[axis_name])
        assert set(overrides) <= {"params", "correlation",
                                  "qb_low_tuples", "num_sites"}
        kwargs = dict(cardinality=4_000, measured_queries=15, num_sites=4)
        kwargs.update(overrides)
        planned = compile_point(FIGURES["8a"], "range",
                                multiprogramming_level=2, **kwargs)
        run = execute_run(planned.spec, planned.params)
        assert run.completed == 15
        assert run.throughput > 0

    def test_every_axis_described(self):
        for axis in AXES.values():
            assert axis.description

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown axis"):
            sweep("voltage", [1, 2])


class TestSweep:
    @pytest.fixture(scope="class")
    def processors_sweep(self):
        return sweep("num_sites", [4, 8], figure="8a",
                     strategies=("range", "magic"), **SMALL)

    def test_grid_complete(self, processors_sweep):
        assert len(processors_sweep.points) == 4  # 2 values x 2 strategies
        assert processors_sweep.axis == "num_sites"

    def test_series_extraction(self, processors_sweep):
        series = processors_sweep.series("magic")
        assert [v for v, _ in series] == [4, 8]
        assert all(th > 0 for _, th in series)

    def test_ratio_series(self, processors_sweep):
        ratios = processors_sweep.ratio_series("magic", "range")
        assert len(ratios) == 2
        assert all(r > 0 for _, r in ratios)

    def test_missing_strategy_empty(self, processors_sweep):
        assert processors_sweep.series("berd") == []

    def test_qb_selectivity_axis(self):
        result = sweep("qb_selectivity", [10, 20], figure="9",
                       strategies=("magic",), **SMALL)
        assert len(result.points) == 2

    def test_correlation_axis(self):
        result = sweep("correlation", [0.0, 1.0], figure="8a",
                       strategies=("magic",), **SMALL)
        th = dict(result.series("magic"))
        # Perfectly correlated attributes localize and speed MAGIC up.
        assert th[1.0] > th[0.0]

    def test_buffer_pool_axis(self):
        result = sweep("buffer_pool", [0, 256], figure="8a",
                       strategies=("range",), **SMALL)
        assert len(result.points) == 2

    def test_parallel_sweep_matches_serial(self, processors_sweep):
        parallel = sweep("num_sites", [4, 8], figure="8a",
                         strategies=("range", "magic"), jobs=2, **SMALL)
        assert parallel.jobs == 2
        assert [(p.strategy, p.value, p.result)
                for p in parallel.points] == \
            [(p.strategy, p.value, p.result)
             for p in processors_sweep.points]

    def test_sweep_resumes_from_cache(self, tmp_path):
        from repro.experiments import ResultCache
        cache = ResultCache(str(tmp_path))
        first = sweep("num_sites", [4, 8], figure="8a",
                      strategies=("range", "magic"), cache=cache, **SMALL)
        assert first.executed_runs == 4
        second = sweep("num_sites", [4, 8], figure="8a",
                       strategies=("range", "magic"), cache=cache, **SMALL)
        assert second.executed_runs == 0
        assert second.cached_runs == 4
        assert [p.result for p in second.points] == \
            [p.result for p in first.points]


class TestRunPoint:
    """One point compiled with overrides and executed directly."""

    @staticmethod
    def _run(strategy, **kwargs):
        planned = compile_point(FIGURES["8a"], strategy, **kwargs)
        return execute_run(planned.spec, planned.params)

    def test_overrides_apply(self):
        run = self._run("range", multiprogramming_level=4,
                        cardinality=10_000, num_sites=4,
                        measured_queries=40, correlation=1.0)
        assert run.completed == 40
        assert run.multiprogramming_level == 4

    def test_qb_tuples_override(self):
        run = self._run("berd", multiprogramming_level=4,
                        cardinality=10_000, num_sites=4,
                        measured_queries=40, qb_low_tuples=20)
        assert run.completed == 40


#: sha256 of ``[num_sites, strategy, spec digest, result JSON]`` per
#: point of the tiny scale-up below, captured from the dedicated
#: scale-up loop this sweep replaced, before it was removed.
SCALEUP_DIGEST = (
    "d4d441453ba24538cbaa6a305dcdea902ec5ca22de1f9fc37633a1d5dec30ee2")

TINY_SCALEUP = dict(figure="8a", multiprogramming_level=4,
                    cardinality=4_000, measured_queries=15, seed=13)


def _scaleup_digest(result):
    payload = [[p.value, p.strategy, p.spec_digest, p.result.to_json_dict()]
               for p in result.points]
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class TestScaleupSweep:
    """Scale-up is the num_sites sweep on the shared executor path."""

    @pytest.fixture(scope="class")
    def serial(self):
        clear_memos()  # every placement must be built inside its run
        return sweep("num_sites", [8, 16], **TINY_SCALEUP)

    def test_reproduces_dedicated_scaleup_loop(self, serial):
        assert [(p.value, p.strategy) for p in serial.points] == [
            (8, "range"), (8, "berd"), (8, "magic"),
            (16, "range"), (16, "berd"), (16, "magic")]
        assert _scaleup_digest(serial) == SCALEUP_DIGEST

    def test_parallel_matches_serial(self, serial):
        parallel = sweep("num_sites", [8, 16], jobs=2, **TINY_SCALEUP)
        assert [(p.strategy, p.value, p.spec_digest, p.result)
                for p in parallel.points] == \
            [(p.strategy, p.value, p.spec_digest, p.result)
             for p in serial.points]
        assert _scaleup_digest(parallel) == SCALEUP_DIGEST

    def test_serial_points_carry_phase_attribution(self, serial):
        for point in serial.points:
            assert point.placement_build_seconds > 0
            assert point.simulate_seconds > 0
            assert point.events > 0
            assert point.events_per_sec > 0
        assert serial.points[0].relation_build_seconds > 0
        assert serial.prewarm_build_seconds() == 0.0

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the parent-side prewarm runs only under fork")
    def test_parallel_reports_prewarm_builds(self):
        clear_memos()
        parallel = sweep("num_sites", [8, 16], jobs=2,
                         start_method="fork", **TINY_SCALEUP)
        # Placements were built by the parent-side prewarm, not inside
        # the runs: per point "unknown", in total never a silent 0.0.
        assert all(p.placement_build_seconds is None
                   for p in parallel.points)
        assert parallel.prewarm_build_seconds() > 0
        assert all(p.events > 0 for p in parallel.points)

    def test_json_payload(self, serial):
        payload = json.loads(json.dumps(serial.to_json_dict()))
        assert payload["axis"] == "num_sites"
        assert payload["values"] == [8, 16]
        assert payload["strategies"] == ["range", "berd", "magic"]
        point = payload["points"][0]
        assert point["value"] == 8
        assert point["result"]["throughput"] == \
            serial.points[0].result.throughput
        for key in ("placement_build_seconds", "simulate_seconds",
                    "relation_build_seconds", "events", "events_per_sec",
                    "spec_digest"):
            assert key in point
