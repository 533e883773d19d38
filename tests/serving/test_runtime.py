"""End-to-end serving runs: latency, elasticity, admission, dollars."""

from __future__ import annotations

import json

import pytest

from repro.config import ScaleProfile
from repro.serving import AdmissionPolicy, AutoscalePolicy
from repro.telemetry import chrome_trace_json
from repro.warehouse import Warehouse
from repro.xmark import generate_corpus

pytestmark = pytest.mark.serving

DOCUMENTS = 16
SEED = 77


def _warehouse(**overrides):
    deployment = {"loaders": 2, "batch_size": 4}
    deployment.update(overrides)
    warehouse = Warehouse(deployment=deployment)
    warehouse.upload_corpus(generate_corpus(
        ScaleProfile(documents=DOCUMENTS, seed=SEED)))
    return warehouse


class TestFixedFleet:
    @pytest.fixture(scope="class")
    def report(self):
        warehouse = _warehouse(workers=2)
        index = warehouse.build_index("LUI")
        return warehouse.serve(
            {"arrival": "poisson", "rate_qps": 2.0, "queries": 30,
             "seed": 7}, index)

    def test_everything_admitted_and_answered(self, report):
        assert report.offered == 30
        assert report.admitted == 30
        assert report.shed == 0
        assert report.degraded == 0
        assert report.completed == 30
        assert len(report.queries) == 30

    def test_fleet_is_flat(self, report):
        assert not report.elastic
        assert report.initial_workers == 2
        assert report.peak_workers == 2
        assert report.launched == 2
        assert report.retired == 0
        assert report.fleet_timeline == [(0.0, 2)]

    def test_latencies_are_measured(self, report):
        assert report.p50_s > 0
        assert report.p50_s <= report.p95_s <= report.p99_s <= report.max_s
        assert report.duration_s > 0
        assert report.throughput_qps > 0

    def test_cost_ties_out_exactly(self, report):
        assert report.request_cost > 0
        assert report.request_cost == report.estimator_request_cost
        assert report.cost_tied_out
        assert report.ec2_cost > 0
        assert report.total_cost == report.request_cost + report.ec2_cost

    def test_per_query_costs_sum_below_phase_total(self, report):
        # Per-query span subtrees exclude frontend/queue overhead, so
        # their sum is a strictly positive lower bound of the phase.
        per_query = sum(q.cost for q in report.queries)
        assert 0 < per_query <= report.request_cost

    def test_report_renders(self, report):
        text = report.render()
        assert "cost tie-out" in text
        assert "exact" in text


class TestAutoscaledFleet:
    @pytest.fixture(scope="class")
    def report(self):
        warehouse = _warehouse()
        index = warehouse.build_index("LUI")
        autoscale = AutoscalePolicy(min_workers=1, max_workers=4,
                                    tick_s=2.0, scale_out_depth=2.0,
                                    cooldown_s=4.0)
        return warehouse.serve(
            {"arrival": "burst", "rate_qps": 2.0, "queries": 80,
             "seed": 13}, index, config={"autoscale": autoscale})

    def test_fleet_scales_out_under_burst(self, report):
        assert report.elastic
        assert report.initial_workers == 1
        assert report.peak_workers > 1
        assert report.scale_outs >= 1
        assert report.launched > 1

    def test_everything_still_answers(self, report):
        assert report.completed == report.admitted == 80

    def test_cost_ties_out_across_the_elastic_fleet(self, report):
        assert report.cost_tied_out
        assert report.request_cost > 0

    def test_timeline_is_rebased_and_monotonic_in_time(self, report):
        times = [t for t, _ in report.fleet_timeline]
        assert times == sorted(times)
        assert times[0] == 0.0


class TestAdmissionControl:
    @pytest.fixture(scope="class")
    def report(self):
        warehouse = _warehouse(workers=1)
        index = warehouse.build_index("2LUPI")
        admission = AdmissionPolicy(max_queue_depth=4,
                                    degrade_queue_depth=2)
        return warehouse.serve(
            {"arrival": "poisson", "rate_qps": 40.0, "queries": 40,
             "seed": 3}, index, config={"admission": admission})

    def test_overload_sheds_and_degrades(self, report):
        assert report.offered == 40
        assert report.shed > 0
        assert report.degraded > 0
        assert report.admitted == report.offered - report.shed
        assert report.completed == report.admitted

    def test_degraded_queries_took_the_scan_rung(self, report):
        flagged = [q for q in report.queries if q.degraded]
        assert len(flagged) == report.degraded
        assert all(q.index_mode == "s3-scan" for q in flagged)

    def test_normal_queries_kept_the_index(self, report):
        normal = [q for q in report.queries if not q.degraded]
        assert normal
        assert all(q.index_mode == "index" for q in normal)

    def test_cost_still_ties_out(self, report):
        assert report.cost_tied_out


class TestDeterminism:
    def _run(self, tag="serve:golden"):
        warehouse = _warehouse()
        index = warehouse.build_index("LUI")
        report = warehouse.serve(
            {"arrival": "burst", "rate_qps": 2.0, "queries": 25,
             "seed": 42}, index,
            config={"autoscale": AutoscalePolicy(min_workers=1,
                                                 max_workers=3,
                                                 tick_s=2.0)},
            tag=tag)
        trace = chrome_trace_json(warehouse.telemetry.tracer)
        return report, trace

    def test_default_tag_is_per_warehouse(self):
        first, _ = self._run(tag=None)
        second, _ = self._run(tag=None)
        assert first.tag == second.tag == "serve:LUI:burst:1"
        assert json.dumps(first.to_dict(), sort_keys=True) == \
            json.dumps(second.to_dict(), sort_keys=True)

    def test_same_seed_is_byte_identical(self):
        first, first_trace = self._run()
        second, second_trace = self._run()
        assert json.dumps(first.to_dict(), sort_keys=True) == \
            json.dumps(second.to_dict(), sort_keys=True)
        assert first_trace == second_trace

    def test_dict_round_trips_through_json(self):
        report, _ = self._run()
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["completed"] == report.completed
        assert payload["dollars"]["requests_span"] == report.request_cost
