"""Tail pricing: each call prices only the meter records of its own span.

``run_workload``/``run_query``, ``serve`` and the live mutations fold
``meter.since(mark)`` — the records appended after the call took its
mark — through :func:`span_inclusive_costs`.  Every span such a call
reads opened after the mark, so the tail fold must equal, bit for bit,
the fold over the whole meter; and the work per call must not grow with
the meter's history.
"""

from __future__ import annotations

import pytest

import repro.telemetry.costing as costing
from repro.config import ScaleProfile
from repro.mutations import mutation_feed
from repro.query.workload import workload_query
from repro.telemetry import span_inclusive_costs
from repro.tenancy import TenancyConfig, TenantSpec
from repro.warehouse import Warehouse
from repro.xmark import generate_corpus

from tests.mutations.test_live import make_increment

pytestmark = pytest.mark.telemetry

DOCUMENTS = 16
SEED = 77
QUERIES = ("q1", "q2", "q6")


@pytest.fixture(scope="module")
def long_lived():
    """One long-lived warehouse: queries, a serve, mutations, compaction."""
    warehouse = Warehouse(deployment={"loaders": 2, "batch_size": 4,
                                      "workers": 2, "shards": 2})
    warehouse.upload_corpus(generate_corpus(
        ScaleProfile(documents=DOCUMENTS, seed=SEED)))
    _, record = warehouse.build_index_checkpointed("LUI")
    live = warehouse.live_index(record.name)

    workloads = [warehouse.run_workload([workload_query(name)], live)
                 for name in QUERIES * 3]
    executions = [warehouse.run_query(workload_query(name), live)
                  for name in QUERIES * 3]

    corpus = warehouse.corpus
    feed = mutation_feed(
        live,
        [("add", make_increment(1)),
         ("delete", [corpus.documents[0].uri]),
         ("update", (corpus.documents[1].uri,
                     corpus.data[corpus.documents[2].uri]))],
        config={"loaders": 2}, interval_s=2.0)
    tenancy = TenancyConfig(tenants=(TenantSpec(name="alpha", weight=3.0),
                                     TenantSpec(name="beta", weight=1.0)))
    serving = warehouse.serve(
        {"arrival": "poisson", "rate_qps": 2.0, "queries": 8, "seed": 7},
        live, config={"tenancy": tenancy}, background=[feed])

    deltas = [
        warehouse.add_documents(live, make_increment(2),
                                config={"loaders": 2}),
        warehouse.delete_documents(live, [corpus.documents[3].uri]),
        warehouse.update_document(live, corpus.documents[4].uri,
                                  corpus.data[corpus.documents[5].uri],
                                  config={"loaders": 2}),
    ]
    compactions = [warehouse.compact_index(live, max_units=1),
                   warehouse.compact_index(live)]
    workloads.append(warehouse.run_workload(
        [workload_query(name) for name in QUERIES], live))
    return {"warehouse": warehouse, "workloads": workloads,
            "executions": executions, "serving": serving,
            "deltas": deltas, "compactions": compactions}


@pytest.fixture(scope="module")
def whole(long_lived):
    """``span_inclusive_costs`` over the whole meter, once, at the end."""
    warehouse = long_lived["warehouse"]
    return span_inclusive_costs(warehouse.telemetry.tracer,
                                warehouse.cloud.meter,
                                warehouse.cloud.price_book)


def test_query_costs_equal_the_whole_meter_fold(long_lived, whole):
    executions = list(long_lived["executions"])
    for report in long_lived["workloads"]:
        assert report.cost is not None
        assert report.cost == whole[report.span_id]
        executions.extend(report.executions)
    for execution in executions:
        assert execution.cost is not None
        assert execution.cost == whole[execution.span_id]


def test_serve_costs_equal_the_whole_meter_fold(long_lived, whole):
    report = long_lived["serving"]
    tracer = long_lived["warehouse"].telemetry.tracer
    assert report.completed == report.offered == 16   # 8 per tenant
    assert {q.tenant for q in report.queries} == {"alpha", "beta"}
    assert report.cost_tied_out and report.tenants_tied_out
    assert report.request_cost == whole[report.span_id].total

    query_spans = {}
    for span in tracer.spans:
        if span.name == "query" and \
                report.span_id in tracer.ancestor_ids(span.span_id):
            query_id = span.attributes["query_id"]
            assert query_id not in query_spans     # no redeliveries
            query_spans[query_id] = span.span_id
    assert sorted(query_spans) == [q.query_id for q in report.queries]
    for outcome in report.queries:
        assert outcome.cost == whole[query_spans[outcome.query_id]].total


def test_mutation_costs_equal_the_whole_meter_fold(long_lived, whole):
    partial, resumed = long_lived["compactions"]
    assert partial.interrupted and not partial.committed
    assert resumed.committed
    for report in long_lived["deltas"] + long_lived["compactions"]:
        assert report.span_cost is not None
        assert report.span_cost == whole[report.span_id]
        assert report.cost_tied_out


def test_pricing_work_is_bounded_per_call(monkeypatch):
    """The k-th ``run_query`` prices only its own records, not history."""
    warehouse = Warehouse(deployment={"loaders": 2})
    warehouse.upload_corpus(generate_corpus(
        ScaleProfile(documents=DOCUMENTS, seed=SEED)))
    index = warehouse.build_index("LU")
    meter = warehouse.cloud.meter

    handed = []

    def counting(tracer, records, book):
        handed.append(list(records))
        return span_inclusive_costs(tracer, records, book)

    monkeypatch.setattr(costing, "span_inclusive_costs", counting)
    counts = []
    for _ in range(6):
        before = len(meter)
        warehouse.run_query(workload_query("q1"), index)
        history = list(meter)
        (priced,) = handed
        handed.clear()
        start = len(history) - len(priced)
        # A suffix of the meter metered during this call; only the
        # fleet launch, which precedes the call's span, is left out.
        assert start >= before
        assert priced == history[start:]
        assert all(rec.service == "ec2" for rec in history[before:start])
        counts.append(len(priced))
    assert counts[0] > 0
    assert counts == [counts[0]] * len(counts)
