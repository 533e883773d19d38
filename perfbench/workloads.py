"""The benchmark's workloads, driven through the public ``Warehouse`` API.

Each workload is a fixed amount of seeded work (a *round*): set-up
(corpus generation, deployment, upload and, where stated, the index
build) followed by a timed phase.  A round makes the same simulated
outputs every time it runs with one seed, which is what the digest
checks; ``run.py`` repeats rounds for the measured duration and reports
medians.  See README.md for why each workload was chosen.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro import xmark
from repro.config import ScaleProfile
from repro.engine import evaluator
from repro.mutations import CompactionPolicy
from repro.query.workload import WORKLOAD_ORDER, workload
from repro.warehouse import Warehouse
from repro.warehouse.warehouse import RESULTS_BUCKET

#: Base corpus of every workload: 200 XMark documents of 16 KiB from the
#: profile's own seed.  It is the same for every run seed, which varies
#: only the request streams and the increments, so that the spread
#: between seeds measures the program rather than corpus luck.
CORPUS_DOCUMENTS = 200
DOCUMENT_BYTES = 16 * 1024
#: Index builds and delta publications use 8 ``l`` loaders.
LOADERS = 8
#: Poisson arrival rate of every ``serve`` call (simulated queries/s).
RATE_QPS = 2.0


class Checks:
    """Counts correctness checks made and failed, keeping the failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def merge(self, other: "Checks") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures.extend(other.failures)


@dataclass
class Op:
    """One timed call of a round: its phase, wall seconds and work done."""

    #: "build" (documents indexed by ``build_index_checkpointed``),
    #: "ingest" (increment documents published by ``add_documents`` and
    #: any ``compact_index`` it triggered), "serve" (queries completed by
    #: one ``serve`` call) or "query" (one closed-loop ``run_query``).
    phase: str
    seconds: float
    amount: int


@dataclass
class Round:
    """Wall-clock measurements and checked outputs of one round."""

    setup_s: float = 0.0
    #: Wall seconds of the whole round (set-up plus timed phase).
    wall_s: float = 0.0
    #: The timed calls, in order: the same sequence in every round.
    ops: List[Op] = field(default_factory=list)
    #: ``serve`` calls made so far in the round.
    serves: int = 0
    #: ``IndexCache.stats()`` at the end of the round (None: no cache).
    cache: Optional[Dict[str, float]] = None
    checks: Checks = field(default_factory=Checks)
    #: Canonical renderings of the simulated outputs, in order.
    outputs: List[str] = field(default_factory=list)
    #: Machine-speed scale of the round's wall times (see run.py).
    scale: float = 1.0

    def scaled_ops(self) -> List[Op]:
        """The timed calls with their seconds multiplied by ``scale``."""
        return [Op(op.phase, op.seconds * self.scale, op.amount)
                for op in self.ops]

    @property
    def digest(self) -> str:
        """sha256 of the round's simulated outputs."""
        return hashlib.sha256(
            "\n".join(self.outputs).encode("utf-8")).hexdigest()


def _corpus(documents: int = CORPUS_DOCUMENTS,
            seed: int = ScaleProfile.seed) -> Any:
    return xmark.generate_corpus(ScaleProfile(
        documents=documents, document_bytes=DOCUMENT_BYTES, seed=seed))


def _build(warehouse: Warehouse, strategy: str, rnd: Round) -> Any:
    """Checkpointed build, timed into ``rnd``; returns (index, record)."""
    started = time.perf_counter()
    built, record = warehouse.build_index_checkpointed(strategy)
    rnd.ops.append(Op("build", time.perf_counter() - started,
                      len(warehouse.corpus)))
    return built, record


def _serve(warehouse: Warehouse, index: Any, queries: int, seed: int,
           rnd: Round) -> None:
    """One timed, checked ``serve`` call; its report joins the digest."""
    traffic = {"arrival": "poisson", "rate_qps": RATE_QPS,
               "queries": queries, "seed": seed}
    # The default serve tag numbers serves process-wide; an explicit tag
    # in the same format keeps every round's outputs identical.
    rnd.serves += 1
    tag = "serve:{}:poisson:{}".format(index.strategy.name, rnd.serves)
    started = time.perf_counter()
    report = warehouse.serve(traffic, index, tag=tag)
    rnd.ops.append(Op("serve", time.perf_counter() - started,
                      report.completed))
    rnd.checks.check(report.completed == report.offered,
                     "serve seed {}: {} of {} queries completed".format(
                         seed, report.completed, report.offered))
    rnd.checks.check(report.cost_tied_out is True,
                     "serve seed {}: dollar tie-out not exact".format(seed))
    rnd.outputs.append(json.dumps(report.to_dict(), sort_keys=True))


class Workload:
    """A named, seeded round of warehouse work."""

    name = ""

    def prepare(self, seed: int) -> Any:
        """Per-process inputs shared by every round (not timed)."""
        return None

    def setup(self, seed: int, inputs: Any, rnd: Round) -> Any:
        raise NotImplementedError

    def run(self, seed: int, inputs: Any, state: Any, rnd: Round) -> None:
        raise NotImplementedError

    def round(self, seed: int, inputs: Any,
              after_setup: Optional[Callable[[], None]] = None) -> Round:
        """Set up, run and check one round.

        ``after_setup`` is called between set-up and the timed phase.
        """
        rnd = Round()
        started = time.perf_counter()
        state = self.setup(seed, inputs, rnd)
        rnd.setup_s = time.perf_counter() - started
        if after_setup is not None:
            after_setup()
        self.run(seed, inputs, state, rnd)
        rnd.wall_s = time.perf_counter() - started
        return rnd


class Serve2LUPI(Workload):
    """Read-only open-arrival ``serve`` on a 2LUPI index."""

    name = "serve-2lupi"
    QUERIES = 300

    def setup(self, seed: int, inputs: Any, rnd: Round) -> Any:
        warehouse = Warehouse(deployment={"loaders": LOADERS})
        warehouse.upload_corpus(_corpus())
        index, _ = _build(warehouse, "2LUPI", rnd)
        return warehouse, index

    def run(self, seed: int, inputs: Any, state: Any, rnd: Round) -> None:
        warehouse, index = state
        _serve(warehouse, index, self.QUERIES, seed, rnd)


class QueryLUClosed(Workload):
    """One closed-loop client calling ``run_query`` on an LU index."""

    name = "query-lu-closed"
    QUERIES = 100

    def prepare(self, seed: int) -> Any:
        queries = {query.name: query for query in workload()}
        documents = _corpus().documents
        expected = {}
        for name, query in queries.items():
            rows = evaluator.evaluate_query(query, documents)
            expected[name] = _result_lines("\n".join(
                "\t".join(row.projections) for row in rows).encode("utf-8"))
        # Blocks of the ten queries, each block in a seeded order: every
        # query appears equally often and the meter history that later
        # calls reprice grows alike for every seed.
        rng = random.Random(seed)
        order = []
        for _ in range(self.QUERIES // len(WORKLOAD_ORDER)):
            block = list(WORKLOAD_ORDER)
            rng.shuffle(block)
            order.extend(block)
        return queries, expected, order

    def setup(self, seed: int, inputs: Any, rnd: Round) -> Any:
        warehouse = Warehouse(deployment={"loaders": LOADERS})
        warehouse.upload_corpus(_corpus())
        index, _ = _build(warehouse, "LU", rnd)
        return warehouse, index

    def run(self, seed: int, inputs: Any, state: Any, rnd: Round) -> None:
        queries, expected, order = inputs
        warehouse, index = state
        for name in order:
            started = time.perf_counter()
            execution = warehouse.run_query(queries[name], index,
                                            config={"worker_type": "xl"})
            rnd.ops.append(Op("query", time.perf_counter() - started, 1))
            stored = warehouse.cloud.s3.peek(
                RESULTS_BUCKET, "results/{}.txt".format(execution.query_id))
            rnd.checks.check(
                _result_lines(stored.data) == expected[name],
                "query {} ({}): answer differs from evaluate_query".format(
                    execution.query_id, name))
            rnd.outputs.append("{}\t{!r}\t{}".format(
                name, execution.response_s, execution.result_rows))


def _result_lines(payload: bytes) -> List[bytes]:
    """A stored answer as a sorted list of result rows."""
    return sorted(payload.split(b"\n"))


class IngestLUI(Workload):
    """Live ingestion into an LUI index, with a cached serve after each
    publication."""

    name = "ingest-lui"
    INCREMENTS = 6
    INCREMENT_DOCUMENTS = 20
    SERVE_QUERIES = 40
    MAX_DELTAS = 3
    CACHE_BYTES = 4 * 1024 * 1024

    def setup(self, seed: int, inputs: Any, rnd: Round) -> Any:
        increments = []
        for batch in range(1, self.INCREMENTS + 1):
            # URIs disjoint from the base corpus and from each other.
            increment = _corpus(self.INCREMENT_DOCUMENTS, seed + 7000 + batch)
            prefix = "inc{}-".format(batch)
            increment.data = {prefix + uri: data
                              for uri, data in increment.data.items()}
            for document in increment.documents:
                document.uri = prefix + document.uri
            increment.kinds = {prefix + uri: kind
                               for uri, kind in increment.kinds.items()}
            increments.append(increment)
        warehouse = Warehouse(deployment={"loaders": LOADERS,
                                          "cache_bytes": self.CACHE_BYTES})
        warehouse.upload_corpus(_corpus())
        return warehouse, increments

    def run(self, seed: int, inputs: Any, state: Any, rnd: Round) -> None:
        warehouse, increments = state
        _, record = _build(warehouse, "LUI", rnd)
        live = warehouse.live_index(record.name)
        policy = CompactionPolicy(max_deltas=self.MAX_DELTAS)
        for step, increment in enumerate(increments):
            started = time.perf_counter()
            delta = warehouse.add_documents(live, increment)
            compaction = None
            if policy.should_compact(live.deltas):
                compaction = warehouse.compact_index(live)
            rnd.ops.append(Op("ingest", time.perf_counter() - started,
                              len(increment)))
            rnd.checks.check(delta.cost_tied_out is not False,
                             "delta {}: tie-out not exact".format(step))
            if compaction is not None:
                rnd.checks.check(
                    compaction.committed
                    and compaction.cost_tied_out is not False,
                    "compaction after delta {}: not committed or tie-out "
                    "not exact".format(step))
            _serve(warehouse, live, self.SERVE_QUERIES, seed * 100 + step,
                   rnd)
        rnd.outputs.append(live.ingestion_report().to_json())
        rnd.cache = warehouse.index_cache.stats()


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (Serve2LUPI(), QueryLUClosed(), IngestLUI())
}
