"""Per-layer wall-clock tracing, installed from outside the program.

:class:`LayerTracer` wraps the public functions of each layer module of
``repro`` and attributes ``time.perf_counter`` wall time to the layer
whose code is running.  A layer's *self time* is the wall time inside
its wrapped calls minus the time spent in wrapped calls nested below
them, so the self times of all layers add up to the traced wall time
less the benchmark's own code (reported as the untraced remainder).

Generator functions (the cloud simulators, ``write_entries``,
``read_keys``, ``lookup_pattern``, the worker ``run`` loops) do their
work when the discrete-event kernel resumes them, not when they are
called.  They are therefore timed per resumption: every ``send`` or
``throw`` into a wrapped generator opens a frame for its layer.  The
wrapper forwards values, exceptions and return values exactly as
``yield from`` does, so tracing changes no simulated output (the
benchmark checks this by comparing traced and untraced digests).

A call is counted only when no call of the same layer operation is
already open (``TwoLUPI.extract`` calling its two component
strategies counts once), so counts are outermost entries into a layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["LayerTracer", "Target", "TARGETS"]

#: Counter hook: ``(args, kwargs, result) -> {counter name: amount}``.
Counter = Callable[[tuple, dict, Any], Dict[str, float]]


class Target:
    """One function or method to wrap, and the layer it belongs to."""

    def __init__(self, module: str, name: str, key: str,
                 counter: Optional[Counter] = None,
                 subclasses: bool = False) -> None:
        #: Module that defines the function (or the method's class).
        self.module = module
        #: ``function`` or ``Class.method``.
        self.name = name
        #: ``<layer>.<op>`` the wall time is attributed to.
        self.key = key
        self.counter = counter
        #: Also wrap every subclass that overrides the method.
        self.subclasses = subclasses


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    """Positional-or-keyword argument ``name`` (``self`` counts)."""
    return args[index] if len(args) > index else kwargs[name]


def _items_read(result: Any) -> int:
    if isinstance(result, dict):
        return sum(len(items) for items in result.values())
    if isinstance(result, list):
        return len(result)
    return 0


def _dynamo_items(op: str) -> Counter:
    if op == "batch_put":
        return lambda a, k, r: {"items": len(_arg(a, k, 2, "items"))}
    if op in ("put", "delete_item"):
        return lambda a, k, r: {"items": 1}
    return lambda a, k, r: {"items": _items_read(r)}


def _eval_counter(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    return {"evaluated": 1, "useful": 1 if result else 0}


def _query_counter(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    return {"docs_from_index": result.docs_from_index,
            "docs_with_results": result.docs_with_results}


_S3_BYTES: Dict[str, Counter] = {
    "put": lambda a, k, r: {"bytes": len(_arg(a, k, 3, "data"))},
    "get": lambda a, k, r: {"bytes": len(r)},
}

#: Every wrapped layer boundary.  Keys are the ``<layer>.<op>`` prefixes
#: of the per-layer metrics listed in BENCHMARK.json.
TARGETS: List[Target] = [
    Target("repro.xmark.corpus", "generate_corpus", "xmark.generate"),
    Target("repro.xmldb.parser", "parse_document", "xmldb.parse",
           lambda a, k, r: {"bytes": len(_arg(a, k, 0, "data"))}),
    Target("repro.xmldb.blocks", "IDBlock.from_encoded", "xmldb.decode"),
    Target("repro.xmldb.blocks", "IDBlock.from_encoded_chunks",
           "xmldb.decode"),
    # Blocks decode lazily: the column inflation behind the first
    # column access is where from_encoded's decode work really happens.
    Target("repro.xmldb.blocks", "_decode_columns", "xmldb.decode"),
    Target("repro.xmldb.encoding", "decode_ids", "xmldb.decode"),
    Target("repro.indexing.base", "IndexingStrategy.extract",
           "indexing.extract",
           lambda a, k, r: {"entries": sum(len(v) for v in r.values())},
           subclasses=True),
    Target("repro.indexing.mapper", "DynamoIndexStore.write_entries",
           "indexing.write", lambda a, k, r: {"items": r.items}),
    Target("repro.indexing.mapper", "DynamoIndexStore.read_keys",
           "indexing.read",
           lambda a, k, r: {"keys": len(_arg(a, k, 2, "keys"))}),
    Target("repro.indexing.mapper", "DynamoIndexStore.read_key",
           "indexing.read", lambda a, k, r: {"keys": 1}),
    Target("repro.indexing.lookup_plans", "BaseLookup.lookup_pattern",
           "lookup.pattern", subclasses=True),
    Target("repro.engine.columnar", "BlockTwigJoin.matches", "engine.twig"),
    Target("repro.engine.evaluator", "evaluate_pattern", "engine.eval",
           _eval_counter),
    Target("repro.store.router", "StoreRouter.read_keys", "store.read"),
    Target("repro.store.router", "StoreRouter.read_key", "store.read"),
    Target("repro.mutations.live", "LiveIndex.publish_add",
           "mutations.publish"),
    Target("repro.mutations.live", "LiveIndex.publish_delete",
           "mutations.publish"),
    Target("repro.mutations.live", "LiveIndex.publish_update",
           "mutations.publish"),
    Target("repro.mutations.merge", "MergingStore.read_keys",
           "mutations.merge_read"),
    Target("repro.mutations.merge", "MergingStore.read_key",
           "mutations.merge_read"),
    Target("repro.mutations.compactor", "Compactor.run", "mutations.compact",
           lambda a, k, r: {"units": r.units_done}),
    Target("repro.cloud.ec2", "Instance.run", "cloud.ec2"),
    Target("repro.cloud.ec2", "EC2.launch_fleet", "cloud.ec2",
           lambda a, k, r: {"fleets_launched": 1,
                            "instances_launched": len(r)}),
    # Serving fleets launch their members one at a time.
    Target("repro.cloud.ec2", "EC2.launch", "cloud.ec2",
           lambda a, k, r: {"instances_launched": 1}),
    Target("repro.sim.engine", "Environment.step", "sim.step"),
    Target("repro.sim.metering", "Meter.record", "sim.meter",
           lambda a, k, r: {"records": 1}),
    Target("repro.telemetry.spans", "Tracer.begin", "telemetry.span"),
    Target("repro.telemetry.spans", "Tracer.finish", "telemetry.span"),
    Target("repro.telemetry.costing", "span_inclusive_costs",
           "telemetry.pricing",
           lambda a, k, r: {"records": len(_arg(a, k, 1, "meter"))}),
    Target("repro.costs.estimator", "phase_cost", "costs.estimate",
           lambda a, k, r: {"records": len(_arg(a, k, 0, "meter"))}),
    Target("repro.warehouse.loader", "IndexerWorker.run", "warehouse.loader"),
    Target("repro.warehouse.query_processor", "QueryWorker.run",
           "warehouse.worker"),
    Target("repro.warehouse.query_processor", "QueryWorker._process",
           "warehouse.query", _query_counter),
    Target("repro.serving.runtime", "ServingRuntime.run", "serving.runtime"),
    Target("repro.serving.runtime", "ServingRuntime._build_report",
           "warehouse.report"),
    Target("repro.warehouse.warehouse", "Warehouse._price_mutation",
           "warehouse.report"),
] + [
    Target("repro.cloud.dynamodb", "DynamoDB." + op, "cloud.dynamodb",
           _dynamo_items(op))
    for op in ("put", "delete_item", "batch_put", "get", "batch_get", "scan")
] + [
    Target("repro.cloud.s3", "S3." + op, "cloud.s3", _S3_BYTES.get(op))
    for op in ("put", "get", "head", "delete", "list_keys")
] + [
    Target("repro.cloud.sqs", "SQS." + op, "cloud.sqs")
    for op in ("send", "receive", "receive_if_available", "delete",
               "renew", "purge")
] + [
    # The public API the workloads call: its self time is Warehouse code
    # that runs outside the simulated processes (report assembly etc.).
    Target("repro.warehouse.warehouse", "Warehouse." + op, "warehouse.api")
    for op in ("upload_corpus", "build_index_checkpointed", "run_query",
               "serve", "live_index", "add_documents", "compact_index")
]

#: Layer of a simulated process whose generator is not itself wrapped
#: (closures such as the serving runtime's traffic and dispatcher
#: loops), by the module its code lives in; longest prefix wins.
PROCESS_LAYERS: Dict[str, str] = {
    "repro.serving": "serving.runtime",
    "repro.warehouse.warehouse": "warehouse.api",
    "repro.warehouse.loader": "warehouse.loader",
    "repro.warehouse.query_processor": "warehouse.worker",
    "repro.consistency": "consistency.build",
    "repro.mutations": "mutations.publish",
    "repro.cloud.sqs": "cloud.sqs",
    "repro.sim": "sim.resume",
}


class _Stat:
    __slots__ = ("calls", "self_s", "counters")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.counters: Dict[str, float] = {}


class LayerTracer:
    """Wraps the :data:`TARGETS` and accumulates per-layer wall time."""

    def __init__(self) -> None:
        self.stats: Dict[str, _Stat] = {}
        #: Open frames: ``[key, started_at, time in nested frames]``.
        self._stack: List[list] = []
        self._open: Dict[str, int] = {}
        self._patches: List[Tuple[Any, str, Any]] = []
        self._module_layers: Dict[str, str] = {}

    # -- accounting ----------------------------------------------------------

    def _stat(self, key: str) -> _Stat:
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = _Stat()
        return stat

    def _enter(self, key: str) -> None:
        self._open[key] = self._open.get(key, 0) + 1
        self._stack.append([key, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        key, started, nested = self._stack.pop()
        elapsed = time.perf_counter() - started
        self._open[key] -= 1
        self._stat(key).self_s += elapsed - nested
        if self._stack:
            self._stack[-1][2] += elapsed

    def _count(self, key: str, counter: Optional[Counter], args: tuple,
               kwargs: dict, result: Any) -> None:
        if counter is None:
            return
        counters = self._stat(key).counters
        for name, amount in counter(args, kwargs, result).items():
            counters[name] = counters.get(name, 0) + amount

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn: Callable, key: str,
              counter: Optional[Counter]) -> Callable:
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator_wrapper(*args: Any, **kwargs: Any) -> Any:
                outermost = not tracer._open.get(key)
                if outermost:
                    tracer._stat(key).calls += 1
                inner = fn(*args, **kwargs)
                proxy = tracer._resumed(
                    inner, key, counter if outermost else None, args, kwargs)
                # Processes are named after their generator when unnamed.
                proxy.__name__ = inner.__name__
                proxy.__qualname__ = inner.__qualname__
                return proxy
            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            outermost = not tracer._open.get(key)
            if outermost:
                tracer._stat(key).calls += 1
            tracer._enter(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if outermost:
                tracer._count(key, counter, args, kwargs, result)
            return result
        return wrapper

    def _resumed(self, inner: Any, key: str, counter: Optional[Counter],
                 args: tuple, kwargs: dict) -> Any:
        """Drive ``inner`` like ``yield from``, timing each resumption."""
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            self._enter(key)
            try:
                if error is None:
                    target = inner.send(value)
                else:
                    target = inner.throw(error)
            except StopIteration as stop:
                self._exit()
                self._count(key, counter, args, kwargs, stop.value)
                return stop.value
            except BaseException:
                self._exit()
                raise
            self._exit()
            try:
                value = yield target
                error = None
            except GeneratorExit:
                inner.close()
                raise
            except BaseException as exc:  # forwarded into ``inner``
                value, error = None, exc

    def _process_layer(self, generator: Any) -> str:
        """Layer of a process's own (unwrapped) generator code."""
        code = getattr(generator, "gi_code", None)
        if code is None or code is LayerTracer._resumed.__code__:
            return "sim.resume"
        layer = self._module_layers.get(code.co_filename)
        if layer is None:
            module = ""
            for name, mod in list(sys.modules.items()):
                if getattr(mod, "__file__", None) == code.co_filename:
                    module = name
                    break
            layer = "other.process"
            best = 0
            for prefix, candidate in PROCESS_LAYERS.items():
                if (module == prefix or module.startswith(prefix + ".")) \
                        and len(prefix) > best:
                    layer, best = candidate, len(prefix)
            self._module_layers[code.co_filename] = layer
        return layer

    # -- install / remove ------------------------------------------------------

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _install_function(self, target: Target, module: Any) -> None:
        original = getattr(module, target.name)
        wrapped = self._wrap(original, target.key, target.counter)
        # Rebind every import site (``from x import f``) as well.
        sites = [mod for name, mod in list(sys.modules.items())
                 if name.startswith("repro") and mod is not None]
        for site in sites:
            for attr, value in list(vars(site).items()):
                if value is original:
                    self._patch(site, attr, wrapped)

    def _install_method(self, target: Target, module: Any) -> None:
        class_name, method = target.name.split(".")
        base = getattr(module, class_name)
        classes = [base]
        if target.subclasses:
            pending = list(base.__subclasses__())
            while pending:
                cls = pending.pop()
                classes.append(cls)
                pending.extend(cls.__subclasses__())
        for cls in classes:
            raw = cls.__dict__.get(method)
            if raw is None or getattr(raw, "__isabstractmethod__", False):
                continue
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(
                    self._wrap(raw.__func__, target.key, target.counter))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(
                    self._wrap(raw.__func__, target.key, target.counter))
            else:
                wrapped = self._wrap(raw, target.key, target.counter)
            self._patch(cls, method, wrapped)

    def install(self) -> None:
        """Wrap every target (and the kernel's process resumption)."""
        for target in TARGETS:
            module = importlib.import_module(target.module)
            if "." in target.name:
                self._install_method(target, module)
            else:
                self._install_function(target, module)
        from repro.sim.process import Process
        original_resume = Process.__dict__["_resume"]
        tracer = self

        @functools.wraps(original_resume)
        def _resume(proc: Any, event: Any) -> None:
            tracer._enter(tracer._process_layer(proc._generator))
            try:
                original_resume(proc, event)
            finally:
                tracer._exit()
        self._patch(Process, "_resume", _resume)

    def remove(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def take(self) -> Dict[str, "_Stat"]:
        """Return the statistics gathered so far and start afresh."""
        taken, self.stats = self.stats, {}
        return taken

    def self_total(self) -> float:
        """Sum of every layer's self time."""
        return sum(stat.self_s for stat in self.stats.values())

    def calls(self, key: str) -> int:
        stat = self.stats.get(key)
        return stat.calls if stat else 0

    def self_s(self, key: str) -> float:
        stat = self.stats.get(key)
        return stat.self_s if stat else 0.0

    def counter(self, key: str, name: str) -> float:
        stat = self.stats.get(key)
        return stat.counters.get(name, 0) if stat else 0
