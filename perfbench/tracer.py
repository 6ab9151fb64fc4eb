"""Outside-in layer tracer for the benchmark's traced runs.

The tracer times the simulator's layers without touching ``src/``: for
the duration of one traced operation it replaces a fixed set of public
functions and methods with timing wrappers and puts every original
object back afterwards.  Each wrapper records one span (metric name,
start, end, parent span) in memory; a layer's *self* time is its spans'
durations minus the time covered by their child spans, so the self
times of all layers plus the uncovered remainder add up to the wall
time of the operation.

Three kinds of seam are wrapped:

* methods and module functions listed in :data:`METHOD_SPANS` and
  :data:`FUNCTION_SPANS` (a module function is replaced in every
  ``repro`` module namespace that holds it, since ``from x import f``
  copies the reference);
* generator functions (the HDFS client's reads and writes) get a
  delegating generator that times every resumption;
* ``Simulator.schedule_at`` wraps each scheduled callback so that the
  callback is charged, when it fires, to the layer that owns it
  (:data:`OWNER_LAYERS`); process resumptions are charged to the module
  that defined the process's generator.

Spans are kept in flat arrays and written out by :meth:`Tracer.dump`
when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.simkit.core import Process, Simulator, Timeout

perf_counter = time.perf_counter

#: Span metric -> (``module:Class``, public method names).  Self time
#: of each span is reported as ``<metric>_s``.
METHOD_SPANS: List[Tuple[str, str, Tuple[str, ...]]] = [
    ("simkit.dispatch", "repro.simkit.core:Simulator", ("run",)),
    ("net.allocator", "repro.net.fairshare:FairShareAllocator",
     ("add_flow", "add_flows", "remove_flow", "remove_flows", "rates")),
    ("net.allocator", "repro.net.vectorized:VectorizedFairShareAllocator",
     ("add_flow", "add_flows", "remove_flow", "remove_flows", "recompute",
      "rates")),
    ("net.admit", "repro.net.network:FlowNetwork",
     ("start_flow", "start_flows", "cancel_flow")),
    ("net.flowstate", "repro.net.vectorized:VectorizedFlowState",
     ("add", "remove", "add_batch", "remove_batch", "advance", "horizon",
      "finished", "throughput_bytes", "export_link_bytes")),
    ("yarn.rm", "repro.yarn.resourcemanager:ResourceManager",
     ("node_heartbeat", "cluster_total", "submit_application",
      "release_container")),
    ("hdfs.namenode", "repro.hdfs.namenode:NameNode",
     ("allocate_block", "choose_replica_for_read", "locate")),
    ("hdfs.client", "repro.hdfs.client:DfsClient",
     ("write_file", "read_block", "read_file")),
    ("cluster.build", "repro.mapreduce.cluster:HadoopCluster", ("__init__",)),
    ("capture.collect", "repro.capture.collector:FlowCollector",
     ("flows_for_job", "flows_for_jobs", "trace_for_job")),
    ("capture.encode", "repro.capture.records:JobTrace", ("to_jsonl",)),
    ("capture.decode", "repro.capture.records:JobTrace", ("from_jsonl",)),
    ("store.put", "repro.experiments.store:CaptureStore", ("put",)),
    ("store.get", "repro.experiments.store:CaptureStore", ("get",)),
    ("dag.overhead", "repro.experiments.dag:DAGRunner", ("run",)),
]

#: Span metric -> ``module:function`` (replaced wherever referenced).
FUNCTION_SPANS: List[Tuple[str, str]] = [
    ("capture.encode", "repro.experiments.store:encode_entry"),
    ("capture.decode", "repro.experiments.store:decode_entry"),
    ("modeling.fit", "repro.modeling.model:fit_job_model"),
    ("generation.generate", "repro.generation.generator:generate_trace"),
    ("generation.replay", "repro.generation.replay:replay_trace"),
]

#: Owner package of a scheduled callback -> the span metric it is
#: charged to.  Anything else (simkit's own waiters, unknown owners)
#: is charged to ``simkit.dispatch``.
OWNER_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.net", "net.event"),
    ("repro.yarn", "yarn.event"),
    ("repro.hdfs", "hdfs.event"),
    ("repro.mapreduce", "mapreduce.event"),
    ("repro.generation", "generation.replay"),
)

#: Pipeline stage bodies run from the DAG's stage registry; their own
#: code (stage glue, classification, scoring, report rendering) is
#: charged here so that ``dag.overhead`` keeps only the runner itself.
STAGE_BODY = "dag.stage"

#: Every span metric, in report order.
SPAN_METRICS: Tuple[str, ...] = (
    "simkit.dispatch", "net.event", "net.allocator", "net.admit",
    "net.flowstate", "yarn.rm", "yarn.event", "hdfs.namenode",
    "hdfs.client", "hdfs.event", "mapreduce.event", "cluster.build",
    "capture.collect", "capture.encode", "capture.decode", "store.put",
    "store.get", "dag.overhead", STAGE_BODY, "modeling.fit",
    "generation.generate", "generation.replay",
)

#: Every count the tracer keeps, in report order.
COUNT_METRICS: Tuple[str, ...] = (
    "simkit.events", "net.allocator_calls", "net.flows", "net.recomputes",
    "yarn.rm_calls", "hdfs.blocks", "capture.encode_bytes",
    "store.bytes_written", "store.bytes_read", "dag.nodes_run",
)


def _resolve(target: str) -> Tuple[Any, str]:
    module_name, _, attr = target.partition(":")
    return importlib.import_module(module_name), attr


class Tracer:
    """In-memory span recorder plus the patch/restore of layer seams.

    Use :meth:`traced` around exactly one operation at a time; it
    installs the wrappers, resets the per-operation totals and restores
    every original object on exit, even when the operation raises.
    """

    def __init__(self) -> None:
        self.names: List[str] = list(SPAN_METRICS)
        self._name_id = {name: index for index, name in enumerate(self.names)}
        # Span columns (one row per span, all operations of the run).
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("i")
        self._stack: List[List[float]] = []   # [row, child seconds]
        self._self = [0.0] * len(self.names)
        self.counts: Dict[str, float] = dict.fromkeys(COUNT_METRICS, 0.0)
        self.op = -1
        #: (namespace, attribute, original, owned) for every patch made;
        #: ``owned`` is False when the attribute was inherited.
        self.patched: List[Tuple[Any, str, Any, bool]] = []
        #: id(wrapper) -> (wrapper, original); holding the wrapper keeps
        #: its id from being reused while the entry exists.
        self._wrappers: Dict[int, Tuple[Any, Any]] = {}
        self._owner_cache: Dict[Optional[str], int] = {}
        self.installed = False

    # -- spans -------------------------------------------------------------

    def enter(self, name_id: int) -> None:
        row = len(self.span_start)
        stack = self._stack
        self.span_name.append(name_id)
        self.span_parent.append(int(stack[-1][0]) if stack else -1)
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        stack.append([row, 0.0])
        self.span_start.append(perf_counter())

    def exit(self) -> None:
        end = perf_counter()
        row, child = self._stack.pop()
        row = int(row)
        self.span_end[row] = end
        duration = end - self.span_start[row]
        self._self[self.span_name[row]] += duration - child
        if self._stack:
            self._stack[-1][1] += duration

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount

    def self_seconds(self) -> Dict[str, float]:
        return dict(zip(self.names, self._self))

    # -- wrappers ----------------------------------------------------------

    def _span_call(self, fn: Callable, name_id: int,
                   after: Optional[Callable[..., None]] = None) -> Callable:
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def _span_generator(self, fn: Callable, name_id: int) -> Callable:
        enter, exit_ = self.enter, self.exit

        def timed(inner):
            # A hand-written ``yield from`` that times each resumption.
            send_value, thrown = None, None
            while True:
                enter(name_id)
                try:
                    if thrown is not None:
                        target = inner.throw(thrown)
                    else:
                        target = inner.send(send_value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    exit_()
                send_value, thrown = None, None
                try:
                    send_value = yield target
                except GeneratorExit:
                    inner.close()
                    raise
                except BaseException as exc:  # re-raised into ``inner``
                    thrown = exc

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            proxy = timed(inner)
            proxy.__name__ = inner.__name__
            proxy.__qualname__ = inner.__qualname__
            return proxy

        return wrapper

    def _after_hook(self, metric: str, attr: str,
                    cls: Optional[type] = None) -> Optional[Callable]:
        count = self.count
        if metric == "net.allocator":
            # One water-fill is one ``recompute``; the scalar allocator
            # has none and water-fills inside ``rates`` (the vectorized
            # ``rates`` calls its own ``recompute``).
            recompute = attr == "recompute" or (
                attr == "rates" and not hasattr(cls, "recompute"))

            def after(result, args):
                count("net.allocator_calls")
                if recompute:
                    count("net.recomputes")
            return after
        if metric == "net.admit":
            if attr == "start_flow":
                return lambda result, args: count("net.flows")
            if attr == "start_flows":
                return lambda result, args: count("net.flows", len(result))
            return None
        if metric == "yarn.rm":
            return lambda result, args: count("yarn.rm_calls")
        if metric == "hdfs.namenode" and attr == "allocate_block":
            return lambda result, args: count("hdfs.blocks")
        if metric == "capture.encode" and attr == "to_jsonl":
            return lambda result, args: count("capture.encode_bytes",
                                              os.path.getsize(args[1]))
        if metric == "capture.encode" and attr == "encode_entry":
            return lambda result, args: count("capture.encode_bytes",
                                              len(result))
        return None

    def _store_span(self, fn: Callable, name_id: int, stat: str) -> Callable:
        # Store byte counts come from the store's own public stats,
        # read before and after the call.
        enter, exit_, count = self.enter, self.exit, self.count
        metric = f"store.{stat}"

        @functools.wraps(fn)
        def wrapper(store, *args, **kwargs):
            before = getattr(store.stats, stat)
            enter(name_id)
            try:
                return fn(store, *args, **kwargs)
            finally:
                exit_()
                count(metric, getattr(store.stats, stat) - before)

        return wrapper

    def _schedule_at(self, original: Callable) -> Callable:
        enter, exit_, counts = self.enter, self.exit, self.counts
        layer_of = self._layer_of

        @functools.wraps(original)
        def schedule_at(sim, when, callback, *args, priority=0):
            name_id = layer_of(callback)

            def fire(*fire_args):
                counts["simkit.events"] += 1
                enter(name_id)
                try:
                    callback(*fire_args)
                finally:
                    exit_()

            return original(sim, when, fire, *args, priority=priority)

        return schedule_at

    def _layer_of(self, callback: Any) -> int:
        owner = getattr(callback, "__self__", None)
        module = None
        if isinstance(owner, Timeout):
            owner = owner._process        # the process the timeout wakes
        if isinstance(owner, Process):
            module = self._generator_module(owner._generator)
        elif owner is not None:
            module = type(owner).__module__
        else:
            module = getattr(callback, "__module__", None)
        name_id = self._owner_cache.get(module)
        if name_id is None:
            layer = "simkit.dispatch"
            for prefix, candidate in OWNER_LAYERS:
                if module and (module == prefix
                               or module.startswith(prefix + ".")):
                    layer = candidate
                    break
            name_id = self._owner_cache[module] = self._name_id[layer]
        return name_id

    @staticmethod
    def _generator_module(generator: Any) -> Optional[str]:
        frame = getattr(generator, "gi_frame", None)
        if frame is None:
            return None
        if frame.f_globals is globals():
            # One of this module's timing proxies: charge the process to
            # the generator it delegates to.
            return Tracer._generator_module(frame.f_locals.get("inner"))
        return frame.f_globals.get("__name__")

    # -- install / restore -------------------------------------------------

    def _patch(self, namespace: Any, attr: str, replacement: Any) -> None:
        owned = attr in vars(namespace)
        original = vars(namespace)[attr] if owned else getattr(namespace, attr)
        self.patched.append((namespace, attr, original, owned))
        self._wrappers[id(replacement)] = (replacement, original)
        setattr(namespace, attr, replacement)

    def _wrap_method(self, cls: type, metric: str, attr: str) -> Any:
        raw = vars(cls)[attr]
        name_id = self._name_id[metric]
        if isinstance(raw, classmethod):
            return classmethod(self._span_call(raw.__func__, name_id))
        if isinstance(raw, property):
            return property(self._span_call(raw.fget, name_id,
                                            self._after_hook(metric, attr)),
                            raw.fset, raw.fdel, raw.__doc__)
        if metric in ("store.put", "store.get"):
            stat = "bytes_written" if metric == "store.put" else "bytes_read"
            return self._store_span(raw, name_id, stat)
        if inspect.isgeneratorfunction(raw):
            return self._span_generator(raw, name_id)
        return self._span_call(raw, name_id,
                               self._after_hook(metric, attr, cls))

    def install(self) -> None:
        """Replace every traced seam with its timing wrapper."""
        if self.installed:
            raise RuntimeError("tracer already installed")
        self.installed = True
        try:
            for metric, target, attrs in METHOD_SPANS:
                module, class_name = _resolve(target)
                cls = getattr(module, class_name)
                for attr in attrs:
                    self._patch(cls, attr, self._wrap_method(cls, metric, attr))
            self._patch(Simulator, "schedule_at",
                        self._schedule_at(vars(Simulator)["schedule_at"]))
            for metric, target in FUNCTION_SPANS:
                module, func_name = _resolve(target)
                original = getattr(module, func_name)
                wrapper = self._span_call(
                    original, self._name_id[metric],
                    self._after_hook(metric, func_name))
                for namespace in _repro_modules():
                    if vars(namespace).get(func_name) is original:
                        self._patch(namespace, func_name, wrapper)
            registry = _stage_registry()
            for stage, fn in list(registry.items()):
                self.patched.append((registry, stage, fn, True))
                wrapper = self._span_call(
                    fn, self._name_id[STAGE_BODY],
                    lambda result, args: self.count("dag.nodes_run"))
                self._wrappers[id(wrapper)] = (wrapper, fn)
                registry[stage] = wrapper
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        """Put every original object back (idempotent)."""
        for namespace, attr, original, owned in reversed(self.patched):
            if isinstance(namespace, dict):
                namespace[attr] = original
            elif owned:
                setattr(namespace, attr, original)
            else:
                delattr(namespace, attr)
        # A module first imported while the wrappers were live copied a
        # wrapper by ``from x import f``; hand it the original too.
        for namespace in _repro_modules():
            for attr, value in list(vars(namespace).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(namespace, attr, entry[1])
        self._wrappers.clear()
        self.installed = False

    def leftover_wrappers(self) -> List[str]:
        """Names still bound to something other than their original."""
        leftovers = []
        for namespace, attr, original, owned in self.patched:
            if isinstance(namespace, dict):
                current = namespace.get(attr)
            elif owned:
                current = vars(namespace).get(attr)
            else:
                current = original if attr not in vars(namespace) else None
            if current is not original:
                label = getattr(namespace, "__name__", type(namespace).__name__)
                leftovers.append(f"{label}.{attr}")
        return leftovers

    # -- one traced operation ---------------------------------------------

    def traced(self, op: int) -> "_TracedOp":
        return _TracedOp(self, op)

    def dump(self, path) -> None:
        """Write every recorded span as one ``.npz`` (names + columns)."""
        import numpy as np

        np.savez(path,
                 names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64),
                 parent=np.frombuffer(self.span_parent, dtype=np.int64),
                 op=np.frombuffer(self.span_op, dtype=np.int32))


class _TracedOp:
    """Context manager: install, reset per-op totals, restore."""

    def __init__(self, tracer: Tracer, op: int):
        self.tracer = tracer
        self.op = op

    def __enter__(self) -> Tracer:
        tracer = self.tracer
        tracer.op = self.op
        tracer._self = [0.0] * len(tracer.names)
        tracer.counts = dict.fromkeys(COUNT_METRICS, 0.0)
        tracer.patched = []
        tracer.install()
        return tracer

    def __exit__(self, *exc_info) -> None:
        self.tracer.restore()
        if self.tracer._stack:
            raise RuntimeError("unbalanced spans after a traced operation")


def _repro_modules() -> List[Any]:
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


def _stage_registry() -> Dict[str, Callable]:
    # The DAG runner looks stage bodies up in this module-level dict at
    # run time; ``register_stage`` refuses re-registration, so the
    # tracer swaps entries in the dict itself.
    from repro.experiments import dag
    import repro.experiments.pipelines  # noqa: F401  (registers stages)

    return dag._STAGE_REGISTRY
