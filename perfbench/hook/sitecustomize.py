"""Start-up hook of the benchmark's traced runs.

The benchmark puts this directory on ``PYTHONPATH`` for a traced run,
so the interpreter imports this module at start-up in every process of
the run: the launcher and every pool worker the campaign spawns (a
spawned worker inherits the environment).  With
``PERFBENCH_TRACE_DIR`` set, the hook

* wraps each entry point in :data:`TARGETS` as soon as its module has
  executed, and rebinds every ``from ... import`` copy of a wrapped
  function held by an already loaded ``repro`` module, so a call is
  timed wherever the caller looks the name up;
* counts the bytes ``multiprocessing`` pickles for queues and pipes
  (:data:`PICKLER`), which in the launcher are the tasks it hands the
  pool, pickled once by the pool itself;
* times the process's outermost ``repro`` imports;
* writes the process's totals to ``<dir>/<pid>.json`` at exit, and
  in pool workers after every window or shard task as well.

Each wrapper keeps a call count, the inclusive time of outermost
calls (a call nested in another call of the same group is not counted
twice) and the self time (the inclusive time minus the time spent in
nested wrapped calls).  The time the wrappers spend counting
(group ``trace.count``) is kept out of every caller's self time.
Without ``PERFBENCH_TRACE_DIR`` importing this
file changes nothing, so ``run.py`` and ``check.py`` import it as
``hook.sitecustomize`` for :data:`TARGETS`.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

#: (module, attribute path, metric group).  Every entry must resolve:
#: the benchmark refuses to run when one does not, so a rename fails
#: loudly instead of reporting a silent zero.
TARGETS = (
    ("repro.sram.powerup", "sample_measurement_block", "sram.measure"),
    ("repro.sram.fleetkernel", "FleetKernel.measure_block", "sram.measure"),
    ("repro.sram.aging", "AgingSimulator.age_array_months", "sram.age"),
    ("repro.sram.fleetkernel", "FleetKernel.age_months", "sram.age"),
    ("repro.sram.chip", "SRAMChip.read_startup", "sram.startup"),
    ("repro.sram.fleetkernel", "FleetKernel.read_startup", "sram.startup"),
    ("repro.sram.powerup", "one_probabilities_from_skew", "sram.onep"),
    ("repro.analysis.monthly", "evaluate_board", "analysis.evaluate"),
    ("repro.analysis.monthly", "evaluate_fleet", "analysis.evaluate"),
    ("repro.metrics.hamming", "between_class_hd", "metrics.bchd"),
    ("repro.metrics.entropy", "min_entropy_bits", "metrics.entropy"),
    ("repro.metrics.entropy", "average_min_entropy", "metrics.entropy"),
    ("repro.metrics.entropy", "puf_min_entropy", "metrics.entropy"),
    ("repro.metrics.entropy", "noise_min_entropy", "metrics.entropy"),
    ("repro.metrics.entropy", "noise_min_entropy_from_counts", "metrics.entropy"),
    ("repro.telemetry.rollup", "ShardRollupBuilder.observe_board", "telemetry.rollup"),
    ("repro.telemetry.rollup", "evaluation_shard_docs", "telemetry.rollup"),
    ("repro.telemetry.rollup", "evaluation_profile_docs", "telemetry.rollup"),
    ("repro.telemetry.rollup", "combine_rollup_docs", "telemetry.rollup"),
    ("repro.telemetry.rollup", "fold_rollup_docs", "telemetry.rollup"),
    ("repro.monitor.hub", "MonitorHub.observe_evaluation", "monitor.observe"),
    ("repro.monitor.hub", "MonitorHub.observe_rollups", "monitor.observe"),
    ("repro.monitor.hub", "MonitorHub.poll_counters", "monitor.observe"),
    ("repro.monitor.heartbeat", "SnapshotEmitter.__call__", "monitor.heartbeat"),
    ("repro.io.resultstore", "save_campaign", "store.artifact"),
    ("repro.store.codecs", "JsonCodec.encode", "store.encode"),
    ("repro.store.codecs", "JsonLinesCodec.encode", "store.encode"),
    ("repro.store.codecs", "JsonLinesCodec.encode_line", "store.encode"),
    ("repro.store.codecs", "encode_float64_array", "store.encode"),
    ("repro.store.codecs", "pack_bits_hex", "store.encode"),
    ("repro.store.checkpoint", "CampaignCheckpointer.save", "store.checkpoint"),
    ("repro.store.checkpoint", "load_latest_checkpoint", "store.load"),
    ("repro.store.atomic", "atomic_write_bytes", "store.write"),
    ("repro.store.atomic", "append_line", "store.write"),
    ("repro.store.atomic", "append_lines", "store.write"),
    ("repro.store.atomic", "truncate_file", "store.write"),
    ("os", "fsync", "store.fsync"),
    ("repro.exec.windows", "run_board_window", "exec.window"),
    ("repro.exec.worker", "run_board_shard", "exec.shard"),
    ("repro.exec.windows", "state_digest", "exec.digest"),
    ("repro.exec.executor", "SerialExecutor.run_tasks", "exec.wait"),
    ("repro.exec.executor", "ParallelExecutor.run_tasks", "exec.wait"),
    ("repro.exec.pool", "WindowPool.run_tasks", "exec.wait"),
    ("concurrent.futures.process", "ProcessPoolExecutor.submit", "exec.submit"),
)

#: The pickler behind every ``multiprocessing`` queue and pipe.
PICKLER = ("multiprocessing.reduction", "ForkingPickler.dumps")

#: Files whose contents carry wall-clock readings, so their length can
#: differ between identical runs; their bytes are kept apart.
TIMED_SUFFIXES = (".heartbeat.jsonl", ".manifest.json")

#: Worker entry points after which a pool worker writes its totals,
#: so they reach the run even if the worker never exits cleanly.
_TASK_GROUPS = frozenset({"exec.window", "exec.shard"})


def resolve(module, path):
    """``(owner, name)`` of a dotted attribute path inside ``module``."""
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    if not hasattr(owner, parts[-1]):
        raise AttributeError(f"{module.__name__} has no attribute {path}")
    return owner, parts[-1]


def _count_measure(target, args, kwargs, counts):
    """Cells drawn by one measurement block: boards x cells x power-ups."""
    owner, measurements = args[0], _arg(args, kwargs, 1, "measurements")
    boards = owner.board_count if target == "FleetKernel.measure_block" else 1
    counts["sram.cells_drawn"] += boards * owner.profile.cell_count * measurements


def _count_bchd(target, args, kwargs, counts):
    n = len(_arg(args, kwargs, 0, "readouts"))
    counts["metrics.bchd_pairs"] += n * (n - 1) // 2


def _count_write(target, args, kwargs, counts):
    path = str(_arg(args, kwargs, 0, "path"))
    if target == "atomic_write_bytes":
        size = len(_arg(args, kwargs, 1, "data"))
    elif target == "append_line":
        size = len(_arg(args, kwargs, 1, "line").encode()) + 1
    elif target == "append_lines":
        size = sum(len(line.encode()) + 1 for line in _arg(args, kwargs, 1, "lines"))
    else:
        return
    counts["store.bytes_written"] += size
    if not path.endswith(TIMED_SUFFIXES):
        counts["store.data_bytes_written"] += size


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


_COUNTERS = {
    "sram.measure": _count_measure,
    "metrics.bchd": _count_bchd,
    "store.write": _count_write,
}


class _Tracer:
    """Per-process call statistics of the wrapped entry points."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.calls = {}  # "module:path" -> [calls]
        self.groups = {}  # group -> [outermost calls, incl_s, self_s, depth]
        self.counts = {key: 0 for key in (
            "sram.cells_drawn", "metrics.bchd_pairs",
            "store.bytes_written", "store.data_bytes_written",
            "pickled_bytes",
        )}
        self.import_s = 0.0
        self.role = None  # set to "launcher" by the launcher
        self._stack = []
        self._originals = {}  # id(original function) -> (original, wrapper)
        self._import_depth = 0
        self._loading = set()  # modules whose code is still executing
        self._done = set()

    # -- wrapping -------------------------------------------------------
    def wrap(self, module, path, group):
        key = f"{module.__name__}:{path}"
        if key in self._done:
            return False
        self._done.add(key)
        owner, name = resolve(module, path)
        original = getattr(owner, name)
        entry = self.calls.setdefault(key, [0])
        stats = self.groups.setdefault(group, [0, 0.0, 0.0, 0])
        counter = _COUNTERS.get(group)
        cost = self.groups.setdefault("trace.count", [0, 0.0, 0.0, 0])
        stack = self._stack
        flush_after = group in _TASK_GROUPS
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if counter is not None:
                begin = clock()
                counter(path, args, kwargs, self.counts)
                spent = clock() - begin
                cost[1] += spent
                cost[2] += spent
                if stack:
                    stack[-1][0] += spent
            frame = [0.0]
            stack.append(frame)
            stats[3] += 1
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[3] -= 1
                stats[2] += elapsed - frame[0]
                entry[0] += 1
                if stack:
                    stack[-1][0] += elapsed
                if stats[3] == 0:
                    stats[0] += 1
                    stats[1] += elapsed
                if flush_after and not stack:
                    self.flush()

        setattr(owner, name, wrapper)
        if not isinstance(owner, type):
            self._originals[id(original)] = (original, wrapper)
        return True

    def count_pickled(self, module):
        """Count the bytes of every object ``multiprocessing`` pickles.

        The pool pickles each task in a feeder thread; counting the
        result there adds no pickling and no time to the caller.
        """
        owner, name = resolve(module, PICKLER[1])
        dumps = getattr(owner, name).__func__
        counts = self.counts

        def counted(cls, obj, protocol=None):
            data = dumps(cls, obj, protocol)
            counts["pickled_bytes"] += len(data)
            return data

        setattr(owner, name, classmethod(counted))

    def rebind(self):
        """Point every loaded ``repro`` module's copy of a target at its wrapper."""
        originals = self._originals
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for attr, value in list(namespace.items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    namespace[attr] = hit[1]

    def instrument_loaded(self):
        """Wrap the targets of every fully loaded target module."""
        wrapped = False
        for module_name, path, group in TARGETS:
            module = sys.modules.get(module_name)
            if module is not None and module_name not in self._loading:
                wrapped |= self.wrap(module, path, group)
        if wrapped:
            self.rebind()
        if PICKLER not in self._done and PICKLER[0] in sys.modules:
            self._done.add(PICKLER)
            self.count_pickled(sys.modules[PICKLER[0]])

    # -- output ---------------------------------------------------------
    def report(self):
        parent = None
        multiprocessing = sys.modules.get("multiprocessing")
        if multiprocessing is not None:
            parent = multiprocessing.parent_process()
        role = self.role or ("worker" if parent is not None else "other")
        cache = {}
        windows = sys.modules.get("repro.exec.windows")
        if windows is not None and hasattr(windows, "window_cache_stats"):
            cache = windows.window_cache_stats()
        return {
            "pid": os.getpid(),
            "role": role,
            "calls": {key: value[0] for key, value in self.calls.items()},
            "groups": {
                group: {"calls": s[0], "incl_s": s[1], "self_s": s[2]}
                for group, s in self.groups.items()
            },
            "counts": dict(self.counts),
            "cache": cache,
            "import_s": self.import_s,
        }

    def flush(self):
        path = os.path.join(self.out_dir, f"{os.getpid()}.json")
        with open(path + ".part", "w", encoding="utf-8") as handle:
            json.dump(self.report(), handle)
        os.replace(path + ".part", path)


class _TimedLoader:
    """Delegating loader: times outermost ``repro`` imports, then wraps."""

    def __init__(self, inner, tracer):
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def create_module(self, spec):
        return self._inner.create_module(spec)

    def exec_module(self, module):
        tracer = self._tracer
        outermost = tracer._import_depth == 0
        tracer._import_depth += 1
        tracer._loading.add(module.__name__)
        start = time.perf_counter()
        try:
            self._inner.exec_module(module)
        finally:
            tracer._loading.discard(module.__name__)
            tracer._import_depth -= 1
            if outermost:
                tracer.import_s += time.perf_counter() - start
        tracer.instrument_loaded()


class _Finder:
    """Meta-path finder handing ``repro`` modules a :class:`_TimedLoader`."""

    def __init__(self, tracer):
        self._tracer = tracer

    def find_spec(self, name, path=None, target=None):
        if not (name == "repro" or name.startswith("repro.")):
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                if spec.loader is not None and hasattr(spec.loader, "exec_module"):
                    spec.loader = _TimedLoader(spec.loader, self._tracer)
                return spec
        return None


TRACER = None


def _activate(out_dir):
    global TRACER
    import atexit

    TRACER = _Tracer(out_dir)
    sys.meta_path.insert(0, _Finder(TRACER))
    TRACER.instrument_loaded()  # os.fsync, and anything already imported
    atexit.register(TRACER.flush)


if os.environ.get("PERFBENCH_TRACE_DIR"):
    _activate(os.environ["PERFBENCH_TRACE_DIR"])
