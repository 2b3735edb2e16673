"""End-to-end benchmark of the campaign stack, with per-layer tracing.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper|fleet|resume --seed N \\
        --seconds S --trace 0|1

Each operation runs one workload through the real CLI
(``launch.py`` -> ``repro.cli.main``) in child processes, in a fresh
directory under ``.perfbench_work/``.  Operations repeat, closed loop,
until ``--seconds`` have passed (at least three, four when traced).

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` as
medians over the operations.  ``--trace 1`` alternates untraced and
traced operations: traced ones put ``hook/`` on ``PYTHONPATH``, whose
start-up hook times the calls into each layer in every process of the
operation, pool workers included; the untraced ones give
``trace_overhead``.  It reports the per-layer metrics.

Every operation's outputs are checked (exit codes, artifact digests,
Table I against the golden file at seed 1, resume byte-identity), and
so are the counts that must repeat exactly for one seed and the
zero/non-zero pattern of the traced calls.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from hook.sitecustomize import TARGETS, TIMED_SUFFIXES
from launch import FLEET_PROFILE

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
GOLDEN = ROOT / "tests" / "exec" / "golden_table1.json"
SPEC = ROOT / "BENCHMARK.json"
HOOK_DIR = BENCH / "hook"
EXPECTED = BENCH / "expected.json"

#: No operation starts once this much of a run has passed, so a run
#: ends well inside the 180 s a run may take.
RUN_BUDGET_S = 120.0
#: Table I cells must equal the golden file this closely at seed 1.
GOLDEN_TOLERANCE = 1e-9
#: prctl(2) option: orphaned descendants become this process's children.
PR_SET_CHILD_SUBREAPER = 36


class Workload:
    """One workload: the CLI invocations of an operation and its shape."""

    def __init__(self, name, boards, months, invocations, exercised):
        self.name = name
        self.boards = boards
        self.months = months
        self.invocations = invocations
        #: Traced entry points ("module:path") this workload must call;
        #: every other entry point must record exactly zero calls.
        self.exercised = frozenset(exercised)

    def commands(self, seed, out):
        return self.invocations(str(seed), out, str(out / f"{self.name}.json"))


def _paper_invocations(seed, out, save):
    return [(["run", "--seed", seed, "--save", save], 0)]


def _fleet_invocations(seed, out, save):
    args = ["run", "--seed", seed, "--save", save, "--devices", "1024",
            "--measurements", "100", "--kernel", "vector", "--profile", FLEET_PROFILE]
    return [(args, 0)]


def _resume_invocations(seed, out, save):
    args = ["run", "--seed", seed, "--save", save,
            "--checkpoint-dir", str(out / "checkpoints"), "--workers", "2"]
    return [(args + ["--abort-after-month", "11"], 3), (args + ["--resume"], 0)]


_COMMON = (
    "repro.sram.powerup:one_probabilities_from_skew",
    "repro.metrics.hamming:between_class_hd",
    "repro.metrics.entropy:puf_min_entropy",
    "repro.metrics.entropy:min_entropy_bits",
    "repro.metrics.entropy:average_min_entropy",
    "repro.telemetry.rollup:ShardRollupBuilder.observe_board",
    "repro.telemetry.rollup:fold_rollup_docs",
    "repro.monitor.hub:MonitorHub.observe_evaluation",
    "repro.monitor.hub:MonitorHub.observe_rollups",
    "repro.monitor.hub:MonitorHub.poll_counters",
    "repro.monitor.heartbeat:SnapshotEmitter.__call__",
    "repro.io.resultstore:save_campaign",
    "repro.store.codecs:JsonCodec.encode",
    "repro.store.codecs:JsonLinesCodec.encode",
    "repro.store.codecs:JsonLinesCodec.encode_line",
    "repro.store.atomic:atomic_write_bytes",
    "repro.store.atomic:append_line",
    "repro.store.atomic:truncate_file",
    "os:fsync",
)
_SCALAR = (
    "repro.sram.powerup:sample_measurement_block",
    "repro.sram.aging:AgingSimulator.age_array_months",
    "repro.sram.chip:SRAMChip.read_startup",
    "repro.analysis.monthly:evaluate_board",
    "repro.metrics.entropy:noise_min_entropy_from_counts",
    "repro.telemetry.rollup:evaluation_shard_docs",
)
_VECTOR = (
    "repro.sram.fleetkernel:FleetKernel.measure_block",
    "repro.sram.fleetkernel:FleetKernel.age_months",
    "repro.sram.fleetkernel:FleetKernel.read_startup",
    "repro.analysis.monthly:evaluate_fleet",
)

WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("paper", 16, 24, _paper_invocations, _COMMON + _SCALAR),
        Workload(
            "fleet", 1024, 24, _fleet_invocations,
            _COMMON + _VECTOR + (
                "repro.exec.worker:run_board_shard",
                "repro.exec.executor:SerialExecutor.run_tasks",
                "repro.telemetry.rollup:combine_rollup_docs",
            ),
        ),
        Workload(
            "resume", 16, 24, _resume_invocations,
            _COMMON + _SCALAR + (
                "repro.exec.windows:run_board_window",
                "repro.exec.windows:state_digest",
                "repro.exec.pool:WindowPool.run_tasks",
                "concurrent.futures.process:ProcessPoolExecutor.submit",
                "repro.store.checkpoint:CampaignCheckpointer.save",
                "repro.store.checkpoint:load_latest_checkpoint",
                "repro.store.codecs:encode_float64_array",
                "repro.store.codecs:pack_bits_hex",
                "repro.telemetry.rollup:combine_rollup_docs",
            ),
        ),
    )
}

#: Counts that must repeat exactly across operations of one seed.
EXACT_COUNTS = (
    "sram.onep_calls", "sram.cells_drawn", "metrics.bchd_pairs",
    "store.data_bytes_written", "store.fsyncs", "exec.dispatch_bytes", "exec.spawns",
)


class BenchmarkError(Exception):
    """The benchmark cannot run here (no sources, a renamed entry point)."""


# -- child processes -----------------------------------------------------

def _child_env(trace_dir):
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith(("REPRO_", "PERFBENCH_")) and key != "PYTHONPATH"
    }
    paths = [str(SRC)]
    if trace_dir is not None:
        paths.insert(0, str(HOOK_DIR))
        env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # One BLAS thread per process: the parallelism under test is the
    # window pool's, and idle BLAS threads spinning beside two pool
    # workers on a small host only add scheduler noise.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def _kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _adopt_orphans():
    """Make orphaned descendants children of this process (Linux only).

    A CLI invocation leaves multiprocessing's resource tracker running
    for a moment after it exits; adopted, it can be waited for at once
    and its CPU time counted, instead of lingering as a zombie of init.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _stop_group(pgid):
    """Wait until the rest of a process group has ended; kill it after 1 s.

    Returns the resource usage of each member this process waited for.
    """
    usages = []
    for attempt in range(100):
        try:
            while True:
                pid, _status, usage = os.wait4(-pgid, os.WNOHANG)
                if pid == 0:
                    break
                usages.append(usage)
        except ChildProcessError:
            pass
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return usages
        if attempt == 50:
            _kill_group(pgid)
        time.sleep(0.02)
    return usages


def _run_child(cmd, env, stdout, stderr, timeout):
    """Run ``cmd`` in its own process group.

    Returns (exit code, monotonic start, wall s, CPU s and peak RSS in
    MB of the process and every descendant it waited for).
    """
    start = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=stdout, stderr=stderr, start_new_session=True
    )
    timer = threading.Timer(max(timeout, 1.0), _kill_group, (proc.pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        wall = time.monotonic() - start
        usages = [usage, *_stop_group(proc.pid)]
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = sum(each.ru_utime + each.ru_stime for each in usages)
    peak_rss_mb = max(each.ru_maxrss for each in usages) / 1024.0
    return proc.returncode, start, wall, cpu, peak_rss_mb


def _python_json(args, timeout):
    """Run a helper script of the benchmark and parse its JSON output."""
    done = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=_child_env(None),
        capture_output=True, text=True, timeout=timeout,
    )
    if done.returncode != 0:
        raise BenchmarkError(f"{args[0]} failed: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# -- one operation -------------------------------------------------------

def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _disk_bytes(root):
    """(all bytes, bytes of files without wall-clock readings) under root."""
    total = data = 0
    for directory, _dirs, files in os.walk(root):
        for name in files:
            size = os.path.getsize(os.path.join(directory, name))
            total += size
            if not name.endswith(TIMED_SUFFIXES):
                data += size
    return total, data


def _read_traces(trace_dir):
    reports = []
    for path in sorted(trace_dir.glob("*.json")):
        with open(path, encoding="utf-8") as handle:
            reports.append(json.load(handle))
    return reports


def run_op(workload, seed, traced, label, deadline):
    """Run one operation of ``workload``; return its measurements."""
    op_dir = WORK / label
    shutil.rmtree(op_dir, ignore_errors=True)
    out, meta = op_dir / "out", op_dir / "meta"
    out.mkdir(parents=True)
    meta.mkdir()
    trace_dir = meta / "trace" if traced else None
    if trace_dir is not None:
        trace_dir.mkdir()
    env = _child_env(trace_dir)
    op = {"traced": traced, "errors": [], "wall_s": 0.0, "cpu_s": 0.0, "setup_s": 0.0,
          "import_s": 0.0, "peak_rss_mb": 0.0}
    for index, (args, expected_exit) in enumerate(workload.commands(seed, out)):
        report = meta / f"launch-{index}.json"
        cmd = [sys.executable, str(BENCH / "launch.py"), str(report), *args]
        with open(meta / f"stdout-{index}.log", "wb") as stdout, \
                open(meta / f"stderr-{index}.log", "wb") as stderr:
            code, start, wall, cpu, peak_rss_mb = _run_child(
                cmd, env, stdout, stderr, deadline - time.monotonic()
            )
        op["wall_s"] += wall
        op["cpu_s"] += cpu
        op["peak_rss_mb"] = max(op["peak_rss_mb"], peak_rss_mb)
        if code != expected_exit:
            tail = (meta / f"stderr-{index}.log").read_text(errors="replace")[-1500:]
            op["errors"].append(f"invocation {index} exited {code}, expected "
                                f"{expected_exit}: {tail}")
            break
        with open(report, encoding="utf-8") as handle:
            launch = json.load(handle)
        if launch["run_entry"] is None:
            op["errors"].append(f"invocation {index} never entered LongTermAssessment.run")
            break
        op["import_s"] += launch["import_s"]
        op["setup_s"] += launch["run_entry"] - start
    artifact = out / f"{workload.name}.json"
    if not op["errors"]:
        op["sha256"] = _sha256(artifact)
        with open(out / f"{workload.name}.alerts.jsonl", encoding="utf-8") as handle:
            op["alerts"] = sum(1 for _ in handle)
        op["disk_bytes"], op["data_bytes"] = _disk_bytes(out)
        op["artifact"] = artifact
        if traced:
            op["trace"] = _read_traces(trace_dir)
    return op


# -- per-layer metrics ---------------------------------------------------

def _group(reports, name, field, roles=None):
    return sum(
        report["groups"].get(name, {}).get(field, 0)
        for report in reports if roles is None or report["role"] in roles
    )


def layer_metrics(op):
    """Per-layer numbers of one traced operation, summed over its processes."""
    reports = op["trace"]
    incl = lambda name: _group(reports, name, "incl_s")  # noqa: E731
    calls = lambda name: _group(reports, name, "calls")  # noqa: E731
    count = lambda name: sum(report["counts"].get(name, 0) for report in reports)  # noqa: E731
    launchers = [report for report in reports if report["role"] == "launcher"]
    workers = [report for report in reports if report["role"] == "worker"]
    hits = sum(report["cache"].get("hits", 0) for report in reports)
    lookups = hits + sum(report["cache"].get("misses", 0) for report in reports)
    launcher_self = sum(layer_self_times(op).values())
    return {
        "cli.import_s": op["import_s"],
        "sram.measure_s": incl("sram.measure"),
        "sram.measure_calls": calls("sram.measure"),
        "sram.age_s": incl("sram.age"),
        "sram.startup_s": incl("sram.startup"),
        "sram.onep_calls": calls("sram.onep"),
        "sram.onep_s": incl("sram.onep"),
        "sram.cells_drawn": count("sram.cells_drawn"),
        "analysis.evaluate_s": _group(reports, "analysis.evaluate", "self_s"),
        "metrics.bchd_s": incl("metrics.bchd"),
        "metrics.bchd_pairs": count("metrics.bchd_pairs"),
        "metrics.entropy_s": incl("metrics.entropy"),
        "telemetry.rollup_s": incl("telemetry.rollup"),
        "monitor.observe_s": incl("monitor.observe"),
        "monitor.heartbeat_s": incl("monitor.heartbeat"),
        "store.artifact_s": _group(reports, "store.artifact", "self_s"),
        "store.encode_s": incl("store.encode"),
        "store.checkpoint_s": incl("store.checkpoint"),
        "store.checkpoint_calls": calls("store.checkpoint"),
        "store.load_s": incl("store.load"),
        "store.bytes_written": count("store.bytes_written"),
        "store.data_bytes_written": count("store.data_bytes_written"),
        "store.fsyncs": calls("store.fsync"),
        "store.fsync_s": incl("store.fsync"),
        "exec.window_s": incl("exec.window"),
        "exec.window_calls": calls("exec.window"),
        "exec.shard_s": incl("exec.shard"),
        "exec.digest_s": incl("exec.digest"),
        "exec.digest_calls": calls("exec.digest"),
        "exec.cache_hit_ratio": hits / lookups if lookups else 0.0,
        # What the launchers pickle is the pool's tasks; workers pickle results.
        "exec.dispatch_bytes": sum(report["counts"]["pickled_bytes"] for report in launchers),
        "exec.spawns": len(workers),
        "exec.worker_import_s": sum(report["import_s"] for report in workers),
        "exec.wait_s": _group(reports, "exec.wait", "self_s", roles=("launcher",)),
        "unattributed_s": op["wall_s"] - op["setup_s"] - launcher_self,
    }


def layer_self_times(op):
    """Self time per layer ("sram", "store", ...) in the launcher processes."""
    shares = {}
    for report in op["trace"]:
        if report["role"] == "launcher":
            for group, stats in report["groups"].items():
                layer = group.split(".")[0]
                shares[layer] = shares.get(layer, 0.0) + stats["self_s"]
    return shares


def trace_problems(workload, op):
    """Self-check of one traced operation's call pattern."""
    problems = []
    calls, worker_windows = {}, 0
    for report in op["trace"]:
        for key, value in report["calls"].items():
            calls[key] = calls.get(key, 0) + value
        if report["role"] == "worker":
            worker_windows += report["calls"].get("repro.exec.windows:run_board_window", 0)
    for key in (f"{module_name}:{path}" for module_name, path, _group in TARGETS):
        seen = calls.get(key, 0)
        if key in workload.exercised and seen == 0:
            problems.append(f"{key}: no calls recorded on {workload.name}")
        elif key not in workload.exercised and seen != 0:
            problems.append(f"{key}: {seen} calls recorded on {workload.name}, expected 0")
    if workload.name == "resume" and worker_windows == 0:
        problems.append("no window calls reached the totals from pool workers")
    layers = layer_metrics(op)
    for name in ("exec.dispatch_bytes", "exec.spawns"):
        if (layers[name] != 0) != (workload.name == "resume"):
            problems.append(f"{name} is {layers[name]} on {workload.name}")
    return problems


# -- output checks -------------------------------------------------------

def _golden_problems(table):
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)["summaries"]
    if sorted(table) != sorted(golden):
        return [f"Table I rows {sorted(table)} differ from golden {sorted(golden)}"]
    problems = []
    for metric, cells in golden.items():
        for cell, want in cells.items():
            got = table[metric][cell]
            if not abs(got - want) <= GOLDEN_TOLERANCE:
                problems.append(f"Table I {metric}.{cell}: golden {want!r}, got {got!r}")
    return problems


def artifact_problems(workload, seed, op, reference_sha):
    """Checks of the (byte-identical) artifact every operation left."""
    summary = _python_json(
        [str(BENCH / "check.py"), "artifact", str(op["artifact"])]
        + (["--table"] if seed == 1 and workload.name != "fleet" else []),
        timeout=90,
    )
    problems = []
    if summary["boards"] != workload.boards or summary["snapshots"] != workload.months + 1:
        problems.append(f"artifact holds {summary['boards']} boards x "
                        f"{summary['snapshots']} snapshots")
    if "table" in summary:
        problems += _golden_problems(summary["table"])
    if reference_sha is not None and op["sha256"] != reference_sha:
        problems.append("resumed artifact differs from the straight paper run")
    with open(EXPECTED, encoding="utf-8") as handle:
        recorded = json.load(handle).get(workload.name, {}).get(str(seed))
    if recorded is not None:
        for key in ("sha256", "alerts"):
            if op[key] != recorded[key]:
                problems.append(f"{key} {op[key]!r} differs from the value recorded "
                                f"for seed {seed}: {recorded[key]!r}")
    return problems


def _unequal(ops, key):
    values = [op[key] for op in ops]
    return [] if len(set(values)) <= 1 else [f"{key} differs between operations: {values}"]


# -- a run ---------------------------------------------------------------

def run(workload_name, seed, seconds, trace):
    workload = WORKLOADS[workload_name]
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no repro sources under {SRC}")
    with open(SPEC, encoding="utf-8") as handle:
        spec = json.load(handle)
    WORK.mkdir(exist_ok=True)
    _adopt_orphans()
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "repro")],
                   cwd=ROOT, check=True, capture_output=True, timeout=120)
    missing = _python_json([str(BENCH / "check.py"), "targets"], timeout=60)["missing"]
    if missing:
        raise BenchmarkError("traced entry points no longer resolve: " + "; ".join(missing))

    hard_deadline = time.monotonic() + 170.0
    reference_sha = None
    if workload.name == "resume":
        # The straight run the resumed artifact must equal, byte for byte.
        ref = run_op(WORKLOADS["paper"], seed, False, "reference", hard_deadline)
        if ref["errors"]:
            raise BenchmarkError("reference paper run failed: " + ref["errors"][0])
        reference_sha = ref["sha256"]

    start = time.monotonic()
    ops = []
    # Three operations at least, so a median rejects one disturbed
    # operation; traced runs need two traced and two untraced ones.
    min_ops = 4 if trace else 3
    while True:
        traced = trace and len(ops) % 3 != 0
        ops.append(run_op(workload, seed, traced, "op", hard_deadline))
        elapsed = time.monotonic() - start
        # Another operation starts only if it should end by --seconds,
        # so a run lasts about --seconds whatever an operation costs.
        next_end = elapsed * (len(ops) + 1) / len(ops)
        if ops[-1]["errors"] or len(ops) >= min_ops and (
            next_end > seconds or next_end > RUN_BUDGET_S
        ):
            break

    problems = [error for op in ops for error in op["errors"]]
    good = [op for op in ops if not op["errors"]]
    failed = len(ops) - len(good)
    if not problems:
        # Every operation of one seed must leave the same bytes; then the
        # last one's artifact (still on disk) stands for all of them.
        run_problems = _unequal(ops, "sha256") + _unequal(ops, "alerts")
        run_problems += _unequal(ops, "data_bytes")
        if not run_problems:
            run_problems = artifact_problems(workload, seed, ops[-1], reference_sha)
        if run_problems:
            failed = len(ops)
            problems += run_problems

    metrics = {}
    if trace:
        traced = [op for op in good if op["traced"]]
        plain = [op for op in good if not op["traced"]]
        layers = [layer_metrics(op) for op in traced]
        for key in EXACT_COUNTS:
            problems += _unequal(layers, key)
        for op in traced:
            problems += trace_problems(workload, op)
        if traced and plain:
            overhead = (statistics.median(op["wall_s"] for op in traced)
                        / statistics.median(op["wall_s"] for op in plain))
            values = {name: statistics.median(layer[name] for layer in layers)
                      for name in layers[0]}
            values["trace_overhead"] = overhead
            metrics = _select(spec["per_layer"], values)
            _print_layers(workload, values, traced)
    elif good:
        per_op = {
            "wall_s": [op["wall_s"] for op in good],
            "cpu_s": [op["cpu_s"] for op in good],
            "setup_s": [op["setup_s"] for op in good],
            "board_months_per_s": [
                workload.boards * (workload.months + 1) / (op["wall_s"] - op["setup_s"])
                for op in good
            ],
            "peak_rss_mb": [op["peak_rss_mb"] for op in good],
            "disk_mb": [op["disk_bytes"] / 1e6 for op in good],
        }
        _print_e2e(workload, per_op, good, len(ops), failed)
        metrics = _select(spec["end_to_end"],
                          {name: statistics.median(v) for name, v in per_op.items()})
    for problem in problems:
        print(f"CHECK FAILED [{workload.name}]: {problem}", file=sys.stderr)
    return {
        "correct": not problems and bool(metrics),
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }


def _select(declared, values):
    missing = [entry["name"] for entry in declared if entry["name"] not in values]
    if missing:
        raise BenchmarkError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    return {entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
            for entry in declared}


def _print_e2e(workload, per_op, good, attempted, failed):
    print(f"{workload.name}: {attempted} operations, {failed} failed, "
          f"fail_rate {failed / attempted:.4f}")
    for name, values in per_op.items():
        # A run holds a handful of operations: the highest percentile
        # they support is their maximum, p100 of n.
        print(f"  {name:<20} median {statistics.median(values):.6g}"
              f"  p100 {max(values):.6g}  n={len(values)}  "
              + " ".join(f"{value:.4g}" for value in values))
    print(f"  exact disk bytes without timed files: {good[0]['data_bytes']}")
    print(f"  artifact sha256 {good[0]['sha256']}, {good[0]['alerts']} alerts")


def _print_layers(workload, values, traced):
    print(f"{workload.name}: per-layer medians of {len(traced)} traced operations")
    for name, value in values.items():
        print(f"  {name:<26} {value:.6g}")
    op = traced[0]
    shares = {"setup": op["setup_s"], **layer_self_times(op)}
    shares["unattributed"] = op["wall_s"] - sum(shares.values())
    print(f"  share of traced wall_s {op['wall_s']:.3f} s (launcher self time): " + ", ".join(
        f"{layer} {value / op['wall_s']:.1%}" for layer, value in shares.items()))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
