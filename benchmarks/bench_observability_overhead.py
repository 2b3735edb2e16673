"""Observability overhead: everything on, one method, one gate.

Runs the paper-length study (the paper's 16-board fleet, 24 months,
500 measurements per month, four rollup shards) with every
observability layer switched on at once — span tracing with its phase
fold, the ``default_ruleset() + hierarchical_ruleset()`` monitor hub,
shard rollups and a heartbeat line per month — and verifies that every
Table I cell is bit-identical to a run with all of it off (no tracer,
no hub, no heartbeat).  The committed result,
``BENCH_observability_overhead.json`` at the repository root, records
each group's CPU cost and the all-on total.

Methodology: **outermost-call attribution**.  Every observability
entry point below is wrapped with a ``time.process_time`` accumulator;
a call counts its inclusive CPU time toward its group only when no
other wrapped call is already running, so nothing is counted twice.
Each group's time is divided by the whole run's CPU time.  Spans are
inclusive of the work they wrap, so only the span machinery (creating
a span, reading the clocks, folding phases) is counted, never the
wrapped work.  Differencing two multi-second end-to-end timings would
be dominated by machine noise; attribution measures the same cost
deterministically.  The gate takes the median of the repeats.

Gates: each group costs <= 2 % of campaign CPU.  The all-on total is
recorded against the 2 % target for everything together and reported,
not asserted.

Run it directly (exit code 0 = every group within budget)::

    PYTHONPATH=src python benchmarks/bench_observability_overhead.py
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

from repro.analysis.campaign import LongTermCampaign
from repro.core.assessment import LongTermAssessment
from repro.core.config import StudyConfig
from repro.monitor.defaults import default_ruleset, hierarchical_ruleset
from repro.monitor.heartbeat import SnapshotEmitter
from repro.monitor.hub import MonitorHub
from repro.store.bench import git_revision
from repro.telemetry import (
    Tracer,
    get_flight_recorder,
    get_rollups,
    reset_telemetry,
    run_id_for_config,
    set_tracing,
)
from repro.telemetry.tracing import _ActiveSpan

#: Per-group budget, asserted (fraction of campaign CPU).
MAX_GROUP_OVERHEAD = 0.02

#: Target for everything together; recorded, not asserted.
ALL_ON_TARGET = 0.02

#: The paper's 24-month, 16-board arc with a fleet-shaped rollup split.
CONFIG = StudyConfig(
    device_count=16, months=24, measurements=500, seed=1, rollup_shards=4
)

#: Attributed runs; every gate takes the median fraction.
REPEATS = 5
ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
OUTPUT = os.path.join(ROOT, "BENCH_observability_overhead.json")

#: group -> entry points.  Everything an observed month executes that
#: an unobserved one does not goes through one of these.
GROUPS = {
    "spans": (
        (Tracer, "span"),
        (_ActiveSpan, "__enter__"),
        (_ActiveSpan, "__exit__"),
        (Tracer, "graft"),
    ),
    "rollups": (
        (LongTermCampaign, "_ingest_rollups"),
        (LongTermCampaign, "_count_labeled_powerups"),
        (LongTermCampaign, "_ingest_worker_resources"),
    ),
    "monitor": (
        (MonitorHub, "observe_evaluation"),
        (MonitorHub, "observe_rollups"),
        (MonitorHub, "poll_counters"),
    ),
    "heartbeat": ((SnapshotEmitter, "__call__"),),
}


def _revision() -> str:
    """The measured tree: HEAD, marked ``-dirty`` over uncommitted edits."""
    status = subprocess.run(
        ["git", "status", "--porcelain", "--untracked-files=no"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    dirty = status.returncode == 0 and status.stdout.strip()
    return git_revision(ROOT) + ("-dirty" if dirty else "")


def _table_cells(result) -> dict:
    return {
        name: (
            summary.start_avg,
            summary.end_avg,
            summary.start_worst,
            summary.end_worst,
        )
        for name, summary in result.table.summaries.items()
    }


def _run(observed: bool, heartbeat_dir: str) -> "tuple":
    """One study, everything on or everything off; ``(result, hub)``."""
    reset_telemetry()
    if not observed:
        return LongTermAssessment(CONFIG).run(), None
    set_tracing(True)
    try:
        hub = MonitorHub(default_ruleset() + hierarchical_ruleset())
        emitter = SnapshotEmitter(
            os.path.join(heartbeat_dir, "bench.heartbeat.jsonl"),
            hub=hub,
            rollups=get_rollups(),
            flight=get_flight_recorder(),
            run_id=run_id_for_config(CONFIG),
        )
        result = LongTermAssessment(CONFIG).run(progress=emitter, monitor=hub)
    finally:
        set_tracing(False)
    return result, hub


def _attributed_run(heartbeat_dir: str) -> "tuple":
    """One all-on run with the entry points timed.

    Returns ``(total_cpu_s, {group: cpu_s}, alert_count)``.
    """
    spent = {group: 0.0 for group in GROUPS}
    depth = [0]

    def wrap(method, group):
        def timed(*args, **kwargs):
            if depth[0]:
                return method(*args, **kwargs)
            depth[0] += 1
            start = time.process_time()
            try:
                return method(*args, **kwargs)
            finally:
                spent[group] += time.process_time() - start
                depth[0] -= 1

        return timed

    originals = [
        (cls, name, cls.__dict__[name], group)
        for group, points in GROUPS.items()
        for cls, name in points
    ]
    for cls, name, method, group in originals:
        setattr(cls, name, wrap(method, group))
    try:
        start = time.process_time()
        _, hub = _run(True, heartbeat_dir)
        total = time.process_time() - start
    finally:
        for cls, name, method, _ in originals:
            setattr(cls, name, method)
    return total, spent, hub.alert_count


def main() -> int:
    with tempfile.TemporaryDirectory() as heartbeat_dir:
        # Bit-identity first: everything off, everything on, and on
        # again (fixed-seed determinism) give the same Table I cells.
        cells_off = _table_cells(_run(False, heartbeat_dir)[0])
        cells_on = _table_cells(_run(True, heartbeat_dir)[0])
        cells_on_again = _table_cells(_run(True, heartbeat_dir)[0])
        if cells_off != cells_on:
            print("FAIL: observability changed the scientific output", file=sys.stderr)
            return 1
        if cells_on != cells_on_again:
            print("FAIL: run-to-run nondeterminism at fixed seed", file=sys.stderr)
            return 1
        runs = [_attributed_run(heartbeat_dir) for _ in range(REPEATS)]

    totals = [total for total, _, _ in runs]
    groups = {}
    for group, points in GROUPS.items():
        fractions = [spent[group] / total for total, spent, _ in runs]
        groups[group] = {
            "entry_points": [f"{cls.__name__}.{name}" for cls, name in points],
            "cpu_s": round(statistics.median(s[group] for _, s, _ in runs), 6),
            "fraction": round(statistics.median(fractions), 6),
            "fractions": [round(f, 6) for f in fractions],
            "budget": MAX_GROUP_OVERHEAD,
        }
    all_on = [sum(spent.values()) / total for total, spent, _ in runs]
    all_on_fraction = statistics.median(all_on)
    document = {
        "bench": "observability_overhead",
        "method": "outermost-call process_time attribution",
        "host": {"cpu_count": os.cpu_count()},
        "git_revision": _revision(),
        "config": {
            "device_count": CONFIG.device_count,
            "months": CONFIG.months,
            "measurements": CONFIG.measurements,
            "rollup_shards": CONFIG.rollup_shards,
            "seed": CONFIG.seed,
            "rules": "default_ruleset() + hierarchical_ruleset()",
            "heartbeat_every": 1,
        },
        "repeats": REPEATS,
        "median_total_cpu_s": round(statistics.median(totals), 6),
        "groups": groups,
        "all_on": {
            "cpu_s": round(
                statistics.median(sum(spent.values()) for _, spent, _ in runs), 6
            ),
            "fraction": round(all_on_fraction, 6),
            "fractions": [round(f, 6) for f in all_on],
            "target": ALL_ON_TARGET,
            "target_met": all_on_fraction <= ALL_ON_TARGET,
        },
        "results_identical": True,
        "alerts_last_run": runs[-1][2],
    }
    with open(OUTPUT, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    print(json.dumps(document, indent=2))

    over = {g: doc["fraction"] for g, doc in groups.items() if doc["fraction"] > MAX_GROUP_OVERHEAD}
    status = "met" if all_on_fraction <= ALL_ON_TARGET else "NOT YET MET"
    print(
        f"all-on observability {all_on_fraction:.2%} of campaign CPU "
        f"(target {ALL_ON_TARGET:.0%}: {status}; recorded, not asserted)"
    )
    if over:
        for group, fraction in over.items():
            print(
                f"FAIL: {group} overhead {fraction:.2%} > budget "
                f"{MAX_GROUP_OVERHEAD:.0%}",
                file=sys.stderr,
            )
        return 1
    for group, doc in groups.items():
        print(f"OK: {group} {doc['fraction']:.2%} (budget {MAX_GROUP_OVERHEAD:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
