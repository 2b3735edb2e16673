"""The distributed-trace merge gate: one coherent tree, any worker count.

A traced campaign dispatches shards to workers; each worker records
spans on a private tracer and ships them home as pickle-safe records;
the driver grafts them under the dispatching span and numbers the
merged forest pre-order.  The contract mirrors the scientific one:
the merged tree's *names, attributes, structure and span ids* are
identical at every worker count — only timings differ — and turning
the whole observability layer on changes no campaign output byte.
Phases are ``phase=`` tags on spans, so the phase table folded from
the merged tree inherits the contract: identical per-phase call counts
on the sharded and the checkpointed path alike, and phase rows plus
the ``unattributed`` remainder that add up to the run's CPU time.
"""

from __future__ import annotations

import json
import tempfile

import pytest

from repro.analysis.campaign import LongTermCampaign
from repro.exec import executor_for
from repro.telemetry import (
    UNATTRIBUTED,
    get_tracer,
    reset_telemetry,
    set_tracing,
)

from tests.exec.conftest import assert_campaigns_identical, worker_counts

CONFIG = dict(device_count=4, months=2, measurements=80)
SEED = 7

#: (workers, path) -> (result, shapes, id_rows, phase_totals, run_cpu);
#: traced runs are spawn-heavy, so every test reads from one run per
#: worker count and path.
_RUNS = {}

#: The two drivers: ``_run_sharded`` and the checkpointed ``_window_loop``.
PATHS = ("sharded", "checkpointed")


#: Attributes that legitimately encode the dispatch size ("workers=2",
#: "shards=4"); everything else — board, month, devices — must match.
_DISPATCH_ATTRIBUTES = frozenset({"workers", "shards"})


def _shape(span):
    """Structure view of a span subtree (no timings, ids or fan-out)."""
    return (
        span.name,
        tuple(
            sorted(
                (k, repr(v))
                for k, v in span.attributes.items()
                if k not in _DISPATCH_ATTRIBUTES
            )
        ),
        tuple(_shape(child) for child in span.children),
    )


def _id_rows(span):
    """(span_id, parent_id, name) rows, pre-order."""
    rows = [(span.span_id, span.parent_id, span.name)]
    for child in span.children:
        rows.extend(_id_rows(child))
    return rows


def _worker_cpu(span):
    """CPU of the grafted worker subtrees (``worker.*`` roots) under ``span``."""
    if span.name.startswith("worker."):
        return span.cpu_s
    return sum(_worker_cpu(child) for child in span.children)


def _traced_run(workers, path="sharded"):
    key = (workers, path)
    if key in _RUNS:
        return _RUNS[key]
    reset_telemetry()
    set_tracing(True)
    try:
        campaign = LongTermCampaign(random_state=SEED, **CONFIG)
        if path == "sharded":
            result = campaign.run(executor=executor_for(workers))
        else:
            with tempfile.TemporaryDirectory() as checkpoint_dir:
                result = campaign.run(
                    executor=executor_for(workers), checkpoint_dir=checkpoint_dir
                )
        tracer = get_tracer()
        tracer.assign_ids()
        shapes = tuple(_shape(root) for root in tracer.roots)
        id_rows = [row for root in tracer.roots for row in _id_rows(root)]
        (run,) = [root for root in tracer.roots if root.name == "campaign.run"]
        # In-process workers ran inside the run's own CPU time; spawned
        # workers add theirs.
        run_cpu = run.cpu_s + (_worker_cpu(run) if workers > 1 else 0.0)
        _RUNS[key] = (result, shapes, id_rows, tracer.phase_totals(), run_cpu)
        return _RUNS[key]
    finally:
        set_tracing(False)


def _calls(phases):
    """Per-phase call counts of a fold (the remainder is not a phase)."""
    return {
        name: total["calls"] for name, total in phases.items() if name != UNATTRIBUTED
    }


class TestMergedTreeDeterminism:
    @pytest.mark.parametrize("workers", [w for w in worker_counts() if w > 1])
    def test_tree_shape_identical_to_single_worker(self, workers):
        _, shape_one, _, _, _ = _traced_run(1)
        _, shape_many, _, _, _ = _traced_run(workers)
        assert shape_many == shape_one

    @pytest.mark.parametrize("workers", [w for w in worker_counts() if w > 1])
    def test_span_ids_identical_to_single_worker(self, workers):
        _, _, ids_one, _, _ = _traced_run(1)
        _, _, ids_many, _, _ = _traced_run(workers)
        assert ids_many == ids_one

    def test_worker_spans_grafted_with_correct_parentage(self):
        workers = max(worker_counts())
        _traced_run(workers)
        # Re-derive the live tree for structural drill-down.
        _, shapes, _, _, _ = _traced_run(workers)
        (campaign_run,) = [s for s in shapes if s[0] == "campaign.run"]
        (shards,) = [c for c in campaign_run[2] if c[0] == "campaign.shards"]
        boards = [c for c in shards[2] if c[0] == "worker.board"]
        assert [dict(b[1])["board"] for b in boards] == ["0", "1", "2", "3"]
        for board in boards:
            months = [c for c in board[2] if c[0] == "board.month"]
            assert [dict(m[1])["month"] for m in months] == ["0", "1", "2"]
            for month in months:
                names = [c[0] for c in month[2]]
                assert "board.measure" in names

    @pytest.mark.parametrize("workers", [w for w in worker_counts() if w > 1])
    def test_phase_attribution_identical_serial_vs_parallel(self, workers):
        _, _, _, phases_one, _ = _traced_run(1)
        _, _, _, phases_many, _ = _traced_run(workers)
        # CPU figures vary run to run; the attribution (which phases,
        # how many calls) must not depend on the worker count.
        assert _calls(phases_many) == _calls(phases_one)
        assert {"noise_draw", "powerup", "aging", "metrics"} <= set(phases_one)

    @pytest.mark.parametrize("workers", [w for w in worker_counts() if w > 1])
    def test_campaign_output_identical_across_worker_counts(self, workers):
        result_one, _, _, _, _ = _traced_run(1)
        result_many, _, _, _, _ = _traced_run(workers)
        assert_campaigns_identical(result_one, result_many)


class TestCheckpointedPathTree:
    """The same gate on the checkpointed month-window driver."""

    @pytest.mark.parametrize("workers", [w for w in worker_counts() if w > 1])
    def test_tree_shape_and_ids_identical_to_single_worker(self, workers):
        _, shape_one, ids_one, _, _ = _traced_run(1, "checkpointed")
        _, shape_many, ids_many, _, _ = _traced_run(workers, "checkpointed")
        assert shape_many == shape_one
        assert ids_many == ids_one

    @pytest.mark.parametrize("workers", [w for w in worker_counts() if w > 1])
    def test_phase_calls_identical_to_single_worker(self, workers):
        _, _, _, phases_one, _ = _traced_run(1, "checkpointed")
        _, _, _, phases_many, _ = _traced_run(workers, "checkpointed")
        assert _calls(phases_many) == _calls(phases_one)

    def test_store_io_row_counts_every_checkpoint(self):
        _, _, _, phases, _ = _traced_run(max(worker_counts()), "checkpointed")
        assert {"noise_draw", "powerup", "aging", "metrics", "monitor"} <= set(phases)
        # One campaign.checkpoint per month, grafted from no worker.
        assert phases["store_io"]["calls"] == CONFIG["months"] + 1
        assert phases["monitor"]["calls"] == CONFIG["months"] + 1


class TestPhaseFold:
    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("workers", [1, 2])
    def test_rows_plus_unattributed_sum_to_run_cpu(self, workers, path):
        _, _, _, phases, run_cpu = _traced_run(workers, path)
        assert UNATTRIBUTED in phases
        assert phases[UNATTRIBUTED]["cpu_s"] >= 0.0
        folded = sum(total["cpu_s"] for total in phases.values())
        assert folded == pytest.approx(run_cpu, rel=1e-9, abs=1e-9)

    def test_serial_loop_folds_every_phase(self):
        reset_telemetry()
        set_tracing(True)
        try:
            LongTermCampaign(random_state=SEED, **CONFIG).run()
            tracer = get_tracer()
            phases = tracer.phase_totals()
            (run,) = [r for r in tracer.roots if r.name == "campaign.run"]
        finally:
            set_tracing(False)
        boards, snapshots = CONFIG["device_count"], CONFIG["months"] + 1
        assert phases["aging"]["calls"] == boards * CONFIG["months"]
        assert phases["powerup"]["calls"] == boards * snapshots
        assert phases["monitor"]["calls"] == snapshots
        folded = sum(total["cpu_s"] for total in phases.values())
        assert folded == pytest.approx(run.cpu_s, rel=1e-9, abs=1e-9)


class TestObservabilityChangesNothing:
    def test_artifacts_byte_identical_tracing_and_profiling_on_vs_off(self):
        workers = max(worker_counts())
        traced_result, _, _, _, _ = _traced_run(workers)
        reset_telemetry()
        assert not get_tracer().enabled
        plain = LongTermCampaign(random_state=SEED, **CONFIG).run(
            executor=executor_for(workers)
        )
        assert_campaigns_identical(traced_result, plain)
        # The untraced run recorded no spans and no phases.
        assert get_tracer().roots == []
        assert get_tracer().phase_totals() == {}


class TestChromeExportFromMergedTree:
    def test_export_has_per_board_lanes_and_ids(self, tmp_path):
        workers = max(worker_counts())
        _traced_run(workers)
        reset_telemetry()
        set_tracing(True)
        try:
            LongTermCampaign(random_state=SEED, **CONFIG).run(
                executor=executor_for(workers)
            )
            path = str(tmp_path / "trace.chrome.json")
            get_tracer().export_chrome(path)
        finally:
            set_tracing(False)
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        events = doc["traceEvents"]
        assert doc["otherData"]["format"] == "repro-trace-chrome"
        board_events = [e for e in events if e["name"] == "worker.board"]
        assert sorted(e["tid"] for e in board_events) == [1, 2, 3, 4]
        for event in events:
            assert event["ph"] == "X"
            assert event["dur"] >= 0.0
            assert "span_id" in event["args"]
