"""Crash robustness: failures surface structured, nothing merges.

A fleet-scale executor that silently dropped a failed board would
corrupt the science (WCHD envelopes over 15 boards instead of 16 look
plausible).  The contract tested here: any worker failure — injected
via the :attr:`~repro.exec.plan.ShardSpec.fail_board` chaos hook —
surfaces as a :class:`~repro.errors.CampaignExecutionError` that names
the board and shard, survives the process boundary, and aborts the
campaign *before* anything is merged, observed or reported.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import signal

import pytest

from repro.analysis.campaign import LongTermCampaign
from repro.errors import CampaignExecutionError
from repro.exec.executor import ParallelExecutor, SerialExecutor
from repro.exec.merge import collate_board_rows
from repro.exec.plan import ShardSpec
from repro.exec.pool import WindowPool
from repro.exec.windows import BoardWindowState, WindowSpec, run_board_window
from repro.exec.worker import run_board_shard
from repro.io.resultstore import save_campaign
from repro.monitor.defaults import default_ruleset
from repro.monitor.hub import MonitorHub
from repro.sram.profiles import ATMEGA32U4
from repro.telemetry import get_metrics, reset_telemetry

MONTHS = 2


def _spec(board_ids, shard_index=0, **overrides) -> ShardSpec:
    spec = dict(
        shard_index=shard_index,
        root_seed=3,
        board_ids=tuple(board_ids),
        months=MONTHS,
        measurements=50,
        profile=ATMEGA32U4,
        temperatures=(None,) * (MONTHS + 1),
    )
    spec.update(overrides)
    return ShardSpec(**spec)


class TestWorkerFailure:
    def test_injected_fault_names_board_and_shard(self):
        with pytest.raises(CampaignExecutionError) as excinfo:
            run_board_shard(_spec([0, 1, 2], shard_index=4, fail_board=1))
        assert excinfo.value.board_id == 1
        assert excinfo.value.shard_index == 4
        assert "board 1" in str(excinfo.value)

    def test_error_attributes_survive_the_process_boundary(self):
        specs = [
            _spec([0, 1], shard_index=0),
            _spec([2, 3], shard_index=1, fail_board=3),
        ]
        with pytest.raises(CampaignExecutionError) as excinfo:
            ParallelExecutor(2).run_tasks(run_board_shard, specs)
        assert excinfo.value.board_id == 3
        assert excinfo.value.shard_index == 1

    def test_serial_executor_wraps_failures_identically(self):
        with pytest.raises(CampaignExecutionError) as excinfo:
            SerialExecutor().run_tasks(run_board_shard, [_spec([5], fail_board=5)])
        assert excinfo.value.board_id == 5


class _FaultyCampaign(LongTermCampaign):
    """Campaign whose second shard dies on its first board."""

    def _plan_shards(self, shard_count):
        specs = super()._plan_shards(shard_count)
        victim = specs[-1]
        specs[-1] = dataclasses.replace(victim, fail_board=victim.board_ids[0])
        return specs


class TestNoPartialMerge:
    def test_campaign_aborts_without_merging_or_observing(self, tmp_path):
        reset_telemetry()
        alert_log = tmp_path / "alerts.jsonl"
        hub = MonitorHub(default_ruleset(), alert_log=str(alert_log))
        progress_calls = []
        campaign = _FaultyCampaign(
            device_count=4, months=MONTHS, measurements=50, random_state=3
        )
        with pytest.raises(CampaignExecutionError) as excinfo:
            campaign.run(
                progress=progress_calls.append,
                monitor=hub,
                executor=ParallelExecutor(2),
            )
        assert excinfo.value.board_id is not None
        # Nothing downstream of the failure may have happened: no
        # snapshot observed, no alert written, no progress reported,
        # no snapshot counted.
        assert progress_calls == []
        assert hub.alert_count == 0
        assert not alert_log.exists()
        assert get_metrics().counter("monitor.observations").value == 0
        assert get_metrics().counter("campaign.snapshots").value == 0


class TestMergeRefusesBadCoverage:
    """Both drivers' coverage check, on full-trajectory shard results.

    :class:`TestWindowMergeRefusesBadCoverage` reruns every case on
    month-window results.
    """

    #: Rows each board contributes to one result.
    ROWS = MONTHS + 1

    def _results(self, *board_groups):
        return [
            run_board_shard(_spec(boards, shard_index=i))
            for i, boards in enumerate(board_groups)
        ]

    def test_missing_board_is_refused(self):
        results = self._results((0, 1), (2,))
        with pytest.raises(CampaignExecutionError, match="missing boards \\[3\\]"):
            collate_board_rows([0, 1, 2, 3], self.ROWS, results)

    def test_duplicate_board_is_refused(self):
        results = self._results((0, 1), (1, 2))
        with pytest.raises(CampaignExecutionError, match="more than one shard"):
            collate_board_rows([0, 1, 2], self.ROWS, results)

    def test_unplanned_board_is_refused(self):
        results = self._results((0, 1, 2))
        with pytest.raises(CampaignExecutionError, match="unplanned boards \\[2\\]"):
            collate_board_rows([0, 1], self.ROWS, results)

    def test_wrong_month_count_is_refused(self):
        results = self._results((0, 1))
        with pytest.raises(CampaignExecutionError, match=f"expected {self.ROWS + 1}"):
            collate_board_rows([0, 1], self.ROWS + 1, results)


class TestWindowMergeRefusesBadCoverage(TestMergeRefusesBadCoverage):
    ROWS = 1

    def _results(self, *board_groups):
        return [
            run_board_window(
                WindowSpec(
                    shard_index=i,
                    month=0,
                    root_seed=3,
                    measurements=50,
                    profile=ATMEGA32U4,
                    boards=tuple(BoardWindowState(board) for board in boards),
                )
            )
            for i, boards in enumerate(board_groups)
        ]


class _DroppingExecutor(SerialExecutor):
    """Runs every task, then loses one board's rows from the last result."""

    def run_tasks(self, fn, specs):
        results = super().run_tasks(fn, specs)
        last = results[-1]
        if hasattr(last, "trajectories"):
            lost = dataclasses.replace(last, trajectories=last.trajectories[1:])
        else:
            rows = dict(last.rows)
            rows.pop(min(rows))
            lost = dataclasses.replace(last, rows=rows)
        return results[:-1] + [lost]


class TestDriversRefuseALostBoard:
    @pytest.mark.parametrize("checkpointed", [False, True], ids=["sharded", "windowed"])
    def test_lost_board_is_a_structured_crash(self, tmp_path, checkpointed):
        campaign = LongTermCampaign(
            device_count=3, months=MONTHS, measurements=50, random_state=3
        )
        checkpoint_dir = str(tmp_path / "ckpt") if checkpointed else None
        with pytest.raises(CampaignExecutionError, match="missing boards"):
            campaign.run(executor=_DroppingExecutor(), checkpoint_dir=checkpoint_dir)
        if checkpointed:
            assert (tmp_path / "ckpt" / "flight.json").exists()


#: Month whose window kills shard 0's worker process.
DEATH_MONTH = 2


def die_in_shard_zero(spec, death="os_exit"):
    """Window callable whose shard-0 worker dies mid-campaign (picklable).

    ``death`` picks how: ``"os_exit"`` exits without cleanup,
    ``"sigkill"`` has the kernel kill the process outright.
    """
    if spec.shard_index == 0 and spec.month == DEATH_MONTH:
        if death == "sigkill":
            os.kill(os.getpid(), signal.SIGKILL)
        os._exit(1)
    return run_board_window(spec)


class _DyingPool(WindowPool):
    """A caller-owned pool whose first campaign loses a worker process."""

    armed = True
    death = "os_exit"

    def run_tasks(self, fn, specs):
        if self.armed and fn is run_board_window:
            try:
                dying = functools.partial(die_in_shard_zero, death=self.death)
                return super().run_tasks(dying, specs)
            except CampaignExecutionError:
                self.armed = False
                raise
        return super().run_tasks(fn, specs)


class TestWorkerDeath:
    @pytest.mark.parametrize("death", ["os_exit", "sigkill"])
    def test_killed_worker_leaves_a_resumable_directory(self, tmp_path, death):
        config = dict(device_count=4, months=4, measurements=50, random_state=3)
        straight = LongTermCampaign(**config).run()
        save_campaign(straight, str(tmp_path / "straight.json"))
        reset_telemetry()
        ckpt = str(tmp_path / "ckpt")
        pool = _DyingPool(2)
        pool.death = death
        try:
            with pytest.raises(CampaignExecutionError, match="shard 0"):
                LongTermCampaign(max_workers=2, **config).run(
                    checkpoint_dir=ckpt, executor=pool
                )
            assert (tmp_path / "ckpt" / "flight.json").exists()
            # The broken pool was discarded: the next dispatch respawns.
            assert pool.spawn_count == 1
            reset_telemetry()
            resumed = LongTermCampaign.resume(ckpt, executor=pool, max_workers=2)
            assert pool.spawn_count == 2
        finally:
            pool.close()
        save_campaign(resumed, str(tmp_path / "resumed.json"))
        assert (tmp_path / "resumed.json").read_bytes() == (
            tmp_path / "straight.json"
        ).read_bytes()
