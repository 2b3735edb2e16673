"""Shard planning and executor-selection unit tests."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.exec.executor import ParallelExecutor, SerialExecutor, executor_for
from repro.exec.plan import ShardSpec, partition_boards
from repro.exec.worker import run_board_shard
from repro.sram.profiles import ATMEGA32U4


class TestPartitionBoards:
    def test_even_split_preserves_fleet_order(self):
        assert partition_boards(range(16), 4) == [
            (0, 1, 2, 3),
            (4, 5, 6, 7),
            (8, 9, 10, 11),
            (12, 13, 14, 15),
        ]

    def test_remainder_goes_to_the_first_shards(self):
        assert partition_boards(range(5), 2) == [(0, 1, 2), (3, 4)]
        assert partition_boards(range(7), 3) == [(0, 1, 2), (3, 4), (5, 6)]

    def test_more_shards_than_boards_collapses_to_singletons(self):
        assert partition_boards(range(2), 4) == [(0,), (1,)]

    def test_single_shard_takes_everything(self):
        assert partition_boards(range(3), 1) == [(0, 1, 2)]

    def test_concatenation_round_trips(self):
        for shards in (1, 2, 3, 5, 16, 17):
            flat = [
                b for chunk in partition_boards(range(16), shards) for b in chunk
            ]
            assert flat == list(range(16))

    def test_invalid_inputs_raise(self):
        with pytest.raises(ConfigurationError):
            partition_boards(range(4), 0)
        with pytest.raises(ConfigurationError):
            partition_boards([], 2)


class TestShardSpecValidation:
    def test_temperature_length_must_cover_every_snapshot(self):
        with pytest.raises(ConfigurationError, match="per-month temperatures"):
            ShardSpec(
                shard_index=0,
                root_seed=0,
                board_ids=(0,),
                months=3,
                measurements=10,
                profile=ATMEGA32U4,
                temperatures=(None,) * 3,  # needs months + 1 = 4
            )

    def test_empty_board_list_is_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one board"):
            ShardSpec(
                shard_index=0,
                root_seed=0,
                board_ids=(),
                months=1,
                measurements=10,
                profile=ATMEGA32U4,
                temperatures=(None, None),
            )


class TestExecutorSelection:
    def test_one_worker_falls_back_to_serial(self):
        assert isinstance(executor_for(1), SerialExecutor)

    def test_many_workers_build_a_parallel_executor(self):
        executor = executor_for(4)
        assert isinstance(executor, ParallelExecutor)
        assert executor.max_workers == 4

    def test_invalid_worker_counts_raise(self):
        with pytest.raises(ConfigurationError):
            executor_for(0)
        with pytest.raises(ConfigurationError):
            ParallelExecutor(0)

    def test_empty_plan_is_a_noop(self):
        assert ParallelExecutor(2).run_tasks(run_board_shard, []) == []
