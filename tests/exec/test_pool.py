"""WindowPool: one pool lifetime per campaign, plus the warm board cache.

The regression this suite pins down: before :class:`WindowPool`, the
checkpointed month-window driver built a fresh ``ProcessPoolExecutor``
for every month's dispatch.  ``spawn_count`` counts pool constructions,
so a multi-month campaign through an injected pool must leave it at 1.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from typing import Tuple

import pytest

from repro.analysis.campaign import LongTermCampaign
from repro.errors import CampaignExecutionError, CampaignInterrupted, ConfigurationError
from repro.exec.executor import ParallelExecutor, SerialExecutor
from repro.exec.pool import WindowPool
from repro.exec.windows import clear_window_cache, state_digest, window_cache_stats

from tests.exec.conftest import InlineWindowPool, assert_campaigns_identical

PARAMS = dict(device_count=3, months=3, measurements=60, temperature_walk_k=1.0)
SEED = 13


def make_campaign(max_workers: int = 1) -> LongTermCampaign:
    return LongTermCampaign(max_workers=max_workers, random_state=SEED, **PARAMS)


@dataclass(frozen=True)
class EchoSpec:
    """Minimal executor work order (module-level: picklable for spawn)."""

    shard_index: int
    payload: int
    board_ids: Tuple[int, ...] = field(default=())


def echo(spec: EchoSpec) -> int:
    return spec.payload * 2


def boom(spec: EchoSpec) -> int:
    raise ValueError("window exploded")


class TestValidation:
    def test_max_workers_below_one_rejected(self):
        with pytest.raises(ConfigurationError, match="max_workers"):
            WindowPool(0)

    def test_fork_start_method_rejected(self):
        with pytest.raises(ConfigurationError, match="'spawn' or 'forkserver'"):
            WindowPool(2, start_method="fork")

    def test_unavailable_start_method_rejected(self, monkeypatch):
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        with pytest.raises(ConfigurationError, match="not available"):
            WindowPool(2, start_method="forkserver")


class TestAdopt:
    def test_caller_owned_pool_passes_through(self):
        pool = WindowPool(2)
        assert WindowPool.adopt(pool) is pool

    def test_single_worker_executor_passes_through(self):
        serial = SerialExecutor()
        assert WindowPool.adopt(serial) is serial

    def test_multi_worker_executor_is_wrapped(self):
        adopted = WindowPool.adopt(ParallelExecutor(max_workers=2))
        assert isinstance(adopted, WindowPool)
        assert adopted.max_workers == 2


class TestDispatch:
    def test_single_worker_runs_inline_without_spawning(self):
        pool = WindowPool(1)
        specs = [EchoSpec(i, i) for i in range(3)]
        assert pool.run_tasks(echo, specs) == [0, 2, 4]
        assert pool.spawn_count == 0

    def test_single_spec_runs_inline_even_on_wide_pool(self):
        pool = WindowPool(4)
        assert pool.run_tasks(echo, [EchoSpec(0, 21)]) == [42]
        assert pool.spawn_count == 0
        pool.close()

    def test_empty_dispatch_is_a_no_op(self):
        pool = WindowPool(4)
        assert pool.run_tasks(echo, []) == []
        assert pool.spawn_count == 0

    def test_pool_survives_repeated_dispatches(self):
        with WindowPool(2) as pool:
            for round_index in range(3):
                specs = [EchoSpec(i, round_index + i) for i in range(2)]
                expected = [(round_index + i) * 2 for i in range(2)]
                assert pool.run_tasks(echo, specs) == expected
            assert pool.spawn_count == 1

    def test_respawn_after_close(self):
        pool = WindowPool(2)
        specs = [EchoSpec(i, i) for i in range(2)]
        pool.run_tasks(echo, specs)
        assert pool.spawn_count == 1
        pool.close()
        pool.close()  # idempotent
        pool.run_tasks(echo, specs)
        assert pool.spawn_count == 2
        pool.close()

    def test_failure_discards_the_pool(self):
        pool = WindowPool(2)
        specs = [EchoSpec(i, i) for i in range(2)]
        pool.run_tasks(echo, specs)
        with pytest.raises(CampaignExecutionError):
            pool.run_tasks(boom, specs)
        # The poisoned pool was dropped; the next dispatch respawns.
        assert pool.run_tasks(echo, specs) == [0, 2]
        assert pool.spawn_count == 2
        pool.close()


class TestPoolReuseRegression:
    def test_one_spawn_across_a_whole_campaign(self, tmp_path):
        baseline = make_campaign().run()
        with WindowPool(2) as pool:
            result = make_campaign(max_workers=2).run(
                checkpoint_dir=str(tmp_path / "ckpt"), executor=pool
            )
            assert pool.spawn_count == 1
            assert_campaigns_identical(baseline, result)
            # A caller-owned pool stays open across campaigns too.
            again = make_campaign(max_workers=2).run(
                checkpoint_dir=str(tmp_path / "ckpt2"), executor=pool
            )
            assert pool.spawn_count == 1
            assert_campaigns_identical(baseline, again)


class TestWarmBoardCache:
    def test_state_digest_ignores_key_order(self):
        assert state_digest({"a": 1, "b": [2, 3]}) == state_digest(
            {"b": [2, 3], "a": 1}
        )
        assert state_digest({"a": 1}) != state_digest({"a": 2})

    def test_clear_resets_statistics(self):
        clear_window_cache()
        assert window_cache_stats() == {"hits": 0, "misses": 0}

    def test_inline_campaign_hits_the_cache_every_restore(self, tmp_path):
        # Single-worker windows run inline in this process, so the
        # parent's cache statistics are directly observable: month 0
        # manufactures (no lookup), every later month's restore hits.
        clear_window_cache()
        make_campaign().run(checkpoint_dir=str(tmp_path / "ckpt"))
        stats = window_cache_stats()
        assert stats["hits"] == PARAMS["device_count"] * PARAMS["months"]
        assert stats["misses"] == 0
        clear_window_cache()

    @pytest.mark.parametrize("shard_store", [False, True], ids=["monolithic", "sharded"])
    @pytest.mark.parametrize("kernel", ["scalar", "vector"])
    def test_warm_run_hits_and_resume_misses_once(self, tmp_path, kernel, shard_store):
        # Two in-process shards: every window after month 0 finds its
        # stepper warm.  A resume after clear_window_cache() — what a
        # fresh process sees — misses once per board, then hits again.
        boards = PARAMS["device_count"]
        params = dict(PARAMS, kernel=kernel, shard_store=shard_store)
        baseline = LongTermCampaign(random_state=SEED, **PARAMS).run()
        clear_window_cache()
        straight = LongTermCampaign(random_state=SEED, **params).run(
            checkpoint_dir=str(tmp_path / "straight"), executor=InlineWindowPool(2)
        )
        assert window_cache_stats() == {"hits": boards * PARAMS["months"], "misses": 0}
        assert_campaigns_identical(baseline, straight)

        ckpt = str(tmp_path / "resumed")
        with pytest.raises(CampaignInterrupted):
            LongTermCampaign(random_state=SEED, **params).run(
                checkpoint_dir=ckpt, executor=InlineWindowPool(2), abort_after_month=1
            )
        clear_window_cache()
        windows = []
        resumed = LongTermCampaign.resume(
            ckpt,
            executor=InlineWindowPool(2),
            kernel=kernel,
            progress=lambda done, total: windows.append(done),
        )
        assert window_cache_stats() == {
            "hits": boards * (len(windows) - 1),
            "misses": boards,
        }
        assert_campaigns_identical(baseline, resumed)
        clear_window_cache()

