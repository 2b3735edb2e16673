"""Shard executors: where the planned work actually runs.

Two interchangeable strategies behind one duck-typed surface
(``max_workers`` attribute plus ``run_tasks(fn, specs)``):

:class:`SerialExecutor`
    Runs every shard in-process, in plan order.  Zero overhead, no
    subprocesses — the reference implementation the equivalence suite
    compares everything against, and the automatic fallback at
    ``max_workers=1``.

:class:`ParallelExecutor`
    Fans shards out over a :class:`concurrent.futures.ProcessPoolExecutor`
    (a one-dispatch :class:`~repro.exec.pool.WindowPool`) using the
    ``spawn`` start method — the only start method that is safe on
    every platform and never inherits parent state (locks,
    open files, loaded RNG state) that could perturb determinism.

Both return shard results **in plan order** regardless of completion
order, so the merge is deterministic.  A failing shard raises
:class:`~repro.errors.CampaignExecutionError` and cancels work that
has not started; no partial fleet is ever returned.
"""

from __future__ import annotations

from typing import Any, Callable, List, Sequence, Union

from repro.errors import CampaignExecutionError, ConfigurationError

#: Start method used for worker processes.  ``fork`` would be faster on
#: Linux but silently shares parent memory; ``spawn`` keeps workers
#: hermetic and behaviour identical across platforms.
START_METHOD = "spawn"


class SerialExecutor:
    """Run shards one after another in the calling process."""

    max_workers = 1

    def run_tasks(self, fn: Callable[[Any], Any], specs: Sequence[Any]) -> List[Any]:
        """Apply ``fn`` to every spec sequentially, in plan order.

        The generic dispatch surface: full-trajectory shards
        (:func:`~repro.exec.worker.run_board_shard`) and checkpointed
        month windows (:func:`~repro.exec.windows.run_board_window`)
        both run through here.
        """
        return [fn(spec) for spec in specs]

    def __repr__(self) -> str:
        return "SerialExecutor()"


class ParallelExecutor:
    """Run shards in ``spawn``-ed worker processes.

    Parameters
    ----------
    max_workers:
        Size of the process pool.  The pool never exceeds the number
        of shards submitted, so small fleets do not pay for idle
        workers.
    """

    def __init__(self, max_workers: int):
        if max_workers < 1:
            raise ConfigurationError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = int(max_workers)

    def run_tasks(self, fn: Callable[[Any], Any], specs: Sequence[Any]) -> List[Any]:
        """Apply ``fn`` to the specs concurrently; plan-order results.

        ``fn`` must be a picklable module-level callable and every spec
        must expose ``shard_index`` and ``board_ids`` (for structured
        error reports) — :class:`~repro.exec.plan.ShardSpec` and
        :class:`~repro.exec.windows.WindowSpec` both do.  Each call
        runs on a :class:`~repro.exec.pool.WindowPool` that lives for
        this dispatch only.
        """
        from repro.exec.pool import WindowPool

        with WindowPool(self.max_workers) as pool:
            return pool.run_tasks(fn, specs)

    def __repr__(self) -> str:
        return f"ParallelExecutor(max_workers={self.max_workers})"


CampaignExecutor = Union[SerialExecutor, ParallelExecutor]


def executor_for(max_workers: int) -> CampaignExecutor:
    """Pick the executor for a worker count (1 falls back to serial)."""
    if max_workers < 1:
        raise ConfigurationError(f"max_workers must be >= 1, got {max_workers}")
    if max_workers == 1:
        return SerialExecutor()
    return ParallelExecutor(max_workers)


def guarded(call: Callable[[], Any], spec: Any) -> Any:
    """Run a zero-arg ``call``, normalising failures to CampaignExecutionError."""
    try:
        return call()
    except CampaignExecutionError:
        raise
    except Exception as exc:  # BrokenProcessPool, pickling errors, ...
        raise CampaignExecutionError(
            f"shard {spec.shard_index} (boards {list(spec.board_ids)}) "
            f"died without a structured error: {exc}",
            shard_index=spec.shard_index,
        ) from exc
