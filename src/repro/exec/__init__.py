"""repro.exec — board-sharded parallel campaign execution.

The paper's study is embarrassingly parallel across its 16 boards:
every board's trajectory (reference read-out, monthly blocks, aging)
draws exclusively from its own ``chip-<id>`` random stream, so the
fleet can be sharded over worker processes and merged back with
**bit-identical** results — the determinism contract the
``tests/exec`` equivalence suite enforces.

Layers (see ``docs/parallel.md`` for the full design):

* :mod:`repro.exec.plan` — :class:`ShardSpec` work orders and the
  board partitioner.
* :mod:`repro.exec.stepper` — :class:`ShardStepper`, the one
  month-advance core every campaign path drives (both kernels), plus
  the worker harness both worker entry points share.
* :mod:`repro.exec.worker` — the ``spawn``-safe shard worker; returns
  trajectories plus per-month telemetry counter deltas.
* :mod:`repro.exec.windows` — month-granular work orders for the
  checkpointed path (:class:`WindowSpec` / :func:`run_board_window`);
  the driver regains control after every month to cut a checkpoint.
* :mod:`repro.exec.executor` — :class:`SerialExecutor` /
  :class:`ParallelExecutor` behind one surface; plan-order results,
  structured :class:`~repro.errors.CampaignExecutionError` on failure.
* :mod:`repro.exec.pool` — :class:`WindowPool`, the persistent worker
  pool of the checkpointed path: one pool lifetime per campaign
  instead of a respawn per month, enabling the workers' warm stepper
  cache.
* :mod:`repro.exec.merge` — the coverage check both drivers run on
  worker results before anything is merged.

Entry points: :class:`~repro.analysis.campaign.LongTermCampaign` and
:class:`~repro.core.assessment.LongTermAssessment` accept
``run(executor=...)``, :class:`~repro.core.config.StudyConfig` grows
``max_workers``, and the CLI exposes ``--workers``.
"""

from repro.exec.executor import (
    CampaignExecutor,
    ParallelExecutor,
    SerialExecutor,
    executor_for,
)
from repro.exec.merge import collate_board_rows
from repro.exec.plan import ShardSpec, partition_boards
from repro.exec.pool import WindowPool
from repro.exec.stepper import ShardStepper
from repro.exec.windows import (
    BoardWindowState,
    WindowResult,
    WindowSpec,
    clear_window_cache,
    run_board_window,
    window_cache_stats,
)
from repro.exec.worker import BoardTrajectory, ShardResult, run_board_shard

__all__ = [
    "BoardTrajectory",
    "BoardWindowState",
    "CampaignExecutor",
    "ParallelExecutor",
    "SerialExecutor",
    "ShardResult",
    "ShardSpec",
    "ShardStepper",
    "WindowPool",
    "WindowResult",
    "WindowSpec",
    "clear_window_cache",
    "collate_board_rows",
    "executor_for",
    "partition_boards",
    "run_board_shard",
    "run_board_window",
    "window_cache_stats",
]
