"""The board-shard worker: one shard's trajectories, start to finish.

:func:`run_board_shard` is the function the executors dispatch — a
module-level callable (picklable under the ``spawn`` start method)
that takes a :class:`~repro.exec.plan.ShardSpec` and runs every
assigned board's full campaign trajectory on one
:class:`~repro.exec.stepper.ShardStepper`: the day-0 reference
read-out, then each month's measurement block followed by one month of
aging.  Each board touches only its own ``chip-<id>`` stream, so the
returned numbers are bit-identical to the serial run's.

Workers do not touch the process-global telemetry registry (they may
share a process with the campaign driver under
:class:`~repro.exec.executor.SerialExecutor`).  Instead every shard
returns *per-month counter deltas* from the stepper's private
registries; the driver folds them into the parent registry in
snapshot order, so monthly counter rates — and therefore
``rate:``-rule alert sequences — match the serial run poll for poll.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.analysis.monthly import BoardMonthMetrics
from repro.exec.plan import ShardSpec
from repro.exec.stepper import (
    ShardStepper,
    protocol_of,
    rollup_builder,
    sum_counts,
    worker_harness,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class BoardTrajectory:
    """One board's complete campaign output.

    ``months[m]`` is the board's share of the month-``m`` snapshot;
    ``reference`` is its day-0 read-out (the lifetime WCHD baseline).
    """

    board_id: int
    reference: np.ndarray = field(repr=False)
    months: List[BoardMonthMetrics] = field(repr=False)


@dataclass(frozen=True)
class ShardResult:
    """Everything one worker sends back to the campaign driver."""

    shard_index: int
    board_ids: Tuple[int, ...]
    trajectories: List[BoardTrajectory] = field(repr=False)
    #: ``counter_deltas[m]`` holds how much each telemetry counter
    #: advanced between the month ``m - 1`` and month ``m`` snapshot
    #: polls (month 0 includes the day-0 reference read-outs).
    counter_deltas: List[Dict[str, int]] = field(repr=False)
    #: ``rollup_docs[m]`` is this shard's partial rollup documents for
    #: month ``m`` (empty when ``ShardSpec.rollup_shards`` is 0) —
    #: exact summaries the parent merges associatively.
    rollup_docs: List[Dict[str, dict]] = field(default_factory=list, repr=False)
    #: Worker resource sample for the whole shard (wall/CPU seconds,
    #: peak RSS in KiB); diagnostic only, never merged into results.
    resources: Dict[str, float] = field(default_factory=dict, repr=False)
    #: Pickle-safe per-board span records (:func:`span_record`), one
    #: root per simulated board in board order; empty unless
    #: ``ShardSpec.trace.spans`` was set.  The driver grafts them under
    #: its dispatching span sorted by board id, so the merged tree is
    #: independent of worker count.
    spans: List[Dict[str, object]] = field(default_factory=list, repr=False)

    def board_rows(self) -> Dict[int, List[BoardMonthMetrics]]:
        """Every returned board's monthly rows (for coverage checks)."""
        return {t.board_id: t.months for t in self.trajectories}


def run_board_shard(spec: ShardSpec) -> ShardResult:
    """Execute one shard: every assigned board, end to end.

    Any failure while a board runs — including the
    :attr:`~repro.exec.plan.ShardSpec.fail_board` fault-injection
    hook — surfaces as a :class:`~repro.errors.CampaignExecutionError`
    naming the board and shard, so the driver can refuse to merge.
    """
    where = f"shard {spec.shard_index}"
    builders = [rollup_builder(spec) for _ in spec.temperatures]
    with worker_harness(spec.trace, spec.shard_index, where) as harness:
        stepper = ShardStepper.build(
            spec.kernel,
            spec.board_ids,
            spec.board_profiles,
            root_seed=spec.root_seed,
            **protocol_of(spec),
        )
        steps = stepper.advance(
            dict(enumerate(spec.temperatures)),
            age_last=False,
            tracer=harness.tracer,
            builders=builders,
            fail_board=spec.fail_board,
            where=where,
            shard_index=spec.shard_index,
        )
    # A month's poll sees its own evaluation plus the previous month's aging.
    counter_deltas = [
        sum_counts([step.eval_deltas] + ([steps[m - 1].aging_deltas] if m else []))
        for m, step in enumerate(steps)
    ]
    rows: Dict[int, List[BoardMonthMetrics]] = {board: [] for board in spec.board_ids}
    for step in steps:
        for row in step.rows:
            rows[row.board_id].append(row)
    logger.debug(
        "shard %d finished: %d boards x %d snapshots",
        spec.shard_index,
        len(rows),
        len(steps),
    )
    return ShardResult(
        shard_index=spec.shard_index,
        board_ids=spec.board_ids,
        trajectories=[
            BoardTrajectory(board, stepper.references[board], rows[board])
            for board in spec.board_ids
        ],
        counter_deltas=counter_deltas,
        rollup_docs=[b.take() for b in builders] if spec.rollup_shards > 0 else [],
        resources=harness.resources,
        spans=harness.spans,
    )
