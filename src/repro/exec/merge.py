"""The coverage check both campaign drivers run on worker results.

Workers finish in arbitrary wall-clock order, and a driver bug or a
worker returning the wrong boards must never be silently merged.
:func:`collate_board_rows` indexes every returned board's rows by board
id, verifies the plan was covered exactly — every expected board once,
nothing extra, nothing missing, the right number of rows each — and
returns the rows in fleet order, so the driver can rebuild snapshots
month by month with :func:`~repro.analysis.monthly.assemble_evaluation`
exactly as the serial loop does.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.analysis.monthly import BoardMonthMetrics
from repro.errors import CampaignExecutionError


def collate_board_rows(
    board_ids: Sequence[int], snapshots: int, results: Sequence[Any]
) -> Dict[int, List[BoardMonthMetrics]]:
    """Check that ``results`` cover ``board_ids`` exactly; rows in fleet order.

    ``results`` are :class:`~repro.exec.worker.ShardResult` or
    :class:`~repro.exec.windows.WindowResult` objects (both expose
    ``board_rows()``).  Raises :class:`~repro.errors.CampaignExecutionError`
    when a board is missing, returned twice, unplanned, or has other
    than ``snapshots`` rows.
    """
    expected = [int(b) for b in board_ids]
    rows: Dict[int, List[BoardMonthMetrics]] = {}
    owners: Dict[int, int] = {}
    for result in results:
        for board_id, board_rows in result.board_rows().items():
            if board_id in rows:
                raise CampaignExecutionError(
                    f"board {board_id} returned by more than one shard",
                    board_id=board_id,
                    shard_index=result.shard_index,
                )
            rows[board_id] = board_rows
            owners[board_id] = result.shard_index

    missing = [b for b in expected if b not in rows]
    if missing:
        raise CampaignExecutionError(
            f"shard results are missing boards {missing}; refusing to merge "
            f"a partial fleet",
            board_id=missing[0],
        )
    extra = sorted(set(rows) - set(expected))
    if extra:
        raise CampaignExecutionError(
            f"shard results contain unplanned boards {extra}",
            board_id=extra[0],
            shard_index=owners[extra[0]],
        )
    for board_id in expected:
        if len(rows[board_id]) != snapshots:
            raise CampaignExecutionError(
                f"board {board_id} returned {len(rows[board_id])} monthly "
                f"rows, expected {snapshots}",
                board_id=board_id,
                shard_index=owners[board_id],
            )
    return {b: rows[b] for b in expected}
