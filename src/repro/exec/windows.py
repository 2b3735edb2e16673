"""Month-window workers: one month of one shard's boards at a time.

The checkpointed campaign path must cut a checkpoint *between* months,
so it cannot hand workers full-trajectory
:class:`~repro.exec.plan.ShardSpec` orders.  :class:`WindowSpec`
describes one month of one shard instead, carrying each board *by
value* as a :class:`BoardWindowState` (serialized device state, or
``None`` at month 0 to manufacture the board in the worker), and
:func:`run_board_window` advances it one month on a
:class:`~repro.exec.stepper.ShardStepper`.  Device state round-trips
exactly through :func:`repro.store.checkpoint.board_state_doc`, and the
same pipeline runs under every executor, so checkpoint files — not
just results — are byte-identical across worker counts.  Counter
deltas come back split into *evaluation* deltas (folded before the
month's monitor poll) and *aging* deltas (folded after).

Workers keep a **warm stepper cache**: after every window the live
stepper is remembered under the shard's board-id tuple together with a
*proof* of the state it is at.  The next window for that shard reuses
it only when its inbound proof matches — the per-board
:func:`state_digest` tuple of a monolithic window, or ``(shard root,
config digest, completed month)`` under a sharded store, where device
state never leaves the worker.  A hit is provably equivalent to a
restore (``restore_chip(board_state_doc(chip))`` round-trips
bit-exactly); a miss restores from the inbound state documents, or
cold-restores a sharded window from the shard's newest keyframe and
silently replays the months after it.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.monthly import BoardMonthMetrics
from repro.errors import CampaignExecutionError
from repro.exec.plan import normalize_profile_fields
from repro.exec.stepper import ShardStepper, protocol_of, rollup_builder, worker_harness
from repro.sram.fleetkernel import validate_kernel
from repro.sram.profiles import DeviceProfile
from repro.store.checkpoint import load_latest_shard_keyframe
from repro.store.shardstore import ShardStoreSpec, persist_shard_window
from repro.telemetry.runtime import get_tracer
from repro.telemetry.tracing import PHASE_STORE_IO, TraceContext

logger = logging.getLogger(__name__)

#: Warm per-process steppers: the shard's board-id tuple ->
#: (proof, stepper).  A stepper is taken out while its window runs and
#: put back only when the window succeeds, so a failed window never
#: leaves a half-advanced stepper behind.
_STEPPERS: Dict[Tuple[int, ...], Tuple[tuple, ShardStepper]] = {}

#: Safety valve for long-lived processes cycling through many
#: campaigns: past this many shards the cache starts over.
_STEPPER_LIMIT = 32

_CACHE_STATS = {"hits": 0, "misses": 0}


def state_digest(state: Dict[str, Any]) -> str:
    """Canonical digest of a :func:`board_state_doc` document.

    Sorted-key JSON makes the digest independent of dict construction
    order, so a state document round-tripped through a checkpoint file
    hashes the same as one fresh out of a worker.
    """
    payload = json.dumps(state, sort_keys=True).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def window_cache_stats() -> Dict[str, int]:
    """Per-board hit/miss counters of this process's warm stepper cache."""
    return dict(_CACHE_STATS)


def clear_window_cache() -> None:
    """Drop the warm steppers and zero their statistics."""
    _STEPPERS.clear()
    _CACHE_STATS["hits"] = 0
    _CACHE_STATS["misses"] = 0


def _warm(key: Tuple[int, ...], proof: tuple) -> Optional[ShardStepper]:
    """Take the cached stepper out if its proof matches ``proof``.

    Statistics count one per board, so they compare across kernels.
    """
    cached = _STEPPERS.pop(key, None)
    hit = cached is not None and cached[0] == proof
    _CACHE_STATS["hits" if hit else "misses"] += len(key)
    return cached[1] if hit else None


def _remember(key: Tuple[int, ...], proof: tuple, stepper: ShardStepper) -> None:
    if len(_STEPPERS) >= _STEPPER_LIMIT:
        _STEPPERS.clear()
    _STEPPERS[key] = (proof, stepper)


@dataclass(frozen=True)
class BoardWindowState:
    """One board's inbound state for a month window.

    ``state is None`` means the board does not exist yet (month 0): the
    worker manufactures it from the seed hierarchy and takes its day-0
    reference read-out.  Afterwards ``state`` is a
    :func:`~repro.store.checkpoint.board_state_doc` document and
    ``reference`` the day-0 read-out.
    """

    board_id: int
    state: Optional[Dict[str, Any]] = field(repr=False, default=None)
    reference: Optional[np.ndarray] = field(repr=False, default=None)


@dataclass(frozen=True)
class WindowSpec:
    """One shard's work order for a single campaign month.

    ``rollup_shards``/``fleet_size`` mirror
    :class:`~repro.exec.plan.ShardSpec`: when ``rollup_shards`` is
    positive the window also returns exact partial rollup documents
    for its boards' month.  ``fail_board`` is the fault-injection
    hook — the worker raises before simulating that board.
    """

    shard_index: int
    month: int
    root_seed: int
    measurements: int
    #: Homogeneous shorthand — every board shares this profile.  Mixed
    #: windows instead carry the interned ``profiles`` table plus
    #: per-board ``profile_index`` entries (aligned with ``boards``),
    #: mirroring :class:`~repro.exec.plan.ShardSpec`.
    profile: Optional[DeviceProfile] = field(default=None, repr=False)
    profiles: Tuple[DeviceProfile, ...] = field(default=(), repr=False)
    profile_index: Tuple[int, ...] = ()
    statistical: bool = True
    temperature: Optional[float] = None
    apply_aging: bool = True
    aging_steps_per_month: int = 2
    aging_acceleration: float = 1.0
    boards: Tuple[BoardWindowState, ...] = ()
    fail_board: Optional[int] = None
    rollup_shards: int = 0
    fleet_size: int = 0
    #: Observability context (``None`` keeps the spec byte-compatible
    #: with the pre-tracing pickle); mirrors ``ShardSpec.trace``.
    trace: Optional[TraceContext] = None
    #: Execution kernel; mirrors ``ShardSpec.kernel`` — ``"vector"``
    #: advances the window's boards together on a
    #: :class:`~repro.sram.fleetkernel.FleetKernel`, bit-identically.
    kernel: str = "scalar"
    #: Sharded persistence order (``None`` = monolithic: the driver
    #: checkpoints centrally and boards travel by value).  When set,
    #: the worker owns the shard's store: device state stays local
    #: (``boards`` arrive with ``state=None`` after month 0 and the
    #: result ships ``states={}``), and the worker persists the month's
    #: rows + chain file itself before returning.
    shard_store: Optional[ShardStoreSpec] = None

    def __post_init__(self) -> None:
        validate_kernel(self.kernel)
        normalize_profile_fields(self, len(self.boards))

    @property
    def board_ids(self) -> Tuple[int, ...]:
        """Boards of this window (for executor error reports)."""
        return tuple(board.board_id for board in self.boards)

    @property
    def board_profiles(self) -> Tuple[DeviceProfile, ...]:
        """Per-board profiles, aligned with ``boards``."""
        return tuple(self.profiles[i] for i in self.profile_index)


@dataclass(frozen=True)
class WindowResult:
    """Everything one month window sends back to the driver."""

    shard_index: int
    month: int
    rows: Dict[int, BoardMonthMetrics] = field(repr=False)
    states: Dict[int, Dict[str, Any]] = field(repr=False)
    #: Day-0 references, populated only by month-0 windows.
    references: Dict[int, np.ndarray] = field(repr=False)
    #: Counters advanced by manufacture/reference/measurement work.
    eval_deltas: Dict[str, int] = field(repr=False)
    #: Counters advanced by the post-snapshot aging block.
    aging_deltas: Dict[str, int] = field(repr=False)
    #: Partial rollup documents for this window's month (empty when
    #: ``WindowSpec.rollup_shards`` is 0).
    rollups: Dict[str, dict] = field(default_factory=dict, repr=False)
    #: Worker resource sample for this window (wall/CPU/RSS).
    resources: Dict[str, float] = field(default_factory=dict, repr=False)
    #: Pickle-safe per-board span records in board order; empty unless
    #: ``WindowSpec.trace.spans`` was set.
    spans: list = field(default_factory=list, repr=False)

    def board_rows(self) -> Dict[int, List[BoardMonthMetrics]]:
        """Every returned board's rows — one each (for coverage checks)."""
        return {board: [row] for board, row in self.rows.items()}


def _cold_restore(spec: "WindowSpec", references) -> ShardStepper:
    """Rebuild a sharded window's boards from the shard's own store.

    Loads the shard's newest keyframe at or below month ``m-1`` and
    *silently replays* the months in between with the recorded block
    temperatures, so every board's RNG stream lands on exactly the draw
    position the warm path would have.  The replay feeds no rollups and
    drops its counter deltas: the replayed months were already counted
    and persisted by the run that first executed them.  Only its time
    is observed, as spans under one ``window.replay`` span.
    """
    shard_store = spec.shard_store
    if len(shard_store.temperatures) < spec.month:
        raise CampaignExecutionError(
            f"shard store spec of shard {spec.shard_index} carries "
            f"{len(shard_store.temperatures)} month temperatures, month "
            f"{spec.month} window needs the full history",
            shard_index=spec.shard_index,
        )
    keyframe = load_latest_shard_keyframe(shard_store.root, max_month=spec.month - 1)
    if set(keyframe.boards) != set(spec.board_ids):
        raise CampaignExecutionError(
            f"shard {spec.shard_index} keyframe covers boards "
            f"{sorted(keyframe.boards)}, window expects {sorted(spec.board_ids)}",
            shard_index=spec.shard_index,
        )
    gap = range(keyframe.completed_month + 1, spec.month)
    logger.info(
        "shard %d cold restore from keyframe month %d (replaying %d month(s))",
        spec.shard_index,
        keyframe.completed_month,
        len(gap),
    )
    stepper = ShardStepper.build(
        spec.kernel,
        spec.board_ids,
        spec.board_profiles,
        states=keyframe.boards,
        references=references,
        **protocol_of(spec),
    )
    tracer = get_tracer()
    with tracer.span("window.replay", months=len(gap)):
        stepper.advance(
            {month: shard_store.temperatures[month] for month in gap},
            age_last=True,
            tracer=tracer,
        )
    return stepper


def _checkout(spec: "WindowSpec") -> ShardStepper:
    """The window's stepper.

    Month 0 manufactures the boards; later months take the warm stepper
    when the inbound proof matches, and otherwise restore — from the
    inbound state documents (monolithic) or the shard's keyframe chain
    (sharded store, where boards arrive with ``state=None``).
    """
    key = spec.board_ids
    protocol = protocol_of(spec)
    states = [board.state for board in spec.boards]
    if spec.shard_store is None or spec.month == 0:
        if all(state is None for state in states):
            return ShardStepper.build(
                spec.kernel,
                key,
                spec.board_profiles,
                root_seed=spec.root_seed,
                **protocol,
            )
        if any(state is None for state in states):
            raise CampaignExecutionError(
                f"a window needs every board's state or none: boards "
                f"{[b.board_id for b in spec.boards if b.state is None]} have "
                f"no state (month-{spec.month} window of shard {spec.shard_index})",
                shard_index=spec.shard_index,
            )
    references = {board.board_id: board.reference for board in spec.boards}
    if spec.shard_store is not None:
        store = spec.shard_store
        proof = (spec.kernel, store.root, store.config_digest, spec.month - 1)
        stepper = _warm(key, proof) or _cold_restore(spec, references)
    else:
        proof = (spec.kernel,) + tuple(state_digest(state) for state in states)
        stepper = _warm(key, proof) or ShardStepper.build(
            spec.kernel,
            key,
            spec.board_profiles,
            states={board.board_id: board.state for board in spec.boards},
            references=references,
            **protocol,
        )
    stepper.references = {board: references[board] for board in stepper.board_ids}
    return stepper


def run_board_window(spec: WindowSpec) -> WindowResult:
    """Execute one month for every board of one shard.

    Month 0 additionally manufactures each board and takes its day-0
    reference (exactly the serial campaign's draw order).  Failures
    surface as :class:`~repro.errors.CampaignExecutionError` naming the
    board and shard, like the full-trajectory worker's.

    Under a sharded store (``spec.shard_store``) the boards arrive
    with ``state=None`` after month 0; the worker continues its warm
    stepper (or cold-restores from the shard's keyframe chain), and
    persists the month's rows and chain file to the shard's store
    before returning a result with ``states={}``.
    """
    where = f"month-{spec.month} window of shard {spec.shard_index}"
    builder = rollup_builder(spec)
    with worker_harness(spec.trace, spec.shard_index, where) as harness:
        stepper = _checkout(spec)
        (step,) = stepper.advance(
            {spec.month: spec.temperature},
            age_last=spec.apply_aging,
            tracer=harness.tracer,
            builders=[builder],
            fail_board=spec.fail_board,
            where=where,
            shard_index=spec.shard_index,
        )
        rows = {row.board_id: row for row in step.rows}
        references = dict(stepper.references) if spec.month == 0 else {}
        states = stepper.export_states()
        if spec.shard_store is not None:
            # The month is only "done" once the shard's own store says
            # so: rows record first, chain file (the commit mark)
            # second.  The heavy state documents then stay in this
            # process — the result ships no board state at all.
            store = spec.shard_store
            with get_tracer().span("window.persist", phase=PHASE_STORE_IO):
                persist_shard_window(store, spec.month, rows, states, references)
            proof = (spec.kernel, store.root, store.config_digest, spec.month)
            states = {}
        else:
            digests = tuple(state_digest(states[b]) for b in spec.board_ids)
            proof = (spec.kernel,) + digests
        _remember(spec.board_ids, proof, stepper)
    logger.debug(
        "window finished: shard %d month %d, %d boards",
        spec.shard_index,
        spec.month,
        len(rows),
    )
    return WindowResult(
        shard_index=spec.shard_index,
        month=spec.month,
        rows=rows,
        states=states,
        references=references,
        eval_deltas=step.eval_deltas,
        aging_deltas=step.aging_deltas,
        rollups=builder.take() if builder is not None else {},
        resources=harness.resources,
        spans=harness.spans,
    )
