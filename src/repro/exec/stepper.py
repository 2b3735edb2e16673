"""The shard stepper: one shard's live boards, one campaign month at a time.

The paper's protocol is one step repeated: every board takes a block of
power-ups against its day-0 reference, then ages one nominal month.
:class:`ShardStepper` is the only place that step is coded.  It owns
one shard's boards under either kernel — a list of
:class:`~repro.sram.chip.SRAMChip` (``"scalar"``) or one batched
:class:`~repro.sram.fleetkernel.FleetKernel` (``"vector"``) — and every
campaign path drives it: the in-process serial loop, the shard worker
(:mod:`repro.exec.worker`), the month-window worker
(:mod:`repro.exec.windows`) and the keyframe replay of a cold restore.
Boards never share random streams, so the order in which the stepper
visits boards and months changes no draw, and results are bit-identical
across kernels, paths and worker counts.

Work is counted on two private registries — evaluation and aging —
that the campaign driver folds into the parent registry around its
monthly monitor poll.  :func:`worker_harness` is what both worker
entry points wrap around a stepper.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence

import numpy as np

from repro.analysis.monthly import BoardMonthMetrics, evaluate_board, evaluate_fleet
from repro.errors import CampaignExecutionError
from repro.exec.plan import rollup_shard_of
from repro.rng import SeedHierarchy
from repro.sram.aging import AgingSimulator
from repro.sram.chip import SRAMChip
from repro.sram.fleetkernel import build_fleet_kernel
from repro.sram.profiles import DeviceProfile
from repro.store.checkpoint import (
    board_state_doc,
    board_state_from_doc,
    board_state_to_doc,
    restore_chip,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.profiling import PHASE_AGING, PhaseProfiler
from repro.telemetry.resources import ResourceSampler
from repro.telemetry.rollup import ROLLUP_STATS, ShardRollupBuilder
from repro.telemetry.runtime import get_profiler, install_profiler
from repro.telemetry.tracing import NULL_SPAN, TraceContext, Tracer, span_record


def _span(tracer: Optional[Tracer], name: str, **attributes: Any):
    return tracer.span(name, **attributes) if tracer is not None else NULL_SPAN


def _counter_values(registry: MetricsRegistry) -> Dict[str, int]:
    """Non-zero counter values of a private registry."""
    return {
        name: int(doc["value"])
        for name, doc in registry.snapshot().items()
        if doc["type"] == "counter" and doc["value"]
    }


def sum_counts(deltas: Iterable[Mapping[str, int]]) -> Dict[str, int]:
    """Sum counter-delta maps name by name."""
    total: Dict[str, int] = {}
    for mapping in deltas:
        for name, delta in mapping.items():
            total[name] = total.get(name, 0) + delta
    return total


def protocol_of(spec) -> Dict[str, Any]:
    """The monthly-step parameters a Shard/Window spec carries."""
    return {
        "measurements": spec.measurements,
        "statistical": spec.statistical,
        "aging_acceleration": spec.aging_acceleration,
        "aging_steps_per_month": spec.aging_steps_per_month,
    }


def rollup_builder(spec) -> Optional[ShardRollupBuilder]:
    """A month's rollup builder for a spec, or ``None`` when rollups are off."""
    if spec.rollup_shards <= 0:
        return None
    return ShardRollupBuilder(
        lambda board: rollup_shard_of(board, spec.fleet_size, spec.rollup_shards)
    )


@dataclass(frozen=True)
class MonthStep:
    """One month of :meth:`ShardStepper.advance`: rows and counter deltas."""

    #: The month's rows, in the stepper's board order.
    rows: List[BoardMonthMetrics] = field(repr=False)
    #: Counters advanced by reference read-outs and the measurement block.
    eval_deltas: Dict[str, int] = field(repr=False)
    #: Counters advanced by the aging after the block (empty if not aged).
    aging_deltas: Dict[str, int] = field(repr=False)


class ShardStepper:
    """One shard's live boards under either kernel.

    Build it three ways: :meth:`build` from ``(root_seed, board_ids,
    profiles)`` (fresh boards, day-0 references taken) or from state
    documents, or the constructor with live ``chips`` (scalar only;
    their references are read now).  :meth:`advance` then runs one or
    more months board by board (scalar) or fleet-wide (vector) under
    the worker span tree ``worker.board → board.month → board.measure
    / board.age`` (``worker.fleet → fleet.month → fleet.*`` for
    vector); the serial loop, which observes between measuring and
    aging, advances one month without aging and calls :meth:`age`.
    """

    def __init__(
        self,
        *,
        measurements: int,
        statistical: bool = True,
        aging_acceleration: float = 1.0,
        aging_steps_per_month: int = 2,
        chips: Optional[Sequence[SRAMChip]] = None,
        fleet=None,
        references: Optional[Mapping[int, np.ndarray]] = None,
    ):
        self._measurements = measurements
        self._statistical = statistical
        self._acceleration = aging_acceleration
        self._steps = aging_steps_per_month
        self._eval = MetricsRegistry()
        self._aging = MetricsRegistry()
        self._fleet = fleet
        if fleet is not None:
            self.board_ids = tuple(fleet.board_ids)
            self._units: list = [fleet]
        else:
            self._units = list(chips)
            self.board_ids = tuple(chip.chip_id for chip in self._units)
            # One simulator per distinct profile: the aging law is
            # profile physics, so a mixed shard ages each board with
            # its own model.
            self._simulators = {
                profile: AgingSimulator(profile)
                for profile in dict.fromkeys(chip.profile for chip in self._units)
            }
        if references is None:
            if fleet is not None:
                readouts = fleet.read_startup()
                references = {b: readouts[i] for i, b in enumerate(self.board_ids)}
            else:
                references = {chip.chip_id: chip.read_startup() for chip in self._units}
            self._eval.counter("campaign.powerups").inc(len(references))
        self.references: Dict[int, np.ndarray] = {
            board: references[board] for board in self.board_ids
        }

    @classmethod
    def build(
        cls,
        kernel: str,
        board_ids: Sequence[int],
        profiles: Sequence[DeviceProfile],
        *,
        root_seed: int = 0,
        states: Optional[Mapping[int, Dict[str, Any]]] = None,
        references: Optional[Mapping[int, np.ndarray]] = None,
        **protocol: Any,
    ) -> "ShardStepper":
        """Fresh boards from the seed hierarchy (day-0 references taken),
        or, with ``states``, boards at the draw position of those state
        documents (``references`` then required)."""
        if kernel == "vector":
            raw = None
            if states is not None:
                raw = {b: board_state_from_doc(states[b]) for b in board_ids}
            fleet = build_fleet_kernel(
                board_ids, profiles, root_seed=root_seed, states=raw
            )
            return cls(fleet=fleet, references=references, **protocol)
        pairs = zip(board_ids, profiles)
        if states is None:
            seeds = SeedHierarchy(root_seed)
            chips = [SRAMChip(b, p, random_state=seeds) for b, p in pairs]
        else:
            chips = [restore_chip(b, p, states[b]) for b, p in pairs]
        return cls(chips=chips, references=references, **protocol)

    # One unit is one chip (scalar) or the whole fleet (vector).  These
    # two methods hold the only measurement and aging calls of every
    # campaign path.

    def _measure_unit(self, unit, temperature_k, tracer) -> List[BoardMonthMetrics]:
        if self._fleet is not None:
            with _span(tracer, "fleet.measure"):
                return evaluate_fleet(
                    unit,
                    self.references,
                    measurements=self._measurements,
                    statistical=self._statistical,
                    temperature_k=temperature_k,
                )
        with _span(tracer, "board.measure"):
            return [
                evaluate_board(
                    unit,
                    self.references[unit.chip_id],
                    measurements=self._measurements,
                    statistical=self._statistical,
                    temperature_k=temperature_k,
                )
            ]

    def _age_unit(self, unit, tracer) -> None:
        if self._fleet is not None:
            with _span(tracer, "fleet.age"), get_profiler().phase(PHASE_AGING):
                unit.age_months(self._acceleration, steps=self._steps)
            return
        with _span(tracer, "board.age"), get_profiler().phase(PHASE_AGING):
            self._simulators[unit.profile].age_array_months(
                unit.array, self._acceleration, steps=self._steps
            )

    def _count_age(self) -> None:
        self._aging.counter("campaign.aging_steps").inc(
            self._steps * len(self.board_ids)
        )

    def take_deltas(self) -> tuple[Dict[str, int], Dict[str, int]]:
        """``(eval, aging)`` counter deltas since the last take."""
        deltas = (_counter_values(self._eval), _counter_values(self._aging))
        self._eval = MetricsRegistry()
        self._aging = MetricsRegistry()
        return deltas

    def age(self) -> None:
        """Age every board by one campaign month (the serial loop's aging)."""
        for unit in self._units:
            self._age_unit(unit, None)
        self._count_age()

    def advance(
        self,
        temperatures: Mapping[int, Optional[float]],
        *,
        age_last: bool,
        tracer: Optional[Tracer] = None,
        builders: Optional[Sequence[Optional[ShardRollupBuilder]]] = None,
        fail_board: Optional[int] = None,
        where: str = "campaign",
        shard_index: Optional[int] = None,
    ) -> List[MonthStep]:
        """Run the months of ``temperatures`` (month -> block temperature).

        Every month but the last is followed by aging; the last only
        when ``age_last``.  ``builders`` (aligned with the months)
        observe each month's rows in board order.  ``fail_board`` is
        the fault-injection hook: the scalar kernel raises when it
        reaches that board, the vector kernel before any board, since
        it advances the fleet as one unit.  Failures surface as
        :class:`~repro.errors.CampaignExecutionError` naming ``where``.
        """
        months = list(temperatures)
        if self._fleet is not None and fail_board in self.board_ids:
            raise CampaignExecutionError(
                f"board {fail_board} failed in {where}: injected fault (fail_board)",
                board_id=fail_board,
                shard_index=shard_index,
            )
        rows: List[List[BoardMonthMetrics]] = [[] for _ in months]
        for unit in self._units:
            if self._fleet is not None:
                unit_span = _span(tracer, "worker.fleet", boards=len(self.board_ids))
                month_span, board = "fleet.month", None
            else:
                board = unit.chip_id
                unit_span = _span(tracer, "worker.board", board=board)
                month_span = "board.month"
            try:
                if fail_board is not None and fail_board == board:
                    raise RuntimeError("injected fault (fail_board)")
                with unit_span:
                    for index, month in enumerate(months):
                        with _span(tracer, month_span, month=month):
                            rows[index].extend(
                                self._measure_unit(unit, temperatures[month], tracer)
                            )
                            if age_last or index < len(months) - 1:
                                self._age_unit(unit, tracer)
            except CampaignExecutionError:
                raise
            except Exception as exc:
                who = "fleet (vector kernel)" if board is None else f"board {board}"
                raise CampaignExecutionError(
                    f"{who} failed in {where}: {exc}",
                    board_id=board,
                    shard_index=shard_index,
                ) from exc
        steps: List[MonthStep] = []
        for index in range(len(months)):
            builder = builders[index] if builders is not None else None
            if builder is not None:
                for row in rows[index]:
                    stats = {stat: getattr(row, stat) for stat in ROLLUP_STATS}
                    builder.observe_board(row.board_id, stats)
            self._eval.counter("campaign.powerups").inc(
                self._measurements * len(self.board_ids)
            )
            if age_last or index < len(months) - 1:
                self._count_age()
            steps.append(MonthStep(rows[index], *self.take_deltas()))
        return steps

    def export_states(self) -> Dict[int, Dict[str, Any]]:
        """Every board's state document, in board order."""
        if self._fleet is not None:
            raw = self._fleet.export_states()
            return {board: board_state_to_doc(raw[board]) for board in self.board_ids}
        return {chip.chip_id: board_state_doc(chip) for chip in self._units}

    def __repr__(self) -> str:
        kernel = "scalar" if self._fleet is None else "vector"
        return f"ShardStepper({kernel}, boards={list(self.board_ids)})"


@dataclass
class WorkerHarness:
    """Per-task observability a worker ships home with its result."""

    tracer: Optional[Tracer] = None
    resources: Dict[str, float] = field(default_factory=dict)
    spans: List[Dict[str, object]] = field(default_factory=list)
    phase_deltas: Dict[str, Dict[str, float]] = field(default_factory=dict)


@contextmanager
def worker_harness(
    trace: Optional[TraceContext], shard_index: int, where: str
) -> Iterator[WorkerHarness]:
    """Run one worker task with its private telemetry.

    Samples the task's resources, records spans on a private tracer
    (when ``trace.spans``), swaps in a local phase profiler (when
    ``trace.phases``) so every hot-path ``get_profiler()`` call
    attributes here, and turns any unstructured failure into a
    :class:`~repro.errors.CampaignExecutionError` naming ``where``.
    Workers never touch the process-global registries: they may share
    a process with the campaign driver.
    """
    harness = WorkerHarness(
        Tracer(enabled=True) if trace is not None and trace.spans else None
    )
    sampler = ResourceSampler()
    previous: Optional[PhaseProfiler] = None
    if trace is not None and trace.phases:
        previous = install_profiler(PhaseProfiler(enabled=True))
    try:
        yield harness
    except CampaignExecutionError:
        raise
    except Exception as exc:
        raise CampaignExecutionError(
            f"{where} failed: {exc}", shard_index=shard_index
        ) from exc
    finally:
        if previous is not None:
            harness.phase_deltas = install_profiler(previous).take()
    tracer = harness.tracer
    if tracer is not None and tracer.roots:
        epoch = tracer.roots[0].start_wall
        harness.spans = [span_record(root, epoch) for root in tracer.roots]
    harness.resources = sampler.sample()
