"""The long-term campaign driver.

:class:`LongTermCampaign` reproduces the paper's two-year study: it
manufactures a fleet of devices, takes each device's first-ever
read-out as the lifetime reference, then alternates monthly snapshots
(the Section IV-B protocol of :mod:`repro.analysis.monthly`) with one
month of nominal-condition aging, for 25 snapshots in total (Feb 2017
through Feb 2019 inclusive).

An optional ambient-temperature random walk perturbs each month's
measurement temperature around the nominal, mimicking an uncontrolled
"room temperature" lab.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.monthly import MonthlyEvaluation, assemble_evaluation
from repro.errors import (
    CampaignExecutionError,
    CampaignInterrupted,
    ConfigurationError,
    StorageError,
)
from repro.rng import RandomState, SeedHierarchy
from repro.sram.chip import SRAMChip
from repro.sram.fleetkernel import validate_kernel
from repro.sram.population import PopulationSpec
from repro.sram.profiles import ATMEGA32U4, DeviceProfile
from repro.telemetry import (
    PHASE_MONITOR,
    PHASE_STORE_IO,
    get_flight_recorder,
    get_metrics,
    get_profiler,
    get_rollups,
    get_tracer,
    graft_records,
    profiling_enabled,
    rollups_enabled,
)

if TYPE_CHECKING:  # pragma: no cover - typing aid only
    from repro.exec.executor import CampaignExecutor
    from repro.exec.plan import ShardSpec
    from repro.monitor.hub import MonitorHub

logger = logging.getLogger(__name__)

#: Progress callback signature: ``callback(completed_snapshots, total_snapshots)``.
ProgressCallback = Callable[[int, int], None]


@dataclass(frozen=True)
class CampaignResult:
    """Everything a finished campaign produced.

    ``snapshots[m]`` is the evaluation at age ``m`` months;
    ``snapshots[0]`` is the initial (unaged) evaluation.
    """

    profile_name: str
    months: int
    measurements: int
    board_ids: List[int]
    references: Dict[int, np.ndarray] = field(repr=False)
    snapshots: List[MonthlyEvaluation] = field(repr=False)

    def __post_init__(self) -> None:
        if len(self.snapshots) != self.months + 1:
            raise ConfigurationError(
                f"expected {self.months + 1} snapshots, got {len(self.snapshots)}"
            )

    @property
    def start(self) -> MonthlyEvaluation:
        """The month-0 snapshot."""
        return self.snapshots[0]

    @property
    def end(self) -> MonthlyEvaluation:
        """The final snapshot."""
        return self.snapshots[-1]


class LongTermCampaign:
    """Drives a fleet of simulated devices through months of aging.

    Parameters
    ----------
    device_count:
        Fleet size (the paper's 16 boards).
    months:
        Aging duration; snapshots are taken at every month boundary
        including 0 (the paper's 24 months give 25 snapshots).
    measurements:
        Monthly block size (1,000 in the paper).
    profile:
        Device profile of the fleet (every board identical — the
        paper's testbed).  Ignored when ``population`` is given.
    population:
        Optional :class:`~repro.sram.population.PopulationSpec`
        describing a *heterogeneous* fleet: each board's profile is
        materialized deterministically from ``(spec, root_seed,
        board_id)`` (see ``docs/population.md``).  ``None`` (the
        default) keeps the homogeneous fleet byte-identical to
        pre-population releases.
    statistical:
        Simulation fidelity of the monthly blocks (see DESIGN.md §2).
    temperature_walk_k:
        Standard deviation of the month-to-month ambient-temperature
        random walk; 0 disables it.
    aging_steps_per_month:
        Integration sub-steps of the self-limiting drift per month.
    aging_acceleration:
        Equivalent field months of aging applied per calendar month
        (default 1.0, the paper's nominal-condition testbed).  Values
        above 1 inject accelerated aging — the time-compression factor
        is typically
        ``AccelerationModel.overall_factor ** (1 / n)`` from
        :mod:`repro.physics.acceleration`, turning the campaign into a
        stressed run whose drift the monitoring layer should flag.
    max_workers:
        Parallel worker processes for the board-sharded execution
        engine (:mod:`repro.exec`).  1 (the default) runs the classic
        in-process serial loop; higher values shard the fleet over
        ``spawn``-ed workers with bit-identical results (the
        ``tests/exec`` equivalence suite enforces this).
    keyframe_every:
        Full-state keyframe cadence of checkpointed runs: one keyframe
        every this many months, results-only deltas in between (see
        :mod:`repro.store.checkpoint` and ``docs/storage.md``).  Only
        consulted when ``checkpoint_dir`` is used.
    rollup_shards:
        Logical rollup-shard count for hierarchical observability
        (``None`` auto-sizes to ``min(8, device_count)``).  The shard
        map partitions the *fleet*, independently of ``max_workers``,
        so shard-scoped rollup series — and any alerts bound to them —
        are identical across worker counts.  Rollup ingestion is
        skipped entirely when
        :func:`repro.telemetry.rollups_enabled` is off.
    fail_board:
        Fault-injection hook: the worker that owns this board raises
        before simulating it, surfacing as
        :class:`~repro.errors.CampaignExecutionError`.  Used by chaos
        drills and the CI flight-recorder smoke; leave ``None`` in
        production.
    kernel:
        Execution kernel: ``"scalar"`` (default) walks the fleet board
        by board, ``"vector"`` batches each shard's boards on a
        :class:`~repro.sram.fleetkernel.FleetKernel` (see
        ``docs/kernel.md``).  Like ``max_workers``, a pure wall-clock
        knob — results, artifacts, checkpoints and alert logs are
        bit-identical under either kernel.
    shard_store:
        Sharded persistence (requires ``checkpoint_dir`` at run time):
        each window worker owns a store under ``shards/<shard-dir>/``
        and writes its shard's keyframed chain and results stream
        locally; the parent keeps only a campaign manifest and an
        O(counters) month log (see :mod:`repro.store.shardstore` and
        ``docs/storage.md``).  Like ``max_workers``/``kernel`` a pure
        scaling knob: the monolithic artifact reassembled by ``store
        merge`` / :func:`~repro.io.resultstore.load_campaign` is
        byte-identical to the single-writer output.
    random_state:
        Seed material; the same seed reproduces the same fleet and
        campaign.
    """

    def __init__(
        self,
        device_count: int = 16,
        months: int = 24,
        measurements: int = 1000,
        profile: DeviceProfile = ATMEGA32U4,
        population: Optional[PopulationSpec] = None,
        statistical: bool = True,
        temperature_walk_k: float = 0.0,
        aging_steps_per_month: int = 2,
        aging_acceleration: float = 1.0,
        max_workers: int = 1,
        keyframe_every: int = 6,
        rollup_shards: Optional[int] = None,
        fail_board: Optional[int] = None,
        kernel: str = "scalar",
        shard_store: bool = False,
        random_state: RandomState = None,
    ):
        if device_count < 1:
            raise ConfigurationError(f"device_count must be >= 1, got {device_count}")
        if months < 1:
            raise ConfigurationError(f"months must be >= 1, got {months}")
        if measurements < 2:
            raise ConfigurationError(f"measurements must be >= 2, got {measurements}")
        if temperature_walk_k < 0:
            raise ConfigurationError(
                f"temperature_walk_k cannot be negative, got {temperature_walk_k}"
            )
        if aging_steps_per_month < 1:
            raise ConfigurationError(
                f"aging_steps_per_month must be >= 1, got {aging_steps_per_month}"
            )
        if aging_acceleration <= 0:
            raise ConfigurationError(
                f"aging_acceleration must be positive, got {aging_acceleration}"
            )
        if max_workers < 1:
            raise ConfigurationError(f"max_workers must be >= 1, got {max_workers}")
        if keyframe_every < 1:
            raise ConfigurationError(
                f"keyframe_every must be >= 1, got {keyframe_every}"
            )
        if rollup_shards is not None and rollup_shards < 1:
            raise ConfigurationError(
                f"rollup_shards must be >= 1, got {rollup_shards}"
            )
        if fail_board is not None and not 0 <= fail_board < device_count:
            raise ConfigurationError(
                f"fail_board {fail_board} outside fleet of {device_count}"
            )
        validate_kernel(kernel)
        self._shard_store = bool(shard_store)
        self._rollup_shards_opt = rollup_shards
        self._rollup_shards = (
            rollup_shards if rollup_shards is not None else min(8, device_count)
        )
        self._fail_board = fail_board
        self._kernel = kernel
        self._device_count = device_count
        self._months = months
        self._measurements = measurements
        self._profile = profile
        self._statistical = statistical
        self._temperature_walk_k = temperature_walk_k
        self._aging_steps = aging_steps_per_month
        self._aging_acceleration = aging_acceleration
        self._max_workers = max_workers
        self._keyframe_every = keyframe_every
        self._seeds = (
            random_state
            if isinstance(random_state, SeedHierarchy)
            else SeedHierarchy(random_state if isinstance(random_state, int) else 0)
        )
        if population is not None and not isinstance(population, PopulationSpec):
            raise ConfigurationError(
                f"population must be a PopulationSpec, "
                f"got {type(population).__name__}"
            )
        self._population = population
        if population is None:
            # Homogeneous fleet: exactly the pre-population layout, so
            # artifacts, checkpoints and manifests stay byte-identical.
            self._profile_table: tuple = (profile,)
            self._profile_index: tuple = (0,) * device_count
            self._profile_labels: Optional[tuple] = None
            self._nominal_temperature = profile.temperature_k
        else:
            boards = range(device_count)
            table, index = population.materialize(self._seeds.root_seed, boards)
            self._profile_table = table
            self._profile_index = index
            self._profile_labels = population.member_labels(
                self._seeds.root_seed, boards
            )
            nominal = population.temperature_k
            if nominal is None and temperature_walk_k > 0:
                raise ConfigurationError(
                    "temperature_walk_k needs one nominal start temperature, "
                    "but the population mixes members with different "
                    "temperature_k"
                )
            self._nominal_temperature = (
                nominal if nominal is not None else profile.temperature_k
            )

    def _board_profile(self, board_id: int) -> DeviceProfile:
        """The materialized profile of fleet board ``board_id``."""
        return self._profile_table[self._profile_index[board_id]]

    def _profile_label_of(self, board_id: int) -> str:
        """Cohort label (member base-profile name) for rollup scopes."""
        return self._profile_labels[board_id]

    def _result_profile_name(self) -> str:
        """Fleet handle stamped into results and stream headers."""
        if self._population is not None:
            return self._population.display_name
        return self._profile.name

    def _spec_fields(self, boards) -> Dict[str, object]:
        """The fields every Shard/Window spec of ``boards`` carries.

        Homogeneous campaigns pass ``profile=`` exactly as before the
        population layer existed; heterogeneous ones pass a shard-local
        re-interned ``profiles`` table plus per-board indices, so each
        distinct profile pickles once per spawn payload.
        """
        fields: Dict[str, object] = {
            "root_seed": self._seeds.root_seed,
            "measurements": self._measurements,
            "statistical": self._statistical,
            "aging_steps_per_month": self._aging_steps,
            "aging_acceleration": self._aging_acceleration,
            "fail_board": self._fail_board if self._fail_board in boards else None,
            "rollup_shards": self._rollup_shards if rollups_enabled() else 0,
            "fleet_size": self._device_count,
            "trace": get_tracer().context(phases=profiling_enabled()),
            "kernel": self._kernel,
        }
        if self._population is None:
            fields["profile"] = self._profile
            return fields
        local: Dict[int, int] = {}
        profiles: List[DeviceProfile] = []
        index: List[int] = []
        for board in boards:
            slot = self._profile_index[board]
            pos = local.get(slot)
            if pos is None:
                pos = len(profiles)
                local[slot] = pos
                profiles.append(self._profile_table[slot])
            index.append(pos)
        fields.update(profiles=tuple(profiles), profile_index=tuple(index))
        return fields

    def build_fleet(self) -> List[SRAMChip]:
        """Manufacture the campaign's devices (deterministic per seed)."""
        return [
            SRAMChip(chip_id, self._board_profile(chip_id), random_state=self._seeds)
            for chip_id in range(self._device_count)
        ]

    def run(
        self,
        chips: Optional[Sequence[SRAMChip]] = None,
        progress: Optional[ProgressCallback] = None,
        monitor: Optional["MonitorHub"] = None,
        executor: Optional["CampaignExecutor"] = None,
        checkpoint_dir: Optional[str] = None,
        abort_after_month: Optional[int] = None,
        stream=None,
    ) -> CampaignResult:
        """Execute the campaign and return its result.

        ``chips`` may inject an externally built fleet (e.g. boards
        pulled out of a :class:`~repro.hardware.testbed.Testbed`);
        their current state is taken as day 0.  ``progress``, when
        given, is called after every monthly snapshot with
        ``(completed, total)`` snapshot counts (a
        :class:`~repro.monitor.heartbeat.SnapshotEmitter` plugs in
        here to write a tailable heartbeat file).

        ``monitor``, when given, receives every monthly snapshot
        (:meth:`~repro.monitor.hub.MonitorHub.observe_evaluation`) and
        a counter poll per month, so drift alerts fire *while the
        campaign runs* rather than in post-processing.

        ``executor`` overrides the execution strategy: a
        :class:`~repro.exec.executor.SerialExecutor` or
        :class:`~repro.exec.executor.ParallelExecutor` shards the fleet
        by board (see :mod:`repro.exec` and ``docs/parallel.md``).
        When ``None``, the constructor's ``max_workers`` decides — 1
        runs the classic in-process serial loop below, more builds a
        :class:`~repro.exec.executor.ParallelExecutor`.  Either way the
        result is bit-identical; on the sharded path, snapshots are
        merged (and ``monitor``/``progress`` are fed) in month order
        after the workers return, so alert sequences are unchanged.
        An injected ``chips`` fleet cannot be re-manufactured inside
        workers and therefore requires the serial path.

        The run is instrumented: a ``campaign.run`` span with one
        ``campaign.month`` child per snapshot, and the counters
        ``campaign.powerups``, ``campaign.snapshots`` and
        ``campaign.aging_steps`` (see ``docs/telemetry.md``).
        Telemetry and monitoring are purely observational — they read
        no random stream, so results are identical with either on or
        off.

        ``checkpoint_dir`` switches to the *checkpointed* month-window
        pipeline (see ``docs/storage.md``): after each monthly
        snapshot, the complete campaign state is atomically persisted
        to that directory, and :meth:`resume` can later continue from
        the last complete month with byte-identical final results.
        Checkpointed runs route through the same windowed driver for
        every worker count, so the checkpoint files themselves are
        byte-identical across serial and parallel execution.
        ``abort_after_month`` (requires ``checkpoint_dir``) raises
        :class:`~repro.errors.CampaignInterrupted` right after that
        month's checkpoint is on disk — the deterministic
        interruption hook the kill-and-resume tests and the CI
        ``equivalence-matrix`` job use.

        ``stream`` (requires ``checkpoint_dir``) is a
        :class:`~repro.store.CampaignStreamWriter`: the artifact grows
        on disk month by month instead of being written whole at the
        end, and is finalized when the campaign completes.  A streamed
        artifact's bytes are identical to
        :func:`~repro.store.write_campaign_stream` of the finished
        result.
        """
        if chips is not None and self._population is not None:
            raise ConfigurationError(
                "an injected fleet cannot be combined with a population "
                "(board profiles are materialized from the spec); run "
                "without chips, or without population"
            )
        if chips is not None and self._kernel == "vector":
            raise ConfigurationError(
                "an injected fleet cannot run on the vector kernel "
                "(the fleet kernel re-manufactures boards from the seed "
                "hierarchy); use kernel='scalar' with injected chips"
            )
        if stream is not None and checkpoint_dir is None:
            raise ConfigurationError(
                "a stream artifact rides the checkpointed month-window "
                "pipeline; pass checkpoint_dir (or save the finished result "
                "with save_campaign(..., stream=True))"
            )
        if self._shard_store:
            if checkpoint_dir is None:
                raise ConfigurationError(
                    "shard_store shards the checkpointed persistence layer; "
                    "pass checkpoint_dir (docs/storage.md)"
                )
            if stream is not None:
                raise ConfigurationError(
                    "a sharded store already streams per shard; merge to a "
                    "stream artifact afterwards with `repro store merge "
                    "--stream` instead of passing stream"
                )
        if abort_after_month is not None:
            if checkpoint_dir is None:
                raise ConfigurationError(
                    "abort_after_month requires checkpoint_dir (there is "
                    "nothing to resume from without checkpoints)"
                )
            if abort_after_month < 0:
                raise ConfigurationError(
                    f"abort_after_month cannot be negative, got {abort_after_month}"
                )
        if checkpoint_dir is not None:
            if chips is not None:
                raise ConfigurationError(
                    "an injected fleet cannot be checkpointed (workers "
                    "re-manufacture boards from the seed hierarchy); "
                    "run without chips to use checkpoint_dir"
                )
            if executor is None:
                from repro.exec.executor import executor_for

                executor = executor_for(self._max_workers)
            return self._run_windowed(
                executor, progress, monitor, checkpoint_dir, abort_after_month,
                stream=stream,
            )
        sharded_only = self._fail_board is not None or self._kernel == "vector"
        if executor is None and (
            self._max_workers > 1 or (chips is None and sharded_only)
        ):
            # Fault injection and the fleet kernel ride the (bit-identical)
            # sharded path, so the serial loop stays the scalar reference.
            from repro.exec.executor import executor_for

            executor = executor_for(self._max_workers)
        if executor is not None:
            if chips is not None:
                raise ConfigurationError(
                    "an injected fleet cannot run on the sharded executor path "
                    "(workers re-manufacture boards from the seed hierarchy); "
                    "run with max_workers=1 and no executor instead"
                )
            return self._run_sharded(executor, progress, monitor)
        return self._run_serial(chips, progress, monitor)

    @classmethod
    def resume(
        cls,
        checkpoint_dir: str,
        progress: Optional[ProgressCallback] = None,
        monitor: Optional["MonitorHub"] = None,
        executor: Optional["CampaignExecutor"] = None,
        max_workers: int = 1,
        abort_after_month: Optional[int] = None,
        kernel: str = "scalar",
        stream=None,
    ) -> CampaignResult:
        """Continue a checkpointed campaign from its last complete month.

        The campaign configuration is rebuilt from the checkpoint
        itself (seed, profile, fleet size, walk — everything), so the
        caller only supplies the directory plus fresh observers.  The
        resumed run replays stored snapshots and counter deltas through
        ``monitor`` before continuing, so the final
        :class:`CampaignResult`, saved artifact, manifest and alert
        log are **byte-identical** to an uninterrupted run's — under
        any ``max_workers``, which may differ from the interrupted
        run's.  ``monitor`` must be freshly constructed (no prior
        observations); its alert log, if any, is truncated and
        regenerated by the replay.

        ``kernel``, like ``max_workers``, is an execution knob of *this*
        process, not part of the stored configuration: a campaign
        checkpointed under either kernel resumes under either kernel
        with byte-identical continuation (``tests/store`` pins the
        kernel-swap resume in both directions).

        Under delta checkpointing (``docs/storage.md``) the resume
        point is the newest *keyframe*: the at most
        ``keyframe_every - 1`` delta months after it are re-executed
        deterministically, re-writing byte-identical delta files.
        ``stream``, when given, is rewound to the resume point and
        replayed the same way.
        """
        from repro.exec.executor import executor_for
        from repro.store.checkpoint import load_latest_checkpoint
        from repro.store.shardstore import (
            is_sharded_checkpoint,
            load_sharded_checkpoint,
        )

        sharded = is_sharded_checkpoint(checkpoint_dir)
        if sharded:
            # The layout is self-describing: a campaign manifest marks a
            # sharded directory, and the resume month is whatever the
            # parent log *and every shard* fully persisted.  The shard
            # map travels in resume_state so the re-executed months
            # keep the original partition regardless of max_workers.
            if stream is not None:
                raise ConfigurationError(
                    "a sharded store already streams per shard; merge to a "
                    "stream artifact afterwards with `repro store merge "
                    "--stream` instead of passing stream"
                )
            state = load_sharded_checkpoint(checkpoint_dir)
        else:
            state = load_latest_checkpoint(checkpoint_dir)
        config = state.config
        population_doc = config.get("population")
        try:
            campaign = cls(
                device_count=int(config["device_count"]),
                months=int(config["months"]),
                measurements=int(config["measurements"]),
                profile=DeviceProfile(**config["profile"]),
                population=(
                    PopulationSpec.from_doc(population_doc)
                    if population_doc
                    else None
                ),
                statistical=bool(config["statistical"]),
                temperature_walk_k=float(config["temperature_walk_k"]),
                aging_steps_per_month=int(config["aging_steps_per_month"]),
                aging_acceleration=float(config["aging_acceleration"]),
                max_workers=max_workers,
                keyframe_every=int(config.get("keyframe_every", 6)),
                rollup_shards=config.get("rollup_shards"),
                kernel=kernel,
                shard_store=sharded,
                random_state=int(config["root_seed"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise StorageError(
                f"checkpoint {state.source} has an unusable config: {exc}"
            ) from exc
        if executor is None:
            executor = executor_for(max_workers)
        return campaign._run_windowed(
            executor,
            progress,
            monitor,
            checkpoint_dir,
            abort_after_month,
            resume_state=state,
            stream=stream,
        )

    def _run_serial(
        self,
        chips: Optional[Sequence[SRAMChip]],
        progress: Optional[ProgressCallback],
        monitor: Optional["MonitorHub"],
    ) -> CampaignResult:
        """The in-process month loop over live chips (reference implementation)."""
        from repro.exec.stepper import ShardStepper
        from repro.store.checkpoint import fold_counter_deltas

        metrics = get_metrics()
        tracer = get_tracer()
        self._declare_instruments(metrics)

        with tracer.span(
            "campaign.run", devices=self._device_count, months=self._months
        ):
            fleet = list(chips) if chips is not None else self.build_fleet()
            if not fleet:
                raise ConfigurationError("campaign fleet is empty")
            logger.info(
                "campaign started: %d devices, %d months, %d measurements/month",
                len(fleet),
                self._months,
                self._measurements,
            )
            stepper = ShardStepper(
                chips=fleet,
                measurements=self._measurements,
                statistical=self._statistical,
                aging_acceleration=self._aging_acceleration,
                aging_steps_per_month=self._aging_steps,
            )
            snapshots: List[MonthlyEvaluation] = []
            for month, temp in enumerate(self._month_temperatures()):
                with tracer.span("campaign.month", month=month):
                    with tracer.span("campaign.measure"):
                        (step,) = stepper.advance({month: temp}, age_last=False)
                        snapshots.append(
                            assemble_evaluation(month, self._measurements, step.rows)
                        )
                    self._publish_month(
                        month, snapshots[-1], step.eval_deltas, monitor, progress
                    )
                    if month < self._months:
                        with tracer.span("campaign.age"):
                            stepper.age()
                            fold_counter_deltas(metrics, stepper.take_deltas()[1])
            logger.info("campaign finished: %d snapshots", len(snapshots))

        return self._result(stepper.references, snapshots)

    def _result(
        self, references: Dict[int, np.ndarray], snapshots: List[MonthlyEvaluation]
    ) -> CampaignResult:
        """The finished campaign; ``references`` in fleet order."""
        return CampaignResult(
            profile_name=self._result_profile_name(),
            months=self._months,
            measurements=self._measurements,
            board_ids=list(references),
            references=references,
            snapshots=snapshots,
        )

    def _declare_instruments(self, metrics) -> None:
        """Register the instrument set every path shares, so manifests match."""
        metrics.counter("campaign.powerups")
        metrics.counter("campaign.snapshots")
        metrics.counter("campaign.aging_steps")
        metrics.gauge("campaign.devices").set(self._device_count)

    def _publish_month(
        self,
        month: int,
        snapshot: MonthlyEvaluation,
        deltas: Dict[str, int],
        monitor: Optional["MonitorHub"],
        progress: Optional[ProgressCallback],
        rollup_docs: Optional[Dict[str, dict]] = None,
    ) -> None:
        """Make one finished month visible, the same way on every path.

        Folds the month's counter deltas (everything counted since the
        previous poll) into the parent registry, advances the labeled
        and snapshot counters, ingests the month's rollups (worker
        documents when given, else derived from ``snapshot``), feeds
        the monitor its snapshot and counter poll, records the month in
        the flight recorder and reports progress.
        """
        from repro.store.checkpoint import fold_counter_deltas

        metrics = get_metrics()
        fold_counter_deltas(metrics, deltas)
        self._count_labeled_powerups(metrics, month)
        metrics.counter("campaign.snapshots").inc()
        self._ingest_rollups(snapshot, docs=rollup_docs)
        if monitor is not None:
            with get_profiler().phase(PHASE_MONITOR):
                monitor.observe_evaluation(snapshot)
                monitor.observe_rollups(index=month)
                monitor.poll_counters(index=month)
        wchd_mean = float(snapshot.wchd.mean())
        get_flight_recorder().record("month", month=month, wchd_mean=wchd_mean)
        logger.debug("month %d/%d (WCHD mean %.4f)", month, self._months, wchd_mean)
        if progress is not None:
            progress(month + 1, self._months + 1)

    def _rollup_shard_of(self, board_id: int) -> int:
        """Logical rollup shard of ``board_id`` (worker-count independent)."""
        from repro.exec.plan import rollup_shard_of

        return rollup_shard_of(board_id, self._device_count, self._rollup_shards)

    def _rollup_shard_sizes(self) -> List[int]:
        """Board counts per logical rollup shard, in shard order.

        Computed once per campaign (the fleet and shard count are
        fixed) and cached — this runs every month on the hot path.
        """
        sizes = getattr(self, "_rollup_shard_size_cache", None)
        if sizes is None:
            from repro.exec.plan import partition_boards

            sizes = [
                len(boards)
                for boards in partition_boards(
                    range(self._device_count), self._rollup_shards
                )
            ]
            self._rollup_shard_size_cache = sizes
        return sizes

    def _count_labeled_powerups(self, metrics, month: int) -> None:
        """Advance the per-shard ``campaign.powerups{shard=N}`` counters.

        Counted parent-side from the (deterministic) shard sizes so
        every execution path advances the same labeled instruments by
        the same amounts at the same polls; month 0 includes the day-0
        reference read-outs.  These labeled counters ride the normal
        checkpoint delta channel (they are ``campaign.*``, not
        ``rollup.*``), so resume replay restores them from storage
        rather than recounting.
        """
        if not rollups_enabled():
            return
        per_board = self._measurements + (1 if month == 0 else 0)
        for shard, size in enumerate(self._rollup_shard_sizes()):
            metrics.counter("campaign.powerups", labels={"shard": shard}).inc(
                size * per_board
            )

    def _absorb_worker_traces(self, parent_span, results) -> None:
        """Graft worker span records and merge worker phase timings.

        Per-board span records are concatenated across shards and
        sorted by board id before grafting under the dispatching span,
        so the merged tree's names, structure and (after
        :meth:`~repro.telemetry.Tracer.assign_ids`) ids are independent
        of worker count and dispatch order.  Workers ship no records
        when tracing is off, and no phase deltas when profiling is.
        """
        if get_tracer().enabled:
            records = sorted(
                (record for result in results for record in result.spans),
                key=lambda record: record.get("attributes", {}).get("board", -1),
            )
            graft_records(parent_span, records)
        profiler = get_profiler()
        for result in results:
            if result.phase_deltas:
                profiler.merge(result.phase_deltas)

    def _ingest_worker_resources(self, samples) -> None:
        """Fold worker resource samples into the ``rollup.worker.*`` rollups.

        Resource numbers are inherently nondeterministic, so they are
        quarantined: they live only in the rollup registry (scope
        ``worker``, wide log-spaced sketch bounds), never in the metrics
        registry, never in checkpoints, and never in byte-compared
        artifacts.
        """
        if not rollups_enabled():
            return
        from repro.telemetry.rollup import WIDE_BOUNDS

        rollups = get_rollups()
        for sample in samples:
            if not sample:
                continue
            for key in ("wall_s", "cpu_s", "rss_kb"):
                value = sample.get(key)
                if value:
                    rollups.summary(
                        f"rollup.worker.{key}",
                        {"scope": "worker"},
                        bounds=WIDE_BOUNDS,
                    ).observe(float(value))

    def _ingest_rollups(self, evaluation, docs=None) -> None:
        """Fold one month's shard rollup documents into the global registry.

        ``docs`` are worker-shipped partial documents when available;
        otherwise identical documents are derived parent-side from the
        assembled evaluation (exact arithmetic makes the two routes
        bit-identical).  No-op when rollups are globally disabled.
        """
        if not rollups_enabled():
            return
        from repro.telemetry.rollup import (
            evaluation_profile_docs,
            evaluation_shard_docs,
            fold_rollup_docs,
        )

        if not docs:
            docs = evaluation_shard_docs(evaluation, self._rollup_shard_of)
        if self._population is not None:
            # Profile-cohort scopes are derived parent-side from the
            # assembled evaluation (never shipped by workers), so they
            # are identical across worker counts, kernels, and resume
            # replay by construction.
            docs = dict(docs)
            docs.update(
                evaluation_profile_docs(evaluation, self._profile_label_of)
            )
        fold_rollup_docs(get_rollups(), docs, get_metrics())

    def _month_temperatures(self) -> List[Optional[float]]:
        """Pre-draw every month's ambient measurement temperature.

        One Gaussian step of the shared ``ambient-temperature`` stream
        per snapshot — the same sequence the checkpointed loop draws
        month by month — so the sharded path hands workers the
        identical temperatures without shipping the stream itself.
        ``None`` entries mean profile-nominal (walk disabled).
        """
        if self._temperature_walk_k <= 0.0:
            return [None] * (self._months + 1)
        temp_rng = self._seeds.stream("ambient-temperature")
        temperature = self._nominal_temperature
        temperatures: List[Optional[float]] = []
        for _ in range(self._months + 1):
            temperature += float(temp_rng.normal(0.0, self._temperature_walk_k))
            temperatures.append(temperature)
        return temperatures

    def _plan_shards(self, shard_count: int) -> List["ShardSpec"]:
        """Build the work orders for the sharded path.

        Overridable seam: the crash-robustness suite subclasses this to
        set :attr:`~repro.exec.plan.ShardSpec.fail_board` on one spec.
        """
        from repro.exec.plan import ShardSpec, partition_boards

        temperatures = tuple(self._month_temperatures())
        return [
            ShardSpec(
                shard_index=index,
                board_ids=boards,
                months=self._months,
                temperatures=temperatures,
                **self._spec_fields(boards),
            )
            for index, boards in enumerate(
                partition_boards(range(self._device_count), shard_count)
            )
        ]

    def _run_sharded(
        self,
        executor: "CampaignExecutor",
        progress: Optional[ProgressCallback],
        monitor: Optional["MonitorHub"],
    ) -> CampaignResult:
        """Board-sharded execution: fan out, then publish in month order.

        Workers return per-board trajectories plus per-month telemetry
        counter deltas; each month's deltas fold into the parent
        registry *before* that month's monitor poll, so the
        counter-rate series (and with it every alert sequence) matches
        the serial run poll for poll.
        """
        from repro.exec.merge import collate_board_rows
        from repro.exec.stepper import sum_counts
        from repro.exec.worker import run_board_shard
        from repro.telemetry.rollup import combine_rollup_docs

        tracer = get_tracer()
        self._declare_instruments(get_metrics())

        with tracer.span(
            "campaign.run",
            devices=self._device_count,
            months=self._months,
            workers=executor.max_workers,
        ):
            board_ids = list(range(self._device_count))
            specs = self._plan_shards(executor.max_workers)
            logger.info(
                "campaign started (sharded): %d devices over %d shards "
                "(%d workers), %d months, %d measurements/month",
                self._device_count,
                len(specs),
                executor.max_workers,
                self._months,
                self._measurements,
            )
            with tracer.span("campaign.shards", shards=len(specs)) as shards_span:
                results = executor.run_tasks(run_board_shard, specs)
                self._absorb_worker_traces(shards_span, results)
            rows = collate_board_rows(board_ids, self._months + 1, results)
            self._ingest_worker_resources(result.resources for result in results)
            references = {
                trajectory.board_id: trajectory.reference
                for result in results
                for trajectory in result.trajectories
            }

            snapshots: List[MonthlyEvaluation] = []
            with tracer.span("campaign.merge"):
                for month in range(self._months + 1):
                    snapshots.append(
                        assemble_evaluation(
                            month,
                            self._measurements,
                            [rows[board][month] for board in board_ids],
                        )
                    )
                    docs = [r.rollup_docs[month] for r in results if r.rollup_docs]
                    self._publish_month(
                        month,
                        snapshots[-1],
                        sum_counts(result.counter_deltas[month] for result in results),
                        monitor,
                        progress,
                        rollup_docs=combine_rollup_docs(docs) if docs else None,
                    )
            logger.info("campaign finished (sharded): %d snapshots", len(snapshots))

        return self._result(
            {board: references[board] for board in board_ids}, snapshots
        )

    def _checkpoint_config(self) -> Dict:
        """The campaign's complete configuration as a JSON document.

        Stored inside every checkpoint so :meth:`resume` can rebuild
        the campaign without the caller re-supplying anything.
        """
        import dataclasses

        config = {
            "device_count": self._device_count,
            "months": self._months,
            "measurements": self._measurements,
            "statistical": self._statistical,
            "temperature_walk_k": self._temperature_walk_k,
            "aging_steps_per_month": self._aging_steps,
            "aging_acceleration": self._aging_acceleration,
            "keyframe_every": self._keyframe_every,
            "rollup_shards": self._rollup_shards_opt,
            "root_seed": self._seeds.root_seed,
            "profile": dataclasses.asdict(self._profile),
        }
        if self._population is not None:
            # Only heterogeneous campaigns record the key: its absence
            # keeps homogeneous checkpoints on schema v2, byte-identical
            # to pre-population releases (docs/storage.md).
            config["population"] = self._population.to_doc()
        return config

    def _run_windowed(
        self,
        executor: "CampaignExecutor",
        progress: Optional[ProgressCallback],
        monitor: Optional["MonitorHub"],
        checkpoint_dir: str,
        abort_after_month: Optional[int],
        resume_state=None,
        stream=None,
    ) -> CampaignResult:
        """Adopt the executor into a persistent pool, then run the loop.

        One pool lifetime per campaign: a multi-worker executor is
        wrapped in a :class:`~repro.exec.pool.WindowPool` so the
        per-month window dispatches do not respawn workers (see
        ``docs/parallel.md``).  A caller-supplied ``WindowPool`` passes
        through unchanged and stays open for the caller to reuse.
        """
        from repro.exec.pool import WindowPool

        dispatch = WindowPool.adopt(executor)
        try:
            return self._window_loop(
                dispatch,
                progress,
                monitor,
                checkpoint_dir,
                abort_after_month,
                resume_state=resume_state,
                stream=stream,
            )
        finally:
            if dispatch is not executor:
                dispatch.close()

    def _window_loop(
        self,
        executor,
        progress: Optional[ProgressCallback],
        monitor: Optional["MonitorHub"],
        checkpoint_dir: str,
        abort_after_month: Optional[int],
        resume_state=None,
        stream=None,
    ) -> CampaignResult:
        """Checkpointed month-window pipeline (serial *and* parallel).

        One executor dispatch per month: every shard advances its
        boards by exactly one month and returns metric rows plus
        serialized device state, the driver assembles the snapshot,
        feeds the monitor, and cuts an atomic checkpoint.  All
        checkpointed runs — any worker count — use this one loop, so
        checkpoint files are byte-identical across execution modes.

        Counter bookkeeping mirrors the serial loop poll for poll:
        evaluation deltas fold in *before* the month's monitor poll,
        aging deltas *after* (they become visible at the next poll,
        exactly as in-process aging would).  The per-poll deltas are
        recorded into the checkpoint so a resumed process can replay
        its registry — and the monitor's alert sequence — to the exact
        interrupted-run state.
        """
        from repro.exec.merge import collate_board_rows
        from repro.exec.plan import partition_boards
        from repro.exec.stepper import sum_counts
        from repro.exec.windows import BoardWindowState, WindowSpec, run_board_window
        from repro.store.artifact import ArtifactStore
        from repro.store.checkpoint import (
            CampaignCheckpointer,
            CounterDeltaRecorder,
            fold_counter_deltas,
        )
        from repro.store.codecs import restore_rng_state, rng_state_doc
        from repro.store.shardstore import (
            ShardStoreSpec,
            append_parent_month_record,
            build_parent_month_record,
            campaign_config_digest,
            prepare_shard_resume,
            reset_sharded_layout,
            shard_root,
            write_shard_manifest,
        )
        from repro.telemetry.rollup import combine_rollup_docs

        metrics = get_metrics()
        tracer = get_tracer()
        self._declare_instruments(metrics)

        checkpointer = CampaignCheckpointer(checkpoint_dir, self._checkpoint_config())
        board_ids = list(range(self._device_count))
        total_snapshots = self._months + 1
        walk = self._temperature_walk_k > 0.0
        temp_rng = self._seeds.stream("ambient-temperature")

        with tracer.span(
            "campaign.run",
            devices=self._device_count,
            months=self._months,
            workers=executor.max_workers,
        ):
            if resume_state is None:
                # A fresh run clears *both* layouts' residue: stale
                # month files of a previous monolithic run and the
                # manifest/log/shards tree of a previous sharded one —
                # resume auto-detects the layout from what it finds, so
                # leftovers of the other mode would shadow this run.
                checkpointer.reset()
                reset_sharded_layout(checkpoint_dir)
                start_month = 0
                temperature = self._nominal_temperature
                references: Dict[int, np.ndarray] = {}
                board_states: Dict[int, Optional[Dict]] = {b: None for b in board_ids}
                snapshots: List[MonthlyEvaluation] = []
                counter_deltas: List[Dict[str, int]] = []
                temp_history: List[Optional[float]] = []
                recorder = CounterDeltaRecorder(metrics)
                logger.info(
                    "campaign started (checkpointed, %s store): %d devices, "
                    "%d months, %d measurements/month, %d workers -> %s",
                    "sharded" if self._shard_store else "monolithic",
                    self._device_count,
                    self._months,
                    self._measurements,
                    executor.max_workers,
                    checkpoint_dir,
                )
            else:
                state = resume_state
                if set(state.boards) != set(board_ids):
                    raise StorageError(
                        f"checkpoint {state.source} covers boards "
                        f"{sorted(state.boards)}, campaign expects {board_ids}"
                    )
                if state.completed_month > self._months:
                    raise StorageError(
                        f"checkpoint {state.source} is for month "
                        f"{state.completed_month} of a {self._months}-month campaign"
                    )
                start_month = state.completed_month + 1
                temperature = state.temperature
                if state.temp_rng_state is not None:
                    restore_rng_state(temp_rng, state.temp_rng_state)
                # Rebuild per-board maps in fleet order: JSON object keys
                # sort as strings, and the artifact's reference map must
                # keep fleet insertion order to stay byte-identical.
                references = {b: state.references[b] for b in board_ids}
                board_states = {b: state.boards[b] for b in board_ids}
                snapshots = list(state.snapshots)
                counter_deltas = [dict(poll) for poll in state.counter_deltas]
                temp_history = (
                    list(state.temperatures) if self._shard_store else []
                )
                if self._shard_store:
                    # Roll the shard streams and parent log back to the
                    # resume month; the re-executed months then append
                    # exactly as the uninterrupted run would have.
                    prepare_shard_resume(checkpoint_dir, state)
                if monitor is not None and monitor.alert_log is not None:
                    log_store, log_name = ArtifactStore.locate(monitor.alert_log)
                    log_store.truncate(log_name)
                if stream is not None and snapshots:
                    # Rewind the stream artifact to the resume point and
                    # replay; live months then append exactly as in the
                    # uninterrupted run, so the final bytes match.
                    stream.begin(
                        self._result_profile_name(),
                        self._months,
                        self._measurements,
                        board_ids,
                        references,
                    )
                    for snapshot in snapshots:
                        stream.append_snapshot(snapshot)
                with tracer.span("campaign.replay", months=len(snapshots)):
                    for month, snapshot in enumerate(snapshots):
                        fold_counter_deltas(metrics, counter_deltas[month])
                        self._ingest_rollups(snapshot)
                        if monitor is not None:
                            monitor.observe_evaluation(snapshot)
                            monitor.observe_rollups(index=month)
                            monitor.poll_counters(index=month)
                # Pending deltas (the aging block after the last poll)
                # fold in *after* the recorder baselines, so the next
                # poll's recorded delta includes them — exactly as in
                # the uninterrupted run.
                recorder = CounterDeltaRecorder(metrics)
                fold_counter_deltas(metrics, state.pending_deltas)
                logger.info(
                    "campaign resumed from %s at month %d/%d (%d workers)",
                    state.source,
                    start_month,
                    self._months,
                    executor.max_workers,
                )

            if self._shard_store and resume_state is not None:
                # The shard map is part of the persisted layout, not an
                # execution knob: resume follows the manifest's map even
                # under a different max_workers (the executor just runs
                # more specs than workers, or vice versa), so each
                # worker keeps appending to the same shard directories.
                shard_boards = [list(boards) for boards in resume_state.shard_boards]
            else:
                shard_boards = partition_boards(board_ids, executor.max_workers)
            config_digest = None
            if self._shard_store:
                config_digest = campaign_config_digest(self._checkpoint_config())
                if resume_state is None:
                    write_shard_manifest(
                        checkpoint_dir,
                        self._checkpoint_config(),
                        self._result_profile_name(),
                        self._keyframe_every,
                        shard_boards,
                    )
            try:
                for month in range(start_month, total_snapshots):
                    if walk:
                        temperature += float(temp_rng.normal(0.0, self._temperature_walk_k))
                    snapshot_temp = temperature if walk else None
                    if self._shard_store:
                        # Workers replay cold-restored months with the
                        # recorded block temperatures, so every spec
                        # carries the history up to its own month.
                        temp_history.append(snapshot_temp)
                    with tracer.span("campaign.month", month=month) as month_span:
                        specs = [
                            WindowSpec(
                                shard_index=index,
                                month=month,
                                temperature=snapshot_temp,
                                apply_aging=month < self._months,
                                boards=tuple(
                                    BoardWindowState(
                                        board_id=board,
                                        state=board_states[board],
                                        reference=references.get(board),
                                    )
                                    for board in boards
                                ),
                                shard_store=(
                                    ShardStoreSpec(
                                        root=shard_root(checkpoint_dir, index),
                                        shard_index=index,
                                        config_digest=config_digest,
                                        keyframe_every=self._keyframe_every,
                                        months=self._months,
                                        temperatures=tuple(temp_history),
                                    )
                                    if self._shard_store
                                    else None
                                ),
                                **self._spec_fields(boards),
                            )
                            for index, boards in enumerate(shard_boards)
                        ]
                        results = executor.run_tasks(run_board_window, specs)
                        self._absorb_worker_traces(month_span, results)
                        rows = collate_board_rows(board_ids, 1, results)
                        for result in results:
                            board_states.update(result.states)
                            references.update(result.references)
                        window_rollups = [r.rollups for r in results if r.rollups]
                        snapshots.append(
                            assemble_evaluation(
                                month,
                                self._measurements,
                                [rows[board][0] for board in board_ids],
                            )
                        )
                        self._ingest_worker_resources(
                            result.resources for result in results
                        )
                        self._publish_month(
                            month,
                            snapshots[-1],
                            sum_counts(result.eval_deltas for result in results),
                            monitor,
                            progress,
                            rollup_docs=(
                                combine_rollup_docs(window_rollups)
                                if window_rollups
                                else None
                            ),
                        )
                        counter_deltas.append(recorder.take())
                        aging_deltas = sum_counts(
                            result.aging_deltas for result in results
                        )
                        fold_counter_deltas(metrics, aging_deltas)
                        with tracer.span("campaign.checkpoint", month=month):
                            with get_profiler().phase(PHASE_STORE_IO):
                                if self._shard_store:
                                    # The fleet's device state and rows
                                    # are already on disk, written by
                                    # the workers; the parent persists
                                    # only its O(counters) month record.
                                    append_parent_month_record(
                                        checkpoint_dir,
                                        build_parent_month_record(
                                            month,
                                            temperature,
                                            rng_state_doc(temp_rng) if walk else None,
                                            counter_deltas[-1],
                                            aging_deltas,
                                        ),
                                    )
                                else:
                                    checkpointer.save(
                                        month,
                                        temperature,
                                        rng_state_doc(temp_rng) if walk else None,
                                        references,
                                        board_states,
                                        snapshots,
                                        counter_deltas,
                                        aging_deltas,
                                    )
                        if stream is not None:
                            with get_profiler().phase(PHASE_STORE_IO):
                                if month == 0:
                                    stream.begin(
                                        self._result_profile_name(),
                                        self._months,
                                        self._measurements,
                                        board_ids,
                                        {board: references[board] for board in board_ids},
                                    )
                                stream.append_snapshot(snapshots[-1])
                    if abort_after_month is not None and month >= abort_after_month:
                        raise CampaignInterrupted(
                            f"campaign interrupted after month {month} as requested; "
                            f"resume from {checkpoint_dir}",
                            checkpoint_dir=checkpoint_dir,
                            month=month,
                        )
            except CampaignExecutionError as exc:
                flight = get_flight_recorder()
                flight.record("crash", error=str(exc))
                flight.dump(f"{checkpoint_dir}/flight.json", reason=str(exc))
                raise
            if stream is not None:
                stream.finalize()
            logger.info("campaign finished (checkpointed): %d snapshots", len(snapshots))

        return self._result(
            {board: references[board] for board in board_ids}, snapshots
        )
