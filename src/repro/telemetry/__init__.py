"""repro.telemetry — tracing, metrics and run manifests.

The observability layer of the reproduction: pure-stdlib spans and
counters threaded through the campaign driver, testbed, key generator
and TRNG, plus :class:`RunManifest` records that make every persisted
artifact self-describing.  See ``docs/telemetry.md`` for the span
tree, the metric name catalogue and the manifest schema.

Quick tour
----------
>>> from repro.telemetry import get_metrics, get_tracer, set_tracing
>>> set_tracing(True)
>>> with get_tracer().span("demo"):
...     get_metrics().counter("demo.events").inc()
>>> get_tracer().roots[-1].name
'demo'
>>> set_tracing(False)
"""

from repro.telemetry.flight import FlightRecorder, flight_record_path_for
from repro.telemetry.labels import canonical_labels, labeled_name, parse_labeled_name
from repro.telemetry.logconfig import init_logging, verbosity_to_level
from repro.telemetry.manifest import (
    MANIFEST_VERSION,
    RunManifest,
    deterministic_run_id,
    manifest_path_for,
    run_id_for_config,
)
from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.resources import ResourceSampler, current_rss_kb
from repro.telemetry.rollup import (
    ROLLUP_STATS,
    UNIT_BOUNDS,
    WIDE_BOUNDS,
    RollupRegistry,
    RollupSummary,
    ShardRollupBuilder,
    combine_rollup_docs,
    evaluation_shard_docs,
    fold_rollup_docs,
)
from repro.telemetry.runtime import (
    get_flight_recorder,
    get_metrics,
    get_rollups,
    get_tracer,
    install_tracer,
    reset_telemetry,
    set_tracing,
    tracing_enabled,
)
from repro.telemetry.tracing import (
    NULL_SPAN,
    PHASE_AGING,
    PHASE_METRICS,
    PHASE_MONITOR,
    PHASE_NOISE_DRAW,
    PHASE_POWERUP,
    PHASE_STORE_IO,
    PHASES,
    TRACE_VERSION,
    UNATTRIBUTED,
    Span,
    TraceContext,
    Tracer,
    chrome_trace_events,
    graft_records,
    span_from_record,
    span_record,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MANIFEST_VERSION",
    "MetricsRegistry",
    "NULL_SPAN",
    "PHASES",
    "PHASE_AGING",
    "PHASE_METRICS",
    "PHASE_MONITOR",
    "PHASE_NOISE_DRAW",
    "PHASE_POWERUP",
    "PHASE_STORE_IO",
    "ROLLUP_STATS",
    "ResourceSampler",
    "RollupRegistry",
    "RollupSummary",
    "RunManifest",
    "ShardRollupBuilder",
    "Span",
    "TRACE_VERSION",
    "TraceContext",
    "UNATTRIBUTED",
    "Tracer",
    "UNIT_BOUNDS",
    "WIDE_BOUNDS",
    "canonical_labels",
    "chrome_trace_events",
    "combine_rollup_docs",
    "current_rss_kb",
    "deterministic_run_id",
    "evaluation_shard_docs",
    "flight_record_path_for",
    "fold_rollup_docs",
    "get_flight_recorder",
    "get_metrics",
    "get_rollups",
    "get_tracer",
    "graft_records",
    "init_logging",
    "install_tracer",
    "labeled_name",
    "manifest_path_for",
    "parse_labeled_name",
    "reset_telemetry",
    "run_id_for_config",
    "set_tracing",
    "span_from_record",
    "span_record",
    "tracing_enabled",
    "verbosity_to_level",
]
