"""Process-global telemetry state.

Instrumented modules all talk to one shared :class:`Tracer` and one
shared :class:`MetricsRegistry`, fetched through :func:`get_tracer`
and :func:`get_metrics`.  Keeping them global means threading the
instruments through fifteen modules costs no API churn, while still
being swappable for tests via :func:`reset_telemetry`.

Policy:

* **Metrics are always on.**  An increment is a Python integer add —
  cheaper than any guard worth writing around it.
* **Tracing is opt-in** (:func:`set_tracing`): a disabled tracer
  hands out a shared no-op span.  The CLI enables it for ``profile``
  runs and ``--trace-json``.  Phases are ``phase=`` tags on spans, so
  the same switch turns the per-phase table on.  Shard workers swap in
  a private tracer via :func:`install_tracer` so hot-path spans land
  in the worker and ship home as span records.

No instrument touches any random stream, so toggling telemetry can
never change a simulation's scientific output.
"""

from __future__ import annotations

from repro.telemetry.flight import FlightRecorder
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.rollup import RollupRegistry
from repro.telemetry.tracing import Tracer

_tracer = Tracer(enabled=False)
_metrics = MetricsRegistry()
_rollups = RollupRegistry()
_flight = FlightRecorder()


def get_tracer() -> Tracer:
    """The process-global tracer."""
    return _tracer


def get_metrics() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _metrics


def get_rollups() -> RollupRegistry:
    """The process-global rollup registry."""
    return _rollups


def get_flight_recorder() -> FlightRecorder:
    """The process-global crash flight recorder."""
    return _flight


def set_tracing(enabled: bool) -> None:
    """Enable or disable span recording on the global tracer."""
    _tracer.enabled = bool(enabled)


def tracing_enabled() -> bool:
    """Whether the global tracer records spans."""
    return _tracer.enabled


def install_tracer(tracer: Tracer) -> Tracer:
    """Swap in ``tracer`` as the process-global one; returns the old.

    Shard workers install a *private* tracer for the duration of a task
    so every ``get_tracer()`` call site in the hot path records into
    it, then ship its spans back and restore the previous tracer.  The
    in-process executors use the same pattern, which is what makes
    serial and spawned traces identical.
    """
    global _tracer
    previous = _tracer
    _tracer = tracer
    return previous


def reset_telemetry() -> None:
    """Zero the global registry and drop all recorded spans.

    Metric instrument identities survive (values reset in place), so
    modules that cached a counter keep counting into the same object.
    Phase totals go with the spans; rollup summaries and the flight
    recorder are dropped outright.
    """
    _tracer.reset()
    _metrics.reset()
    _rollups.reset()
    _flight.reset()
