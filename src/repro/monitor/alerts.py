"""Alert records, declarative rules and the JSONL alert log.

An :class:`AlertRule` binds a metric series name to a detector factory
plus the alerting policy (severity, hysteresis, cooldown); the
:class:`~repro.monitor.hub.MonitorHub` evaluates rules and emits
:class:`Alert` records.  Alerts persist as JSON Lines next to campaign
artifacts (``campaign.json`` -> ``campaign.alerts.jsonl``), one JSON
object per line, so a long run's alert history can be tailed and
post-processed without parsing a growing document.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.errors import ConfigurationError, StorageError
from repro.monitor.detectors import Detector
from repro.store.codecs import JsonLinesCodec

#: Recognised severities, mildest first.
SEVERITIES = ("info", "warning", "critical")


@dataclass(frozen=True)
class Alert:
    """One emitted alert.

    ``index`` is the observation index the rule fired at — the month
    for per-month quality series, the poll sequence for counter rates.
    """

    rule: str
    metric: str
    severity: str
    index: int
    value: float
    statistic: float = 0.0
    direction: int = 0
    detail: str = ""
    #: Wall-clock stamp; ``None`` when the hub runs deterministically.
    timestamp: Optional[float] = None
    #: Hierarchical drill-down locator of the breaching series, e.g.
    #: ``"shard=3/wchd.p99"``; empty for flat (fleet-wide) rules.
    path: str = ""
    #: Correlation key of the run that emitted the alert — the
    #: campaign's deterministic run id, matching the manifest's
    #: ``run_id`` and the trace export's ``trace_id`` — so alerts,
    #: heartbeats and traces join on one key.  ``None`` for hubs run
    #: outside a campaign.
    run_id: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (one alert-log line).

        ``run_id`` is always present (``null`` when unset), so logs
        from monitored and bare hubs line up field for field.
        """
        return {
            "rule": self.rule,
            "metric": self.metric,
            "severity": self.severity,
            "index": self.index,
            "value": self.value,
            "statistic": self.statistic,
            "direction": self.direction,
            "detail": self.detail,
            "timestamp": self.timestamp,
            "path": self.path,
            "run_id": self.run_id,
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "Alert":
        """Rebuild an alert from :meth:`to_dict` output."""
        try:
            return cls(
                rule=str(doc["rule"]),
                metric=str(doc["metric"]),
                severity=str(doc["severity"]),
                index=int(doc["index"]),
                value=float(doc["value"]),
                statistic=float(doc.get("statistic", 0.0)),
                direction=int(doc.get("direction", 0)),
                detail=str(doc.get("detail", "")),
                timestamp=doc.get("timestamp"),
                path=str(doc.get("path", "")),
                run_id=doc.get("run_id"),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise StorageError(f"malformed alert record: {exc}") from exc


@dataclass(frozen=True)
class AlertRule:
    """Declarative binding of a metric series to a detector and policy.

    Parameters
    ----------
    name:
        Rule identifier (unique within a hub).
    metric:
        Series the rule watches — a quality series like ``wchd.mean``
        (see :meth:`~repro.monitor.hub.MonitorHub.observe_evaluation`)
        or a counter rate like ``rate:trng.health_rejections``.
    detector_factory:
        Zero-argument callable building a fresh
        :class:`~repro.monitor.detectors.Detector`; a factory (not an
        instance) so one rule can be installed into many hubs without
        shared state.
    severity:
        One of :data:`SEVERITIES`.
    hysteresis:
        Consecutive triggered observations required before an alert is
        emitted (1 = alert on first breach).
    cooldown:
        Observations of the metric after an alert during which the rule
        stays silent (0 = no suppression).
    description:
        Free-text intent, rendered in rule tables and docs.
    """

    name: str
    metric: str
    detector_factory: Callable[[], Detector]
    severity: str = "warning"
    hysteresis: int = 1
    cooldown: int = 0
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("rule name cannot be empty")
        if not self.metric:
            raise ConfigurationError(f"rule {self.name!r} needs a metric")
        if self.severity not in SEVERITIES:
            raise ConfigurationError(
                f"rule {self.name!r} severity must be one of {SEVERITIES}, "
                f"got {self.severity!r}"
            )
        if self.hysteresis < 1:
            raise ConfigurationError(
                f"rule {self.name!r} hysteresis must be >= 1, got {self.hysteresis}"
            )
        if self.cooldown < 0:
            raise ConfigurationError(
                f"rule {self.name!r} cooldown cannot be negative, got {self.cooldown}"
            )


def alert_log_path_for(artifact_path: str) -> str:
    """Conventional alert-log location next to a result artifact.

    ``campaign.json`` -> ``campaign.alerts.jsonl``; extensionless paths
    get ``.alerts.jsonl`` appended (mirrors
    :func:`repro.telemetry.manifest_path_for`).
    """
    if artifact_path.endswith(".json"):
        return artifact_path[: -len(".json")] + ".alerts.jsonl"
    return artifact_path + ".alerts.jsonl"


def append_alert(alert: Alert, path: str) -> None:
    """Append one alert to a JSONL log (created on first write).

    Routed through :class:`repro.store.ArtifactStore`, so the line is
    flushed and fsynced before control returns — an alert that was
    emitted survives a crash.
    """
    from repro.store.artifact import ArtifactStore

    store, name = ArtifactStore.locate(path)
    store.append_jsonl(name, alert.to_dict(), sort_keys=True)


def write_alert_log(alerts: Iterable[Alert], path: str) -> None:
    """Atomically write a complete alert log, replacing any existing file."""
    from repro.store.artifact import ArtifactStore

    store, name = ArtifactStore.locate(path)
    store.write_jsonl(name, [alert.to_dict() for alert in alerts], sort_keys=True)


def load_alert_log(path: str) -> List[Alert]:
    """Read a JSONL alert log written by this module.

    Unreadable files, bytes that are not UTF-8 JSON lines and lines that
    are not alerts all raise :class:`~repro.errors.StorageError`.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise StorageError(f"cannot load alert log from {path}: {exc}") from exc
    return [
        Alert.from_dict(doc)
        for doc in JsonLinesCodec().decode_lines(data, source=path)
    ]
