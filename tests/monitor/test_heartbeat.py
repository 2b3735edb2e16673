"""Heartbeat emission through the campaign progress callback."""

import json

import pytest

from repro.analysis.campaign import LongTermCampaign
from repro.errors import ConfigurationError
from repro.monitor.detectors import StaticThresholdDetector
from repro.monitor.alerts import AlertRule
from repro.monitor.heartbeat import SnapshotEmitter, current_rss_kb
from repro.monitor.hub import MonitorHub
from repro.telemetry import reset_telemetry


def read_jsonl(path):
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


@pytest.fixture(autouse=True)
def clean_registry():
    reset_telemetry()
    yield
    reset_telemetry()


class TestSnapshotEmitter:
    def test_campaign_progress_writes_heartbeats(self, tmp_path):
        path = str(tmp_path / "heartbeat.jsonl")
        emitter = SnapshotEmitter(path)
        campaign = LongTermCampaign(
            device_count=2, months=3, measurements=50, random_state=1
        )
        campaign.run(progress=emitter)
        lines = read_jsonl(path)
        assert [line["month"] for line in lines] == [0, 1, 2, 3]
        assert [line["completed"] for line in lines] == [1, 2, 3, 4]
        assert all(line["total"] == 4 for line in lines)
        assert all(line["wall_s"] >= 0.0 for line in lines)
        assert all(line["cpu_s"] >= 0.0 for line in lines)
        assert emitter.emitted == 4

    def test_every_thins_but_keeps_final(self, tmp_path):
        path = str(tmp_path / "heartbeat.jsonl")
        emitter = SnapshotEmitter(path, every=3)
        for completed in range(1, 8):
            emitter(completed, 7)
        # Multiples of 3, plus the final call.
        assert [line["completed"] for line in read_jsonl(path)] == [3, 6, 7]

    def test_alert_count_rides_along(self, tmp_path):
        path = str(tmp_path / "heartbeat.jsonl")
        hub = MonitorHub(
            [
                AlertRule(
                    name="breach",
                    metric="series",
                    detector_factory=lambda: StaticThresholdDetector(upper=1.0),
                )
            ]
        )
        emitter = SnapshotEmitter(path, hub=hub)
        emitter(1, 2)
        hub.observe("series", 2.0, 0)
        emitter(2, 2)
        lines = read_jsonl(path)
        assert [line["alerts"] for line in lines] == [0, 1]

    def test_without_hub_alerts_is_null(self, tmp_path):
        path = str(tmp_path / "heartbeat.jsonl")
        SnapshotEmitter(path)(1, 1)
        assert read_jsonl(path)[0]["alerts"] is None

    def test_injectable_clocks(self, tmp_path):
        path = str(tmp_path / "heartbeat.jsonl")
        ticks = iter([10.0, 15.5])
        cpu_ticks = iter([1.0, 2.25])
        emitter = SnapshotEmitter(
            path, clock=lambda: next(ticks), cpu_clock=lambda: next(cpu_ticks)
        )
        document = emitter.emit(1, 1)
        assert document["wall_s"] == pytest.approx(5.5)
        assert document["cpu_s"] == pytest.approx(1.25)

    def test_rss_is_positive_or_none(self):
        rss = current_rss_kb()
        assert rss is None or rss > 0

    def test_every_must_be_positive(self, tmp_path):
        with pytest.raises(ConfigurationError):
            SnapshotEmitter(str(tmp_path / "x"), every=0)


class TestCorrelationAndPhases:
    def test_run_id_rides_in_every_heartbeat(self, tmp_path):
        path = str(tmp_path / "heartbeat.jsonl")
        emitter = SnapshotEmitter(path, run_id="91c5ad9c0e3b17a2")
        emitter(1, 2)
        emitter(2, 2)
        assert [b["run_id"] for b in read_jsonl(path)] == [
            "91c5ad9c0e3b17a2", "91c5ad9c0e3b17a2"
        ]

    def test_run_id_null_when_unset(self, tmp_path):
        path = str(tmp_path / "heartbeat.jsonl")
        SnapshotEmitter(path)(1, 1)
        assert read_jsonl(path)[0]["run_id"] is None

    def test_months_per_s_throughput(self, tmp_path):
        path = str(tmp_path / "heartbeat.jsonl")
        ticks = iter([10.0, 14.0])
        emitter = SnapshotEmitter(path, clock=lambda: next(ticks))
        document = emitter.emit(8, 10)
        assert document["months_per_s"] == pytest.approx(2.0)

    def test_phases_ride_when_profiler_enabled(self, tmp_path):
        # The phase profiler is the tracer's fold: tracing on => phases.
        from repro.telemetry import get_tracer, reset_telemetry, set_tracing

        path = str(tmp_path / "heartbeat.jsonl")
        reset_telemetry()
        set_tracing(True)
        try:
            for _ in range(4):
                with get_tracer().span("board.age", phase="aging"):
                    pass
            SnapshotEmitter(path)(1, 1)
            expected = get_tracer().phase_totals()
        finally:
            set_tracing(False)
            reset_telemetry()
        beat = read_jsonl(path)[0]
        assert beat["phases"] == expected
        assert beat["phases"]["aging"]["calls"] == 4
        assert set(beat["phases"]["aging"]) == {"wall_s", "cpu_s", "calls"}

    def test_phases_absent_when_profiler_disabled(self, tmp_path):
        from repro.telemetry import tracing_enabled

        path = str(tmp_path / "heartbeat.jsonl")
        assert not tracing_enabled()
        SnapshotEmitter(path)(1, 1)
        assert "phases" not in read_jsonl(path)[0]
