"""Tests for phase attribution: phases are span tags, folded by the tracer.

The fold credits every span's self time (its time minus its children's)
to the nearest phase-tagged ancestor-or-self; the untagged remainder
inside ``campaign.run`` is the ``unattributed`` row.  The forests here
are fixed: live spans run on injected step clocks, worker subtrees are
hand-written span records.
"""

import os
from types import SimpleNamespace

import pytest

from repro.telemetry import (
    NULL_SPAN,
    PHASES,
    UNATTRIBUTED,
    Tracer,
    get_tracer,
    install_tracer,
    reset_telemetry,
    set_tracing,
    tracing_enabled,
)
from repro.telemetry import tracing


class FakeClock:
    """Deterministic clock: advances by a fixed step per call."""

    def __init__(self, step):
        self.now = 0.0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


@pytest.fixture
def step_clocks(monkeypatch):
    """Every clock read advances wall by 1.0 s and CPU by 0.25 s."""
    monkeypatch.setattr(
        tracing,
        "time",
        SimpleNamespace(perf_counter=FakeClock(1.0), process_time=FakeClock(0.25)),
    )


def record(name, wall_s, cpu_s, phase=None, children=(), pid=None):
    """A worker span record, as :func:`span_record` ships it."""
    doc = {
        "name": name,
        "attributes": {"phase": phase} if phase else {},
        "start_s": 0.0,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "children": list(children),
    }
    if pid is not None:
        doc["pid"] = pid
    return doc


def run_fixed_forest(tracer):
    """campaign.run > board > {powerup, aging > noise_draw}, on step clocks.

    Span times (wall, cpu): powerup (1, .25); noise_draw (1, .25);
    aging (3, .75), self (2, .5); campaign.run (9, 2.25).
    """
    with tracer.span("campaign.run"):
        with tracer.span("board"):
            with tracer.span("p", phase="powerup"):
                pass
            with tracer.span("a", phase="aging"):
                with tracer.span("n", phase="noise_draw"):
                    pass


def rows(tracer):
    """Tagged phase rows as (wall, cpu, calls) tuples."""
    return {
        name: (total["wall_s"], total["cpu_s"], total["calls"])
        for name, total in tracer.phase_totals().items()
        if name != UNATTRIBUTED
    }


def unattributed(tracer):
    total = tracer.phase_totals()[UNATTRIBUTED]
    return total["wall_s"], total["cpu_s"], total["calls"]


class TestPhaseProfiler:
    def test_disabled_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("p", phase="powerup"):
            pass
        assert tracer.phase_totals() == {}
        assert tracer.span("p", phase="powerup") is NULL_SPAN

    def test_phase_accumulates_with_injected_clocks(self, step_clocks):
        tracer = Tracer(enabled=True)
        with tracer.span("p", phase="powerup"):
            pass
        with tracer.span("p", phase="powerup"):
            pass
        assert tracer.phase_totals() == {
            "powerup": {"wall_s": 2.0, "cpu_s": 0.5, "calls": 2}
        }

    def test_add_and_total_cpu(self, step_clocks):
        tracer = Tracer(enabled=True)
        run_fixed_forest(tracer)
        # Self time goes to the nearest tagged ancestor-or-self: the
        # untagged "board" span's time is the run's remainder.
        assert rows(tracer) == {
            "powerup": (1.0, 0.25, 1),
            "aging": (2.0, 0.5, 1),
            "noise_draw": (1.0, 0.25, 1),
        }
        assert unattributed(tracer) == (5.0, 1.25, 1)
        (run,) = tracer.roots
        total_cpu = sum(r[1] for r in rows(tracer).values()) + unattributed(tracer)[1]
        assert total_cpu == pytest.approx(run.cpu_s)

    def test_merge_worker_deltas(self, step_clocks):
        # A worker-process record: its tagged spans credit their phases,
        # its untagged time is extra CPU, credited as unattributed.
        tracer = Tracer(enabled=True)
        worker = record(
            "worker.board",
            10.0,
            4.0,
            children=[record("board.age", 6.0, 3.0, phase="aging")],
            pid=os.getpid() + 1,
        )
        with tracer.span("campaign.run") as run:
            with tracer.span("campaign.shards") as shards:
                tracer.graft(shards, [worker])
        assert [child.name for child in shards.children] == ["worker.board"]
        assert rows(tracer) == {"aging": (6.0, 3.0, 1)}
        # run (3, .75) is all remainder; plus the record's (4, 1) untagged.
        assert unattributed(tracer) == (7.0, 1.75, 1)
        total_cpu = rows(tracer)["aging"][1] + unattributed(tracer)[1]
        assert total_cpu == pytest.approx(run.cpu_s + worker["cpu_s"])

    def test_graft_of_in_process_records_stays_inside_the_run(self, step_clocks):
        # A record from this process already ran inside the run's own
        # time: only its tagged part leaves the remainder.
        tracer = Tracer(enabled=True)
        local = record(
            "worker.board",
            1.0,
            0.25,
            children=[record("board.age", 0.5, 0.125, phase="aging")],
            pid=os.getpid(),
        )
        with tracer.span("campaign.run") as run:
            with tracer.span("campaign.shards") as shards:
                tracer.graft(shards, [local])
        assert rows(tracer) == {"aging": (0.5, 0.125, 1)}
        assert unattributed(tracer) == (2.5, 0.625, 1)
        assert 0.125 + unattributed(tracer)[1] == pytest.approx(run.cpu_s)

    def test_graft_under_a_closed_span_credits_only_tags(self):
        tracer = Tracer(enabled=True)
        with tracer.span("parent") as parent:
            pass
        tracer.graft(
            parent,
            [record("w", 2.0, 1.0, children=[record("m", 1.0, 0.5, phase="metrics")])],
        )
        assert rows(tracer) == {"metrics": (1.0, 0.5, 1)}
        assert UNATTRIBUTED not in tracer.phase_totals()

    def test_reset_preserves_enabled(self, step_clocks):
        tracer = Tracer(enabled=True)
        run_fixed_forest(tracer)
        tracer.reset()
        assert tracer.phase_totals() == {}
        assert "no phases recorded" in tracer.render_phases()
        assert tracer.enabled

    def test_exception_still_closes_phase(self):
        tracer = Tracer(enabled=True)
        with pytest.raises(ValueError):
            with tracer.span("m", phase="metrics"):
                raise ValueError("boom")
        assert tracer.phase_totals()["metrics"]["calls"] == 1


class TestRenderTable:
    def test_sorted_by_cpu_with_total_row(self, step_clocks):
        tracer = Tracer(enabled=True)
        run_fixed_forest(tracer)
        table = tracer.render_phases()
        lines = [line for line in table.splitlines() if line]
        body = [line.split()[0] for line in lines[2:-2]]
        # Phases by CPU descending (ties by name), then the remainder —
        # last even though it is the largest row.
        assert body == ["aging", "noise_draw", "powerup", "unattributed"]
        assert "% cpu" in lines[0]
        assert lines[-1].split()[0] == "total"
        assert "2.25 s" in lines[-1] and "100.0%" in lines[-1]

    def test_empty_table_message(self):
        assert "no phases recorded" in Tracer().render_phases()


class TestRuntimeWiring:
    def test_phase_catalogue(self):
        assert PHASES == (
            "noise_draw",
            "powerup",
            "aging",
            "metrics",
            "monitor",
            "store_io",
        )

    def test_install_tracer_swaps_and_returns_previous(self):
        original = get_tracer()
        local = Tracer(enabled=True)
        previous = install_tracer(local)
        try:
            assert previous is original
            assert get_tracer() is local
            with get_tracer().span("a", phase="aging"):
                pass
        finally:
            install_tracer(original)
        assert get_tracer() is original
        # The worker pattern: the private tracer kept the span.
        assert local.phase_totals()["aging"]["calls"] == 1
        assert original.phase_totals() == {}

    def test_reset_telemetry_clears_phases(self):
        set_tracing(True)
        try:
            with get_tracer().span("p", phase="powerup"):
                pass
            assert get_tracer().phase_totals()["powerup"]["calls"] == 1
            reset_telemetry()
            assert get_tracer().phase_totals() == {}
            # The enabled bit is configuration, not accumulated state.
            assert tracing_enabled()
        finally:
            set_tracing(False)
