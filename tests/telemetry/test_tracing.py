"""Tests for the tracing core (spans, tracer, rendering, export)."""

import json
import os

import pytest

from repro.errors import ConfigurationError
from repro.telemetry import (
    NULL_SPAN,
    Span,
    TraceContext,
    Tracer,
    chrome_trace_events,
    graft_records,
    span_from_record,
    span_record,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_chrome_trace.json")


def _fixed_span(name, start, end, cpu, attributes=None, children=()):
    """A hand-built finished span with deterministic timings."""
    span = Span(name, attributes or {})
    span.start_wall, span.end_wall = start, end
    span.start_cpu, span.end_cpu = 0.0, cpu
    span.children = list(children)
    return span


def _fixed_forest():
    """A deterministic two-board forest shaped like a sharded campaign."""
    measure0 = _fixed_span("board.measure", 10.002, 10.004, 0.0015)
    board0 = _fixed_span(
        "worker.board", 10.001, 10.005, 0.003, {"board": 0}, [measure0]
    )
    measure1 = _fixed_span("board.measure", 10.005, 10.008, 0.0020)
    board1 = _fixed_span(
        "worker.board", 10.005, 10.009, 0.0035, {"board": 1}, [measure1]
    )
    shards = _fixed_span(
        "campaign.shards", 10.0005, 10.0095, 0.007, {"shards": 2}, [board0, board1]
    )
    root = _fixed_span(
        "campaign.run", 10.0, 10.01, 0.008, {"devices": 2}, [shards]
    )
    return [root]


class TestSpan:
    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            Span("")

    def test_annotate(self):
        span = Span("s")
        span.annotate("month", 4)
        assert span.attributes["month"] == 4

    def test_timing_monotonicity(self):
        tracer = Tracer(enabled=True)
        with tracer.span("work") as span:
            total = sum(range(10_000))
        assert total > 0
        assert span.finished
        assert span.end_wall >= span.start_wall
        assert span.end_cpu >= span.start_cpu
        assert span.wall_s >= 0.0
        assert span.cpu_s >= 0.0

    def test_to_dict_shape(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer", kind="demo"):
            with tracer.span("inner"):
                pass
        doc = tracer.roots[0].to_dict()
        assert doc["name"] == "outer"
        assert doc["attributes"] == {"kind": "demo"}
        assert [child["name"] for child in doc["children"]] == ["inner"]


class TestTracer:
    def test_nesting(self):
        tracer = Tracer(enabled=True)
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
            with tracer.span("d"):
                pass
        (root,) = tracer.roots
        assert root.name == "a"
        assert [child.name for child in root.children] == ["b", "d"]
        assert [child.name for child in root.children[0].children] == ["c"]

    def test_child_wall_within_parent(self):
        tracer = Tracer(enabled=True)
        with tracer.span("parent"):
            with tracer.span("child"):
                sum(range(1000))
        parent = tracer.roots[0]
        child = parent.children[0]
        assert child.wall_s <= parent.wall_s
        assert child.start_wall >= parent.start_wall
        assert child.end_wall <= parent.end_wall

    def test_current_tracks_stack(self):
        tracer = Tracer(enabled=True)
        assert tracer.current is None
        with tracer.span("a") as a:
            assert tracer.current is a
            with tracer.span("b") as b:
                assert tracer.current is b
            assert tracer.current is a
        assert tracer.current is None

    def test_disabled_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("invisible") as span:
            span.annotate("k", "v")  # no-op must accept annotate
        assert span is NULL_SPAN
        assert tracer.roots == []

    def test_exception_still_closes_span(self):
        tracer = Tracer(enabled=True)
        with pytest.raises(ValueError):
            with tracer.span("failing"):
                raise ValueError("boom")
        assert tracer.current is None
        assert tracer.roots[0].finished

    def test_reset(self):
        tracer = Tracer(enabled=True)
        with tracer.span("a"):
            pass
        tracer.reset()
        assert tracer.roots == []
        assert tracer.current is None

    def test_render_tree_lists_spans_and_attributes(self):
        tracer = Tracer(enabled=True)
        with tracer.span("campaign.run", devices=2):
            with tracer.span("campaign.month", month=0):
                pass
        rendered = tracer.render_tree()
        assert "campaign.run [devices=2]" in rendered
        assert "  campaign.month [month=0]" in rendered
        assert "% parent" in rendered

    def test_render_tree_empty(self):
        assert "no spans recorded" in Tracer().render_tree()

    def test_export_json(self, tmp_path):
        tracer = Tracer(enabled=True)
        with tracer.span("root", seed=1):
            with tracer.span("leaf"):
                pass
        path = str(tmp_path / "trace.json")
        tracer.export_json(path)
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        assert doc["format"] == "repro-trace"
        assert doc["version"] == 2
        assert doc["trace_id"] is None
        assert doc["spans"][0]["name"] == "root"
        assert doc["spans"][0]["children"][0]["name"] == "leaf"
        assert doc["spans"][0]["wall_s"] >= 0.0

    def test_export_json_carries_trace_id(self, tmp_path):
        tracer = Tracer(enabled=True)
        tracer.trace_id = "0123456789abcdef"
        with tracer.span("root"):
            pass
        path = str(tmp_path / "trace.json")
        tracer.export_json(path)
        with open(path, "r", encoding="utf-8") as handle:
            assert json.load(handle)["trace_id"] == "0123456789abcdef"


class TestSpanIds:
    def test_assign_ids_preorder(self):
        tracer = Tracer(enabled=True)
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
            with tracer.span("d"):
                pass
        with tracer.span("e"):
            pass
        tracer.assign_ids()
        a, e = tracer.roots
        b, d = a.children
        c = b.children[0]
        assert [s.span_id for s in (a, b, c, d, e)] == [1, 2, 3, 4, 5]
        assert a.parent_id is None and e.parent_id is None
        assert b.parent_id == 1 and d.parent_id == 1 and c.parent_id == 2

    def test_ids_depend_on_structure_not_timing(self):
        forest_a, forest_b = _fixed_forest(), _fixed_forest()
        for span in forest_b[0].children:  # perturb timings only
            span.end_wall += 0.5
        tracer_a, tracer_b = Tracer(enabled=True), Tracer(enabled=True)
        tracer_a._roots, tracer_b._roots = forest_a, forest_b
        tracer_a.assign_ids()
        tracer_b.assign_ids()

        def ids(span):
            return [(span.span_id, span.parent_id)] + [
                pair for child in span.children for pair in ids(child)
            ]

        assert ids(forest_a[0]) == ids(forest_b[0])

    def test_reassign_after_graft_is_consistent(self):
        tracer = Tracer(enabled=True)
        with tracer.span("parent") as parent:
            pass
        tracer.assign_ids()
        worker = Tracer(enabled=True)
        with worker.span("worker.board", board=0):
            pass
        records = [span_record(root, worker.roots[0].start_wall)
                   for root in worker.roots]
        graft_records(parent, records)
        tracer.assign_ids()
        assert parent.span_id == 1
        assert parent.children[0].span_id == 2
        assert parent.children[0].parent_id == 1


class TestSpanRecords:
    def test_record_roundtrip_preserves_tree(self):
        (root,) = _fixed_forest()
        record = span_record(root, epoch=root.start_wall)
        rebuilt = span_from_record(record, base_wall=100.0)
        assert rebuilt.name == root.name
        assert rebuilt.attributes == root.attributes
        assert rebuilt.start_wall == pytest.approx(100.0)
        assert rebuilt.wall_s == pytest.approx(root.wall_s)
        assert rebuilt.cpu_s == pytest.approx(root.cpu_s)
        shards = rebuilt.children[0]
        assert shards.name == "campaign.shards"
        # Relative offsets survive: the shards span started 0.5 ms in.
        assert shards.start_wall == pytest.approx(100.0005)
        assert [b.attributes["board"] for b in shards.children] == [0, 1]

    def test_record_is_plain_json(self):
        (root,) = _fixed_forest()
        record = span_record(root, epoch=root.start_wall)
        json.dumps(record)  # must not raise: pickle/JSON-safe by design

    def test_graft_rebases_onto_parent_clock(self):
        parent = _fixed_span("campaign.shards", 50.0, 51.0, 0.5)
        child_record = {
            "name": "worker.board",
            "attributes": {"board": 3},
            "start_s": 0.25,
            "wall_s": 0.5,
            "cpu_s": 0.4,
            "children": [],
        }
        graft_records(parent, [child_record])
        grafted = parent.children[0]
        assert grafted.start_wall == pytest.approx(50.25)
        assert grafted.end_wall == pytest.approx(50.75)
        assert grafted.finished


class TestTraceContext:
    def test_active_flags(self):
        assert not TraceContext().active
        assert TraceContext(spans=True).active

    def test_disabled_tracer_yields_no_context(self):
        assert Tracer(enabled=False).context() is None

    def test_enabled_tracer_context_carries_trace_id(self):
        tracer = Tracer(enabled=True)
        tracer.trace_id = "feedface00000000"
        context = tracer.context()
        assert context.spans
        assert context.trace_id == "feedface00000000"

    def test_context_pickles(self):
        import pickle

        context = TraceContext(trace_id="abc", spans=True)
        assert pickle.loads(pickle.dumps(context)) == context


class TestChromeExport:
    def test_events_match_golden(self):
        tracer = Tracer(enabled=True)
        tracer.trace_id = "0123456789abcdef"
        tracer._roots = _fixed_forest()
        tracer.assign_ids()
        document = {
            "traceEvents": chrome_trace_events(tracer.roots),
            "displayTimeUnit": "ms",
            "otherData": {
                "format": "repro-trace-chrome",
                "trace_id": tracer.trace_id,
            },
        }
        with open(GOLDEN, "r", encoding="utf-8") as handle:
            assert document == json.load(handle)

    def test_board_attribute_opens_a_lane(self):
        events = chrome_trace_events(_fixed_forest())
        by_name = {}
        for event in events:
            by_name.setdefault(event["name"], []).append(event)
        # Non-board spans sit on tid 0; each board gets board + 1.
        assert [e["tid"] for e in by_name["campaign.run"]] == [0]
        assert [e["tid"] for e in by_name["campaign.shards"]] == [0]
        assert sorted(e["tid"] for e in by_name["worker.board"]) == [1, 2]
        # Descendants inherit the board lane.
        assert sorted(e["tid"] for e in by_name["board.measure"]) == [1, 2]

    def test_timestamps_relative_microseconds(self):
        events = chrome_trace_events(_fixed_forest())
        root = next(e for e in events if e["name"] == "campaign.run")
        assert root["ts"] == 0.0
        assert root["dur"] == pytest.approx(10_000.0)  # 10 ms
        assert root["ph"] == "X" and root["pid"] == 0

    def test_empty_forest_exports_no_events(self):
        assert chrome_trace_events([]) == []

    def test_export_chrome_file(self, tmp_path):
        tracer = Tracer(enabled=True)
        with tracer.span("root", seed=1):
            with tracer.span("leaf"):
                pass
        path = str(tmp_path / "trace.chrome.json")
        tracer.export_chrome(path)
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["format"] == "repro-trace-chrome"
        names = [event["name"] for event in doc["traceEvents"]]
        assert names == ["root", "leaf"]
        args = doc["traceEvents"][1]["args"]
        assert args["span_id"] == 2 and args["parent_id"] == 1
