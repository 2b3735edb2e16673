"""Every JSON Lines reader survives arbitrary bytes.

Heartbeats, alert logs, the bench ledger and store streams are all
append-only JSONL files that a crash, a torn write or a stray byte can
corrupt.  Strict readers must refuse such a file with a typed
:class:`~repro.errors.StorageError`; the dashboard's tolerant reader
must drop the unparsable lines.  No reader may ever escape with any
other exception (a ``UnicodeDecodeError`` traceback, say).
"""

from __future__ import annotations

import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.monitor.alerts import load_alert_log
from repro.monitor.status import load_status, read_jsonl_tolerant, render_status
from repro.store.artifact import ArtifactStore
from repro.store.bench import BenchLedger

#: Raw bytes, plus near-miss JSONL: valid lines spliced with junk.
_LINES = st.sampled_from(
    [
        b'{"name": "gram-bchd", "metrics": {"wall_s": 1.0}}',
        b'{"rule": "r", "metric": "m", "severity": "info", "index": 1, "value": 2.0}',
        b'{"index": 1e999, "rule": "r", "metric": "m", "severity": "x", "value": 0}',
        b"[1, 2]",
        b"\xff\xfe",
        b'{"torn": ',
        b"",
        b"[" * 2000,
    ]
)
_PAYLOADS = st.one_of(
    st.binary(max_size=256),
    st.lists(st.one_of(_LINES, st.binary(max_size=16)), max_size=6).map(b"\n".join),
)


def _outcome(reader, path):
    """Call ``reader(path)``: a result or a StorageError, nothing else."""
    try:
        return reader(path)
    except StorageError:
        return None


def _read_store(path):
    store, name = ArtifactStore.locate(path)
    return store.read_jsonl(name)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(payload=_PAYLOADS)
def test_readers_return_or_raise_storage_error(payload):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "file.jsonl")
        with open(path, "wb") as handle:
            handle.write(payload)
        _outcome(_read_store, path)
        _outcome(lambda p: BenchLedger(p).records(), path)
        _outcome(load_alert_log, path)
        # The tolerant reader never raises: it drops what it cannot parse.
        documents = read_jsonl_tolerant(path)
        assert all(isinstance(document, dict) for document in documents)


def test_stray_byte_in_a_heartbeat_is_dropped(tmp_path):
    target = str(tmp_path / "run.json")
    with open(str(tmp_path / "run.heartbeat.jsonl"), "wb") as handle:
        handle.write(b'{"completed": 1, "total": 3, "month": 0, "wall_s": 1.0}\n')
        handle.write(b'{"completed": 2, \xff "total": 3}\n')
    status = load_status(target)
    assert status.heartbeat["completed"] == 1
    assert "1/3 snapshots" in render_status(status)


def test_strict_readers_name_the_file_on_bad_bytes(tmp_path):
    path = str(tmp_path / "alerts.jsonl")
    with open(path, "wb") as handle:
        handle.write(b"\xff\n")
    for reader in (load_alert_log, _read_store, lambda p: BenchLedger(p).records()):
        try:
            reader(path)
        except StorageError as exc:
            assert "alerts.jsonl" in str(exc)
        else:
            raise AssertionError(f"{reader} accepted non-UTF-8 bytes")
