"""Shared fixtures and helpers for the parallel-execution suite.

The suite's organising principle is the serial run as ground truth:
every test builds the same campaign twice (or more) and demands the
outputs be *identical*, not merely close.  ``assert_campaigns_identical``
is that gate — exact array equality, dtypes included, down to the
dict insertion order that campaign artifacts serialise.

``worker_counts()`` honours the ``REPRO_WORKERS`` environment variable
so CI can re-run the suite pinned to one parallel worker count
(``REPRO_WORKERS=4`` tests {1, 4}); unset, the full {1, 2, 4} ladder
runs.
"""

from __future__ import annotations

import os
from typing import List

import numpy as np
import pytest

from repro.analysis.campaign import CampaignResult
from repro.exec.pool import WindowPool
from repro.telemetry import reset_telemetry


def worker_counts() -> List[int]:
    """Worker counts the equivalence ladder covers (env-overridable)."""
    override = os.environ.get("REPRO_WORKERS")
    if override:
        return sorted({1, int(override)})
    return [1, 2, 4]


class InlineWindowPool(WindowPool):
    """A WindowPool that runs its specs in-process, serially.

    ``WindowPool.adopt`` passes instances through untouched, so this
    injects an arbitrary *shard count* (``max_workers`` drives the
    board partition) without paying worker-process start-up — the
    hypothesis ladders run dozens of campaigns per test.
    """

    def run_tasks(self, fn, specs):
        return [fn(spec) for spec in specs]


@pytest.fixture(autouse=True)
def clean_registry():
    """Isolate every test's metrics so counter assertions are exact."""
    reset_telemetry()
    yield
    reset_telemetry()


def assert_snapshots_identical(a, b) -> None:
    """Exact equality of two MonthlyEvaluation snapshots."""
    assert a.month == b.month
    assert a.measurements == b.measurements
    assert a.board_ids == b.board_ids
    for name in ("wchd", "fhw", "stable_ratio", "noise_entropy", "bchd_pairs"):
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype, name
        np.testing.assert_array_equal(left, right, err_msg=name)
    np.testing.assert_array_equal(a.puf_entropy, b.puf_entropy)


def assert_campaigns_identical(a: CampaignResult, b: CampaignResult) -> None:
    """Byte-level equivalence gate between two campaign results."""
    assert a.profile_name == b.profile_name
    assert a.months == b.months
    assert a.measurements == b.measurements
    assert a.board_ids == b.board_ids
    # Insertion order matters: it is what the JSON artifact serialises.
    assert list(a.references) == list(b.references)
    for board in a.references:
        assert a.references[board].dtype == b.references[board].dtype
        np.testing.assert_array_equal(a.references[board], b.references[board])
    assert len(a.snapshots) == len(b.snapshots)
    for snap_a, snap_b in zip(a.snapshots, b.snapshots):
        assert_snapshots_identical(snap_a, snap_b)
