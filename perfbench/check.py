"""Output checks that need the ``repro`` package, run in a child process.

Usage::

    python perfbench/check.py targets
    python perfbench/check.py artifact PATH [--table]

``targets`` resolves every traced entry point of
``hook/sitecustomize.py`` and prints the ones that no longer exist.
``artifact`` loads a campaign artifact through
``repro.io.resultstore.load_campaign`` and prints its board and
snapshot counts, plus its Table I cells with ``--table``.  Both print
one JSON object.  Loading the fleet artifact takes over a gigabyte, so
it happens here, in a process that ends, and not in the benchmark.
"""

from __future__ import annotations

import importlib
import json
import sys

from hook.sitecustomize import PICKLER, TARGETS, resolve


def missing_targets():
    missing = []
    for module_name, path in [target[:2] for target in TARGETS] + [PICKLER]:
        try:
            resolve(importlib.import_module(module_name), path)
        except (ImportError, AttributeError) as exc:
            missing.append(f"{module_name}:{path} ({exc})")
    return missing


def artifact_summary(path, table):
    from repro.io.resultstore import load_campaign

    campaign = load_campaign(path)
    summary = {"boards": len(campaign.board_ids), "snapshots": len(campaign.snapshots)}
    if table:
        from repro.core.report import build_quality_report

        summary["table"] = {
            name: {
                "start_avg": s.start_avg,
                "end_avg": s.end_avg,
                "start_worst": s.start_worst,
                "end_worst": s.end_worst,
            }
            for name, s in build_quality_report(campaign).summaries.items()
        }
    return summary


def main(argv):
    if argv[0] == "targets":
        result = {"missing": missing_targets()}
    else:
        result = artifact_summary(argv[1], "--table" in argv[2:])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
