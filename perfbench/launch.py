"""Child-process entry of the benchmark: one ``repro`` CLI invocation.

Usage::

    python perfbench/launch.py REPORT.json CLI-ARGS...

Imports ``repro.cli`` (timed), registers the benchmark's small-board
profile (the CLI has no cell-count flag; a registered profile is used
only when named), marks the first entry into
``LongTermAssessment.run`` and calls ``repro.cli.main`` with
``CLI-ARGS``.  At exit it writes ``REPORT.json`` with the import
time and the monotonic clock reading of that first entry, so the
parent can split the invocation into set-up and campaign time.  The
process exits with the CLI's own exit code.
"""

from __future__ import annotations

import json
import sys
import time

#: A 16-byte variant of the paper's ATmega32u4: 128 cells, 8 read.
FLEET_PROFILE = "atmega32u4-perfbench"


def main(argv):
    report_path, cli_args = argv[0], argv[1:]
    report = {"import_s": None, "run_entry": None}
    try:
        start = time.perf_counter()
        import repro.cli

        report["import_s"] = time.perf_counter() - start
        tracer = getattr(sys.modules.get("sitecustomize"), "TRACER", None)
        if tracer is not None:
            tracer.role = "launcher"
        from repro.sram.profiles import ATMEGA32U4, register_profile

        register_profile(
            ATMEGA32U4.with_overrides(name=FLEET_PROFILE, sram_bytes=16, read_bytes=8)
        )
        from repro.core.assessment import LongTermAssessment

        run = LongTermAssessment.run

        def marked_run(self, *args, **kwargs):
            if report["run_entry"] is None:
                report["run_entry"] = time.monotonic()
            return run(self, *args, **kwargs)

        LongTermAssessment.run = marked_run
        return repro.cli.main(cli_args)
    finally:
        with open(report_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
