"""`returncast.cli` with the benchmark's span tracer installed.

    python perfbench/cli_shim.py SPANS_JSON run-cycle --history ... --out ...

Used by the traced passes of the cli_cold workload: the spans and counters of
the one CLI call are written to SPANS_JSON when it ends, and the process exits
with the CLI's own exit code. Tracing starts after the import, whose cost the
benchmark takes from `python -X importtime` instead.
"""
import json
import sys

from returncast import cli

from spans import Tracer

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        with open(sys.argv[1], "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    sys.exit(code)
