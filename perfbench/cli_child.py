"""One traced CLI call in a fresh process: the cli-small workload's traced run.

Usage: python3 perfbench/cli_child.py <ghzent CLI arguments>

Runs ``ghzent.cli.main`` on the arguments exactly as ``python3 -m
ghzent.cli`` would, with the layers traced.  The CLI's output goes to
stdout unchanged; the last line on stderr is ``SPANS <json>`` holding the
time this script started, the spans (including the import of ghzent.cli),
the counters, and the time ``main`` finished.  ghzent must be importable,
e.g. via PYTHONPATH.
"""

import time

ENTRY = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402


def main() -> int:
    tracer = tracing.Tracer()
    tracer.request = 0
    with tracer.span("cli.import"):
        import ghzent.cli
    with tracing.installed(tracer):
        code = ghzent.cli.main(sys.argv[1:])
    sys.stdout.flush()
    stamps = {"entry": ENTRY, "exit": tracing.clock()}
    sys.stderr.write("SPANS " + json.dumps({**stamps, **tracer.export()}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
