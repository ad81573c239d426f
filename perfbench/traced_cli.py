"""Run one clicktomo CLI command in this process with layer spans on.

Usage: python perfbench/traced_cli.py SPANS_JSON RUN_ID PARENT_ID CLI_ARGS...

Imports ``clicktomo.cli`` (timed as the ``import`` span), wraps the
layer entry points (see ``tracing.install``), calls
``clicktomo.cli.main(CLI_ARGS)`` and writes the spans to SPANS_JSON.
Exits with the CLI's exit code.
"""

import json
import sys

import tracing


def main() -> int:
    spans_path, run, parent = sys.argv[1:4]
    tracer = tracing.Tracer(run, root_parent=parent)
    span = tracer.begin("import")
    import clicktomo.cli

    tracer.end(span)
    tracing.install(tracer)
    rc = tracer.call("cli.main", clicktomo.cli.main, (sys.argv[4:],), {})
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
