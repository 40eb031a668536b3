"""Run one shapesphere CLI command with its layers traced.

Usage: python perfbench/cli_boot.py TRACE_OUT COMMAND [ARGS...]

Imports the package, installs the span wrappers, then calls
shapesphere.cli.main on COMMAND ARGS inside a span named "cli.COMMAND", so
the process still pays interpreter start and import.  The spans go to
TRACE_OUT as JSON and the process exits with the CLI's exit code.
"""

import json
import sys

import shapesphere.cli

from tracing import Tracer, install


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    code = tracer.wrap(f"cli.{argv[0]}", shapesphere.cli.main)(argv)
    with open(trace_out, "w", encoding="utf-8") as handle:
        json.dump(tracer.child_doc(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
