"""Traced stand-in for `python -m rodtwin.cli`.

Usage: python3 perfbench/cli_child.py SPANS_JSON <rodtwin subcommand and flags>

Installs the tracer's wrappers, runs rodtwin.cli.main(argv) under a
`cli.main` span, writes the spans to SPANS_JSON and exits with main's
return code.  The parent adds the enclosing `cli.process` span from the
child's start and exit, so the root's self time is interpreter start-up,
imports and exit.
"""

import json
import sys

import tracer


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    rec = tracer.Recorder()
    patch = tracer.Patch(rec)
    patch.apply()
    import rodtwin.cli

    code = 2
    try:
        with rec.operation(argv[0], "cli.main"):
            code = rodtwin.cli.main(argv)
    finally:
        with open(out_path, "w") as handle:
            json.dump(
                {"ops": rec.ops, "absent": patch.absent, "rodtwin_file": rodtwin.__file__},
                handle,
            )
    return code


if __name__ == "__main__":
    sys.exit(main())
