"""Traced CLI entry: install the span wrappers, then run korthos.cli.main.

Usage: python cli_child.py SPANS_OUT JOB_ID CLI_ARG [CLI_ARG ...]

Exits with main's return code; the spans go to SPANS_OUT as JSON when main
returns or raises.
"""

import json
import sys

import korthos.cli

import tracing


def main():
    spans_out, job_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = tracing.Tracer()
    tracer.install()
    tracer.job = job_id
    try:
        return korthos.cli.main(argv)
    finally:
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
