"""Run one nhsiegel CLI command with every layer traced.

Usage: python bench/trace_cli.py SUMMARY_JSON -- <nhsiegel arguments>

The interpreter start and ``import nhsiegel.cli`` finish before tracing is
installed; the CLOCK_MONOTONIC time at that point is written as ``ready``
so the caller can compute start-up time.  The span summary is written to
SUMMARY_JSON when the command returns, and the command's exit code is kept.
"""

import json
import sys
import time

import nhsiegel.cli

READY = time.monotonic()

import tracer  # noqa: E402  (imported after the start-up clock reading)


def main() -> int:
    out_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: trace_cli.py SUMMARY_JSON -- ARGS...")
    t = tracer.Tracer()
    tracer.install(t)
    try:
        return nhsiegel.cli.main(argv)
    finally:
        summary = tracer.finish(t)
        summary["ready"] = READY
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)


if __name__ == "__main__":
    sys.exit(main())
