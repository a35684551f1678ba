"""Run one nhsiegel CLI command as ``python -m nhsiegel.cli`` runs it, while
probing the speed of the CPU it runs on.

Usage: python bench/timed_cli.py SPEED_JSON -- <nhsiegel arguments>

The speed probe (``speed.kernel_s``) runs once before the command, every
SAMPLE_PERIOD_S while it runs (from a SIGALRM handler, about 0.6% of the
command's time), and once after it.  A probe in the parent process would
time the other CPU half the time: on the machine the benchmark was defined
on, the wall time of 12 repeats of one ``bound`` command spread by 0.30
while their in-process probes, scaled out, left 0.06.  The probe times are
written to SPEED_JSON as a list of seconds, and the command's exit code is
kept.
"""

import json
import runpy
import signal
import sys

import speed

SAMPLE_PERIOD_S = 0.05


def main() -> None:
    out_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: timed_cli.py SPEED_JSON -- ARGS...")
    samples = [speed.kernel_s()]
    signal.signal(signal.SIGALRM, lambda *_: samples.append(speed.kernel_s()))
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
    sys.argv = [sys.argv[0], *argv]
    try:
        runpy.run_module("nhsiegel.cli", run_name="__main__", alter_sys=True)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        samples.append(speed.kernel_s())
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(samples, fh)


if __name__ == "__main__":
    main()
