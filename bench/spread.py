"""Run the benchmark once per seed and report, per metric, the median and
the quartile spread (Q3 - Q1) / median over the runs.

Usage, from the repository root:

    python3 bench/spread.py --workload session-deg1 --seeds 1 2 3 4 5 --seconds 30

Runs are sequential.  Prints one line per metric and, last, a JSON object
with every run's result and the per-metric summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("nan")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    results = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True,
        )
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        # "# raw <name> <value>" lines carry the unscaled medians.
        result["raw"] = {f.split()[2]: float(f.split()[3]) for f in lines if f.startswith("# raw ")}
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']}",
              file=sys.stderr, flush=True)
        results.append(result)
    names = list(results[0]["metrics"])
    summary, raw = {}, {}
    for name in names:
        summary[name] = summarize([r["metrics"][name]["value"] for r in results])
        s = summary[name]
        line = f"{name:48s} median {s['median']:.6g}  spread {s['spread']:.4f}"
        if name in results[0]["raw"]:
            raw[name] = summarize([r["raw"][name] for r in results])
            line += f"  (raw: median {raw[name]['median']:.6g}  spread {raw[name]['spread']:.4f})"
        print(line, file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seeds": args.seeds, "seconds": args.seconds,
                      "trace": args.trace, "summary": summary, "raw_summary": raw, "runs": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
