"""Benchmark command for linpath.

    python3 perfbench/run.py --workload <campaign|certify|sweep|find> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a linpath checkout; the package is imported from
./src.  Each workload runs in its own single-threaded worker process
(worker.py).  The set-up time is the median over SETUP_SAMPLES fresh
processes, each timed from just before its spawn to its first timed item.
The last line of standard output is one JSON object: with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced run.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("campaign", "certify", "sweep", "find")
SETUP_SAMPLES = 7
DEADLINE_S = 170  # every run must end within 180 s


def spawn(args, deadline, *extra):
    """Run worker.py once and return the JSON of its last stdout line."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("no time left for another worker")
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          timeout=remaining)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (HERE.parent / "src" / "linpath" / "__init__.py").is_file():
        print("error: no src/linpath beside the benchmark directory; "
              "run from the root of a linpath checkout", file=sys.stderr)
        return 1

    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = []
        if not args.trace:
            setups = [spawn(args, deadline, "--setup-only")["setup_s"]
                      for _ in range(SETUP_SAMPLES - 1)]
        run = spawn(args, deadline)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired,
            json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"{args.workload}: {run['rounds']} rounds of {run['items_per_round']} "
          f"items, seed {args.seed}", file=sys.stderr)
    if args.trace:
        metrics = run["layers"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups + [run["setup_s"]]), "unit": "s"},
            "items_per_s": {"value": run["items_per_s"], "unit": "1/s"},
            "item_p50_ms": {"value": run["item_p50_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MiB"},
        }
    print(json.dumps({"correct": run["correct"], "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
