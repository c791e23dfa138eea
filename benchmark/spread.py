"""Run one workload on several seeds and report each metric's spread.

For every end-to-end metric it prints the median of the runs (``--trace
0``) and the distance between the first and third quartiles
(``statistics.quantiles`` with n=4) as a share of that median: the figure a
run-to-run comparison has to beat.  Each run's result line is kept in
``.bench_out/``.  Run from the root of a checkout:

    python3 benchmark/spread.py --workload eigen-small --seeds 1-10 [--seconds 20]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
OUT = Path(".bench_out")


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    spec = json.loads(BENCHMARK.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    values: dict[str, list[float]] = {}
    failed_share = set()
    for seed in args.seeds:
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        cmd[0] = sys.executable if cmd[0] in ("python", "python3") else cmd[0]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
        line = proc.stdout.splitlines()[-1]
        (OUT / f"{args.workload}-seed{seed}.json").write_text(line + "\n")
        result = json.loads(line)
        failed_share.add((result["failed"], result["attempted"]))
        shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: {time.perf_counter() - t0:.1f}s correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} {shown}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"  failed/attempted per run: {sorted(failed_share)}")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
        share = (q3 - q1) / med if med else 0.0
        bound = f" bound {bounds[name]}" if name in bounds else ""
        print(f"  {name:38s} median {med:12.4f}  quartiles {q1:.4f}..{q3:.4f}  "
              f"spread {share:.4f}{bound}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
