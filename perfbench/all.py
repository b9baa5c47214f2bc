"""Run every workload named in BENCHMARK.json, one after another.

    python3 perfbench/all.py --seed 1            # end-to-end metrics
    python3 perfbench/all.py --seed 1 --trace 1  # per-layer metrics

Run from the root of a checkout.  Each workload runs as its own
``perfbench/run.py`` process; its report is passed through, then a table
sums up the metrics of every workload.  Exits 1 if any run fails or any
op fails its check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    results, ok = {}, True
    for w in spec["workloads"]:
        cmd = [sys.executable, "perfbench/run.py", "--workload", w["name"], "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"  run failed with exit {proc.returncode}")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        results[w["name"]] = result
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    width = max(map(len, names))
    print("\n" + " " * width + "".join(f"{w:>14}" for w in results))
    for name in names:
        values = (r["metrics"][name]["value"] for r in results.values())
        cells = "".join(f"{v:>14.6g}" if v is not None else f"{'inf':>14}" for v in values)
        print(f"{name:<{width}}{cells}")
    print(f"{'failed/attempted':<{width}}"
          + "".join(f"{str(r['failed']) + '/' + str(r['attempted']):>14}" for r in results.values()))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
