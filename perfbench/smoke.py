"""Smoke test of the benchmark at tiny input sizes.

    python3 perfbench/smoke.py          # or: python3 -m pytest perfbench/smoke.py

Run from the root of a checkout.  Checks that every metric named in
BENCHMARK.json is printed with its unit, in the human-readable lines and in
the JSON result; that no op fails; that the seed changes the generated
inputs and the same seed repeats them; and that the benchmark refuses to
run without the package sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def run_tiny(workload, seed=1, trace=0):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "0.3",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_metrics(text_lines, result, specs):
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)), (m["name"], got)
        pattern = re.compile(rf"^\s+{re.escape(m['name'])}\s+= \S+ {re.escape(m['unit'])}\b")
        assert any(pattern.match(line) for line in text_lines), m["name"]
    assert any(re.match(r"^\s+failed_frac\s+= 0\b", line) for line in text_lines)


def inputs_digest(text_lines):
    return re.search(r"inputs sha256 ([0-9a-f]{64})", text_lines[0]).group(1)


def test_end_to_end_metrics_printed_with_units():
    for workload in WORKLOADS:
        lines, result = run_tiny(workload)
        check_metrics(lines, result, SPEC["end_to_end"])
        assert re.search(r"\(p[0-9.]+, n=\d+\)", "\n".join(lines)), "tail percentile not shown"


def test_per_layer_metrics_printed_with_units():
    for workload in WORKLOADS:
        lines, result = run_tiny(workload, trace=1)
        check_metrics(lines, result, SPEC["per_layer"])


def test_seed_changes_inputs():
    for workload in WORKLOADS:
        first = inputs_digest(run_tiny(workload, seed=1)[0])
        assert first == inputs_digest(run_tiny(workload, seed=1)[0])
        assert first != inputs_digest(run_tiny(workload, seed=2)[0])


def test_refuses_without_package_sources():
    bare = ROOT / ".perfbench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
