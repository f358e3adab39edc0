#!/usr/bin/env python3
"""Quick self-test of the benchmark at tiny input sizes (about a minute).

Usage: python3 perfbench/smoke.py

For every workload it checks that an untraced and a traced run report every
metric BENCHMARK.json names, with its unit, that the traced counters repeat
exactly across two runs (run.py itself fails a run whose counters differ
between the backends), and that the end-to-end counts equal the traced ones.
It also checks that a scenario with one planted false expectation raises
fail_share above 0.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SIZES = {"suite-all": 1, "lambda-ladder": 3, "check-mix": 20}


def bench(workload: str, trace: int, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "0", "--trace", str(trace), "--size", str(SIZES[workload]), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []

    def expect(cond: bool, msg: str) -> None:
        print(("ok    " if cond else "FAIL  ") + msg, flush=True)
        if not cond:
            errors.append(msg)

    for workload in SIZES:
        runs = {"e2e": bench(workload, 0), "trace": bench(workload, 1), "again": bench(workload, 1)}
        for key, res in runs.items():
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                   f"{workload} {key}: correct, {res['failed']}/{res['attempted']} failed")
        for key, group in (("e2e", "end_to_end"), ("trace", "per_layer")):
            got = {k: v["unit"] for k, v in runs[key]["metrics"].items()}
            want = {m["name"]: m["unit"] for m in spec[group]}
            expect(got == want, f"{workload} {key}: every {group} metric, with its unit")
        counts, again = ({k: v["value"] for k, v in runs[key]["metrics"].items()
                          if v["unit"] not in ("s", "1/s")} for key in ("trace", "again"))
        expect(counts == again, f"{workload}: traced counters repeat across two runs")
        e2e = runs["e2e"]["metrics"]
        expect(e2e["machine_steps"]["value"] == counts["machine.steps"]
               and e2e["code_nodes"]["value"] == counts["bracket.out_nodes"],
               f"{workload}: machine_steps and code_nodes equal the traced counters")

    planted = bench("check-mix", 0, "--wrong")
    expect(not planted["correct"] and planted["failed"] > 0,
           f"check-mix with a planted false expectation: {planted['failed']}/{planted['attempted']} failed")
    print("smoke test " + ("passed" if not errors else f"FAILED ({len(errors)} checks)"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
