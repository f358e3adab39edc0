"""Command-line front end: run scenario files, run built-in suites, print
library realizers.

Configuration flags fall back to the environment: PCA_FUEL, PCA_BUDGET,
PCA_SEED; PCA_BACKEND selects the reduction-machine backend.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .kernel import BACKEND
from .names import EnumBudget
from .parser import print_term
from .realizers import realizer_ids, realizer_term
from .scenarios import ScenarioError, ScenarioReport, run_scenario
from .suites import SUITES, run_suite
from .terms import FuelConfig


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="extreal",
        description="combinator machine and extensional realizability checker",
    )
    ap.add_argument("--fuel", type=int, default=None, help="evaluation step limit")
    ap.add_argument("--budget", type=int, default=None, help="enumeration budget for schematic names")
    ap.add_argument("--seed", type=int, default=None, help="seed for the property suites")
    ap.add_argument("--json", action="store_true", help="machine-readable report")
    ap.add_argument("--trace-depth", type=int, default=2,
                    help="levels of checker trace to print (negative for all)")
    sub = ap.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="execute a scenario file")
    runp.add_argument("file", help="scenario path, or - for stdin")

    suitep = sub.add_parser("suite", help="run a built-in property suite")
    suitep.add_argument("id", choices=sorted(SUITES) + ["all"])

    printp = sub.add_parser("print", help="print a library realizer term")
    printp.add_argument("id", nargs="?", help="realizer id; omit to list")
    return ap


def _config(args) -> tuple[FuelConfig, EnumBudget, int]:
    """Fuel, budget and seed from the flags, else the environment.  A bad
    value ends the command with one error line and exit code 2."""
    try:
        fuel = args.fuel if args.fuel is not None else _env_int("PCA_FUEL", 100_000)
        budget = args.budget if args.budget is not None else _env_int("PCA_BUDGET", 8)
        seed = args.seed if args.seed is not None else _env_int("PCA_SEED", 0)
        return FuelConfig(max_steps=fuel), EnumBudget(max_index=budget), seed
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _report_scenario(rep: ScenarioReport, args) -> int:
    depth = None if args.trace_depth < 0 else args.trace_depth
    if args.json:
        payload = {
            "ok": rep.ok,
            "backend": BACKEND,
            "directives": [
                {
                    "line": r.line,
                    "kind": r.kind,
                    "text": r.text,
                    "outcome": r.outcome,
                    "expected": r.expected,
                    "ok": r.ok,
                    "trace": r.trace.to_dict(depth) if r.trace is not None else None,
                }
                for r in rep.results
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        for r in rep.results:
            mark = "ok " if r.ok else "FAIL"
            expect = f" (expected {r.expected})" if r.expected else ""
            print(f"[{mark}] line {r.line} {r.kind}: {r.outcome}{expect}")
            if not r.ok and r.trace is not None and depth != 0:
                print(r.trace.render(depth, indent=2))
        print(f"{'ok' if rep.ok else 'FAILED'}: "
              f"{sum(r.ok for r in rep.results)}/{len(rep.results)} directives")
    return 0 if rep.ok else 1


def _cmd_run(args) -> int:
    cfg, budget, seed = _config(args)
    if args.file == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.file, encoding="utf-8") as fp:
                text = fp.read()
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    prelude = []
    if args.fuel is not None or os.environ.get("PCA_FUEL"):
        prelude.append(f"fuel {cfg.max_steps}")
    if args.budget is not None or os.environ.get("PCA_BUDGET"):
        prelude.append(f"budget {budget.max_index}")
    if args.seed is not None or os.environ.get("PCA_SEED"):
        prelude.append(f"seed {seed}")
    try:
        rep = run_scenario("\n".join(prelude + [text]))
    except ScenarioError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    return _report_scenario(rep, args)


def _cmd_suite(args) -> int:
    cfg, budget, seed = _config(args)
    ids = sorted(SUITES) if args.id == "all" else [args.id]
    reports = [run_suite(i, seed, cfg, budget) for i in ids]
    if args.json:
        payload = {
            "ok": all(r.ok for r in reports),
            "backend": BACKEND,
            "suites": [
                {
                    "suite": r.suite,
                    "seed": r.seed,
                    "ok": r.ok,
                    "cases": [
                        {"name": c.name, "ok": c.ok, "detail": c.detail, "snippet": c.snippet}
                        for c in r.cases
                    ],
                }
                for r in reports
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        for r in reports:
            print(f"suite {r.suite} (seed {r.seed}): "
                  f"{len(r.cases) - len(r.failures)}/{len(r.cases)} cases pass")
            for c in r.cases:
                mark = "ok " if c.ok else "FAIL"
                print(f"  [{mark}] {c.name}" + (f": {c.detail}" if c.detail else ""))
                if not c.ok and c.snippet:
                    print("        reproduce with:")
                    for ln in c.snippet.splitlines():
                        print(f"          {ln}")
    return 0 if all(r.ok for r in reports) else 1


def _cmd_print(args) -> int:
    if not args.id:
        print("\n".join(realizer_ids()))
        return 0
    try:
        term = realizer_term(args.id)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(print_term(term))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        code = _cmd_run(args)
    elif args.command == "suite":
        code = _cmd_suite(args)
    else:
        code = _cmd_print(args)
    return code


if __name__ == "__main__":
    sys.exit(main())
