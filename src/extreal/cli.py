"""Command-line front end: run scenario files, run built-in suites, print
library realizers.

Configuration flags fall back to the environment: PCA_FUEL, PCA_BUDGET,
PCA_SEED.  Together they make the command's run (``terms.Run``), built once
and handed to ``run_scenario`` or ``run_suite``.  The pure machine runs
unless PCA_BACKEND=compiled selects the compiled twin, which is built only
for comparison.  Exit status: 0 every expectation holds, 1 one failed (or
stdout closed before the report was written), 2 a parse error or a bad
setting.

Each command imports only the layers it runs.  Importing this module loads
the machine half: ``terms``, ``bracket``, ``machine``, ``kernel`` and
``parser``.  ``run`` adds ``scenarios``, which loads the checker, names,
formulas, realizers and suites at the first line that needs them; ``suite``
loads ``suites`` and everything it checks; ``print`` loads ``realizers``,
with names and formulas but not the checker.  A ``--json`` report is one
line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING

from .kernel import BACKEND, BACKEND_ERROR
from .parser import MAX_NESTING, print_term
from .terms import Run

if TYPE_CHECKING:  # for annotations only: scenarios is imported by ``run``
    from .scenarios import ScenarioReport

# The ids of ``suites.SUITES``, sorted, spelled out so that building the
# argument parser does not import the suites (a test keeps them equal).
SUITE_IDS = ("abstraction", "choice-arrow", "czf-axioms", "equality", "fixpoints", "heo",
             "pairing-internal", "pca-laws", "truth-oracle")


def _env_int(name: str) -> int | None:
    raw = os.environ.get(name)
    if raw is None:
        return None
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
                    help=f"levels of checker trace to print, at most {MAX_NESTING} "
                         f"(negative: {MAX_NESTING})")
    sub = ap.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="execute a scenario file")
    runp.add_argument("file", help="scenario path, or - for stdin")

    suitep = sub.add_parser("suite", help="run a built-in property suite")
    suitep.add_argument("id", choices=[*SUITE_IDS, "all"])

    printp = sub.add_parser("print", help="print a library realizer term")
    printp.add_argument("id", nargs="?", help="realizer id; omit to list")
    return ap


def _config(args) -> Run:
    """The run: fuel, budget and seed from the flags, else the environment,
    else ``Run``'s defaults.  A bad value ends the command with one error
    line and exit code 2."""
    try:
        given = {}
        for name, flag, env in (("max_steps", args.fuel, "PCA_FUEL"),
                                ("max_index", args.budget, "PCA_BUDGET"),
                                ("seed", args.seed, "PCA_SEED")):
            value = flag if flag is not None else _env_int(env)
            if value is not None:
                given[name] = value
        return Run(**given)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _report_scenario(rep: ScenarioReport, args) -> int:
    # Deeper traces would outgrow the JSON encoder's host stack.
    depth = MAX_NESTING if args.trace_depth < 0 else min(args.trace_depth, MAX_NESTING)
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
        print(json.dumps(payload))
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


def _scenario_text(path: str) -> str:
    """The scenario at ``path`` (``-`` for stdin), decoded as UTF-8."""
    if path == "-":
        if sys.stdin is None:  # started with file descriptor 0 closed
            raise OSError("stdin is closed")
        return sys.stdin.buffer.read().decode("utf-8")
    with open(path, "rb") as fp:
        return fp.read().decode("utf-8")


def _cmd_run(args) -> int:
    # Imported here: the scenario layer is only needed to run a scenario.
    from .scenarios import ScenarioError, run_scenario

    run = _config(args)
    try:
        text = _scenario_text(args.file)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        where = "stdin" if args.file == "-" else args.file
        print(f"error: {where} is not UTF-8 text: {exc.reason} at byte {exc.start}", file=sys.stderr)
        return 2
    try:
        rep = run_scenario(text, run)
    except ScenarioError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    for w in rep.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return _report_scenario(rep, args)


def _cmd_suite(args) -> int:
    # Imported here: the suites load the checker, names and realizers.
    from .suites import run_suite

    run = _config(args)
    ids = SUITE_IDS if args.id == "all" else [args.id]
    reports = [run_suite(i, run) for i in ids]
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
        print(json.dumps(payload))
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
    # Imported here: the realizer library loads names and formulas with it.
    from .realizers import LIBRARY, realizer_term

    if not args.id:
        print("\n".join(sorted(LIBRARY)))
        return 0
    try:
        term = realizer_term(args.id)
    except KeyError as exc:
        # str() of a KeyError is the repr of its message, quotes and all.
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    print(print_term(term))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if BACKEND_ERROR is not None:
        print(f"error: {BACKEND_ERROR}", file=sys.stderr)
        return 2
    try:
        if args.command == "run":
            code = _cmd_run(args)
        elif args.command == "suite":
            code = _cmd_suite(args)
        else:
            code = _cmd_print(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (`extreal … | head`).  Point it at devnull,
        # so that the flush at exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
