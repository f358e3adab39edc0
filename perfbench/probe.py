"""Traced in-process run of one extreal command.

Usage: python perfbench/probe.py OUT.json RUN_ID -- <extreal arguments>

The probe imports ``extreal.cli``, rebinds the public functions of each layer
in every ``extreal.*`` module namespace that holds them, runs
``extreal.cli.main`` on the arguments and writes the spans and counters to
OUT.json.  The command's own output goes to stdout as usual.  extreal itself
is not modified: spans and counts are taken only at the wrapped boundaries.

Only the outermost call of each layer is recorded.  On the pure backend the
kernel's machine functions are the machine module's own, so
``apply_values`` reaches ``apply_value`` through a wrapped global; counting
that inner call would make the two backends disagree.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from collections import Counter
from time import perf_counter

# layer -> (defining module, function) pairs, as imported by extreal itself.
LAYERS: dict[str, list[tuple[str, str]]] = {
    "parser": [("parser", "parse")],
    "bracket": [("bracket", "compile_term"), ("bracket", "abstract")],
    "machine": [
        ("kernel", "eval_term"),
        ("kernel", "apply_value"),
        ("kernel", "apply_values"),
        ("kernel", "kleene_eq"),
    ],
    "kernel": [("kernel", "project"), ("kernel", "pair_value")],
    "names": [("names", "lookup_triples"), ("names", "enumerate_triples"), ("names", "eq_type")],
    "checker": [("checker", "check"), ("checker", "check_imp_on_witnesses"), ("checker", "truth_eval")],
    "realizers": [("realizers", "realizer_term"), ("realizers", "synthesize"), ("realizers", "value_of")],
    "driver": [("suites", "run_suite"), ("scenarios", "run_scenario"), ("cli", "main")],
}


def tree_size(root) -> int:
    """Nodes of a term read as a tree (shared subterms count every time)."""
    from extreal.terms import App

    sizes: dict[int, int] = {}
    stack = [root]
    while stack:
        t = stack[-1]
        if id(t) in sizes:
            stack.pop()
            continue
        if isinstance(t, App):
            todo = [c for c in (t.fun, t.arg) if isinstance(c, App) and id(c) not in sizes]
            if todo:
                stack.extend(todo)
                continue
            sizes[id(t)] = 1 + sizes.get(id(t.fun), 1) + sizes.get(id(t.arg), 1)
        else:
            sizes[id(t)] = 1
        stack.pop()
    return sizes[id(root)]


class Tracer:
    """Spans and counters for one run, kept in memory until ``dump``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [layer, start, end, parent index, run id]
        self.stack: list[int] = []
        self.active = dict.fromkeys(LAYERS, False)
        self.counts: Counter = Counter()
        from extreal.checker import Status, Verdict
        from extreal.terms import Defined, FuelExhausted, MachineError, Tri

        self._types = (Defined, FuelExhausted, MachineError, Tri, Verdict, Status)

    def _count(self, layer: str, name: str, out, parent: int) -> None:
        Defined, FuelExhausted, _, Tri, Verdict, Status = self._types
        c = self.counts
        c[f"{layer}.calls"] += 1
        if layer == "machine":
            if parent >= 0 and self.spans[parent][0] == "kernel":
                c["kernel.machine_calls"] += 1
            if isinstance(out, (Defined, FuelExhausted)):
                c["machine.steps"] += out.steps
            # kleene_eq answers UNKNOWN exactly when a side ran out of fuel.
            if isinstance(out, FuelExhausted) or out is Tri.UNKNOWN:
                c["machine.fuel_exhausted"] += 1
        elif layer == "bracket":
            c["bracket.out_nodes"] += tree_size(out)
        elif layer == "checker" and isinstance(out, Verdict):
            c["checker.visits"] += out.samples_checked
            c["checker.unknown"] += out.status is Status.UNKNOWN
        elif layer == "names" and name != "eq_type":
            c["names.truncated"] += not out[1]

    def wrap(self, layer: str, name: str, fn):
        machine_error = self._types[2]

        def traced(*args, **kwargs):
            if self.active[layer]:
                return fn(*args, **kwargs)
            self.active[layer] = True
            parent = self.stack[-1] if self.stack else -1
            span = [layer, perf_counter(), 0.0, parent, self.run_id]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                self.counts[f"{layer}.calls"] += 1
                if isinstance(exc, machine_error):
                    self.counts[f"{layer}.errors"] += 1
                raise
            finally:
                span[2] = perf_counter()
                self.stack.pop()
                self.active[layer] = False
            self._count(layer, name, out, parent)
            return out

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "extreal" or n.startswith("extreal."))]
        for layer, targets in LAYERS.items():
            for modname, name in targets:
                orig = getattr(importlib.import_module(f"extreal.{modname}"), name)
                wrapper = self.wrap(layer, name, orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)

    def self_times(self) -> dict[str, float]:
        """Per layer: span durations minus the time their child spans cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        out = dict.fromkeys(LAYERS, 0.0)
        for s, t in zip(self.spans, own):
            out[s[0]] += t
        return out

    def dump(self, path: str, exit_code: int) -> None:
        """Write a summary to PATH (all the benchmark reads back) and the
        spans beside it, to PATH with the suffix .spans.json."""
        from extreal.kernel import BACKEND
        from extreal.terms import _INTERN

        with open(os.path.splitext(path)[0] + ".spans.json", "w", encoding="utf-8") as fp:
            json.dump({"run_id": self.run_id, "fields": ["layer", "start", "end", "parent", "run_id"],
                       "spans": self.spans}, fp)
        summary = {
            "run_id": self.run_id,
            "backend": BACKEND,
            "exit_code": exit_code,
            "counts": dict(self.counts),
            "self_s": self.self_times(),
            "intern_entries": len(_INTERN),
        }
        with open(path, "w", encoding="utf-8") as fp:
            json.dump(summary, fp)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    out_path, run_id, cli_args = argv[0], argv[1], argv[3:]
    import extreal.cli  # noqa: F401  (loads every layer before rebinding)

    tracer = Tracer(run_id)
    tracer.install()
    code = 1
    try:
        code = sys.modules["extreal.cli"].main(cli_args)
    finally:
        sys.stdout.flush()
        tracer.dump(out_path, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
