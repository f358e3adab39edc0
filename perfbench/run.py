#!/usr/bin/env python3
"""extreal benchmark: cold CLI executions on the pure and compiled backends.

Usage:
    python3 perfbench/run.py --workload {suite-all,lambda-ladder,check-mix}
                             --seed N --seconds S --trace {0,1}

Run from the repository root.  Set-up builds ``extreal._speedup`` from the
committed ``src/extreal/_speedup.c`` with the system C compiler (cached
under ``.bench_build/`` by a hash of the source and flags), stages a copy of
the package with the extension in a temporary directory there, and writes
the workload's generated input beside it.  Nothing under ``src/`` changes.

The load is a closed loop with one client: every execution is a fresh
``python -m extreal.cli`` process started after the previous one ended.

``--trace 0`` times the workload for about S seconds, alternating the two
backends with runs of ``perfbench/reference.py`` that sample the host's
speed, and reports the end-to-end metrics with times scaled to a fixed host
speed.  ``--trace 1`` runs the
workload once untraced and once under ``perfbench/probe.py`` per backend and
reports the per-layer metrics.  Either way every output is checked, and the
last line of stdout is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the metrics and how to read them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import sysconfig
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from probe import LAYERS
from workloads import WORKLOADS, Job, failed_ops, make_job, operations

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "extreal"
BUILD = ROOT / ".bench_build"
BACKENDS = ("pure", "compiled")
SETUP_IMPORTS = 8  # fresh imports per backend behind setup_s
CHILD_TIMEOUT = 60.0  # seconds; a child still running then is killed
# Timings are reported at a fixed host speed: a mean wall time multiplied by
# REF_SECONDS over the mean wall time of reference.py runs interleaved with
# the timed ones.  REF_SECONDS is about what reference.py takes on the 2-vCPU
# host the baseline was measured on; see "Timing estimator" in README.md.
REF_SECONDS = 0.16
REF_SHARE = 0.12  # reference time after each execution, as a share of its wall time
COUNTS = (
    "parser.calls", "bracket.calls", "bracket.out_nodes",
    "machine.calls", "machine.steps", "machine.fuel_exhausted", "machine.errors",
    "kernel.calls", "kernel.machine_calls", "names.calls", "names.truncated",
    "checker.calls", "checker.visits", "checker.unknown", "realizers.calls",
)
# Self times of layers that some workload never calls (parser on suite-all;
# kernel, names, checker and realizers on lambda-ladder) read exactly 0 on
# every run of it: they are printed but left out of the JSON line.
PRINT_ONLY = {f"{layer}.self_s.{b}" for layer in ("parser", "kernel", "names", "checker", "realizers")
              for b in BACKENDS}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# Set-up: compiled extension and staged package


def build_speedup() -> Path:
    """Compile _speedup.c once per source and flag set; return the .so."""
    c_file = SRC / "_speedup.c"
    if not c_file.is_file():
        raise BenchError(f"{c_file.relative_to(ROOT)} not found: cannot build the compiled backend")
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    cmd = shlex.split(sysconfig.get_config_var("CC") or "cc") + [
        "-shared", "-fPIC", "-O2", "-fwrapv", "-DNDEBUG",
        "-I" + sysconfig.get_paths()["include"],
    ]
    key = hashlib.sha256(c_file.read_bytes() + repr((cmd, sys.version)).encode()).hexdigest()[:16]
    out = BUILD / f"speedup-{key}" / f"_speedup{suffix}"
    if out.is_file():
        return out
    out.parent.mkdir(parents=True, exist_ok=True)
    partial = out.with_name(f"{out.name}.{os.getpid()}.part")
    proc = subprocess.run(cmd + [str(c_file), "-o", str(partial)], capture_output=True, text=True)
    if proc.returncode != 0:
        partial.unlink(missing_ok=True)
        raise BenchError(f"building {c_file.name} failed:\n{proc.stderr[-3000:]}")
    os.replace(partial, out)
    return out


def stage_package(tmp: Path, so: Path) -> Path:
    """A copy of src/extreal with the extension inside; returns its root."""
    pkg = tmp / "pkg" / "extreal"
    pkg.mkdir(parents=True)
    for src in SRC.glob("*.py"):
        shutil.copy2(src, pkg / src.name)
    shutil.copy2(so, pkg / so.name)
    return pkg.parent


# ---------------------------------------------------------------------------
# Child executions


def _kill_group(proc: subprocess.Popen) -> None:
    """Kill the launcher's process group and wait until all of it is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


@dataclass
class Execution:
    wall: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


class Children:
    """Starts one child at a time, through launch.py, and waits for it."""

    def __init__(self, pkg_root: Path, tmp: Path):
        self.tmp = tmp
        self.pkg_root = pkg_root

    def env(self, backend: str) -> dict[str, str]:
        env = {k: v for k, v in os.environ.items() if not k.startswith(("PCA_", "PYTHON"))}
        env.update(PYTHONPATH=str(self.pkg_root), PCA_BACKEND=backend, PYTHONHASHSEED="0")
        return env

    def run(self, backend: str, argv: list[str]) -> Execution:
        result = self.tmp / "launch.out"
        result.unlink(missing_ok=True)
        cmd = [sys.executable, "-S", "-E", str(HERE / "launch.py"), str(result), sys.executable, *argv]
        with open(self.tmp / "stdout", "w+") as out, open(self.tmp / "stderr", "w+") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env(backend),
                                    cwd=self.tmp, start_new_session=True)
            try:
                code = proc.wait(timeout=CHILD_TIMEOUT)
            except BaseException as exc:  # timed out or interrupted: stop the whole group
                _kill_group(proc)
                if not isinstance(exc, subprocess.TimeoutExpired):
                    raise
                err.write(f"\nkilled after {CHILD_TIMEOUT} s\n")
                code = -signal.SIGKILL
            wall, rss_kib = (result.read_text().split() if result.is_file() else (CHILD_TIMEOUT, 0))
            out.seek(0)
            err.seek(0)
            return Execution(float(wall), int(rss_kib) / 1024, code, out.read(), err.read())

    def cli(self, backend: str, args: list[str]) -> Execution:
        return self.run(backend, ["-m", "extreal.cli", *args])

    def probe(self, backend: str, args: list[str], out: Path) -> Execution:
        return self.run(backend, [str(HERE / "probe.py"), str(out), out.stem, "--", *args])

    def reference(self) -> float:
        """Wall time of reference.py in a fresh interpreter."""
        ex = self.run("pure", ["-S", "-E", str(HERE / "reference.py")])
        if ex.code != 0:
            raise BenchError(f"reference.py failed with exit {ex.code}:\n{ex.stderr}")
        return ex.wall

    def import_time(self, backend: str) -> float:
        code = ("import time; t = time.perf_counter(); import extreal.cli; "
                "t = time.perf_counter() - t; from extreal.kernel import BACKEND; print(BACKEND, t)")
        ex = self.run(backend, ["-c", code])
        name, _, seconds = ex.stdout.strip().partition(" ")
        if ex.code != 0 or name != backend:
            raise BenchError(f"importing extreal.cli on {backend} gave backend {name!r}:\n{ex.stderr}")
        return float(seconds)


# ---------------------------------------------------------------------------
# Correctness bookkeeping


@dataclass
class Tally:
    """Operations (suite cases or scenario directives) attempted and failed,
    over both backends."""

    job: Job
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    cases: int = 1  # most suite cases seen: what a crashed suite run fails
    first: dict[str, list[tuple]] = field(default_factory=dict)  # each backend's first results

    def check(self, results: dict[str, Execution]) -> None:
        """Score at most one execution per backend.  A result that differs
        from the other backend's, in ``results`` or else its first, fails;
        a crash fails every operation."""
        ops = {b: self._ops(ex) for b, ex in results.items()}
        for b, got in ops.items():
            if got is None:
                self.problems.append(f"{b}: exit {results[b].code}: {results[b].stderr.strip()[-300:]}")
            else:
                self.cases = max(self.cases, len(got))
        n = len(self.job.expected) if self.job.expected is not None else self.cases
        for b, got in ops.items():
            self.attempted += n
            if got is None:
                self.failed += n
                continue
            wrong = failed_ops(self.job, got) | set(range(len(got), n))
            other_b = "compiled" if b == "pure" else "pure"
            other = ops.get(other_b) or self.first.get(other_b)
            self.first.setdefault(b, got)
            if other is not None:
                wrong |= {i for i in range(min(len(got), len(other))) if got[i] != other[i]}
            wrong = {i for i in wrong if i < n}
            if wrong:
                i = min(wrong)
                self.problems.append(f"{b}: {len(wrong)} wrong, first {got[i] if i < len(got) else 'missing'}")
            self.failed += len(wrong)

    def _ops(self, ex: Execution) -> list[tuple] | None:
        """The execution's results, or None for a crash or an unexpected exit code."""
        if "Traceback" in ex.stderr:
            return None
        ops = operations(self.job, ex.stdout)
        if ops is None:
            return None
        want = 1 if any(not op[-1] for op in ops) else 0
        return ops if ex.code == want else None


# ---------------------------------------------------------------------------
# Measurement


def timed_loop(kids: Children, argv: list[str], seconds: float, tally: Tally) -> dict[str, dict]:
    """Closed loop: rounds of executions on every backend until the time is
    up.  The first round runs each backend once; later ones run each backend
    as often as it takes to fill one execution of the slowest, so that every
    backend's mean covers a like share of the run.  The backend that goes
    first alternates from one round to the next.  After each execution
    reference.py runs, again and again until it has taken REF_SHARE of that
    execution's wall time, so that the host's speed is sampled as long as
    each workload's runs last."""
    walls = {b: [] for b in BACKENDS}
    rss = {b: [] for b in BACKENDS}
    refs = []
    repeats = dict.fromkeys(BACKENDS, 1)
    start = time.perf_counter()
    rounds = 0
    # Start another round only if it ends nearer to the deadline than now.
    while rounds == 0 or (time.perf_counter() - start) * (1 + 0.5 / rounds) < seconds:
        order = BACKENDS if rounds % 2 == 0 else BACKENDS[::-1]
        for b in order:
            for _ in range(repeats[b]):
                ex = kids.cli(b, argv)
                tally.check({b: ex})
                walls[b].append(ex.wall)
                rss[b].append(ex.rss_mb)
                spent = 0.0
                while not spent or spent < REF_SHARE * ex.wall:
                    refs.append(kids.reference())
                    spent += refs[-1]
        rounds += 1
        means = {b: statistics.mean(walls[b]) for b in BACKENDS}
        repeats = {b: max(1, round(max(means.values()) / means[b])) for b in BACKENDS}
    return {"walls": walls, "rss": rss, "refs": refs}


def probe(kids: Children, argv: list[str], tag: str, tally: Tally,
          backends: tuple[str, ...], untraced: bool) -> dict[str, dict]:
    """One probe execution per backend (and, with ``untraced``, a plain
    execution before it).  Returns each backend's summary; the counters must
    agree between backends."""
    traces = BUILD / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    out, results = {}, {}
    for b in backends:
        path = traces / f"{tag}.{b}.json"
        path.unlink(missing_ok=True)
        untraced_s = kids.cli(b, argv).wall if untraced else 0.0
        results[b] = kids.probe(b, argv, path)
        summary = json.loads(path.read_text()) if path.is_file() else {}  # a crash is scored below
        counts = summary.get("counts", {})
        out[b] = {
            "counts": {k: counts.get(k, 0) for k in COUNTS},
            "self_s": summary.get("self_s", dict.fromkeys(LAYERS, 0.0)),
            "intern_entries": summary.get("intern_entries", 0),
            "overhead_s": results[b].wall - untraced_s,
        }
    tally.check(results)
    first = out[backends[0]]["counts"]
    for b in backends[1:]:
        diff = {k: (first[k], out[b]["counts"][k]) for k in COUNTS if first[k] != out[b]["counts"][k]}
        if diff:
            tally.problems.append(f"counters differ between {backends[0]} and {b}: {diff}")
            tally.attempted += 1
            tally.failed += 1
    return out


def setup_time(kids: Children) -> tuple[float, float]:
    """Mean time to import extreal.cli, unscaled and scaled by the
    reference runs interleaved with the imports."""
    for b in BACKENDS:
        kids.import_time(b)  # the first import writes the bytecode caches
    imports, refs = [], []
    for _ in range(SETUP_IMPORTS):
        imports += [kids.import_time(b) for b in BACKENDS]
        refs.append(kids.reference())
    raw = statistics.mean(imports)
    return raw, raw * REF_SECONDS / statistics.mean(refs)


def end_to_end(kids, argv, args, tally, setup) -> dict[str, tuple[float, str]]:
    counts = probe(kids, argv, args.workload, tally, ("compiled",), untraced=False)["compiled"]["counts"]
    loop = timed_loop(kids, argv, args.seconds, tally)
    ref = statistics.mean(loop["refs"])
    scale = REF_SECONDS / ref
    print(f"# reference.py mean {ref:.4f} s over {len(loop['refs'])} runs: wall times below are scaled by {scale:.4f}")
    print(f"# unscaled: setup_s {setup[0]:.4f}"
          + "".join(f", wall_s.{b} {statistics.mean(loop['walls'][b]):.4f}" for b in BACKENDS))
    metrics = {"setup_s": (setup[1], "s")}
    for b in BACKENDS:
        metrics[f"wall_s.{b}"] = (statistics.mean(loop["walls"][b]) * scale, "s")
    for b in BACKENDS:
        metrics[f"peak_rss_mb.{b}"] = (statistics.median(loop["rss"][b]), "MB")
    metrics["machine_steps"] = (counts["machine.steps"], "steps")
    metrics["code_nodes"] = (counts["bracket.out_nodes"], "nodes")
    for b in BACKENDS:
        print(f"# {b} walls: {' '.join(f'{w:.3f}' for w in loop['walls'][b])}")
    print(f"# reference walls: {' '.join(f'{w:.3f}' for w in loop['refs'])}")
    return metrics


def per_layer(kids, argv, args, tally) -> dict[str, tuple[float, str]]:
    probes = probe(kids, argv, args.workload, tally, BACKENDS, untraced=True)
    counts = probes["compiled"]["counts"]
    units = {"machine.steps": "steps", "bracket.out_nodes": "nodes"}
    metrics = {k: (counts[k], units.get(k, "count")) for k in COUNTS}
    for b in BACKENDS:
        p = probes[b]
        for layer in LAYERS:
            metrics[f"{layer}.self_s.{b}"] = (p["self_s"][layer], "s")
        machine_s = p["self_s"]["machine"]
        metrics[f"machine.steps_per_s.{b}"] = (counts["machine.steps"] / machine_s if machine_s else 0.0, "1/s")
        metrics[f"terms.intern_entries.{b}"] = (p["intern_entries"], "count")
        metrics[f"trace.overhead_s.{b}"] = (p["overhead_s"], "s")
    return metrics


def run(args) -> dict:
    if not (SRC / "cli.py").is_file():
        raise BenchError(f"{SRC.relative_to(ROOT)} not found: run from an extreal checkout")
    so = build_speedup()
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=BUILD))
    try:
        setup_start = time.perf_counter()
        kids = Children(stage_package(tmp, so), tmp)
        job = make_job(args.workload, args.seed, size=args.size, wrong=args.wrong)
        argv = list(job.args)
        if job.scenario is not None:
            (tmp / "job.scn").write_text(job.scenario)
            argv.append(str(tmp / "job.scn"))
        setup = setup_time(kids)
        print(f"# {args.workload}, seed {args.seed}: set-up took {time.perf_counter() - setup_start:.1f} s")
        tally = Tally(job)
        if args.trace:
            metrics = per_layer(kids, argv, args, tally)
        else:
            metrics = end_to_end(kids, argv, args, tally, setup)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for msg in tally.problems[:20]:
        print(f"# problem: {msg}")
    share = tally.failed / tally.attempted if tally.attempted else 1.0
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:>16.6f}  {unit}" if isinstance(value, float)
              else f"{name:<{width}}  {value:>16}  {unit}")
    print(f"{'fail_share':<{width}}  {share:>16.6f}  ratio  ({tally.failed}/{tally.attempted})")
    return {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items() if k not in PRINT_ONLY},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", type=int, default=None,
                    help="self-test only: shrink the generated input")
    ap.add_argument("--wrong", action="store_true",
                    help="self-test only: plant one false expectation")
    args = ap.parse_args(argv)
    # A terminated benchmark still removes its staging directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
