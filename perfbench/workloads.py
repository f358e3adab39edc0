"""The benchmark's workloads: seeded inputs and the checks on their outputs.

Each workload turns a seed into a job: one extreal command line plus, for
scenarios, the outcome every directive must print.  Expected outcomes come
from construction or from the rules documented at each generator, never from
extreal's own output.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

WORKLOADS = ("suite-all", "lambda-ladder", "check-mix")

# suite-all runs the suites' fixed default corpus whatever the run seed.
# Across suite seeds 0-39 the machine steps of `suite all` spread by 0.23
# (quartile distance over median), and seed 11 crashes the truth-oracle
# suite, so a seeded corpus would measure the seed rather than the program.
SUITE_SEED = 0
LADDER_DEPTHS = range(8, 15)
CHECK_MIX_SIZE = 100


@dataclass
class Job:
    """One extreal invocation and what its output must contain."""

    args: list[str]
    scenario: str | None = None  # file contents; its path ends the command line
    expected: list[tuple[str, str]] | None = None  # (kind, outcome) per directive


def make_job(workload: str, seed: int, *, size: int | None = None, wrong: bool = False) -> Job:
    """The workload's input for one run.  For self-tests, ``size`` shrinks
    it (suite-all then runs one quick suite) and ``wrong`` flips the expected
    verdict of the first check directive."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "suite-all":
        return Job(["--json", "--seed", str(SUITE_SEED), "suite", "all" if size is None else "pca-laws"])
    if workload == "lambda-ladder":
        lines, expected = lambda_ladder(rng, LADDER_DEPTHS if size is None else range(2, 2 + size))
    elif workload == "check-mix":
        lines, expected = check_mix(rng, size or CHECK_MIX_SIZE)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if wrong:
        _plant_wrong(lines, expected)
    return Job(["--json", "run"], "\n".join(lines) + "\n", expected)


# ---------------------------------------------------------------------------
# lambda-ladder: user-typed binder ladders, answers known by construction.


def lambda_ladder(rng: random.Random, depths) -> tuple[list[str], list[tuple[str, str]]]:
    """For each depth n, ``lad<n> sel<n> #a1 ... #an`` reduces to ``#ak``:
    the ladder applies its first argument to the rest, and sel<n> returns
    its k-th argument."""
    lines, expected = [], []
    for n in depths:
        xs = [f"x{i}" for i in range(n + 1)]
        ys = [f"y{i}" for i in range(1, n + 1)]
        k = rng.randint(1, n)
        nums = [rng.randrange(100) for _ in range(n)]
        lines.append(f"term lad{n} = \\{' '.join(xs)}. {' '.join(xs)}")
        lines.append(f"term sel{n} = \\{' '.join(ys)}. y{k}")
        lines.append(f"eval lad{n} sel{n} {' '.join(f'#{a}' for a in nums)} expect #{nums[k - 1]}")
        expected.append(("eval", f"#{nums[k - 1]}"))
    return lines, expected


# ---------------------------------------------------------------------------
# check-mix: checker traffic with verdicts fixed by documented rules.
#
#   (i_r, i_r) realizes eq(x, x) for every name x (reflexivity); on finite
#     names the checker decides it exhaustively: realized.
#   (K, K) on eq(nat i, nat j) with i != j: no realizer exists and numeral
#     equality is decidable: refuted.
#   (P #i ir, P #i ir) on mem(nat i, omega): the key #i selects nat i and i_r
#     realizes nat i = nat i: realized.
#   omega, F o and F (o)o are infinite schematic names; the soundness rule
#     forbids affirming eq(x, x) on them from samples: unknown.
#   synth-roundtrip on the bounded-arithmetic fragment: synthesis and the
#     checker agree with arithmetic truth (nat n is n, mem is <, eq is =).

_SCHEMATIC = ("omega", "F o", "F (o)o")
# Directives per kind in 100; the rest are synth-roundtrips.  The counts are
# fixed and the costly parameters (the omega index, the schematic name) are
# dealt from fixed multisets, so that the seed changes the inputs but hardly
# the work: a seeded mix would otherwise spread by a third in machine steps.
_MIX = (("hf", 30), ("pair", 15), ("neq", 15), ("omega", 20), ("schematic", 3))
_OMEGA_KEYS = 10


def check_mix(rng: random.Random, size: int) -> tuple[list[str], list[tuple[str, str]]]:
    kinds: list[str] = []
    for kind, per_100 in _MIX:
        kinds += [kind] * max(1, round(size * per_100 / 100))
    kinds += ["synth"] * (size - len(kinds))
    rng.shuffle(kinds)
    omega_keys = [i % _OMEGA_KEYS for i in range(kinds.count("omega"))]
    rng.shuffle(omega_keys)
    schematic = [_SCHEMATIC[i % len(_SCHEMATIC)] for i in range(kinds.count("schematic"))]
    lines = ["realizer ir = i_r"]
    expected = []
    for idx, kind in enumerate(kinds):
        if kind == "hf":
            lines.append(f"name h{idx} = {_hf_name(rng, 2)}")
            lines.append(f"check (ir, ir) eq(h{idx}, h{idx}) expect realized")
            expected.append(("check", "realized"))
        elif kind == "pair":
            lines.append(f"name p{idx} = {_pair_name(rng)}")
            lines.append(f"check (ir, ir) eq(p{idx}, p{idx}) expect realized")
            expected.append(("check", "realized"))
        elif kind == "neq":
            i, j = rng.sample(range(12), 2)
            lines.append(f"check (K, K) eq(nat {i}, nat {j}) expect refuted")
            expected.append(("check", "refuted"))
        elif kind == "omega":
            i = omega_keys.pop()
            lines.append(f"check ((P #{i} ir), (P #{i} ir)) mem(nat {i}, omega) expect realized")
            expected.append(("check", "realized"))
        elif kind == "schematic":
            x = schematic.pop()
            lines.append(f"check (ir, ir) eq({x}, {x}) expect unknown")
            expected.append(("check", "unknown"))
        else:
            text, truth = _arith_formula(rng)
            lines.append(f"synth-roundtrip {text} expect agree")
            expected.append(("synth-roundtrip", f"truth={truth} realizers={truth}"))
    return lines, expected


def _hf_name(rng: random.Random, depth: int) -> str:
    """A random hereditarily finite explicit name, keys (#j, #j)."""
    members = []
    for j in range(rng.randint(1, 3)):
        if depth > 0 and rng.random() < 0.4:
            member = _hf_name(rng, depth - 1)
        else:
            member = f"nat {rng.randrange(5)}"
        members.append(f"(#{j}, #{j}, {member})")
    return "{ " + "; ".join(members) + " }"


def _pair_name(rng: random.Random) -> str:
    a, b = rng.randrange(5), rng.randrange(5)
    inner = f"(sing (nat {a}))" if rng.random() < 0.3 else f"(nat {a})"
    return rng.choice((f"opair {inner} (nat {b})", f"upair {inner} (nat {b})", f"sing {inner}"))


def _arith_formula(rng: random.Random) -> tuple[str, bool]:
    """A closed bounded-arithmetic sentence and its truth value."""
    text, value = _arith(rng, 2, {})
    return text, value({})


def _arith(rng: random.Random, depth: int, scope: dict[str, int]):
    """(text, evaluator) for a formula over the bound variables in scope;
    the evaluator maps variable values to the formula's truth."""
    roll = rng.random()
    if depth == 0 or roll < 0.35:
        return _arith_atom(rng, scope)
    if roll < 0.55:
        var = f"v{len(scope)}"
        bound = rng.randint(0, 4)
        body, fn = _arith(rng, depth - 1, {**scope, var: bound})
        if rng.random() < 0.5:
            return (f"(all {var} in nat {bound}. {body})",
                    lambda env: all(fn({**env, var: m}) for m in range(bound)))
        return (f"(ex {var} in nat {bound}. {body})",
                lambda env: any(fn({**env, var: m}) for m in range(bound)))
    if roll < 0.65:
        body, fn = _arith(rng, depth - 1, scope)
        return f"~{body}", lambda env: not fn(env)
    (lt, lf), (rt, rf) = _arith(rng, depth - 1, scope), _arith(rng, depth - 1, scope)
    op = rng.choice(("/\\", "\\/", "=>"))
    if op == "/\\":
        return f"({lt} /\\ {rt})", lambda env: lf(env) and rf(env)
    if op == "\\/":
        return f"({lt} \\/ {rt})", lambda env: lf(env) or rf(env)
    return f"({lt} => {rt})", lambda env: (not lf(env)) or rf(env)


def _arith_atom(rng: random.Random, scope: dict[str, int]):
    def term():
        if scope and rng.random() < 0.6:
            var = rng.choice(sorted(scope))
            return var, lambda env: env[var]
        n = rng.randrange(5)
        return f"nat {n}", lambda env: n

    (xt, xf), (yt, yf) = term(), term()
    if rng.random() < 0.5:
        return f"mem({xt}, {yt})", lambda env: xf(env) < yf(env)
    return f"eq({xt}, {yt})", lambda env: xf(env) == yf(env)


def _plant_wrong(lines: list[str], expected: list[tuple[str, str]]) -> None:
    """Flip the first check directive's verdict in the scenario and the list."""
    flip = {"realized": "refuted", "refuted": "realized", "unknown": "realized"}
    checks = [pos for pos, line in enumerate(lines) if line.startswith("check ")]
    if not checks:
        raise ValueError("no check directive to plant a false expectation in")
    pos = checks[0]
    body, _, verdict = lines[pos].rpartition(" expect ")
    lines[pos] = f"{body} expect {flip[verdict]}"
    i = sum(line.startswith(("check ", "eval ", "synth-roundtrip ")) for line in lines[:pos])
    expected[i] = ("check", flip[verdict])


# ---------------------------------------------------------------------------
# Output checks


def operations(job: Job, stdout: str) -> list[tuple] | None:
    """The per-case or per-directive results of a finished job, as
    comparable tuples whose last field is extreal's own ok flag, or None
    when the output is not the expected JSON."""
    try:
        payload = json.loads(stdout)
        if job.expected is None:
            return [(s["suite"], c["name"], c["detail"], c["ok"])
                    for s in payload["suites"] for c in s["cases"]]
        return [(d["line"], d["kind"], d["outcome"], d["ok"]) for d in payload["directives"]]
    except (ValueError, KeyError, TypeError):
        return None


def failed_ops(job: Job, ops: list[tuple]) -> set[int]:
    """Indices of operations whose result is wrong by the job's rules."""
    if job.expected is None:  # suites: every law case must hold
        return {i for i, op in enumerate(ops) if not op[-1]}
    bad = set(range(len(job.expected), len(ops)))
    for i, (kind, outcome) in enumerate(job.expected):
        if i >= len(ops) or ops[i][1:] != (kind, outcome, True):
            bad.add(i)
    return bad


