"""Scenario files and command-line behaviour."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from extreal import cli, suites
from extreal.scenarios import ScenarioError, run_scenario

ROOT = Path(__file__).resolve().parent.parent
DEMO = ROOT / "scenarios" / "demo.scn"


def test_declarations_and_directives():
    rep = run_scenario(
        """
        -- a small scenario
        realizer ir = i_r
        name n4 = nat 4
        formula f = eq(n4, n4)
        check (ir, ir) f expect realized
        eval (P0 (P #1 #2)) expect #1
        check (K, K) eq(nat 1, nat 2) expect refuted
        """
    )
    assert rep.ok
    assert [r.kind for r in rep.results] == ["check", "eval", "check"]


def test_explicit_names_and_formula_operators():
    rep = run_scenario(
        """
        name x = { (#0, #0, nat 1); (#1, #1, nat 2) }
        name s = sing (nat 3)
        name p = opair (nat 1) (nat 2)
        realizer ir = i_r
        check (ir, ir) eq(x, x) expect realized
        check (ir, ir) eq(s, s) expect realized
        check ((P ir ir), (P ir ir)) eq(p, p) /\\ eq(nat 0, nat 0) expect realized
        synth-roundtrip ex y in nat 5. eq(nat 2, y)
        synth-roundtrip mem(nat 3, nat 2) expect agree
        """
    )
    assert rep.ok, [(r.text, r.outcome) for r in rep.results if not r.ok]


def test_internalized_and_graph_names():
    rep = run_scenario(
        """
        budget 3
        name fsucc = int SUCC : (o)o
        name fo = F o
        name foo = F (o)o
        realizer ir = i_r
        term idf = \\c. P c ir
        name gid = graph idf : o -> o
        check (ir, ir) eq(fsucc, fsucc) expect unknown
        check (ir, ir) eq(foo, foo) expect unknown
        check ((P #3 ir), (P #3 ir)) mem(nat 3, fo) expect realized
        -- graph names over the base type index decidably
        check ((P #2 ir), (P #2 ir)) mem(opair (nat 2) (nat 2), gid) expect realized
        """
    )
    assert rep.ok, [(r.text, r.outcome) for r in rep.results if not r.ok]


@pytest.mark.filterwarnings("ignore:internalizing a value")
@pytest.mark.parametrize("name", ["graph (\\x. #3 #3) : o -> o", "int (\\x. #3 #3) : (o)o"])
def test_crashing_function_names_have_no_member_at_that_key(name):
    # The function crashes on every key: the sampled enumeration finds no
    # member but is not exhaustive, and the lookup at key #1 is empty.
    rep = run_scenario(
        f"""
        name g = {name}
        check (K, K) all z in g. eq(z, z) expect unknown
        check (P #1 #1, P #1 #1) mem(nat 0, g) expect refuted
        """
    )
    assert rep.ok, [(r.text, r.outcome) for r in rep.results]
    assert rep.results[1].trace.note == "empty exhaustive lookup"


# The law cases that fail unless both sides are seen to agree.
_TOTAL_LAWS = {
    "k-law", "d-law", "succ-pred", "pairing-projections", "identity", "k-s-compilations",
    "f-unfold-oracle", "primrec",
}


def test_failing_law_cases_carry_runnable_snippets(monkeypatch):
    # With every agreement left undecided, each total law fails; the laws
    # really hold, so a faithful snippet reproduces as a passing scenario.
    monkeypatch.setattr(suites, "kleene_agree", lambda *args: None)
    failed = set()
    for suite in (suites.suite_pca_laws, suites.suite_abstraction, suites.suite_fixpoints):
        for case in suite(0, rounds=2).failures:
            failed.add(case.name)
            # ``identity`` records a verdict only, without a snippet.
            assert case.snippet or case.name == "identity"
            if case.snippet:
                rep = run_scenario(case.snippet)
                assert rep.results and rep.ok, (case.name, case.snippet)
    assert failed == _TOTAL_LAWS


def test_check_with_witnesses_directive():
    rep = run_scenario(
        """
        realizer e0 = ax.infinity
        realizer ir = i_r
        term e0fwd = P0 e0
        -- forward infinity on the canonical zero witness
        check-with-witnesses ((P0 e0), (P0 e0)) mem(nat 0, omega) => (eq(nat 0, nat 0) \\/ ex z in omega. eq(nat 0, z)) witnesses [((P #0 ir), (P #0 ir))] expect unknown
        """
    )
    # The toy conclusion here is not the canonical successor formula, so the
    # witness-directed answer stays short of Realized; the directive runs and
    # the expectation is honoured either way.
    assert rep.results[0].kind == "check-with-witnesses"


def test_fuel_override_and_eval_fuel_exhausted():
    rep = run_scenario(
        """
        fuel 50
        eval ((\\x. x x) (\\x. x x)) expect fuel-exhausted
        """
    )
    assert rep.ok


def test_scenario_errors_carry_line_numbers():
    with pytest.raises(ScenarioError) as err:
        run_scenario("term t = ((K\n")
    assert "line 1" in str(err.value)
    with pytest.raises(ScenarioError):
        run_scenario("frobnicate everything\n")
    with pytest.raises(ScenarioError):
        run_scenario("realizer x = not-a-real-id\n")
    # Bad settings, expected sides with no value and over-deep terms, on line 2.
    for bad in _BAD_SECOND_LINES:
        with pytest.raises(ScenarioError) as err:
            run_scenario("eval K\n" + bad + "\n")
        assert err.value.line == 2, bad


_BAD_SECOND_LINES = [
    "fuel abc",
    "fuel 0",
    "budget -1",
    "seed x",
    "eval K expect zz",
    "eval K expect (#1 #2)",
    "term t = " + "(" * 500 + "K" + ")" * 500,
    "eval " + " ".join(["K"] * 1200),
    "term t = \\x. " + " ".join(["x"] * 500),
    "name n = int (K K) : nat",
    "name n = F nat",
    "synth-roundtrip mem(omega, omega)",
    "synth-roundtrip eq(u, nat 1)",
    "check (K, K) eq(u, u)",
    "check-with-witnesses (K, K) mem(u, omega) => eq(u, u) witnesses [(K, K)]",
    "check (K, K) " + "~" * 1500 + "eq(nat 1, nat 1)",
    "check (K, K) " + "(" * 600 + "eq(nat 1, nat 1)" + ")" * 600,
    "name n = F " + "(" * 1500 + "o" + ")o" * 1500,
    "name n = " + "sing (" * 1500 + "nat 1" + ")" * 1500,
    "name n = " + "{(K, K, " * 1500 + "nat 1" + ")}" * 1500,
]


def _deep_formulas(n):
    """Formulas n levels deep, each built a different way."""
    eq = "eq(nat 1, nat 1)"
    return {
        "negations": "~" * n + eq,
        "parentheses": "(" * n + eq + ")" * n,
        "conjunctions": " /\\ ".join([eq] * (n + 1)),
        "implications": " => ".join([eq] * (n + 1)),
        "quantifiers": "all x in nat 1. " * n + "eq(x, x)",
    }


def test_formulas_and_types_at_the_nesting_limit():
    from extreal.parser import MAX_NESTING

    for shape, phi in _deep_formulas(MAX_NESTING).items():
        rep = run_scenario(f"check (K, K) {phi}\nformula f = {phi}\ncheck (K, K) f\n")
        first, named = (r.outcome for r in rep.results)
        assert first == named and first in ("realized", "refuted", "unknown"), shape
    for shape, phi in _deep_formulas(MAX_NESTING + 1).items():
        with pytest.raises(ScenarioError, match="formula nesting deeper than"):
            run_scenario(f"check (K, K) {phi}\n")
    # A reference counts the height of the formula it names.
    half = "~" * (MAX_NESTING // 2)
    rep = run_scenario(f"formula f = {half}eq(nat 1, nat 1)\ncheck (K, K) {half}f\n")
    assert rep.results[0].outcome == "realized"
    with pytest.raises(ScenarioError, match="formula nesting deeper than"):
        run_scenario(f"formula f = {half}eq(nat 1, nat 1)\ncheck (K, K) ~{half}f\n")
    # Types nest on both sides of an arrow.
    for ty in ("(" * MAX_NESTING + "o" + ")o" * MAX_NESTING, "(o)" * MAX_NESTING + "o"):
        rep = run_scenario(f"name n = F {ty}\ncheck (K, K) ex x in n. eq(x, x)\n")
        assert rep.results[0].outcome in ("realized", "refuted", "unknown")
    for ty in ("(" * (MAX_NESTING + 1) + "o" + ")o" * (MAX_NESTING + 1), "(o)" * (MAX_NESTING + 1) + "o"):
        with pytest.raises(ScenarioError, match="type nesting deeper than"):
            run_scenario(f"name n = F {ty}\n")
    # Names nest through constructor arguments and explicit members.
    names = {
        "sing": lambda n: "sing (" * n + "nat 1" + ")" * n,
        "upair": lambda n: "upair (nat 0) (" * n + "nat 1" + ")" * n,
        "explicit": lambda n: "{(K, K, " * n + "nat 1" + ")}" * n,
    }
    for shape, name in names.items():
        rep = run_scenario(f"name n = {name(MAX_NESTING)}\ncheck (K, K) mem(nat 0, n)\n")
        assert rep.results[0].outcome in ("realized", "refuted", "unknown"), shape
        with pytest.raises(ScenarioError, match="name nesting deeper than"):
            run_scenario(f"name n = {name(MAX_NESTING + 1)}\n")
    # A reference counts the height of the name it names.
    k = MAX_NESTING // 2
    named = f"name m = {names['sing'](k)}\n"
    run_scenario(named + f"name n = {'sing (' * k}m{')' * k}\n")
    with pytest.raises(ScenarioError, match="name nesting deeper than"):
        run_scenario(named + f"name n = sing ({'sing (' * k}m{')' * k})\n")


def _cli(*args, stdin=None, env=None):
    """The CLI in a child process that imports extreal from this checkout."""
    env = dict(os.environ, **(env or {}))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "extreal.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )


def test_cli_run_exit_codes():
    good = _cli("run", "-", stdin="eval (SUCC #2) expect #3\n")
    assert good.returncode == 0, good.stderr
    bad = _cli("run", "-", stdin="check (K, K) eq(nat 1, nat 1) expect realized\n")
    assert bad.returncode == 1
    syntax = _cli("run", "-", stdin="eval ((K\n")
    assert syntax.returncode == 2
    for bad in _BAD_SECOND_LINES:
        out = _cli("run", "-", stdin="eval K\n" + bad + "\n")
        assert out.returncode == 2, (bad, out.stderr)
        assert out.stderr.startswith("parse error: line 2: ") and "Traceback" not in out.stderr


@pytest.mark.parametrize("command", [["run", str(DEMO)], ["suite", "pca-laws"]], ids=["run", "suite"])
@pytest.mark.parametrize("flags,env", [
    pytest.param(["--fuel", "0"], None, id="fuel-0"),
    pytest.param(["--fuel", "-5"], None, id="fuel-negative"),
    pytest.param(["--budget", "0"], None, id="budget-0"),
    pytest.param([], {"PCA_FUEL": "0"}, id="env-fuel-0"),
    pytest.param([], {"PCA_FUEL": "abc"}, id="env-fuel-abc"),
    pytest.param([], {"PCA_BUDGET": "-1"}, id="env-budget-negative"),
    pytest.param([], {"PCA_SEED": "abc"}, id="env-seed-abc"),
])
def test_cli_bad_settings_exit_2(flags, env, command):
    out = _cli(*flags, *command, env=env)
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("error: ") and len(out.stderr.splitlines()) == 1
    assert "Traceback" not in out.stderr


def test_cli_json_report():
    out = _cli("--json", "run", "-", stdin="eval (SUCC #2) expect #3\n")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["ok"] and payload["directives"][0]["outcome"] == "#3"


def test_cli_suite_and_seed_determinism():
    a = _cli("--seed", "3", "suite", "pca-laws")
    b = _cli("--seed", "3", "suite", "pca-laws")
    assert a.returncode == 0 and a.stdout == b.stdout


def test_cli_print():
    out = _cli("print", "i_r")
    assert out.returncode == 0 and out.stdout.strip().startswith("S")
    listing = _cli("print")
    assert "ax.pairing" in listing.stdout and "choice.o.o" in listing.stdout
    missing = _cli("print", "no-such")
    assert missing.returncode == 2


def test_cli_env_fallbacks():
    out = _cli("run", "-", stdin="eval ((\\x. x x) (\\x. x x)) expect fuel-exhausted\n",
               env={"PCA_FUEL": "60"})
    assert out.returncode == 0, out.stdout + out.stderr


@st.composite
def _mutated_demo(draw) -> str:
    """demo.scn with one to three token mutations on its directive lines."""
    lines = DEMO.read_text(encoding="utf-8").splitlines()
    code = [i for i, ln in enumerate(lines) if ln.strip() and not ln.lstrip().startswith("--")]
    for _ in range(draw(st.integers(1, 3))):
        idx = draw(st.sampled_from(code))
        toks = lines[idx].split()
        if not toks:  # emptied by an earlier deletion
            continue
        i = draw(st.integers(0, len(toks) - 1))
        op = draw(st.sampled_from(["delete", "duplicate", "swap", "integer"]))
        if op == "delete":
            del toks[i]
        elif op == "duplicate":
            toks.insert(i, toks[i])
        elif op == "swap":
            j = draw(st.integers(0, len(toks) - 1))
            toks[i], toks[j] = toks[j], toks[i]
        else:
            numeric = [k for k, tok in enumerate(toks) if re.search(r"\d", tok)]
            if numeric:
                k = draw(st.sampled_from(numeric))
                toks[k] = re.sub(r"\d+", str(draw(st.integers(0, 20))), toks[k], count=1)
        lines[idx] = " ".join(toks)
    return "\n".join(lines) + "\n"


@settings(
    max_examples=100,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_mutated_demo())
def test_mutated_demo_ends_in_an_exit_code(tmp_path_factory, text):
    # Every input ends in exit 0, 1 or 2 from the CLI, never an exception.
    path = tmp_path_factory.mktemp("mutant") / "demo.scn"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["run", str(path)]) in (0, 1, 2)
