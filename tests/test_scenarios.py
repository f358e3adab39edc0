"""Scenario files and command-line behaviour."""

import hashlib
import json
import os
import random
import re
import subprocess
import sys
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from extreal import cli, suites
from extreal.checker import Status, Trace, Verdict
from extreal.names import OMEGA, Explicit, Nat, OPair, Sing, UPair
from extreal.scenarios import ScenarioError, _Env, _read, _Reader, run_scenario
from extreal.terms import Run, num_value

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


@pytest.mark.parametrize("name", [
    "graph (\\x. #3 #3) : o -> o",
    "int (\\x. #3 #3) : (o)o",
    "graph (\\x. P K K) : o -> o",
    "int (\\x. K) : (o)o",
])
def test_crashing_function_names_have_no_member_at_that_key(name):
    # The function crashes on every key, or its image there is not a numeral
    # at codomain o, which has no member either: the sampled enumeration
    # finds no member but is not exhaustive, and the lookup at key #1 is empty.
    rep = run_scenario(
        f"""
        name g = {name}
        check (K, K) all z in g. eq(z, z) expect unknown
        check (P #1 #1, P #1 #1) mem(nat 0, g) expect refuted
        """
    )
    assert rep.ok, [(r.text, r.outcome) for r in rep.results]
    assert rep.results[1].trace.note == "empty exhaustive lookup"


def test_term_name_resolution_shares_subterms_without_names():
    from extreal.bracket import compile_term
    from extreal.parser import parse
    from extreal.scenarios import _Env, _resolve_term_names
    from extreal.terms import App, Num, Var

    env = _Env(Run(), [], terms={"two": Num(2)})
    plain = compile_term(parse(r"\x y. x y K"))
    assert _resolve_term_names(env, plain) is plain
    named = App(Var("two"), plain)
    out = _resolve_term_names(env, App(named, named))
    assert out == App(App(Num(2), plain), App(Num(2), plain))
    assert out.fun is out.arg and out.fun.arg is plain


# The law cases that fail unless both sides are seen to agree.
_TOTAL_LAWS = {
    "k-law", "d-law", "succ-pred", "pairing-projections", "numeral-injectivity", "identity",
    "k-s-compilations", "f-unfold-oracle", "primrec",
}


def test_failing_law_cases_carry_runnable_snippets(monkeypatch):
    # With every agreement left undecided, each total law fails; the laws
    # really hold, so a faithful snippet reproduces as a passing scenario.
    monkeypatch.setattr(suites, "kleene_agree", lambda *args: None)
    failed = set()
    for suite in (suites.suite_pca_laws, suites.suite_abstraction, suites.suite_fixpoints):
        for case in suite(Run(), rounds=2).failures:
            failed.add(case.name)
            # ``identity`` records a verdict only, without a snippet.
            assert case.snippet or case.name == "identity"
            if case.snippet:
                rep = run_scenario(case.snippet)
                assert rep.results and rep.ok, (case.name, case.snippet)
    assert failed == _TOTAL_LAWS


def test_a_crash_in_a_definedness_case_fails_that_case(monkeypatch):
    # With a numeral for the fixed point, every f a crashes: f-defined
    # records the failing instances, and the suite still reports.
    from extreal.terms import num

    monkeypatch.setattr(suites, "fixpoint", lambda: num(1))
    rep = suites.suite_fixpoints(Run(), rounds=2)
    failed = {c.name: c for c in rep.failures}
    assert "f-defined" in failed and failed["f-defined"].snippet.startswith("eval (#1 ")


@pytest.mark.parametrize("fuel", [1, 30])
def test_every_suite_reports_under_a_small_fuel(fuel):
    # A limit too small for a library term or a pair fails the cases that
    # need it; it never ends run_suite in an exception.
    cfg = Run(max_steps=fuel)
    for name in sorted(suites.SUITES):
        assert suites.run_suite(name, cfg).cases, name
    failed = {c.name: c.detail for c in suites.run_suite("czf-axioms", cfg).failures}
    assert failed["pairing"] == "no value: fuel exhausted"


def test_synth_roundtrip_under_a_small_fuel_reports():
    # Synthesis pairs values, which a fuel of 3 cannot: no realizer, as
    # when the fuel leaves the check Unknown.
    rep = run_scenario("fuel 3\nsynth-roundtrip ex y in nat 4. eq(nat 2, y)\n")
    assert [r.outcome for r in rep.results] == ["truth=True realizers=False"]


def test_an_implication_under_a_small_fuel_is_unknown():
    # The hypothesis witness is synthesized under the line's fuel, which
    # cannot pair values: the clause is open and names the limit, where the
    # default fuel's witness would have crashed SUCC into a refutation.
    script = "fuel 3\ncheck (SUCC, SUCC) mem(nat 1, nat 3) => eq(nat 0, nat 0) expect unknown\n"
    out = _cli("--json", "run", "-", stdin=script)
    assert out.returncode == 0 and out.stderr == "", out.stderr
    [directive] = json.loads(out.stdout)["directives"]
    assert directive["outcome"] == "unknown"
    assert directive["trace"]["note"] == "hypothesis witness synthesis stopped: fuel exhausted"


def test_an_int_name_is_sampled_under_the_current_fuel():
    # (\x. x K) crashes on every numeral, so it is not self-related at (o)o
    # and the name warns; a fuel of 5 cannot reach the crash, which leaves
    # the sampling open and the name without a warning.
    name = "name h = int (\\x. x K) : (o)o\n"
    assert run_scenario(name).warnings == [
        "line 1: internalizing a value that fails self-relatedness sampling at (o)o"
    ]
    assert run_scenario("fuel 5\n" + name).warnings == []


def test_a_crash_in_a_library_value_fails_its_block(monkeypatch):
    # A numeral for the choice realizer crashes when applied: the cases
    # that need it become one failing case, and the cases before it stay.
    from extreal.terms import num

    monkeypatch.setattr(suites, "choice_term", lambda: num(1))
    rep = suites.suite_choice_arrow(Run())
    assert [c.name for c in rep.cases] == ["graph-triples", "choice-arrow values"]
    assert rep.cases[0].ok and rep.cases[1].detail.startswith("no value: IllTypedApplication")


@pytest.mark.parametrize("which, site, failing", [
    # The clause-5 chain crashes at its last application, on the pair.
    ("choice", "RRRRRRLRRRLRRLRRLRRLRLRLRLRRLRR", ["choice-clause-5"]),
    # (e1 a)_1 · c crashes, before its projection.
    ("arrow", "RRRRRRRLRRRR", ["arrow-subset", "arrow-superset"]),
])
def test_a_crash_in_a_chained_step_fails_its_case(monkeypatch, which, site, failing):
    # One flipped literal of the choice or arrow term: a chain of operations
    # that crashes part-way fails the case that runs it, and the block's
    # other cases, before and after it, still report.
    from extreal.realizers import arrow_term, choice_term, term_mutants

    mutant = dict(term_mutants({"choice": choice_term, "arrow": arrow_term}[which]()))[site]
    monkeypatch.setattr(suites, f"{which}_term", lambda: mutant)
    rep = suites.suite_choice_arrow(Run())
    assert [c.name for c in rep.failures] == failing
    assert [c.name for c in rep.cases][-2:] == ["arrow-subset", "arrow-superset"]


@pytest.mark.parametrize("site", ["RLRRLRRRR", "RLRRRLRRLRRRR"])
def test_a_non_numeral_result_fails_its_case(monkeypatch, site):
    # Under these flipped literals of the arrow term, (e1 a)_0 · #n is
    # defined but not a numeral: the identity case fails, and the suite
    # reports on.
    from extreal.realizers import arrow_term, term_mutants

    mutant = dict(term_mutants(arrow_term()))[site]
    monkeypatch.setattr(suites, "arrow_term", lambda: mutant)
    rep = suites.run_suite("choice-arrow", Run())
    assert [c.name for c in rep.failures] == ["arrow-e1-identity"]
    assert [c.name for c in rep.cases][-2:] == ["arrow-subset", "arrow-superset"]


def test_a_type_sampled_under_a_tiny_fuel_gets_a_verdict():
    # A fuel of 3 cannot build every generator of F (o)o; the sample leaves
    # those out, and the check ends in a verdict, not a traceback.
    script = "fuel 3\nname f = F (o)o\ncheck (K, K) all x in f. eq(x, x)\n"
    out = _cli("run", "-", stdin=script)
    assert out.returncode == 0 and out.stderr == "", out.stderr
    assert "line 3 check: unknown" in out.stdout


def test_equality_snippets_declare_the_realizers_they_use(monkeypatch):
    # With every check left Unknown, the equality laws fail; they really
    # hold, so each snippet that is not a comment reproduces as a passing
    # scenario.  No random names (rounds=0), whose notes are comments, so
    # reflexivity's first note is its numeral snippet.
    unknown = Verdict(Trace("check", Status.UNKNOWN), 0)
    monkeypatch.setattr(suites, "check", lambda *args: unknown)
    ran = []
    for case in suites.suite_equality(Run(), rounds=0).failures:
        if not case.snippet.startswith("--"):
            rep = run_scenario(case.snippet)
            assert rep.results and rep.ok, (case.name, case.snippet)
            ran.append(case.name)
    assert ran == ["reflexivity", "numeral-absoluteness"]


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
    "name n = int K : o",
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


_DECLS = "realizer ir = i_r\nformula f = eq(nat 1, nat 1)\nformula ff = eq(nat 2, nat 2)\n"


@pytest.mark.parametrize("script,same_as", [
    # A formula reference is a whole identifier, not a prefix of the rest.
    pytest.param("check (P ir ir, P ir ir) ff /\\ f",
                 "check (P ir ir, P ir ir) eq(nat 2, nat 2) /\\ eq(nat 1, nat 1)", id="prefix-ref"),
    # A bound variable may begin with a name word, or carry a prime.
    *(pytest.param(f"check (K ir, K ir) all {v} in nat 2. eq({v}, {v})",
                   "check (K ir, K ir) all u in nat 2. eq(u, u)", id=f"var-{v}")
      for v in ("nature", "x'", "omegas", "singleton", "upairs", "opair2")),
    # A quantifier's bound is a whole name, whatever punctuation it holds.
    pytest.param("check (P (\\x. x) ir, P (\\x. x) ir) ex z in {(\\x. x, \\x. x, nat 1)}. eq(z, z)",
                 "name b = {(\\x. x, \\x. x, nat 1)}\n"
                 "check (P (\\x. x) ir, P (\\x. x) ir) ex z in b. eq(z, z)", id="explicit-bound"),
    pytest.param("check (K ir, K ir) all z in int (\\x. x) : (o)o. eq(z, z)",
                 "name b = int (\\x. x) : (o)o\ncheck (K ir, K ir) all z in b. eq(z, z)", id="int-bound"),
    # `witnesses` starts the witness block only as a whole word.
    pytest.param("formula witnessesf = eq(nat 1, nat 1)\n"
                 "check-with-witnesses (\\x. x, \\x. x) witnessesf => witnessesf witnesses [(ir, ir)]",
                 "check-with-witnesses (\\x. x, \\x. x) f => f witnesses [(ir, ir)]", id="witnesses-prefix"),
])
def test_reader_reads_what_string_slicing_misread(script, same_as):
    got, want = (run_scenario(_DECLS + text).results[-1].outcome for text in (script, same_as))
    assert got == want and got in ("realized", "refuted", "unknown")


def test_quantifier_binders_shadow_declared_names():
    # In a quantifier's body x is the bound variable, not the declared name
    # nat 3, so each check reads as it does with a fresh variable y.
    checks = ["all {v} in nat 2. eq({v}, nat 3)", "all {v} in nat 2. ex z in x. eq(z, {v})",
              "ALL {v}. eq({v}, {v})", "ex {v} in nat 3. eq({v}, nat 2)"]
    script = "realizer ir = i_r\nname x = nat 3\n" + "".join(
        f"check ((K ir), (K ir)) {c}\n" for c in checks)
    got, want = ([r.outcome for r in run_scenario(script.format(v=v)).results] for v in "xy")
    assert got == want and got[0] == "refuted"


@pytest.mark.parametrize("script,message", [
    ("check (K, K) all nat in nat 2. eq(nat 1, nat 1)", "name word 'nat' cannot be a bound variable"),
    ("check (K, K) EX omega. eq(omega, omega)", "name word 'omega' cannot be a bound variable"),
    ("name x = nat 3\ncheck (K, K) all x in nat 2. mem(x, sing x)", "bound variable 'x' where a name"),
    ("name nat = nat 1", "cannot declare name 'nat'"),
    ("formula all = eq(nat 1, nat 1)", "cannot declare formula 'all'"),
    ("term K = S", "cannot declare term 'K'"),
    ("realizer P0 = i_r", "cannot declare realizer 'P0'"),
    ("name x y = nat 1", "cannot declare name 'x y'"),
    ("term = K", "cannot declare term ''"),
    ("term expect = K", "cannot declare term 'expect'"),
    ("realizer expect = i_r", "cannot declare realizer 'expect'"),
    ("name expect = nat 1", "cannot declare name 'expect'"),
    ("formula expect = eq(nat 1, nat 1)", "cannot declare formula 'expect'"),
    # Open terms, and expectation words the directive does not take.
    ("eval xyz", "term 'xyz' is not closed: free variable(s) xyz"),
    ("term f = \\x. y\neval f #1", "line 1: term '\\\\x. y' is not closed: free variable(s) y"),
    ("eval K #1 #2 expect(#1)", "free variable(s) expect"),
    ("term t = K\neval t (b a) t", "free variable(s) a, b"),
    ("realizer ir = i_r\ncheck (ir, u) eq(nat 1, nat 1)", "term 'u' is not closed"),
    ("check (K, K) eq(nat 1, nat 1) expect realised", "bad expectation 'realised'"),
    ("check-with-witnesses (K, K) mem(nat 1, omega) => eq(nat 1, nat 1) witnesses [(K, K)] expect ok",
     "bad expectation 'ok': must be realized, refuted or unknown"),
    ("synth-roundtrip mem(nat 1, nat 2) expect agreed", "bad expectation 'agreed': must be agree or disagree"),
])
def test_unreachable_binders_and_declarations_are_errors(script, message):
    with pytest.raises(ScenarioError, match=re.escape(message)):
        run_scenario(script + "\n")


@pytest.mark.parametrize("line,ok", [
    ("eval #1 expect error", False),
    ("eval #1 expect fuel-exhausted", False),
    ("eval #1 expect #1", True),
    ("eval PRED #0 expect error", True),
    ("eval PRED #0 expect fuel-exhausted", False),
    ("eval PRED #0 expect #0", False),
    ("fuel 50\neval (\\x. x x) (\\x. x x) expect fuel-exhausted", True),
    ("fuel 50\neval (\\x. x x) (\\x. x x) expect error", False),
    ("synth-roundtrip mem(nat 1, nat 2) expect agree", True),
    ("synth-roundtrip mem(nat 1, nat 2) expect disagree", False),
])
def test_each_expectation_is_read_by_its_kind(line, ok):
    rep = run_scenario(line + "\n")
    assert [r.ok for r in rep.results] == [ok]


def _rows(script):
    return [(r.line, r.kind, r.text, r.outcome, r.expected, r.ok) for r in run_scenario(script).results]


@pytest.mark.parametrize("line", [
    "eval #1\texpect #1",
    "check (K, K) eq(nat 1, nat 1)\texpect refuted",
    "eval\t#1",
    "fuel\t3\neval SUCC (SUCC (SUCC (SUCC #0))) expect fuel-exhausted",
])
def test_directive_words_split_on_any_whitespace(line):
    # A tab or a run of blanks separates the directive word and ``expect``
    # as one space does, and the directive's text is the same.
    want = _rows(line.replace("\t", " ") + "\n")
    assert want and all(row[-1] for row in want)
    for sep in ("\t", " \t  "):
        assert _rows(line.replace("\t", sep) + "\n") == want, sep


@pytest.mark.parametrize("text,name", [
    ("sing nat 1", Sing(Nat(1))),
    ("upair (nat 1) omega", UPair(Nat(1), OMEGA)),
    ("opair sing nat 0 (nat 1)", OPair(Sing(Nat(0)), Nat(1))),
    ("((nat 1))", Nat(1)),
    ("{ (#0, #0, nat 1); ; (#1, #1, sing (nat 0)); }",
     Explicit(((num_value(0), num_value(0), Nat(1)), (num_value(1), num_value(1), Sing(Nat(0)))))),
])
def test_name_forms_the_reader_accepts(text, name):
    # Constructor arguments need no parentheses; ``;`` lists skip empty items.
    assert _read(_Env(Run(), []), text, 1, _Reader.name)[0] == name


def test_fmt_reads_back_as_the_same_formula():
    # A quantifier's body runs to the right, so ``fmt`` parenthesizes it.
    from extreal.formulas import fmt
    from extreal.suites import random_fragment_formula

    for seed in range(1000):
        phi = random_fragment_formula(random.Random(seed), 2)
        assert _read(_Env(Run(), []), fmt(phi), 1, _Reader.formula)[0] == phi, (seed, fmt(phi))


# The two ways in: `python -m extreal.cli`, and the console script's
# `sys.exit(extreal.cli.main())`.
_MODULE = ["-m", "extreal.cli"]
_MAIN = ["-c", "import sys; from extreal.cli import main; sys.exit(main(sys.argv[1:]))"]


def _child_env(env=None):
    env = dict(os.environ, **(env or {}))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _cli(*args, stdin=None, env=None, entry=_MODULE):
    """The CLI in a child process that imports extreal from this checkout."""
    return subprocess.run(
        [sys.executable, *entry, *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=_child_env(env),
        timeout=600,
    )


def test_cli_run_exit_codes():
    good = _cli("run", "-", stdin="eval (SUCC #2) expect #3\n")
    assert good.returncode == 0, good.stderr
    bad = _cli("run", "-", stdin="check (K, K) eq(nat 1, nat 1) expect realized\n")
    assert bad.returncode == 1
    syntax = _cli("run", "-", stdin="eval ((K\n")
    assert syntax.returncode == 2
    kind = _cli("run", "-", stdin="eval #1 expect error\neval #1 expect fuel-exhausted\n")
    assert kind.returncode == 1 and kind.stderr == "", kind.stderr
    assert kind.stdout.splitlines()[:2] == ["[FAIL] line 1 eval: #1 (expected error)",
                                           "[FAIL] line 2 eval: #1 (expected fuel-exhausted)"]
    opened = _cli("run", "-", stdin="eval xyz\n")
    assert opened.returncode == 2 and opened.stderr.startswith("parse error: line 1: "), opened.stderr
    for bad in _BAD_SECOND_LINES:
        out = _cli("run", "-", stdin="eval K\n" + bad + "\n")
        assert out.returncode == 2, (bad, out.stderr)
        assert out.stderr.startswith("parse error: line 2: ") and "Traceback" not in out.stderr


def test_cli_run_reads_the_demo_with_tabs_for_spaces():
    tabbed = _cli("run", "-", stdin=DEMO.read_text().replace(" ", "\t"))
    spaced = _cli("run", str(DEMO))
    assert tabbed.returncode == spaced.returncode == 0, tabbed.stderr
    assert tabbed.stdout == spaced.stdout


def test_cli_reports_a_name_warning_on_one_line():
    # The int name's value fails self-relatedness sampling: one warning line
    # with the scenario line, no source path or code; verdicts stay.
    script = "eval K\nname h = int (\\x. K) : (o)o\ncheck (K, K) eq(nat 1, nat 1) expect refuted\n"
    for flags in ([], ["--json"]):
        out = _cli(*flags, "run", "-", stdin=script)
        assert out.returncode == 0, out.stderr
        assert out.stderr == (
            "warning: line 2: internalizing a value that fails "
            "self-relatedness sampling at (o)o\n"
        )
    rep = run_scenario(script)
    assert rep.ok and len(rep.results) == 2 and len(rep.warnings) == 1


def _sings(n):
    return "sing (" * n + "nat 1" + ")" * n


def _sing_chain_check(n, expect):
    return f"realizer ir = i_r\nname x = {_sings(n)}\ncheck (ir, ir) eq(x, x) expect {expect}\n"


def test_cli_names_at_the_nesting_limit_get_a_verdict():
    # The checker keeps its goals on a stack of its own, so a name at the
    # nesting limit decides like a shallow one.  The reference clauses
    # recurse without a memo, in time exponential in the depth, so they
    # confirm the verdict at a depth they can reach.
    from reference_impl import nat_explicit, realizes

    from extreal.formulas import Eq
    from extreal.parser import MAX_NESTING
    from extreal.realizers import i_r_value

    out = _cli("--json", "--trace-depth", "0", "run", "-",
               stdin=_sing_chain_check(MAX_NESTING, "realized"))
    assert out.returncode == 0 and "Traceback" not in out.stderr, out.stderr
    assert json.loads(out.stdout)["directives"][0]["outcome"] == "realized"
    x = nat_explicit(1)
    for _ in range(10):  # sing as an explicit name
        x = Explicit(((num_value(0), num_value(0), x),))
    ir = i_r_value(Run())
    assert realizes(ir, ir, Eq(x, x))


def test_cli_deep_trace_prints_a_repeated_goal_once():
    # eq(x, x) on a sing chain reaches the same goals from both sides of
    # every level.  A goal printed in full once and without children after
    # that keeps the trace linear in the chain's depth; printed in full at
    # every occurrence, it doubles per level.
    for flags in ([], ["--json"]):
        sizes = []
        for n in (2, 4, 6, 8):
            out = _cli(*flags, "--trace-depth", "-1", "run", "-", stdin=_sing_chain_check(n, "refuted"))
            assert out.returncode == 1 and "Traceback" not in out.stderr, out.stderr
            sizes.append(out.stdout.count('"clause"') if flags else len(out.stdout.splitlines()))
        assert len({b - a for a, b in zip(sizes, sizes[1:])}) == 1, (flags, sizes)


def test_cli_prints_at_most_the_nesting_limit_of_trace_levels():
    # A chain at the nesting limit has a trace about three times as deep,
    # deeper than the JSON encoder's host stack reaches.  The JSON report is
    # one line: indented, this one was mostly indentation, about 1.2 MB.
    from extreal.parser import MAX_NESTING

    script = _sing_chain_check(MAX_NESTING, "refuted")
    text = _cli("--trace-depth", "-1", "run", "-", stdin=script)
    assert text.returncode == 1 and "Traceback" not in text.stderr, text.stderr
    indents = [len(ln) - len(ln.lstrip(" ")) for ln in text.stdout.splitlines()]
    assert max(indents) == 2 * (2 + MAX_NESTING)  # the root is indented two levels
    out = _cli("--json", "--trace-depth", "-1", "run", "-", stdin=script)
    assert out.returncode == 1 and "Traceback" not in out.stderr, out.stderr
    assert out.stdout.count("\n") == 1 and len(out.stdout) < 100_000
    node, levels = json.loads(out.stdout)["directives"][0]["trace"], 0
    while "children" in node:
        node, levels = node["children"][0], levels + 1
    assert levels == MAX_NESTING


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


@pytest.mark.parametrize("entry", [_MODULE, _MAIN], ids=["module", "main"])
@pytest.mark.parametrize("backend", ["fast", "compiled"])
def test_cli_bad_backend_exits_2(backend, entry):
    pkg = ROOT / "src" / "extreal"
    if backend == "compiled" and any((pkg / f"_speedup{x}").exists() for x in EXTENSION_SUFFIXES):
        pytest.skip("the compiled machine is built in this checkout")
    out = _cli("suite", "pca-laws", env={"PCA_BACKEND": backend}, entry=entry)
    assert out.returncode == 2 and out.stdout == "", out.stderr
    assert out.stderr.startswith("error: PCA_BACKEND") and len(out.stderr.splitlines()) == 1


@pytest.mark.parametrize("entry", [_MODULE, _MAIN], ids=["module", "main"])
def test_cli_closed_stdout_ends_without_a_traceback(entry):
    # The read end is closed before the child writes, so its first write
    # fails with a broken pipe, as under `extreal … | head -c 300`.
    r, w = os.pipe()
    child = subprocess.Popen(
        [sys.executable, *entry, "--json", "run", str(DEMO)],
        stdout=w, stderr=subprocess.PIPE, text=True, env=_child_env(),
    )
    os.close(r)
    os.close(w)
    _, err = child.communicate(timeout=600)
    assert child.returncode == 1 and err == "", err


def test_cli_unreadable_input_exits_2(tmp_path):
    text = b"\xff\xfeeval K\n"
    path = tmp_path / "bad.scn"
    path.write_bytes(text)
    runs = [(["run", str(path)], {}, f"error: {path} is not UTF-8 text"),
            (["run", "-"], {"input": text}, "error: stdin is not UTF-8 text"),
            (["run", "-"], {"preexec_fn": lambda: os.close(0)}, "error: stdin is closed")]
    for args, how, message in runs:
        out = subprocess.run([sys.executable, *_MODULE, *args], capture_output=True,
                             env=_child_env(), timeout=600, **how)
        err = out.stderr.decode()
        assert out.returncode == 2 and out.stdout == b"", err
        assert err.startswith(message) and len(err.splitlines()) == 1, err


# Each command imports only the layers it runs (see the cli docstring).
_CHECKER_LAYERS = {f"extreal.{m}" for m in ("checker", "names", "formulas", "realizers", "suites", "proofs")}
# Standard modules that no command needs: ``dataclasses`` alone would load
# ``inspect`` and ``ast`` with it, a third of the CLI's import time.
_HEAVY = {"dataclasses", "inspect", "ast"}
_IMPORT_PROBE = """
import json, sys
import extreal.cli
def loaded():
    return sorted(m for m in sys.modules if m.startswith("extreal") or m in %r)
at_import = loaded()
code = extreal.cli.main(sys.argv[1:])
print(json.dumps([code, at_import, loaded()]))
""" % (_HEAVY,)


def test_no_module_imports_dataclasses():
    import ast

    import extreal

    for path in Path(extreal.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                assert "dataclasses" not in {a.name for a in node.names}, path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", path.name


def test_cli_loads_the_checker_layers_only_for_lines_that_need_them(tmp_path):
    terms_only = tmp_path / "terms.scn"
    terms_only.write_text("fuel 5000\nterm two = SUCC #1\neval (P0 (P two #2)) expect #2\n")
    out = _cli("--json", "run", str(terms_only), entry=["-c", _IMPORT_PROBE])
    code, at_import, after_run = json.loads(out.stdout.splitlines()[-1])
    assert code == 0, out.stderr
    assert "extreal.cli" in at_import and not (_CHECKER_LAYERS | _HEAVY) & set(at_import)
    assert "extreal.scenarios" in after_run and not (_CHECKER_LAYERS | _HEAVY) & set(after_run)

    checked = tmp_path / "check.scn"
    checked.write_text("eval K\nrealizer ir = i_r\ncheck (ir, ir) eq(nat 2, nat 2) expect realized\n"
                       "check (K, K) eq(nat 1, nat 1) expect refuted\n")
    out = _cli("--json", "run", str(checked), entry=["-c", _IMPORT_PROBE])
    code, _, after_run = json.loads(out.stdout.splitlines()[-1])
    report = json.loads("\n".join(out.stdout.splitlines()[:-1]))
    assert code == 0 and [d["outcome"] for d in report["directives"]] == ["K", "realized", "refuted"]
    assert {"extreal.checker", "extreal.realizers"} <= set(after_run) and not _HEAVY & set(after_run)

    # The realizer library sits below the checker: printing a realizer loads
    # no checker.
    out = _cli("print", "i_r", entry=["-c", _IMPORT_PROBE])
    code, _, after_run = json.loads(out.stdout.splitlines()[-1])
    assert code == 0 and out.stdout.startswith("S"), out.stderr
    assert "extreal.realizers" in after_run
    assert not {"extreal.checker", "extreal.suites", "extreal.proofs", *_HEAVY} & set(after_run)

    # Every suite loads every layer but the proofs, and still none of them.
    out = _cli("--json", "suite", "all", entry=["-c", _IMPORT_PROBE])
    code, _, after_run = json.loads(out.stdout.splitlines()[-1])
    assert code == 0 and _CHECKER_LAYERS - {"extreal.proofs"} <= set(after_run), out.stderr
    assert not _HEAVY & set(after_run)


def test_function_level_imports_are_the_deliberate_lazy_loads():
    # The realizability layers import one another at load time, in one
    # direction: terms, machine, kernel, names, formulas, realizers, checker.
    # An import made anywhere but at the top of a module is a lazy load, and
    # each is listed here: the CLI's per-command layers, the layers each
    # scenario line needs, and the kernel's compiled backend.  Imports for
    # annotations only (under ``if TYPE_CHECKING``) never run.
    import ast

    import extreal

    found = set()
    for path in Path(extreal.__file__).parent.glob("*.py"):
        def visit(node, where):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ImportFrom) and child.level:
                    found.add((path.stem, where, child.module or child.names[0].name))
                elif not (isinstance(child, ast.If) and ast.unparse(child.test) == "TYPE_CHECKING"):
                    visit(child, child.name if isinstance(child, ast.FunctionDef) else where)

        tree = ast.parse(path.read_text())
        tree.body = [s for s in tree.body if not isinstance(s, ast.ImportFrom)]  # load-time imports
        visit(tree, "<module>")
    assert found == {
        ("cli", "_cmd_print", "realizers"),
        ("cli", "_cmd_run", "scenarios"),
        ("cli", "_cmd_suite", "suites"),
        ("kernel", "<module>", "_speedup"),
        ("scenarios", "_run_check", "checker"),
        ("scenarios", "_run_check", "formulas"),
        ("scenarios", "_run_suite_directive", "suites"),
        ("scenarios", "_run_synth", "checker"),
        ("scenarios", "_run_synth", "formulas"),
        ("scenarios", "_run_synth", "realizers"),
        ("scenarios", "atom", "formulas"),
        ("scenarios", "closed_formula", "formulas"),
        ("scenarios", "fintype", "names"),
        ("scenarios", "formula", "formulas"),
        ("scenarios", "name", "names"),
        ("scenarios", "pair", "checker"),
        ("scenarios", "run_scenario", "realizers"),
    }


def test_cli_suite_ids_are_the_suites():
    assert list(cli.SUITE_IDS) == sorted(suites.SUITES)
    bogus = _cli("suite", "bogus")
    assert bogus.returncode == 2 and "invalid choice: 'bogus'" in bogus.stderr
    usage = _cli("suite", "--help")
    assert usage.returncode == 0 and "{" + ",".join([*sorted(suites.SUITES), "all"]) + "}" in usage.stdout


def test_cli_json_report():
    out = _cli("--json", "run", "-", stdin="eval (SUCC #2) expect #3\n")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["ok"] and payload["directives"][0]["outcome"] == "#3"


def test_cli_suite_and_seed_determinism():
    # Values hash by address, so no output may follow the iteration order of
    # a set or dict of values: two string-hash seeds print the same report.
    a = _cli("--json", "--seed", "3", "suite", "pca-laws", env={"PYTHONHASHSEED": "0"})
    b = _cli("--json", "--seed", "3", "suite", "pca-laws", env={"PYTHONHASHSEED": "1"})
    assert a.returncode == 0 and a.stdout == b.stdout


def test_cli_print():
    out = _cli("print", "i_r")
    assert out.returncode == 0 and out.stdout.strip().startswith("S")
    listing = _cli("print")
    assert "ax.pairing" in listing.stdout and "choice.o.o" in listing.stdout
    missing = _cli("print", "no-such")
    assert missing.returncode == 2


def test_cli_print_of_an_unknown_id_is_one_unquoted_line(capsys):
    assert cli.main(["print", "nope"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: unknown realizer id 'nope'; known: arrow.o.o, "), err


def test_cli_run_of_an_unknown_realizer_id_is_one_unquoted_line(tmp_path, capsys):
    path = tmp_path / "bad.scn"
    path.write_text("realizer r = nope\n")
    assert cli.main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("parse error: line 1: unknown realizer id 'nope'; known: arrow.o.o, "), err


# sha256 of the sorted "id<TAB>printed term" lines of `extreal print` over
# the whole library.  A deliberate change to a library term updates it.
_LIBRARY_PRINT_SHA256 = "cc7f1b13b8c4386bfd0ba8509b65dac7506b8283a39529ccf22bda5726bb3735"


def test_cli_print_of_the_library_is_pinned(capsys):
    def printed(*argv):
        assert cli.main(["print", *argv]) == 0
        return capsys.readouterr().out

    ids = printed().split()
    lines = sorted(f"{i}\t{printed(i)}" for i in ids)
    assert len(ids) == 25
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == _LIBRARY_PRINT_SHA256


# sha256 of stdout, and the exit code, of the commands whose output a change
# that means to keep behaviour keeps byte for byte, on the pure machine (the
# JSON names the backend).  A deliberate change to the output updates them.
_CLI_OUTPUT_SHA256 = {
    ("--json", "--seed", "0", "suite", "all"): (0, "10a53a78456497674fa726f29fbe84c1b7701a75b91f555f64a934b3ce7ca529"),
    ("--json", "--seed", "3", "suite", "all"): (0, "079e46f2d6880923415657b19dc7764a152ea53b3b1e5284d4ccc4687a42f30c"),
    ("run", str(DEMO)): (0, "99196fd8a626a27b971be25df99ffbea78fae3592cabc5c790ce872293cef4a3"),
    ("--json", "run", str(DEMO)): (0, "8530e1023f8825fbbb8139739dfef4c5c1b926870525c4e59c7ed94c3f1ec1d4"),
    ("--json", "--trace-depth", "-1", "run", str(DEMO)):
        (0, "439edf6113c4768b3fbac9e002c419e943520500f159c53f70e65dd736968ef0"),
}


def test_cli_output_of_the_suites_and_the_demo_is_pinned(capsys):
    for argv, (code, digest) in _CLI_OUTPUT_SHA256.items():
        assert cli.main(list(argv)) == code, argv
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_cli_env_fallbacks():
    out = _cli("run", "-", stdin="eval ((\\x. x x) (\\x. x x)) expect fuel-exhausted\n",
               env={"PCA_FUEL": "60"})
    assert out.returncode == 0, out.stdout + out.stderr


def test_cli_settings_keep_line_numbers():
    # Settings from flags and the environment are the scenario's starting
    # values, not lines put before it.
    for flags, env in ((["--fuel", "1000"], None), ([], {"PCA_SEED": "5"})):
        bad = _cli(*flags, "run", "-", stdin="eval K\neval ((K\n", env=env)
        assert bad.returncode == 2 and bad.stderr.startswith("parse error: line 2: "), bad.stderr
        out = _cli(*flags, "--json", "run", "-", stdin="\neval K\n", env=env)
        assert json.loads(out.stdout)["directives"][0]["line"] == 2, out.stdout


# A second seed for the mutation fuzz: every name form, type arrows, every
# connective and quantifier, and a witness list; no suite, so it runs fast.
_GRAMMAR = r"""
fuel 20000
budget 3
realizer ir = i_r
term idf = \c. P c ir
name e = { (#0, #0, nat 1); (#1, #1, sing (nat 0)); }
name s = sing nat 2
name u = upair (nat 1) omega
name p = opair (sing nat 0) (nat 1)
name t = F ((o)o)o
name i = int SUCC : (o)o
name g = graph idf : o -> o
formula f = all x in e. ex y in omega. eq(x, x) \/ mem(y, y)
formula h = ~(ALL z. EX w. eq(z, w)) /\ f => mem(nat 0, u)
check (K ir, K ir) f
check (ir, ir) h
check ((P #2 ir), (P #2 ir)) mem(opair (nat 2) (nat 2), g) expect realized
check (P ir ir, P ir ir) eq(p, p) /\ eq(s, s) expect realized
check-with-witnesses (K, K) mem(nat 1, t) => eq(i, i) witnesses [(K, K); ((P #0 ir), (P #0 ir))]
synth-roundtrip all v in nat 2. ex w in nat 3. mem(v, w) expect agree
eval (\x y. x) #1 #2 expect #1
"""


@st.composite
def _mutated(draw, text: str) -> str:
    """``text`` with one to three token mutations on its directive lines."""
    lines = text.splitlines()
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
@given(_mutated(DEMO.read_text(encoding="utf-8")), _mutated(_GRAMMAR))
def test_mutated_demo_ends_in_an_exit_code(tmp_path_factory, demo, grammar):
    # Every input ends in exit 0, 1 or 2 from the CLI, never an exception.
    for text in (demo, grammar):
        path = tmp_path_factory.mktemp("mutant") / "input.scn"
        path.write_text(text, encoding="utf-8")
        assert cli.main(["run", str(path)]) in (0, 1, 2)
