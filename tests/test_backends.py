"""Pure-Python and compiled machines implement identical semantics.

The compiled machine is built from the committed ``_speedup.c`` with the C
compiler Python was configured with, so the cross-check runs whenever a
compiler exists, whether or not the extension was built in place.
"""

import hashlib
import importlib.util
import os
import random
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

import extreal
from extreal import kernel
from extreal import machine as pure
from extreal.bracket import compile_term
from extreal.parser import parse
from extreal.suites import _VALUE_ATOMS, random_closed_term
from extreal.terms import (
    App,
    Defined,
    Run,
    FuelExhausted,
    IllTypedApplication,
    K,
    MachineError,
    PRED,
    S,
    SUCC,
    StuckApplication,
    Value,
    ValueSizeExceeded,
    app,
    num,
    num_value,
    opaque_value,
)
from test_checker import _GROW


@pytest.fixture(scope="session")
def compiled(tmp_path_factory):
    """extreal._speedup compiled from the committed C into a temporary directory."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    if shutil.which(cc[0]) is None:
        pytest.skip(f"no C compiler ({cc[0]}) to build the compiled machine")
    c_file = Path(extreal.__file__).with_name("_speedup.c")
    so = tmp_path_factory.mktemp("speedup") / ("_speedup" + sysconfig.get_config_var("EXT_SUFFIX"))
    proc = subprocess.run(
        cc + ["-shared", "-fPIC", "-O2", "-fwrapv", "-DNDEBUG",
              "-I" + sysconfig.get_paths()["include"], str(c_file), "-o", str(so)],
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        pytest.fail(f"building {c_file.name} failed:\n{proc.stderr[-3000:]}")
    spec = importlib.util.spec_from_file_location("extreal._speedup", so)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _outcome(f, t, cfg):
    try:
        return f(t, None, cfg)
    except MachineError as exc:
        return type(exc).__name__


def test_backends_agree_on_random_terms(compiled):
    # S-heavy terms (with I = S K K and the self-applier S I I), so that
    # redexes fire, repeat and diverge, drawn in pairs: a subterm, then a
    # term whose leaves may be that one object.  Each is evaluated
    # three times on pure, at fuel caps that also cut through replays, in
    # runs derived from one root, so all share its memo and seen filter.
    # The filter is full, so every redex is recorded at its first firing
    # and every closed term at its first complete evaluation (when no
    # enclosing one is being recorded): later runs replay the term whole,
    # and a recorded subterm inside the term that splices it.
    rng = random.Random(123)
    i = app(S, K, K)
    atoms = _VALUE_ATOMS + (S, S, S, S, SUCC, PRED, i, app(S, i, i))
    root, recorded = Run().replace(seen=bytearray([2]) * len(Run().seen)), 0
    for _ in range(1500):
        shared = random_closed_term(rng, 5, atoms)
        for t in (shared, random_closed_term(rng, 9, atoms + (shared, shared))):
            _agree(compiled, t, root)
        recorded += root.ops.get(id(shared), (None,))[-1] is shared
    assert recorded > 300


def _agree(compiled, t, root):
    for fuel in (3, 17, 60, 4000):
        cfg = root.replace(max_steps=fuel)
        b = _outcome(compiled.eval_term, t, cfg)
        for _ in range(3):
            a = _outcome(pure.eval_term, t, cfg)
            if isinstance(a, str) or isinstance(b, str):
                assert a == b, (t, a, b)
            elif isinstance(a, FuelExhausted) or isinstance(b, FuelExhausted):
                assert type(a) == type(b) and a.steps == b.steps and a.note == b.note, (t, a, b)
            else:
                assert a.value == b.value and a.steps == b.steps, (t, a, b)


def test_backends_agree_on_library_realizers(compiled):
    from extreal.realizers import LIBRARY, realizer_term

    for ident in LIBRARY:
        t = realizer_term(ident)
        a = pure.eval_term(t)
        b = compiled.eval_term(t)
        assert isinstance(a, Defined) and isinstance(b, Defined)
        assert a.value == b.value and a.steps == b.steps, ident


def test_backends_agree_on_apply_and_kleene(compiled):
    rng = random.Random(7)
    from extreal.suites import random_printable_value

    for _ in range(200):
        _, f = random_printable_value(rng, Run())
        _, a = random_printable_value(rng, Run())
        try:
            o1 = pure.apply_value(f, a)
        except MachineError as exc:
            with pytest.raises(type(exc)):
                compiled.apply_value(f, a)
            continue
        o2 = compiled.apply_value(f, a)
        assert type(o1) == type(o2)
        if isinstance(o1, Defined):
            assert o1.value == o2.value and o1.steps == o2.steps
    for _ in range(100):
        t1 = random_closed_term(rng, 6)
        t2 = random_closed_term(rng, 6)
        try:
            want = pure.kleene_eq(t1, t2)
        except MachineError as exc:
            with pytest.raises(type(exc)):
                compiled.kleene_eq(t1, t2)
            continue
        assert want is compiled.kleene_eq(t1, t2)


def test_backends_end_runs_alike(compiled, monkeypatch):
    # The kernel's evaluate and apply, run on either machine, end a crash, a
    # run out of fuel and a size-cap overflow the same way.  Each asks under
    # a fresh run, so no table answers for the machine.
    i = app(S, K, K)
    cases = [
        ("eval_term", lambda: kernel.evaluate(App(PRED, num(0)), Run()), kernel.Crash, StuckApplication),
        ("apply_value", lambda: kernel.apply(num_value(1), Value(K), Run()), kernel.Crash,
         IllTypedApplication),
        ("eval_term", lambda: kernel.evaluate(app(S, i, i, app(S, i, i)), Run(max_steps=50)), kernel.Open,
         type(None)),
        ("eval_term", lambda: kernel.evaluate(compile_term(parse(_GROW)), Run()), kernel.Open,
         ValueSizeExceeded),
        ("eval_term", lambda: kernel.evaluate(app(SUCC, num(2)), Run()), Value, None),
    ]

    def ended(machine, op, ask):
        monkeypatch.setattr(kernel, op, getattr(machine, op))
        return ask()

    for op, ask, kind, error in cases:
        a, b = ended(pure, op, ask), ended(compiled, op, ask)
        assert type(a) is type(b) is kind, (op, a, b)
        if kind is Value:
            assert a == b == num_value(3)
        else:
            assert type(a.error) is type(b.error) is error and str(a.error) == str(b.error), (op, a, b)


def test_compiled_handles_opaque_and_env(compiled):
    from extreal.terms import Opaque, Var

    v = opaque_value("q")
    out = compiled.eval_term(Var("x"), {"x": v})
    assert out.value == v
    boxed = compiled.eval_term(Opaque("boxed", num_value(3)))
    assert boxed.value == num_value(3)
    inert = compiled.apply_value(v, num_value(1))
    assert isinstance(inert.value.head, Opaque)


def test_backend_selection_reports():
    assert kernel.BACKEND == "pure"
    assert kernel.eval_term is pure.eval_term


def test_pure_is_the_default_beside_a_built_twin(compiled, tmp_path):
    # The package staged with the twin beside it, as perfbench stages it:
    # only PCA_BACKEND=compiled selects the twin.
    pkg = tmp_path / "extreal"
    pkg.mkdir()
    for src in Path(extreal.__file__).parent.glob("*.py"):
        shutil.copy2(src, pkg / src.name)
    shutil.copy2(compiled.__file__, pkg / Path(compiled.__file__).name)
    env = {k: v for k, v in os.environ.items() if k != "PCA_BACKEND"}
    env["PYTHONPATH"] = str(tmp_path)
    probe = "from extreal import kernel; print(kernel.BACKEND, kernel.BACKEND_ERROR)"
    for setting, want in ((None, "pure"), ("pure", "pure"), ("compiled", "compiled")):
        child_env = env if setting is None else {**env, "PCA_BACKEND": setting}
        out = subprocess.run([sys.executable, "-c", probe], env=child_env, cwd=tmp_path,
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == [want, "None"], setting


# sha256 of the Cython source and of the C generated from it.  Cython is not a
# dependency, so the C cannot be regenerated on every machine: an edit to the
# .pyx must come with a regenerated _speedup.c and new digests here.
_SPEEDUP_DIGESTS = {
    "_speedup.pyx": "5cd9dd140c7949899960105d7b41950ec5fb48ddda7c8e2406b2eb82ede15fbc",
    "_speedup.c": "ded356538fe50c0d6ddfdd026a7cc6b8ca4a6602e7a5de5c9230edf7d904f9a1",
}


def test_compiled_sources_are_pinned():
    pkg = Path(extreal.__file__).parent
    for name, digest in _SPEEDUP_DIGESTS.items():
        got = hashlib.sha256((pkg / name).read_bytes()).hexdigest()
        assert got == digest, f"{name} changed: regenerate _speedup.c from _speedup.pyx and update the pins"
