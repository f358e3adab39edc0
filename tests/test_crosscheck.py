"""Two-implementation agreement on finite explicit names."""

import random

from reference_impl import nat_explicit, realizes

from extreal.checker import RealizerPair, Status, check
from extreal.formulas import AllIn, And, Eq, ExIn, Formula, Mem, Or
from extreal.kernel import pair_value
from extreal.names import Explicit, VName
from extreal.realizers import i_r_value
from extreal.terms import K, KBAR, Run, Value, num_value


def random_explicit(rng: random.Random, rank: int) -> Explicit:
    if rank <= 0:
        return Explicit(())
    triples = tuple(
        (
            num_value(rng.randint(0, 2)),
            num_value(rng.randint(0, 2)),
            random_explicit(rng, rank - 1),
        )
        for _ in range(rng.randint(0, 3))
    )
    return Explicit(triples)


def random_formula(rng: random.Random, names: list[VName], depth: int) -> Formula:
    def name():
        return rng.choice(names)

    if depth == 0 or rng.random() < 0.35:
        return Mem(name(), name()) if rng.random() < 0.5 else Eq(name(), name())
    roll = rng.randrange(4)
    if roll == 0:
        return And(random_formula(rng, names, depth - 1), random_formula(rng, names, depth - 1))
    if roll == 1:
        return Or(random_formula(rng, names, depth - 1), random_formula(rng, names, depth - 1))
    if roll == 2:
        var = f"v{depth}"
        body = random_formula(rng, names + [var], depth - 1)  # type: ignore[list-item]
        return AllIn(var, name(), body)
    var = f"v{depth}"
    return ExIn(var, name(), random_formula(rng, names + [var], depth - 1))  # type: ignore[list-item]


def random_realizer(rng: random.Random) -> Value:
    ir = i_r_value(Run())
    pool = [
        Value(K),
        Value(KBAR),
        num_value(rng.randint(0, 2)),
        ir,
        pair_value(num_value(rng.randint(0, 2)), ir),
        pair_value(num_value(rng.randint(0, 2)), num_value(rng.randint(0, 2))),
    ]
    v = rng.choice(pool)
    if rng.random() < 0.4:
        v = pair_value(v, rng.choice(pool))
    return v


def _close(phi: Formula) -> bool:
    from extreal.formulas import is_closed

    return is_closed(phi)


def test_checker_agrees_with_reference_on_200_instances():
    rng = random.Random(99)
    cfg = Run(max_steps=400_000)
    done = 0
    disagreements = []
    while done < 200:
        names: list[VName] = [
            random_explicit(rng, rng.randint(0, 2)),
            nat_explicit(rng.randint(0, 3)),
            random_explicit(rng, rng.randint(0, 2)),
        ]
        phi = random_formula(rng, names, rng.randint(0, 2))
        if not _close(phi):
            continue
        a = random_realizer(rng)
        b = a if rng.random() < 0.7 else random_realizer(rng)
        ver = check(RealizerPair(a, b), phi, cfg)
        assert ver.status is not Status.UNKNOWN, (phi, ver.trace.render())
        want = realizes(a, b, phi, cfg)
        got = ver.status is Status.REALIZED
        if want != got:
            disagreements.append((phi, a, b, want, got))
        done += 1
    assert not disagreements, disagreements[:3]
