import random
from pathlib import Path

import pytest
from gen import gen_constraint_set, gen_pred, points_pred

from hmc import constraints
from hmc.clone import clone
from hmc.constraints import (
    ConstraintError,
    KApp,
    RefType,
    SubConstraint,
    check_satisfied,
    embed_sub,
    normalize,
    parse_constraints,
    parse_solution,
    print_constraints,
    print_solution,
)
from hmc.logic import (
    INVALID,
    TRUE,
    VALID,
    OracleMode,
    SolverMode,
    ValueDomain,
    check_valid,
    to_text,
)
from hmc.sexpr import parse_one

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def load(text):
    return parse_constraints(text)


SIMPLE = """
(kvar k (v int))
(sub c1 (env (x int (<= 0 v))) (lhs int (= v x)) (rhs int (kapp k)))
(sub c2 (env (y int (kapp k))) (lhs int true) (rhs int (<= 0 y)))
"""


def test_parse_print_roundtrip():
    cs = load(SIMPLE)
    assert print_constraints(load(print_constraints(cs))) == (
        print_constraints(cs)
    )
    text = (EXAMPLES / "iteri_mask.hmc").read_text()
    cs = load(text)
    assert len(cs.constraints) == 4 and set(cs.kvars) == {"k1", "k2"}


def test_print_then_read_is_exact():
    # `normalize` prints a set and reads it back, so reading back what
    # `print_constraints` prints must give an equal set: on each example and
    # on 300 gen sets, as given and cloned (labels `c1#2`, kvars `k.1`)
    sets = [(p.name, load(p.read_text())) for p in sorted(EXAMPLES.glob("*.hmc"))]
    sets += [(f"gen {s}", gen_constraint_set(random.Random(s))) for s in range(300)]
    for name, cs in sets:
        for each in (cs, clone(cs)[0]):
            assert parse_constraints(print_constraints(each)) == each, name


def test_declarations_may_follow_their_use():
    sub = "(sub c1 (env (x int (kapp k))) (lhs int (= v (f x))) (rhs int (kapp k)))"
    decls = "(kvar k (v int)) (uninterp (f (int) int))"
    assert load(f"{sub} {decls}") == load(f"{decls} {sub}")


def test_normalize_fills_kapp_args():
    cs = load(
        "(kvar k (v int) (a int) (b int))\n"
        "(sub c (env (a int true) (b int true)) (lhs int true)"
        " (rhs int (kapp k)))"
    )
    rhs = cs.constraints[0].rhs.ref
    assert isinstance(rhs, KApp)
    from hmc.logic import Var

    assert rhs.args == (Var("a"), Var("b"))
    # so does `normalize`, for a set built in code
    c = cs.constraints[0]
    bare = SubConstraint(c.label, c.env, c.lhs, RefType(c.rhs.base, KApp("k", ())))
    built = constraints.ConstraintSet(cs.uninterps, cs.kvars, [bare])
    assert normalize(built) == cs


def test_normalize_rejects_bad_binder():
    with pytest.raises(ConstraintError):
        load("(kvar k (v int))\n"
                          "(sub c (env (v int true)) (lhs int true) (rhs int true))")
    with pytest.raises(ConstraintError):
        load(
            "(kvar k (v int))\n"
            "(sub c (env (x int true) (x int true)) (lhs int true) (rhs int true))"
        )


def test_base_mismatch_rejected():
    with pytest.raises(ConstraintError):
        load("(sub c (env) (lhs int true) (rhs bool true))")


def test_embed_sub():
    cs = load(SIMPLE)
    sol = dict.fromkeys(cs.kvars, TRUE)
    env, p = embed_sub(cs, cs.constraints[0], sol)
    assert to_text(p) == "(=> (<= 0 x) (=> (= v x) true))"


def test_solution_roundtrip_and_extensional():
    sol = parse_solution("(solution (k (<= 0 v)))")
    assert list(sol) == ["k"]
    assert print_solution(sol) == "(solution (k (<= 0 v)))\n"
    from hmc.constraints import KVarSig
    from hmc.logic import INT

    sig = KVarSig("k", INT, (("n", INT),))
    p = points_pred(sig, frozenset({(0, 1), (2, 2)}))
    # disjunction over the two tuples
    assert "(= v 0)" in to_text(p) and "(= n 2)" in to_text(p)


def test_check_satisfied():
    cs = load(SIMPLE)
    mode = OracleMode(ValueDomain((-2, 2)))
    good = parse_solution("(solution (k (<= 0 v)))")
    rep = check_satisfied(cs, good, mode)
    assert rep.satisfied and rep.first_failure is None
    assert all(v.status == VALID for _, v in rep.verdicts)

    bad = parse_solution("(solution (k (= v 0)))")
    rep = check_satisfied(cs, bad, mode)
    assert not rep.satisfied
    assert rep.first_failure[0] == "c1"
    assert rep.first_failure[1].witness is not None


def test_missing_entry_defaults_true():
    cs = load(SIMPLE)
    sol = {}
    rep = check_satisfied(cs, sol, OracleMode(ValueDomain((-1, 1))))
    # k := true satisfies c1 but not c2
    assert not rep.satisfied and rep.first_failure[0] == "c2"


def test_check_satisfied_leaves_solution_unchanged():
    cs = load((EXAMPLES / "iteri_mask.hmc").read_text())
    sol = parse_solution("(solution (k2 (<= 0 v)))")
    check_satisfied(cs, sol, OracleMode(ValueDomain((-1, 1))))
    assert list(sol) == ["k2"]


@pytest.mark.parametrize(
    "mode", [SolverMode(), OracleMode(ValueDomain((-1, 1)))], ids=["solver", "oracle"]
)
def test_check_satisfied_decides_each_embedding_once(mode, monkeypatch):
    # constraints that embed to the same pair share one decision, and each
    # verdict's status is that of deciding its own embedding directly
    rng = random.Random(2)
    calls = []

    def counted(*args):
        calls.append(args)
        return check_valid(*args)

    monkeypatch.setattr(constraints, "check_valid", counted)
    repeats = 0
    for _ in range(40):
        cs = gen_constraint_set(rng)
        sol = {k: gen_pred(rng, list(sig.field_names)) for k, sig in cs.kvars.items()}
        calls.clear()
        rep = check_satisfied(cs, sol, mode)
        keys = [embed_sub(cs, c, sol) for c in cs.constraints]
        assert [args[:2] for args in calls] == list(dict.fromkeys(keys))
        for c, key, (label, verdict) in zip(cs.constraints, keys, rep.verdicts, strict=True):
            assert (label, verdict.status) == (c.label, check_valid(*key, mode, cs.uninterps).status)
        repeats += len(keys) - len(calls)
    assert repeats > 0


@pytest.mark.parametrize(
    "mode", [SolverMode(), OracleMode(ValueDomain((-1, 1)))], ids=["solver", "oracle"]
)
def test_check_satisfied_tells_apart_kvars_with_parameters_in_another_order(mode):
    # both entries read (<= p q), but k2 lists q first: under the same
    # arguments c1 embeds to (<= 0 1) and c2 to (<= 1 0), so two constraints
    # of one shape but for the parameter names decide differently
    cs = load(
        "(kvar k1 (v int) (p int) (q int))\n"
        "(kvar k2 (v int) (q int) (p int))\n"
        "(sub c1 (lhs int true) (rhs int (kapp k1 0 1)))\n"
        "(sub c2 (lhs int true) (rhs int (kapp k2 0 1)))\n"
    )
    sol = parse_solution("(solution (k1 (<= p q)) (k2 (<= p q)))")
    rep = check_satisfied(cs, sol, mode)
    assert [(label, v.status) for label, v in rep.verdicts] == [("c1", VALID), ("c2", INVALID)]


def test_uninterp_signature_used():
    cs = load(
        "(uninterp (len ((ui obj)) int))\n"
        "(sub c (env (a (ui obj) true)) (lhs int (= v (len a)))"
        " (rhs int (<= (len a) v)))"
    )
    rep = check_satisfied(
        cs,
        dict.fromkeys(cs.kvars, TRUE),
        OracleMode(ValueDomain((-1, 1), (("obj", (0, 1)),))),
    )
    assert rep.satisfied
