import io
from pathlib import Path

from gen import points_pred

from hmc.cli import main
from hmc.clone import clone, fold_solution, read_occurrences
from hmc.constraints import (
    check_satisfied,
    parse_constraints,
    parse_solution,
    print_constraints,
)
from hmc.logic import Interpretation, OracleMode, ValueDomain, eval_pred, to_text

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def load(text):
    return parse_constraints(text)


TWOREAD = (EXAMPLES / "tworead.hmc").read_text()


def test_read_occurrences():
    cs = load(TWOREAD)
    assert read_occurrences(cs) == {"k": 2}


def test_identity_when_single_read():
    cs = load((EXAMPLES / "iteri_mask.hmc").read_text())
    cloned, clones = clone(cs)
    assert clones == {}
    assert cloned is cs


# `k` is read twice by c2, and the set names a kvar `k.1` of its own
CLONE_CAPTURE = """\
(kvar k (v int)) (kvar k.1 (v int))
(sub c0 (lhs int (= v 0)) (rhs int (kapp k)))
(sub c1 (lhs int (= v 5)) (rhs int (kapp k.1)))
(sub c2 (env (x int (kapp k)) (y int (kapp k))) (lhs int (= v (+ x y))) (rhs int (= v 0)))
(sub c3 (env (z int (kapp k.1))) (lhs int (= v z)) (rhs int (= v 5)))
"""


def test_clone_names_avoid_kvars():
    # k's first clone is not named `k.1`, which would merge it with the
    # set's own `k.1` (k.1 = 5 and k = 0 would meet in one relation, and
    # c3 fail): the clone is suffixed with `_` until its name is free
    cs = load(CLONE_CAPTURE)
    cloned, clones = clone(cs)
    assert clones == {"k.1_": "k", "k.2": "k"}
    assert list(cloned.kvars) == ["k.1_", "k.2", "k.1"]
    assert [c.rhs.ref.kvar for c in cloned.constraints[:3]] == ["k.1_", "k.2", "k.1"]
    assert load(print_constraints(cloned)) == cloned


def test_clone_names_avoid_kvars_end_to_end(tmp_path):
    # when k's first clone was named `k.1`, `check --oracle` and `exec` said
    # UNSAFE and `check` INCONCLUSIVE, while `check --no-clone` proved it
    f = tmp_path / "capture.hmc"
    f.write_text(CLONE_CAPTURE)
    for argv in (["check", str(f)], ["check", str(f), "--oracle"], ["exec", str(f)]):
        out = io.StringIO()
        assert (main(argv, out), out.getvalue().split("\n")[0]) == (0, "SAFE"), argv
    out = io.StringIO()
    assert main(["clone", str(f)], out) == 0
    g = tmp_path / "cloned.hmc"
    g.write_text(out.getvalue())
    assert main(["check", str(g)], io.StringIO()) == 0


def test_clone_tworead():
    cs = load(TWOREAD)
    cloned, clones = clone(cs)
    assert clones == {"k.1": "k", "k.2": "k"}
    assert set(cloned.kvars) == {"k.1", "k.2"}
    labels = [c.label for c in cloned.constraints]
    # writer c1 replicated once per clone, reader c2 kept with renamed reads
    assert labels == ["c1#1", "c1#2", "c2"]
    c2 = cloned.constraints[2]
    envrefs = [rt.ref.kvar for _, rt in c2.env]
    assert envrefs == ["k.1", "k.2"]


def test_clone_signatures_shared():
    cs = load(TWOREAD)
    cloned, _ = clone(cs)
    assert cloned.kvars["k.1"].field_types == cs.kvars["k"].field_types


def test_fold_intensional():
    cs = load(TWOREAD)
    _, clones = clone(cs)
    sol = parse_solution("(solution (k.1 (<= 0 v)) (k.2 (<= v 1)))")
    folded = fold_solution(sol, clones, cs)
    assert list(folded) == ["k"]
    assert to_text(folded["k"]) == "(and (<= 0 v) (<= v 1))"


def test_fold_extensional_intersects():
    cs = load(TWOREAD)
    # folding conjoins the clones' entries, so entries that hold exactly
    # at {0, 1} and at {1, 2} fold to one that holds exactly at their
    # intersection {1}
    _, clones = clone(cs)
    sig = cs.kvars["k"]
    sol = {"k.1": points_pred(sig, {(0,), (1,)}), "k.2": points_pred(sig, {(1,), (2,)})}
    folded = fold_solution(sol, clones, cs)["k"]
    holds = [v for v in range(-2, 3) if eval_pred(Interpretation({"v": v}), folded)]
    assert holds == [1]


SINGLETON = (EXAMPLES / "clonefold.hmc").read_text()


def test_cloned_satisfaction_matches_folded():
    # a solution of the cloned set, once folded, satisfies the original
    cs = load(SINGLETON)
    cloned, clones = clone(cs)
    mode = OracleMode(ValueDomain((-1, 1)))
    sol = parse_solution("(solution (k.1 (= v 0)) (k.2 (= v 0)))")
    assert check_satisfied(cloned, sol, mode).satisfied
    folded = fold_solution(sol, clones, cs)
    assert check_satisfied(cs, folded, mode).satisfied
