from pathlib import Path

from gen import points_pred

from hmc.clone import clone, fold_solution, read_occurrences
from hmc.constraints import (
    check_satisfied,
    parse_constraints,
    parse_solution,
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
