from pathlib import Path

from hmc.clone import clone, fold_solution, read_occurrences
from hmc.constraints import (
    EXTENSIONAL,
    INTENSIONAL,
    Solution,
    check_satisfied,
    normalize,
    parse_constraints,
    parse_solution,
)
from hmc.logic import OracleMode, ValueDomain, to_text

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def load(text):
    return normalize(parse_constraints(text))


TWOREAD = (EXAMPLES / "tworead.hmc").read_text()


def test_read_occurrences():
    cs = load(TWOREAD)
    assert read_occurrences(cs) == {"k": 2}


def test_identity_when_single_read():
    cs = load((EXAMPLES / "iteri_mask.hmc").read_text())
    cloned, cm = clone(cs)
    assert cm.identity
    assert cloned is cs


def test_clone_tworead():
    cs = load(TWOREAD)
    cloned, cm = clone(cs)
    assert not cm.identity
    assert dict(cm.groups) == {"k": ["k.1", "k.2"]}
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
    cloned, cm = clone(cs)
    sol = parse_solution("(solution (k.1 (<= 0 v)) (k.2 (<= v 1)))")
    folded = fold_solution(sol, cm, cs)
    assert folded.kind == INTENSIONAL
    assert to_text(folded.entries["k"]) == "(and (<= 0 v) (<= v 1))"


def test_fold_extensional_intersects():
    cs = load(TWOREAD)
    cloned, cm = clone(cs)
    sol = Solution(
        EXTENSIONAL,
        {"k.1": frozenset({(0,), (1,)}), "k.2": frozenset({(1,), (2,)})},
    )
    folded = fold_solution(sol, cm, cs)
    assert folded.entries["k"] == frozenset({(1,)})


SINGLETON = """\
(kvar k (v int))
(sub c1 (env) (lhs int (= v 0)) (rhs int (kapp k)))
(sub c2 (env (x int (kapp k)) (y int (kapp k))) (lhs int true) (rhs int (= x y)))
"""


def test_cloned_satisfaction_matches_folded():
    # a solution of the cloned set, once folded, satisfies the original
    cs = load(SINGLETON)
    cloned, cm = clone(cs)
    mode = OracleMode(ValueDomain((-1, 1)))
    sol = parse_solution("(solution (k.1 (= v 0)) (k.2 (= v 0)))")
    assert check_satisfied(cloned, sol, mode).satisfied
    folded = fold_solution(sol, cm, cs)
    assert check_satisfied(cs, folded, mode).satisfied
