import random
import sys
from pathlib import Path

from hmc.clone import clone
from hmc.constraints import normalize, parse_constraints
from hmc.imp import Assume, Get, Havoc, Set, parse_imp, print_imp
from hmc.logic import to_text
from hmc.translate import simplify, translate_set_of_constraints, value_var

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
sys.path.insert(0, str(Path(__file__).resolve().parent))
from gen import gen_constraint_set  # noqa: E402


def load(text):
    return normalize(parse_constraints(text))



def blocks(p):
    return dict(p.blocks)


def instrs(seq):
    return list(seq.instrs)


def test_value_var_per_type():
    from hmc.logic import BOOL, INT, ui

    assert value_var(INT) == "v"
    assert value_var(BOOL) == "v_bool"
    assert value_var(ui("obj")) == "v_obj"


def test_golden_translation():
    cs = load((EXAMPLES / "iteri_mask.hmc").read_text())
    p = translate_set_of_constraints(cs)
    assert print_imp(p) == (EXAMPLES / "iteri_mask.golden.imp").read_text()


def test_block_per_constraint():
    cs = load((EXAMPLES / "tworead.hmc").read_text())
    p = translate_set_of_constraints(cs)
    assert [lbl for lbl, _ in p.blocks] == ["c1", "c2"]


def test_concrete_get_emits_havoc_assume():
    cs = load(
        "(sub c (env (x int (<= 0 v))) (lhs int (= v x)) (rhs int (< 0 (+ x 1))))"
    )
    p = translate_set_of_constraints(cs)
    ins = instrs(blocks(p)["c"])
    assert isinstance(ins[0], Havoc) and ins[0].var == "v"
    assert isinstance(ins[1], Assume) and to_text(ins[1].pred) == "(<= 0 v)"


def test_kapp_get_set_shapes():
    cs = load((EXAMPLES / "tworead.hmc").read_text())
    p = translate_set_of_constraints(cs)
    c1 = instrs(blocks(p)["c1"])
    assert any(isinstance(i, Set) and i.relvar == "k" for i in c1)
    c2 = instrs(blocks(p)["c2"])
    gets = [i for i in c2 if isinstance(i, Get)]
    assert len(gets) == 2
    # each get binds a fresh temp tuple, then the value variable copies it
    from hmc.imp import Assign

    assigns = [(i.var, i.expr) for i in c2 if isinstance(i, Assign)]
    assert any(v == "v" for v, _ in assigns)


def test_clone_headers_emitted():
    cs = load((EXAMPLES / "tworead.hmc").read_text())
    cloned, clones = clone(cs)
    p = translate_set_of_constraints(cloned, clones)
    text = print_imp(p)
    assert ";; clone k.1 of k" in text and ";; clone k.2 of k" in text
    assert set(dict(p.blocks)) == {"c1#1", "c1#2", "c2"}


def test_translation_parses_back():
    # `parse_imp` typechecks, so every translated program must be well typed
    # as printed, where a temp such as iteri's `t1` is declared at one type
    # (int) and holds another ((ui obj), from `get k2 (t0, t1)`) in a block
    sets = [load((EXAMPLES / name).read_text()) for name in ["iteri_mask.hmc", "tworead.hmc"]]
    rng = random.Random(3)
    sets += [gen_constraint_set(rng) for _ in range(150)]
    for cs in sets:
        for cloned, clones in [(cs, None), clone(cs)]:
            p = translate_set_of_constraints(cloned, clones)
            for q in (p, simplify(p)):
                assert print_imp(parse_imp(print_imp(q))) == print_imp(q)


def test_simplify_preserves_text_validity():
    cs = load((EXAMPLES / "tworead.hmc").read_text())
    p = translate_set_of_constraints(cs)
    q = simplify(p)
    text = print_imp(q)
    assert print_imp(parse_imp(text)) == text
    # the binder-equating assumes are folded away
    assert "assume (= t" not in text


def test_simplify_preserves_verdict():
    from hmc.imp import exec_program
    from hmc.logic import ValueDomain

    d = ValueDomain((-1, 1))
    for name in ["tworead.hmc"]:
        cs = load((EXAMPLES / name).read_text())
        p = translate_set_of_constraints(cs)
        q = simplify(p)
        for sem in ("relational", "imperative"):
            assert (
                exec_program(p, d, sem).status == exec_program(q, d, sem).status
            )
