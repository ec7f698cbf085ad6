import random
import sys
from pathlib import Path

from hmc.clone import clone
from hmc.constraints import parse_constraints
from hmc.imp import Assume, Get, Havoc, Set, parse_imp, print_imp, reads_before_writing
from hmc.logic import to_text
from hmc.translate import translate_set_of_constraints, value_var

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
sys.path.insert(0, str(Path(__file__).resolve().parent))
from gen import gen_constraint_set  # noqa: E402


def load(text):
    return parse_constraints(text)



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
    # (int) and holds another ((ui obj), from `get k2 (t0, t1)`) in a block.
    # Every block writes each variable before it reads it, so no block sees
    # a value another block left behind, whatever its type
    sets = [load(path.read_text()) for path in sorted(EXAMPLES.glob("*.hmc"))]
    rng = random.Random(3)
    sets += [gen_constraint_set(rng) for _ in range(150)]
    sets += [
        gen_constraint_set(rng, binders=("t0", "t1", "u0"), v_args=True) for _ in range(150)
    ]
    # The reader gives back the very program printed, and prints the same
    # bytes again, for every example, cloned and not
    for cs in sets:
        for cloned, clones in [(cs, None), clone(cs)]:
            p = translate_set_of_constraints(cloned, clones)
            text = print_imp(p)
            assert parse_imp(text) == p
            assert print_imp(parse_imp(text)) == text
            assert not any(reads_before_writing(b) for _, b in p.blocks)


def test_introduced_names_avoid_binders():
    # get temps t0, t1 and the bool value variable are renamed away from
    # the binders of the whole set, not just of their own block
    cs = load(
        "(kvar k (v int) (n int))"
        "(sub c1 (env (t0 int (= v 5))) (lhs int (= v 0)) (rhs int (kapp k t0)))"
        "(sub c2 (env (v_bool int true) (t0_ int true)) (lhs int (kapp k t0_)) (rhs int true))"
        "(sub c3 (lhs bool true) (rhs bool true))"
    )
    text = print_imp(translate_set_of_constraints(cs))
    assert "get k (t0__, t1)" in text and "v := t0__" in text
    assert "havoc v_bool_;" in text and "v_bool := v;" in text
    assert ";; basevar v_bool int\n" in text and ";; basevar v_bool_ bool\n" in text


def test_v_in_kapp_arguments_is_the_value():
    # `v` is the value read (`t0`) on a get and the typed value variable on
    # a set
    cs = load(
        "(kvar k (v bool) (n bool))"
        "(sub c1 (lhs bool true) (rhs bool (kapp k v)))"
        "(sub c2 (lhs bool (kapp k v)) (rhs bool false))"
    )
    p = translate_set_of_constraints(cs)
    c1, c2 = instrs(blocks(p)["c1"]), instrs(blocks(p)["c2"])
    assert c1[-1] == Set("k", ("v_bool", "v_bool"))
    assert to_text(c2[2].pred) == "(= t1 t0)"
    assert "v" not in p.base_types
