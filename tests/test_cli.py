import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from gen import gen_constraint_set, replays_to_error
from hmc import cli, constraints, imp, logic
from hmc.clone import clone
from hmc.cli import build_parser, main
from hmc.sexpr import parse_one, to_str
from hmc.translate import translate_set_of_constraints

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
ITERI = str(EXAMPLES / "iteri_mask.hmc")
TWOREAD = str(EXAMPLES / "tworead.hmc")
TWOREAD_IMP = str(EXAMPLES / "tworead.imp")
RETYPED = str(EXAMPLES / "retyped.hmc")
RETYPED_PREDS = str(EXAMPLES / "retyped.preds")
BOOLFUN = str(EXAMPLES / "boolfun.hmc")


def run(*argv):
    out = io.StringIO()
    code = main(list(argv), out)
    return code, out.getvalue()


def run_process(*argv, hash_seed="0", timeout=60):
    """`hmc` in a child interpreter under a fixed string-hash seed: its exit
    code, stdout and stderr. Raises subprocess.TimeoutExpired when it does
    not return in `timeout` s."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    src = str(Path(cli.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "hmc.cli", *argv],
        env=env, capture_output=True, text=True, timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_start_up_imports_stay_lean():
    # one `hmc` process starts per command, and one `hmc-smt` per query
    # under `--smt-cmd`, so importing them loads no `dataclasses` (nor the
    # `inspect` it pulls in) and none of the modules that only the external
    # solver or table sampling use; `-S` keeps the site hooks' imports out
    src = str(Path(cli.__file__).resolve().parent.parent)
    lean = ("dataclasses", "inspect", "subprocess", "shlex", "random")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import hmc.cli, hmc.smt; "
        f"print([m for m in {lean!r} if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_translate_matches_golden():
    code, text = run("translate", ITERI, "--no-clone")
    assert code == 0
    assert text == (EXAMPLES / "iteri_mask.golden.imp").read_text()


def test_clone_output():
    code, text = run("clone", TWOREAD)
    assert code == 0
    assert "k.1" in text and "k.2" in text and "c1#1" in text and "c1#2" in text


@pytest.mark.parametrize("name", ["tworead", "clonefold"])
def test_clone_output_matches_golden(name):
    code, text = run("clone", str(EXAMPLES / f"{name}.hmc"))
    assert code == 0
    assert text == (EXAMPLES / f"{name}.clone.txt").read_text()


def test_exec_imp_dichotomy():
    code, text = run("exec", TWOREAD_IMP, "--int-range", "-1..1")
    assert code == 1 and text.startswith("UNSAFE")
    assert "trace:" in text
    code, text = run(
        "exec", TWOREAD_IMP, "--int-range", "-1..1", "--semantics", "imperative"
    )
    assert code == 0 and text.startswith("SAFE")


SAMPLED_IMP = """\
;; uninterp f (int int) int
;; basevar x int
loop {
  /*b*/
    havoc x;
    assert (= (f x x) (f x x))
}
"""

# k holds 0, 1, 2, ...: neither oracle reaches a fixpoint
COUNTER_IMP = """\
;; relvar k arity 1 types int
;; basevar x int
loop {
  /*b1*/
    x := 0;
    set k (x)
[]
  /*b2*/
    get k (x);
    x := (+ x 1);
    set k (x)
}
"""

SAMPLED_TEXT = "INCONCLUSIVE\nsampled interpretations only; no counterexample found\n"
FUEL_TEXT = "INCONCLUSIVE\nran out of fuel before a fixpoint; no counterexample found\n"


def test_exec_inconclusive_names_its_reason(tmp_path):
    # sampled tables and a search out of fuel each print their own line:
    # the least model of COUNTER_IMP and the state search under the
    # imperative semantics both run out
    sampled, counter = tmp_path / "sampled.imp", tmp_path / "counter.imp"
    sampled.write_text(SAMPLED_IMP)
    counter.write_text(COUNTER_IMP)
    assert run("exec", str(sampled), "--table-budget", "4") == (2, SAMPLED_TEXT)
    assert run("exec", str(counter), "--fuel", "20") == (2, FUEL_TEXT)
    assert run("exec", str(counter), "--fuel", "20", "--semantics", "imperative") == (2, FUEL_TEXT)
    code, text = run("exec", str(counter), "--fuel", "20", "--json")
    assert code == 2 and json.loads(text)["detail"] == FUEL_TEXT.split("\n")[1]


def test_exec_finishes_on_sampled_tables():
    # retyped.hmc has 5**10 choices of tables for `len` and `tl`, so 256 are
    # sampled; the least model under each is small
    assert run_process("exec", RETYPED, timeout=60) == (2, SAMPLED_TEXT, "")


def test_exec_hmc_clones_first():
    # after cloning, both semantics agree the constraints are unsatisfiable
    for sem in ("relational", "imperative"):
        code, text = run(
            "exec", TWOREAD, "--int-range", "-1..1", "--semantics", sem
        )
        assert code == 1, (sem, text)


def test_check_safe_json():
    code, text = run("check", ITERI, "--json")
    assert code == 0
    data = json.loads(text)
    assert data["verdict"] == "SAFE"
    assert "k1" in data["solution"] and "k2" in data["solution"]
    assert "translate" in data["timings"] and "solve" in data["timings"]
    assert "artifacts" not in data


def test_check_unsafe_with_oracle():
    code, text = run("check", TWOREAD, "--oracle", "--int-range", "-1..1")
    assert code == 1 and text.startswith("UNSAFE")


def test_check_inconclusive_without_oracle():
    code, text = run("check", TWOREAD)
    assert code == 2 and text.startswith("INCONCLUSIVE")


SATISFIABLE = """\
(kvar k (v int))
(sub c1 (env) (lhs int (<= 0 v)) (rhs int (kapp k)))
(sub c2 (env (x int (kapp k))) (lhs int true) (rhs int (<= 0 x)))
"""


def test_validate_modes(tmp_path):
    hmc = tmp_path / "sat.hmc"
    hmc.write_text(SATISFIABLE)
    bad = tmp_path / "bad.sol"
    bad.write_text("(solution (k (= v 0)))")
    code, text = run("validate", str(hmc), "--solution", str(bad))
    assert code == 1 and text.startswith("VIOLATED(c1)")
    good = tmp_path / "good.sol"
    good.write_text("(solution (k (<= 0 v)))")
    code, text = run("validate", str(hmc), "--solution", str(good))
    assert code == 0 and text.startswith("SATISFIED")
    code, text = run(
        "validate", str(hmc), "--solution", str(good), "--mode", "oracle",
        "--int-range", "-1..1",
    )
    assert code == 0


def test_validate_tells_apart_kvars_with_parameters_in_another_order(tmp_path):
    # both entries read (<= p q), but k2 lists q first: under the same
    # arguments c1 embeds to (<= 0 1) and c2 to (<= 1 0)
    hmc = tmp_path / "order.hmc"
    hmc.write_text(
        "(kvar k1 (v int) (p int) (q int))\n"
        "(kvar k2 (v int) (q int) (p int))\n"
        "(sub c1 (lhs int true) (rhs int (kapp k1 0 1)))\n"
        "(sub c2 (lhs int true) (rhs int (kapp k2 0 1)))\n"
    )
    sol = tmp_path / "order.sol"
    sol.write_text("(solution (k1 (<= p q)) (k2 (<= p q)))")
    code, text = run("validate", str(hmc), "--solution", str(sol))
    assert code == 1 and text.startswith("VIOLATED(c2)")


def test_validate_oracle_unknown_gives_its_reason(tmp_path):
    # no solver runs under `--mode oracle`: UNKNOWN means no counterexample
    # under sampled function tables (here 1 of the 2 for f at 0)
    hmc = tmp_path / "f.hmc"
    hmc.write_text("(uninterp (f (int) int))\n(sub c1 (lhs int (= v (f 0))) (rhs int (= v (f 0))))\n")
    sol = tmp_path / "empty.sol"
    sol.write_text("(solution)\n")
    argv = ["validate", str(hmc), "--solution", str(sol), "--mode", "oracle", "--int-range", "0..1"]
    got = run(*argv, "--table-budget", "1")
    assert got == (2, "UNKNOWN\nc1: sampled interpretations only; no counterexample found\n")
    assert run(*argv, "--table-budget", "4") == (0, "SATISFIED\n")


def test_validate_oracle_tables_cover_the_applied_arguments(tmp_path):
    # c1 applies f at 0 only, so two tables, f(0) = 0 and f(0) = 1, cover
    # every case over 0..1
    hmc = tmp_path / "f.hmc"
    hmc.write_text("(uninterp (f (int) int))\n(sub c1 (lhs int (= v (f 0))) (rhs int (= v (f 0))))\n")
    sol = tmp_path / "empty.sol"
    sol.write_text("(solution)\n")
    argv = ["validate", str(hmc), "--solution", str(sol), "--mode", "oracle", "--int-range", "0..1"]
    assert run(*argv, "--table-budget", "2") == (0, "SATISFIED\n")


OUTSIDE = str(EXAMPLES / "outside.hmc")
OUTSIDE_TEXT = (
    "an application outside the domain left cases unevaluated; no counterexample found\n"
)


def test_exec_ends_a_run_outside_the_domain():
    # outside.hmc applies f at x + 1: with x = 2 (x = 1 over 0..1) no table
    # of f holds the entry, and that run ends there; over 0..1 the four
    # tables of f are all tried
    for sem in ("relational", "imperative"):
        got = run("exec", OUTSIDE, "--semantics", sem)
        assert got == (2, SAMPLED_TEXT + OUTSIDE_TEXT), sem
        got = run("exec", OUTSIDE, "--semantics", sem, "--int-range", "0..1")
        assert got == (2, "INCONCLUSIVE\n" + OUTSIDE_TEXT), sem


def test_check_oracle_ends_a_run_outside_the_domain():
    for domain in ("-2..2", "0..1"):
        got = run_process("check", OUTSIDE, "--oracle", "--int-range", domain)
        assert got == (2, "INCONCLUSIVE\nabstraction cannot prove c0\n", ""), domain


def test_validate_oracle_ends_a_valuation_outside_the_domain(tmp_path):
    # another valuation may still refute: with k = (< v 1), x = 0 and
    # f(1) = 1 do
    hmc = tmp_path / "outside.hmc"
    hmc.write_text(
        "(uninterp (f (int) int))\n(kvar k (v int))\n"
        "(sub c0 (env (x int true)) (lhs int (= v (f (+ x 1)))) (rhs int (kapp k)))\n"
    )
    sol = tmp_path / "k.sol"
    argv = ["validate", str(hmc), "--solution", str(sol), "--mode", "oracle"]
    sol.write_text("(solution (k true))\n")
    unknown = "UNKNOWN\nc0: " + SAMPLED_TEXT.split("\n")[1] + "\nc0: " + OUTSIDE_TEXT
    assert run(*argv) == (2, unknown)
    assert run(*argv, "--int-range", "0..1") == (2, "UNKNOWN\nc0: " + OUTSIDE_TEXT)
    sol.write_text("(solution (k (< v 1)))\n")
    code, text = run(*argv, "--int-range", "0..1")
    assert code == 1 and text.startswith("VIOLATED(c0)\nwitness: {'x': 0, 'v': 1}")


def test_validate_reports_witness(tmp_path):
    sol = tmp_path / "s.sol"
    sol.write_text("(solution (k (= v v)))")
    code, text = run("validate", TWOREAD, "--solution", sol.as_posix(), "--json")
    data = json.loads(text)
    assert data["verdict"] == "VIOLATED" and "witness" in data["detail"]


@pytest.mark.parametrize(
    "entries, error",
    [
        ("(k1 (< v zz)) (k2 true)", "k1: UnboundVariable: zz"),
        ("(k1 (< v (len v))) (k2 true)", "k1: TypeMismatch"),
        ("(k1 (foo 1))", "k1: bad predicate (foo 1)"),
        ("(k1)", "bad solution entry (k1)"),
        ("(k1 true) (k3 true)", "unknown kvar k3"),
    ],
)
def test_validate_bad_solution_is_usage_error(tmp_path, entries, error):
    sol = tmp_path / "bad.sol"
    sol.write_text(f"(solution {entries})")
    code, stdout, stderr = run_process("validate", ITERI, "--solution", str(sol))
    assert code == 3 and stdout == ""
    assert stderr.startswith(f"error: {sol}: {error}")
    assert "Traceback" not in stderr


@pytest.mark.parametrize(
    "entries, error",
    [
        ("(k1)", "bad solution entry (k1)"),
        ("(k9 (<= 0 v))", "unknown kvar k9"),
        ("(k2 (<= 0 (nosuch v)))", "k2: UnknownFunction: nosuch"),
    ],
    ids=["no-predicate", "unknown-kvar", "ill-typed"],
)
def test_check_bad_preds_is_usage_error(tmp_path, capsys, entries, error):
    preds = tmp_path / "bad.preds"
    preds.write_text(f"(solution {entries})")
    assert run("check", ITERI, "--preds", str(preds)) == (3, "")
    assert capsys.readouterr().err.startswith(f"error: {preds}: {error}")


NAME_CLASHES = [
    (
        "(uninterp (v () int)) (sub c1 (lhs int (= v 1)) (rhs int (= v (v))))",
        "function v: v is the value variable",
    ),
    (
        "(uninterp (c () int)) (sub c1 (env (c int (= v 0))) (lhs int (= v (c)))"
        " (rhs int (= v 0)))",
        "c1: binder c names a function",
    ),
]

# the solver names its Ackermann constants `.ackN` and the variables of
# Omega's mod trick `.sigN`, so a user's name may not start with `.`: with
# these binders, `validate` said SATISFIED where the oracle found a violation
RESERVED = "a name that starts with . is reserved"
RESERVED_NAMES = [
    (
        "(uninterp (f (int) int)) (sub c1 (env (.ack0 int (= v 1))) (lhs int (= v (f 0)))"
        " (rhs int (= v 1)))",
        f"c1: binder .ack0: {RESERVED}",
    ),
    (
        "(sub c1 (env (y int true) (.sig1 int (= (* 2 v) (* 3 y)))) (lhs int (= v .sig1))"
        " (rhs int (= v 0)))",
        f"c1: binder .sig1: {RESERVED}",
    ),
    ("(uninterp (.f (int) int)) (sub c1 (lhs int true) (rhs int true))", f"function .f: {RESERVED}"),
    ("(kvar .k (v int)) (sub c1 (lhs int true) (rhs int (kapp .k)))", f"kvar .k: {RESERVED}"),
    ("(kvar k (v int) (.p int)) (sub c1 (lhs int true) (rhs int true))", f"kvar k: field .p: {RESERVED}"),
]


@pytest.mark.parametrize(
    "text, error",
    [
        ("(kvar k1)", "bad kvar (kvar k1)"),
        ("(kvar k1 (v))", "bad field (v)"),
        ("(kvar k1 v)", "bad field v"),
        ("(kvar k (v int) (x int) (x int))", "kvar k: duplicate field x"),
        ("(uninterp (f))", "bad function declaration (f)"),
        ("(sub c1)", "sub c1: needs an lhs and an rhs"),
        ("(sub c1 (lhs int true))", "sub c1: needs an lhs and an rhs"),
        ("(sub c1 (env (x)) (lhs int true) (rhs int true))", "bad binder (x)"),
        ("(sub c1 (lhs int (not)) (rhs int true))", "not takes one argument"),
        # a column counts characters, a comment included; only `\n` ends a line
        (
            "(kvar k (v int)) ; (\n\t\x0b(sub c1 (lhs int (= v 0)) (rhs int (kapp k)))) ; )",
            "2:48: unbalanced ')'",
        ),
        ("(kvar k (v int)) (sub c1 (lhs int (= v 0))", "unclosed '('"),
        # a typing error names its kind, as in a solution or --preds file
        ("(sub c1 (lhs int (= v 1)) (rhs int (= v (f))))", "c1: UnknownFunction: f"),
        (
            "(sub c2 (env (x int (= v y))) (lhs int true) (rhs int true))",
            "c2: UnboundVariable: y",
        ),
        # a type prints as written
        ("(kvar k (v int)) (sub c1 (lhs bool true) (rhs bool (kapp k)))", "c1: k refines int"),
        (
            "(kvar k (v int) (n int)) (sub c1 (env (b (ui obj) true)) (lhs int true)"
            " (rhs int (kapp k b)))",
            "c1: argument for k.n has type (ui obj)",
        ),
        (
            "(sub c1 (env (b bool true)) (lhs int (= v b)) (rhs int true))",
            "c1: TypeMismatch: comparison between int and bool",
        ),
        # of several errors, the first in reading order: the forms other
        # than `sub` first, then each `sub` in turn
        ("(sub c1 (lhs int (= v y)) (rhs int true)) (sub c2)", "c1: UnboundVariable: y"),
        ("(sub c1 (lhs int (= v y)) (rhs int true)) (kvar k)", "bad kvar (kvar k)"),
        # a variable and a function share one namespace in the SMT-LIB
        # text of a query, so no variable may share a name with a function
        *NAME_CLASHES,
        *RESERVED_NAMES,
    ],
)
def test_check_malformed_form_is_usage_error(tmp_path, text, error):
    f = tmp_path / "bad.hmc"
    f.write_text(text + "\n")
    code, stdout, stderr = run_process("check", str(f))
    assert code == 3 and stdout == ""
    assert stderr.startswith(f"error: {f}: {error}")
    assert "Traceback" not in stderr


@pytest.mark.parametrize("text, error", NAME_CLASHES + RESERVED_NAMES)
def test_validate_rejects_name_clash(tmp_path, text, error):
    f = tmp_path / "clash.hmc"
    f.write_text(text + "\n")
    sol = tmp_path / "empty.sol"
    sol.write_text("(solution)")
    code, stdout, stderr = run_process("validate", str(f), "--solution", str(sol))
    assert (code, stdout) == (3, "") and stderr.startswith(f"error: {f}: {error}")


@pytest.mark.parametrize(
    "header, pred, error",
    [
        (";; relvar k arity", "(= x 0)", "line 1: bad relvar header 'relvar k arity'"),
        ("", "(< x y)", "b1: undeclared variable y"),
        ("", "(< (f x) 0)", "b1: undeclared function f"),
        ("", "(x)", "b1: NonBoolAtom: x"),
        (";; basevar b bool", "(< b 1)", "b1: TypeMismatch: ordered comparison over non-int"),
    ],
)
def test_exec_malformed_imp_is_usage_error(tmp_path, header, pred, error):
    f = tmp_path / "bad.imp"
    f.write_text(
        f"{header}\n;; basevar x int\nloop {{\n  /*b1*/\n    havoc x;\n    assume {pred}\n}}\n"
    )
    code, stdout, stderr = run_process("exec", str(f))
    assert code == 3 and stdout == ""
    assert stderr.startswith(f"error: {f}: {error}")
    assert "Traceback" not in stderr


def test_check_types_a_temp_by_the_value_it_holds(tmp_path):
    # u0 is declared int and holds (tl b), an obj, in c2: each query types
    # c2's u0%3 as an obj, and c1's as an int
    dest = tmp_path / "queries"
    code, out, err = run_process("check", RETYPED, "--preds", RETYPED_PREDS, "--emit-smt", str(dest))
    assert code == 0 and out.startswith("SAFE") and "Traceback" not in err
    queries = [q.read_text() for q in dest.iterdir()]
    assert any("(len u0%3)" in q for q in queries)
    for q in queries:
        if "u0%3" in q:
            sort = "obj" if "(tl b%1)" in q else "Int"
            assert f"(declare-fun u0%3 () {sort})" in q, q
    solver = f"{sys.executable} -m hmc.smt"
    assert run_process("check", RETYPED, "--preds", RETYPED_PREDS, "--smt-cmd", solver)[:2] == (0, out)


def test_bool_valued_function_ranges_its_applications(tmp_path):
    # boolfun.hmc holds only if (f x) is 0 or 1, and its copy with a bool
    # constant (c) for (f x) only if (c) is: in process, and through the
    # filter, which sees each range as one assert per application
    sol = tmp_path / "empty.sol"
    sol.write_text("(solution)")
    const = tmp_path / "boolconst.hmc"
    text = Path(BOOLFUN).read_text().replace("(f (int) bool)", "(c () bool)")
    const.write_text(text.replace("(f x)", "(c)"))
    solver = ["--smt-cmd", f"{sys.executable} -m hmc.smt"]
    for hmc in (BOOLFUN, str(const)):
        for extra in ([], solver):
            code, out, err = run_process("check", hmc, *extra)
            assert (code, out.splitlines()[0], err) == (0, "SAFE", ""), (hmc, extra)
            code, out, err = run_process("validate", hmc, "--solution", str(sol), *extra)
            assert (code, out.splitlines()[0], err) == (0, "SATISFIED", ""), (hmc, extra)
    dest = tmp_path / "queries"
    assert run_process("check", BOOLFUN, "--emit-smt", str(dest))[0] == 0
    queries = [q.read_text() for q in dest.iterdir()]
    ranged = r"\(assert \(and \(<= 0 \(f (x\S*)\)\) \(<= \(f \1\) 1\)\)\)\n"
    assert queries and all(re.search(ranged, q) for q in queries), queries


def test_every_query_is_well_typed(tmp_path, monkeypatch):
    # `Hypothesis` does not typecheck: every query is built from parts that
    # a boundary checked, and from the SSA form, which follows the
    # `.imp` type rule. Typecheck each hypothesis and goal here instead.
    asked = []
    init, check = logic.Hypothesis.__init__, logic.Hypothesis.check

    def typed_init(self, env, hyp, mode, sigs=None):
        logic.typecheck_pred(env, hyp, sigs)
        init(self, env, hyp, mode, sigs)

    def typed_check(self, goal):
        logic.typecheck_pred(self.env, goal, self.sigs)
        asked.append(goal)
        return check(self, goal)

    monkeypatch.setattr(logic.Hypothesis, "__init__", typed_init)
    monkeypatch.setattr(logic.Hypothesis, "check", typed_check)
    runs = [[ITERI], [TWOREAD], [RETYPED, "--preds", RETYPED_PREDS]]
    for n in (3, 16):
        f = tmp_path / f"kchain{n}.hmc"
        f.write_text(kchain_text(n))
        runs.append([str(f)])
    for seed in range(150):
        f = tmp_path / f"gen{seed}.hmc"
        f.write_text(constraints.print_constraints(gen_constraint_set(random.Random(seed))))
        runs += [[str(f)], [str(f), "--no-clone"]]
    for argv in runs:
        assert run("check", *argv)[0] in (0, 1, 2), argv
    assert len(asked) > 1000


def test_check_preds_apply_to_each_clone(tmp_path):
    # c2 reads k twice, so cloning splits k into k.1 and k.2; only the
    # user's `11 <= v` proves c2, and it reaches both clones
    f = tmp_path / "twice.hmc"
    f.write_text(
        "(kvar k (v int))\n"
        "(sub c1 (env (z int (=> (not (= v 1)) (= v 2)))) (lhs int (= v (+ z 10))) (rhs int (kapp k)))\n"
        "(sub c2 (env (x int (kapp k)) (y int (kapp k))) (lhs int (= v (+ x y))) (rhs int (< 20 v)))\n"
    )
    preds = tmp_path / "twice.preds"
    preds.write_text("(solution (k (<= 11 v)))")
    assert run("check", str(f)) == (2, "INCONCLUSIVE\nabstraction cannot prove c2\n")
    code, text = run("check", str(f), "--preds", str(preds))
    assert code == 0 and text.startswith("SAFE")
    assert "(<= 11 k.1.0)" in text and "(<= 11 k.2.0)" in text


# Sets whose translation once captured a variable: a name the translation
# introduces that equals a binder or another type's value variable, or `v`
# in a kvar application's arguments left to mean whatever `v` held before.
# Each row: the set, the extra `check --oracle` flags, the exit code and how
# the output starts.
CAPTURE_ROWS = {
    "v_in_kapp_argument": (
        "(kvar k (v int) (n int))"
        "(sub c1 (env (x int true)) (lhs int (= v x)) (rhs int (kapp k (+ v 1))))"
        "(sub c2 (lhs int (kapp k v)) (rhs int false))",
        [], 0, "SAFE\n",
    ),
    "binder_t0_as_get_temp": (
        "(kvar k (v int))"
        "(sub c1 (lhs int (= v 0)) (rhs int (kapp k)))"
        "(sub c2 (env (t0 int (= v 5))) (lhs int (kapp k)) (rhs int (= t0 5)))",
        ["--int-range", "-1..6"], 0, "SAFE\n",
    ),
    "binder_v_bool_as_value_variable": (
        "(sub c (env (v_bool bool v)) (lhs bool true) (rhs bool v_bool))",
        [], 0, "SAFE\n",
    ),
    "binder_at_two_types": (
        "(sub c1 (env (x int (= v 0))) (lhs int (= v x)) (rhs int (= v 1)))"
        "(sub c2 (env (x bool v)) (lhs int true) (rhs int true))",
        [], 1, "UNSAFE\ntrace: c1\n",
    ),
    "binder_v_bool_at_int": (
        "(sub c1 (lhs bool true) (rhs bool true))"
        "(sub c2 (env (v_bool int (= v 0))) (lhs int true) (rhs int (= v_bool 1)))",
        [], 1, "UNSAFE\ntrace: c2\n",
    ),
    "bool_v_in_kapp_argument": (
        "(kvar k (v bool) (n bool))"
        "(sub c1 (lhs bool true) (rhs bool (kapp k v)))"
        "(sub c2 (lhs bool (kapp k v)) (rhs bool false))",
        [], 1, "UNSAFE\ntrace: c1 -> c2\n",
    ),
    "sort_named_bool": (
        "(sub c1 (env (y (ui bool) true)) (lhs bool true) (rhs bool (not v)))",
        [], 1, "UNSAFE\ntrace: c1\n",
    ),
}


@pytest.mark.parametrize("name", CAPTURE_ROWS)
def test_check_translation_captures_nothing(tmp_path, name):
    text, flags, want, start = CAPTURE_ROWS[name]
    f = tmp_path / f"{name}.hmc"
    f.write_text(text)
    code, out = run("check", str(f), "--oracle", *flags)
    assert code == want and out.startswith(start), out
    cs = constraints.parse_constraints(text)
    for cloned, clones in [(cs, None), clone(cs)]:
        p = translate_set_of_constraints(cloned, clones)
        assert not any(imp.reads_before_writing(b) for _, b in p.blocks)


# example -> the exit code of `hmc check` on it, and its flags
GOLDEN_CHECKS = {
    "iteri_mask": (0, []),
    "tworead": (2, []),
    "sums": (0, []),
    "boolfun": (0, []),
    "retyped": (0, ["--preds", RETYPED_PREDS]),
    "clonefold": (0, []),
    "deeperr": (1, ["--oracle"]),
    "chain8": (0, []),
    "capture": (0, []),
    "outside": (2, ["--oracle"]),
}


@pytest.mark.parametrize("name", GOLDEN_CHECKS)
def test_check_output_matches_golden(name):
    # the invariant and solution text follow the order of each kvar's
    # predicates, so this pins predicate discovery as well as the printer
    want, flags = GOLDEN_CHECKS[name]
    code, text = run("check", str(EXAMPLES / f"{name}.hmc"), *flags)
    assert code == want
    assert text == (EXAMPLES / f"{name}.check.txt").read_text()


@pytest.mark.parametrize("name", [n for n, (code, _) in GOLDEN_CHECKS.items() if code == 0])
def test_golden_solution_revalidates(tmp_path, name):
    # the `(solution ...)` lines a SAFE check prints, joined into one
    # solution file, are read back by `validate` and satisfy the set: in
    # process and through the filter
    golden = (EXAMPLES / f"{name}.check.txt").read_text()
    lines = golden.partition("solution:\n")[2].splitlines()  # none for boolfun
    entries = [e for line in lines for e in parse_one(line)[1:]]
    sol = tmp_path / f"{name}.sol"
    sol.write_text(to_str(["solution", *entries]) + "\n")
    hmc = str(EXAMPLES / f"{name}.hmc")
    assert run("validate", hmc, "--solution", str(sol)) == (0, "SATISFIED\n")
    solver = f"{sys.executable} -m hmc.smt"
    got = run_process("validate", hmc, "--solution", str(sol), "--smt-cmd", solver)
    assert got == (0, "SATISFIED\n", "")


PROVABLE = "(sub c1 (lhs int (= v 1)) (rhs int (<= 0 v)))\n"
UNPROVABLE = "(sub c1 (lhs int (= v 1)) (rhs int (<= 2 v)))\n"


@pytest.mark.parametrize(
    "command, flags, error",
    [
        ("check", ["--int-range", "abc"], "bad range 'abc', expected LO..HI"),
        ("check", ["--int-range", "abc", "--oracle"], "bad range 'abc', expected LO..HI"),
        ("check", ["--int-range", "2..-2", "--oracle"], "int_range must be non-empty"),
        ("check", ["--ui-range", "nonsense", "--oracle"], "bad --ui-range 'nonsense'"),
        ("check", ["--ui-range", "obj=3..1"], "empty ui range"),
        ("exec", ["--int-range", "1..0"], "int_range must be non-empty"),
        ("validate", ["--solution", "SOL", "--int-range", "abc"], "bad range 'abc'"),
        ("check", ["--table-budget", "0", "--oracle"], "argument --table-budget: must be at least 1, got 0"),
        ("exec", ["--table-budget", "-3"], "argument --table-budget: must be at least 1, got -3"),
        ("validate", ["--solution", "SOL", "--mode", "oracle", "--table-budget", "0"], "argument --table-budget"),
        ("check", ["--fuel", "-1", "--oracle"], "argument --fuel: must be at least 0, got -1"),
        ("exec", ["--fuel", "-1"], "argument --fuel: must be at least 0, got -1"),
    ],
)
@pytest.mark.parametrize("text", [PROVABLE, UNPROVABLE], ids=["provable", "unprovable"])
def test_bad_domain_flag_is_usage_error(tmp_path, capsys, command, flags, error, text):
    # the domain and fuel flags are checked before anything runs, so a
    # malformed or empty range, a table budget below 1 or a negative fuel is
    # exit 3 whether or not the oracle would have used it
    f = tmp_path / "c.hmc"
    f.write_text(text)
    sol = tmp_path / "c.sol"
    sol.write_text("(solution)\n")
    code, out = run(command, str(f), *[str(sol) if a == "SOL" else a for a in flags])
    assert (code, out) == (3, "")
    assert capsys.readouterr().err.startswith(f"error: {error}")


def test_usage_errors():
    code, _ = run("exec", "/nonexistent/file.imp")
    assert code == 3
    code, _ = run("frobnicate")
    assert code == 3
    # flags no command reads are not accepted
    for argv in (["translate", ITERI, "--simplify"], ["translate", ITERI, "--emit-imp", "x.imp"],
                 ["check", ITERI, "--emit-imp", "x.imp"],
                 ["validate", ITERI, "--solution", ITERI, "--fuel", "5"]):
        assert run(*argv)[0] == 3, argv


def test_solver_failure_exit_code(tmp_path):
    code, _ = run("check", ITERI, "--smt-cmd", "/nonexistent/solver")
    assert code == 4


def stub_solver(tmp_path, answer):
    """An `--smt-cmd` that reads its query and prints `answer`, whatever it
    was asked."""
    script = tmp_path / "stub.py"
    script.write_text(f"import sys\nsys.stdin.read()\nsys.stdout.write({answer!r})\n")
    return f"{shlex.quote(sys.executable)} {shlex.quote(str(script))}"


@pytest.mark.parametrize(
    "answer, reason",
    [("", "empty solver output"), ("(error x)\n", "(error x)"), ("banana\n", "banana")],
    ids=["empty", "error", "banana"],
)
def test_solver_answer_outside_the_protocol_is_exit_4(tmp_path, answer, reason):
    got = run_process("check", ITERI, "--smt-cmd", stub_solver(tmp_path, answer))
    assert got == (4, "", f"solver failure: {reason}\n")


def test_solver_sat_without_a_model_is_inconclusive(tmp_path):
    # every query is refuted with no witness, so nothing is proved
    code, out, err = run_process("check", ITERI, "--smt-cmd", stub_solver(tmp_path, "sat\n"))
    assert (code, out.splitlines()[0], err) == (2, "INCONCLUSIVE", "")


def test_emit_smt_dir(tmp_path):
    hmc = tmp_path / "sat.hmc"
    hmc.write_text(SATISFIABLE)
    sol = tmp_path / "sol.sol"
    sol.write_text("(solution (k (<= 0 v)))")
    dest = tmp_path / "queries"
    code, _ = run(
        "validate", str(hmc), "--solution", str(sol), "--emit-smt", str(dest)
    )
    assert code == 0
    assert any(f.suffix == ".smt2" for f in Path(dest).iterdir())


def kchain_text(n):
    """A chain of n kvars: link 0 writes `v = 0`, link i passes `v = x + 1`
    from k(i-1) to k(i), and a last constraint asserts `0 <= v` of k(n-1).
    Constraints are listed last link first. From k01 on every kvar gets the
    same solution, so links 2 to n-1 embed to one and the same query."""
    k = [f"k{i:02d}" for i in range(n)]
    lines = [f"(kvar {name} (v int))" for name in k]
    lines.append(f"(sub c{n} (env (x int (kapp {k[-1]}))) (lhs int (= v x)) (rhs int (<= 0 v)))")
    for i in range(n - 1, 0, -1):
        lines.append(
            f"(sub c{i} (env (x int (kapp {k[i - 1]}))) "
            f"(lhs int (= v (+ x 1))) (rhs int (kapp {k[i]})))"
        )
    lines.append(f"(sub c0 (lhs int (= v 0)) (rhs int (kapp {k[0]})))")
    return "\n".join(lines) + "\n"


def test_revalidation_decides_each_distinct_embedding_once(tmp_path, monkeypatch):
    f = tmp_path / "kchain16.hmc"
    f.write_text(kchain_text(16))
    asked = []
    embedded = []

    def check_valid(tenv, q, *rest, _check=constraints.check_valid):
        asked.append((tenv, q))
        return _check(tenv, q, *rest)

    def embed_sub(*args, _embed=constraints.embed_sub):
        embedded.append(_embed(*args))
        return embedded[-1]

    monkeypatch.setattr(constraints, "check_valid", check_valid)
    monkeypatch.setattr(constraints, "embed_sub", embed_sub)
    code, text = run("check", str(f))
    assert code == 0 and text.startswith("SAFE")
    # one embedding per distinct constraint shape: c16, the links c2 to c15
    # (k01 to k15 share a solution), c1 and c0
    assert len(embedded) == 4
    assert asked == list(dict.fromkeys(embedded))
    assert len(asked) < 17


def test_emit_smt_writes_each_query_once(tmp_path):
    f = tmp_path / "kchain16.hmc"
    f.write_text(kchain_text(16))
    dest = tmp_path / "queries"
    code, text = run("check", str(f), "--emit-smt", str(dest))
    assert code == 0 and text.startswith("SAFE")
    queries = [q.read_text() for q in dest.iterdir()]
    # one file per query searched: two of the fixpoint's queries are
    # decided by a model that an earlier query on the same path returned
    assert len(queries) == len(set(queries)) == 14


def test_check_zero_coefficient_terminates(tmp_path):
    # (* 0 x) in a path used to leave a zero coefficient in the miner's
    # linear forms, which Fourier-Motzkin then tried to eliminate forever
    f = tmp_path / "zero.hmc"
    f.write_text(
        "(kvar k (v int))\n"
        "(sub c0 (env (x int true)) (lhs int (= v (* 0 x))) (rhs int (kapp k)))\n"
        "(sub c1 (env (y int (kapp k))) (lhs int (= v y)) (rhs int (<= 0 v)))\n"
    )
    code, text, _ = run_process("check", str(f), timeout=30)
    assert code == 0 and text.startswith("SAFE")


# Sets whose folded clone solutions made re-validation expand every branch
# of a large DNF. Draws 103 and 184 of the property suites' shape in the
# random.Random(12345) stream:
DRAW_103 = """\
(kvar k0 (v int) (p0 int))
(sub c0 (env (x0 int (<= v (+ v 0)))) (lhs int (= (+ v 1) (+ v 1))) (rhs int (kapp k0 1)))
(sub c1 (env (x0 int (<= v v)) (x1 int (<= (+ v 0) x0))) (lhs int (kapp k0 1)) (rhs int (kapp k0 0)))
(sub c2 (env (x0 int (kapp k0 1)) (x1 int (kapp k0 0))) (lhs int (kapp k0 x0)) (rhs int (kapp k0 x0)))
"""
DRAW_184 = """\
(kvar k0 (v int) (p0 int))
(sub c0 (env (x0 int (kapp k0 0))) (lhs int (kapp k0 x0)) (rhs int (kapp k0 0)))
(sub c1 (env (x0 int (< 0 v))) (lhs int (<= (+ x0 0) v)) (rhs int (kapp k0 1)))
(sub c2 (env (x0 int (not (<= 1 0)))) (lhs int (= (+ v 1) x0)) (rhs int (kapp k0 x0)))
"""
# gen_constraint_set(random.Random(8), max_kvars=3, max_params=2,
# max_constraints=5): c1 reads k0 three times, so cloning makes three copies.
R8 = """\
(kvar k0 (v int) (p0 int))
(sub c0 (lhs int (kapp k0 0)) (rhs int (kapp k0 1)))
(sub c1 (env (x0 int (kapp k0 1)) (x1 int (kapp k0 1))) (lhs int (kapp k0 1)) (rhs int (kapp k0 1)))
(sub c2 (env (x0 int (kapp k0 0)) (x1 int (= v x0))) (lhs int (<= (+ v 0) 0)) (rhs int (kapp k0 x0)))
(sub c3 (lhs int (< 1 v)) (rhs int (kapp k0 0)))
"""


@pytest.mark.parametrize(
    "text", [DRAW_103, DRAW_184, R8], ids=["draw103", "draw184", "r8"]
)
def test_check_revalidates_folded_clone_solution(tmp_path, text):
    f = tmp_path / "set.hmc"
    f.write_text(text)
    code, out, _ = run_process("check", str(f), timeout=30)
    assert code == 0 and out.startswith("SAFE")


def test_check_resource_exhaustion_exits_4(tmp_path):
    # reading a conjunction nested 1,200 deep exceeds the recursion limit:
    # that is no input error and no verdict, and it prints no traceback
    f = tmp_path / "deep.hmc"
    nested = "(and (<= 0 v) " * 1199 + "(<= 0 v)" + ")" * 1199
    f.write_text(
        "(kvar k (v int))\n"
        "(sub c0 (lhs int (= v 0)) (rhs int (kapp k)))\n"
        f"(sub c1 (lhs int {nested}) (rhs int (kapp k)))\n"
    )
    code, out, err = run_process("check", str(f), timeout=30)
    assert code == 4 and out == ""
    assert err.startswith("resource exhausted: ") and "Traceback" not in err


def test_check_flat_conjunction(tmp_path):
    # a flat conjunction is one node, however long: no walk over it
    # recurses once per conjunct
    f = tmp_path / "flat.hmc"
    conjuncts = " ".join(f"(<= {-i} v)" for i in range(2000))
    f.write_text(
        "(kvar k (v int))\n"
        "(sub c0 (lhs int (= v 0)) (rhs int (kapp k)))\n"
        f"(sub c1 (lhs int (and {conjuncts})) (rhs int (kapp k)))\n"
        "(sub c2 (lhs int (kapp k)) (rhs int (<= 0 v)))\n"
    )
    code, out, err = run_process("check", str(f), timeout=30)
    assert (code, err) == (0, "") and out.startswith("SAFE"), (code, err)


def test_check_flat_sum(tmp_path):
    # a flat sum is one node, however long: reading it, the SSA form,
    # the miner and the solver do not recurse once per term. Each term is
    # bound by an equality, which the presolve substitutes away
    f = tmp_path / "sum.hmc"
    xs = [f"x{i}" for i in range(1500)]
    env = " ".join(f"({x} int (= v 1))" for x in xs)
    f.write_text(
        "(kvar k (v int))\n"
        f"(sub c1 (env {env}) (lhs int (= v (+ {' '.join(xs)}))) (rhs int (kapp k)))\n"
        "(sub c2 (lhs int (kapp k)) (rhs int (<= 0 v)))\n"
    )
    code, out, err = run_process("check", str(f), timeout=60)
    assert (code, err) == (0, "") and out.startswith("SAFE"), (code, err)


def test_check_flat_sum_over_bounded_terms(tmp_path):
    # each term is bound only by `0 <= v`, so the presolve leaves every one
    # to the Omega test, which eliminates them one-sided in a loop
    f = tmp_path / "sum.hmc"
    xs = [f"x{i}" for i in range(1200)]
    env = " ".join(f"({x} int (<= 0 v))" for x in xs)
    f.write_text(
        "(kvar k (v int))\n"
        f"(sub c1 (env {env}) (lhs int (= v (+ {' '.join(xs)}))) (rhs int (kapp k)))\n"
        "(sub c2 (lhs int (kapp k)) (rhs int (<= 0 v)))\n"
    )
    code, out, err = run_process("check", str(f), timeout=60)
    assert (code, err) == (0, "") and out.startswith("SAFE"), (code, err)


def test_unsafe_trace_independent_of_string_hashing(tmp_path):
    # c0 -> c1 and c0 -> c2 both reach ERROR; the least one in block order
    # is reported, whatever order the state sets iterate in
    f = tmp_path / "two_traces.hmc"
    f.write_text(
        "(kvar k0 (v int)) (kvar k1 (v int))\n"
        "(sub c0 (lhs int (not (< v 1))) (rhs int (kapp k0)))\n"
        "(sub c1 (lhs int (kapp k0)) (rhs int (<= (+ v 0) 1)))\n"
        "(sub c2 (env (x0 int (kapp k0))) (lhs int (<= (+ v 1) (+ v 1)))"
        " (rhs int (<= (+ x0 1) (+ x0 0))))\n"
    )
    for seed in ("1", "3"):
        code, text, _ = run_process("check", str(f), "--oracle", hash_seed=seed)
        assert code == 1 and text.splitlines()[-1] == "trace: c0 -> c1", seed


def test_deep_counterexample_replays():
    # the golden trace of deeperr.hmc, four blocks deep, reaches ERROR when
    # its blocks run in turn under the relational semantics
    trace = (EXAMPLES / "deeperr.check.txt").read_text().splitlines()[1]
    cs = constraints.parse_constraints((EXAMPLES / "deeperr.hmc").read_text())
    p = translate_set_of_constraints(*clone(cs))
    c = imp.ExecContext(p, logic.ValueDomain(), {})
    assert replays_to_error(p, c, trace.removeprefix("trace: ").split(" -> "))


def test_check_output_independent_of_string_hashing(tmp_path):
    # the merged solution prints in the same bytes whatever order the cube
    # sets iterate in, and it validates as printed
    runs = [run_process("check", ITERI, hash_seed=seed) for seed in ("1", "3")]
    assert runs[0] == runs[1]
    code, text, _ = runs[0]
    assert code == 0 and text.startswith("SAFE")
    prefix = "(solution "
    entries = [line.strip() for line in text.splitlines() if line.strip().startswith(prefix)]
    assert len(entries) == 2
    sol = tmp_path / "iteri.sol"
    sol.write_text(prefix + " ".join(e[len(prefix) : -1] for e in entries) + ")\n")
    code, text, _ = run_process("validate", ITERI, "--solution", str(sol))
    assert code == 0 and text == "SATISFIED\n"


def test_parser_built_once_parses_fresh():
    ap = build_parser()
    assert build_parser() is ap
    a = ap.parse_args(["exec", "p.imp", "--ui-range=obj=0..1"])
    b = ap.parse_args(["exec", "p.imp", "--ui-range=obj=0..2"])
    assert a.ui_range == ["obj=0..1"] and b.ui_range == ["obj=0..2"]
