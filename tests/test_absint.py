import io
import itertools
import random
import shlex
import sys
from pathlib import Path

import pytest

from gen import gen_constraint_set
from hmc import absint, cli, smt
from hmc.absint import (
    MAX_PREDS_PER_KVAR,
    AbstractInvariant,
    Engine,
    extract_solution,
    field_var,
    format_invariant,
    harvest_predicates,
    merge_cubes,
    mined_predicates,
    parse_preds,
    run_blocks,
    solve,
)
from hmc.clone import clone
from hmc.constraints import (
    check_satisfied,
    parse_constraints,
)
from hmc.imp import (
    Assert,
    Assign,
    Assume,
    Get,
    Havoc,
    ImpProgram,
    ParseError,
    Set,
    parse_imp,
    seq_of,
    type_instr,
)
from hmc.logic import (
    App,
    BOOL,
    Cmp,
    INT,
    INVALID,
    OracleMode,
    SolverMode,
    TypeEnv,
    UNKNOWN,
    VALID,
    ValueDomain,
    Var,
    check_valid,
    eval_pred,
    free_vars,
    implies,
    pred_from_sexpr,
    subst,
    to_text,
)
from hmc.translate import translate_set_of_constraints

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def load(text):
    return parse_constraints(text)



def program_for(name):
    cs = load((EXAMPLES / name).read_text())
    cloned, clones = clone(cs)
    return cs, clones, translate_set_of_constraints(cloned, clones)


def program_of(cs):
    cloned, clones = clone(cs)
    return translate_set_of_constraints(cloned, clones)


def chain_text(n, rng=None):
    """A chain of n kvars listed last link first: link 0 writes v = 0, link
    i passes v = x + 1 on from link i - 1, and a last constraint asserts
    0 <= v of link n - 1. Plain round-robin needs one pass per link. With
    `rng`, the kvar names are shuffled over the links."""
    k = [f"k{i}" for i in range(n)]
    if rng is not None:
        rng.shuffle(k)
    lines = [f"(kvar {name} (v int))" for name in k]
    lines.append(
        f"(sub c{n} (env (x int (kapp {k[n - 1]}))) (lhs int (= v x)) (rhs int (<= 0 v)))"
    )
    for i in range(n - 1, 0, -1):
        lines.append(
            f"(sub c{i} (env (x int (kapp {k[i - 1]}))) (lhs int (= v (+ x 1)))"
            f" (rhs int (kapp {k[i]})))"
        )
    lines.append(f"(sub c0 (lhs int (= v 0)) (rhs int (kapp {k[0]})))")
    return "\n".join(lines) + "\n"


def test_field_var():
    assert field_var("k1", 0) == "k1.0"


def test_harvest_includes_cross_block_atoms():
    _, _, p = program_for("iteri_mask.hmc")
    preds = harvest_predicates(p, run_blocks(p))
    texts = {k: {to_text(f) for f in fs} for k, fs in preds.items()}
    # an atom written into k2's blocks lands on k1 through k1's write maps too
    assert any("k1.0" in t for t in texts["k1"])
    assert any("(len k2.1)" in t for t in texts["k2"])


def test_harvest_ignores_a_repeated_constraint():
    # a constraint repeated under a new label repeats its atoms and its
    # write: every predicate they offer is already in the list
    text = (EXAMPLES / "iteri_mask.hmc").read_text()
    c1 = text[text.index("(sub c1"):text.index("; the recursive call")]
    texts = []
    for extra in ("", c1.replace("(sub c1", "(sub c5")):
        p = program_of(load(text + extra))
        preds = harvest_predicates(p, run_blocks(p))
        texts.append({k: [to_text(q) for q in qs] for k, qs in preds.items()})
    assert len(p.blocks) == 5 and texts[0] == texts[1]


def test_mining_produces_relational_bound():
    _, _, p = program_for("iteri_mask.hmc")
    mined = mined_predicates(p, run_blocks(p))
    texts = {to_text(q) for k, q in mined if k == "k1"}
    # the inductive strengthening relating the index to the shrinking tail
    assert any("len" in t and "k1.0" in t and "k1.1" in t for t in texts)


def test_mining_maps_applications_back_to_fields():
    # `(c)` takes no argument and `(len xs)` one written field: both come
    # back as applications over the fields, in the order of their text, and
    # the three-term sum of the path projects to a two-term one. The
    # projection's empty forms add no copies of it
    _, _, p = program_for("sums.hmc")
    runs = run_blocks(p)
    mined = mined_predicates(p, runs)
    assert [(k, to_text(q)) for k, q in mined] == [("k", "(<= (+ (c) (len k.1)) k.0)")]
    preds = harvest_predicates(p, runs)
    assert {k: [to_text(q) for q in qs] for k, qs in preds.items()} == {
        "k": ["(<= 0 k.0)", "(<= (+ (c) (len k.1) 0) k.0)", "(<= (+ (c) (len k.1)) k.0)"]
    }


def test_solve_proves_iteri():
    cs, _, p = program_for("iteri_mask.hmc")
    runs = run_blocks(p)
    preds = harvest_predicates(p, runs)
    res = solve(p, runs, preds, SolverMode())
    assert res.failing is None
    sol = extract_solution(res.invariant, preds, cs.kvars)
    assert list(sol) == list(cs.kvars)
    rep = check_satisfied(cs, sol, SolverMode())
    assert rep.satisfied, rep.first_failure


def test_solution_matches_oracle_on_small_domain():
    cs, _, p = program_for("iteri_mask.hmc")
    runs = run_blocks(p)
    preds = harvest_predicates(p, runs)
    res = solve(p, runs, preds, SolverMode())
    sol = extract_solution(res.invariant, preds, cs.kvars)
    mode = OracleMode(ValueDomain((-1, 1), (("obj", (0, 1)),)))
    assert check_satisfied(cs, sol, mode).satisfied


def test_unprovable_stays_inconclusive():
    # assert something false of every written tuple: no invariant helps
    text = (
        ";; relvar k arity 1 types int\n"
        ";; basevar x int\n"
        ";; basevar t0 int\n"
        "loop {\n"
        "  /*w*/\n"
        "    havoc x;\n"
        "    set k (x)\n"
        "[]\n"
        "  /*r*/\n"
        "    get k (t0);\n"
        "    x := t0;\n"
        "    assert (= x 7)\n"
        "}\n"
    )
    p = parse_imp(text)
    runs = run_blocks(p)
    res = solve(p, runs, harvest_predicates(p, runs), SolverMode())
    assert res.failing is not None and res.failing.label == "r"


def test_empty_invariant_blocks_get():
    # reader is vacuously safe when the writer can never run
    text = (
        ";; relvar k arity 1 types int\n"
        ";; basevar x int\n"
        ";; basevar t0 int\n"
        "loop {\n"
        "  /*w*/\n"
        "    assume (< 0 0);\n"
        "    set k (x)\n"
        "[]\n"
        "  /*r*/\n"
        "    get k (t0);\n"
        "    x := t0;\n"
        "    assert (= x 7)\n"
        "}\n"
    )
    p = parse_imp(text)
    runs = run_blocks(p)
    preds = harvest_predicates(p, runs)
    res = solve(p, runs, preds, SolverMode())
    assert res.failing is None
    sol = extract_solution(res.invariant, preds, {"k": None})
    assert to_text(sol["k"]) == "false"


def test_parse_preds_splits_conjunctions():
    _, _, p = program_for("tworead.hmc")
    preds = parse_preds("(solution (k.1 (and (<= 0 v) (<= v 1))))", p)
    k1 = [q for k, q in preds if k == "k.1"]
    assert len(k1) == 2
    assert {to_text(q) for q in k1} == {
        "(<= 0 k.1.0)",
        "(<= k.1.0 1)",
    }


def test_parse_preds_entry_for_a_cloned_kvar_reaches_each_clone():
    cs = load(
        "(kvar k (v int) (n int))\n"
        "(sub c1 (env (x int true)) (lhs int (= v x)) (rhs int (kapp k (+ x 1))))\n"
        "(sub c2 (env (a int (kapp k 1)) (b int (kapp k 2))) (lhs int (= v a)) (rhs int (<= v b)))\n"
    )
    p = program_of(cs)
    assert p.clones == {"k.1": "k", "k.2": "k"}
    preds = parse_preds("(solution (k (<= v k.1)))", p)
    assert [(k, to_text(q)) for k, q in preds] == [
        ("k.1", "(<= k.1.0 k.1.1)"),
        ("k.2", "(<= k.2.0 k.2.1)"),
    ]


# k already holds MAX_PREDS_PER_KVAR = 14 harvested predicates from c0, and
# c1 needs `v <= 50` (or any bound below 100), which only an extra gives
CAPPED = (
    "(kvar k (v int))\n"
    "(sub c0 (lhs int (and " + " ".join(f"(<= {-i} v)" for i in range(14)) + " (<= v 7)))"
    " (rhs int (kapp k)))\n"
    "(sub c1 (env (x int (kapp k))) (lhs int (= v x)) (rhs int (< v 100)))\n"
)


def test_preds_extras_sit_outside_the_cap():
    p = program_of(load(CAPPED))
    runs = run_blocks(p)
    extra = parse_preds("(solution (k (<= v 50)))", p)
    plain = harvest_predicates(p, runs)["k"]
    assert len(plain) == MAX_PREDS_PER_KVAR
    preds = harvest_predicates(p, runs, extra + extra)
    assert [to_text(q) for q in preds["k"]] == [to_text(q) for q in plain] + ["(<= k.0 50)"]
    assert solve(p, runs, preds, SolverMode()).failing is None
    assert solve(p, runs, {"k": plain}, SolverMode()).failing is not None


def test_run_blocks_rejects_an_ill_typed_program():
    # a program built in code skips `parse_imp`; its SSA form checks
    # each instruction with the same rule, so no ill-typed query is built
    def program(*instrs):
        p = ImpProgram(relvar_sigs={"k": (INT,)}, base_types={"b": BOOL, "t": INT})
        p.blocks.append(("b1", seq_of(instrs)))
        return p

    bad = [
        ((Havoc("b"), Assert(pred_from_sexpr(["<", "b", 1]))),
         "b1: TypeMismatch: ordered comparison over non-int operands"),
        ((Havoc("b"), Set("k", ("b",))), "b1: TypeMismatch: k takes int where b holds bool"),
    ]
    for instrs, error in bad:
        with pytest.raises(ParseError) as exc:
            run_blocks(program(*instrs))
        assert str(exc.value) == error
    # b, declared bool, holds the int that `get` writes, and so does b%0
    runs = run_blocks(program(Get("k", ("b",)), Assert(pred_from_sexpr(["<=", 0, "b"]))))
    assert [tenv.bindings for _, tenv in runs.values()] == [(("b%0", INT),)]


def test_ssa_form_is_single_assignment_well_typed_imp():
    # the miner's memo key and the hypothesis keys are built from the SSA
    # names: each entry writes a name once, reads only names its type
    # environment binds, and typechecks as IMP under that environment, one
    # instruction for each instruction of the block but its havocs
    sets = [load(f.read_text()) for f in sorted(EXAMPLES.glob("*.hmc"))]
    rng = random.Random(31)
    sets += [gen_constraint_set(rng, 3, 2, 5) for _ in range(40)]
    programs = [program_of(cs) for cs in sets] + [translate_set_of_constraints(cs) for cs in sets]
    for p in programs:
        runs = run_blocks(p)
        for label, block in p.blocks:
            instrs, tenv = runs[block]
            source = [i for i in block.instrs if not isinstance(i, Havoc)]
            assert len(instrs) == len(source), label
            written, names = [], set()
            for src, i in zip(source, instrs):
                if isinstance(src, Assign):
                    assert isinstance(i, Assume) and i.pred.op == "=", label
                    written.append(i.pred.left.name)
                else:
                    assert type(i) is type(src), label
                if isinstance(i, Get):
                    written += i.targets
                    names |= set(i.targets)
                elif isinstance(i, Set):
                    names |= set(i.args)
                else:
                    names |= free_vars(i.pred)
                types = dict(tenv.bindings)
                type_instr(p, label, i, types)
                assert types == dict(tenv.bindings), label
            assert len(written) == len(set(written)), label
            assert names <= dict(tenv.bindings).keys(), label


def test_assert_status_is_its_querys_verdict():
    # the solver refutes `x%0 <= 1`, and a solver that answers `unknown`
    # leaves it undecided: either way the assert is the failing one
    p = parse_imp(";; basevar x int\nloop {\n  /*b*/\n    havoc x;\n    assert (<= x 1)\n}\n")
    runs = run_blocks(p)
    shim = shlex.quote(sys.executable) + " -c \"print('unknown')\""
    for mode, status in ((SolverMode(), INVALID), (SolverMode(cmd=shim), UNKNOWN)):
        res = solve(p, runs, harvest_predicates(p, runs), mode)
        assert [(s.label, s.status) for s in res.statuses] == [("b", status)]
        assert res.failing is res.statuses[0]
        assert to_text(res.failing.query) == "(<= x%0 1)"


def test_format_invariant_mentions_preds():
    cs, _, p = program_for("iteri_mask.hmc")
    runs = run_blocks(p)
    preds = harvest_predicates(p, runs)
    res = solve(p, runs, preds, SolverMode())
    text = format_invariant(res.invariant, preds)
    assert "k1" in text and "k2" in text


def test_engine_assert_statuses():
    cs, _, p = program_for("iteri_mask.hmc")
    runs = run_blocks(p)
    res = solve(p, runs, harvest_predicates(p, runs), SolverMode())
    assert res.statuses and all(s.status == VALID for s in res.statuses)


def test_chain_listed_last_link_first_runs_each_block_few_times(monkeypatch):
    p = program_of(load(chain_text(24)))
    calls = []
    post = Engine.abstract_post

    def counted(self, label, block, inv):
        calls.append(label)
        return post(self, label, block, inv)

    monkeypatch.setattr(Engine, "abstract_post", counted)
    runs = run_blocks(p)
    res = solve(p, runs, harvest_predicates(p, runs), SolverMode())
    assert res.failing is None
    # each link runs once before and once after its source gains its cube;
    # re-running every block on every pass takes (24 + 2) * (24 + 1) = 650
    assert len(calls) <= 50


# r first proves its assert, then loses it when w1 adds k.0 = 1
REGRESSING_READER = (
    ";; relvar k arity 1 types int\n"
    ";; basevar x int\n"
    ";; basevar t0 int\n"
    "loop {\n"
    "  /*w0*/\n"
    "    x := 0;\n"
    "    set k (x)\n"
    "[]\n"
    "  /*r*/\n"
    "    get k (t0);\n"
    "    assert (= t0 0)\n"
    "[]\n"
    "  /*w1*/\n"
    "    get k (t0);\n"
    "    x := (+ t0 1);\n"
    "    set k (x)\n"
    "}\n"
)


def round_robin(p, runs, preds, mode):
    """Reference fixpoint: every block on every pass until a pass adds no
    cube, then one more pass over every block for the assert statuses.
    Returns the cubes, the (label, status) list and the failing label."""
    engine = Engine(p, runs, preds, mode)
    inv = AbstractInvariant({k: set() for k in p.relvar_sigs})
    changed = True
    while changed:
        changed = False
        for label, block in p.blocks:
            _, new = engine.abstract_post(label, block, inv)
            for kvar, cube in new:
                if cube not in inv.cubes[kvar]:
                    inv.cubes[kvar].add(cube)
                    changed = True
    statuses = []
    for label, block in p.blocks:
        statuses.extend(engine.abstract_post(label, block, inv)[0])
    failing = next((s.label for s in statuses if s.status != VALID), None)
    return inv.cubes, [(s.label, s.status) for s in statuses], failing


def test_solve_matches_round_robin():
    programs = [program_for(name)[2] for name in ("iteri_mask.hmc", "tworead.hmc")]
    programs.append(program_of(load(chain_text(24))))
    programs.append(parse_imp(REGRESSING_READER))
    programs += [program_of(gen_constraint_set(random.Random(seed))) for seed in range(100)]
    outcomes = set()
    for p in programs:
        runs = run_blocks(p)
        preds = harvest_predicates(p, runs)
        res = solve(p, runs, preds, SolverMode())
        got = (
            res.invariant.cubes,
            [(s.label, s.status) for s in res.statuses],
            res.failing and res.failing.label,
        )
        assert got == round_robin(p, runs, preds, SolverMode())
        outcomes.add(res.failing is None)
    assert outcomes == {True, False}


def scanned_order(p, runs, preds, mode):
    """Reference schedule: the labels of the blocks the fixpoint runs when
    each pass scans every block in order and runs the stale ones."""
    engine = Engine(p, runs, preds, mode)
    inv = AbstractInvariant({k: set() for k in p.relvar_sigs})
    readers = {k: set() for k in p.relvar_sigs}
    for i, (_, block) in enumerate(p.blocks):
        for instr in runs[block][0]:
            if isinstance(instr, Get):
                readers[instr.relvar].add(i)
    order = []
    stale = set(range(len(p.blocks)))
    while stale:
        for i, (label, block) in enumerate(p.blocks):
            if i not in stale:
                continue
            stale.discard(i)
            order.append(label)
            _, new = engine.abstract_post(label, block, inv)
            for kvar, cube in new:
                if cube not in inv.cubes[kvar]:
                    inv.cubes[kvar].add(cube)
                    stale |= readers[kvar]
    return order


def test_solve_posts_blocks_in_round_robin_order(monkeypatch):
    # `solve` jumps to the next stale block instead of scanning every block
    # on each pass; the blocks it runs, and their order, stay the same
    rng = random.Random(23)
    programs = [program_of(load(chain_text(n, rng))) for n in (1, 2, 8, 16, 24)]
    programs += [program_of(gen_constraint_set(random.Random(seed))) for seed in range(100)]
    posted = []
    post = Engine.abstract_post

    def recorded(self, label, block, inv):
        posted.append(label)
        return post(self, label, block, inv)

    for p in programs:
        runs = run_blocks(p)
        preds = harvest_predicates(p, runs)
        want = scanned_order(p, runs, preds, SolverMode())
        posted.clear()
        with monkeypatch.context() as m:
            m.setattr(Engine, "abstract_post", recorded)
            solve(p, runs, preds, SolverMode())
        assert posted == want


# the references of `test_mining_matches_reference`: the miner that lowers
# and projects the path of every write again, each combination and each
# difference through three dicts


def _ref_path_ineqs(instrs, upto, apps):
    les = []
    for instr in instrs[:upto]:
        if not isinstance(instr, Assume):
            continue
        for atom in absint._flatten_and(instr.pred, []):
            if isinstance(atom, Cmp) and atom.op in absint._LE:
                sides = (smt.lin_of(atom.left, apps), smt.lin_of(atom.right, apps))
                for l, r, c in absint._LE[atom.op]:
                    les.append(smt.lin_add(smt.lin_sub(sides[l], sides[r]), smt.lin_const(c)))
    return les


def _ref_project(les, keep):
    les = [l for l in les if l][:absint.MAX_MINED_INEQS]
    while True:
        drop = next((k for lin in les for k in smt.lin_vars(lin) if k not in keep), None)
        if drop is None:
            return [lin for lin in les if lin]
        lowers, uppers, rest = [], [], []
        for lin in les:
            c = lin.get(drop, 0)
            if c > 0:
                uppers.append(lin)
            elif c < 0:
                lowers.append(lin)
            else:
                rest.append(lin)
        for lo in lowers:
            for up in uppers:
                rest.append(smt.lin_add(smt.lin_scale(up, -lo[drop]), smt.lin_scale(lo, up[drop])))
        les = rest[:absint.MAX_MINED_INEQS]


def _ref_mined_predicates(p, runs):
    out = []
    for _, block in p.blocks:
        instrs = runs[block][0]
        for idx, instr in enumerate(instrs):
            if not isinstance(instr, Set):
                continue
            kvar, syms = instr.relvar, instr.args
            apps = smt.Apps()
            les = _ref_path_ineqs(instrs, idx, apps)
            fields = {}
            for i, s in enumerate(syms):
                fields.setdefault(s, Var(field_var(kvar, i)))
            terms = {s: (s, f) for s, f in fields.items()}
            for const, func, args in apps.table.values():
                app = App(func, tuple(map(absint._term_of, args)))
                if None not in app.args and free_vars(app) <= fields.keys():
                    terms[const] = (to_text(app), subst(app, fields))
            basis = _ref_project(les, terms)
            sums = [smt.lin_add(a, b) for a, b in itertools.combinations(basis, 2)]
            for lin in basis + sums:
                q = absint._lin_to_pred(lin, terms)
                if q is not None:
                    out.append((kvar, q))
    return out


# c0 and c1 have one path and write k from other variables, so they share
# no projection
SAME_PATH_OTHER_ARGS = """\
(kvar k (v int) (p int))
(sub c0 (env (x int (<= 0 v)) (y int (<= x v))) (lhs int (= v (+ x 1))) (rhs int (kapp k x)))
(sub c1 (env (x int (<= 0 v)) (y int (<= x v))) (lhs int (= v (+ x 1))) (rhs int (kapp k y)))
"""


def test_mining_matches_reference(monkeypatch):
    # projecting each distinct path once gives every write the candidates,
    # in order, that projecting its own path gives; so every kvar's
    # predicate list is the same, truncations included
    sets = [load(f.read_text()) for f in sorted(EXAMPLES.glob("*.hmc"))]
    sets.append(load(SAME_PATH_OTHER_ARGS))
    rng = random.Random(29)
    sets += [load(chain_text(n, rng)) for n in range(1, 21)]
    gen_rng = random.Random(5)
    sets += [gen_constraint_set(gen_rng) for _ in range(300)]
    programs = [program_of(cs) for cs in sets]
    programs += [translate_set_of_constraints(cs) for cs in sets]
    for p in programs:
        runs = run_blocks(p)
        want = _ref_mined_predicates(p, runs)
        assert mined_predicates(p, runs) == want
        with monkeypatch.context() as m:
            m.setattr(absint, "mined_predicates", _ref_mined_predicates)
            want = harvest_predicates(p, runs)
        assert harvest_predicates(p, runs) == want


def _projections(monkeypatch, p):
    calls = []
    project = absint._project

    def counted(les, keep):
        calls.append(keep)
        return project(les, keep)

    monkeypatch.setattr(absint, "_project", counted)
    mined_predicates(p, run_blocks(p))
    return len(calls)


def test_mining_projects_each_distinct_path_once(monkeypatch):
    # a 16-link chain has two paths: the first link's `v = 0` and the one
    # that every later link shares, `v = x + 1` from the link before; both
    # clones of clonefold's kvar get the one path of c1
    p = program_of(load(chain_text(16)))
    assert sum(isinstance(i, Set) for _, b in p.blocks for i in b.instrs) == 16
    assert _projections(monkeypatch, p) == 2
    _, clones, p = program_for("clonefold.hmc")
    assert len(clones) == 2
    assert _projections(monkeypatch, p) == 1


def test_hypothesis_matches_check_valid(monkeypatch):
    # every fixpoint query, whether answered from a path's cache, by a
    # model pooled on that path or by a search, has the status of deciding
    # the whole implication alone
    asked = []
    valid = Engine.valid

    def recorded(self, hyp, q):
        status = valid(self, hyp, q)
        asked.append((hyp, q, status))
        return status

    monkeypatch.setattr(Engine, "valid", recorded)
    programs = [program_for(name)[2] for name in ("iteri_mask.hmc", "tworead.hmc")]
    programs.append(program_of(load(chain_text(16))))
    programs += [program_of(gen_constraint_set(random.Random(seed))) for seed in range(50)]
    for p in programs:
        runs = run_blocks(p)
        solve(p, runs, harvest_predicates(p, runs), SolverMode())
    for hyp, q, status in asked:
        whole = check_valid(hyp.env, implies(hyp.hyp, q), SolverMode(), hyp.sigs)
        assert status == whole.status, to_text(implies(hyp.hyp, q))
    hyps = list({id(hyp): hyp for hyp, _, _ in asked}.values())
    for hyp in hyps:
        for model in hyp.models:
            assert eval_pred(model, hyp.hyp), to_text(hyp.hyp)
    # each searched INVALID verdict pools one model; the rest were decided
    # by a pooled model
    invalid = sum(v.status == "invalid" for hyp in hyps for v in hyp.verdicts.values())
    assert invalid > sum(len(hyp.models) for hyp in hyps) > 0


def test_witnesses_carried_across_a_blocks_runs(monkeypatch):
    # a block's path at a set or assert only weakens from one run to the
    # next, so the witnesses a position's last Hypothesis found satisfy the
    # new one's path, and decide its goals with no search: on iteri, 28
    # searches where a pool that starts empty on every path makes 30
    searches = [0]
    decide = smt.Context.decide

    def counted(self, goal):
        searches[0] += 1
        return decide(self, goal)

    carried = []
    hypothesis = Engine.hypothesis

    def recorded(self, tenv, path, at):
        size = len(self.memo)
        hyp = hypothesis(self, tenv, path, at)
        if len(self.memo) > size:
            carried.append((hyp, list(hyp.models)))
        return hyp

    monkeypatch.setattr(smt.Context, "decide", counted)
    monkeypatch.setattr(Engine, "hypothesis", recorded)
    out = io.StringIO()
    assert cli.main(["check", str(EXAMPLES / "iteri_mask.hmc")], out) == 0
    assert out.getvalue() == (EXAMPLES / "iteri_mask.check.txt").read_text()
    assert searches[0] <= 28
    assert sum(len(models) for _, models in carried) > 0
    for hyp, models in carried:
        for model in models:
            assert eval_pred(model, hyp.hyp), to_text(hyp.hyp)


def _literals(cube):
    return {(i, bit) for i, bit in enumerate(cube) if bit is not None}


def _covered(cubes, n):
    """The total truth assignments to n predicates that some cube covers."""
    return {
        bits
        for bits in itertools.product((True, False), repeat=n)
        if any(_literals(c) <= set(enumerate(bits)) for c in cubes)
    }


def test_merge_cubes_is_exact():
    rng = random.Random(14)
    merged_some = 0
    for _ in range(500):
        n = rng.randint(1, 5)
        cubes = {
            tuple(rng.choice((True, False, None)) for _ in range(n))
            for _ in range(rng.randint(0, 8))
        }
        merged = merge_cubes(cubes)
        if len(cubes) < 2:
            assert merged is cubes
            continue
        merged_some += merged != cubes
        assert _covered(merged, n) == _covered(cubes, n), cubes
        for a, b in itertools.permutations(merged, 2):
            assert not _literals(a) >= _literals(b), (a, b)  # b subsumes a
            flipped = _literals(a) ^ _literals(b)
            assert not (len(flipped) == 2 and len({i for i, _ in flipped}) == 1), (a, b)
        assert merge_cubes(merged) == merged
        order = sorted(cubes, key=str)
        orders = itertools.permutations(order) if len(order) <= 4 else (
            rng.sample(order, len(order)) for _ in range(20)
        )
        for o in orders:
            assert merge_cubes(list(o)) == merged, cubes
    assert merged_some > 100


def test_merge_changes_no_reached_cube(monkeypatch):
    # the merged disjunction is equivalent to the plain one, so every get
    # reads the same relation and the fixpoint reaches the same cubes;
    # only the extracted formulas differ, and they stay equivalent
    sets = [load((EXAMPLES / name).read_text()) for name in ("iteri_mask.hmc", "tworead.hmc")]
    sets.append(load(chain_text(16)))
    sets += [gen_constraint_set(random.Random(seed)) for seed in range(100)]

    def run(cloned, p):
        runs = run_blocks(p)
        preds = harvest_predicates(p, runs)
        res = solve(p, runs, preds, SolverMode())
        statuses = [(s.label, s.status) for s in res.statuses]
        sol = extract_solution(res.invariant, preds, cloned.kvars)
        return res.invariant.cubes, statuses, sol

    shorter = 0
    for cs in sets:
        cloned, clones = clone(cs)
        p = translate_set_of_constraints(cloned, clones)
        with monkeypatch.context() as m:
            m.setattr(absint, "merge_cubes", lambda cubes: cubes)
            cubes, statuses, plain = run(cloned, p)
        got_cubes, got_statuses, merged = run(cloned, p)
        assert (got_cubes, got_statuses) == (cubes, statuses)
        assert merged.keys() == plain.keys()
        for name, q in merged.items():
            sig = cloned.kvars[name]
            env = TypeEnv(tuple(zip(sig.field_names, sig.field_types)))
            for a, b in ((q, plain[name]), (plain[name], q)):
                status = check_valid(env, implies(a, b), SolverMode(), cloned.uninterps).status
                assert status == VALID, (to_text(a), to_text(b))
            shorter += len(to_text(q)) < len(to_text(plain[name]))
    assert shorter > 0
