"""Acceptance gate.

Each test pins one advertised behavior of the toolkit, including its runtime
budget. Four properties are encoded as strict xfails: they assert textbook
identities that are provably false of the semantics as defined (each has a
hand-checked counterexample, reproduced deterministically by the seeds here),
together with companion tests asserting the weaker properties that do hold.
"""

import io
import random
import time
from pathlib import Path

import pytest

from gen import (
    DOMAIN01,
    alpha,
    expand,
    expand_all,
    gen_constraint_set,
    gen_rel_state,
    gen_rwo_program,
    is_rwo,
    satisfies,
    satisfying_solutions,
)
from hmc.cli import main
from hmc.clone import clone, fold_solution
from hmc.constraints import (
    check_satisfied,
    parse_constraints,
    parse_solution,
)
from hmc.imp import (
    ExecContext,
    Get,
    Set,
    State,
    exec_program,
    parse_imp,
    post,
    reach,
)
from hmc.logic import (
    Implies,
    SolverMode,
    TypeEnv,
    VALID,
    ValueDomain,
    check_valid,
    pred_from_sexpr,
)
from hmc.sexpr import parse_one
from hmc.translate import translate_set_of_constraints

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
ITERI = EXAMPLES / "iteri_mask.hmc"
GOLDEN = EXAMPLES / "iteri_mask.golden.imp"
TWOREAD_HMC = EXAMPLES / "tworead.hmc"
TWOREAD_IMP = EXAMPLES / "tworead.imp"


class budget:
    """Fails the test if the block exceeds its advertised wall-clock limit."""

    def __init__(self, seconds):
        self.limit = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.t0
            assert elapsed < self.limit, (
                f"runtime {elapsed:.2f}s exceeds budget {self.limit}s"
            )


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out)
    return code, out.getvalue()


# -- 1. golden translation -------------------------------------------------


def test_01_golden_translation():
    with budget(1):
        code, text = run_cli("translate", str(ITERI), "--no-clone")
    assert code == 0
    assert text == GOLDEN.read_text()


# -- 2. relational/imperative dichotomy ------------------------------------


def test_02_tworead_dichotomy():
    with budget(5):
        code_rel, out_rel = run_cli(
            "exec", str(TWOREAD_IMP), "--semantics", "relational",
            "--int-range", "-1..1",
        )
        code_imp, out_imp = run_cli(
            "exec", str(TWOREAD_IMP), "--semantics", "imperative",
            "--int-range", "-1..1",
        )
    assert code_rel == 1 and out_rel.startswith("UNSAFE")
    assert code_imp == 0 and out_imp.startswith("SAFE")


# -- 3. clone correctness --------------------------------------------------


def test_03_clone_restores_agreement():
    with budget(10):
        cs = parse_constraints(TWOREAD_HMC.read_text())
        cloned, clones = clone(cs)
        p = translate_set_of_constraints(cloned, clones)
        assert is_rwo(p) is None
        for rng in ((-1, 1), (-2, 2)):
            d = ValueDomain(rng)
            rel = exec_program(p, d, "relational")
            imp = exec_program(p, d, "imperative")
            assert rel.status == imp.status, rng


# -- 4. satisfiability equals relational safety ----------------------------


def _assert_satisfiability_equals_relational_safety(seeds, **shape):
    for seed in seeds:
        cs = gen_constraint_set(random.Random(seed), **shape)
        sols = satisfying_solutions(cs)
        p = translate_set_of_constraints(cs)
        ctx = ExecContext(p, DOMAIN01, {})
        r = reach(p, ctx, "relational")
        assert r.exhausted, seed
        assert bool(sols) == (r.error_trace is None), seed
        if sols:
            asol = alpha(r.states)
            assert satisfies(cs, asol), ("alpha not satisfying", seed)
            for s in sols:
                for k, tuples in asol.items():
                    assert tuples <= s[k], ("alpha not least", seed)


def test_04_satisfiability_equals_relational_safety():
    with budget(60):
        _assert_satisfiability_equals_relational_safety(range(200))


def test_04_no_capture_by_translation_names():
    # binders named like the translation's temps, and kvar arguments that
    # read the value `v`: a translation that captured either reached
    # relations that are not the least solution (draws 43 and 82 here)
    with budget(60):
        _assert_satisfiability_equals_relational_safety(
            range(150), binders=("t0", "t1", "u0"), v_args=True
        )


# -- 5. semantics agreement on read-write-once programs --------------------


def _assert_rwo_verdicts_agree(seeds, **shape):
    """Check the draws of `gen_rwo_program` from `seeds`, and return how
    many have a block that gets a relvar and also sets it."""
    joined = 0
    for seed in seeds:
        p = gen_rwo_program(random.Random(seed), **shape)
        assert is_rwo(p) is None
        joined += any(
            {i.relvar for i in b.instrs if isinstance(i, Get)}
            & {i.relvar for i in b.instrs if isinstance(i, Set)}
            for _, b in p.blocks
        )
        ctx = ExecContext(p, DOMAIN01, {})
        rr = reach(p, ctx, "relational")
        ri = reach(p, ctx, "imperative")
        assert rr.exhausted and ri.exhausted, seed
        assert (rr.error_trace is None) == (ri.error_trace is None), seed
        # the sound half of the reachability connection
        assert ri.states <= expand_all(rr.states), seed
    return joined


def test_05_rwo_verdicts_agree():
    with budget(60):
        _assert_rwo_verdicts_agree(range(1000, 1200))


def test_05_rwo_verdicts_agree_with_a_get_before_a_set():
    # blocks that get a relvar and set it later on, which the draws above
    # never make; a get after the block's own set is not read-write-once
    # (`is_rwo`), and there the two semantics' verdicts part
    with budget(60):
        assert _assert_rwo_verdicts_agree(range(4000, 4300), get_then_set=True) >= 100


@pytest.mark.xfail(
    strict=True,
    reason="Expand(Reach#) = Reach fails for read-write-once programs: a "
    "relational state keeps stale tuples while its base variables evolve, so "
    "expansion pairs a stale tuple with base values the one-tuple run never "
    "holds alongside it (first counterexample: seed 1004, a single block "
    "`havoc x0; assume (not (< x0 x0)); set k1 (x0); set k0 (x2); havoc x2; "
    "assume (not (< x1 x1))`). "
    "Only Reach subset-of Expand(Reach#) holds; safety agreement is "
    "unaffected and is asserted in test_05_rwo_verdicts_agree.",
)
def test_05_expand_reach_equality():
    with budget(60):
        for seed in range(200):
            rng = random.Random(1000 + seed)
            p = gen_rwo_program(rng)
            ctx = ExecContext(p, DOMAIN01, {})
            rr = reach(p, ctx, "relational")
            ri = reach(p, ctx, "imperative")
            assert expand_all(rr.states) == ri.states, seed


# -- 6. single-step commutation of the two semantics -----------------------


def _step_pair(seed):
    rng = random.Random(2000 + seed)
    p = gen_rwo_program(rng)
    _, block = rng.choice(p.blocks)
    s = gen_rel_state(rng, p)
    return p, block, s


def _both_posts(p, block, s):
    ctx = ExecContext(p, DOMAIN01, {})
    via_rel = expand_all(post(s, block, ctx, "relational"))
    via_imp = set()
    for t in expand(s):
        via_imp |= post(t, block, ctx, "imperative")
    return via_rel, via_imp


@pytest.mark.xfail(
    strict=True,
    reason="the step identity Expand o Post# = Post o Expand is false even "
    "for read-write-once instructions: a set onto a nonempty relation keeps "
    "the old tuples relationally (expansion can still pick them) but "
    "overwrites imperatively, and a get from a 2-tuple relation decorrelates "
    "the chosen tuple from the residual relation. Both effects appear within "
    "these 500 seeded pairs. The true inclusion and the empty-relation "
    "equality are asserted in test_06_step_lemma_companions.",
)
def test_06_step_lemma_equality():
    with budget(30):
        for seed in range(500):
            p, block, s = _step_pair(seed)
            via_rel, via_imp = _both_posts(p, block, s)
            assert via_rel == via_imp, seed


def test_06_step_lemma_companions():
    with budget(30):
        for seed in range(500):
            p, block, s = _step_pair(seed)
            via_rel, via_imp = _both_posts(p, block, s)
            assert via_imp <= via_rel, seed
            # on empty relations the two semantics cannot diverge yet
            s0 = State.make(
                dict(s.base), {k: frozenset() for k in p.relvar_sigs}
            )
            via_rel0, via_imp0 = _both_posts(p, block, s0)
            assert via_rel0 == via_imp0, seed


# -- 7. solutions are closed under intersection ----------------------------


def test_07_intersection_of_solutions_satisfies():
    with budget(30):
        found = 0
        seed = 0
        while found < 100:
            assert seed < 2000, "generator exhausted"
            rng = random.Random(3000 + seed)
            seed += 1
            cs = gen_constraint_set(rng)
            sols = satisfying_solutions(cs)
            if len(sols) < 2:
                continue
            a, b = rng.sample(sols, 2)
            inter = {k: a[k] & b[k] for k in a}
            assert satisfies(cs, inter), seed
            found += 1


# -- 8. end-to-end reproduction --------------------------------------------

HANDWRITTEN_K1 = "(and (<= i v) (< v (len xs)))"
HANDWRITTEN_K2 = "(and (<= 0 v) (< v (len a)))"
# the strengthening the fixpoint actually needs: the upper bound must shrink
# with the tail (xs) that i indexes into, not the original list
CORRECTED_K1 = "(and (<= i v) (< v (+ i (len xs))))"


def _check_iteri():
    cs = parse_constraints(ITERI.read_text())
    cloned, clones = clone(cs)
    p = translate_set_of_constraints(cloned, clones)
    from hmc import absint

    mode = SolverMode()
    runs = absint.run_blocks(p)
    preds = absint.harvest_predicates(p, runs)
    result = absint.solve(p, runs, preds, mode)
    assert result.failing is None
    sol = fold_solution(
        absint.extract_solution(result.invariant, preds, cloned.kvars), clones, cs
    )
    assert check_satisfied(cs, sol, mode).satisfied
    return cs, sol, mode


def _equivalent(cs, kvar, got, want_text, mode):
    sig = cs.kvars[kvar]
    tenv = TypeEnv.of(*zip(sig.field_names, sig.field_types))
    want = pred_from_sexpr(parse_one(want_text))
    fwd = check_valid(tenv, Implies(got, want), mode, cs.uninterps)
    bwd = check_valid(tenv, Implies(want, got), mode, cs.uninterps)
    return fwd.status == VALID and bwd.status == VALID


def test_08_check_proves_iteri_and_revalidates():
    with budget(10):
        cs, sol, mode = _check_iteri()
        # the extracted predicates are equivalent to the corrected bounds
        assert _equivalent(cs, "k1", sol["k1"], CORRECTED_K1, mode)
        # k2 may carry extra conjuncts that hold of every reachable tuple
        # (such as 0 <= len(a)); it must still imply the bare bound
        sig = cs.kvars["k2"]
        tenv = TypeEnv.of(*zip(sig.field_names, sig.field_types))
        want = pred_from_sexpr(parse_one(HANDWRITTEN_K2))
        v = check_valid(
            tenv, Implies(sol["k2"], want), mode, cs.uninterps
        )
        assert v.status == VALID


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the handwritten solution k1 = i <= v < len(xs) is not equivalent "
    "to the extracted one, and cannot be: it does not even satisfy c1 (see "
    "test_09_handwritten_solution_actual_failure). The inductive step threads "
    "the tail xs2 with len(xs2) = len(xs) - 1 while i grows, so the sound "
    "upper bound is v < i + len(xs), which the extracted solution is "
    "equivalent to "
    "(test_08_check_proves_iteri_and_revalidates).",
)
def test_08_extracted_equals_handwritten():
    with budget(10):
        cs, sol, mode = _check_iteri()
        assert _equivalent(cs, "k1", sol["k1"], HANDWRITTEN_K1, mode)
        assert _equivalent(cs, "k2", sol["k2"], HANDWRITTEN_K2, mode)


# -- 9. solution validation ------------------------------------------------


def _validate(k1, k2):
    cs = parse_constraints(ITERI.read_text())
    sol = parse_solution(f"(solution (k1 {k1}) (k2 {k2}))")
    return check_satisfied(cs, sol, SolverMode())


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the handwritten k1/k2 do not satisfy c1: its environment allows "
    "any i and any xs with a tail xs2 (len(xs2) + 1 = len(xs)), and there the "
    "required v = i => i <= v < len(xs) fails whenever i >= len(xs), e.g. "
    "i = 1 with len(xs) = 1. The corrected "
    "k1 = i <= v < i + len(xs) does satisfy c1-c4 "
    "(test_09_corrected_solution).",
)
def test_09_handwritten_solution_satisfies():
    with budget(5):
        rep = _validate(HANDWRITTEN_K1, HANDWRITTEN_K2)
        assert rep.satisfied, rep.first_failure


def test_09_handwritten_solution_actual_failure():
    with budget(5):
        rep = _validate(HANDWRITTEN_K1, HANDWRITTEN_K2)
        assert not rep.satisfied
        label, verdict = rep.first_failure
        assert label == "c1"
        assert verdict.witness is not None


def test_09_corrected_solution():
    with budget(5):
        rep = _validate(CORRECTED_K1, HANDWRITTEN_K2)
        assert rep.satisfied, rep.first_failure


def test_09_all_true_violated_at_c3():
    with budget(5):
        rep = _validate("true", "true")
        assert not rep.satisfied
        label, _ = rep.first_failure
        assert label == "c3"
