"""Workload inputs for the `hmc check` benchmark, written as `.hmc` text.

Every generator takes its seed as an argument and returns a list of
(name, text) pairs. `hmc` itself sees only the text: nothing here imports
it, so an edit to the program or to its test helpers cannot change the
corpus.
"""

from __future__ import annotations

import random
from pathlib import Path

ITERI_PATH = Path("examples") / "iteri_mask.hmc"

# Chain lengths of the kchain workload. Round-robin over a chain listed
# last link first adds one cube per pass, so a chain of n links costs
# (n + 2) * (n + 1) abstract posts; 64 links take about a second. An odd
# number of lengths puts the median check time on one chain (48 links)
# instead of halfway between two.
KCHAIN_LENGTHS = (16, 32, 48, 56, 64)

# genmix draws the constraint sets of the seeded property suites (at most
# two kvars, at most one parameter, at most three constraints) and keeps the
# read-once ones.
GENMIX_COUNT = 400
GENMIX_DRAW_SEED = 0
GENMIX_SHAPE = dict(max_kvars=2, max_params=1, max_constraints=3)


def iteri(seed):
    """The paper's running example, unchanged for every seed."""
    del seed
    return [("iteri_mask", ITERI_PATH.read_text())]


def kchain_text(n, rng):
    """A chain of n kvars. Link 0 writes `v = 0`, link i passes `v = x + 1`
    from the kvar of link i-1 to that of link i, and a last constraint
    asserts `0 <= v` of the kvar of link n-1. Constraints are listed last
    link first, so round-robin solving needs one pass per link.

    `rng` only shuffles which of the names k00 ... k(n-1) each link gets.
    Steps or start values drawn from it moved the mined predicates and the
    check time by a third from seed to seed."""
    k = [f"k{i:02d}" for i in range(n)]
    rng.shuffle(k)
    lines = [f"; kvar chain, {n} links"]
    lines += [f"(kvar {name} (v int))" for name in sorted(k)]
    lines.append(
        f"(sub c{n} (env (x int (kapp {k[n - 1]}))) (lhs int (= v x)) (rhs int (<= 0 v)))"
    )
    for i in range(n - 1, 0, -1):
        lines.append(
            f"(sub c{i} (env (x int (kapp {k[i - 1]}))) "
            f"(lhs int (= v (+ x 1))) (rhs int (kapp {k[i]})))"
        )
    lines.append(f"(sub c0 (lhs int (= v 0)) (rhs int (kapp {k[0]})))")
    return "\n".join(lines) + "\n"


def kchain(seed):
    rng = random.Random(seed)
    return [(f"kchain{n}", kchain_text(n, rng)) for n in KCHAIN_LENGTHS]


# ---------------------------------------------------------------------------
# Random constraint sets. The draws follow the same sequence as the property
# suites' generator, so a given `random.Random` state yields the same set.


def _expr(rng, names):
    r = rng.random()
    if r < 0.4:
        return rng.choice(names)
    if r < 0.7:
        return str(rng.choice((0, 1)))
    return f"(+ {rng.choice(names)} {rng.choice((0, 1))})"


def _pred(rng, names):
    op = rng.choice(("=", "<=", "<"))
    q = f"({op} {_expr(rng, names)} {_expr(rng, names)})"
    if rng.random() < 0.3:
        q = f"(not {q})"
    return q


def _kapp(rng, kvars, scope):
    name = rng.choice(list(kvars))
    args = [
        rng.choice(scope) if scope and rng.random() < 0.6 else str(rng.choice((0, 1)))
        for _ in range(kvars[name])
    ]
    return name, f"(kapp {' '.join([name] + args)})"


def _ref(rng, kvars, scope, p_kapp):
    """(kvar read or None, refinement text)."""
    if rng.random() < p_kapp:
        return _kapp(rng, kvars, scope)
    return None, _pred(rng, scope + ["v"])


def constraint_set(rng, max_kvars=2, max_params=1, max_constraints=3):
    """(text, read_once): read_once is false when some constraint reads one
    kvar twice or more (in its environment and lhs), so `hmc` clones it."""
    kvars = {}  # name -> number of parameters
    for i in range(rng.randint(1, max_kvars)):
        kvars[f"k{i}"] = rng.randint(0, max_params)
    lines = [
        f"(kvar {k} (v int){''.join(f' (p{j} int)' for j in range(n))})"
        for k, n in kvars.items()
    ]
    read_once = True
    for ci in range(rng.randint(1, max_constraints)):
        env, scope, reads = [], [], []
        for bi in range(rng.randint(0, 2)):
            name = f"x{bi}"
            kvar, ref = _ref(rng, kvars, scope, 0.5)
            env.append(f"({name} int {ref})")
            reads.append(kvar)
            scope.append(name)
        kvar, lhs = _ref(rng, kvars, scope, 0.4)
        reads.append(kvar)
        _, rhs = _ref(rng, kvars, scope, 0.7)
        reads = [k for k in reads if k]
        read_once = read_once and len(reads) == len(set(reads))
        env_part = f" (env {' '.join(env)})" if env else ""
        lines.append(f"(sub c{ci}{env_part} (lhs int {lhs}) (rhs int {rhs}))")
    return "\n".join(lines) + "\n", read_once


def genmix(seed):
    """The first GENMIX_COUNT read-once sets of one fixed draw, in an order
    drawn from `seed`.

    Sets that need cloning are passed over: re-validating a folded clone
    solution can run for minutes (README.md, "Left out"). The draw is fixed
    because the cost of a check is heavy-tailed: a few sets in a thousand
    take a second, against a median of 5 ms, so the throughput of a fresh
    draw of 400 moves by half from seed to seed. The seed orders the checks,
    which share one process."""
    rng = random.Random(GENMIX_DRAW_SEED)
    pool = []
    while len(pool) < GENMIX_COUNT:
        text, read_once = constraint_set(rng, **GENMIX_SHAPE)
        if read_once:
            pool.append(text)
    random.Random(seed).shuffle(pool)
    return [(f"genmix{i:03d}", text) for i, text in enumerate(pool)]


WORKLOADS = {"iteri": iteri, "kchain": kchain, "genmix": genmix}

# Extra `hmc check` flags per workload: genmix hunts counterexamples with the
# relational oracle when abstraction fails, so it decides refutations too.
CHECK_FLAGS = {"iteri": [], "kchain": [], "genmix": ["--oracle"]}
