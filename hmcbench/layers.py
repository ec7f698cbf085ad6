"""Layer spans for `hmc check`, recorded from outside the program.

`install()` replaces public functions of the `hmc` modules by wrappers that
record one span per call: (name, start, end, parent span, check id). The
call sites inside `hmc` reach these functions through module attributes
(`absint.solve`, `smt.solve_script`, recursive `smt.omega`), so wrapping the
attribute is enough. `absint` and `constraints` import `check_valid` by
name, so it is wrapped in each of them. Spans are kept in memory; `write()`
dumps them when the run ends.

A layer is the module a span's name starts with. A span's self time is its
duration minus the durations of its child spans, so the self times of all
spans under one `cli.main` add up to that span's duration.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter

LAYERS = ("cli", "constraints", "clone", "translate", "absint", "logic", "smt", "imp")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, check]
        self.current = -1
        self.check = -1
        self.counts = Counter()  # counts taken from arguments and results
        self._installed = []

    def wrap(self, owner, attr, name, before=None, after=None):
        """Replace owner.attr by a span-recording wrapper. `before(args)`
        runs ahead of the call; `after(counts, args, result, token)` runs
        after it with what `before` returned."""
        fn = getattr(owner, attr)
        spans = self.spans

        def wrapper(*args, **kwargs):
            token = before(args) if before else None
            sid = len(spans)
            parent = self.current
            spans.append(None)
            self.current = sid
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.current = parent
                spans[sid] = (name, start, end, parent, self.check)
            if after:
                after(self.counts, args, result, token)
            return result

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\tcheck\n")
            for name, start, end, parent, check in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{check}\n")


def _count_instrs(instr):
    inner = getattr(instr, "instrs", None)
    if inner is None:
        return 1
    return sum(_count_instrs(i) for i in inner)


def install(tracer):
    from hmc import absint, cli, clone, constraints, imp, logic, smt, translate

    w = tracer.wrap
    w(cli, "main", "cli.main")
    w(constraints, "parse_constraints", "constraints.parse")
    w(constraints, "normalize", "constraints.parse")
    w(constraints, "check_satisfied", "constraints.check_satisfied")
    w(constraints, "print_solution", "constraints.print_solution")

    def kvars_added(counts, args, result, _):
        counts["clone.kvars_added"] += len(result[0].kvars) - len(args[0].kvars)

    w(clone, "clone", "clone.clone", after=kvars_added)
    w(clone, "fold_solution", "clone.fold_solution")

    def instrs(counts, args, result, _):
        counts["translate.instrs"] += sum(_count_instrs(b) for _, b in result.blocks)

    w(translate, "translate_set_of_constraints", "translate.translate", after=instrs)

    def preds(counts, args, result, _):
        counts["absint.preds"] += sum(len(ps) for ps in result.values())

    def cubes(counts, args, result, _):
        counts["absint.cubes"] += sum(len(cs) for cs in result.invariant.cubes.values())

    def post_yield(counts, args, result, _):
        inv = args[3]
        if any(cube not in inv.cubes[k] for k, cube in result[1]):
            counts["absint.post_yields"] += 1

    def memo_size(args):
        return len(args[0].memo)

    def memo_hit(counts, args, result, size_before):
        if len(args[0].memo) == size_before:
            counts["absint.memo_hits"] += 1

    w(absint, "harvest_predicates", "absint.harvest", after=preds)
    w(absint, "solve", "absint.solve", after=cubes)
    w(absint, "extract_solution", "absint.extract")
    w(absint, "format_invariant", "absint.format_invariant")
    w(absint.Engine, "abstract_post", "absint.abstract_post", after=post_yield)
    w(absint.Engine, "valid", "absint.valid", before=memo_size, after=memo_hit)
    for owner in (absint, constraints, logic):
        w(owner, "check_valid", "logic.check_valid")
    w(smt, "solve_script", "smt.solve_script")
    w(smt, "sat_search", "smt.sat_search")
    w(smt, "omega", "smt.omega")
    w(imp, "exec_program", "imp.exec_program")


def summarize(spans, counts, checks, seconds):
    """Per-check means of the layer metrics over `checks` checks that took
    `seconds` in all, timed around `cli.main`: times in ms, counts of calls
    and the counts the wrappers took."""
    calls = Counter()
    incl = Counter()
    self_by_layer = Counter()
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    valid_in = Counter()  # check_valid time and calls by enclosing phase
    for sid, (name, start, end, parent, _) in enumerate(spans):
        dur = end - start
        calls[name] += 1
        incl[name] += dur
        self_by_layer[name.split(".", 1)[0]] += dur - child[sid]
        if name == "logic.check_valid":
            p = parent
            while p >= 0 and spans[p][0] not in ("absint.solve", "constraints.check_satisfied"):
                p = spans[p][3]
            phase = spans[p][0] if p >= 0 else "other"
            valid_in[phase, "ms"] += dur
            valid_in[phase, "calls"] += 1

    ms = lambda s: 1000.0 * s / checks
    per = lambda n: n / checks
    ratio = lambda a, b: a / b if b else 0.0
    m = {
        "smt.solve_ms": ms(incl["smt.solve_script"]),
        "smt.solve_calls": per(calls["smt.solve_script"]),
        "smt.sat_search_calls": per(calls["smt.sat_search"]),
        "smt.omega_calls": per(calls["smt.omega"]),
        "smt.omega_per_query": ratio(calls["smt.omega"], calls["smt.solve_script"]),
        "absint.solve_ms": ms(incl["absint.solve"]),
        "absint.solve_self_ms": ms(incl["absint.solve"] - valid_in["absint.solve", "ms"]),
        "absint.post_calls": per(calls["absint.abstract_post"]),
        "absint.post_yield": ratio(counts["absint.post_yields"], calls["absint.abstract_post"]),
        "absint.valid_calls": per(calls["absint.valid"]),
        "absint.memo_hit_ratio": ratio(counts["absint.memo_hits"], calls["absint.valid"]),
        "logic.queries": per(calls["logic.check_valid"]),
        "constraints.parse_ms": ms(incl["constraints.parse"]),
        "clone.clone_ms": ms(incl["clone.clone"]),
        "clone.kvars_added": per(counts["clone.kvars_added"]),
        "translate.translate_ms": ms(incl["translate.translate"]),
        "translate.instrs": per(counts["translate.instrs"]),
        "absint.harvest_ms": ms(incl["absint.harvest"]),
        "absint.preds": per(counts["absint.preds"]),
        "constraints.revalidate_ms": ms(incl["constraints.check_satisfied"]),
        "constraints.revalidate_queries": per(valid_in["constraints.check_satisfied", "calls"]),
        "clone.fold_ms": ms(incl["clone.fold_solution"]),
        "absint.extract_ms": ms(incl["absint.extract"]),
        "imp.exec_ms": ms(incl["imp.exec_program"]),
        "imp.exec_calls": per(calls["imp.exec_program"]),
        "absint.cubes": per(counts["absint.cubes"]),
    }
    # imp spans have no children, so imp.exec_ms is imp's self time.
    for layer in LAYERS:
        if layer != "imp":
            m[f"{layer}.self_ms"] = ms(self_by_layer[layer])
    m["trace.spans"] = per(len(spans))
    m["trace.check_ms"] = ms(seconds)
    m["trace.unattributed_ms"] = ms(seconds - incl["cli.main"])
    return m


# Counts that must not depend on timing or on string hashing.
EXACT_COUNTS = (
    "smt.solve_calls",
    "smt.sat_search_calls",
    "smt.omega_calls",
    "absint.post_calls",
    "absint.valid_calls",
    "logic.queries",
    "constraints.revalidate_queries",
    "imp.exec_calls",
    "absint.preds",
    "absint.cubes",
    "translate.instrs",
    "clone.kvars_added",
)


def unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_ratio", "_yield")):
        return "ratio"
    return "count"
