"""The standing exactness corpus: 1,024 `hmc check` runs whose exit code,
stdout and stderr must not move unless a change means them to.

The runs are
  - the seed-1 inputs of the benchmark's three workloads (406), with
    `corpus.CHECK_FLAGS`;
  - the 9 examples with the flags of their golden checks, each with and
    without `--no-clone` (18);
  - 300 sets of `gen.gen_constraint_set` drawn from `random.Random(5)`, each
    with and without `--oracle` (600).

`exactness.digest` holds one line per run: its id, its exit code, and a
hash of its stdout and stderr. Every run reads its input from the same file
name in a scratch directory, so no path reaches the digests.

A change that moves outputs on purpose rewrites the file with

    PYTHONPATH=src python tests/test_exactness.py --write

which prints, for each moved run, its old output (from the `src` of git
HEAD, run in a child interpreter) against its new one.
"""

from __future__ import annotations

import contextlib
import difflib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

from gen import gen_constraint_set
from hmc import cli
from hmc.constraints import print_constraints

ROOT = Path(__file__).resolve().parent.parent
DIGEST = Path(__file__).resolve().parent / "exactness.digest"
sys.path.insert(0, str(ROOT / "hmcbench"))

import corpus  # noqa: E402

INPUT = "input.hmc"
PREDS = "input.preds"  # examples/retyped.preds, for the one example that reads it
# each example's flags in `test_cli.GOLDEN_CHECKS`, with the preds file
# under its fixed name
EXAMPLE_FLAGS = {"retyped": ["--preds", PREDS], "deeperr": ["--oracle"]}
EXAMPLES = (
    "iteri_mask", "tworead", "sums", "boolfun", "retyped",
    "clonefold", "deeperr", "chain8", "capture",
)
GEN_SETS = 300
GEN_SHAPE = dict(max_kvars=3, max_params=2, max_constraints=5)


@contextlib.contextmanager
def _cwd(path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def runs():
    """[(id, input text, flags)], in a fixed order."""
    out = []
    with _cwd(ROOT):  # the iteri workload reads examples/ from the cwd
        for workload, build in corpus.WORKLOADS.items():
            flags = corpus.CHECK_FLAGS[workload]
            out += [(f"bench/{name}", text, flags) for name, text in build(1)]
    for name in EXAMPLES:
        text = (ROOT / "examples" / f"{name}.hmc").read_text()
        flags = EXAMPLE_FLAGS.get(name, [])
        out.append((f"example/{name}", text, flags))
        out.append((f"example/{name}+no-clone", text, flags + ["--no-clone"]))
    rng = random.Random(5)
    for i in range(GEN_SETS):
        text = print_constraints(gen_constraint_set(rng, **GEN_SHAPE))
        out.append((f"gen/{i:03d}", text, []))
        out.append((f"gen/{i:03d}+oracle", text, ["--oracle"]))
    return out


def outputs(selected=None):
    """{id: (exit code, stdout, stderr)} of `hmc check` on each run, or on
    the runs whose ids are in `selected`, all in this process."""
    results = {}
    with tempfile.TemporaryDirectory() as tmp, _cwd(tmp):
        Path(PREDS).write_text((ROOT / "examples" / "retyped.preds").read_text())
        for rid, text, flags in runs():
            if selected is not None and rid not in selected:
                continue
            Path(INPUT).write_text(text)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["check", INPUT, *flags])
            results[rid] = (code, out.getvalue(), err.getvalue())
    return results


def _hash(stdout, stderr):
    return hashlib.sha256(f"{stdout}\0{stderr}".encode()).hexdigest()[:16]


def digests(results):
    return {rid: f"{code} {_hash(out, err)}" for rid, (code, out, err) in results.items()}


def read_digest():
    lines = DIGEST.read_text().splitlines()
    return dict(line.split(" ", 1) for line in lines if not line.startswith("#"))


def write_digest(digest):
    header = [
        "# hmc check on the exactness corpus: id, exit code, and the first 16",
        "# hex digits of the sha256 of stdout, a NUL, then stderr.",
        "# Rewrite: PYTHONPATH=src python tests/test_exactness.py --write",
    ]
    DIGEST.write_text("\n".join(header + [f"{k} {v}" for k, v in digest.items()]) + "\n")


def moved(want, got):
    return sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))


def test_outputs_match_the_digest():
    ran = moved(read_digest(), digests(outputs()))
    assert not ran, f"{len(ran)} runs moved: {' '.join(ran)}"


def _head_outputs(ids):
    """The outputs of the runs `ids` at the `src` of git HEAD: the tree is
    unpacked to a scratch directory and runs this module in a child
    interpreter under the same string-hash seed."""
    with tempfile.TemporaryDirectory() as tmp:
        tar = subprocess.run(
            ["git", "-C", str(ROOT), "archive", "HEAD", "src"], capture_output=True, check=True
        ).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=tar, check=True)
        env = dict(os.environ, PYTHONPATH=os.path.join(tmp, "src"))
        child = subprocess.run(
            [sys.executable, __file__, "--show", *ids],
            env=env, capture_output=True, text=True, check=True,
        )
    return {rid: tuple(r) for rid, r in json.loads(child.stdout).items()}


def _text(result):
    code, out, err = result
    return f"exit {code}\n{out}{err}".splitlines(keepends=True)


def main(argv):
    if argv[:1] == ["--show"]:
        json.dump(outputs(set(argv[1:])), sys.stdout)
        return 0
    if argv != ["--write"]:
        print("usage: test_exactness.py --write", file=sys.stderr)
        return 2
    results = outputs()
    ran = moved(read_digest(), digests(results)) if DIGEST.exists() else []
    old = _head_outputs(ran) if ran else {}
    for rid in ran:
        before = _text(old[rid]) if rid in old else []
        diff = difflib.unified_diff(before, _text(results[rid]), "HEAD", "now", n=1 << 20)
        sys.stdout.writelines([f"== {rid}\n", *diff])
    write_digest(digests(results))
    print(f"{len(ran)} of {len(results)} runs moved; wrote {DIGEST.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
