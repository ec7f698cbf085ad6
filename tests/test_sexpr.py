import random
from collections import Counter

import pytest

from hmc import sexpr


def test_parse_atoms():
    assert sexpr.parse_many("a 1 -2") == ["a", 1, -2]


def test_parse_nested():
    assert sexpr.parse_one("(a (b 1) ())") == ["a", ["b", 1], []]


def test_comments():
    assert sexpr.parse_many("a ; rest\n(b)") == ["a", ["b"]]


def test_roundtrip():
    text = "(and (<= 0 v) (< v (len a)))"
    form = sexpr.parse_one(text)
    assert sexpr.to_str(form) == text
    assert sexpr.parse_one(sexpr.to_str(form)) == form


def test_unbalanced():
    with pytest.raises(sexpr.SexprError):
        sexpr.parse_many("(a b")
    with pytest.raises(sexpr.SexprError):
        sexpr.parse_many("a)")


def test_dotted_symbols():
    assert sexpr.parse_one("(k.1 c1#2 xs')") == ["k.1", "c1#2", "xs'"]


def _reference_parse_many(text):
    """The character-at-a-time reader `parse_many` replaced, kept as the
    oracle: it tracks a line and column for every token."""

    def tokens():
        line, col = 1, 1
        i, n = 0, len(text)
        while i < n:
            c = text[i]
            if c == "\n":
                line += 1
                col = 1
                i += 1
            elif c.isspace():
                col += 1
                i += 1
            elif c == ";":
                while i < n and text[i] != "\n":
                    i += 1
            elif c in "()":
                yield c, line, col
                col += 1
                i += 1
            else:
                start, startcol = i, col
                while i < n and not text[i].isspace() and text[i] not in "();":
                    i += 1
                    col += 1
                yield text[start:i], line, startcol

    def atom(tok):
        try:
            return int(tok)
        except ValueError:
            return tok

    forms, stack = [], []
    for tok, line, col in tokens():
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if not stack:
                raise sexpr.SexprError("unbalanced ')'", line, col)
            done = stack.pop()
            (stack[-1] if stack else forms).append(done)
        else:
            (stack[-1] if stack else forms).append(atom(tok))
    if stack:
        raise sexpr.SexprError("unclosed '('")
    return forms


# pieces of random reader input: parens, comments, integers in the forms
# `int()` reads or refuses, and whitespace that is and is not a line break
_PIECES = [
    "(", "(", ")", ")", "a", "k.1", "-", "+5", "-0", "12", "1_0", "1__0", "_1",
    "٣", "x٣", "²", "3²", ";c ) (\n", "; x", " ", " ", "\n", "\t", "\r",
    "\x0b", "\x1c", "\x85", "\xa0", "\u2028", "\u3000",
]


def _outcome(parse, text):
    try:
        return parse(text)
    except sexpr.SexprError as exc:
        return ("error", str(exc), exc.line, exc.col)


def test_parse_many_matches_reference_reader():
    rng = random.Random(0)
    seen = Counter()
    for _ in range(3000):
        text = "".join(rng.choice(_PIECES) for _ in range(rng.randrange(1, 40)))
        want = _outcome(_reference_parse_many, text)
        assert _outcome(sexpr.parse_many, text) == want, repr(text)
        seen[want[1].split(": ")[-1] if isinstance(want, tuple) else "forms"] += 1
    assert min(seen[k] for k in ("forms", "unbalanced ')'", "unclosed '('")) > 300, seen

