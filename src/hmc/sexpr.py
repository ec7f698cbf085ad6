"""S-expression reader and printer.

Atoms are symbols (str) or integers; lists are Python lists. `;` starts a
line comment. Printing is canonical: single spaces, no line breaks, so
print(parse(print(x))) == print(x).

`parse_many` takes every token from one `re.findall` and builds the lists
on one explicit stack. It keeps no positions: an error works out its line
and column from the text when it is raised. `\\s` in the token pattern
matches exactly the characters for which `str.isspace()` is true.
"""

from __future__ import annotations

import re


class SexprError(Exception):
    def __init__(self, msg, line=None, col=None):
        if line is not None:
            msg = f"{line}:{col}: {msg}"
        super().__init__(msg)
        self.line = line
        self.col = col


# a paren, an atom (up to whitespace, a paren or `;`), or a comment
_TOKEN = re.compile(r"[()]|[^\s();]+|;[^\n]*")


def _unbalanced(text):
    """The error for the first ')' that closes nothing, with its 1-based
    line and column: columns count characters, lines count only '\\n'."""
    depth = 0
    for m in _TOKEN.finditer(text):
        tok = m.group()
        if tok == "(":
            depth += 1
        elif tok == ")":
            if not depth:
                at = m.start()
                line, col = text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)
                return SexprError("unbalanced ')'", line, col)
            depth -= 1


def parse_many(text):
    """Parse all top-level forms in `text`. A token is an integer if `int()`
    reads it, which it tries only on a token that starts with a sign or a
    digit and ends in a digit: a name such as `k05` raises no exception."""
    forms = top = []
    stack = []
    for tok in _TOKEN.findall(text):
        if tok == "(":
            stack.append(top)
            top = []
        elif tok == ")":
            if not stack:
                raise _unbalanced(text)
            done = top
            top = stack.pop()
            top.append(done)
        elif tok[0] != ";":
            if tok[-1].isdigit() and (tok[0].isdigit() or tok[0] in "+-"):
                try:
                    tok = int(tok)
                except ValueError:
                    pass
            top.append(tok)
    if stack:
        raise SexprError("unclosed '('")
    return forms


def parse_one(text):
    forms = parse_many(text)
    if len(forms) != 1:
        raise SexprError(f"expected one form, got {len(forms)}")
    return forms[0]


def to_str(form):
    if isinstance(form, list):
        return "(" + " ".join(to_str(f) for f in form) + ")"
    return str(form)
