"""Tiny closed-form expression language for field input.

Grammar: numbers, named variables, unary minus, binary ``+ - * / ^``
(with ``^`` right-associative and binding tighter than unary minus),
a fixed set of one-argument functions, and parentheses.  Parentheses,
calls, unary minus and ``^`` nest at most ``MAX_NESTING`` levels deep.
Evaluation is IEEE-754 double (numpy-vectorized, complex allowed); domain
errors and unknown names carry the byte offset of the offending token.

No tree is built: each production of the parser returns the evaluator of
what it read, a function of the bindings dict.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = ["compile_expr", "ParseError", "EvalError"]

FUNCTIONS = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "sinh": np.sinh, "cosh": np.cosh, "tanh": np.tanh,
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt,
    "atan": np.arctan, "abs": np.abs,
}

DEFAULT_VARIABLES = ("u", "v", "s")

# the parser takes about five stack frames per level, so a deeper input is
# refused before it can exhaust Python's default recursion limit of 1000
MAX_NESTING = 160


class ParseError(ValueError):
    def __init__(self, msg, offset):
        super().__init__(f"{msg} (at offset {offset})")
        self.offset = offset


class EvalError(ValueError):
    def __init__(self, msg, offset):
        super().__init__(f"{msg} (at offset {offset})")
        self.offset = offset


def _tokenize(src: str):
    tokens = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            while j < n and (src[j].isdigit() or src[j] == "."):
                j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    j = k
                    while j < n and src[j].isdigit():
                        j += 1
            try:
                val = float(src[i:j])
            except ValueError:
                raise ParseError(f"bad number {src[i:j]!r}", i) from None
            tokens.append(("num", val, i))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("name", src[i:j], i))
            i = j
        elif c in "+-*/^(),":
            tokens.append((c, c, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", None, n))
    return tokens


def _check_finite(value, pos, what):
    if not np.all(np.isfinite(value)):
        raise EvalError(f"{what} produced a non-finite value", pos)
    return value


# binary operators; the two that can leave the finite range are checked
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": np.divide, "^": np.power}
_CHECKED = {"/": "division", "^": "power"}


def _chain(first, links):
    """The evaluator of ``first op operand op operand ...`` from its
    ``(op, operand, pos)`` links, applied in a loop: a long sum takes no stack."""
    if not links:
        return first
    steps = [(_BINARY[op], _CHECKED.get(op), operand, pos) for op, operand, pos in links]

    def run(b):
        a = first(b)
        for apply, checked, operand, pos in steps:
            rhs = operand(b)
            with np.errstate(all="ignore"):
                a = apply(a, rhs)
            if checked:
                _check_finite(a, pos, checked)
        return a

    return run


def _var(name, pos):
    def run(b):
        if name not in b:
            raise EvalError(f"unbound variable {name!r}", pos)
        return b[name]

    return run


def _call(name, arg, pos):
    fn = FUNCTIONS[name]

    def run(b):
        x = arg(b)
        if name == "log" and not np.iscomplexobj(x) and np.any(np.asarray(x) <= 0):
            raise EvalError("log of a non-positive value", pos)
        if name == "sqrt" and not np.iscomplexobj(x) and np.any(np.asarray(x) < 0):
            raise EvalError("sqrt of a negative value", pos)
        with np.errstate(all="ignore"):
            return _check_finite(fn(x), pos, name)

    return run


class _Parser:
    def __init__(self, src, variables):
        self.tokens = _tokenize(src)
        self.k = 0
        self.variables = set(variables)

    def peek(self):
        return self.tokens[self.k]

    def next(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])

    # depth is the nesting level of the operand being read: parentheses, a
    # call's argument, a negated operand and an exponent each open one
    def parse(self):
        e = self.expr(1)
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return e

    def expr(self, depth):
        first, links = self.term(depth), []
        while self.peek()[0] in ("+", "-"):
            op, _, pos = self.next()
            links.append((op, self.term(depth), pos))
        return _chain(first, links)

    def term(self, depth):
        first, links = self.unary(depth), []
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.next()
            links.append((op, self.unary(depth), pos))
        return _chain(first, links)

    def unary(self, depth):
        if depth > MAX_NESTING:
            raise ParseError(f"expression nested deeper than {MAX_NESTING} levels",
                             self.peek()[2])
        if self.peek()[0] == "-":
            self.next()
            arg = self.unary(depth + 1)
            return lambda b: -arg(b)
        return self.power(depth)

    def power(self, depth):
        base = self.atom(depth)
        if self.peek()[0] == "^":
            _, _, pos = self.next()
            return _chain(base, [("^", self.unary(depth + 1), pos)])
        return base

    def atom(self, depth):
        kind, val, pos = self.next()
        if kind == "num":
            return lambda b: val
        if kind == "name":
            if self.peek()[0] == "(":
                if val not in FUNCTIONS:
                    raise ParseError(f"unknown function {val!r}", pos)
                self.next()
                arg = self.expr(depth + 1)
                self.expect(")")
                return _call(val, arg, pos)
            if val not in self.variables:
                raise ParseError(f"unknown identifier {val!r}", pos)
            return _var(val, pos)
        if kind == "(":
            e = self.expr(depth + 1)
            self.expect(")")
            return e
        raise ParseError(f"unexpected token {val!r}", pos)


def compile_expr(source: str, variables=DEFAULT_VARIABLES):
    """Parse once, return a plain callable over keyword bindings."""
    run = _Parser(source, variables).parse()

    def fn(**bindings):
        return run(bindings)

    return fn
