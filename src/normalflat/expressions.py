"""Tiny closed-form expression language for field input.

Grammar: numbers, named variables, unary minus, binary ``+ - * / ^``
(with ``^`` right-associative and binding tighter than unary minus),
a fixed set of one-argument functions, and parentheses.  Parentheses,
calls, unary minus and ``^`` nest at most ``MAX_NESTING`` levels deep.
Evaluation is IEEE-754 double (numpy-vectorized, complex allowed); domain
errors and unknown names carry the byte offset of the offending token.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields

import numpy as np

__all__ = ["parse_expr", "eval_expr", "to_string", "compile_expr", "ParseError", "EvalError"]

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


class _Node:
    """Structural ``==``, hash, ``repr`` and pickling of parse trees, as
    frozen dataclasses give, but walked with an explicit stack: a
    left-associative chain is as deep as it is long, so recursion would
    fail on a long sum."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # a child's place is marked in its parent's fields, so equal
        # pre-orders are equal trees
        return all(a == b for a, b in zip(_preorder(self), _preorder(other)))

    def __hash__(self):
        return hash(tuple(_preorder(self)))

    def __repr__(self):
        # the dataclass text, written left to right off a stack of nodes and strings
        parts, stack = [], [self]
        while stack:
            item = stack.pop()
            if not isinstance(item, _Node):
                parts.append(item)
                continue
            todo = [f"{item.__class__.__qualname__}("]
            for n, f in enumerate(fields(item)):
                value = getattr(item, f.name)
                todo += [f"{', ' if n else ''}{f.name}=",
                         value if isinstance(value, _Node) else repr(value)]
            stack.extend(reversed(todo + [")"]))
        return "".join(parts)

    def __reduce__(self):
        return _rebuild, (tuple(_preorder(self)),)


def _preorder(node):
    """(class, fields) of every node, parents before children; a field that
    holds a node reads as the class _Node itself (it pickles by reference)."""
    stack = [node]
    while stack:
        node = stack.pop()
        values = [getattr(node, f.name) for f in fields(node)]
        yield node.__class__, tuple(_Node if isinstance(v, _Node) else v for v in values)
        stack.extend(reversed([v for v in values if isinstance(v, _Node)]))


def _rebuild(preorder):
    """The tree of a _preorder walk.  Built from the last node back, each
    node finds its children on top of the stack, leftmost first."""
    stack = []
    for cls, values in reversed(preorder):
        stack.append(cls(*[stack.pop() if v is _Node else v for v in values]))
    return stack.pop()


@dataclass(frozen=True, eq=False, repr=False)
class Num(_Node):
    value: float
    pos: int = 0


@dataclass(frozen=True, eq=False, repr=False)
class Var(_Node):
    name: str
    pos: int = 0


@dataclass(frozen=True, eq=False, repr=False)
class Neg(_Node):
    arg: object
    pos: int = 0


@dataclass(frozen=True, eq=False, repr=False)
class BinOp(_Node):
    op: str
    left: object
    right: object
    pos: int = 0


@dataclass(frozen=True, eq=False, repr=False)
class Call(_Node):
    fn: str
    arg: object
    pos: int = 0


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


class _Parser:
    def __init__(self, src, variables):
        self.src = src
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
        return tok

    # depth is the nesting level of the operand being read: parentheses, a
    # call's argument, a negated operand and an exponent each open one
    def parse(self):
        e = self.expr(1)
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return e

    def expr(self, depth):
        e = self.term(depth)
        while self.peek()[0] in ("+", "-"):
            op, _, pos = self.next()
            e = BinOp(op, e, self.term(depth), pos)
        return e

    def term(self, depth):
        e = self.unary(depth)
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.next()
            e = BinOp(op, e, self.unary(depth), pos)
        return e

    def unary(self, depth):
        if depth > MAX_NESTING:
            raise ParseError(f"expression nested deeper than {MAX_NESTING} levels",
                             self.peek()[2])
        if self.peek()[0] == "-":
            _, _, pos = self.next()
            return Neg(self.unary(depth + 1), pos)
        return self.power(depth)

    def power(self, depth):
        base = self.atom(depth)
        if self.peek()[0] == "^":
            _, _, pos = self.next()
            return BinOp("^", base, self.unary(depth + 1), pos)
        return base

    def atom(self, depth):
        kind, val, pos = self.next()
        if kind == "num":
            return Num(val, pos)
        if kind == "name":
            if self.peek()[0] == "(":
                if val not in FUNCTIONS:
                    raise ParseError(f"unknown function {val!r}", pos)
                self.next()
                arg = self.expr(depth + 1)
                self.expect(")")
                return Call(val, arg, pos)
            if val not in self.variables:
                raise ParseError(f"unknown identifier {val!r}", pos)
            return Var(val, pos)
        if kind == "(":
            e = self.expr(depth + 1)
            self.expect(")")
            return e
        raise ParseError(f"unexpected token {val!r}", pos)


def parse_expr(source: str, variables=DEFAULT_VARIABLES):
    """Parse a closed-form expression over the given variable names."""
    return _Parser(source, variables).parse()


def _check_finite(value, node, what):
    if not np.all(np.isfinite(value)):
        raise EvalError(f"{what} produced a non-finite value", node.pos)
    return value


# binary operators; the two that can leave the finite range are checked
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": np.divide, "^": np.power}
_CHECKED = {"/": "division", "^": "power"}


def eval_expr(expr, **bindings):
    """Evaluate a parse tree with numpy semantics (scalars or arrays)."""
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        if expr.name not in bindings:
            raise EvalError(f"unbound variable {expr.name!r}", expr.pos)
        return bindings[expr.name]
    if isinstance(expr, Neg):
        return -eval_expr(expr.arg, **bindings)
    if isinstance(expr, BinOp):
        # a left-associative chain (u + u + ... + u) is walked down its left
        # operands in a loop, so only nesting takes stack
        chain = []
        while isinstance(expr, BinOp):
            chain.append(expr)
            expr = expr.left
        a = eval_expr(expr, **bindings)
        for node in reversed(chain):
            b = eval_expr(node.right, **bindings)
            with np.errstate(all="ignore"):
                a = _BINARY[node.op](a, b)
            if node.op in _CHECKED:
                _check_finite(a, node, _CHECKED[node.op])
        return a
    if isinstance(expr, Call):
        arg = eval_expr(expr.arg, **bindings)
        if expr.fn == "log" and not np.iscomplexobj(arg) and np.any(np.asarray(arg) <= 0):
            raise EvalError("log of a non-positive value", expr.pos)
        if expr.fn == "sqrt" and not np.iscomplexobj(arg) and np.any(np.asarray(arg) < 0):
            raise EvalError("sqrt of a negative value", expr.pos)
        with np.errstate(all="ignore"):
            return _check_finite(FUNCTIONS[expr.fn](arg), expr, expr.fn)
    raise TypeError(f"not an expression node: {expr!r}")


def compile_expr(source: str, variables=DEFAULT_VARIABLES):
    """Parse once, return a plain callable over keyword bindings."""
    tree = parse_expr(source, variables)

    def fn(**bindings):
        return eval_expr(tree, **bindings)

    return fn


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def to_string(expr) -> str:
    """Canonical printer; parse(to_string(parse(s))) is a fixed point."""

    def render(e, parent_prec):
        if isinstance(e, Num):
            return repr(e.value)
        if isinstance(e, Var):
            return e.name
        if isinstance(e, Neg):
            s = f"-{render(e.arg, _PREC['neg'])}"
            return f"({s})" if parent_prec > _PREC["neg"] else s
        if isinstance(e, Call):
            return f"{e.fn}({render(e.arg, 0)})"
        if isinstance(e, BinOp):
            p, chain = _PREC[e.op], [e]
            # walk a left-associative chain (u + u + ... + u) in a loop, as eval_expr does
            while isinstance(e.left, BinOp) and _PREC[e.op] <= _PREC[e.left.op] < _PREC["^"]:
                e = e.left
                chain.append(e)
            if e.op == "^":
                s = f"{render(e.left, p + 1)}^{render(e.right, p)}"
            else:
                s = render(e.left, _PREC[e.op]) + "".join(
                    f" {n.op} {render(n.right, _PREC[n.op] + 1)}" for n in reversed(chain))
            return f"({s})" if parent_prec > p else s
        raise TypeError(f"not an expression node: {e!r}")

    return render(expr, 0)
