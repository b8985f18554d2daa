import math
import operator

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from normalflat.expressions import (
    BinOp,
    Call,
    EvalError,
    Num,
    ParseError,
    Var,
    eval_expr,
    parse_expr,
    to_string,
)


def test_parse_add():
    tree = parse_expr("u + v")
    assert isinstance(tree, BinOp) and tree.op == "+"
    assert isinstance(tree.left, Var) and tree.left.name == "u"


def test_precedence_power_before_mul():
    tree = parse_expr("2*u^2")
    assert isinstance(tree, BinOp) and tree.op == "*"
    assert isinstance(tree.right, BinOp) and tree.right.op == "^"


def test_power_right_associative():
    assert eval_expr(parse_expr("2^3^2")) == 512.0


def test_unary_minus_binds_weaker_than_power():
    assert eval_expr(parse_expr("-2^2")) == -4.0
    assert eval_expr(parse_expr("2^-1")) == 0.5


def test_eval_examples():
    assert eval_expr(parse_expr("u"), u=3.0, v=7.0) == 3.0
    assert eval_expr(parse_expr("sqrt(u^2+v^2)"), u=3.0, v=4.0) == 5.0
    val = eval_expr(parse_expr("log(2/(1+u^2+v^2))"), u=0.0, v=0.0)
    assert val == pytest.approx(0.6931471805599453, abs=1e-16)
    val = eval_expr(parse_expr("sin(u)*cosh(v) - 1e-3"), u=0.0, v=0.0)
    assert val == pytest.approx(-0.001, abs=1e-18)


def test_eval_vectorized():
    u = np.linspace(0, 1, 7)
    out = eval_expr(parse_expr("sin(u) + 2"), u=u, v=0.0)
    assert np.allclose(out, np.sin(u) + 2)


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as err:
        parse_expr("u + ")
    assert err.value.offset == 4
    with pytest.raises(ParseError) as err:
        parse_expr("u + w")
    assert err.value.offset == 4
    with pytest.raises(ParseError) as err:
        parse_expr("foo(u)")
    assert err.value.offset == 0
    with pytest.raises(ParseError):
        parse_expr("u + (v")


def test_eval_domain_errors():
    with pytest.raises(EvalError):
        eval_expr(parse_expr("log(0 - u)"), u=1.0, v=0.0)
    with pytest.raises(EvalError):
        eval_expr(parse_expr("sqrt(0 - 1)"))
    with pytest.raises(EvalError):
        eval_expr(parse_expr("1/(u - u)"), u=2.0, v=0.0)
    with pytest.raises(EvalError):
        eval_expr(parse_expr("u"), v=1.0)


def test_print_parse_fixed_point():
    for src in ("u + v", "2*u^2", "-u^2 + sin(u*v)", "2^3^2", "u^-2",
                "1/(1 + u^2)", "sqrt(abs(u - v))", "-(u + v)*3"):
        once = to_string(parse_expr(src))
        twice = to_string(parse_expr(once))
        assert once == twice
        a = eval_expr(parse_expr(src), u=0.37, v=1.21)
        b = eval_expr(parse_expr(once), u=0.37, v=1.21)
        assert a == pytest.approx(b, rel=1e-15)


# --------------------------------------------------------------------------
# reference-evaluator agreement on generated expressions
# --------------------------------------------------------------------------

_REF_FUNCS = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan,
    "sinh": math.sinh, "cosh": math.cosh, "tanh": math.tanh,
    "exp": math.exp, "log": math.log, "sqrt": math.sqrt,
    "atan": math.atan, "abs": abs,
}
_REF_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _reference(node, u, v):
    """Evaluate a generated tree with Python floats and ``math``.

    The generator raises only to the power 2, and a square is taken as
    x * x, which IEEE-754 rounds correctly; libm ``pow(x, 2.0)`` need not
    (0.50015 ulp at x = 1.4019127243797462).
    """
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return {"u": u, "v": v}[node.name]
    if isinstance(node, Call):
        return _REF_FUNCS[node.fn](_reference(node.arg, u, v))
    a = _reference(node.left, u, v)
    if node.op == "^":
        assert node.right.value == 2.0
        return a * a
    return _REF_OPS[node.op](a, _reference(node.right, u, v))


def _tree_strategy():
    leaves = st.one_of(
        st.floats(0.1, 4.0).map(lambda x: Num(round(x, 3))),
        st.sampled_from([Var("u"), Var("v")]))

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from("+-*/"), children, children).map(
                lambda t: BinOp(t[0], t[1], t[2])),
            st.tuples(st.sampled_from(["sin", "cos", "tanh", "atan", "abs"]),
                      children).map(lambda t: Call(t[0], t[1])),
            children.map(lambda e: BinOp("^", e, Num(2.0))),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@settings(max_examples=1000, deadline=None)
@given(tree=_tree_strategy(), u=st.floats(0.1, 2.0), v=st.floats(0.1, 2.0))
@example(tree=parse_expr("((1.375^2)^2)^2 - ((u^2)^2)^2"), u=1.4019127243797462, v=0.5)
def test_eval_matches_reference(tree, u, v):
    try:
        expected = _reference(tree, u, v)
    except (ZeroDivisionError, OverflowError, ValueError):
        return
    if not np.isfinite(expected) or abs(expected) > 1e12:
        return
    ours = eval_expr(parse_expr(to_string(tree)), u=u, v=v)
    assert ours == pytest.approx(expected, rel=1e-15, abs=1e-15)
