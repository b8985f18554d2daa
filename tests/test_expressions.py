import operator
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from normalflat.expressions import (
    MAX_NESTING,
    BinOp,
    Call,
    EvalError,
    Neg,
    Num,
    ParseError,
    Var,
    compile_expr,
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
    # past the nesting limit: parentheses, calls, unary minus and ^ each open a level
    for src, offset in (("(" * 200 + "u" + ")" * 200, MAX_NESTING),
                        ("sin(" * 200 + "u" + ")" * 200, 4 * MAX_NESTING),
                        ("-" * 2000 + "u", MAX_NESTING),
                        ("u^" * 2000 + "u", 2 * MAX_NESTING)):
        with pytest.raises(ParseError, match="nested deeper than 160 levels") as err:
            parse_expr(src)
        assert err.value.offset == offset


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

# numpy's elementary functions, the ones eval_expr calls: libm and numpy's
# SIMD loops may round differently (math.tanh(0.125) is one ulp below
# np.tanh(0.125)), and a cancellation such as 0.125 - tanh(v) at v = 0.125
# magnifies that ulp past any tolerance on the tree evaluation itself
_REF_FUNCS = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "sinh": np.sinh, "cosh": np.cosh, "tanh": np.tanh,
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt,
    "atan": np.arctan, "abs": abs,
}
_REF_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _reference(node, u, v):
    """Evaluate a generated tree with Python floats.

    The generator raises only to the power 2, and a square is taken as
    x * x, which IEEE-754 rounds correctly; libm ``pow(x, 2.0)`` need not
    (0.50015 ulp at x = 1.4019127243797462).
    """
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return {"u": u, "v": v}[node.name]
    if isinstance(node, Call):
        with np.errstate(invalid="raise"):  # sin(inf) raises, as math.sin does
            return float(_REF_FUNCS[node.fn](_reference(node.arg, u, v)))
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
@example(tree=parse_expr("1.0 / (0.125 - tanh(v))^2"), u=1.0, v=0.125)
def test_eval_matches_reference(tree, u, v):
    try:
        expected = _reference(tree, u, v)
    except (ZeroDivisionError, OverflowError, ValueError, FloatingPointError):
        return
    if not np.isfinite(expected) or abs(expected) > 1e12:
        return
    ours = eval_expr(parse_expr(to_string(tree)), u=u, v=v)
    assert ours == pytest.approx(expected, rel=1e-15, abs=1e-15)


def test_nested_and_long_expressions_evaluate():
    # 150 levels stay under the nesting limit; a left-associative chain is
    # as deep as it is long but nests no level
    assert eval_expr(parse_expr("(" * 150 + "u" + ")" * 150), u=2.0) == 2.0
    assert eval_expr(parse_expr("-" * 150 + "u"), u=2.0) == 2.0
    fn = compile_expr(" + ".join(["u"] * 3000) + " - " + " * ".join(["1"] * 3000))
    assert fn(u=np.array([1.0, 0.5])).tolist() == [2999.0, 1499.0]


def test_long_chain_prints_and_reparses():
    # to_string walks a left-associative chain in a loop, as eval_expr does
    for src in (" + ".join(["u"] * 3000),
                " * ".join(["u"] * 3000) + " - " + " / ".join(["v"] * 3000)):
        text = to_string(parse_expr(src))
        assert text == src
        assert to_string(parse_expr(text)) == text


def test_long_chain_trees_compare_and_hash():
    # ==, hash, repr and pickling walk the tree in a loop, as to_string and
    # eval_expr do
    src = " + ".join(["u"] * 3000)
    a, b = parse_expr(src), parse_expr(src)
    assert a == b and hash(a) == hash(b)
    assert repr(a).startswith("BinOp(op='+', left=BinOp(op='+', left=")
    assert repr(a).endswith("right=Var(name='u', pos=11996), pos=11994)")
    c = pickle.loads(pickle.dumps(a))
    assert c == a and repr(c) == repr(a)
    assert a != parse_expr(src + " + u")
    assert a != parse_expr(src[:-1] + "v")
    assert a != parse_expr(src.replace("+", "-", 1))
    assert parse_expr(src + " - 2") != parse_expr(src + " - 2.5")
    # the fields a frozen dataclass compares: every one, positions included
    assert parse_expr("u + v") == BinOp("+", Var("u"), Var("v", 4), 2)
    assert parse_expr("u + v") != BinOp("+", Var("u"), Var("v", 3), 2)
    assert Neg(Num(1.0)) != Call("abs", Num(1.0))
    assert len({parse_expr("sin(u) * 2"), parse_expr(" sin(u) * 2"[1:]), Num(1.0)}) == 2
    # the dataclass text of a small tree, and a pickle round trip of every node class
    small = parse_expr("-sin(u)^2 + 3*v")
    assert repr(small) == (
        "BinOp(op='+', left=Neg(arg=BinOp(op='^', left=Call(fn='sin', arg=Var(name='u', pos=5), "
        "pos=1), right=Num(value=2.0, pos=8), pos=7), pos=0), right=BinOp(op='*', "
        "left=Num(value=3.0, pos=12), right=Var(name='v', pos=14), pos=13), pos=10)")
    assert pickle.loads(pickle.dumps(small)) == small
