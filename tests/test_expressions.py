import operator

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from normalflat.expressions import MAX_NESTING, EvalError, ParseError, compile_expr


def _value(src, **bindings):
    return compile_expr(src)(**bindings)


def test_parse_add():
    assert _value("u + v", u=1.0, v=2.0) == 3.0
    assert _value("u - v - 1", u=1.0, v=2.0) == -2.0  # left-associative
    assert _value("8 / 4 / 2") == 1.0


def test_precedence_power_before_mul():
    assert _value("2*u^2", u=3.0) == 18.0
    assert _value("1 + 2*3") == 7.0
    assert _value("(1 + 2)*3") == 9.0
    assert _value("6 - 2*u/4", u=4.0) == 4.0


def test_power_right_associative():
    assert _value("2^3^2") == 512.0
    assert _value("(2^3)^2") == 64.0


def test_unary_minus_binds_weaker_than_power():
    assert _value("-2^2") == -4.0
    assert _value("-u^2", u=3.0) == -9.0
    assert _value("2^-1") == 0.5
    assert _value("--2") == 2.0


def test_eval_examples():
    assert _value("u", u=3.0, v=7.0) == 3.0
    assert _value("sqrt(u^2+v^2)", u=3.0, v=4.0) == 5.0
    val = _value("log(2/(1+u^2+v^2))", u=0.0, v=0.0)
    assert val == pytest.approx(0.6931471805599453, abs=1e-16)
    val = _value("sin(u)*cosh(v) - 1e-3", u=0.0, v=0.0)
    assert val == pytest.approx(-0.001, abs=1e-18)


def test_eval_vectorized():
    u = np.linspace(0, 1, 7)
    out = _value("sin(u) + 2", u=u, v=0.0)
    assert np.allclose(out, np.sin(u) + 2)


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as err:
        compile_expr("u + ")
    assert err.value.offset == 4
    with pytest.raises(ParseError) as err:
        compile_expr("u + w")
    assert err.value.offset == 4
    with pytest.raises(ParseError) as err:
        compile_expr("foo(u)")
    assert err.value.offset == 0
    with pytest.raises(ParseError):
        compile_expr("u + (v")
    # past the nesting limit: parentheses, calls, unary minus and ^ each open a level
    for src, offset in (("(" * 200 + "u" + ")" * 200, MAX_NESTING),
                        ("sin(" * 200 + "u" + ")" * 200, 4 * MAX_NESTING),
                        ("-" * 2000 + "u", MAX_NESTING),
                        ("u^" * 2000 + "u", 2 * MAX_NESTING)):
        with pytest.raises(ParseError, match="nested deeper than 160 levels") as err:
            compile_expr(src)
        assert err.value.offset == offset


def test_eval_domain_errors():
    for src, bindings, message, offset in (
            ("log(0 - u)", dict(u=1.0, v=0.0), "log of a non-positive value", 0),
            ("sqrt(0 - 1)", {}, "sqrt of a negative value", 0),
            ("1/(u - u)", dict(u=2.0, v=0.0), "division produced a non-finite value", 1),
            ("u", dict(v=1.0), "unbound variable 'u'", 0)):
        with pytest.raises(EvalError, match=message) as err:
            _value(src, **bindings)
        assert err.value.offset == offset


# --------------------------------------------------------------------------
# reference-evaluator agreement on generated expressions
# --------------------------------------------------------------------------

# numpy's elementary functions, the ones compile_expr calls: libm and numpy's
# SIMD loops may round differently (math.tanh(0.125) is one ulp below
# np.tanh(0.125)), and a cancellation such as 0.125 - tanh(v) at v = 0.125
# magnifies that ulp past any tolerance on the evaluation itself
_REF_FUNCS = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "sinh": np.sinh, "cosh": np.cosh, "tanh": np.tanh,
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt,
    "atan": np.arctan, "abs": abs,
}
_REF_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _call(fn, x):
    with np.errstate(invalid="raise"):  # sin(inf) raises, as math.sin does
        return float(_REF_FUNCS[fn](x))


def _square(x):
    """A square taken as x * x, which IEEE-754 rounds correctly; libm
    ``pow(x, 2.0)`` need not (0.50015 ulp at x = 1.4019127243797462)."""
    return x * x


def _case_strategy():
    """Source text with its Python-float reference: each drawn case is
    ``(text, reference)``, printed fully parenthesised, so the parser alone
    decides nothing the reference does not spell out."""
    leaves = st.one_of(
        st.floats(0.1, 4.0).map(lambda x: round(x, 3)).map(lambda x: (repr(x), lambda u, v: x)),
        st.sampled_from([("u", lambda u, v: u), ("v", lambda u, v: v)]))

    def binary(t):
        op, (a, fa), (b, fb) = t
        return f"({a} {op} {b})", lambda u, v: _REF_OPS[op](fa(u, v), fb(u, v))

    def call(t):
        fn, (a, fa) = t
        return f"{fn}({a})", lambda u, v: _call(fn, fa(u, v))

    def square(c):
        a, fa = c
        return f"({a}^2)", lambda u, v: _square(fa(u, v))

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from("+-*/"), children, children).map(binary),
            st.tuples(st.sampled_from(["sin", "cos", "tanh", "atan", "abs"]), children).map(call),
            children.map(square),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@settings(max_examples=1000, deadline=None)
@given(case=_case_strategy(), u=st.floats(0.1, 2.0), v=st.floats(0.1, 2.0))
@example(case=("((1.375^2)^2)^2 - ((u^2)^2)^2",
               lambda u, v: _square(_square(_square(1.375))) - _square(_square(_square(u)))),
         u=1.4019127243797462, v=0.5)
@example(case=("1.0 / (0.125 - tanh(v))^2", lambda u, v: 1.0 / _square(0.125 - _call("tanh", v))),
         u=1.0, v=0.125)
def test_eval_matches_reference(case, u, v):
    src, reference = case
    try:
        expected = reference(u, v)
    except (ZeroDivisionError, OverflowError, ValueError, FloatingPointError):
        return
    if not np.isfinite(expected) or abs(expected) > 1e12:
        return
    assert _value(src, u=u, v=v) == pytest.approx(expected, rel=1e-15, abs=1e-15)


def test_nested_and_long_expressions_evaluate():
    # 150 levels stay under the nesting limit; a left-associative chain
    # nests no level and is applied in a loop, so it evaluates at any length
    assert _value("(" * 150 + "u" + ")" * 150, u=2.0) == 2.0
    assert _value("-" * 150 + "u", u=2.0) == 2.0
    assert _value("sin(" * 150 + "u" + ")" * 150, u=0.0) == 0.0
    fn = compile_expr(" + ".join(["u"] * 3000) + " - " + " * ".join(["1"] * 3000))
    assert fn(u=np.array([1.0, 0.5])).tolist() == [2999.0, 1499.0]
    fn = compile_expr(" * ".join(["u"] * 3000) + " - " + " / ".join(["v"] * 3000))
    assert fn(u=1.0, v=1.0) == 0.0
