import ast
import math

import numpy as np
import pytest

from ftdiff.errors import ExpressionError
from ftdiff.expr import compile_expression


class TestValid:
    def test_polynomial(self):
        f = compile_expression("3*x**2 - 2*x + 1")
        assert f(2.0) == 9.0

    def test_variable_z(self):
        f = compile_expression("z*z")
        assert f(3.0) == 9.0

    def test_functions(self):
        assert compile_expression("exp(x)")(1.0) == pytest.approx(math.e)
        assert compile_expression("log(x)")(math.e) == pytest.approx(1.0)
        assert compile_expression("sqrt(x)")(9.0) == 3.0
        assert compile_expression("abs(x)")(-4.0) == 4.0
        assert compile_expression("pow(x, 3)")(2.0) == 8.0

    def test_sign(self):
        f = compile_expression("sign(x)")
        assert f(5.0) == 1.0
        assert f(-5.0) == -1.0
        assert f(0.0) == 0.0

    def test_constants(self):
        assert compile_expression("pi")(0.0) == math.pi
        assert compile_expression("e")(0.0) == math.e

    def test_unary_minus(self):
        assert compile_expression("-x + +x*2")(3.0) == 3.0

    def test_division(self):
        assert compile_expression("x / 4")(2.0) == 0.5

    def test_sqrt_dgf_expression(self):
        f = compile_expression("sign(x) * sqrt(abs(x))")
        assert f(4.0) == 2.0
        assert f(-4.0) == -2.0

    def test_independent_closures(self):
        f = compile_expression("x + 1")
        g = compile_expression("x + 2")
        assert f(0.0) == 1.0
        assert g(0.0) == 2.0

    def test_coerces_argument(self):
        assert compile_expression("x")(3) == 3.0
        assert isinstance(compile_expression("x")(3), float)


class TestSoftening:
    def test_overflow_keeps_sign(self):
        # the surrounding sign flip must still apply when exp overflows
        f = compile_expression("sqrt(exp(abs(x)) - 1) * sign(x)")
        assert f(800.0) == math.inf
        assert f(-800.0) == -math.inf

    def test_division_by_zero_signed(self):
        assert compile_expression("1 / x")(0.0) == math.inf
        assert compile_expression("-1 / x")(0.0) == -math.inf

    def test_zero_over_zero_is_nan(self):
        assert math.isnan(compile_expression("(x - x) / (x - x)")(1.0))

    def test_pow_overflow_signed(self):
        f = compile_expression("x**3")
        assert f(1e300) == math.inf
        assert f(-1e300) == -math.inf

    def test_pow_stays_real(self):
        # fractional power of a negative base softens to nan, never complex
        out = compile_expression("x**(1/3)")(-8.0)
        assert isinstance(out, float) and math.isnan(out)

    def test_log_edge_cases(self):
        f = compile_expression("log(x)")
        assert f(0.0) == -math.inf
        assert math.isnan(f(-1.0))

    def test_sqrt_negative_nan(self):
        assert math.isnan(compile_expression("sqrt(x)")(-1.0))


class TestRejection:
    @pytest.mark.parametrize("text", [
        "x***2", "import os", "y + 1", "x % 2", "sin(x)", "exp()",
        "pow(x)", "exp(x, 2)", "'s'", "exp(x, key=1)", "", "   ",
        "x if x else 0", "True", "x.real", "[1, 2]", "lambda v: v",
        "x == 1", "(x for x in [1])", "__import__('os')", "x @ x",
    ])
    def test_rejected(self, text):
        with pytest.raises(ExpressionError):
            compile_expression(text)

    def test_location_reported(self):
        with pytest.raises(ExpressionError) as info:
            compile_expression("x + sin(x)")
        assert info.value.line == 1
        assert info.value.col == 4

    def test_syntax_error_location(self):
        with pytest.raises(ExpressionError) as info:
            compile_expression("x +* 2")
        assert info.value.line == 1
        assert info.value.col is not None

    def test_rejects_before_evaluation(self):
        # validation failure must not execute anything
        with pytest.raises(ExpressionError):
            compile_expression("exec('x')")


# The float form's former per-operation softening, kept as the reference:
# the compiled function now takes the array form's value wherever math raises.


def _g_exp(a):
    try:
        return math.exp(a)
    except OverflowError:
        return math.inf


def _g_log(a):
    if a == 0.0:
        return -math.inf
    try:
        return math.log(a)
    except ValueError:
        return math.nan


def _g_pow(a, b):
    try:
        return math.pow(a, b)
    except OverflowError:
        odd = b == int(b) and int(b) % 2 == 1
        return -math.inf if (a < 0.0 and odd) else math.inf
    except ValueError:
        return math.nan


def _g_div(a, b):
    try:
        return a / b
    except ZeroDivisionError:
        if a == 0.0:
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)


class _LowerDiv(ast.NodeTransformer):
    """Rewrite a / b into _div(a, b), after the module's lowering of **."""

    def visit_BinOp(self, node):
        self.generic_visit(node)
        if not isinstance(node.op, ast.Div):
            return node
        return ast.copy_location(ast.Call(func=ast.Name(id="_div", ctx=ast.Load()),
                                          args=[node.left, node.right], keywords=[]), node)


def _per_call_eval(text):
    """The former formulation: guarded helpers, and eval re-entered on every call."""
    from ftdiff.expr import _CONSTANTS, _Lower, _sign, _validate

    tree = ast.parse(text, mode="eval")
    _validate(tree)
    code = compile(ast.fix_missing_locations(_LowerDiv().visit(_Lower().visit(tree))),
                   "<expression>", "eval")
    env = {"__builtins__": {}, "exp": _g_exp, "log": _g_log, "sqrt": math.sqrt, "sign": _sign,
           "abs": abs, "pow": _g_pow, "_div": _g_div, **_CONSTANTS}

    def fn(value):
        v = float(value)
        try:
            return float(eval(code, env, {"x": v, "z": v}))
        except OverflowError:
            return math.inf
        except ZeroDivisionError:
            return math.inf
        except ValueError:
            return math.nan

    return fn


def _outcome(f, arg):
    try:
        return f(arg)
    except Exception as exc:  # the exception type is part of the contract
        return type(exc)


BIG_INT = "1" + "0" * 400  # an int literal beyond the float range


class TestCompiledMatchesPerCallEval:
    EXPRESSIONS = [
        "sign(x)*(sqrt(abs(x)) + abs(x)**1.5)",
        "0.5/sqrt(abs(x)) + 1.5*sqrt(abs(x))",
        "sign(x)*(-0.25*abs(x)**-1.5 + 0.75*abs(x)**-0.5)",
        "exp(1000)*sign(x)", "1/x", "0/x", "x**0.5", "x**1e3", "log(x)",
        "pow(x,3)", "-z**2+pi*e", "sqrt(x)", "x", "2*3 - 1", pytest.param(BIG_INT, id="BIG_INT"),
    ]
    ARGS = [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 710.0, -710.0,
            math.inf, -math.inf, math.nan, 3]

    @pytest.mark.parametrize("text", EXPRESSIONS)
    def test_same_bits_and_exceptions(self, text):
        new, old = compile_expression(text), _per_call_eval(text)
        for arg in self.ARGS:
            got, want = _outcome(new, arg), _outcome(old, arg)
            if isinstance(want, float):
                assert isinstance(got, float), (text, arg, got)
                if math.isnan(want):
                    assert math.isnan(got), (text, arg, got)
                else:
                    assert got.hex() == want.hex(), (text, arg, got, want)
            else:
                assert got is want, (text, arg, got, want)


def _ulps(a, b):
    """Distance of two finite floats in units in the last place of the larger."""
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


class TestArrayForm:
    """The numpy form of a compiled expression against its scalar form."""

    @pytest.mark.parametrize("text", TestCompiledMatchesPerCallEval.EXPRESSIONS)
    def test_matches_scalar_form(self, text):
        # numpy's exp, log and pow may differ from libm's in the last bits
        # (by 4 ulp for ured's phi'' expression at x = 0.7, through
        # cancellation); on this table they are bit-equal with numpy 2.4
        args = TestCompiledMatchesPerCallEval.ARGS
        f = compile_expression(text)
        got = f(np.array(args, dtype=float))
        assert got.shape == (len(args),) and got.dtype == np.float64
        for arg, g in zip(args, got.tolist()):
            want = f(arg)
            if math.isnan(want):
                assert math.isnan(g), (text, arg, g)
            elif math.isinf(want) or want == 0.0:
                assert g == want and math.copysign(1.0, g) == math.copysign(1.0, want), (text, arg, g)
            else:
                assert _ulps(g, want) <= 4, (text, arg, g, want)

    def test_constant_expressions_broadcast(self):
        x = np.zeros((2, 3))
        assert np.array_equal(compile_expression("2*3 - 1")(x), np.full((2, 3), 5.0))
        assert np.array_equal(compile_expression("2**3000 + 1/0")(x), np.full((2, 3), math.inf))

    def test_sign_of_nan_is_zero_in_both_forms(self):
        f = compile_expression("sign(x)")
        assert f(math.nan) == 0.0
        assert f(np.array([math.nan, -0.0, -2.0]))[0] == 0.0
        assert list(f(np.array([math.nan, -0.0, -2.0]))) == [0.0, 0.0, -1.0]

    def test_sqrt_of_negative_spoils_only_its_element(self):
        # math.sqrt raises at -1, and the float form then takes the array
        # form's value: numpy's sqrt is nan in that one place, and pow(nan, 0) is 1
        f = compile_expression("pow(sqrt(x), 0)")
        assert f(-1.0) == 1.0
        assert list(f(np.array([-1.0, 4.0]))) == [1.0, 1.0]

    def test_int_literal_beyond_float_range(self):
        # the literal is inf in the array form, and the float form takes that
        # value where its int arithmetic overflows
        f = compile_expression(BIG_INT + "*x")
        assert f(-2.0) == -math.inf
        assert list(f(np.array([-2.0, 3.0]))) == [-math.inf, math.inf]
