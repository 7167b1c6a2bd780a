import math

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


def _per_call_eval(text):
    """The former formulation: the lowered body re-enters eval on every call."""
    import ast

    from ftdiff.expr import _CONSTANTS, _FUNCTIONS, _Lower, _g_div, _validate

    tree = ast.parse(text, mode="eval")
    _validate(tree)
    code = compile(ast.fix_missing_locations(_Lower().visit(tree)), "<expression>", "eval")
    env = {"__builtins__": {}, **_FUNCTIONS, **_CONSTANTS, "_div": _g_div}

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


class TestCompiledMatchesPerCallEval:
    EXPRESSIONS = [
        "sign(x)*(sqrt(abs(x)) + abs(x)**1.5)",
        "0.5/sqrt(abs(x)) + 1.5*sqrt(abs(x))",
        "sign(x)*(-0.25*abs(x)**-1.5 + 0.75*abs(x)**-0.5)",
        "exp(1000)*sign(x)", "1/x", "0/x", "x**0.5", "x**1e3", "log(x)",
        "pow(x,3)", "-z**2+pi*e", "sqrt(x)", "x", "2*3 - 1",
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
