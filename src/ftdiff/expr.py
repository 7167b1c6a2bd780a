"""Tiny arithmetic-expression compiler for user-supplied generating functions.

Accepts a single-variable expression over +, -, *, /, **, unary sign, the
functions exp, log, sqrt, sign, abs, pow, and the constants pi and e. The
variable may be written x (or z, convenient for inverse expressions); both
names bind to the same argument. Anything else is rejected with the line
and column of the offending token, before any evaluation happens.

Runtime domain violations are softened so admissibility scans can probe
freely: overflow and division by zero evaluate to a signed inf, invalid
domains (log of a negative number) to nan. The softening happens per
operation, not per expression: exp(1000)*sign(x) must come out as -inf for
negative x.

The compiled function also takes a numpy array and then evaluates the same
expression elementwise with numpy, whose IEEE arithmetic defines the
softening. A float argument runs the expression on math's functions; where
one of them raises (overflow, division by zero, a domain error), the call
returns the array form's value at that point instead. The two forms agree
to within a few ulp everywhere.
"""
from __future__ import annotations

import ast
import math
from typing import Callable

import numpy as np

from .errors import ExpressionError

__all__ = ["compile_expression"]


def _sign(x: float) -> float:
    if x > 0.0:
        return 1.0
    if x < 0.0:
        return -1.0
    return 0.0


_FUNCTIONS = {
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "sign": _sign,
    "abs": abs,
    # math.pow keeps floats real; float ** float would hand back a complex
    # number for a negative base and fractional exponent
    "pow": math.pow,
}

_CONSTANTS = {"pi": math.pi, "e": math.e}


def _a_sign(a: np.ndarray) -> np.ndarray:
    # 0 at nan, like _sign; np.sign would give nan
    return (a > 0.0) * 1.0 - (a < 0.0)


def _a_pow(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    scalar = np.ndim(b) == 0  # the usual case, a literal exponent
    if scalar and b == 0.5:
        # np.power takes a scalar exponent 0.5 as a sqrt, which gives nan at
        # -inf and -0 at -0, where pow gives inf and 0
        return np.where(a == -np.inf, np.inf, np.sqrt(a + 0.0))
    r = np.power(a, b)
    if scalar and not -np.inf < b < 0.0:
        return r
    # 0 to a finite negative power is a domain error for math.pow: nan, not inf
    return np.where((a == 0.0) & (b < 0.0) & (b > -np.inf), np.nan, r)


_ARRAY_NAMES = {
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "sign": _a_sign,
    "abs": np.abs,
    "pow": _a_pow,
    **{k: np.float64(v) for k, v in _CONSTANTS.items()},
}

_VARIABLES = ("x", "z")

_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_UNARYOPS = (ast.UAdd, ast.USub)


def _reject(node: ast.AST, message: str) -> ExpressionError:
    line = getattr(node, "lineno", 1)
    col = getattr(node, "col_offset", 0)
    return ExpressionError(message, line, col)


def _validate(node: ast.AST) -> None:
    if isinstance(node, ast.Expression):
        _validate(node.body)
        return
    if isinstance(node, ast.BinOp):
        if not isinstance(node.op, _BINOPS):
            raise _reject(node, f"operator {type(node.op).__name__} is not allowed")
        _validate(node.left)
        _validate(node.right)
        return
    if isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, _UNARYOPS):
            raise _reject(node, f"operator {type(node.op).__name__} is not allowed")
        _validate(node.operand)
        return
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            raise _reject(node, "only exp, log, sqrt, sign, abs, pow may be called")
        if node.keywords:
            raise _reject(node, "keyword arguments are not allowed")
        want = 2 if node.func.id == "pow" else 1
        if len(node.args) != want:
            raise _reject(
                node, f"{node.func.id} takes exactly {want} argument{'s' if want > 1 else ''}"
            )
        for a in node.args:
            _validate(a)
        return
    if isinstance(node, ast.Name):
        if node.id in _VARIABLES or node.id in _CONSTANTS:
            return
        raise _reject(node, f"unknown name {node.id!r}; the variable is x (or z)")
    if isinstance(node, ast.Constant):
        if isinstance(node.value, (int, float)) and not isinstance(node.value, bool):
            return
        raise _reject(node, "only numeric literals are allowed")
    raise _reject(node, f"syntax element {type(node).__name__} is not allowed")


class _Lower(ast.NodeTransformer):
    """Rewrite a ** b into pow(a, b), which stays real in the float form."""

    def visit_BinOp(self, node: ast.BinOp) -> ast.AST:
        self.generic_visit(node)
        if not isinstance(node.op, ast.Pow):
            return node
        call = ast.Call(func=ast.Name(id="pow", ctx=ast.Load()),
                        args=[node.left, node.right], keywords=[])
        return ast.copy_location(call, node)


class _Floats(ast.NodeTransformer):
    """Replace numeric literals by names bound to numpy floats in `names`.

    Then constant sub-expressions such as 2**3000 or 1/0 follow numpy's
    IEEE arithmetic too, instead of raising in Python int or float code.
    """

    def __init__(self, names: dict) -> None:
        self.names = names

    def visit_Constant(self, node: ast.Constant) -> ast.AST:
        name = f"_k{len(self.names)}"
        try:
            value = float(node.value)
        except OverflowError:  # an int literal beyond the float range
            value = math.inf
        self.names[name] = np.float64(value)
        return ast.copy_location(ast.Name(id=name, ctx=ast.Load()), node)


def _function(body: ast.expr, names: dict) -> Callable:
    """Evaluate lambda x, z: body once against the restricted names."""
    params = ast.arguments(posonlyargs=[], args=[ast.arg(arg=n) for n in _VARIABLES],
                           kwonlyargs=[], kw_defaults=[], defaults=[])
    tree = ast.fix_missing_locations(ast.Expression(body=ast.Lambda(args=params, body=body)))
    return eval(compile(tree, "<expression>", "eval"), {"__builtins__": {}, **names})


def compile_expression(text: str) -> Callable[[float], float]:
    """Compile text into a float -> float function, validating first.

    The function maps a numpy array to a float array of the same shape.
    """
    if not isinstance(text, str) or not text.strip():
        raise ExpressionError("empty expression", 1, 0)
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(
            exc.msg or "invalid syntax", exc.lineno or 1, (exc.offset or 1) - 1
        ) from None
    _validate(tree)
    # one function of (x, z) built once: each call then skips eval's frame set-up
    lowered = _Lower().visit(tree.body)
    body = _function(lowered, {**_FUNCTIONS, **_CONSTANTS})
    literals: dict = {}
    array_body = _function(_Floats(literals).visit(lowered), {**_ARRAY_NAMES, **literals})

    ndarray = np.ndarray

    def fn(value: float) -> float:
        if type(value) is not ndarray:
            v = float(value)
            try:
                return float(body(v, v))
            except (ArithmeticError, ValueError):  # numpy softens what math raises for
                return float(fn(np.array([v]))[0])
        a = np.asarray(value, dtype=float)
        with np.errstate(all="ignore"):
            out = array_body(a, a)
        if type(out) is not ndarray or out.shape != a.shape:
            out = np.full(a.shape, out)  # an expression without x
        return out

    return fn
