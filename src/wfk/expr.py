"""Closed-form scalar expressions of chart coordinates with exact jets.

Expressions are parsed into an immutable AST over coordinates ``x1..xN``
and evaluated as jets: value, gradient and Hessian, plus the third
derivative on request (Taylor-mode propagation, Griewank & Walther,
*Evaluating Derivatives*, ch. 13).  Every consumer that needs metric
derivatives up to third order gets them analytically instead of by
finite differences.

Grammar (loosest to tightest binding)::

    expr   :=  term  (('+' | '-') term)*
    term   :=  unary (('*' | '/') unary)*
    unary  :=  '-' unary | power
    power  :=  atom ('^' nonnegative-integer)?
    atom   :=  number | coordinate | ('exp'|'sqrt'|'log') '(' expr ')' | '(' expr ')'

Coordinates are named ``x1 .. xN``; ``exp``, ``sqrt`` and ``log`` are the
only reserved identifiers.  No trigonometric functions: the constructions
this package verifies only need exponentials and polynomials.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ExprAst",
    "ScalarJet",
    "ExprError",
    "ExprSyntaxError",
    "ExprDomainError",
    "parse_expression",
    "evaluate_jet",
    "evaluate_value",
    "to_source",
    "const",
    "var",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "powi",
    "exp",
    "sqrt",
    "log",
    "add_many",
]


class ExprError(Exception):
    """Base class for expression errors; carries a character span."""

    def __init__(self, message: str, span: tuple[int, int]):
        super().__init__(f"{message} (at characters {span[0]}..{span[1]})")
        self.message = message
        self.span = span


class ExprSyntaxError(ExprError):
    pass


class ExprDomainError(ExprError):
    pass


_FUNCTIONS = ("exp", "sqrt", "log")

# node kinds: const, var, neg, add, sub, mul, div, pow, exp, sqrt, log


@dataclass(frozen=True)
class Node:
    kind: str
    children: tuple["Node", ...] = ()
    value: float = 0.0  # constants
    index: int = 0      # coordinate index (0-based) or integer exponent
    span: tuple[int, int] = (0, 0)


@dataclass(frozen=True)
class ExprAst:
    """Parsed scalar expression over a chart of dimension ``dim``."""

    root: Node
    dim: int

    def __str__(self) -> str:
        return to_source(self)


@dataclass(frozen=True)
class ScalarJet:
    """Value, gradient, Hessian and (on request) third derivative at a point.

    The Hessian is exactly symmetric: every propagation rule produces it
    from symmetric ingredients (``outer(a, b) + outer(b, a)`` and scalar
    multiples of symmetric matrices).  ``third[a, b, c]`` is
    ``d_a d_b d_c`` of the scalar, or ``None`` when it was not requested.
    """

    value: float
    gradient: np.ndarray
    hessian: np.ndarray
    third: np.ndarray | None = None


# ---------------------------------------------------------------------------
# tokenizer / parser


@dataclass
class _Token:
    kind: str  # num, name, op, lparen, rparen, end
    text: str
    start: int
    end: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            # scientific suffix
            if j < n and text[j] in "eE" and (
                j + 1 < n and (text[j + 1].isdigit() or text[j + 1] in "+-")
            ):
                k = j + 2 if text[j + 1] in "+-" else j + 1
                while k < n and text[k].isdigit():
                    k += 1
                j = k
            try:
                number = float(text[i:j])
            except ValueError:
                raise ExprSyntaxError(
                    f"malformed number {text[i:j]!r}", (i, j)
                ) from None
            if not math.isfinite(number):
                raise ExprSyntaxError(
                    f"number out of range {text[i:j]!r}", (i, j)
                )
            tokens.append(_Token("num", text[i:j], i, j))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], i, j))
            i = j
        elif ch in "+-*/^":
            tokens.append(_Token("op", ch, i, i + 1))
            i += 1
        elif ch == "(":
            tokens.append(_Token("lparen", ch, i, i + 1))
            i += 1
        elif ch == ")":
            tokens.append(_Token("rparen", ch, i, i + 1))
            i += 1
        else:
            raise ExprSyntaxError(f"unexpected character {ch!r}", (i, i + 1))
    tokens.append(_Token("end", "", n, n))
    return tokens


class _Parser:
    def __init__(self, text: str, dim: int):
        self.text = text
        self.dim = dim
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise ExprSyntaxError(
                f"expected {want!r}, found {tok.text or 'end of input'!r}",
                (tok.start, tok.end),
            )
        return self.advance()

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(
                f"unexpected trailing input {tok.text!r}", (tok.start, tok.end)
            )
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance()
            rhs = self.term()
            kind = "add" if op.text == "+" else "sub"
            node = Node(kind, (node, rhs), span=(node.span[0], rhs.span[1]))
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance()
            rhs = self.unary()
            kind = "mul" if op.text == "*" else "div"
            node = Node(kind, (node, rhs), span=(node.span[0], rhs.span[1]))
        return node

    def unary(self) -> Node:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            inner = self.unary()
            return Node("neg", (inner,), span=(tok.start, inner.span[1]))
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            exp_tok = self.peek()
            if exp_tok.kind == "op" and exp_tok.text == "-":
                raise ExprSyntaxError(
                    "integer power exponent must be >= 0",
                    (exp_tok.start, exp_tok.end),
                )
            exp_tok = self.expect("num")
            if not exp_tok.text.isdigit():
                raise ExprSyntaxError(
                    "power exponent must be a nonnegative integer literal",
                    (exp_tok.start, exp_tok.end),
                )
            k = int(exp_tok.text)
            return Node("pow", (base,), index=k, span=(base.span[0], exp_tok.end))
        return base

    def atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Node("const", value=float(tok.text), span=(tok.start, tok.end))
        if tok.kind == "name":
            self.advance()
            name = tok.text
            if name in _FUNCTIONS:
                self.expect("lparen")
                inner = self.expr()
                close = self.expect("rparen")
                return Node(name, (inner,), span=(tok.start, close.end))
            if name[0] == "x" and name[1:].isdigit():
                idx = int(name[1:])
                if not 1 <= idx <= self.dim:
                    raise ExprSyntaxError(
                        f"coordinate index out of range: {name} (dimension {self.dim})",
                        (tok.start, tok.end),
                    )
                return Node("var", index=idx - 1, span=(tok.start, tok.end))
            raise ExprSyntaxError(
                f"unknown identifier {name!r}", (tok.start, tok.end)
            )
        if tok.kind == "lparen":
            self.advance()
            inner = self.expr()
            self.expect("rparen")
            return inner
        raise ExprSyntaxError(
            f"expected expression, found {tok.text or 'end of input'!r}",
            (tok.start, tok.end),
        )


def parse_expression(text: str, dim: int) -> ExprAst:
    """Parse ``text`` into an AST over coordinates ``x1..x{dim}``."""
    if not text.strip():
        raise ExprSyntaxError("empty expression", (0, len(text)))
    return ExprAst(_Parser(text, dim).parse(), dim)


# ---------------------------------------------------------------------------
# jet evaluation


def _sym3(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """(g (x) H)_sym3[a, b, c] = g_a H_bc + g_b H_ac + g_c H_ab."""
    o = np.multiply.outer(g, h)
    return o + o.transpose(1, 0, 2) + o.transpose(1, 2, 0)


def _chain3(d1: float, d2: float, d3: float, g, h, t) -> np.ndarray:
    """d^3 phi(u) from phi' (d1), phi'' (d2), phi''' (d3) and the jet of u."""
    return d1 * t + d2 * _sym3(g, h) + d3 * np.multiply.outer(np.outer(g, g), g)


def _jet(node: Node, point: np.ndarray, dim: int, third: bool):
    """(value, gradient, Hessian, third derivative) of ``node``.

    The third derivative ``T[a, b, c]`` is propagated only when ``third`` is
    set and is ``None`` otherwise; the first three slots are computed by the
    same arithmetic either way.
    """
    k = node.kind
    if k == "const":
        t = np.zeros((dim, dim, dim)) if third else None
        return node.value, np.zeros(dim), np.zeros((dim, dim)), t
    if k == "var":
        g = np.zeros(dim)
        g[node.index] = 1.0
        t = np.zeros((dim, dim, dim)) if third else None
        return float(point[node.index]), g, np.zeros((dim, dim)), t
    if k == "neg":
        v, g, h, t = _jet(node.children[0], point, dim, third)
        return -v, -g, -h, -t if third else None
    if k in ("add", "sub"):
        v1, g1, h1, t1 = _jet(node.children[0], point, dim, third)
        v2, g2, h2, t2 = _jet(node.children[1], point, dim, third)
        if k == "add":
            return v1 + v2, g1 + g2, h1 + h2, t1 + t2 if third else None
        return v1 - v2, g1 - g2, h1 - h2, t1 - t2 if third else None
    if k == "mul":
        v1, g1, h1, t1 = _jet(node.children[0], point, dim, third)
        v2, g2, h2, t2 = _jet(node.children[1], point, dim, third)
        cross = np.outer(g1, g2)
        t = None
        if third:
            t = v1 * t2 + v2 * t1 + _sym3(g1, h2) + _sym3(g2, h1)
        return v1 * v2, v1 * g2 + v2 * g1, v1 * h2 + v2 * h1 + cross + cross.T, t
    if k == "div":
        v1, g1, h1, t1 = _jet(node.children[0], point, dim, third)
        v2, g2, h2, t2 = _jet(node.children[1], point, dim, third)
        if v2 == 0.0:
            raise ExprDomainError("division by zero", node.span)
        # compose with the reciprocal of the denominator
        rv = 1.0 / v2
        rg = -g2 * rv * rv
        rh = -h2 * rv * rv + 2.0 * rv**3 * np.outer(g2, g2)
        cross = np.outer(g1, rg)
        t = None
        if third:
            rt = _chain3(-rv * rv, 2.0 * rv**3, -6.0 * rv**4, g2, h2, t2)
            t = v1 * rt + rv * t1 + _sym3(g1, rh) + _sym3(rg, h1)
        return v1 * rv, v1 * rg + rv * g1, v1 * rh + rv * h1 + cross + cross.T, t
    if k == "pow":
        v, g, h, t = _jet(node.children[0], point, dim, third)
        p = node.index
        if p == 0:
            t = np.zeros((dim, dim, dim)) if third else None
            return 1.0, np.zeros(dim), np.zeros((dim, dim)), t
        if p == 1:
            return v, g, h, t
        try:
            vp, vp1, vp2 = v**p, v ** (p - 1), v ** (p - 2)
        except OverflowError:
            raise ExprDomainError("power overflows", node.span) from None
        if third:
            # phi''' = 0 for p = 2, where v**(p-3) would divide by zero at v = 0
            d3 = p * (p - 1) * (p - 2) * v ** (p - 3) if p >= 3 else 0.0
            t = _chain3(p * vp1, p * (p - 1) * vp2, d3, g, h, t)
        return vp, p * vp1 * g, p * vp1 * h + p * (p - 1) * vp2 * np.outer(g, g), t
    if k == "exp":
        v, g, h, t = _jet(node.children[0], point, dim, third)
        try:
            e = math.exp(v)
        except OverflowError:
            raise ExprDomainError("exp overflows", node.span) from None
        eg, eh = e * g, e * (h + np.outer(g, g))
        if third:
            t = _chain3(e, e, e, g, h, t)
        if not (
            np.isfinite(eg).all()
            and np.isfinite(eh).all()
            and (t is None or np.isfinite(t).all())
        ):
            raise ExprDomainError("exp derivative overflows", node.span)
        return e, eg, eh, t
    if k == "log":
        v, g, h, t = _jet(node.children[0], point, dim, third)
        if v <= 0.0:
            raise ExprDomainError("log of non-positive value", node.span)
        if third:
            t = _chain3(1.0 / v, -1.0 / (v * v), 2.0 / v**3, g, h, t)
        return math.log(v), g / v, h / v - np.outer(g, g) / (v * v), t
    if k == "sqrt":
        v, g, h, t = _jet(node.children[0], point, dim, third)
        if v <= 0.0:
            raise ExprDomainError("sqrt of non-positive value", node.span)
        s = math.sqrt(v)
        if third:
            t = _chain3(
                1.0 / (2.0 * s), -1.0 / (4.0 * s * v), 3.0 / (8.0 * s * v * v), g, h, t
            )
        return s, g / (2.0 * s), h / (2.0 * s) - np.outer(g, g) / (4.0 * s * v), t
    raise ValueError(f"unknown node kind {k!r}")


def evaluate_jet(ast: ExprAst, point, third: bool = False) -> ScalarJet:
    """Evaluate the expression and its exact derivatives.

    Value, gradient and Hessian always; the third derivative only when
    ``third`` is set (``ScalarJet.third`` is ``None`` otherwise).
    """
    p = np.asarray(point, dtype=float)
    if p.shape != (ast.dim,):
        raise ValueError(
            f"point has dimension {p.shape}, expression expects ({ast.dim},)"
        )
    v, g, h, t = _jet(ast.root, p, ast.dim, third)
    return ScalarJet(float(v), g, h, t)


def evaluate_value(ast: ExprAst, point) -> float:
    """Value-only evaluation (same domain errors as :func:`evaluate_jet`)."""
    return evaluate_jet(ast, point).value


# ---------------------------------------------------------------------------
# pretty printing

_PREC = {
    "add": 1,
    "sub": 1,
    "mul": 2,
    "div": 2,
    "neg": 3,
    "pow": 4,
    "const": 5,
    "var": 5,
    "exp": 5,
    "sqrt": 5,
    "log": 5,
}


def _prec(node: Node) -> int:
    if node.kind == "const" and node.value < 0:
        return _PREC["neg"]
    return _PREC[node.kind]


def _fmt_const(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _print(node: Node) -> str:
    k = node.kind
    if k == "const":
        return _fmt_const(node.value)
    if k == "var":
        return f"x{node.index + 1}"
    if k == "neg":
        inner = _print(node.children[0])
        if _prec(node.children[0]) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if k in ("add", "sub"):
        op = "+" if k == "add" else "-"
        lhs, rhs = node.children
        left = _print(lhs)
        right = _print(rhs)
        if _prec(lhs) < 1:
            left = f"({left})"
        # subtraction does not associate to the right
        if _prec(rhs) < 1 or (k == "sub" and _prec(rhs) == 1):
            right = f"({right})"
        return f"{left}{op}{right}"
    if k in ("mul", "div"):
        op = "*" if k == "mul" else "/"
        lhs, rhs = node.children
        left = _print(lhs)
        right = _print(rhs)
        if _prec(lhs) < 2:
            left = f"({left})"
        if _prec(rhs) < 2 or (k == "div" and _prec(rhs) == 2):
            right = f"({right})"
        return f"{left}{op}{right}"
    if k == "pow":
        base = _print(node.children[0])
        if _prec(node.children[0]) < 5:
            base = f"({base})"
        return f"{base}^{node.index}"
    if k in _FUNCTIONS:
        return f"{k}({_print(node.children[0])})"
    raise ValueError(f"unknown node kind {k!r}")


def to_source(ast: ExprAst) -> str:
    """Canonical source form; ``to_source o parse_expression`` is idempotent."""
    return _print(ast.root)


# ---------------------------------------------------------------------------
# programmatic constructors (used by the manifold builders)


def const(v: float, dim: int) -> ExprAst:
    return ExprAst(Node("const", value=float(v)), dim)


def var(i: int, dim: int) -> ExprAst:
    if not 0 <= i < dim:
        raise ValueError(f"coordinate index {i} out of range for dimension {dim}")
    return ExprAst(Node("var", index=i), dim)


def _is_const(node: Node, v: float) -> bool:
    return node.kind == "const" and node.value == v


def _binary(kind: str, a: ExprAst, b: ExprAst) -> ExprAst:
    if a.dim != b.dim:
        raise ValueError("operand dimensions differ")
    return ExprAst(Node(kind, (a.root, b.root)), a.dim)


def add(a: ExprAst, b: ExprAst) -> ExprAst:
    if _is_const(a.root, 0.0):
        return b
    if _is_const(b.root, 0.0):
        return a
    return _binary("add", a, b)


def sub(a: ExprAst, b: ExprAst) -> ExprAst:
    if _is_const(b.root, 0.0):
        return a
    return _binary("sub", a, b)


def mul(a: ExprAst, b: ExprAst) -> ExprAst:
    if _is_const(a.root, 0.0) or _is_const(b.root, 0.0):
        return const(0.0, a.dim)
    if _is_const(a.root, 1.0):
        return b
    if _is_const(b.root, 1.0):
        return a
    return _binary("mul", a, b)


def div(a: ExprAst, b: ExprAst) -> ExprAst:
    if _is_const(b.root, 1.0):
        return a
    return _binary("div", a, b)


def neg(a: ExprAst) -> ExprAst:
    return ExprAst(Node("neg", (a.root,)), a.dim)


def powi(a: ExprAst, k: int) -> ExprAst:
    if k < 0:
        raise ValueError("integer power exponent must be >= 0")
    return ExprAst(Node("pow", (a.root,), index=k), a.dim)


def exp(a: ExprAst) -> ExprAst:
    return ExprAst(Node("exp", (a.root,)), a.dim)


def sqrt(a: ExprAst) -> ExprAst:
    return ExprAst(Node("sqrt", (a.root,)), a.dim)


def log(a: ExprAst) -> ExprAst:
    return ExprAst(Node("log", (a.root,)), a.dim)


def add_many(terms: list[ExprAst], dim: int) -> ExprAst:
    out = const(0.0, dim)
    for t in terms:
        out = add(out, t)
    return out
