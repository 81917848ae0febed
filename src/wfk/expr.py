"""Closed-form scalar expressions of chart coordinates with exact jets.

Expressions enter as source text, parsed into an immutable AST over
coordinates ``x1..xN``, or as a number (:func:`const`).  They are evaluated
as jets: value and derivatives up to the order a caller asks for, first,
second or third (Taylor-mode propagation, Griewank & Walther, *Evaluating
Derivatives*, ch. 13).  Every consumer that needs metric derivatives up to
third order gets them analytically instead of by finite differences.

Evaluation runs a :class:`Tape`: the expressions of a field compiled once
into one hash-consed instruction list with constants folded, executed
over a batch of points at a time.

Grammar (loosest to tightest binding)::

    expr   :=  term  (('+' | '-') term)*
    term   :=  unary (('*' | '/') unary)*
    unary  :=  '-' unary | power
    power  :=  atom ('^' nonnegative-integer)?
    atom   :=  number | coordinate | ('exp'|'sqrt'|'log') '(' expr ')' | '(' expr ')'

Coordinates are named ``x1 .. xN``; ``exp``, ``sqrt`` and ``log`` are the
only reserved identifiers.  No trigonometric functions: the constructions
this package verifies only need exponentials and polynomials.  Digits,
names and operators are ASCII, read by one regular expression; any other
character that is not white space is a syntax error.

Each function's jet is one call of the univariate chain rule
(:func:`_compose`); a quotient is a product with the reciprocal and a
difference a sum with the negation.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Node",
    "ExprAst",
    "Tape",
    "ExprError",
    "ExprSyntaxError",
    "ExprDomainError",
    "parse_expression",
    "compile_tape",
    "evaluate_jet",
    "const",
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

# Deepest nesting a parsed expression may have, in parentheses, function
# calls and tree levels alike.  The parser spends four Python frames per
# nesting level and the tape compiler one per tree level, so 160 stays well
# inside the default recursion limit of 1000.
_MAX_DEPTH = 160

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

    @cached_property
    def tape(self) -> "Tape":
        """This expression compiled alone, once."""
        return compile_tape((self,), self.dim)

    def jets(self, p, order: int = 2):
        """(value, d, ...) up to ``order``, as :meth:`Tape.jets`."""
        return self.tape.jets(p, order)


# ---------------------------------------------------------------------------
# tokenizer / parser


@dataclass
class _Token:
    kind: str  # num, name, op, lparen, rparen, end
    text: str
    span: tuple[int, int]


# One alternative per token kind, tried in order.  ``bad`` takes any other
# character, so the lexer makes one pass.  Digits and letters are ASCII.
_TOKEN = re.compile(
    r"(?P<space>\s+)"
    r"|(?P<num>[0-9.]+(?:[eE](?=[0-9+-])[+-]?[0-9]*)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^])|(?P<lparen>\()|(?P<rparen>\))|(?P<bad>\S)"
)

_BINARY = {"+": "add", "-": "sub", "*": "mul", "/": "div"}


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for match in _TOKEN.finditer(text):
        kind, word, span = match.lastgroup, match.group(), match.span()
        if kind == "bad":
            raise ExprSyntaxError(f"unexpected character {word!r}", span)
        if kind == "num":
            try:
                number = float(word)
            except ValueError:
                raise ExprSyntaxError(f"malformed number {word!r}", span) from None
            if not math.isfinite(number):
                raise ExprSyntaxError(f"number out of range {word!r}", span)
        if kind != "space":
            tokens.append(_Token(kind, word, span))
    return tokens + [_Token("end", "", (len(text), len(text)))]


def _found(tok: _Token) -> str:
    return repr(tok.text or "end of input")


class _Parser:
    def __init__(self, text: str, dim: int):
        self.dim = dim
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nesting = 0

    def advance(self) -> _Token:
        self.pos += 1
        return self.tokens[self.pos - 1]

    def accept(self, ops: str) -> _Token | None:
        """The next token, consumed, if it is one of the operators ``ops``."""
        tok = self.tokens[self.pos]
        return self.advance() if tok.kind == "op" and tok.text in ops else None

    def expect(self, kind: str) -> _Token:
        tok = self.advance()
        if tok.kind != kind:
            raise ExprSyntaxError(f"expected {kind!r}, found {_found(tok)}", tok.span)
        return tok

    def parse(self) -> Node:
        node = self.expr()
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {tok.text!r}", tok.span)
        return node

    def expr(self) -> Node:
        self.nesting += 1
        if self.nesting > _MAX_DEPTH:
            raise ExprSyntaxError(
                f"expression nested deeper than {_MAX_DEPTH} levels", self.tokens[self.pos].span
            )
        node = self.term()
        while op := self.accept("+-"):
            rhs = self.term()
            node = Node(_BINARY[op.text], (node, rhs), span=(node.span[0], rhs.span[1]))
        self.nesting -= 1
        return node

    def term(self) -> Node:
        node = self.unary()
        while op := self.accept("*/"):
            rhs = self.unary()
            node = Node(_BINARY[op.text], (node, rhs), span=(node.span[0], rhs.span[1]))
        return node

    def unary(self) -> Node:
        # a run of minus signs is a loop, not a recursion
        signs = []
        while tok := self.accept("-"):
            signs.append(tok)
        node = self.power(self.atom())
        for tok in reversed(signs):
            node = Node("neg", (node,), span=(tok.span[0], node.span[1]))
        return node

    def power(self, base: Node) -> Node:
        if not self.accept("^"):
            return base
        tok = self.advance()
        if tok.kind != "num" or not tok.text.isdigit():
            raise ExprSyntaxError("power exponent must be a nonnegative integer literal", tok.span)
        # the lexer keeps the exponent below 1.8e308, so past its leading zeros
        # it has at most 309 digits, few enough for int()
        k = int(tok.text.lstrip("0") or 0)
        return Node("pow", (base,), index=k, span=(base.span[0], tok.span[1]))

    def atom(self) -> Node:
        tok = self.advance()
        if tok.kind == "num":
            return Node("const", value=float(tok.text), span=tok.span)
        if tok.kind == "lparen":
            inner = self.expr()
            self.expect("rparen")
            return inner
        if tok.kind != "name":
            raise ExprSyntaxError(f"expected expression, found {_found(tok)}", tok.span)
        name = tok.text
        if name in _FUNCTIONS:
            self.expect("lparen")
            inner = self.expr()
            return Node(name, (inner,), span=(tok.span[0], self.expect("rparen").span[1]))
        if name[0] != "x" or not name[1:].isdigit():
            raise ExprSyntaxError(f"unknown identifier {name!r}", tok.span)
        # "x01" is x1; an index with more digits than dim is out of range
        # without being converted, however long it is
        digits = name[1:].lstrip("0")
        idx = int(digits or 0) if len(digits) <= len(str(self.dim)) else 0
        if not 1 <= idx <= self.dim:
            raise ExprSyntaxError(
                f"coordinate index out of range: {name} (dimension {self.dim})", tok.span
            )
        return Node("var", index=idx - 1, span=tok.span)


def parse_expression(text: str, dim: int) -> ExprAst:
    """Parse ``text`` into an AST over coordinates ``x1..x{dim}``."""
    if not text.strip():
        raise ExprSyntaxError("empty expression", (0, len(text)))
    root = _Parser(text, dim).parse()
    _check_depth(root)
    return ExprAst(root, dim)


def _check_depth(root: Node) -> None:
    """Reject trees deeper than ``_MAX_DEPTH`` (long sums nest without parentheses)."""
    stack = [(root, 1)]
    while stack:
        node, depth = stack.pop()
        if depth > _MAX_DEPTH:
            raise ExprSyntaxError(
                f"expression nested deeper than {_MAX_DEPTH} levels", node.span
            )
        stack.extend((child, depth + 1) for child in node.children)


# ---------------------------------------------------------------------------
# jet evaluation: a compiled tape over a trailing batch axis of points
#
# Inside the tape a jet is (value, gradient, Hessian, third) with shapes
# (P,), (s, P), (s, s, P) and (s, s, s, P).  The Hessian is propagated at
# every order, and the third is None below order 3.  Every rule reads like
# its single-point form and applies the same IEEE operations in the same
# order at every point, whatever the batch size.  The s derivative axes are
# the tape's support, the coordinates it reads; a derivative along any other
# is a structural zero (Griewank & Walther ch. 7) and costs no work.


@dataclass(frozen=True)
class Tape:
    """Hash-consed jet program of one or more expressions over one chart.

    ``code`` lists the array instructions ``(node, operands)`` in evaluation
    order; an operand is the index of an earlier instruction, or a float for
    a folded constant, whose derivatives are zero.  ``outputs`` holds one
    operand per compiled expression.  Structurally equal subtrees are one
    instruction, and constant subtrees cost no array work.  ``support`` is
    the sorted coordinates the ``var`` instructions read.
    """

    dim: int
    code: tuple
    outputs: tuple
    support: tuple

    def jets(self, p, order: int = 2, shape: tuple = ()):
        """(value, d, ...) up to ``order`` (1, 2 or 3), derivative axes last.

        ``p`` is a point ``(dim,)`` or a batch of points ``(P, dim)``; a batch
        adds a leading axis to every array.  The outputs axis is reshaped to
        ``shape`` (``()`` for a single expression).  d3's axes run over the
        ``support`` S only: d3[..., a, b, c] = d_Sa d_Sb d_Sc of the entry.
        """
        pts = np.asarray(p, dtype=float)
        out = evaluate_jet(self, np.atleast_2d(pts), order)
        lead = pts.shape[:-1] + shape
        return tuple(arr.reshape(lead + arr.shape[2:]) for arr in out)


def _elementwise(fn, v: np.ndarray, node: Node, what: str) -> np.ndarray:
    """``fn`` per element in Python floats (numpy's exp and pow round differently)."""
    try:
        return np.array([fn(x) for x in v.tolist()])
    except OverflowError:
        raise ExprDomainError(f"{what} overflows", node.span) from None


def _ipow(v: np.ndarray, k: int, node: Node, what: str) -> np.ndarray:
    return _elementwise(lambda x: x**k, v, node, what)


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[i, j] = a_i b_j at every point."""
    return a[:, None] * b


def _sym3(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """(g (x) H)_sym3[a, b, c] = g_a H_bc + g_b H_ac + g_c H_ab."""
    o = g[:, None, None] * h
    return o + o.transpose(1, 0, 2, 3) + o.transpose(1, 2, 0, 3)


def _compose(a, phi, d1, d2, d3):
    """The jet of phi(u) from the jet ``a`` of u and phi, phi', phi'' at u.

    The chain rule of Taylor composition (Griewank & Walther ch. 13), stated
    once.  ``d3()`` gives phi''' and is called at third order only.
    """
    _, g, h, t = a
    gg = _outer(g, g)
    if t is not None:
        t = d1 * t + d2 * _sym3(g, h) + d3() * (gg[:, :, None] * g)
    return phi, d1 * g, d1 * h + d2 * gg, t


def _neg(node, a):
    v, g, h, t = a
    return -v, -g, -h, None if t is None else -t


def _add(node, a, b):
    return a[0] + b[0], a[1] + b[1], a[2] + b[2], None if a[3] is None else a[3] + b[3]


def _sub(node, a, b):
    # a - b and a + (-b) round alike in IEEE arithmetic
    return _add(node, a, _neg(node, b))


def _mul(node, a, b):
    (v1, g1, h1, t1), (v2, g2, h2, t2) = a, b
    cross = _outer(g1, g2)
    t = None
    if t1 is not None:
        t = v1 * t2 + v2 * t1 + _sym3(g1, h2) + _sym3(g2, h1)
    hess = v1 * h2 + v2 * h1 + cross + cross.swapaxes(0, 1)
    return v1 * v2, v1 * g2 + v2 * g1, hess, t


def _div(node, a, b):
    # a times the reciprocal of b
    if (b[0] == 0.0).any():
        raise ExprDomainError("division by zero", node.span)
    r = 1.0 / b[0]
    r3 = _ipow(r, 3, node, "division")
    inverse = _compose(b, r, -r * r, 2.0 * r3, lambda: -6.0 * _ipow(r, 4, node, "division"))
    return _mul(node, a, inverse)


def _pow(node, a):
    # exponents 0 and 1 never reach the tape (see _fold).  The coefficients are
    # float products, equal to the integer ones while those stay below 2**53;
    # one that overflows makes a jet that is not finite, not an OverflowError.
    v, p = a[0], node.index
    vp, vp1, vp2 = (_ipow(v, k, node, "power") for k in (p, p - 1, p - 2))
    c = float(p)

    def d3():
        # phi''' = 0 for p = 2, where v**(p-3) would divide by zero at v = 0
        return c * (c - 1) * (c - 2) * _ipow(v, p - 3, node, "power") if p >= 3 else 0.0

    return _compose(a, vp, c * vp1, c * (c - 1) * vp2, d3)


def _exp(node, a):
    e = _elementwise(math.exp, a[0], node, "exp")
    return _compose(a, e, e, e, lambda: e)


def _log(node, a):
    v = a[0]
    if (v <= 0.0).any():
        raise ExprDomainError("log of non-positive value", node.span)
    value = _elementwise(math.log, v, node, "log")
    return _compose(a, value, 1.0 / v, -1.0 / (v * v), lambda: 2.0 / _ipow(v, 3, node, "log"))


def _sqrt(node, a):
    v = a[0]
    if (v <= 0.0).any():
        raise ExprDomainError("sqrt of non-positive value", node.span)
    s = np.sqrt(v)
    return _compose(
        a, s, 1.0 / (2.0 * s), -1.0 / (4.0 * s * v), lambda: 3.0 / (8.0 * s * v * v)
    )


_RULES = {
    "neg": _neg, "add": _add, "sub": _sub, "mul": _mul, "div": _div,
    "pow": _pow, "exp": _exp, "log": _log, "sqrt": _sqrt,
}


def _constant_jet(c: float, size: int, count: int, order: int):
    t = np.zeros((size,) * 3 + (count,)) if order == 3 else None
    return np.full(count, c), np.zeros((size, count)), np.zeros((size, size, count)), t


def _fold(node: Node, operands: tuple, dim: int):
    """The operand of ``node`` when it needs no instruction, else ``None``."""
    if node.kind == "const":
        return float(node.value)
    if node.kind == "pow" and node.index <= 1:
        # x^0 = 1 and x^1 = x; the base's own instructions still run
        return 1.0 if node.index == 0 else operands[0]
    if operands and all(isinstance(op, float) for op in operands):
        jets = [_constant_jet(op, dim, 1, 2) for op in operands]
        try:
            # entered here only: a tape compiles hundreds of nodes and folds few
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                out = float(_RULES[node.kind](node, *jets)[0][0])
        except ExprDomainError:
            out = math.nan
        # otherwise kept as an instruction, so it raises in evaluation order
        return out if math.isfinite(out) else None
    return None


def compile_tape(asts, dim: int) -> Tape:
    """One tape for the expressions ``asts`` over a chart of dimension ``dim``."""
    code: list = []
    slots: dict = {}  # (kind, index, operand keys) -> instruction index
    done: dict = {}   # id(node) -> operand

    def emit(node: Node):
        hit = done.get(id(node))
        if hit is not None:
            return hit
        operands = tuple(emit(child) for child in node.children)
        out = _fold(node, operands, dim)
        if out is None:
            key = (node.kind, node.index) + tuple(
                op if isinstance(op, int) else op.hex() for op in operands
            )
            out = slots.get(key)
            if out is None:
                out = slots[key] = len(code)
                code.append((node, operands))
        done[id(node)] = out
        return out

    if any(ast.dim != dim for ast in asts):
        raise ValueError(f"every expression of the tape must be over dimension {dim}")
    outputs = tuple(emit(ast.root) for ast in asts)
    for ast, op in zip(asts, outputs):
        if isinstance(op, float) and not math.isfinite(op):
            raise ExprDomainError("constant is not finite", ast.root.span)
    support = tuple(sorted({node.index for node, _ in code if node.kind == "var"}))
    return Tape(dim, tuple(code), outputs, support)


_ORDERS = ("value", "first derivative", "second derivative", "third derivative")


def _first_non_finite(tape: Tape, jets: list) -> ExprDomainError:
    """The domain error of the first instruction with a non-finite jet part."""
    return next(
        ExprDomainError(f"{node.kind} {_ORDERS[order]} is not finite", node.span)
        for (node, _), parts in zip(tape.code, jets)
        for order, part in enumerate(parts)
        if part is not None and not np.isfinite(part).all()
    )


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # non-finite raises below
def evaluate_jet(tape: Tape, points, order: int = 2):
    """Run ``tape``: its K expressions and their exact derivatives up to
    ``order`` (1, 2 or 3) at points ``(P, dim)``, the arrays ``(value, d,
    ...)`` of shapes ``(P, K)``, ``(P, K, dim)`` and so on, derivative axes
    last, except that d3 is ``(P, K, s, s, s)`` over the tape's support.
    The jets inside run to second order at least, and every part they hold
    is checked.
    """
    p = np.asarray(points, dtype=float)
    if p.ndim != 2 or p.shape[1] != tape.dim:
        raise ValueError(f"points have shape {p.shape}, tape expects (P, {tape.dim})")
    dim, count, size = tape.dim, len(p), len(tape.support)
    coords = p.T
    jets: list = []
    for node, operands in tape.code:
        if node.kind == "var":
            g = np.zeros((size, count))
            g[tape.support.index(node.index)] = 1.0
            t = np.zeros((size,) * 3 + (count,)) if order == 3 else None
            jets.append((coords[node.index], g, np.zeros((size, size, count)), t))
            continue
        args = (
            jets[op] if isinstance(op, int) else _constant_jet(op, size, count, order)
            for op in operands
        )
        jets.append(_RULES[node.kind](node, *args))
    # one check per run, once per distinct output instruction (mirrored entries
    # share one); only a failing run looks for the instruction at fault
    outs = {op for op in tape.outputs if isinstance(op, int)}
    if not all(np.isfinite(part).all() for op in outs for part in jets[op] if part is not None):
        raise _first_non_finite(tape, jets)
    shape = (count, len(tape.outputs))
    out = [np.zeros(shape + ((dim,) * k if k < 3 else (size,) * 3)) for k in range(order + 1)]
    # one assignment an order, through a view with the points axis last as in
    # the jets (orders 1 and 2 at the support's places); one for the constants
    ks = [k for k, op in enumerate(tape.outputs) if isinstance(op, int)]
    if ks:
        kk, idx = np.array(ks), np.array(tape.support, dtype=np.intp)
        where = ((kk,), (kk[:, None], idx), (kk[:, None, None], idx[:, None], idx), (kk,))
        for part, (arr, at) in enumerate(zip(out, where)):
            arr.transpose(*range(1, arr.ndim), 0)[at] = [jets[tape.outputs[k]][part] for k in ks]
    consts = [k for k, op in enumerate(tape.outputs) if not isinstance(op, int)]
    out[0][:, consts] = [tape.outputs[k] for k in consts]
    return tuple(out)


# ---------------------------------------------------------------------------
# constants (manifest and field entries given as numbers)


def const(v: float, dim: int) -> ExprAst:
    return ExprAst(Node("const", value=float(v)), dim)
