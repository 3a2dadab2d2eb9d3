"""Arithmetic expressions in the time variable ``t`` and states ``x1..xn``.

Grammar (recursive descent, one function per rule):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | atom ('^' factor)?
    atom   := NUMBER | 't' | 'x' DIGITS | '(' expr ')'

Power binds tighter than unary minus and associates to the right, so
``-x1^2`` is ``-(x1^2)`` and ``2^3^2`` is ``2^(3^2)``.  Numbers are decimal
with an optional exponent part.  Evaluation guards the usual real-domain
holes: division by zero, zero to a negative power, and a negative base under
a non-integer exponent all raise :class:`DomainViolation`; overflow raises
:class:`NonFiniteResult`.

:meth:`ExpressionTree.evaluate_array` walks the tree once over whole arrays
of times and states.  Instead of raising it flags every row where a guard
fires or a value is not finite; the caller re-evaluates those rows with the
scalar :meth:`ExpressionTree.evaluate`, which decides what they mean.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import DomainViolation, ExpressionSyntaxError, NonFiniteResult, UnknownVariable

_NUMBER = re.compile(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class TimeVar:
    pass


@dataclass(frozen=True)
class StateVar:
    index: int  # 1-based


@dataclass(frozen=True)
class Neg:
    child: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


Node = Union[Const, TimeVar, StateVar, Neg, BinOp]


@dataclass(frozen=True)
class Token:
    kind: str  # NUM, T, X, OP, LPAREN, RPAREN, END
    text: str
    pos: int  # 1-based column


def _tokenize(src: str) -> list[Token]:
    out: list[Token] = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        pos = i + 1
        if c.isdigit() or c == ".":
            m = _NUMBER.match(src, i)
            if m is None:
                raise ExpressionSyntaxError(pos, f"malformed number near {c!r}")
            out.append(Token("NUM", m.group(0), pos))
            i = m.end()
            continue
        if c.isalpha() or c == "_":
            m = _NAME.match(src, i)
            name = m.group(0)
            if name == "t":
                out.append(Token("T", name, pos))
            elif name[0] == "x" and name[1:].isdigit():
                out.append(Token("X", name, pos))
            else:
                raise UnknownVariable(
                    f"unknown identifier {name!r} at position {pos}; "
                    "only t and x1..xn are available"
                )
            i = m.end()
            continue
        if c in "+-*/^":
            out.append(Token("OP", c, pos))
            i += 1
            continue
        if c == "(":
            out.append(Token("LPAREN", c, pos))
            i += 1
            continue
        if c == ")":
            out.append(Token("RPAREN", c, pos))
            i += 1
            continue
        raise ExpressionSyntaxError(pos, f"unexpected character {c!r}")
    out.append(Token("END", "", n + 1))
    return out


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.k = 0

    def peek(self) -> Token:
        return self.tokens[self.k]

    def advance(self) -> Token:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            got = tok.text or "end of input"
            raise ExpressionSyntaxError(tok.pos, f"expected {what}, got {got!r}")
        return self.advance()

    def expr(self) -> Node:
        node = self.term()
        while self.peek().kind == "OP" and self.peek().text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.peek().kind == "OP" and self.peek().text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> Node:
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "-":
            self.advance()
            return Neg(self.factor())
        node = self.atom()
        if self.peek().kind == "OP" and self.peek().text == "^":
            self.advance()
            node = BinOp("^", node, self.factor())
        return node

    def atom(self) -> Node:
        tok = self.advance()
        if tok.kind == "NUM":
            return Const(float(tok.text))
        if tok.kind == "T":
            return TimeVar()
        if tok.kind == "X":
            idx = int(tok.text[1:])
            if idx < 1:
                raise UnknownVariable(
                    f"state variables are numbered from x1, got {tok.text!r} "
                    f"at position {tok.pos}"
                )
            return StateVar(idx)
        if tok.kind == "LPAREN":
            node = self.expr()
            self.expect("RPAREN", "')'")
            return node
        got = tok.text or "end of input"
        raise ExpressionSyntaxError(tok.pos, f"expected a value, got {got!r}")


@dataclass(frozen=True)
class ExpressionTree:
    """Parsed expression with evaluation and canonical printing."""

    root: Node

    def evaluate(self, t: float, x: Sequence[float]) -> float:
        v = _eval(self.root, t, x)
        if not math.isfinite(v):
            raise NonFiniteResult(f"expression evaluated to {v!r}")
        return v

    def evaluate_array(
        self, t: np.ndarray, x: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate at ``t[k], x[k]`` for every row ``k`` of ``(rows,)`` times
        and ``(rows, n)`` states.

        Returns the ``(rows,)`` values and a ``(rows,)`` boolean mask of rows
        that :meth:`evaluate` would reject or could compute differently: a
        guard fired, or an intermediate value or the result is not finite.
        Unflagged rows hold the value :meth:`evaluate` returns, bit for bit.
        The values are read-only and may share memory with ``t`` or ``x``.
        """
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        flagged = np.zeros(len(t), dtype=bool)
        with np.errstate(all="ignore"):
            v = _eval_array(self.root, t, x, flagged)
            flagged |= ~np.isfinite(v)
        if np.ndim(v) == 0:
            return np.broadcast_to(v, flagged.shape), flagged
        v = v.view()  # read-only, as a broadcast is, without copying
        v.flags.writeable = False
        return v, flagged

    def max_state_index(self) -> int:
        return _max_state(self.root)

    def __str__(self) -> str:
        return _show(self.root, 0)


def parse_expression(src: str) -> ExpressionTree:
    """Parse ``src``; errors carry the 1-based position of the problem."""
    parser = _Parser(_tokenize(src))
    root = parser.expr()
    trailing = parser.peek()
    if trailing.kind != "END":
        raise ExpressionSyntaxError(
            trailing.pos, f"unexpected trailing input {trailing.text!r}"
        )
    return ExpressionTree(root)


def _eval(node: Node, t: float, x: Sequence[float]) -> float:
    if isinstance(node, Const):
        return node.value
    if isinstance(node, TimeVar):
        return t
    if isinstance(node, StateVar):
        if node.index > len(x):
            raise UnknownVariable(
                f"x{node.index} referenced but only {len(x)} state values given"
            )
        return float(x[node.index - 1])
    if isinstance(node, Neg):
        return -_eval(node.child, t, x)
    left = _eval(node.left, t, x)
    if node.op == "^":
        return _power(left, _eval(node.right, t, x))
    right = _eval(node.right, t, x)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    if right == 0.0:
        raise DomainViolation("division by zero")
    return left / right


def _power(base: float, expo: float) -> float:
    integral = math.isfinite(expo) and expo == math.floor(expo) and abs(expo) < 1e15
    if base == 0.0 and expo < 0.0:
        raise DomainViolation("zero base with negative exponent")
    if base < 0.0 and not integral:
        raise DomainViolation(
            f"negative base {base:g} with non-integer exponent {expo:g}"
        )
    try:
        return base ** expo
    except OverflowError as exc:
        raise NonFiniteResult("power overflow") from exc


def _eval_array(node: Node, t: np.ndarray, x: np.ndarray, flagged: np.ndarray):
    """Array twin of :func:`_eval`; marks rows in ``flagged`` instead of raising.

    ``+``, ``-``, ``*`` and negation carry a non-finite operand into their
    result, so only ``/`` and ``^``, which can absorb one, check operands.
    """
    if isinstance(node, Const):
        return np.float64(node.value)  # so that 1/0 follows errstate, not Python
    if isinstance(node, TimeVar):
        return t
    if isinstance(node, StateVar):
        if node.index > x.shape[1]:
            raise UnknownVariable(
                f"x{node.index} referenced but only {x.shape[1]} state values given"
            )
        return x[:, node.index - 1]
    if isinstance(node, Neg):
        return -_eval_array(node.child, t, x, flagged)
    left = _eval_array(node.left, t, x, flagged)
    right = _eval_array(node.right, t, x, flagged)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    if node.op == "/":
        flagged |= (right == 0.0) | ~np.isfinite(right)
        return left / right
    if np.ndim(right) == 0:
        # an exponent that is the same on every row: :func:`_power`'s guards
        # are decided on the scalar once, and only the base's remain per row
        expo = float(right)
        if not math.isfinite(expo):
            flagged |= True
        else:
            integral = expo == math.floor(expo) and abs(expo) < 1e15
            bad = ~np.isfinite(left)
            if expo < 0.0:
                bad |= (left <= 0.0) if not integral else (left == 0.0)
            elif not integral:
                bad |= left < 0.0
            flagged |= bad
    else:
        integral = (right == np.floor(right)) & (np.abs(right) < 1e15)
        flagged |= ((left == 0.0) & (right < 0.0)) | ((left < 0.0) & ~integral)
        flagged |= ~(np.isfinite(left) & np.isfinite(right))
    # float_power calls the C library's pow per element, as Python's ** does;
    # np.power's SIMD loop can differ from it in the last bit
    return np.float_power(left, right)


def _max_state(node: Node) -> int:
    if isinstance(node, StateVar):
        return node.index
    if isinstance(node, Neg):
        return _max_state(node.child)
    if isinstance(node, BinOp):
        return max(_max_state(node.left), _max_state(node.right))
    return 0


# precedence levels for printing: addition 1, multiplication 2, unary 3, power 4
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def _fmt_number(v: float) -> str:
    if math.isfinite(v) and v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _show(node: Node, parent_prec: int) -> str:
    if isinstance(node, Const):
        text = _fmt_number(node.value)
        # a negative constant prints like a negation, so it binds like one
        return f"({text})" if node.value < 0.0 and parent_prec > 3 else text
    if isinstance(node, TimeVar):
        return "t"
    if isinstance(node, StateVar):
        return f"x{node.index}"
    if isinstance(node, Neg):
        inner = _show(node.child, 3)
        text = f"-{inner}"
        return f"({text})" if parent_prec > 3 else text
    prec = _PREC[node.op]
    if node.op == "^":
        # right-associative; the base must bind tighter than power itself
        left = _show(node.left, prec + 1)
        right = _show(node.right, prec)
        text = f"{left}^{right}"
    else:
        sep = f" {node.op} " if prec == 1 else node.op
        left = _show(node.left, prec)
        # left-associative: a - (b - c) and a / (b * c) need the parens kept
        right = _show(node.right, prec + 1)
        text = f"{left}{sep}{right}"
    return f"({text})" if parent_prec > prec else text
