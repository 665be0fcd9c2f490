"""Text grammar for polynomial input.

Accepted syntax: integer literals, the variables ``z`` and ``w``, the
operators ``+ - * ^`` with parentheses, and the built-in atoms

    C(k)    k-th cyclotomic polynomial in z (squared convention for k <= 2)
    CT(k)   k-th cyclotomic trace polynomial in w
    L       Lehmer's polynomial in z
    LT      Lehmer's trace polynomial in w
    MT, NT  the two auxiliary degree-5 Salem trace polynomials in w
    R(i)    the ten degree-11 Salem trace polynomials, i = 1..10
    LNF(i)  the eight LT * CT products of degree 11, i = 1..8

A postfix ``@z`` substitutes w = z + 1/z into a w-level value, producing a
Laurent polynomial in z; multiplying by a suitable power of z must clear all
negative exponents before the expression is complete, as in ``z^11*R(1)@z``.

Mixing bare ``z`` and ``w`` in one expression is an error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import atoms
from .poly import IntPoly, cyclotomic, cyclotomic_trace, palindromic_expand


class ParseError(ValueError):
    pass


_TOKEN = re.compile(r"(\d+)|([A-Za-z]+)|([()+\-*^@])")


def _tokenize(text: str) -> list[str]:
    out = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r} at position {pos}")
        out.append(m.group(0))
        pos = m.end()
    return out


@dataclass
class _Value:
    """Laurent polynomial c_lo z^off + ... in one inferred variable."""

    var: str | None  # 'z' | 'w' | None for constants
    offset: int      # exponent of the lowest stored coefficient
    poly: IntPoly

    def normalized(self) -> "_Value":
        if self.poly.is_zero():
            return _Value(self.var, 0, self.poly)
        k = next(i for i, c in enumerate(self.poly.coeffs) if c != 0)
        if k:
            return _Value(self.var, self.offset + k, IntPoly(self.poly.coeffs[k:]))
        return self


def _join_var(a: str | None, b: str | None) -> str | None:
    if a is None:
        return b
    if b is None or a == b:
        return a
    raise ParseError("cannot mix variables z and w in one expression")


def _add(a: _Value, b: _Value) -> _Value:
    var = _join_var(a.var, b.var)
    off = min(a.offset, b.offset)
    pa = a.poly.shifted(a.offset - off)
    pb = b.poly.shifted(b.offset - off)
    return _Value(var, off, pa + pb).normalized()


def _mul(a: _Value, b: _Value) -> _Value:
    var = _join_var(a.var, b.var)
    return _Value(var, a.offset + b.offset, a.poly * b.poly).normalized()


def _neg(a: _Value) -> _Value:
    return _Value(a.var, a.offset, -a.poly)


def _pow(a: _Value, k: int) -> _Value:
    return _Value(a.var, a.offset * k, a.poly ** k)


def _const(n: int) -> _Value:
    return _Value(None, 0, IntPoly.const(n))


_ATOMS_W = {"LT": atoms.lehmer_trace, "MT": atoms.salem_trace_mt, "NT": atoms.salem_trace_nt}
_ATOMS_W_INDEXED = {"CT": cyclotomic_trace, "R": atoms.salem_trace_deg11, "LNF": atoms.lehmer_nf}


class _Parser:
    def __init__(self, tokens: list[str]):
        self.toks = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.take()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}")

    def parse(self) -> _Value:
        v = self.expr()
        if self.peek() is not None:
            raise ParseError(f"trailing input starting at {self.peek()!r}")
        return v

    def expr(self) -> _Value:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        v = self.term()
        if sign < 0:
            v = _neg(v)
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            v = _add(v, rhs if op == "+" else _neg(rhs))
        return v

    def term(self) -> _Value:
        v = self.factor()
        while self.peek() == "*":
            self.take()
            v = _mul(v, self.factor())
        return v

    def factor(self) -> _Value:
        if self.peek() == "-":
            self.take()
            return _neg(self.factor())
        v = self.atom()
        if self.peek() == "@":
            self.take()
            self.expect("z")
            v = self._substitute_z(v)
        if self.peek() == "^":
            self.take()
            exp = self.take()
            if not exp.isdigit():
                raise ParseError(f"exponent must be a nonnegative integer, got {exp!r}")
            v = _pow(v, int(exp))
        return v

    def _substitute_z(self, v: _Value) -> _Value:
        if v.var not in ("w", None) or v.offset != 0:
            raise ParseError("@z applies to a polynomial in w")
        return _Value("z", -v.poly.degree, palindromic_expand(v.poly))

    def atom(self) -> _Value:
        tok = self.take()
        if tok.isdigit():
            return _const(int(tok))
        if tok == "(":
            v = self.expr()
            self.expect(")")
            return v
        if tok == "z":
            return _Value("z", 1, IntPoly.one())
        if tok == "w":
            return _Value("w", 1, IntPoly.one())
        if tok == "L":
            return _Value("z", 0, atoms.lehmer())
        if tok in _ATOMS_W:
            return _Value("w", 0, _ATOMS_W[tok]())
        if tok == "C" or tok in _ATOMS_W_INDEXED:
            self.expect("(")
            arg = self.take()
            if not arg.isdigit():
                raise ParseError(f"{tok} takes an integer argument, got {arg!r}")
            self.expect(")")
            k = int(arg)
            if tok == "C":
                return _Value("z", 0, cyclotomic(k, "squared" if k <= 2 else "standard"))
            return _Value("w", 0, _ATOMS_W_INDEXED[tok](k))
        raise ParseError(f"unknown atom {tok!r}")


def parse_poly(text: str) -> tuple[str | None, IntPoly]:
    """Parse an expression into (variable, IntPoly).

    variable is 'z', 'w', or None for a constant.  Raises ParseError if any
    negative powers of z survive to the top level.
    """
    v = _Parser(_tokenize(text)).parse().normalized()
    if v.poly.is_zero():
        return v.var, v.poly
    if v.offset < 0:
        raise ParseError("expression has negative powers of z left over")
    return v.var, v.poly.shifted(v.offset)
