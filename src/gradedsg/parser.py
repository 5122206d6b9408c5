"""Expression mini-language.

Grammar (EBNF):

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := rational | symbol ['^' ['-'] integer] | 'sin(' expr ')'
            | 'cos(' expr ')' | 'D-' factor | 'D+' factor | 'Z' factor
            | '(' expr ')'

Symbols cover the coordinates, the spinor parameters, the deformation
parameter, field jets written like ``X_{-+}`` (one ``-`` per left
derivative, one ``+`` per right derivative) and the two generic superfields
``Phi`` / ``Phi~`` which expand to their component form.  The optional
integer power is an extension over the bare grammar so Laurent powers of
``a`` and powers of the vector parameters have a printable, parseable form.
A rational must have a nonzero denominator, and a power's exponent k must
satisfy |k| <= MAX_POWER (64) on every base; anything else is a syntax
error.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional

from . import algebra as al
from . import superspace as ss
from .algebra import Context, GradedExpr
from .errors import InhomogeneousExpression, MiniLangSyntaxError, UnknownSymbol

MAX_POWER = 64


def _alternation(names) -> str:
    """Regex alternation of ``names``, longest first, so that no name loses
    to a shorter one it starts with (``alpha`` and ``a``, ``psi+~`` and ``psi+``)."""
    return "|".join(re.escape(n) for n in sorted(names, key=len, reverse=True))


_TOKEN_RE = re.compile("|".join([
    r"(?P<NUMBER>\d+(?:/\d+)?)",
    r"(?P<DOP>D-|D\+|Z\b)",
    r"(?P<FUNC>sin|cos)",
    "(?P<SUPER>" + _alternation(al.SUPERFIELDS) + ")",
    "(?P<FIELD>" + _alternation(role + suffix for suffix in al.SUPERFIELDS.values()
                                for role in al.COMPONENTS) + r")(?P<JET>_\{[-+]*\})?",
    "(?P<PARAM>" + _alternation([*al.GENERATORS, "pi"]) + ")",
    r"(?P<PUNCT>[()*+^-])",
    r"(?P<SPACE>\s+)",
    r"(?P<WORD>[A-Za-z_][A-Za-z0-9_~+-]*)",
    r"(?P<BAD>.)",
]))


class _Token:
    __slots__ = ("kind", "text", "jet", "line", "col")

    def __init__(self, kind, text, jet, line, col):
        self.kind = kind
        self.text = text
        self.jet = jet
        self.line = line
        self.col = col


def _tokenize(src: str) -> list[_Token]:
    out = []
    line, col = 1, 1
    for m in _TOKEN_RE.finditer(src):
        kind = m.lastgroup
        text = m.group()
        if m.group("FIELD") is not None:
            kind = "FIELD"
        if kind == "SPACE":
            nl = text.count("\n")
            if nl:
                line += nl
                col = len(text) - text.rfind("\n")
            else:
                col += len(text)
            continue
        if kind == "BAD":
            raise MiniLangSyntaxError(f"unexpected character {text!r}", line, col)
        if kind == "WORD":
            raise UnknownSymbol(f"unknown symbol {text!r} at line {line}, col {col}")
        jet = m.group("JET") if kind == "FIELD" else None
        if kind == "FIELD":
            text = m.group("FIELD")
        out.append(_Token(kind, text, jet, line, col))
        col += len(m.group())
    out.append(_Token("EOF", "", None, line, col))
    return out


class _Parser:
    def __init__(self, tokens: list[_Token], ctx: Context):
        self.tokens = tokens
        self.pos = 0
        self.ctx = ctx

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text: Optional[str] = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise MiniLangSyntaxError(f"expected {want!r}, found {tok.text!r}",
                                      tok.line, tok.col)
        return self.next()

    # -- grammar ------------------------------------------------------------

    def parse(self) -> GradedExpr:
        e = self.expr()
        tok = self.peek()
        if tok.kind != "EOF":
            raise MiniLangSyntaxError(f"trailing input {tok.text!r}", tok.line, tok.col)
        return e

    def expr(self) -> GradedExpr:
        negate = False
        if self.peek().kind == "PUNCT" and self.peek().text == "-":
            self.next()
            negate = True
        e = self.term()
        if negate:
            e = -e
        while self.peek().kind == "PUNCT" and self.peek().text in "+-":
            op = self.next().text
            rhs = self.term()
            e = e + rhs if op == "+" else e - rhs
        return e

    def term(self) -> GradedExpr:
        e = self.factor()
        while self.peek().kind == "PUNCT" and self.peek().text == "*":
            self.next()
            e = e * self.factor()
        return e

    def factor(self) -> GradedExpr:
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.next()
            den = tok.text.partition("/")[2]
            if den and int(den) == 0:
                raise MiniLangSyntaxError("zero denominator", tok.line, tok.col)
            return GradedExpr.rational(Fraction(tok.text), self.ctx)
        if tok.kind == "FUNC":
            self.next()
            self.expect("PUNCT", "(")
            inner = self.expr()
            self.expect("PUNCT", ")")
            return al.trig_of("s" if tok.text == "sin" else "c", inner)
        if tok.kind == "DOP":
            self.next()
            inner = self.factor()
            op = {"D-": ss.D_MINUS, "D+": ss.D_PLUS, "Z": ss.Z_MINUSPLUS}[tok.text]
            return op(inner)
        if tok.kind == "PUNCT" and tok.text == "(":
            self.next()
            inner = self.expr()
            self.expect("PUNCT", ")")
            return inner
        if tok.kind in ("FIELD", "PARAM", "SUPER"):
            self.next()
            base = self._symbol(tok)
            if self.peek().kind == "PUNCT" and self.peek().text == "^":
                self.next()
                sign = 1
                if self.peek().kind == "PUNCT" and self.peek().text == "-":
                    self.next()
                    sign = -1
                ntok = self.expect("NUMBER")
                if "/" in ntok.text:
                    raise MiniLangSyntaxError("powers must be integers",
                                              ntok.line, ntok.col)
                k = sign * int(ntok.text)
                if abs(k) > MAX_POWER:
                    raise MiniLangSyntaxError(f"|power| must be at most {MAX_POWER}",
                                              ntok.line, ntok.col)
                return self._power(tok, base, k)
            return base
        raise MiniLangSyntaxError(f"expected a factor, found {tok.text!r}",
                                  tok.line, tok.col)

    def _symbol(self, tok: _Token) -> GradedExpr:
        if tok.kind == "SUPER":
            return ss.generic_superfield(tok.text, nz=self.ctx.nz, ctx=self.ctx).expr
        if tok.kind == "PARAM":
            if tok.text == "pi":
                return al.jet("pi", 0, 0, self.ctx)
            return al.gen(tok.text, self.ctx)
        m = tok.jet.count("-") if tok.jet else 0
        n = tok.jet.count("+") if tok.jet else 0
        return al.jet(tok.text, m, n, self.ctx)

    def _power(self, tok: _Token, base: GradedExpr, k: int) -> GradedExpr:
        if tok.kind == "PARAM" and tok.text == "a":
            return al.apow(k, self.ctx)
        if tok.kind == "PARAM" and tok.text in ("v+", "v-"):
            return al.vpow(k if tok.text == "v+" else -k, self.ctx)
        if k < 0:
            raise MiniLangSyntaxError("negative powers only for a and v",
                                      tok.line, tok.col)
        out = GradedExpr.rational(1, self.ctx)
        for _ in range(k):
            out = out * base
        return out


def parse_expr(src: str, ctx: Context = al.BT_CTX) -> GradedExpr:
    """Parse mini-language text into a normalized expression."""
    return _Parser(_tokenize(src), ctx).parse()


def describe(e: GradedExpr) -> dict:
    """Degree/weight/shape summary used by the CLI after parsing."""
    from .grading import weight_str
    try:
        deg = e.degree()
        deg_s = str(deg) if deg is not None else "any (zero)"
    except InhomogeneousExpression:
        deg_s = "inhomogeneous"
    try:
        w = e.weight()
        w_s = weight_str(w) if w is not None else "any (zero)"
    except InhomogeneousExpression:
        w_s = "inhomogeneous"
    # an inexact result shows its precision, -inf when no order is certified
    text = al.to_text(e) if e.prec is None else f"{al.to_text(e)} + O(a^{e.prec})"
    return {"text": text, "degree": deg_s, "weight": w_s, "terms": len(e.terms)}
