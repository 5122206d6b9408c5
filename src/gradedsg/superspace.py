"""Superfields and the derivation algebra acting on them.

Superspace expressions never mention the even coordinates explicitly: the
translation generators shift abstract jet indices instead.  The odd and
exotic coordinates (theta-, theta+, z) are explicit generators of the
algebra kernel, so the supercharges and covariant derivatives are built
from five primitive operators:

    P- = d/dx-, P+ = d/dx+ (jet shifts), Z = d/dz, and the left
    theta-derivatives.

All commutation signs route through the kernel's multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from . import algebra as al
from .algebra import Context, GradedExpr, Q
from .errors import ConfigError, InhomogeneousExpression, UnknownSymbol
from .grading import (
    DEG_01,
    DEG_10,
    DEG_11,
    DEG_EVEN,
    BoostWeight,
    Degree,
    commutation_sign,
    degree_add,
)

HALF = Q(1, 2)


# ---------------------------------------------------------------------------
# derivations

@dataclass(frozen=True)
class Derivation:
    """A graded Leibniz operator with declared degree and weight."""

    name: str
    degree: Degree
    weight: BoostWeight  # half-units
    fn: Callable[[GradedExpr], GradedExpr] = field(compare=False)

    def __call__(self, e: GradedExpr) -> GradedExpr:
        return self.fn(e)


def _odd_derivation(side: str, sign: int) -> Derivation:
    """Supercharge (sign +1) or covariant derivative (sign -1) on one side:

        d/dtheta_s + sign/2 theta_s d_s + zsign/2 theta_o d/dz

    with s the side, o the other side, and zsign = -sign on the '-' side
    and +sign on the '+' side.
    """
    own, other = ("theta-", "theta+") if side == "-" else ("theta+", "theta-")
    x_factor = sign * HALF
    z_factor = -x_factor if side == "-" else x_factor

    def fn(e: GradedExpr) -> GradedExpr:
        ctx = e.ctx
        return al.combine(((1, al.d_theta(e, side)),
                           (x_factor, al.gen(own, ctx) * al.d_x(e, side)),
                           (z_factor, al.gen(other, ctx) * al.d_z(e))))

    degree, weight = (DEG_01, +1) if side == "-" else (DEG_10, -1)
    return Derivation(("Q" if sign > 0 else "D") + side, degree, weight, fn)


# al.d_x is looked up at each call, so a hook on it sees every shift
P_MINUS = Derivation("P-", DEG_EVEN, +2, lambda e: al.d_x(e, "-"))
P_PLUS = Derivation("P+", DEG_EVEN, -2, lambda e: al.d_x(e, "+"))
Z_MINUSPLUS = Derivation("Z-+", DEG_11, 0, al.d_z)
Q_MINUS = _odd_derivation("-", +1)
Q_PLUS = _odd_derivation("+", +1)
D_MINUS = _odd_derivation("-", -1)
D_PLUS = _odd_derivation("+", -1)

SUPERTRANSLATIONS = (P_MINUS, P_PLUS, Z_MINUSPLUS, Q_MINUS, Q_PLUS)
COVARIANT = (D_MINUS, D_PLUS)


# a derivation is applied by calling it, D(e); the name stays only because
# bench/tracing.py hooks it, and nothing calls it
apply = Derivation.__call__


def bracket(D1: Derivation, D2: Derivation, probe: GradedExpr) -> GradedExpr:
    """Graded bracket [D1, D2] evaluated on a probe expression."""
    sign = commutation_sign(D1.degree, D2.degree)
    return D1(D2(probe)) - D2(D1(probe)).scale(sign)


# ---------------------------------------------------------------------------
# superfields

@dataclass(frozen=True)
class SuperField:
    """A scalar superfield: its label and its window.  Its components' sum
    ``expr`` follows from the two, so equality and the hash leave it out."""

    name: str
    ctx: Context
    expr: GradedExpr = field(compare=False)

    @property
    def body(self) -> str:
        # the table lists the body first
        return self.component(next(iter(al.COMPONENTS)))

    def component(self, role: str) -> str:
        """The field name of a component role, up to the field's z-order."""
        if role not in al.COMPONENTS or al.COMPONENTS[role][2] > self.ctx.nz:
            raise UnknownSymbol(f"superfield {self.name!r} has no {role!r} component")
        return role + al.SUPERFIELDS[self.name]


def generic_superfield(label: str, nz: int = 0,
                       ctx: Optional[Context] = None) -> SuperField:
    """The superfield ``Phi`` or ``Phi~`` with its component jets up to z-order
    nz, which a given ``ctx`` must share (a lower one would drop listed
    components)."""
    if label not in al.SUPERFIELDS:
        raise UnknownSymbol(f"unknown superfield {label!r}")
    if ctx is None:
        ctx = Context(nz=nz) if nz != al.DEFAULT_CTX.nz else al.DEFAULT_CTX
    elif ctx.nz != nz:
        raise ConfigError(f"superfield of z-order {nz} in a context of z-order {ctx.nz}")
    expr = GradedExpr.zero(ctx)
    for role, (_, _, zord, tm, tp) in al.COMPONENTS.items():
        if zord > nz:
            continue
        term = al.jet(role + al.SUPERFIELDS[label], 0, 0, ctx)
        # z^zord theta-^tm theta+^tp times the jet, built from the right
        for name in ["theta+"] * tp + ["theta-"] * tm + ["z"] * zord:
            term = al.gen(name, ctx) * term
        expr = expr + term
    return SuperField(label, ctx, expr)


# ---------------------------------------------------------------------------
# verification

_EXPECTED_BRACKETS = {
    ("Q-", "Q-"): ("P-", 1),
    ("Q+", "Q+"): ("P+", 1),
    ("Q-", "Q+"): ("Z-+", 1),
    ("Q+", "Q-"): ("Z-+", -1),  # pairing 0: [A,B] = -[B,A]
    ("D-", "D-"): ("P-", -1),
    ("D+", "D+"): ("P+", -1),
    ("D-", "D+"): ("Z-+", -1),
    ("D+", "D-"): ("Z-+", 1),
}


_BY_NAME = {D.name: D for D in SUPERTRANSLATIONS + COVARIANT}


def superalgebra_checks(probe: GradedExpr):
    """Yield (label, residual) pairs for every algebra relation.

    Covers all ordered generator pairs of the supertranslation algebra, the
    covariant-derivative brackets, vanishing of the mixed Q-D brackets, and
    the graded Jacobi identity over all generator triples.

    Every relation is one signed sum, ``al.combine``, of operator words
    applied to the probe.  A dict local to the call maps each word to its
    result, starting from ``{(): probe}``; ``word(n1, n2, ...)`` is
    ``_BY_NAME[n1](word(n2, ...))``, evaluated once through
    ``Derivation.__call__`` and then reused.  Because derivations are linear
    over the rationals, ``D(X - sY) = D(X) - s D(Y)`` exactly, so

        [A,B]     = W(A,B) - (-1)^<a,b> W(B,A)
        [A,[B,C]] = W(A,B,C) - s_bc W(A,C,B) - s W(B,C,A) + s s_bc W(C,B,A)

    equal ``bracket`` term for term.  A second local dict holds each double
    bracket, summed once per call, and each Jacobi relation combines three
    of them.  The 162 relations take 169 derivation applications, one per
    distinct word, and no result outlives the call.
    """
    words: dict[tuple[str, ...], GradedExpr] = {(): probe}
    nested: dict[tuple[str, str, str], GradedExpr] = {}

    def word(*names: str) -> GradedExpr:
        if names not in words:
            words[names] = _BY_NAME[names[0]](word(*names[1:]))
        return words[names]

    def degree(*names: str) -> Degree:
        total = DEG_EVEN
        for n in names:
            total = degree_add(total, _BY_NAME[n].degree)
        return total

    def relation(n1: str, n2: str) -> GradedExpr:
        # [n1, n2] on the probe, minus its expected value
        s = commutation_sign(degree(n1), degree(n2))
        parts = [(1, word(n1, n2)), (-s, word(n2, n1))]
        if (n1, n2) in _EXPECTED_BRACKETS:
            tgt, sgn = _EXPECTED_BRACKETS[(n1, n2)]
            parts.append((-sgn, word(tgt)))
        return al.combine(parts)

    def triple(na: str, nb: str, nc: str) -> GradedExpr:
        # [na, [nb, nc]] on the probe; the inner bracket has degree b + c
        if (na, nb, nc) not in nested:
            s_bc = commutation_sign(degree(nb), degree(nc))
            s = commutation_sign(degree(na), degree(nb, nc))
            nested[na, nb, nc] = al.combine((
                (1, word(na, nb, nc)), (-s_bc, word(na, nc, nb)),
                (-s, word(nb, nc, na)), (s * s_bc, word(nc, nb, na))))
        return nested[na, nb, nc]

    names_st = [D.name for D in SUPERTRANSLATIONS]
    for n1 in names_st:
        for n2 in names_st:
            yield f"[{n1},{n2}]", relation(n1, n2)
    for n1 in ("D-", "D+"):
        for n2 in ("D-", "D+"):
            yield f"[{n1},{n2}]", relation(n1, n2)
    for q in ("Q-", "Q+"):
        for d in ("D-", "D+"):
            yield f"[{q},{d}]", relation(q, d)
            yield f"[{d},{q}]", relation(d, q)
    # graded Jacobi: [A,[B,C]] - [[A,B],C] - (-1)^<a,b> [B,[A,C]], with
    # [[A,B],C] = -(-1)^<c,a+b> [C,[A,B]]
    for na in names_st:
        for nb in names_st:
            for nc in names_st:
                s_ab = commutation_sign(degree(na), degree(nb))
                s_c_ab = commutation_sign(degree(nc), degree(na, nb))
                yield f"jacobi[{na},[{nb},{nc}]]", al.combine((
                    (1, triple(na, nb, nc)), (s_c_ab, triple(nc, na, nb)),
                    (-s_ab, triple(nb, na, nc))))


def derivation_covariance_checks(probe: GradedExpr):
    """Degree and weight shifts of every derivation, checked on each
    monomial of the probe (which may be inhomogeneous as a whole)."""
    for D in SUPERTRANSLATIONS + COVARIANT:
        ok = True
        try:
            for key, c in probe.coefficients():
                mono = GradedExpr(probe.ctx, ((key, c),))
                res = D(mono)
                if res.is_zero():
                    continue
                dd = res.degree()
                dw = res.weight()
                ok = ok and dd == degree_add(D.degree, al.key_degree(key))
                ok = ok and dw == D.weight + al.key_weight(key)
        except InhomogeneousExpression:
            ok = False
        yield f"{D.name} degree/weight", ok
