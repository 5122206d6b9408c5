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
from .errors import InhomogeneousExpression
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


def _mk_P(direction: str) -> Derivation:
    deg = DEG_EVEN
    w = +2 if direction == "-" else -2
    return Derivation(f"P{direction}", deg, w, lambda e: al.d_x(e, direction))


def _mk_Z() -> Derivation:
    return Derivation("Z-+", DEG_11, 0, al.d_z)


def _q_minus(e: GradedExpr) -> GradedExpr:
    ctx = e.ctx
    return (al.d_theta(e, "-")
            + al.gen("theta-", ctx) * al.d_x(e, "-") * HALF
            - al.gen("theta+", ctx) * al.d_z(e) * HALF)


def _q_plus(e: GradedExpr) -> GradedExpr:
    ctx = e.ctx
    return (al.d_theta(e, "+")
            + al.gen("theta+", ctx) * al.d_x(e, "+") * HALF
            + al.gen("theta-", ctx) * al.d_z(e) * HALF)


def _d_minus(e: GradedExpr) -> GradedExpr:
    ctx = e.ctx
    return (al.d_theta(e, "-")
            - al.gen("theta-", ctx) * al.d_x(e, "-") * HALF
            + al.gen("theta+", ctx) * al.d_z(e) * HALF)


def _d_plus(e: GradedExpr) -> GradedExpr:
    ctx = e.ctx
    return (al.d_theta(e, "+")
            - al.gen("theta+", ctx) * al.d_x(e, "+") * HALF
            - al.gen("theta-", ctx) * al.d_z(e) * HALF)


P_MINUS = _mk_P("-")
P_PLUS = _mk_P("+")
Z_MINUSPLUS = _mk_Z()
Q_MINUS = Derivation("Q-", DEG_01, +1, _q_minus)
Q_PLUS = Derivation("Q+", DEG_10, -1, _q_plus)
D_MINUS = Derivation("D-", DEG_01, +1, _d_minus)
D_PLUS = Derivation("D+", DEG_10, -1, _d_plus)

SUPERTRANSLATIONS = (P_MINUS, P_PLUS, Z_MINUSPLUS, Q_MINUS, Q_PLUS)
COVARIANT = (D_MINUS, D_PLUS)


def apply(D: Derivation, e: GradedExpr) -> GradedExpr:
    return D.fn(e)


def bracket(D1: Derivation, D2: Derivation, probe: GradedExpr) -> GradedExpr:
    """Graded bracket [D1, D2] evaluated on a probe expression."""
    sign = commutation_sign(D1.degree, D2.degree)
    return D1(D2(probe)) - D2(D1(probe)).scale(sign)


def weight_of(e: GradedExpr) -> Optional[BoostWeight]:
    """Common boost weight (half-units); raises if inhomogeneous."""
    return e.weight()


# ---------------------------------------------------------------------------
# superfields

_COMPONENT_ROLES = {
    # role -> (degree, weight, z-order, theta-, theta+)
    "X": (DEG_EVEN, 0, 0, 0, 0),
    "psi+": (DEG_01, +1, 0, 1, 0),
    "psi-": (DEG_10, -1, 0, 0, 1),
    "F": (DEG_11, 0, 0, 1, 1),
    "G": (DEG_11, 0, 1, 0, 0),
    "chi+": (DEG_10, +1, 1, 1, 0),
    "chi-": (DEG_01, -1, 1, 0, 1),
    "Y": (DEG_EVEN, 0, 1, 1, 1),
}


@dataclass(frozen=True)
class SuperField:
    """A scalar superfield with its component jet generators."""

    name: str
    expr: GradedExpr
    body: str
    components: tuple[tuple[str, str], ...]  # (role, field name)
    nz: int

    def component(self, role: str) -> str:
        for r, n in self.components:
            if r == role:
                return n
        raise KeyError(role)


def _component_name(role: str, label: str) -> str:
    if label == "Phi":
        return role
    if label == "Phi~":
        return f"{role}~"
    return f"{role}[{label}]"


def generic_superfield(label: str, nz: int = 0,
                       ctx: Optional[Context] = None) -> SuperField:
    """Scalar superfield with fresh component jets up to z-order nz."""
    if ctx is None:
        ctx = Context(nz=nz) if nz != al.DEFAULT_CTX.nz else al.DEFAULT_CTX
    comps = []
    expr = GradedExpr.zero(ctx)
    for role, (deg, w, zord, tm, tp) in _COMPONENT_ROLES.items():
        if zord > nz:
            continue
        name = _component_name(role, label)
        al.register_field(name, deg, w, trig=(role == "X"))
        comps.append((role, name))
        term = al.jet(name, 0, 0, ctx)
        if tp:
            term = al.gen("theta+", ctx) * term
        if tm:
            term = al.gen("theta-", ctx) * term
        for _ in range(zord):
            term = al.gen("z", ctx) * term
        expr = expr + term
    body = _component_name("X", label)
    return SuperField(label, expr, body, tuple(comps), nz)


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


def superalgebra_checks(probe: Optional[GradedExpr] = None):
    """Yield (label, residual) pairs for every algebra relation.

    Covers all ordered generator pairs of the supertranslation algebra, the
    covariant-derivative brackets, vanishing of the mixed Q-D brackets, and
    the graded Jacobi identity over all generator triples.
    """
    if probe is None:
        probe = generic_superfield("Phi", nz=1).expr

    def expected(n1: str, n2: str) -> GradedExpr:
        if (n1, n2) in _EXPECTED_BRACKETS:
            tgt, sgn = _EXPECTED_BRACKETS[(n1, n2)]
            return _BY_NAME[tgt](probe).scale(sgn)
        return GradedExpr.zero(probe.ctx)

    names_st = [D.name for D in SUPERTRANSLATIONS]
    for n1 in names_st:
        for n2 in names_st:
            res = bracket(_BY_NAME[n1], _BY_NAME[n2], probe) - expected(n1, n2)
            yield f"[{n1},{n2}]", res
    for n1 in ("D-", "D+"):
        for n2 in ("D-", "D+"):
            res = bracket(_BY_NAME[n1], _BY_NAME[n2], probe) - expected(n1, n2)
            yield f"[{n1},{n2}]", res
    for q in ("Q-", "Q+"):
        for d in ("D-", "D+"):
            yield f"[{q},{d}]", bracket(_BY_NAME[q], _BY_NAME[d], probe)
            yield f"[{d},{q}]", bracket(_BY_NAME[d], _BY_NAME[q], probe)
    # graded Jacobi: [A,[B,C]] - [[A,B],C] - (-1)^<a,b> [B,[A,C]]
    def nested(Douter: Derivation, Dinner1: Derivation, Dinner2: Derivation,
               e: GradedExpr) -> GradedExpr:
        # [Douter, [Dinner1, Dinner2]] on e; the inner bracket has degree
        # equal to the sum of its members' degrees.
        inner_deg = degree_add(Dinner1.degree, Dinner2.degree)
        s = commutation_sign(Douter.degree, inner_deg)
        return (Douter(bracket(Dinner1, Dinner2, e))
                - bracket(Dinner1, Dinner2, Douter(e)).scale(s))

    for na in names_st:
        for nb in names_st:
            for nc in names_st:
                A, B, C = _BY_NAME[na], _BY_NAME[nb], _BY_NAME[nc]
                sgn = commutation_sign(A.degree, B.degree)
                lhs = nested(A, B, C, probe)
                # [[A,B],C](e) = -(sign(c, a+b)) * [C, [A,B]](e)
                s_c_ab = commutation_sign(C.degree, degree_add(A.degree, B.degree))
                rhs1 = nested(C, A, B, probe).scale(-s_c_ab)
                rhs2 = nested(B, A, C, probe).scale(sgn)
                yield f"jacobi[{na},[{nb},{nc}]]", lhs - rhs1 - rhs2


def derivation_covariance_checks(probe: Optional[GradedExpr] = None):
    """Degree and weight shifts of every derivation on a homogeneous probe."""
    if probe is None:
        sf = generic_superfield("Phi", nz=1)
        probe = sf.expr
    for D in SUPERTRANSLATIONS + COVARIANT:
        out = D(probe)
        if out.is_zero():
            yield f"{D.name} degree/weight", True
            continue
        ok = True
        try:
            # probe is inhomogeneous as a whole; check per starting monomial
            for key, c in probe.terms.items():
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
