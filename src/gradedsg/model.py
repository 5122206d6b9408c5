"""Graded sine-Gordon model: Lagrangian, field equation, component form.

The Lagrangian lives in a tiny dedicated vocabulary (the superfield, its two
covariant derivatives, the degree-(1,1) coupling constant and trig functions
of the superfield).  Functional derivatives are left derivatives; the
convention is validated by the derive-eom acceptance test rather than
assumed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from . import algebra as al
from . import superspace as ss
from .algebra import GradedExpr, Q
from .errors import UnsupportedAtom

HALF = Q(1, 2)


# ---------------------------------------------------------------------------
# Lagrangian in the atoms {Phi, D-Phi, D+Phi}

@dataclass(frozen=True)
class PotentialTerm:
    """coef * alpha^use_alpha * trig(half * Phi); trig None means constant."""

    coef: Fraction
    use_alpha: bool = False
    trig: Optional[tuple[str, Fraction]] = None  # ('s'|'c', half)


@dataclass(frozen=True)
class LagrangianExpr:
    """kinetic * D-Phi * D+Phi + potential(Phi)."""

    kinetic: Fraction
    potential: tuple[PotentialTerm, ...]

    @staticmethod
    def make(kinetic, potential: Iterable[PotentialTerm]) -> "LagrangianExpr":
        pot = tuple(potential)
        for t in pot:
            if t.trig is not None and t.trig[0] not in ("s", "c"):
                raise UnsupportedAtom(f"bad trig kind {t.trig[0]!r}")
        return LagrangianExpr(Q(kinetic), pot)


def sine_gordon_lagrangian() -> LagrangianExpr:
    """D-Phi D+Phi - 2 alpha (1 - cos(Phi/2))."""
    return LagrangianExpr.make(1, [
        PotentialTerm(Q(-2), use_alpha=True, trig=None),
        PotentialTerm(Q(2), use_alpha=True, trig=("c", HALF)),
    ])


def potential_derivative(L: LagrangianExpr, field: ss.SuperField) -> GradedExpr:
    """dW/dPhi with left derivatives, as a superspace expression."""
    ctx = field.ctx
    out = GradedExpr.zero(ctx)
    for t in L.potential:
        if t.trig is None:
            continue  # constant term
        kind, half = t.trig
        if kind == "c":
            # d cos(h Phi)/d Phi = -h sin(h Phi)
            dterm = al.trig_of("s", field.expr, half).scale(-half * t.coef)
        else:
            dterm = al.trig_of("c", field.expr, half).scale(half * t.coef)
        if t.use_alpha:
            dterm = al.gen("alpha", ctx) * dterm
        out = out + dterm
    return out


def euler_lagrange(L: LagrangianExpr, field: ss.SuperField) -> GradedExpr:
    """D-(dL/dPhi-) + D+(dL/dPhi+) - dW/dPhi for first-order Lagrangians."""
    phi_minus = ss.D_MINUS(field.expr)
    phi_plus = ss.D_PLUS(field.expr)
    # dL/dPhi- = kinetic * Phi+, dL/dPhi+ = kinetic * Phi- (left derivatives;
    # Phi- and Phi+ have degrees (0,1) and (1,0), which commute)
    term1 = ss.D_MINUS(phi_plus.scale(L.kinetic))
    term2 = ss.D_PLUS(phi_minus.scale(L.kinetic))
    return term1 + term2 - potential_derivative(L, field)


def sg_residual(field: ss.SuperField) -> GradedExpr:
    """D-D+Phi + D+D-Phi + alpha sin(Phi/2), fully normalized."""
    e = field.expr
    mixed = ss.D_MINUS(ss.D_PLUS(e)) + ss.D_PLUS(ss.D_MINUS(e))
    return mixed + al.gen("alpha", field.ctx) * al.trig_of("s", e, HALF)


# ---------------------------------------------------------------------------
# component equations

def auxiliary_solution(field: ss.SuperField) -> GradedExpr:
    """The auxiliary component on shell: F = -(alpha/2) sin(X/2)."""
    ctx = field.ctx
    return (al.gen("alpha", ctx)
            * al.trig("s", {field.body: HALF}, ctx=ctx)).scale(Q(-1, 2))


def component_equations(eliminate_auxiliary: bool,
                        field: ss.SuperField) -> dict[str, GradedExpr]:
    """Theta-sector residuals of the field equation, normalized for display.

    Keys: 'aux' (theta^0 sector as computed), 'X', 'psi+', 'psi-' (scaled to
    match the customary component form: the theta-theta sector doubled, the
    linear sectors negated).
    """
    res = sg_residual(field)
    if eliminate_auxiliary:
        res = al.substitute(res, {field.component("F"): auxiliary_solution(field)})
    sectors = al.component_split(res)
    zero = GradedExpr.zero(field.ctx)
    return {
        "aux": sectors.get((0, 0), zero),
        "psi-": sectors.get((1, 0), zero).scale(-1),
        "psi+": sectors.get((0, 1), zero).scale(-1),
        "X": sectors.get((1, 1), zero).scale(2),
    }


def classical_residual(field: ss.SuperField) -> GradedExpr:
    """Component X-equation with the fermions switched off."""
    eqs = component_equations(eliminate_auxiliary=True, field=field)
    zero = GradedExpr.zero(field.ctx)
    return al.substitute(eqs["X"], {
        field.component("psi+"): zero,
        field.component("psi-"): zero,
    })


# ---------------------------------------------------------------------------
# on-shell reduction

@functools.lru_cache(maxsize=None)
def on_shell_rewriter(field: ss.SuperField) -> al.JetRewriter:
    """Oriented rewriting with the component equations of motion.

    Rules eliminate the auxiliary component, mixed x-derivatives of the body
    and the 'wrong-handed' derivatives of the fermions; the normal form of
    each prolonged jet is built on first use and memoized in the rewriter,
    one per superfield, so a reduction is one substitution pass.
    The canonical remainder mentions only pure d- strings of X and psi+,
    pure d+ strings of X and psi-, and trig atoms.
    """
    ctx = field.ctx
    body, psip, psim = field.body, field.component("psi+"), field.component("psi-")
    alpha = al.gen("alpha", ctx)
    sin_half = al.trig("s", {body: HALF}, ctx=ctx)
    cos_half = al.trig("c", {body: HALF}, ctx=ctx)
    sin_full = al.trig("s", {body: Q(1)}, ctx=ctx)
    return al.JetRewriter((
        ((field.component("F"), 0, 0), auxiliary_solution(field)),
        ((body, 1, 1), (sin_full.scale(Q(1, 4))
                        + (alpha * al.jet(psim, ctx=ctx) * al.jet(psip, ctx=ctx)
                           * sin_half).scale(HALF))),
        ((psip, 0, 1), (alpha * al.jet(psim, ctx=ctx) * cos_half).scale(Q(-1, 2))),
        ((psim, 1, 0), (alpha * al.jet(psip, ctx=ctx) * cos_half).scale(Q(-1, 2))),
    ))


def reduce_on_shell(e: GradedExpr, field: ss.SuperField) -> GradedExpr:
    return on_shell_rewriter(field).reduce(e)
