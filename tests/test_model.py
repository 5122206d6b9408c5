from fractions import Fraction as Q

import pytest

from gradedsg import algebra as al
from gradedsg import model as md
from gradedsg import parser as ps
from gradedsg import superspace as ss
from gradedsg.errors import UnsupportedAtom


def expr_eq(a, b):
    return (a - b).is_zero()


@pytest.fixture(scope="module")
def phi():
    return ss.generic_superfield("Phi", nz=0)


def test_euler_lagrange_reproduces_field_equation(phi):
    el = md.euler_lagrange(md.sine_gordon_lagrangian(), phi)
    assert expr_eq(el, md.sg_residual(phi))


def test_euler_lagrange_free_and_potential_only(phi):
    free = md.euler_lagrange(md.LagrangianExpr.make(1, []), phi)
    kinetic = (ss.D_MINUS(ss.D_PLUS(phi.expr))
               + ss.D_PLUS(ss.D_MINUS(phi.expr)))
    assert expr_eq(free, kinetic)
    pot_only = md.euler_lagrange(
        md.LagrangianExpr.make(0, [md.PotentialTerm(Q(2), True, ("c", Q(1, 2)))]),
        phi)
    expect = (al.gen("alpha", phi.expr.ctx)
              * al.trig_of("s", phi.expr, Q(1, 2)))
    assert expr_eq(pot_only, expect)


def test_lagrangian_vocabulary_guard():
    with pytest.raises(UnsupportedAtom):
        md.LagrangianExpr.make(1, [md.PotentialTerm(Q(1), False, ("tan", Q(1)))])


def test_component_equations_match_printed_form(phi):
    ctx = phi.expr.ctx
    eqs = md.component_equations(eliminate_auxiliary=True, field=phi)
    raw = md.component_equations(eliminate_auxiliary=False, field=phi)
    assert expr_eq(raw["aux"], ps.parse_expr("2*F + alpha*sin(1/2*X)", ctx))
    assert expr_eq(eqs["X"], ps.parse_expr(
        "X_{-+} - 1/4*sin(X) - 1/2*alpha*psi-*psi+*sin(1/2*X)", ctx))
    assert expr_eq(eqs["psi+"], ps.parse_expr(
        "psi+_{+} + 1/2*alpha*psi-*cos(1/2*X)", ctx))
    assert expr_eq(eqs["psi-"], ps.parse_expr(
        "psi-_{-} + 1/2*alpha*psi+*cos(1/2*X)", ctx))


def test_auxiliary_solves_its_sector(phi):
    ctx = phi.expr.ctx
    raw = md.component_equations(eliminate_auxiliary=False, field=phi)
    sol = md.auxiliary_solution(phi)
    residual = al.substitute(raw["aux"], {"F": sol})
    assert residual.is_zero()


def test_classical_reduction(phi):
    ctx = phi.expr.ctx
    classical = md.classical_residual(phi)
    assert expr_eq(classical, ps.parse_expr("X_{-+} - 1/4*sin(X)", ctx))
    # switching the fermions off inside the full set drops the bilinear only
    eqs = md.component_equations(eliminate_auxiliary=True, field=phi)
    zero = al.GradedExpr.zero(ctx)
    for key in ("psi+", "psi-"):
        assert al.substitute(eqs[key], {"psi+": zero, "psi-": zero}).is_zero()


def test_sector_exchange_symmetry(phi):
    # the two fermion equations are swapped by the lightcone involution
    eqs = md.component_equations(eliminate_auxiliary=True, field=phi)
    assert expr_eq(al.mirror_pm(eqs["psi+"]), eqs["psi-"])
    assert expr_eq(al.mirror_pm(eqs["X"]), eqs["X"])


def test_vacuum_residuals(phi):
    ctx = phi.expr.ctx
    zero = al.GradedExpr.zero(ctx)
    vac = al.substitute(md.sg_residual(phi),
                        {"X": zero, "psi+": zero, "psi-": zero, "F": zero})
    assert vac.is_zero()
    # constant 2*pi is the next vacuum: alpha*sin(pi) = 0
    two_pi = al.jet("pi", ctx=ctx).scale(2)
    shifted = al.substitute(md.sg_residual(phi),
                            {"X": two_pi, "psi+": zero, "psi-": zero, "F": zero})
    assert shifted.is_zero()


def test_on_shell_rules(phi):
    ctx = phi.expr.ctx
    r = md.on_shell_rewriter(phi)
    got = r.reduce(al.jet("psi+", 0, 1, ctx))
    assert expr_eq(got, ps.parse_expr("-1/2*alpha*psi-*cos(1/2*X)", ctx))
    got = r.reduce(al.jet("psi-", 1, 0, ctx))
    assert expr_eq(got, ps.parse_expr("-1/2*alpha*psi+*cos(1/2*X)", ctx))
    got = r.reduce(al.jet("X", 1, 1, ctx))
    assert expr_eq(got, ps.parse_expr(
        "1/4*sin(X) + 1/2*alpha*psi-*psi+*sin(1/2*X)", ctx))
    untouched = al.jet("X", 0, 2, ctx) * al.jet("psi-", 0, 3, ctx)
    assert expr_eq(r.reduce(untouched), untouched)


def test_on_shell_reduction_properties(phi):
    res = md.sg_residual(phi)
    red = md.reduce_on_shell(res, phi)
    assert red.is_zero()
    # idempotence and degree preservation on a nontrivial input
    e = al.jet("X", 2, 3, phi.expr.ctx) * al.jet("psi+", 0, 2, phi.expr.ctx)
    once = md.reduce_on_shell(e, phi)
    assert expr_eq(md.reduce_on_shell(once, phi), once)
    assert once.degree() == e.degree()
    assert once.weight() == e.weight()


def test_superspace_on_shell_rule(phi):
    # D-D+Phi reduces on shell to -(alpha/2) sin(Phi/2), component-wise
    lhs = md.reduce_on_shell(
        ss.D_MINUS(ss.D_PLUS(phi.expr)), phi)
    rhs = md.reduce_on_shell(
        (al.gen("alpha", phi.expr.ctx)
         * al.trig_of("s", phi.expr, Q(1, 2))).scale(Q(-1, 2)), phi)
    assert expr_eq(lhs, rhs)
