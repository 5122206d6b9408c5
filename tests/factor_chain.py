"""Reference for jet substitution: a monomial rebuilt factor by factor.

``substitute_jets`` multiplies each run of kept atoms into a rewritten
monomial at once.  These helpers rebuild every monomial from its
single-slot factors instead, one product per factor, which is the plain
reading of the substitution it must agree with, precision included.
"""

from gradedsg import algebra as al


def single_slot_factors(key, ctx):
    """The jet-free prefix (z, thetas, parameters, v, a) as one factor, then
    one factor per graded jet, scalar jet and trig atom; they come in normal
    order, so their product is the monomial with sign +1."""
    z, tm, tp, cf, v, a, gj, bj, t = key
    if z or tm or tp or cf != al.CF_ONE or v or a:
        yield al.GradedExpr(ctx, (((z, tm, tp, cf, v, a, 0, 0, None), 1),))
    for atom, exp in al.jets_of(gj):
        factor = al.GradedExpr(ctx, (((0, 0, 0, al.CF_ONE, 0, 0, al._jet_id(((atom, 1),)), 0,
                                       None), 1),))
        yield from [factor] * exp
    for atom, exp in al.jets_of(bj):
        factor = al.GradedExpr(ctx, (((0, 0, 0, al.CF_ONE, 0, 0, 0, al._jet_id(((atom, 1),)),
                                       None), 1),))
        yield from [factor] * exp
    if t is not None:
        yield al.GradedExpr(ctx, (((0, 0, 0, al.CF_ONE, 0, 0, 0, 0, t), 1),))


def substitute_by_factors(e, rule):
    """``substitute_jets(e, rule)`` as a chain of products: each monomial is
    its coefficient times its single-slot factors, a bound factor replaced
    by its rule's value, multiplied left to right."""
    ctx = e.ctx
    out = al.GradedExpr(ctx, prec=e.prec)
    for key, coef in e.coefficients():
        t = key[8]
        new_trig = None if t is None else al._substituted_trig(t, rule, ctx)
        term = al.GradedExpr.rational(coef, ctx)
        for factor in single_slot_factors(key, ctx):
            fkey, = factor.terms
            atoms = al.jets_of(fkey[6] or fkey[7])
            repl = rule(*atoms[0][0]) if atoms else new_trig if fkey[8] is not None else None
            term = term * (factor if repl is None else repl)
        out = out + term
    return out
