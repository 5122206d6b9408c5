import itertools
import random
from fractions import Fraction as Q

import pytest

from gradedsg import algebra as al
from gradedsg.errors import (MixedParameterFamilies, NonNilpotentRemainder,
                             NonTermination, NotScalarDegree, OutsideWindow,
                             UnsupportedAtom)

CTX = al.BT_CTX


def g(name):
    return al.gen(name, CTX)


def expr_eq(a, b):
    return (a - b).is_zero()


# ---------------------------------------------------------------------------
# spinor-parameter relations

def test_parameter_relations():
    lp, lm, alpha = g("lambda+"), g("lambda-"), g("alpha")
    assert expr_eq(lp * lm, alpha)
    assert expr_eq(lm * lp, -alpha)
    assert expr_eq(lp * lp, al.vpow(1, CTX))
    assert expr_eq(lm * lm, -al.vpow(-1, CTX))
    assert expr_eq(alpha * alpha, al.GradedExpr.rational(1, CTX))
    assert expr_eq(al.vpow(1, CTX) * al.vpow(-1, CTX), al.GradedExpr.rational(1, CTX))
    assert expr_eq(lp * lp * lm * lm, al.GradedExpr.rational(-1, CTX))


def test_eta_relations_mirror():
    ep, em, alpha = g("eta+"), g("eta-"), g("alpha")
    assert expr_eq(ep * em, alpha)
    assert expr_eq(em * ep, -alpha)
    assert expr_eq(ep * ep, al.vpow(-1, CTX))
    assert expr_eq(em * em, -al.vpow(1, CTX))


def test_alpha_lambda_forced_by_associativity():
    # (l+ l+) l- = l+ (l+ l-) forces alpha*l+ = -v+ l-
    lp, lm, alpha = g("lambda+"), g("lambda-"), g("alpha")
    assert expr_eq(alpha * lp, -(al.vpow(1, CTX) * lm))
    assert expr_eq((lp * lp) * lm, lp * (lp * lm))


def test_mixed_families_rejected():
    with pytest.raises(MixedParameterFamilies):
        _ = g("lambda+") * g("eta-")


def test_clifford_words_associate():
    # every parenthesization of every word of length <= 4 agrees
    gens = ["alpha", "lambda+", "lambda-", "v+", "v-"]

    def all_products(word):
        if len(word) == 1:
            return [g(word[0])]
        out = []
        for k in range(1, len(word)):
            for a in all_products(word[:k]):
                for b in all_products(word[k:]):
                    out.append(a * b)
        return out

    for n in (2, 3, 4):
        for word in itertools.product(gens, repeat=n):
            results = all_products(list(word))
            first = results[0]
            assert all(expr_eq(r, first) for r in results[1:]), word


# ---------------------------------------------------------------------------
# sign rule and squares

def test_coordinate_commutation():
    tm, tp, z = g("theta-"), g("theta+"), al.gen("z", al.DEFAULT_CTX)
    tmd = al.gen("theta-", al.DEFAULT_CTX)
    assert expr_eq(tm * tp, al.gen("theta+", CTX) * al.gen("theta-", CTX))
    assert (tm * tm).is_zero()
    assert (tp * tp).is_zero()
    assert expr_eq(tmd * z, -(z * tmd))


def test_fermion_jets_commute_across_type():
    psi_p = al.jet("psi+", ctx=CTX)
    psi_m = al.jet("psi-", ctx=CTX)
    assert expr_eq(psi_p * psi_m, psi_m * psi_p)
    assert (psi_p * psi_p).is_zero()
    assert (al.jet("psi+", 1, 0, CTX) * al.jet("psi+", 1, 0, CTX)).is_zero()
    # distinct jets of the same fermion anticommute
    a, b = al.jet("psi+", 0, 0, CTX), al.jet("psi+", 1, 0, CTX)
    assert expr_eq(a * b, -(b * a))


def test_exotic_boson_squares_survive():
    F = al.jet("F", ctx=CTX)
    assert not (F * F).is_zero()
    alpha = g("alpha")
    assert expr_eq(alpha * F, F * alpha)  # (1,1) with (1,1) commute


def _random_expr(rng, ctx, atoms, nterms=3):
    out = al.GradedExpr.zero(ctx)
    for _ in range(nterms):
        term = al.GradedExpr.rational(Q(rng.randint(-3, 3), rng.randint(1, 3)), ctx)
        for name in rng.sample(atoms, rng.randint(1, len(atoms))):
            term = term * al.jet(name, rng.randint(0, 1), rng.randint(0, 1), ctx)
        out = out + term
    return out


def test_odd_coordinate_expressions_square_to_zero():
    # Homogeneous odd-degree expressions built from coordinates and jets
    # square to zero (the spinor parameters are the designed exception).
    rng = random.Random(7)
    tm, tp = g("theta-"), g("theta+")
    for _ in range(25):
        even = _random_expr(rng, CTX, ["X", "Y"], 2)
        e = (tm * even
             + al.jet("psi+", rng.randint(0, 2), rng.randint(0, 2), CTX)
             + tp * al.jet("F", rng.randint(0, 1), 0, CTX))
        assert e.degree() == (0, 1)
        assert (e * e).is_zero()


def test_mul_graded_commutativity_on_monomials():
    from gradedsg.grading import commutation_sign
    pairs = [
        (g("theta-"), al.jet("psi-", ctx=CTX)),
        (al.jet("psi+", ctx=CTX), al.jet("F", ctx=CTX)),
        (al.gen("z", al.DEFAULT_CTX), al.jet("psi+", ctx=al.DEFAULT_CTX)),
        (g("alpha"), al.jet("psi-", 2, 1, CTX)),
        (al.jet("X", 1, 0, CTX), al.jet("psi+", ctx=CTX)),
    ]
    for x, y in pairs:
        s = commutation_sign(x.degree(), y.degree())
        assert expr_eq(x * y, (y * x).scale(s))


def test_truncation_soundness():
    rng = random.Random(11)
    lo = al.Context(nz=1, amin=-2, amax=8)
    hi = al.Context(nz=2, amin=-2, amax=8)
    for _ in range(20):
        a = _random_expr(rng, hi, ["X", "F"], 2) * al.gen("z", hi)
        b = _random_expr(rng, hi, ["Y", "psi+"], 2) + al.gen("z", hi)
        drop = lambda e: al.with_context(e, lo)
        assert expr_eq(drop(a * b), drop(drop(a) * drop(b)))
        assert expr_eq(drop(a + b), drop(a) + drop(b))


def test_a_window_truncation_flagged():
    e = al.apow(5, CTX) * al.apow(5, CTX)
    assert e.is_zero() and e.truncated
    assert not (al.apow(2, CTX) * al.apow(2, CTX)).truncated


def test_laurent_paired_parameter_product():
    # (a lambda+ sin) * (a^-1 lambda- sin) lands on the alpha line at a^0
    u = al.apow(1, CTX) * g("lambda+") * al.trig("s", {"X": Q(1, 4), "X~": Q(1, 4)}, ctx=CTX)
    v = al.apow(-1, CTX) * g("lambda-") * al.trig("s", {"X~": Q(1, 4), "X": Q(-1, 4)}, ctx=CTX)
    prod = u * v
    assert all(key[5] == 0 for key in prod.terms)          # a-power zero
    assert all(key[3] == al.CF_ALPHA for key in prod.terms)  # alpha line
    assert not prod.is_zero()


# ---------------------------------------------------------------------------
# trig layer

def test_product_to_sum_examples():
    u = {"X": Q(1, 2)}
    s, c = al.trig("s", u, ctx=CTX), al.trig("c", u, ctx=CTX)
    one = al.GradedExpr.rational(1, CTX)
    assert expr_eq(s * s + c * c, one)
    cu = al.trig("c", {"X": Q(1)}, ctx=CTX)
    assert expr_eq(s * s, (one - cu).scale(Q(1, 2)))
    # cos(u) sin(v) = 1/2 sin(u+v) - 1/2 sin(u-v)
    cv = al.trig("c", {"X": Q(1, 3)}, ctx=CTX)
    sv = al.trig("s", {"X~": Q(1, 5)}, ctx=CTX)
    lhs = cv * sv
    rhs = (al.trig("s", {"X": Q(1, 3), "X~": Q(1, 5)}, ctx=CTX)
           - al.trig("s", {"X": Q(1, 3), "X~": Q(-1, 5)}, ctx=CTX)).scale(Q(1, 2))
    assert expr_eq(lhs, rhs)


def test_quarter_angle_sum_identity():
    # cos((Xt-X)/4) sin((Xt+X)/4) + cos((Xt+X)/4) sin((Xt-X)/4) = sin(Xt/2)
    cm = al.trig("c", {"X~": Q(1, 4), "X": Q(-1, 4)}, ctx=CTX)
    sp = al.trig("s", {"X~": Q(1, 4), "X": Q(1, 4)}, ctx=CTX)
    cp = al.trig("c", {"X~": Q(1, 4), "X": Q(1, 4)}, ctx=CTX)
    sm = al.trig("s", {"X~": Q(1, 4), "X": Q(-1, 4)}, ctx=CTX)
    assert expr_eq(cm * sp + cp * sm, al.trig("s", {"X~": Q(1, 2)}, ctx=CTX))


def test_trig_canonicalization():
    assert al.trig("s", {"X": Q(0)}, ctx=CTX).is_zero()
    assert expr_eq(al.trig("c", {}, Q(0), CTX), al.GradedExpr.rational(1, CTX))
    # sin(-w) = -sin(w), cos(-w) = cos(w)
    assert expr_eq(al.trig("s", {"X": Q(-1, 2)}, ctx=CTX),
                   -al.trig("s", {"X": Q(1, 2)}, ctx=CTX))
    assert expr_eq(al.trig("c", {"X": Q(-1, 2)}, ctx=CTX),
                   al.trig("c", {"X": Q(1, 2)}, ctx=CTX))
    # pi shifts
    assert expr_eq(al.trig("s", {"X": Q(1)}, Q(1), CTX),
                   -al.trig("s", {"X": Q(1)}, ctx=CTX))
    assert expr_eq(al.trig("s", {"X": Q(1)}, Q(1, 2), CTX),
                   al.trig("c", {"X": Q(1)}, ctx=CTX))
    assert al.trig("s", {}, Q(2), CTX).is_zero()
    assert expr_eq(al.trig("c", {}, Q(1), CTX), al.GradedExpr.rational(-1, CTX))


def test_trig_of_pure_body():
    X = al.jet("X", ctx=CTX)
    assert expr_eq(al.trig_of("s", X, Q(1, 2)),
                   al.trig("s", {"X": Q(1, 2)}, ctx=CTX))
    assert expr_eq(al.trig_of("c", al.GradedExpr.zero(CTX)),
                   al.GradedExpr.rational(1, CTX))
    two_pi = al.jet("pi", ctx=CTX).scale(2)
    assert al.trig_of("s", two_pi).is_zero()


def test_trig_of_superfield_matches_manual_taylor():
    # sin(Phi/2) for Phi = X + th- psi+ + th+ psi- + th- th+ F against a
    # hand-expanded two-term nilpotent Taylor series
    ctx = CTX
    tm, tp = g("theta-"), g("theta+")
    X, F = al.jet("X", ctx=ctx), al.jet("F", ctx=ctx)
    psi_p, psi_m = al.jet("psi+", ctx=ctx), al.jet("psi-", ctx=ctx)
    phi = X + tm * psi_p + tp * psi_m + tm * (tp * F)
    got = al.trig_of("s", phi, Q(1, 2))
    s = al.trig("s", {"X": Q(1, 2)}, ctx=ctx)
    c = al.trig("c", {"X": Q(1, 2)}, ctx=ctx)
    nil = (tm * psi_p + tp * psi_m + tm * (tp * F)).scale(Q(1, 2))
    manual = s + c * nil - (s * nil * nil).scale(Q(1, 2))
    assert expr_eq(got, manual)
    # spot-check the theta-theta- theta+ sector content
    sectors = al.component_split(got)
    expect = (F * c).scale(Q(1, 2)) - (psi_p * psi_m * s).scale(Q(1, 4))
    assert expr_eq(sectors[(1, 1)], expect)


def test_trig_of_errors():
    with pytest.raises(NotScalarDegree):
        al.trig_of("s", al.jet("psi+", ctx=CTX))
    with pytest.raises(NonNilpotentRemainder):
        al.trig_of("s", al.jet("X", 0, 1, CTX))  # derivative jet: not a body
    with pytest.raises(UnsupportedAtom):
        al.trig_of("s", al.jet("X", ctx=CTX) + 1)  # bare rational offset


# ---------------------------------------------------------------------------
# substitution, series coefficients, text form

def test_substitute_fields_and_bodies():
    ctx = CTX
    tm = g("theta-")
    psi_p = al.jet("psi+", ctx=ctx)
    e = tm * psi_p + al.jet("psi+", 1, 0, ctx)
    zero = al.GradedExpr.zero(ctx)
    assert al.substitute(e, {"psi+": zero}).is_zero()
    assert expr_eq(al.substitute(e, {"psi+": psi_p}), e)  # identity binding
    # body substitution rebuilds trig arguments
    s = al.trig("s", {"X": Q(1, 2)}, ctx=ctx)
    out = al.substitute(s, {"X": al.jet("X~", ctx=ctx)})
    assert expr_eq(out, al.trig("s", {"X~": Q(1, 2)}, ctx=ctx))


def test_substitute_jets_reexpands_trig_arguments():
    s = al.trig("s", {"X": Q(1, 2)}, ctx=CTX)
    rule = al.JetRewriter([(("X", 0, 0), al.jet("X~", ctx=CTX))]).rule
    out = al.substitute_jets(s, rule)
    assert al.to_text(out) == "sin(1/2*X~)"
    assert expr_eq(out, al.trig("s", {"X~": Q(1, 2)}, ctx=CTX))
    # the pi offset survives the re-expansion
    c = al.trig("c", {"X": Q(1)}, Q(1, 3), ctx=CTX)
    assert expr_eq(al.substitute_jets(c, rule), al.trig("c", {"X~": Q(1)}, Q(1, 3), ctx=CTX))


def test_substitute_checks_degree_and_weight():
    from gradedsg.errors import DegreeMismatch, WeightMismatch
    psi_p = al.jet("psi+", ctx=CTX)
    with pytest.raises(DegreeMismatch):
        al.substitute(psi_p, {"psi+": al.jet("F", ctx=CTX)})
    with pytest.raises(WeightMismatch):
        # right degree (0,1) but jet-shifted weight
        al.substitute(psi_p, {"psi+": al.jet("psi+", 1, 0, CTX)})


def test_jet_rewriter_picks_most_specific_base():
    A, B = al.jet("Y", ctx=CTX), al.jet("Y", 0, 2, CTX).scale(3)
    r = al.JetRewriter([(("X", 1, 0), A), (("X", 0, 1), B), (("X", 0, 2), A)])
    assert r.rule("X", 0, 0) is None
    assert r.rule("Y", 1, 0) is None
    assert expr_eq(r.rule("X", 1, 1), al.d_plus(A))  # tie: listed first wins
    assert expr_eq(r.rule("X", 0, 3), al.d_plus(A))  # (0,2) beats (0,1)
    assert expr_eq(r.rule("X", 2, 1), al.d_minus(al.d_plus(A)))


def test_jet_rewriter_non_termination():
    X, Y = al.jet("X", ctx=CTX), al.jet("Y", ctx=CTX)
    r = al.JetRewriter([(("X", 0, 0), X + Y)])
    with pytest.raises(NonTermination):
        r.reduce(X)


def test_series_coefficient():
    ctx = CTX
    X = al.jet("X", ctx=ctx)
    e = al.apow(1, ctx) * X + al.apow(-1, ctx) * al.jet("Y", ctx=ctx)
    assert expr_eq(al.series_coefficient(e, 1), X)
    assert al.series_coefficient(e, 0).is_zero()
    assert expr_eq(al.series_coefficient(al.apow(1, ctx) * X, 0),
                   al.GradedExpr.zero(ctx))
    with pytest.raises(OutsideWindow):
        al.series_coefficient(e, 100)


def test_text_form_is_sorted_and_exact():
    e = al.jet("X", ctx=CTX).scale(Q(3, 2)) - g("theta-") * al.jet("psi+", ctx=CTX)
    assert al.to_text(e) == "3/2*X - theta-*psi+"
    assert al.to_text(al.GradedExpr.zero(CTX)) == "0"


def test_mirror_involution():
    e = (g("theta-") * al.jet("psi+", 2, 1, CTX) * g("lambda+")
         + al.vpow(1, CTX) * al.jet("X", 1, 0, CTX))
    m = al.mirror_pm(e)
    assert expr_eq(al.mirror_pm(m), e)  # involutive
    expect = (g("theta+") * al.jet("psi-", 1, 2, CTX) * g("eta+")
              + al.vpow(-1, CTX) * al.jet("X", 0, 1, CTX))
    assert expr_eq(m, expect)


def test_sabotage_hook_scoped():
    sab = CTX._replace(commuting_params=True)
    lm, lp = al.gen("lambda-", sab), al.gen("lambda+", sab)
    assert expr_eq(lm * lp, al.gen("alpha", sab))
    assert expr_eq(g("lambda-") * g("lambda+"), -g("alpha"))


def _random_graded(rng, ctx):
    pool = [
        lambda: al.gen("theta-", ctx),
        lambda: al.gen("theta+", ctx),
        lambda: al.gen("alpha", ctx),
        lambda: al.gen("lambda+", ctx),
        lambda: al.gen("lambda-", ctx),
        lambda: al.apow(rng.randint(-1, 2), ctx),
        lambda: al.jet("psi+", rng.randint(0, 1), rng.randint(0, 1), ctx),
        lambda: al.jet("psi-", 0, rng.randint(0, 1), ctx),
        lambda: al.jet("F", 0, 0, ctx),
        lambda: al.jet("X", rng.randint(0, 1), 0, ctx),
        lambda: al.trig("s", {"X": Q(rng.randint(1, 2), 2)}, ctx=ctx),
    ]
    out = al.GradedExpr.zero(ctx)
    for _ in range(rng.randint(1, 3)):
        term = al.GradedExpr.rational(Q(rng.randint(-2, 2), rng.randint(1, 2)), ctx)
        for _ in range(rng.randint(1, 3)):
            term = term * rng.choice(pool)()
        out = out + term
    return out


def test_mul_associative_on_random_expressions():
    rng = random.Random(2024)
    for _ in range(40):
        a = _random_graded(rng, CTX)
        b = _random_graded(rng, CTX)
        c = _random_graded(rng, CTX)
        left = (a * b) * c
        right = a * (b * c)
        # a-window truncation can differ between association orders, so
        # compare inside a safely interior window
        inner = al.Context(nz=0, amin=CTX.amin + 3, amax=CTX.amax - 3)
        assert expr_eq(al.with_context(left, inner), al.with_context(right, inner))


def test_canonical_form_survives_refactoring():
    # rebuilding every monomial from its single-slot factors reproduces the
    # expression exactly: the normal form is a fixed point of normalization
    rng = random.Random(77)
    for _ in range(25):
        e = _random_graded(rng, CTX)
        rebuilt = al.GradedExpr.zero(CTX)
        for key, coef in e.terms.items():
            term = al.GradedExpr.rational(coef, CTX)
            for factor in al._term_factors(key, CTX):
                term = term * factor
            rebuilt = rebuilt + term
        assert expr_eq(e, rebuilt)


def test_derivative_leibniz_ordering_sign():
    # d-(psi+ * d+psi+): the first Leibniz term needs one odd swap to land
    # in normal order; compare against products built directly
    ctx = CTX
    e = al.jet("psi+", 0, 0, ctx) * al.jet("psi+", 0, 1, ctx)
    got = al.d_x(e, "-")
    expect = (al.jet("psi+", 1, 0, ctx) * al.jet("psi+", 0, 1, ctx)
              + al.jet("psi+", 0, 0, ctx) * al.jet("psi+", 1, 1, ctx))
    assert expr_eq(got, expect)


def test_derivations_are_graded_leibniz():
    # D(ab) = D(a) b + sign * a D(b) for the odd derivation d/dtheta-
    from gradedsg.grading import commutation_sign, Degree
    rng = random.Random(5)
    for _ in range(20):
        a = _random_graded(rng, CTX)
        b = _random_graded(rng, CTX)
        try:
            da = a.degree()
        except al.InhomogeneousExpression:
            continue
        if da is None:
            continue
        s = commutation_sign(Degree(0, 1), da)
        lhs = al.d_theta(a * b, "-")
        rhs = al.d_theta(a, "-") * b + (a * al.d_theta(b, "-")).scale(s)
        assert expr_eq(lhs, rhs)
