import itertools
import math
import random
import sys
from fractions import Fraction as Q

import pytest

from gradedsg import algebra as al
from gradedsg.errors import (ConfigError, ContextMismatch, MixedParameterFamilies,
                             NonNilpotentRemainder, NonTermination, NotScalarDegree,
                             OutsideWindow, UnknownSymbol, UnsupportedAtom)

from factor_chain import substitute_by_factors
from sabotage import commuting_parameters

CTX = al.BT_CTX


def g(name):
    return al.gen(name, CTX)


def expr_eq(a, b):
    return (a - b).is_zero()


def project(e, ctx):
    """``e`` rebuilt in ``ctx``, which keeps only what that window admits."""
    return al.GradedExpr(ctx, e.coefficients(), e.prec)


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
        drop = lambda e: project(e, lo)
        assert expr_eq(drop(a * b), drop(drop(a) * drop(b)))
        assert expr_eq(drop(a + b), drop(a) + drop(b))


# every one-term constructor, as (label, build in a context)
ONE_TERM_ATOMS = [
    *((f"gen {name}", lambda ctx, name=name: al.gen(name, ctx)) for name in al.GENERATORS),
    *((f"apow {k}", lambda ctx, k=k: al.apow(k, ctx)) for k in range(-4, 11)),
    ("vpow 2", lambda ctx: al.vpow(2, ctx)),
    ("vpow -3", lambda ctx: al.vpow(-3, ctx)),
    ("jet psi+_{-+}", lambda ctx: al.jet("psi+", 1, 1, ctx)),
    ("jet G", lambda ctx: al.jet("G", ctx=ctx)),
    ("jet pi_{-}", lambda ctx: al.jet("pi", 1, 0, ctx)),
    ("trig", lambda ctx: al.trig("c", {"X": Q(1, 2), "pi": Q(1, 3)}, ctx=ctx)),
    ("rational", lambda ctx: al.GradedExpr.rational(Q(-3, 2), ctx)),
]
# holds every one-term atom exactly
ONE_TERM_WIDE = al.Context(nz=1, amin=-4, amax=10)


@pytest.mark.parametrize("nz", [0, 1])
@pytest.mark.parametrize("amax", [0, 1, 8])
def test_one_term_constructors_keep_what_their_window_admits(nz, amax):
    # a one-term atom is what a wide window holds, projected into its own:
    # z vanishes at z-order 0, and a power of a outside it is dropped into
    # the precision, as a product would do
    ctx = al.Context(nz=nz, amin=-2, amax=amax)
    for label, build in ONE_TERM_ATOMS:
        got, want = build(ctx), project(build(ONE_TERM_WIDE), ctx)
        assert (got, got.prec) == (want, want.prec), label
    assert al.gen("z", ctx).is_zero() == (nz == 0)
    assert al.gen("z", ctx).prec is None


def test_a_window_truncation_flagged():
    e = al.apow(5, CTX) * al.apow(5, CTX)
    assert e.is_zero() and e.prec == 10
    assert (al.apow(2, CTX) * al.apow(2, CTX)).prec is None
    # substitution keeps the precision of its input
    keep = al.JetRewriter([])
    kept = al.substitute_jets(e + al.jet("X", ctx=CTX), keep.rule, keep.floor)
    assert kept.prec == 10


def test_a_window_test_keeps_its_place_among_the_zero_tests():
    # an odd jet repeated outside the a-window is truncated: the window test
    # comes before the jet merge, as it always has
    odd = al.apow(5, CTX) * al.jet("psi+", ctx=CTX)
    e = odd * odd
    assert e.is_zero() and e.prec == 10
    # and so is a product of the two parameter families, which inside the
    # window raises MixedParameterFamilies
    e = (al.apow(5, CTX) * g("lambda+")) * (al.apow(5, CTX) * g("eta+"))
    assert e.is_zero() and e.prec == 10
    # a product that overflows nz, or repeats a theta, is zero before the
    # window test, so it is not truncated however far outside the window
    wide = al.DEFAULT_CTX
    odd_z = al.gen("z", wide) * al.apow(5, wide) * al.jet("psi+", ctx=wide)
    e = odd_z * odd_z
    assert e.is_zero() and e.prec is None
    odd_t = g("theta-") * al.apow(5, CTX) * al.jet("psi+", ctx=CTX)
    e = odd_t * odd_t
    assert e.is_zero() and e.prec is None


def test_both_bracketings_agree_below_the_precision():
    # a term dropped above amax comes back into the window after a product
    # with a^-2: the precision says which orders are still exact
    a5, a_2 = al.apow(5, CTX), al.apow(-2, CTX)
    left, right = (a5 * a5) * a_2, a5 * (a5 * a_2)
    assert left.is_zero() and left.prec == 8
    assert al.to_text(right) == "a^8" and right.prec is None
    for n in range(CTX.amin, CTX.amax + 1):
        if n < left.prec:
            assert al.series_coefficient(left, n) == al.series_coefficient(right, n)
        else:
            with pytest.raises(OutsideWindow):
                al.series_coefficient(left, n)


def test_precision_of_sums_products_and_projections():
    a = al.gen("a", CTX)
    # a sum keeps the lower precision; a product adds the other's valuation
    loose = al.apow(9, CTX) + al.jet("X", ctx=CTX)
    assert loose.prec == 9 and (loose + al.apow(10, CTX)).prec == 9
    assert (loose * a).prec == 10 and (loose * al.apow(-1, CTX)).prec == 8
    # the valuation of a zero with a precision is that precision
    assert (al.apow(9, CTX) * al.apow(10, CTX)).prec == 19
    # an exact zero factor makes the product exact
    assert (loose * al.GradedExpr.zero(CTX)).prec is None
    # a term at or past the precision is not certified, so it is not held:
    # a truncated series has one canonical form
    short = al.apow(9, CTX) * al.apow(-2, CTX)
    assert short.prec == 7
    for tail in (al.apow(7, CTX), al.apow(8, CTX)):
        assert short + tail == short and not (short + tail).terms
    # a linear combination keeps the lowest precision among its parts with a
    # nonzero multiplier; a part multiplied by 0 adds no terms and no
    # precision, as scale(0) does
    X = al.jet("X", ctx=CTX)
    mix = al.combine([(Q(1, 2), loose), (-3, short), (0, al.apow(-1, CTX) * al.apow(-2, CTX))])
    assert mix.prec == 7 and mix == (loose.scale(Q(1, 2)) - short.scale(3))
    assert al.combine([(Q(5, 6), loose), (2, X)]).prec == 9
    exact = al.combine([(0, loose), (Q(-1, 6), X), (0, short)])
    assert exact.prec is None and exact == X.scale(Q(-1, 6))
    assert loose.scale(0).prec is None and al.combine([(0, loose)]) == al.GradedExpr.zero(CTX)
    with pytest.raises(ContextMismatch):
        al.combine([(1, X), (1, al.jet("X", ctx=al.DEFAULT_CTX))])
    with pytest.raises(ContextMismatch):  # also for a part multiplied by 0
        al.combine([(1, X), (0, al.jet("X", ctx=al.DEFAULT_CTX))])
    for q in (1.5, 0.0):
        with pytest.raises(ConfigError):
            al.combine([(1, X), (q, loose)])
    # a drop below amin leaves nothing certified in the window, until a
    # product lifts the dropped a^-3 back into it
    low = al.apow(-1, CTX) * al.apow(-2, CTX)
    assert low.prec == -3
    with pytest.raises(OutsideWindow):
        al.series_coefficient(low, CTX.amin)
    lifted = low * al.apow(5, CTX)
    assert lifted.prec == 2 and al.series_coefficient(lifted, 1).is_zero()
    with pytest.raises(OutsideWindow):
        al.series_coefficient(lifted, 2)
    # derivatives, splits and projections keep or lower it
    assert al.d_x(loose, "+").prec == al.d_theta(loose, "-").prec == 9
    assert project(loose + al.apow(4, CTX), al.Context(0, -2, 3)).prec == 4
    assert project(al.jet("X", ctx=CTX), al.Context(0, -2, 3)).prec is None


def test_a_lowering_substitution_refuses_an_inexact_expression():
    # X + O(a^10) with X -> a^-2 X~ would certify a^8 as 0, where the wider
    # window Context(0, -2, 12) holds X~ there
    X, Xt, a_2 = al.jet("X", ctx=CTX), al.jet("X~", ctx=CTX), al.apow(-2, CTX)
    a5 = al.apow(5, CTX)
    loose = X + a5 * a5
    wide = al.Context(0, -2, 12)
    want = al.substitute(project(X, wide) + al.apow(10, wide) * project(X, wide),
                         {"X": al.apow(-2, wide) * project(Xt, wide)})
    assert al.to_text(al.series_coefficient(want, 8)) == "X~"
    rewriter = al.JetRewriter([(("Y", 0, 0), Xt), (("X", 0, 0), a_2 * Xt)])
    with pytest.raises(OutsideWindow):
        al.substitute(loose, {"X": a_2 * Xt})
    # a rule of unknown floor is refused too
    with pytest.raises(OutsideWindow):
        al.substitute_jets(loose, rewriter.rule)
    # the dropped terms may hold a bound jet that the kept ones do not: the
    # rule's floor refuses what no replacement met would show
    assert rewriter.floor == -2
    with pytest.raises(OutsideWindow):
        al.substitute_jets(al.jet("Y", ctx=CTX) + a5 * a5, rewriter.rule, rewriter.floor)
    # an exact expression, or a rule with no negative power, is substituted
    assert al.to_text(al.substitute(X, {"X": a_2 * Xt})) == "a^-2*X~"
    kept = al.substitute(loose, {"X": al.gen("a", CTX) * Xt})
    assert al.to_text(kept) == "a*X~" and kept.prec == 10


def test_trig_precision_follows_the_vanished_power():
    X, psi = al.jet("X", ctx=CTX), al.jet("psi+", ctx=CTX)
    pair = psi * al.jet("psi+", 0, 1, CTX)  # even and squares to zero
    # a remainder that vanishes exactly leaves an exact expansion
    assert al.trig_of("s", X + pair).prec is None
    # Y a^3 is not nilpotent: its powers vanish at a^9 = a^(3 * 3), not
    # before, so the tail is O(a^9); with a^-1 in the remainder no order
    # is certified at all
    body = al.jet("Y", ctx=CTX)
    assert al.trig_of("s", X + al.apow(3, CTX) * body).prec == 9
    tail = al.trig_of("c", X + al.apow(3, CTX) * body + al.apow(-1, CTX) * pair)
    assert tail.prec == -math.inf
    with pytest.raises(OutsideWindow):
        al.series_coefficient(tail, CTX.amin)


# ---------------------------------------------------------------------------
# representation: interned trig atoms, integer coefficients

def test_equal_trig_atoms_are_one_object():
    u = {"X": Q(1, 2), "X~": Q(-3)}
    built = _key(al.trig("s", u, Q(1, 3), CTX))[8]
    _, canon = al._canon_trig("s", u, Q(1, 3))
    # d- cos(u) = -u_- sin(u): the chain rule makes its sine atom itself
    chained = [key[8] for key in al.d_x(al.trig("c", u, Q(1, 3), CTX), "-").terms]
    assert type(built) is int and canon == built
    assert len(chained) == 2 and all(atom == built for atom in chained)
    # the id stands for its canonical triple, which interns back to it, and
    # the chain rule's cosine partner has this sine as its own partner
    triple = ("s", (("X", Q(1, 2)), ("X~", Q(-3))), Q(1, 3))
    assert al.trig_parts(built) == triple and al._trig_atom(*triple) == built
    partner = al._TRIGS[built][4]
    assert al.trig_parts(partner) == ("c", *triple[1:]) and al._TRIGS[partner][4] == built


def python_calls(fn, *args):
    """Names of the Python-level functions entered while ``fn(*args)`` runs;
    ``fn`` itself is entered when it is a Python function."""
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def test_keys_sort_by_contents_not_by_id():
    # ids follow the order of first use: a sine interned before its cosine
    # and a higher jet before a lower one still print in content order
    u = {"X": Q(5, 7), "X~": Q(3, 11)}
    sin, cos = al.trig("s", u, ctx=CTX), al.trig("c", u, ctx=CTX)
    high, low = al.jet("Y~", 0, 7, CTX), al.jet("Y~", 0, 6, CTX)
    assert _key(sin)[8] < _key(cos)[8] and _key(high)[7] < _key(low)[7]
    assert al.to_text(sin + cos) == "cos(5/7*X + 3/11*X~) + sin(5/7*X + 3/11*X~)"
    assert al.to_text(high + low) == "Y~_{++++++} + Y~_{+++++++}"


def test_an_expression_is_not_hashable():
    # equality ignores the precision, so a hash would make X and X + O(a^3)
    # one key of a dict or a cache
    X = al.jet("X", ctx=CTX)
    loose = X + al.GradedExpr(CTX, prec=3)
    assert X == loose and loose.prec == 3
    with pytest.raises(TypeError):
        hash(X)


def test_hashing_a_key_makes_no_python_call():
    # jet and trig slots hold interned int ids, so hashing a key with graded
    # jets, scalar jets and a trig atom, and a hit of the product cache on
    # two such keys, run in C alone
    u = {"X": Q(1, 2), "X~": Q(-3)}
    k1 = _key(g("theta-") * g("lambda+") * al.jet("psi+", 1, 0, CTX) * al.jet("F", ctx=CTX)
              * al.jet("X", 0, 1, CTX) * al.jet("Y", ctx=CTX) * al.trig("s", u, Q(1, 3), CTX))
    k2 = _key(al.apow(2, CTX) * al.jet("psi-", ctx=CTX) * al.jet("X~", 2, 0, CTX)
              * al.trig("c", {"X": Q(1)}, ctx=CTX))
    assert all(al.jets_of(slot) for slot in k1[6:8]) and k1[8] is not None
    assert len(al._mul_keys_cached(k1, k2)) == 2  # a product-to-sum pair, now cached
    hits = al._mul_keys_cached.cache_info().hits
    assert python_calls(hash, k1) == []
    assert python_calls(al._mul_keys_cached, k1, k2) == []
    assert al._mul_keys_cached.cache_info().hits == hits + 1


def test_integral_coefficients_are_stored_as_ints(monkeypatch):
    # every constructor leaves int numerators over a positive int
    # denominator in canonical form; the accessor gives an int for an
    # integral coefficient and a Fraction otherwise
    from gradedsg import backlund as bt
    offenders, values = [], []

    def check(e):
        nums = list(e.terms.values())
        if not (type(e.den) is int and e.den > 0
                and all(type(c) is int and c for c in nums)
                and math.gcd(e.den, *nums) == 1 and (nums or e.den == 1)):
            offenders.append((e.den, nums))
        for _, c in e.coefficients():
            values.append(c)
            if not (type(c) is int or (type(c) is Q and c.denominator > 1)):
                offenders.append(c)

    init, from_ints = al.GradedExpr.__init__, al._from_ints

    def checking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        check(self)

    def checking_from_ints(*args, **kwargs):
        e = from_ints(*args, **kwargs)
        check(e)
        return e

    monkeypatch.setattr(al.GradedExpr, "__init__", checking_init)
    monkeypatch.setattr(al, "_from_ints", checking_from_ints)
    rng = random.Random(3)
    X = al.jet("X", ctx=CTX)
    half = al.trig("s", {"X": Q(1, 2)}, ctx=CTX)
    for _ in range(10):
        a = _random_expr(rng, CTX, ["X", "psi+", "F"], 3)
        b = _random_expr(rng, CTX, ["Y", "psi-", "X"], 3)
        # 3/2 + 1/2 and 2 * 1/2 leave a common factor to divide out
        a.scale(Q(3, 2)) + a.scale(Q(1, 2))
        a.scale(2) * b.scale(Q(1, 2))
        al.d_x(a * b * half, "+")
        al.substitute(a, {"X": X.scale(Q(1, 2)) + X})
        half * half
    bt.conservation_audit(bt.BTSystem(order=6, ctx=al.Context(0, -2, 8)), 4)
    assert offenders == []
    assert {type(c) for c in values} == {int, Q}


# ---------------------------------------------------------------------------
# the normaliser

def _key(e):
    (key, _), = e.terms.items()
    return key


def test_constructor_sums_repeated_keys():
    kx, ky = _key(al.jet("X", ctx=CTX)), _key(al.jet("Y", ctx=CTX))
    e = al.GradedExpr(CTX, [(kx, Q(1, 2)), (ky, Q(1)), (al.KEY_ONE, Q(0)),
                            (kx, Q(1, 3)), (ky, Q(-1))])
    assert dict(e.coefficients()) == {kx: Q(5, 6)}
    assert e.terms == {kx: 5} and e.den == 6
    # distinct denominators go over their lcm
    mixed = al.GradedExpr(CTX, [(kx, Q(1, 2)), (ky, Q(-1, 3)), (al.KEY_ONE, 1)])
    assert mixed.terms == {kx: 3, ky: -2, al.KEY_ONE: 6} and mixed.den == 6
    assert dict(mixed.coefficients()) == {kx: Q(1, 2), ky: Q(-1, 3), al.KEY_ONE: 1}
    # a key that cancelled and comes back starts afresh
    back = al.GradedExpr(CTX, [(kx, Q(1)), (kx, Q(-1)), (kx, Q(2))])
    assert dict(back.coefficients()) == {kx: 2}
    assert al.GradedExpr(CTX, iter([(kx, Q(1)), (kx, Q(-1))])).terms == {}
    assert al.GradedExpr(CTX).terms == {} and al.GradedExpr(CTX).den == 1


def test_operations_store_no_zero_coefficient():
    X = al.jet("X", ctx=CTX)
    assert dict((X + X).coefficients()) == {_key(X): 2}
    assert (X - X).terms == {}
    assert X.scale(0).terms == {} and al.GradedExpr.rational(0, CTX).terms == {}
    # (l+ + l-)^2 = v+ + alpha - alpha - v-: the alpha products cancel inside one product
    lp, lm = g("lambda+"), g("lambda-")
    sq = (lp + lm) * (lp + lm)
    assert sq == al.vpow(1, CTX) - al.vpow(-1, CTX)
    assert _key(g("alpha")) not in sq.terms
    rng = random.Random(5)
    for _ in range(10):
        a = _random_expr(rng, CTX, ["X", "psi+", "F"], 3)
        b = _random_expr(rng, CTX, ["Y", "psi-", "X"], 3)
        for e in (a + b, a - a, a * b, a * b - b * a, al.d_x(a * b, "+"),
                  al.mirror_pm(a) + al.mirror_pm(b)):
            assert all(c != 0 for _, c in e.coefficients())


def test_substitute_jets_accumulates_without_adding(monkeypatch):
    X, Y = al.jet("X", ctx=CTX), al.jet("Y", ctx=CTX)
    monos = [al.jet("X", m, n, CTX) * (Y if k == 1 else Y * Y)
             for m in range(5) for n in range(5) for k in (1, 2)]
    e = al.GradedExpr(CTX, [(_key(mono), Q(m + 1)) for m, mono in enumerate(monos)])
    assert len(e.terms) == 50 and all(k[8] is None for k in e.terms)
    repl = X.scale(2) + 1
    keep = al.JetRewriter([]).rule
    bind_y = al.JetRewriter([(("Y", 0, 0), repl)]).rule
    calls = []

    def counting_add(self, other):
        calls.append(1)
        return add(self, other)

    add = al.GradedExpr.__add__
    monkeypatch.setattr(al.GradedExpr, "__add__", counting_add)
    monkeypatch.setattr(al.GradedExpr, "__radd__", counting_add)
    same = al.substitute_jets(e, keep)
    bound = al.substitute_jets(e, bind_y)
    assert calls == []
    monkeypatch.undo()
    assert same == e
    want = al.GradedExpr.zero(CTX)
    for m, mono in enumerate(monos):
        (name, mm, nn), _ = al.jets_of(_key(mono)[7])[0]
        k = 1 if m % 2 == 0 else 2
        want = want + al.jet("X", mm, nn, CTX) * (repl if k == 1 else repl * repl).scale(m + 1)
    assert bound == want


def test_substitute_jets_puts_pieces_over_one_denominator():
    # a kept term, and rewritten terms whose own denominators differ from it
    # and from each other
    X, Y, Xt = (al.jet(n, ctx=CTX) for n in ("X", "Y", "X~"))
    e = (X * Y).scale(Q(2, 3)) + Xt.scale(Q(1, 5)) + (Y * Y).scale(Q(3, 7))
    repl = X.scale(Q(1, 2)) + Q(1, 4)
    got = al.substitute_jets(e, al.JetRewriter([(("Y", 0, 0), repl)]).rule)
    want = (X * repl).scale(Q(2, 3)) + Xt.scale(Q(1, 5)) + (repl * repl).scale(Q(3, 7))
    assert got == want
    assert al.to_text(got) == "3/112 + 23/84*X + 37/84*X^2 + 1/5*X~"


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

def test_constant_angles_have_one_form():
    # cos(t*pi) = sin((1/2 - t)*pi): without one form per constant angle,
    # the two orders of sin(u) sin(u + pi/4) differed by cos(pi/4) - sin(pi/4)
    u = {"X": Q(1)}
    s, s4 = al.trig("s", u, ctx=CTX), al.trig("s", u, Q(1, 4), CTX)
    assert (s * s4 - s4 * s).is_zero()
    assert expr_eq(al.trig("c", {}, Q(1, 3), CTX), al.trig("s", {}, Q(1, 6), CTX))
    assert expr_eq(al.trig("c", {}, Q(-1, 4), CTX), al.trig("s", {}, Q(1, 4), CTX))
    assert al.to_text(al.trig("c", {}, Q(1, 4), CTX)) == "sin(1/4*pi)"


def test_rational_constant_angles_are_exact():
    # by Niven's theorem sin(t*pi), 0 < t < 1/2, is rational only at t = 1/6
    half = al.GradedExpr.rational(Q(1, 2), CTX)
    for kind, t, value in (("s", Q(1, 6), half), ("c", Q(1, 3), half),
                           ("s", Q(5, 6), half), ("c", Q(2, 3), -half)):
        assert expr_eq(al.trig(kind, {}, t, CTX), value), (kind, t)
    quarter = al.trig("s", {}, Q(1, 4), CTX)
    assert len(quarter.terms) == 1 and next(iter(quarter.terms))[8] is not None


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


def test_a_stored_expansion_equals_a_fresh_one():
    # trig_of keeps each expansion on the expression it expands; a second
    # read must be what an equal-valued copy, which holds nothing stored,
    # expands to, exact or not
    tm, tp = g("theta-"), g("theta+")
    X = al.jet("X", ctx=CTX)
    exact = X + tm * al.jet("psi+", ctx=CTX) + tm * (tp * al.jet("F", ctx=CTX))
    inexact = X + al.apow(2, CTX) * al.jet("Y", ctx=CTX) + al.GradedExpr(CTX, prec=7)
    assert exact.prec is None and inexact.prec == 7
    for arg in (exact, inexact):
        copy = al.GradedExpr(CTX, arg.coefficients(), arg.prec)
        for kind in ("s", "c"):
            for half in (1, Q(1, 2), Q(1, 4)):
                first = al.trig_of(kind, arg, half)
                fresh = al.trig_of(kind, copy, half)
                want = (al.to_text(fresh), fresh.den, fresh.prec)
                for got in (first, al.trig_of(kind, arg, half)):
                    assert (al.to_text(got), got.den, got.prec) == want, (kind, half)


def test_a_failed_expansion_is_not_stored():
    X, psi = al.jet("X", ctx=CTX), al.jet("psi+", ctx=CTX)
    odd, loose, offset = psi, al.jet("X", 0, 1, CTX), X + 1
    al.trig_of("s", X, Q(1, 4))  # X holds an expansion from here on
    for _ in range(2):
        with pytest.raises(NotScalarDegree):
            al.trig_of("s", odd)
        with pytest.raises(NonNilpotentRemainder):
            al.trig_of("c", loose)
        with pytest.raises(UnsupportedAtom):
            al.trig_of("s", offset, Q(1, 2))
        # a bad kind, or a half that is no exact rational, raises on an
        # argument with a stored expansion too
        with pytest.raises(ConfigError):
            al.trig_of("t", X, Q(1, 4))
        with pytest.raises(ConfigError):
            al.trig_of("s", X, 0.25)


def test_only_the_bodies_and_pi_enter_trig_arguments():
    # each superfield's body, with no z and no theta, is its one
    # trig-capable component
    assert {name for name, info in al._REGISTRY.items() if info.trig} == {"pi", "X", "X~"}
    for name in ("Y", "G~", "F", "psi-"):
        with pytest.raises(UnsupportedAtom):
            al.trig("s", {name: Q(1)}, ctx=CTX)


def test_no_trig_argument_holds_a_constant_field():
    # pi is folded into the offset wherever an atom is built, so no interned
    # combo holds it and d_x's chain rule need not test for a constant
    X, pi = al.jet("X", ctx=CTX), al.jet("pi", ctx=CTX)
    built = [al.trig("s", {"X": Q(1, 3), "pi": Q(2, 5)}, ctx=CTX),
             al.trig_of("c", X + pi.scale(Q(1, 7)), Q(1, 2)),
             al.trig("s", {"X~": Q(1), "pi": Q(1, 9)}, ctx=CTX)
             * al.trig("c", {"X": Q(2), "pi": Q(1, 11)}, ctx=CTX)]
    assert all(key[8] is not None for e in built for key in e.terms)
    constant = {name for name, info in al._REGISTRY.items() if info.constant}
    assert constant == {"pi"}
    assert not [atom for atom in al._TRIGS[1:] if constant & {s for s, _ in atom[1]}]


@pytest.mark.parametrize("call, error", [
    # a sum and a product across two truncation contexts
    (lambda: al.jet("X", ctx=CTX) + al.jet("X", ctx=al.DEFAULT_CTX), ContextMismatch),
    (lambda: al.jet("X", ctx=CTX) * al.jet("X", ctx=al.DEFAULT_CTX), ContextMismatch),
    (lambda: al.trig_of("t", al.jet("X", ctx=CTX)), ConfigError),
    (lambda: al.trig("t", {"X": 1}, ctx=CTX), ConfigError),
    # names the registry and the generator table do not know
    (lambda: al.field_info("Z"), UnknownSymbol),
    (lambda: al.jet("Z", ctx=CTX), UnknownSymbol),
    (lambda: al.trig("s", {"Z": Q(1)}, ctx=CTX), UnknownSymbol),
    (lambda: al.substitute(al.jet("X", ctx=CTX), {"Z": al.jet("X", ctx=CTX)}), UnknownSymbol),
    (lambda: al.gen("zeta", CTX), UnknownSymbol),
    # a side that is neither '-' nor '+'
    (lambda: al.d_x(al.jet("X", ctx=CTX), "x"), ConfigError),
    (lambda: al.d_x(al.GradedExpr.zero(CTX), "x"), ConfigError),
    (lambda: al._shift_jets(0, "x"), ConfigError),
    (lambda: al.d_theta(g("theta-") * g("theta+"), "?"), ConfigError),
    (lambda: al.chain_factor("x", al.jet("X", ctx=CTX), Q(1, 2),
                             al.jet("X", 1, 0, CTX)), ConfigError),
], ids=["sum contexts", "product contexts", "trig_of kind",
        "trig kind", "field_info", "jet", "trig", "substitute", "gen",
        "d_x side", "d_x side of zero", "shift table side", "d_theta side",
        "chain_factor kind"])
def test_bad_arguments_raise_typed_errors(call, error):
    with pytest.raises(error):
        call()


X_CTX = al.jet("X", ctx=CTX)


@pytest.mark.parametrize("call, operand", [
    (lambda: X_CTX + 0.5, "float"),
    (lambda: 0.5 + X_CTX, "float"),
    (lambda: X_CTX - 0.5, "float"),
    (lambda: 0.5 - X_CTX, "float"),
    (lambda: X_CTX * None, "NoneType"),
    (lambda: 0.5 * X_CTX, "float"),
    (lambda: X_CTX.scale(0.1), "float"),
    (lambda: X_CTX.scale(float("nan")), "float"),
    (lambda: X_CTX.scale("1/2"), "str"),
    (lambda: al.GradedExpr.rational(0.3, CTX), "float"),
], ids=["add float", "radd float", "sub float", "rsub float", "mul None", "rmul float",
        "scale float", "scale nan", "scale str", "rational float"])
def test_inexact_operands_raise_config_errors(call, operand):
    # an exact verdict cannot take a float: 0.1 would enter as its binary
    # expansion, 3602879701896397/36028797018963968
    with pytest.raises(ConfigError, match=operand):
        call()


def test_exact_operands_are_accepted():
    X = X_CTX
    assert al.to_text(X + 1) == al.to_text(1 + X) == "1 + X"
    assert al.to_text(Q(1, 2) - X) == "1/2 - X"
    assert al.to_text(X * Q(1, 2)) == al.to_text(Q(1, 2) * X) == "1/2*X"
    assert X.scale(True) == X and X.scale(0).is_zero()


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


@pytest.mark.parametrize("coefficient", [0.5, "1/2", None])
def test_graded_expr_rejects_inexact_coefficients(coefficient):
    with pytest.raises(ConfigError):
        al.GradedExpr(CTX, [(al.KEY_ONE, coefficient)])


def test_jet_rewriter_picks_most_specific_base():
    A, B = al.jet("Y", ctx=CTX), al.jet("Y", 0, 2, CTX).scale(3)
    r = al.JetRewriter([(("X", 1, 0), A), (("X", 0, 1), B), (("X", 0, 2), A)])
    assert r.rule("X", 0, 0) is None
    assert r.rule("Y", 1, 0) is None
    assert expr_eq(r.rule("X", 1, 1), al.d_x(A, "+"))  # tie: listed first wins
    assert expr_eq(r.rule("X", 0, 3), al.d_x(A, "+"))  # (0,2) beats (0,1)
    assert expr_eq(r.rule("X", 2, 1), al.d_x(al.d_x(A, "+"), "-"))


def test_jet_rewriter_non_termination():
    X, Y = al.jet("X", ctx=CTX), al.jet("Y", ctx=CTX)
    r = al.JetRewriter([(("X", 0, 0), X + Y)])
    with pytest.raises(NonTermination):
        r.reduce(X)


def test_jet_rewriter_two_rule_cycle():
    X, Y = al.jet("X", ctx=CTX), al.jet("Y", ctx=CTX)
    r = al.JetRewriter([(("X", 0, 0), Y), (("Y", 0, 0), X)])
    with pytest.raises(NonTermination, match="needs itself"):
        r.reduce(X + Y)


def test_jet_rewriter_climbing_rule():
    # X -> d-X needs the normal form of every higher d- jet in turn
    r = al.JetRewriter([(("X", 0, 0), al.jet("X", 1, 0, CTX))])
    with pytest.raises(NonTermination):
        r.reduce(al.jet("X", ctx=CTX))


def test_failed_normal_form_leaves_no_mark():
    # a jet whose normal form failed is not taken for one in progress later
    r = al.JetRewriter([(("F", 0, 0), al.trig("s", {"X": Q(1)}, ctx=CTX)),
                        (("X", 0, 0), al.jet("psi+", ctx=CTX))])
    for _ in range(2):
        with pytest.raises(NotScalarDegree):
            r.reduce(al.jet("F", ctx=CTX))


def test_substitute_may_mention_the_bound_field():
    # substitute takes one pass of the plain rules, so X -> 3/2*X is a
    # binding there; as a rewrite rule its normal form needs itself
    X = al.jet("X", ctx=CTX)
    e = X * al.jet("X", 1, 0, CTX)
    assert al.substitute(e, {"X": X.scale(Q(3, 2))}) == e.scale(Q(9, 4))
    with pytest.raises(NonTermination, match="needs itself"):
        al.JetRewriter([(("X", 0, 0), X.scale(Q(3, 2)))]).reduce(X)


def test_substitute_derives_each_bound_jet_once(monkeypatch):
    # X_{-} occurs three times; its replacement is derived once per call
    X, Xm = al.jet("X", ctx=CTX), al.jet("X", 1, 0, CTX)
    e = Xm * al.jet("psi+", ctx=CTX) + Xm * al.jet("psi-", ctx=CTX) + Xm
    directions = []
    d_x = al.d_x

    def counting(expr, direction):
        directions.append(direction)
        return d_x(expr, direction)

    monkeypatch.setattr(al, "d_x", counting)
    assert al.substitute(e, {"X": X.scale(Q(3, 2))}) == e.scale(Q(3, 2))
    assert directions == ["-"]


def test_reduce_is_one_substitution_pass(monkeypatch):
    psi = al.jet("psi+", ctx=CTX)
    r = al.JetRewriter([(("F", 0, 0), psi * al.jet("X", 0, 1, CTX)),
                        (("X", 0, 1), al.jet("Y", ctx=CTX))])
    e = al.jet("F", 1, 0, CTX) + al.jet("F", ctx=CTX) * al.jet("X", 1, 1, CTX)
    inputs = []
    substitute_jets = al.substitute_jets

    def recording(expr, *rule_and_floor):
        inputs.append(expr)
        return substitute_jets(expr, *rule_and_floor)

    monkeypatch.setattr(al, "substitute_jets", recording)
    got = r.reduce(e)
    # the other passes build the memoized normal forms, once per bound jet
    assert [x for x in inputs if x is e] == [e]
    assert len(inputs) == 1 + sum(nf is not None for nf in r._normal.values())
    inputs.clear()
    assert r.reduce(e) == got and inputs == [e]
    Y = al.jet("Y", ctx=CTX)
    assert got == al.d_x(psi * Y, "-") + psi * Y * al.d_x(Y, "-")


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
    # the patched tables act inside the block only, and no product made
    # there stays in the product cache
    with commuting_parameters():
        assert expr_eq(g("lambda-") * g("lambda+"), g("alpha"))
        assert expr_eq(g("eta-") * g("eta+"), g("alpha"))
    assert expr_eq(g("lambda-") * g("lambda+"), -g("alpha"))
    assert expr_eq(g("eta-") * g("eta+"), -g("alpha"))


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
        assert expr_eq(project(left, inner), project(right, inner))


def test_canonical_form_survives_refactoring():
    # rebuilding every monomial from its single-slot factors reproduces the
    # expression exactly: the normal form is a fixed point of normalization
    keep = al.JetRewriter([]).rule
    rng = random.Random(77)
    for _ in range(25):
        e = _random_graded(rng, CTX)
        assert expr_eq(e, substitute_by_factors(e, keep))
        assert al.substitute_jets(e, keep) is e


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
