"""Property tests for the algebra laws of the kernel and the derivations.

Hypothesis draws homogeneous monomials over every slot of a monomial key
(z, both thetas, one spinor-parameter family, v, a, graded and scalar jets,
a trig atom), with integral and non-integral coefficients, and shrinks a
failure to a minimal one.  The runs are derandomized and keep no example
database, so they repeat exactly.
"""

import functools
import math
import operator
from collections import Counter
from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gradedsg import algebra as al
from gradedsg import model as md
from gradedsg import parser as ps
from gradedsg import superspace as ss
from gradedsg.errors import MixedParameterFamilies, OutsideWindow
from gradedsg.grading import (DEG_01, DEG_10, DEG_11, DEG_EVEN, commutation_sign, is_self_odd,
                              pairing)

from factor_chain import substitute_by_factors
from fixpoint import reduce_to_fixed_point
import text_reference

# z-order <= 1 per factor keeps every product of two factors inside nz = 2,
# and a^-1 .. a^2 keeps it inside the a-window: nothing is dropped silently.
# A product of three factors may leave both, but whatever order it is
# multiplied in, every partial product of two stays inside.
CTX = al.Context(nz=2)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

PARAMETERS = {"lambda": ("lambda+", "lambda-", "alpha"), "eta": ("eta+", "eta-", "alpha")}
GRADED = ("psi+", "psi-", "chi+", "chi-", "F", "G")
SCALAR = ("X", "Y", "X~")

small = st.integers(0, 2)
# integral and non-integral coefficients alike
coefficients = st.builds(Q, st.integers(-3, 3).filter(bool), st.integers(1, 3))
parameters = {family: st.sampled_from((None,) + names) for family, names in PARAMETERS.items()}
parameters[None] = st.none()
# repeated jets of one odd field are the case that needs the signs
graded_jets = st.lists(st.tuples(st.sampled_from(GRADED), small, small), max_size=4)
scalar_jets = st.lists(st.tuples(st.sampled_from(SCALAR), small, small), max_size=2)
# sin or cos of n/d*X + m/d*X~ + k/4*pi
trig_atoms = st.none() | st.tuples(st.sampled_from("sc"), st.integers(1, 2), st.integers(-1, 1),
                                   st.integers(1, 2), st.integers(0, 7))


@st.composite
def monomials(draw, family):
    factors = [al.GradedExpr.rational(draw(coefficients), CTX)]
    for name in ("z", "theta-", "theta+"):
        if draw(st.booleans()):
            factors.append(al.gen(name, CTX))
    param = draw(parameters[family])
    if param:
        factors.append(al.gen(param, CTX))
    factors.append(al.vpow(draw(st.integers(-1, 1)), CTX))
    factors.append(al.apow(draw(st.integers(-1, 2)), CTX))
    for name, m, n in draw(graded_jets) + draw(scalar_jets):
        factors.append(al.jet(name, m, n, CTX))
    trig = draw(trig_atoms)
    if trig:
        kind, x, xt, den, pi = trig
        factors.append(al.trig(kind, {"X": Q(x, den), "X~": Q(xt, den)}, Q(pi, 4), CTX))
    return functools.reduce(operator.mul, factors)


MONOMIALS = {family: monomials(family) for family in PARAMETERS}
# monomials without a spinor parameter
PLAIN = monomials(None)
SUMS = {family: st.lists(strategy, min_size=1, max_size=3).map(
            lambda ms: functools.reduce(operator.add, ms))
        for family, strategy in MONOMIALS.items()}
FAMILIES = st.sampled_from(sorted(PARAMETERS))


def same_family_pairs(strategies):
    return FAMILIES.flatmap(lambda family: st.tuples(strategies[family], strategies[family]))


def same_family_triples(strategies):
    return FAMILIES.flatmap(lambda family: st.tuples(*[strategies[family]] * 3))


@PROPERTY
@given(abc=same_family_triples(SUMS))
def test_product_is_associative(abc):
    a, b, c = abc
    assert al.to_text((a * b) * c) == al.to_text(a * (b * c))


@PROPERTY
@given(a=FAMILIES.flatmap(MONOMIALS.get), b=PLAIN)
def test_monomials_commute_by_the_bit_pairing(a, b):
    # ab = (-1)^<a,b> ba; two spinor parameters multiply by their own tables
    # (lambda+ lambda- = -lambda- lambda+ at pairing 0), so only a carries one
    sign = 1 if a.is_zero() or b.is_zero() else commutation_sign(a.degree(), b.degree())
    assert al.to_text(a * b) == al.to_text((b * a).scale(sign))


@PROPERTY
@given(e=FAMILIES.flatmap(SUMS.get))
def test_printing_then_parsing_is_the_identity(e):
    assert ps.parse_expr(al.to_text(e), CTX) == e


@PROPERTY
@given(ab=same_family_pairs(MONOMIALS))
def test_graded_leibniz(ab):
    # D(ab) = D(a) b + (-1)^<D,a> a D(b) for all seven derivations
    a, b = ab
    for D in ss.SUPERTRANSLATIONS + ss.COVARIANT:
        sign = commutation_sign(D.degree, a.degree()) if not a.is_zero() else 1
        lhs = D(a * b)
        rhs = D(a) * b + (a * D(b)).scale(sign)
        assert lhs.prec is None and rhs.prec is None
        assert al.to_text(lhs) == al.to_text(rhs), D.name


@PROPERTY
@given(ab=same_family_pairs(SUMS))
def test_mirror_is_a_multiplicative_involution(ab):
    a, b = ab
    mirror, text = al.mirror_pm, al.to_text
    assert text(mirror(mirror(a))) == text(a)
    assert text(mirror(a * b)) == text(mirror(a) * mirror(b))


@PROPERTY
@given(e=FAMILIES.flatmap(SUMS.get))
def test_mirror_exchanges_the_x_derivatives(e):
    mirror, text = al.mirror_pm, al.to_text
    assert text(al.d_x(mirror(e), "+")) == text(mirror(al.d_x(e, "-")))
    assert text(al.d_x(mirror(e), "-")) == text(mirror(al.d_x(e, "+")))


# ---------------------------------------------------------------------------
# the monomial product against a reference that takes no table: the sign of
# interleaving the two keys' odd atoms by a double loop over their ranks, a
# plain jet merge and the product-to-sum identities

def ref_rank_atoms(key):
    z, tm, tp, cf, v, a, gj, bj, trig = key
    out = []
    if z:
        out.append(((0,), DEG_11, z))
    if tm:
        out.append(((1,), DEG_01, 1))
    if tp:
        out.append(((2,), DEG_10, 1))
    if al.cf_degree(cf) != DEG_EVEN:
        out.append(((3,), al.cf_degree(cf), 1))
    for (name, m, n), exp in al.jets_of(gj):
        out.append(((4, name, m, n), al.field_info(name).degree, exp))
    return out


def ref_sign(k1, k2):
    s = 0
    for r2, d2, c2 in ref_rank_atoms(k2):
        for r1, d1, c1 in ref_rank_atoms(k1):
            if r1 > r2:
                s += pairing(d1, d2) * c1 * c2
    return -1 if s % 2 else 1


def ref_merge(j1, j2, graded):
    counts = {}
    for atom, exp in al.jets_of(j1) + al.jets_of(j2):
        counts[atom] = counts.get(atom, 0) + exp
    if graded and any(exp > 1 and is_self_odd(al.field_info(atom[0]).degree)
                      for atom, exp in counts.items()):
        return None
    return al._jet_id(tuple(sorted(counts.items())))


def ref_trig_mul(t1, t2):
    # sin a sin b = (cos(a-b) - cos(a+b))/2, sin a cos b = (sin(a+b) + sin(a-b))/2,
    # cos a sin b = (sin(a+b) - sin(a-b))/2, cos a cos b = (cos(a+b) + cos(a-b))/2
    (kind1, combo1, pioff1), (kind2, combo2, pioff2) = al.trig_parts(t1), al.trig_parts(t2)

    def angle(sign):
        combo = dict(combo1)
        for sym, co in combo2:
            combo[sym] = combo.get(sym, 0) + sign * co
        return combo, pioff1 + sign * pioff2

    half = Q(1, 2)
    plus, minus = angle(1), angle(-1)
    parts = {("s", "s"): ((half, "c", minus), (-half, "c", plus)),
             ("s", "c"): ((half, "s", plus), (half, "s", minus)),
             ("c", "s"): ((half, "s", plus), (-half, "s", minus)),
             ("c", "c"): ((half, "c", plus), (half, "c", minus))}[kind1, kind2]
    out = []
    for pre, kind, (combo, pioff) in parts:
        factor, atom = al._canon_trig(kind, combo, pioff)
        if factor:
            out.append((pre * factor, atom))
    return out


def ref_product(k1, k2):
    z1, tm1, tp1, cf1, v1, a1, gj1, bj1, t1 = k1
    z2, tm2, tp2, cf2, v2, a2, gj2, bj2, t2 = k2
    sign = ref_sign(k1, k2)
    csign, cf, vshift = al.cf_mul(cf1, cf2)
    gj = ref_merge(gj1, gj2, graded=True)
    if gj is None:
        return ()
    head = (z1 + z2, tm1 or tm2, tp1 or tp2, cf, v1 + v2 + vshift, a1 + a2, gj,
            ref_merge(bj1, bj2, graded=False))
    if t1 is not None and t2 is not None:
        return tuple(((*head, t), sign * csign * c) for c, t in ref_trig_mul(t1, t2))
    return (((*head, t1 if t1 is not None else t2), sign * csign),)


@PROPERTY
@given(ab=same_family_pairs(MONOMIALS))
def test_product_of_keys_equals_the_reference(ab):
    assume(not ab[0].is_zero() and not ab[1].is_zero())
    (k1,), (k2,) = ab[0].terms, ab[1].terms
    entries = al._mul_keys_cached(k1, k2)
    # as a multiset: __mul__ sums the entries into a dict, so their order is
    # no part of the product
    assert Counter((k, Q(n, d)) for k, n, d in entries) == Counter(ref_product(k1, k2))


# sin or cos of x*X + xt*X~ + k/12*pi; x is nonzero, so no atom is a constant
# angle, while a product's difference angle may be one
trig_args = st.tuples(st.sampled_from("sc"),
                      st.sampled_from((Q(-1), Q(-1, 2), Q(1, 2), Q(1), Q(3, 2))),
                      st.sampled_from((Q(0), Q(-1, 2), Q(1), Q(2, 3))), st.integers(-12, 24))
real_points = st.lists(st.tuples(st.floats(-3, 3), st.floats(-3, 3)), min_size=1, max_size=3)


def trig_value(kind, combo, pioff, X, Xt):
    angle = math.pi * pioff + sum(co * {"X": X, "X~": Xt}[sym] for sym, co in combo)
    return math.sin(angle) if kind == "s" else math.cos(angle)


def atom_value(atom, X, Xt):
    """The value of a trig slot: 1 for none."""
    return 1.0 if atom is None else trig_value(*al.trig_parts(atom), X, Xt)


@PROPERTY
@given(args=st.tuples(trig_args, trig_args), points=real_points)
def test_trig_identities_hold_at_real_points(args, points):
    # an evaluation that the engine does not make: the canonical form and the
    # product to sum of two atoms, at real X and X~, against math.sin/math.cos
    atoms = []
    for kind, x, xt, k in args:
        combo = (("X", x), ("X~", xt))
        factor, atom = al._canon_trig(kind, dict(combo), Q(k, 12))
        atoms.append(atom)
        for X, Xt in points:
            assert math.isclose(factor * atom_value(atom, X, Xt),
                                trig_value(kind, combo, Q(k, 12), X, Xt), abs_tol=1e-12)
    entries = al._mul_keys_cached(*((*al.KEY_ONE[:8], atom) for atom in atoms))
    for X, Xt in points:
        got = sum(n / d * atom_value(key[8], X, Xt) for key, n, d in entries)
        want = atom_value(atoms[0], X, Xt) * atom_value(atoms[1], X, Xt)
        assert math.isclose(got, want, abs_tol=1e-12)


def only_key(e):
    (key,) = e.terms
    return key


def test_a_repeated_odd_jet_gives_no_product():
    psi = only_key(al.jet("psi+", 1, 0, CTX))
    with_x = only_key(al.jet("psi+", 1, 0, CTX) * al.jet("X", ctx=CTX))
    for k1, k2 in ((psi, psi), (psi, with_x), (with_x, psi)):
        assert al._mul_keys_cached(k1, k2) == ()


@pytest.mark.parametrize("jets", [False, True])
def test_mixed_families_raise(jets):
    # the clifford product comes first: a product whose jets would vanish
    # still raises
    lam, eta = al.gen("lambda+", CTX), al.gen("eta-", CTX)
    if jets:
        lam, eta = lam * al.jet("psi+", ctx=CTX), eta * al.jet("psi+", ctx=CTX)
    with pytest.raises(MixedParameterFamilies):
        al._mul_keys_cached(only_key(lam), only_key(eta))


# ---------------------------------------------------------------------------
# the fraction-free form: int numerators over one common denominator, in
# canonical form after every operation, against a Fraction reference fold

# halves and sixths, and zero
scales = st.builds(Q, st.integers(-6, 6), st.sampled_from((1, 2, 3, 6)))


def fold_steps(family):
    # a combine step ("c") sums the scaled expression and 0-3 more parts
    parts = st.lists(st.tuples(scales, MONOMIALS[family]), max_size=3)
    step = st.tuples(st.sampled_from("+-*sc"), MONOMIALS[family], scales, parts)
    return st.tuples(MONOMIALS[family], st.lists(step, min_size=1, max_size=4))


def assert_canonical(e):
    nums = list(e.terms.values())
    assert type(e.den) is int and e.den > 0
    assert all(type(c) is int and c != 0 for c in nums)
    # zero has no numerators, so this also asks den == 1 of it
    assert math.gcd(e.den, *nums) == 1
    for _, c in e.coefficients():
        assert type(c) is int or (type(c) is Q and c.denominator > 1)


def ref_mul(a, b):
    # __mul__ over {key: Fraction} dicts: the same window tests, the
    # reference monomial product
    nz, amin, amax = CTX
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            if k1[0] + k2[0] > nz or (k1[1] and k2[1]) or (k1[2] and k2[2]):
                continue
            if not amin <= k1[5] + k2[5] <= amax:
                continue
            for k, c in ref_product(k1, k2):
                out[k] = out.get(k, 0) + c1 * c2 * c
    return out


def ref_add(a, b, sign=1):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + sign * c
    return out


@PROPERTY
@given(steps=FAMILIES.flatmap(fold_steps))
def test_operations_keep_the_canonical_form(steps):
    e, rest = steps
    ref = dict(e.coefficients())
    assert_canonical(e)
    for op, m, q, parts in rest:
        m_ref = dict(m.coefficients())
        if op == "+":
            e, ref = e + m, ref_add(ref, m_ref)
        elif op == "-":
            e, ref = e - m, ref_add(ref, m_ref, -1)
        elif op == "*":
            e, ref = e * m, ref_mul(ref, m_ref)
        elif op == "s":
            e, ref = e.scale(q), {k: c * q for k, c in ref.items()}
        else:
            e, ref = al.combine([(q, e), *parts]), {k: c * q for k, c in ref.items()}
            for q2, m2 in parts:
                ref = ref_add(ref, dict(m2.coefficients()), q2)
        assert_canonical(e)
        assert dict(e.coefficients()) == {k: c for k, c in ref.items() if c}
    diff = e - e
    assert diff.is_zero() and diff.den == 1 and diff == al.GradedExpr.zero(CTX)


# ---------------------------------------------------------------------------
# substitution against the factor-by-factor chain, in a window the chain
# leaves: runs of kept jets multiplied in at once, terms and flag unchanged

# three jets of one odd field, so that bound and kept ones interleave, two
# more odd fields, two fields of degree (1,1) and two scalar fields
SUB_JETS = (("psi+", 0, 0), ("psi+", 0, 1), ("psi+", 1, 0), ("psi-", 0, 0), ("chi-", 0, 0),
            ("F", 0, 0), ("G", 0, 0), ("X", 0, 0), ("Y", 0, 1))
SUB_CTX = al.Context(nz=1, amax=2)


@st.composite
def sub_monomials(draw, ctx, family, jets, prefix):
    factors = [al.GradedExpr.rational(draw(coefficients), ctx),
               al.apow(draw(st.integers(-1, 2)), ctx)]
    for name in prefix:
        if draw(st.integers(0, 3)) == 0:
            factors.append(al.gen(name, ctx))
    param = draw(parameters[family])
    if param:
        factors.append(al.gen(param, ctx))
    for atom in draw(jets):
        factors.append(al.jet(*atom, ctx=ctx))
    trig = draw(trig_atoms)
    if trig:
        kind, x, xt, den, pi = trig
        factors.append(al.trig(kind, {"X": Q(x, den), "X~": Q(xt, den)}, Q(pi, 4), ctx))
    return functools.reduce(operator.mul, factors)


@st.composite
def substitutions(draw):
    ctx, family = SUB_CTX, draw(FAMILIES)
    # distinct jets, several of one odd field, and maybe a square of G
    # (which sorts after F) or Y
    jets = st.tuples(st.lists(st.sampled_from(SUB_JETS), min_size=2, max_size=4, unique=True),
                     st.sampled_from(((), (("G", 0, 0),) * 2, (("Y", 0, 1),) * 2)))
    jets = jets.map(lambda distinct_square: distinct_square[0] + list(distinct_square[1]))
    monomial = sub_monomials(ctx, family, jets, ("z", "theta-", "theta+"))
    e = functools.reduce(operator.add, draw(st.lists(monomial, min_size=1, max_size=2)))
    jets = st.lists(st.sampled_from(SUB_JETS), max_size=2)
    terms = st.lists(sub_monomials(ctx, family, jets, ("theta-", "theta+")), min_size=1,
                     max_size=2)
    binds = {}
    for atom in SUB_JETS:
        if draw(st.booleans()):
            # X enters trig arguments, so its replacement is a body plus an
            # even nilpotent part; the others are sums of mixed degree
            if atom[0] == "X":
                odd = al.jet("psi+", ctx=ctx) * al.jet("psi+", 0, 1, ctx)
                binds[atom] = (al.jet("X~", ctx=ctx).scale(draw(coefficients))
                               + (al.apow(draw(st.integers(0, 2)), ctx) * odd).scale(
                                   draw(coefficients)))
            else:
                binds[atom] = functools.reduce(operator.add, draw(terms))
    return e, binds


@PROPERTY
@given(sub=substitutions())
def test_substitution_equals_the_factor_chain(sub):
    e, binds = sub
    rule = lambda name, m, n: binds.get((name, m, n))
    got, want = al.substitute_jets(e, rule), substitute_by_factors(e, rule)
    assert got == want and got.prec == want.prec


# ---------------------------------------------------------------------------
# on-shell reduction in one pass against the fixed-point loop

ON_SHELL = ss.generic_superfield("Phi", nz=0)
# every field the on-shell rules bind or keep, with jets up to (2, 2)
on_shell_jets = st.lists(st.tuples(st.sampled_from(("X", "psi+", "psi-", "F")), small, small),
                         min_size=1, max_size=3)


@st.composite
def on_shell_products(draw):
    ctx = ON_SHELL.expr.ctx
    factors = [al.GradedExpr.rational(draw(coefficients), ctx),
               al.apow(draw(st.integers(-1, 2)), ctx)]
    if draw(st.booleans()):
        factors.append(al.gen("alpha", ctx))
    factors.extend(al.jet(*atom, ctx=ctx) for atom in draw(on_shell_jets))
    if draw(st.booleans()):
        factors.append(al.trig(draw(st.sampled_from("sc")), {"X": Q(draw(st.integers(1, 2)), 2)},
                               ctx=ctx))
    return functools.reduce(operator.mul, factors)


@PROPERTY
@given(products=st.lists(on_shell_products(), min_size=1, max_size=3))
def test_on_shell_reduction_equals_the_fixed_point(products):
    # a fresh rewriter, so that each example builds its normal forms itself
    rewriter = md.on_shell_rewriter.__wrapped__(ON_SHELL)
    e = functools.reduce(operator.add, products)
    got, want = rewriter.reduce(e), reduce_to_fixed_point(rewriter, e)
    assert got == want and got.prec == want.prec


# ---------------------------------------------------------------------------
# the precision in a: what a narrow window keeps below it is exact

NARROW = al.Context(nz=2, amin=-2, amax=1)
# no fold below reaches past a^-13 or a^14, so nothing is dropped here
WIDE = al.Context(nz=2, amin=-16, amax=16)


def precision_steps(family):
    step = st.tuples(st.sampled_from("+*ad"), SUMS[family], st.integers(-2, 2))
    return st.tuples(SUMS[family], st.lists(step, min_size=1, max_size=6))


def fold_in(ctx, steps):
    """Run the steps in ``ctx``: add or multiply by a monomial, multiply by
    a^k (a negative k brings dropped terms back), or take d+."""
    e, rest = steps
    # rebuilding in ctx keeps only what that window admits
    e = al.GradedExpr(ctx, e.coefficients(), e.prec)
    for op, m, k in rest:
        m = al.GradedExpr(ctx, m.coefficients(), m.prec)
        if op == "+":
            e = e + m
        elif op == "*":
            e = e * m
        elif op == "a":
            e = e * al.apow(k, ctx)
        else:
            e = al.d_x(e, "+")
    return e


def assert_exact_below_the_precision(narrow, wide):
    assert wide.prec is None
    # an inexact expression holds only the terms that its precision certifies
    assert narrow.prec is None or all(key[5] < narrow.prec for key in narrow.terms)
    for n in range(NARROW.amin, NARROW.amax + 1):
        if narrow.prec is not None and n >= narrow.prec:
            break
        got, want = al.series_coefficient(narrow, n), al.series_coefficient(wide, n)
        assert (got.den, got.terms) == (want.den, want.terms), n


@PROPERTY
@given(steps=FAMILIES.flatmap(precision_steps))
def test_coefficients_below_the_precision_are_those_of_a_wider_window(steps):
    assert_exact_below_the_precision(fold_in(NARROW, steps), fold_in(WIDE, steps))


# an odd field, bound field-wide to a^-k times one of its jets
lowering_binds = st.tuples(st.sampled_from(("psi+", "psi-", "chi+", "chi-")), small,
                           coefficients, st.integers(1, 2))
# each of the nine jets of one odd field, at most, lowers a term by a^2
WIDER = al.Context(nz=2, amin=-40, amax=16)


@PROPERTY
@given(steps=FAMILIES.flatmap(precision_steps), bind=lowering_binds)
def test_a_lowering_substitution_never_certifies_a_wrong_coefficient(steps, bind):
    # a dropped term times a^-k would come back below the precision, so the
    # narrow window must refuse, or agree with one that drops nothing on
    # every order that it certifies
    name, j, coef, k = bind

    def substituted(ctx):
        repl = (al.apow(-k, ctx) * al.jet(name, j, j, ctx)).scale(coef)
        return al.substitute(fold_in(ctx, steps), {name: repl})

    wide = substituted(WIDER)
    try:
        narrow = substituted(NARROW)
    except OutsideWindow:
        assert fold_in(NARROW, steps).prec is not None
        return
    assert_exact_below_the_precision(narrow, wide)


# even remainders of a trig argument that square to zero
NILPOTENT = (("psi+", 0, 0), ("psi+", 0, 1)), (("psi-", 0, 0), ("chi+", 0, 0))


@PROPERTY
@given(parts=st.lists(st.tuples(coefficients, st.integers(-1, 2), st.sampled_from(NILPOTENT)),
                      min_size=1, max_size=3),
       kind=st.sampled_from("sc"), shift=st.integers(-2, 2))
def test_trig_is_exact_below_its_precision(parts, kind, shift):
    def expand(ctx):
        arg = al.jet("X", ctx=ctx)
        for coef, k, atoms in parts:
            arg = arg + (al.apow(k, ctx) * al.jet(*atoms[0], ctx=ctx)
                         * al.jet(*atoms[1], ctx=ctx)).scale(coef)
        return al.trig_of(kind, arg, Q(1, 2)) * al.apow(shift, ctx)

    assert_exact_below_the_precision(expand(NARROW), expand(WIDE))


# ---------------------------------------------------------------------------
# text form: the per-slot tables against the Fraction-based renderer

TEXT_CTX = al.Context(nz=2, amin=-3, amax=3)


def _jet_slot(names, max_exp):
    # distinct jets, each with an exponent; rendering reads any slot value
    atoms = st.dictionaries(st.tuples(st.sampled_from(names), small, small),
                            st.integers(1, max_exp), max_size=3)
    return atoms.map(lambda jets: al._jet_id(tuple(sorted(jets.items()))))


# sin or cos of n/d*X + m/d*X~ + k/12*pi, canonical; None when it has an
# exact value (a constant angle) and for no trig atom
text_trigs = st.none() | st.builds(
    lambda kind, x, xt, den, pi: al._canon_trig(kind, {"X": Q(x, den), "X~": Q(xt, den)},
                                                Q(pi, 12))[1],
    st.sampled_from("sc"), st.integers(-3, 3), st.integers(-3, 3),
    st.sampled_from((1, 2, 3, 4)), st.integers(-13, 25))
text_keys = st.just(al.KEY_ONE) | st.tuples(
    st.integers(0, 2), st.integers(0, 1), st.integers(0, 1), st.sampled_from(sorted(al._CLIFFORD)),
    st.integers(-2, 2), st.integers(-3, 3),
    _jet_slot(GRADED + ("psi+~", "F~"), 2), _jet_slot(SCALAR + ("Y~",), 3), text_trigs)
signed = st.builds(Q, st.integers(-20, 20).filter(bool), st.sampled_from((1, 2, 3, 4, 6, 7)))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(terms=st.lists(st.tuples(text_keys, signed), max_size=5))
def test_text_equals_the_fraction_renderer(terms):
    # every term over the lcm of the denominators, reduced by one gcd per term
    e = al.GradedExpr(TEXT_CTX, terms)
    assert al.to_text(e) == text_reference.to_text(e)
    for key, c in terms:
        for coef in (c, c.numerator):
            assert al.term_str(key, coef) == text_reference.term_str(key, coef)
