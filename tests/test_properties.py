"""Property tests for the algebra laws of the kernel and the derivations.

Hypothesis draws homogeneous monomials over every slot of a monomial key
(z, both thetas, one spinor-parameter family, v, a, graded and scalar jets,
a trig atom), with integral and non-integral coefficients, and shrinks a
failure to a minimal one.  The runs are derandomized and keep no example
database, so they repeat exactly.
"""

import functools
import operator
from fractions import Fraction as Q

from hypothesis import given, settings
from hypothesis import strategies as st

from gradedsg import algebra as al
from gradedsg import parser as ps
from gradedsg import superspace as ss
from gradedsg.grading import commutation_sign

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
        assert not (lhs.truncated or rhs.truncated)
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
    assert text(al.d_plus(mirror(e))) == text(mirror(al.d_minus(e)))
    assert text(al.d_minus(mirror(e))) == text(mirror(al.d_plus(e)))
