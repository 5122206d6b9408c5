"""An independent oracle for the commuting body sector: SymPy.

The engine exports each Backlund system's body shadow as text: the target's
first derivatives in terms of the seed and the target bodies.  Here SymPy
reads that text as functions of the lightcone coordinates (x-, x+), with
v- = 1/v+, and takes the pair's cross-derivative with the seed on shell,
X_{-+} = sin(X)/4, by its own differentiation and simplification.  The raw
pair must leave the engine's ``mismatch_raw``, sin(X), and the completed
pair nothing.

SymPy also checks the classical component equation on the kink family,
and differentiates and integrates the travelling kink, the profile that the
numeric companion's kink check starts from.
"""

import re

import pytest
import sympy as sp

from gradedsg import algebra as al
from gradedsg import backlund as bt
from gradedsg import model as md
from gradedsg import numeric as nm
from gradedsg import superspace as ss

XM, XP, V, A = sp.symbols("xm xp v a", positive=True)
COORD = {"-": XM, "+": XP}
SEED = sp.Function("X")(XM, XP)
TARGET = sp.Function("Xt")(XM, XP)


def to_sympy(text: str):
    """An exported body relation as a SymPy expression in (x-, x+)."""
    src = text.replace("X~", "Xt")
    # the seed's first derivatives, X_{-} and X_{+}
    src = re.sub(r"X_\{([-+])\}", lambda m: "Xm" if m[1] == "-" else "Xp", src)
    src = src.replace("v+", "v").replace("v-", "(1/v)").replace("^", "**")
    names = {"X": SEED, "Xt": TARGET, "Xm": SEED.diff(XM), "Xp": SEED.diff(XP),
             "v": V, "a": A, "sin": sp.sin}
    return sp.sympify(src, locals=names)


def cross_mismatch(first, second, side1: str, side2: str):
    """d_side2(first) - d_side1(second), with the target's first derivatives
    replaced by the relations and the seed on shell."""
    d1, d2 = COORD[side1], COORD[side2]
    e = first.diff(d2) - second.diff(d1)
    e = e.subs({TARGET.diff(d1): first, TARGET.diff(d2): second})
    return e.subs(SEED.diff(XM, XP), sp.sin(SEED) / 4)


def vanishes(e) -> bool:
    """An exact zero test of a trig polynomial in the two bodies: written in
    exponentials of the half bodies, every trig identity is polynomial."""
    u, w = sp.symbols("u w")
    return sp.expand(e.subs({SEED: 2 * u, TARGET: 2 * w}).rewrite(sp.exp)) == 0


@pytest.mark.parametrize("orientation", ["minus", "plus"])
def test_sympy_finds_the_raw_mismatch_and_the_completed_pair_compatible(orientation):
    spec = bt.export_body_system(bt.BTSystem(orientation=orientation))
    side1, side2, _ = bt._SIDES[orientation]
    first = to_sympy(spec.relation_first)
    assert first.has(TARGET) and first.has(SEED.diff(COORD[side1]))
    raw = cross_mismatch(first, to_sympy(spec.relation_second_raw), side1, side2)
    completed = cross_mismatch(first, to_sympy(spec.relation_second), side1, side2)
    assert not (raw.has(sp.Derivative) or completed.has(sp.Derivative))
    assert spec.mismatch_raw == "sin(X)" and spec.mismatch_completed == "0"
    assert vanishes(raw - sp.sin(SEED)) and not vanishes(raw)
    assert vanishes(completed)


def classical_on_the_kink_family(text: str):
    """The classical residual's text at X = 4 atan(e^s), s = k x+ + x-/(4k),
    as a rational function of w = e^s."""
    k, w = sp.symbols("k w", positive=True)
    s = k * XP + XM / (4 * k)
    X = 4 * sp.atan(sp.exp(s))
    sin = sp.Function("sin")
    src = text.replace("X_{-+}", "Xmp").replace("^", "**")
    e = sp.sympify(src, locals={"X": X, "Xmp": X.diff(XM, XP), "sin": sin})
    # sin(4 atan w) = 4 w (1 - w^2) / (1 + w^2)^2
    e = e.subs(sin(X), 4 * w * (1 - w ** 2) / (1 + w ** 2) ** 2)
    e = e.replace(sp.exp, lambda arg: w ** sp.cancel(arg / s))
    assert not e.has(sin, XM, XP)
    return sp.cancel(e)


def test_sympy_kink_family_solves_the_classical_equation():
    # the one spelling of the classical equation, which the body export's
    # seed rule is solved from
    phi = ss.generic_superfield("Phi", nz=0)
    text = al.to_text(md.classical_residual(phi))
    assert "sin(X)" in text and "X_{-+}" in text
    assert classical_on_the_kink_family(text) == 0
    assert classical_on_the_kink_family(text.replace("1/4", "1/2")) != 0


def kink(v):
    """The kink 4 atan(exp(gamma (x - v t))) with its Lorentz factor gamma."""
    x, t = sp.symbols("x t", real=True)
    gamma = 1 / sp.sqrt(1 - v ** 2)
    return x, t, gamma, 4 * sp.atan(sp.exp(gamma * (x - v * t)))


@pytest.mark.parametrize("v", [sp.Integer(0), sp.Rational(1, 2)])
def test_sympy_kink_energy_is_8_gamma(v):
    # 1/2 X_t^2 + 1/2 X_x^2 + (1 - cos X) at t = 0; with u = e^(gamma x) the
    # density is rational in u, and dx = du / (gamma u)
    x, t, gamma, X = kink(v)
    u = sp.symbols("u", positive=True)
    dens = (X.diff(t) ** 2 / 2 + X.diff(x) ** 2 / 2 + 1 - sp.cos(X)).subs(t, 0)
    rational = sp.cancel(sp.expand_trig(dens.subs(sp.exp(gamma * x), u)) / (gamma * u))
    assert not rational.has(x)
    energy = sp.integrate(rational, (u, 0, sp.oo))
    assert sp.simplify(energy - 8 * gamma) == 0


@pytest.mark.parametrize("v", [sp.Integer(0), sp.Rational(1, 2)])
def test_kink_state_matches_sympy(v):
    # the analytic profile and the hand-written Xdot = -2 gamma v sech(gamma x)
    x, t, _, X = kink(v)
    s = nm.kink_state(2.0, 0.5, v=float(v))
    for expr, values in ((X.subs(t, 0), s.X), (X.diff(t).subs(t, 0), s.Xdot)):
        want = [float(expr.subs(x, sp.Float(xi, 30))) for xi in s.x]
        assert max(abs(w - got) for w, got in zip(want, values)) < 1e-12
