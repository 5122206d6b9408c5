"""An independent oracle for the commuting body sector: SymPy.

The engine exports each Backlund system's body shadow as text: the target's
first derivatives in terms of the seed and the target bodies.  Here SymPy
reads that text as functions of the lightcone coordinates (x-, x+), with
v- = 1/v+, and takes the pair's cross-derivative with the seed on shell,
X_{-+} = sin(X)/4, by its own differentiation and simplification.  The raw
pair must leave the engine's ``mismatch_raw``, sin(X), and the completed
pair nothing.
"""

import re

import pytest
import sympy as sp

from gradedsg import backlund as bt

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
