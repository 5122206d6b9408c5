"""Reference for the text form: the ``Fraction``-based renderer.

``algebra.to_text`` renders each term from its int numerator over the
expression's denominator and reads per-slot text tables.  This is the
renderer it must agree with: every call formats each jet and trig atom
again and reads the coefficients as ``Fraction`` values.
"""

from fractions import Fraction

from gradedsg import algebra as al


def _jet_str(name: str, m: int, n: int) -> str:
    if m == 0 and n == 0:
        return name
    return f"{name}_{{{'-' * m}{'+' * n}}}"


def _pow_str(base: str, k: int) -> str:
    return base if k == 1 else f"{base}^{k}"


def _trig_str(t: int) -> str:
    kind, combo, pioff = al.trig_parts(t)
    pieces = list(combo)
    if pioff:
        pieces.append(("pi", pioff))
    out = ""
    for sym, co in pieces:
        mag = -co if co < 0 else co
        body = sym if mag == 1 else f"{mag}*{sym}"
        if not out:
            out = f"-{body}" if co < 0 else body
        else:
            out += f" - {body}" if co < 0 else f" + {body}"
    name = "sin" if kind == "s" else "cos"
    return f"{name}({out if out else '0'})"


def key_sortable(key):
    """A sort key by contents: ids follow the order of first use."""
    z, tm, tp, cf, v, a, gj, bj, trig = key
    trig_s = ()
    if trig is not None:
        kind, combo, pioff = al.trig_parts(trig)
        trig_s = (kind, tuple((s, c.numerator, c.denominator) for s, c in combo),
                  pioff.numerator, pioff.denominator)
    return (z, tm, tp, cf, v, a, al.jets_of(gj), al.jets_of(bj), trig_s)


def term_str(key, coef: Fraction) -> str:
    z, tm, tp, cf, v, a, gj, bj, t = key
    factors = []
    if z:
        factors.append(_pow_str("z", z))
    if tm:
        factors.append("theta-")
    if tp:
        factors.append("theta+")
    if cf != al.CF_ONE:
        factors.append(al._CLIFFORD[cf][0])
    if v > 0:
        factors.append(_pow_str("v+", v))
    elif v < 0:
        factors.append(_pow_str("v-", -v))
    if a:
        factors.append("a" if a == 1 else f"a^{a}")
    for (name, m, n), exp in al.jets_of(gj) + al.jets_of(bj):
        factors.append(_pow_str(_jet_str(name, m, n), exp))
    if t is not None:
        factors.append(_trig_str(t))
    if not factors:
        return str(coef)
    body = "*".join(factors)
    if coef == 1:
        return body
    if coef == -1:
        return f"-{body}"
    return f"{coef}*{body}"


def to_text(e) -> str:
    """Stable, sorted plain-text form; '0' for the zero expression."""
    if not e.terms:
        return "0"
    out = []
    for k, c in sorted(e.coefficients(), key=lambda kc: key_sortable(kc[0])):
        s = term_str(k, c)
        if out:
            out.append(f"- {s[1:]}" if s.startswith("-") else f"+ {s}")
        else:
            out.append(s)
    return " ".join(out)
