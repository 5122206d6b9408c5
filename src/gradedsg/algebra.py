"""Graded-commutative symbolic kernel.

Expressions are finite sums of normal-ordered monomials with exact rational
coefficients.  A monomial factors into fixed slots, in this global order:

    z^k  *  theta-  *  theta+  *  clifford  *  v+^j  *  a^n  *  graded jets
         *  scalar jets  *  (at most one trig atom)

Slots after ``a^n`` are listed in increasing sort rank; scalar jets and trig
atoms carry degree (0,0) and commute with everything, so only the first
groups participate in sign bookkeeping.  Commutation signs between distinct
slots come from the bit pairing of their degrees; products *inside* the
clifford slot come from the spinor-parameter relation tables, which is where
the two parameter families deviate from plain graded commutativity.

The trig layer keeps at most one sine/cosine per term, of an argument that
is a rational combination of scalar body symbols plus a rational multiple of
pi.  Products of trig atoms are immediately rewritten to half-sums (product
to sum), which makes the zero test decidable.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .errors import (
    DegreeMismatch,
    InhomogeneousExpression,
    MixedParameterFamilies,
    NonNilpotentRemainder,
    NonTermination,
    NotScalarDegree,
    OutsideWindow,
    UnsupportedAtom,
    WeightMismatch,
)
from .grading import (
    DEG_01,
    DEG_10,
    DEG_11,
    DEG_EVEN,
    BoostWeight,
    Degree,
    commutation_sign,
    degree_add,
    is_self_odd,
    pairing,
)

Q = Fraction
HALF = Q(1, 2)


# ---------------------------------------------------------------------------
# truncation context

class Context(NamedTuple):
    """Truncation settings: z-order bound and Laurent window in a.

    ``commuting_params`` makes the '-','+' spinor-parameter product lose its
    minus sign, i.e. the parameters (wrongly) commute; it exists only so
    that sabotage checks can show a cancellation depends on it.  Being part
    of the context, it keys every cache that depends on products.
    """

    nz: int = 1
    amin: int = -2
    amax: int = 8
    commuting_params: bool = False


DEFAULT_CTX = Context()
BT_CTX = Context(nz=0, amin=-2, amax=8)


# ---------------------------------------------------------------------------
# field registry

@dataclass(frozen=True)
class FieldInfo:
    degree: Degree
    weight: BoostWeight  # half-units, for the (0,0) jet
    trig: bool = False   # may appear inside trig arguments
    constant: bool = False  # derivatives vanish (only "pi")


_REGISTRY: dict[str, FieldInfo] = {
    "pi": FieldInfo(DEG_EVEN, 0, trig=True, constant=True),
    "X": FieldInfo(DEG_EVEN, 0, trig=True),
    "X~": FieldInfo(DEG_EVEN, 0, trig=True),
    "Y": FieldInfo(DEG_EVEN, 0),
    "Y~": FieldInfo(DEG_EVEN, 0),
    "psi+": FieldInfo(DEG_01, +1),
    "psi-": FieldInfo(DEG_10, -1),
    "psi+~": FieldInfo(DEG_01, +1),
    "psi-~": FieldInfo(DEG_10, -1),
    "F": FieldInfo(DEG_11, 0),
    "F~": FieldInfo(DEG_11, 0),
    "G": FieldInfo(DEG_11, 0),
    "G~": FieldInfo(DEG_11, 0),
    "chi+": FieldInfo(DEG_10, +1),
    "chi+~": FieldInfo(DEG_10, +1),
    "chi-": FieldInfo(DEG_01, -1),
    "chi-~": FieldInfo(DEG_01, -1),
}


def register_field(name: str, degree: Degree, weight: BoostWeight,
                   trig: bool = False) -> None:
    info = FieldInfo(degree, weight, trig=trig)
    old = _REGISTRY.get(name)
    if old is not None and old != info:
        raise ValueError(f"field {name!r} already registered differently")
    _REGISTRY[name] = info


def field_info(name: str) -> FieldInfo:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown field {name!r}") from None


# ---------------------------------------------------------------------------
# clifford slot
#
# cf = (family, kind); family '' for identity/alpha, 'L' for lambda, 'E' for
# eta; kind in {'1', 'a', '+', '-'}.  v+^j is tracked separately (v- = v+^-1).

CF_ONE = ("", "1")
CF_ALPHA = ("", "a")

_CF_DEGREE = {
    ("", "1"): DEG_EVEN,
    ("", "a"): DEG_11,
    ("L", "+"): DEG_01,
    ("L", "-"): DEG_10,
    ("E", "+"): DEG_10,
    ("E", "-"): DEG_01,
}

_CF_WEIGHT = {
    ("", "1"): 0,
    ("", "a"): 0,
    ("L", "+"): +1,
    ("L", "-"): -1,
    ("E", "+"): -1,
    ("E", "-"): +1,
}

# (kind1, kind2) -> (sign, kind, v-shift); v-shift counted in v+ units.
_LAMBDA_TABLE = {
    ("a", "a"): (1, "1", 0),
    ("a", "+"): (-1, "-", +1),
    ("a", "-"): (-1, "+", -1),
    ("+", "a"): (1, "-", +1),
    ("-", "a"): (1, "+", -1),
    ("+", "+"): (1, "1", +1),
    ("+", "-"): (1, "a", 0),
    ("-", "+"): (-1, "a", 0),
    ("-", "-"): (-1, "1", -1),
}

# eta relations mirror the lambda ones with v+ <-> v-.
_ETA_TABLE = {
    ("a", "a"): (1, "1", 0),
    ("a", "+"): (-1, "-", -1),
    ("a", "-"): (-1, "+", +1),
    ("+", "a"): (1, "-", -1),
    ("-", "a"): (1, "+", +1),
    ("+", "+"): (1, "1", -1),
    ("+", "-"): (1, "a", 0),
    ("-", "+"): (-1, "a", 0),
    ("-", "-"): (-1, "1", +1),
}

def cf_degree(cf: tuple[str, str]) -> Degree:
    return _CF_DEGREE[cf]


def cf_mul(cf1: tuple[str, str], cf2: tuple[str, str],
           ctx: Context) -> tuple[int, tuple[str, str], int]:
    """Product of two clifford slots: (sign, cf, v-shift)."""
    fam1, k1 = cf1
    fam2, k2 = cf2
    if k1 == "1":
        return 1, cf2, 0
    if k2 == "1":
        return 1, cf1, 0
    if fam1 and fam2 and fam1 != fam2:
        raise MixedParameterFamilies(
            "lambda-family and eta-family parameters in one monomial")
    fam = fam1 or fam2
    table = _ETA_TABLE if fam == "E" else _LAMBDA_TABLE
    sign, kind, vshift = table[(k1, k2)]
    if ctx.commuting_params and (k1, k2) == ("-", "+"):
        sign = -sign
    out_fam = "" if kind in ("1", "a") else fam
    return sign, (out_fam, kind), vshift


# ---------------------------------------------------------------------------
# trig atoms
#
# trig = (kind, combo, pioff): kind 's'|'c', combo a tuple of (symbol, Q)
# sorted by symbol with nonzero rational coefficients, pioff a rational
# multiple of pi in [0, 1/2) after canonicalization.

TrigAtom = tuple[str, tuple[tuple[str, Fraction], ...], Fraction]


def _canon_trig(kind: str, combo: Mapping[str, Fraction],
                pioff: Fraction) -> tuple[Fraction, Optional[TrigAtom]]:
    """Canonicalize a trig atom; returns (coefficient factor, atom or None)."""
    items = {}
    pioff = Q(pioff)
    for sym, co in combo.items():
        if sym == "pi":
            pioff += co
        elif co != 0:
            items[sym] = Q(co)
    coef = Q(1)
    if items:
        ordered = sorted(items.items())
        if ordered[0][1] < 0:
            ordered = [(s, -c) for s, c in ordered]
            pioff = -pioff
            if kind == "s":
                coef = -coef
        pioff %= 2
        if pioff >= 1:
            pioff -= 1
            coef = -coef
        if pioff >= HALF:
            pioff -= HALF
            if kind == "s":
                kind = "c"
            else:
                kind = "s"
                coef = -coef
        return coef, (kind, tuple(ordered), pioff)
    # constant angle
    q = pioff % 2
    if q.denominator in (1, 2):
        if kind == "s":
            val = {Q(0): 0, Q(1): 0, HALF: 1, Q(3, 2): -1}[q]
        else:
            val = {Q(0): 1, Q(1): -1, HALF: 0, Q(3, 2): 0}[q]
        return Q(val), None
    if q >= 1:
        q -= 1
        coef = -coef
    if q >= HALF:
        q -= HALF
        if kind == "s":
            kind = "c"
        else:
            kind = "s"
            coef = -coef
    return coef, (kind, (), q)


def _trig_arg_add(t1: TrigAtom, t2: TrigAtom, sub: bool) -> tuple[dict, Fraction]:
    combo: dict[str, Fraction] = dict(t1[1])
    for sym, co in t2[1]:
        combo[sym] = combo.get(sym, Q(0)) + (-co if sub else co)
    pioff = t1[2] + (-t2[2] if sub else t2[2])
    return combo, pioff


def _trig_mul(t1: TrigAtom, t2: TrigAtom) -> list[tuple[Fraction, Optional[TrigAtom]]]:
    """Product-to-sum rewrite of a trig-atom pair."""
    k1, k2 = t1[0], t2[0]
    plus = _trig_arg_add(t1, t2, sub=False)
    minus = _trig_arg_add(t1, t2, sub=True)
    if (k1, k2) == ("s", "s"):
        parts = [(HALF, "c", minus), (-HALF, "c", plus)]
    elif (k1, k2) == ("s", "c"):
        parts = [(HALF, "s", plus), (HALF, "s", minus)]
    elif (k1, k2) == ("c", "s"):
        parts = [(HALF, "s", plus), (-HALF, "s", minus)]
    else:
        parts = [(HALF, "c", plus), (HALF, "c", minus)]
    out = []
    for pre, kind, (combo, pioff) in parts:
        factor, atom = _canon_trig(kind, combo, pioff)
        if factor != 0:
            out.append((pre * factor, atom))
    return out


# ---------------------------------------------------------------------------
# monomial keys
#
# key = (z, tm, tp, cf, v, a, gj, bj, trig)
#   gj: tuple of ((name, m, n), exp) for graded component jets
#   bj: tuple of ((name, m, n), exp) for scalar (body) jets

Key = tuple

KEY_ONE: Key = (0, 0, 0, CF_ONE, 0, 0, (), (), None)


def _gj_degree(name: str) -> Degree:
    return field_info(name).degree


def _rank_atoms(key: Key) -> list[tuple[tuple, Degree, int]]:
    """Sign-relevant atoms of a monomial: (rank, degree, multiplicity)."""
    z, tm, tp, cf, v, a, gj, bj, trig = key
    out = []
    if z:
        out.append(((0,), DEG_11, z))
    if tm:
        out.append(((1,), DEG_01, 1))
    if tp:
        out.append(((2,), DEG_10, 1))
    if cf != CF_ONE:
        d = cf_degree(cf)
        if d != DEG_EVEN:
            out.append(((3,), d, 1))
    for (name, m, n), exp in gj:
        out.append(((4, name, m, n), _gj_degree(name), exp))
    return out


def _cross_sign(key1: Key, key2: Key) -> int:
    """Sign from interleaving key2's graded atoms into key1's."""
    a1 = _rank_atoms(key1)
    a2 = _rank_atoms(key2)
    s = 0
    for r2, d2, c2 in a2:
        for r1, d1, c1 in a1:
            if r1 > r2:
                s += pairing(d1, d2) * c1 * c2
    return -1 if s % 2 else 1


def _merge_jets(j1, j2, graded: bool):
    """Merge two sorted ((name,m,n), exp) tuples; None when an odd atom repeats."""
    counts: dict[tuple, int] = {}
    for atom, exp in j1:
        counts[atom] = counts.get(atom, 0) + exp
    for atom, exp in j2:
        counts[atom] = counts.get(atom, 0) + exp
    if graded:
        for atom, exp in counts.items():
            if exp > 1 and is_self_odd(_gj_degree(atom[0])):
                return None
    return tuple(sorted(counts.items()))


def key_degree(key: Key) -> Degree:
    z, tm, tp, cf, v, a, gj, bj, trig = key
    d = DEG_EVEN
    for _ in range(z % 2):
        d = degree_add(d, DEG_11)
    if tm:
        d = degree_add(d, DEG_01)
    if tp:
        d = degree_add(d, DEG_10)
    d = degree_add(d, cf_degree(cf)) if cf != CF_ONE else d
    for (name, m, n), exp in gj:
        if exp % 2:
            d = degree_add(d, _gj_degree(name))
    return d


def key_weight(key: Key) -> BoostWeight:
    z, tm, tp, cf, v, a, gj, bj, trig = key
    w = 0
    if tm:
        w -= 1
    if tp:
        w += 1
    w += _CF_WEIGHT[cf]
    w += 2 * v
    for (name, m, n), exp in gj:
        w += exp * (field_info(name).weight + 2 * (m - n))
    for (name, m, n), exp in bj:
        w += exp * (field_info(name).weight + 2 * (m - n))
    return w


def _key_sortable(key: Key):
    z, tm, tp, cf, v, a, gj, bj, trig = key
    trig_s = ()
    if trig is not None:
        kind, combo, pioff = trig
        trig_s = (kind, tuple((s, c.numerator, c.denominator) for s, c in combo),
                  pioff.numerator, pioff.denominator)
    return (z, tm, tp, cf, v, a, gj, bj, trig_s)


# ---------------------------------------------------------------------------
# expressions

class GradedExpr:
    """Canonical-form element of the graded algebra (immutable by convention)."""

    __slots__ = ("ctx", "terms", "truncated")

    def __init__(self, ctx: Context, terms: Mapping[Key, Fraction],
                 truncated: bool = False):
        self.ctx = ctx
        self.terms = {k: v for k, v in terms.items() if v != 0}
        self.truncated = truncated

    # -- helpers ------------------------------------------------------------

    @staticmethod
    def zero(ctx: Context = DEFAULT_CTX) -> "GradedExpr":
        return GradedExpr(ctx, {})

    @staticmethod
    def rational(q, ctx: Context = DEFAULT_CTX) -> "GradedExpr":
        q = Q(q)
        return GradedExpr(ctx, {KEY_ONE: q} if q else {})

    def is_zero(self) -> bool:
        return not self.terms

    def _require_same_ctx(self, other: "GradedExpr") -> None:
        if self.ctx != other.ctx:
            raise ValueError(f"incompatible truncation contexts {self.ctx} vs {other.ctx}")

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GradedExpr.rational(other, self.ctx)
        self._require_same_ctx(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            nc = terms.get(k, Q(0)) + c
            if nc:
                terms[k] = nc
            else:
                terms.pop(k, None)
        return GradedExpr(self.ctx, terms, self.truncated or other.truncated)

    __radd__ = __add__

    def __neg__(self):
        return GradedExpr(self.ctx, {k: -c for k, c in self.terms.items()},
                          self.truncated)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GradedExpr.rational(other, self.ctx)
        return self + (-other)

    def __rsub__(self, other):
        return GradedExpr.rational(other, self.ctx) + (-self)

    def scale(self, q) -> "GradedExpr":
        q = Q(q)
        if q == 0:
            return GradedExpr.zero(self.ctx)
        return GradedExpr(self.ctx, {k: q * c for k, c in self.terms.items()},
                          self.truncated)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._require_same_ctx(other)
        ctx = self.ctx
        acc: dict[Key, Fraction] = {}
        truncated = self.truncated or other.truncated
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                for k, c in _mul_keys_cached(k1, k2, ctx):
                    if c == 0:
                        continue
                    if k is _TRUNCATED:
                        truncated = True
                        continue
                    nc = acc.get(k, Q(0)) + c1 * c2 * c
                    if nc:
                        acc[k] = nc
                    else:
                        acc.pop(k, None)
        return GradedExpr(ctx, acc, truncated)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, GradedExpr):
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    def __hash__(self):
        return hash((self.ctx, frozenset(self.terms.items())))

    # -- queries --------------------------------------------------------------

    def degree(self) -> Optional[Degree]:
        """Common degree of all monomials; None for zero."""
        degs = {key_degree(k) for k in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise InhomogeneousExpression(f"mixed degrees {sorted(degs)}")
        return degs.pop()

    def weight(self) -> Optional[BoostWeight]:
        """Common boost weight in half-units; None for zero."""
        ws = {}
        for k in self.terms:
            ws.setdefault(key_weight(k), k)
            if len(ws) > 1:
                (w1, k1), (w2, k2) = sorted(ws.items())[:2]
                raise InhomogeneousExpression(
                    f"mixed weights {w1}/2 ({term_str(k1, Q(1))}) vs "
                    f"{w2}/2 ({term_str(k2, Q(1))})")
        return next(iter(ws)) if ws else None

    def __repr__(self):
        return f"GradedExpr({to_text(self)!r})"


# sentinel used by _mul_keys_cached to report a window drop
_TRUNCATED = object()


@functools.lru_cache(maxsize=200000)
def _mul_keys_cached(k1: Key, k2: Key, ctx: Context) -> tuple:
    z1, tm1, tp1, cf1, v1, a1, gj1, bj1, t1 = k1
    z2, tm2, tp2, cf2, v2, a2, gj2, bj2, t2 = k2
    z = z1 + z2
    if z > ctx.nz:
        return ()
    if (tm1 and tm2) or (tp1 and tp2):
        return ()
    a = a1 + a2
    if a < ctx.amin or a > ctx.amax:
        return ((_TRUNCATED, Q(1)),)
    sign = _cross_sign(k1, k2)
    csign, cf, vshift = cf_mul(cf1, cf2, ctx)
    sign *= csign
    v = v1 + v2 + vshift
    gj = _merge_jets(gj1, gj2, graded=True)
    if gj is None:
        return ()
    bj = _merge_jets(bj1, bj2, graded=False)
    tm = tm1 or tm2
    tp = tp1 or tp2
    coef = Q(sign)
    if t1 is not None and t2 is not None:
        out = []
        for tcoef, trig in _trig_mul(t1, t2):
            out.append(((z, tm, tp, cf, v, a, gj, bj, trig), coef * tcoef))
        return tuple(out)
    trig = t1 if t1 is not None else t2
    return (((z, tm, tp, cf, v, a, gj, bj, trig), coef),)


# ---------------------------------------------------------------------------
# construction helpers

_GEN_KEYS = {
    "z": (1, 0, 0, CF_ONE, 0, 0, (), (), None),
    "theta-": (0, 1, 0, CF_ONE, 0, 0, (), (), None),
    "theta+": (0, 0, 1, CF_ONE, 0, 0, (), (), None),
    "alpha": (0, 0, 0, CF_ALPHA, 0, 0, (), (), None),
    "lambda+": (0, 0, 0, ("L", "+"), 0, 0, (), (), None),
    "lambda-": (0, 0, 0, ("L", "-"), 0, 0, (), (), None),
    "eta+": (0, 0, 0, ("E", "+"), 0, 0, (), (), None),
    "eta-": (0, 0, 0, ("E", "-"), 0, 0, (), (), None),
    "v+": (0, 0, 0, CF_ONE, 1, 0, (), (), None),
    "v-": (0, 0, 0, CF_ONE, -1, 0, (), (), None),
    "a": (0, 0, 0, CF_ONE, 0, 1, (), (), None),
}


def gen(name: str, ctx: Context = DEFAULT_CTX) -> GradedExpr:
    try:
        key = _GEN_KEYS[name]
    except KeyError:
        raise KeyError(f"unknown generator {name!r}") from None
    return GradedExpr(ctx, {key: Q(1)})


def apow(k: int, ctx: Context = DEFAULT_CTX) -> GradedExpr:
    if k < ctx.amin or k > ctx.amax:
        return GradedExpr(ctx, {}, truncated=True)
    return GradedExpr(ctx, {(0, 0, 0, CF_ONE, 0, k, (), (), None): Q(1)})


def vpow(k: int, ctx: Context = DEFAULT_CTX) -> GradedExpr:
    return GradedExpr(ctx, {(0, 0, 0, CF_ONE, k, 0, (), (), None): Q(1)})


def jet(name: str, m: int = 0, n: int = 0, ctx: Context = DEFAULT_CTX) -> GradedExpr:
    info = field_info(name)
    if info.constant and (m or n):
        return GradedExpr.zero(ctx)
    atom = (((name, m, n), 1),)
    if info.degree == DEG_EVEN:
        key = (0, 0, 0, CF_ONE, 0, 0, (), atom, None)
    else:
        key = (0, 0, 0, CF_ONE, 0, 0, atom, (), None)
    return GradedExpr(ctx, {key: Q(1)})


def trig(kind: str, combo: Mapping[str, Fraction], pioff=Q(0),
         ctx: Context = DEFAULT_CTX) -> GradedExpr:
    """Trig atom of a rational-linear body argument; canonicalized."""
    for sym in combo:
        if not field_info(sym).trig:
            raise UnsupportedAtom(f"{sym!r} may not appear inside a trig argument")
    coef, atom = _canon_trig(kind, combo, Q(pioff))
    if coef == 0:
        return GradedExpr.zero(ctx)
    key = (0, 0, 0, CF_ONE, 0, 0, (), (), atom)
    return GradedExpr(ctx, {key: coef})


# ---------------------------------------------------------------------------
# text form

def _jet_str(name: str, m: int, n: int) -> str:
    if m == 0 and n == 0:
        return name
    return f"{name}_{{{'-' * m}{'+' * n}}}"


def _pow_str(base: str, k: int) -> str:
    return base if k == 1 else f"{base}^{k}"


def _trig_str(t: TrigAtom) -> str:
    kind, combo, pioff = t
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


def term_str(key: Key, coef: Fraction) -> str:
    z, tm, tp, cf, v, a, gj, bj, t = key
    factors = []
    if z:
        factors.append(_pow_str("z", z))
    if tm:
        factors.append("theta-")
    if tp:
        factors.append("theta+")
    if cf != CF_ONE:
        fam, kind = cf
        factors.append({"a": "alpha"}.get(kind)
                       or ("lambda" if fam == "L" else "eta") + kind)
    if v > 0:
        factors.append(_pow_str("v+", v))
    elif v < 0:
        factors.append(_pow_str("v-", -v))
    if a:
        factors.append("a" if a == 1 else f"a^{a}")
    for (name, m, n), exp in gj:
        factors.append(_pow_str(_jet_str(name, m, n), exp))
    for (name, m, n), exp in bj:
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


def to_text(e: GradedExpr) -> str:
    """Stable, sorted plain-text form; '0' for the zero expression."""
    if not e.terms:
        return "0"
    keys = sorted(e.terms, key=_key_sortable)
    out = []
    for k in keys:
        s = term_str(k, e.terms[k])
        if out:
            out.append(f"- {s[1:]}" if s.startswith("-") else f"+ {s}")
        else:
            out.append(s)
    return " ".join(out)


# ---------------------------------------------------------------------------
# derivations (primitive layer)

def _resort_gj(atoms: Sequence[tuple[str, int, int]]) -> Optional[tuple[int, tuple]]:
    """Sort an almost-sorted graded atom list, tracking commutation signs."""
    lst = list(atoms)
    sign = 1
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j] < lst[j - 1]:
            da = _gj_degree(lst[j][0])
            db = _gj_degree(lst[j - 1][0])
            sign *= commutation_sign(da, db)
            lst[j], lst[j - 1] = lst[j - 1], lst[j]
            j -= 1
    for i in range(1, len(lst)):
        if lst[i] == lst[i - 1] and is_self_odd(_gj_degree(lst[i][0])):
            return None
    counts: dict[tuple, int] = {}
    for atom in lst:
        counts[atom] = counts.get(atom, 0) + 1
    return sign, tuple(sorted(counts.items()))


def _expand_exps(jets) -> list[tuple[str, int, int]]:
    out = []
    for (name, m, n), exp in jets:
        out.extend([(name, m, n)] * exp)
    return out


def d_x(e: GradedExpr, direction: str) -> GradedExpr:
    """Abstract x-derivative (direction '-' or '+'): shifts jet indices."""
    dm, dn = (1, 0) if direction == "-" else (0, 1)
    acc: dict[Key, Fraction] = {}

    def put(key, c):
        nc = acc.get(key, Q(0)) + c
        if nc:
            acc[key] = nc
        else:
            acc.pop(key, None)

    for key, c in e.terms.items():
        z, tm, tp, cf, v, a, gj, bj, t = key
        # graded jets
        flat = _expand_exps(gj)
        for i, (name, m, n) in enumerate(flat):
            if field_info(name).constant:
                continue
            mult = 1  # identical copies handled by repeated positions
            new = flat[:i] + [(name, m + dm, n + dn)] + flat[i + 1:]
            res = _resort_gj(new)
            if res is None:
                continue
            sgn, gj2 = res
            put((z, tm, tp, cf, v, a, gj2, bj, t), c * sgn * mult)
        # scalar jets
        for idx, ((name, m, n), exp) in enumerate(bj):
            if field_info(name).constant:
                continue
            counts = dict(bj)
            if exp == 1:
                del counts[(name, m, n)]
            else:
                counts[(name, m, n)] = exp - 1
            atom2 = (name, m + dm, n + dn)
            counts[atom2] = counts.get(atom2, 0) + 1
            put((z, tm, tp, cf, v, a, gj, tuple(sorted(counts.items())), t),
                c * exp)
        # trig chain rule
        if t is not None:
            kind, combo, pioff = t
            for sym, co in combo:
                if field_info(sym).constant:
                    continue
                newkind = "c" if kind == "s" else "s"
                factor = co if kind == "s" else -co
                counts = dict(bj)
                atom2 = (sym, dm, dn)
                counts[atom2] = counts.get(atom2, 0) + 1
                put((z, tm, tp, cf, v, a, gj, tuple(sorted(counts.items())),
                     (newkind, combo, pioff)), c * factor)
    return GradedExpr(e.ctx, acc, e.truncated)


def d_minus(e: GradedExpr) -> GradedExpr:
    return d_x(e, "-")


def d_plus(e: GradedExpr) -> GradedExpr:
    return d_x(e, "+")


def d_z(e: GradedExpr) -> GradedExpr:
    acc = {}
    for key, c in e.terms.items():
        z, rest = key[0], key[1:]
        if z:
            acc[(z - 1, *rest)] = acc.get((z - 1, *rest), Q(0)) + c * z
    return GradedExpr(e.ctx, acc, e.truncated)


def d_theta(e: GradedExpr, which: str) -> GradedExpr:
    """Left derivative in theta- ('-') or theta+ ('+')."""
    acc = {}
    for key, c in e.terms.items():
        z, tm, tp, cf, v, a, gj, bj, t = key
        if which == "-":
            if not tm:
                continue
            sign = -1 if z % 2 else 1
            k2 = (z, 0, tp, cf, v, a, gj, bj, t)
        else:
            if not tp:
                continue
            sign = -1 if z % 2 else 1
            k2 = (z, tm, 0, cf, v, a, gj, bj, t)
        acc[k2] = acc.get(k2, Q(0)) + c * sign
    return GradedExpr(e.ctx, acc, e.truncated)


# ---------------------------------------------------------------------------
# sector split, series coefficients, truncation

def component_split(e: GradedExpr) -> dict[tuple[int, int], GradedExpr]:
    """Split by theta sector; values have the theta bits removed."""
    out: dict[tuple[int, int], dict] = {}
    for key, c in e.terms.items():
        z, tm, tp, cf, v, a, gj, bj, t = key
        out.setdefault((tm, tp), {})[(z, 0, 0, cf, v, a, gj, bj, t)] = c
    return {sec: GradedExpr(e.ctx, terms, e.truncated)
            for sec, terms in out.items()}


def series_coefficient(e: GradedExpr, n: int) -> GradedExpr:
    """Coefficient of a^n (a removed from the result)."""
    if n < e.ctx.amin or n > e.ctx.amax:
        raise OutsideWindow(f"a^{n} outside window [{e.ctx.amin}, {e.ctx.amax}]")
    acc = {}
    for key, c in e.terms.items():
        z, tm, tp, cf, v, a, gj, bj, t = key
        if a == n:
            acc[(z, tm, tp, cf, v, 0, gj, bj, t)] = c
    return GradedExpr(e.ctx, acc, e.truncated)


def with_context(e: GradedExpr, ctx: Context) -> GradedExpr:
    """Reinterpret under another truncation context, dropping what falls out."""
    acc = {}
    truncated = e.truncated
    for key, c in e.terms.items():
        z, tm, tp, cf, v, a, gj, bj, t = key
        if z > ctx.nz:
            continue
        if a < ctx.amin or a > ctx.amax:
            truncated = True
            continue
        acc[key] = c
    return GradedExpr(ctx, acc, truncated)


# ---------------------------------------------------------------------------
# trig of a superspace expression

def _body_split(e: GradedExpr) -> tuple[dict[str, Fraction], Fraction, GradedExpr]:
    """Split into (linear body combo, pi offset, remainder)."""
    combo: dict[str, Fraction] = {}
    pioff = Q(0)
    rest: dict[Key, Fraction] = {}
    for key, c in e.terms.items():
        z, tm, tp, cf, v, a, gj, bj, t = key
        if (z == 0 and not tm and not tp and cf == CF_ONE and v == 0 and a == 0
                and not gj and t is None and len(bj) == 1):
            (name, m, n), exp = bj[0]
            if exp == 1 and m == 0 and n == 0 and field_info(name).trig:
                if name == "pi":
                    pioff += c
                else:
                    combo[name] = combo.get(name, Q(0)) + c
                continue
        if key == KEY_ONE:
            raise UnsupportedAtom(
                "constant trig offsets must be rational multiples of pi")
        rest[key] = c
    return combo, pioff, GradedExpr(e.ctx, rest, e.truncated)


_TRIG_CYCLE = {"s": ("s", "c", "s", "c"), "c": ("c", "s", "c", "s")}
_TRIG_SIGNS = {"s": (1, 1, -1, -1), "c": (1, -1, -1, 1)}


def trig_of(kind: str, e: GradedExpr, half=Q(1)) -> GradedExpr:
    """sin/cos of ``half * e`` for degree-(0,0) e with nilpotent non-body part.

    The body (linear combination of trig-capable 0-jets plus a rational
    multiple of pi) seeds exact trig atoms; the remainder enters through a
    finite Taylor expansion that terminates because it is nilpotent under
    the active truncation.
    """
    if kind not in ("s", "c"):
        raise ValueError("kind must be 's' or 'c'")
    deg = e.degree()
    if deg not in (None, DEG_EVEN):
        raise NotScalarDegree(f"trig argument has degree {deg}")
    scaled = e.scale(Q(half))
    combo, pioff, nil = _body_split(scaled)
    ctx = e.ctx
    result = GradedExpr.zero(ctx)
    power = GradedExpr.rational(1, ctx)
    kfact = Q(1)
    k = 0
    while True:
        if k:
            power = power * nil
            kfact *= k
            if power.is_zero():
                break
        fk_kind = _TRIG_CYCLE[kind][k % 4]
        fk_sign = _TRIG_SIGNS[kind][k % 4]
        coef, atom = _canon_trig(fk_kind, combo, pioff)
        coef *= fk_sign
        if coef != 0:
            base_key = (0, 0, 0, CF_ONE, 0, 0, (), (), atom)
            base = GradedExpr(ctx, {base_key: coef / kfact})
            result = result + base * power
        k += 1
        if k > 64:
            raise NonNilpotentRemainder(
                "trig remainder has no vanishing power under the truncation")
    return result


# ---------------------------------------------------------------------------
# substitution

def _term_factors(key: Key, ctx: Context) -> Iterator[GradedExpr]:
    """Factor a monomial into single-slot expressions, in normal order."""
    z, tm, tp, cf, v, a, gj, bj, t = key
    if z:
        yield GradedExpr(ctx, {(z, 0, 0, CF_ONE, 0, 0, (), (), None): Q(1)})
    if tm:
        yield gen("theta-", ctx)
    if tp:
        yield gen("theta+", ctx)
    if cf != CF_ONE or v:
        yield GradedExpr(ctx, {(0, 0, 0, cf, v, 0, (), (), None): Q(1)})
    if a:
        yield apow(a, ctx)
    for (name, m, n), exp in gj:
        atom = GradedExpr(ctx, {(0, 0, 0, CF_ONE, 0, 0, (((name, m, n), 1),), (), None): Q(1)})
        for _ in range(exp):
            yield atom
    for (name, m, n), exp in bj:
        atom = GradedExpr(ctx, {(0, 0, 0, CF_ONE, 0, 0, (), (((name, m, n), 1),), None): Q(1)})
        for _ in range(exp):
            yield atom
    if t is not None:
        yield GradedExpr(ctx, {(0, 0, 0, CF_ONE, 0, 0, (), (), t): Q(1)})


JetRule = Callable[[str, int, int], Optional[GradedExpr]]


def _substituted_trig(t: TrigAtom, rule: JetRule, ctx: Context) -> Optional[GradedExpr]:
    """Trig atom re-expanded on its substituted argument; None if nothing binds."""
    kind, combo, pioff = t
    repls = [rule(sym, 0, 0) for sym, _ in combo]
    if all(repl is None for repl in repls):
        return None
    arg = jet("pi", 0, 0, ctx).scale(pioff)
    for (sym, co), repl in zip(combo, repls):
        arg = arg + (jet(sym, 0, 0, ctx) if repl is None else repl).scale(co)
    return trig_of(kind, arg)


def substitute_jets(e: GradedExpr, rule: JetRule) -> GradedExpr:
    """Replace individual field jets; one simultaneous pass, no iteration.

    ``rule(name, m, n)`` returns a replacement expression or None to keep the
    jet.  A trig atom whose argument mentions a symbol with a ``(0, 0)``
    replacement is re-expanded with ``trig_of`` on the substituted argument,
    its pi offset kept.
    """
    ctx = e.ctx
    out = GradedExpr.zero(ctx)
    for key, c in e.terms.items():
        z, tm, tp, cf, v, a, gj, bj, t = key
        new_trig = None if t is None else _substituted_trig(t, rule, ctx)
        if new_trig is None and all(rule(*atom) is None for atom, _ in gj + bj):
            out = out + GradedExpr(ctx, {key: c})
            continue
        term = GradedExpr.rational(c, ctx)
        for factor in _term_factors(key, ctx):
            (fkey, _), = factor.terms.items()
            atoms = fkey[6] or fkey[7]
            if atoms:
                repl = rule(*atoms[0][0])
            else:
                repl = new_trig if fkey[8] is not None else None
            term = term * (factor if repl is None else repl)
        out = out + term
    return out


class JetRewriter:
    """Fixed-point jet rewriting with lazily prolonged first-order rules.

    Built from ordered base rules ``((name, m, n), expr)``.  The jet
    ``(name, m, n)`` is rewritten by the most specific base of that name
    with ``bm <= m`` and ``bn <= n`` (the largest ``bm + bn``; on a tie the
    base listed first), differentiated ``m - bm`` times by d- and ``n - bn``
    times by d+.  Prolongations are cached on the instance.
    """

    def __init__(self, base_rules: Iterable[tuple[tuple[str, int, int], GradedExpr]]):
        self._bases: dict[str, list[tuple[int, int, GradedExpr]]] = {}
        for (name, m, n), expr in base_rules:
            self._bases.setdefault(name, []).append((m, n, expr))
        self._prolonged: dict[tuple[str, int, int], Optional[GradedExpr]] = {}

    def rule(self, name: str, m: int, n: int) -> Optional[GradedExpr]:
        """Replacement of the jet, or None when no base rule reaches it."""
        bases = self._bases.get(name)
        if bases is None:
            return None
        try:
            return self._prolonged[name, m, n]
        except KeyError:
            pass
        reachable = [base for base in bases if base[0] <= m and base[1] <= n]
        expr = None
        if reachable:
            # max() keeps the first of equally specific bases
            bm, bn, expr = max(reachable, key=lambda base: base[0] + base[1])
            for _ in range(m - bm):
                expr = d_minus(expr)
            for _ in range(n - bn):
                expr = d_plus(expr)
        self._prolonged[name, m, n] = expr
        return expr

    def reduce(self, e: GradedExpr) -> GradedExpr:
        """Apply ``substitute_jets`` with these rules until nothing changes."""
        for _ in range(64):
            new = substitute_jets(e, self.rule)
            if new.terms == e.terms:
                return new
            e = new
        raise NonTermination("jet rewriting did not reach a fixed point")


_MIRROR_FIELDS = {"psi+": "psi-", "psi-": "psi+", "chi+": "chi-", "chi-": "chi+",
                  "psi+~": "psi-~", "psi-~": "psi+~", "chi+~": "chi-~",
                  "chi-~": "chi+~"}


def mirror_pm(e: GradedExpr) -> GradedExpr:
    """Image under the involution exchanging the two lightcone directions.

    Swaps the odd coordinates, the two fermion components, both jet indices,
    the two parameter families and the dual vector parameters.  This is a
    degree-swapping algebra automorphism, so normal ordering is restored
    with commutation signs where the sort order changes.
    """
    acc: dict[Key, Fraction] = {}
    for key, c in e.terms.items():
        z, tm, tp, cf, v, a, gj, bj, t = key
        fam, kind = cf
        cf2 = ({"L": "E", "E": "L"}.get(fam, fam), kind)
        gj_atoms = []
        for (name, m, n), exp in gj:
            name2 = _MIRROR_FIELDS.get(name, name)
            gj_atoms.extend([(name2, n, m)] * exp)
        res = _resort_gj(gj_atoms)
        if res is None:
            continue
        sgn, gj2 = res
        bj2 = tuple(sorted(((name, n, m), exp) for (name, m, n), exp in bj))
        key2 = (z, tp, tm, cf2, -v, a, gj2, bj2, t)
        acc[key2] = acc.get(key2, Q(0)) + c * sgn
    return GradedExpr(e.ctx, acc, e.truncated)


def substitute(e: GradedExpr, bindings: Mapping[str, GradedExpr]) -> GradedExpr:
    """Field-wide capture-free substitution followed by normalization.

    Every jet of a bound field is replaced by the matching x-derivative of
    its replacement, and bound trig-capable bodies inside trig arguments
    are re-expanded (see ``substitute_jets``).  A nonzero replacement must
    carry the degree and boost weight of the field it replaces.
    """
    for name, repl in bindings.items():
        if repl.is_zero():
            continue
        info = field_info(name)
        rd = repl.degree()
        if rd is not None and rd != info.degree:
            raise DegreeMismatch(f"{name}: {info.degree} vs {rd}")
        rw = repl.weight()
        if rw is not None and rw != info.weight:
            raise WeightMismatch(f"{name}: {info.weight}/2 vs {rw}/2")
    rewriter = JetRewriter(((name, 0, 0), b) for name, b in bindings.items())
    return substitute_jets(e, rewriter.rule)
