"""Graded-commutative symbolic kernel.

Expressions are finite sums of normal-ordered monomials with exact rational
coefficients.  An expression stores them fraction-free, as the content /
primitive-part form of FLINT's ``fmpq_poly``: one ``int`` numerator per
monomial over one positive common denominator ``den``, with
``gcd(den, *numerators) == 1`` and zero as ``{}`` over 1.  Sums, products
and derivatives do integer arithmetic per term and touch the denominators
once per operation; ``GradedExpr.coefficients()`` is the one reader of the
rational values (an ``int`` when integral, a ``Fraction`` otherwise).  A
monomial factors into fixed slots, in this global order:

    z^k  *  theta-  *  theta+  *  clifford  *  v+^j  *  a^n  *  graded jets
         *  scalar jets  *  (at most one trig atom)

Slots after ``a^n`` are listed in increasing sort rank; scalar jets and trig
atoms carry degree (0,0) and commute with everything, so only the first
groups participate in sign bookkeeping.  Commutation signs between distinct
slots come from the bit pairing of their degrees; products *inside* the
clifford slot come from the spinor-parameter relation tables, which is where
the two parameter families deviate from plain graded commutativity.

A monomial key is the flat tuple ``(z, tm, tp, cf, v, a, gj, bj, trig)``
(the packed monomials of Monagan & Pearce, CASC 2007).  The two jet slots
hold the id of an interned jet tuple, 0 for none, and the trig slot holds
None or the id, at least 1, of an interned trig atom, so every slot hashes
in C and a dict operation on a key makes no Python call.  Ids follow the
order of first use; readers dereference them (``jets_of``, ``trig_parts``)
and sort keys by contents, never by id.

The trig layer keeps at most one sine/cosine per term, of an argument that
is a rational combination of scalar body symbols plus a rational multiple of
pi.  Products of trig atoms are immediately rewritten to half-sums (product
to sum), which makes the zero test decidable.

Monomial products are cached by ``_mul_keys_cached``, keyed on the two keys
only: the z-order, theta and a-window tests run in ``GradedExpr.__mul__``
(its one caller), so every truncation window shares one cache.  A miss
is composed from per-slot tables, each a pure function of immutable or
interned inputs: ``_trig_mul`` per pair of trig ids, ``_merge_jets`` per
pair of jet ids (it also returns the interleaving parity of the second
tuple into the first and the first one's degree) and ``_prefix_sign`` per
pair of ``(z, theta-, theta+, clifford)`` prefixes.  The pairing is bilinear
mod 2 and every jet ranks after the prefix, so these give the whole sign
(``_cross_sign``).  A cached product is ``(key, numerator, denominator)``
entries: the denominator is 1, or 2 for a trig half-sum (4 where a Niven
1/2 joins it).

An expression holds only what its context admits, however it is built: a
term past the z-order vanishes, and a term that leaves the Laurent window
in ``a`` is dropped, and the result records where.  Its precision ``prec``
is None when it is exact, and otherwise the lowest power of ``a`` that a
dropped term could still reach, so every coefficient below ``a^prec`` is
exact (the ``O(a^p)`` of power series arithmetic, Knuth, TAOCP vol. 2
section 4.7).  A product takes
``min(prec f + val g, prec g + val f)`` and the lowest power it drops, a
sum the lower precision of its two terms, and ``series_coefficient``
refuses an order at or past the precision.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf, lcm
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional

from .errors import (
    ConfigError,
    ContextMismatch,
    DegreeMismatch,
    InhomogeneousExpression,
    MixedParameterFamilies,
    NonNilpotentRemainder,
    NonTermination,
    NotScalarDegree,
    OutsideWindow,
    UnknownSymbol,
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
    degree_add,
    is_self_odd,
    pairing,
)

Q = Fraction
HALF = Q(1, 2)
SIXTH = Q(1, 6)

# entries kept by each cache on the monomial-product path
_CACHE_SIZE = 200000


# ---------------------------------------------------------------------------
# truncation context

class Context(NamedTuple):
    """Truncation settings: z-order bound and Laurent window in a."""

    nz: int = 1
    amin: int = -2
    amax: int = 8


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


# The model's alphabet, declared once; every other view derives from these.
# component role -> (degree, weight, z-order, theta-, theta+), in the order a
# superfield lists them, the body first
COMPONENTS = {
    "X": (DEG_EVEN, 0, 0, 0, 0),
    "psi+": (DEG_01, +1, 0, 1, 0),
    "psi-": (DEG_10, -1, 0, 0, 1),
    "F": (DEG_11, 0, 0, 1, 1),
    "G": (DEG_11, 0, 1, 0, 0),
    "chi+": (DEG_10, +1, 1, 1, 0),
    "chi-": (DEG_01, -1, 1, 0, 1),
    "Y": (DEG_EVEN, 0, 1, 1, 1),
}
# superfield -> the suffix of its component fields' names
SUPERFIELDS = {"Phi": "", "Phi~": "~"}

# the body, with no z and no theta, is the one component a trig argument
# may hold; nothing writes to the registry after import
_REGISTRY: dict[str, FieldInfo] = {
    "pi": FieldInfo(DEG_EVEN, 0, trig=True, constant=True),
    **{role + suffix: FieldInfo(degree, weight, trig=not (z or tm or tp))
       for suffix in SUPERFIELDS.values()
       for role, (degree, weight, z, tm, tp) in COMPONENTS.items()},
}


def field_info(name: str) -> FieldInfo:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownSymbol(f"unknown field {name!r}") from None


# ---------------------------------------------------------------------------
# clifford slot
#
# cf = (family, kind); family '' for identity/alpha, 'L' for lambda, 'E' for
# eta; kind in {'1', 'a', '+', '-'}.  v+^j is tracked separately (v- = v+^-1).

CF_ONE = ("", "1")
CF_ALPHA = ("", "a")

# clifford value -> (generator name, degree, weight); the identity has no
# generator
_CLIFFORD = {
    CF_ONE: (None, DEG_EVEN, 0),
    CF_ALPHA: ("alpha", DEG_11, 0),
    ("L", "+"): ("lambda+", DEG_01, +1),
    ("L", "-"): ("lambda-", DEG_10, -1),
    ("E", "+"): ("eta+", DEG_10, -1),
    ("E", "-"): ("eta-", DEG_01, +1),
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
_ETA_TABLE = {kinds: (sign, kind, -vshift)
              for kinds, (sign, kind, vshift) in _LAMBDA_TABLE.items()}


def cf_degree(cf: tuple[str, str]) -> Degree:
    return _CLIFFORD[cf][1]


def cf_mul(cf1: tuple[str, str], cf2: tuple[str, str]) -> tuple[int, tuple[str, str], int]:
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
    out_fam = "" if kind in ("1", "a") else fam
    return sign, (out_fam, kind), vshift


# ---------------------------------------------------------------------------
# trig atoms
#
# trig = (kind, combo, pioff): kind 's'|'c', combo a tuple of (symbol, Q)
# sorted by symbol with nonzero rational coefficients, the first positive,
# pioff a rational multiple of pi in [0, 1/2) after canonicalization; a
# constant angle (empty combo) is always a sine.  Atoms are interned
# (hash-consed, Filliatre & Conchon 2006): _trig_atom gives every atom an
# int id, the same for equal atoms, and a key holds that id, so hashing a
# key never reaches the Fractions inside the atom.  The id indexes the
# record (kind, combo, pioff, den, partner): den is the lcm of the combo's
# denominators, which d_x scales by, and partner the id of the sin/cos atom
# of the same argument, which d_x swaps to (None for a constant angle).

# id -> record; no atom has id 0, so a trig slot is None or a true int
_TRIGS: list[Optional[tuple]] = [None]
_TRIG_IDS: dict[tuple, int] = {}


def _trig_atom(kind: str, combo: tuple, pioff: Fraction) -> int:
    """The id of an already canonical atom, interned with its partner."""
    plain = (kind, combo, pioff)
    atom = _TRIG_IDS.get(plain)
    if atom is None:
        atom = len(_TRIGS)
        den = lcm(*(co.denominator for _, co in combo))
        if not combo:
            _TRIG_IDS[plain] = atom
            _TRIGS.append((kind, combo, pioff, den, None))
        else:
            other = "c" if kind == "s" else "s"
            _TRIG_IDS[plain], _TRIG_IDS[other, combo, pioff] = atom, atom + 1
            _TRIGS.append((kind, combo, pioff, den, atom + 1))
            _TRIGS.append((other, combo, pioff, den, atom))
    return atom


def trig_parts(atom: int) -> tuple[str, tuple, Fraction]:
    """The canonical ``(kind, combo, pioff)`` of a key's trig id."""
    return _TRIGS[atom][:3]


def _canon_trig(kind: str, combo: Mapping[str, Fraction],
                pioff: Fraction) -> tuple[Fraction, Optional[int]]:
    """Canonicalize a trig atom; returns (coefficient factor, atom id or None)."""
    items = {}
    pioff = Q(pioff)
    for sym, co in combo.items():
        if sym == "pi":
            pioff += co
        elif co != 0:
            items[sym] = Q(co)
    coef = 1
    ordered = sorted(items.items())
    if ordered and ordered[0][1] < 0:
        ordered = [(s, -c) for s, c in ordered]
        pioff = -pioff
        coef = -1 if kind == "s" else 1
    pioff %= 2
    if pioff >= 1:
        pioff -= 1
        coef = -coef
    if pioff >= HALF:
        pioff -= HALF
        if kind == "c":
            coef = -coef
        kind = "c" if kind == "s" else "s"
    if not ordered:
        if pioff == 0:
            # constant angle, a multiple of pi/2: exact value
            return (coef if kind == "c" else 0), None
        if kind == "c":
            # one form per constant angle: cos(t*pi) = sin((1/2 - t)*pi)
            kind, pioff = "s", HALF - pioff
        if pioff == SIXTH:
            # sin(t*pi) with 0 < t < 1/2 is rational only at t = 1/6 (Niven)
            return coef * HALF, None
    return coef, _trig_atom(kind, tuple(ordered), pioff)


def _trig_arg_add(t1: tuple, t2: tuple, sub: bool) -> tuple[dict, Fraction]:
    combo: dict[str, Fraction] = dict(t1[1])
    for sym, co in t2[1]:
        combo[sym] = combo.get(sym, Q(0)) + (-co if sub else co)
    pioff = t1[2] + (-t2[2] if sub else t2[2])
    return combo, pioff


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _trig_mul(a1: int, a2: int) -> tuple[tuple[int, int, Optional[int]], ...]:
    """Product-to-sum rewrite of a pair of trig ids as ``(numerator,
    denominator, atom id)`` triples, once per pair; a tuple, so the shared
    result cannot be changed."""
    t1, t2 = _TRIGS[a1], _TRIGS[a2]
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
            coef = pre * factor
            out.append((coef.numerator, coef.denominator, atom))
    return tuple(out)


# ---------------------------------------------------------------------------
# monomial keys
#
# key = (z, tm, tp, cf, v, a, gj, bj, trig)
#   gj: id of a sorted tuple of ((name, m, n), exp) for graded component jets
#   bj: id of a sorted tuple of ((name, m, n), exp) for scalar (body) jets
#   trig: None or the id of a trig atom
# Jet tuples are interned like trig atoms; id 0 is (), so "not gj" means
# no graded jets.

Key = tuple

_JETS: list[tuple] = [()]
_JET_IDS: dict[tuple, int] = {(): 0}


def _jet_id(jets: tuple) -> int:
    """The id of a sorted ``((name, m, n), exp)`` tuple, interned on first use."""
    i = _JET_IDS.get(jets)
    if i is None:
        i = _JET_IDS[jets] = len(_JETS)
        _JETS.append(jets)
    return i


def jets_of(jet_id: int) -> tuple:
    """The ``((name, m, n), exp)`` tuple of a key's jet slot."""
    return _JETS[jet_id]


KEY_ONE: Key = (0, 0, 0, CF_ONE, 0, 0, 0, 0, None)


# Sign-relevant atoms are (rank, degree, multiplicity) triples.  The prefix
# slots (z, theta-, theta+, clifford) rank 0..3 and every graded jet ranks
# after them, by its (name, m, n); scalar jets are even.

def _prefix_atoms(prefix: tuple) -> list[tuple[int, Degree, int]]:
    """Odd atoms of a key's prefix ``(z, theta-, theta+, clifford)``."""
    z, tm, tp, cf = prefix
    out = []
    if z:
        out.append((0, DEG_11, z))
    if tm:
        out.append((1, DEG_01, 1))
    if tp:
        out.append((2, DEG_10, 1))
    d = cf_degree(cf)
    if d != DEG_EVEN:
        out.append((3, d, 1))
    return out


def _jet_atoms(jets: tuple) -> list[tuple[tuple, Degree, int]]:
    return [(atom, field_info(atom[0]).degree, exp) for atom, exp in jets]


def _atoms_degree(atoms) -> Degree:
    d = DEG_EVEN
    for _, deg, mult in atoms:
        if mult % 2:
            d = degree_add(d, deg)
    return d


def _interleave_parity(atoms1, atoms2) -> int:
    """Parity of moving each atom of atoms2 past the atoms of atoms1 that
    rank after it."""
    s = 0
    for r2, d2, c2 in atoms2:
        for r1, d1, c1 in atoms1:
            if r1 > r2:
                s += pairing(d1, d2) * c1 * c2
    return s % 2


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _prefix_sign(p1: tuple, p2: tuple) -> tuple[int, Degree]:
    """Interleaving parity of prefix p2 into prefix p1, and p2's degree."""
    atoms2 = _prefix_atoms(p2)
    return _interleave_parity(_prefix_atoms(p1), atoms2), _atoms_degree(atoms2)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _merge_jets(i1: int, i2: int) -> tuple[Optional[int], int, Degree]:
    """Merge two jet slots.

    Returns the id of the merged tuple (None when an odd atom repeats), the
    parity of interleaving the second slot's atoms into the first's and the
    degree of the first; the last two are 0 and even for scalar jets.
    """
    j1, j2 = _JETS[i1], _JETS[i2]
    counts = dict(j1)
    for atom, exp in j2:
        counts[atom] = counts.get(atom, 0) + exp
    merged = tuple(sorted(counts.items()))
    atoms1 = _jet_atoms(j1)
    parity = _interleave_parity(atoms1, _jet_atoms(j2))
    if any(exp > 1 and is_self_odd(deg) for _, deg, exp in _jet_atoms(merged)):
        return None, parity, _atoms_degree(atoms1)
    return _jet_id(merged), parity, _atoms_degree(atoms1)


def _cross_sign(key1: Key, key2: Key, jets_parity: int, jets1_degree: Degree) -> int:
    """Sign from interleaving key2's graded atoms into key1's.

    The pairing is bilinear mod 2 and no prefix atom ranks after a jet, so
    the sign splits into prefix x prefix (a table), key1's graded jets x
    key2's prefix (the pairing of their total degrees) and jets x jets
    (``jets_parity``, from ``_merge_jets``).
    """
    parity, prefix2_degree = _prefix_sign(key1[:4], key2[:4])
    parity += pairing(jets1_degree, prefix2_degree) + jets_parity
    return -1 if parity % 2 else 1


def key_degree(key: Key) -> Degree:
    return degree_add(_atoms_degree(_prefix_atoms(key[:4])),
                      _atoms_degree(_jet_atoms(_JETS[key[6]])))


def key_weight(key: Key) -> BoostWeight:
    z, tm, tp, cf, v, a, gj, bj, trig = key
    # theta- and theta+ carry weights -1 and +1
    w = tp - tm + _CLIFFORD[cf][2] + 2 * v
    for (name, m, n), exp in _JETS[gj] + _JETS[bj]:
        w += exp * (field_info(name).weight + 2 * (m - n))
    return w


def _key_sortable(key: Key):
    """A sort key by contents: ids follow the order of first use."""
    z, tm, tp, cf, v, a, gj, bj, trig = key
    trig_s = ()
    if trig is not None:
        kind, combo, pioff = trig_parts(trig)
        trig_s = (kind, tuple((s, c.numerator, c.denominator) for s, c in combo),
                  pioff.numerator, pioff.denominator)
    return (z, tm, tp, cf, v, a, _JETS[gj], _JETS[bj], trig_s)


# ---------------------------------------------------------------------------
# expressions

class GradedExpr:
    """Canonical-form element of the graded algebra (immutable by convention).

    ``terms`` maps each monomial key to a nonzero ``int`` numerator and
    ``den`` is the one positive common denominator, so the coefficient of
    ``key`` is ``terms[key] / den``.  The form is canonical: ``gcd(den,
    *numerators) == 1`` and zero is ``{}`` over 1, so equal expressions
    have equal ``(ctx, den, terms)``.  Read the rational values through
    ``coefficients()``.

    ``GradedExpr(ctx, pairs, prec)`` sums ``(key, int | Fraction)`` pairs
    over the lcm of their denominators and keeps what ``ctx`` admits
    (``_admitted``), so it also projects into a narrower window.  Ring
    operations and derivatives, whose keys derive from admitted ones, call
    the unchecked ``_from_ints``.  A coefficient is an ``int`` or a
    ``Fraction``, and an operand also a ``GradedExpr``; anything else raises
    ``ConfigError``.

    ``prec`` is the precision in ``a``: None when exact, else the lowest
    power of ``a`` a dropped term could reach (``-inf`` when that has no
    bound).  Equality compares the terms, not the precision, so an
    expression is not hashable: as a key, ``X`` and ``X + O(a^3)`` would be
    one.
    """

    __slots__ = ("ctx", "terms", "den", "prec")

    def __init__(self, ctx: Context, terms: Iterable[tuple[Key, "int | Fraction"]] = (),
                 prec: "int | float | None" = None):
        pairs = [(k, _exact(c)) for k, c in terms]
        # over the lcm of the denominators every coefficient is an int numerator
        den = lcm(*(c.denominator for _, c in pairs))
        e = _admitted(ctx, ((k, c.numerator * (den // c.denominator)) for k, c in pairs),
                      den, prec)
        self.ctx, self.terms, self.den, self.prec = e.ctx, e.terms, e.den, e.prec

    # -- helpers ------------------------------------------------------------

    @staticmethod
    def zero(ctx: Context = DEFAULT_CTX) -> "GradedExpr":
        return GradedExpr(ctx)

    @staticmethod
    def rational(q, ctx: Context = DEFAULT_CTX) -> "GradedExpr":
        return GradedExpr(ctx, ((KEY_ONE, q),))

    def is_zero(self) -> bool:
        return not self.terms

    def coefficients(self) -> Iterator[tuple[Key, "int | Fraction"]]:
        """``(key, coefficient)`` pairs; a coefficient is an ``int`` when it
        is integral and a ``Fraction`` otherwise."""
        den = self.den
        for k, c in self.terms.items():
            yield k, (c // den if c % den == 0 else Q(c, den))

    def _require_same_ctx(self, other: "GradedExpr") -> None:
        if self.ctx != other.ctx:
            raise ContextMismatch(f"incompatible truncation contexts {self.ctx} vs {other.ctx}")

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, GradedExpr):
            other = GradedExpr.rational(other, self.ctx)
        self._require_same_ctx(other)
        den = lcm(self.den, other.den)
        m1, m2 = den // self.den, den // other.den
        acc = (self.terms.copy() if m1 == 1
               else {k: c * m1 for k, c in self.terms.items()})
        pairs = (other.terms.items() if m2 == 1
                 else ((k, c * m2) for k, c in other.terms.items()))
        p, q = self.prec, other.prec
        return _from_ints(self.ctx, pairs, den, p if q is None else q if p is None else min(p, q),
                          acc)

    __radd__ = __add__

    def __neg__(self):
        return _from_ints(self.ctx, (), self.den, self.prec,
                          {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, GradedExpr):
            other = GradedExpr.rational(other, self.ctx)
        return self + (-other)

    def __rsub__(self, other):
        return GradedExpr.rational(other, self.ctx) + (-self)

    def scale(self, q) -> "GradedExpr":
        if _exact(q) == 0:
            return GradedExpr.zero(self.ctx)
        p = q.numerator
        acc = self.terms.copy() if p == 1 else {k: p * c for k, c in self.terms.items()}
        return _from_ints(self.ctx, (), self.den * q.denominator, self.prec, acc)

    def __mul__(self, other):
        if not isinstance(other, GradedExpr):
            return self.scale(other)
        self._require_same_ctx(other)
        ctx = self.ctx
        nz, amin, amax = ctx
        products = []
        append = products.append
        # lcm of the product-table denominators met so far
        den = 1
        low = None  # the lowest power of a that the window drops
        for k1, c1 in self.terms.items():
            z1, tm1, tp1, a1 = k1[0], k1[1], k1[2], k1[5]
            for k2, c2 in other.terms.items():
                # the tests of ``_admitted``, inline on this hot path: a
                # product that vanishes by z-order or a repeated theta is
                # not a truncation, so these tests come before the a-window
                if z1 + k2[0] > nz or (tm1 and k2[1]) or (tp1 and k2[2]):
                    continue
                a = a1 + k2[5]
                if a < amin or a > amax:
                    if low is None or a < low:
                        low = a
                    continue
                c12 = c1 * c2
                for k, n, d in _mul_keys_cached(k1, k2):
                    if d != den:
                        if den % d:
                            grown = lcm(den, d)
                            f = grown // den
                            products[:] = [(kp, cp * f) for kp, cp in products]
                            den = grown
                        n *= den // d
                    append((k, c12 * n))
        if self.prec is not None or other.prec is not None:
            low = _product_prec(self, other, low)
        return _from_ints(ctx, products, self.den * other.den * den, low)

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other):
        if not isinstance(other, GradedExpr):
            return NotImplemented
        return self.ctx == other.ctx and self.den == other.den and self.terms == other.terms

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


_new_expr = object.__new__


def _from_ints(ctx: Context, pairs: Iterable[tuple[Key, int]], den: int,
               prec: "int | float | None", acc: Optional[dict] = None) -> GradedExpr:
    """The expression ``sum(numerator * key) / den`` in canonical form.

    ``pairs`` of a repeated key are summed into ``acc`` (a fresh dict of
    nonzero numerators that the result keeps, or empty) and zero results
    dropped; one gcd then divides the common factor out of ``den`` and
    every numerator.
    """
    if acc is None:
        acc = {}
    get = acc.get
    for k, c in pairs:
        old = get(k)
        if old is None:
            if c:
                acc[k] = c
        else:
            c += old
            if c:
                acc[k] = c
            else:
                del acc[k]
    if den != 1:
        # an empty sum gives g = den, so zero is {} over 1
        g = gcd(den, *acc.values())
        if g != 1:
            den //= g
            acc = {k: c // g for k, c in acc.items()}
    e = _new_expr(GradedExpr)
    e.ctx = ctx
    e.terms = acc
    e.den = den
    e.prec = prec
    return e


def _admitted(ctx: Context, pairs: Iterable[tuple[Key, int]], den: int = 1,
              prec: "int | float | None" = None) -> GradedExpr:
    """``_from_ints`` of the pairs that ``ctx`` admits, by the tests of
    ``__mul__``: a term past the z-order vanishes exactly, and one whose
    power of ``a`` lies outside ``[amin, amax]`` is dropped into ``prec``.
    Every constructor builds through it."""
    nz, amin, amax = ctx
    kept = []
    for key, c in pairs:
        if key[0] <= nz:
            if amin <= key[5] <= amax:
                kept.append((key, c))
            elif prec is None or key[5] < prec:
                prec = key[5]
    return _from_ints(ctx, kept, den, prec)


def _val(e: GradedExpr) -> "int | float":
    """The lowest power of ``a`` that ``e`` may hold: its lowest term or its
    precision; ``inf`` for the exact zero."""
    low = min((key[5] for key in e.terms), default=inf)
    return low if e.prec is None else min(low, e.prec)


def _product_prec(f: GradedExpr, g: GradedExpr, low: Optional[int]) -> "int | float":
    """Precision of ``f * g``, whose pair loop dropped ``low`` at the lowest:
    (F + O(a^p)) (G + O(a^q)) is FG + O(a^(p + val G)) + O(a^(q + val F))."""
    for x, y in ((f, g), (g, f)):
        if x.prec is not None and (y.terms or y.prec is not None):
            p = x.prec + _val(y)
            low = p if low is None else min(low, p)
    return low


def _exact(q):
    """``q`` itself when it is an ``int`` or a ``Fraction``."""
    if isinstance(q, (int, Fraction)):
        return q
    raise ConfigError(
        f"an operand must be a GradedExpr, int or Fraction, not {type(q).__name__}")


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _mul_keys_cached(k1: Key, k2: Key) -> tuple:
    """``(key, numerator, denominator)`` entries of a monomial product,
    before the z-order, theta and a-window tests that ``__mul__`` makes;
    shared by every window.

    A miss is composed from the per-slot tables: the clifford product, the
    two jet merges, the cross sign and the trig product-to-sum.  Only a
    trig half-sum has a denominator other than 1.
    """
    z1, tm1, tp1, cf1, v1, a1, gj1, bj1, t1 = k1
    z2, tm2, tp2, cf2, v2, a2, gj2, bj2, t2 = k2
    csign, cf, vshift = cf_mul(cf1, cf2)
    gj, jets_parity, jets1_degree = _merge_jets(gj1, gj2)
    if gj is None:
        return ()
    sign = csign * _cross_sign(k1, k2, jets_parity, jets1_degree)
    head = (z1 + z2, tm1 or tm2, tp1 or tp2, cf, v1 + v2 + vshift, a1 + a2, gj,
            _merge_jets(bj1, bj2)[0])
    if t1 is not None and t2 is not None:
        return tuple(((*head, trig), sign * n, d) for n, d, trig in _trig_mul(t1, t2))
    return (((*head, t1 if t1 is not None else t2), sign, 1),)


# ---------------------------------------------------------------------------
# construction helpers

GENERATORS = {
    "z": (1, 0, 0, CF_ONE, 0, 0, 0, 0, None),
    "theta-": (0, 1, 0, CF_ONE, 0, 0, 0, 0, None),
    "theta+": (0, 0, 1, CF_ONE, 0, 0, 0, 0, None),
    **{name: (0, 0, 0, cf, 0, 0, 0, 0, None) for cf, (name, _, _) in _CLIFFORD.items() if name},
    "v+": (0, 0, 0, CF_ONE, 1, 0, 0, 0, None),
    "v-": (0, 0, 0, CF_ONE, -1, 0, 0, 0, None),
    "a": (0, 0, 0, CF_ONE, 0, 1, 0, 0, None),
}


def gen(name: str, ctx: Context = DEFAULT_CTX) -> GradedExpr:
    try:
        key = GENERATORS[name]
    except KeyError:
        raise UnknownSymbol(f"unknown generator {name!r}") from None
    return _admitted(ctx, ((key, 1),))


def apow(k: int, ctx: Context = DEFAULT_CTX) -> GradedExpr:
    return _admitted(ctx, (((0, 0, 0, CF_ONE, 0, k, 0, 0, None), 1),))


def vpow(k: int, ctx: Context = DEFAULT_CTX) -> GradedExpr:
    return _admitted(ctx, (((0, 0, 0, CF_ONE, k, 0, 0, 0, None), 1),))


def jet(name: str, m: int = 0, n: int = 0, ctx: Context = DEFAULT_CTX) -> GradedExpr:
    info = field_info(name)
    if info.constant and (m or n):
        return GradedExpr.zero(ctx)
    atom = _jet_id((((name, m, n), 1),))
    # an even jet goes to the scalar slot, an odd one to the graded slot
    gj, bj = (0, atom) if info.degree == DEG_EVEN else (atom, 0)
    return _admitted(ctx, (((0, 0, 0, CF_ONE, 0, 0, gj, bj, None), 1),))


def trig(kind: str, combo: Mapping[str, Fraction], pioff=Q(0),
         ctx: Context = DEFAULT_CTX) -> GradedExpr:
    """Trig atom of a rational-linear body argument; canonicalized."""
    if kind not in ("s", "c"):
        raise ConfigError(f"trig kind must be 's' or 'c', not {kind!r}")
    for sym in combo:
        if not field_info(sym).trig:
            raise UnsupportedAtom(f"{sym!r} may not appear inside a trig argument")
    coef, atom = _canon_trig(kind, combo, Q(pioff))
    return GradedExpr(ctx, (((0, 0, 0, CF_ONE, 0, 0, 0, 0, atom), coef),))


# ---------------------------------------------------------------------------
# text form

def _jet_str(name: str, m: int, n: int) -> str:
    if m == 0 and n == 0:
        return name
    return f"{name}_{{{'-' * m}{'+' * n}}}"


def _pow_str(base: str, k: int) -> str:
    return base if k == 1 else f"{base}^{k}"


def _trig_str(t: int) -> str:
    kind, combo, pioff = trig_parts(t)
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
        factors.append(_CLIFFORD[cf][0])
    if v > 0:
        factors.append(_pow_str("v+", v))
    elif v < 0:
        factors.append(_pow_str("v-", -v))
    if a:
        factors.append("a" if a == 1 else f"a^{a}")
    for (name, m, n), exp in _JETS[gj] + _JETS[bj]:
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
    out = []
    for k, c in sorted(e.coefficients(), key=lambda kc: _key_sortable(kc[0])):
        s = term_str(k, c)
        if out:
            out.append(f"- {s[1:]}" if s.startswith("-") else f"+ {s}")
        else:
            out.append(s)
    return " ".join(out)


# ---------------------------------------------------------------------------
# derivations (primitive layer)

@functools.lru_cache(maxsize=_CACHE_SIZE)
def _shift_jets(slot: int, direction: str) -> tuple[tuple[int, int], ...]:
    """``d_x`` of a jet slot: ``(id, multiplicity)`` per jet that it shifts."""
    dm, dn = (1, 0) if direction == "-" else (0, 1)
    jets = _JETS[slot]
    out = []
    for atom, exp in jets:
        name, m, n = atom
        info, new, counts = field_info(name), (name, m + dm, n + dn), dict(jets)
        odd = is_self_odd(info.degree)
        if info.constant or (odd and new in counts):
            continue
        counts[atom] = exp - 1
        counts[new] = counts.get(new, 0) + 1
        flip = odd and sum(k for other, k in jets if atom < other < new) % 2
        out.append((_jet_id(tuple(sorted((j, k) for j, k in counts.items() if k))),
                    -exp if flip else exp))
    return tuple(out)


def d_x(e: GradedExpr, direction: str) -> GradedExpr:
    """Abstract x-derivative (direction '-' or '+'): shifts jet indices.

    An even derivation: each jet is shifted in place, with no sign from the
    factors before it.  The shifted jet then moves to its sorted place past
    the jets of its own field between its old and new index; each such jet
    of a self-odd field flips the sign, and landing on one gives zero (a
    table per slot id, ``_shift_jets``).  The result's denominator is
    ``e.den`` times the lcm of the trig chain-rule factors' denominators.
    """
    dm, dn = (1, 0) if direction == "-" else (0, 1)
    den = 1
    for key in e.terms:
        t = key[8]
        if t is not None and _TRIGS[t][3] != 1:
            den = lcm(den, _TRIGS[t][3])
    out = []
    for key, c in e.terms.items():
        z, tm, tp, cf, v, a, gj, bj, t = key
        cd = c * den
        for jets2, mult in _shift_jets(gj, direction):
            out.append(((z, tm, tp, cf, v, a, jets2, bj, t), cd * mult))
        for jets2, mult in _shift_jets(bj, direction):
            out.append(((z, tm, tp, cf, v, a, gj, jets2, t), cd * mult))
        # trig chain rule
        if t is not None:
            kind, combo, _, _, partner = _TRIGS[t]
            for sym, co in combo:
                factor = co.numerator * (den // co.denominator)
                if kind == "c":
                    factor = -factor
                bj2 = _merge_jets(bj, _jet_id((((sym, dm, dn), 1),)))[0]
                out.append(((z, tm, tp, cf, v, a, gj, bj2, partner), c * factor))
    return _from_ints(e.ctx, out, e.den * den, e.prec)


def d_z(e: GradedExpr) -> GradedExpr:
    return _from_ints(e.ctx, (((key[0] - 1, *key[1:]), c * key[0])
                              for key, c in e.terms.items() if key[0]),
                      e.den, e.prec)


def d_theta(e: GradedExpr, which: str) -> GradedExpr:
    """Left derivative in theta- ('-') or theta+ ('+')."""
    slot = 1 if which == "-" else 2
    return _from_ints(e.ctx, (((*key[:slot], 0, *key[slot + 1:]),
                               -c if key[0] % 2 else c)
                              for key, c in e.terms.items() if key[slot]),
                      e.den, e.prec)


# ---------------------------------------------------------------------------
# sector split and series coefficients

def component_split(e: GradedExpr) -> dict[tuple[int, int], GradedExpr]:
    """Split by theta sector; values have the theta bits removed."""
    out: dict[tuple[int, int], list] = {}
    for key, c in e.terms.items():
        z, tm, tp, cf, v, a, gj, bj, t = key
        out.setdefault((tm, tp), []).append(((z, 0, 0, cf, v, a, gj, bj, t), c))
    return {sec: _from_ints(e.ctx, terms, e.den, e.prec)
            for sec, terms in out.items()}


def series_coefficient(e: GradedExpr, n: int) -> GradedExpr:
    """Coefficient of a^n (a removed from the result), exact: an order outside
    the window, or at or past the precision, raises ``OutsideWindow``."""
    if n < e.ctx.amin or n > e.ctx.amax:
        raise OutsideWindow(f"a^{n} outside window [{e.ctx.amin}, {e.ctx.amax}]")
    if e.prec is not None and n >= e.prec:
        raise OutsideWindow(f"a^{n} is not certified: the expression is exact "
                            f"below a^{e.prec} only")
    return _from_ints(e.ctx, (((*key[:5], 0, *key[6:]), c)
                              for key, c in e.terms.items() if key[5] == n),
                      e.den, None)


# ---------------------------------------------------------------------------
# trig of a superspace expression

def _body_split(e: GradedExpr) -> tuple[dict[str, Fraction], Fraction, GradedExpr]:
    """Split into (linear body combo, pi offset, remainder)."""
    combo: dict[str, Fraction] = {}
    pioff = Q(0)
    rest = []
    for key, c in e.terms.items():
        z, tm, tp, cf, v, a, gj, bj, t = key
        if (z == 0 and not tm and not tp and cf == CF_ONE and v == 0 and a == 0
                and not gj and t is None and len(_JETS[bj]) == 1):
            (name, m, n), exp = _JETS[bj][0]
            if exp == 1 and m == 0 and n == 0 and field_info(name).trig:
                # each symbol is one key, so it is met at most once
                if name == "pi":
                    pioff = Q(c, e.den)
                else:
                    combo[name] = Q(c, e.den)
                continue
        if key == KEY_ONE:
            raise UnsupportedAtom(
                "constant trig offsets must be rational multiples of pi")
        rest.append((key, c))
    return combo, pioff, _from_ints(e.ctx, rest, e.den, e.prec)


_TRIG_CYCLE = {"s": ("s", "c", "s", "c"), "c": ("c", "s", "c", "s")}
_TRIG_SIGNS = {"s": (1, 1, -1, -1), "c": (1, -1, -1, 1)}


def trig_of(kind: str, e: GradedExpr, half=Q(1)) -> GradedExpr:
    """sin/cos of ``half * e`` for degree-(0,0) e with nilpotent non-body part.

    The body (linear combination of trig-capable 0-jets plus a rational
    multiple of pi) seeds exact trig atoms; the remainder enters through a
    finite Taylor expansion that terminates because it is nilpotent under
    the active truncation.  A power of the remainder that vanishes only
    under the truncation, at precision p, leaves a tail of precision
    p + j val(remainder), j >= 0: p itself, or no bound when the remainder
    holds a negative power of a.
    """
    if kind not in ("s", "c"):
        raise ConfigError("kind must be 's' or 'c'")
    deg = e.degree()
    if deg not in (None, DEG_EVEN):
        raise NotScalarDegree(f"trig argument has degree {deg}")
    scaled = e.scale(half)
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
        coef, atom = _canon_trig(_TRIG_CYCLE[kind][k % 4], combo, pioff)
        coef *= _TRIG_SIGNS[kind][k % 4]
        if coef != 0:
            base_key = (0, 0, 0, CF_ONE, 0, 0, 0, 0, atom)
            base = GradedExpr(ctx, ((base_key, coef / kfact),))
            result = result + base * power
        k += 1
        if k > 64:
            raise NonNilpotentRemainder(
                "trig remainder has no vanishing power under the truncation")
    if power.prec is not None:
        result = result + GradedExpr(ctx, prec=power.prec if _val(nil) >= 0 else -inf)
    return result


# ---------------------------------------------------------------------------
# substitution

JetRule = Callable[[str, int, int], Optional[GradedExpr]]


def _substituted_trig(t: int, rule: JetRule, ctx: Context) -> Optional[GradedExpr]:
    """Trig atom re-expanded on its substituted argument; None if nothing binds."""
    kind, combo, pioff = trig_parts(t)
    repls = [rule(sym, 0, 0) for sym, _ in combo]
    if all(repl is None for repl in repls):
        return None
    arg = jet("pi", 0, 0, ctx).scale(pioff)
    for (sym, co), repl in zip(combo, repls):
        arg = arg + (jet(sym, 0, 0, ctx) if repl is None else repl).scale(co)
    return trig_of(kind, arg)


def _times_run(term: Optional[GradedExpr], key: Key, c: int, run: list[list],
               t: Optional[int], ctx: Context) -> GradedExpr:
    """``term`` times the monomial of a run of kept jets and trig atom ``t``,
    taken in normal order, so its sign is +1; the first run (no ``term``)
    also carries the prefix of ``key`` and the coefficient ``c``."""
    gj, bj = _jet_id(tuple(run[0])), _jet_id(tuple(run[1]))
    if term is None:
        return _from_ints(ctx, (), 1, None, {key[:6] + (gj, bj, t): c})
    if gj or bj or t is not None:
        term = term * _from_ints(ctx, (), 1, None, {(0, 0, 0, CF_ONE, 0, 0, gj, bj, t): 1})
    return term


def substitute_jets(e: GradedExpr, rule: JetRule) -> GradedExpr:
    """Replace individual field jets; one simultaneous pass, no iteration.

    ``rule(name, m, n)`` returns a replacement expression or None to keep the
    jet.  A trig atom whose argument mentions a symbol with a ``(0, 0)``
    replacement is re-expanded with ``trig_of`` on the substituted argument,
    its pi offset kept.  A pass that binds nothing returns ``e`` itself;
    otherwise each rewritten monomial is its factor-by-factor product, each
    run of kept atoms between bound ones multiplied in as one monomial, and
    one lcm of their denominators puts the result over ``e.den`` times it.
    Its precision is the lowest of those of ``e`` and the rewritten
    monomials.  That keeps an ``O(a^p)`` of ``e`` at ``O(a^p)`` only if no
    replacement holds a negative power of ``a``: true of the on-shell rules;
    the Backlund and body-export rules, which hold ``a^-1`` or ``a^-2``, are
    only applied to exact expressions.
    """
    ctx = e.ctx
    trigs = {t: _substituted_trig(t, rule, ctx)
             for t in dict.fromkeys(key[8] for key in e.terms) if t is not None}
    # (key, numerator, the denominator of the piece it came from)
    pieces = []
    den = None  # the lcm of the rewritten monomials' denominators; None while none is
    prec = e.prec
    for key, c in e.terms.items():
        gj, bj, t = key[6:]
        term = None  # the product so far, from the first bound atom on
        run = [[], []]  # the kept graded and scalar jets since then
        for kept, slot in enumerate((gj, bj)):
            for atom, exp in _JETS[slot]:
                r = rule(*atom)
                if r is None:
                    run[kept].append((atom, exp))
                    continue
                term = _times_run(term, key, c, run, None, ctx)
                run = [[], []]
                for _ in range(exp):
                    term = term * r
        if trigs.get(t) is not None:
            term = _times_run(term, key, c, run, None, ctx) * trigs[t]
            run, t = [[], []], None
        if term is None:
            pieces.append((key, c, 1))
            continue
        term = _times_run(term, key, c, run, t, ctx)
        den = lcm(den or 1, term.den)
        pieces.extend((k, n, term.den) for k, n in term.terms.items())
        if term.prec is not None:
            prec = term.prec if prec is None else min(prec, term.prec)
    if den is None:
        return e
    return _from_ints(ctx, ((k, n * (den // d)) for k, n, d in pieces), e.den * den, prec)


# marks a jet whose normal form is being computed
_IN_PROGRESS = object()


class JetRewriter:
    """One-pass jet rewriting by lazily prolonged first-order base rules.

    ``rule(name, m, n)`` differentiates the base ``((name, bm, bn), expr)`` with ``bm <= m``,
    ``bn <= n`` and the largest ``bm + bn`` (the first listed of equal ones) ``m - bm``
    times by d- and ``n - bn`` times by d+; ``normal`` memoizes its normal form.
    """

    def __init__(self, base_rules: Iterable[tuple[tuple[str, int, int], GradedExpr]]):
        self._bases: dict[str, list[tuple[int, int, GradedExpr]]] = {}
        for (name, m, n), expr in base_rules:
            self._bases.setdefault(name, []).append((m, n, expr))
        self._normal: dict[tuple[str, int, int], Optional[GradedExpr]] = {}

    def rule(self, name: str, m: int, n: int) -> Optional[GradedExpr]:
        """Replacement of the jet, or None when no base rule reaches it."""
        bm, bn, expr = max((b for b in self._bases.get(name, ()) if b[0] <= m and b[1] <= n),
                           key=lambda b: b[0] + b[1], default=(m, n, None))
        for _ in range(m - bm):
            expr = d_x(expr, "-")
        for _ in range(n - bn):
            expr = d_x(expr, "+")
        return expr

    def normal(self, name: str, m: int, n: int) -> Optional[GradedExpr]:
        """``rule(name, m, n)`` with each jet replaced by its own normal form, memoized."""
        jet_ = (name, m, n)
        if jet_ not in self._normal:
            self._normal[jet_] = _IN_PROGRESS
            try:
                expr = self.rule(name, m, n)
                self._normal[jet_] = expr if expr is None else substitute_jets(expr, self.normal)
            except BaseException:
                del self._normal[jet_]  # a failed jet is not left marked
                raise
        if self._normal[jet_] is _IN_PROGRESS:
            raise NonTermination(f"the normal form of jet {jet_} needs itself")
        return self._normal[jet_]

    def reduce(self, e: GradedExpr) -> GradedExpr:
        """Normal form of ``e``: one pass, as a product of normal forms binds no jet."""
        try:
            return substitute_jets(e, self.normal)
        except RecursionError:
            raise NonTermination("jet rewriting climbs to ever higher jets") from None


# a field's mirror image swaps the + and - in its name, as psi+ and psi-
_SWAP_PM = str.maketrans("+-", "-+")


def mirror_pm(e: GradedExpr) -> GradedExpr:
    """Image under the involution exchanging the two lightcone directions.

    Swaps the odd coordinates, the two fermion components, both jet indices,
    the two parameter families and the dual vector parameters.  This is a
    degree-swapping algebra automorphism, so the mirrored graded jets are
    multiplied back in their original order and the product restores
    normal ordering.
    """
    ctx = e.ctx
    out = []
    for key, c in e.terms.items():
        z, tm, tp, cf, v, a, gj, bj, t = key
        fam, kind = cf
        cf2 = ({"L": "E", "E": "L"}.get(fam, fam), kind)
        bj2 = _jet_id(tuple(sorted(((name, n, m), exp) for (name, m, n), exp in _JETS[bj])))
        # the graded jets are the only slot the mirror reorders
        head = GradedExpr(ctx, (((z, tp, tm, cf2, -v, a, 0, bj2, t), 1),))
        for (name, m, n), exp in _JETS[gj]:
            for _ in range(exp):
                head = head * jet(name.translate(_SWAP_PM), n, m, ctx)
        # every jet is trig-free, so each product keeps denominator 1
        out.extend((k, c * s) for k, s in head.terms.items())
    return _from_ints(ctx, out, e.den, e.prec)


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
    # one pass of the plain prolongations, not of their normal forms: a
    # binding may mention its own field, as in X -> 3/2*X
    rewriter = JetRewriter(((name, 0, 0), b) for name, b in bindings.items())
    # each bound jet is derived once per call, however often it occurs
    return substitute_jets(e, functools.cache(rewriter.rule))
