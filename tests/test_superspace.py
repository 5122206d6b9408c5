import itertools
from fractions import Fraction as Q

import pytest

from gradedsg import algebra as al
from gradedsg import superspace as ss
from gradedsg.errors import ConfigError, InhomogeneousExpression, UnknownSymbol
from gradedsg.grading import commutation_sign, degree_add


def expr_eq(a, b):
    return (a - b).is_zero()


def test_generic_superfield_contents():
    phi0 = ss.generic_superfield("Phi", nz=0)
    assert al.to_text(phi0.expr) == ("X + theta+*psi- + theta-*psi+ "
                                     "+ theta-*theta+*F")
    phi1 = ss.generic_superfield("Phi", nz=1)
    txt = al.to_text(phi1.expr)
    for piece in ("z*G", "z*theta-*chi+", "z*theta+*chi-", "z*theta-*theta+*Y"):
        assert piece in txt


@pytest.mark.parametrize("nz, ctx_nz", [(1, 0), (0, 1)])
def test_generic_superfield_rejects_another_z_order(nz, ctx_nz):
    # a context of lower z-order would drop listed components from the
    # expression; one of higher z-order would disagree with the field's own
    with pytest.raises(ConfigError, match="z-order"):
        ss.generic_superfield("Phi", nz=nz, ctx=al.Context(nz=ctx_nz))
    sf = ss.generic_superfield("Phi", nz=ctx_nz, ctx=al.Context(nz=ctx_nz))
    roles = [role for role, info in al.COMPONENTS.items() if info[2] <= ctx_nz]
    assert len(sf.expr.terms) == len(roles)
    assert [sf.component(role) for role in roles] == roles
    # a role past the field's z-order is not one of its components
    for role in al.COMPONENTS.keys() - roles:
        with pytest.raises(UnknownSymbol, match="has no"):
            sf.component(role)


def test_phi_and_its_partner_are_the_only_superfields():
    # the seed Phi and the Backlund target Phi~ have disjoint components; no
    # other label names a superfield
    a = ss.generic_superfield("Phi", nz=1)
    b = ss.generic_superfield("Phi~", nz=1)
    assert (a.body, b.body) == ("X", "X~")
    names_a = [a.component(role) for role in al.COMPONENTS]
    names_b = [b.component(role) for role in al.COMPONENTS]
    assert set(names_a).isdisjoint(names_b)
    # a superfield is its label and its window: equality and the hash
    # ignore the expression, which follows from the two
    other = ss.SuperField("Phi", a.ctx, al.GradedExpr.zero(a.ctx))
    assert a == other and hash(a) == hash(other) and a != b
    assert not (a.expr - b.expr).is_zero()
    for label in ("Psi", "Chi", "phi", "Phi~~", ""):
        with pytest.raises(UnknownSymbol, match="unknown superfield"):
            ss.generic_superfield(label, nz=0)


def test_coordinate_actions():
    ctx = al.BT_CTX
    one = al.GradedExpr.rational(1, ctx)
    assert expr_eq(ss.D_MINUS(al.gen("theta-", ctx)), one)
    assert expr_eq(ss.D_PLUS(al.gen("theta+", ctx)), one)
    assert ss.D_MINUS(al.gen("theta+", ctx)).is_zero()
    # z actions need the z-order-1 context
    z = al.gen("z", al.DEFAULT_CTX)
    assert expr_eq(ss.Z_MINUSPLUS(z),
                   al.GradedExpr.rational(1, al.DEFAULT_CTX))
    assert expr_eq(ss.Q_MINUS(z),
                   al.gen("theta+", al.DEFAULT_CTX).scale(Q(-1, 2)))
    assert expr_eq(ss.D_MINUS(z),
                   al.gen("theta+", al.DEFAULT_CTX).scale(Q(1, 2)))


def test_covariant_derivative_squares():
    phi = ss.generic_superfield("Phi", nz=0)
    dd = ss.D_PLUS(ss.D_PLUS(phi.expr))
    assert expr_eq(dd, al.d_x(phi.expr, "+").scale(Q(-1, 2)))
    dd = ss.D_MINUS(ss.D_MINUS(phi.expr))
    assert expr_eq(dd, al.d_x(phi.expr, "-").scale(Q(-1, 2)))


def test_bracket_examples():
    phi = ss.generic_superfield("Phi", nz=1).expr
    assert expr_eq(ss.bracket(ss.Q_MINUS, ss.Q_MINUS, phi),
                   ss.P_MINUS(phi))
    assert expr_eq(ss.bracket(ss.Q_MINUS, ss.Q_PLUS, phi),
                   ss.Z_MINUSPLUS(phi))
    assert expr_eq(ss.bracket(ss.D_MINUS, ss.D_PLUS, phi),
                   -ss.Z_MINUSPLUS(phi))
    assert ss.bracket(ss.Q_MINUS, ss.D_PLUS, phi).is_zero()
    assert ss.bracket(ss.P_MINUS, ss.Q_PLUS, phi).is_zero()


def test_full_superalgebra_suite_is_clean():
    probe = ss.generic_superfield("Phi", nz=1).expr
    failures = [label for label, res in ss.superalgebra_checks(probe)
                if not res.is_zero()]
    assert failures == []


def test_suite_evaluates_each_word_once(monkeypatch):
    # 155 words of length 1-3 over the five supertranslations, plus D-, D+,
    # the four D D words and the eight mixed Q D / D Q words; the one-shot
    # `bracket` evaluation of the same relations makes 3906 applications
    calls, active, read = [], [], []
    call, combine = ss.Derivation.__call__, al.combine

    def counted(self, e):
        calls.append(self.name)
        active.append(self.name)
        try:
            return call(self, e)
        finally:
            active.pop()

    def summed(parts):
        # the terms that each of the suite's own sums reads; a sum inside a
        # derivation is part of its word and not counted
        parts = list(parts)
        if not active:
            read.append(sum(len(e.terms) for _, e in parts))
        return combine(parts)

    probe = ss.generic_superfield("Phi", nz=1).expr
    monkeypatch.setattr(ss.Derivation, "__call__", counted)
    monkeypatch.setattr(al, "combine", summed)
    for _ in range(2):  # a second call makes as many: no result is kept
        calls.clear()
        read.clear()
        assert len(list(ss.superalgebra_checks(probe))) == 162
        assert len(calls) == 169
        # one sum per relation and one per double bracket: 37 pairs, 125
        # double brackets and 125 Jacobi relations read 3,872 terms; summing
        # each double bracket anew in every Jacobi relation that uses it
        # (three each) reads 10,336
        assert len(read) == 287 and sum(read) <= 4600


def _relations_by_definition(probe):
    """The suite's (label, text) list, each relation built from `bracket`."""
    by = ss._BY_NAME

    def pair(n1, n2):
        res = ss.bracket(by[n1], by[n2], probe)
        if (n1, n2) in ss._EXPECTED_BRACKETS:
            tgt, sgn = ss._EXPECTED_BRACKETS[(n1, n2)]
            res = res - by[tgt](probe).scale(sgn)
        return res

    def nested(a, b, c):  # [a, [b, c]] on the probe
        A, B, C = by[a], by[b], by[c]
        s = commutation_sign(A.degree, degree_add(B.degree, C.degree))
        return A(ss.bracket(B, C, probe)) - ss.bracket(B, C, A(probe)).scale(s)

    st = [D.name for D in ss.SUPERTRANSLATIONS]
    out = [(f"[{a},{b}]", pair(a, b)) for a in st for b in st]
    out += [(f"[{a},{b}]", pair(a, b)) for a in ("D-", "D+") for b in ("D-", "D+")]
    for q in ("Q-", "Q+"):
        for d in ("D-", "D+"):
            out += [(f"[{q},{d}]", pair(q, d)), (f"[{d},{q}]", pair(d, q))]
    for a, b, c in itertools.product(st, repeat=3):
        s_ab = commutation_sign(by[a].degree, by[b].degree)
        s_c_ab = commutation_sign(by[c].degree,
                                  degree_add(by[a].degree, by[b].degree))
        res = (nested(a, b, c) + nested(c, a, b).scale(s_c_ab)
               - nested(b, a, c).scale(s_ab))
        out.append((f"jacobi[{a},[{b},{c}]]", res))
    return [(label, al.to_text(res)) for label, res in out]


def _fractional_probe():
    # coefficients with distinct denominators and one X-jet product, so the
    # suite's sums meet parts over different denominators
    ctx = al.DEFAULT_CTX
    th_m, th_p, z = (al.gen(n, ctx) for n in ("theta-", "theta+", "z"))
    return al.combine([
        (Q(3, 7), al.jet("X", 1, 0, ctx) * al.jet("X", 0, 1, ctx)),
        (Q(-5, 4), th_m * al.jet("psi+", 0, 1, ctx)),
        (Q(1, 6), z * th_p * al.jet("chi-", 1, 0, ctx)),
        (2, th_m * th_p * al.jet("F", ctx=ctx))])


def test_suite_matches_definitions_under_sabotage(monkeypatch):
    q = ss._BY_NAME["Q-"]
    broken = ss.Derivation("Q-", q.degree, q.weight,
                           lambda e: q(e) + al.d_x(e, "-"))
    monkeypatch.setitem(ss._BY_NAME, "Q-", broken)
    for probe in (ss.generic_superfield("Phi", nz=1).expr, _fractional_probe()):
        got = [(label, al.to_text(res))
               for label, res in ss.superalgebra_checks(probe)]
        assert got == _relations_by_definition(probe)
        assert any(text != "0" for _, text in got)


def test_derivation_covariance(monkeypatch):
    # one pass: each derivation is applied to each monomial of the probe,
    # never to the whole probe first
    calls = []
    call = ss.Derivation.__call__

    def counted(self, e):
        calls.append(len(e.terms))
        return call(self, e)

    probe = ss.generic_superfield("Phi", nz=1).expr
    monkeypatch.setattr(ss.Derivation, "__call__", counted)
    assert all(ok for _, ok in ss.derivation_covariance_checks(probe))
    assert calls == [1] * 7 * len(probe.terms)


def test_weight_examples():
    phi = ss.generic_superfield("Phi", nz=0)
    ctx = phi.expr.ctx
    assert ss.D_PLUS(phi.expr).weight() == -1  # -1/2 in units
    theta_psi = al.gen("theta-", ctx) * al.jet("psi+", ctx=ctx)
    assert theta_psi.weight() == 0
    assert (al.gen("lambda+", ctx) * al.gen("lambda-", ctx)).weight() == 0
    with pytest.raises(InhomogeneousExpression):
        (al.jet("psi+", ctx=ctx) + al.jet("psi-", ctx=ctx)).weight()


def test_unknown_component_raises_a_typed_error():
    flat = ss.generic_superfield("Phi", nz=0)
    assert flat.component("psi+") == "psi+"
    # the z-order-1 components exist only for nz >= 1
    with pytest.raises(UnknownSymbol):
        flat.component("chi+")


def test_z_mode_annihilation():
    flat = ss.generic_superfield("Phi", nz=0)
    assert ss.Z_MINUSPLUS(flat.expr).is_zero()


def test_degree_additivity_under_derivations():
    from gradedsg.grading import degree_add
    phi = ss.generic_superfield("Phi", nz=0)
    psi_term = al.gen("theta-", phi.expr.ctx) * al.jet("psi+", ctx=phi.expr.ctx)
    for D in (ss.D_MINUS, ss.D_PLUS, ss.Q_MINUS, ss.Q_PLUS):
        out = D(psi_term)
        if out.is_zero():
            continue
        assert out.degree() == degree_add(D.degree, psi_term.degree())
