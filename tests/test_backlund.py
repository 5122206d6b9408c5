import dataclasses
import functools
import re
from fractions import Fraction as Q
from pathlib import Path

import pytest

from gradedsg import algebra as al
from gradedsg import backlund as bt
from gradedsg import model as md
from gradedsg import parser as ps
from gradedsg import superspace as ss
from gradedsg.errors import ConfigError, ContextMismatch, OutsideWindow, UnresolvedGenerator

from fixpoint import reduce_to_fixed_point
from sabotage import commuting_parameters, flipped_relation


def expr_eq(a, b):
    return (a - b).is_zero()


@pytest.fixture(scope="module")
def sysm():
    return bt.BTSystem(orientation="minus")


@pytest.fixture(scope="module")
def sysp():
    return bt.BTSystem(orientation="plus")


# ---------------------------------------------------------------------------
# the rewrite relations

def sector_rewriter(sys, *order):
    """A jet rewriter of the sector rules of the equations in ``order``: on a
    jet both determine (the auxiliary component), the first listed wins."""
    return al.JetRewriter(rule for which in order
                          for rule in bt._sector_rules(sys, which).items())


def test_bt_reduce_first_derivative(sysm):
    # one rewriting pass turns D-(target) into the first right-hand side;
    # the fixed point reduces the target components inside the sine as well
    lhs = ss.D_MINUS(sysm.target_field.expr)
    rewriter = sector_rewriter(sysm, "eq1", "eq2")
    assert expr_eq(al.substitute_jets(lhs, rewriter.rule), sysm.rhs1)
    assert expr_eq(rewriter.reduce(lhs), rewriter.reduce(sysm.rhs1))


def test_bt_reduce_second_derivative(sysm):
    lhs = ss.D_PLUS(sysm.target_field.expr)
    rewriter = sector_rewriter(sysm, "eq2", "eq1")
    assert expr_eq(al.substitute_jets(lhs, rewriter.rule), sysm.rhs2)
    assert expr_eq(rewriter.reduce(lhs), rewriter.reduce(sysm.rhs2))


def test_rewriter_caches_stay_flat_across_runs():
    # a repeated run reuses the cached on-shell rewriter and its normal forms
    bt.verify_auto_bt(bt.BTSystem())
    rewriter = md.on_shell_rewriter(bt.BTSystem().seed_field)

    def sizes():
        return md.on_shell_rewriter.cache_info().currsize, len(rewriter._normal)

    first = sizes()
    bt.verify_auto_bt(bt.BTSystem())
    assert sizes() == first


def test_bt_reduce_z_condition(sysm):
    # in the z-independent mode the z-translation of the target is zero
    assert ss.Z_MINUSPLUS(sysm.target_field.expr).is_zero()


def test_rhs_structure(sysm):
    # D- target = D- seed + 2 a lambda+ sin((target+seed)/4)
    ctx = sysm.ctx
    term = sysm.rhs1 - ss.D_MINUS(sysm.seed_field.expr)
    expect = (al.gen("a", ctx) * al.gen("lambda+", ctx)
              * al.trig_of("s", sysm.sum_arg, Q(1, 4))).scale(2)
    assert expr_eq(term, expect)


# ---------------------------------------------------------------------------
# the auto-Backlund theorem

def test_auto_bt_minus_and_plus(sysm, sysp):
    for sys in (sysm, sysp):
        rep = bt.verify_auto_bt(sys)
        assert rep.passed()
        main = [e for e in rep.entries
                if e.name.startswith("target residual")][0]
        assert main.status == "pass"


def test_auto_bt_sabotage_detected():
    # a wrong sign in either relation, in either orientation, is no
    # auto-Backlund transformation
    for orientation in ("minus", "plus"):
        for which in (1, 2):
            rep = bt.verify_auto_bt(flipped_relation(orientation, which))
            status = {e.name: e.status for e in rep.entries}
            assert status["target residual equals seed residual on shell"] == "fail"


@pytest.mark.parametrize("orientation", ["minus", "plus"])
def test_sign_flip_control_matches_the_flipped_system(orientation):
    # the report's own control says what verifying the system with its
    # first relation's sign flipped says
    rep = bt.verify_auto_bt(bt.BTSystem(orientation=orientation))
    control = {e.name: e.status for e in rep.entries}["sign-flipped system is rejected"]
    flipped = bt.verify_auto_bt(flipped_relation(orientation, 1))
    assert control == ("fail" if flipped.passed() else "pass")
    assert control == "pass"


def test_route_asymmetry_value(sysm):
    # the other mixed-derivative route leaves exactly twice the difference
    # of the two sine potentials, reduced on shell (engine-frozen finding)
    rep = bt.verify_auto_bt(sysm)
    info = [e for e in rep.entries if e.name.startswith("route asymmetry")][0]
    assert info.details["is_zero"] is False
    ctx = sysm.ctx
    alpha = al.gen("alpha", ctx)
    expect = md.reduce_on_shell(
        (alpha * al.trig_of("s", sysm.target_field.expr, Q(1, 2))
         - alpha * al.trig_of("s", sysm.seed_field.expr, Q(1, 2))).scale(2),
        sysm.seed_field)
    assert info.residual_terms == (al.to_text(expect),)


# ---------------------------------------------------------------------------
# series solution

def test_series_first_values(sysm):
    ctx = sysm.ctx
    series = sysm.series
    assert expr_eq(series[0], sysm.seed_field.expr)
    dplus = ss.D_PLUS(sysm.seed_field.expr)
    expect1 = (al.vpow(1, ctx) * al.gen("lambda-", ctx) * dplus).scale(-4)
    assert expr_eq(series[1], expect1)
    expect2 = (al.vpow(1, ctx) * ss.D_PLUS(dplus)).scale(8)
    assert expr_eq(series[2], expect2)
    # order 2 collapses to the x-derivative through D+^2 = -(1/2) d+
    assert expr_eq(series[2],
                   (al.vpow(1, ctx) * al.d_x(sysm.seed_field.expr, "+")).scale(-4))


def test_recursion(sysm):
    rep = bt.verify_recursion(sysm)
    assert rep.passed()
    # the order-0 anchor carries the doubled seed derivative
    series = sysm.series
    p2 = al.gen("lambda-", sysm.ctx)
    assert expr_eq(ss.D_PLUS(series[0]).scale(4), p2 * series[1])
    assert not expr_eq(ss.D_PLUS(series[0]).scale(2), p2 * series[1])


def test_closed_form_engine_signs(sysm):
    rep = bt.verify_closed_form(sysm)
    assert rep.passed()
    agree = {e.name: e.details["printed_sign_agrees"]
             for e in rep.entries if e.name.startswith("order")}
    # the printed sign agrees exactly when floor(n/2) is odd
    assert agree == {f"order {n}": ((n // 2) % 2 == 1) for n in range(1, 7)}


def test_nilpotency_table(sysm):
    series = sysm.series
    odd_zero = {n: (series[n] * series[n]).is_zero() for n in range(1, 7)}
    assert odd_zero == {1: True, 2: False, 3: True, 4: False, 5: True, 6: False}
    # (D+ seed)^2 = 0
    dplus = ss.D_PLUS(sysm.seed_field.expr)
    assert (dplus * dplus).is_zero()


def test_series_weights_engine_value(sysm):
    # every coefficient is weight-homogeneous; parameter weights compensate
    # the derivative weights so the engine value is zero for all orders
    assert len(sysm.series) == 7
    for coef in sysm.series:
        assert coef.weight() == 0


def test_plus_series_is_mirror(sysm, sysp):
    for n in range(0, 4):
        assert expr_eq(al.mirror_pm(sysm.series[n]), sysp.series[n])


def test_redundancy_orders():
    rep = bt.verify_redundancy(bt.BTSystem(order=5))
    zeros = {e.name: e.details["is_zero"] for e in rep.entries}
    assert zeros == {"order 0": True, "order 1": True, "order 2": False,
                     "order 3": True, "order 4": False, "order 5": False}


def test_redundancy_order_one_value(sysm):
    # D-(coef 1) equals 2 lambda+ sin(seed/2) on shell
    ctx = sysm.ctx
    lhs = md.reduce_on_shell(ss.D_MINUS(sysm.series[1]), sysm.seed_field)
    rhs = md.reduce_on_shell(
        (al.gen("lambda+", ctx)
         * al.trig_of("s", sysm.seed_field.expr, Q(1, 2))).scale(2),
        sysm.seed_field)
    assert expr_eq(lhs, rhs)


@pytest.mark.parametrize("orientation", ["minus", "plus"])
def test_closed_form_is_independent_of_the_recursion(orientation):
    # a corrupted order-3 coefficient fails the closed form at that order
    # only: the closed form is built from the seed, not from the series
    sys = bt.BTSystem(orientation=orientation)
    good = sys.series
    vars(sys)["series"] = good[:3] + (-good[3],) + good[4:]

    def failing(rep):
        return sorted(e.name for e in rep.entries if e.status == "fail")

    assert failing(bt.verify_closed_form(sys)) == ["order 3"]
    # the recursion links order 3 to both of its neighbours
    assert failing(bt.verify_recursion(sys)) == ["order 2", "order 3"]


# ---------------------------------------------------------------------------
# currents and the audit

def test_current_degrees_weights_and_vacuum(sysm):
    j1, j2 = bt.currents(sysm)
    assert j1.degree() == (0, 1) and j2.degree() == (1, 0)
    assert j1.weight() == 1 and j2.weight() == -1
    ctx = sysm.ctx
    zero = al.GradedExpr.zero(ctx)
    kill = {name: zero for name in
            ("X", "X~", "psi+", "psi-", "psi+~", "psi-~", "F", "F~")}
    at_vacuum = al.substitute(j1, kill)
    assert expr_eq(at_vacuum, al.gen("a", ctx) * al.gen("lambda+", ctx))


def test_current_conservation_exact(sysm, sysp):
    for sys in (sysm, sysp):
        rep = bt.verify_current_conservation(sys)
        assert rep.passed()
        div = [e for e in rep.entries if e.name == "divergence vanishes"][0]
        assert div.details["halves_cancel"] is True
        # each half alone is nonzero: the cancellation is between them
        half = ps.parse_expr(div.details["half_first"], sys.ctx)
        assert not half.is_zero()


@pytest.mark.parametrize("check", [
    lambda: bt.conservation_audit(bt.BTSystem(order=6), K=4),
    lambda: bt.verify_current_conservation(bt.BTSystem()),
    lambda: bt.verify_auto_bt(bt.BTSystem()),
], ids=["conservation-audit", "currents", "verify-bt"])
def test_each_trig_argument_is_expanded_once(monkeypatch, check):
    # trig_of keeps each expansion on the expression it expands, so a check
    # runs one Taylor expansion (one _body_split) per distinct request, the
    # same argument object asked again for the same kind and half
    trig_of, body_split = al.trig_of, al._body_split
    args, requests = [], set()
    expansions = 0

    def counted_trig_of(kind, e, half=Q(1)):
        args.append(e)  # held to the end, so no id is reused
        requests.add((kind, id(e), half))
        return trig_of(kind, e, half)

    def counted_body_split(e):
        nonlocal expansions
        expansions += 1
        return body_split(e)

    monkeypatch.setattr(al, "trig_of", counted_trig_of)
    monkeypatch.setattr(al, "_body_split", counted_body_split)
    check()
    assert len(args) > len(requests)  # the check repeats requests
    assert expansions == len(requests)


def test_current_conservation_needs_anticommutation():
    # under the real tables the control (the residual that commuting
    # parameters would leave) is nonzero; under commuting ones the
    # divergence itself stops vanishing
    for orientation in ("minus", "plus"):
        rep = bt.verify_current_conservation(bt.BTSystem(orientation=orientation))
        status = {e.name: e.status for e in rep.entries}
        assert status["cancellation requires anticommuting parameters"] == "pass"
        with commuting_parameters():
            sab = bt.verify_current_conservation(bt.BTSystem(orientation=orientation))
        status = {e.name: e.status for e in sab.entries}
        assert status["divergence vanishes"] == "fail"


def test_current_conservation_sabotage():
    for orientation in ("minus", "plus"):
        for which in (1, 2):
            rep = bt.verify_current_conservation(flipped_relation(orientation, which))
            status = {e.name: e.status for e in rep.entries}
            assert status["divergence vanishes"] == "fail"


def test_conservation_audit_findings(sysm):
    rep = bt.conservation_audit(sysm, K=4)
    assert rep.passed()  # two-path agreement and the identity reading hold
    truth = {e.name: e.details.get("is_zero") for e in rep.entries
             if "is_zero" in e.details}
    # engine findings: the printed-placement orders and the claimed laws all
    # carry nonzero residuals (frozen as golden knowledge)
    for name, val in truth.items():
        assert val is False, name


def test_two_path_agreement_compares_orders_through_K():
    # the audit's two-path rule compares the certified orders amin..K of a
    # difference; a term above K is not compared, one at K is
    ctx = al.Context(0, -2, 6)
    x = al.jet("X", ctx=ctx)
    above = al.GradedExpr(ctx, prec=6) + al.apow(5, ctx) * x
    at = al.GradedExpr(ctx, prec=6) + al.apow(4, ctx) * x
    assert bt._agree_through(above, 4)
    assert not bt._agree_through(at, 4)
    assert not bt._agree_through(al.apow(-2, ctx) * x, 4)
    # each compared order is certified: a difference exact below a^6 only
    # has no verdict at order 6
    assert bt._agree_through(al.GradedExpr(ctx, prec=6), 5)
    with pytest.raises(OutsideWindow):
        bt._agree_through(al.GradedExpr(ctx, prec=6), 6)


def test_conservation_audit_deterministic(sysm):
    a = bt.conservation_audit(sysm, K=2).to_text()
    b = bt.conservation_audit(bt.BTSystem(), K=2).to_text()
    assert a == b


def test_on_shell_reduction_multiplies_only_what_binds(monkeypatch):
    # a work count, not a wall clock: rebuilding every rewritten monomial
    # factor by factor made 1,492 products inside reduce_on_shell here;
    # multiplying each run of kept jets in at once makes 734
    products, depth = [], []
    mul, reduce = al.GradedExpr.__mul__, md.reduce_on_shell

    def counting_mul(self, other):
        if depth:
            products.append(1)
        return mul(self, other)

    def tracked_reduce(*args):
        depth.append(1)
        try:
            return reduce(*args)
        finally:
            depth.pop()

    monkeypatch.setattr(al.GradedExpr, "__mul__", counting_mul)
    monkeypatch.setattr(md, "reduce_on_shell", tracked_reduce)
    bt.conservation_audit(bt.BTSystem(order=6, ctx=al.Context(0, -2, 8)), 4)
    assert 0 < len(products) <= 900


@pytest.fixture
def reductions_against_the_fixed_point(monkeypatch):
    """Record every ``JetRewriter.reduce`` as (one pass, fixed-point loop)."""
    seen = []
    reduce = al.JetRewriter.reduce

    def checked(self, e):
        got = reduce(self, e)
        seen.append((got, reduce_to_fixed_point(self, e)))
        return got

    monkeypatch.setattr(al.JetRewriter, "reduce", checked)
    return seen


def audit(amax, K, orientation):
    return lambda: bt.conservation_audit(
        bt.BTSystem(order=6, orientation=orientation, ctx=al.Context(0, -2, amax)), K)


def verify_bt(system):
    return lambda: bt.verify_auto_bt(system())


# run -> (call, the number of reductions it makes)
REDUCING_RUNS = {
    "audit-8-4-minus": (audit(8, 4, "minus"), 6),
    "audit-8-4-plus": (audit(8, 4, "plus"), 6),
    "audit-10-6-minus": (audit(10, 6, "minus"), 8),
    "audit-10-6-plus": (audit(10, 6, "plus"), 8),
    # the target residual, the sign-flip control and the route asymmetry
    "verify-bt": (verify_bt(bt.BTSystem), 3),
    "verify-bt-flip-first": (verify_bt(lambda: flipped_relation("minus", 1)), 3),
    "verify-bt-flip-second": (verify_bt(lambda: flipped_relation("minus", 2)), 3),
    # the raw and the completed cross-derivative mismatch
    "export-body-system": (lambda: bt.export_body_system(bt.BTSystem()), 2),
}


@pytest.mark.parametrize("run", sorted(REDUCING_RUNS))
def test_one_pass_reduction_equals_the_fixed_point(run, reductions_against_the_fixed_point):
    # the memoized normal forms give what repeated plain passes give, in
    # terms and in the precision, for every reduction these runs make
    call, count = REDUCING_RUNS[run]
    call()
    assert len(reductions_against_the_fixed_point) == count
    for got, want in reductions_against_the_fixed_point:
        assert got == want and got.prec == want.prec


@pytest.mark.parametrize("orientation", ["minus", "plus"])
@pytest.mark.parametrize("amax, K", [(8, 6), (12, 8)])
def test_conservation_audit_raises_a_short_order(orientation, amax, K):
    # order 6 is too short for K > 4, whose a^-2 placement reads a^(K+2);
    # without the raise the residual's precision would not reach order K
    ctx = al.Context(0, -2, amax)
    short = bt.BTSystem(orientation=orientation, order=6, ctx=ctx)
    full = bt.BTSystem(orientation=orientation, order=K + 2, ctx=ctx)
    assert (bt.conservation_audit(short, K).to_text()
            == bt.conservation_audit(full, K).to_text())


def caller_window_audit(sys, K):
    """The audit in the caller's whole window, as it ran before it narrowed."""
    return bt._audit(dataclasses.replace(sys, order=max(sys.order, K + 2)), K)


@pytest.mark.parametrize("orientation", ["minus", "plus"])
@pytest.mark.parametrize("amax, K", [(8, 4), (10, 6), (12, 8), (14, 10)])
def test_conservation_audit_narrows_to_the_orders_it_reports(orientation, amax, K):
    sys = bt.BTSystem(orientation=orientation, order=6, ctx=al.Context(0, -2, amax))
    assert bt.conservation_audit(sys, K).to_text() == caller_window_audit(sys, K).to_text()


@pytest.mark.parametrize("orientation", ["minus", "plus"])
def test_audit_one_order_short_of_its_window_raises(orientation):
    # in [-2, K + 1] the a^(K+2) terms that the a^-2 placement brings down
    # to order K are dropped: the residual's precision is K, so the audit
    # raises instead of printing an order-K residual with terms missing
    sys = bt.BTSystem(orientation=orientation, order=6, ctx=al.Context(0, -2, 5))
    with pytest.raises(OutsideWindow, match="a\\^4 is not certified"):
        bt._audit(sys, 4)


def test_series_sum_carries_the_precision_of_its_order():
    # the series solution is known through a^order: order K + 1 certifies
    # the audit at K (the a^-2 placement meets it squared, from a^2 up), and
    # order K leaves order K uncertified
    ctx = al.Context(0, -2, 8)
    assert bt.BTSystem(order=5, ctx=ctx).series_sum.prec == 6
    placement = {e.name: e for e in bt.conservation_audit(bt.BTSystem(ctx=ctx), 4).entries
                 if e.name.startswith("printed placement")}
    assert len(placement) == 5
    short = {e.name: e for e in bt._audit(bt.BTSystem(order=5, ctx=ctx), 4).entries}
    assert all(short[name] == entry for name, entry in placement.items())
    with pytest.raises(OutsideWindow):
        bt._audit(bt.BTSystem(order=4, ctx=ctx), 4)


def test_conservation_audit_multiplies_only_in_its_window(monkeypatch):
    # a work count, not a wall clock: at (amax, K) = (12, 8) the narrowed
    # audit makes 1,139 products over 27,339 term pairs from cold (its
    # on-shell rewriter derives the component equations in the audit's
    # window).  It reads its left side through order K only, and holds no
    # term past a precision: with the left side read to K + 2 it visits
    # 38,844 pairs, with every term kept 1,573 products and 40,301 pairs,
    # and in the caller's window [-2, 12] it makes 2,401 products
    products = []
    pairs = []
    mul = al.GradedExpr.__mul__

    def counting_mul(self, other):
        products.append(1)
        if isinstance(other, al.GradedExpr):
            pairs.append(len(self.terms) * len(other.terms))
        return mul(self, other)

    # a fresh on-shell rewriter, so that no earlier test's normal forms count
    monkeypatch.setattr(md, "on_shell_rewriter", functools.lru_cache(
        md.on_shell_rewriter.__wrapped__))
    monkeypatch.setattr(al.GradedExpr, "__mul__", counting_mul)
    bt.conservation_audit(bt.BTSystem(order=6, ctx=al.Context(0, -2, 12)), 8)
    assert 0 < len(products) <= 1300 and 0 < sum(pairs) <= 31000


def test_conservation_audit_refuses_orders_past_the_window():
    # the series term a^(K+2) feeds order K through the a^-2 placement, so
    # K + 2 > amax would silently change the report
    with pytest.raises(OutsideWindow):
        bt.conservation_audit(bt.BTSystem(order=9, ctx=al.Context(0, -2, 8)), K=7)
    assert bt.max_audit_order(al.Context(0, -2, 8)) == 6
    # the benchmark's audit points stay inside the bound
    for amax, K in ((8, 4), (10, 6), (12, 8)):
        assert K <= bt.max_audit_order(al.Context(0, -2, amax))


def test_system_refuses_a_window_without_a_inverse_squared():
    for amin in (-1, 0):
        with pytest.raises(OutsideWindow):
            bt.BTSystem(ctx=al.Context(0, amin, 8))


def test_system_is_orientation_order_and_window():
    # the seed and target are always Phi and Phi~, and no field is a switch
    # that only a control uses
    assert [f.name for f in dataclasses.fields(bt.BTSystem)] == ["orientation", "order", "ctx"]
    sysm = bt.BTSystem()
    assert (sysm.seed_field.body, sysm.target_field.body) == ("X", "X~")


def test_system_fields_raise_config_errors():
    # an order that is not an int >= 1 is refused, not read as an empty or
    # broken series
    for kwargs in ({"orientation": "sideways"}, {"ctx": al.Context(1, -2, 8)},
                   {"order": 0}, {"order": -1}, {"order": 1.5}):
        with pytest.raises(ConfigError):
            bt.BTSystem(**kwargs)


@pytest.mark.parametrize("call, error", [
    (lambda s: bt.component_apply_cov("-", al.jet("X", ctx=al.DEFAULT_CTX)), ContextMismatch),
    (lambda s: bt.component_apply_cov("x", al.jet("X", ctx=s.ctx)), ConfigError),
], ids=["component_apply_cov nz", "component_apply_cov which"])
def test_bad_arguments_raise_typed_errors(sysm, call, error):
    with pytest.raises(error):
        call(sysm)


# ---------------------------------------------------------------------------
# body export

def test_export_body_system_values(sysm):
    spec = bt.export_body_system(sysm)
    assert spec.relation_first == "X_{-} + v+*a^2*sin(1/2*X + 1/2*X~)"
    assert spec.relation_second_raw == "v-*a^-2*sin(1/2*X - 1/2*X~) - X_{+}"
    assert spec.relation_second == "-v-*a^-2*sin(1/2*X - 1/2*X~) - X_{+}"
    assert spec.mismatch_raw == "sin(X)"
    assert spec.mismatch_completed == "0"
    # hand oracle for the first relation's coefficient: one theta sector at
    # second order in the deformation parameter gives exactly a^2 v+
    coef, apow, vpow, combo = spec.p
    assert (coef, apow, vpow) == (Q(1), 2, 1)
    assert dict(combo) == {"X": Q(1, 2), "X~": Q(1, 2)}
    # raw and completed second coefficients differ by the sign only
    assert spec.q_raw[0] == -spec.q[0]


def test_trig_coefficient_needs_exactly_one_trig_term(sysm):
    # a body relation with two sines has no one trig coefficient, whatever
    # order its terms come in; one sine gives its data
    ctx = sysm.ctx
    one = ps.parse_expr("X_{-} + v+*a^2*sin(1/2*X + 1/2*X~)", ctx)
    assert bt._extract_trig_coef(one) == (1, 2, 1, (("X", Q(1, 2)), ("X~", Q(1, 2))))
    two = ps.parse_expr("X_{-} + v+*a^2*sin(1/2*X + 1/2*X~) + 3*sin(1/2*X - 1/2*X~)", ctx)
    swapped = ps.parse_expr("3*sin(1/2*X - 1/2*X~) + X_{-} + v+*a^2*sin(1/2*X + 1/2*X~)", ctx)
    for relation in (two, swapped):
        with pytest.raises(UnresolvedGenerator, match="more than one trig term"):
            bt._extract_trig_coef(relation)
    with pytest.raises(UnresolvedGenerator, match="no trig term"):
        bt._extract_trig_coef(ps.parse_expr("X_{-}", ctx))


def test_export_induced_fermions(sysm):
    spec = bt.export_body_system(sysm)
    assert spec.induced_fermion_first == "2*lambda+*a*sin(1/4*X + 1/4*X~)"
    assert spec.induced_fermion_second == "-2*lambda-*a^-1*sin(1/4*X - 1/4*X~)"


def test_export_relations_are_even_and_weighted(sysm):
    spec = bt.export_body_system(sysm)
    for text, expect_w in ((spec.relation_first, 2), (spec.relation_second, -2)):
        e = ps.parse_expr(text, sysm.ctx)
        assert e.degree() == (0, 0)
        assert e.weight() == expect_w  # matches the derivative it replaces


def test_export_plus_orientation_mirrors(sysp):
    spec = bt.export_body_system(sysp)
    assert spec.mismatch_raw == "sin(X)"
    assert spec.mismatch_completed == "0"
    coef, apow, vpow, combo = spec.p
    assert (coef, apow, vpow) == (Q(1), 2, -1)


def test_auto_bt_verdict_refuses_an_inexact_residual(monkeypatch):
    # the on-shell residual is a verdict: with a precision it raises
    reduce = md.reduce_on_shell
    monkeypatch.setattr(md, "reduce_on_shell", lambda e, field: reduce(e, field)
                        + al.GradedExpr(e.ctx, prec=3))
    with pytest.raises(OutsideWindow):
        bt.verify_auto_bt(bt.BTSystem())


# ---------------------------------------------------------------------------
# the orientation mirror: the plus system is the lightcone mirror image of
# the minus one, so a fault in one orientation breaks the relation

def claimed_law(sys, k):
    seed = sys.seed_field
    if k == 0:
        return md.reduce_on_shell(sys.D1(al.trig_of("c", seed.expr, Q(1, 2))), seed)
    dk = seed.expr
    for _ in range(k):
        dk = sys.D2(dk)
    return md.reduce_on_shell(sys.D1(al.trig_of("s", seed.expr, Q(1, 2)) * dk), seed)


def redundancy_residual(sys):
    seed = sys.seed_field.expr
    lhs = sys.D1(sys.series_sum) - sys.D1(seed)
    rhs = sys.sine_coef1 * al.trig_of("s", sys.series_sum + seed, Q(1, 4))
    return md.reduce_on_shell(lhs - rhs, sys.seed_field)


def placement_difference(sys):
    # the audit's printed placement on shell, in its window for K = 4
    sys = dataclasses.replace(sys, ctx=al.Context(0, -2, 6))
    ctx, seed = sys.ctx, sys.seed_field.expr
    p1, p2 = al.gen(sys.param1, ctx), al.gen(sys.param2, ctx)
    lhs = p1 * sys.D1(al.trig_of("c", sys.series_sum + seed, Q(1, 4)))
    rhs = -(al.apow(-2, ctx) * p2 * sys.D2(al.trig_of("c", sys.series_sum - seed, Q(1, 4))))
    return md.reduce_on_shell(lhs - rhs, sys.seed_field)


def export_relations(sys):
    spec = bt.export_body_system(sys)
    return tuple(ps.parse_expr(text, sys.ctx) for text in (
        spec.relation_first, spec.relation_second, spec.relation_second_raw,
        spec.induced_fermion_first, spec.induced_fermion_second))


# name -> the object of a system, behind verify-bt, currents, the audit and
# the body export
MIRRORED_OBJECTS = {
    "term1": lambda s: s.term1,
    "term2": lambda s: s.term2,
    "rhs1": lambda s: s.rhs1,
    "rhs2": lambda s: s.rhs2,
    "series_sum": lambda s: s.series_sum,
    "currents": bt.currents,
    **{f"claimed law k={k}": functools.partial(claimed_law, k=k) for k in range(5)},
    "redundancy residual": redundancy_residual,
    "printed placement": placement_difference,
    "body export": export_relations,
}


def test_plus_objects_are_the_mirror_images_of_the_minus_ones(sysm, sysp):
    for name, build in MIRRORED_OBJECTS.items():
        minus, plus = build(sysm), build(sysp)
        pairs = zip(minus, plus) if isinstance(minus, tuple) else ((minus, plus),)
        for m, p in pairs:
            assert al.mirror_pm(m) == p, name


def golden_residuals(text):
    """(orientation, entry) -> residual line of a golden report."""
    found, entry = {}, None
    for line in text.splitlines():
        head = re.match(r"  [A-Z]+ (minus|plus): (.*)", line)
        if head:
            entry = head.groups()
        elif line.strip().startswith("residual: "):
            found[entry] = line.strip()[len("residual: "):]
    return found


def test_golden_audit_plus_residuals_mirror_the_minus_ones():
    # a golden file regenerated after a fault in one orientation breaks it
    golden = Path(__file__).parents[1] / "golden" / "conservation-audit.txt"
    residuals = golden_residuals(golden.read_text())
    minus = {name: text for (side, name), text in residuals.items() if side == "minus"}
    assert len(minus) == 10
    for name, text in minus.items():
        mirrored = al.mirror_pm(ps.parse_expr(text, al.BT_CTX))
        assert al.to_text(mirrored) == residuals["plus", name], name
