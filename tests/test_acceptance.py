"""Acceptance gate: one test per criterion, one printed verdict line each.

Every tolerance is pinned here; nothing is deferred to later calibration.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import math
import time

import numpy as np
import pytest

from gradedsg import algebra as al
from gradedsg import backlund as bt
from gradedsg import model as md
from gradedsg import numeric as nm
from gradedsg import parser as ps
from gradedsg import superspace as ss

from sabotage import commuting_parameters, flipped_relation


def _verdict(n, ok, text):
    print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {n}: {text}"


def test_criterion_1_algebra_suite():
    t0 = time.perf_counter()
    probe = ss.generic_superfield("Phi", nz=1).expr
    failures = [label for label, res in ss.superalgebra_checks(probe)
                if not res.is_zero()]
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 5.0
    _verdict(1, ok, f"all bracket/Jacobi residuals exactly zero "
                    f"({elapsed:.2f}s < 5s)")


def test_criterion_2_euler_lagrange():
    phi = ss.generic_superfield("Phi", nz=0)
    el = md.euler_lagrange(md.sine_gordon_lagrangian(), phi)
    ok = (el - md.sg_residual(phi)).is_zero()
    _verdict(2, ok, "Euler-Lagrange of the graded Lagrangian reproduces the "
                    "field equation as an exact expression identity")


def test_criterion_3_component_reduction():
    phi = ss.generic_superfield("Phi", nz=0)
    ctx = phi.expr.ctx
    eqs = md.component_equations(eliminate_auxiliary=True, field=phi)
    raw = md.component_equations(eliminate_auxiliary=False, field=phi)
    ok = (raw["aux"] - ps.parse_expr("2*F + alpha*sin(1/2*X)", ctx)).is_zero()
    ok &= (eqs["X"] - ps.parse_expr(
        "X_{-+} - 1/4*sin(X) - 1/2*alpha*psi-*psi+*sin(1/2*X)", ctx)).is_zero()
    ok &= (eqs["psi+"] - ps.parse_expr(
        "psi+_{+} + 1/2*alpha*psi-*cos(1/2*X)", ctx)).is_zero()
    ok &= (eqs["psi-"] - ps.parse_expr(
        "psi-_{-} + 1/2*alpha*psi+*cos(1/2*X)", ctx)).is_zero()
    ok &= (md.classical_residual(phi)
           - ps.parse_expr("X_{-+} - 1/4*sin(X)", ctx)).is_zero()
    _verdict(3, ok, "component equations term-for-term, classical limit exact")


def test_criterion_4_auto_backlund():
    ok = True
    for orientation in ("minus", "plus"):
        rep = bt.verify_auto_bt(bt.BTSystem(orientation=orientation))
        main = [e for e in rep.entries if e.name.startswith("target residual")][0]
        ok &= main.status == "pass"
    sab = bt.verify_auto_bt(flipped_relation("minus", 1))
    ok &= not sab.passed()
    _verdict(4, ok, "both rewrite systems map solutions to solutions with "
                    "exactly-zero residual; a sign-flipped system fails")


def test_criterion_5_series():
    t0 = time.perf_counter()
    sysm = bt.BTSystem(order=6)
    ctx = sysm.ctx
    series = sysm.series
    dplus = ss.D_PLUS(sysm.seed_field.expr)
    ok = (series[0] - sysm.seed_field.expr).is_zero()
    ok &= (series[1] - (al.vpow(1, ctx) * al.gen("lambda-", ctx)
                        * dplus).scale(-4)).is_zero()
    ok &= (series[2] - (al.vpow(1, ctx)
                        * ss.D_PLUS(dplus)).scale(8)).is_zero()
    ok &= bt.verify_closed_form(sysm).passed()
    ok &= bt.verify_recursion(sysm).passed()  # n = 0 anchor + n = 1..5
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    _verdict(5, ok, f"series coefficients, closed form for orders 1..6 and "
                    f"recursion hold exactly ({elapsed:.2f}s < 30s)")


def test_criterion_6_current_conservation():
    ok = True
    for orientation in ("minus", "plus"):
        rep = bt.verify_current_conservation(bt.BTSystem(orientation=orientation))
        ok &= rep.passed()
        status = {e.name: e.status for e in rep.entries}
        ok &= status["cancellation requires anticommuting parameters"] == "pass"
        div = [e for e in rep.entries if e.name == "divergence vanishes"][0]
        ok &= div.details["halves_cancel"] is True
        # the cancellation pattern needs the anticommutator of the parameters
        # to vanish: making them commute leaves the sine-product residual
        with commuting_parameters():
            sab = bt.verify_current_conservation(bt.BTSystem(orientation=orientation))
        ok &= {e.name: e.status for e in sab.entries}["divergence vanishes"] == "fail"
    _verdict(6, ok, "spinor-current divergence is exactly zero via the "
                    "anticommutation cancellation")


def test_criterion_7_conservation_audit():
    sysm = bt.BTSystem(order=6)
    rep = bt.conservation_audit(sysm, K=4)
    ok = rep.passed()  # identity reading + both two-path agreements
    names = {e.name for e in rep.entries}
    ok &= {"printed placement order 0", "printed placement order 4",
           "claimed law k=0", "claimed law k=4",
           "series coefficient 6 square"} <= names
    # determinism: a rebuilt audit serializes identically
    ok &= rep.to_text() == bt.conservation_audit(bt.BTSystem(order=6), K=4).to_text()
    _verdict(7, ok, "audit deterministic with two-path (superspace vs sector) "
                    "agreement; per-order findings and nilpotency table emitted")


def test_criterion_8_numerics():
    t0 = time.perf_counter()
    ok = nm.static_kink_residual(2.0 ** -9) < 1e-8
    s = nm.kink_state(20.0, 2.0 ** -7)
    ok &= abs(nm.energy(s) - 8.0) < 1e-6
    gamma = 1 / math.sqrt(1 - 0.25)
    ok &= abs(nm.energy(nm.kink_state(20.0, 2.0 ** -7, v=0.5)) - 8 * gamma) < 1e-5
    errs = {}
    for h in (2.0 ** -6, 2.0 ** -7):
        s0 = nm.kink_state(20.0, h, v=0.3)
        out = nm.solve_leapfrog(s0, 10.0, dt=h / 2)
        errs[h] = float(np.max(np.abs(out.X - nm.kink(out.x, out.t, 0.3))))
    factor = errs[2.0 ** -6] / errs[2.0 ** -7]
    ok &= 3.5 <= factor <= 4.5
    spec = bt.export_body_system(bt.BTSystem())
    body = nm.BodyBT.from_spec(spec, 1.2)
    seed = nm.FieldState.empty(20.0, 2.0 ** -7)
    tgt = nm.integrate_bt_body(seed, body)
    idx = int(np.argmin(np.abs(tgt.X - math.pi)))
    x0 = float(np.interp(math.pi, tgt.X[idx - 2:idx + 3], tgt.x[idx - 2:idx + 3]))
    ok &= float(np.max(np.abs(tgt.X - nm.kink(tgt.x, 0.0, body.kink_speed,
                                              x0)))) < 1e-6
    dt = seed.h / 2
    levels = nm.bt_target_time_march(body, tgt, dt, 2)
    ok &= nm.classical_residual_on_grid(levels[1], levels[0], levels[2], dt) < 1e-6
    ferm = nm.integrate_fermions(lambda xm, xp: np.zeros_like(xm),
                                 lambda xm: np.ones_like(xm),
                                 lambda xp: np.zeros_like(xp), h=2.0 ** -7)
    XM, XP = np.meshgrid(ferm.xm, ferm.xp, indexing="ij")
    ok &= float(np.max(np.abs(ferm.u - nm.bessel_series(XM * XP)))) < 1e-6
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120.0
    _verdict(8, ok, f"kink residual, order-2 convergence ({factor:.2f}), "
                    f"energies, vacuum-to-kink map and fermion "
                    f"characteristics within tolerance ({elapsed:.1f}s < 120s)")


def test_criterion_9_cross_module_table():
    ctx = al.BT_CTX
    exprs = {"1": al.GradedExpr.rational(1, ctx)}
    for name in nm.BASIS[1:]:
        exprs[name] = al.gen(name, ctx)
    idx = {al.CF_ONE: 0, al.CF_ALPHA: 1, ("L", "+"): 2, ("L", "-"): 3}
    ok = True
    for i, bi in enumerate(nm.BASIS):
        for j, bj in enumerate(nm.BASIS):
            expect = np.zeros(4)
            for key, coef in (exprs[bi] * exprs[bj]).coefficients():
                expect[idx[key[3]]] += float(coef)
            ok &= bool(np.array_equal(nm.STRUCTURE[i, j], expect))
    _verdict(9, ok, "numeric parameter table equals symbolic normalization "
                    "on all 16 basis pairs exactly")
