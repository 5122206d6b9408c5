"""Command-line front end: check orchestration and report emission.

stdout carries the comparable report body (deterministic, byte-identical
across runs for a fixed configuration); timings go to stderr.  Exit codes:
0 all checks pass, 1 a check failed or a golden file mismatched, 2 bad
configuration or expression error.  numpy and the numeric companion are
imported by the three numeric checks only, so a symbolic run never loads them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys as _sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import algebra as al
from . import backlund as bt
from . import model as md
from . import parser as ps
from . import superspace as ss
from .errors import ConfigError, GradedSGError
from .report import Report

SYMBOLIC_CHECKS = ("verify-algebra", "derive-eom", "components", "verify-bt",
                   "expand-bt", "closed-form", "redundancy", "currents",
                   "conservation-audit")
NUMERIC_CHECKS = ("kink", "bt-numeric", "fermions")
ALL_CHECKS = SYMBOLIC_CHECKS + NUMERIC_CHECKS


@dataclass
class RunConfig:
    checks: tuple[str, ...] = SYMBOLIC_CHECKS
    order: int = 6
    audit_order: int = 4
    fmt: str = "text"
    golden: Optional[str] = None
    grid_L: float = 20.0
    grid_h: float = 2.0 ** -7
    grid_dt: float = 2.0 ** -8
    bt_a: float = 1.2
    out_dir: Optional[str] = None

    def __post_init__(self):
        bad = [c for c in self.checks if c not in ALL_CHECKS]
        if bad:
            raise ConfigError(f"unknown checks: {', '.join(bad)}")
        if self.order < 1 or self.order > al.BT_CTX.amax:
            raise ConfigError(f"--order must be in [1, {al.BT_CTX.amax}]")
        if not 0 <= self.audit_order <= bt.max_audit_order(al.BT_CTX):
            raise ConfigError("--audit-order must be in "
                              f"[0, {bt.max_audit_order(al.BT_CTX)}]")
        if self.fmt not in ("text", "json"):
            raise ConfigError("--format must be 'text' or 'json'")
        L, h, dt = self.grid_L, self.grid_h, self.grid_dt
        if not all(math.isfinite(x) and x > 0 for x in (L, h, dt)):
            raise ConfigError("--grid values L, h and dt must be finite and positive")
        if 2 * L / h < 4:
            raise ConfigError("--grid needs at least 5 points (2L/h >= 4)")
        if dt >= h:
            raise ConfigError("--grid needs dt < h")
        if not math.isfinite(self.bt_a) or self.bt_a == 0:
            raise ConfigError("--bt-a must be finite and nonzero")


# ---------------------------------------------------------------------------
# individual checks

def check_verify_algebra(cfg: RunConfig) -> Report:
    rep = Report("verify-algebra")
    probe = ss.generic_superfield("Phi", nz=1).expr
    failures = []
    total = 0
    for label, res in ss.superalgebra_checks(probe):
        total += 1
        if not res.is_zero():
            failures.append((label, al.to_text(res)))
    rep.add("bracket and Jacobi relations", "pass" if not failures else "fail",
            tuple(f"{l}: {t}" for l, t in failures), relations_checked=total)
    cov_bad = [label for label, ok in ss.derivation_covariance_checks(probe)
               if not ok]
    rep.add("derivation degree/weight covariance",
            "pass" if not cov_bad else "fail", tuple(cov_bad))
    # Z-+ annihilates everything built in the z-independent mode
    flat = ss.generic_superfield("Phi", nz=0)
    rep.add("z-independent fields are translation-invariant in z",
            "pass" if ss.Z_MINUSPLUS(flat.expr).is_zero() else "fail")
    return rep


def check_derive_eom(cfg: RunConfig) -> Report:
    rep = Report("derive-eom")
    phi = ss.generic_superfield("Phi", nz=0)
    el = md.euler_lagrange(md.sine_gordon_lagrangian(), phi)
    res = md.sg_residual(phi)
    rep.add_zero_check("Euler-Lagrange output equals the field-equation residual",
                       el - res, equation=al.to_text(res))
    free = md.euler_lagrange(md.LagrangianExpr.make(1, []), phi)
    kinetic_only = ss.D_MINUS(ss.D_PLUS(phi.expr)) + ss.D_PLUS(ss.D_MINUS(phi.expr))
    rep.add_zero_check("free Lagrangian has no potential term", free - kinetic_only)
    return rep


def check_components(cfg: RunConfig) -> Report:
    rep = Report("components")
    phi = ss.generic_superfield("Phi", nz=0)
    ctx = phi.expr.ctx
    eqs = md.component_equations(eliminate_auxiliary=True, field=phi)
    raw = md.component_equations(eliminate_auxiliary=False, field=phi)
    expected = {
        "aux": "2*F + alpha*sin(1/2*X)",
        "X": "X_{-+} - 1/4*sin(X) - 1/2*alpha*psi-*psi+*sin(1/2*X)",
        "psi+": "psi+_{+} + 1/2*alpha*psi-*cos(1/2*X)",
        "psi-": "psi-_{-} + 1/2*alpha*psi+*cos(1/2*X)",
    }
    rep.add_zero_check("auxiliary sector", raw["aux"] - ps.parse_expr(expected["aux"], ctx))
    for key in ("X", "psi+", "psi-"):
        rep.add_zero_check(f"component equation {key}",
                           eqs[key] - ps.parse_expr(expected[key], ctx),
                           equation=al.to_text(eqs[key]))
    classical = md.classical_residual(phi)
    rep.add_zero_check("fermion-free reduction is the classical equation",
                       classical - ps.parse_expr("X_{-+} - 1/4*sin(X)", ctx),
                       equation=al.to_text(classical))
    onshell = md.reduce_on_shell(md.sg_residual(phi), phi)
    rep.add_zero_check("field-equation residual vanishes on shell", onshell)
    return rep


def check_verify_bt(cfg: RunConfig) -> Report:
    rep = Report("verify-bt")
    control = "sign-flipped system is rejected"
    for orientation in ("minus", "plus"):
        sub = bt.verify_auto_bt(bt.BTSystem(orientation=orientation))
        rep.add(f"{orientation}-oriented system", sub.status if sub.status != "info" else "pass",
                tuple(t for e in sub.entries for t in e.residual_terms
                      if e.status == "fail"))
        for e in sub.entries:
            if e.name.startswith("route asymmetry"):
                rep.add(f"{orientation}: route asymmetry is nonzero (printed system)",
                        "info", e.residual_terms, **e.details)
        if orientation == "minus":
            rep.add(control, next(e.status for e in sub.entries if e.name == control))
    return rep


def check_expand_bt(cfg: RunConfig) -> Report:
    rep = Report("expand-bt")
    # the low-order values and the mirror image do not depend on --order
    low = bt.BTSystem(order=2)
    ctx = low.ctx
    series = low.series
    dplus_phi = ss.D_PLUS(low.seed_field.expr)
    rep.add_zero_check("order 0 equals the seed", series[0] - low.seed_field.expr)
    exp1 = (al.vpow(1, ctx) * al.gen("lambda-", ctx) * dplus_phi).scale(-4)
    rep.add_zero_check("order 1 value", series[1] - exp1,
                       value=al.to_text(series[1]))
    exp2 = (al.vpow(1, ctx) * ss.D_PLUS(dplus_phi)).scale(8)
    rep.add_zero_check("order 2 value", series[2] - exp2,
                       value=al.to_text(series[2]))
    sysm = bt.BTSystem(order=cfg.order)
    rec = bt.verify_recursion(sysm)
    rep.add("recursion through the requested order",
            "pass" if rec.passed() else "fail")
    # weight homogeneity of every coefficient (engine-determined value)
    ws = [c.weight() for c in sysm.series]
    rep.add("series coefficients weight-homogeneous", "pass",
            weights=",".join(str(w) for w in ws))
    # plus-oriented coefficients are the mirror image of the minus ones
    sysp = bt.BTSystem(orientation="plus", order=2)
    rep.add_zero_check("plus system is the mirror image at order 1",
                       al.mirror_pm(series[1]) - sysp.series[1])
    return rep


def check_closed_form(cfg: RunConfig) -> Report:
    rep = Report("closed-form")
    sub = bt.verify_closed_form(bt.BTSystem(order=cfg.order))
    ok = sub.passed()
    rep.add("engine closed form matches the series", "pass" if ok else "fail")
    signs = [e.details.get("printed_sign_agrees") for e in sub.sorted_entries()
             if e.name.startswith("order")]
    rep.add("printed-sign agreement by order", "info",
            by_order=",".join("y" if s else "n" for s in signs if s is not None))
    for e in sub.sorted_entries():
        if e.name.startswith("nilpotency"):
            rep.add(e.name, "info", **e.details)
    return rep


def check_redundancy(cfg: RunConfig) -> Report:
    rep = Report("redundancy")
    sub = bt.verify_redundancy(bt.BTSystem(order=cfg.order))
    rep.note = ("engine truth for the first relation evaluated on the "
                "series built from the second one")
    for e in sub.sorted_entries():
        rep.add(e.name, "info", e.residual_terms, **e.details)
    return rep


def check_currents(cfg: RunConfig) -> Report:
    rep = Report("currents")
    control = "cancellation requires anticommuting parameters"
    for orientation in ("minus", "plus"):
        sub = bt.verify_current_conservation(bt.BTSystem(orientation=orientation))
        rep.add(f"{orientation}-oriented conservation",
                "pass" if sub.passed() else "fail",
                tuple(t for e in sub.entries for t in e.residual_terms
                      if e.status == "fail"))
        if orientation == "minus":
            rep.add(control, next(e.status for e in sub.entries if e.name == control))
    return rep


def check_conservation_audit(cfg: RunConfig) -> Report:
    rep = Report("conservation-audit")
    rep.note = ("order-by-order engine findings; acceptance condition is "
                "determinism and two-path agreement, not the truth of the "
                "printed claims")
    for orientation in ("minus", "plus"):
        sub = bt.conservation_audit(
            bt.BTSystem(orientation=orientation, order=cfg.order),
            cfg.audit_order)
        for e in sub.sorted_entries():
            rep.add(f"{orientation}: {e.name}", e.status, e.residual_terms,
                    **e.details)
    return rep


def check_kink(cfg: RunConfig) -> Report:
    import numpy as np
    from . import numeric as nm

    rep = Report("kink")
    res = nm.static_kink_residual(2.0 ** -9, L=cfg.grid_L)
    rep.add("static kink residual at h=2^-9", "pass" if res < 1e-8 else "fail",
            residual=f"{res:.3e}")
    s = nm.kink_state(cfg.grid_L, cfg.grid_h)
    e_err = abs(nm.energy(s) - 8.0)
    rep.add("static kink energy equals 8", "pass" if e_err < 1e-6 else "fail",
            error=f"{e_err:.3e}")
    v = 0.5
    gamma = 1.0 / math.sqrt(1 - v * v)
    eb_err = abs(nm.energy(nm.kink_state(cfg.grid_L, cfg.grid_h, v=v)) - 8 * gamma)
    rep.add("boosted kink energy equals 8*gamma",
            "pass" if eb_err < 1e-5 else "fail", error=f"{eb_err:.3e}")
    errs = {}
    for h in (2.0 ** -6, 2.0 ** -7):
        s0 = nm.kink_state(cfg.grid_L, h, v=0.3)
        out = nm.solve_leapfrog(s0, 10.0, dt=h / 2)
        errs[h] = float(np.max(np.abs(out.X - nm.kink(out.x, out.t, 0.3))))
    factor = errs[2.0 ** -6] / errs[2.0 ** -7]
    rep.add("leapfrog second-order convergence",
            "pass" if 3.5 <= factor <= 4.5 else "fail",
            factor=f"{factor:.3f}",
            errors=f"{errs[2.0**-6]:.3e},{errs[2.0**-7]:.3e}")
    vac = nm.solve_leapfrog(nm.FieldState.empty(10.0, 2.0 ** -6), 2.0)
    rep.add("vacuum stays vacuum",
            "pass" if float(np.max(np.abs(vac.X))) == 0.0 else "fail")
    if cfg.out_dir:
        s0 = nm.kink_state(cfg.grid_L, cfg.grid_h, v=0.3)
        out = nm.solve_leapfrog(s0, 2.0, dt=cfg.grid_dt)
        nm.dump_csv(os.path.join(cfg.out_dir, "kink.csv"), [out],
                    {"check": "kink", "L": cfg.grid_L, "h": cfg.grid_h,
                     "dt": cfg.grid_dt, "v": 0.3, "T": 2.0})
    return rep


def check_bt_numeric(cfg: RunConfig) -> Report:
    import numpy as np
    from . import numeric as nm

    rep = Report("bt-numeric")
    spec = bt.export_body_system(bt.BTSystem())
    rep.add("raw sector export is cross-inconsistent", "info",
            (spec.mismatch_raw,), completed_mismatch=spec.mismatch_completed,
            relation_first=spec.relation_first,
            relation_second_raw=spec.relation_second_raw,
            relation_second=spec.relation_second)
    for rel_text in (spec.relation_first, spec.relation_second):
        e = ps.parse_expr(rel_text, al.BT_CTX)
        deg = e.degree()
        rep.add(f"exported relation degree/weight: {rel_text}",
                "pass" if deg == (0, 0) else "fail",
                degree=str(deg), weight=f"{e.weight()}/2")
    body = nm.BodyBT.from_spec(spec, cfg.bt_a)
    seed = nm.FieldState.empty(cfg.grid_L, cfg.grid_h)
    tgt = nm.integrate_bt_body(seed, body)
    # phase fit: locate the pi crossing
    idx = int(np.argmin(np.abs(tgt.X - math.pi)))
    x0 = float(np.interp(math.pi, tgt.X[idx - 2:idx + 3],
                         tgt.x[idx - 2:idx + 3]))
    prof_err = float(np.max(np.abs(tgt.X - nm.kink(tgt.x, 0.0,
                                                   body.kink_speed, x0))))
    rep.add("vacuum seed produces the closed-form kink",
            "pass" if prof_err < 1e-6 else "fail",
            error=f"{prof_err:.3e}", speed=f"{body.kink_speed:.6f}",
            fitted_x0=f"{x0:.3e}")
    dt = cfg.grid_h / 2
    levels = nm.bt_target_time_march(body, tgt, dt, 2)
    res = nm.classical_residual_on_grid(levels[1], levels[0], levels[2], dt)
    rep.add("generated field satisfies the classical equation",
            "pass" if res < 1e-6 else "fail", residual=f"{res:.3e}")
    try:
        nm.BodyBT.from_spec(spec, 0.0)
        rep.add("a = 0 is rejected", "fail")
    except ConfigError:
        rep.add("a = 0 is rejected", "pass")
    if cfg.out_dir:
        nm.dump_csv(os.path.join(cfg.out_dir, "bt_numeric.csv"), [tgt],
                    {"check": "bt-numeric", "a": cfg.bt_a,
                     "L": cfg.grid_L, "h": cfg.grid_h})
    return rep


def check_fermions(cfg: RunConfig) -> Report:
    import numpy as np
    from . import numeric as nm

    rep = Report("fermions")
    h = cfg.grid_h
    zero_bg = lambda xm, xp: np.zeros_like(xm)
    res = nm.integrate_fermions(zero_bg, lambda xm: np.ones_like(xm),
                                lambda xp: np.zeros_like(xp), h=h)
    # the closed form in blocks of 64 rows, never on the full grid; a max is
    # exact, so blocking does not change it
    err = max(float(np.max(np.abs(res.u[r:r + 64] - nm.bessel_series(
        np.multiply.outer(res.xm[r:r + 64], res.xp)))))
        for r in range(0, len(res.xm), 64))
    rep.add("zero background matches the closed-form characteristics",
            "pass" if err < 1e-6 else "fail", error=f"{err:.3e}")
    z = nm.integrate_fermions(zero_bg, lambda xm: np.zeros_like(xm),
                              lambda xp: np.zeros_like(xp), h=2.0 ** -5)
    rep.add("zero data stays zero",
            "pass" if not (np.any(z.u) or np.any(z.w)) else "fail")
    # free these grids before the kink integration, where the check peaks
    del res, z
    kink_bg = lambda xm, xp: nm.kink((xp + xm) / 2.0)
    res2 = nm.integrate_fermions(kink_bg, lambda xm: np.exp(-xm),
                                 lambda xp: np.zeros_like(xp), h=h)
    worst = max(res2.residual_plus, res2.residual_minus)
    rep.add("equation residuals on a kink background",
            "pass" if worst < 1e-5 else "fail",
            residual=f"{worst:.3e}")
    return rep


CHECKS: dict[str, Callable[[RunConfig], Report]] = {
    "verify-algebra": check_verify_algebra,
    "derive-eom": check_derive_eom,
    "components": check_components,
    "verify-bt": check_verify_bt,
    "expand-bt": check_expand_bt,
    "closed-form": check_closed_form,
    "redundancy": check_redundancy,
    "currents": check_currents,
    "conservation-audit": check_conservation_audit,
    "kink": check_kink,
    "bt-numeric": check_bt_numeric,
    "fermions": check_fermions,
}


# ---------------------------------------------------------------------------
# golden files

# checks whose findings are engine truth rather than asserted claims; their
# serialized reports are frozen and diffed instead of pass/fail-gated
GOLDEN_CHECKS = ("redundancy", "conservation-audit")


def _golden_diff(cfg: RunConfig, rep: Report) -> Optional[str]:
    """Compare an informational report against its golden file.

    Returns an error string on mismatch or when the file is missing; never
    writes anything."""
    if not cfg.golden:
        return None
    path = os.path.join(cfg.golden, rep.name + ".txt")
    if not os.path.exists(path):
        return f"{rep.name}: golden file {path} missing"
    with open(path) as fh:
        want = fh.read()
    if want != rep.to_text():
        return f"{rep.name}: output differs from golden file {path}"
    return None


# ---------------------------------------------------------------------------
# entry point

def run(cfg: RunConfig) -> int:
    reports: list[Report] = []
    mismatches: list[str] = []
    for name in cfg.checks:
        t0 = time.perf_counter()
        rep = CHECKS[name](cfg)
        rep.elapsed = time.perf_counter() - t0
        if name in GOLDEN_CHECKS:
            err = _golden_diff(cfg, rep)
            if err:
                mismatches.append(err)
        reports.append(rep)

    if cfg.fmt == "json":
        print(json.dumps({"reports": [r.to_json_obj() for r in reports],
                          "golden_mismatches": mismatches},
                         indent=2, sort_keys=True))
    else:
        for rep in reports:
            print(rep.to_text(), end="")
        print("summary:")
        for rep in reports:
            print(f"  {rep.status.upper():4s} {rep.name}")
        for mm in mismatches:
            print(f"  GOLDEN-MISMATCH {mm}")
    print(f"timings: " + " ".join(f"{r.name}={r.elapsed:.2f}s" for r in reports),
          file=_sys.stderr)

    if mismatches:
        return 1
    if any(not r.passed() for r in reports):
        return 1
    return 0


def build_arg_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gradedsg",
        description="Verification engine for the graded sine-Gordon system "
                    "and its Backlund transformations.")
    p.add_argument("--check", action="append", choices=ALL_CHECKS,
                   help="check to run (repeatable); default: all symbolic checks")
    p.add_argument("--all", action="store_true", help="run every check")
    p.add_argument("--order", type=int, default=RunConfig.order,
                   help="series order (default %(default)s)")
    p.add_argument("--audit-order", type=int, default=RunConfig.audit_order,
                   help="conservation-audit order in a (default %(default)s)")
    p.add_argument("--format", choices=("text", "json"), default=RunConfig.fmt)
    p.add_argument("--golden", metavar="DIR",
                   help="directory of golden files for informational reports")
    grid = (RunConfig.grid_L, RunConfig.grid_h, RunConfig.grid_dt)
    p.add_argument("--grid", metavar="L,h,dt", help="numeric grid parameters "
                   "(default " + ",".join(f"{x:g}" for x in grid) + ")")
    p.add_argument("--bt-a", type=float, default=RunConfig.bt_a, metavar="A",
                   help="Backlund parameter for the numeric map")
    p.add_argument("--out-dir", metavar="DIR", help="directory for CSV output")
    p.add_argument("--eval", metavar="EXPR",
                   help="parse and normalize a mini-language expression, then exit")
    return p


def main(argv: Optional[list[str]] = None) -> int:
    args = build_arg_parser().parse_args(argv)
    if args.eval is not None:
        try:
            info = ps.describe(ps.parse_expr(args.eval))
        except GradedSGError as exc:
            print(f"error: {exc}", file=_sys.stderr)
            return 2
        for k in ("text", "degree", "weight", "terms"):
            print(f"{k}: {info[k]}")
        return 0
    try:
        # options left out keep RunConfig's defaults
        given = {}
        if args.grid:
            parts = args.grid.split(",")
            if len(parts) != 3:
                raise ConfigError("--grid wants L,h,dt")
            given.update(zip(("grid_L", "grid_h", "grid_dt"), map(float, parts)))
        if args.all or args.check:
            given["checks"] = ALL_CHECKS if args.all else tuple(args.check)
        cfg = RunConfig(order=args.order, audit_order=args.audit_order,
                        fmt=args.format, golden=args.golden, bt_a=args.bt_a,
                        out_dir=args.out_dir, **given)
        if cfg.out_dir:
            os.makedirs(cfg.out_dir, exist_ok=True)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2
    try:
        return run(cfg)
    except GradedSGError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
