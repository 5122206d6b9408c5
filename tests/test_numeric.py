import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from gradedsg import algebra as al
from gradedsg import backlund as bt
from gradedsg import numeric as nm
from gradedsg.errors import (CFLViolation, ConfigError, InconsistentSystem,
                             NonFiniteValue, UnsupportedAtom, VelocityOutOfRange)


# ---------------------------------------------------------------------------
# parameter algebra

def test_structure_tensor_matches_symbolic_kernel():
    # all 16 basis products agree with the symbolic normalization at v = 1
    ctx = al.BT_CTX
    exprs = {"1": al.GradedExpr.rational(1, ctx)}
    for name in nm.BASIS[1:]:
        exprs[name] = al.gen(name, ctx)
    for i, bi in enumerate(nm.BASIS):
        for j, bj in enumerate(nm.BASIS):
            sym = exprs[bi] * exprs[bj]
            expect = np.zeros(4)
            for key, coef in sym.coefficients():
                cf = key[3]
                idx = {al.CF_ONE: 0, al.CF_ALPHA: 1, ("L", "+"): 2,
                       ("L", "-"): 3}[cf]
                expect[idx] += float(coef)  # v-powers frozen to one
            assert np.array_equal(nm.STRUCTURE[i, j], expect), (bi, bj)


def test_odd_squares_are_table_exact():
    psi = 0.7 * np.eye(4)[nm.BASIS.index("lambda+")]
    sq = np.einsum("i,j,ijk->k", psi, psi, nm.STRUCTURE)
    assert sq[1] == 0.0 and sq[2] == 0.0 and sq[3] == 0.0
    # lambda+^2 = v+ = 1 numerically; the pure-odd square of a single line
    # is scalar by the table, not by float cancellation
    assert sq[0] == pytest.approx(0.49)


# ---------------------------------------------------------------------------
# kink and solver

def test_kink_values_and_limits():
    assert nm.kink(0.0) == pytest.approx(math.pi)
    assert nm.kink(-60.0) == pytest.approx(0.0, abs=1e-12)
    assert nm.kink(60.0) == pytest.approx(2 * math.pi, abs=1e-12)
    # |v| < 1 is checked before gamma divides by 1 - v^2; NaN fails it too
    for v in (1.0, -1.0, 1.5, math.inf, math.nan):
        with pytest.raises(VelocityOutOfRange):
            nm.kink(0.0, v=v)
        with pytest.raises(VelocityOutOfRange):
            nm.kink_state(5.0, 2.0 ** -5, v=v)


def test_static_kink_residual_fine_grid():
    assert nm.static_kink_residual(2.0 ** -9) < 1e-8


def test_second_order_stencil_refinement_plateau():
    # the plain second-order residual oracle decreases by ~4x per halving
    def res2(h):
        s = nm.kink_state(20.0, h)
        r = (s.X[:-2] - 2 * s.X[1:-1] + s.X[2:]) / (h * h) - np.sin(s.X[1:-1])
        return float(np.max(np.abs(r)))

    r1, r2 = res2(2.0 ** -6), res2(2.0 ** -7)
    assert 3.5 < r1 / r2 < 4.5


def test_energy_values():
    s = nm.kink_state(20.0, 2.0 ** -7)
    assert abs(nm.energy(s) - 8.0) < 1e-6
    v = 0.5
    gamma = 1 / math.sqrt(1 - v * v)
    sv = nm.kink_state(20.0, 2.0 ** -7, v=v)
    assert abs(nm.energy(sv) - 8.0 * gamma) < 1e-5


def test_leapfrog_vacuum_and_cfl():
    s0 = nm.FieldState.empty(5.0, 2.0 ** -5)
    out = nm.solve_leapfrog(s0, 1.0)
    assert np.all(out.X == 0.0)
    with pytest.raises(CFLViolation):
        nm.solve_leapfrog(s0, 1.0, dt=1.0)
    # dt must be finite and positive, and T must hold at least one step
    for T, dt in ((1.0, 0.0), (1.0, -0.01), (1.0, math.nan), (-1.0, None),
                  (0.0, None), (2.0 ** -8, None), (math.nan, None), (math.inf, None)):
        with pytest.raises(ConfigError):
            nm.solve_leapfrog(s0, T, dt=dt)


@pytest.mark.parametrize("L, h", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0),
                                  (math.nan, 1.0), (1.0, math.inf), (0.2, 1.0),
                                  (1.0, 1.5), (1.0, 0.6)])
def test_empty_grid_rejects_bad_sizes(L, h):
    # non-finite or non-positive sizes, or fewer than the 5 points that the
    # fourth-order stencil reads
    with pytest.raises(ConfigError):
        nm.FieldState.empty(L, h)


def test_leapfrog_raises_on_non_finite():
    # finiteness is checked once, at the end: an interior NaN must survive
    # the whole run and still be reported
    s0 = nm.kink_state(5.0, 2.0 ** -5)
    s0.X[len(s0.X) // 3] = np.nan
    with pytest.raises(NonFiniteValue):
        nm.solve_leapfrog(s0, 1.0)


def _plain_second_deriv(u, h):
    d = np.empty_like(u)
    d[2:-2] = (-u[:-4] + 16 * u[1:-3] - 30 * u[2:-2] + 16 * u[3:-1] - u[4:]) / (12 * h * h)
    d[1] = (u[0] - 2 * u[1] + u[2]) / (h * h)
    d[-2] = (u[-3] - 2 * u[-2] + u[-1]) / (h * h)
    d[0], d[-1] = d[1], d[-2]
    return d


def _plain_leapfrog(s0, T, dt):
    # the leapfrog as whole-array expressions, in the solver's operation order
    def accel(X):
        return _plain_second_deriv(X, s0.h) - np.sin(X)

    X_prev = s0.X.copy()
    X = X_prev + dt * s0.Xdot + 0.5 * dt * dt * accel(X_prev)
    X[0], X[-1] = s0.X[0], s0.X[-1]
    for _ in range(int(round(T / dt)) - 1):
        X_next = 2 * X - X_prev + dt * dt * accel(X)
        X_next[0], X_next[-1] = s0.X[0], s0.X[-1]
        X_prev, X = X, X_next
    return X, (X - X_prev) / dt


def test_leapfrog_matches_the_plain_expressions():
    rng = np.random.default_rng(7)
    for n, h in ((5, 0.37), (6, 0.1), (41, 2.0 ** -5)):
        u = rng.standard_normal(n)
        assert nm._second_deriv_4(u, h).tobytes() == _plain_second_deriv(u, h).tobytes()
    s0 = nm.kink_state(4.0, 2.0 ** -4, v=0.3)
    out = nm.solve_leapfrog(s0, 1.0, dt=2.0 ** -6)
    X, Xdot = _plain_leapfrog(s0, 1.0, 2.0 ** -6)
    assert out.X.tobytes() == X.tobytes()
    assert out.Xdot.tobytes() == Xdot.tobytes()


def test_leapfrog_kink_accuracy_and_convergence():
    errs = {}
    for h in (2.0 ** -6, 2.0 ** -7):
        s0 = nm.kink_state(20.0, h, v=0.3)
        out = nm.solve_leapfrog(s0, 10.0, dt=h / 2)
        errs[h] = float(np.max(np.abs(out.X - nm.kink(out.x, out.t, 0.3))))
    assert errs[2.0 ** -7] < 1e-4
    assert 3.5 <= errs[2.0 ** -6] / errs[2.0 ** -7] <= 4.5


def test_energy_drift():
    s0 = nm.kink_state(20.0, 2.0 ** -7, v=0.3)
    e0 = nm.energy(s0)
    out = nm.solve_leapfrog(s0, 10.0, dt=s0.h / 8)
    assert abs(nm.energy(out) - e0) / e0 < 1e-6


# ---------------------------------------------------------------------------
# numeric Backlund map

@pytest.fixture(scope="module")
def body_spec():
    return bt.export_body_system(bt.BTSystem())


def test_body_bt_rejects_zero_parameter(body_spec):
    with pytest.raises(ConfigError):
        nm.BodyBT.from_spec(body_spec, 0.0)


@pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf, 1e-300, 1e200])
def test_body_bt_rejects_a_non_finite_or_overflowing_parameter(body_spec, a):
    # the relations carry a^2 and a^-2: 1e-300 ** -2 and 1e200 ** 2 overflow
    with pytest.raises(ConfigError):
        nm.BodyBT.from_spec(body_spec, a)


@pytest.mark.parametrize("dt, steps", [(0.0, 2), (-0.01, 2), (math.nan, 2), (math.inf, 2),
                                       (0.01, -1)])
def test_bt_time_march_rejects_bad_steps(body_spec, dt, steps):
    body = nm.BodyBT.from_spec(body_spec, 1.2)
    state = nm.FieldState.empty(2.0, 0.25)
    with pytest.raises(ConfigError):
        nm.bt_target_time_march(body, state, dt, steps)
    # no step is a valid march: the initial level alone
    levels = nm.bt_target_time_march(body, state, 0.01, 0)
    assert len(levels) == 1 and levels[0] is state


def test_vacuum_seed_gives_kink(body_spec):
    for a in (1.0, 1.2, 0.8):
        body = nm.BodyBT.from_spec(body_spec, a)
        seed = nm.FieldState.empty(20.0, 2.0 ** -7)
        tgt = nm.integrate_bt_body(seed, body)
        exact = nm.kink(tgt.x, 0.0, body.kink_speed, 0.0)
        assert float(np.max(np.abs(tgt.X - exact))) < 1e-6
        # expected boost factor (p+q)/2 matches the profile steepness
        assert (body.p + body.q) / 2 == pytest.approx(
            1 / math.sqrt(1 - body.kink_speed ** 2))


def test_bt_output_solves_classical_equation(body_spec):
    body = nm.BodyBT.from_spec(body_spec, 1.2)
    seed = nm.FieldState.empty(20.0, 2.0 ** -7)
    tgt = nm.integrate_bt_body(seed, body)
    dt = seed.h / 2
    levels = nm.bt_target_time_march(body, tgt, dt, 2)
    res = nm.classical_residual_on_grid(levels[1], levels[0], levels[2], dt)
    assert res < 1e-6


def test_body_bt_rejects_a_third_symbol(body_spec):
    coef, apow, vpow, combo = body_spec.p
    spec = dataclasses.replace(body_spec, p=(coef, apow, vpow, combo + (("Y", 1),)))
    with pytest.raises(UnsupportedAtom):
        nm.BodyBT.from_spec(spec, 1.2)
    body = nm.BodyBT.from_spec(body_spec, 1.2)
    with pytest.raises(UnsupportedAtom):
        dataclasses.replace(body, arg_q=body.arg_q + (("Y", 1.0),))


def test_body_relations_match_the_dict_lookup(body_spec):
    # the relations as they were written with a symbol -> value dict built
    # per call, evaluated byte for byte against the current ones
    def arg(body, combo, Xt, X):
        vals = {body.seed_body: X, body.target_body: Xt}
        out = 0.0
        for sym, c in combo:
            out = out + c * vals[sym]
        return out

    def first(body, Xt, X, dXm):
        return dXm + body.p * np.sin(arg(body, body.arg_p, Xt, X))

    def second(body, Xt, X, dXp):
        return -dXp + body.q * np.sin(arg(body, body.arg_q, Xt, X))

    def mismatch(body, Xt, X, dXm, dXp):
        ctp, ctq = dict(body.arg_p), dict(body.arg_q)
        mixed = 0.25 * np.sin(X)
        r1, r2 = first(body, Xt, X, dXm), second(body, Xt, X, dXp)
        dp_arg_p = ctp[body.target_body] * r2 + ctp[body.seed_body] * dXp
        dm_arg_q = ctq[body.target_body] * r1 + ctq[body.seed_body] * dXm
        return ((mixed + body.p * np.cos(arg(body, body.arg_p, Xt, X)) * dp_arg_p)
                - (-mixed + body.q * np.cos(arg(body, body.arg_q, Xt, X)) * dm_arg_q))

    rng = np.random.default_rng(7)
    arrays = [rng.uniform(-4.0, 4.0, 33) for _ in range(4)]
    floats = [float(v) for v in rng.uniform(-4.0, 4.0, 4)]
    for spec in (body_spec, bt.export_body_system(bt.BTSystem(orientation="plus"))):
        for a in (1.2, 0.7):
            body = nm.BodyBT.from_spec(spec, a)
            for Xt, X, dXm, dXp in (arrays, floats):
                pairs = [(body.rel_first(Xt, X, dXm), first(body, Xt, X, dXm)),
                         (body.rel_second(Xt, X, dXp), second(body, Xt, X, dXp)),
                         (nm.bt_cross_mismatch(body, Xt, X, dXm, dXp),
                          mismatch(body, Xt, X, dXm, dXp))]
                for got, want in pairs:
                    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_kink_seed_accepted_and_corrupted_sign_rejected(body_spec):
    body = nm.BodyBT.from_spec(body_spec, 1.2)
    seed = nm.kink_state(20.0, 2.0 ** -7)
    out = nm.integrate_bt_body(seed, body)  # no exception
    assert np.all(np.isfinite(out.X))
    bad = nm.BodyBT(body.a, body.p, -body.q, body.arg_p, body.arg_q,
                    body.seed_body, body.target_body)
    with pytest.raises(InconsistentSystem):
        nm.integrate_bt_body(seed, bad)


def test_integrate_bt_body_matches_scalar_interp_rk4(body_spec):
    # reference: every RK4 slope interpolates the seed at its own abscissa
    body = nm.BodyBT.from_spec(body_spec, 1.2)
    seed = nm.kink_state(2.0, 2.0 ** -4, v=0.3)
    x, h, X = seed.x, seed.h, seed.X
    Xx = nm._first_deriv_4(X, h)
    dXm = 0.5 * (Xx - seed.Xdot)
    dXp = 0.5 * (Xx + seed.Xdot)

    # the relations written out with np.sin on numpy scalars, so the
    # reference shares nothing with the march's Python-float path
    def sine(coef, combo, Xt, Xi):
        arg = 0.0
        for sym, c in combo:
            arg = arg + c * (Xi if sym == body.seed_body else Xt)
        return coef * np.sin(arg)

    def slope(xi, Xt):
        Xi = np.interp(xi, x, X)
        return ((np.interp(xi, x, dXm) + sine(body.p, body.arg_p, Xt, Xi))
                + (-np.interp(xi, x, dXp) + sine(body.q, body.arg_q, Xt, Xi)))

    n = len(x)
    mid = n // 2
    ref = np.empty_like(X)
    ref[mid] = math.pi
    for i in range(mid, n - 1):
        ref[i + 1] = nm._rk4_step(slope, ref[i], h, (x[i], x[i] + h / 2, x[i] + h))
    for i in range(mid, 0, -1):
        ref[i - 1] = nm._rk4_step(slope, ref[i], -h, (x[i], x[i] - h / 2, x[i] - h))
    assert nm.integrate_bt_body(seed, body).X.tobytes() == ref.tobytes()


def test_math_sin_equals_numpy_sin_bitwise():
    # the one platform assumption of the Python-float march: math.sin gives
    # np.sin's double on a numpy scalar, bit for bit, over the range of the
    # march's sine arguments
    xs = np.random.default_rng(3).uniform(-10.0, 10.0, 10_000)
    got = np.array([math.sin(v) for v in xs.tolist()])
    want = np.array([np.sin(v) for v in xs])
    assert got.tobytes() == want.tobytes()


def test_seed_residual_bound(body_spec):
    # output residual stays within a modest multiple of the seed residual
    # plus the discretization budget (vacuum seed: exact zero seed residual)
    body = nm.BodyBT.from_spec(body_spec, 1.1)
    seed = nm.FieldState.empty(20.0, 2.0 ** -7)
    tgt = nm.integrate_bt_body(seed, body)
    dt = seed.h / 2
    levels = nm.bt_target_time_march(body, tgt, dt, 2)
    res = nm.classical_residual_on_grid(levels[1], levels[0], levels[2], dt)
    assert res <= 10.0 * 0.0 + 1e-6


# ---------------------------------------------------------------------------
# fermions

def _cellwise_march(C, u0, w0, h):
    # one node at a time, row by row, in the march's operation order
    su, sw = -nm.S_ALPHA_LM, -nm.S_ALPHA_LP
    rows, cols = C.shape
    C = C.tolist()
    u = [[0.0] * cols for _ in range(rows)]
    w = [[0.0] * cols for _ in range(rows)]
    for i in range(rows):
        u[i][0] = float(u0[i])
    for j in range(cols):
        w[0][j] = float(w0[j])
    for j in range(1, cols):
        u[0][j] = u[0][j - 1] + 0.5 * h * (su * C[0][j - 1] * w[0][j - 1]
                                           + su * C[0][j] * w[0][j])
    for i in range(1, rows):
        w[i][0] = w[i - 1][0] + 0.5 * h * (sw * C[i - 1][0] * u[i - 1][0]
                                           + sw * C[i][0] * u[i][0])
    for i in range(1, rows):
        for j in range(1, cols):
            A = u[i][j - 1] + 0.5 * h * su * C[i][j - 1] * w[i][j - 1]
            B = w[i - 1][j] + 0.5 * h * sw * C[i - 1][j] * u[i - 1][j]
            cu = 0.5 * h * su * C[i][j]
            cw = 0.5 * h * sw * C[i][j]
            u[i][j] = (A + cu * B) / (1.0 - cu * cw)
            w[i][j] = B + cw * u[i][j]
    return np.array(u), np.array(w)


def _indexing_background(X):
    # on integer-valued coordinates, the background whose value at node
    # (i, j) is X[i, j]; a 1-D X gives a column background
    if X.ndim == 1:
        return lambda XM, XP: X[XM.astype(int)]
    return lambda XM, XP: X[XM.astype(int), XP.astype(int)]


@pytest.mark.parametrize("shape", [(9, 9), (6, 11), (11, 6), (1, 7), (7, 1),
                                   (8, 8), (2, 5), (5, 2), (70, 37), (37, 70),
                                   (1, 70), (70, 1)])
def test_fermion_march_matches_cellwise_reference(shape):
    # every node for step 1, the nodes [::2, ::2] for step 2, on a random
    # background and on a random column background, which the march reads
    # as a read-only broadcast; the last four shapes cross several bands
    rng = np.random.default_rng(sum(shape))
    full = rng.uniform(-2 * math.pi, 2 * math.pi, shape)
    u0 = rng.standard_normal(shape[0])
    w0 = rng.standard_normal(shape[1])
    xm = np.arange(shape[0], dtype=float)
    xp = np.arange(shape[1], dtype=float)
    column = full[:, 0]
    couplings = (0.5 * np.cos(full / 2.0),
                 np.broadcast_to(0.5 * np.cos(column[:, None] / 2.0), shape))
    for X, C in zip((full, column), couplings):
        ref_u, ref_w = _cellwise_march(C, u0, w0, 2.0 ** -2)
        for step in (1, 2):
            u, w = nm._fermion_march(_indexing_background(X), xm, xp, u0, w0,
                                     2.0 ** -2, step=step)
            assert u.tobytes() == ref_u[::step, ::step].tobytes()
            assert w.tobytes() == ref_w[::step, ::step].tobytes()


def _row_gather_background(X):
    # the background of _indexing_background, gathered row by row into its
    # one block-sized result: besides it, a call allocates one row of
    # indices and values at a time
    def background(XM, XP):
        out = np.empty(np.broadcast_shapes(XM.shape, XP.shape))
        rows, cols = np.broadcast_to(XM, out.shape), np.broadcast_to(XP, out.shape)
        for r, row in enumerate(out):
            row[:] = X[int(rows[r, 0]), cols[r].astype(int)]
        return out
    return background


def test_half_step_march_stores_no_full_grid():
    # a deterministic memory gate: the Richardson march keeps O(n) working
    # buffers and one band of the coupling, and writes only the kept quarter
    # of the nodes, so its traced peak stays below one full-grid float64
    # array; the background allocates one band-sized array per call, so the
    # peak is the march's own
    n = 257
    rng = np.random.default_rng(5)
    full = rng.uniform(-2 * math.pi, 2 * math.pi, (n, n))
    background = _row_gather_background(full)
    x = np.arange(n, dtype=float)
    XM, XP = np.meshgrid(x[:40], x[::-1], indexing="ij")
    assert background(XM[:, :1], XP).tobytes() == _indexing_background(full)(XM, XP).tobytes()
    u0 = rng.standard_normal(n)
    w0 = rng.standard_normal(n)
    tracemalloc.start()
    try:
        nm._fermion_march(background, x, x, u0, w0, 2.0 ** -8, step=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n


_KINK_BG = lambda xm, xp: nm.kink((xp + xm) / 2.0)


@pytest.mark.parametrize("nm_, np_", [(65, 33), (33, 65), (64, 64), (97, 31),
                                      (1, 40), (40, 1), (1, 1)])
def test_coupling_bands_equal_the_full_grid_coupling(nm_, np_):
    # each band column is the anti-diagonal of 0.5 cos(X/2) evaluated on the
    # full meshgrid, byte for byte, for a column, a full and a kink
    # background, on grids that are not multiples of the band width
    xm = np.linspace(0.0, 4.0, nm_)
    xp = np.linspace(0.0, 2.0, np_)
    XM, XP = np.meshgrid(xm, xp, indexing="ij")
    column = lambda a, b: np.sin(a)
    full = lambda a, b: np.sin(a + 0.0 * b)
    for bg in (column, full, _KINK_BG):
        C_anti = (0.5 * np.cos(bg(XM, XP) / 2.0))[:, ::-1]
        bands = list(nm._coupling_bands(bg, xm, xp))
        assert len(bands) == -(-(nm_ + np_ - 1) // nm._BAND)
        for d in range(nm_ + np_ - 1):
            r0, band = bands[d // nm._BAND]
            lo, hi = max(0, d - np_ + 1), min(nm_ - 1, d)
            assert (band[lo - r0:hi + 1 - r0, d % nm._BAND].tobytes()
                    == C_anti.diagonal(np_ - 1 - d).tobytes())


def _full_grid_residuals(u, w, C, h):
    # both residual maxima as whole-grid expressions, in the integrator's
    # operation order
    su, sw = -nm.S_ALPHA_LM, -nm.S_ALPHA_LP
    du_dp = (u[:, :-4] - 8 * u[:, 1:-3] + 8 * u[:, 3:-1] - u[:, 4:]) / (12 * h)
    dw_dm = (w[:-4, :] - 8 * w[1:-3, :] + 8 * w[3:-1, :] - w[4:, :]) / (12 * h)
    rp = du_dp - su * C[:, 2:-2] * w[:, 2:-2]
    rm = dw_dm - sw * C[2:-2, :] * u[2:-2, :]
    return float(np.max(np.abs(rp))), float(np.max(np.abs(rm)))


def assert_equals_the_cellwise_richardson_march(Lm, Lp, h):
    plus = lambda xm: np.exp(-xm)
    minus = lambda xp: np.cos(xp)
    out = nm.integrate_fermions(_KINK_BG, plus, minus, Lm=Lm, Lp=Lp, h=h)
    levels = []
    for k in (1, 2):
        # the march at step h / k reads its nodes at that spacing
        xm = h / k * np.arange(k * int(round(Lm / h)) + 1)
        xp = h / k * np.arange(k * int(round(Lp / h)) + 1)
        XM, XP = np.meshgrid(xm, xp, indexing="ij")
        C = 0.5 * np.cos(_KINK_BG(XM, XP) / 2.0)
        levels.append((C,) + _cellwise_march(C, plus(xm), minus(xp), h / k))
    (C, u1, w1), (_, u2, w2) = levels
    u = (4.0 * u2[::2, ::2] - u1) / 3.0
    w = (4.0 * w2[::2, ::2] - w1) / 3.0
    assert out.u.tobytes() == u.tobytes()
    assert out.w.tobytes() == w.tobytes()
    assert (out.residual_plus, out.residual_minus) == _full_grid_residuals(u, w, C, h)


def test_kink_fermions_equal_the_cellwise_richardson_march():
    # the whole integration against the cell-by-cell reference on the full
    # coupling, Richardson step and residuals included, on a grid whose
    # half-step march crosses several bands and whose residuals take
    # several row blocks
    assert_equals_the_cellwise_richardson_march(2.5, 0.75, 2.0 ** -5)


@pytest.mark.parametrize("row", [0, 31, 32, 69])
def test_blocked_residuals_equal_the_full_grid_formula(row):
    # a background that jumps on one row of the 70-row grid puts the
    # residual maxima next to that row: the first and last interior rows,
    # and both sides of the boundary between the first two row blocks
    h = 2.0 ** -4
    bg = lambda xm, xp: np.where(np.abs(xm - row * h) < h / 4, 3.0, 0.0) + 0.0 * xp
    out = nm.integrate_fermions(bg, lambda xm: np.exp(-xm), lambda xp: np.cos(xp),
                                Lm=69 * h, Lp=2.0, h=h)
    u, w = out.u, out.w
    XM, XP = np.meshgrid(out.xm, out.xp, indexing="ij")
    C = 0.5 * np.cos(bg(XM, XP) / 2.0)
    assert (out.residual_plus, out.residual_minus) == _full_grid_residuals(u, w, C, h)


def test_kink_fermions_store_no_full_grid_coupling():
    # a deterministic memory gate: the coarse solution and the kept nodes
    # of the half-step one are a quarter of the fine grid each, four in
    # all; the coupling adds a band or a row block at a time, so the whole
    # integration peaks below 1.5 fine-grid float64 arrays (the full-grid
    # coupling and its temporaries alone were over 3)
    h = 2.0 ** -6
    n = 2 * int(round(4.0 / h)) + 1
    tracemalloc.start()
    try:
        nm.integrate_fermions(_KINK_BG, lambda xm: np.exp(-xm),
                              lambda xp: np.zeros_like(xp), h=h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * n * n


_ZERO_BG = lambda xm, xp: np.zeros_like(xm)
_ONES = lambda x: np.ones_like(x)


@pytest.mark.parametrize("background, plus, minus", [
    pytest.param(_ZERO_BG, lambda xm: np.ones(3), _ONES, id="short psi+ edge"),
    pytest.param(_ZERO_BG, _ONES, lambda xp: np.ones(len(xp) + 1),
                 id="long psi- edge"),
    pytest.param(_ZERO_BG, lambda xm: np.ones((len(xm), 1)), _ONES,
                 id="column psi+ edge"),
    pytest.param(_ZERO_BG, _ONES, lambda xp: np.ones((1, len(xp))),
                 id="row psi- edge"),
    pytest.param(_ZERO_BG, lambda xm: "edge", _ONES, id="text edge"),
    pytest.param(lambda xm, xp: np.zeros(3), _ONES, _ONES,
                 id="background of length 3"),
    pytest.param(lambda xm, xp: np.zeros((len(xm) + 1, 1)), _ONES, _ONES,
                 id="background column too long"),
    pytest.param(lambda xm, xp: np.zeros(nm._BAND), _ONES, _ONES,
                 id="background of the band width"),
])
def test_bad_fermion_inputs_raise_typed_errors(background, plus, minus):
    with pytest.raises(ConfigError):
        nm.integrate_fermions(background, plus, minus, Lm=1.0, Lp=1.0,
                              h=2.0 ** -3)


@pytest.mark.parametrize("Lm, Lp, h", [
    (1.0, 1.0, 0.0), (1.0, 1.0, -2.0 ** -3), (1.0, 1.0, math.nan),
    (math.inf, 1.0, 2.0 ** -3), (1.0, math.nan, 2.0 ** -3), (0.0, 1.0, 2.0 ** -3),
    (0.375, 1.0, 2.0 ** -3), (1.0, 0.375, 2.0 ** -3),  # a side of 4 nodes
])
def test_bad_fermion_grid_raises_config_error(Lm, Lp, h):
    with pytest.raises(ConfigError):
        nm.integrate_fermions(_ZERO_BG, _ONES, _ONES, Lm=Lm, Lp=Lp, h=h)


def test_five_nodes_a_side_are_enough():
    # the fourth-order residual reads five nodes, so the smallest grid has
    # one interior residual node a side
    res = nm.integrate_fermions(_ZERO_BG, _ONES, _ONES, Lm=0.5, Lp=0.5, h=2.0 ** -3)
    assert res.u.shape == (5, 5)


def test_scalar_edge_data_broadcasts():
    # a scalar edge broadcasts: it gives the bytes of the full edge array
    h = 2.0 ** -3
    scalar = nm.integrate_fermions(_KINK_BG, lambda xm: 1.0, lambda xp: 0.5,
                                   Lm=1.0, Lp=1.0, h=h)
    arrays = nm.integrate_fermions(_KINK_BG, _ONES,
                                   lambda xp: np.full_like(xp, 0.5),
                                   Lm=1.0, Lp=1.0, h=h)
    assert scalar.u.tobytes() == arrays.u.tobytes()
    assert scalar.w.tobytes() == arrays.w.tobytes()


def test_bessel_series_equals_the_plain_sum():
    s = np.multiply.outer(np.linspace(-4.0, 4.0, 65), np.linspace(0.0, 4.0, 33))
    ref = np.zeros_like(s)
    term = np.ones_like(s)
    ref += term
    for k in range(1, 40):
        term = term * (s / 4.0) / (k * k)
        ref += term
    assert nm.bessel_series(s).tobytes() == ref.tobytes()


def test_fermions_zero_data_stay_zero():
    out = nm.integrate_fermions(lambda xm, xp: np.zeros_like(xm),
                                lambda xm: np.zeros_like(xm),
                                lambda xp: np.zeros_like(xp), h=2.0 ** -5)
    assert not np.any(out.u) and not np.any(out.w)


def test_fermions_zero_background_closed_form():
    out = nm.integrate_fermions(lambda xm, xp: np.zeros_like(xm),
                                lambda xm: np.ones_like(xm),
                                lambda xp: np.zeros_like(xp), h=2.0 ** -7)
    XM, XP = np.meshgrid(out.xm, out.xp, indexing="ij")
    exact_u = nm.bessel_series(XM * XP)
    assert float(np.max(np.abs(out.u - exact_u))) < 1e-6
    # the partner line integrates the first one: w = 2 d+ u
    s = XM * XP
    term = np.ones_like(s)
    w = np.zeros_like(s)
    for k in range(1, 40):
        term = term * (s / 4.0) / (k * k)
        with np.errstate(divide="ignore", invalid="ignore"):
            w += np.where(XP > 0, term * (2.0 * k) / XP, 0.0)
    w[:, 0] = out.xm / 2.0  # limit of the series on the edge
    assert float(np.max(np.abs(out.w - w))) < 1e-6


def test_fermion_grid_is_spaced_by_its_step():
    # 1/0.22 is not an integer: the nodes keep the spacing h that the march
    # and the residuals use, and the grid ends at round(L/h) h
    h = 0.22
    out = nm.integrate_fermions(_ZERO_BG, _ONES, lambda xp: np.zeros_like(xp),
                                Lm=1.0, Lp=1.0, h=h)
    assert out.xm.tobytes() == out.xp.tobytes() == (h * np.arange(6)).tobytes()
    XM, XP = np.meshgrid(out.xm, out.xp, indexing="ij")
    assert float(np.max(np.abs(out.u - nm.bessel_series(XM * XP)))) < 1e-6
    # on a kink background both marches read the background at their nodes
    assert_equals_the_cellwise_richardson_march(1.0, 1.0, h)


def test_fermions_kink_background_residual():
    out = nm.integrate_fermions(_KINK_BG, lambda xm: np.exp(-xm),
                                lambda xp: np.zeros_like(xp), h=2.0 ** -7)
    assert max(out.residual_plus, out.residual_minus) < 1e-5


def test_fermions_refinement_study():
    # the plain march, before Richardson extrapolation, is second order
    errs = {}
    for h in (2.0 ** -5, 2.0 ** -6):
        x = np.linspace(0.0, 4.0, int(round(4.0 / h)) + 1)
        u, _ = nm._fermion_march(lambda xm, xp: np.zeros_like(xm), x, x,
                                 np.ones_like(x), np.zeros_like(x), h)
        XM, XP = np.meshgrid(x, x, indexing="ij")
        errs[h] = float(np.max(np.abs(u - nm.bessel_series(XM * XP))))
    assert 3.5 < errs[2.0 ** -5] / errs[2.0 ** -6] < 4.5


# ---------------------------------------------------------------------------
# CSV output

def test_csv_dump(tmp_path):
    s = nm.kink_state(2.0, 0.5)
    path = tmp_path / "out.csv"
    nm.dump_csv(str(path), [s], {"check": "test", "h": 0.5})
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ")
    header = json.loads(lines[0][2:])
    assert header["check"] == "test"
    assert lines[1] == ("t,x,X,psi_plus_lambda_plus_coeff,"
                        "psi_minus_lambda_minus_coeff,residual")
    assert len(lines) == 2 + len(s.x)
    # the leapfrog is classical: both fermion columns and the residual are 0
    assert all(line.endswith(",0,0,0") for line in lines[2:])
