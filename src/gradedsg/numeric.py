"""Floating-point companion: classical solver, numeric Backlund map, fermions.

The even sector is the classical sine-Gordon equation in laboratory
coordinates, (d_xx - d_tt) X = sin X, obtained from the light-cone form with
the convention x+- = x +- t.  Odd quantities live in a four-dimensional
number algebra over the basis (1, alpha, lambda+, lambda-) whose
multiplication table is generated from the symbolic kernel with the vector
parameters frozen to one (a boost-frame choice), so the sign structure has a
single source of truth.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from . import algebra as al
from .backlund import BodyBTSpec
from .errors import (
    CFLViolation,
    ConfigError,
    InconsistentSystem,
    NonFiniteValue,
    UnsupportedAtom,
    VelocityOutOfRange,
)

BASIS = ("1", "alpha", "lambda+", "lambda-")


def _structure_tensor() -> np.ndarray:
    """4x4x4 tensor T[i,j,:] = coordinates of basis_i * basis_j, v+ = v- = 1."""
    ctx = al.BT_CTX
    exprs = [al.GradedExpr.rational(1, ctx)] + [al.gen(n, ctx) for n in BASIS[1:]]
    keys = {}
    for idx, name in enumerate(BASIS):
        cf = al.CF_ONE if name == "1" else al._GEN_KEYS[name][3]
        keys[cf] = idx
    T = np.zeros((4, 4, 4))
    for i, ei in enumerate(exprs):
        for j, ej in enumerate(exprs):
            prod = ei * ej
            for key, coef in prod.terms.items():
                z, tm, tp, cf, v, a, gj, bj, trig = key
                if z or tm or tp or gj or bj or trig or a:
                    raise UnsupportedAtom(
                        f"{BASIS[i]}*{BASIS[j]} left the parameter algebra: "
                        + al.term_str(key, coef))
                T[i, j, keys[cf]] += float(coef)  # v -> 1
    return T


STRUCTURE = _structure_tensor()


@dataclass
class GradedNumber:
    """Element of the numeric parameter algebra, coordinates over BASIS."""

    coords: np.ndarray

    @staticmethod
    def basis(name: str) -> "GradedNumber":
        v = np.zeros(4)
        v[BASIS.index(name)] = 1.0
        return GradedNumber(v)

    @staticmethod
    def scalar(x: float) -> "GradedNumber":
        v = np.zeros(4)
        v[0] = x
        return GradedNumber(v)

    def __add__(self, other: "GradedNumber") -> "GradedNumber":
        return GradedNumber(self.coords + other.coords)

    def __sub__(self, other: "GradedNumber") -> "GradedNumber":
        return GradedNumber(self.coords - other.coords)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return GradedNumber(self.coords * other)
        return GradedNumber(np.einsum("i,j,ijk->k", self.coords, other.coords,
                                      STRUCTURE))
    __rmul__ = __mul__

    @property
    def scalar_part(self) -> float:
        return float(self.coords[0])

    def __repr__(self):
        return " + ".join(f"{c:g}*{b}" for c, b in zip(self.coords, BASIS) if c)


# signs of the products needed by the fermion system, fetched from the table
_ALPHA_LAMBDA_MINUS = (GradedNumber.basis("alpha") * GradedNumber.basis("lambda-"))
_ALPHA_LAMBDA_PLUS = (GradedNumber.basis("alpha") * GradedNumber.basis("lambda+"))
# alpha * lambda- = s_m * lambda+, alpha * lambda+ = s_p * lambda-
S_ALPHA_LM = float(_ALPHA_LAMBDA_MINUS.coords[2])
S_ALPHA_LP = float(_ALPHA_LAMBDA_PLUS.coords[3])


# ---------------------------------------------------------------------------
# field states and the classical solver

@dataclass
class FieldState:
    """Uniform-grid state of the even field and the two fermion lines.

    ``psip`` and ``psim`` hold the lambda+ and lambda- coordinates of the
    odd fields (their only nonzero lines).
    """

    x: np.ndarray
    h: float
    X: np.ndarray
    Xdot: np.ndarray
    psip: np.ndarray
    psim: np.ndarray
    t: float = 0.0

    @staticmethod
    def empty(L: float = 20.0, h: float = 2.0 ** -7) -> "FieldState":
        n = int(round(2 * L / h)) + 1
        x = np.linspace(-L, L, n)
        z = np.zeros(n)
        return FieldState(x, float(x[1] - x[0]), z.copy(), z.copy(),
                          z.copy(), z.copy(), 0.0)


def kink(x, t: float = 0.0, v: float = 0.0, x0: float = 0.0):
    """Topological kink 4*arctan(exp(gamma (x - v t - x0))), |v| < 1."""
    if abs(v) >= 1:
        raise VelocityOutOfRange(f"|v| = {abs(v)} >= 1")
    gamma = 1.0 / math.sqrt(1.0 - v * v)
    return 4.0 * np.arctan(np.exp(gamma * (np.asarray(x, dtype=float) - v * t - x0)))


def kink_state(L: float = 20.0, h: float = 2.0 ** -7, v: float = 0.0,
               x0: float = 0.0) -> FieldState:
    s = FieldState.empty(L, h)
    gamma = 1.0 / math.sqrt(1.0 - v * v)
    s.X = kink(s.x, 0.0, v, x0)
    # d/dt of the travelling profile
    arg = gamma * (s.x - x0)
    s.Xdot = -2.0 * gamma * v / np.cosh(arg)
    return s


def _second_deriv_4(u: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order centered second derivative; second-order at the edges."""
    d = np.empty_like(u)
    d[2:-2] = (-u[:-4] + 16 * u[1:-3] - 30 * u[2:-2] + 16 * u[3:-1] - u[4:]) / (12 * h * h)
    d[1] = (u[0] - 2 * u[1] + u[2]) / (h * h)
    d[-2] = (u[-3] - 2 * u[-2] + u[-1]) / (h * h)
    d[0] = d[1]
    d[-1] = d[-2]
    return d


def _first_deriv_4(u: np.ndarray, h: float) -> np.ndarray:
    d = np.empty_like(u)
    d[2:-2] = (u[:-4] - 8 * u[1:-3] + 8 * u[3:-1] - u[4:]) / (12 * h)
    d[1] = (u[2] - u[0]) / (2 * h)
    d[-2] = (u[-1] - u[-3]) / (2 * h)
    d[0] = (u[1] - u[0]) / h
    d[-1] = (u[-1] - u[-2]) / h
    return d


def static_kink_residual(h: float, L: float = 20.0) -> float:
    """Max norm of the discrete classical equation on the analytic kink."""
    s = kink_state(L, h)
    res = _second_deriv_4(s.X, h) - np.sin(s.X)
    interior = slice(4, -4)
    return float(np.max(np.abs(res[interior])))


def fermion_source(s: FieldState) -> np.ndarray:
    """Scalar forcing from the fermion bilinear, via the parameter algebra.

    The product psi- psi+ lies on the alpha line; multiplying by alpha makes
    it a real scalar.  Both facts are checked every call.
    """
    out = np.zeros_like(s.X)
    if not (np.any(s.psip) or np.any(s.psim)):
        return out
    lm = GradedNumber.basis("lambda-")
    lp = GradedNumber.basis("lambda+")
    alpha = GradedNumber.basis("alpha")
    bilinear = lm * lp  # carries the sign of the parameter table
    if np.max(np.abs(bilinear.coords[[0, 2, 3]])) >= 1e-15:
        raise InconsistentSystem("fermion bilinear left the alpha line")
    proj = alpha * bilinear
    if abs(proj.coords[1]) >= 1e-15:
        raise InconsistentSystem("alpha projection is not scalar")
    return 2.0 * s.psim * s.psip * proj.scalar_part * np.sin(s.X / 2.0)


def solve_leapfrog(s0: FieldState, T: float, dt: Optional[float] = None) -> FieldState:
    """Second-order leapfrog for (d_xx - d_tt) X = sin X + fermion source."""
    h = s0.h
    if dt is None:
        dt = h / 2
    if dt >= h:
        raise CFLViolation(f"dt = {dt} must be smaller than h = {h}")
    steps = int(round(T / dt))

    def accel(X, src):
        acc = _second_deriv_4(X, h) - np.sin(X) - src
        return acc

    X_prev = s0.X.copy()
    src = fermion_source(s0)
    X_cur = X_prev + dt * s0.Xdot + 0.5 * dt * dt * accel(X_prev, src)
    _clamp(X_cur, s0)
    state = FieldState(s0.x, h, X_cur, s0.Xdot.copy(), s0.psip.copy(),
                       s0.psim.copy(), s0.t + dt)
    for _ in range(steps - 1):
        _advance_fermions(state, dt)
        src = fermion_source(state)
        X_next = 2 * state.X - X_prev + dt * dt * accel(state.X, src)
        _clamp(X_next, s0)
        X_prev = state.X
        state.X = X_next
        state.t += dt
        if not np.all(np.isfinite(state.X)):
            raise NonFiniteValue(f"field blew up at t = {state.t}")
    state.Xdot = (state.X - X_prev) / dt
    return state


def _clamp(X: np.ndarray, s0: FieldState) -> None:
    """Hold both end points at their initial values (kink boundaries)."""
    X[0] = s0.X[0]
    X[-1] = s0.X[-1]


def _advance_fermions(state: FieldState, dt: float) -> None:
    """Characteristic (semi-Lagrangian) step for the linear fermion system.

    Along its own characteristic each line obeys du/dt = -s_m w cos(X/2)
    resp. dw/dt = +s_p u cos(X/2), with the signs s_m, s_p read off the
    parameter-algebra table (alpha times lambda-+).
    """
    if not (np.any(state.psip) or np.any(state.psim)):
        return
    x = state.x
    cosX = np.cos(state.X / 2.0)
    src_u = -S_ALPHA_LM * state.psim * cosX
    src_w = S_ALPHA_LP * state.psip * cosX
    state.psip = (np.interp(x - dt, x, state.psip)
                  + dt * np.interp(x - dt / 2, x, src_u))
    state.psim = (np.interp(x + dt, x, state.psim)
                  + dt * np.interp(x + dt / 2, x, src_w))


_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def energy(s: FieldState) -> float:
    """Trapezoidal body energy: 1/2 Xdot^2 + 1/2 Xx^2 + (1 - cos X)."""
    Xx = _first_deriv_4(s.X, s.h)
    dens = 0.5 * s.Xdot ** 2 + 0.5 * Xx ** 2 + (1.0 - np.cos(s.X))
    return float(_trapezoid(dens, dx=s.h))


# ---------------------------------------------------------------------------
# numeric Backlund map

@dataclass(frozen=True)
class BodyBT:
    """Numeric body Backlund relations for a given parameter value.

    Relations (light-cone derivatives of the target):
        d- Xt = d- X + p * sin(arg_p),   d+ Xt = -d+ X + q * sin(arg_q)
    with arg built from the stored symbol/coefficient combos.
    """

    a: float
    p: float
    q: float
    arg_p: tuple[tuple[str, float], ...]
    arg_q: tuple[tuple[str, float], ...]
    seed_body: str
    target_body: str
    spec: BodyBTSpec

    @staticmethod
    def from_spec(spec: BodyBTSpec, a: float) -> "BodyBT":
        if a == 0.0:
            raise ConfigError("Backlund parameter a must be nonzero")

        def reduce(tup):
            # normalize the sine argument so the target symbol enters with a
            # positive coefficient (sin is odd, so the sign moves out front)
            coef, apow, vpow, combo = tup
            num = float(coef) * a ** apow  # v+ = v- = 1 numerically
            tgt = dict(combo).get(spec.target_body, Fraction(0))
            if tgt < 0:
                num = -num
                combo = tuple((sym, -c) for sym, c in combo)
            return num, tuple((sym, float(c)) for sym, c in combo)

        p, arg_p = reduce(spec.p)
        q, arg_q = reduce(spec.q)
        return BodyBT(a, p, q, arg_p, arg_q, spec.seed_body, spec.target_body, spec)

    def _arg(self, combo, Xt, X):
        vals = {self.seed_body: X, self.target_body: Xt}
        out = 0.0
        for sym, c in combo:
            out = out + c * vals[sym]
        return out

    def rel_first(self, Xt, X, dX_minus):
        return dX_minus + self.p * np.sin(self._arg(self.arg_p, Xt, X))

    def rel_second(self, Xt, X, dX_plus):
        return -dX_plus + self.q * np.sin(self._arg(self.arg_q, Xt, X))

    @property
    def kink_speed(self) -> float:
        """Velocity of the vacuum-seed kink: (p - q)/(p + q)."""
        return (self.p - self.q) / (self.p + self.q)

    @property
    def kink_gamma(self) -> float:
        return (self.p + self.q) / 2.0


def bt_cross_mismatch(bt: BodyBT, Xt, X, dXm, dXp) -> np.ndarray:
    """Pointwise cross-derivative mismatch d+(rel_first) - d-(rel_second).

    Evaluated analytically through the relations themselves, with the mixed
    second derivative of the seed taken on shell (the seed is assumed to
    satisfy the classical equation); a compatible pair gives zero.
    """
    ctp = dict(bt.arg_p)
    ctq = dict(bt.arg_q)
    mixed = 0.25 * np.sin(X)
    r1 = bt.rel_first(Xt, X, dXm)
    r2 = bt.rel_second(Xt, X, dXp)
    dp_arg_p = ctp[bt.target_body] * r2 + ctp[bt.seed_body] * dXp
    dm_arg_q = ctq[bt.target_body] * r1 + ctq[bt.seed_body] * dXm
    dplus_rel1 = mixed + bt.p * np.cos(bt._arg(bt.arg_p, Xt, X)) * dp_arg_p
    dminus_rel2 = -mixed + bt.q * np.cos(bt._arg(bt.arg_q, Xt, X)) * dm_arg_q
    return dplus_rel1 - dminus_rel2


def integrate_bt_body(seed: FieldState, bt: BodyBT) -> FieldState:
    """Integrate the body relations for the target field over the seed grid.

    The spatial profile comes from an RK4 integration of
    d/dx Xt = rel_first + rel_second from the mid-point value pi; the time
    derivative is read off the relations.  The analytic cross-derivative
    mismatch of the two relations is evaluated on the result and must stay
    within tolerance: an incompatible pair (e.g. one with a corrupted trig
    sign) is rejected whenever the seed makes the mismatch visible.
    """
    x, h = seed.x, seed.h
    X = seed.X
    Xx = _first_deriv_4(X, h)
    dXm = 0.5 * (Xx - seed.Xdot)
    dXp = 0.5 * (Xx + seed.Xdot)

    def slope(xi: float, Xt: float) -> float:
        Xi = np.interp(xi, x, X)
        mi = np.interp(xi, x, dXm)
        pi_ = np.interp(xi, x, dXp)
        return bt.rel_first(Xt, Xi, mi) + bt.rel_second(Xt, Xi, pi_)

    n = len(x)
    mid = n // 2
    Xt = np.empty_like(X)
    Xt[mid] = math.pi
    for i in range(mid, n - 1):
        Xt[i + 1] = _rk4_step(slope, x[i], Xt[i], h)
    for i in range(mid, 0, -1):
        Xt[i - 1] = _rk4_step(slope, x[i], Xt[i], -h)

    mismatch = float(np.max(np.abs(bt_cross_mismatch(bt, Xt, X, dXm, dXp))))
    tol = 1e-6
    if mismatch > tol:
        raise InconsistentSystem(
            f"body relations incompatible: cross-derivative mismatch "
            f"{mismatch:.3e} > {tol:.3e}")

    Xt_dot = (bt.rel_second(Xt, X, dXp) - bt.rel_first(Xt, X, dXm))
    return FieldState(x, h, Xt, Xt_dot, np.zeros_like(X), np.zeros_like(X),
                      seed.t)


def _rk4_step(f: Callable[[float, float], float], x: float, y: float,
              h: float) -> float:
    k1 = f(x, y)
    k2 = f(x + h / 2, y + h / 2 * k1)
    k3 = f(x + h / 2, y + h / 2 * k2)
    k4 = f(x + h, y + h * k3)
    return y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def classical_residual_on_grid(state: FieldState, state_prev: FieldState,
                               state_next: FieldState, dt: float) -> float:
    """Max discrete residual of (d_xx - d_tt) X = sin X over three levels."""
    Xtt = (state_next.X - 2 * state.X + state_prev.X) / (dt * dt)
    res = _second_deriv_4(state.X, state.h) - Xtt - np.sin(state.X)
    return float(np.max(np.abs(res[4:-4])))


def bt_target_time_march(seed_bt: BodyBT, state: FieldState, dt: float,
                         steps: int) -> list[FieldState]:
    """March the target field in time with its own relation (vacuum seed)."""
    out = [state]
    cur = state.X.copy()
    x = state.x
    zero = np.zeros_like(cur)

    def fdot(_t, Xt):
        return (seed_bt.rel_second(Xt, zero, zero)
                - seed_bt.rel_first(Xt, zero, zero))

    for k in range(steps):
        cur = _rk4_step(fdot, 0.0, cur, dt)
        out.append(FieldState(x, state.h, cur.copy(), fdot(0.0, cur),
                              zero.copy(), zero.copy(), state.t + (k + 1) * dt))
    return out


# ---------------------------------------------------------------------------
# fermion integration on the light-cone grid

def bessel_series(s: np.ndarray, terms: int = 40) -> np.ndarray:
    """Sum_k (s/4)^k / (k!)^2, the closed-form kernel of the zero background."""
    out = np.zeros_like(s, dtype=float)
    term = np.ones_like(out)
    out += term
    for k in range(1, terms):
        term = term * (s / 4.0) / (k * k)
        out += term
    return out


@dataclass
class FermionResult:
    xm: np.ndarray
    xp: np.ndarray
    u: np.ndarray  # lambda+ coordinate of psi+, indexed [i (xm), j (xp)]
    w: np.ndarray  # lambda- coordinate of psi-
    residual_plus: float
    residual_minus: float


def _fermion_march(C: np.ndarray, u0: np.ndarray, w0: np.ndarray,
                   h: float) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoidal box march of the coupled characteristic system.

    Every node on an anti-diagonal depends only on the previous diagonal,
    so diagonals are swept with vector operations; the per-node implicit
    2x2 coupling is solved exactly.
    """
    su = -S_ALPHA_LM  # from d+ psi+ = -(alpha/2) psi- cos(X/2)
    sw = -S_ALPHA_LP
    nm, np_ = C.shape
    u = np.zeros((nm, np_))
    w = np.zeros((nm, np_))
    u[:, 0] = u0
    w[0, :] = w0
    # edges: single-family trapezoid marches with known partner data
    for j in range(1, np_):
        fu_prev = su * C[0, j - 1] * w[0, j - 1]
        fu_cur = su * C[0, j] * w[0, j]
        u[0, j] = u[0, j - 1] + 0.5 * h * (fu_prev + fu_cur)
    for i in range(1, nm):
        fw_prev = sw * C[i - 1, 0] * u[i - 1, 0]
        fw_cur = sw * C[i, 0] * u[i, 0]
        w[i, 0] = w[i - 1, 0] + 0.5 * h * (fw_prev + fw_cur)
    for d in range(2, nm + np_ - 1):
        i_lo = max(1, d - (np_ - 1))
        i_hi = min(nm - 1, d - 1)
        if i_lo > i_hi:
            continue
        ii = np.arange(i_lo, i_hi + 1)
        jj = d - ii
        A = u[ii, jj - 1] + 0.5 * h * su * C[ii, jj - 1] * w[ii, jj - 1]
        B = w[ii - 1, jj] + 0.5 * h * sw * C[ii - 1, jj] * u[ii - 1, jj]
        cu = 0.5 * h * su * C[ii, jj]
        cw = 0.5 * h * sw * C[ii, jj]
        unew = (A + cu * B) / (1.0 - cu * cw)
        u[ii, jj] = unew
        w[ii, jj] = B + cw * unew
    return u, w


def integrate_fermions(background_X: Callable[[np.ndarray, np.ndarray], np.ndarray],
                       psi_plus_edge: Callable[[np.ndarray], np.ndarray],
                       psi_minus_edge: Callable[[np.ndarray], np.ndarray],
                       Lm: float = 4.0, Lp: float = 4.0,
                       h: float = 2.0 ** -7,
                       richardson: bool = True) -> FermionResult:
    """Characteristic integration of the linear fermion system.

    psi+ = u lambda+ is carried along x+ (data on the x+ = 0 edge), psi-
    along x-; coupling signs come from the parameter-algebra table.  With
    ``richardson`` the march is repeated at half step and extrapolated,
    cancelling the second-order truncation term.
    """
    nm = int(round(Lm / h)) + 1
    np_ = int(round(Lp / h)) + 1
    xm = np.linspace(0.0, Lm, nm)
    xp = np.linspace(0.0, Lp, np_)
    XM, XP = np.meshgrid(xm, xp, indexing="ij")
    C = 0.5 * np.cos(background_X(XM, XP) / 2.0)
    u, w = _fermion_march(C, psi_plus_edge(xm), psi_minus_edge(xp), h)
    if richardson:
        xm2 = np.linspace(0.0, Lm, 2 * (nm - 1) + 1)
        xp2 = np.linspace(0.0, Lp, 2 * (np_ - 1) + 1)
        XM2, XP2 = np.meshgrid(xm2, xp2, indexing="ij")
        C2 = 0.5 * np.cos(background_X(XM2, XP2) / 2.0)
        u2, w2 = _fermion_march(C2, psi_plus_edge(xm2), psi_minus_edge(xp2),
                                h / 2)
        u = (4.0 * u2[::2, ::2] - u) / 3.0
        w = (4.0 * w2[::2, ::2] - w) / 3.0
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(w))):
        raise NonFiniteValue("fermion integration produced non-finite values")
    su = -S_ALPHA_LM
    sw = -S_ALPHA_LP
    # residuals of both equations, fourth-order differences on the interior
    du_dp = (u[:, :-4] - 8 * u[:, 1:-3] + 8 * u[:, 3:-1] - u[:, 4:]) / (12 * h)
    rp = du_dp - su * C[:, 2:-2] * w[:, 2:-2]
    dw_dm = (w[:-4, :] - 8 * w[1:-3, :] + 8 * w[3:-1, :] - w[4:, :]) / (12 * h)
    rm = dw_dm - sw * C[2:-2, :] * u[2:-2, :]
    return FermionResult(xm, xp, u, w,
                         float(np.max(np.abs(rp))), float(np.max(np.abs(rm))))


# ---------------------------------------------------------------------------
# CSV output

def dump_csv(path: str, states: list[FieldState], config: dict) -> None:
    """Write (t, x, X, fermion coordinates, residual) rows with a JSON header.

    The residual column is kept for the file format and is always 0.
    """
    with open(path, "w") as fh:
        fh.write("# " + json.dumps(config, sort_keys=True) + "\n")
        fh.write("t,x,X,psi_plus_lambda_plus_coeff,psi_minus_lambda_minus_coeff,residual\n")
        for s in states:
            for i in range(len(s.x)):
                fh.write(f"{s.t:.10g},{s.x[i]:.10g},{s.X[i]:.10g},"
                         f"{s.psip[i]:.10g},{s.psim[i]:.10g},0\n")
