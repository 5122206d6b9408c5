"""Floating-point companion: classical solver, numeric Backlund map, fermions.

The even sector is the classical sine-Gordon equation in laboratory
coordinates, (d_xx - d_tt) X = sin X, obtained from the light-cone form with
the convention x+- = x +- t.  The leapfrog solver and the numeric Backlund
map are classical: a ``FieldState`` carries the even field only.  The
fermions are integrated on their own light-cone grid by
``integrate_fermions``, over a given background.  The multiplication table
``STRUCTURE`` of the parameter basis (1, alpha, lambda+, lambda-) is
generated from the symbolic kernel with the vector parameters frozen to one
(a boost-frame choice); the two coupling signs of the fermion system are
read from it, so the sign structure has a single source of truth.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
    # the clifford slot of each basis element's one monomial
    keys = {next(iter(e.terms))[3]: idx for idx, e in enumerate(exprs)}
    T = np.zeros((4, 4, 4))
    for i, ei in enumerate(exprs):
        for j, ej in enumerate(exprs):
            prod = ei * ej
            for key, coef in prod.coefficients():
                z, tm, tp, cf, v, a, gj, bj, trig = key
                if z or tm or tp or gj or bj or trig or a:
                    raise UnsupportedAtom(
                        f"{BASIS[i]}*{BASIS[j]} left the parameter algebra: "
                        + al.term_str(key, coef))
                T[i, j, keys[cf]] += float(coef)  # v -> 1
    return T


STRUCTURE = _structure_tensor()


# signs of the products needed by the fermion system, read from the table:
# alpha * lambda- = s_m * lambda+, alpha * lambda+ = s_p * lambda-
S_ALPHA_LM = float(STRUCTURE[1, 3, 2])
S_ALPHA_LP = float(STRUCTURE[1, 2, 3])


# ---------------------------------------------------------------------------
# field states and the classical solver

@dataclass
class FieldState:
    """Uniform-grid state of the even field and its time derivative."""

    x: np.ndarray
    h: float
    X: np.ndarray
    Xdot: np.ndarray
    t: float = 0.0

    @staticmethod
    def empty(L: float = 20.0, h: float = 2.0 ** -7) -> "FieldState":
        if not all(math.isfinite(v) and v > 0 for v in (L, h)):
            raise ConfigError(f"grid L = {L} and h = {h} must be finite and positive")
        n = int(round(2 * L / h)) + 1
        if n < 5:  # the fourth-order stencil reads five points
            raise ConfigError(f"grid [-{L}, {L}] with step {h} has fewer than 5 points")
        x = np.linspace(-L, L, n)
        return FieldState(x, float(x[1] - x[0]), np.zeros(n), np.zeros(n), 0.0)


def kink(x, t: float = 0.0, v: float = 0.0, x0: float = 0.0):
    """Topological kink 4*arctan(exp(gamma (x - v t - x0))), |v| < 1."""
    if not abs(v) < 1:  # also rejects NaN
        raise VelocityOutOfRange(f"|v| = {abs(v)} must be below 1")
    gamma = 1.0 / math.sqrt(1.0 - v * v)
    return 4.0 * np.arctan(np.exp(gamma * (np.asarray(x, dtype=float) - v * t - x0)))


def kink_state(L: float = 20.0, h: float = 2.0 ** -7, v: float = 0.0) -> FieldState:
    s = FieldState.empty(L, h)
    s.X = kink(s.x, 0.0, v)  # checks v before gamma divides by 1 - v^2
    gamma = 1.0 / math.sqrt(1.0 - v * v)
    # d/dt of the travelling profile
    s.Xdot = -2.0 * gamma * v / np.cosh(gamma * s.x)
    return s


def _second_deriv_4(u: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order centered second derivative; second-order at the edges.

    Each interior node is (16 u[i-1] - u[i-2] - 30 u[i] + 16 u[i+1] - u[i+2])
    / (12 h^2), evaluated left to right in place in the result, with ``16 u``
    formed once for both of its taps.  The edge nodes are computed on Python
    floats, whose IEEE operations are those of numpy scalars.
    """
    d = np.empty_like(u)
    v = 16 * u
    mid = d[2:-2]
    np.subtract(v[1:-3], u[:-4], out=mid)
    mid -= 30 * u[2:-2]
    mid += v[3:-1]
    mid -= u[4:]
    mid /= 12 * h * h
    l0, l1, l2 = u[:3].tolist()
    r2, r1, r0 = u[-3:].tolist()
    d[0] = d[1] = (l0 - 2 * l1 + l2) / (h * h)
    d[-1] = d[-2] = (r2 - 2 * r1 + r0) / (h * h)
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


def solve_leapfrog(s0: FieldState, T: float, dt: Optional[float] = None) -> FieldState:
    """Second-order leapfrog for the classical equation (d_xx - d_tt) X = sin X.

    Finiteness is checked once, on the final field: a NaN or inf at an
    interior node spreads through the stencil and ``sin`` and never leaves,
    and the clamp resets only the two end points, so a run that blew up
    still raises ``NonFiniteValue``.
    """
    h = s0.h
    if dt is None:
        dt = h / 2
    if not (math.isfinite(dt) and dt > 0):
        raise ConfigError(f"dt = {dt} must be finite and positive")
    if dt >= h:
        raise CFLViolation(f"dt = {dt} must be smaller than h = {h}")
    ratio = T / dt
    if not (math.isfinite(ratio) and round(ratio) >= 1):
        raise ConfigError(f"T = {T} must be finite and hold at least one step of {dt}")
    steps = int(round(ratio))

    def accel(X):
        a = _second_deriv_4(X, h)
        a -= np.sin(X)
        return a

    X_prev = s0.X.copy()
    X_cur = X_prev + dt * s0.Xdot + 0.5 * dt * dt * accel(X_prev)
    _clamp(X_cur, s0)
    state = FieldState(s0.x, h, X_cur, s0.Xdot.copy(), s0.t + dt)
    for _ in range(steps - 1):
        # X_next = (2 X - X_prev) + dt^2 accel(X), in place
        acc = accel(state.X)
        acc *= dt * dt
        X_next = 2 * state.X
        X_next -= X_prev
        X_next += acc
        _clamp(X_next, s0)
        X_prev = state.X
        state.X = X_next
        state.t += dt
    if not np.all(np.isfinite(state.X)):
        raise NonFiniteValue(f"field is non-finite at t = {state.t}")
    state.Xdot = (state.X - X_prev) / dt
    return state


def _clamp(X: np.ndarray, s0: FieldState) -> None:
    """Hold both end points at their initial values (kink boundaries)."""
    X[0] = s0.X[0]
    X[-1] = s0.X[-1]


_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def energy(s: FieldState) -> float:
    """Trapezoidal body energy: 1/2 Xdot^2 + 1/2 Xx^2 + (1 - cos X)."""
    Xx = _first_deriv_4(s.X, s.h)
    dens = 0.5 * s.Xdot ** 2 + 0.5 * Xx ** 2 + (1.0 - np.cos(s.X))
    return float(_trapezoid(dens, dx=s.h))


# ---------------------------------------------------------------------------
# numeric Backlund map

def _sin(x):
    """``math.sin`` for a float (an ``np.float64`` is one), so a scalar march
    stays in Python floats, and ``np.sin`` for an array."""
    return math.sin(x) if isinstance(x, float) else np.sin(x)


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

    def __post_init__(self):
        # _arg reads any symbol that is not the seed body as the target body
        for sym, _ in self.arg_p + self.arg_q:
            if sym not in (self.seed_body, self.target_body):
                raise UnsupportedAtom(
                    f"{sym!r} in a sine argument is neither body of the pair")

    @staticmethod
    def from_spec(spec: BodyBTSpec, a: float) -> "BodyBT":
        if not math.isfinite(a) or a == 0.0:
            raise ConfigError(f"Backlund parameter a = {a} must be finite and nonzero")

        def reduce(tup):
            # normalize the sine argument so the target symbol enters with a
            # positive coefficient (sin is odd, so the sign moves out front)
            coef, apow, vpow, combo = tup
            try:
                num = float(coef) * a ** apow  # v+ = v- = 1 numerically
            except OverflowError:
                num = math.inf
            if not math.isfinite(num):
                raise ConfigError(f"Backlund parameter a = {a} overflows a^{apow}")
            tgt = dict(combo).get(spec.target_body, Fraction(0))
            if tgt < 0:
                num = -num
                combo = tuple((sym, -c) for sym, c in combo)
            return num, tuple((sym, float(c)) for sym, c in combo)

        p, arg_p = reduce(spec.p)
        q, arg_q = reduce(spec.q)
        return BodyBT(a, p, q, arg_p, arg_q, spec.seed_body, spec.target_body)

    def _arg(self, combo, Xt, X):
        out = 0.0
        for sym, c in combo:
            out = out + c * (X if sym == self.seed_body else Xt)
        return out

    def rel_first(self, Xt, X, dX_minus):
        return dX_minus + self.p * _sin(self._arg(self.arg_p, Xt, X))

    def rel_second(self, Xt, X, dX_plus):
        return -dX_plus + self.q * _sin(self._arg(self.arg_q, Xt, X))

    @property
    def kink_speed(self) -> float:
        """Velocity of the vacuum-seed kink: (p - q)/(p + q)."""
        return (self.p - self.q) / (self.p + self.q)


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
    derivative is read off the relations.  The seed (X, d-X, d+X) is
    interpolated linearly, once per direction, into a table at the three
    RK4 abscissae of every step from x[i]:

        k1 at x[i],   k2 and k3 at x[i] + step/2,   k4 at x[i] + step,

    with step = +h towards the right end and -h towards the left end.  The
    analytic cross-derivative mismatch of the two relations is evaluated on
    the result and must stay within tolerance: an incompatible pair (e.g.
    one with a corrupted trig sign) is rejected whenever the seed makes the
    mismatch visible.
    """
    x, h = seed.x, seed.h
    X = seed.X
    Xx = _first_deriv_4(X, h)
    dXm = 0.5 * (Xx - seed.Xdot)
    dXp = 0.5 * (Xx + seed.Xdot)

    def slope(at: tuple[float, float, float], Xt: float) -> float:
        Xi, mi, pi_ = at
        return bt.rel_first(Xt, Xi, mi) + bt.rel_second(Xt, Xi, pi_)

    def march(rows: np.ndarray, step: float) -> None:
        # RK4 steps from x[i] towards x[i] + step, for i = mid, mid +- 1, ...,
        # on Python floats, written into Xt at once
        xs = x[rows]
        k1_at, k23_at, k4_at = (
            list(zip(*(np.interp(at, x, f).tolist() for f in (X, dXm, dXp))))
            for at in (xs, xs + step / 2, xs + step))
        y, ys = float(Xt[mid]), []
        for at in zip(k1_at, k23_at, k4_at):
            y = _rk4_step(slope, y, step, at)
            ys.append(y)
        Xt[rows + (1 if step > 0 else -1)] = ys

    n = len(x)
    mid = n // 2
    Xt = np.empty_like(X)
    Xt[mid] = math.pi
    march(np.arange(mid, n - 1), h)
    march(np.arange(mid, 0, -1), -h)

    mismatch = float(np.max(np.abs(bt_cross_mismatch(bt, Xt, X, dXm, dXp))))
    tol = 1e-6
    if mismatch > tol:
        raise InconsistentSystem(
            f"body relations incompatible: cross-derivative mismatch "
            f"{mismatch:.3e} > {tol:.3e}")

    Xt_dot = (bt.rel_second(Xt, X, dXp) - bt.rel_first(Xt, X, dXm))
    return FieldState(x, h, Xt, Xt_dot, seed.t)


def _rk4_step(f: Callable, y, h: float, at: tuple):
    """One RK4 step of y' = f(at, y); ``at`` is f's data at (start, mid, end)."""
    k1 = f(at[0], y)
    k2 = f(at[1], y + h / 2 * k1)
    k3 = f(at[1], y + h / 2 * k2)
    k4 = f(at[2], y + h * k3)
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
    if not (math.isfinite(dt) and dt > 0):
        raise ConfigError(f"dt = {dt} must be finite and positive")
    if steps < 0:
        raise ConfigError(f"steps = {steps} must not be negative")
    out = [state]
    cur = state.X.copy()
    x = state.x
    zero = np.zeros_like(cur)

    def fdot(_at, Xt):
        return (seed_bt.rel_second(Xt, zero, zero)
                - seed_bt.rel_first(Xt, zero, zero))

    for k in range(steps):
        cur = _rk4_step(fdot, cur, dt, (None, None, None))  # autonomous
        out.append(FieldState(x, state.h, cur.copy(), fdot(None, cur),
                              state.t + (k + 1) * dt))
    return out


# ---------------------------------------------------------------------------
# fermion integration on the light-cone grid

def bessel_series(s: np.ndarray) -> np.ndarray:
    """Sum_k (s/4)^k / (k!)^2 for k < 40, the closed-form kernel of the zero
    background."""
    out = np.zeros_like(s, dtype=float)
    term = np.ones_like(out)
    out += term
    s4 = s / 4.0
    for k in range(1, 40):
        term *= s4
        term /= k * k
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


def _edge_data(values, n: int, name: str) -> np.ndarray:
    """Edge data as n floats; a scalar is broadcast along the edge."""
    try:
        a = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} edge data is not numeric: {exc}") from None
    if a.ndim == 0 or a.shape == (n,):
        return np.broadcast_to(a, (n,))
    raise ConfigError(f"{name} edge data has shape {a.shape}, "
                      f"expected ({n},) or a scalar")


# width of a band of anti-diagonals, and height of a residual row block
_BAND = 32


def _coupling_block(background_X: Callable[[np.ndarray, np.ndarray], np.ndarray],
                    XM: np.ndarray, XP: np.ndarray) -> np.ndarray:
    """Coupling 0.5 cos(X/2) of the background on one block of the grid.

    ``XM`` and ``XP`` broadcast to the block; the background may return
    any shape that broadcasts to it, such as ``np.zeros_like(xm)`` (a
    column), and the coupling is evaluated on that shape and returned as a
    read-only broadcast view of the block.  Any other shape raises
    ``ConfigError``.
    """
    shape = np.broadcast_shapes(XM.shape, XP.shape)
    X = background_X(XM, XP)
    try:
        np.broadcast_to(X, shape)
    except ValueError:
        raise ConfigError(f"background of shape {np.shape(X)} does not "
                          f"broadcast to the grid block {shape}") from None
    # X / 2.0 is a fresh array (0-d for a scalar), so the rest is in place
    C = np.asarray(X / 2.0)
    np.cos(C, out=C)
    C *= 0.5
    return np.broadcast_to(C, shape)


def _coupling_bands(background_X: Callable[[np.ndarray, np.ndarray], np.ndarray],
                    xm: np.ndarray, xp: np.ndarray):
    """The coupling on the (xm, xp) grid, one band of anti-diagonals at a time.

    For d0 = 0, _BAND, 2*_BAND, ... yields ``(r0, band)`` with
    ``band[i - r0, d - d0] = C[i, d - i]`` for the diagonals d0 <= d <
    d0 + _BAND and the rows r0 <= i <= r1 that they cross.  The background
    gets the column ``xm[r0:r1 + 1]`` and, in reverse row order, a no-copy
    sliding window over ``xp`` padded with its end values; entries outside
    the grid hold the coupling at an end value and are never read.
    """
    nm, np_ = len(xm), len(xp)
    # window k holds xp[k - _BAND + 1 .. k], clipped to the grid
    windows = sliding_window_view(np.pad(xp, _BAND - 1, mode="edge"), _BAND)
    for d0 in range(0, nm + np_ - 1, _BAND):
        r0, r1 = max(0, d0 - np_ + 1), min(nm - 1, d0 + _BAND - 1)
        yield r0, _coupling_block(background_X, xm[r0:r1 + 1, None],
                                  windows[d0 + _BAND - 1 - r1:d0 + _BAND - r0][::-1])


def _fermion_march(background_X: Callable[[np.ndarray, np.ndarray], np.ndarray],
                   xm: np.ndarray, xp: np.ndarray, u0: np.ndarray, w0: np.ndarray,
                   h: float, step: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoidal box march of the coupled characteristic system.

    Returns ``u`` and ``w`` on the nodes ``[::step, ::step]`` only; the
    march itself runs on every node of the (len(xm), len(xp)) grid, with
    the coupling C = 0.5 cos(X/2) of ``background_X`` on that grid.

    Every node on an anti-diagonal depends only on the previous diagonal,
    so diagonals are swept with vector operations (the wavefront order);
    the per-node implicit 2x2 coupling is solved exactly.  The working set
    is O(nm * _BAND): the current and the previous diagonal live in
    length-nm buffers indexed by row, so the left (i, j - 1) and upper
    (i - 1, j) neighbours of node (i, j) are rows i and i - 1 of the
    previous buffers, and the two diagonals are swapped, not copied.  C is
    never built on the grid: diagonal d reads column d % _BAND of the band
    that ``_coupling_bands`` yields for it, one band is held at a time,
    and the edge marches evaluate C on the edge row and the edge column.
    In the C-ordered output of width p the kept node (a, D - a) has flat
    index a*(p - 1) + D, so a kept diagonal is written as one basic slice
    of ``ravel()``.  The two coupling signs are equal in the table, so one
    factor k = 0.5*h*su*C serves both equations.
    """
    su = -S_ALPHA_LM  # from d+ psi+ = -(alpha/2) psi- cos(X/2)
    if -S_ALPHA_LP != su:
        raise InconsistentSystem("the two fermion coupling signs differ")
    nm, np_ = len(xm), len(xp)
    u0 = _edge_data(u0, nm, "psi+")
    w0 = _edge_data(w0, np_, "psi-")
    # edges: single-family trapezoid marches with known partner data, summed
    # in order from the corner
    fu = su * _coupling_block(background_X, xm[:1, None], xp[None, :])[0] * w0
    u_edge = np.add.accumulate(np.concatenate(
        (u0[:1], 0.5 * h * (fu[:-1] + fu[1:]))))
    fw = su * _coupling_block(background_X, xm[:, None], xp[None, :1])[:, 0] * u0
    w_edge = np.add.accumulate(np.concatenate(
        (w0[:1], 0.5 * h * (fw[:-1] + fw[1:]))))
    mo, po = (nm - 1) // step + 1, (np_ - 1) // step + 1
    u_out = np.empty((mo, po))
    w_out = np.empty((mo, po))
    uf, wf = u_out.ravel(), w_out.ravel()
    factor = 0.5 * h * su
    bands = _coupling_bands(background_X, xm, xp)
    stride = np_ - 1
    pu, pw, pk, cu, cw, ck, t1, t2 = np.empty((8, nm))
    for d in range(nm + np_ - 1):
        lo, hi = max(0, d - stride), min(nm - 1, d)
        t = d % _BAND
        if t == 0:
            band = None  # freed before the next band is evaluated
            r0, band = next(bands)
        np.multiply(factor, band[lo - r0:hi + 1 - r0, t], out=ck[lo:hi + 1])
        if lo == 0:
            cu[0], cw[0] = u_edge[d], w0[d]
        if hi == d:
            cu[d], cw[d] = u0[d], w_edge[d]
        i_lo, i_hi = max(1, lo), min(nm - 1, d - 1)
        if i_lo <= i_hi:
            node, up = slice(i_lo, i_hi + 1), slice(i_lo - 1, i_hi)
            k, kB, den = ck[node], t1[node], t2[node]
            # A = pu + pk*pw (left) into cu, B = pw + pk*pu (up) into cw
            A = np.multiply(pk[node], pw[node], out=cu[node])
            A += pu[node]
            B = np.multiply(pk[up], pu[up], out=cw[node])
            B += pw[up]
            # u = (A + k*B)/(1 - k*k), w = B + k*u
            np.multiply(k, B, out=kB)
            kB += A
            np.multiply(k, k, out=den)
            np.subtract(1.0, den, out=den)
            np.divide(kB, den, out=A)
            B += np.multiply(k, A, out=kB)
        i0 = -(-lo // step) * step  # first kept row
        if d % step == 0 and i0 <= hi:
            D = d // step
            # with p = 1 a kept diagonal is one node, and a slice step of 0 is
            # not allowed
            kept = slice(i0 // step * (po - 1) + D,
                         hi // step * (po - 1) + D + 1, max(po - 1, 1))
            uf[kept] = cu[i0:hi + 1:step]
            wf[kept] = cw[i0:hi + 1:step]
        pu, pw, pk, cu, cw, ck = cu, cw, ck, pu, pw, pk
    return u_out, w_out


def integrate_fermions(background_X: Callable[[np.ndarray, np.ndarray], np.ndarray],
                       psi_plus_edge: Callable[[np.ndarray], np.ndarray],
                       psi_minus_edge: Callable[[np.ndarray], np.ndarray],
                       Lm: float = 4.0, Lp: float = 4.0,
                       h: float = 2.0 ** -7) -> FermionResult:
    """Characteristic integration of the linear fermion system.

    psi+ = u lambda+ is carried along x+ (data on the x+ = 0 edge), psi-
    along x-; coupling signs come from the parameter-algebra table.
    ``background_X`` is called on blocks of the (xm, xp) grid: a column of
    xm values and a block of xp values that broadcast together.  It may
    return any shape that broadcasts to the block, such as
    ``np.zeros_like(xm)``; any other shape raises ``ConfigError`` (see
    ``_coupling_block``).  Each edge callable returns one value per grid
    point, or a scalar for a constant edge; any other shape raises
    ``ConfigError``.  The march is repeated at half step and
    Richardson-extrapolated in place, cancelling the second-order
    truncation term.  The half-step march returns only the nodes it shares
    with the coarse grid, and the coupling is evaluated band by band (see
    ``_fermion_march``) and, for the residuals, in blocks of rows, so no
    full-grid coupling or fine-grid solution is ever stored.  The nodes are
    spaced by the ``h`` that the march and the residuals use, so the grid
    ends at ``round(Lm/h) h`` and ``round(Lp/h) h``.
    """
    if not all(math.isfinite(v) and v > 0 for v in (Lm, Lp, h)):
        raise ConfigError(f"Lm = {Lm}, Lp = {Lp} and h = {h} must be finite and positive")
    nm = int(round(Lm / h)) + 1
    np_ = int(round(Lp / h)) + 1
    if min(nm, np_) < 5:  # the fourth-order residual reads five nodes
        raise ConfigError(f"a {nm} x {np_} grid has a side of fewer than 5 nodes")
    xm = h * np.arange(nm)
    xp = h * np.arange(np_)
    u, w = _fermion_march(background_X, xm, xp, psi_plus_edge(xm),
                          psi_minus_edge(xp), h)
    xm2 = h / 2 * np.arange(2 * nm - 1)
    xp2 = h / 2 * np.arange(2 * np_ - 1)
    u2, w2 = _fermion_march(background_X, xm2, xp2, psi_plus_edge(xm2),
                            psi_minus_edge(xp2), h / 2, step=2)
    # (4 u2 - u)/3 in place, in the same IEEE operation order
    for fine, coarse in ((u2, u), (w2, w)):
        fine *= 4.0
        fine -= coarse
        fine /= 3.0
    u, w = u2, w2
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(w))):
        raise NonFiniteValue("fermion integration produced non-finite values")
    su = -S_ALPHA_LM
    sw = -S_ALPHA_LP
    # residuals of both equations, fourth-order differences on the interior,
    # in blocks of rows; a max is exact, so blocking does not change it
    rp_max, rm_max = [], []
    for r0 in range(0, nm, _BAND):
        r1 = min(r0 + _BAND, nm)
        C = _coupling_block(background_X, xm[r0:r1, None], xp[None, :])
        ub, wb = u[r0:r1], w[r0:r1]
        du_dp = (ub[:, :-4] - 8 * ub[:, 1:-3] + 8 * ub[:, 3:-1] - ub[:, 4:]) / (12 * h)
        rp_max.append(np.max(np.abs(du_dp - su * C[:, 2:-2] * wb[:, 2:-2])))
        i0, i1 = max(r0, 2), min(r1, nm - 2)
        if i0 < i1:
            dw_dm = (w[i0 - 2:i1 - 2] - 8 * w[i0 - 1:i1 - 1]
                     + 8 * w[i0 + 1:i1 + 1] - w[i0 + 2:i1 + 2]) / (12 * h)
            rm_max.append(np.max(np.abs(dw_dm - sw * C[i0 - r0:i1 - r0] * u[i0:i1])))
    return FermionResult(xm, xp, u, w, float(np.max(rp_max)), float(np.max(rm_max)))


# ---------------------------------------------------------------------------
# CSV output

def dump_csv(path: str, states: list[FieldState], config: dict) -> None:
    """Write (t, x, X, fermion coordinates, residual) rows with a JSON header.

    The leapfrog is classical, so the two fermion columns and the residual
    column are kept for the file format and are always 0.
    """
    with open(path, "w") as fh:
        fh.write("# " + json.dumps(config, sort_keys=True) + "\n")
        fh.write("t,x,X,psi_plus_lambda_plus_coeff,psi_minus_lambda_minus_coeff,residual\n")
        for s in states:
            for i in range(len(s.x)):
                fh.write(f"{s.t:.10g},{s.x[i]:.10g},{s.X[i]:.10g},0,0,0\n")
