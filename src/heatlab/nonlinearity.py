"""Admissible reaction nonlinearities and their integral transforms.

A nonlinearity f is represented together with its first two derivatives and
the log-profile g = log f.  The central object is the barrier integral

    F(u) = integral from u to infinity of ds / f(s),

whose inverse describes the blow-up profile of the singular stationary
solution near the origin.  All tail handling is done in log space so that
strongly exponential f (where f(u) overflows well before u = 50) remains
computable.

log F is the natural height for the exponential class (F(u*) ~ r^2/(2N-4)
along the profile), so each spec carries one log F table (LogFTable): its
pieces span TABLE_PIECE units of g from anchors where g crosses a multiple
of TABLE_PIECE, each laid by one upward Gauss-Legendre ladder.  F and F^-1
read that table at a cost that does not grow with the height, and every
value depends on its argument and the spec only.  The antiderivative of f
over ascending points (condition A4; the Pohozaev trace's anchor is one
point) takes one cumulative downward sweep: each point's ladder stops at
the point below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NonIntegrableTail, OutOfRange

__all__ = [
    "NonlinearitySpec",
    "TailGrowth",
    "AdmissibilityReport",
    "ConditionVerdict",
    "power_exp",
    "cutoff_exp",
    "pure_power",
    "custom",
    "sobolev_exponent",
    "eval_F",
    "eval_F_log",
    "eval_F_inverse_log",
    "check_admissibility",
    "check_fprime_F_limit",
]

def sobolev_exponent(dim: int) -> float:
    """Critical exponent (dim+2)/(dim-2) entering the fourth admissibility
    condition."""
    if dim < 3:
        raise ValueError("dimension must be >= 3")
    return (dim + 2.0) / (dim - 2.0)


@dataclass(frozen=True)
class TailGrowth:
    """Large-u behaviour of g = log f, used to truncate the barrier integral.

    ``log_exact_tail(M)`` returns log of the exact tail integral over
    [M, infinity) when a closed form exists (valid for M >= ``tail_start``),
    otherwise it is None and the tail is bounded through log-convexity of g:
    the tail is at most 1/(f(M) g'(M)).
    """

    log_convex_from: float
    tail_start: float = 0.0
    log_exact_tail: Optional[Callable[[float], float]] = None


@dataclass(frozen=True)
class NonlinearitySpec:
    """An immutable bundle of evaluators for one nonlinearity.

    All evaluators accept floats or numpy arrays; the domain is u >= 0 for
    f, f', f'' and u > 0 for the log-profile g and its derivatives.  For
    the built-in families a scalar input (a float, numpy.float64 included)
    returns a plain float computed with ``math``, with numpy's IEEE value
    where Python would raise (overflow, division by zero, log(0)); any
    other input returns a numpy array.
    """

    family: str
    params: dict
    f: Callable
    fp: Callable
    fpp: Callable
    g: Callable
    gp: Callable
    gpp: Callable
    tail: TailGrowth
    label: str = ""
    #: points where f is only C^2: every ladder lays a node on each, so no
    #: Gauss-Legendre segment straddles one
    joins: tuple = ()

    def __post_init__(self):
        if not self.label:
            object.__setattr__(self, "label", self.family)

    @cached_property
    def log_F_table(self) -> "LogFTable":
        """This spec's log F table, laid piece by piece as F and its
        inverse are asked for."""
        return LogFTable(self)


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------

def _evaluator(expr: Callable) -> Callable:
    """The evaluator u -> expr(u, xp) of a built-in family, where expr is
    one expression written against the namespace xp.

    A scalar (a float, numpy.float64 included) is computed on the Python
    float with xp = math and returned as a plain float: the LSODA
    right-hand side and the stepping of the Gauss-Legendre ladders call
    the evaluators once per node, and 0-d numpy arithmetic costs several
    times the expression itself.
    Anything else is computed as a float array with xp = numpy.  Where
    Python raises or leaves the reals and numpy returns an IEEE value (exp
    or ** overflow, division by zero, log(0), a fractional power of a
    negative number), the scalar is recomputed on the array path, so both
    paths give the same inf/nan.
    """
    def evaluate(u):
        if isinstance(u, float):
            try:
                return float(expr(float(u), math))
            except (ArithmeticError, ValueError, TypeError):
                return float(expr(np.asarray(u, dtype=float), np))
        return expr(np.asarray(u, dtype=float), np)
    return evaluate


def power_exp(p: float, q: float) -> NonlinearitySpec:
    """f(u) = u^p exp(u^q): power behaviour at 0, superexponential tail.

    Requires q > 1 so that g = p log u + u^q is eventually convex.
    """
    if q <= 1.0:
        raise ValueError("power_exp requires q > 1")
    if p <= 1.0:
        raise ValueError("power_exp requires p > 1 so that f'(0) = 0")

    @_evaluator
    def f(u, xp):
        return u ** p * xp.exp(u ** q)

    @_evaluator
    def fp(u, xp):
        return (p * u ** (p - 1) + q * u ** (p + q - 1)) * xp.exp(u ** q)

    @_evaluator
    def fpp(u, xp):
        poly = (p * (p - 1) * u ** (p - 2)
                + q * (2 * p + q - 1) * u ** (p + q - 2)
                + q * q * u ** (p + 2 * q - 2))
        return poly * xp.exp(u ** q)

    @_evaluator
    def g(u, xp):
        return p * xp.log(u) + u ** q

    @_evaluator
    def gp(u, xp):
        return p / u + q * u ** (q - 1)

    @_evaluator
    def gpp(u, xp):
        return -p / u ** 2 + q * (q - 1) * u ** (q - 2)

    convex_from = (p / (q * (q - 1))) ** (1.0 / q)
    tail = TailGrowth(log_convex_from=convex_from)
    return NonlinearitySpec(
        family="power_exp", params={"p": p, "q": q},
        f=f, fp=fp, fpp=fpp, g=g, gp=gp, gpp=gpp, tail=tail,
        label=f"power_exp(p={p:g}, q={q:g})")


# quintic cutoff: chi'(u) is the C^1 piecewise quartic below; chi is its
# antiderivative with chi(0) = 0, giving chi = 20 for u >= 4 and chi = u^5
# for u <= 1, with C^2 joins.  A scalar input (the LSODA right-hand side,
# the ladders' stepping) returns a plain float computed on the Python
# float; an array evaluates each piece on its own entries only.  Either
# way an entry costs its own piece, not all three.  Powers are repeated
# products (_power): numpy's array power of a negative base (x - 2, x - 4)
# is about 30 times slower than the products, and the products give the
# same bits on both paths.
def _cutoff_piecewise(on_1, on_3, on_4, beyond: float) -> Callable:
    """The function equal to on_1, on_3, on_4 up to u = 1, 3, 4 and to the
    constant beyond after that."""
    def evaluate(u):
        if isinstance(u, float):
            x = float(u)
            if x <= 1.0:
                return on_1(x)
            if x <= 3.0:
                return on_3(x)
            return on_4(x) if x <= 4.0 else beyond
        u = np.asarray(u, dtype=float)
        piece = np.searchsorted([1.0, 3.0, 4.0], u)
        out = np.full(u.shape, beyond)
        for k, on in enumerate((on_1, on_3, on_4)):
            out[piece == k] = on(u[piece == k])
        return out
    return evaluate


def _power(t, n: int):
    """t ** n for a positive integer n, as n - 1 products."""
    out = t
    for _ in range(n - 1):
        out = out * t
    return out


_chi = _cutoff_piecewise(lambda x: _power(x, 5),
                         lambda x: 10.0 * (x - 1.0) - _power(x - 2.0, 5),
                         lambda x: 20.0 + _power(x - 4.0, 5), 20.0)
_chi_p = _cutoff_piecewise(lambda x: 5.0 * _power(x, 4),
                           lambda x: 10.0 - 5.0 * _power(x - 2.0, 4),
                           lambda x: 5.0 * _power(x - 4.0, 4), 0.0)
_chi_pp = _cutoff_piecewise(lambda x: 20.0 * _power(x, 3),
                            lambda x: -20.0 * _power(x - 2.0, 3),
                            lambda x: 20.0 * _power(x - 4.0, 3), 0.0)


def cutoff_exp(a: float = 20.0) -> NonlinearitySpec:
    """f(u) = chi(u) exp(a u) with a quintic cutoff chi saturating at 20.

    For u >= 4 this is exactly 20 exp(a u), so the tail of the barrier
    integral is exp(-a M)/(20 a) in closed form.
    """
    if a <= 0.0:
        raise ValueError("cutoff_exp requires a > 0")

    @_evaluator
    def f(u, xp):
        return _chi(u) * xp.exp(a * u)

    @_evaluator
    def fp(u, xp):
        return (_chi_p(u) + a * _chi(u)) * xp.exp(a * u)

    @_evaluator
    def fpp(u, xp):
        return (_chi_pp(u) + 2.0 * a * _chi_p(u) + a * a * _chi(u)) * xp.exp(a * u)

    @_evaluator
    def g(u, xp):
        return xp.log(_chi(u)) + a * u

    @_evaluator
    def gp(u, xp):
        return _chi_p(u) / _chi(u) + a

    @_evaluator
    def gpp(u, xp):
        c = _chi(u)
        return (_chi_pp(u) * c - _chi_p(u) ** 2) / c ** 2

    def log_exact_tail(M):
        return -a * M - math.log(20.0 * a)

    tail = TailGrowth(log_convex_from=4.0, tail_start=4.0,
                      log_exact_tail=log_exact_tail)
    return NonlinearitySpec(
        family="cutoff_exp", params={"a": a},
        f=f, fp=fp, fpp=fpp, g=g, gp=gp, gpp=gpp, tail=tail,
        label=f"cutoff_exp(a={a:g})", joins=(1.0, 3.0, 4.0))


def pure_power(p: float) -> NonlinearitySpec:
    """f(u) = u^p.  Outside the exponential class (f'F -> p/(p-1) != 1) but
    invaluable as a closed-form oracle: the singular profile is explicit."""
    if p <= 1.0:
        raise ValueError("pure_power requires p > 1")

    @_evaluator
    def f(u, xp):
        return u ** p

    @_evaluator
    def fp(u, xp):
        return p * u ** (p - 1)

    @_evaluator
    def fpp(u, xp):
        return p * (p - 1) * u ** (p - 2)

    @_evaluator
    def g(u, xp):
        return p * xp.log(u)

    @_evaluator
    def gp(u, xp):
        return p / u

    @_evaluator
    def gpp(u, xp):
        return -p / u ** 2

    def log_exact_tail(M):
        return (1.0 - p) * math.log(M) - math.log(p - 1.0)

    tail = TailGrowth(log_convex_from=math.inf, tail_start=0.0,
                      log_exact_tail=log_exact_tail)
    return NonlinearitySpec(
        family="pure_power", params={"p": p},
        f=f, fp=fp, fpp=fpp, g=g, gp=gp, gpp=gpp, tail=tail,
        label=f"pure_power(p={p:g})")


def custom(f: Callable, fp: Callable, fpp: Callable,
           log_convex_from: float = math.inf,
           log_exact_tail: Optional[Callable[[float], float]] = None,
           tail_start: float = 0.0,
           label: str = "custom") -> NonlinearitySpec:
    """Wrap user-supplied evaluators.  The log-profile and its derivatives
    are derived from f, f', f''; admissibility is checked, never assumed."""

    def g(u):
        return np.log(f(u))

    def gp(u):
        return fp(u) / f(u)

    def gpp(u):
        fu = f(u)
        return (fpp(u) * fu - fp(u) ** 2) / fu ** 2

    tail = TailGrowth(log_convex_from=log_convex_from, tail_start=tail_start,
                      log_exact_tail=log_exact_tail)
    return NonlinearitySpec(
        family="custom", params={},
        f=f, fp=fp, fpp=fpp, g=g, gp=gp, gpp=gpp, tail=tail, label=label)


# ---------------------------------------------------------------------------
# the barrier integral F and its inverse
# ---------------------------------------------------------------------------

#: 16-point Gauss-Legendre rule on [0, 1]
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
_GL_X, _GL_W = 0.5 * (_GL_X + 1.0), 0.5 * _GL_W

#: depth in units of g past which a ladder takes one last segment to its
#: end, where the integrand has fallen below e^-40 of its scale
LADDER_SPAN = 40.0


def _segment(spec: NonlinearitySpec, a, ga, b, sign: float):
    """Integral of exp(sign (g(s) - ga)) between a and b, for arrays a, b
    and ga = g(a), by the 16-point Gauss-Legendre rule with g evaluated in
    one call on every node."""
    s = a[:, None] + (b - a)[:, None] * _GL_X
    gs = np.asarray(spec.g(s), dtype=float)
    return np.abs(b - a) * (np.exp(sign * (gs - ga[:, None])) @ _GL_W)


def _antiderivative_end(spec, x, gx, x_ref, g_ref):
    """Downward: one segment to 0 (the ladder ends it on its floor), no
    tail, once s f(s) has fallen by e^LADDER_SPAN from x_ref or is not
    finite (the integral reads NaN)."""
    if math.log(x) + gx > math.log(x_ref) + g_ref - LADDER_SPAN:
        return None
    return 0.0, -math.inf


def _barrier_end(spec, x, gx, x_ref, g_ref):
    """Upward from x_ref: (end, log tail), at once where the exact tail
    holds, else at depth LADDER_SPAN to where it starts or to M with g
    convex beyond, g'(M) > 0, g''(M) >= 0 and tail <= 1/(f(M) g'(M)); while
    that fails, (2M, None) steps on from 2M.  NonIntegrableTail past 2^600
    or where g is not finite."""
    exact = spec.tail.log_exact_tail
    if not (x <= 2.0 ** 600 and abs(gx) < math.inf):
        raise NonIntegrableTail(f"{spec.label}: could not certify an "
                                f"integrable tail of F")
    if gx - g_ref < LADDER_SPAN and (
            exact is None or x < spec.tail.tail_start):
        return None
    if exact is not None:
        M = max(x, spec.tail.tail_start)
        return M, exact(M)
    M = max(x, spec.tail.log_convex_from)
    gp_M = float(spec.gp(M)) if M <= 2.0 ** 600 else math.nan
    if gp_M > 0.0 and float(spec.gpp(M)) >= 0.0:
        return M, -float(spec.g(M)) - math.log(gp_M)
    return 2.0 * M, None


def _ladder(spec: NonlinearitySpec, u, sign: float, floor=None):
    """Gauss-Legendre ladders from every entry of the array u > 0, upward
    for F (sign = -1, integrand 1/f, ended by _barrier_end; it lays the
    pieces of LogFTable) or downward for the antiderivative of f (sign =
    +1, by _antiderivative_end) to the entry's floor (0 by default),
    stepped on Python floats and integrated in one batch.  A step spans
    e^(d/4)/4 units of g, at most 8, at depth d: the units g has risen
    above or fallen below g(u); its length is set by the slope of g over
    the previous step (g'(u) for the first) while that is under half the
    distance to the floor, else it is half the distance to 0, and it stops
    at the spec's next join.  A downward step that would pass the floor
    ends the ladder on it.  Damped by e^-d, each segment's error stays
    that of the first.  Returns the segments (start, end, g at the start,
    integral of exp(sign (g(s) - g(start)))), each ladder's first segment
    index and log of its tail (-inf downward)."""
    g = spec.g
    end = _barrier_end if sign < 0.0 else _antiderivative_end
    joins = spec.joins if sign < 0.0 else spec.joins[::-1]
    u = np.asarray(u, dtype=float)
    floor = np.zeros(u.shape) if floor is None else np.asarray(floor, float)
    segments, first, log_tail = [], [], []
    for x, lo, slope in zip(u.tolist(), floor.tolist(),
                            np.asarray(spec.gp(u), float).tolist()):
        first.append(len(segments))
        x_ref = x
        gx = g_ref = float(g(x))
        tail = None
        while tail is None:
            depth = sign * (g_ref - gx)
            unit = 0.25 * math.exp(min(max(depth, 0.0), 13.86) / 4.0)
            nxt = x - sign * (unit / slope if slope * (x - lo) > 2.0 * unit
                              else 0.5 * x)
            for j in joins:
                if (j - x) * (nxt - j) > 0.0:
                    nxt = j
            nxt, tail = end(spec, x, gx, x_ref, g_ref) or (nxt, None)
            if sign > 0.0 and nxt <= lo:
                nxt, tail = lo, -math.inf
            if tail is None and nxt == x:
                raise OutOfRange(f"{spec.label}: a ladder step from u = "
                                 f"{x:g} is below the spacing of doubles")
            segments.append((x, nxt, gx))
            if tail is None:
                g_nxt = float(g(nxt))
                slope = sign * (gx - g_nxt) / abs(nxt - x)
                x, gx = nxt, g_nxt
        log_tail.append(tail)
    a, b, ga = np.array(segments, dtype=float).reshape(-1, 3).T
    return (a, b, ga, _segment(spec, a, ga, b, sign),
            np.array(first, dtype=int), np.array(log_tail))


def _scaled_antiderivative(spec: NonlinearitySpec, u):
    """(g(u), integral_0^u f / f(u)) at every entry of the strictly
    ascending array u > 0, in one cumulative sweep: entry k is a downward
    ladder from u_k to the floor u_{k-1} (0 for the first), and
    ratio_k = ratio_{k-1} e^(g(u_{k-1}) - g(u_k)) + that ladder's segments
    summed against the scale f(u_k), so f itself is never formed."""
    u = np.asarray(u, dtype=float)
    if not np.all(np.diff(u) > 0.0):
        raise ValueError("the antiderivative sweep needs strictly "
                         "ascending points")
    _, _, ga, seg, first, _ = _ladder(spec, u, 1.0,
                                      np.concatenate([[0.0], u[:-1]]))
    g0 = ga[first]
    g_scale = np.repeat(g0, np.diff(np.append(first, ga.size)))
    part = np.add.reduceat(seg * np.exp(ga - g_scale), first).tolist()
    ratio = part[:1]
    for decay, jk in zip(np.exp(g0[:-1] - g0[1:]).tolist(), part[1:]):
        ratio.append(ratio[-1] * decay + jk)
    return g0, np.array(ratio)


#: width in units of g of one piece of the log F table
TABLE_PIECE = 8.0
#: the table's anchors lie in [2^LOG2_U_MIN, 2^LOG2_U_MAX]
LOG2_U_MIN, LOG2_U_MAX = -960.0, 600.0
#: Newton steps an F-inverse root takes at most
NEWTON_STEPS = 8


def _each(fn, m: np.ndarray) -> np.ndarray:
    """fn(k) at every entry k of the float array m of piece indices, called
    once per distinct k."""
    ms, at = np.unique(m, return_inverse=True)
    return np.array([fn(int(k)) for k in ms], dtype=float)[at]


class LogFTable:
    """log F of one spec on canonical nodes, laid piece by piece on use.

    Piece m starts at the anchor u_m, the largest point of a bisection in
    log2 u over the fixed range [2^LOG2_U_MIN, 2^LOG2_U_MAX] with
    g(u_m) <= m TABLE_PIECE, carried on until g varies by at most
    TABLE_PIECE/16 across the bracket.  It holds one upward ladder from
    u_m (_ladder) with g and log F at every node, accumulated downward
    with logaddexp from the ladder's tail, and it serves the u in
    [u_m, u_{m+1}).  log F is kept as log(f F) = log F + g, which stays
    of order one, so f F keeps its relative precision where g is 1e6.
    A node and its value depend on m and the spec alone, never on the
    request, batch or call history that laid the piece, and a piece costs
    the same at any height.  Where the spec has an exact tail, log F is
    that closed form from tail_start on; a piece there holds its two
    anchors only, and a piece whose ladder the exact tail ends early also
    holds the next anchor.

    ``pieces`` maps m to (nodes, g, log(f F) at the nodes).  Lookups go
    through flat arrays of the laid pieces' nodes below their next
    anchor, in the order of m, rebuilt when a piece is laid.  The spec
    caches its table (NonlinearitySpec.log_F_table).
    """

    def __init__(self, spec: NonlinearitySpec):
        self.spec = spec
        self.pieces = {}
        self._anchors = {}
        self._flat = None

    def anchor(self, m: int) -> float:
        """u_m, the start of piece m (2^LOG2_U_MIN where g stays above
        m TABLE_PIECE, 2^LOG2_U_MAX where it stays below)."""
        u = self._anchors.get(m)
        if u is None:
            u = self._anchors[m] = self._bisect(m * TABLE_PIECE)
        return u

    def _bisect(self, level: float) -> float:
        g = self.spec.g
        lo, hi = LOG2_U_MIN, LOG2_U_MAX
        with np.errstate(all="ignore"):
            g_lo, g_hi = float(g(2.0 ** lo)), math.inf
            if not g_lo <= level:
                return 2.0 ** lo
            if float(g(2.0 ** hi)) <= level:
                return 2.0 ** hi
            while not g_hi - g_lo <= TABLE_PIECE / 16.0:
                mid = 0.5 * (lo + hi)
                if mid == lo or mid == hi:
                    break
                g_mid = float(g(2.0 ** mid))
                if g_mid <= level:
                    lo, g_lo = mid, g_mid
                else:
                    hi, g_hi = mid, g_mid
        return 2.0 ** lo

    def piece(self, m: int):
        """(nodes, g, log(f F) at the nodes) of piece m, laid on first
        use."""
        piece = self.pieces.get(m)
        if piece is None:
            piece = self.pieces[m] = self._lay(m)
            self._flat = None
        return piece

    def _lay(self, m: int):
        spec = self.spec
        start, stop = self.anchor(m), self.anchor(m + 1)
        exact = spec.tail.log_exact_tail
        if exact is not None and start >= spec.tail.tail_start:
            nodes = np.array([start, stop])
            g_n = np.asarray(spec.g(nodes), dtype=float)
            return nodes, g_n, np.array([exact(start), exact(stop)]) + g_n
        a, b, ga, seg, _, log_tail = _ladder(spec, np.array([start]), -1.0)
        keep = b > a
        nodes = np.append(a[keep], b[keep][-1])
        g_n = np.append(ga[keep], float(spec.g(nodes[-1])))
        # summed against the scale f(u_m): every term is of order one
        depth = g_n - g_n[0]
        terms = np.append(np.log(seg[keep]) - depth[:-1],
                          log_tail + g_n[0])
        log_fF = np.logaddexp.accumulate(terms[::-1])[::-1] + depth
        if exact is not None and nodes[-1] < stop:
            g_stop = float(spec.g(stop))
            nodes, g_n = np.append(nodes, stop), np.append(g_n, g_stop)
            log_fF = np.append(log_fF, exact(stop) + g_stop)
        return nodes, g_n, log_fF

    def _lookup(self):
        """Flat arrays over the laid pieces, one entry per node below the
        piece's next anchor: (node, log F, next node, g and log(f F)
        there, next anchor, log F at the next anchor or inf while that
        piece is not laid), after one sentinel entry."""
        if self._flat is None:
            # a first entry below every u and above every target, served
            # by no piece, so that every search lands on an entry
            parts = [([-math.inf], [math.inf], [math.nan], [math.nan],
                      [math.nan], [-math.inf], [math.inf])]
            for m in sorted(self.pieces):
                nodes, g_n, log_fF = self.pieces[m]
                stop = self.anchor(m + 1)
                n = min(int(np.searchsorted(nodes, stop)), nodes.size - 1)
                above = self.pieces.get(m + 1)
                parts.append((nodes[:n], log_fF[:n] - g_n[:n],
                              nodes[1:n + 1], g_n[1:n + 1],
                              log_fF[1:n + 1], np.full(n, stop),
                              np.full(n, math.inf if above is None
                                      else above[2][0] - above[1][0])))
            self._flat = tuple(np.concatenate(c) for c in zip(*parts))
        return self._flat

    def _locate(self, v: np.ndarray, g_v: np.ndarray):
        """The pieces m with u_m <= u < u_{m+1} of the entries of v:
        from floor(g(u) / TABLE_PIECE), stepped over the anchors."""
        m = np.floor(g_v / TABLE_PIECE)
        while True:
            move = ((v >= _each(lambda k: self.anchor(k + 1), m))
                    .astype(float) - (v < _each(self.anchor, m)))
            if not move.any():
                return [int(k) for k in np.unique(m)]
            m += move

    def _entries(self, v: np.ndarray, g_v: np.ndarray) -> np.ndarray:
        """The lookup entry of every u: the node at or below u in the
        piece that serves u, laying the pieces no entry serves yet."""
        node, *_, stop, _ = self._lookup()
        i = np.searchsorted(node, v, side="right") - 1
        bad = v >= stop[i]
        if bad.any():
            for m in self._locate(v[bad], g_v[bad]):
                self.piece(m)
            node = self._lookup()[0]
            i = np.searchsorted(node, v, side="right") - 1
        return i

    def log_F(self, u: np.ndarray):
        """(log F(u), log(f(u) F(u)), g(u)) for a 1-d array u > 0: the
        closed form where the exact tail holds, else, with the next node
        u_{k+1} of u's piece, log(f F)(u) = logaddexp(log of the integral
        of f(u)/f from u to u_{k+1}, log(f F)(u_{k+1}) - g(u_{k+1}) +
        g(u)), one batched 16-point Gauss-Legendre segment per entry."""
        spec = self.spec
        exact = spec.tail.log_exact_tail
        g_u = np.asarray(spec.g(u), dtype=float)
        log_F, log_fF = np.empty_like(u), np.empty_like(u)
        closed = (u >= spec.tail.tail_start if exact is not None
                  else np.zeros(u.shape, dtype=bool))
        log_F[closed] = [exact(x) for x in u[closed].tolist()]
        log_fF[closed] = log_F[closed] + g_u[closed]
        v, g_v = u[~closed], g_u[~closed]
        if not np.all(np.isfinite(g_v) & (v < 2.0 ** LOG2_U_MAX)):
            raise NonIntegrableTail(f"{spec.label}: could not certify an "
                                    f"integrable tail of F")
        if np.any((v < 2.0 ** LOG2_U_MIN) | (np.abs(g_v) >= 2.0 ** 52)):
            raise OutOfRange(f"F is tabulated for u >= 2^{LOG2_U_MIN:g} "
                             f"with |g(u)| < 2^52")
        i = self._entries(v, g_v)
        _, _, nxt, g_nxt, log_fF_nxt, _, _ = self._lookup()
        with np.errstate(divide="ignore"):
            seg = np.log(_segment(spec, v, g_v, nxt[i], -1.0))
        log_fF[~closed] = np.logaddexp(seg, log_fF_nxt[i] - (g_nxt[i] - g_v))
        log_F[~closed] = log_fF[~closed] - g_v
        return log_F, log_fF, g_u

    def _at_anchor(self, m: int) -> float:
        _, g_n, log_fF = self.piece(m)
        return float(log_fF[0] - g_n[0])

    def _first_guess(self, t: np.ndarray) -> np.ndarray:
        """The piece _piece_for starts from for each target t: m =
        floor(-t / TABLE_PIECE), as if log F fell by one unit per unit of
        g, or, where the spec's exact tail holds at that piece's anchor
        u_m, the piece of the g at which the tangent of log F against g at
        u_m, of slope -1 / (f F g'), meets t.  pure_power's log F is
        linear in g, so there the tangent lands on the target's piece up to
        the anchors' slack."""
        m = np.floor(-t / TABLE_PIECE)
        tail = self.spec.tail
        if tail.log_exact_tail is None:
            return m
        u = _each(self.anchor, m)
        holds = ((u >= tail.tail_start) & (u > 2.0 ** LOG2_U_MIN)
                 & (u < 2.0 ** LOG2_U_MAX))
        if not holds.any():
            return m
        u = u[holds]
        log_F = np.array([tail.log_exact_tail(x) for x in u.tolist()])
        with np.errstate(all="ignore"):
            g = np.asarray(self.spec.g(u), dtype=float)
            g_t = g + ((log_F - t[holds]) * self.spec.gp(u)
                       * np.exp(g + log_F))
        m[holds] = np.where(np.isfinite(g_t), np.floor(g_t / TABLE_PIECE),
                            m[holds])
        return m

    def _piece_for(self, t: np.ndarray):
        """Lay the pieces m and m + 1 of every target t, where m is the
        piece with log F(u_m) >= t > log F(u_{m+1}): from _first_guess,
        stepped over log F at the anchors."""
        m = self._first_guess(t)
        while True:
            down = _each(self._at_anchor, m) < t
            up = _each(lambda k: self._at_anchor(k + 1), m) >= t
            if not (down.any() or up.any()):
                return
            if any(self.anchor(int(k)) <= 2.0 ** LOG2_U_MIN
                   for k in m[down]):
                raise OutOfRange("requested value exceeds sup F")
            if any(self.anchor(int(k) + 1) >= 2.0 ** LOG2_U_MAX
                   for k in m[up]):
                raise OutOfRange("no preimage found at large u")
            m += up.astype(float) - down

    def inverse(self, t: np.ndarray) -> np.ndarray:
        """u with log F(u) = t for a 1-d array t.  The lookup entry of
        each target lies in its piece m (log F(u_m) >= t > log F(u_{m+1}))
        with log F at the entry >= t > log F at the next node; the root
        starts by linear interpolation between the two and takes Newton
        steps on log_F, clipped to them, with the exact
        d log F/du = -exp(-g - log F), until a step is within 4 ulps."""
        if not np.all(np.abs(t) < 2.0 ** 52):
            raise OutOfRange("F^-1 is tabulated for |log y| < 2^52")
        _, log_F, *_, above = self._lookup()
        i = np.searchsorted(-log_F, -t, side="right") - 1
        bad = ~(t > above[i])
        if bad.any():
            self._piece_for(t[bad])
            log_F = self._lookup()[1]
            i = np.searchsorted(-log_F, -t, side="right") - 1
        node, log_F, nxt, g_nxt, log_fF_nxt, _, _ = self._lookup()
        lo, hi = node[i], nxt[i]
        log_F_hi = log_fF_nxt[i] - g_nxt[i]
        u = lo + (hi - lo) * (log_F[i] - t) / (log_F[i] - log_F_hi)
        todo = np.arange(t.size)
        for _ in range(NEWTON_STEPS):
            log_F_u, log_fF_u, _ = self.log_F(u[todo])
            step = (log_F_u - t[todo]) * np.exp(log_fF_u)
            u[todo] = np.clip(u[todo] + step, lo[todo], hi[todo])
            todo = todo[np.abs(step) > 4.0 * np.finfo(float).eps * u[todo]]
            if todo.size == 0:
                break
        return u


def eval_F_log(spec: NonlinearitySpec, u):
    """log F(u), stable even where F(u) underflows to zero, elementwise for
    an array u (a scalar returns a float), read from the spec's log F
    table: log F(u) = logaddexp(L[k+1], log of the integral of 1/f from u
    to the next node u_{k+1}), one batched 16-point Gauss-Legendre segment
    per entry, or the exact tail where the spec has one."""
    scalar = np.ndim(u) == 0
    u = np.asarray(u, dtype=float)
    if not np.all(u > 0.0):
        raise ValueError("F is defined for u > 0")
    out = spec.log_F_table.log_F(u.ravel())[0].reshape(u.shape)
    return float(out) if scalar else out


def eval_F(spec: NonlinearitySpec, u: float) -> float:
    """Barrier integral F(u) = integral_u^inf ds/f(s)."""
    return math.exp(eval_F_log(spec, u))


def eval_F_inverse_log(spec: NonlinearitySpec, log_y):
    """Solve F(u) = exp(log_y) for u, elementwise for an array log_y (a
    scalar returns a float).  F is strictly decreasing.

    The root is searched in the spec's log F table and finished by Newton
    steps on the same evaluation as eval_F_log (LogFTable.inverse), so it
    depends on its own target and the spec only.  OutOfRange where the
    target lies above log F(2^LOG2_U_MIN) or below log F(2^LOG2_U_MAX).
    """
    scalar = np.ndim(log_y) == 0
    t = np.asarray(log_y, dtype=float)
    u = spec.log_F_table.inverse(t.ravel()).reshape(t.shape)
    return float(u) if scalar else u


# ---------------------------------------------------------------------------
# condition checks
# ---------------------------------------------------------------------------

@dataclass
class ConditionVerdict:
    name: str
    passed: bool
    witnesses: list = field(default_factory=list)
    detail: str = ""

    @property
    def verdict(self) -> str:
        return "PASS" if self.passed else "FAIL"


@dataclass
class AdmissibilityReport:
    spec_label: str
    dim: int
    conditions: dict
    limit_estimates: dict
    sample_range: tuple
    n_samples: int

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.conditions.values())

    def to_dict(self) -> dict:
        return {
            "spec": self.spec_label,
            "dim": self.dim,
            "sample_range": list(self.sample_range),
            "n_samples": self.n_samples,
            "all_pass": self.all_pass,
            "conditions": [
                {
                    "condition": c.name,
                    "verdict": c.verdict,
                    "witnesses": [{"u": u, "value": v} for u, v in c.witnesses],
                    "detail": c.detail,
                }
                for c in self.conditions.values()
            ],
            "limit_estimates": self.limit_estimates,
        }


def check_admissibility(spec: NonlinearitySpec,
                        dim: int) -> AdmissibilityReport:
    """Sampling-based machine check of the four admissibility conditions.

    A PASS means "no violation found on the sampled range"; the conditions
    quantify over all u > 0, which is undecidable numerically.  It samples
    2000 log-spaced points of [1e-6, 1e3]; the fourth condition's deficit
    Q(u)/(u f(u)) is checked at 80 log-spaced points of that range (one
    cumulative downward sweep over them, _scaled_antiderivative) to
    -1e-12, relative once |Q/(u f)| > 1.
    """
    u_min, u_max = 1e-6, 1e3
    p_crit = sobolev_exponent(dim)
    u = np.geomspace(u_min, u_max, 2000)
    conditions = {}

    # A1: f(0) = 0 and f'(0) = 0, f continuous from the right
    f0 = float(spec.f(0.0))
    fp0 = float(spec.fp(0.0))
    wit = []
    if f0 != 0.0:
        wit.append((0.0, f0))
    if fp0 != 0.0:
        wit.append((0.0, fp0))
    f_small = float(spec.f(u_min))
    if not (0.0 <= f_small < math.inf):
        wit.append((u_min, f_small))
    conditions["A1"] = ConditionVerdict(
        "A1", not wit, wit, "f(0)=0 and f'(0)=0")

    # A2: f' > 0 and f'' > 0 on the samples
    with np.errstate(over="ignore"):
        fpv = np.asarray(spec.fp(u))
        fppv = np.asarray(spec.fpp(u))
    bad = np.where(~((fpv > 0) & (fppv > 0)))[0]
    wit = [(float(u[i]), float(min(fpv[i], fppv[i]))) for i in bad[:5]]
    conditions["A2"] = ConditionVerdict(
        "A2", bad.size == 0, wit, "f'>0 and f''>0 on samples")

    # A3: g eventually convex and g''/g'^2 -> 0.  Convexity need only hold
    # for large u, so violations are tolerated below a threshold as long as
    # a clean convex tail covering at least the top fifth of the log range
    # remains above it.
    upper = u[u >= math.sqrt(u_min * u_max)]
    gppv = np.asarray(spec.gpp(upper))
    gpv = np.asarray(spec.gp(upper))
    ratio = gppv / gpv ** 2
    neg = np.where(gppv < 0)[0]
    last_neg = int(neg[-1]) + 1 if neg.size else 0
    tail_frac = 1.0 - last_neg / len(upper)
    convex_ok = tail_frac >= 0.2
    wit = [] if convex_ok else [
        (float(upper[i]), float(gppv[i])) for i in neg[-5:]]
    tail_ratio = ratio[last_neg:] if convex_ok else ratio
    limit = float(tail_ratio[-1])
    errbar = abs(float(tail_ratio[-1] - tail_ratio[len(tail_ratio) // 2]))
    a3_ok = convex_ok and abs(limit) <= max(1e-2, 1.5 * errbar)
    if not a3_ok and convex_ok:
        wit = [(float(upper[-1]), limit)]
    conditions["A3"] = ConditionVerdict(
        "A3", a3_ok, wit,
        f"g convex on top {100 * tail_frac:.0f}% of range, "
        f"g''/g'^2 -> {limit:.3e} (+- {errbar:.1e})")

    # A4: Q(u) >= 0, checked as Q/(u f(u)) >= -tol on a quadrature subsample
    # Q(u)/(u f(u)) with Q(u) = u f(u) - (p_crit+1) int_0^u f: normalizing
    # by u f(u) > 0 keeps it finite where f overflows and keeps its sign
    uq = np.geomspace(u_min, u_max, 80)
    q_norm = 1.0 - (p_crit + 1.0) * _scaled_antiderivative(spec, uq)[1] / uq
    tol = 1e-12 * np.maximum(1.0, np.abs(q_norm))
    bad = np.where(q_norm < -tol)[0]
    wit = [(float(uq[i]), float(q_norm[i])) for i in bad[:5]]
    conditions["A4"] = ConditionVerdict(
        "A4", bad.size == 0, wit,
        f"min Q/(u f) = {float(q_norm.min()):.3e}")

    # limit of f' F along the top decade (may fail to exist for bad tails)
    fpF_limit = None
    fpF_err = None
    try:
        pts = [u_max / 4.0, u_max / 2.0, u_max]
        vals = [v for _, v in check_fprime_F_limit(spec, pts)]
        fpF_limit = float(vals[-1])
        fpF_err = abs(vals[-1] - vals[-2])
    except NonIntegrableTail:
        pass

    return AdmissibilityReport(
        spec_label=spec.label, dim=dim, conditions=conditions,
        limit_estimates={
            "g2_over_g1sq": {"value": limit, "errbar": errbar},
            "fprime_F": {"value": fpF_limit, "errbar": fpF_err},
        },
        sample_range=(u_min, u_max), n_samples=len(u))


def check_fprime_F_limit(spec: NonlinearitySpec,
                         u_grid: Sequence[float]) -> list:
    """Product f'(u) F(u) along an ascending grid; tends to 1 for the
    exponential class.  Computed as g'(u) times f(u) F(u), read from the
    spec's log F table."""
    u = np.asarray(u_grid, dtype=float)
    if np.any(u <= 0.0) or np.any(np.diff(u) <= 0.0):
        raise ValueError("u_grid must be positive and strictly ascending")
    prod = np.asarray(spec.gp(u)) * np.exp(spec.log_F_table.log_F(u)[1])
    return list(zip(u.tolist(), prod.tolist()))
