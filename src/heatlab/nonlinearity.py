"""Admissible reaction nonlinearities and their integral transforms.

A nonlinearity f is represented together with its first two derivatives and
the log-profile g = log f.  The central object is the barrier integral

    F(u) = integral from u to infinity of ds / f(s),

whose inverse describes the blow-up profile of the singular stationary
solution near the origin.  All tail handling is done in log space so that
strongly exponential f (where f(u) overflows well before u = 50) remains
computable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import quad

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

#: relative tolerance of the barrier integral F and of its inverse
TOL_F = 1e-10


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

    def __post_init__(self):
        if not self.label:
            object.__setattr__(self, "label", self.family)


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------

def _evaluator(expr: Callable) -> Callable:
    """The evaluator u -> expr(u, xp) of a built-in family, where expr is
    one expression written against the namespace xp.

    A scalar (a float, numpy.float64 included) is computed on the Python
    float with xp = math and returned as a plain float: quadrature
    integrands and ODE right-hand sides call the evaluators once per node,
    and 0-d numpy arithmetic costs several times the expression itself.
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
# for u <= 1, with C^2 joins.  A scalar input (every quad node) returns a
# plain float computed on the Python float, evaluating only its own piece;
# np.select would evaluate all three.  Array input keeps np.select.
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
        return np.select([u <= 1.0, u <= 3.0, u <= 4.0],
                         [on_1(u), on_3(u), on_4(u)], default=beyond)
    return evaluate


_chi = _cutoff_piecewise(lambda x: x ** 5,
                         lambda x: 10.0 * (x - 1.0) - (x - 2.0) ** 5,
                         lambda x: 20.0 + (x - 4.0) ** 5, 20.0)
_chi_p = _cutoff_piecewise(lambda x: 5.0 * x ** 4,
                           lambda x: 10.0 - 5.0 * (x - 2.0) ** 4,
                           lambda x: 5.0 * (x - 4.0) ** 4, 0.0)
_chi_pp = _cutoff_piecewise(lambda x: 20.0 * x ** 3,
                            lambda x: -20.0 * (x - 2.0) ** 3,
                            lambda x: 20.0 * (x - 4.0) ** 3, 0.0)


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
        label=f"cutoff_exp(a={a:g})")


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

def _log_head(spec: NonlinearitySpec, u: float, M: float) -> float:
    """log of integral_u^M ds/f(s), computed against the scale f(u).

    The integrand decays on the scale 1/g'(u); when the interval is much
    wider than that, it is split geometrically so the quadrature cannot
    miss the boundary layer at s = u.
    """
    gu = float(spec.g(u))

    def integrand(s):
        arg = gu - float(spec.g(s))
        return math.exp(arg) if arg > -745.0 else 0.0

    gpu = float(spec.gp(u))
    cuts = [u]
    if gpu > 0.0:
        b = u + 50.0 / gpu
        while b < M:
            cuts.append(b)
            b = u + 4.0 * (b - u)
    cuts.append(M)
    val = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        seg, _ = quad(integrand, a, b, epsabs=1e-15, epsrel=1e-13, limit=400)
        val += seg
    if val <= 0.0:
        return -math.inf
    return -gu + math.log(val)


def eval_F_log(spec: NonlinearitySpec, u: float) -> float:
    """log F(u), stable even where F(u) underflows to zero.

    The head integral_u^M is adaptive quadrature; the tail over [M, inf) is
    either a family closed form or, for log-convex g, the envelope bound
    1/(f(M) g'(M)) whose size is forced below TOL_F relative to the head.
    """
    u = float(u)
    if u <= 0.0:
        raise ValueError("F is defined for u > 0")
    exact = spec.tail.log_exact_tail
    if exact is not None:
        M = max(2.0 * u, u + 1.0, spec.tail.tail_start)
        log_head = _log_head(spec, u, M)
        return float(np.logaddexp(log_head, exact(M)))

    # no closed-form tail: push M out until the log-convexity bound is
    # negligible relative to the head
    M = max(2.0 * u, u + 1.0, spec.tail.log_convex_from * 1.01)
    log_head = _log_head(spec, u, M)
    for _ in range(200):
        gpM = float(spec.gp(M))
        if gpM > 0.0 and float(spec.gpp(M)) >= 0.0:
            log_tail = -float(spec.g(M)) - math.log(gpM)
            if log_tail - log_head < math.log(TOL_F):
                return float(np.logaddexp(log_head, log_tail))
        M_new = 2.0 * M
        seg = _log_head(spec, M, M_new)
        log_head = float(np.logaddexp(log_head, seg))
        M = M_new
        if not math.isfinite(M):
            break
    raise NonIntegrableTail(
        f"{spec.label}: could not certify an integrable tail for F({u:g})")


def eval_F(spec: NonlinearitySpec, u: float) -> float:
    """Barrier integral F(u) = integral_u^inf ds/f(s), to relative TOL_F."""
    return math.exp(eval_F_log(spec, u))


def _log_F_bracket(spec: NonlinearitySpec, t_min: float, t_max: float):
    """The tightest lo <= hi among 1, 2, 4, ... and 1, 1/2, 1/4, ... with
    log F(lo) >= t_max and log F(hi) <= t_min."""
    log_F = {}
    for factor, done, why in (
            (2.0, lambda v: v <= t_min, "no preimage found at large u"),
            (0.5, lambda v: v >= t_max, "requested value exceeds sup F")):
        x = 1.0
        while True:
            if x not in log_F:
                log_F[x] = eval_F_log(spec, x)
            if done(log_F[x]):
                break
            x *= factor
            if not 1e-290 <= x <= 2.0 ** 600:
                raise OutOfRange(why)
    return (max(x for x, v in log_F.items() if v >= t_max),
            min(x for x, v in log_F.items() if v <= t_min))


#: 16-point Gauss-Legendre rule on [-1, 1]
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)


def _log_integral_inv_f(spec: NonlinearitySpec, a, b):
    """(g(a), log of integral_a^b ds/f(s)) for arrays a <= b, each
    interval by the 16-point Gauss-Legendre rule against the scale f(a)."""
    s = a[:, None] + (b - a)[:, None] * (0.5 * (_GL_X + 1.0))
    ga = np.asarray(spec.g(a), dtype=float)
    gs = np.asarray(spec.g(s), dtype=float)
    with np.errstate(divide="ignore"):
        return ga, -ga + np.log(0.5 * (b - a) * (np.exp(ga[:, None] - gs)
                                                 @ _GL_W))


def eval_F_inverse_log(spec: NonlinearitySpec, log_y):
    """Solve F(u) = exp(log_y) for u, elementwise for an array log_y (a
    scalar returns a float).  F is strictly decreasing.

    One log F table serves the whole request, its nodes set by the
    request alone: they run from the lower power-of-two bracket end to 10
    units of g past the upper one (so the anchor's error is damped by
    e^-10), spaced 1/(4 g'(u)) (at most u/8).  log F is accumulated
    downward with logaddexp from eval_F_log at the top node, integrating
    e^-g over each segment by 16-point Gauss-Legendre.  Each root starts
    by linear interpolation in its segment; all are polished at once by
    Newton steps with the exact d log F/du = -exp(-g - log F).
    """
    scalar = np.ndim(log_y) == 0
    t = np.atleast_1d(np.asarray(log_y, dtype=float))
    lo, hi = _log_F_bracket(spec, float(t.min()), float(t.max()))
    g_top = float(spec.g(hi)) + 10.0
    nodes = [lo]
    while nodes[-1] < hi or float(spec.g(nodes[-1])) < g_top:
        u = nodes[-1]
        nodes.append(u + 0.25 / max(float(spec.gp(u)), 2.0 / u))
    nodes = np.array(nodes)
    _, seg = _log_integral_inv_f(spec, nodes[:-1], nodes[1:])
    log_F = np.logaddexp.accumulate(
        np.concatenate([[eval_F_log(spec, nodes[-1])], seg[::-1]]))[::-1]
    k = np.clip(np.searchsorted(-log_F, -t) - 1, 0, nodes.size - 2)
    u = nodes[k] + (nodes[k + 1] - nodes[k]) * (
        (log_F[k] - t) / (log_F[k] - log_F[k + 1]))
    for _ in range(8):
        k = np.clip(np.searchsorted(nodes, u, side="right") - 1,
                    0, nodes.size - 2)
        gu, head = _log_integral_inv_f(spec, u, nodes[k + 1])
        log_F_u = np.logaddexp(log_F[k + 1], head)
        step = (log_F_u - t) * np.exp(gu + log_F_u)
        u = np.clip(u + step, lo, nodes[-1])
        if np.all(np.abs(step) <= 4.0 * np.finfo(float).eps * u):
            break
    return float(u[0]) if scalar else u


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

    def to_json(self) -> str:
        doc = {
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
        return json.dumps(doc, indent=2)


def _reaction_integral_ratio(spec: NonlinearitySpec, u: float) -> float:
    """integral_0^u f(s) ds / f(u) for u > 0, computed in log space.

    The integrand f(s)/f(u) decays away from s = u on the scale 1/g'(u);
    that boundary layer (width at most 60/g'(u)) is integrated on its own
    before the rest of [0, u].
    """
    gu = float(spec.g(u))
    gpu = float(spec.gp(u))

    def integrand(s):
        if s <= 0.0:
            return 0.0
        arg = float(spec.g(s)) - gu
        return math.exp(arg) if arg > -745.0 else 0.0

    w = min(u, 60.0 / gpu) if gpu > 0.0 else u
    total, _ = quad(integrand, u - w, u, epsabs=1e-15, epsrel=1e-13, limit=400)
    if w < u:
        rest, _ = quad(integrand, 0.0, u - w, epsabs=1e-15, epsrel=1e-13,
                       limit=400)
        total += rest
    return total


def check_admissibility(spec: NonlinearitySpec,
                        dim: int) -> AdmissibilityReport:
    """Sampling-based machine check of the four admissibility conditions.

    A PASS means "no violation found on the sampled range"; the conditions
    quantify over all u > 0, which is undecidable numerically.  It samples
    2000 log-spaced points of [1e-6, 1e3]; the fourth condition's deficit
    Q(u)/(u f(u)) is checked at 80 log-spaced points of that range (each
    costs a quadrature) to -1e-12, relative once |Q/(u f)| > 1.
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
    q_norm = np.array([
        1.0 - (p_crit + 1.0) * _reaction_integral_ratio(spec, float(x))
        / float(x) for x in uq])
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
    exponential class.  Computed as g'(u) * (F(u) f(u)) in log space."""
    out = []
    prev = None
    for u in u_grid:
        u = float(u)
        if prev is not None and u <= prev:
            raise ValueError("u_grid must be strictly ascending")
        if u <= 0:
            raise ValueError("u_grid must be positive")
        prev = u
        log_val = (math.log(float(spec.gp(u)))
                   + eval_F_log(spec, u) + float(spec.g(u)))
        out.append((u, math.exp(log_val)))
    return out
