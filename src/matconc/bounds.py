"""Closed-form tail and expectation bounds for random Hermitian matrices.

Every calculator reports the raw bound value (which may exceed 1, exactly as
the formulas read) next to a clamped probability; comparisons in the test
harness use raw values so the formula semantics stay exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .matcore import (
    HermitianMatrix,
    ParameterError,
    PreconditionError,
    induced_norm,
    _array,
    _count,
    _grid,
    _hermitians,
    _opnorm,
    _real,
)

SQRT3 = math.sqrt(3.0)


def _clamp01(x: float) -> float:
    return min(1.0, max(0.0, x))


# ---------------------------------------------------------------------------
# parameter records


@dataclass(frozen=True)
class GaussExpParams:
    """Dimension d with variance scale v and size scale c, all nonnegative."""

    d: int
    v: float
    c: float

    def __post_init__(self):
        object.__setattr__(self, "d", _count(self.d, "d"))
        object.__setattr__(self, "v", _real(self.v, "v", 0))
        object.__setattr__(self, "c", _real(self.c, "c", 0))


@dataclass(frozen=True, eq=False)
class DobrushinSpec:
    """Interdependence matrix D (nonnegative, zero diagonal) plus sigma^2.

    Requires max(||D||_1->1, ||D||_inf->inf) < 1; b = 1/(1 - (||D||_1 + ||D||_inf)/2).
    """

    D: np.ndarray
    sigma2: float
    b: float = field(init=False)

    def __post_init__(self):
        d = _array(self.D, "D", square=True)
        if np.any(d.real < 0) or d.imag.any():
            raise ParameterError("D must be real and entrywise nonnegative")
        d = d.real
        if np.any(np.abs(np.diag(d)) > 0):
            raise ParameterError("D must have zero diagonal")
        object.__setattr__(self, "sigma2", _real(self.sigma2, "sigma2", 0))
        n1 = induced_norm(d, 1)
        ninf = induced_norm(d, math.inf)
        if n1 >= 1:
            raise PreconditionError(f"||D||_1->1 = {n1} must be < 1")
        if ninf >= 1:
            raise PreconditionError(f"||D||_inf->inf = {ninf} must be < 1")
        d.setflags(write=False)
        object.__setattr__(self, "D", d)
        object.__setattr__(self, "b", 1.0 / (1.0 - 0.5 * (n1 + ninf)))


@dataclass(frozen=True, eq=False)
class CompoundCovSpec:
    """Row dim p, column count n, entry variance sigma2 <= L^2, Hermitian B (n x n)."""

    p: int
    n: int
    sigma2: float
    L: float
    B: HermitianMatrix

    def __post_init__(self):
        object.__setattr__(self, "p", _count(self.p, "p"))
        object.__setattr__(self, "n", _count(self.n, "n"))
        object.__setattr__(self, "L", _real(self.L, "L", 0, strict=True))
        object.__setattr__(self, "sigma2", _real(self.sigma2, "sigma2", 0))
        if self.sigma2 > self.L**2 * (1 + 1e-12):
            raise ParameterError(f"need sigma2 <= L^2, got sigma2={self.sigma2} L={self.L}")
        object.__setattr__(self, "B", HermitianMatrix(self.B, "B", self.n))


@dataclass(frozen=True)
class HaarSpec:
    """Uniform bound R, step scale S, and total-variation sequence tv_i."""

    R: float
    S: float
    tv_seq: tuple
    d: int

    def __post_init__(self):
        object.__setattr__(self, "R", _real(self.R, "R", 0))
        object.__setattr__(self, "S", _real(self.S, "S", 0, strict=True))
        object.__setattr__(self, "d", _count(self.d, "d"))
        tv = tuple(_real(x, "tv value", 0) for x in np.ravel(np.array(self.tv_seq, dtype=object)))
        if any(x > 1 for x in tv):
            raise ParameterError(f"tv values must lie in [0,1], got {max(tv)}")
        object.__setattr__(self, "tv_seq", tv)

    @property
    def sigma2(self) -> float:
        ratio = 4.0 * self.R / self.S
        return 0.5 * self.S**2 * sum(min(1.0, ratio * t) for t in self.tv_seq)


@dataclass(eq=False)
class BoundCurve:
    """A named map t -> tail bound with parameter provenance.

    ``raw`` is the formula value (can exceed 1); ``prob`` clamps to [0,1].
    """

    name: str
    params: dict
    raw: Callable[[float], float]

    def prob(self, t: float) -> float:
        return _clamp01(self.raw(t))

    def sample(self, t_grid: Sequence[float]):
        return [(float(t), self.raw(t), self.prob(t)) for t in t_grid]

    def write_csv(self, fh, t_grid: Sequence[float]):
        kv = " ".join(f"{k}={self.params[k]!r}" for k in sorted(self.params))
        fh.write(f"# bound={self.name} {kv}\n")
        fh.write("t,raw,clamped\n")
        for t, raw, clamped in self.sample(t_grid):
            fh.write(f"{t!r},{raw!r},{clamped!r}\n")


# ---------------------------------------------------------------------------
# moment-method bounds


def chebyshev_tail(moments, t: float) -> dict:
    """Tail and mean bounds from a list of (p, E||X||_p^p) Schatten moments.

    tail is inf over the list of t^-p * moment; mean_bound is inf of
    moment^(1/p).  Any sublist gives a valid (weaker) bound.
    """
    moments = list(moments)
    if not moments:
        raise ParameterError("need at least one (p, moment) pair")
    t = _real(t, "t", 0, strict=True)
    moments = [(_real(p, "moment order", 1), _real(m, "moment", 0)) for p, m in moments]
    with np.errstate(over="ignore", under="ignore", divide="ignore"):  # t**p's limit, inf or 0
        tail_raw = min(float(m / np.float64(t) ** p) if m else m for p, m in moments)
    mean = min(m ** (1.0 / p) for p, m in moments)
    return {"tail_raw": tail_raw, "tail": _clamp01(tail_raw), "mean_bound": mean}


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_min(f: Callable[[float], float], lo: float, hi: float, iters: int = 120):
    """Golden-section minimum of a scalar function on [lo, hi]."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
        if b - a <= 1e-14 * (1 + abs(a) + abs(b)):
            break
    return (c, fc) if fc < fd else (d, fd)


def _grid_min(f: Callable[[float], float], pts: np.ndarray) -> float:
    """Min of f over grid points, tightened by golden search in the best cell."""
    vals = np.array([f(t) for t in pts])
    i = int(np.argmin(vals))
    best = float(vals[i])
    lo = pts[i - 1] if i > 0 else pts[i]
    hi = pts[i + 1] if i + 1 < len(pts) else pts[i]
    if hi > lo:
        _, refined = _golden_min(f, float(lo), float(hi))
        best = min(best, refined)
    return best


def _d_exp(d: int, g: float) -> float:
    """d * e^g, or its limit inf where e^g leaves the floats."""
    try:
        return d * math.exp(g)
    except OverflowError:
        return math.inf


def laplace_bounds(log_mgf: Callable[[float], float], d: int, t: float, theta_grid) -> dict:
    """Tail and mean bounds from the trace mgf via the Laplace transform method.

    Optimizes over the supplied grid (positive thetas for the upper
    quantities, negative for the lower ones) with golden-section refinement
    inside the best bracketing cell; any grid yields valid, conservative
    bounds.  A side with no grid points of the right sign comes back vacuous
    (inf for upper quantities, -inf for lower_mean).
    """
    t, grid = _real(t, "t"), np.asarray(sorted(_grid(theta_grid, "theta")))
    pos = grid[grid > 0]
    neg = grid[grid < 0]
    if pos.size == 0 and neg.size == 0:
        raise ParameterError("theta_grid contains only theta=0")
    d = _count(d, "d")

    logd = math.log(d)
    out = {}
    if pos.size:
        g = _grid_min(lambda th: -th * t + log_mgf(th), pos)
        out["upper_tail_raw"] = _d_exp(d, g)
        out["upper_mean"] = _grid_min(lambda th: (logd + log_mgf(th)) / th, pos)
    else:
        out["upper_tail_raw"] = math.inf
        out["upper_mean"] = math.inf
    if neg.size:
        # lower tail comes from the upper bound applied to -X: theta flips sign
        g = _grid_min(lambda th: th * t + log_mgf(th), neg)
        out["lower_tail_raw"] = _d_exp(d, g)
        # sup of (log d + log m(theta))/theta over theta < 0
        out["lower_mean"] = -_grid_min(lambda th: -(logd + log_mgf(th)) / th, neg)
    else:
        out["lower_tail_raw"] = math.inf
        out["lower_mean"] = -math.inf
    out["upper_tail"] = _clamp01(out["upper_tail_raw"])
    out["lower_tail"] = _clamp01(out["lower_tail_raw"])
    return out


# ---------------------------------------------------------------------------
# exponential-form tail bounds


def _exp_tail(d_factor: float, t: float, a: float, b: float = 0.0) -> float:
    """d_factor * exp(-t^2 / (a + b t)) at t >= 0, the one reader of every
    bound's t; a + b t = 0 means a deterministic matrix: zero tail off the origin."""
    t = _real(t, "t", 0)
    denom = a + b * t
    if denom <= 0:
        return float(d_factor) if t == 0 else 0.0
    # where t^2 overflows, t / (a/t + b): inf, and so a zero tail, if a/t + b is 0
    rate = t**2 / denom if t < 1e154 else t / max(a / t + b, math.ulp(0.0))
    return d_factor * math.exp(-rate)


def gaussexp_bounds(params: GaussExpParams, t: float) -> dict:
    """Tail d*exp(-t^2/(2v + 2ct)) and mean bound sqrt(2v log d) + c log d."""
    d, v, c = params.d, params.v, params.c
    raw = _exp_tail(d, t, 2 * v, 2 * c)
    logd = math.log(d)
    return {
        "tail_raw": raw,
        "tail": _clamp01(raw),
        "mean_bound": math.sqrt(2 * v * logd) + c * logd,
    }


def efron_stein_poly_rhs(p: int, v_moment: float) -> float:
    """sqrt(2(2p-1)) * (E||V||_p^p)^(1/2p), bounding (E||X||_2p^2p)^(1/2p)."""
    p, v_moment = _count(p, "p"), _real(v_moment, "moment", 0)
    return math.sqrt(2.0 * (2 * p - 1)) * v_moment ** (1.0 / (2 * p))


def efron_stein_exp_rhs(theta: float, psi: float, log_mgf_v: float) -> float:
    """(theta^2/psi)/(1 - 2 theta^2/psi) * log E tr-bar exp(psi V).

    Valid for |theta| <= sqrt(psi/2); the boundary gives an infinite bound.
    """
    theta, psi = _real(theta, "theta"), _real(psi, "psi", 0, strict=True)
    log_mgf_v = _real(log_mgf_v, "log mgf of a PSD proxy", 0)
    if abs(theta) > math.sqrt(psi / 2):
        raise PreconditionError(
            f"|theta|={abs(theta)} exceeds sqrt(psi/2)={math.sqrt(psi / 2)}"
        )
    ratio = theta**2 / psi
    denom = 1.0 - 2.0 * ratio
    if denom <= 0:
        return 0.0 if log_mgf_v == 0 else math.inf
    return ratio / denom * log_mgf_v


def self_bounded_bounds(d: int, v: float, c: float, t: float) -> dict:
    """Bounds under V <= vI + cX: tail d*exp(-t^2/(4v+6ct)), mean sqrt(4v log d)+3c log d."""
    d, v, c = _count(d, "d"), _real(v, "v", 0), _real(c, "c", 0)
    raw = _exp_tail(d, t, 4 * v, 6 * c)
    logd = math.log(d)
    return {
        "tail_raw": raw,
        "tail": _clamp01(raw),
        "mean_bound": math.sqrt(4 * v * logd) + 3 * c * logd,
    }


def bounded_diff_sigma(difference_bounds) -> float:
    """Boundedness parameter sigma^2 = ||sum_j A_j^2|| for Hermitian A_j."""
    mats = _hermitians(("difference bound", a) for a in difference_bounds)
    if not mats:
        raise ParameterError("need at least one difference bound")
    acc = np.zeros_like(mats[0])
    for a in mats:
        acc += a @ a
    return _opnorm(acc)


def bounded_diff_bounds(d: int, sigma2: float, t: float) -> dict:
    """Bounded-differences bounds: tail d*exp(-t^2/(2 sigma^2)), mean sigma*sqrt(2 log d)."""
    d, sigma2 = _count(d, "d"), _real(sigma2, "sigma2", 0)
    raw = _exp_tail(d, t, 2 * sigma2)
    return {
        "tail_raw": raw,
        "tail": _clamp01(raw),
        "mean_bound": math.sqrt(sigma2) * math.sqrt(2 * math.log(d)),
    }


def dobrushin_bounds(spec: DobrushinSpec, d: int, t: float) -> dict:
    """Weakly dependent bounded differences: tail d*exp(-t^2/(b sigma^2))."""
    d = _count(d, "d")
    b = spec.b
    raw = _exp_tail(d, t, b * spec.sigma2)
    return {
        "tail_raw": raw,
        "tail": _clamp01(raw),
        "mean_bound": math.sqrt(spec.sigma2) * math.sqrt(b * math.log(d)),
        "b": b,
    }


def compound_cov_bounds(spec: CompoundCovSpec, t: float) -> dict:
    """Tail and mean bounds for X = Z B Z* - E[Z B Z*], Z p x n with iid entries.

    tail = 2p * exp(-t^2 / (44(p sigma^2 + L^2)||B||_F^2 + 32 sqrt3 L p ||B|| t)).
    The stated formula covers general L directly; it agrees with the L=1 case
    under the homogeneity substitution (sigma2 -> sigma2/L^2, B -> L B).
    """
    p, s2, L = spec.p, spec.sigma2, spec.L
    fro2 = float(np.sum(np.abs(spec.B.a) ** 2))
    op = spec.B.norm()
    raw = _exp_tail(2.0 * p, t, 44.0 * (p * s2 + L**2) * fro2, 32.0 * SQRT3 * L * p * op)
    logp = math.log(p)
    mean = 2.0 * math.sqrt(44.0 * (p * s2 + L**2) * logp * fro2) + 32.0 * SQRT3 * L * p * logp * op
    return {"tail_raw": raw, "tail": _clamp01(raw), "mean_bound": mean}


def compound_psd_mgf(A, p: int, sigma2: float, theta: float) -> float:
    """Log trace-mgf bound for Z A Z* - E[Z A Z*] with PSD A and unit entry bound.

    Returns 8 theta^2 tr(A) (p sigma^2 ||A|| + max_j a_jj) / (1 - 24 p ||A|| theta)
    for 0 <= theta < 1/(24 p ||A||).
    """
    a = HermitianMatrix(A, "A")
    p, sigma2, theta = _count(p, "p"), _real(sigma2, "sigma2", 0), _real(theta, "theta")
    lam = a.eigvals()
    if lam[0] < -1e-10 * max(1.0, abs(lam[-1])):
        raise PreconditionError(f"A must be PSD; lambda_min = {lam[0]}")
    norm_a = a.norm()
    if theta < 0 or (norm_a > 0 and theta >= 1.0 / (24.0 * p * norm_a)):
        raise PreconditionError(
            f"theta={theta} outside [0, 1/(24 p ||A||)) = [0, {1.0 / (24.0 * p * norm_a) if norm_a else math.inf})"
        )
    if norm_a == 0 or theta == 0:
        return 0.0
    max_diag = float(np.max(a.a.diagonal().real))
    return (
        8.0 * theta**2 * a.trace() * (p * sigma2 * norm_a + max_diag)
        / (1.0 - 24.0 * p * norm_a * theta)
    )


def haar_bounds(spec: HaarSpec, t: float) -> dict:
    """Bounds from the total-variation series sigma^2 = S^2/2 sum min(1, 4R tv_i/S)."""
    s2 = spec.sigma2
    raw = _exp_tail(spec.d, t, 2 * s2)
    return {
        "tail_raw": raw,
        "tail": _clamp01(raw),
        "mean_bound": math.sqrt(s2) * math.sqrt(2 * math.log(spec.d)),
        "sigma2": s2,
    }


def rectangularize(model):
    """Wrap a rectangular-valued model so all Hermitian machinery applies.

    The new model's H is the Hermitian dilation of the old one; centering
    commutes with dilation, so the dilated X is the dilation of the original
    centered rectangular matrix and ||X_rect|| = lambda_max of the dilated X.
    """
    from .stein import dilate_model

    return dilate_model(model)


# named curve registry for the CLI and the tail harness

_CURVE_PARAMS = {
    "gaussexp": ("d", "v", "c"),
    "self_bounded": ("d", "v", "c"),
    "bounded_diff": ("d", "sigma2"),
    "dobrushin": ("d", "sigma2", "D"),
    "compound_cov": ("spec",),
    "haar": ("R", "S", "tv_seq", "d"),
}


def make_curve(name: str, **params) -> BoundCurve:
    """Build a BoundCurve for one of the named closed-form tail bounds."""
    required = _CURVE_PARAMS.get(name)
    if required is not None:
        missing = [k for k in required if k not in params]
        if missing:
            raise ParameterError(f"{name} curve needs parameters {missing}")
    if name in ("gaussexp", "self_bounded"):
        gp = GaussExpParams(params["d"], params["v"], params["c"])
        tail = gaussexp_bounds if name == "gaussexp" else (
            lambda gp, t: self_bounded_bounds(gp.d, gp.v, gp.c, t))
        return BoundCurve(name, {"d": gp.d, "v": gp.v, "c": gp.c},
                          lambda t: tail(gp, t)["tail_raw"])
    if name == "bounded_diff":
        d, s2 = _count(params["d"], "d"), _real(params["sigma2"], "sigma2", 0)
        return BoundCurve(name, {"d": d, "sigma2": s2},
                          lambda t: bounded_diff_bounds(d, s2, t)["tail_raw"])
    if name == "dobrushin":
        spec = DobrushinSpec(params["D"], params["sigma2"])
        d = _count(params["d"], "d")
        return BoundCurve(name, {"d": d, "sigma2": spec.sigma2, "b": spec.b},
                          lambda t: dobrushin_bounds(spec, d, t)["tail_raw"])
    if name == "compound_cov":
        spec = params["spec"]
        if not isinstance(spec, CompoundCovSpec):
            raise ParameterError("compound_cov curve needs spec=CompoundCovSpec")
        prov = {"p": spec.p, "n": spec.n, "sigma2": spec.sigma2, "L": spec.L}
        return BoundCurve(name, prov, lambda t: compound_cov_bounds(spec, t)["tail_raw"])
    if name == "haar":
        spec = HaarSpec(params["R"], params["S"], params["tv_seq"], params["d"])
        return BoundCurve(name, {"d": spec.d, "sigma2": spec.sigma2},
                          lambda t: haar_bounds(spec, t)["tail_raw"])
    raise ParameterError(f"unknown bound name {name!r}")
