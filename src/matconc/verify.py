"""Exact-enumeration theorem checks, trace-inequality fuzzing, tail harness.

Fuzz suites report the most negative normalized slack (RHS - LHS divided by
max(1, |RHS| + |LHS|)) over all trials together with a serialized worst case
that can be replayed bit-exactly.  Exact checks enumerate the product space
and compare both sides of the target inequality at tolerance 1e-10.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import bounds, stein
from .matcore import (
    DomainError,
    HermitianMatrix,
    ParameterError,
    RectMatrix,
    ShapeError,
    SuperOperator,
    _as_array,
    _as_herm_array,
    _opnorms,
    ntrace,
    spectral_apply,
)

FUZZ_TOL = 1e-9
EXACT_TOL = 1e-10
SCHEMA_VERSION = 1

# geometric grid for inf-over-s bounds; any grid gives a valid weaker check
DEFAULT_S_GRID = tuple(float(2.0 ** k) for k in np.linspace(-10.0, 10.0, 41))


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(int(seed)))


def _grid(values, kind, what: str) -> list:
    """A scalar or an iterable of values, each read as kind; an empty grid checks nothing."""
    out = [kind(values)] if isinstance(values, numbers.Real) else [kind(v) for v in values]
    if not out:
        raise ParameterError(f"empty {what} grid")
    return out


def _positive_ints(values, what: str) -> list:
    out = _grid(values, int, what)
    if any(v < 1 for v in out):
        raise ParameterError(f"{what} must be a positive integer, got {out}")
    return out


def _norm_slacks(lhs, rhs):
    """(rhs - lhs) / max(1, |rhs| + |lhs|), entrywise."""
    return (rhs - lhs) / np.maximum(1.0, np.abs(rhs) + np.abs(lhs))


# ---------------------------------------------------------------------------
# random ensembles

# Naive Gaussian triples rarely land near the tightness region of a trace
# inequality, so a fixed share of trials comes from adversarial families.
_KINDS = ("gaussian", "near_commuting", "rank1", "gapped")
_SPLIT = (0.7, 0.1, 0.1, 0.1)


def _pick_kind(rng) -> str:
    u = rng.random()
    acc = 0.0
    for kind, w in zip(_KINDS, _SPLIT):
        acc += w
        if u < acc:
            return kind
    return _KINDS[-1]


def _herm(a):
    """(a + a*)/2: exactly Hermitian, so a stored case replays bit for bit."""
    return (a + a.conj().T) / 2


def _gauss_herm(rng, d):
    return _herm(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))


def _rank1_herm(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    scale = rng.standard_normal()
    return _herm(scale * np.outer(v, v.conj()))


def _haar_basis(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diagonal(r))


def _gapped_herm(rng, d):
    u = _haar_basis(rng, d)
    lo = rng.standard_normal(d // 2) * 0.1 - 4.0
    hi = rng.standard_normal(d - d // 2) * 0.1 + 4.0
    w = np.concatenate([lo, hi])
    return _herm((u * w) @ u.conj().T)


def _draw_triple(rng, d):
    """(A, B, C, kind) from the mixed ensemble."""
    kind = _pick_kind(rng)
    if kind == "gaussian":
        return _gauss_herm(rng, d), _gauss_herm(rng, d), _gauss_herm(rng, d), kind
    if kind == "near_commuting":
        u = _haar_basis(rng, d)
        a = _herm((u * rng.standard_normal(d)) @ u.conj().T)
        b = _herm((u * rng.standard_normal(d)) @ u.conj().T) + 1e-3 * _gauss_herm(rng, d)
        return a, b, _gauss_herm(rng, d), kind
    if kind == "rank1":
        return _rank1_herm(rng, d), _rank1_herm(rng, d), _rank1_herm(rng, d), kind
    return _gapped_herm(rng, d), _gapped_herm(rng, d), _gauss_herm(rng, d), kind


# ---------------------------------------------------------------------------
# fuzz reports


@dataclass(eq=False)
class FuzzReport:
    """Outcome of one fuzz sweep; pass means min_slack >= -tolerance."""

    inequality: str
    trials: int
    dims: list
    min_slack: float
    worst_case: dict
    passed: bool
    tolerance: float = FUZZ_TOL
    min_slack_by_dim: dict = field(default_factory=dict)
    near_misses: list = field(default_factory=list)
    sections: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "inequality": self.inequality,
            "trials": self.trials,
            "dims": list(self.dims),
            "min_slack": self.min_slack,
            "min_slack_by_dim": {str(k): v for k, v in self.min_slack_by_dim.items()},
            "worst_case": self.worst_case,
            "near_misses": self.near_misses,
            "pass": self.passed,
            "tolerance": self.tolerance,
        }
        if self.sections:
            out["sections"] = self.sections
        return out


def _herm_json(a) -> dict:
    return HermitianMatrix(a).to_json()


def _rect_json(a) -> dict:
    return RectMatrix(a).to_json()


class _Worst:
    """The ``keep`` smallest slacks offered, with their serialized cases, and
    the smallest slack per dimension.  Of equal slacks the earlier offer ranks
    first, so a sweep keeps the cases that a one-trial-at-a-time loop keeps."""

    def __init__(self, keep: int):
        self.keep = keep
        self.cases: list = []
        self.by_dim: dict = {}

    def add(self, slacks: np.ndarray, case, dims=None) -> None:
        """Offer slacks[m, j] in row-major order; row m is of dimension dims[m].

        ``case(m, j)`` serializes one offer, and runs only for the block's
        ``keep`` smallest slacks that make it into the kept cases.
        """
        flat = slacks.ravel()
        top = [(float(flat[k]), divmod(int(k), slacks.shape[1]))
               for k in np.argsort(flat, kind="stable")[:self.keep]]
        kept = sorted(self.cases + top, key=lambda t: t[0])[:self.keep]
        self.cases = [(s, c if isinstance(c, dict) else {**case(*c), "slack": s})
                      for s, c in kept]
        if dims is not None:
            for d in dict.fromkeys(dims.tolist()):
                rows = slacks[dims == d]
                # argmin keeps the earlier of -0.0 and 0.0, as one offer at a time does
                self.low(d, float(rows.flat[np.argmin(rows)]))

    def take(self, cases: list, by_dim: dict) -> None:
        """Offer stored cases in list order, skipping empty ones, and stored
        minima per dimension."""
        cases = [c for c in cases if c]
        self.add(np.array([[c["slack"] for c in cases]], dtype=float), lambda _, j: cases[j])
        for d, s in by_dim.items():
            self.low(int(d), s)

    def low(self, d: int, slack: float) -> None:
        if slack < self.by_dim.get(d, math.inf):
            self.by_dim[d] = slack

    def report(self, inequality: str, trials: int, dims: list,
               tolerance: float = FUZZ_TOL, sections: dict | None = None) -> FuzzReport:
        min_slack = self.cases[0][0] if self.cases else math.inf
        return FuzzReport(
            inequality=inequality,
            trials=trials,
            dims=dims,
            min_slack=min_slack,
            worst_case=self.cases[0][1] if self.cases else {},
            passed=bool(min_slack >= -tolerance),
            tolerance=tolerance,
            min_slack_by_dim=dict(sorted(self.by_dim.items())),
            near_misses=[c for _, c in self.cases[1:]],
            sections=sections or {},
        )


def _section(report: FuzzReport) -> dict:
    """The summary of one form inside a pooled report."""
    out = report.to_json()
    return {k: out[k] for k in ("min_slack", "min_slack_by_dim", "worst_case", "pass")}


# ---------------------------------------------------------------------------
# stacked evaluators
#
# Each takes stacks of equally sized matrices along axis 0 and returns arrays
# with one entry per stack entry.  Every matrix is eigendecomposed once by
# np.linalg.eigh, and each scalar function acts on its eigenvalues and is
# recombined by matcore.spectral_apply.  Every step acts on one matrix or one
# entry at a time (LAPACK and BLAS per matrix, ufuncs with scalar exponents,
# sums in index order, integer powers by multiplication), so an entry's result
# does not depend on its place in the stack: the single-case eval_* functions,
# and replay_case through them, are the same code on stacks of one.

BLOCK_TRIALS = 256


def _sum_last(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis, in index order."""
    total = x[..., 0]
    for k in range(1, x.shape[-1]):
        total = total + x[..., k]
    return total


def _re_trace(m: np.ndarray) -> np.ndarray:
    """Real part of the trace of each matrix of a stack."""
    return _sum_last(np.diagonal(m, axis1=-2, axis2=-1).real)


def _transpose(m: np.ndarray) -> np.ndarray:
    return np.swapaxes(m, -1, -2)


def _int_power(w: np.ndarray, q: np.ndarray) -> np.ndarray:
    """w ** q for one integer q >= 0 per row of w, by repeated multiplication.

    np.power with an exponent array rounds the last bit of a row differently
    depending on where the row sits in the array; products do not.
    """
    out = np.ones_like(w)
    for k in range(int(np.max(q))):
        out = np.where((q > k)[..., None], out * w, out)
    return out


def _powers(w: np.ndarray, u: np.ndarray, q: np.ndarray) -> tuple:
    """M^q and |M|^{q-1} from the eigenpairs of M, for one integer q >= 1 per M."""
    if np.any(q < 1):
        raise ParameterError("q must be a positive integer")
    return (spectral_apply(u, _int_power(w, q)),
            spectral_apply(u, _int_power(np.abs(w), q - 1)))


def _split_s(coef, t_d: np.ndarray, t_c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """coef tr[(s D + C/s) P] from t_d = tr[D P] and t_c = tr[C P], one column per s."""
    return np.asarray(coef)[..., None] * (s * t_d[:, None] + t_c[:, None] / s)


def _pmvti_stack(A, B, C, q, s) -> tuple:
    """|tr[C(A^q - B^q)]|, and per s (q/4) tr[(s(A-B)^2 + C^2/s)(|A|^{q-1} + |B|^{q-1})]."""
    Aq, absA = _powers(*np.linalg.eigh(A), q)
    Bq, absB = _powers(*np.linalg.eigh(B), q)
    D, P = A - B, absA + absB
    return (np.abs(_re_trace(C @ (Aq - Bq))),
            _split_s(q / 4.0, _re_trace(D @ D @ P), _re_trace(C @ C @ P), s))


def _emvti_stack(A, B, C, s) -> tuple:
    """|tr-bar[C(e^A - e^B)]|, and per s (1/4) tr-bar[(s(A-B)^2 + C^2/s)(e^A + e^B)]."""
    (wA, uA), (wB, uB) = np.linalg.eigh(A), np.linalg.eigh(B)
    eA, eB = spectral_apply(uA, np.exp(wA)), spectral_apply(uB, np.exp(wB))
    D, E, d = A - B, eA + eB, A.shape[-1]
    return (np.abs(_re_trace(C @ (eA - eB))) / d,
            _split_s(0.25, _re_trace(D @ D @ E) / d, _re_trace(C @ C @ E) / d, s))


def _young_stack(A, B, p: float) -> tuple:
    """lambda_min of (1/p)|L_A|^p + (1/q)|R_B|^q - L_A R_B, and its scale.

    On column-stacked d x d matrices L_A = I (x) A and R_B = B^T (x) I, so
    |L_A|^p = I (x) |A|^p and |R_B|^q = (|B|^q)^T (x) I come from the d x d
    spectra; only the operator-order check itself is a d^2 x d^2 eigvalsh.
    """
    if not 1.0 < p < math.inf:
        raise ParameterError(f"p must lie in (1, inf), got {p}")
    q = p / (p - 1.0)
    d = A.shape[-1]
    (wA, uA), (wB, uB) = np.linalg.eigh(A), np.linalg.eigh(B)
    pa, qb = np.abs(wA) ** p, np.abs(wB) ** q
    left = spectral_apply(uA, pa / p)
    right = _transpose(spectral_apply(uB, qb / q))
    # -L_A R_B = (-B^T) (x) A, indexed [..., i, k, j, l]; the two Kronecker
    # terms of rhs go in place, so that this is the only large array
    diff = -_transpose(B)[..., :, None, :, None] * A[..., None, :, None, :]
    for i in range(d):
        diff[..., i, :, i, :] += left
    for k in range(d):
        diff[..., :, k, :, k] += right
    gap = np.linalg.eigvalsh(diff.reshape(diff.shape[:-4] + (d * d, d * d)))[..., 0]
    # ||L_A R_B|| = ||A|| ||B||; the two commuting PSD terms of rhs peak together
    top = np.max(np.abs(wA), axis=-1) * np.max(np.abs(wB), axis=-1)
    return gap, np.maximum(1.0, top + np.max(pa, axis=-1) / p + np.max(qb, axis=-1) / q)


def _operator_cs_stack(S, M, N) -> tuple:
    """|<M, S(N)>| and sqrt(<M,|S|M> <N,|S|N>) for self-adjoint S on d x d matrices.

    <M,|S|M> = sum_k |w_k| |<u_k, vec M>|^2 over the eigenpairs of S, so |S|
    itself, a d^2 x d^2 matrix, is never formed.
    """
    w, u = np.linalg.eigh(S)

    def vec(m):  # column-stacking vectorization, as a column
        return _transpose(m).reshape(m.shape[:-2] + (-1, 1))

    def quad(vh):  # <v, |S| v> from the coordinates v* u of v in the eigenbasis
        c = (vh @ u)[..., 0, :]
        return _sum_last(np.abs(w) * (c.real * c.real + c.imag * c.imag))

    mh, nh = np.conj(_transpose(vec(M))), np.conj(_transpose(vec(N)))
    lhs = np.abs((mh @ (S @ vec(N)))[..., 0, 0])
    return lhs, np.sqrt(np.maximum(quad(mh), 0.0) * np.maximum(quad(nh), 0.0))


def _xlogx(w):
    pos = w > 0
    return np.where(pos, w * np.log(np.where(pos, w, 1.0)), 0.0)


def _entropy_young_stack(U, W) -> tuple:
    """E tr-bar(UW) and log E tr-bar e^U + E tr-bar[W log W], atoms on axis -3."""
    d, k = U.shape[-1], U.shape[-3]
    lhs = _sum_last(_re_trace(U @ W) / d) / k
    mgf = _sum_last(_sum_last(np.exp(np.linalg.eigvalsh(U))) / d) / k
    ent = _sum_last(_sum_last(_xlogx(np.linalg.eigvalsh(W))) / d) / k
    return lhs, np.log(mgf) + ent


def _conjecture_stack(A, B, C, q, s) -> tuple:
    """Signed exponential and degree-q forms: (lhs_e, rhs_e, lhs_p, rhs_p), rhs per s."""
    (wA, uA), (wB, uB) = np.linalg.eigh(A), np.linalg.eigh(B)

    def squared_parts(M):  # (M_+)^2 and (M_-)^2
        w, u = np.linalg.eigh(M)
        return [spectral_apply(u, np.square(np.maximum(x, 0.0))) for x in (w, -w)]

    Dp, Dm = squared_parts(A - B)
    Cp, Cm = squared_parts(C)

    def rhs(coef, fA, fB):  # coef tr[(s D_+^2 + C_+^2/s) f(A) + (s D_-^2 + C_-^2/s) f(B)]
        return _split_s(coef, _re_trace(Dp @ fA + Dm @ fB), _re_trace(Cp @ fA + Cm @ fB), s)

    eA, eB = spectral_apply(uA, np.exp(wA)), spectral_apply(uB, np.exp(wB))
    (Aq, absA), (Bq, absB) = _powers(wA, uA, q), _powers(wB, uB, q)
    return (_re_trace(C @ (eA - eB)), rhs(0.5, eA, eB),
            _re_trace(C @ (Aq - Bq)), rhs(q / 2.0, absA, absB))


def _sweep(trials: int, draw, evaluate, take) -> None:
    """Draw all trials, evaluate them in blocks by dimension, take each block whole.

    ``draw()`` returns ``(d, inputs, kind)`` for one trial and is called in
    trial order, so the generator stream is that of a one-by-one loop.
    ``evaluate(*stacks)`` takes the inputs of one dimension stacked along
    axis 0 and returns arrays with one entry per trial.  ``take(block, dims,
    outs)`` then gets the block's trials, their dimensions as an array, and
    every output with its entries scattered back into trial order.  Blocks
    of BLOCK_TRIALS keep the stacks, and so the peak memory, small.
    """
    for start in range(0, trials, BLOCK_TRIALS):
        block = [draw() for _ in range(min(BLOCK_TRIALS, trials - start))]
        dims = np.array([d for d, _, _ in block])
        outs = None
        for d in dict.fromkeys(dims.tolist()):
            idx = np.flatnonzero(dims == d)
            got = evaluate(*(np.stack(col) for col in zip(*(block[i][1] for i in idx))))
            if outs is None:
                outs = [np.empty((len(block),) + g.shape[1:], g.dtype) for g in got]
            for out, g in zip(outs, got):
                out[idx] = g
        take(block, dims, outs)


# ---------------------------------------------------------------------------
# single-case evaluators (replay runs these): the stacked ones on stacks of one


def _one(x) -> np.ndarray:
    """A Hermitian argument as a stack of one."""
    return _as_herm_array(x)[None]


def _s_array(s_values) -> np.ndarray:
    return np.array(_grid(s_values, float, "s"))


def _first(*outs) -> tuple:
    """The one entry of each stacked output, as Python floats."""
    return tuple(float(out.flat[0]) for out in outs)


def eval_pmvti(A, B, C, q: int, s: float) -> tuple:
    """|tr[C (A^q - B^q)]| vs (q/4) tr[(s(A-B)^2 + C^2/s)(|A|^{q-1} + |B|^{q-1})]."""
    return _first(*_pmvti_stack(_one(A), _one(B), _one(C), np.array([int(q)]), _s_array([s])))


def eval_emvti(A, B, C, s: float) -> tuple:
    """|tr-bar[C (e^A - e^B)]| vs (1/4) tr-bar[(s(A-B)^2 + C^2/s)(e^A + e^B)]."""
    return _first(*_emvti_stack(_one(A), _one(B), _one(C), _s_array([s])))


def eval_young_commuting(A, B, p: float) -> tuple:
    """Normalized lambda_min slack of (1/p)|LA|^p + (1/q)|RB|^q - LA RB >= 0.

    LA, RB are the commuting left/right multiplication operators on d x d
    matrices, handled as d^2 x d^2 Hermitian matrices.  Returns the gap and
    the scale it is divided by.
    """
    return _first(*_young_stack(_one(A), _one(B), p))


def eval_operator_cs(S, M, N) -> tuple:
    """|<M, S(N)>| vs sqrt(<M,|S|M> <N,|S|N>) for self-adjoint S."""
    op = S if isinstance(S, SuperOperator) else SuperOperator(S)
    if not op.self_adjoint:
        raise ParameterError("operator must be self-adjoint")
    m, n = _as_array(M), _as_array(N)
    if m.shape != (op.dim, op.dim) or n.shape != (op.dim, op.dim):
        raise ShapeError(f"expected {op.dim}x{op.dim}, got {m.shape} and {n.shape}")
    return _first(*_operator_cs_stack(op.mat[None], m[None], n[None]))


def eval_matrix_entropy_young(Us, Ws) -> tuple:
    """E tr-bar(UW) vs log E tr-bar e^U + E tr-bar[W log W] on a finite ensemble.

    The (U, W) atoms are equally weighted; W must be PSD with E tr-bar W = 1.
    """
    if len(Us) != len(Ws) or not Us:
        raise ParameterError("need equally many U and W atoms")
    return _first(*_entropy_young_stack(np.stack([_as_herm_array(u) for u in Us])[None],
                                        np.stack([_as_herm_array(w) for w in Ws])[None]))


def eval_conjecture(A, B, C, q: int, s: float) -> dict:
    """Signed one-sided forms: exponential and degree-q polynomial slacks."""
    lhs_e, rhs_e, lhs_p, rhs_p = _first(*_conjecture_stack(
        _one(A), _one(B), _one(C), np.array([int(q)]), _s_array([s])))
    return {"exp": (lhs_e, rhs_e), "poly": (lhs_p, rhs_p)}


# ---------------------------------------------------------------------------
# fuzz suites


def _fuzz(trials: int, dims: list, draw, evaluate, *forms, keep: int = 5) -> list:
    """One FuzzReport per form ``(inequality, slacks, case)`` over ``trials`` draws.

    ``slacks(*outs)`` turns the outputs of a block into its slack matrix, one
    row per trial and one column per grid point; ``case(trial, j)``
    serializes the trial at grid point j.
    """
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    worst = [_Worst(keep) for _ in forms]

    def take(block, block_dims, outs):
        for w, (_, slacks, case) in zip(worst, forms):
            w.add(slacks(*outs), lambda i, j: case(block[i], j), block_dims)

    _sweep(trials, draw, evaluate, take)
    return [w.report(name, trials, dims) for w, (name, _, _) in zip(worst, forms)]


def _slack_matrix(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Normalized slacks of one lhs per trial against its rhs (one per grid point)."""
    return _norm_slacks(lhs[:, None], rhs.reshape(len(rhs), -1))


def _triple_draws(rng, dims: list, qs: list | None = None):
    """The draw of one triple trial: d, then q if qs is given, then (A, B, C)."""
    def draw():
        d = dims[int(rng.integers(0, len(dims)))]
        q = () if qs is None else (qs[int(rng.integers(0, len(qs)))],)
        A, B, C, kind = _draw_triple(rng, d)
        return d, (A, B, C) + q, kind
    return draw


def _triple_case(ineq: str, trial, keys: str = "ABC", **params) -> dict:
    _, mats, kind = trial
    case = {"ineq": ineq, "kind": kind, **params}
    case.update(zip(keys, map(_herm_json, mats)))
    return case


def fuzz_pmvti(d_range, q_range, s_values, trials: int, seed: int) -> FuzzReport:
    """Degree-q polynomial mean value trace inequality over random triples."""
    dims, qs, ss = _positive_ints(d_range, "d"), _positive_ints(q_range, "q"), _s_array(s_values)
    return _fuzz(trials, dims, _triple_draws(_rng(seed), dims, qs),
                 lambda A, B, C, q: _pmvti_stack(A, B, C, q, ss),
                 ("pmvti", _slack_matrix, lambda t, j: _triple_case(
                     "pmvti", t, q=t[1][3], s=float(ss[j]))))[0]


def fuzz_emvti(d_range, s_values, trials: int, seed: int) -> FuzzReport:
    """Exponential mean value trace inequality over random triples."""
    dims, ss = _positive_ints(d_range, "d"), _s_array(s_values)
    return _fuzz(trials, dims, _triple_draws(_rng(seed), dims),
                 lambda A, B, C: _emvti_stack(A, B, C, ss),
                 ("emvti", _slack_matrix, lambda t, j: _triple_case(
                     "emvti", t, s=float(ss[j]))))[0]


def fuzz_young_commuting(d_range, p: float, trials: int, seed: int) -> FuzzReport:
    """Operator Young inequality for commuting left/right multiplications."""
    dims = _positive_ints(d_range, "d")
    return _fuzz(trials, dims, _triple_draws(_rng(seed), dims),
                 lambda A, B, C: _young_stack(A, B, p),
                 (f"young_commuting(p={p})", lambda gap, scale: (gap / scale)[:, None],
                  lambda t, _: _triple_case("young_commuting", t, "AB", p=float(p))))[0]


def fuzz_operator_cs(d_range, trials: int, seed: int) -> FuzzReport:
    """Cauchy-Schwarz for a self-adjoint operator on matrices."""
    dims = _positive_ints(d_range, "d")
    rng = _rng(seed)

    def draw():
        d = dims[int(rng.integers(0, len(dims)))]
        raw = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
        S = (raw + raw.conj().T) / 2
        if rng.random() < 0.1:
            # rank-1 arguments probe the equality direction
            M = _rank1_herm(rng, d)
            N = _rank1_herm(rng, d)
        else:
            M = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            N = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return d, (S, M, N), None

    return _fuzz(trials, dims, draw, _operator_cs_stack,
                 ("operator_cs", _slack_matrix, lambda t, _: {
                     "ineq": "operator_cs", **dict(zip("SMN", map(_rect_json, t[1])))}))[0]


def fuzz_matrix_entropy_young(d_range, ensemble_size: int, trials: int,
                              seed: int) -> FuzzReport:
    """Duality bound for matrix entropy on finite equally-weighted ensembles."""
    dims = _positive_ints(d_range, "d")
    if ensemble_size < 1:
        raise ParameterError(f"ensemble_size must be >= 1, got {ensemble_size}")
    rng = _rng(seed)

    def draw():
        d = dims[int(rng.integers(0, len(dims)))]
        Us = [_gauss_herm(rng, d) for _ in range(ensemble_size)]
        raws = []
        for _ in range(ensemble_size):
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            raws.append(_herm(g @ g.conj().T))
        # normalize so the ensemble mean of tr-bar W is exactly 1
        total = sum(ntrace(r).real for r in raws) / ensemble_size
        Ws = [r / total for r in raws]
        return d, (np.stack(Us), np.stack(Ws)), None

    return _fuzz(trials, dims, draw, _entropy_young_stack,
                 ("matrix_entropy_young", _slack_matrix, lambda t, _: {
                     "ineq": "matrix_entropy_young",
                     "U": [_herm_json(u) for u in t[1][0]],
                     "W": [_herm_json(w) for w in t[1][1]]}))[0]


def explore_conjecture(d_range, q_range, s_values, trials: int, seed: int) -> FuzzReport:
    """Sweep the signed trace-inequality forms; reports, never raises.

    Both one-sided forms are evaluated on every triple and tracked
    separately, because they behave differently already in the scalar case:
    the exponential form holds there (a case split over sign(a - b) and
    sign(c) reduces it to Young's inequality against e^{max(a,b)}), while
    the polynomial form fails outright, e.g. d=1, q=2, s=1 with
    a=0, b=-2, c=-1 gives lhs 4 > rhs 2.  The report therefore carries a
    per-form section next to the pooled summary, and the pooled pass flag
    is advisory only.
    """
    dims, qs, ss = _positive_ints(d_range, "d"), _positive_ints(q_range, "q"), _s_array(s_values)

    def form(k, ineq):  # outputs 2k and 2k + 1 of _conjecture_stack are its lhs and rhs
        return (ineq, lambda *outs: _slack_matrix(*outs[2 * k:2 * k + 2]),
                lambda t, j: _triple_case(ineq, t, q=t[1][3], s=float(ss[j])))

    per_form = _fuzz(trials, dims, _triple_draws(_rng(seed), dims, qs),
                     lambda A, B, C, q: _conjecture_stack(A, B, C, q, ss),
                     form(0, "conjecture_exp"), form(1, "conjecture_poly"), keep=4)
    sections = {"exp": _section(per_form[0]), "poly": _section(per_form[1])}
    return _pool(per_form, 8, "signed_mvti_conjecture", trials, dims, sections)


def _pool(reports, keep: int, inequality: str, trials: int, dims: list,
          sections: dict, tolerance: float = FUZZ_TOL) -> FuzzReport:
    """One report from the stored cases of ``reports``, in list order, through
    the selector, with the minimum per dimension."""
    worst = _Worst(keep)
    for r in reports:
        worst.take([r.worst_case, *r.near_misses], r.min_slack_by_dim)
    return worst.report(inequality, trials, dims, tolerance, sections)


def merge_fuzz_reports(reports) -> FuzzReport:
    """Combine chunked sweeps of the same inequality, in list order."""
    reports = list(reports)
    if not reports:
        raise ParameterError("nothing to merge")
    name = reports[0].inequality
    tol = reports[0].tolerance
    if any(r.inequality != name or r.tolerance != tol for r in reports):
        raise ParameterError("cannot merge reports of different suites")
    trials = sum(r.trials for r in reports)
    dims = sorted({int(d) for r in reports for d in r.dims})
    forms: dict = {}
    for r in reports:
        for form, sec in r.sections.items():
            forms.setdefault(form, _Worst(keep=1)).take([sec["worst_case"]],
                                                         sec["min_slack_by_dim"])
    sections = {form: _section(w.report(form, trials, dims, tol)) for form, w in forms.items()}
    return _pool(reports, 5, name, trials, dims, sections, tol)


def replay_case(case: dict) -> dict:
    """Re-evaluate one serialized worst case; returns lhs/rhs/slack."""
    ineq = case.get("ineq")

    def herms(keys):
        return [HermitianMatrix.from_json(case[k]) for k in keys]

    if ineq == "pmvti":
        lhs, rhs = eval_pmvti(*herms("ABC"), int(case["q"]), float(case["s"]))
    elif ineq == "emvti":
        lhs, rhs = eval_emvti(*herms("ABC"), float(case["s"]))
    elif ineq == "young_commuting":
        lhs, rhs = eval_young_commuting(*herms("AB"), float(case["p"]))
        return {"ineq": ineq, "lambda_min_gap": lhs, "scale": rhs,
                "slack": lhs / rhs}
    elif ineq == "operator_cs":
        lhs, rhs = eval_operator_cs(*(RectMatrix.from_json(case[k]).a for k in "SMN"))
    elif ineq == "matrix_entropy_young":
        lhs, rhs = eval_matrix_entropy_young(
            *([HermitianMatrix.from_json(m) for m in case[k]] for k in "UW"))
    elif ineq in ("conjecture_exp", "conjecture_poly"):
        both = eval_conjecture(*herms("ABC"), int(case["q"]), float(case["s"]))
        lhs, rhs = both[ineq[len("conjecture_"):]]
    else:
        raise ParameterError(f"unknown inequality {ineq!r}")
    return {"ineq": ineq, "lhs": lhs, "rhs": rhs, "slack": float(_norm_slacks(lhs, rhs))}


# ---------------------------------------------------------------------------
# exact theorem checks on finite models: one batched eigvalsh per outcome-tensor
# stack, with every Schatten moment and trace mgf read off the eigenvalues


def _spectra(T: np.ndarray) -> np.ndarray:
    """Eigenvalues of every matrix of an outcome tensor, one row per outcome."""
    return np.linalg.eigvalsh(stein.outcome_stack(T))


def _moment(probs: np.ndarray, lam: np.ndarray, q: float) -> float:
    """E ||M||_q^q for Hermitian M(z) with eigenvalue rows lam."""
    return float(probs @ np.sum(np.abs(lam) ** q, axis=1))


def _log_trace_mgf(probs: np.ndarray, lam: np.ndarray, scale: float) -> float:
    """log E tr-bar e^{scale M} for Hermitian M(z) with eigenvalue rows lam."""
    with np.errstate(over="ignore"):
        mgf = float(probs @ np.mean(np.exp(scale * lam), axis=1))
    if not math.isfinite(mgf):
        raise DomainError(f"trace mgf overflows at scale {scale!r}")
    return math.log(mgf)


def verify_poly_efron_stein(model: stein.MatrixModel, p_list,
                            tol: float = EXACT_TOL) -> dict:
    """(E ||X||_{2p}^{2p})^{1/2p} vs sqrt(2(2p-1)) (E ||V||_p^p)^{1/2p}, exactly."""
    if not model.exact:
        raise ParameterError("model is too large to enumerate")
    probs = model.dist.probabilities().ravel()
    lam_x = _spectra(model.X_tensor())
    lam_v = _spectra(stein.variance_proxy_map(model))
    results = []
    for p in p_list:
        p = int(p)
        lhs = _moment(probs, lam_x, 2 * p) ** (1.0 / (2 * p))
        rhs = bounds.efron_stein_poly_rhs(p, _moment(probs, lam_v, p))
        slack = rhs - lhs
        results.append({"p": p, "lhs": lhs, "rhs": rhs, "slack": slack,
                        "pass": bool(slack >= -tol)})
    return {
        "schema_version": SCHEMA_VERSION,
        "check": "poly_efron_stein",
        "model": model.name,
        "tolerance": tol,
        "results": results,
        "pass": all(r["pass"] for r in results),
    }


def verify_exp_efron_stein(model: stein.MatrixModel, theta_grid, psi_grid,
                           tol: float = EXACT_TOL) -> dict:
    """Exponential moment domination on the admissible (theta, psi) pairs."""
    if not model.exact:
        raise ParameterError("model is too large to enumerate")
    probs = model.dist.probabilities().ravel()
    lam_x = _spectra(model.X_tensor())
    lam_v = _spectra(stein.variance_proxy_map(model))
    results = []
    skipped = []
    for psi in psi_grid:
        psi = float(psi)
        log_mgf_v = _log_trace_mgf(probs, lam_v, psi)
        for theta in theta_grid:
            theta = float(theta)
            if abs(theta) > math.sqrt(psi / 2.0):
                skipped.append({"theta": theta, "psi": psi})
                continue
            lhs = _log_trace_mgf(probs, lam_x, theta)
            rhs = bounds.efron_stein_exp_rhs(theta, psi, log_mgf_v)
            slack = rhs - lhs
            results.append({"theta": theta, "psi": psi, "lhs": lhs, "rhs": rhs,
                            "slack": slack, "pass": bool(slack >= -tol)})
    return {
        "schema_version": SCHEMA_VERSION,
        "check": "exp_efron_stein",
        "model": model.name,
        "tolerance": tol,
        "results": results,
        "skipped": skipped,
        "pass": all(r["pass"] for r in results),
    }


def verify_kernel_poly_moments(model: stein.MatrixModel, kernel, p_list, s_grid,
                               tol: float = EXACT_TOL) -> dict:
    """Moment bound through the kernel conditional variances, for each (p, s).

    With an estimated kernel the true V^K is only known up to the per-pair
    standard-error plus truncation budget; the check inflates V^K by that
    radius times the identity, which weakens the bound but keeps it valid.
    """
    if not model.exact:
        raise ParameterError("model is too large to enumerate")
    vx, vk = stein.conditional_variance_map(model, kernel)

    def inflation_term(j, v):  # E[(2 ||K|| r + r^2)/2 | Z=z], r the pair's error radius
        r = kernel.radius_on_neighbours(j, v)
        knorm = _opnorms(kernel.on_neighbours(j, v))
        return (2.0 * knorm * r + r * r) / 2.0

    inflation = 0.0
    if isinstance(kernel, stein.EstimatedKernel):
        inflation = float(np.max(stein.replacement_sum(model.dist, inflation_term,
                                                       pair_law=True)))
    vk = vk + inflation * np.eye(model.d)
    probs = model.dist.probabilities().ravel()
    lam_x = _spectra(model.X_tensor())
    s_grid = [float(s) for s in s_grid]
    lam_s = [_spectra(0.5 * (s * vx + vk / s)) for s in s_grid]
    results = []
    for p in p_list:
        p = int(p)
        lhs = _moment(probs, lam_x, 2 * p) ** (1.0 / (2 * p))
        per_s = []
        for s, lam in zip(s_grid, lam_s):
            rhs = math.sqrt(2 * p - 1) * _moment(probs, lam, p) ** (1.0 / (2 * p))
            per_s.append({"s": s, "rhs": rhs, "slack": rhs - lhs,
                          "pass": bool(rhs - lhs >= -tol)})
        best = min(per_s, key=lambda r: r["rhs"])
        results.append({"p": p, "lhs": lhs, "best_rhs": best["rhs"],
                        "best_s": best["s"], "grid": per_s,
                        "pass": all(r["pass"] for r in per_s)})
    return {
        "schema_version": SCHEMA_VERSION,
        "check": "kernel_poly_moments",
        "model": model.name,
        "tolerance": tol,
        "kernel_inflation": inflation,
        "results": results,
        "pass": all(r["pass"] for r in results),
    }


def variance_domination(model: stein.MatrixModel, kernel, tol: float = 1e-9) -> dict:
    """Var[X] vs (1/2) E[V_X + V^K] in the semidefinite order."""
    if not model.exact:
        raise ParameterError("model is too large to enumerate")
    vx, vk = stein.conditional_variance_map(model, kernel)
    X = model.X_tensor()
    gap = float(np.linalg.eigvalsh(model.expect(0.5 * (vx + vk)) - model.expect(X @ X))[0])
    return {"lambda_min_gap": gap, "pass": bool(gap >= -tol)}


# ---------------------------------------------------------------------------
# empirical tails


def dkw_radius(samples: int, alpha: float) -> float:
    """Two-sided uniform band half-width sqrt(log(2/alpha) / (2N))."""
    if samples < 1:
        raise ParameterError(f"samples must be >= 1, got {samples}")
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * samples))


@dataclass(eq=False)
class TailComparison:
    """Empirical survival curve with its uniform band, vs an optional bound."""

    statistic: str
    t_grid: np.ndarray
    survival: np.ndarray
    radius: float
    alpha: float
    samples: int
    seed: int
    bound_name: str | None = None
    bound_values: np.ndarray | None = None
    violations: list = field(default_factory=list)

    @property
    def dominated(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "statistic": self.statistic,
            "t_grid": [float(t) for t in self.t_grid],
            "survival": [float(v) for v in self.survival],
            "dkw_radius": self.radius,
            "alpha": self.alpha,
            "samples": self.samples,
            "seed": self.seed,
            "violations": [float(t) for t in self.violations],
        }
        if self.bound_name is not None:
            out["bound"] = self.bound_name
            out["bound_values"] = [float(v) for v in self.bound_values]
        return out


def sample_statistics(model, samples: int, seed: int, statistic: str) -> np.ndarray:
    """Per-sample lambda_max or operator norm of the centered matrix.

    For a rectangular model both are the largest singular value, which is
    lambda_max of the Hermitian dilation.  An enumerable model decomposes
    each of its S outcomes once and gathers by the samples' outcome indices;
    LAPACK runs per matrix, so each value is the per-sample one bit for bit.
    """
    if statistic not in ("lmax", "opnorm"):
        raise ParameterError(f"unknown statistic {statistic!r}")
    if isinstance(model, stein.RectangularModel):
        xs = np.stack([model.X(z) for z, _ in model.dist.outcomes()])
        return np.linalg.svd(xs, compute_uv=False)[:, 0][
            model.dist.sample_outcomes(_rng(seed), samples)]
    if model.exact:
        eigs = np.linalg.eigvalsh(stein.outcome_stack(model.X_tensor()))[
            model.dist.sample_outcomes(_rng(seed), samples)]
    else:
        eigs = np.linalg.eigvalsh(model.sample_X(samples, seed))
    if statistic == "lmax":
        return eigs[:, -1]
    return np.maximum(eigs[:, -1], -eigs[:, 0])


def empirical_tail(model, samples: int, t_grid, seed: int, curve=None,
                   alpha: float = 0.01, statistic: str = "lmax") -> TailComparison:
    """Empirical survival of the chosen statistic, with a DKW band.

    When a BoundCurve is supplied, flags every grid point where the raw bound
    plus the band half-width fails to dominate the empirical survival.
    """
    if samples < 100:
        raise ParameterError(f"need at least 100 samples, got {samples}")
    t_grid = np.asarray(t_grid, dtype=float)
    vals = np.sort(sample_statistics(model, samples, seed, statistic))
    surv = (samples - np.searchsorted(vals, t_grid, side="left")) / samples
    radius = dkw_radius(samples, alpha)
    out = TailComparison(statistic, t_grid, surv, radius, alpha, samples, int(seed))
    if curve is not None:
        bound_vals = np.array([curve.raw(float(t)) for t in t_grid])
        out.bound_name = curve.name
        out.bound_values = bound_vals
        out.violations = [float(t) for t, b, s in zip(t_grid, bound_vals, surv)
                          if b + radius < s]
    return out
