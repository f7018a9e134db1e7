"""Exact-enumeration theorem checks, trace-inequality fuzzing, tail harness.

Fuzz suites report the most negative normalized slack (RHS - LHS divided by
max(1, |RHS| + |LHS|)) over all trials together with a serialized worst case
that can be replayed bit-exactly.  Exact checks enumerate the product space
and compare both sides of the target inequality at tolerance 1e-10.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import _lazy
from .matcore import (
    DomainError,
    HermitianMatrix,
    ParameterError,
    RectMatrix,
    SuperOperator,
    _array,
    _count,
    _field,
    _grid,
    _herm,
    _hermitians,
    _real,
    _rng,
    hermitian_json,
    rect_json,
    spectral_apply,
)

# run on first use: the fuzz verbs read neither
bounds, stein = _lazy("bounds"), _lazy("stein")

FUZZ_TOL = 1e-9
EXACT_TOL = 1e-10
_DOMINATION_TOL = 1e-9  # the most negative eigenvalue variance_domination passes
SCHEMA_VERSION = 1

# geometric grid for inf-over-s bounds; any grid gives a valid weaker check
DEFAULT_S_GRID = tuple(float(2.0 ** k) for k in np.linspace(-10.0, 10.0, 41))


class VerificationFailure(Exception):
    """A check ran to completion and did not pass."""


def _norm_slacks(lhs, rhs):
    """(rhs - lhs) / max(1, |rhs| + |lhs|), entrywise."""
    return (rhs - lhs) / np.maximum(1.0, np.abs(rhs) + np.abs(lhs))


# ---------------------------------------------------------------------------
# random ensembles

# Naive Gaussian triples rarely land near the tightness region of a trace
# inequality, so a fixed share of trials comes from adversarial families.
_KINDS = ("gaussian", "near_commuting", "rank1", "gapped")
_SPLIT = (0.7, 0.1, 0.1, 0.1)


def _gauss(rng, *shape):
    """Complex standard Gaussian entries of the given shape, in one call."""
    return rng.standard_normal(shape + (2,)).view(np.complex128)[..., 0]


def _haar(g):
    """Haar unitaries from complex Gaussian matrices, by one batched qr."""
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]


def _rank1(rng, k, n, d):
    """k stacks of n Hermitian c v v* with complex Gaussian v and real c."""
    v, c = _gauss(rng, k, n, d), rng.standard_normal((k, n, 1, 1))
    return _herm(c * v[..., :, None] * np.conj(v[..., None, :]))


def _triple_group(rng, kind: int, n: int, d: int) -> tuple:
    """The (A, B, C) stacks of n trials of one kind and dimension."""
    name = _KINDS[kind]
    if name == "rank1":
        return tuple(_rank1(rng, 3, n, d))
    z = _gauss(rng, 3, n, d, d)
    if name == "gaussian":
        return tuple(_herm(z))
    w = rng.standard_normal((2, n, d))
    if name == "near_commuting":  # one Haar eigenbasis, B perturbed by 1e-3
        (a, b), (p, c) = _herm(spectral_apply(_haar(z[0]), w)), _herm(z[1:])
        return a, b + 1e-3 * p, c
    # gapped: spectra near -4 and +4, each in its own Haar basis
    w = 0.1 * w + np.where(np.arange(d) < d // 2, -4.0, 4.0)
    return (*_herm(spectral_apply(_haar(z[:2]), w)), _herm(z[2]))


def _operator_cs_group(rng, _, n: int, d: int) -> tuple:
    """(S, M, N) stacks; rank-1 M and N, in one trial of ten, probe equality."""
    S, (M, N) = _herm(_gauss(rng, n, d * d, d * d)), _gauss(rng, 2, n, d, d)
    rank1 = rng.random(n) < 0.1
    M[rank1], N[rank1] = _rank1(rng, 2, int(np.sum(rank1)), d)
    return S, M, N


def _ensemble_group(size: int, rng, _, n: int, d: int) -> tuple:
    """(U, W) stacks of n ensembles of ``size`` atoms; each ensemble's mean tr-bar W is 1."""
    U, G = _gauss(rng, 2, n, size, d, d)
    raw = _herm(G @ np.conj(_transpose(G)))
    return _herm(U), raw / (np.sum(_re_trace(raw), axis=-1) / (d * size))[:, None, None, None]


def _block_draws(rng, group, qs: list | None = None, kinds: bool = False):
    """``draw(d, m)`` for _fuzz, in fuzz stream version 3.

    A block of m trials of dimension d draws their q values (if ``qs`` is
    given) and kind uniforms (if ``kinds``, by _SPLIT) as length-m arrays.
    Then, by ascending kind, ``group(rng, kind, n, d)`` draws the inputs of
    the n trials of each kind at once; the block's trials are in that order.
    Returns the block's stacks, q last, and its kind names or None.
    """
    cuts = np.cumsum(_SPLIT)[:-1]

    def draw(d, m):
        q = () if qs is None else (np.array(qs)[rng.integers(0, len(qs), m)],)
        k_of = np.sort(np.searchsorted(cuts, rng.random(m), side="right")) if kinds else \
            np.zeros(m, int)
        parts = [group(rng, k, n, d) for k, n in enumerate(np.bincount(k_of).tolist()) if n]
        stacks = tuple(np.concatenate(a) for a in zip(*parts)) + q
        return stacks, [_KINDS[k] for k in k_of.tolist()] if kinds else None
    return draw


# ---------------------------------------------------------------------------
# fuzz reports


@dataclass(eq=False)
class FuzzReport:
    """Outcome of one fuzz sweep; pass means min_slack >= -FUZZ_TOL."""

    inequality: str
    trials: int
    dims: list
    min_slack: float
    worst_case: dict
    passed: bool
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
            "tolerance": FUZZ_TOL,
        }
        if self.sections:
            out["sections"] = self.sections
        return out


def _report(inequality: str, trials: int, dims, cases: list, by_dim: dict,
            sections: dict | None = None) -> FuzzReport:
    """The report on the kept ``cases``, nonempty and by ascending slack, with the smallest
    slack per dimension ``by_dim``; its dims are the d grid's distinct entries, ascending."""
    return FuzzReport(
        inequality=inequality,
        trials=trials,
        dims=sorted(set(dims)),
        min_slack=cases[0]["slack"],
        worst_case=cases[0],
        passed=bool(cases[0]["slack"] >= -FUZZ_TOL),
        min_slack_by_dim=dict(sorted(by_dim.items())),
        near_misses=cases[1:],
        sections=sections or {},
    )


class _Worst:
    """The serialized cases of the ``keep`` smallest slacks of a sweep's blocks,
    and the smallest slack per dimension.  Of equal slacks the earlier offer ranks
    first, so a sweep keeps the cases that a one-trial-at-a-time loop keeps."""

    def __init__(self, keep: int):
        self.keep = keep
        self.cases: list = []
        self.by_dim: dict = {}

    def add(self, slacks: np.ndarray, case, d: int) -> None:
        """Offer slacks[m, j] in row-major order; every row is of dimension d.

        ``case(m, j)`` serializes one offer, and runs only for the block's
        ``keep`` smallest slacks that make it into the kept cases.
        """
        flat = slacks.ravel()
        top = [(float(flat[k]), divmod(int(k), slacks.shape[1]))
               for k in np.argsort(flat, kind="stable")[:self.keep]]
        kept = sorted([(c["slack"], c) for c in self.cases] + top, key=lambda t: t[0])
        self.cases = [c if isinstance(c, dict) else {**case(*c), "slack": s}
                      for s, c in kept[:self.keep]]
        # argmin and min keep the earlier of -0.0 and 0.0, as one offer at a time does
        low = float(flat[np.argmin(flat)])
        self.by_dim[d] = min(self.by_dim.get(d, low), low)


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
    """M^q and |M|^{q-1} from the eigenpairs of M, for one integer q >= 1 per M
    (the q grids and eval_* read q as counts)."""
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
    p = _real(p, "p", 1, strict=True)
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


# ---------------------------------------------------------------------------
# single-case evaluators (replay runs these): the stacked ones on stacks of one


def _ones(*mats) -> list:
    """The Hermitian arguments A, B, ... of one dimension, each as a stack of one."""
    return [a[None] for a in _hermitians(zip("ABC", mats))]


def _s_array(s_values) -> np.ndarray:
    return np.array(_grid(s_values, "s", least=0, strict=True))


def _first(*outs) -> tuple:
    """The one entry of each stacked output, as Python floats."""
    return tuple(float(out.flat[0]) for out in outs)


def eval_pmvti(A, B, C, q: int, s: float) -> tuple:
    """|tr[C (A^q - B^q)]| vs (q/4) tr[(s(A-B)^2 + C^2/s)(|A|^{q-1} + |B|^{q-1})]."""
    return _first(*_pmvti_stack(*_ones(A, B, C), np.array([_count(q, "q")]), _s_array([s])))


def eval_emvti(A, B, C, s: float) -> tuple:
    """|tr-bar[C (e^A - e^B)]| vs (1/4) tr-bar[(s(A-B)^2 + C^2/s)(e^A + e^B)]."""
    return _first(*_emvti_stack(*_ones(A, B, C), _s_array([s])))


def eval_young_commuting(A, B, p: float) -> tuple:
    """Normalized lambda_min slack of (1/p)|LA|^p + (1/q)|RB|^q - LA RB >= 0.

    LA, RB are the commuting left/right multiplication operators on d x d
    matrices, handled as d^2 x d^2 Hermitian matrices.  Returns the gap and
    the scale it is divided by.
    """
    return _first(*_young_stack(*_ones(A, B), p))


def eval_operator_cs(S, M, N) -> tuple:
    """|<M, S(N)>| vs sqrt(<M,|S|M> <N,|S|N>) for self-adjoint S."""
    op = SuperOperator(S)
    if not op.self_adjoint:
        raise ParameterError("operator must be self-adjoint")
    m, n = (_array(x, name, (op.dim, op.dim))[None] for name, x in (("M", M), ("N", N)))
    return _first(*_operator_cs_stack(op.mat[None], m, n))


def eval_matrix_entropy_young(Us, Ws) -> tuple:
    """E tr-bar(UW) vs log E tr-bar e^U + E tr-bar[W log W] on a finite ensemble.

    The (U, W) atoms are equally weighted; W must be PSD with E tr-bar W = 1.
    """
    if len(Us) != len(Ws) or not len(Us):
        raise ParameterError("need equally many U and W atoms")
    atoms = np.stack(_hermitians([*(("U", u) for u in Us), *(("W", w) for w in Ws)]))
    return _first(*_entropy_young_stack(atoms[None, :len(Us)], atoms[None, len(Us):]))


def eval_conjecture(A, B, C, q: int, s: float) -> dict:
    """Signed one-sided forms: exponential and degree-q polynomial slacks."""
    lhs_e, rhs_e, lhs_p, rhs_p = _first(*_conjecture_stack(
        *_ones(A, B, C), np.array([_count(q, "q")]), _s_array([s])))
    return {"exp": (lhs_e, rhs_e), "poly": (lhs_p, rhs_p)}


# ---------------------------------------------------------------------------
# fuzz suites


def _shares(total: int, parts: int) -> list:
    """``total`` in ``parts`` counts: total // parts, plus one for the first total % parts."""
    return [total // parts + (1 if i < total % parts else 0) for i in range(parts)]


def _fuzz(trials: int, dims: list, draw, evaluate, *forms, keep: int = 5) -> list:
    """One FuzzReport per form ``(inequality, slacks, case)`` over ``trials`` draws.

    The K entries of the d grid ``dims`` get _shares(trials, K) trials and
    run in grid order, each in blocks of at most BLOCK_TRIALS (which keep the
    stacks, and so the peak memory, small).  ``draw(d, m)`` returns a block's
    stacks, each along axis 0, and its kind names or None;
    ``evaluate(*stacks)`` returns arrays with one entry per trial.
    ``slacks(*outs)`` turns these into the block's slack matrix, one row per
    trial and one column per grid point; ``case(trial, j)`` serializes trial
    ``(d, inputs, kind)`` at grid point j.  Fewer trials than grid entries is
    a ParameterError, as some dimension would go untried; a NaN slack, where
    a side overflowed, is a DomainError naming the first such trial's
    parameters.
    """
    trials = _count(trials, "trials")
    if trials < len(dims):
        raise ParameterError(f"{trials} trials cannot try each of the {len(dims)} "
                             "entries of the d grid: give at least one trial per entry")
    worst = [_Worst(keep) for _ in forms]
    with np.errstate(over="ignore", invalid="ignore"):  # a NaN slack is refused below
        for d, share in zip(dims, _shares(trials, len(dims))):
            for start in range(0, share, BLOCK_TRIALS):
                stacks, kinds = draw(d, min(BLOCK_TRIALS, share - start))
                outs = evaluate(*stacks)

                def trial(i):
                    return d, tuple(s[i] for s in stacks), kinds and kinds[i]
                for w, (name, slacks, case) in zip(worst, forms):
                    block = slacks(*outs)
                    if np.isnan(block).any():
                        i, j = np.argwhere(np.isnan(block))[0]  # the first, in row-major order
                        at = [f"d={d}"] + [f"{k}={v!r}" for k, v in case(trial(i), j).items()
                                           if type(v) in (int, float)]
                        raise DomainError(
                            f"{name} slack is NaN at {', '.join(at)}: a side overflows")
                    w.add(block, lambda i, j: case(trial(i), j), d)
    return [_report(name, trials, dims, w.cases, w.by_dim) for w, (name, *_) in zip(worst, forms)]


def _slack_matrix(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Normalized slacks of one lhs per trial against its rhs (one per grid point)."""
    return _norm_slacks(lhs[:, None], rhs.reshape(len(rhs), -1))


def _triple_case(ineq: str, trial, keys: str = "ABC", **params) -> dict:
    _, mats, kind = trial
    case = {"ineq": ineq, "kind": kind, **params}
    case.update(zip(keys, map(hermitian_json, mats)))
    return case


def fuzz_pmvti(d_range, q_range, s_values, trials: int, seed: int) -> FuzzReport:
    """Degree-q polynomial mean value trace inequality over random triples."""
    dims, qs, ss = _grid(d_range, "d", _count), _grid(q_range, "q", _count), _s_array(s_values)
    return _fuzz(trials, dims, _block_draws(_rng(seed), _triple_group, qs, kinds=True),
                 lambda A, B, C, q: _pmvti_stack(A, B, C, q, ss),
                 ("pmvti", _slack_matrix, lambda t, j: _triple_case(
                     "pmvti", t, q=int(t[1][3]), s=float(ss[j]))))[0]


def fuzz_emvti(d_range, s_values, trials: int, seed: int) -> FuzzReport:
    """Exponential mean value trace inequality over random triples."""
    dims, ss = _grid(d_range, "d", _count), _s_array(s_values)
    return _fuzz(trials, dims, _block_draws(_rng(seed), _triple_group, kinds=True),
                 lambda A, B, C: _emvti_stack(A, B, C, ss),
                 ("emvti", _slack_matrix, lambda t, j: _triple_case(
                     "emvti", t, s=float(ss[j]))))[0]


def fuzz_young_commuting(d_range, p: float, trials: int, seed: int) -> FuzzReport:
    """Operator Young inequality for commuting left/right multiplications."""
    dims = _grid(d_range, "d", _count)
    _real(p, "p", 1, strict=True)  # read before _fuzz checks the trials
    return _fuzz(trials, dims, _block_draws(_rng(seed), _triple_group, kinds=True),
                 lambda A, B, C: _young_stack(A, B, p),
                 (f"young_commuting(p={p})", lambda gap, scale: (gap / scale)[:, None],
                  lambda t, _: _triple_case("young_commuting", t, "AB", p=float(p))))[0]


def fuzz_operator_cs(d_range, trials: int, seed: int) -> FuzzReport:
    """Cauchy-Schwarz for a self-adjoint operator on matrices."""
    dims = _grid(d_range, "d", _count)
    return _fuzz(trials, dims, _block_draws(_rng(seed), _operator_cs_group),
                 _operator_cs_stack,
                 ("operator_cs", _slack_matrix, lambda t, _: {
                     "ineq": "operator_cs", **dict(zip("SMN", map(rect_json, t[1])))}))[0]


def fuzz_matrix_entropy_young(d_range, ensemble_size: int, trials: int,
                              seed: int) -> FuzzReport:
    """Duality bound for matrix entropy on finite equally-weighted ensembles."""
    dims = _grid(d_range, "d", _count)
    group = functools.partial(_ensemble_group, _count(ensemble_size, "ensemble_size"))
    return _fuzz(trials, dims, _block_draws(_rng(seed), group), _entropy_young_stack,
                 ("matrix_entropy_young", _slack_matrix, lambda t, _: {
                     "ineq": "matrix_entropy_young",
                     "U": [hermitian_json(u) for u in t[1][0]],
                     "W": [hermitian_json(w) for w in t[1][1]]}))[0]


def explore_conjecture(d_range, q_range, s_values, trials: int, seed: int) -> FuzzReport:
    """Sweep the signed trace-inequality forms; reports, never raises on a violated form.

    Both one-sided forms are evaluated on every triple and tracked
    separately, because they behave differently already in the scalar case:
    the exponential form holds there (a case split over sign(a - b) and
    sign(c) reduces it to Young's inequality against e^{max(a,b)}), while
    the polynomial form fails outright, e.g. d=1, q=2, s=1 with
    a=0, b=-2, c=-1 gives lhs 4 > rhs 2.  The report therefore carries a
    per-form section next to the pooled summary, and the pooled pass flag
    is advisory only.
    """
    dims, qs, ss = _grid(d_range, "d", _count), _grid(q_range, "q", _count), _s_array(s_values)

    def form(k, ineq):  # outputs 2k and 2k + 1 of _conjecture_stack are its lhs and rhs
        return (ineq, lambda *outs: _slack_matrix(*outs[2 * k:2 * k + 2]),
                lambda t, j: _triple_case(ineq, t, q=int(t[1][3]), s=float(ss[j])))

    per_form = _fuzz(trials, dims, _block_draws(_rng(seed), _triple_group, qs, kinds=True),
                     lambda A, B, C, q: _conjecture_stack(A, B, C, q, ss),
                     form(0, "conjecture_exp"), form(1, "conjecture_poly"), keep=4)
    sections = {"exp": _section(per_form[0]), "poly": _section(per_form[1])}
    return _pool(per_form, 8, "signed_mvti_conjecture", trials, dims, sections)


def _pool(reports, keep: int, inequality: str, trials: int, dims: list,
          sections: dict | None = None) -> FuzzReport:
    """One report from the kept cases of ``reports``, by one stable sort in list
    order cut at ``keep``, and the first smallest slack per dimension."""
    cases = sorted((c for r in reports for c in [r.worst_case, *r.near_misses]),
                   key=lambda c: c["slack"])[:keep]
    by_dim: dict = {}
    for r in reports:
        for d, s in r.min_slack_by_dim.items():
            by_dim[d] = min(by_dim.get(d, s), s)
    return _report(inequality, trials, dims, cases, by_dim, sections)


def merge_fuzz_reports(reports) -> FuzzReport:
    """Combine chunked sweeps of the same inequality, in list order; a merge
    of one report is that report.  Reports with sections do not merge."""
    reports = list(reports)
    if not reports:
        raise ParameterError("nothing to merge")
    name = reports[0].inequality
    if any(r.inequality != name for r in reports):
        raise ParameterError("cannot merge reports of different suites")
    if any(r.sections for r in reports):
        raise ParameterError("cannot merge reports with sections")
    return _pool(reports, 5, name, sum(r.trials for r in reports),
                 [d for r in reports for d in r.dims])


def replay_case(case: dict) -> dict:
    """Re-evaluate one serialized worst case; returns lhs/rhs/slack.  A key that
    is missing, or that its evaluator's reader refuses, is a typed error naming it;
    so is a case that is not a JSON object."""
    if not isinstance(case, dict):
        raise ParameterError(f"a replay case is a JSON object, not {type(case).__name__}")
    ineq = case.get("ineq")

    def get(key, kind=object):
        return _field(case, key, f"{ineq} case", kind)

    def herms(keys):
        return [HermitianMatrix.from_json(get(k), k) for k in keys]

    if ineq == "pmvti":
        lhs, rhs = eval_pmvti(*herms("ABC"), get("q"), get("s"))
    elif ineq == "emvti":
        lhs, rhs = eval_emvti(*herms("ABC"), get("s"))
    elif ineq == "young_commuting":
        lhs, rhs = eval_young_commuting(*herms("AB"), get("p"))
        return {"ineq": ineq, "lambda_min_gap": lhs, "scale": rhs,
                "slack": lhs / rhs}
    elif ineq == "operator_cs":
        lhs, rhs = eval_operator_cs(*(RectMatrix.from_json(get(k), k) for k in "SMN"))
    elif ineq == "matrix_entropy_young":
        lhs, rhs = eval_matrix_entropy_young(
            *([HermitianMatrix.from_json(m, k) for m in get(k, list)] for k in "UW"))
    elif ineq in ("conjecture_exp", "conjecture_poly"):
        both = eval_conjecture(*herms("ABC"), get("q"), get("s"))
        lhs, rhs = both[ineq[len("conjecture_"):]]
    else:
        raise ParameterError(f"unknown inequality {ineq!r}")
    return {"ineq": ineq, "lhs": lhs, "rhs": rhs, "slack": float(_norm_slacks(lhs, rhs))}


def replay_passed(result: dict) -> bool:
    """The verdict on a replay_case result: a ``conjecture_*`` case is advisory
    and always passes; any other fails when its slack is below -FUZZ_TOL."""
    return result["ineq"].startswith("conjecture") or not result["slack"] < -FUZZ_TOL


# ---------------------------------------------------------------------------
# exact theorem checks on finite models: every Schatten moment and trace mgf is
# read off the kept spectra of X and V


def _finite_moment(moment: float, q: float) -> float:
    if not moment < math.inf:  # a sum of nonnegative terms: NaN only from 0 * inf
        raise DomainError(f"Schatten moment overflows at order {q!r}")
    return moment


def _moment(probs: np.ndarray, lam: np.ndarray, q: float) -> float:
    """E ||M||_q^q for Hermitian M(z) with eigenvalue rows lam."""
    with np.errstate(over="ignore"):
        moment = float(probs @ np.sum(np.abs(lam) ** q, axis=-1))
    return _finite_moment(moment, q)


def _log_trace_mgf(probs: np.ndarray, lam: np.ndarray, scale: float) -> float:
    """log E tr-bar e^{scale M} for Hermitian M(z) with eigenvalue rows lam."""
    with np.errstate(over="ignore"):
        mgf = float(probs @ np.mean(np.exp(scale * lam), axis=1))
    if not mgf < math.inf:
        raise DomainError(f"trace mgf overflows at scale {scale!r}")
    return math.log(mgf)


def _exact_report(check: str, model: stein.MatrixModel, passed=None, **fields) -> dict:
    """An exact check's report: it passes as ``passed`` says, else where all its results do."""
    passed = all(r["pass"] for r in fields["results"]) if passed is None else passed
    return {"schema_version": SCHEMA_VERSION, "check": check, "model": model.name,
            "tolerance": EXACT_TOL, **fields, "pass": bool(passed)}


def verify_poly_efron_stein(model: stein.MatrixModel, p_list) -> dict:
    """(E ||X||_{2p}^{2p})^{1/2p} vs sqrt(2(2p-1)) (E ||V||_p^p)^{1/2p}, exactly."""
    p_list = _grid(p_list, "p", _count)
    if not model.exact:
        raise ParameterError("model is too large to enumerate")
    probs = model.dist.probabilities().ravel()
    lam_x, lam_v = model.X_spectra(), stein.variance_proxy_spectra(model)
    results = []
    for p in p_list:
        lhs = _moment(probs, lam_x, 2 * p) ** (1.0 / (2 * p))
        rhs = bounds.efron_stein_poly_rhs(p, _moment(probs, lam_v, p))
        slack = rhs - lhs
        results.append({"p": p, "lhs": lhs, "rhs": rhs, "slack": slack,
                        "pass": bool(slack >= -EXACT_TOL)})
    return _exact_report("poly_efron_stein", model, results=results)


def verify_exp_efron_stein(model: stein.MatrixModel, theta_grid, psi_grid) -> dict:
    """Exponential moment domination on the admissible (theta, psi) pairs."""
    theta_grid = _grid(theta_grid, "theta")
    psi_grid = _grid(psi_grid, "psi", least=0, strict=True)
    if min(map(abs, theta_grid)) > math.sqrt(max(psi_grid) / 2.0):
        raise ParameterError("no admissible (theta, psi) pair: one needs |theta| <= sqrt(psi/2)")
    if not model.exact:
        raise ParameterError("model is too large to enumerate")
    probs = model.dist.probabilities().ravel()
    lam_x, lam_v = model.X_spectra(), stein.variance_proxy_spectra(model)
    results = []
    skipped = []
    lhs_at = {}  # log E tr-bar e^{theta X}, one pass over X's spectra per theta
    for psi in psi_grid:
        log_mgf_v = _log_trace_mgf(probs, lam_v, psi)
        for theta in theta_grid:
            if abs(theta) > math.sqrt(psi / 2.0):
                skipped.append({"theta": theta, "psi": psi})
                continue
            if theta not in lhs_at:
                lhs_at[theta] = _log_trace_mgf(probs, lam_x, theta)
            lhs = lhs_at[theta]
            rhs = bounds.efron_stein_exp_rhs(theta, psi, log_mgf_v)
            slack = rhs - lhs
            results.append({"theta": theta, "psi": psi, "lhs": lhs, "rhs": rhs,
                            "slack": slack, "pass": bool(slack >= -EXACT_TOL)})
    return _exact_report("exp_efron_stein", model, results=results, skipped=skipped)


# p above this is refused: the kernel bound's p + 1 coefficients in s take
# O(p^2) stacked products over the outcomes
KERNEL_P_MAX = 16


def _trace_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """tr(a b) for Hermitian stacks a and b, as the sum of re a re b + im a im b."""
    out = np.sum(a.real * b.real, axis=(-2, -1))
    if np.iscomplexobj(a) and np.iscomplexobj(b):
        out += np.sum(a.imag * b.imag, axis=(-2, -1))
    return out


def _laurent(c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """sum_j c_j s^(2j - p) at each s; a zero c_j adds nothing (no 0 * inf)."""
    k = 2 * np.arange(len(c)) - (len(c) - 1)
    return np.sum(c[c > 0] * s[:, None] ** k[c > 0], axis=1)


def _laurent_argmin(c: np.ndarray):
    """The s > 0 that minimises sum_j c_j s^(2j - p), c_j >= 0, or None when
    every c_j > 0 lies on one side of j = p/2 (no s does: the infimum is at 0
    or at inf).  In x = log s the sum is convex; the point where its two
    outermost terms balance is the minimiser at p <= 2, where no other term
    moves with s, and Newton's method starts there for p > 2, bisecting
    whenever a step leaves the bracket."""
    k = (2 * np.arange(len(c)) - (len(c) - 1))[c > 0]
    if not k.size or k[0] >= 0 or k[-1] <= 0:
        return None
    logc = np.log(c[c > 0])
    x = (logc[0] - logc[-1]) / (k[-1] - k[0])
    lo, hi = -math.inf, math.inf
    for _ in range(100 if len(c) > 3 else 0):
        e = logc + k * x
        w = np.exp(e - np.max(e))  # the terms over the largest: no overflow
        slope = float(w @ k)
        step = slope / float(w @ (k * k))  # at most 1 in size, as k^2 >= |k|
        if abs(step) <= 1e-15 * max(1.0, abs(x)):
            break
        lo, hi = (x, hi) if slope < 0 else (lo, x)
        x = x - step if lo < x - step < hi else (lo + hi) / 2.0
    return math.exp(x)


def verify_kernel_poly_moments(model: stein.MatrixModel, kernel, p_list, s_grid) -> dict:
    """Moment bound through the kernel conditional variances, for each (p, s),
    and at the s* that minimises it.

    For PSD V_X and V^K the bound's moment E tr ((1/2)(s V_X + V^K/s))^p is
    sum_j c_j s^(2j - p), where c_j is the expected trace of the words with j
    factors V_X/2 and p - j factors V^K/2 (nonnegative: Stahl's theorem, the
    Lieb-Seiringer form of the BMV conjecture).  The coefficient stacks of
    the half power h = p // 2 follow from C_j <- V^K C_j + V_X C_{j-1}, and
    c is their convolution under tr(a b), one probability dot per j; no
    eigendecomposition of s V_X + V^K/s is taken.  ``best_s``, ``best_rhs``
    and ``pass`` are over the user's grid; ``s_star`` and ``rhs_at_s_star``
    are the exact minimiser and its bound (null when V_X or V^K is 0).

    With an estimated kernel the true V^K is only known up to the per-pair
    standard-error plus truncation budget; the check inflates V^K by the
    kernel's ``inflation`` times the identity, which weakens the bound but
    keeps it valid.  An exact kernel's inflation is 0.
    """
    p_list = _grid(p_list, "p", _count)
    s_grid = _grid(s_grid, "s", least=0, strict=True)
    if not model.exact:
        raise ParameterError("model is too large to enumerate")
    vx, vk = stein.conditional_variance_map(model, kernel)
    vk = vk + kernel.inflation * np.eye(model.d)
    probs = model.dist.probabilities().ravel()
    lam_x = model.X_spectra()
    a, b = 0.5 * stein.outcome_stack(vx), 0.5 * stein.outcome_stack(vk)
    halves = {h for p in p_list if p <= KERNEL_P_MAX for h in (p // 2, p - p // 2)}
    powers = {1: [b, a]}  # C_0..C_k of (s a + b/s)^k for the last k and each k in halves

    def coefficients(p: int) -> np.ndarray:
        """c_j = E tr of the words with j factors a: tr of the half powers' products."""
        h = p // 2
        while max(powers) < p - h:
            k = max(powers)
            last = powers[k] if k in halves else powers.pop(k)
            powers[k + 1] = ([b @ last[0]] + [b @ last[j] + a @ last[j - 1]
                                              for j in range(1, k + 1)] + [a @ last[-1]])
        with np.errstate(over="ignore", invalid="ignore"):
            if h == 0:
                traces = [np.trace(cj.real, axis1=-2, axis2=-1) for cj in powers[1]]
            else:
                traces = [sum(_trace_products(powers[h][i], powers[p - h][j - i])
                              for i in range(max(0, j - p + h), min(h, j) + 1))
                          for j in range(p + 1)]
            return np.maximum([float(probs @ t) for t in traces], 0.0)  # roundoff of 0 below 0

    s_arr = np.array(s_grid)
    results = []
    for p in p_list:  # an error names the first row in report order that raises
        lhs = _moment(probs, lam_x, 2 * p) ** (1.0 / (2 * p))
        if p > KERNEL_P_MAX:
            raise ParameterError(f"kernel_poly_moments takes p up to {KERNEL_P_MAX}, got {p}")
        c = coefficients(p)
        _finite_moment(float(np.max(c)), p)  # NaN from inf - inf as well
        s_star = _laurent_argmin(c)
        with np.errstate(over="ignore"):
            moments = _laurent(c, s_arr if s_star is None else np.append(s_arr, s_star))
        _finite_moment(float(np.max(moments)), p)
        rhs = (math.sqrt(2 * p - 1) * moments ** (1.0 / (2 * p))).tolist()
        rhs_star = None if s_star is None else rhs.pop()
        per_s = [{"s": s, "rhs": r, "slack": r - lhs, "pass": r - lhs >= -EXACT_TOL}
                 for s, r in zip(s_grid, rhs)]
        best = min(per_s, key=lambda r: r["rhs"])
        results.append({"p": p, "lhs": lhs, "best_rhs": best["rhs"],
                        "best_s": best["s"], "s_star": s_star, "rhs_at_s_star": rhs_star,
                        "grid": per_s, "pass": all(r["pass"] for r in per_s)})
    return _exact_report("kernel_poly_moments", model, kernel_inflation=kernel.inflation,
                         results=results)


def variance_domination(model: stein.MatrixModel, kernel) -> dict:
    """Var[X] vs (1/2) E[V_X + V^K] in the semidefinite order."""
    if not model.exact:
        raise ParameterError("model is too large to enumerate")
    vx, vk = stein.conditional_variance_map(model, kernel)
    X = model.X_tensor()
    gap = float(np.linalg.eigvalsh(model.expect(0.5 * (vx + vk)) - model.expect(X @ X))[0])
    return {"lambda_min_gap": gap, "pass": bool(gap >= -_DOMINATION_TOL)}


def verify_kernel_identities(model: stein.MatrixModel) -> dict:
    """The exact kernel's identities: the Stein identity, the exchangeable-pairs
    identity for F = I, X and X^3 and the kernel's centering, each within
    EXACT_TOL, and the antisymmetry of K and of the pair's pmf, exactly."""
    kern = stein.ExactKernel(model)
    ident = stein.check_stein_identity(model, kern)
    anti, asym = stein.pair_asymmetries(model, kern)
    forms = {
        "I": lambda x: np.eye(model.d),
        "X": lambda x: x,
        "X3": lambda x: x @ x @ x,
    }
    pairs = {k: stein.exchangeable_pairs_identity(model, kern, f) for k, f in forms.items()}
    centering = stein.kernel_mean_norm(model, kern)
    ok = (ident.residual <= EXACT_TOL and centering <= EXACT_TOL and anti == 0.0
          and asym == 0.0 and all(r <= EXACT_TOL for r in pairs.values()))
    return _exact_report("kernel_identities", model, ok, stein_residual=ident.residual,
                         stein_radius=ident.radius, pairs_identity=pairs,
                         antisymmetry_max=anti, centering_norm=centering,
                         pmf_asymmetry=asym, kernel_iterations=kern.iterations)


def kernel_maker(get):
    """model -> kernel, from the keys kernel_poly_moments reads by ``get(key)``;
    horizon, samples and seed are read for the estimated kernel only."""
    kind = get("kernel")
    if kind == "exact":
        return stein.ExactKernel
    if kind != "estimated":
        raise ParameterError(f"unknown kernel kind {kind!r}")
    horizon, samples, seed = get("horizon"), get("samples"), get("seed")

    def estimated(model):
        h = stein.default_horizon(model.dist.n, model.max_h_norm()) if horizon is None else horizon
        return stein.EstimatedKernel(model, horizon=h, samples=samples, seed=seed)

    return estimated


def coupling_statistics(n: int, runs: int, seed: int, max_steps: int, pathwise_runs: int) -> dict:
    """Coupling times of antipodal starts on the n-cube against the
    coupon-collector mean n H_n, within 3 standard errors, and the pathwise
    premise on ``pathwise_runs`` kernel couplings: the chains meet no later
    than the step by which every coordinate has been drawn.  A run that
    exhausts ``max_steps`` is a VerificationFailure."""
    runs, max_steps = _count(runs, "runs", 2), _count(max_steps, "max_steps")
    pathwise_runs = _count(pathwise_runs, "pathwise_runs")
    times = stein.sample_coupling_times(n, runs, seed, max_steps=max_steps)
    if np.any(times < 0):
        raise VerificationFailure("some runs exhausted max_steps before coupling")
    mean = float(times.mean())
    se = float(times.std(ddof=1)) / math.sqrt(runs)
    expected = n * sum(1.0 / k for k in range(1, n + 1))
    # se = 0 when every run couples at the same step (n = 1)
    dev = abs(mean - expected) / se if se > 0 else (0.0 if mean == expected else math.inf)

    model = stein.hypercube_sum(n)
    z, zp = (1.0,) * n, (-1.0,) * n
    pathwise_ok = True
    for i in range(pathwise_runs):
        run = stein.simulate_kernel_coupling(model, z, zp, max_steps, seed + 1 + i)
        if run.coupling_time < 0 or run.first_all_drawn < 0:
            raise VerificationFailure("pathwise run exhausted max_steps")
        if run.coupling_time > run.first_all_drawn:
            pathwise_ok = False
    return {
        "schema_version": SCHEMA_VERSION,
        "verb": "couple",
        "n": n,
        "runs": runs,
        "seed": seed,
        "mean": mean,
        "std_error": se,
        "expected": expected,
        "deviation_sigmas": dev,
        "max_time": int(times.max()),
        "min_time": int(times.min()),
        "pathwise_runs": pathwise_runs,
        "pathwise_ok": pathwise_ok,
        "pass": bool(dev <= 3.0 and pathwise_ok),
    }


# ---------------------------------------------------------------------------
# empirical tails


def dkw_radius(samples: int, alpha: float) -> float:
    """Two-sided uniform band half-width sqrt(log(2/alpha) / (2N))."""
    samples, alpha = _count(samples, "samples"), _real(alpha, "alpha", 0, strict=True)
    if alpha >= 1:
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


def _statistics(model, samples: int, seed: int, statistic: str) -> tuple:
    """(values, draws): the statistic at each outcome of an enumerable model,
    in outcomes() order, with the outcome index of each sample (the draws of
    sample_many); above the cutoff, the statistic of each sample, draws None."""
    if statistic not in ("lmax", "opnorm"):
        raise ParameterError(f"unknown statistic {statistic!r}")
    if isinstance(model, stein.RectangularModel):
        mean = model.mean()  # a model above the cutoff is refused before H runs
        xs = model.H_rows(model.dist._outcome_rows()) - mean
        values = np.linalg.svd(xs, compute_uv=False)[:, 0]
        return values, model.dist.sample_outcomes(_rng(seed), samples)
    sampled = not model.exact
    eigs = np.linalg.eigvalsh(model.sample_X(samples, seed)) if sampled else model.X_spectra()
    values = eigs[:, -1] if statistic == "lmax" else np.maximum(eigs[:, -1], -eigs[:, 0])
    return values, None if sampled else model.dist.sample_outcomes(_rng(seed), samples)


def sample_statistics(model, samples: int, seed: int, statistic: str) -> np.ndarray:
    """Per-sample lambda_max or operator norm of the centered matrix.

    For a rectangular model both are the largest singular value, which is
    lambda_max of the Hermitian dilation.  An enumerable model takes the
    statistic of each outcome once and gathers it by the samples' outcome
    indices; LAPACK runs per matrix, so each value is the per-sample one.
    """
    values, draws = _statistics(model, _count(samples, "samples"), seed, statistic)
    return values if draws is None else values[draws]


def empirical_tail(model, samples: int, t_grid, seed: int, curve=None,
                   alpha: float = 0.01, statistic: str = "lmax") -> TailComparison:
    """Empirical survival of the chosen statistic, with a DKW band.

    An enumerable model counts the samples below t as draws per outcome.
    When a BoundCurve is supplied, flags every grid point where the raw bound
    plus the band half-width fails to dominate the empirical survival.
    """
    samples, seed = _count(samples, "samples", 100), _count(seed, "seed", 0)
    t_grid = np.array(_grid(t_grid, "t"))
    values, draws = _statistics(model, samples, seed, statistic)
    if draws is None:
        below = np.searchsorted(np.sort(values), t_grid)
    else:
        order = np.argsort(values)  # of the S outcomes, so each t is one search
        counts = np.bincount(draws, minlength=values.size)[order]
        below = np.concatenate([[0], np.cumsum(counts)])[np.searchsorted(values[order], t_grid)]
    surv = (samples - below) / samples
    radius = dkw_radius(samples, alpha)
    out = TailComparison(statistic, t_grid, surv, radius, alpha, samples, seed)
    if curve is not None:
        bound_vals = np.array([curve.raw(float(t)) for t in t_grid])
        out.bound_name = curve.name
        out.bound_values = bound_vals
        out.violations = [float(t) for t, b, s in zip(t_grid, bound_vals, surv)
                          if b + radius < s]
    return out


# ---------------------------------------------------------------------------
# the tables of checks.  A row calls through this module's names at call time,
# so a caller that rebinds verify.<name> (a tracer, a test's stub) reaches it.

REQUIRED = object()  # the default of a key that must be set

# check -> (each key it reads with its default, in the order it reads them,
# and run(model, *values), its report on model); a check that reads some keys
# only in some cases adds reads(get), its values, where get(key) reads a key
CHECKS = {
    "poly_efron_stein": ({"p": (1, 2, 3)}, lambda *a: verify_poly_efron_stein(*a)),
    "exp_efron_stein": ({"theta": (-0.3, -0.1, 0.1, 0.3), "psi": (1, 4)},
                        lambda *a: verify_exp_efron_stein(*a)),
    "kernel_poly_moments": (
        {"kernel": "exact", "horizon": None, "samples": 200, "seed": REQUIRED,
         "p": (1, 2), "s": DEFAULT_S_GRID},
        lambda model, kernel, p, s: verify_kernel_poly_moments(model, kernel(model), p, s),
        lambda get: (kernel_maker(get), get("p"), get("s"))),
    "kernel_identities": ({}, lambda *a: verify_kernel_identities(*a)),
}

_DIMS = (1, 2, 3, 4, 5, 6)  # the dimensions a fuzz suite draws by default

# fuzz suite -> (its keys and defaults, and run(*values, trials, seed), its FuzzReport)
FUZZ_SUITES = {
    "pmvti": ({"d": _DIMS, "q": (1, 2, 3, 4, 5, 6, 7), "s": (0.25, 1, 4)},
              lambda *a: fuzz_pmvti(*a)),
    "emvti": ({"d": _DIMS, "s": (0.25, 1, 4)}, lambda *a: fuzz_emvti(*a)),
    "young_commuting": ({"d": _DIMS, "p": 2.0}, lambda *a: fuzz_young_commuting(*a)),
    "operator_cs": ({"d": _DIMS}, lambda *a: fuzz_operator_cs(*a)),
    "matrix_entropy_young": ({"d": _DIMS, "ensemble_size": 8},
                             lambda *a: fuzz_matrix_entropy_young(*a)),
}
