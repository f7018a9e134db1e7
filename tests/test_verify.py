"""Inequality evaluators, fuzz sweeps, theorem checks, and empirical tails.

Scalar cases are pinned against closed forms evaluated inline.  The sweep
tests freeze seeds and check report structure and determinism; the
mathematics behind each inequality is exercised by the evaluator tests.
"""
import functools
import json
import math
import tracemalloc

import numpy as np
import pytest

from matconc import bounds, cli, matcore, stein, verify
from matconc.matcore import (
    DomainError,
    HermitianMatrix,
    ParameterError,
    PreconditionError,
    RectMatrix,
    ShapeError,
    SuperOperator,
    _array,
    hermitian_json,
    left_mult_op,
    matrix_function,
    rect_json,
    right_mult_op,
    superop_abs,
    superop_function,
)
from matconc.stein import (
    EstimatedKernel,
    ExactKernel,
    MatrixModel,
    hypercube_sum,
    random_finite_model,
    rect_demo,
)
from matconc.verify import (
    FuzzReport,
    dkw_radius,
    empirical_tail,
    eval_conjecture,
    eval_emvti,
    eval_matrix_entropy_young,
    eval_operator_cs,
    eval_pmvti,
    eval_young_commuting,
    explore_conjecture,
    fuzz_emvti,
    fuzz_matrix_entropy_young,
    fuzz_operator_cs,
    fuzz_pmvti,
    fuzz_young_commuting,
    merge_fuzz_reports,
    replay_case,
    replay_passed,
    sample_statistics,
    variance_domination,
    verify_exp_efron_stein,
    verify_kernel_poly_moments,
    verify_poly_efron_stein,
)
from test_stein import (OPNORM_RTOL, on_neighbours, oracle_estimated_radii, replacement_sum,
                        svd_opnorms)

E_MINUS_2 = 0.1353352832366127
COSH1 = 1.5430806348152437


def scalar(x: float) -> np.ndarray:
    return np.array([[float(x)]])


class TestEvaluators:
    def test_pmvti_scalar_equality(self):
        # a=1, b=0, c=1, q=2, s=1 saturates the bound: both sides are 1
        lhs, rhs = eval_pmvti(scalar(1), scalar(0), scalar(1), q=2, s=1.0)
        assert lhs == pytest.approx(1.0, rel=1e-14)
        assert rhs == pytest.approx(1.0, rel=1e-14)

    def test_pmvti_scalar_closed_form(self):
        # q=3, s=2: rhs = (3/4) tr[(2*1 + 1/2)(1 + 0)] = 15/8
        lhs, rhs = eval_pmvti(scalar(1), scalar(0), scalar(1), q=3, s=2.0)
        assert lhs == pytest.approx(1.0, rel=1e-14)
        assert rhs == pytest.approx(15.0 / 8.0, rel=1e-14)

    def test_emvti_scalar_closed_form(self):
        lhs, rhs = eval_emvti(scalar(1), scalar(0), scalar(1), s=1.0)
        assert lhs == pytest.approx(math.e - 1.0, rel=1e-13)
        assert rhs == pytest.approx((math.e + 1.0) / 2.0, rel=1e-13)
        assert rhs - lhs == pytest.approx(0.14085908577047745, rel=1e-11)

    def test_young_scalar_equality(self):
        # |a|^p = |b|^q with ab >= 0 is the equality case of Young
        gap, scale = eval_young_commuting(scalar(1), scalar(1), p=2.0)
        assert abs(gap) < 1e-12
        assert scale == pytest.approx(2.0, rel=1e-12)

    def test_young_rejects_bad_exponent(self):
        for p in (1.0, 0.5, math.inf):
            with pytest.raises(ParameterError):
                eval_young_commuting(scalar(1), scalar(1), p=p)

    def test_operator_cs_equality_on_matched_arguments(self):
        rng = np.random.default_rng(4)
        raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        S = SuperOperator((raw + raw.conj().T) / 2)
        M = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        lhs, rhs = eval_operator_cs(S, M, M)
        assert lhs <= rhs + 1e-12 * rhs

    def test_operator_cs_rejects_non_self_adjoint(self):
        bad = SuperOperator(np.array([[1j]]))
        with pytest.raises(ParameterError):
            eval_operator_cs(bad, scalar(1), scalar(1))

    def test_entropy_young_scalar_equality(self):
        # single atom, W = 1: both sides reduce to u
        lhs, rhs = eval_matrix_entropy_young([scalar(0.7)], [scalar(1.0)])
        assert lhs == pytest.approx(0.7, rel=1e-14)
        assert rhs == pytest.approx(0.7, rel=1e-13)

    def test_entropy_young_zero_eigenvalue(self):
        # w log w continues by 0 at w = 0; no nan leaks out
        U = np.zeros((2, 2))
        W = np.diag([2.0, 0.0])
        lhs, rhs = eval_matrix_entropy_young([U], [W])
        assert lhs == pytest.approx(0.0, abs=1e-14)
        assert rhs == pytest.approx(math.log(2.0), rel=1e-13)

    def test_entropy_young_rejects_mismatched_ensembles(self):
        with pytest.raises(ParameterError):
            eval_matrix_entropy_young([scalar(1)], [])
        with pytest.raises(ParameterError):
            eval_matrix_entropy_young([], [])


class TestConjectureEvaluator:
    def test_polynomial_form_counterexample(self):
        # a=0, b=-2, c=-1, q=2, s=1: the signed polynomial form fails
        both = eval_conjecture(scalar(0), scalar(-2), scalar(-1), q=2, s=1.0)
        lhs_p, rhs_p = both["poly"]
        assert lhs_p == pytest.approx(4.0, rel=1e-13)
        assert rhs_p == pytest.approx(2.0, rel=1e-13)
        assert lhs_p > rhs_p

    def test_exponential_form_on_same_triple(self):
        both = eval_conjecture(scalar(0), scalar(-2), scalar(-1), q=2, s=1.0)
        lhs_e, rhs_e = both["exp"]
        assert lhs_e == pytest.approx(-(1.0 - E_MINUS_2), rel=1e-13)
        assert rhs_e == pytest.approx(2.0 + E_MINUS_2 / 2.0, rel=1e-13)

    def test_exponential_form_holds_for_scalars(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            a, b, c = rng.standard_normal(3) * 2.0
            s = float(2.0 ** rng.integers(-3, 4))
            lhs, rhs = eval_conjecture(scalar(a), scalar(b), scalar(c),
                                       q=2, s=s)["exp"]
            assert rhs - lhs >= -1e-9 * max(1.0, abs(lhs) + abs(rhs))


# ---------------------------------------------------------------------------
# oracles: each inequality evaluated one matrix function at a time through
# matcore's matrix_function and superoperators, independent of the stacked
# spectral evaluators in verify


def ntrace(M) -> float:
    """Normalized trace tr(M)/d."""
    a = _array(M)
    return float(np.trace(a).real) / a.shape[0]


def test_ntrace_identity():
    assert ntrace(np.eye(7)) == 1.0
    assert ntrace(HermitianMatrix(np.diag([2.0, 0.0]))) == 1.0


def oracle_pmvti(A, B, C, q, s):
    Aq = matrix_function(A, lambda w: w ** q).a
    Bq = matrix_function(B, lambda w: w ** q).a
    absA = matrix_function(A, lambda w: np.abs(w) ** (q - 1)).a
    absB = matrix_function(B, lambda w: np.abs(w) ** (q - 1)).a
    D = A - B
    lhs = abs(np.trace(C @ (Aq - Bq)).real)
    inner = s * (D @ D) + (C @ C) / s
    return lhs, (q / 4.0) * np.trace(inner @ (absA + absB)).real


def oracle_emvti(A, B, C, s):
    eA, eB = matrix_function(A, np.exp).a, matrix_function(B, np.exp).a
    D = A - B
    inner = s * (D @ D) + (C @ C) / s
    return abs(ntrace(C @ (eA - eB))), 0.25 * ntrace(inner @ (eA + eB))


def oracle_young_slack(A, B, p):
    q = p / (p - 1.0)
    la, rb = left_mult_op(A), right_mult_op(B)
    prod = la.compose(rb).mat
    rhs = (superop_function(la, lambda w: np.abs(w) ** p).mat / p
           + superop_function(rb, lambda w: np.abs(w) ** q).mat / q)
    gap = np.linalg.eigvalsh(rhs - prod)[0]
    return gap / max(1.0, np.linalg.norm(prod, 2) + np.linalg.norm(rhs, 2))


def oracle_operator_cs(S, M, N):
    op = SuperOperator(S)
    ab = superop_abs(op)
    lhs = abs(np.trace(M.conj().T @ op.apply(N)))
    qm = np.trace(M.conj().T @ ab.apply(M)).real
    qn = np.trace(N.conj().T @ ab.apply(N)).real
    return lhs, math.sqrt(max(qm, 0.0) * max(qn, 0.0))


def oracle_entropy_young(Us, Ws):
    def xlogx(w):
        return np.where(w > 0, w * np.log(np.where(w > 0, w, 1.0)), 0.0)

    k = len(Us)
    lhs = sum(ntrace(U @ W) for U, W in zip(Us, Ws)) / k
    mgf = sum(ntrace(matrix_function(U, np.exp)) for U in Us) / k
    ent = sum(ntrace(matrix_function(W, xlogx)) for W in Ws) / k
    return lhs, math.log(mgf) + ent


def oracle_conjecture(A, B, C, q, s):
    def f(M, g):
        return matrix_function(M, g).a

    D = A - B
    plus = (s * f(D, lambda w: np.maximum(w, 0.0) ** 2)
            + f(C, lambda w: np.maximum(w, 0.0) ** 2) / s)
    minus = (s * f(D, lambda w: np.maximum(-w, 0.0) ** 2)
             + f(C, lambda w: np.maximum(-w, 0.0) ** 2) / s)
    eA, eB = f(A, np.exp), f(B, np.exp)
    Aq, Bq = f(A, lambda w: w ** q), f(B, lambda w: w ** q)
    absA = f(A, lambda w: np.abs(w) ** (q - 1))
    absB = f(B, lambda w: np.abs(w) ** (q - 1))
    return {
        "exp": (np.trace(C @ (eA - eB)).real,
                0.5 * np.trace(plus @ eA + minus @ eB).real),
        "poly": (np.trace(C @ (Aq - Bq)).real,
                 (q / 2.0) * np.trace(plus @ absA + minus @ absB).real),
    }


SS = (0.25, 1.0, 4.0)


def draw_triples(rng, qs=tuple(range(1, 8))):
    return verify._block_draws(rng, verify._triple_group, qs and list(qs), kinds=True)


def draw_operator_cs(rng):
    return verify._block_draws(rng, verify._operator_cs_group)


def draw_ensembles(rng, size=4):
    return verify._block_draws(rng, functools.partial(verify._ensemble_group, size))


def schedule(trials, dims):
    """The (d, m) blocks of a sweep of ``trials`` over the d grid ``dims``, in order:
    entry i's share is trials // K, one more if i < trials % K, in blocks of at
    most BLOCK_TRIALS."""
    for i, d in enumerate(dims):
        share = trials // len(dims) + (1 if i < trials % len(dims) else 0)
        for start in range(0, share, verify.BLOCK_TRIALS):
            yield d, min(verify.BLOCK_TRIALS, share - start)


def block_trials(draw, d, m):
    """One block of m trials of dimension d of a suite's draw, as (d, inputs,
    kind) in trial order."""
    stacks, kinds = draw(d, m)
    return [(d, tuple(x[i] if x.ndim > 1 else x[i].item() for x in stacks),
             None if kinds is None else kinds[i]) for i in range(m)]


def sweep_trials(draw, trials, dims=tuple(range(1, 7))):
    """The trials of a sweep of a suite's draw, in trial order."""
    return [t for d, m in schedule(trials, dims) for t in block_trials(draw, d, m)]


def cases(draw, count=240):
    """count draws, covering d = 1..6 and, for triples, every draw kind."""
    out = sweep_trials(draw, count)
    assert {c[0] for c in out} == set(range(1, 7))
    assert {c[2] for c in out} in ({None}, set(verify._KINDS))
    return out


def triple_cases(seed):
    return cases(draw_triples(np.random.default_rng(seed)))


class TestEvaluatorsAgainstOracles:
    # >= 200 cases per suite, d = 1..6 and every draw kind; the stacked
    # evaluators differ from the oracles only by roundoff
    TOL = 1e-12

    def test_pmvti(self):
        for _, (A, B, C, q), _ in triple_cases(31):
            for s in SS:
                new = verify._norm_slacks(*eval_pmvti(A, B, C, q, s))
                assert abs(new - verify._norm_slacks(*oracle_pmvti(A, B, C, q, s))) <= self.TOL

    def test_emvti(self):
        for _, (A, B, C, _q), _ in triple_cases(32):
            for s in SS:
                new = verify._norm_slacks(*eval_emvti(A, B, C, s))
                assert abs(new - verify._norm_slacks(*oracle_emvti(A, B, C, s))) <= self.TOL

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_young_commuting(self, p):
        for _, (A, B, _C, _q), _ in triple_cases(33):
            gap, scale = eval_young_commuting(A, B, p)
            assert abs(gap / scale - oracle_young_slack(A, B, p)) <= self.TOL

    def test_operator_cs(self):
        for _, (S, M, N), _ in cases(draw_operator_cs(np.random.default_rng(34))):
            new = verify._norm_slacks(*eval_operator_cs(S, M, N))
            assert abs(new - verify._norm_slacks(*oracle_operator_cs(S, M, N))) <= self.TOL

    def test_matrix_entropy_young(self):
        for _, (Us, Ws), _ in cases(draw_ensembles(np.random.default_rng(35))):
            new = verify._norm_slacks(*eval_matrix_entropy_young(list(Us), list(Ws)))
            ref = verify._norm_slacks(*oracle_entropy_young(list(Us), list(Ws)))
            assert abs(new - ref) <= self.TOL

    def test_conjecture(self):
        for _, (A, B, C, q), _ in triple_cases(36):
            q = 1 + q % 3
            for s in SS:
                new, ref = eval_conjecture(A, B, C, q, s), oracle_conjecture(A, B, C, q, s)
                for form in ("exp", "poly"):
                    assert abs(verify._norm_slacks(*new[form])
                               - verify._norm_slacks(*ref[form])) <= self.TOL


@functools.lru_cache(maxsize=None)
def triple_block():
    """2000 triple trials over d = 1..6, from one sweep's blocks."""
    return sweep_trials(draw_triples(verify._rng(3)), 2000)


def of_kind(kind, min_d=1):
    return [(d, mats) for d, mats, k in triple_block() if k == kind and d >= min_d]


def opnorm(a):
    return np.linalg.norm(a, 2)


def commutator_bound(A, d):
    # ||[A, B]|| = 1e-3 ||[A, P]|| <= 2e-3 ||A|| ||P|| for the perturbation P,
    # and ||P|| <= ||P||_F <= 6 d but with negligible probability
    return 2e-3 * opnorm(A) * 6 * d


class TestBlockDrawLaw:
    # each draw family of fuzz stream version 3 has its defining property

    def test_kind_frequencies(self):
        # 1e5 d = 1 trials: every count within 4 binomial sigma of _SPLIT
        m = 100_000
        _, kinds = verify._block_draws(verify._rng(1), verify._triple_group, kinds=True)(1, m)
        for name, w in zip(verify._KINDS, verify._SPLIT):
            assert abs(kinds.count(name) - m * w) <= 4 * math.sqrt(m * w * (1 - w)), name

    def test_every_dimension_and_kind_group_is_reached(self):
        assert {(d, k) for d, _, k in triple_block()} == {
            (d, k) for d in range(1, 7) for k in verify._KINDS}

    @pytest.mark.parametrize("d", range(1, 7))
    def test_haar_bases_are_unitary(self, d):
        u = verify._haar(verify._gauss(verify._rng(d), 2, 50, d, d))
        assert u.shape == (2, 50, d, d)
        err = np.conj(np.swapaxes(u, -1, -2)) @ u - np.eye(d)
        assert np.max(np.abs(err)) <= 1e-12

    def test_near_commuting_pairs_commute_up_to_the_perturbation(self):
        for d, (A, B, _C, _q) in of_kind("near_commuting"):
            assert opnorm(A @ B - B @ A) <= commutator_bound(A, d)
        # not vacuous: Gaussian pairs break the same bound
        broken = [opnorm(A @ B - B @ A) > commutator_bound(A, d)
                  for d, (A, B, _C, _q) in of_kind("gaussian", min_d=2)]
        assert np.mean(broken) > 0.9

    def test_gapped_spectra_sit_near_plus_and_minus_four(self):
        for d, (A, B, _C, _q) in of_kind("gapped"):
            for w in np.linalg.eigvalsh(np.stack([A, B])):
                assert np.all(np.abs(w[:d // 2] + 4.0) < 1.0)
                assert np.all(np.abs(w[d // 2:] - 4.0) < 1.0)

    def test_rank1_matrices_have_rank_at_most_one(self):
        for _, (A, B, C, _q) in of_kind("rank1"):
            sv = np.linalg.svd(np.stack([A, B, C]), compute_uv=False)
            assert np.all(sv[:, 1:] <= 1e-12 * sv[:, :1])

    @pytest.mark.parametrize("size", [1, 4, 8])
    def test_entropy_ensembles(self, size):
        # every W is PSD, and the ensemble mean of tr-bar W is 1
        trials = sweep_trials(draw_ensembles(verify._rng(4), size=size), 600)
        assert {d for d, _, _ in trials} == set(range(1, 7))
        for d, (Us, Ws), _ in trials:
            assert Us.shape == Ws.shape == (size, d, d)
            assert np.all(np.linalg.eigvalsh(Ws) >= -1e-12 * opnorm(Ws.reshape(-1, d)))
            tr_bar = np.trace(Ws, axis1=-2, axis2=-1).real / d
            assert abs(np.mean(tr_bar) - 1.0) <= 1e-15

    def test_operator_cs_picks_rank1_arguments_at_rate_one_tenth(self):
        m = 20_000
        trials = sweep_trials(draw_operator_cs(verify._rng(6)), m, [2, 3])
        rank1 = []
        for d, (S, M, N), _ in trials:
            assert S.shape == (d * d, d * d) and np.array_equal(S, S.conj().T)
            sv = np.linalg.svd(np.stack([M, N]), compute_uv=False)
            low = sv[:, 1] <= 1e-12 * sv[:, 0]
            assert low[0] == low[1]  # M and N are rank-1 together or not at all
            rank1.append(bool(low[0]))
        assert abs(sum(rank1) - 0.1 * m) <= 4 * math.sqrt(m * 0.1 * 0.9)


class TestBlockPositionInvariance:
    # every trial of a sweep's blocks, evaluated among trials of its dimension,
    # gives the very floats of its stack-of-one evaluation, which replay uses

    def block(self, draw, evaluate):
        rows = []
        for d, m in schedule(verify.BLOCK_TRIALS, range(1, 7)):
            stacks, _ = draw(d, m)
            outs = evaluate(*stacks)
            rows.extend((tuple(x[i] for x in stacks), [out[i] for out in outs])
                        for i in range(m))
        assert len(rows) == verify.BLOCK_TRIALS
        return rows

    def test_pmvti_and_emvti(self):
        ss = np.array(SS)
        draw = draw_triples(np.random.default_rng(41))
        for (A, B, C, q), (lhs, rhs) in self.block(
                draw, lambda A, B, C, q: verify._pmvti_stack(A, B, C, q, ss)):
            for j, s in enumerate(SS):
                assert eval_pmvti(A, B, C, q, s) == (float(lhs), float(rhs[j]))
        for (A, B, C, q), (lhs, rhs) in self.block(
                draw, lambda A, B, C, q: verify._emvti_stack(A, B, C, ss)):
            for j, s in enumerate(SS):
                assert eval_emvti(A, B, C, s) == (float(lhs), float(rhs[j]))

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_young_commuting(self, p):
        draw = draw_triples(np.random.default_rng(42))
        for (A, B, _C, _q), (gap, scale) in self.block(
                draw, lambda A, B, C, q: verify._young_stack(A, B, p)):
            assert eval_young_commuting(A, B, p) == (float(gap), float(scale))

    def test_operator_cs(self):
        draw = draw_operator_cs(np.random.default_rng(43))
        for (S, M, N), (lhs, rhs) in self.block(draw, verify._operator_cs_stack):
            assert eval_operator_cs(S, M, N) == (float(lhs), float(rhs))

    def test_matrix_entropy_young(self):
        draw = draw_ensembles(np.random.default_rng(44))
        for (Us, Ws), (lhs, rhs) in self.block(draw, verify._entropy_young_stack):
            assert eval_matrix_entropy_young(list(Us), list(Ws)) == (float(lhs), float(rhs))

    def test_conjecture(self):
        ss = np.array(SS)
        draw = draw_triples(np.random.default_rng(45))
        for (A, B, C, q), row in self.block(
                draw, lambda A, B, C, q: verify._conjecture_stack(A, B, C, q, ss)):
            for j, s in enumerate(SS):
                both = eval_conjecture(A, B, C, q, s)
                assert both["exp"] == (float(row[0]), float(row[1][j]))
                assert both["poly"] == (float(row[2]), float(row[3][j]))


# ---------------------------------------------------------------------------
# oracle for the block selector: the sweeps as they were before they scored
# whole blocks, with a tracker offered one case at a time in trial order


class WorstTracker:
    """Keeps the global minimum slack and the few worst serialized cases."""

    def __init__(self, keep: int = 5):
        self.min_slack = math.inf
        self.by_dim: dict = {}
        self.cases: list = []
        self.keep = keep

    def offer(self, slack: float, d: int, case_fn) -> None:
        prev = self.by_dim.get(d, math.inf)
        if slack < prev:
            self.by_dim[d] = slack
        if slack < self.min_slack:
            self.min_slack = slack
        if len(self.cases) < self.keep or slack < self.cases[-1][0]:
            case = case_fn()
            case["slack"] = slack
            self.cases.append((slack, case))
            self.cases.sort(key=lambda t: t[0])
            del self.cases[self.keep:]

    def report(self, inequality: str, trials: int, dims: list) -> FuzzReport:
        worst = self.cases[0][1] if self.cases else {}
        return FuzzReport(
            inequality=inequality,
            trials=trials,
            dims=dims,
            min_slack=self.min_slack if self.cases else math.inf,
            worst_case=worst,
            passed=bool(self.min_slack >= -verify.FUZZ_TOL),
            min_slack_by_dim=dict(sorted(self.by_dim.items())),
            near_misses=[c for _, c in self.cases[1:]],
        )


def norm_slack(lhs: float, rhs: float) -> float:
    return (rhs - lhs) / max(1.0, abs(rhs) + abs(lhs))


def sweep_one_by_one(trials, dims, draw, evaluate, offer):
    """Evaluate the schedule's blocks, then offer every trial with its row, in order."""
    for d, m in schedule(trials, dims):
        block = block_trials(draw, d, m)
        outs = evaluate(*(np.stack(col) for col in zip(*(t[1] for t in block))))
        for i, trial in enumerate(block):
            offer(trial, [out[i] for out in outs])


def oracle_triple_case(ineq, kind, mats, **params):
    case = {"ineq": ineq, "kind": kind, **params}
    case.update(zip("ABC", (HermitianMatrix(a).to_json() for a in mats)))
    return case


def oracle_fuzz_pmvti(dims, qs, s_values, trials, seed):
    ss = np.array([float(s) for s in s_values])
    tracker = WorstTracker()

    def offer(trial, row):
        d, (A, B, C, q), kind = trial
        for s, rhs in zip(ss, row[1]):
            tracker.offer(norm_slack(float(row[0]), float(rhs)), d, lambda: oracle_triple_case(
                "pmvti", kind, (A, B, C), q=q, s=float(s)))

    sweep_one_by_one(trials, dims, draw_triples(verify._rng(seed), qs),
                     lambda A, B, C, q: verify._pmvti_stack(A, B, C, q, ss), offer)
    return tracker.report("pmvti", trials, dims)


def oracle_fuzz_emvti(dims, s_values, trials, seed):
    ss = np.array([float(s) for s in s_values])
    tracker = WorstTracker()

    def offer(trial, row):
        d, (A, B, C), kind = trial
        for s, rhs in zip(ss, row[1]):
            tracker.offer(norm_slack(float(row[0]), float(rhs)), d, lambda: oracle_triple_case(
                "emvti", kind, (A, B, C), s=float(s)))

    sweep_one_by_one(trials, dims, draw_triples(verify._rng(seed), None),
                     lambda A, B, C: verify._emvti_stack(A, B, C, ss), offer)
    return tracker.report("emvti", trials, dims)


def oracle_fuzz_young(dims, p, trials, seed):
    tracker = WorstTracker()

    def offer(trial, row):
        d, (A, B, _), kind = trial
        tracker.offer(float(row[0]) / float(row[1]), d, lambda: oracle_triple_case(
            "young_commuting", kind, (A, B), p=float(p)))

    sweep_one_by_one(trials, dims, draw_triples(verify._rng(seed), None),
                     lambda A, B, C: verify._young_stack(A, B, p), offer)
    return tracker.report(f"young_commuting(p={p})", trials, dims)


def oracle_fuzz_operator_cs(dims, trials, seed):
    tracker = WorstTracker()

    def offer(trial, row):
        d, (S, M, N), _ = trial
        tracker.offer(norm_slack(float(row[0]), float(row[1])), d, lambda: {
            "ineq": "operator_cs",
            "S": RectMatrix(S).to_json(), "M": RectMatrix(M).to_json(),
            "N": RectMatrix(N).to_json(),
        })

    sweep_one_by_one(trials, dims, draw_operator_cs(verify._rng(seed)),
                     verify._operator_cs_stack, offer)
    return tracker.report("operator_cs", trials, dims)


def oracle_fuzz_entropy_young(dims, ensemble_size, trials, seed):
    tracker = WorstTracker()

    def offer(trial, row):
        d, (Us, Ws), _ = trial
        tracker.offer(norm_slack(float(row[0]), float(row[1])), d, lambda: {
            "ineq": "matrix_entropy_young",
            "U": [HermitianMatrix(u).to_json() for u in Us],
            "W": [HermitianMatrix(w).to_json() for w in Ws],
        })

    sweep_one_by_one(trials, dims, draw_ensembles(verify._rng(seed), ensemble_size),
                     verify._entropy_young_stack, offer)
    return tracker.report("matrix_entropy_young", trials, dims)


def oracle_pool(reports, keep, inequality, trials, dims, sections):
    cases = []
    by_dim: dict = {}
    for r in reports:
        if r.worst_case:
            cases.append((r.worst_case["slack"], r.worst_case))
        cases.extend((c["slack"], c) for c in r.near_misses)
        for d, s in r.min_slack_by_dim.items():
            by_dim[int(d)] = min(by_dim.get(int(d), math.inf), s)
    cases.sort(key=lambda t: t[0])
    del cases[keep:]
    min_slack = cases[0][0] if cases else math.inf
    return FuzzReport(
        inequality=inequality, trials=trials, dims=dims, min_slack=min_slack,
        worst_case=cases[0][1] if cases else {}, passed=bool(min_slack >= -verify.FUZZ_TOL),
        min_slack_by_dim=dict(sorted(by_dim.items())),
        near_misses=[c for _, c in cases[1:]], sections=sections,
    )


def oracle_explore_conjecture(dims, qs, s_values, trials, seed):
    ss = np.array([float(s) for s in s_values])
    trackers = {form: WorstTracker(keep=4) for form in ("exp", "poly")}

    def offer(trial, row):
        d, (A, B, C, q), kind = trial
        lhs_e, rhs_e, lhs_p, rhs_p = row
        for j, s in enumerate(ss):
            for form, lhs, rhs in (("exp", lhs_e, rhs_e[j]), ("poly", lhs_p, rhs_p[j])):
                trackers[form].offer(norm_slack(float(lhs), float(rhs)), d,
                                     lambda: oracle_triple_case(
                                         f"conjecture_{form}", kind, (A, B, C), q=q, s=float(s)))

    sweep_one_by_one(trials, dims, draw_triples(verify._rng(seed), qs),
                     lambda A, B, C, q: verify._conjecture_stack(A, B, C, q, ss), offer)
    per_form = {form: trackers[form].report(f"conjecture_{form}", trials, dims)
                for form in sorted(trackers)}
    sections = {form: {
        "min_slack": r.min_slack,
        "min_slack_by_dim": {str(k): v for k, v in r.min_slack_by_dim.items()},
        "worst_case": r.worst_case,
        "pass": r.passed,
    } for form, r in per_form.items()}
    return oracle_pool(per_form.values(), 8, "signed_mvti_conjecture", trials, dims, sections)


def oracle_merge(reports):
    name = reports[0].inequality
    dims = sorted({int(d) for r in reports for d in r.dims})
    return oracle_pool(reports, 5, name, sum(r.trials for r in reports), dims, {})


ORACLE_DIMS = [1, 2, 3]
ORACLE_SUITES = {
    "pmvti": (fuzz_pmvti, oracle_fuzz_pmvti, (ORACLE_DIMS, [1, 2, 3], SS)),
    "emvti": (fuzz_emvti, oracle_fuzz_emvti, (ORACLE_DIMS, SS)),
    "young_commuting": (fuzz_young_commuting, oracle_fuzz_young, (ORACLE_DIMS, 1.5)),
    "operator_cs": (fuzz_operator_cs, oracle_fuzz_operator_cs, (ORACLE_DIMS,)),
    "matrix_entropy_young": (fuzz_matrix_entropy_young, oracle_fuzz_entropy_young,
                             (ORACLE_DIMS, 3)),
    "conjecture": (explore_conjecture, oracle_explore_conjecture,
                   (ORACLE_DIMS, [1, 2, 3], SS)),
}


def report_bytes(report: FuzzReport) -> str:
    return json.dumps(report.to_json())


class TestSelectorAgainstOracle:
    # the block selector keeps the very cases, slacks and per-dimension
    # minima of the one-at-a-time tracker, byte for byte

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("trials", [3, 255, 256, 257, 700])
    @pytest.mark.parametrize("suite", sorted(ORACLE_SUITES))
    def test_sweep(self, suite, trials, seed):
        new, oracle, args = ORACLE_SUITES[suite]
        assert report_bytes(new(*args, trials, seed)) == report_bytes(
            oracle(*args, trials, seed))

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("suite", ["pmvti"])
    def test_merge_of_chunks(self, suite, seed):
        new, oracle, args = ORACLE_SUITES[suite]
        chunks = [(130, seed), (257, seed + 7919), (40, seed + 2 * 7919)]
        assert report_bytes(merge_fuzz_reports([new(*args, *c) for c in chunks])) == \
            report_bytes(oracle_merge([oracle(*args, *c) for c in chunks]))

    def test_ties_across_a_block_boundary(self):
        # slack 0 where 7i + j = 0 mod 5 from trial 250 on, among slacks 1..4:
        # three zeros end block 0 and many more are scattered over block 1,
        # and the earliest five are kept, as one trial at a time keeps them
        trials = verify.BLOCK_TRIALS + 300
        starts = iter(range(0, trials, verify.BLOCK_TRIALS))

        def draw(d, m):
            return (next(starts) + np.arange(m),), ["t"] * m

        def slacks(x):
            i, j = x[:, None], np.arange(2)[None, :]
            return np.where((i >= 250) & ((7 * i + j) % 5 == 0), 0.0, 1.0 + (3 * i + j) % 4)

        (report,) = verify._fuzz(trials, [1], draw, lambda x: (x,),
                                 ("tie", slacks, lambda t, j: {"trial": int(t[1][0]), "j": j}))
        kept = [(c["trial"], c["j"]) for c in [report.worst_case] + report.near_misses]
        assert kept == [(250, 0), (252, 1), (255, 0), (257, 1), (260, 0)]
        assert report.min_slack_by_dim == {1: 0.0}
        tracker = WorstTracker()
        for i in range(trials):
            row = slacks(np.array([i]))[0]
            for j in range(2):
                tracker.offer(float(row[j]), 1, lambda i=i, j=j: {"trial": i, "j": j})
        assert report_bytes(report) == report_bytes(tracker.report("tie", trials, [1]))


def assert_exactly_hermitian(stack):
    """Every matrix of the stack is (M + M*)/2 bit for bit, which is what
    HermitianMatrix stores, with a +0.0 imaginary diagonal."""
    stack = np.ascontiguousarray(stack)
    assert stack.dtype == np.complex128
    sym = (stack + np.conj(np.swapaxes(stack, -1, -2))) / 2
    assert sym.tobytes() == stack.tobytes()
    diag = np.diagonal(stack.imag, axis1=-2, axis2=-1)
    assert not diag.any() and not np.signbit(diag).any()


class TestCaseWriter:
    # kept cases are written straight from their stack rows; the oracles of
    # TestSelectorAgainstOracle write them through the wrappers instead

    @pytest.mark.parametrize("d", range(1, 7))
    def test_every_triple_kind_draws_exactly_hermitian_rows(self, d):
        rng = verify._rng(100 + d)
        for kind in range(len(verify._KINDS)):
            for stack in verify._triple_group(rng, kind, 60, d):
                assert_exactly_hermitian(stack)

    @pytest.mark.parametrize("d", range(1, 7))
    def test_operator_cs_draws_exactly_hermitian_S_and_rank1_rows(self, d):
        S, M, N = verify._operator_cs_group(verify._rng(200 + d), 0, 400, d)
        assert_exactly_hermitian(S)
        # a Gaussian M or N is far from Hermitian; the rank-1 ones are Hermitian
        near = [np.all(np.abs(x - np.conj(np.swapaxes(x, -1, -2))) <= 1e-9, axis=(-2, -1))
                for x in (M, N)]
        assert np.array_equal(near[0], near[1]) and 10 <= np.sum(near[0]) <= 80
        assert_exactly_hermitian(M[near[0]])
        assert_exactly_hermitian(N[near[1]])

    @pytest.mark.parametrize("d", range(1, 7))
    def test_ensembles_draw_exactly_hermitian_rows(self, d):
        U, W = verify._ensemble_group(4, verify._rng(300 + d), 0, 60, d)
        assert_exactly_hermitian(U)
        assert_exactly_hermitian(W)

    def test_writers_give_the_wrapper_bytes(self):
        S, M, N = verify._operator_cs_group(verify._rng(7), 0, 20, 3)
        for a in S:
            assert json.dumps(hermitian_json(a)) == json.dumps(HermitianMatrix(a).to_json())
        for a in [*S[:, :3, :5], *M, *N]:
            assert json.dumps(rect_json(a)) == json.dumps(RectMatrix(a).to_json())
        real = np.array([[1.0, -0.5], [-0.5, 2.0]])
        assert json.dumps(hermitian_json(real)) == json.dumps(HermitianMatrix(real).to_json())
        # the writer does not symmetrise: (a + a*)/2 turns a real -0.0 beside
        # an imaginary +0.0 into +0.0, so it takes rows that are fixed points
        zero = np.array([[complex(-0.0, 0.0)]])
        assert json.dumps(hermitian_json(zero)["real"]) == "[-0.0]"
        assert json.dumps(HermitianMatrix(zero).to_json()["real"]) == "[0.0]"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.inf)])
    def test_a_non_finite_case_raises(self, bad):
        a = np.eye(2, dtype=np.complex128)
        a[0, 1] = bad
        with pytest.raises(DomainError):
            verify._triple_case("pmvti", (2, (np.eye(2), a, np.eye(2), 1), "gaussian"),
                                q=1, s=1.0)
        with pytest.raises(DomainError):
            rect_json(a)

    def test_sweeps_build_no_wrapper(self, monkeypatch, capsys):
        built = []
        for cls in (HermitianMatrix, RectMatrix):
            def counted(self, *args, init=cls.__init__):
                built.append(type(self).__name__)
                init(self, *args)
            monkeypatch.setattr(cls, "__init__", counted)
        for new, _, args in ORACLE_SUITES.values():
            report = new(*args, 300, 5)
        assert cli.main(["fuzz", "--ineq", "operator_cs", "--trials", "300", "--seed", "5",
                         "--d", "1:3", "--jobs", "2"]) == 0
        capsys.readouterr()
        assert built == []
        replay_case(report.worst_case)  # the counter is live: replay builds wrappers
        assert built


class TestFuzzSuites:
    def test_pmvti_report_shape(self):
        r = fuzz_pmvti([1, 2], [1, 2, 3], [1.0], trials=40, seed=3)
        assert r.passed and r.trials == 40 and r.dims == [1, 2]
        assert r.min_slack >= -1e-9
        assert set(r.min_slack_by_dim) <= {1, 2}
        wc = r.worst_case
        assert wc["ineq"] == "pmvti"
        assert {"A", "B", "C", "q", "s", "kind", "slack"} <= set(wc)
        assert "sections" not in r.to_json()

    def test_pmvti_deterministic(self):
        a = fuzz_pmvti([1, 3], [2], [0.5, 2.0], trials=25, seed=9)
        b = fuzz_pmvti([1, 3], [2], [0.5, 2.0], trials=25, seed=9)
        assert json.dumps(a.to_json(), sort_keys=True) == \
            json.dumps(b.to_json(), sort_keys=True)

    def test_emvti_small_run(self):
        r = fuzz_emvti([1, 2], [1.0, 4.0], trials=40, seed=5)
        assert r.passed and r.worst_case["ineq"] == "emvti"

    def test_young_small_run(self):
        r = fuzz_young_commuting([1, 2], p=1.5, trials=20, seed=6)
        assert r.passed
        assert r.inequality == "young_commuting(p=1.5)"

    def test_operator_cs_small_run(self):
        r = fuzz_operator_cs([2], trials=30, seed=9)
        assert r.passed and r.min_slack >= -1e-9

    def test_entropy_young_small_run(self):
        r = fuzz_matrix_entropy_young([1, 2], ensemble_size=3, trials=15, seed=1)
        assert r.passed and r.worst_case["ineq"] == "matrix_entropy_young"

    def test_trial_count_validation(self):
        with pytest.raises(ParameterError):
            fuzz_pmvti([1], [2], [1.0], trials=0, seed=0)
        with pytest.raises(ParameterError):
            fuzz_emvti([1], [1.0], trials=-1, seed=0)
        with pytest.raises(ParameterError):
            fuzz_young_commuting([1], p=2.0, trials=0, seed=0)
        with pytest.raises(ParameterError):
            fuzz_operator_cs([1], trials=0, seed=0)
        with pytest.raises(ParameterError):
            fuzz_matrix_entropy_young([1], ensemble_size=2, trials=0, seed=0)

    def test_scalar_grids(self):
        # a scalar d, q or s is a grid of one, numpy scalars included
        want = fuzz_pmvti([2], [3], [1.0], trials=20, seed=4).to_json()
        for q, s in [(3, 1.0), (np.int64(3), np.float64(1.0)), (np.int32(3), 1)]:
            assert fuzz_pmvti(np.int64(2), q, s, trials=20, seed=4).to_json() == want
        assert explore_conjecture(2, 3, 1.0, trials=20, seed=4).to_json() == \
            explore_conjecture([2], [3], [1.0], trials=20, seed=4).to_json()
        assert fuzz_emvti(2, np.float64(4.0), trials=20, seed=4).to_json() == \
            fuzz_emvti([2], [4.0], trials=20, seed=4).to_json()

    @pytest.mark.parametrize("run", [
        lambda: fuzz_pmvti([1], [], [1.0], trials=5, seed=0),
        lambda: fuzz_pmvti([1], [2], [], trials=5, seed=0),
        lambda: fuzz_emvti([1], [], trials=5, seed=0),
        lambda: explore_conjecture([1], [2], [], trials=5, seed=0),
        lambda: explore_conjecture([1], [], [1.0], trials=5, seed=0),
    ])
    def test_empty_grid_is_rejected(self, run):
        with pytest.raises(ParameterError):
            run()

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            fuzz_pmvti([1], [0], [1.0], trials=5, seed=0)
        with pytest.raises(ParameterError):
            fuzz_emvti([0, 2], [1.0], trials=5, seed=0)
        with pytest.raises(ParameterError):
            explore_conjecture(-1, [2], [1.0], trials=5, seed=0)
        with pytest.raises(ParameterError):
            fuzz_matrix_entropy_young([1], ensemble_size=0, trials=5, seed=0)
        with pytest.raises(ParameterError):
            fuzz_pmvti([], [2], [1.0], trials=5, seed=0)
        # a dimension or q is never truncated from a bool or a fraction
        with pytest.raises(ParameterError, match="not an integer"):
            fuzz_pmvti([1.5], [2], [1.0], trials=5, seed=0)
        with pytest.raises(ParameterError, match="not an integer"):
            fuzz_pmvti([1], [2.5], [1.0], trials=5, seed=0)
        with pytest.raises(ParameterError, match="not an integer"):
            explore_conjecture(True, [2], [1.0], trials=5, seed=0)


def sweep_at_defaults(suite, trials, seed):
    """A suite at its FUZZ_SUITES defaults (d = 1..6), or the conjecture sweep
    over d = 1..6; with the per-dimension minima of the report and its sections."""
    if suite == "conjecture":
        r = explore_conjecture(range(1, 7), [1, 2, 3], [1.0], trials, seed)
        return r, [r.min_slack_by_dim] + [{int(d): v for d, v in sec["min_slack_by_dim"].items()}
                                          for sec in r.sections.values()]
    keys, call = verify.FUZZ_SUITES[suite]
    r = call(*keys.values(), trials, seed)
    return r, [r.min_slack_by_dim]


class TestSchedule:
    # each entry of the d grid gets a fixed share of the trials, so a sweep
    # tries every dimension it reports, and refuses to run when it cannot

    @pytest.mark.parametrize("trials", [6, 20])
    @pytest.mark.parametrize("suite", sorted(verify.FUZZ_SUITES) + ["conjecture"])
    def test_every_dimension_is_tried(self, suite, trials):
        # one draw per trial left emvti at 6 trials and seed 3 with d = 1, 2, 4 only
        for seed in (1, 2, 3):
            r, by_dims = sweep_at_defaults(suite, trials, seed)
            assert r.dims == [1, 2, 3, 4, 5, 6] and r.trials == trials
            for by_dim in by_dims:
                assert list(by_dim) == [1, 2, 3, 4, 5, 6], (suite, seed, by_dim)

    @pytest.mark.parametrize("trials,dims,blocks", [
        (7, [1, 2, 3], [(1, 3), (2, 2), (3, 2)]),
        (3, [2, 2, 1], [(2, 1), (2, 1), (1, 1)]),
        (2 * verify.BLOCK_TRIALS + 3, [1, 2],
         [(1, verify.BLOCK_TRIALS), (1, 2), (2, verify.BLOCK_TRIALS), (2, 1)]),
    ])
    def test_shares_in_grid_order(self, monkeypatch, trials, dims, blocks):
        # entry i of K gets trials // K, one more if i < trials % K, in blocks
        # of at most BLOCK_TRIALS, each of one dimension
        seen, stack = [], verify._emvti_stack

        def counted(A, B, C, s):
            seen.append((A.shape[-1], len(A)))
            return stack(A, B, C, s)

        monkeypatch.setattr(verify, "_emvti_stack", counted)
        assert fuzz_emvti(dims, [1.0], trials, seed=1).trials == trials
        assert seen == blocks == list(schedule(trials, dims))

    @pytest.mark.parametrize("suite", sorted(verify.FUZZ_SUITES) + ["conjecture"])
    def test_fewer_trials_than_grid_entries_are_refused(self, suite):
        with pytest.raises(ParameterError, match=r"5 trials .* 6 entries of the d grid"):
            sweep_at_defaults(suite, 5, 1)

    def test_young_reads_p_before_the_trials_rule(self):
        with pytest.raises(ParameterError, match="p > 1, got 0"):
            fuzz_young_commuting(range(1, 7), 0, 1, 1)


class TestConjectureSweep:
    def test_sections_and_pooling(self):
        r = explore_conjecture([1, 2], [2, 3], [0.5, 1.0, 2.0], trials=200, seed=1)
        assert r.inequality == "signed_mvti_conjecture"
        assert set(r.sections) == {"exp", "poly"}
        exp, poly = r.sections["exp"], r.sections["poly"]
        assert exp["pass"] is True
        assert exp["min_slack"] >= -1e-9
        # the polynomial form fails already for scalars; the sweep finds it
        assert poly["pass"] is False
        assert poly["min_slack"] < -1e-2
        assert r.min_slack == min(exp["min_slack"], poly["min_slack"])
        assert r.passed is False
        assert r.worst_case["ineq"] == "conjecture_poly"

    def test_by_dim_pooling(self):
        r = explore_conjecture([1, 2], [2], [1.0], trials=120, seed=2)
        for d, s in r.min_slack_by_dim.items():
            per_form = [sec["min_slack_by_dim"][str(d)]
                        for sec in r.sections.values()
                        if str(d) in sec["min_slack_by_dim"]]
            assert s == min(per_form)

    def test_deterministic(self):
        a = explore_conjecture([1], [2], [1.0], trials=60, seed=7)
        b = explore_conjecture([1], [2], [1.0], trials=60, seed=7)
        assert json.dumps(a.to_json(), sort_keys=True) == \
            json.dumps(b.to_json(), sort_keys=True)

    def test_never_raises_on_violation(self):
        # a failing sweep still returns a report; pass is advisory
        r = explore_conjecture([1], [2], [1.0], trials=80, seed=3)
        assert isinstance(r, FuzzReport)
        assert "sections" in r.to_json()


class TestMergeReports:
    def test_chunked_merge(self):
        a = fuzz_pmvti([1, 2], [2], [1.0], trials=30, seed=10)
        b = fuzz_pmvti([2, 3], [2], [1.0], trials=30, seed=11)
        m = merge_fuzz_reports([a, b])
        assert m.trials == 60
        assert m.dims == [1, 2, 3]
        assert m.min_slack == min(a.min_slack, b.min_slack)
        src = a if a.min_slack <= b.min_slack else b
        assert m.worst_case == src.worst_case
        for d in m.min_slack_by_dim:
            vals = [r.min_slack_by_dim[d] for r in (a, b)
                    if d in r.min_slack_by_dim]
            assert m.min_slack_by_dim[d] == min(vals)
        assert len(m.near_misses) <= 4

    @pytest.mark.parametrize("seeds", [(1,), (1, 2)])
    def test_sectioned_reports_do_not_merge(self, seeds):
        # no verb merges conjecture reports: a merge of their sections is refused
        reports = [explore_conjecture([1], [2], [1.0], trials=50, seed=s) for s in seeds]
        with pytest.raises(ParameterError, match="sections"):
            merge_fuzz_reports(reports)

    def test_merge_rejects_mixed_suites(self):
        a = fuzz_pmvti([1], [2], [1.0], trials=5, seed=0)
        b = fuzz_emvti([1], [1.0], trials=5, seed=0)
        with pytest.raises(ParameterError):
            merge_fuzz_reports([a, b])

    def test_merge_rejects_empty(self):
        with pytest.raises(ParameterError):
            merge_fuzz_reports([])

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("suite", sorted(set(ORACLE_SUITES) - {"conjecture"}))
    def test_merge_of_one_report_is_that_report(self, suite, seed):
        new, _, args = ORACLE_SUITES[suite]
        report = new(*args, 40, seed)
        assert report_bytes(merge_fuzz_reports([report])) == report_bytes(report)

    def test_single_report_roundtrip(self):
        a = fuzz_pmvti([1], [2], [1.0], trials=10, seed=4)
        m = merge_fuzz_reports([a])
        assert m.min_slack == a.min_slack
        assert m.worst_case == a.worst_case


class TestReplay:
    def test_pmvti_worst_case_replays_bit_exact(self):
        r = fuzz_pmvti([1, 2], [2, 4], [0.5, 1.0], trials=30, seed=2)
        out = replay_case(r.worst_case)
        assert out["slack"] == r.worst_case["slack"]

    def test_young_worst_case_replays_bit_exact(self):
        r = fuzz_young_commuting([2], p=3.0, trials=10, seed=8)
        out = replay_case(r.worst_case)
        assert out["slack"] == r.worst_case["slack"]
        assert {"lambda_min_gap", "scale"} <= set(out)

    def test_conjecture_counterexample_replay(self):
        case = {
            "ineq": "conjecture_poly", "q": 2, "s": 1.0,
            "A": HermitianMatrix(scalar(0)).to_json(),
            "B": HermitianMatrix(scalar(-2)).to_json(),
            "C": HermitianMatrix(scalar(-1)).to_json(),
        }
        out = replay_case(case)
        assert out["lhs"] == pytest.approx(4.0, rel=1e-13)
        assert out["rhs"] == pytest.approx(2.0, rel=1e-13)
        assert out["lhs"] > out["rhs"]
        assert out["slack"] == pytest.approx(-1.0 / 3.0, rel=1e-13)

    def test_conjecture_replay_is_advisory(self):
        # the counterexample above: slack -1/3, yet a conjecture_* case passes
        case = {"ineq": "conjecture_poly", "q": 2, "s": 1.0,
                **{k: HermitianMatrix(scalar(v)).to_json() for k, v in zip("ABC", (0, -2, -1))}}
        out = replay_case(case)
        assert out["slack"] < -verify.FUZZ_TOL and replay_passed(out)
        assert replay_passed({"ineq": "conjecture_exp", "slack": -math.inf})

    @pytest.mark.parametrize("slack, passed", [
        (0.5, True), (0.0, True), (-verify.FUZZ_TOL, True), (-2 * verify.FUZZ_TOL, False),
        (-1.0, False), (math.nan, True)])
    def test_theorem_replay_fails_below_the_fuzz_tolerance(self, slack, passed):
        # a NaN slack is not below the tolerance, so it passes, as it always has
        for ineq in ("pmvti", "emvti", "young_commuting", "operator_cs",
                     "matrix_entropy_young"):
            assert replay_passed({"ineq": ineq, "slack": slack}) is passed

    def test_fuzz_worst_case_replay_passes(self):
        r = fuzz_pmvti([1, 2], [2, 4], [0.5, 1.0], trials=30, seed=2)
        assert replay_passed(replay_case(r.worst_case))

    @pytest.mark.parametrize("seed", range(1, 9))
    def test_every_stored_case_replays_bit_exact(self, seed):
        # each draw is exactly Hermitian, so the serialised case replays the
        # very matrices the sweep evaluated, near misses included: 38 cases
        # over the six sweeps per seed, 304 over the eight seeds
        dims, ss = range(1, 7), [0.25, 1.0, 4.0]
        reports = [
            fuzz_pmvti(dims, range(1, 8), ss, trials=60, seed=seed),
            fuzz_emvti(dims, ss, trials=60, seed=seed),
            fuzz_young_commuting(dims, 1.5, trials=60, seed=seed),
            fuzz_young_commuting(dims, 3.0, trials=60, seed=seed),
            fuzz_operator_cs(dims, trials=60, seed=seed),
            fuzz_matrix_entropy_young(dims, 8, trials=60, seed=seed),
            explore_conjecture(dims, [1, 2, 3], [1.0], trials=300, seed=seed),
        ]
        replayed = 0
        for rep in reports:
            for case in [rep.worst_case] + rep.near_misses:
                case = json.loads(json.dumps(case))
                assert replay_case(case)["slack"] == case["slack"], (
                    rep.inequality, case.get("kind"))
                replayed += 1
        assert replayed == 6 * 5 + 8

    def test_replay_rejects_unknown_inequality(self):
        with pytest.raises(ParameterError):
            replay_case({"ineq": "frobnicate"})

    @pytest.mark.parametrize("case", [[1, 2], "x", None, 3.0])
    def test_replay_refuses_a_case_that_is_not_an_object(self, case):
        with pytest.raises(ParameterError, match="a replay case is a JSON object"):
            replay_case(case)


class TestPolyEfronStein:
    def test_hypercube_closed_forms(self):
        # sum of 3 signs: E X^2 = 3, E X^4 = 21, E X^6 = 183; V = 3 E_11
        rep = verify_poly_efron_stein(hypercube_sum(3), [1, 2, 3])
        assert rep["pass"] is True
        moments = {1: 3.0, 2: 21.0, 3: 183.0}
        for row in rep["results"]:
            p = row["p"]
            assert row["lhs"] == pytest.approx(
                moments[p] ** (1.0 / (2 * p)), rel=1e-12)
            assert row["rhs"] == pytest.approx(
                math.sqrt(2 * (2 * p - 1)) * math.sqrt(3.0), rel=1e-12)

    def test_random_model_passes(self):
        rep = verify_poly_efron_stein(random_finite_model(3, 2, seed=6), [1, 2])
        assert rep["pass"] is True
        assert all(row["slack"] >= -1e-10 for row in rep["results"])

    def test_rejects_non_enumerable_model(self, monkeypatch):
        monkeypatch.setattr(stein, "ENUM_CUTOFF", 2)
        with pytest.raises(ParameterError):
            verify_poly_efron_stein(hypercube_sum(3), [1])

    @pytest.mark.parametrize("p", [[1.9], [2.5, 3], 1.5, [True], True, [np.float64(1.5)],
                                   [math.nan]])
    def test_non_integral_p_is_rejected_not_truncated(self, p):
        # int() would check p = 1 for p = 1.9, and p = 1 for True
        with pytest.raises(ParameterError, match="not an integer"):
            verify_poly_efron_stein(hypercube_sum(2), p)

    def test_integral_values_of_other_types_are_read(self):
        want = verify_poly_efron_stein(hypercube_sum(2), [1, 2])
        for p in ([1.0, 2.0], [np.int64(1), np.float64(2.0)], ["1", "2"]):
            assert verify_poly_efron_stein(hypercube_sum(2), p) == want


def random_additive_model(seed, d=2):
    """H(z) = sum_j f_j(z_j): a seeded random Hermitian f_j(v) for each value v
    of coordinates of 2, 3 and 4 values with unequal probabilities."""
    coords = [stein.FiniteCoord([(-1.0, 0.3), (2.0, 0.7)]),
              stein.FiniteCoord([(0.0, 0.2), (1.0, 0.5), (-3.0, 0.3)]),
              stein.FiniteCoord([(-1.0, 0.1), (0.0, 0.4), (1.0, 0.3), (4.0, 0.2)])]
    dist = stein.ProductDistribution(coords)
    rng = np.random.Generator(np.random.Philox(seed))
    f = [rng.standard_normal((len(c), d, d)) + 1j * rng.standard_normal((len(c), d, d))
         for c in coords]

    def H(zs):
        digits = np.unravel_index(dist.locate(zs), dist.shape)
        return sum(fj[k] for fj, k in zip(f, digits))

    return MatrixModel(dist, H, d, name=f"random_additive(seed={seed})")


ADDITIVE_MODELS = [lambda: hypercube_sum(5), lambda: stein.bounded_diff_demo(3),
                   lambda: random_additive_model(8)]


# lhs = rhs(s*) at p = 1 on an additive model, relative
KERNEL_EQUALITY_RTOL = 1e-12


class TestEqualityCases:
    """On an additive model H = sum_j f_j(z_j), E X^2 = E V exactly, and the
    Poisson solution is g = n X, so V^K = n^2 V_X: a V or a V^K off by a
    constant factor fails here, where every inequality gate still passes."""

    @pytest.mark.parametrize("build", ADDITIVE_MODELS)
    def test_poly_efron_stein_at_p1_is_one_over_root_two(self, build):
        row = verify_poly_efron_stein(build(), [1])["results"][0]
        assert abs(row["lhs"] / row["rhs"] - 1.0 / math.sqrt(2.0)) <= 1e-12

    @pytest.mark.parametrize("build", ADDITIVE_MODELS)
    def test_kernel_variance_is_n_squared_times_the_pair_variance(self, build):
        m = build()
        n = m.dist.n
        vx, vk = stein.conditional_variance_map(m, ExactKernel(m))
        assert np.max(np.abs(vk)) > 0.0
        assert np.max(np.abs(vk - n * n * vx)) <= 1e-12 * np.max(np.abs(vk))

    @staticmethod
    def kernel_bound_at_p1(m) -> dict:
        return verify_kernel_poly_moments(m, ExactKernel(m), [1], verify.DEFAULT_S_GRID)

    @pytest.mark.parametrize("build", ADDITIVE_MODELS)
    def test_kernel_bound_at_p1_is_an_equality_at_s_star(self, build):
        # E tr (s V_X + V^K/s)/2 = E tr V (s/n + n/s)/2 is E tr X^2 at s* = n, the
        # one s where the kernel bound at p = 1 is the left side; off the grid here
        m = build()
        row = self.kernel_bound_at_p1(m)["results"][0]
        assert abs(row["rhs_at_s_star"] - row["lhs"]) <= KERNEL_EQUALITY_RTOL * row["lhs"]
        assert row["s_star"] == pytest.approx(m.dist.n, rel=1e-14)
        assert row["best_rhs"] > row["lhs"] * (1.0 + 1e-4)

    @pytest.mark.parametrize("factor", [0.993, 2.0])
    def test_both_maps_scaled_fail_the_equality_gate(self, factor, monkeypatch):
        # V_X and V^K scaled alike keep s* = n and scale rhs(s*) by sqrt(factor);
        # every grid row still passes, the nearest grid s being 4 and 5.66
        maps = stein.conditional_variance_map
        monkeypatch.setattr(stein, "conditional_variance_map",
                            lambda m, k: tuple(factor * t for t in maps(m, k)))
        m = hypercube_sum(5)
        rep = self.kernel_bound_at_p1(m)
        row = rep["results"][0]
        assert rep["pass"] is True
        assert abs(row["rhs_at_s_star"] / row["lhs"] - math.sqrt(factor)) <= 1e-14
        assert abs(row["rhs_at_s_star"] - row["lhs"]) > KERNEL_EQUALITY_RTOL * row["lhs"]
        # at 0.993 the bound fails at s*: the s* row, not any grid row, sees it
        assert (row["rhs_at_s_star"] < row["lhs"] - verify.EXACT_TOL) == (factor < 1.0)


class TestExpEfronStein:
    def test_hypercube_closed_form(self):
        # n=2, d=1, theta=1/2, psi=1: lhs = log((1 + cosh 1)/2), rhs = 1
        rep = verify_exp_efron_stein(hypercube_sum(2, d=1), [0.5], [1.0])
        assert rep["pass"] is True
        row = rep["results"][0]
        assert row["lhs"] == pytest.approx(
            math.log((1.0 + COSH1) / 2.0), rel=1e-12)
        assert row["rhs"] == pytest.approx(1.0, rel=1e-12)

    def test_inadmissible_pairs_are_skipped(self):
        rep = verify_exp_efron_stein(hypercube_sum(2), [0.5, 10.0], [1.0])
        assert rep["skipped"] == [{"theta": 10.0, "psi": 1.0}]
        assert len(rep["results"]) == 1

    def test_random_model_passes(self):
        rep = verify_exp_efron_stein(random_finite_model(2, 2, seed=3),
                                     [-0.25, 0.25], [0.5])
        assert rep["pass"] is True

    def test_left_side_is_one_pass_per_theta(self, monkeypatch):
        # log E tr-bar e^{theta X} does not depend on psi: one exp pass over
        # X's spectra per theta, however many psi share it
        m = random_finite_model(4, 3, seed=0)
        scales = []
        mgf = verify._log_trace_mgf

        def counted(probs, lam, scale):
            if lam is m.X_spectra():
                scales.append(scale)
            return mgf(probs, lam, scale)

        monkeypatch.setattr(verify, "_log_trace_mgf", counted)
        rep = verify_exp_efron_stein(m, [-0.25, 0.25], [1.0, 2.0, 4.0])
        assert scales == [-0.25, 0.25]
        assert [(r["psi"], r["theta"]) for r in rep["results"]] == [
            (psi, theta) for psi in (1.0, 2.0, 4.0) for theta in (-0.25, 0.25)]


class TestKernelChecks:
    def test_exact_kernel_moments(self):
        m = hypercube_sum(3)
        rep = verify_kernel_poly_moments(m, ExactKernel(m), [1, 2],
                                         [0.5, 1.0, 2.0])
        assert rep["pass"] is True
        assert rep["kernel_inflation"] == 0.0
        for row in rep["results"]:
            assert row["best_rhs"] >= row["lhs"] - 1e-10

    def test_estimated_kernel_moments_inflate(self):
        m = hypercube_sum(2)
        ek = EstimatedKernel(m, horizon=stein.default_horizon(2, m.max_h_norm()),
                             samples=400, seed=21)
        rep = verify_kernel_poly_moments(m, ek, [1], [1.0])
        assert rep["kernel_inflation"] > 0.0
        assert rep["pass"] is True

    def test_estimated_kernel_moments_pass_on_every_seed(self):
        # hypercube_sum(3) at 500 samples per pair, the estimated-kernel
        # configuration of the README and the benchmark
        m = hypercube_sum(3)
        horizon = stein.default_horizon(3, m.max_h_norm())
        for seed in range(20):
            ek = EstimatedKernel(m, horizon=horizon, samples=500, seed=seed)
            rep = verify_kernel_poly_moments(m, ek, [1, 2], verify.DEFAULT_S_GRID)
            assert rep["pass"] is True, seed

    def test_variance_domination(self):
        m = hypercube_sum(3)
        out = variance_domination(m, ExactKernel(m))
        assert out["pass"] is True
        assert out["lambda_min_gap"] >= -1e-9

    def test_rejects_non_enumerable_model(self, monkeypatch):
        monkeypatch.setattr(stein, "ENUM_CUTOFF", 2)
        with pytest.raises(ParameterError):
            variance_domination(hypercube_sum(3), None)

    def test_checks_never_build_the_pair_table(self, monkeypatch, capsys):
        # every exact check is a sum over replacement neighbours, linear in S
        def refuse(self):
            raise AssertionError("S x S kernel table or pair pmf built")

        monkeypatch.setattr(ExactKernel, "table", property(refuse))
        monkeypatch.setattr(stein.ExchangeablePair, "joint_pmf", refuse)
        m = hypercube_sum(12)
        k = ExactKernel(m)
        assert verify_poly_efron_stein(m, [1, 2])["pass"] is True
        assert verify_exp_efron_stein(m, [-0.25, 0.25], [1.0])["pass"] is True
        assert verify_kernel_poly_moments(m, k, [1, 2], [0.5, 1.0, 2.0])["pass"] is True
        assert variance_domination(m, k)["pass"] is True
        assert stein.check_stein_identity(m, k).residual <= 1e-10
        assert stein.kernel_mean_norm(m, k) <= 1e-10
        assert stein.exchangeable_pairs_identity(m, k, lambda x: x @ x @ x) <= 1e-10
        assert cli.main(["verify", "--check", "kernel_identities",
                         "--model", "hypercube_sum", "--n", "12"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["antisymmetry_max"] == 0.0 and report["pmf_asymmetry"] == 0.0


def oracle_kernel_poly_moments(model, kernel, p_list, s_grid, estimate=None):
    """verify_kernel_poly_moments with one eigvalsh and one checked moment per
    s, in report order: the reference for the blocked s-grid.  ``estimate`` is
    the (horizon, samples, seed) of an estimated kernel, whose per-pair error
    radii come from oracle_estimated_radii."""
    vx, vk = stein.conditional_variance_map(model, kernel)

    def inflation_term(j, v):
        r = radii[j, v]
        knorm = svd_opnorms(on_neighbours(kernel, j, v))
        return (2.0 * knorm * r + r * r) / 2.0

    def moment(lam, q):
        with np.errstate(over="ignore"):
            out = float(probs @ np.sum(np.abs(lam) ** q, axis=1))
        if not math.isfinite(out):
            raise DomainError(f"Schatten moment overflows at order {q!r}")
        return out

    def spectra(T):
        return np.linalg.eigvalsh(stein.outcome_stack(T))

    inflation = 0.0
    if estimate is not None:
        _, radii = oracle_estimated_radii(model, *estimate)
        inflation = float(np.max(replacement_sum(model.dist, inflation_term, pair_law=True)))
    vk = vk + inflation * np.eye(model.d)
    probs = model.dist.probabilities().ravel()
    lam_x = spectra(model.X_tensor())
    lam_s = [spectra(0.5 * (s * vx + vk * (1.0 / s))) for s in s_grid]
    results = []
    for p in p_list:
        lhs = moment(lam_x, 2 * p) ** (1.0 / (2 * p))
        per_s = []
        for s, lam in zip(s_grid, lam_s):
            rhs = math.sqrt(2 * p - 1) * moment(lam, p) ** (1.0 / (2 * p))
            per_s.append({"s": s, "rhs": rhs, "slack": rhs - lhs,
                          "pass": bool(rhs - lhs >= -verify.EXACT_TOL)})
        best = min(per_s, key=lambda r: r["rhs"])
        results.append({"p": p, "lhs": lhs, "best_rhs": best["rhs"],
                        "best_s": best["s"], "grid": per_s,
                        "pass": all(r["pass"] for r in per_s)})
    return {"schema_version": verify.SCHEMA_VERSION, "check": "kernel_poly_moments",
            "model": model.name, "tolerance": verify.EXACT_TOL,
            "kernel_inflation": inflation, "results": results,
            "pass": all(r["pass"] for r in results)}


# the kernel bound read off its polynomial in s against the oracle's eigvalsh, relative
KERNEL_RHS_RTOL = 1e-13


def assert_kernel_report_matches(got, want):
    """got's right-hand sides within KERNEL_RHS_RTOL of the oracle's (each grid
    slack within that share of its rhs), its inflation within OPNORM_RTOL (the
    oracle's norms are the SVD's), and every other field equal; s_star and
    rhs_at_s_star, which the oracle does not report, are checked by the caller."""
    def near(x, y, scale, rtol=KERNEL_RHS_RTOL):
        return abs(x - y) <= rtol * scale

    assert near(got["kernel_inflation"], want["kernel_inflation"], want["kernel_inflation"],
                OPNORM_RTOL)
    rest = json.loads(json.dumps(got))
    rest["kernel_inflation"] = want["kernel_inflation"]
    for g, w in zip(rest["results"], want["results"], strict=True):
        assert near(g["best_rhs"], w["best_rhs"], w["best_rhs"])
        g["best_rhs"] = w["best_rhs"]
        del g["s_star"], g["rhs_at_s_star"]
        for a, b in zip(g["grid"], w["grid"], strict=True):
            assert near(a["rhs"], b["rhs"], b["rhs"]) and near(a["slack"], b["slack"], b["rhs"])
            a["rhs"], a["slack"] = b["rhs"], b["slack"]
    assert json.dumps(rest, sort_keys=True) == json.dumps(want, sort_keys=True)


def eig_calls(monkeypatch) -> list:
    """The shape of every stack handed to an eigendecomposition or SVD from now on."""
    calls = []
    for name in ("eigvalsh", "eigh", "eigvals", "eig", "svd"):
        def counted(a, *args, _f=getattr(np.linalg, name), **kwargs):
            calls.append(np.shape(a))
            return _f(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


class TestKernelMomentGrid:
    """kernel_poly_moments reads every s of the grid, and the minimiser s*, off
    the bound's polynomial in s: no s-grid eigendecomposition, each rhs the
    per-s eigvalsh oracle's to roundoff."""

    @pytest.mark.parametrize("build", [
        lambda: hypercube_sum(3), lambda: stein.compound_covariance(2, 3),
        lambda: random_finite_model(3, 2, seed=5), lambda: stein.bounded_diff_demo(3),
        lambda: hypercube_sum(4, d=4), lambda: stein.dilate_model(rect_demo(3)),
        *ADDITIVE_MODELS,
    ])
    @pytest.mark.parametrize("estimated", [False, True])
    @pytest.mark.parametrize("s_grid", [verify.DEFAULT_S_GRID, (0.25, 1.0, 3.0)])
    def test_report_matches_the_per_s_oracle(self, build, estimated, s_grid):
        m = build()
        estimate = (8, 100, 3) if estimated else None
        k = EstimatedKernel(m, *estimate) if estimated else ExactKernel(m)
        got = verify_kernel_poly_moments(m, k, [1, 2, 3, 4], s_grid)
        assert_kernel_report_matches(got, oracle_kernel_poly_moments(m, k, [1, 2, 3, 4],
                                                                     s_grid, estimate))
        assert (got["kernel_inflation"] > 0.0) == estimated
        for row in got["results"]:
            # s* is the oracle's minimiser: its rhs, no grid point's above it, and
            # the rhs a step either side of it no lower
            s_star, rhs_star = row["s_star"], row["rhs_at_s_star"]
            at = oracle_kernel_poly_moments(m, k, [row["p"]], [s_star, s_star * 0.99,
                                                                s_star / 0.99], estimate)
            near = [r["rhs"] for r in at["results"][0]["grid"]]
            assert abs(rhs_star - near[0]) <= KERNEL_RHS_RTOL * near[0]
            assert rhs_star <= min(near[1:]) and rhs_star <= row["best_rhs"] * (1 + 1e-15)

    @pytest.mark.parametrize("p_list", [[4], [6, 1], [5, 2], [3, 6, 3]])
    def test_a_row_does_not_depend_on_the_other_p(self, p_list):
        # the half powers a p needs are kept, the others dropped as the recursion climbs
        m = random_finite_model(3, 2, seed=5)
        k = ExactKernel(m)
        rows = {r["p"]: r for r in verify_kernel_poly_moments(m, k, range(1, 7), [0.5, 2.0])[
            "results"]}
        got = verify_kernel_poly_moments(m, k, p_list, [0.5, 2.0])["results"]
        assert json.dumps(got) == json.dumps([rows[p] for p in p_list])

    def test_no_eigendecomposition_of_the_s_grid(self, monkeypatch):
        # no decomposition of any s V_X + V^K/s, nor of anything else, once X's spectra are kept
        m = hypercube_sum(3)
        k = ExactKernel(m)
        m.X_spectra()  # the left side's, kept on the model
        calls = eig_calls(monkeypatch)
        verify_kernel_poly_moments(m, k, [1, 2, 3], verify.DEFAULT_S_GRID)
        assert calls == []
        est = EstimatedKernel(m, 8, 100, 3)
        calls.clear()  # the estimate's error budget takes its own eigvalsh
        verify_kernel_poly_moments(m, est, [1, 2, 3], verify.DEFAULT_S_GRID)
        assert calls == []

    def test_p_above_the_cap_is_a_parameter_error(self):
        m = hypercube_sum(2)
        k = ExactKernel(m)
        verify_kernel_poly_moments(m, k, [verify.KERNEL_P_MAX], [1.0])
        with pytest.raises(ParameterError, match="p up to 16, got 17"):
            verify_kernel_poly_moments(m, k, [1, verify.KERNEL_P_MAX + 1], [1.0])

    @pytest.mark.parametrize("estimated", [False, True])
    def test_a_zero_map_reports_no_s_star(self, estimated):
        # H constant: V_X = 0, and V^K = 0 or (estimated) its inflation times I, so
        # no s minimises the bound; the zero V_X^p coefficient adds nothing at
        # s = 1e300, where 0 * s^p would be NaN
        dist = stein.ProductDistribution.uniform_pm1(2)
        m = MatrixModel(dist, lambda zs: np.tile(np.eye(2), (len(zs), 1, 1)), 2, name="constant")
        estimate = (8, 100, 3) if estimated else None
        k = EstimatedKernel(m, *estimate) if estimated else ExactKernel(m)
        assert (k.inflation > 0.0) == estimated
        rep = verify_kernel_poly_moments(m, k, [1, 2, 3], [1.0, 1e300])
        json.dumps(rep, allow_nan=False)
        assert rep["pass"] is True
        assert_kernel_report_matches(rep, oracle_kernel_poly_moments(m, k, [1, 2, 3],
                                                                     [1.0, 1e300], estimate))
        for row in rep["results"]:
            assert row["s_star"] is None and row["rhs_at_s_star"] is None
            assert (row["grid"][0]["rhs"] > 0.0) == estimated

    def test_laurent_leaves_zero_coefficients_out(self):
        c = np.array([2.0, 0.0, 0.0])  # 2 s^-2: 0 * inf from the s^2 term would be NaN
        assert verify._laurent(c, np.array([1e300, 1.0])).tolist() == [0.0, 2.0]
        assert verify._laurent_argmin(c) is None
        assert verify._laurent_argmin(np.array([0.0, 0.0, 3.0])) is None
        assert verify._laurent_argmin(np.zeros(4)) is None
        assert verify._laurent_argmin(np.array([0.0, 5.0, 0.0])) is None
        # closed forms: sqrt(c0 / c1) at p = 1 and (c0 / c2)^(1/4) at p = 2
        assert verify._laurent_argmin(np.array([9.0, 1.0])) == pytest.approx(3.0, rel=1e-15)
        assert verify._laurent_argmin(np.array([16.0, 7.0, 1.0])) == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.parametrize("c", [[1e-200, 1.0, 1e3, 1e200], [1.0, 0.0, 0.0, 0.0, 0.0, 1.0],
                                   [5.0, 4.0, 3.0, 2.0, 1.0, 0.5, 0.25, 0.1],
                                   [0.0, 1.0, 1e-12, 0.0, 7.0]])
    def test_laurent_argmin_is_a_stationary_point(self, c):
        # Newton in log s from the outer terms' balance, with a bracket: at s* the
        # slope sum_j (2j - p) c_j s^(2j - p) vanishes to roundoff of its terms
        c = np.array(c)
        s = verify._laurent_argmin(c)
        k = 2 * np.arange(len(c)) - (len(c) - 1)
        terms = k * c * s ** k.astype(float)
        assert abs(terms.sum()) <= 1e-13 * np.abs(terms).sum()

    def test_right_hand_side_overflow_is_a_domain_error(self):
        m = hypercube_sum(2)
        with pytest.raises(DomainError, match="overflows at order 2"):
            verify_kernel_poly_moments(m, ExactKernel(m), [2], [1.0, 1e300])

    @pytest.mark.parametrize("p_list,s_grid", [
        ([100000], verify.DEFAULT_S_GRID), ([1, 100000], [1.0, 1e300]),
        ([1, 2], [1e300, 1.0]), ([3, 2], [1.0, 1e300]),
    ])
    def test_the_first_overflow_in_row_order_is_raised(self, p_list, s_grid):
        # each p's left-hand side, then its s in grid order, as the per-s loop
        m = hypercube_sum(2)
        k = ExactKernel(m)
        with pytest.raises(DomainError) as want:
            oracle_kernel_poly_moments(m, k, p_list, s_grid)
        with pytest.raises(DomainError) as got:
            verify_kernel_poly_moments(m, k, p_list, s_grid)
        assert str(got.value) == str(want.value)


def complex_twin(model):
    """The model with H upcast to complex: the reference for a real model's reports."""
    return MatrixModel(model.dist, lambda zs: np.asarray(model._H(zs), dtype=np.complex128),
                       model.d, name=model.name)


def exact_reports(m) -> list:
    """The reports of the four exact checks, kernel_poly_moments with each kernel."""
    k = ExactKernel(m)
    est = EstimatedKernel(m, horizon=8, samples=100, seed=3)
    return [verify_poly_efron_stein(m, [1, 2, 3]),
            verify_exp_efron_stein(m, [-0.3, -0.1, 0.1, 0.3], [1.0, 4.0]),
            verify_kernel_poly_moments(m, k, [1, 2], verify.DEFAULT_S_GRID),
            verify_kernel_poly_moments(m, est, [1, 2], verify.DEFAULT_S_GRID),
            verify.verify_kernel_identities(m)]


def relative_deviations(a, b) -> list:
    """|x - y| / max(|x|, |y|) over the float fields of two reports that
    agree in every other field."""
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        return [r for k in a for r in relative_deviations(a[k], b[k])]
    if isinstance(a, list):
        assert len(a) == len(b)
        return [r for x, y in zip(a, b) for r in relative_deviations(x, y)]
    if isinstance(a, float):
        return [abs(a - b) / max(abs(a), abs(b))] if a != b else []
    assert a == b
    return []


class TestRealModelReports:
    """A real model reports what its complex twin reports: bit for bit at d = 2,
    where real and complex eigvalsh agree, and to roundoff above."""

    @pytest.mark.parametrize("build", [
        lambda: hypercube_sum(6), lambda: stein.compound_covariance(2, 3),
        lambda: stein.compound_covariance(2, 4),
        lambda: stein.compound_covariance(2, 3, B=np.diag([1.0, 2.0, 0.5]) + 0.3),
    ])
    def test_d2_reports_equal_the_complex_twin_bitwise(self, build):
        m = build()
        assert m.H_tensor().dtype == np.float64
        assert (json.dumps(exact_reports(m), sort_keys=True)
                == json.dumps(exact_reports(complex_twin(m)), sort_keys=True))

    @pytest.mark.parametrize("build", [
        lambda: hypercube_sum(4, d=4), lambda: stein.compound_covariance(3, 2),
        lambda: stein.dilate_model(rect_demo(3)), lambda: stein.dilate_model(rect_demo(4)),
    ])
    def test_reports_above_d2_match_the_complex_twin(self, build):
        m = build()
        assert m.H_tensor().dtype == np.float64
        devs = relative_deviations(exact_reports(m), exact_reports(complex_twin(m)))
        assert max(devs, default=0.0) <= 1e-15


class TestDkwRadius:
    def test_frozen_values(self):
        assert dkw_radius(100_000, 0.01) == pytest.approx(
            0.005146997846583986, rel=1e-15)
        assert dkw_radius(1000, 0.01) == pytest.approx(
            0.05146997846583985, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ParameterError):
            dkw_radius(0, 0.01)
        with pytest.raises(ParameterError):
            dkw_radius(100, 0.0)
        with pytest.raises(ParameterError):
            dkw_radius(100, 1.0)


class TestEmpiricalTail:
    def test_survival_curve_shape(self):
        m = hypercube_sum(3, d=1)
        out = empirical_tail(m, samples=400, t_grid=[0, 1, 2, 3, 4], seed=1)
        assert np.all(np.diff(out.survival) <= 0)
        assert out.survival[-1] == 0.0  # the statistic never exceeds 3
        assert out.radius == pytest.approx(
            math.sqrt(math.log(200.0) / 800.0), rel=1e-14)
        assert out.dominated is True

    def test_domination_against_generous_bound(self):
        m = hypercube_sum(3, d=1)
        curve = bounds.make_curve("bounded_diff", d=1, sigma2=3.0)
        out = empirical_tail(m, samples=500, t_grid=[0.5, 1.5, 2.5, 3.5],
                             seed=2, curve=curve)
        assert out.violations == []
        assert out.dominated is True

    def test_violations_flagged_for_tiny_bound(self):
        m = hypercube_sum(3, d=1)
        curve = bounds.make_curve("bounded_diff", d=1, sigma2=1e-4)
        out = empirical_tail(m, samples=500, t_grid=[0.5, 1.5, 2.5],
                             seed=2, curve=curve)
        assert out.violations
        assert out.dominated is False

    def test_json_keys(self):
        m = hypercube_sum(2, d=1)
        curve = bounds.make_curve("bounded_diff", d=1, sigma2=2.0)
        blob = empirical_tail(m, samples=200, t_grid=[0.0, 1.0], seed=3,
                              curve=curve).to_json()
        assert "violations" in blob and "dominated" not in blob
        assert blob["bound"] == "bounded_diff"
        assert len(blob["bound_values"]) == 2

    def test_sample_size_floor(self):
        with pytest.raises(ParameterError):
            empirical_tail(hypercube_sum(2, d=1), samples=99, t_grid=[0.0], seed=0)

    @pytest.mark.parametrize("samples", [100.5, True])
    def test_fractional_sample_count_is_refused(self, samples):
        with pytest.raises(ParameterError, match="not an integer"):
            empirical_tail(hypercube_sum(2, d=1), samples, t_grid=[0.0], seed=0)

    def test_unknown_statistic(self):
        with pytest.raises(ParameterError):
            sample_statistics(hypercube_sum(2, d=1), 10, 0, "trace")

    def test_opnorm_dominates_lmax(self):
        m = random_finite_model(2, 2, seed=5)
        lo = sample_statistics(m, 50, 3, "lmax")
        hi = sample_statistics(m, 50, 3, "opnorm")
        assert np.all(hi >= lo - 1e-12)

    def test_unknown_statistic_rectangular(self):
        with pytest.raises(ParameterError):
            sample_statistics(rect_demo(3), 10, 0, "trace")

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_rectangular_matches_per_sample_svd(self, seed):
        model = rect_demo(3)
        zs = model.dist.sample_many(verify._rng(seed), 3000)
        expect = [np.linalg.svd(model.H(tuple(z)) - model.mean(), compute_uv=False)[0]
                  for z in zs]
        assert np.array_equal(sample_statistics(model, 3000, seed, "lmax"), expect)

    @pytest.mark.parametrize("make", [
        lambda: hypercube_sum(4),
        lambda: stein.bounded_diff_demo(5, 3),
        lambda: stein.compound_covariance(2, 3),
        lambda: stein.compound_covariance(2, 3, B=np.diag([1.0, 2.0, 0.5]) + 0.3),
        lambda: random_finite_model(4, 3, 1),
        lambda: stein.dilate_model(rect_demo(3)),
    ])
    @pytest.mark.parametrize("statistic", ["lmax", "opnorm"])
    def test_enumerable_matches_per_sample_eigvalsh(self, make, statistic):
        # oracle: one eigvalsh per sample of H(z) - E H
        model = make()
        zs = model.dist.sample_many(verify._rng(8), 2000)
        eigs = np.array([np.linalg.eigvalsh(model.H(tuple(z)) - model.mean()) for z in zs])
        expect = (eigs[:, -1] if statistic == "lmax"
                  else np.maximum(eigs[:, -1], -eigs[:, 0]))
        assert np.array_equal(sample_statistics(model, 2000, 8, statistic), expect)

    def test_sampled_real_model_memory(self):
        # 1e5 draws of six real entries are 4.8 MB and their 2 x 2 real stack
        # 3.2 MB; complex copies of the stacks took the peak to 23.7 MB
        m = stein.compound_covariance(2, 3, entry_dist="uniform")
        tracemalloc.start()
        try:
            empirical_tail(m, 100_000, np.arange(0.0, 8.0, 0.5), seed=11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_rectangular_model_above_the_cutoff_is_refused_before_H(self, monkeypatch):
        # H once ran on every outcome before the mean refused the model
        model = rect_demo(4)
        monkeypatch.setattr(stein, "ENUM_CUTOFF", 8)

        def refuse(zs):
            raise AssertionError("H ran on a model above the cutoff")

        monkeypatch.setattr(model, "_H", refuse)
        with pytest.raises(PreconditionError, match="enumerated exactly only"):
            empirical_tail(model, 1000, [0.5, 1.0], 1)

    def test_rectangular_model_uses_singular_values(self):
        vals = sample_statistics(rect_demo(3), 120, 4, "lmax")
        assert vals.shape == (120,)
        assert np.all(vals >= 0)

    @staticmethod
    def sorted_sample_report(model, samples, t_grid, seed, curve, statistic):
        """The report of one sort of the per-sample statistics, searched per t."""
        t_grid = np.asarray(t_grid, dtype=float)
        vals = np.sort(sample_statistics(model, samples, seed, statistic))
        surv = (samples - np.searchsorted(vals, t_grid, side="left")) / samples
        radius = dkw_radius(samples, 0.01)
        out = verify.TailComparison(statistic, t_grid, surv, radius, 0.01, samples, seed)
        if curve is not None:
            out.bound_name = curve.name
            out.bound_values = np.array([curve.raw(float(t)) for t in t_grid])
            out.violations = [float(t) for t, b, s in zip(t_grid, out.bound_values, surv)
                              if b + radius < s]
        return json.dumps(out.to_json())

    @pytest.mark.parametrize("make, t_grid, curve", [
        # integer t at the atoms of sum z_j, and half-integers between them
        (lambda: hypercube_sum(4), np.arange(0.0, 6.5, 0.5),
         lambda: bounds.make_curve("bounded_diff", d=2, sigma2=16.0)),
        (lambda: hypercube_sum(4), np.arange(-5.0, 5.5, 0.5), lambda: None),
        (lambda: stein.compound_covariance(2, 3), np.arange(0.0, 6.25, 0.25),
         lambda: bounds.make_curve("compound_cov", spec=bounds.CompoundCovSpec(
             p=2, n=3, sigma2=1.0, L=1.0, B=np.eye(3)))),
        (lambda: rect_demo(3), np.arange(0.0, 6.5, 0.5), lambda: None),
        # lambda_max is 2 at six of eight outcomes, rounded a last bit either side
        (lambda: stein.dilate_model(rect_demo(3)), np.arange(0.0, 6.5, 0.5), lambda: None),
        (lambda: random_finite_model(5, 3, 2), np.arange(-4.0, 4.25, 0.25), lambda: None),
        # the far ends count as one sort counts them
        (lambda: random_finite_model(3, 2, 9), [-1e308, -0.0, 0.0, 1e308], lambda: None),
    ])
    @pytest.mark.parametrize("statistic", ["lmax", "opnorm"])
    @pytest.mark.parametrize("seed", [1, 7, 2026])
    def test_per_outcome_counts_are_the_sorted_samples(self, make, t_grid, curve, statistic,
                                                       seed):
        got = empirical_tail(make(), 20_000, t_grid, seed, curve=curve(), statistic=statistic)
        want = self.sorted_sample_report(make(), 20_000, t_grid, seed, curve(), statistic)
        assert json.dumps(got.to_json()) == want

    def test_sampled_model_keeps_the_per_sample_sort(self):
        m = stein.compound_covariance(2, 3, entry_dist="uniform")
        got = empirical_tail(m, 2000, np.arange(0.0, 4.5, 0.5), 3, statistic="opnorm")
        want = self.sorted_sample_report(m, 2000, np.arange(0.0, 4.5, 0.5), 3, None, "opnorm")
        assert json.dumps(got.to_json()) == want


class TestKeptSpectra:
    CHECKS = [
        lambda m: verify_poly_efron_stein(m, [1, 2, 3]),
        lambda m: verify_exp_efron_stein(m, [-0.25, 0.25], [1.0]),
        lambda m: verify_kernel_poly_moments(m, ExactKernel(m), [1, 2], verify.DEFAULT_S_GRID),
        lambda m: empirical_tail(m, 1000, [0.0, 1.0, 2.0], 3).to_json(),
        lambda m: empirical_tail(m, 1000, [0.0, 1.0, 2.0], 3, statistic="opnorm").to_json(),
        lambda m: verify_exp_efron_stein(m, [0.5], [1.0, 2.0]),
    ]

    @pytest.mark.parametrize("make", [
        lambda: random_finite_model(4, 3, 5),
        lambda: hypercube_sum(4),
        lambda: stein.compound_covariance(2, 3),
        lambda: stein.dilate_model(rect_demo(3)),
    ])
    def test_X_and_V_are_each_decomposed_once(self, make, monkeypatch):
        seen = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            seen.append(np.array(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        m = make()
        reports = [check(m) for check in self.CHECKS]
        monkeypatch.undo()
        for T, spectra in ((m.X_tensor(), m.X_spectra),
                           (stein.variance_proxy_map(m), lambda: stein.variance_proxy_spectra(m))):
            stack = stein.outcome_stack(T)
            assert sum(a.shape == stack.shape and np.array_equal(a, stack) for a in seen) == 1
            lam = spectra()
            assert spectra() is lam and not lam.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                lam[...] = 0.0
        assert reports == [check(make()) for check in self.CHECKS]  # each on a fresh model


# ---------------------------------------------------------------------------
# the integer rule: every seeded entry point reads its seed and its counts
# through matcore._count

Z3, ZP3 = (1.0, 1.0, -1.0), (-1.0, 1.0, 1.0)


def _fuzz_json(report):
    return json.dumps(report.to_json(), sort_keys=True)


def _pair_draws(seed, d):
    pair = stein.ExchangeablePair(random_finite_model(3, d, 1), seed)
    return pair.seed, [pair.sample() for _ in range(4)]


def _kernel_estimate(seed, horizon):
    est = stein.estimate_kernel(random_finite_model(3, 2, 1), Z3, ZP3, horizon, 20, seed)
    return est.seed, est.horizon, est.estimate.a.tobytes()


def _random_model(seed, d):
    model = random_finite_model(3, d, seed)
    return model.name, model.H_tensor().tobytes()


# name -> (run(seed, size), the size that run takes by default); ``size`` is
# the horizon, samples, trials, ensemble_size, d or another count of the call
SEEDED = {
    "sample_coupling_times": (lambda seed, k: stein.sample_coupling_times(3, k, seed).tolist(), 20),
    "simulate_kernel_coupling": (lambda seed, k: vars(stein.simulate_kernel_coupling(
        hypercube_sum(3), Z3, ZP3, k, seed)), 50),
    "ExchangeablePair": (_pair_draws, 2),
    "estimate_kernel": (_kernel_estimate, 6),
    "EstimatedKernel": (lambda seed, k: EstimatedKernel(
        random_finite_model(3, 2, 1), 6, k, seed).g.tobytes(), 20),
    "MatrixModel.sample_X": (lambda seed, k: random_finite_model(3, 2, 1).sample_X(
        k, seed).tobytes(), 20),
    "random_finite_model": (_random_model, 2),
    "fuzz_pmvti": (lambda seed, k: _fuzz_json(fuzz_pmvti([1, 2], [1, 2], [1.0], k, seed)), 8),
    "fuzz_emvti": (lambda seed, k: _fuzz_json(fuzz_emvti([1, 2], [1.0], k, seed)), 8),
    "fuzz_young_commuting": (lambda seed, k: _fuzz_json(
        fuzz_young_commuting([1, 2], 2.0, k, seed)), 8),
    "fuzz_operator_cs": (lambda seed, k: _fuzz_json(fuzz_operator_cs([1, 2], k, seed)), 8),
    "fuzz_matrix_entropy_young": (lambda seed, k: _fuzz_json(
        fuzz_matrix_entropy_young([1, 2], k, 8, seed)), 3),
    "explore_conjecture": (lambda seed, k: _fuzz_json(
        explore_conjecture([1, 2], [1, 2], [1.0], k, seed)), 8),
    "empirical_tail": (lambda seed, k: json.dumps(empirical_tail(
        hypercube_sum(3), k, [0.0, 1.0], seed).to_json()), 100),
}


@pytest.mark.parametrize("name", sorted(SEEDED))
class TestIntegerRule:
    @pytest.mark.parametrize("seed", [1.5, True, -1])
    def test_seed_that_is_not_an_integer_at_least_0_is_refused(self, name, seed):
        run, size = SEEDED[name]
        with pytest.raises(ParameterError, match="not an integer|seed must be an integer >= 0"):
            run(seed, size)

    def test_numpy_integer_seed_is_the_integer(self, name):
        run, size = SEEDED[name]
        assert run(np.int64(3), size) == run(3, size)

    def test_fractional_count_is_refused(self, name):
        run, size = SEEDED[name]
        with pytest.raises(ParameterError, match="not an integer"):
            run(3, size + 0.5)

    @pytest.mark.parametrize("value", [None, "x"])
    def test_what_int_refuses_is_not_an_integer(self, name, value):
        run, size = SEEDED[name]
        with pytest.raises(ParameterError, match="not an integer"):
            run(value, size)
        with pytest.raises(ParameterError, match="not an integer"):
            run(3, value)


D2 = [[0.0, 0.1], [0.2, 0.0]]


def _kernel_moments(s):
    model = hypercube_sum(2)
    return verify_kernel_poly_moments(model, ExactKernel(model), [1], [s])


def _r_psi(psi, s):
    model = hypercube_sum(2)
    return stein.r_psi(model, ExactKernel(model), psi, [s])


# entry point -> (run(x), a valid x): x is the one real parameter the call reads
REAL_ENTRIES = {
    "GaussExpParams.v": (lambda x: bounds.gaussexp_bounds(bounds.GaussExpParams(2, x, 0.5), 1.0),
                         1.0),
    "GaussExpParams.c": (lambda x: bounds.gaussexp_bounds(bounds.GaussExpParams(2, 1.0, x), 1.0),
                         0.5),
    "gaussexp_bounds.t": (lambda x: bounds.gaussexp_bounds(
        bounds.GaussExpParams(2, 1.0, 0.5), x), 1.0),
    "DobrushinSpec.sigma2": (lambda x: bounds.dobrushin_bounds(
        bounds.DobrushinSpec(D2, x), 2, 1.0), 1.0),
    "CompoundCovSpec.sigma2": (lambda x: bounds.compound_cov_bounds(
        bounds.CompoundCovSpec(2, 2, x, 1.0, np.eye(2)), 1.0), 0.5),
    "CompoundCovSpec.L": (lambda x: bounds.compound_cov_bounds(
        bounds.CompoundCovSpec(2, 2, 0.5, x, np.eye(2)), 1.0), 1.5),
    "compound_cov_bounds.t": (lambda x: bounds.compound_cov_bounds(
        bounds.CompoundCovSpec(2, 2, 0.5, 1.0, np.eye(2)), x), 1.0),
    "HaarSpec.R": (lambda x: bounds.haar_bounds(bounds.HaarSpec(x, 1.0, [0.25], 2), 1.0), 1.0),
    "HaarSpec.S": (lambda x: bounds.haar_bounds(bounds.HaarSpec(1.0, x, [0.25], 2), 1.0), 2.0),
    "HaarSpec.tv": (lambda x: bounds.haar_bounds(bounds.HaarSpec(1.0, 1.0, [x], 2), 1.0), 0.25),
    "chebyshev_tail.t": (lambda x: bounds.chebyshev_tail([(2, 4.0)], x), 2.0),
    "chebyshev_tail.p": (lambda x: bounds.chebyshev_tail([(x, 4.0)], 2.0), 2.0),
    "chebyshev_tail.moment": (lambda x: bounds.chebyshev_tail([(2, x)], 2.0), 4.0),
    "laplace_bounds.t": (lambda x: bounds.laplace_bounds(
        lambda th: th * th / 2, 2, x, [-1.0, 1.0]), 1.0),
    "laplace_bounds.theta": (lambda x: bounds.laplace_bounds(
        lambda th: th * th / 2, 2, 1.0, [x]), 1.0),
    "efron_stein_poly_rhs.moment": (lambda x: bounds.efron_stein_poly_rhs(2, x), 1.0),
    "efron_stein_exp_rhs.theta": (lambda x: bounds.efron_stein_exp_rhs(x, 4.0, 1.0), 1.0),
    "efron_stein_exp_rhs.psi": (lambda x: bounds.efron_stein_exp_rhs(1.0, x, 1.0), 4.0),
    "efron_stein_exp_rhs.log_mgf": (lambda x: bounds.efron_stein_exp_rhs(1.0, 4.0, x), 1.0),
    "self_bounded_bounds.v": (lambda x: bounds.self_bounded_bounds(2, x, 0.5, 1.0), 1.0),
    "self_bounded_bounds.c": (lambda x: bounds.self_bounded_bounds(2, 1.0, x, 1.0), 0.5),
    "self_bounded_bounds.t": (lambda x: bounds.self_bounded_bounds(2, 1.0, 0.5, x), 1.0),
    "bounded_diff_bounds.sigma2": (lambda x: bounds.bounded_diff_bounds(2, x, 1.0), 1.0),
    "bounded_diff_bounds.t": (lambda x: bounds.bounded_diff_bounds(2, 1.0, x), 1.0),
    "compound_psd_mgf.sigma2": (lambda x: bounds.compound_psd_mgf(np.eye(2), 2, x, 0.01), 1.0),
    "compound_psd_mgf.theta": (lambda x: bounds.compound_psd_mgf(np.eye(2), 2, 1.0, x), 0.01),
    "make_curve.gaussexp.v": (lambda x: bounds.make_curve(
        "gaussexp", d=2, v=x, c=0.5).sample([1.0]), 1.0),
    "make_curve.self_bounded.c": (lambda x: bounds.make_curve(
        "self_bounded", d=2, v=1.0, c=x).sample([1.0]), 0.5),
    "make_curve.bounded_diff.sigma2": (lambda x: bounds.make_curve(
        "bounded_diff", d=2, sigma2=x).sample([1.0]), 1.0),
    "make_curve.dobrushin.sigma2": (lambda x: bounds.make_curve(
        "dobrushin", d=2, sigma2=x, D=D2).sample([1.0]), 1.0),
    "make_curve.haar.S": (lambda x: bounds.make_curve(
        "haar", R=1.0, S=x, tv_seq=[0.25], d=2).sample([1.0]), 2.0),
    "compound_covariance.L": (lambda x: stein.compound_covariance(
        2, 2, L=x).mean().tolist(), 1.5),
    "r_psi.psi": (lambda x: _r_psi(x, 1.0), 1.0),
    "r_psi.s": (lambda x: _r_psi(1.0, x), 2.0),
    "verify_exp_efron_stein.theta": (lambda x: verify_exp_efron_stein(
        hypercube_sum(2), [x], [4.0]), 0.5),
    "verify_exp_efron_stein.psi": (lambda x: verify_exp_efron_stein(
        hypercube_sum(2), [0.5], [x]), 4.0),
    "verify_kernel_poly_moments.s": (_kernel_moments, 2.0),
    "fuzz_pmvti.s": (lambda x: fuzz_pmvti([1], [1], [x], 2, 1).to_json(), 1.0),
    "eval_emvti.s": (lambda x: eval_emvti(np.eye(2), -np.eye(2), np.eye(2), x), 1.0),
    "eval_young_commuting.p": (lambda x: eval_young_commuting(np.eye(2), np.eye(2), x), 2.0),
    "empirical_tail.t": (lambda x: empirical_tail(hypercube_sum(2), 100, [x], 1).to_json(), 1.0),
    "dkw_radius.alpha": (lambda x: dkw_radius(100, x), 0.05),
    "FiniteCoord.value": (lambda x: stein.FiniteCoord([(x, 0.5), (1.0, 0.5)]).values.tolist(),
                          -1.0),
    "FiniteCoord.probability": (lambda x: stein.FiniteCoord(
        [(-1.0, x), (1.0, 0.75)]).probs.tolist(), 0.25),
    "schatten_norm.p": (lambda x: matcore.schatten_norm(np.diag([3.0, -4.0]), x), 3.0),
    "induced_norm.p": (lambda x: matcore.induced_norm(np.diag([3.0, -4.0]), x), 1.0),
}
# entry point -> run(g): g is one grid the call reads
GRID_ENTRIES = {
    "fuzz_pmvti.d": lambda g: fuzz_pmvti(g, [1], [1.0], 2, 1).to_json(),
    "fuzz_pmvti.q": lambda g: fuzz_pmvti([1], g, [1.0], 2, 1).to_json(),
    "fuzz_pmvti.s": lambda g: fuzz_pmvti([1], [1], g, 2, 1).to_json(),
    "fuzz_emvti.d": lambda g: fuzz_emvti(g, [1.0], 2, 1).to_json(),
    "fuzz_young_commuting.d": lambda g: fuzz_young_commuting(g, 2.0, 2, 1).to_json(),
    "fuzz_operator_cs.d": lambda g: fuzz_operator_cs(g, 2, 1).to_json(),
    "fuzz_matrix_entropy_young.d": lambda g: fuzz_matrix_entropy_young(g, 2, 2, 1).to_json(),
    "explore_conjecture.s": lambda g: explore_conjecture([1], [1], g, 2, 1).to_json(),
    "verify_poly_efron_stein.p": lambda g: verify_poly_efron_stein(hypercube_sum(2), g),
    "verify_exp_efron_stein.theta": lambda g: verify_exp_efron_stein(hypercube_sum(2), g,
                                                                     [4.0]),
    "verify_exp_efron_stein.psi": lambda g: verify_exp_efron_stein(hypercube_sum(2), [0.5], g),
    "verify_kernel_poly_moments.p": lambda g: _kernel_moments_grids(g, [1.0]),
    "verify_kernel_poly_moments.s": lambda g: _kernel_moments_grids([1], g),
    "empirical_tail.t": lambda g: empirical_tail(hypercube_sum(2), 100, g, 1).to_json(),
    "laplace_bounds.theta": lambda g: bounds.laplace_bounds(lambda th: th * th / 2, 2, 1.0, g),
    "r_psi.s": lambda g: _with_kernel(stein.r_psi, 1.0, g),
}


def _with_kernel(run, *args):
    """run(model, its exact kernel, *args) on hypercube_sum(2)."""
    model = hypercube_sum(2)
    return run(model, ExactKernel(model), *args)


def _kernel_moments_grids(p_list, s_grid):
    return _with_kernel(verify_kernel_poly_moments, p_list, s_grid)


# entries whose p = inf is valid: the operator norm and the max row sum, 4 for diag(3, -4)
NORM_P = ("schatten_norm.p", "induced_norm.p")

SYM = [[2.0, 0.5], [0.5, 1.0]]
PSD = [[1.0, 0.5], [0.5, 1.0]]  # ||PSD|| = 1.5 and mean tr-bar 1
S4 = np.diag([1.0, 2.0, 3.0, 4.0])


def _list(x):
    """Lists and floats as they are; any array or wrapper as its entries."""
    return x.tolist() if hasattr(x, "tolist") else x


# entry point -> (run(m), a valid m): m is one matrix the call reads
MATRIX_ENTRIES = {
    "HermitianMatrix": (lambda m: HermitianMatrix(m).a.tolist(), SYM),
    "RectMatrix": (lambda m: RectMatrix(m).a.tolist(), [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
    "matrix_function": (lambda m: matrix_function(m, np.exp).a.tolist(), SYM),
    "schatten_norm": (lambda m: matcore.schatten_norm(m, 3), SYM),
    "induced_norm": (lambda m: matcore.induced_norm(m, 1), SYM),
    "dilation": (lambda m: matcore.dilation(m).a.tolist(), [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
    "psd_leq.A": (lambda m: matcore.psd_leq(m, 4 * np.eye(2)), SYM),
    "psd_leq.B": (lambda m: matcore.psd_leq(np.eye(2), m), SYM),
    "SuperOperator": (lambda m: SuperOperator(m).mat.tolist(), S4.tolist()),
    "SuperOperator.apply": (lambda m: SuperOperator(S4).apply(m).tolist(), SYM),
    "left_mult_op": (lambda m: left_mult_op(m).mat.tolist(), SYM),
    "right_mult_op": (lambda m: right_mult_op(m).mat.tolist(), SYM),
    "DobrushinSpec.D": (lambda m: bounds.DobrushinSpec(m, 1.0).b, D2),
    "make_curve.dobrushin.D": (lambda m: bounds.make_curve(
        "dobrushin", d=2, sigma2=1.0, D=m).sample([1.0]), D2),
    "CompoundCovSpec.B": (lambda m: bounds.compound_cov_bounds(
        bounds.CompoundCovSpec(2, 2, 0.5, 1.0, m), 1.0), SYM),
    "bounded_diff_sigma": (lambda m: bounds.bounded_diff_sigma([np.eye(2), m]), SYM),
    "compound_psd_mgf.A": (lambda m: bounds.compound_psd_mgf(m, 2, 1.0, 0.01), PSD),
    "compound_covariance.B": (lambda m: stein.compound_covariance(2, 2, m).mean().tolist(), SYM),
    **{f"eval_pmvti.{k}": (lambda m, k=k: eval_pmvti(
        **{"A": SYM, "B": PSD, "C": np.eye(2), k: m}, q=2, s=1.0), SYM) for k in "ABC"},
    "eval_emvti.A": (lambda m: eval_emvti(m, PSD, np.eye(2), 1.0), SYM),
    "eval_young_commuting.B": (lambda m: eval_young_commuting(PSD, m, 2.0), SYM),
    "eval_conjecture.C": (lambda m: eval_conjecture(SYM, PSD, m, 2, 1.0), SYM),
    "eval_operator_cs.S": (lambda m: eval_operator_cs(m, SYM, PSD), S4.tolist()),
    "eval_operator_cs.M": (lambda m: eval_operator_cs(S4, m, PSD), SYM),
    "eval_matrix_entropy_young.U": (lambda m: eval_matrix_entropy_young([m], [PSD]), SYM),
    "eval_matrix_entropy_young.W": (lambda m: eval_matrix_entropy_young([SYM], [m]), PSD),
}


def _with_entry(m, x):
    """m with its first row's last entry set to x."""
    return [[*m[0][:-1], x], *m[1:]]


# name -> (the bad value made from a valid matrix m, the error it must raise)
BAD_MATRICES = {
    "nan": (lambda m: _with_entry(m, math.nan), DomainError),
    "inf": (lambda m: _with_entry(m, math.inf), DomainError),
    "-inf": (lambda m: _with_entry(m, -math.inf), DomainError),
    "str_entry": (lambda m: _with_entry(m, "x"), ParameterError),
    "bool_entry": (lambda m: _with_entry(m, True), ParameterError),
    "str": (lambda m: "x", ParameterError),
    "bool": (lambda m: True, ParameterError),
    "bool_array": (lambda m: np.ones(np.shape(m), dtype=bool), ParameterError),
    "ragged": (lambda m: [*m[:-1], m[-1][:-1]], ParameterError),
    "1-d": (lambda m: m[0], ShapeError),
    "3-d": (lambda m: [m], ShapeError),
}


def _layouts(m) -> dict:
    """m in other memory layouts and dtypes, each with its float64 C-contiguous copy."""
    base = np.array(m)
    wide = np.zeros((2 * base.shape[0], 2 * base.shape[1]))
    wide[::2, ::2] = base
    frozen = base.copy()
    frozen.setflags(write=False)
    variants = {"fortran": np.asfortranarray(base), "strided": wide[::2, ::2],
                "read_only": frozen, "int": base.astype(np.int64),
                "float32": base.astype(np.float32),
                "numpy_scalars": [[np.float64(x) for x in row] for row in m]}
    return {k: (v, np.array(v, dtype=np.float64, order="C")) for k, v in variants.items()}


class TestRealRule:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True, "x"])
    @pytest.mark.parametrize("entry", sorted(REAL_ENTRIES))
    def test_a_value_that_is_not_a_finite_real_is_refused(self, entry, bad):
        if bad == math.inf and entry in NORM_P:
            assert REAL_ENTRIES[entry][0](bad) == 4.0
        else:
            with pytest.raises(ParameterError, match="need a finite"):
                REAL_ENTRIES[entry][0](bad)

    @pytest.mark.parametrize("entry", sorted(REAL_ENTRIES))
    def test_numpy_float_gives_the_result_of_the_float(self, entry):
        run, x = REAL_ENTRIES[entry]
        assert repr(run(np.float64(x))) == repr(run(x))


class TestGridRule:
    @pytest.mark.parametrize("text", ["12", b"12"])
    @pytest.mark.parametrize("entry", sorted(GRID_ENTRIES))
    def test_a_grid_given_as_text_is_refused(self, entry, text):
        # read one character at a time, "12" would be the grid [1, 2]
        with pytest.raises(ParameterError, match="grid is a number or a list of numbers"):
            GRID_ENTRIES[entry](text)

    @pytest.mark.parametrize("entry", sorted(GRID_ENTRIES))
    def test_an_empty_grid_is_refused_by_name(self, entry):
        with pytest.raises(ParameterError, match=rf"^empty {entry.split('.')[1]} grid$"):
            GRID_ENTRIES[entry]([])

    @pytest.mark.parametrize("entry", sorted(GRID_ENTRIES))
    def test_a_tuple_or_array_grid_is_the_list(self, entry):
        want = repr(GRID_ENTRIES[entry]([1, 2]))
        assert repr(GRID_ENTRIES[entry]((1, 2))) == want
        assert repr(GRID_ENTRIES[entry](np.array([1, 2]))) == want


class TestMatrixRule:
    @pytest.mark.parametrize("bad", sorted(BAD_MATRICES))
    @pytest.mark.parametrize("entry", sorted(MATRIX_ENTRIES))
    def test_a_malformed_matrix_is_refused(self, entry, bad):
        run, m = MATRIX_ENTRIES[entry]
        make, error = BAD_MATRICES[bad]
        with pytest.raises(error):
            run(make(m))

    @pytest.mark.parametrize("run", [
        lambda: eval_pmvti(SYM, np.eye(3), SYM, 2, 1.0),
        lambda: eval_young_commuting(np.eye(3), SYM, 2.0),
        lambda: eval_matrix_entropy_young([SYM], [np.eye(3)]),
        lambda: matcore.psd_leq(SYM, np.eye(3)),
        lambda: bounds.bounded_diff_sigma([SYM, np.eye(3)]),
        lambda: bounds.CompoundCovSpec(2, 3, 0.5, 1.0, SYM),
        lambda: stein.compound_covariance(2, 3, SYM),
    ], ids=["eval_pmvti", "eval_young_commuting", "eval_matrix_entropy_young", "psd_leq",
            "bounded_diff_sigma", "CompoundCovSpec", "compound_covariance"])
    def test_matrices_of_different_dimensions_are_a_shape_error(self, run):
        with pytest.raises(ShapeError):
            run()

    def test_entropy_young_takes_arrays_of_atoms(self):
        stacked = eval_matrix_entropy_young(np.array([SYM, PSD]), np.array([PSD, PSD]))
        assert stacked == eval_matrix_entropy_young([SYM, PSD], [PSD, PSD])

    @pytest.mark.parametrize("entry", sorted(MATRIX_ENTRIES))
    def test_any_layout_or_dtype_gives_the_result_of_the_float64_copy(self, entry):
        run, m = MATRIX_ENTRIES[entry]
        want = repr(_list(run(m)))
        for name, (value, copy) in _layouts(m).items():
            got = repr(_list(run(value)))
            assert got == repr(_list(run(copy))), name
            if name not in ("int", "float32"):
                assert got == want, name
