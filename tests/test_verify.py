"""Inequality evaluators, fuzz sweeps, theorem checks, and empirical tails.

Scalar cases are pinned against closed forms evaluated inline.  The sweep
tests freeze seeds and check report structure and determinism; the
mathematics behind each inequality is exercised by the evaluator tests.
"""
import json
import math

import numpy as np
import pytest

from matconc import bounds, cli, stein, verify
from matconc.matcore import (
    HermitianMatrix,
    ParameterError,
    SuperOperator,
    left_mult_op,
    matrix_function,
    ntrace,
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
    sample_statistics,
    variance_domination,
    verify_exp_efron_stein,
    verify_kernel_poly_moments,
    verify_poly_efron_stein,
)

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


def draw_triples(rng):
    return verify._triple_draws(rng, list(range(1, 7)), list(range(1, 8)))


def draw_operator_cs(rng):
    def draw():
        d = int(rng.integers(1, 7))
        raw = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
        if rng.random() < 0.2:
            M, N = verify._rank1_herm(rng, d), verify._rank1_herm(rng, d)
        else:
            M = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            N = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return d, ((raw + raw.conj().T) / 2, M, N), None
    return draw


def draw_ensembles(rng):
    def draw():
        d = int(rng.integers(1, 7))
        Us = np.stack([verify._gauss_herm(rng, d) for _ in range(4)])
        g = rng.standard_normal((4, d, d)) + 1j * rng.standard_normal((4, d, d))
        raws = np.stack([verify._herm(x @ x.conj().T) for x in g])
        total = sum(ntrace(r) for r in raws) / 4
        return d, (Us, raws / total), None
    return draw


def cases(draw, count=240):
    """count draws, covering d = 1..6 and, for triples, every draw kind."""
    out = [draw() for _ in range(count)]
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


class TestBlockPositionInvariance:
    # every trial of a full block, evaluated among trials of its dimension,
    # gives the very floats of its stack-of-one evaluation, which replay uses

    def block(self, draw, evaluate):
        rows = []

        def take(block, dims, outs):
            assert dims.tolist() == [d for d, _, _ in block]
            rows.extend((trial[1], [out[i] for out in outs]) for i, trial in enumerate(block))

        verify._sweep(verify.BLOCK_TRIALS, draw, evaluate, take)
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

    def report(self, inequality: str, trials: int, dims: list,
               tolerance: float = verify.FUZZ_TOL) -> FuzzReport:
        worst = self.cases[0][1] if self.cases else {}
        return FuzzReport(
            inequality=inequality,
            trials=trials,
            dims=dims,
            min_slack=self.min_slack if self.cases else math.inf,
            worst_case=worst,
            passed=bool(self.min_slack >= -tolerance),
            tolerance=tolerance,
            min_slack_by_dim=dict(sorted(self.by_dim.items())),
            near_misses=[c for _, c in self.cases[1:]],
        )


def norm_slack(lhs: float, rhs: float) -> float:
    return (rhs - lhs) / max(1.0, abs(rhs) + abs(lhs))


def sweep_one_by_one(trials, draw, evaluate, offer):
    """Evaluate blocks by dimension, then offer every trial with its row, in order."""
    for start in range(0, trials, verify.BLOCK_TRIALS):
        block = [draw() for _ in range(min(verify.BLOCK_TRIALS, trials - start))]
        groups: dict = {}
        for i, (d, _, _) in enumerate(block):
            groups.setdefault(d, []).append(i)
        rows = [None] * len(block)
        for idx in groups.values():
            outs = evaluate(*(np.stack(col) for col in zip(*(block[i][1] for i in idx))))
            for j, i in enumerate(idx):
                rows[i] = [out[j] for out in outs]
        for trial, row in zip(block, rows):
            offer(trial, row)


def oracle_triple_case(ineq, kind, mats, **params):
    case = {"ineq": ineq, "kind": kind, **params}
    case.update(zip("ABC", map(verify._herm_json, mats)))
    return case


def oracle_fuzz_pmvti(dims, qs, s_values, trials, seed):
    ss = np.array([float(s) for s in s_values])
    tracker = WorstTracker()

    def offer(trial, row):
        d, (A, B, C, q), kind = trial
        for s, rhs in zip(ss, row[1]):
            tracker.offer(norm_slack(float(row[0]), float(rhs)), d, lambda: oracle_triple_case(
                "pmvti", kind, (A, B, C), q=q, s=float(s)))

    sweep_one_by_one(trials, verify._triple_draws(verify._rng(seed), dims, qs),
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

    sweep_one_by_one(trials, verify._triple_draws(verify._rng(seed), dims),
                     lambda A, B, C: verify._emvti_stack(A, B, C, ss), offer)
    return tracker.report("emvti", trials, dims)


def oracle_fuzz_young(dims, p, trials, seed):
    tracker = WorstTracker()

    def offer(trial, row):
        d, (A, B, _), kind = trial
        tracker.offer(float(row[0]) / float(row[1]), d, lambda: oracle_triple_case(
            "young_commuting", kind, (A, B), p=float(p)))

    sweep_one_by_one(trials, verify._triple_draws(verify._rng(seed), dims),
                     lambda A, B, C: verify._young_stack(A, B, p), offer)
    return tracker.report(f"young_commuting(p={p})", trials, dims)


def oracle_fuzz_operator_cs(dims, trials, seed):
    rng = verify._rng(seed)
    tracker = WorstTracker()

    def draw():
        d = dims[int(rng.integers(0, len(dims)))]
        raw = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
        S = (raw + raw.conj().T) / 2
        if rng.random() < 0.1:
            M = verify._rank1_herm(rng, d)
            N = verify._rank1_herm(rng, d)
        else:
            M = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            N = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return d, (S, M, N), None

    def offer(trial, row):
        d, (S, M, N), _ = trial
        tracker.offer(norm_slack(float(row[0]), float(row[1])), d, lambda: {
            "ineq": "operator_cs",
            "S": verify._rect_json(S), "M": verify._rect_json(M), "N": verify._rect_json(N),
        })

    sweep_one_by_one(trials, draw, verify._operator_cs_stack, offer)
    return tracker.report("operator_cs", trials, dims)


def oracle_fuzz_entropy_young(dims, ensemble_size, trials, seed):
    rng = verify._rng(seed)
    tracker = WorstTracker()

    def draw():
        d = dims[int(rng.integers(0, len(dims)))]
        Us = [verify._gauss_herm(rng, d) for _ in range(ensemble_size)]
        raws = []
        for _ in range(ensemble_size):
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            raws.append(verify._herm(g @ g.conj().T))
        total = sum(ntrace(r).real for r in raws) / ensemble_size
        Ws = [r / total for r in raws]
        return d, (np.stack(Us), np.stack(Ws)), None

    def offer(trial, row):
        d, (Us, Ws), _ = trial
        tracker.offer(norm_slack(float(row[0]), float(row[1])), d, lambda: {
            "ineq": "matrix_entropy_young",
            "U": [verify._herm_json(u) for u in Us],
            "W": [verify._herm_json(w) for w in Ws],
        })

    sweep_one_by_one(trials, draw, verify._entropy_young_stack, offer)
    return tracker.report("matrix_entropy_young", trials, dims)


def oracle_pool(reports, keep, inequality, trials, dims, sections,
                tolerance=verify.FUZZ_TOL):
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
        worst_case=cases[0][1] if cases else {}, passed=bool(min_slack >= -tolerance),
        tolerance=tolerance, min_slack_by_dim=dict(sorted(by_dim.items())),
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

    sweep_one_by_one(trials, verify._triple_draws(verify._rng(seed), dims, qs),
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
    name, tol = reports[0].inequality, reports[0].tolerance
    sections: dict = {}
    for r in reports:
        for form, sec in r.sections.items():
            cur = sections.get(form)
            if cur is None:
                sections[form] = dict(sec)
                continue
            merged = {int(k): v for k, v in cur["min_slack_by_dim"].items()}
            for k, v in sec["min_slack_by_dim"].items():
                merged[int(k)] = min(merged.get(int(k), math.inf), v)
            cur["min_slack_by_dim"] = {str(k): v for k, v in sorted(merged.items())}
            if sec["min_slack"] < cur["min_slack"]:
                cur["min_slack"] = sec["min_slack"]
                cur["worst_case"] = sec["worst_case"]
            cur["pass"] = bool(cur["pass"] and sec["pass"])
    dims = sorted({int(d) for r in reports for d in r.dims})
    return oracle_pool(reports, 5, name, sum(r.trials for r in reports), dims, sections, tol)


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
    @pytest.mark.parametrize("trials", [1, 255, 256, 257, 700])
    @pytest.mark.parametrize("suite", sorted(ORACLE_SUITES))
    def test_sweep(self, suite, trials, seed):
        new, oracle, args = ORACLE_SUITES[suite]
        assert report_bytes(new(*args, trials, seed)) == report_bytes(
            oracle(*args, trials, seed))

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("suite", ["pmvti", "conjecture"])
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
        count = iter(range(trials))

        def draw():
            i = next(count)
            return 1 + i % 2, (i,), "t"

        def slacks(x):
            i, j = x[:, None], np.arange(2)[None, :]
            return np.where((i >= 250) & ((7 * i + j) % 5 == 0), 0.0, 1.0 + (3 * i + j) % 4)

        (report,) = verify._fuzz(trials, [1, 2], draw, lambda x: (x,),
                                 ("tie", slacks, lambda t, j: {"trial": t[1][0], "j": j}))
        kept = [(c["trial"], c["j"]) for c in [report.worst_case] + report.near_misses]
        assert kept == [(250, 0), (252, 1), (255, 0), (257, 1), (260, 0)]
        assert report.min_slack_by_dim == {1: 0.0, 2: 0.0}
        tracker = WorstTracker()
        for i in range(trials):
            row = slacks(np.array([i]))[0]
            for j in range(2):
                tracker.offer(float(row[j]), 1 + i % 2, lambda i=i, j=j: {"trial": i, "j": j})
        assert report_bytes(report) == report_bytes(tracker.report("tie", trials, [1, 2]))


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

    def test_merge_sections(self):
        a = explore_conjecture([1], [2], [1.0], trials=50, seed=1)
        b = explore_conjecture([1], [2], [1.0], trials=50, seed=2)
        m = merge_fuzz_reports([a, b])
        for form in ("exp", "poly"):
            assert m.sections[form]["min_slack"] == min(
                a.sections[form]["min_slack"], b.sections[form]["min_slack"])
            assert m.sections[form]["pass"] == (
                a.sections[form]["pass"] and b.sections[form]["pass"])

    def test_merge_rejects_mixed_suites(self):
        a = fuzz_pmvti([1], [2], [1.0], trials=5, seed=0)
        b = fuzz_emvti([1], [1.0], trials=5, seed=0)
        with pytest.raises(ParameterError):
            merge_fuzz_reports([a, b])

    def test_merge_rejects_empty(self):
        with pytest.raises(ParameterError):
            merge_fuzz_reports([])

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

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_every_stored_case_replays_bit_exact(self, seed):
        # each draw is exactly Hermitian, so the serialised case replays the
        # very matrices the sweep evaluated, near misses included
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
        for rep in reports:
            for case in [rep.worst_case] + rep.near_misses:
                case = json.loads(json.dumps(case))
                assert replay_case(case)["slack"] == case["slack"], (
                    rep.inequality, case.get("kind"))

    def test_replay_rejects_unknown_inequality(self):
        with pytest.raises(ParameterError):
            replay_case({"ineq": "frobnicate"})


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

    def test_rejects_non_enumerable_model(self):
        big = hypercube_sum(3)
        small_cutoff = MatrixModel(big.dist, big.H, big.d, enum_cutoff=2)
        with pytest.raises(ParameterError):
            verify_poly_efron_stein(small_cutoff, [1])


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

    def test_rejects_non_enumerable_model(self):
        big = hypercube_sum(3)
        small_cutoff = MatrixModel(big.dist, big.H, big.d, enum_cutoff=2)
        with pytest.raises(ParameterError):
            variance_domination(small_cutoff, None)

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

    def test_rectangular_model_uses_singular_values(self):
        vals = sample_statistics(rect_demo(3), 120, 4, "lmax")
        assert vals.shape == (120,)
        assert np.all(vals >= 0)
