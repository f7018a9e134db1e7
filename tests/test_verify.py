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
                new = verify._norm_slack(*eval_pmvti(A, B, C, q, s))
                assert abs(new - verify._norm_slack(*oracle_pmvti(A, B, C, q, s))) <= self.TOL

    def test_emvti(self):
        for _, (A, B, C, _q), _ in triple_cases(32):
            for s in SS:
                new = verify._norm_slack(*eval_emvti(A, B, C, s))
                assert abs(new - verify._norm_slack(*oracle_emvti(A, B, C, s))) <= self.TOL

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_young_commuting(self, p):
        for _, (A, B, _C, _q), _ in triple_cases(33):
            gap, scale = eval_young_commuting(A, B, p)
            assert abs(gap / scale - oracle_young_slack(A, B, p)) <= self.TOL

    def test_operator_cs(self):
        for _, (S, M, N), _ in cases(draw_operator_cs(np.random.default_rng(34))):
            new = verify._norm_slack(*eval_operator_cs(S, M, N))
            assert abs(new - verify._norm_slack(*oracle_operator_cs(S, M, N))) <= self.TOL

    def test_matrix_entropy_young(self):
        for _, (Us, Ws), _ in cases(draw_ensembles(np.random.default_rng(35))):
            new = verify._norm_slack(*eval_matrix_entropy_young(list(Us), list(Ws)))
            ref = verify._norm_slack(*oracle_entropy_young(list(Us), list(Ws)))
            assert abs(new - ref) <= self.TOL

    def test_conjecture(self):
        for _, (A, B, C, q), _ in triple_cases(36):
            q = 1 + q % 3
            for s in SS:
                new, ref = eval_conjecture(A, B, C, q, s), oracle_conjecture(A, B, C, q, s)
                for form in ("exp", "poly"):
                    assert abs(verify._norm_slack(*new[form])
                               - verify._norm_slack(*ref[form])) <= self.TOL


class TestBlockPositionInvariance:
    # every trial of a full block, evaluated among trials of its dimension,
    # gives the very floats of its stack-of-one evaluation, which replay uses

    def block(self, draw, evaluate):
        rows = []
        verify._sweep(verify.BLOCK_TRIALS, draw, evaluate,
                      lambda trial, row: rows.append((trial[1], row)))
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

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            fuzz_pmvti([1], [0], [1.0], trials=5, seed=0)
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
