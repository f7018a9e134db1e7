"""Acceptance battery: one test per release criterion, run at desk scale.

Each test states its tolerance and time budget inline and asserts both, so
`pytest -v` on this file reads as the acceptance report.  Everything here is
deterministic: seeds are frozen and reports are compared byte for byte where
reproducibility is the criterion.
"""
import json
import math
import time

import numpy as np
import pytest

from matconc import bounds, cli, stein, verify
from matconc.bounds import (
    CompoundCovSpec,
    DobrushinSpec,
    GaussExpParams,
    HaarSpec,
)
from matconc.matcore import dilation

EXP_MINUS_2 = 0.1353352832366127
SQRT_2LOG2 = 1.1774100225154747


def close(x, y, rel=1e-12):
    return abs(x - y) <= rel * max(1.0, abs(x), abs(y))


def model_suite():
    """20 seeded random finite models (n <= 4, d <= 4) plus hypercube sums."""
    shapes = [(2, 2), (3, 2), (3, 3), (4, 2), (2, 4),
              (4, 4), (3, 4), (2, 3), (4, 3), (3, 2)]
    models = [stein.random_finite_model(n, d, seed=s)
              for s, (n, d) in enumerate(shapes * 2)]
    models += [stein.hypercube_sum(n) for n in range(1, 6)]
    return models


def test_01_polynomial_efron_stein_exact():
    # slack >= -1e-10 for p in {1,2,3} on every model; budget 60 s
    t0 = time.monotonic()
    for model in model_suite():
        rep = verify.verify_poly_efron_stein(model, [1, 2, 3])
        assert rep["pass"] is True, model.name
        assert all(r["slack"] >= -1e-10 for r in rep["results"]), model.name
    assert time.monotonic() - t0 < 60.0


def test_02_exponential_efron_stein_exact():
    # 8 admissible (theta, psi) pairs, exact enumeration; budget 60 s
    t0 = time.monotonic()
    theta, psi = [-0.5, -0.25, 0.25, 0.5], [1.0, 4.0]
    for model in model_suite():
        rep = verify.verify_exp_efron_stein(model, theta, psi)
        assert rep["pass"] is True, model.name
        assert len(rep["results"]) == 8 and rep["skipped"] == []
        assert all(r["slack"] >= -1e-10 for r in rep["results"]), model.name
    assert time.monotonic() - t0 < 60.0


def test_03_kernel_machinery_identities():
    models = [stein.hypercube_sum(3), stein.random_finite_model(3, 2, seed=1),
              stein.bounded_diff_demo(3)]
    for model in models:
        kern = stein.ExactKernel(model)
        anti = np.max(np.abs(kern.table + kern.table.transpose(1, 0, 2, 3)))
        assert anti == 0.0, model.name  # antisymmetry is exact, not approximate
        assert stein.check_stein_identity(model, kern).residual <= 1e-10
        assert stein.kernel_mean_norm(model, kern) <= 1e-10
        d = model.d
        for F in (lambda x: np.eye(d), lambda x: x, lambda x: x @ x @ x):
            assert stein.exchangeable_pairs_identity(model, kern, F) <= 1e-10


def test_04_coupling_time_statistics():
    # mean within 3 SE of n H_n at 1e5 runs; pathwise <= first full refresh;
    # budget 120 s
    t0 = time.monotonic()
    for n in (2, 3, 5):
        times = stein.sample_coupling_times(n, 100_000, seed=n)
        assert np.all(times >= 0)
        expected = n * sum(1.0 / k for k in range(1, n + 1))
        se = float(times.std(ddof=1)) / math.sqrt(times.size)
        assert abs(float(times.mean()) - expected) <= 3.0 * se, n
        model = stein.hypercube_sum(n)
        z = tuple(1.0 for _ in range(n))
        zp = tuple(-1.0 for _ in range(n))
        for i in range(200):
            run = stein.simulate_kernel_coupling(model, z, zp, 1_000_000,
                                                 seed=1000 * n + i)
            assert 0 <= run.coupling_time <= run.first_all_drawn
    assert time.monotonic() - t0 < 120.0


def test_05_trace_inequality_fuzz_suites():
    # >= 1e4 trials per suite, d in 1..6, normalized min slack >= -1e-9;
    # budget 300 s for the whole battery
    t0 = time.monotonic()
    dims = range(1, 7)
    ss = [0.25, 1.0, 4.0]
    reports = [
        verify.fuzz_pmvti(dims, range(1, 8), ss, trials=10_000, seed=101),
        verify.fuzz_emvti(dims, ss, trials=10_000, seed=102),
        verify.fuzz_young_commuting(dims, 1.5, trials=10_000, seed=103),
        verify.fuzz_young_commuting(dims, 2.0, trials=10_000, seed=104),
        verify.fuzz_young_commuting(dims, 3.0, trials=10_000, seed=105),
        verify.fuzz_operator_cs(dims, trials=10_000, seed=106),
        verify.fuzz_matrix_entropy_young(dims, 8, trials=10_000, seed=107),
    ]
    for rep in reports:
        assert rep.passed, (rep.inequality, rep.min_slack)
        assert rep.min_slack >= -1e-9, rep.inequality
    assert time.monotonic() - t0 < 300.0


def test_06_tail_domination_at_scale():
    # raw bound + DKW band (alpha 0.01) dominates the empirical survival at
    # every grid point, 1e5 samples per model; budget 180 s
    t0 = time.monotonic()
    two_e11 = np.array([[2.0, 0.0], [0.0, 0.0]])
    sigma2 = bounds.bounded_diff_sigma([two_e11] * 4)
    assert sigma2 == 16.0
    curve = bounds.make_curve("bounded_diff", d=2, sigma2=sigma2)
    out = verify.empirical_tail(stein.hypercube_sum(4), 100_000,
                                [float(t) for t in np.arange(0.0, 6.5, 0.5)],
                                seed=61, curve=curve, alpha=0.01)
    assert out.violations == []

    spec = CompoundCovSpec(p=2, n=3, sigma2=1.0, L=1.0, B=np.eye(3))
    curve = bounds.make_curve("compound_cov", spec=spec)
    out = verify.empirical_tail(stein.compound_covariance(2, 3), 100_000,
                                [float(t) for t in np.arange(0.0, 4.5, 0.5)],
                                seed=62, curve=curve, alpha=0.01)
    assert out.violations == []
    assert time.monotonic() - t0 < 180.0


def test_07_bound_formula_regression():
    # every bounds operation against its frozen example, 1e-12 relative
    out = bounds.chebyshev_tail([(2, 4.0)], 4.0)
    assert out["tail"] == 0.25 and out["mean_bound"] == 2.0
    out = bounds.chebyshev_tail([(2, 4.0), (4, 20.0)], 2.0)
    assert out["tail_raw"] == 1.0

    lap = bounds.laplace_bounds(lambda th: th * th / 2.0, 1, 2.0,
                                np.linspace(-4, 4, 17))
    assert close(lap["upper_tail_raw"], EXP_MINUS_2)
    assert close(lap["lower_tail_raw"], EXP_MINUS_2)

    ge = bounds.gaussexp_bounds(GaussExpParams(d=2, v=1.0, c=0.0), 2.0)
    assert close(ge["tail_raw"], 2 * EXP_MINUS_2)
    assert close(ge["mean_bound"], SQRT_2LOG2)

    assert close(bounds.efron_stein_poly_rhs(1, 1.0), math.sqrt(2.0))
    assert close(bounds.efron_stein_poly_rhs(3, 1.0), math.sqrt(10.0))
    assert close(bounds.efron_stein_exp_rhs(1.0, 4.0, 1.0), 0.5)

    assert close(bounds.self_bounded_bounds(2, 1.0, 0.0, 2.0)["tail_raw"],
                 2 * math.exp(-1.0))

    bd = bounds.bounded_diff_bounds(2, 1.0, 2.0)
    assert close(bd["tail_raw"], 2 * EXP_MINUS_2)
    assert close(bd["mean_bound"], SQRT_2LOG2)

    spec = DobrushinSpec(D=np.array([[0.0, 0.5], [0.5, 0.0]]), sigma2=1.0)
    assert close(spec.b, 2.0)
    assert close(bounds.dobrushin_bounds(spec, 2, 2.0)["tail_raw"],
                 2 * math.exp(-2.0))

    comp = bounds.compound_cov_bounds(
        CompoundCovSpec(p=2, n=2, sigma2=1.0, L=1.0, B=np.eye(2)), 10.0)
    assert close(comp["tail_raw"], 3.7189273524321087)
    assert close(comp["mean_bound"], 103.89105510659597)
    # homogeneity: (B, t) -> (aB, at) leaves the tail invariant
    rng = np.random.default_rng(5)
    g = rng.standard_normal((3, 3))
    B = (g + g.T) / 2
    base = bounds.compound_cov_bounds(
        CompoundCovSpec(p=2, n=3, sigma2=0.6, L=1.0, B=B), 4.0)
    for alpha in (0.3, 2.7, 11.0):
        scaled = bounds.compound_cov_bounds(
            CompoundCovSpec(p=2, n=3, sigma2=0.6, L=1.0, B=alpha * B),
            alpha * 4.0)
        assert close(base["tail_raw"], scaled["tail_raw"])

    assert close(bounds.compound_psd_mgf(np.eye(2), 2, 1.0, 0.01),
                 0.009230769230769232)

    tv = [2.0 ** -i / 4.0 for i in range(10)]
    hs = HaarSpec(R=1.0, S=1.0, tv_seq=tv, d=2)
    assert close(hs.sigma2, 0.9990234375)
    assert close(bounds.haar_bounds(hs, 1.0)["tail_raw"],
                 2 * math.exp(-1.0 / (2 * hs.sigma2)))


def test_08_dilation_and_rectangular_path():
    # spectrum(dilation(B)) = +-singular values, 1e-10, on 100 random shapes
    rng = np.random.default_rng(88)
    for _ in range(100):
        r = int(rng.integers(1, 7))
        c = int(rng.integers(1, 7))
        b = rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))
        lam = np.sort(dilation(b).eigvals())
        sv = np.linalg.svd(b, compute_uv=False)
        want = np.sort(np.concatenate([sv, -sv, np.zeros(abs(r - c))]))
        assert np.max(np.abs(lam - want)) <= 1e-10

    # the rectangular pipeline's ||X|| tail equals the dilation's lmax tail
    rect = stein.rect_demo(3)
    dil = stein.dilate_model(rect)
    a = verify.sample_statistics(rect, 10_000, 42, "lmax")
    b = verify.sample_statistics(dil, 10_000, 42, "lmax")
    assert np.max(np.abs(a - b)) <= 1e-10
    # grid at support midpoints, so boundary ties cannot split the curves
    support = np.unique(np.round(a, 8))
    grid = [float(t) for t in (support[:-1] + support[1:]) / 2.0]
    grid.append(float(support[-1]) + 1.0)
    sa = verify.empirical_tail(rect, 10_000, grid, seed=42).survival
    sb = verify.empirical_tail(dil, 10_000, grid, seed=42).survival
    assert np.array_equal(sa, sb)


def test_09_conjecture_explorer_sweep():
    # 1e5 trials over d <= 6 completes and reports; the d=1 gate applies to
    # the exponential form, which is the one that is scalar-valid; the
    # polynomial form's scalar counterexample is pinned explicitly below
    rep = verify.explore_conjecture(range(1, 7), [1, 2, 3], [1.0],
                                    trials=100_000, seed=2026)
    blob = rep.to_json()
    assert blob["trials"] == 100_000
    assert {"min_slack", "worst_case", "sections"} <= set(blob)
    assert rep.sections["exp"]["min_slack_by_dim"]["1"] >= -1e-9

    both = verify.eval_conjecture(np.array([[0.0]]), np.array([[-2.0]]),
                                  np.array([[-1.0]]), q=2, s=1.0)
    lhs, rhs = both["poly"]
    assert lhs == pytest.approx(4.0, rel=1e-13)
    assert rhs == pytest.approx(2.0, rel=1e-13)
    assert lhs > rhs  # the polynomial form genuinely fails for scalars


def _refuse_constant(name):
    raise AssertionError(f"report holds {name}, which is not JSON")


def test_10_reports_are_byte_identical(tmp_path, capsys):
    cases = {
        "bound": ["bound", "--name", "gaussexp", "--d", "2", "--v", "1",
                  "--c", "0.5", "--t", "0:4:0.5"],
        "verify": ["verify", "--check", "poly_efron_stein", "--model",
                   "hypercube_sum", "--n", "3"],
        "fuzz": ["fuzz", "--ineq", "pmvti", "--trials", "60", "--seed", "17",
                 "--d", "1:3", "--q", "1:4", "--s", "0.5,2", "--jobs", "2"],
        "conjecture": ["conjecture", "--trials", "80", "--seed", "17",
                       "--d", "1:3"],
        "couple": ["couple", "--n", "3", "--runs", "400", "--seed", "17",
                   "--pathwise-runs", "20"],
        "tail": ["tail", "--model", "hypercube_sum", "--n", "3", "--d", "2",
                 "--bound", "bounded_diff", "--sigma2", "9", "--samples",
                 "500", "--seed", "17", "--t", "0:4:1"],
    }
    for verb, argv in cases.items():
        a = tmp_path / f"{verb}_a.out"
        b = tmp_path / f"{verb}_b.out"
        assert cli.main(argv + ["--out", str(a)]) == 0, verb
        assert cli.main(argv + ["--out", str(b)]) == 0, verb
        assert a.read_bytes() == b.read_bytes(), verb
        if verb != "bound":  # a JSON report holds no NaN or Infinity, which JSON lacks
            report = json.loads(a.read_text(), parse_constant=_refuse_constant)
        if verb in ("fuzz", "conjecture"):  # no dimension's minimum is lost
            assert [int(d) for d in report["min_slack_by_dim"]] == report["dims"], verb
    capsys.readouterr()

    # replay closes the loop: re-running the stored worst case is bit-exact
    art = json.loads((tmp_path / "fuzz_a.out").read_text())
    ra = tmp_path / "replay_a.out"
    rb = tmp_path / "replay_b.out"
    assert cli.main(["replay", "--case", str(tmp_path / "fuzz_a.out"),
                     "--out", str(ra)]) == 0
    assert cli.main(["replay", "--case", str(tmp_path / "fuzz_b.out"),
                     "--out", str(rb)]) == 0
    assert ra.read_bytes() == rb.read_bytes()
    json.loads(ra.read_text(), parse_constant=_refuse_constant)
    assert json.loads(ra.read_text())["slack"] == art["worst_case"]["slack"]
