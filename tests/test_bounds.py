"""Closed-form bound families against independently computed golden values."""
import io
import math

import numpy as np
import pytest

from matconc import bounds
from matconc.bounds import (
    BoundCurve,
    CompoundCovSpec,
    DobrushinSpec,
    GaussExpParams,
    HaarSpec,
    bounded_diff_bounds,
    bounded_diff_sigma,
    chebyshev_tail,
    compound_cov_bounds,
    compound_psd_mgf,
    dobrushin_bounds,
    efron_stein_exp_rhs,
    efron_stein_poly_rhs,
    gaussexp_bounds,
    haar_bounds,
    laplace_bounds,
    make_curve,
    self_bounded_bounds,
)
from matconc.matcore import ParameterError, PreconditionError

REL = 1e-12

# golden values, power-series / closed-form oracle
EXP_MINUS_2 = 0.1353352832366127
SQRT_2LOG2 = 1.1774100225154747
COMPOUND_DENOM = 1372.5125168440813
COMPOUND_RAW = 3.7189273524321087
COMPOUND_MEAN = 103.89105510659597
PSD_MGF = 0.009230769230769232
HAAR_S2 = 0.9990234375


def close(x, y, rel=REL):
    return abs(x - y) <= rel * max(1.0, abs(x), abs(y))


def test_chebyshev_golden():
    out = chebyshev_tail([(2, 4.0)], 4.0)
    assert out["tail"] == 0.25
    assert out["mean_bound"] == 2.0


def test_chebyshev_takes_best_moment():
    out = chebyshev_tail([(2, 4.0), (4, 20.0)], 2.0)
    assert out["tail_raw"] == 1.0
    assert out["tail"] == 1.0


def test_chebyshev_rejects_bad_input():
    with pytest.raises(ParameterError):
        chebyshev_tail([], 1.0)
    with pytest.raises(ParameterError):
        chebyshev_tail([(2, 1.0)], 0.0)
    with pytest.raises(ParameterError):
        chebyshev_tail([(0.5, 1.0)], 1.0)


def test_laplace_quadratic_mgf():
    # log mgf theta^2/2: optimum theta = t, tail d e^{-t^2/2}
    out = laplace_bounds(lambda th: th * th / 2.0, 1, 2.0, np.linspace(-4, 4, 17))
    assert close(out["upper_tail_raw"], EXP_MINUS_2, rel=1e-9)
    assert close(out["lower_tail_raw"], EXP_MINUS_2, rel=1e-9)
    # mean bound: inf over theta of (log d + log mgf)/theta = sqrt(2 log d) at d=2
    out2 = laplace_bounds(lambda th: th * th / 2.0, 2, 1.0, np.linspace(0.1, 4, 40))
    assert close(out2["upper_mean"], SQRT_2LOG2, rel=1e-6)


def test_laplace_one_sided_grid_is_vacuous():
    out = laplace_bounds(lambda th: th * th, 2, 1.0, [0.5, 1.0])
    assert out["lower_tail_raw"] == math.inf
    assert out["lower_mean"] == -math.inf


@pytest.mark.parametrize("t", [1e200, -1e200, 1e300, -1e300])
def test_laplace_at_an_extreme_t_is_its_limit(t):
    # -theta t leaves the floats: a tail bound is 0 for t -> +inf, vacuous for t -> -inf
    out = laplace_bounds(lambda th: th * th / 2.0, 2, t, [-1.0, 1.0])
    limit = 0.0 if t > 0 else math.inf
    assert out["upper_tail_raw"] == out["lower_tail_raw"] == limit
    assert out["upper_tail"] == out["lower_tail"] == min(limit, 1.0)


def test_laplace_rejects_zero_grid():
    with pytest.raises(ParameterError):
        laplace_bounds(lambda th: th * th, 2, 1.0, [0.0])


# theta grids laplace_bounds refuses, and the message that names the rule
BAD_THETA_GRIDS = {
    "text": ("12", "theta grid is a number or a list of numbers, not str"),
    "bytes": (b"12", "theta grid is a number or a list of numbers, not bytes"),
    "mapping": ({1.0: 2.0}, "theta grid is a number or a list of numbers, not dict"),
    "empty": ([], "empty theta grid"),
    "non_finite": ([1.0, math.nan], "need a finite theta"),
}


@pytest.mark.parametrize("name", sorted(BAD_THETA_GRIDS))
def test_laplace_refuses_a_grid_that_is_not_numbers(name):
    grid, message = BAD_THETA_GRIDS[name]
    with pytest.raises(ParameterError, match=message):
        laplace_bounds(lambda th: th * th / 2.0, 2, 1.0, grid)


def test_laplace_reads_one_theta_as_a_grid_of_one():
    assert laplace_bounds(lambda th: th * th / 2.0, 2, 1.0, 1.0) == \
        laplace_bounds(lambda th: th * th / 2.0, 2, 1.0, [1.0])


def test_gaussexp_golden():
    out = gaussexp_bounds(GaussExpParams(d=2, v=1.0, c=0.0), 2.0)
    assert close(out["tail_raw"], 2 * EXP_MINUS_2)
    assert close(out["mean_bound"], SQRT_2LOG2)


def test_efron_stein_poly_rhs_golden():
    assert close(efron_stein_poly_rhs(1, 1.0), math.sqrt(2.0))
    assert close(efron_stein_poly_rhs(3, 1.0), math.sqrt(10.0))
    with pytest.raises(ParameterError):
        efron_stein_poly_rhs(0, 1.0)
    with pytest.raises(ParameterError):
        efron_stein_poly_rhs(2, -1.0)


def test_efron_stein_exp_rhs_golden():
    assert close(efron_stein_exp_rhs(1.0, 4.0, 1.0), 0.5)
    assert close(efron_stein_exp_rhs(0.7, 1.0, 1.0), 24.49999999999998, rel=1e-9)
    with pytest.raises(PreconditionError):
        efron_stein_exp_rhs(1.5, 4.0, 1.0)  # |theta| > sqrt(psi/2)


def test_self_bounded_golden():
    assert close(self_bounded_bounds(2, 1.0, 0.0, 2.0)["tail_raw"],
                 2 * math.exp(-1.0))
    assert close(self_bounded_bounds(2, 0.0, 1.0, 6.0)["tail_raw"],
                 2 * math.exp(-1.0))


def test_bounded_diff_sigma_sums_squares():
    e11 = np.array([[2.0, 0.0], [0.0, 0.0]])
    assert close(bounded_diff_sigma([e11] * 4), 16.0)


def test_bounded_diff_golden():
    out = bounded_diff_bounds(2, 1.0, 2.0)
    assert close(out["tail_raw"], 2 * EXP_MINUS_2)
    assert close(out["mean_bound"], SQRT_2LOG2)


def test_dobrushin_golden():
    spec = DobrushinSpec(D=np.array([[0.0, 0.5], [0.5, 0.0]]), sigma2=1.0)
    assert close(spec.b, 2.0)
    out = dobrushin_bounds(spec, 2, 2.0)
    assert close(out["tail_raw"], 2 * math.exp(-4.0 / 2.0))


def test_dobrushin_rejects_contraction_failure():
    with pytest.raises(PreconditionError):
        DobrushinSpec(D=np.array([[0.0, 1.2], [1.2, 0.0]]), sigma2=1.0)


def test_compound_golden():
    spec = CompoundCovSpec(p=2, n=2, sigma2=1.0, L=1.0, B=np.eye(2))
    out = compound_cov_bounds(spec, 10.0)
    assert close(out["tail_raw"], COMPOUND_RAW)
    assert out["tail"] == 1.0
    assert close(out["mean_bound"], COMPOUND_MEAN)


def test_compound_homogeneity():
    # (B, t) -> (aB, at) leaves the tail invariant
    rng = np.random.default_rng(5)
    g = rng.standard_normal((3, 3))
    B = (g + g.T) / 2
    for alpha in (0.3, 2.7, 11.0):
        base = compound_cov_bounds(CompoundCovSpec(p=2, n=3, sigma2=0.6, L=1.0, B=B), 4.0)
        scaled = compound_cov_bounds(
            CompoundCovSpec(p=2, n=3, sigma2=0.6, L=1.0, B=alpha * B), alpha * 4.0)
        assert close(base["tail_raw"], scaled["tail_raw"])


def test_compound_rejects_sigma_above_entry_bound():
    with pytest.raises(ParameterError):
        CompoundCovSpec(p=2, n=2, sigma2=2.0, L=1.0, B=np.eye(2))


@pytest.mark.parametrize("field, L, sigma2", [
    ("L", math.inf, 1.0), ("L", math.nan, 1.0), ("L", 0.0, 0.0), ("L", -1.0, 1.0),
    ("sigma2", 1.0, math.nan),
])
def test_compound_spec_needs_finite_L_and_sigma2(field, L, sigma2):
    with pytest.raises(ParameterError, match=f"need a finite {field}"):
        CompoundCovSpec(p=2, n=2, sigma2=sigma2, L=L, B=np.eye(2))


def test_compound_psd_mgf_golden():
    assert close(compound_psd_mgf(np.eye(2), 2, 1.0, 0.01), PSD_MGF)


def test_compound_psd_mgf_preconditions():
    with pytest.raises(PreconditionError):
        compound_psd_mgf(np.eye(2), 2, 1.0, 1.0)  # theta past 1/(24 p ||A||)
    with pytest.raises(PreconditionError):
        compound_psd_mgf(np.diag([1.0, -1.0]), 2, 1.0, 0.01)


def test_haar_sigma2_golden():
    tv = [2.0 ** -i / 4.0 for i in range(10)]
    spec = HaarSpec(R=1.0, S=1.0, tv_seq=tv, d=2)
    assert close(spec.sigma2, HAAR_S2)
    out = haar_bounds(spec, 1.0)
    assert close(out["tail_raw"], 2 * math.exp(-1.0 / (2 * HAAR_S2)))


def test_curve_sample_returns_plain_floats():
    curve = make_curve("bounded_diff", d=2, sigma2=1.0)
    for t, raw, clamped in curve.sample([0.0, 2.0, 4.0]):
        assert type(t) is float and type(raw) is float and type(clamped) is float
    row = curve.sample([2.0])[0]
    assert close(row[1], 2 * EXP_MINUS_2)


def test_curve_clamps_to_unit_interval():
    curve = make_curve("bounded_diff", d=2, sigma2=1.0)
    t, raw, clamped = curve.sample([0.0])[0]
    assert raw == 2.0 and clamped == 1.0


def test_curve_csv_golden_row():
    curve = make_curve("bounded_diff", d=2, sigma2=1.0)
    fh = io.StringIO()
    curve.write_csv(fh, [0.0, 2.0])
    lines = fh.getvalue().splitlines()
    assert lines[0].startswith("# bound=bounded_diff")
    assert lines[1] == "t,raw,clamped"
    assert lines[3] == "2.0,0.2706705664732254,0.2706705664732254"


def test_make_curve_rejects_unknown_name():
    with pytest.raises(ParameterError):
        make_curve("nope", d=2)


def test_make_curve_rejects_bad_params():
    with pytest.raises((ParameterError, TypeError)):
        make_curve("gaussexp", d=2, v=1.0)  # missing c


@pytest.mark.parametrize("name, params", [
    ("gaussexp", dict(d=2.5, v=1.0, c=0.5)),
    ("self_bounded", dict(d=2.5, v=1.0, c=0.5)),
    ("bounded_diff", dict(d=2.5, sigma2=1.0)),
    ("bounded_diff", dict(d=True, sigma2=1.0)),
    ("dobrushin", dict(d=2.5, sigma2=1.0, D=np.zeros((2, 2)))),
    ("haar", dict(R=1.0, S=1.0, tv_seq=[0.5], d=2.5)),
])
def test_make_curve_refuses_a_fractional_d(name, params):
    with pytest.raises(ParameterError, match="not an integer"):
        make_curve(name, **params)


@pytest.mark.parametrize("p, n", [(1.5, 2), (2, 2.5), (True, 2)])
def test_compound_spec_refuses_a_fractional_p_or_n(p, n):
    with pytest.raises(ParameterError, match="not an integer"):
        CompoundCovSpec(p=p, n=n, sigma2=1.0, L=1.0, B=np.eye(2))


def test_formula_regression_grid():
    # each family's raw curve equals its closed form at 1e-12 relative
    t_grid = np.linspace(0.0, 8.0, 33)
    cases = [
        (make_curve("gaussexp", d=3, v=2.0, c=0.5),
         lambda t: 3 * math.exp(-t * t / (4.0 + t)) if t > 0 else 3.0),
        (make_curve("self_bounded", d=2, v=1.5, c=0.25),
         lambda t: 2 * math.exp(-t * t / (6.0 + 1.5 * t)) if t > 0 else 2.0),
        (make_curve("bounded_diff", d=4, sigma2=2.5),
         lambda t: 4 * math.exp(-t * t / 5.0)),
    ]
    for curve, formula in cases:
        for t in t_grid:
            assert close(curve.prob(float(t)), min(1.0, formula(float(t))))


# every make_curve curve, and its leading factor: the raw tail at t -> 0
EXTREME_CURVES = {
    "gaussexp": (dict(d=2, v=1.0, c=0.5), 2.0),
    "gaussexp_c0": ({"name": "gaussexp", "d": 2, "v": 1.0, "c": 0.0}, 2.0),
    "gaussexp_large_c": ({"name": "gaussexp", "d": 2, "v": 1.0, "c": 1e10}, 2.0),
    "self_bounded": (dict(d=3, v=1.0, c=0.5), 3.0),
    "bounded_diff": (dict(d=2, sigma2=1.0), 2.0),
    "dobrushin": (dict(d=2, sigma2=1.0, D=[[0.0, 0.1], [0.2, 0.0]]), 2.0),
    "compound_cov": (dict(spec=CompoundCovSpec(2, 3, 1.0, 1.0, np.eye(3))), 4.0),
    "haar": (dict(R=1.0, S=1.0, tv_seq=[0.5], d=2), 2.0),
}


@pytest.mark.parametrize("t", [1e200, 1e300, 1e-200])
@pytest.mark.parametrize("key", sorted(EXTREME_CURVES))
def test_a_curve_at_an_extreme_t_is_its_limit(key, t):
    # t**2 overflows at 1e200 and 1e300 (and a + b t too, for c = 1e10 at 1e300)
    params, lead = EXTREME_CURVES[key]
    params = dict(params)
    curve = make_curve(params.pop("name", key), **params)
    assert curve.raw(t) == (0.0 if t > 1 else lead)


@pytest.mark.parametrize("t, moment, tail", [(1e200, 1.0, 0.0), (1e300, 1.0, 0.0),
                                             (1e-200, 1.0, math.inf), (1e-200, 0.0, 0.0),
                                             (1e200, 0.0, 0.0)])
def test_chebyshev_at_an_extreme_t_is_its_limit(t, moment, tail):
    # t**2 overflows, or underflows to 0, outside about [1e-162, 1e154]
    out = chebyshev_tail([(2, moment)], t)
    assert out["tail_raw"] == tail and out["tail"] == min(1.0, tail)


def test_gaussexp_zero_denominator_edge():
    out = gaussexp_bounds(GaussExpParams(d=2, v=0.0, c=0.0), 1.0)
    assert out["tail_raw"] == 0.0
