"""Output checks for the benchmark jobs, and a self-test that they can fail.

Every check states a condition that a correct program meets for any seed,
taken from what the acceptance tests assert.  A check records two kinds of
findings:

* ``problems``: wrong answers.  Any problem fails the job.
* ``misses``: verdicts on seeded draws that land past the program's own
  3-sigma or alpha = 0.01 line but inside the benchmark's wider bound (see
  ``SIGMA_FAIL`` and ``TAIL_ALPHA_FAIL``).  A correct program produces them
  at a known small rate, so they are recorded and never fail a job.

Run ``python3 perfbench/checks.py`` to feed deliberately wrong outputs to
the checks and confirm that each one is caught.
"""
from __future__ import annotations

import hashlib
import json
import math

FUZZ_TOL = 1e-9  # acceptance gate on normalized fuzz slack
EXACT_TOL = 1e-10  # acceptance gate on exact checks and kernel residuals

# A coupling-time mean more than this many standard errors from n*H_n fails
# the job.  Two-sided normal tail: P(|N(0,1)| > 5) = 5.7e-7 per job.
SIGMA_FAIL = 5.0
SIGMA_MISS = 3.0  # the line `matconc couple` itself draws (exit code 2)

# A survival curve above bound + DKW radius at this alpha fails the job.
# By the DKW-Massart inequality a valid bound is crossed with probability
# at most TAIL_ALPHA_FAIL per curve.
TAIL_ALPHA_FAIL = 1e-6

# Replayed slack differs from the stored slack in the last bits for some
# young_commuting, emvti, matrix_entropy_young and conjecture cases (a known
# defect of replay_case, counted per run, see README); anything larger is a
# wrong answer.
REPLAY_ABS_TOL = 1e-12


class Check:
    """Findings for one job's output."""

    def __init__(self):
        self.problems: list = []
        self.misses: list = []
        self.info: dict = {}

    def require(self, cond, message: str) -> bool:
        if not cond:
            self.problems.append(message)
        return bool(cond)

    @property
    def ok(self) -> bool:
        return not self.problems


def digest(data) -> str:
    """Short sha256 of bytes, or of a JSON-able value in canonical form."""
    if not isinstance(data, (bytes, bytearray)):
        data = json.dumps(data, sort_keys=True, default=repr).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def harmonic_mean_time(n: int) -> float:
    """Coupon-collector mean n*H_n of the antipodal coupling time."""
    return n * sum(1.0 / k for k in range(1, n + 1))


def dkw_radius(samples: int, alpha: float) -> float:
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * samples))


# ---------------------------------------------------------------------------
# fuzz suites


def check_fuzz(c: Check, report: dict, trials: int, dims: list) -> None:
    """A fuzz report from one of the hard-gated trace inequalities."""
    slack = report.get("min_slack")
    c.info["min_slack"] = slack
    c.require(isinstance(slack, float) and slack >= -FUZZ_TOL,
              f"min_slack {slack!r} below -{FUZZ_TOL}")
    c.require(report.get("pass") is True, "report pass is not true")
    c.require(report.get("trials") == trials,
              f"trials {report.get('trials')!r} != {trials}")
    c.require(list(report.get("dims", [])) == list(dims),
              f"dims {report.get('dims')!r} != {list(dims)}")
    by_dim = report.get("min_slack_by_dim", {})
    c.require(all(v >= -FUZZ_TOL for v in by_dim.values()),
              "a per-dimension min slack is below the gate")
    worst = report.get("worst_case", {})
    c.require(worst.get("slack") == slack, "worst case slack != min_slack")


def check_conjecture(c: Check, report: dict, trials: int, pinned: dict) -> None:
    """The signed-form sweep, checked as test_09 checks it.

    The pooled pass flag is false by design (the polynomial form fails for
    scalars), so only the exponential section's d=1 slack, the trial count
    and the pinned scalar counterexample are gated.
    """
    c.require(report.get("trials") == trials,
              f"trials {report.get('trials')!r} != {trials}")
    c.require({"min_slack", "worst_case", "sections"} <= set(report),
              "conjecture report lacks min_slack/worst_case/sections")
    d1 = report.get("sections", {}).get("exp", {}).get("min_slack_by_dim", {}).get("1")
    c.info["exp_d1_min_slack"] = d1
    c.require(d1 is not None and d1 >= -FUZZ_TOL,
              f"exp section d=1 min slack {d1!r} below -{FUZZ_TOL}")
    lhs, rhs = pinned["poly"]
    c.require(abs(lhs - 4.0) <= 4e-13 and abs(rhs - 2.0) <= 2e-13 and lhs > rhs,
              f"pinned scalar counterexample gave lhs {lhs!r}, rhs {rhs!r}")


def check_replay(c: Check, replayed: float, stored: float) -> None:
    """Replaying a stored worst case reproduces its slack."""
    exact = replayed == stored
    c.info["replay_bit_exact"] = exact
    c.require(isinstance(replayed, float) and abs(replayed - stored) <= REPLAY_ABS_TOL,
              f"replayed slack {replayed!r} != stored {stored!r}")


# ---------------------------------------------------------------------------
# exact checks


def check_exact(c: Check, report: dict, expected_rows: int) -> None:
    """An exact Efron-Stein or kernel moment report."""
    c.require(report.get("pass") is True, f"{report.get('check')} pass is not true")
    rows = report.get("results", [])
    c.require(len(rows) == expected_rows,
              f"{len(rows)} result rows, expected {expected_rows}")
    for r in rows:
        slack = r.get("slack", r.get("best_rhs", 0.0) - r.get("lhs", 0.0))
        c.require(slack >= -EXACT_TOL and r.get("pass") is True,
                  f"row {r.get('p', r.get('theta'))} slack {slack!r}")


def check_oracle(c: Check, label: str, reported: float, expected: float,
                 rtol: float = 1e-9) -> None:
    """A reported quantity against the benchmark's own computation of it."""
    c.require(abs(reported - expected) <= rtol * max(1.0, abs(expected)),
              f"{label} {reported!r} != independent {expected!r}")


def check_kernel_table(c: Check, antisymmetry: float, shape: tuple,
                       expected: tuple) -> None:
    c.require(shape == expected, f"kernel table shape {shape} != {expected}")
    c.require(antisymmetry == 0.0, f"kernel antisymmetry {antisymmetry!r} != 0")


def check_identities(c: Check, residuals: dict) -> None:
    """Stein residual, pairs identities and kernel centering, all <= 1e-10."""
    for name, value in residuals.items():
        c.require(0.0 <= value <= EXACT_TOL, f"{name} residual {value!r}")


def check_domination(c: Check, result: dict) -> None:
    c.require(result.get("pass") is True,
              f"variance domination gap {result.get('lambda_min_gap')!r}")


# ---------------------------------------------------------------------------
# Monte Carlo


def check_coupling(c: Check, n: int, runs: int, mean: float, se: float,
                   tmin: int) -> None:
    """Bulk coupling times for antipodal starts on {+-1}^n.

    Every run must draw all n coordinates, so the minimum is at least n.
    The mean against n*H_n is a verdict on seeded draws: it is recorded in
    standard errors, and fails only beyond SIGMA_FAIL.
    """
    c.require(tmin >= n, f"minimum coupling time {tmin} < n = {n}")
    c.require(runs >= 2 and se > 0, "coupling sample has no spread")
    sigma = abs(mean - harmonic_mean_time(n)) / se if se > 0 else math.inf
    c.info["deviation_sigmas"] = sigma
    if sigma > SIGMA_FAIL:
        c.problems.append(f"coupling mean {mean!r} is {sigma:.2f} se from n*H_n")
    elif sigma > SIGMA_MISS:
        c.misses.append(f"coupling mean {sigma:.2f} se from n*H_n")


def check_pathwise(c: Check, n: int, runs: list) -> None:
    """Each pathwise run meets no later than the first full refresh."""
    for ct, fa in runs:
        if not c.require(n <= ct <= fa, f"pathwise run coupled at {ct}, "
                         f"all drawn at {fa}, n = {n}"):
            return


def check_tail(c: Check, report: dict) -> None:
    """An empirical survival curve, with or without a bound curve.

    The survival must be a valid survival function on the grid.  With a
    bound, the program's own violation list must match its numbers; a
    violation at the report's alpha is a miss, and a crossing of the wider
    TAIL_ALPHA_FAIL band is a wrong answer.
    """
    t = report.get("t_grid", [])
    s = report.get("survival", [])
    c.require(len(t) == len(s) and len(t) > 0, "survival and grid lengths differ")
    c.require(all(0.0 <= v <= 1.0 for v in s), "survival outside [0, 1]")
    c.require(all(a >= b for a, b in zip(s, s[1:])) or t != sorted(t),
              "survival increases along the grid")
    if "bound_values" not in report:
        return
    b = report["bound_values"]
    radius = report["dkw_radius"]
    c.require(radius == dkw_radius(report["samples"], report["alpha"]),
              "reported DKW radius does not match samples and alpha")
    own = [tt for tt, bb, ss in zip(t, b, s) if bb + radius < ss]
    c.require(own == report.get("violations"),
              f"violations {report.get('violations')!r} do not match {own!r}")
    wide = dkw_radius(report["samples"], TAIL_ALPHA_FAIL)
    worst = max(ss - bb for bb, ss in zip(b, s))
    c.info["excess_over_bound"] = worst
    if worst > wide:
        c.problems.append(f"survival exceeds bound by {worst!r} > {wide!r}")
    elif own:
        c.misses.append(f"bound crossed within the alpha band at t = {own}")


def check_same_curve(c: Check, a: list, b: list) -> None:
    """The rectangular and the dilated pipeline give one survival curve."""
    c.require(list(a) == list(b), "rectangular and dilated survival differ")


def check_mc_mean(c: Check, provenance: dict, mean, expected, tol: float) -> None:
    c.require(provenance.get("method") == "mc", f"mean provenance {provenance!r}")
    err = max(abs(x - y) for x, y in zip(mean, expected))
    c.info["mean_error"] = err
    c.require(err <= tol, f"Monte Carlo mean off by {err!r} > {tol!r}")


# ---------------------------------------------------------------------------
# command line


def check_exit(c: Check, code: int) -> None:
    c.require(code == 0, f"exit code {code}, expected 0")


def check_bound_csv(c: Check, text: str, name: str, expected: list) -> None:
    """A `matconc bound` CSV against the same curve evaluated through the API.

    ``expected`` holds (t, raw) pairs; clamped must be raw clamped to [0, 1].
    """
    lines = text.splitlines()
    c.require(len(lines) == len(expected) + 2, "CSV row count != grid size")
    c.require(lines[:1] and lines[0].startswith(f"# bound={name}"), "CSV header")
    c.require(lines[1:2] == ["t,raw,clamped"], "CSV column header")
    for line, (t, raw) in zip(lines[2:], expected):
        want = f"{t!r},{raw!r},{min(1.0, max(0.0, raw))!r}"
        if not c.require(line == want, f"CSV row {line!r} != {want!r}"):
            return


def check_couple_report(c: Check, code: int, report: dict, n: int,
                        runs: int) -> None:
    """A `matconc couple` report: exit 2 is allowed only as a 3-sigma miss."""
    c.require(report.get("n") == n and report.get("runs") == runs,
              "couple report n/runs")
    c.require(report.get("pathwise_ok") is True, "pathwise coupling check failed")
    c.require(report.get("min_time", -1) >= n, "coupling time below n")
    c.require(report.get("expected") == harmonic_mean_time(n), "expected != n*H_n")
    se = report.get("std_error", 0.0)
    sigma = abs(report["mean"] - report["expected"]) / se if se > 0 else math.inf
    c.require(sigma == report.get("deviation_sigmas"), "deviation_sigmas mismatch")
    c.info["deviation_sigmas"] = sigma
    c.require(report.get("pass") is (sigma <= SIGMA_MISS and report.get("pathwise_ok") is True),
              "couple pass flag inconsistent with its numbers")
    c.require(code == (0 if report.get("pass") else 2), f"couple exit code {code}")
    if sigma > SIGMA_FAIL:
        c.problems.append(f"coupling mean {sigma:.2f} se from n*H_n")
    elif sigma > SIGMA_MISS:
        c.misses.append(f"coupling mean {sigma:.2f} se from n*H_n")


def check_tail_report(c: Check, code: int, report: dict) -> None:
    """A `matconc tail` report: exit 2 is allowed only for an alpha-band miss."""
    check_tail(c, report)
    c.require(code == (2 if report.get("violations") else 0), f"tail exit code {code}")


# ---------------------------------------------------------------------------
# self-test: wrong outputs must be caught


def _good_fuzz() -> dict:
    return {"inequality": "pmvti", "trials": 10, "dims": [1, 2], "min_slack": 1e-3,
            "min_slack_by_dim": {"1": 1e-3, "2": 2e-3}, "pass": True,
            "worst_case": {"slack": 1e-3}}


def _good_tail() -> dict:
    n, alpha = 1000, 0.01
    return {"t_grid": [0.0, 1.0, 2.0], "survival": [0.9, 0.3, 0.01],
            "samples": n, "alpha": alpha, "dkw_radius": dkw_radius(n, alpha),
            "bound": "x", "bound_values": [1.0, 0.5, 0.1], "violations": []}


def selftest() -> list:
    """Return the names of checks that accepted a deliberately wrong output.

    Each case first confirms that the check passes the good output, so an
    empty list means every check both accepts the right answer and rejects
    the wrong one.
    """
    def bad_fuzz(r):
        r["min_slack"] = r["worst_case"]["slack"] = -1e-6
        r["pass"] = False  # keep it consistent: the slack alone must trip it

    def bad_fuzz_slack_only(r):
        r["min_slack"] = r["worst_case"]["slack"] = -1e-6

    def bad_tail(r):
        r["survival"] = [0.9, 0.3, 0.2]

    exact_good = {"check": "poly_efron_stein", "pass": True,
                  "results": [{"p": 1, "slack": 0.1, "pass": True}]}
    cases = {
        "fuzz slack -1e-6": (lambda c, r: check_fuzz(c, r, 10, [1, 2]),
                             _good_fuzz, bad_fuzz),
        "fuzz slack -1e-6, pass left true": (
            lambda c, r: check_fuzz(c, r, 10, [1, 2]), _good_fuzz, bad_fuzz_slack_only),
        "exact pass false": (lambda c, r: check_exact(c, r, 1),
                             lambda: json.loads(json.dumps(exact_good)),
                             lambda r: r.update({"pass": False})),
        "exact row slack -1e-9": (
            lambda c, r: check_exact(c, r, 1),
            lambda: json.loads(json.dumps(exact_good)),
            lambda r: r["results"][0].update({"slack": -1e-9})),
        "exact lhs 1% high": (
            lambda c, r: check_oracle(c, "lhs", r["lhs"], 2.0),
            lambda: {"lhs": 2.0}, lambda r: r.update({"lhs": 2.02})),
        "kernel antisymmetry 1e-17": (
            lambda c, r: check_kernel_table(c, r["anti"], (2, 2), (2, 2)),
            lambda: {"anti": 0.0}, lambda r: r.update({"anti": 1e-17})),
        "stein residual 1e-9": (
            lambda c, r: check_identities(c, r),
            lambda: {"stein": 1e-15}, lambda r: r.update({"stein": 1e-9})),
        "tail above the wide band": (check_tail, _good_tail, bad_tail),
        "tail violation list altered": (
            check_tail, _good_tail, lambda r: r.update({"violations": [1.0]})),
        "replay slack drift 1e-9": (
            lambda c, r: check_replay(c, r["a"], r["b"]),
            lambda: {"a": 0.5, "b": 0.5}, lambda r: r.update({"a": 0.5 + 1e-9})),
        "coupling min below n": (
            lambda c, r: check_coupling(c, 3, 1000, 5.5, 0.1, r["min"]),
            lambda: {"min": 3}, lambda r: r.update({"min": 2})),
        "coupling mean 6 se off": (
            lambda c, r: check_coupling(c, 3, 1000, r["mean"], 0.1, 3),
            lambda: {"mean": 5.5}, lambda r: r.update({"mean": 5.5 + 0.6})),
        "pathwise meets after refresh": (
            lambda c, r: check_pathwise(c, 3, r["runs"]),
            lambda: {"runs": [(4, 4)]}, lambda r: r.update({"runs": [(5, 4)]})),
        "conjecture exp d=1 slack -1e-6": (
            lambda c, r: check_conjecture(c, r, 10, {"poly": (4.0, 2.0)}),
            lambda: {"trials": 10, "min_slack": -0.9, "worst_case": {},
                     "sections": {"exp": {"min_slack_by_dim": {"1": 0.0}}}},
            lambda r: r["sections"]["exp"]["min_slack_by_dim"].update({"1": -1e-6})),
        "bound CSV value changed": (
            lambda c, r: check_bound_csv(c, r["text"], "g", [(1.0, 0.5)]),
            lambda: {"text": "# bound=g d=1\nt,raw,clamped\n1.0,0.5,0.5\n"},
            lambda r: r.update({"text": "# bound=g d=1\nt,raw,clamped\n1.0,0.6,0.6\n"})),
    }
    vacuous = []
    for name, (run, good, spoil) in cases.items():
        ok = Check()
        run(ok, good())
        wrong = good()
        spoil(wrong)
        bad = Check()
        run(bad, wrong)
        if not ok.ok or bad.ok:
            vacuous.append(name)
    return vacuous


if __name__ == "__main__":
    missed = selftest()
    print(json.dumps({"selftest_vacuous": missed}))
    raise SystemExit(1 if missed else 0)
