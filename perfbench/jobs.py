"""The four benchmark workloads, as fixed job lists built from a seed.

Each workload function takes the workload seed and a temporary directory and
returns a list of ``Job``.  Building the list builds every model and input
the jobs need; it is what set-up time measures.  Running a job calls the
public matconc API (or ``cli.main`` in-process) and returns its output;
checking and digesting happen afterwards, outside the timed region.  Job
seeds are derived from the workload seed, so one seed gives one job list.

Jobs of a pass run in list order, and a later job may read what an earlier
one left in ``state`` (the kernel a moment check uses, the fuzz report a
replay reads), so the list is a closed loop with one client.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks
from checks import Check, digest


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object, Check], None]
    fingerprint: Callable[[object], str] = digest
    meta: dict = field(default_factory=dict)


def derive(seed: int, label: str) -> int:
    """A 31-bit job seed from the workload seed and the job's label."""
    h = hashlib.blake2b(f"{seed}/{label}".encode(), digest_size=4).digest()
    return int.from_bytes(h, "little") & 0x7FFFFFFF


# ---------------------------------------------------------------------------
# fuzz_battery: every fuzz suite at the acceptance parameters, fewer trials.
# Each suite runs one job per dimension, so the mix of matrix sizes (which
# sets the cost of a trial) is the same for every seed.

DIMS = list(range(1, 7))
QS = list(range(1, 8))
SS = [0.25, 1.0, 4.0]
YOUNG_P = (1.5, 2.0, 3.0)
ENSEMBLE = 8
FUZZ_TRIALS = 35  # per suite and dimension
CONJ_TRIALS = 2000


def pinned_conjecture(verify) -> dict:
    """The scalar counterexample to the polynomial form pinned by test_09."""
    return verify.eval_conjecture(np.array([[0.0]]), np.array([[-2.0]]),
                                  np.array([[-1.0]]), q=2, s=1.0)


def fuzz_battery(seed: int, tmp: str) -> list:
    from matconc import verify

    def replay_check(blob, c):
        replayed = verify.replay_case(blob["worst_case"])["slack"]
        checks.check_replay(c, replayed, blob["worst_case"]["slack"])

    def fuzz_check(dims):
        def check(rep, c):
            blob = rep.to_json()
            checks.check_fuzz(c, blob, FUZZ_TRIALS, dims)
            replay_check(blob, c)
        return check

    def conj_check(rep, c):
        blob = rep.to_json()
        checks.check_conjecture(c, blob, CONJ_TRIALS, pinned_conjecture(verify))
        replay_check(blob, c)

    def fingerprint(rep):
        return digest(rep.to_json())

    jobs = []
    for d in DIMS:
        def k(label, d=d):
            return derive(seed, f"{label}/d{d}")

        suites = [
            ("pmvti", lambda d=d, k=k("pmvti"): verify.fuzz_pmvti(
                [d], QS, SS, FUZZ_TRIALS, k)),
            ("emvti", lambda d=d, k=k("emvti"): verify.fuzz_emvti([d], SS, FUZZ_TRIALS, k)),
        ]
        suites += [(f"young_commuting.p{p}",
                    lambda d=d, p=p, k=k(f"young{p}"): verify.fuzz_young_commuting(
                        [d], p, FUZZ_TRIALS, k)) for p in YOUNG_P]
        suites += [
            ("operator_cs", lambda d=d, k=k("ocs"): verify.fuzz_operator_cs(
                [d], FUZZ_TRIALS, k)),
            ("matrix_entropy_young", lambda d=d, k=k("mey"): verify.fuzz_matrix_entropy_young(
                [d], ENSEMBLE, FUZZ_TRIALS, k)),
        ]
        jobs += [Job(f"fuzz.{name}.d{d}", run, fuzz_check([d]), fingerprint)
                 for name, run in suites]
    jobs.append(Job("conjecture",
                    lambda k=derive(seed, "conj"): verify.explore_conjecture(
                        DIMS, [1, 2, 3], [1.0], CONJ_TRIALS, k),
                    conj_check, fingerprint))
    return jobs


# ---------------------------------------------------------------------------
# exact_enum: a ladder in the outcome-space size S

ES_NS = range(4, 11)  # random_finite(n, 3): S = 16 .. 1024
ES_P = [1, 2, 3]
ES_THETA = [-0.25, 0.25]
ES_PSI = [1.0]
KP_P = [1, 2]


def x_spectra(model) -> tuple:
    """Outcome probabilities and eigenvalues of X = H - E H, by direct sums.

    An oracle for the left-hand sides of the Efron-Stein checks: it uses the
    model's H and nothing else of the package.
    """
    zs, ps = [], []
    for combo in itertools.product(*[list(zip(c.values, c.probs))
                                     for c in model.dist.coords]):
        zs.append(tuple(float(v) for v, _ in combo))
        ps.append(math.prod(p for _, p in combo))
    h = np.stack([np.asarray(model.H(z)) for z in zs])
    ps = np.array(ps)
    return ps, np.linalg.eigvalsh(h - np.tensordot(ps, h, axes=1))


def exact_enum(seed: int, tmp: str) -> list:
    from matconc import stein, verify

    def poly_check(m):
        def check(rep, c):
            checks.check_exact(c, rep, len(ES_P))
            ps, lam = x_spectra(m)
            for row in rep["results"]:
                q = 2 * row["p"]
                want = float(ps @ np.sum(np.abs(lam) ** q, axis=1)) ** (1.0 / q)
                checks.check_oracle(c, f"lhs p={row['p']}", row["lhs"], want)
        return check

    def exp_check(m):
        def check(rep, c):
            checks.check_exact(c, rep, len(ES_THETA) * len(ES_PSI))
            ps, lam = x_spectra(m)
            for row in rep["results"]:
                want = math.log(float(ps @ np.mean(np.exp(row["theta"] * lam), axis=1)))
                checks.check_oracle(c, f"lhs theta={row['theta']}", row["lhs"], want)
        return check

    jobs = []
    for n in ES_NS:
        m = stein.random_finite_model(n, 3, derive(seed, f"rf{n}"))
        jobs.append(Job(f"poly_es.rf{n}",
                        lambda m=m: verify.verify_poly_efron_stein(m, ES_P), poly_check(m)))
        jobs.append(Job(f"exp_es.rf{n}",
                        lambda m=m: verify.verify_exp_efron_stein(m, ES_THETA, ES_PSI),
                        exp_check(m)))

    models = [(f"hypercube{n}", stein.hypercube_sum(n)) for n in range(3, 8)]
    models += [("random_finite3", stein.random_finite_model(3, 2, derive(seed, "rf3d2"))),
               ("bounded_diff3", stein.bounded_diff_demo(3)),
               ("compound_cov23", stein.compound_covariance(2, 3))]
    for tag, m in models:
        state: dict = {}
        S, d = m.dist.cardinality, m.d

        def kernel(m=m, state=state):
            state["k"] = stein.ExactKernel(m)
            return state["k"]

        def kernel_check(k, c, S=S, d=d):
            anti = float(np.max(np.abs(k.table + k.table.transpose(1, 0, 2, 3))))
            checks.check_kernel_table(c, anti, k.table.shape, (S, S, d, d))
            c.info["iterations"] = k.iterations

        def identities(m=m, state=state, d=d):
            k = state["k"]
            out = {"stein": stein.check_stein_identity(m, k).residual,
                   "centering": stein.kernel_mean_norm(m, k)}
            for label, F in (("pairs_I", lambda x: np.eye(d)), ("pairs_X", lambda x: x),
                             ("pairs_X3", lambda x: x @ x @ x)):
                out[label] = stein.exchangeable_pairs_identity(m, k, F)
            return out

        jobs += [
            Job(f"kernel.{tag}", kernel, kernel_check,
                lambda k: digest(k.table.tobytes()), {"S": S}),
            Job(f"identities.{tag}", identities,
                lambda out, c: checks.check_identities(c, out)),
            Job(f"kernel_poly.{tag}",
                lambda m=m, state=state: verify.verify_kernel_poly_moments(
                    m, state["k"], KP_P, verify.DEFAULT_S_GRID),
                lambda rep, c: checks.check_exact(c, rep, len(KP_P))),
            Job(f"var_dom.{tag}",
                lambda m=m, state=state: verify.variance_domination(m, state["k"]),
                lambda out, c: checks.check_domination(c, out)),
        ]
    return jobs


# ---------------------------------------------------------------------------
# monte_carlo: sampling-bound paths

COUPLING_NS = (2, 3, 5, 8)
# 2e5 runs per n, in calls of 25 000.  A call scans draws in 64-step chunks
# until its slowest run has coupled, so its cost is set by the maximum of its
# coupling times.  In one 2e5-run call at n = 5 that maximum passes 64 steps
# for about half of all seeds, doubling the call's cost; in 25 000-run calls
# the chunk count varies little from seed to seed.
COUPLING_RUNS = 25_000
COUPLING_CALLS = 8
PATHWISE_N = 5
PATHWISE_RUNS = 200
TAIL_SAMPLES = 100_000
ESTIMATED_SAMPLES = 500


def _grid(start: float, stop: float, step: float) -> list:
    count = int(round((stop - start) / step)) + 1
    return [float(t) for t in np.linspace(start, stop, count)]


def monte_carlo(seed: int, tmp: str) -> list:
    from matconc import bounds, stein, verify

    jobs = []
    for n in COUPLING_NS:
        def coupling_check(times, c, n=n):
            c.require(times.shape == (COUPLING_RUNS,) and bool(np.all(times >= 0)),
                      "coupling times missing or exhausted")
            se = float(times.std(ddof=1)) / math.sqrt(times.size)
            checks.check_coupling(c, n, times.size, float(times.mean()), se,
                                  int(times.min()))
            c.info["checksum"] = int(times.sum())

        for call in range(COUPLING_CALLS):
            jobs.append(Job(f"coupling.n{n}.{call}",
                            lambda n=n, k=derive(seed, f"couple{n}/{call}"):
                                stein.sample_coupling_times(n, COUPLING_RUNS, k),
                            coupling_check, lambda t: digest(t.tobytes())))

    cube = stein.hypercube_sum(PATHWISE_N)
    z = tuple(1.0 for _ in range(PATHWISE_N))
    zp = tuple(-1.0 for _ in range(PATHWISE_N))

    def pathwise(k=derive(seed, "pathwise")):
        runs = [stein.simulate_kernel_coupling(cube, z, zp, 1_000_000, k + i)
                for i in range(PATHWISE_RUNS)]
        return [(r.coupling_time, r.first_all_drawn) for r in runs]

    jobs.append(Job("pathwise", pathwise,
                    lambda runs, c: checks.check_pathwise(c, PATHWISE_N, runs)))

    def tail_job(name, model, grid, curve=None):
        def run(k=derive(seed, name)):
            return verify.empirical_tail(model, TAIL_SAMPLES, grid, k, curve=curve,
                                         alpha=0.01)
        return run

    two_e11 = np.array([[2.0, 0.0], [0.0, 0.0]])
    bd = bounds.make_curve("bounded_diff", d=2,
                           sigma2=bounds.bounded_diff_sigma([two_e11] * 4))
    cc = bounds.make_curve("compound_cov", spec=bounds.CompoundCovSpec(
        p=2, n=3, sigma2=1.0, L=1.0, B=np.eye(3)))
    tail_check = lambda out, c: checks.check_tail(c, out.to_json())  # noqa: E731
    tail_digest = lambda out: digest(out.to_json())  # noqa: E731
    jobs.append(Job("tail.hypercube4", tail_job(
        "tail.hypercube4", stein.hypercube_sum(4), _grid(0, 6, 0.5), bd),
        tail_check, tail_digest))
    jobs.append(Job("tail.compound_cov23", tail_job(
        "tail.compound_cov23", stein.compound_covariance(2, 3), _grid(0, 4, 0.5), cc),
        tail_check, tail_digest))

    uniform = stein.compound_covariance(2, 3, entry_dist="uniform")

    def uniform_check(out, c):
        checks.check_tail(c, out.to_json())
        # E[Z Z*] = n sigma2 I_p = I for 3 columns of U[-1, 1] entries; 20000
        # samples put each entry within about 0.004 (one standard error).
        checks.check_mc_mean(c, uniform.mean_provenance,
                             uniform.mean().ravel().tolist(),
                             np.eye(2).ravel().tolist(), 0.05)

    jobs.append(Job("tail.compound_cov23_uniform", tail_job(
        "tail.uniform", uniform, _grid(0, 4, 0.5)), uniform_check, tail_digest))

    # grid at midpoints of the support of ||X||, so the rectangular (SVD) and
    # dilated (eigvalsh) statistics cannot fall on opposite sides of a point
    probe = stein.rect_demo(3)
    support = sorted({round(float(np.linalg.svd(probe.X(z), compute_uv=False)[0]), 8)
                      for z, _ in probe.dist.outcomes()})
    mid = [(a + b) / 2.0 for a, b in zip(support, support[1:])] + [support[-1] + 1.0]
    rect = stein.rect_demo(3)
    state: dict = {}

    def rect_run(k=derive(seed, "tail.rect")):
        state["rect"] = verify.empirical_tail(rect, TAIL_SAMPLES, mid, k)
        return state["rect"]

    def dil_run(k=derive(seed, "tail.rect")):
        return verify.empirical_tail(stein.dilate_model(rect), TAIL_SAMPLES, mid, k)

    def dil_check(out, c):
        checks.check_tail(c, out.to_json())
        checks.check_same_curve(c, state["rect"].survival.tolist(),
                                out.survival.tolist())

    jobs.append(Job("tail.rect3", rect_run, tail_check, tail_digest))
    jobs.append(Job("tail.rect3_dilated", dil_run, dil_check, tail_digest))

    small = stein.hypercube_sum(3)

    def estimated(k=derive(seed, "estimated")):
        kern = stein.EstimatedKernel(
            small, horizon=stein.default_horizon(3, small.max_h_norm()),
            samples=ESTIMATED_SAMPLES, seed=k)
        return verify.verify_kernel_poly_moments(small, kern, KP_P, verify.DEFAULT_S_GRID)

    jobs.append(Job("kernel_poly.estimated", estimated,
                    lambda rep, c: checks.check_exact(c, rep, len(KP_P))))
    return jobs


# ---------------------------------------------------------------------------
# cli_small: every verb in-process at test_10 scale

CLI_ROUNDS = 3
CLI_FUZZ = ("pmvti", "emvti", "young_commuting", "operator_cs", "matrix_entropy_young")


def _read(path: str):
    with open(path, "rb") as fh:
        return fh.read()


def cli_small(seed: int, tmp: str) -> list:
    from matconc import bounds, cli, matcore, verify

    os.makedirs(tmp, exist_ok=True)
    jobs = []

    def add(name, argv, check, meta=None):
        out = os.path.join(tmp, name + ".out")

        def run():
            return cli.main(argv + ["--out", out])

        def checked(code, c):
            try:
                raw = _read(out)
            except OSError:
                c.problems.append(f"exit code {code} and no report at {name}.out")
                return
            c.info["bytes"] = len(raw)
            check(code, raw, c)

        jobs.append(Job(name, run, checked,
                        lambda code: digest(f"{code}:".encode() + _read(out)),
                        dict(meta or {}, out=out)))
        return out

    def config(name, cfg):
        path = os.path.join(tmp, name + ".json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        return path

    def bound_check(name, curve, grid):
        def check(code, raw, c):
            checks.check_exit(c, code)
            checks.check_bound_csv(c, raw.decode(), name,
                                   [(t, curve.raw(t)) for t in grid])
        return check

    def json_check(fn):
        def check(code, raw, c):
            fn(code, json.loads(raw), c)
        return check

    def exact_check(rows, extra=None):
        def fn(code, rep, c):
            checks.check_exit(c, code)
            if rows is None:
                c.require(rep.get("pass") is True, "report pass is not true")
            else:
                checks.check_exact(c, rep, rows)
            if extra:
                extra(rep, c)
        return json_check(fn)

    def identities_extra(rep, c):
        c.require(rep["antisymmetry_max"] == 0.0, "kernel table is not antisymmetric")
        c.require(rep["pmf_asymmetry"] == 0.0, "joint pmf is not symmetric")
        checks.check_identities(c, dict(rep["pairs_identity"],
                                        stein=rep["stein_residual"],
                                        centering=rep["centering_norm"]))

    pinned = pinned_conjecture(verify)
    for r in range(CLI_ROUNDS):
        def s(label, r=r):
            return derive(seed, f"cli{r}/{label}")

        # bound: one call per curve name
        v = 1.0 + 0.5 * r
        grid = _grid(0, 4, 0.5)
        add(f"bound.gaussexp.{r}", ["bound", "--name", "gaussexp", "--d", "2", "--v",
                                     str(v), "--c", "0.5", "--t", "0:4:0.5"],
            bound_check("gaussexp", bounds.make_curve("gaussexp", d=2, v=v, c=0.5), grid))
        add(f"bound.self_bounded.{r}", ["bound", "--name", "self_bounded", "--d", "3",
                                         "--v", "1", "--c", str(0.25 * (r + 1)),
                                         "--t", "0:4:0.5"],
            bound_check("self_bounded", bounds.make_curve(
                "self_bounded", d=3, v=1.0, c=0.25 * (r + 1)), grid))
        grid6 = _grid(0, 6, 0.5)
        add(f"bound.bounded_diff.{r}", ["bound", "--name", "bounded_diff", "--d", "2",
                                         "--sigma2", str(4 + r), "--t", "0:6:0.5"],
            bound_check("bounded_diff", bounds.make_curve(
                "bounded_diff", d=2, sigma2=float(4 + r)), grid6))
        D = [[0.0, 0.2 + 0.1 * r], [0.3, 0.0]]
        add(f"bound.dobrushin.{r}", ["bound", "--config", config(f"dob{r}", {
            "name": "dobrushin", "d": 2, "sigma2": 1.0, "D": D, "t": "0:4:0.5"})],
            bound_check("dobrushin", bounds.make_curve(
                "dobrushin", d=2, sigma2=1.0, D=np.array(D)), grid))
        grid8 = _grid(0, 8, 1)
        add(f"bound.compound_cov.{r}", ["bound", "--config", config(f"cc{r}", {
            "name": "compound_cov", "p": 2, "n": 3 + r, "t": "0:8:1"})],
            bound_check("compound_cov", bounds.make_curve(
                "compound_cov", spec=bounds.CompoundCovSpec(
                    2, 3 + r, 1.0, 1.0, matcore.HermitianMatrix(np.eye(3 + r)))), grid8))
        tv = [2.0 ** -i / 4.0 for i in range(6 + r)]
        grid3 = _grid(0, 3, 0.25)
        add(f"bound.haar.{r}", ["bound", "--config", config(f"haar{r}", {
            "name": "haar", "R": 1.0, "S": 1.0, "tv_seq": tv, "d": 2, "t": "0:3:0.25"})],
            bound_check("haar", bounds.make_curve("haar", R=1.0, S=1.0, tv_seq=tv, d=2),
                        grid3))

        # verify: one call per check, the kernel moment check with both kernels
        add(f"verify.poly_efron_stein.{r}", ["verify", "--check", "poly_efron_stein",
                                              "--model", "hypercube_sum", "--n", "3"],
            exact_check(3))
        add(f"verify.exp_efron_stein.{r}", ["verify", "--check", "exp_efron_stein",
                                             "--model", "random_finite", "--n", "3",
                                             "--d", "2", "--model-seed", str(s("rf") % 1000)],
            exact_check(8))
        add(f"verify.kernel_identities.{r}", ["verify", "--check", "kernel_identities",
                                               "--model", "hypercube_sum", "--n", "3"],
            exact_check(None, identities_extra))
        add(f"verify.kernel_poly_moments.{r}", ["verify", "--check", "kernel_poly_moments",
                                                 "--model", "bounded_diff", "--n", "3"],
            exact_check(2))
        add(f"verify.kernel_poly_estimated.{r}", [
            "verify", "--check", "kernel_poly_moments", "--model", "hypercube_sum",
            "--n", "2", "--kernel", "estimated", "--samples", "100",
            "--seed", str(s("est"))], exact_check(2))

        # fuzz: every inequality, one and two jobs, then replay each report
        fuzz_outs = []
        for ineq in CLI_FUZZ:
            for jobs_n in (1, 2):
                argv = ["fuzz", "--ineq", ineq, "--trials", "60", "--seed", str(s(ineq)),
                        "--d", "1:3", "--jobs", str(jobs_n)]
                if ineq == "pmvti":
                    argv += ["--q", "1:4", "--s", "0.5,2"]

                def fuzz_fn(code, rep, c):
                    checks.check_exit(c, code)
                    checks.check_fuzz(c, rep, 60, [1, 2, 3])

                fuzz_outs.append(add(f"fuzz.{ineq}.jobs{jobs_n}.{r}", argv,
                                     json_check(fuzz_fn), {"jobs": jobs_n}))

        def conj_fn(code, rep, c):
            checks.check_exit(c, code)
            checks.check_conjecture(c, rep, 80, pinned)

        fuzz_outs.append(add(f"conjecture.{r}", ["conjecture", "--trials", "80", "--seed",
                                                 str(s("conj")), "--d", "1:3"],
                             json_check(conj_fn)))

        def couple_fn(code, rep, c):
            checks.check_couple_report(c, code, rep, 3, 400)

        add(f"couple.{r}", ["couple", "--n", "3", "--runs", "400", "--seed",
                            str(s("couple")), "--pathwise-runs", "20"], json_check(couple_fn))

        def tail_fn(code, rep, c):
            checks.check_tail_report(c, code, rep)

        add(f"tail.{r}", ["tail", "--model", "hypercube_sum", "--n", "3", "--d", "2",
                          "--bound", "bounded_diff", "--sigma2", "9", "--samples", "500",
                          "--seed", str(s("tail")), "--t", "0:4:1"], json_check(tail_fn))

        for src in fuzz_outs:
            def replay_fn(code, rep, c, src=src):
                checks.check_exit(c, code)
                stored = json.loads(_read(src))["worst_case"]["slack"]
                checks.check_replay(c, rep["slack"], stored)

            add(f"replay.{os.path.basename(src)[:-4]}", ["replay", "--case", src],
                json_check(replay_fn))
    return jobs


WORKLOADS = {
    "fuzz_battery": fuzz_battery,
    "exact_enum": exact_enum,
    "monte_carlo": monte_carlo,
    "cli_small": cli_small,
}
