#!/usr/bin/env python3
"""Benchmark entry point: one workload, one process, closed loop with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.  With
``--trace 0`` the job list is run in timed passes until ``--seconds`` is
used (at least two, after an untimed warm-up pass; every job thus runs at
least three times in this process and its output digests are compared), and
the end-to-end metrics are printed.
With ``--trace 1`` untraced and traced passes alternate until ``--seconds``
is used, and the per-layer metrics plus the tracing overhead are printed.
Every output is checked outside the timed region.  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
A fuller record (machine, digests, deviations, per-pass walls) and, for
traced runs, the spans go to ``.perfbench_out/`` in the repository root.
"""
from __future__ import annotations

import os

# One BLAS thread, set before numpy is imported; `fuzz --jobs 2` then keeps
# the process at two threads, the core count this benchmark was sized on.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 5
DEFAULT_SEED = 2026

# Speed probe.  The host's speed drifts by 10-40% over seconds (shared
# cores and memory), which no statistic within one run removes.  So a short
# matconc-free probe runs before the first job of a pass and after each job,
# and the pass's job times are reported in reference seconds: raw seconds *
# PROBE_REF_S / (mean probe time over the pass).  The probe mixes what the
# layers run: small Hermitian eigh and matrix functions with Python
# arithmetic (the fuzz and exact paths), the eigh of a 36x36 matrix (the
# size of a d = 6 superoperator), and a fresh 8 MB array filled and summed
# (the batched Monte Carlo paths).  Each part alone tracked some workloads'
# slowdowns and missed others'; their sum tracked all four.  PROBE_REF_S is
# the probe's median time over 400 calls on the 2-core Xeon this benchmark
# was sized on.
PROBE_ITERS = 75
PROBE_SUPEROPS = 10
PROBE_REF_S = 0.0038


class Probe:
    """The speed probe, with fixed inputs so every call does the same work."""

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        self.small, self.big = [
            (g + g.conj().T) / 2
            for g in (rng.standard_normal((d, 2 * d)).view(np.complex128) for d in (4, 36))]

    def __call__(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(PROBE_ITERS):
            w, v = np.linalg.eigh(self.small)
            acc += abs(((v * np.exp(w)) @ v.conj().T)[0, 0])
        for _ in range(PROBE_SUPEROPS):
            acc += float(np.linalg.eigh(self.big)[0][0])
        acc += float(np.ones(1 << 20).sum())
        return time.perf_counter() - t0


def fail(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    raise SystemExit(2)


def parse_args(argv=None):
    from jobs import WORKLOADS

    ap = argparse.ArgumentParser(description="matconc benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_fresh():
    """Import matconc from src/, discarding any copy already imported."""
    for name in [m for m in sys.modules if m == "matconc" or m.startswith("matconc.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    matconc = importlib.import_module("matconc")
    importlib.import_module("matconc.cli")
    return matconc


def machine(matconc) -> dict:
    import numpy as np

    from matconc import _accel

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "accel_backend": _accel.backend(),
        "matconc": matconc.__version__,
    }


def percentile(values: list, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A Beta((n+1)q, (n+1)(1-q))-weighted mean of all order statistics.  Job
    costs in a pass are sparse (46 jobs spread over three decades in
    ``exact_enum``), so the sample quantile jumps from one job's cost to its
    neighbour's on small noise; this estimate moves smoothly between them.
    """
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    grid = np.linspace(0.0, 1.0, 100_001)[1:-1]
    log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)))
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf))
    return float(weights @ x)


class Runner:
    """Runs passes over a workload's job list and keeps what they found."""

    def __init__(self, workload: str, seed: int, tmp: str, probe: Probe):
        from jobs import WORKLOADS

        self.probe = probe
        self.build = WORKLOADS[workload]
        self.seed = seed
        self.tmp = tmp
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.misses: list = []
        self.digests: dict = {}
        self.info: dict = {}
        self.passes: list = []  # [{"kind": ..., "times": {job: s}, ...}]
        self.job_meta: dict = {}

    def prepare(self) -> list:
        return self.build(self.seed, self.tmp)

    def run_pass(self, jobs: list, kind: str, tracer=None) -> None:
        from checks import Check

        raw = {}
        probes = [self.probe()]
        for job in jobs:
            self.attempted += 1
            self.job_meta[job.name] = job.meta
            out = err = None
            if tracer is None:
                t0 = time.perf_counter()
                try:
                    out = job.run()
                except Exception:  # a job that raises is a failed job
                    err = traceback.format_exc(limit=3)
                raw[job.name] = time.perf_counter() - t0
            else:
                with tracer.job_span(job.name) as root:
                    try:
                        out = job.run()
                    except Exception:
                        err = traceback.format_exc(limit=3)
                raw[job.name] = root[2] - root[1]
            probes.append(self.probe())
            c = Check()
            if err is None:
                try:
                    job.check(out, c)
                    fp = job.fingerprint(out)
                except Exception:
                    c.problems.append("check raised: " + traceback.format_exc(limit=3))
                    fp = None
                first = self.digests.setdefault(job.name, fp)
                c.require(fp == first, f"output digest {fp} differs from "
                          f"the first pass's {first}")
            else:
                c.problems.append("job raised: " + err)
            if c.problems:
                self.failed += 1
                self.failures.append({"job": job.name, "problems": c.problems})
            self.misses += [{"job": job.name, "miss": m} for m in c.misses]
            if c.info:
                self.info.setdefault(job.name, []).append(c.info)
        scale = PROBE_REF_S / statistics.mean(probes)
        times = {name: t * scale for name, t in raw.items()}
        self.passes.append({"kind": kind, "times": times, "wall_s": sum(times.values()),
                            "raw_times": raw, "raw_wall_s": sum(raw.values()),
                            "probes": probes})

    def loop(self, budget: float, min_rounds: int, one_round) -> None:
        """Repeat ``one_round()`` until one more would overrun the budget."""
        start = time.perf_counter()
        done = 0
        while True:
            one_round()
            done += 1
            elapsed = time.perf_counter() - start
            if done >= min_rounds and elapsed + elapsed / done > budget:
                return


def job_percentile(runner: Runner, q: float) -> float:
    """Percentile of job time in each untraced pass, median over passes."""
    return statistics.median(percentile(list(p["times"].values()), q)
                             for p in runner.passes if p["kind"] == "untraced")


def end_to_end(runner: Runner, setup: list) -> dict:
    walls = [p["wall_s"] for p in runner.passes if p["kind"] == "untraced"]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "job_p50_s": {"value": job_percentile(runner, 0.5), "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }


def main(argv=None) -> int:
    sys.path.insert(0, HERE)
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "matconc", "__init__.py")):
        fail(f"no matconc package under {SRC}; run from a full checkout")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    sys.path.insert(0, SRC)

    import click  # noqa: F401  preloaded: set-up times matconc, not its deps
    import numpy  # noqa: F401

    import checks
    import layers
    import tracer as tracing

    vacuous = checks.selftest()
    tmp = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        probe = Probe()
        runner = Runner(args.workload, args.seed, tmp, probe)
        setup, setup_raw = [], []
        for _ in range(SETUP_REPEATS):
            before = probe()
            t0 = time.perf_counter()
            matconc = import_fresh()
            jobs = runner.prepare()
            setup_raw.append(time.perf_counter() - t0)
            setup.append(setup_raw[-1] * PROBE_REF_S * 2 / (before + probe()))
        if os.path.dirname(os.path.abspath(matconc.__file__)) != os.path.join(SRC, "matconc"):
            fail(f"imported matconc from {matconc.__file__}, not from {SRC}")

        problems = [f"check accepted a wrong output: {v}" for v in vacuous]
        # The first pass in a process is slower (allocator and page-fault
        # warm-up, up to 2.5x on some kernels); it is checked but not timed.
        runner.run_pass(jobs, "warmup")
        if not args.trace:
            runner.loop(args.seconds, 2,
                        lambda: runner.run_pass(runner.prepare(), "untraced"))
            metrics = end_to_end(runner, setup)
        else:
            tr = tracing.Tracer()

            def untraced_then_traced():
                # alternating, so drift in host speed falls on both alike
                runner.run_pass(runner.prepare(), "untraced")
                jobs = runner.prepare()
                tracing.install(tr)
                try:
                    runner.run_pass(jobs, "traced", tr)
                finally:
                    tr.uninstall()

            runner.loop(args.seconds, 2, untraced_then_traced)
            metrics, consistency = layers.per_layer(runner, tr)
            metrics["job_p90_s"] = {"value": job_percentile(runner, 0.9), "unit": "s"}
            problems += consistency
            tr.write(os.path.join(
                OUT, f"trace-{args.workload}-seed{args.seed}.jsonl.gz"))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    info = machine(matconc)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": info, "setup_s": setup,
        "setup_raw_s": setup_raw, "probe_ref_s": PROBE_REF_S,
        "passes": runner.passes, "digests": runner.digests,
        "failures": runner.failures, "misses": runner.misses,
        "job_info": runner.info, "problems": problems, "metrics": metrics,
    }
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=repr)

    print("machine " + json.dumps(info, sort_keys=True))
    print(f"passes {len(runner.passes)}, jobs per pass "
          f"{len(runner.passes[0]['times'])}, statistical misses "
          f"{len(runner.misses)}, failed {runner.failed}/{runner.attempted}")
    replays = [i["replay_bit_exact"] for infos in runner.info.values()
               for i in infos if "replay_bit_exact" in i]
    if replays:
        # a known defect of replay_case, recorded (see README, "Known defect")
        print(f"replays not bit-exact {replays.count(False)}/{len(replays)}")
    for p in problems + [f"{f['job']}: {f['problems']}" for f in runner.failures][:20]:
        print("problem " + str(p))
    result = {
        "correct": runner.failed == 0 and not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
